//! Lower-bound machinery — Theorem 20 / Theorem 4 and Definition 21
//! (paper §6).
//!
//! The paper proves that any deterministic terminating content-oblivious
//! leader-election algorithm sends at least `n⌊log(k/n)⌋` pulses when `k`
//! IDs are assignable. The proof pivots on *solitude patterns*
//! (Definition 21): run the algorithm on a single-node ring under the
//! canonical scheduler (deliver in send order, CW-first tie-break) and
//! record the sequence of incoming pulse directions as a binary string
//! (`0` = CW, `1` = CCW). Lemma 22 shows distinct IDs must have distinct
//! solitude patterns; Lemma 23 / Corollary 24 then extract `n` IDs whose
//! patterns share a long common prefix, forcing `n⌊log(k/n)⌋` sends.
//!
//! This module provides:
//!
//! * [`solitude_pattern`] — extract the pattern of any protocol;
//! * [`patterns_unique`] — empirical Lemma 22;
//! * [`max_prefix_group`] — the pigeonhole step of Lemma 23 /
//!   Corollary 24;
//! * [`lower_bound_messages`] — the bound `n⌊log(k/n)⌋` itself.
//!
//! ```rust
//! use co_core::lower_bound::{self, SolitudeExtract};
//!
//! // Algorithm 2's solitude pattern for ID i is 0^i 1^(i+1): i clockwise
//! // pulses, then i CCW pulses plus the termination pulse.
//! let p3 = lower_bound::solitude_pattern_alg2(3).unwrap();
//! assert_eq!(p3.bits(), &[0, 0, 0, 1, 1, 1, 1]);
//!
//! // Theorem 4's bound for k = 1024 assignable IDs on an 8-node ring:
//! assert_eq!(lower_bound::lower_bound_messages(1024, 8), 8 * 7);
//! # let _: Option<SolitudeExtract> = None;
//! ```

use crate::alg1::Alg1Node;
use crate::alg2::Alg2Node;
use crate::alg3::{Alg3Node, IdScheme};
use co_net::sched::SolitudeScheduler;
use co_net::{
    Budget, Direction, Outcome, Port, Protocol, Pulse, RingSpec, SimObserver, Simulation, StepInfo,
};
use std::fmt;

/// A solitude pattern (Definition 21): the direction sequence of pulses a
/// single node receives when running alone, encoded `CW ↦ 0`, `CCW ↦ 1`.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SolitudePattern {
    bits: Vec<u8>,
}

impl SolitudePattern {
    /// Builds a pattern from received-pulse directions.
    #[must_use]
    pub fn from_directions(directions: &[Direction]) -> SolitudePattern {
        SolitudePattern {
            bits: directions
                .iter()
                .map(|d| match d {
                    Direction::Cw => 0u8,
                    Direction::Ccw => 1,
                })
                .collect(),
        }
    }

    /// The pattern as 0/1 bits.
    #[must_use]
    pub fn bits(&self) -> &[u8] {
        &self.bits
    }

    /// Pattern length (= pulses received in solitude).
    #[must_use]
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether the node received no pulses at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Length of the longest common prefix with `other`.
    #[must_use]
    pub fn common_prefix_len(&self, other: &SolitudePattern) -> usize {
        self.bits
            .iter()
            .zip(&other.bits)
            .take_while(|(a, b)| a == b)
            .count()
    }
}

impl fmt::Display for SolitudePattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.bits {
            write!(f, "{b}")?;
        }
        Ok(())
    }
}

/// Result of extracting a solitude pattern.
#[derive(Clone, Debug)]
pub struct SolitudeExtract {
    /// The pattern.
    pub pattern: SolitudePattern,
    /// Total pulses the lone node sent.
    pub sent: u64,
    /// Whether the lone run terminated / quiesced (vs. budget exhaustion).
    pub completed: bool,
}

/// Collects the direction of every delivery the node processed; an ignored
/// delivery (to a node that already terminated) is not part of the pattern.
struct Directions(Vec<Direction>);

impl<P: Protocol<Pulse>> SimObserver<Pulse, P> for Directions {
    fn after_step(&mut self, _sim: &Simulation<Pulse, P>, step: &StepInfo) {
        if !step.ignored {
            self.0.extend(step.direction);
        }
    }
}

/// Extracts the solitude pattern of an arbitrary protocol.
///
/// Runs `node` on a one-node ring (self-loop) under the canonical scheduler
/// of Definition 21 and records incoming pulse directions until quiescence,
/// termination, or `budget` deliveries.
///
/// Returns `None` if the protocol neither terminated nor quiesced within
/// budget (its pattern would be a strict prefix of the true one).
#[must_use]
pub fn solitude_pattern<P: Protocol<Pulse>>(node: P, budget: Budget) -> Option<SolitudeExtract> {
    // The ring spec needs an ID but the protocol instance already carries
    // its own; any positive placeholder yields the same self-loop wiring.
    let spec = RingSpec::oriented(vec![1]);
    let mut sim = Simulation::new(
        spec.wiring(),
        vec![node],
        Box::new(SolitudeScheduler::new()),
    );
    let mut directions = Directions(Vec::new());
    let report = sim.run_observed(budget, &mut directions);
    let completed = matches!(
        report.outcome,
        Outcome::QuiescentTerminated | Outcome::TerminatedNonQuiescent | Outcome::Quiescent
    );
    if !completed {
        return None;
    }
    Some(SolitudeExtract {
        pattern: SolitudePattern::from_directions(&directions.0),
        sent: report.total_sent,
        completed,
    })
}

/// Solitude pattern of Algorithm 2 for a given ID.
///
/// Returns `None` only if the (internal, generous) budget is exceeded,
/// which cannot happen for IDs below ~10⁷.
#[must_use]
pub fn solitude_pattern_alg2(id: u64) -> Option<SolitudePattern> {
    solitude_pattern(Alg2Node::new(id, Port::One), Budget::default()).map(|e| e.pattern)
}

/// Solitude pattern of Algorithm 1 for a given ID.
#[must_use]
pub fn solitude_pattern_alg1(id: u64) -> Option<SolitudePattern> {
    solitude_pattern(Alg1Node::new(id, Port::One), Budget::default()).map(|e| e.pattern)
}

/// Solitude pattern of Algorithm 3 for a given ID and scheme.
#[must_use]
pub fn solitude_pattern_alg3(id: u64, scheme: IdScheme) -> Option<SolitudePattern> {
    solitude_pattern(Alg3Node::new(id, scheme), Budget::default()).map(|e| e.pattern)
}

/// Empirical Lemma 22: are all patterns pairwise distinct?
#[must_use]
pub fn patterns_unique(patterns: &[SolitudePattern]) -> bool {
    let mut sorted: Vec<&SolitudePattern> = patterns.iter().collect();
    sorted.sort();
    sorted.windows(2).all(|w| w[0] != w[1])
}

/// The pigeonhole step (Lemma 23 / Corollary 24): among `patterns`, finds
/// the largest `s` such that at least `n` patterns share a common prefix of
/// length `≥ s`, returning `(s, indices of one such group)`.
///
/// # Panics
///
/// Panics if `n == 0` or `n > patterns.len()`.
#[must_use]
pub fn max_prefix_group(patterns: &[SolitudePattern], n: usize) -> (usize, Vec<usize>) {
    assert!(n >= 1 && n <= patterns.len(), "need 1 ≤ n ≤ k");
    // Sort lexicographically; any n patterns sharing a prefix of length s
    // occupy a contiguous window of the sorted order, and the window's
    // common prefix is the min of adjacent common prefixes.
    let mut order: Vec<usize> = (0..patterns.len()).collect();
    order.sort_by(|&a, &b| patterns[a].bits().cmp(patterns[b].bits()));
    if n == 1 {
        // A single pattern shares its whole length with itself.
        let best = order
            .iter()
            .max_by_key(|&&i| patterns[i].len())
            .copied()
            .expect("non-empty");
        return (patterns[best].len(), vec![best]);
    }
    let adj: Vec<usize> = order
        .windows(2)
        .map(|w| patterns[w[0]].common_prefix_len(&patterns[w[1]]))
        .collect();
    let mut best_s = 0;
    let mut best_at = 0;
    for start in 0..=adj.len().saturating_sub(n - 1) {
        let s = adj[start..start + n - 1].iter().copied().min().unwrap_or(0);
        if s > best_s {
            best_s = s;
            best_at = start;
        }
    }
    (best_s, order[best_at..best_at + n].to_vec())
}

/// Theorem 20 / Theorem 4: the minimum number of pulses any terminating
/// content-oblivious leader-election algorithm sends on an `n`-node ring
/// when `k ≥ n` IDs are assignable: `n·⌊log₂(k/n)⌋`.
///
/// # Panics
///
/// Panics if `n == 0` or `k < n`.
#[must_use]
pub fn lower_bound_messages(k: u64, n: u64) -> u64 {
    assert!(n >= 1, "ring must be non-empty");
    assert!(k >= n, "need at least n assignable IDs");
    // ⌊log2(k/n)⌋ over the rationals equals ⌊log2(⌊k/n⌋)⌋ since k/n ≥ 1.
    n * u64::from((k / n).ilog2())
}

/// The adversarial construction inside the proof of Theorem 20, made
/// executable for Algorithm 2: from the ID universe `1..=k`, extract the
/// `n` IDs whose solitude patterns share the longest common prefix and
/// assemble them into the ring on which the pigeonhole argument operates.
///
/// Returns the witness ring and the shared prefix length `s`: for the
/// first `s` scheduler steps of the canonical schedule, every node of this
/// ring is indistinguishable from its solitude run, forcing `n·s ≥
/// n⌊log(k/n)⌋` pulses.
///
/// # Panics
///
/// Panics if `n == 0`, `k < n`, or pattern extraction fails (it cannot for
/// feasible `k`).
#[must_use]
pub fn theorem20_witness(k: u64, n: usize) -> (RingSpec, usize) {
    assert!(n >= 1 && k >= n as u64, "need 1 ≤ n ≤ k");
    let patterns: Vec<SolitudePattern> = (1..=k)
        .map(|id| solitude_pattern_alg2(id).expect("Algorithm 2 terminates in solitude"))
        .collect();
    let (s, group) = max_prefix_group(&patterns, n);
    // Pattern index i corresponds to ID i + 1.
    let ids: Vec<u64> = group.into_iter().map(|i| i as u64 + 1).collect();
    (RingSpec::oriented(ids), s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alg2_pattern_is_zeros_then_ones() {
        // ID i alone: i CW pulses, then i CCW pulses, then the termination
        // pulse (CCW) — pattern 0^i 1^(i+1).
        for id in 1..=12u64 {
            let p = solitude_pattern_alg2(id).expect("terminates");
            let expected: Vec<u8> = std::iter::repeat_n(0u8, id as usize)
                .chain(std::iter::repeat_n(1u8, id as usize + 1))
                .collect();
            assert_eq!(p.bits(), &expected[..], "id {id}");
        }
    }

    #[test]
    fn alg1_pattern_is_all_cw() {
        let p = solitude_pattern_alg1(5).expect("quiesces");
        assert_eq!(p.bits(), &[0, 0, 0, 0, 0]);
    }

    #[test]
    fn alg3_pattern_lengths_match_scheme() {
        // On a self-loop with ID 4: improved scheme receives (4+1) + 4 = 9
        // pulses; doubled scheme receives 8 + 7 = 15.
        let improved = solitude_pattern_alg3(4, IdScheme::Improved).unwrap();
        assert_eq!(improved.len(), 9);
        let doubled = solitude_pattern_alg3(4, IdScheme::Doubled).unwrap();
        assert_eq!(doubled.len(), 15);
    }

    #[test]
    fn lemma22_uniqueness_for_alg2() {
        let patterns: Vec<SolitudePattern> = (1..=64)
            .map(|id| solitude_pattern_alg2(id).expect("terminates"))
            .collect();
        assert!(patterns_unique(&patterns));
    }

    #[test]
    fn duplicate_patterns_detected() {
        let a = SolitudePattern::from_directions(&[Direction::Cw, Direction::Ccw]);
        let b = a.clone();
        assert!(!patterns_unique(&[a, b]));
    }

    #[test]
    fn common_prefix_len_basic() {
        let a = SolitudePattern {
            bits: vec![0, 0, 1, 1],
        };
        let b = SolitudePattern {
            bits: vec![0, 0, 1, 0],
        };
        let c = SolitudePattern { bits: vec![1] };
        assert_eq!(a.common_prefix_len(&b), 3);
        assert_eq!(a.common_prefix_len(&c), 0);
        assert_eq!(a.common_prefix_len(&a), 4);
    }

    #[test]
    fn corollary24_holds_for_alg2_patterns() {
        // With k = 32 IDs and n = 4, some 4 patterns must share a prefix of
        // length ≥ ⌊log2(32/4)⌋ = 3.
        let patterns: Vec<SolitudePattern> = (1..=32)
            .map(|id| solitude_pattern_alg2(id).unwrap())
            .collect();
        let (s, group) = max_prefix_group(&patterns, 4);
        assert!(s >= 3, "shared prefix {s} < pigeonhole bound 3");
        assert_eq!(group.len(), 4);
        // Alg2 patterns 0^i 1^(i+1): the top-4 IDs share prefix 0^29.
        assert_eq!(s, 29);
    }

    #[test]
    fn prefix_group_single() {
        let patterns: Vec<SolitudePattern> = (1..=5)
            .map(|id| solitude_pattern_alg2(id).unwrap())
            .collect();
        let (s, group) = max_prefix_group(&patterns, 1);
        assert_eq!(group.len(), 1);
        assert_eq!(s, 2 * 5 + 1, "longest pattern is ID 5's");
    }

    #[test]
    fn bound_formula() {
        assert_eq!(lower_bound_messages(1024, 8), 8 * 7);
        assert_eq!(lower_bound_messages(8, 8), 0);
        assert_eq!(lower_bound_messages(1 << 20, 1), 20);
        // Non-power-of-two: ⌊log2(1000/3)⌋ = ⌊log2 333⌋ = 8.
        assert_eq!(lower_bound_messages(1000, 3), 24);
    }

    #[test]
    fn theorem1_upper_vs_theorem4_lower() {
        // Our algorithm's complexity n(2·ID_max+1) always dominates the
        // lower bound n⌊log(ID_max/n)⌋.
        for n in [1u64, 2, 4, 8] {
            for id_max in [8u64, 64, 1 << 12] {
                if id_max < n {
                    continue;
                }
                let upper = n * (2 * id_max + 1);
                let lower = lower_bound_messages(id_max, n);
                assert!(upper >= lower, "n={n} id_max={id_max}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least n")]
    fn bound_rejects_k_below_n() {
        let _ = lower_bound_messages(3, 5);
    }

    #[test]
    fn theorem20_witness_forces_the_bound() {
        use crate::registry::Alg2Def;
        use crate::runner::{self, RunOptions};
        use co_net::SchedulerKind;
        // The witness ring's measured complexity must dominate n·s, which
        // itself dominates the pigeonhole bound n⌊log(k/n)⌋.
        for (k, n) in [(16u64, 2usize), (32, 4), (64, 4)] {
            let (spec, s) = theorem20_witness(k, n);
            assert_eq!(spec.len(), n);
            assert!(spec.ids_unique());
            let pigeonhole = (k / n as u64).ilog2() as usize;
            assert!(s >= pigeonhole, "k={k} n={n}: s={s} < {pigeonhole}");
            let report =
                runner::run::<Alg2Def>(&spec, &RunOptions::new(SchedulerKind::Solitude, 0));
            assert!(
                report.total_messages >= (n * s) as u64,
                "k={k} n={n}: measured {} < n·s = {}",
                report.total_messages,
                n * s
            );
        }
    }

    #[test]
    fn witness_picks_largest_ids_for_alg2() {
        // Algorithm 2's patterns are 0^i 1^(i+1): the longest-shared-prefix
        // group of size n is always the n largest IDs.
        let (spec, s) = theorem20_witness(16, 3);
        let mut ids = spec.ids().to_vec();
        ids.sort_unstable();
        assert_eq!(ids, vec![14, 15, 16]);
        assert_eq!(s, 14, "prefix 0^14 shared by IDs 14, 15, 16");
    }

    #[test]
    fn display_renders_bits() {
        let p = SolitudePattern::from_directions(&[Direction::Cw, Direction::Ccw, Direction::Ccw]);
        assert_eq!(p.to_string(), "011");
        assert!(!p.is_empty());
    }
}
