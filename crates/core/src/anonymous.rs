//! Anonymous rings — Algorithm 4 and Theorem 3 (paper §5).
//!
//! In an anonymous ring all nodes are identical and have no IDs, but each
//! has its own source of randomness. Terminating leader election is
//! impossible here (Itai–Rodeh), so the paper aims for quiescent
//! *stabilization* with high probability `1 − O(n^{-c})`.
//!
//! The reduction is a message-free sampling step (Algorithm 4): every node
//! samples a bit-length from a geometric distribution with parameter
//! `1 − p`, `p = 2^{-1/(c+2)}`, then uniform random bits of that length.
//! Lemma 18 shows the maximal sampled ID is unique with high probability,
//! of magnitude between `n^{Ω(c)}` and `n^{O(c²)}`. Since sampling needs no
//! communication it composes trivially; afterwards the ring runs
//! Algorithm 3 with the sampled IDs, which by Lemma 16 elects exactly the
//! unique-maximum holder (and orients the ring).
//!
//! ### Implementation notes (documented substitutions)
//!
//! * The paper samples `ID ∈ {0,1}^BitCount`, which can be the integer 0;
//!   our network model requires positive IDs, so we use `value + 1`. The
//!   shift is monotone and applied to every node, so it preserves both the
//!   uniqueness of the maximum and all order statistics (and therefore
//!   Lemma 18 verbatim).
//! * [`SamplingConfig::max_bits`] optionally truncates the geometric tail.
//!   This is a *harness guard* for simulation feasibility — a sampled
//!   60-bit ID implies `n·2^60` pulses — not part of the algorithm;
//!   `None` (the default) is the paper-faithful behaviour. A node's
//!   sampled bit length reaches the guard with probability `p^max_bits`,
//!   so a ring of `n` nodes meets it with probability
//!   `1 − (1 − p^max_bits)^n`. E5 samples under a 14-bit guard and does
//!   not print that rate yet.
//! * This module defines no `Protocol` of its own — after sampling, the
//!   ring runs [`crate::Alg3Node`], which implements `co_net::Snapshot`, so
//!   anonymous elections participate in record/replay and exploration
//!   through the Algorithm 3 phase.
//!
//! ```rust
//! use co_core::anonymous::{elect_anonymous, SamplingConfig};
//! use co_core::runner::RunOptions;
//! use co_net::SchedulerKind;
//!
//! let cfg = SamplingConfig::new(1.0).with_max_bits(16);
//! let result = elect_anonymous(8, &cfg, &RunOptions::new(SchedulerKind::Random, 42));
//! // With c = 1 a ring of 8 succeeds with high probability; this seed does.
//! assert!(result.success);
//! assert!(result.messages > 0);
//! ```

use crate::alg3::IdScheme;
use crate::runner::{run_alg3, RunOptions};
use co_net::{Outcome, RingSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of the ID-sampling procedure (Algorithm 4).
#[derive(Clone, Debug, PartialEq)]
pub struct SamplingConfig {
    /// The paper's constant `c > 0`: failure probability is `O(n^{-c})`.
    pub c: f64,
    /// Optional harness guard truncating the geometric tail (see module
    /// docs). `None` = paper-faithful unbounded sampling (up to the `u64`
    /// representation limit of 63 bits).
    pub max_bits: Option<u32>,
}

impl SamplingConfig {
    /// Creates a config for the given `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c <= 0`.
    #[must_use]
    pub fn new(c: f64) -> SamplingConfig {
        assert!(c > 0.0, "the paper requires c > 0");
        SamplingConfig { c, max_bits: None }
    }

    /// Sets the harness guard on the sampled bit length.
    #[must_use]
    pub fn with_max_bits(mut self, max_bits: u32) -> SamplingConfig {
        self.max_bits = Some(max_bits);
        self
    }

    /// The geometric parameter `p = 2^{-1/(c+2)}` (line 1 of Algorithm 4).
    #[must_use]
    pub fn p(&self) -> f64 {
        2f64.powf(-1.0 / (self.c + 2.0))
    }

    /// Hard representation cap: IDs must fit a `u64` even after the
    /// `2·ID` arithmetic of [`IdScheme::Doubled`].
    fn bit_cap(&self) -> u32 {
        self.max_bits.unwrap_or(62).min(62)
    }
}

/// Samples one ID per Algorithm 4 (shifted by +1; see module docs).
///
/// `BitCount ~ Geo(1 − p)` counts the failures before the first success,
/// then the ID's bits are drawn uniformly from `{0,1}^BitCount`.
#[must_use]
pub fn sample_id<R: Rng + ?Sized>(cfg: &SamplingConfig, rng: &mut R) -> u64 {
    let p = cfg.p();
    let cap = cfg.bit_cap();
    let mut bit_count = 0u32;
    while bit_count < cap && rng.gen::<f64>() < p {
        bit_count += 1;
    }
    let value = if bit_count == 0 {
        0
    } else {
        rng.gen_range(0..(1u64 << bit_count))
    };
    value + 1
}

/// Samples `n` IDs, one per node, from independent generators derived from
/// `seed` (each node owns its randomness, as the model requires).
#[must_use]
pub fn sample_ids(n: usize, cfg: &SamplingConfig, seed: u64) -> Vec<u64> {
    (0..n)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(
                seed ^ (0x5851_F42D_4C95_7F2D_u64.wrapping_mul(i as u64 + 1)),
            );
            sample_id(cfg, &mut rng)
        })
        .collect()
}

/// Outcome of one anonymous-ring election trial.
#[derive(Clone, Debug)]
pub struct AnonymousResult {
    /// The sampled IDs (position order).
    pub ids: Vec<u64>,
    /// The maximal sampled ID.
    pub id_max: u64,
    /// Whether the maximal ID was attained uniquely (Lemma 18's condition).
    pub unique_max: bool,
    /// Whether the run elected exactly one leader at the maximum holder and
    /// produced a consistent orientation.
    pub success: bool,
    /// Total pulses exchanged.
    pub messages: u64,
    /// Whether the run reached quiescence within budget.
    pub quiescent: bool,
}

/// Runs one anonymous-ring election: Algorithm 4 sampling followed by
/// Algorithm 3 (improved scheme) on a randomly port-flipped ring.
///
/// `opts.seed` seeds the ID sampling, the port flips and the scheduler;
/// the run honours `opts`' scheduler, latency plan, backend and budget.
///
/// Success means: quiescence, exactly one `Leader` (at a maximum holder),
/// and a consistent orientation. By Lemma 16 plus Lemma 18 this happens
/// with probability `1 − O(n^{-c})`.
#[must_use]
pub fn elect_anonymous(n: usize, cfg: &SamplingConfig, opts: &RunOptions) -> AnonymousResult {
    let seed = opts.seed;
    let ids = sample_ids(n, cfg, seed);
    let id_max = *ids.iter().max().expect("n > 0");
    let unique_max = ids.iter().filter(|&&id| id == id_max).count() == 1;

    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0x9E37_79B9));
    let spec = RingSpec::random_flips(ids.clone(), &mut rng);
    let out = run_alg3(&spec, IdScheme::Improved, opts)
        .expect("sampled IDs have at most 62 bits, below IdScheme::Improved.max_id()");
    let quiescent = out.report.outcome == Outcome::Quiescent;
    // One leader, at a holder of the maximum ID, and one orientation.
    let success = quiescent
        && out.orientation_consistent
        && out.report.leader.is_some_and(|l| spec.id(l) == id_max);

    AnonymousResult {
        ids,
        id_max,
        unique_max,
        success,
        messages: out.report.total_messages,
        quiescent,
    }
}

/// Empirical success-rate estimate over `trials` independent runs of
/// [`elect_anonymous`] under `opts`, trial `t` seeded with
/// `opts.seed + t·0x2545_F491`.
///
/// Returns `(successes, unique_max_count, mean_id_max, max_messages)` — the
/// quantities Theorem 3 and Lemma 18 bound.
#[must_use]
pub fn success_rate(
    n: usize,
    cfg: &SamplingConfig,
    opts: &RunOptions,
    trials: u64,
) -> AnonymousStats {
    let mut successes = 0u64;
    let mut unique = 0u64;
    let mut sum_id_max = 0u128;
    let mut max_messages = 0u64;
    let mut max_id_max = 0u64;
    for t in 0..trials {
        let trial = RunOptions {
            seed: opts.seed.wrapping_add(t.wrapping_mul(0x2545_F491)),
            ..opts.clone()
        };
        let r = elect_anonymous(n, cfg, &trial);
        successes += u64::from(r.success);
        unique += u64::from(r.unique_max);
        sum_id_max += u128::from(r.id_max);
        max_messages = max_messages.max(r.messages);
        max_id_max = max_id_max.max(r.id_max);
    }
    AnonymousStats {
        trials,
        successes,
        unique_max: unique,
        mean_id_max: sum_id_max as f64 / trials as f64,
        max_id_max,
        max_messages,
    }
}

/// Aggregate statistics from [`success_rate`].
#[derive(Clone, Debug)]
pub struct AnonymousStats {
    /// Number of trials run.
    pub trials: u64,
    /// Trials that elected correctly (leader + orientation).
    pub successes: u64,
    /// Trials whose maximal sampled ID was unique.
    pub unique_max: u64,
    /// Mean of the maximal sampled ID (Lemma 18: `n^{Θ(c)}`..`n^{O(c²)}`).
    pub mean_id_max: f64,
    /// Largest maximal ID seen.
    pub max_id_max: u64,
    /// Largest per-trial message count (Theorem 3: `n^{O(1)}`).
    pub max_messages: u64,
}

impl AnonymousStats {
    /// Fraction of successful trials.
    #[must_use]
    pub fn rate(&self) -> f64 {
        self.successes as f64 / self.trials as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use co_net::SchedulerKind;

    #[test]
    fn sampled_ids_are_positive_and_bounded() {
        let cfg = SamplingConfig::new(1.0).with_max_bits(10);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let id = sample_id(&cfg, &mut rng);
            assert!(id >= 1);
            assert!(id <= 1 << 10);
        }
    }

    #[test]
    fn geometric_parameter_matches_paper() {
        let cfg = SamplingConfig::new(1.0);
        // p = 2^{-1/3}
        assert!((cfg.p() - 2f64.powf(-1.0 / 3.0)).abs() < 1e-12);
    }

    #[test]
    fn sampling_is_reproducible_and_independent_per_node() {
        let cfg = SamplingConfig::new(1.0).with_max_bits(12);
        let a = sample_ids(16, &cfg, 7);
        let b = sample_ids(16, &cfg, 7);
        assert_eq!(a, b);
        let c = sample_ids(16, &cfg, 8);
        assert_ne!(a, c, "different seed should change at least one ID");
    }

    #[test]
    fn larger_c_gives_longer_ids_on_average() {
        let mut rng = StdRng::seed_from_u64(3);
        let small: f64 = (0..4000)
            .map(|_| sample_id(&SamplingConfig::new(0.5).with_max_bits(24), &mut rng) as f64)
            .sum::<f64>()
            / 4000.0;
        let large: f64 = (0..4000)
            .map(|_| sample_id(&SamplingConfig::new(3.0).with_max_bits(24), &mut rng) as f64)
            .sum::<f64>()
            / 4000.0;
        assert!(
            large > small,
            "c=3 mean {large} should exceed c=0.5 mean {small}"
        );
    }

    #[test]
    fn election_succeeds_when_max_unique() {
        let cfg = SamplingConfig::new(1.0).with_max_bits(12);
        let mut ok = 0;
        let mut unique_trials = 0;
        for seed in 0..20 {
            let r = elect_anonymous(6, &cfg, &RunOptions::new(SchedulerKind::Random, seed));
            assert!(r.quiescent, "seed {seed} must reach quiescence");
            if r.unique_max {
                unique_trials += 1;
                assert!(r.success, "seed {seed}: unique max must elect");
                ok += 1;
            } else {
                // With a tied maximum the improved scheme may elect zero or
                // multiple leaders — exactly the whp failure event.
                assert!(!r.success || r.unique_max);
            }
        }
        assert!(unique_trials > 10, "most trials should have a unique max");
        assert!(ok > 0);
    }

    #[test]
    fn stats_aggregate() {
        let cfg = SamplingConfig::new(1.0).with_max_bits(10);
        let stats = success_rate(4, &cfg, &RunOptions::new(SchedulerKind::Fifo, 99), 20);
        assert_eq!(stats.trials, 20);
        assert!(stats.rate() > 0.5, "rate {}", stats.rate());
        assert!(stats.mean_id_max >= 1.0);
        assert!(stats.max_messages > 0);
    }

    #[test]
    #[should_panic(expected = "c > 0")]
    fn rejects_non_positive_c() {
        let _ = SamplingConfig::new(0.0);
    }
}
