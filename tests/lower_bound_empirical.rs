//! Empirical Section 6: solitude patterns, Lemma 22/23, Corollary 24, and
//! the Theorem 4/20 lower bound against our algorithms' measured costs.

use content_oblivious::core::lower_bound::{
    lower_bound_messages, max_prefix_group, patterns_unique, solitude_pattern_alg1,
    solitude_pattern_alg2, solitude_pattern_alg3, SolitudePattern,
};
use content_oblivious::core::registry::Alg2Def;
use content_oblivious::core::runner::RunOptions;
use content_oblivious::core::{runner, IdScheme};
use content_oblivious::net::{RingSpec, SchedulerKind};

fn alg2_patterns(k: u64) -> Vec<SolitudePattern> {
    (1..=k)
        .map(|id| solitude_pattern_alg2(id).expect("terminates"))
        .collect()
}

#[test]
fn lemma22_patterns_unique_across_algorithms() {
    let a2 = alg2_patterns(256);
    assert!(patterns_unique(&a2));
    let a1: Vec<_> = (1..=256)
        .map(|id| solitude_pattern_alg1(id).expect("quiesces"))
        .collect();
    assert!(patterns_unique(&a1));
    let a3: Vec<_> = (1..=128)
        .map(|id| solitude_pattern_alg3(id, IdScheme::Improved).expect("quiesces"))
        .collect();
    assert!(patterns_unique(&a3));
}

#[test]
fn corollary24_pigeonhole_bound_holds() {
    // For any k patterns and any n ≤ k, some n patterns share a prefix of
    // length ≥ ⌊log2(k/n)⌋.
    let patterns = alg2_patterns(64);
    for n in [1usize, 2, 4, 8, 16, 32, 64] {
        let (s, group) = max_prefix_group(&patterns, n);
        let bound = (64u64 / n as u64).ilog2() as usize;
        assert!(
            s >= bound,
            "n={n}: shared prefix {s} below pigeonhole bound {bound}"
        );
        assert_eq!(group.len(), n);
    }
}

#[test]
fn theorem4_lower_bound_below_measured_cost() {
    // Measured messages of Algorithm 2 vs the universal lower bound, over a
    // sweep of (n, ID_max): the bound must always hold, and the ratio
    // reveals the gap the paper leaves open.
    for n in [1u64, 2, 4, 8, 16] {
        for exp in [6u32, 10, 14] {
            let id_max = 1u64 << exp;
            if id_max < n {
                continue;
            }
            // Ring: IDs 1..n-1 plus one id_max (worst-case single big ID).
            let mut ids: Vec<u64> = (1..n).collect();
            ids.push(id_max);
            let spec = RingSpec::oriented(ids);
            let report = runner::run::<Alg2Def>(&spec, &RunOptions::new(SchedulerKind::Fifo, 0));
            let lower = lower_bound_messages(id_max, n);
            assert!(
                report.total_messages >= lower,
                "n={n} id_max={id_max}: measured {} < bound {lower}",
                report.total_messages
            );
            // Theorem 1's exact count.
            assert_eq!(report.total_messages, n * (2 * id_max + 1));
        }
    }
}

#[test]
fn lower_bound_unbounded_in_id_universe() {
    // Theorem 20's closing remark: even for n = 1, the bound grows without
    // limit as the ID universe grows.
    let mut last = 0;
    for exp in [4u32, 8, 16, 32, 63] {
        let bound = lower_bound_messages(1u64 << exp, 1);
        assert!(bound > last);
        last = bound;
    }
    assert_eq!(last, 63);
}

#[test]
fn alg2_pattern_structure_encodes_id_in_unary() {
    // The pattern 0^i 1^(i+1) is why our algorithm pays Θ(ID_max): the
    // pattern length is 2·ID + 1, far above the log₂(ID) information bound
    // — consistent with (and not contradicting) Theorem 4.
    for id in [1u64, 3, 17, 200] {
        let p = solitude_pattern_alg2(id).unwrap();
        assert_eq!(p.len() as u64, 2 * id + 1);
    }
}
