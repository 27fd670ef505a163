//! Exhaustive model checking of the paper's algorithms on small instances:
//! unlike the sampled adversaries, these tests enumerate **every** possible
//! asynchronous schedule and check each definition's claims
//! (`ExploreProperties`) in each reachable configuration.

use content_oblivious::core::registry::{Alg1Def, Alg2Def, Alg3Def, ExploreDriver};
use content_oblivious::net::explore::ExploreConfig;
use content_oblivious::net::RingSpec;

/// Explores every schedule of `spec` with `driver` at one worker and
/// requires a complete, violation-free run that reaches quiescence.
fn check_all_schedules(driver: ExploreDriver, spec: &RingSpec) {
    let report = driver.run(
        spec,
        &ExploreConfig {
            jobs: 1,
            ..ExploreConfig::default()
        },
    );
    assert!(report.complete, "{spec}: exploration incomplete");
    assert!(
        report.violations.is_empty(),
        "{spec}: {:?}",
        report.violations
    );
    assert!(report.quiescent_configs >= 1, "{spec}");
}

#[test]
fn alg2_exhaustive_tiny_rings() {
    // Every schedule of every listed instance satisfies Lemma 6,
    // Corollary 14 and Theorem 1.
    let alg2 = ExploreDriver::of::<Alg2Def>();
    for ids in [
        [1].as_slice(),
        &[3],
        &[1, 2],
        &[2, 1],
        &[1, 3],
        &[3, 1],
        &[2, 3],
    ] {
        check_all_schedules(alg2, &RingSpec::oriented(ids.to_vec()));
    }
}

#[test]
fn alg2_exhaustive_three_ring() {
    let alg2 = ExploreDriver::of::<Alg2Def>();
    for ids in [vec![1, 2, 3], vec![3, 1, 2], vec![2, 3, 1]] {
        check_all_schedules(alg2, &RingSpec::oriented(ids));
    }
}

#[test]
fn alg1_exhaustive_stabilization() {
    // Algorithm 1 on all schedules: quiescence implies everyone at ID_max
    // with exactly the max-ID node(s) holding Leader (incl. duplicates —
    // Lemma 16).
    for ids in [vec![1u64, 2], vec![2, 4, 3], vec![3, 3, 1]] {
        check_all_schedules(ExploreDriver::of::<Alg1Def>(), &RingSpec::oriented(ids));
    }
}

#[test]
fn alg3_exhaustive_orientation() {
    // Algorithm 3 (improved) on a flipped 2-ring: all schedules stabilize
    // to one leader and a consistent orientation, with the Theorem 2 count.
    for flips in [vec![false, false], vec![true, false], vec![true, true]] {
        let spec = RingSpec::with_flips(vec![1, 2], flips);
        check_all_schedules(ExploreDriver::of::<Alg3Def>(), &spec);
    }
}
