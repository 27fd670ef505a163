//! Acceptance for the snapshot-based explorer: against the reference
//! tuple-keyed explorer it must visit the *same* state space in *less*
//! dedup memory, and under an equal byte budget it must reach strictly
//! more configurations. Both check Algorithm 2's claims.

use content_oblivious::core::registry::{
    Alg2Def, ExploreDriver, ExploreProperties, ExploreRing, RingProtocol,
};
use content_oblivious::core::{Alg2Node, Role};
use content_oblivious::net::explore::{
    explore, explore_reference, ExploreConfig, ExploreLimits, ExploreReport,
};
use content_oblivious::net::{Protocol, RingSpec};

type Key = (u64, u64, u64, u64, u64, bool, bool);

fn reference_key(node: &Alg2Node) -> Key {
    (
        node.rho_cw(),
        node.sigma_cw(),
        node.rho_ccw(),
        node.sigma_ccw(),
        node.deferred_ccw(),
        node.role() == Role::Leader,
        node.is_terminated(),
    )
}

/// The fingerprint explorer at one worker under `limits`.
fn snapshot(spec: &RingSpec, limits: ExploreLimits) -> ExploreReport {
    let config = ExploreConfig {
        jobs: 1,
        limits,
        ..ExploreConfig::default()
    };
    ExploreDriver::of::<Alg2Def>().run(spec, &config)
}

/// The tuple-keyed reference explorer under `limits`.
fn reference(spec: &RingSpec, limits: ExploreLimits) -> ExploreReport {
    let ring = ExploreRing::new(spec);
    explore_reference(
        &spec.wiring(),
        || Alg2Def::nodes(spec),
        reference_key,
        |state| Alg2Def::safety(&ring, state),
        |state| Alg2Def::at_quiescence(&ring, state),
        limits,
    )
}

#[test]
fn snapshot_explorer_covers_the_same_space_in_fewer_bytes() {
    // The reference dedups on full state tuples, so it cannot collide. The
    // 5- and 6-node rings give the fingerprint's position-keyed sum
    // thousands of configurations that differ by one moved pulse: a
    // structured collision among them would show up as a lower count.
    let rings = [
        vec![1u64, 2],
        vec![3, 1],
        vec![1, 2, 3],
        vec![2, 3, 1],
        vec![1, 2, 3, 4, 5],
        vec![1, 2, 3, 4, 5, 6],
    ];
    for ids in rings {
        let spec = RingSpec::oriented(ids.clone());
        let snap = snapshot(&spec, ExploreLimits::default());
        let reference = reference(&spec, ExploreLimits::default());
        assert!(snap.complete && reference.complete, "{ids:?}");
        assert!(snap.violations.is_empty(), "{ids:?}: {:?}", snap.violations);
        assert_eq!(snap.violations, reference.violations, "{ids:?}");
        assert_eq!(
            snap.configs, reference.configs,
            "{ids:?}: explorers disagree on the state space"
        );
        assert_eq!(
            snap.quiescent_configs, reference.quiescent_configs,
            "{ids:?}: quiescent counts disagree"
        );
        assert!(
            snap.visited_bytes < reference.visited_bytes,
            "{ids:?}: fingerprint index ({} B) not smaller than the reference ({} B)",
            snap.visited_bytes,
            reference.visited_bytes
        );
    }
}

#[test]
fn equal_byte_budget_gives_the_snapshot_explorer_more_reach() {
    // Size the budget to exactly fit the snapshot explorer's full index. The
    // reference explorer — paying for whole state tuples per config — must
    // run out of memory first and cover strictly fewer configurations.
    let spec = RingSpec::oriented(vec![1, 2, 3]);
    let full = snapshot(&spec, ExploreLimits::default());
    assert!(full.complete);

    let budget = ExploreLimits {
        max_state_bytes: full.visited_bytes,
        ..ExploreLimits::default()
    };
    let snap = snapshot(&spec, budget);
    let reference = reference(&spec, budget);
    assert!(
        snap.complete,
        "snapshot explorer should finish inside its own footprint"
    );
    assert!(
        !reference.complete,
        "reference explorer should exhaust the byte budget"
    );
    assert!(
        reference.configs < snap.configs,
        "reference reached {} configs, snapshot {}",
        reference.configs,
        snap.configs
    );
}

#[test]
fn theorem1_still_checked_through_the_snapshot_explorer() {
    // The rewritten explorer must still catch violations: check Algorithm
    // 2's claims (Theorem 1's exact count among them) at every quiescent
    // configuration, and confirm a falsified predicate is reported.
    let spec = RingSpec::oriented(vec![2, 1, 3]);
    let report = snapshot(&spec, ExploreLimits::default());
    assert!(report.complete);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert!(report.quiescent_configs >= 1);

    let falsified = explore(
        &spec.wiring(),
        || Alg2Def::nodes(&spec),
        |_| Ok(()),
        |_| Err("always wrong".into()),
        &ExploreConfig {
            jobs: 1,
            ..ExploreConfig::default()
        },
    );
    assert!(!falsified.violations.is_empty());
}
