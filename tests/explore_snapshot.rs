//! Acceptance for the snapshot-based explorer: against the reference
//! tuple-keyed explorer it must visit the *same* state space in *less*
//! dedup memory, and under an equal byte budget it must reach strictly
//! more configurations.

use content_oblivious::core::registry::{Alg2Def, RingProtocol};
use content_oblivious::core::{Alg2Node, Role};
use content_oblivious::net::explore::{
    explore, explore_reference, ExploreConfig, ExploreLimits, ExploreState,
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

fn make_nodes(spec: &RingSpec) -> Vec<Alg2Node> {
    Alg2Def::nodes(spec)
}

fn no_check(_: &ExploreState<Alg2Node>) -> Result<(), String> {
    Ok(())
}

#[test]
fn snapshot_explorer_covers_the_same_space_in_fewer_bytes() {
    for ids in [vec![1u64, 2], vec![3, 1], vec![1, 2, 3], vec![2, 3, 1]] {
        let spec = RingSpec::oriented(ids.clone());
        let snap = explore(
            &spec.wiring(),
            || make_nodes(&spec),
            no_check,
            no_check,
            &ExploreConfig {
                jobs: 1,
                ..ExploreConfig::default()
            },
        );
        let reference = explore_reference(
            &spec.wiring(),
            || make_nodes(&spec),
            reference_key,
            no_check,
            no_check,
            ExploreLimits::default(),
        );
        assert!(snap.complete && reference.complete, "{ids:?}");
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
    let full = explore(
        &spec.wiring(),
        || make_nodes(&spec),
        no_check,
        no_check,
        &ExploreConfig {
            jobs: 1,
            ..ExploreConfig::default()
        },
    );
    assert!(full.complete);

    let budget = ExploreLimits {
        max_state_bytes: full.visited_bytes,
        ..ExploreLimits::default()
    };
    let snap = explore(
        &spec.wiring(),
        || make_nodes(&spec),
        no_check,
        no_check,
        &ExploreConfig {
            jobs: 1,
            limits: budget,
            ..ExploreConfig::default()
        },
    );
    let reference = explore_reference(
        &spec.wiring(),
        || make_nodes(&spec),
        reference_key,
        no_check,
        no_check,
        budget,
    );
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
    // The rewritten explorer must still catch violations: verify Theorem 1's
    // exact count at every quiescent configuration, and confirm a falsified
    // predicate is reported.
    let spec = RingSpec::oriented(vec![2, 1, 3]);
    let predicted = spec.len() as u64 * (2 * spec.id_max() + 1);
    let report = explore(
        &spec.wiring(),
        || make_nodes(&spec),
        no_check,
        |state| {
            if state.sent == predicted {
                Ok(())
            } else {
                Err(format!("sent {} ≠ {predicted}", state.sent))
            }
        },
        &ExploreConfig {
            jobs: 1,
            ..ExploreConfig::default()
        },
    );
    assert!(report.complete);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert!(report.quiescent_configs >= 1);

    let falsified = explore(
        &spec.wiring(),
        || make_nodes(&spec),
        no_check,
        |_| Err("always wrong".into()),
        &ExploreConfig {
            jobs: 1,
            ..ExploreConfig::default()
        },
    );
    assert!(!falsified.violations.is_empty());
}
