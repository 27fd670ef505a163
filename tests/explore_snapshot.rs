//! Acceptance for the snapshot-based explorer: it must visit the *same*
//! state space as the independent model (`tests/model`), which keeps every
//! full configuration and so cannot merge two different ones, while its
//! fingerprint index takes less memory than those configurations.

// This binary models Algorithm 2 only.
#[allow(dead_code)]
mod model;

use content_oblivious::core::registry::{Alg2Def, ExploreDriver};
use content_oblivious::net::explore::ExploreConfig;
use content_oblivious::net::RingSpec;
use model::{Protocol, Ring};

#[test]
fn snapshot_explorer_covers_the_same_space_in_fewer_bytes() {
    // The 5- and 6-node rings give the fingerprint's position-keyed sum
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
        let snap = ExploreDriver::of::<Alg2Def>().run(
            &spec,
            &ExploreConfig {
                jobs: 1,
                ..ExploreConfig::default()
            },
        );
        let model = model::explore(&Ring::oriented(Protocol::Alg2, &ids));
        assert!(snap.complete, "{ids:?}");
        assert!(snap.violations.is_empty(), "{ids:?}: {:?}", snap.violations);
        assert_eq!(
            snap.configs, model.configs,
            "{ids:?}: the explorer and the model disagree on the state space"
        );
        assert_eq!(
            snap.quiescent_configs,
            model.quiescent.len(),
            "{ids:?}: quiescent counts disagree"
        );
        let model_bytes = model.configs * ids.len() * (model::SLOTS + 2) * 4;
        assert!(
            snap.visited_bytes < model_bytes,
            "{ids:?}: fingerprint index ({} B) not smaller than the full configurations ({model_bytes} B)",
            snap.visited_bytes,
        );
    }
}
