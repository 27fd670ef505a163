//! Registry entries for the content-carrying baselines.
//!
//! This module is the proof of the registry seam: onboarding each classic
//! protocol into the determinism toolkit — record → replay byte-identical,
//! ddmin shrinking via the protocol-agnostic [`UniqueLeaderMonitor`],
//! snapshot fingerprints — takes exactly one [`RingProtocol`] impl and one
//! [`ProtocolSpec::of`] builder chain here, with zero edits to the command
//! layer.
//!
//! Capability surface: the baselines read message *content*, so none are
//! explore-safe (the explorer enumerates `Pulse` schedules) and none are
//! fleet-capable (fleet rings are `Pulse`-only). All four join the
//! shrink toolkit through the unique-leader monitor.

use crate::chang_roberts::{ChangRobertsNode, CrMsg};
use crate::franklin::{FranklinMsg, FranklinNode};
use crate::hirschberg_sinclair::{HirschbergSinclairNode, HsMsg};
use crate::peterson::{PetersonMsg, PetersonNode};
use co_core::election::Role;
use co_core::registry::{
    Envelopes, MonitoredProtocol, ProtocolSpec, RingProtocol, UniqueLeaderMonitor,
};
use co_net::{Protocol, RingSpec};

/// Chang–Roberts definition (unidirectional, `O(n²)` messages).
///
/// Its messages carry content, so a run cannot ask for the counter queue
/// backend; only [`Envelopes`] type-checks:
///
/// ```compile_fail
/// use co_classic::registry::ChangRobertsDef;
/// use co_core::runner::{run, RunOptions};
/// use co_net::{QueueBackend, RingSpec, SchedulerKind};
///
/// let opts = RunOptions {
///     backend: QueueBackend::Counter,
///     ..RunOptions::new(SchedulerKind::Fifo, 0)
/// };
/// run::<ChangRobertsDef>(&RingSpec::oriented(vec![1, 2]), &opts);
/// ```
pub struct ChangRobertsDef;

impl RingProtocol for ChangRobertsDef {
    type Msg = CrMsg;
    type Node = ChangRobertsNode;
    type Backend = Envelopes;

    fn nodes(spec: &RingSpec) -> Vec<ChangRobertsNode> {
        (0..spec.len())
            .map(|i| ChangRobertsNode::new(spec.id(i), spec.cw_port(i)))
            .collect()
    }

    fn role(node: &ChangRobertsNode) -> Role {
        node.output().unwrap_or(Role::NonLeader)
    }
}

/// Hirschberg–Sinclair definition (bidirectional, `O(n log n)` messages).
pub struct HirschbergSinclairDef;

impl RingProtocol for HirschbergSinclairDef {
    type Msg = HsMsg;
    type Node = HirschbergSinclairNode;
    type Backend = Envelopes;

    fn nodes(spec: &RingSpec) -> Vec<HirschbergSinclairNode> {
        (0..spec.len())
            .map(|i| HirschbergSinclairNode::new(spec.id(i)))
            .collect()
    }

    fn role(node: &HirschbergSinclairNode) -> Role {
        node.output().unwrap_or(Role::NonLeader)
    }
}

/// Peterson definition (unidirectional, `O(n log n)` messages).
pub struct PetersonDef;

impl RingProtocol for PetersonDef {
    type Msg = PetersonMsg;
    type Node = PetersonNode;
    type Backend = Envelopes;

    fn nodes(spec: &RingSpec) -> Vec<PetersonNode> {
        (0..spec.len())
            .map(|i| PetersonNode::new(spec.id(i), spec.cw_port(i)))
            .collect()
    }

    fn role(node: &PetersonNode) -> Role {
        node.output().unwrap_or(Role::NonLeader)
    }
}

/// Franklin definition (bidirectional, `O(n log n)` messages).
pub struct FranklinDef;

impl RingProtocol for FranklinDef {
    type Msg = FranklinMsg;
    type Node = FranklinNode;
    type Backend = Envelopes;

    fn nodes(spec: &RingSpec) -> Vec<FranklinNode> {
        (0..spec.len())
            .map(|i| FranklinNode::new(spec.id(i), spec.cw_port(i)))
            .collect()
    }

    fn role(node: &FranklinNode) -> Role {
        node.output().unwrap_or(Role::NonLeader)
    }
}

macro_rules! monitored {
    ($def:ty) => {
        impl MonitoredProtocol for $def {
            type Monitor = UniqueLeaderMonitor;

            fn monitor() -> UniqueLeaderMonitor {
                UniqueLeaderMonitor::new()
            }

            fn violated(monitor: &UniqueLeaderMonitor) -> bool {
                monitor.violation().is_some()
            }
        }
    };
}

monitored!(ChangRobertsDef);
monitored!(HirschbergSinclairDef);
monitored!(PetersonDef);
monitored!(FranklinDef);

/// The classic baselines as registry entries, in [`crate::runner::Baseline`]
/// order.
#[must_use]
pub fn classic_entries() -> Vec<ProtocolSpec> {
    vec![
        ProtocolSpec::of::<ChangRobertsDef>(
            "chang-roberts",
            "classic",
            "Chang-Roberts baseline: unidirectional, O(n^2) messages",
        )
        .with_monitor::<ChangRobertsDef>(),
        ProtocolSpec::of::<HirschbergSinclairDef>(
            "hirschberg-sinclair",
            "classic",
            "Hirschberg-Sinclair baseline: bidirectional, O(n log n)",
        )
        .with_monitor::<HirschbergSinclairDef>(),
        ProtocolSpec::of::<PetersonDef>(
            "peterson",
            "classic",
            "Peterson baseline: unidirectional, O(n log n)",
        )
        .with_monitor::<PetersonDef>(),
        ProtocolSpec::of::<FranklinDef>(
            "franklin",
            "classic",
            "Franklin baseline: bidirectional, O(n log n)",
        )
        .with_monitor::<FranklinDef>(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use co_core::registry::{Capability, Registry};
    use co_core::runner::RunOptions;
    use co_net::{SchedulerKind, Simulation};

    fn classic_registry() -> Registry {
        Registry::new(classic_entries())
    }

    #[test]
    fn entries_match_the_baseline_catalogue() {
        let reg = classic_registry();
        assert_eq!(
            reg.names(),
            vec![
                "chang-roberts",
                "hirschberg-sinclair",
                "peterson",
                "franklin"
            ]
        );
        for entry in reg.entries() {
            assert_eq!(entry.layer(), "classic", "{}", entry.name());
            assert!(entry.supports(Capability::Shrink), "{}", entry.name());
            assert!(!entry.supports(Capability::Explore), "{}", entry.name());
            assert!(!entry.supports(Capability::Fleet), "{}", entry.name());
        }
    }

    #[test]
    fn record_replay_round_trips_and_elects_the_max() {
        let spec = RingSpec::oriented(vec![4, 9, 2, 7]);
        for entry in classic_registry().entries() {
            for kind in SchedulerKind::ALL {
                let opts = RunOptions::new(kind, 11);
                let rec = entry.record(&spec, &opts).expect("positive IDs");
                let rep = entry
                    .replay(&spec, &opts, &rec.picks)
                    .expect("positive IDs");
                assert_eq!(rec.report, rep.report, "{} under {kind}", entry.name());
                assert_eq!(
                    rec.fingerprint,
                    rep.fingerprint,
                    "{} under {kind}",
                    entry.name()
                );
                // Every baseline elects exactly one leader; all but
                // Peterson elect the maximum ID (position 1 here).
                assert_eq!(rec.leaders.len(), 1, "{} under {kind}", entry.name());
                if entry.name() != "peterson" {
                    assert_eq!(rec.leaders, vec![1], "{} under {kind}", entry.name());
                }
            }
        }
    }

    #[test]
    fn correct_baselines_never_trip_the_unique_leader_monitor() {
        let spec = RingSpec::oriented(vec![3, 1, 4, 2]);
        for entry in classic_registry().entries() {
            let driver = entry.shrink_driver().expect("all baselines monitored");
            for kind in SchedulerKind::ALL {
                for seed in 0..4 {
                    assert!(
                        driver.hunt(&spec, kind, seed).is_none(),
                        "{} under {kind} seed {seed}",
                        entry.name()
                    );
                }
            }
        }
    }

    #[test]
    fn unique_leader_monitor_trips_on_a_double_election() {
        // Two "rings of one": both solo nodes elect themselves on start,
        // which on a shared simulation is exactly the double-leadership
        // pattern the monitor must latch. Built from two Chang-Roberts
        // nodes that are each their own neighbour pair.
        use crate::chang_roberts::ChangRobertsNode;
        use co_net::{Budget, RingSpec};

        let spec = RingSpec::oriented(vec![5, 5]);
        let nodes: Vec<ChangRobertsNode> = (0..2)
            // Same ID on both nodes: each forwards the other's candidacy
            // as its own and both declare themselves elected.
            .map(|i| ChangRobertsNode::new(5, spec.cw_port(i)))
            .collect();
        let mut sim = Simulation::new(spec.wiring(), nodes, SchedulerKind::Fifo.build(0));
        let mut monitor = UniqueLeaderMonitor::new();
        sim.run_observed(Budget::default(), &mut monitor);
        assert!(
            monitor.violation().is_some(),
            "duplicate IDs must double-elect under Chang-Roberts"
        );
    }
}
