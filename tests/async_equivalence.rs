//! The async facade is a *representation*, not a different model: a
//! protocol written as straight-line futures over [`co_net::runtime`]
//! produces byte-identical observables to its `on_message` state-machine
//! twin.
//!
//! Pinned for Algorithm 1 (stabilizing, futures never return) and
//! Chang–Roberts (terminating, returning *is* termination), across the
//! full scheduler × fault matrix and under record→replay. The comparison
//! uses [`Simulation::net_fingerprint`] / `AsyncRing::net_fingerprint` —
//! the node-state-free network fingerprint — because the two
//! representations store node state in incomparable shapes on purpose.

use content_oblivious::classic::chang_roberts::{ChangRobertsNode, CrMsg};
use content_oblivious::classic::chang_roberts_async_ring;
use content_oblivious::classic::registry::ChangRobertsDef;
use content_oblivious::core::registry::{Alg1Def, RingProtocol};
use content_oblivious::core::{alg1_async_ring, Alg1Node, Role};
use content_oblivious::net::runtime::AsyncRing;
use content_oblivious::net::{
    Budget, FaultPlan, Protocol, Pulse, RingSpec, RunReport, SchedulerKind, SimStats, Simulation,
};

const IDS: [u64; 5] = [4, 9, 1, 6, 3];

fn fault_plans() -> [FaultPlan; 3] {
    [
        FaultPlan::new(),
        FaultPlan::new().drop_seq(3),
        FaultPlan::new().duplicate_seq(2).drop_seq(6),
    ]
}

/// (report, stats, network fingerprint) of a state-machine run.
fn machine_run<P: Protocol<Pulse> + Clone>(
    spec: &RingSpec,
    nodes: Vec<P>,
    kind: SchedulerKind,
    faults: &FaultPlan,
) -> (RunReport, SimStats, u64, Vec<P>) {
    let mut sim: Simulation<Pulse, P> = Simulation::new(spec.wiring(), nodes, kind.build(11));
    sim.set_faults(faults.clone());
    let report = sim.run(Budget::steps(50_000));
    let stats = sim.stats().clone();
    let fp = sim.net_fingerprint();
    let nodes = (0..spec.len()).map(|i| sim.node(i).clone()).collect();
    (report, stats, fp, nodes)
}

fn async_run<M, Out>(
    mut ring: AsyncRing<M, Out>,
    faults: &FaultPlan,
) -> (RunReport, SimStats, u64, Vec<Option<Out>>)
where
    M: content_oblivious::net::Message,
    Out: Clone + std::fmt::Debug,
{
    ring.set_faults(faults.clone());
    let report = ring.run(Budget::steps(50_000));
    (
        report,
        ring.stats().clone(),
        ring.net_fingerprint(),
        ring.outputs(),
    )
}

#[test]
fn alg1_async_matches_the_state_machine_across_the_matrix() {
    let spec = RingSpec::oriented(IDS.to_vec());
    for kind in SchedulerKind::ALL {
        for faults in &fault_plans() {
            let ctx = format!("{kind}/faults={}", !faults.is_empty());
            let nodes: Vec<Alg1Node> = Alg1Def::nodes(&spec);
            let (m_report, m_stats, m_fp, m_nodes) = machine_run(&spec, nodes, kind, faults);
            let (a_report, a_stats, a_fp, a_outputs) =
                async_run(alg1_async_ring(&spec, kind.build(11)), faults);
            assert_eq!(m_report, a_report, "{ctx}");
            assert_eq!(m_stats, a_stats, "{ctx}");
            assert_eq!(m_fp, a_fp, "{ctx}");
            let m_outputs: Vec<Option<Role>> = m_nodes.iter().map(Protocol::output).collect();
            assert_eq!(m_outputs, a_outputs, "{ctx}");
        }
    }
}

#[test]
fn chang_roberts_async_matches_the_state_machine_across_the_matrix() {
    let spec = RingSpec::oriented(IDS.to_vec());
    for kind in SchedulerKind::ALL {
        // No fault grid: the state machine relays the `Elected` wave before
        // terminating, so under drops/dups both twins still agree, but the
        // interesting difference — termination via `return` — is scheduler
        // driven. Faults ride along once, on the FIFO row.
        let faults = if kind == SchedulerKind::Fifo {
            fault_plans()[2].clone()
        } else {
            FaultPlan::new()
        };
        let nodes: Vec<ChangRobertsNode> = ChangRobertsDef::nodes(&spec);
        let mut sim: Simulation<CrMsg, ChangRobertsNode> =
            Simulation::new(spec.wiring(), nodes, kind.build(11));
        sim.set_faults(faults.clone());
        let m_report = sim.run(Budget::steps(50_000));
        let (a_report, a_stats, a_fp, a_outputs) =
            async_run(chang_roberts_async_ring(&spec, kind.build(11)), &faults);
        assert_eq!(m_report, a_report, "{kind}");
        assert_eq!(sim.stats(), &a_stats, "{kind}");
        assert_eq!(sim.net_fingerprint(), a_fp, "{kind}");
        let m_outputs: Vec<Option<Role>> = (0..spec.len()).map(|i| sim.node(i).output()).collect();
        assert_eq!(m_outputs, a_outputs, "{kind}");
    }
}

#[test]
fn async_recording_replays_on_both_representations() {
    let spec = RingSpec::oriented(IDS.to_vec());

    // Record an adversarial async run...
    let mut recorder = alg1_async_ring(&spec, SchedulerKind::Random.build(23));
    let (recorded, schedule) = recorder.run_recorded(Budget::steps(50_000));

    // ...replay it on a fresh async ring...
    let mut async_replay = alg1_async_ring(&spec, SchedulerKind::Fifo.build(0));
    let async_report = async_replay.replay(&schedule, Budget::steps(50_000));
    assert_eq!(recorded, async_report);
    assert_eq!(recorder.net_fingerprint(), async_replay.net_fingerprint());
    assert_eq!(recorder.outputs(), async_replay.outputs());

    // ...and on the state-machine twin: one schedule, three identical runs.
    let nodes: Vec<Alg1Node> = Alg1Def::nodes(&spec);
    let mut machine: Simulation<Pulse, Alg1Node> =
        Simulation::new(spec.wiring(), nodes, SchedulerKind::Fifo.build(0));
    let machine_report = machine.replay(&schedule, Budget::steps(50_000));
    assert_eq!(recorded, machine_report);
    assert_eq!(recorder.net_fingerprint(), machine.net_fingerprint());
}

#[test]
fn a_terminated_async_node_ignores_late_deliveries() {
    // Chang–Roberts' CW-most non-leader terminates while its neighbour may
    // still hold the Elected wave; the engine must drop deliveries to
    // returned futures exactly like it does for terminated state machines.
    let spec = RingSpec::oriented(vec![2, 1]);
    let mut ring = chang_roberts_async_ring(&spec, SchedulerKind::Lifo.build(0));
    ring.run(Budget::default());
    assert!(ring.is_terminated(0) && ring.is_terminated(1));
    assert_eq!(
        ring.outputs(),
        vec![Some(Role::Leader), Some(Role::NonLeader)]
    );
}
