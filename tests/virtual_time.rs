//! Virtual-time guarantees of the event core.
//!
//! Three pins:
//!
//! * a degenerate zero-latency plan is invisible — every observable of a
//!   run (report, stats, fingerprint) is bit-identical to a simulation
//!   that never installed a plan, across the full scheduler × protocol ×
//!   fault × backend matrix;
//! * seeded non-zero latency is deterministic: reruns, record→replay
//!   round-trips, and snapshot/restore forks all agree byte-for-byte;
//! * the virtual clock itself (final `now`, timestamps) is part of the
//!   replayed state, not an afterthought.

use content_oblivious::core::registry::{Alg1Def, Alg2Def, Alg3Def, RingProtocol};
use content_oblivious::core::Alg2Node;
use content_oblivious::net::{
    Budget, FaultPlan, LatencyModel, LatencyPlan, Outcome, Protocol, Pulse, QueueBackend, RingSpec,
    RunReport, SchedulerKind, Simulation, Snapshot,
};

const IDS: [u64; 5] = [3, 7, 2, 5, 1];

fn fault_plans() -> [FaultPlan; 2] {
    [
        FaultPlan::new(),
        FaultPlan::new().drop_seq(3).duplicate_seq(7),
    ]
}

/// Runs `nodes` to completion and returns every observable worth pinning.
fn observe<P: Protocol<Pulse> + Snapshot>(
    spec: &RingSpec,
    nodes: Vec<P>,
    kind: SchedulerKind,
    backend: QueueBackend,
    faults: &FaultPlan,
    latency: Option<LatencyPlan>,
) -> (RunReport, u64, u64) {
    let mut sim: Simulation<Pulse, P> =
        Simulation::with_backend(spec.wiring(), nodes, kind.build(9), backend);
    sim.set_faults(faults.clone());
    if let Some(plan) = latency {
        sim.set_latency(plan);
    }
    let report = sim.run(Budget::steps(50_000));
    (report, sim.fingerprint(), sim.now())
}

#[test]
fn zero_latency_is_invisible_across_the_matrix() {
    let spec = RingSpec::oriented(IDS.to_vec());
    for kind in SchedulerKind::ALL {
        for backend in [QueueBackend::Vec, QueueBackend::Counter] {
            for faults in &fault_plans() {
                let ctx = format!("{kind}/{backend:?}/faults={}", !faults.is_empty());
                macro_rules! pin {
                    ($make:expr) => {{
                        let plain = observe(&spec, $make(&spec), kind, backend, faults, None);
                        let zeroed = observe(
                            &spec,
                            $make(&spec),
                            kind,
                            backend,
                            faults,
                            Some(LatencyPlan::zero()),
                        );
                        assert_eq!(plain, zeroed, "{ctx}");
                        assert_eq!(plain.2, 0, "untimed clock never moves: {ctx}");
                    }};
                }
                pin!(Alg1Def::nodes);
                pin!(Alg2Def::nodes);
                pin!(<Alg3Def>::nodes);
            }
        }
    }
}

#[test]
fn seeded_latency_reruns_are_byte_identical() {
    let spec = RingSpec::oriented(IDS.to_vec());
    let plan = LatencyPlan::new(LatencyModel::Uniform { min: 1, max: 9 }, 77);
    // The latency-aware scheduler rides with the eight classic adversaries.
    let kinds = SchedulerKind::ALL
        .into_iter()
        .chain([SchedulerKind::Latency]);
    for kind in kinds {
        let nodes = Alg2Def::nodes;
        let a = observe(
            &spec,
            nodes(&spec),
            kind,
            QueueBackend::Vec,
            &FaultPlan::new(),
            Some(plan.clone()),
        );
        let b = observe(
            &spec,
            nodes(&spec),
            kind,
            QueueBackend::Vec,
            &FaultPlan::new(),
            Some(plan.clone()),
        );
        assert_eq!(a, b, "{kind}");
        assert_eq!(a.0.outcome, Outcome::QuiescentTerminated, "{kind}");
        assert!(a.2 > 0, "a timed run must advance the clock: {kind}");
    }
}

#[test]
fn latency_survives_record_replay() {
    let spec = RingSpec::oriented(IDS.to_vec());
    let plan = LatencyPlan::new(LatencyModel::Uniform { min: 2, max: 6 }, 5);
    let nodes = Alg2Def::nodes;

    let mut recorder: Simulation<Pulse, Alg2Node> =
        Simulation::new(spec.wiring(), nodes(&spec), SchedulerKind::Random.build(13));
    recorder.set_latency(plan.clone());
    let (recorded_report, schedule) = recorder.run_recorded(Budget::default());

    // The replayed run must install the same plan: arrival timestamps are
    // simulation state, and the schedule was recorded against them.
    let mut replayer: Simulation<Pulse, Alg2Node> =
        Simulation::new(spec.wiring(), nodes(&spec), SchedulerKind::Fifo.build(0));
    replayer.set_latency(plan);
    let replayed_report = replayer.replay(&schedule, Budget::default());

    assert_eq!(recorded_report, replayed_report);
    assert_eq!(recorder.fingerprint(), replayer.fingerprint());
    assert_eq!(recorder.now(), replayer.now());
    assert_eq!(recorder.net_fingerprint(), replayer.net_fingerprint());
}

#[test]
fn snapshot_restore_forks_agree_under_latency() {
    let spec = RingSpec::oriented(IDS.to_vec());
    let plan = LatencyPlan::new(LatencyModel::Uniform { min: 1, max: 4 }, 21);
    let nodes: Vec<Alg2Node> = Alg2Def::nodes(&spec);
    let mut sim: Simulation<Pulse, Alg2Node> =
        Simulation::new(spec.wiring(), nodes, SchedulerKind::Random.build(2));
    sim.set_latency(plan);

    // Pause mid-run: in-flight timestamps, per-channel RNG states and the
    // clock are all live in the snapshot.
    let paused = sim.run(Budget::steps(25));
    assert_eq!(paused.outcome, Outcome::BudgetExhausted);
    assert!(sim.now() > 0, "25 timed deliveries move the clock");
    let checkpoint = sim.snapshot();

    sim.run(Budget::default());
    let first = (sim.fingerprint(), sim.net_fingerprint(), sim.now());

    sim.restore(&checkpoint);
    sim.run(Budget::default());
    let second = (sim.fingerprint(), sim.net_fingerprint(), sim.now());

    assert_eq!(first, second, "a restored fork replays the same future");
}
