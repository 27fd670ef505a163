//! Virtual-time guarantees of the event core.
//!
//! Four pins:
//!
//! * a degenerate zero-latency plan is invisible — every observable of a
//!   run (report, stats, fingerprint) is bit-identical to a simulation
//!   that never installed a plan, across the full scheduler × protocol ×
//!   fault × backend matrix;
//! * seeded non-zero latency is deterministic: reruns, record→replay
//!   round-trips, and snapshot/restore forks all agree byte-for-byte;
//! * the virtual clock itself (final `now`, timestamps) is part of the
//!   replayed state, not an afterthought;
//! * Algorithm 2 latency elections up to n = 300 hash to one pinned digest,
//!   so a change to the send order or the delay draw that moves any pick,
//!   count or timestamp fails here.

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
    let first = (sim.fingerprint(), sim.now());

    sim.restore(&checkpoint);
    sim.run(Budget::default());
    let second = (sim.fingerprint(), sim.now());

    assert_eq!(first, second, "a restored fork replays the same future");
}

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn words(&mut self, ws: &[u64]) {
        self.word(ws.len() as u64);
        for &w in ws {
            self.word(w);
        }
    }
}

/// Hashes one Algorithm 2 latency election under `plan` into `h`: the
/// report, the statistics, the fingerprint and the final clock of a plain
/// run, and the schedule a recorded rerun picks.
fn hash_election(h: &mut Fnv, spec: &RingSpec, plan: &LatencyPlan, ctx: &str) {
    let sim = || {
        let mut sim: Simulation<Pulse, Alg2Node> = Simulation::new(
            spec.wiring(),
            Alg2Def::nodes(spec),
            SchedulerKind::Latency.build(0),
        );
        sim.set_latency(plan.clone());
        sim
    };
    let mut plain = sim();
    let report = plain.run(Budget::default());
    assert_eq!(report.outcome, Outcome::QuiescentTerminated, "{ctx}");
    for b in format!("{:?}", report.outcome).bytes() {
        h.word(u64::from(b));
    }
    h.words(&[report.total_sent, report.steps, report.in_flight]);
    let stats = plain.stats();
    h.words(&[
        stats.total_sent,
        stats.total_delivered,
        stats.delivered_to_terminated,
        stats.steps,
    ]);
    h.words(&stats.sent_by_direction);
    h.words(&stats.sent_by_port);
    h.words(&stats.recv_by_port);
    h.words(&[plain.fingerprint(), plain.now()]);

    let mut recorder = sim();
    let (recorded, schedule) = recorder.run_recorded(Budget::default());
    assert_eq!(recorded, report, "{ctx}");
    assert_eq!(recorder.fingerprint(), plain.fingerprint(), "{ctx}");
    assert_eq!(recorder.now(), plain.now(), "{ctx}");
    let picks: Vec<u64> = schedule.iter().map(|c| c.index() as u64).collect();
    h.words(&picks);
}

/// The ring sizes the digests cover, each with a fixed scramble of
/// `1..=n` as IDs (37 is coprime to every n here).
fn pinned_rings() -> impl Iterator<Item = (u64, RingSpec)> {
    [7u64, 64, 300].into_iter().map(|n| {
        (
            n,
            RingSpec::oriented((0..n).map(|i| (i * 37) % n + 1).collect()),
        )
    })
}

/// Pins Algorithm 2 latency elections bit for bit (see [`hash_election`])
/// at n = 7, 64 and 300 with three plan seeds each. The plans cover narrow
/// and wide uniform delays, a fixed delay far beyond any of them, the full
/// 64-bit draw, and ticks that saturate at `u64::MAX`.
#[test]
fn latency_elections_match_the_pinned_digest() {
    let plans = [
        LatencyModel::Uniform { min: 1, max: 10 },
        LatencyModel::Uniform { min: 1, max: 200 },
        LatencyModel::Fixed(1000),
        LatencyModel::Uniform {
            min: 0,
            max: u64::MAX,
        },
        LatencyModel::Fixed(u64::MAX),
    ];
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for (n, spec) in pinned_rings() {
        for model in plans {
            for seed in [1, 2, 3] {
                let plan = LatencyPlan::new(model, seed);
                hash_election(&mut h, &spec, &plan, &format!("n={n} {model} seed={seed}"));
            }
        }
    }
    assert_eq!(h.0, 0x0348_d6d9_1bb3_a864, "digest {:#018x}", h.0);
}

/// Pins Algorithm 2 latency elections whose ticks mix `u64::MAX` (and just
/// below it) with small ones: one or two channels at a fixed delay of
/// `u64::MAX` or `u64::MAX - 10`, every other channel at zero delay or
/// `uniform:1..10`. The digest was taken from the build that ordered sends
/// with a tick map, before the tick wheel.
#[test]
fn latency_elections_mixing_saturated_and_small_ticks_match_the_pinned_digest() {
    let uniform = LatencyModel::Uniform { min: 1, max: 10 };
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for (n, spec) in pinned_rings() {
        let last = 2 * n as usize - 1;
        for seed in [1, 2, 3] {
            let plans = [
                LatencyPlan::new(LatencyModel::Zero, seed)
                    .with_channel(0, LatencyModel::Fixed(u64::MAX)),
                LatencyPlan::new(uniform, seed).with_channel(0, LatencyModel::Fixed(u64::MAX)),
                LatencyPlan::new(uniform, seed)
                    .with_channel(1, LatencyModel::Fixed(u64::MAX - 10))
                    .with_channel(last, LatencyModel::Fixed(u64::MAX))
                    .with_channel(2, LatencyModel::Zero),
            ];
            for (i, plan) in plans.iter().enumerate() {
                hash_election(&mut h, &spec, plan, &format!("n={n} plan {i} seed={seed}"));
            }
        }
    }
    assert_eq!(h.0, 0x5468_8a4a_1ef6_37e5, "digest {:#018x}", h.0);
}
