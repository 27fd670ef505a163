//! Indexed-pick equivalence: the incrementally maintained scheduler
//! indexes must be pick-for-pick identical to the retained O(ready) scan
//! implementations.
//!
//! Three layers of evidence:
//!
//! 1. A property harness that replays random ready-set mutation sequences
//!    (enqueue / head-advance / drain, modelled exactly like the engine's
//!    dense ready array) against two copies of the same scheduler — one
//!    driven through the incremental hooks + `indexed_pick`, one shown the
//!    ready slice per scan `pick` — and demands channel-for-channel
//!    agreement, surviving mid-sequence `rebuild_index` calls.
//! 2. The full simulation grid — 8 scheduler adversaries × {Alg1, Alg2,
//!    Alg3} × fault plans × both queue backends — run with indexed picks
//!    on vs off, demanding byte-identical `RunReport`/`SimStats`/
//!    fingerprints.
//! 3. Cross-mode record/replay and mid-run snapshot/restore: a schedule
//!    recorded with indexes on replays bit-exact with them off (and vice
//!    versa), and a snapshot taken mid-run under one mode continues
//!    identically under the other.

use content_oblivious::core::registry::{Alg1Def, Alg2Def, Alg3Def, RingProtocol};
use content_oblivious::core::Alg2Node;
use content_oblivious::net::sched::{
    BoundedDelayScheduler, FifoScheduler, LifoScheduler, LongestQueueScheduler,
    PhaseSwitchScheduler, RecordingScheduler, RoundRobinScheduler, SolitudeScheduler,
    StarveDirectionScheduler, StarveNodeScheduler,
};
use content_oblivious::net::{
    Budget, ChannelId, ChannelView, Direction, FaultPlan, Protocol, Pulse, QueueBackend, RingSpec,
    RunReport, Scheduler, SchedulerKind, Simulation, Snapshot,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

// ---------------------------------------------------------------------------
// Layer 1: the ready-set mutation property harness.
// ---------------------------------------------------------------------------

/// A faithful model of the engine's ready bookkeeping: a dense
/// `Vec<ChannelView>` mutated in place, swap-removed on drain, backed by
/// per-channel FIFO queues of globally unique send seqs.
struct ReadyModel {
    ready: Vec<ChannelView>,
    queues: Vec<VecDeque<u64>>,
    next_seq: u64,
}

impl ReadyModel {
    fn new(channels: usize) -> ReadyModel {
        ReadyModel {
            ready: Vec::new(),
            queues: (0..channels).map(|_| VecDeque::new()).collect(),
            next_seq: 0,
        }
    }

    /// Direction tag of a channel, as a ring topology would assign it.
    fn direction(channel: usize) -> Option<Direction> {
        Some(if channel % 2 == 0 {
            Direction::Cw
        } else {
            Direction::Ccw
        })
    }

    fn pos_of(&self, channel: usize) -> Option<usize> {
        self.ready.iter().position(|v| v.id.index() == channel)
    }

    /// Enqueues the next seq onto `channel`, firing the matching hook on
    /// `indexed` exactly as the engine does.
    fn enqueue(&mut self, channel: usize, indexed: &mut dyn Scheduler) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queues[channel].push_back(seq);
        match self.pos_of(channel) {
            Some(at) => {
                self.ready[at].queue_len += 1;
                indexed.on_head_change(self.ready[at]);
            }
            None => {
                let view = ChannelView {
                    id: ChannelId::from_index(channel),
                    queue_len: 1,
                    head_seq: seq,
                    direction: Self::direction(channel),
                    arrival: 0,
                };
                self.ready.push(view);
                indexed.on_ready(view);
            }
        }
    }

    /// Delivers the head of `channel`, firing the matching hook.
    fn deliver(&mut self, channel: usize, indexed: &mut dyn Scheduler) {
        let at = self.pos_of(channel).expect("delivering a ready channel");
        self.queues[channel].pop_front();
        match self.queues[channel].front() {
            Some(&next_head) => {
                self.ready[at].head_seq = next_head;
                self.ready[at].queue_len -= 1;
                indexed.on_head_change(self.ready[at]);
            }
            None => {
                self.ready.swap_remove(at);
                indexed.on_unready(ChannelId::from_index(channel));
            }
        }
    }
}

/// Runs `iters` random mutations against two same-configured schedulers:
/// `indexed` sees only the incremental hooks (plus the occasional rebuild),
/// `scan` sees only ready slices. Every pick must name the same channel.
fn assert_picks_agree(
    label: &str,
    mut indexed: Box<dyn Scheduler>,
    mut scan: Box<dyn Scheduler>,
    channels: usize,
    seed: u64,
    iters: usize,
) {
    let mut model = ReadyModel::new(channels);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut picks = 0usize;
    for step in 0..iters {
        // A rebuild mid-sequence must be a no-op for subsequent picks.
        if step % 97 == 96 {
            indexed.rebuild_index(&model.ready);
        }
        if model.ready.is_empty() || rng.gen_range(0u32..100) < 55 {
            let channel = rng.gen_range(0..channels);
            model.enqueue(channel, indexed.as_mut());
        } else {
            let scan_at = scan.pick(&model.ready);
            let scan_id = model.ready[scan_at].id;
            // The engine's step: consult the index, fall back to scan.
            let indexed_id = match indexed.indexed_pick() {
                Some(id) => id,
                None => {
                    let at = indexed.pick(&model.ready);
                    model.ready[at].id
                }
            };
            assert_eq!(
                indexed_id, scan_id,
                "{label}: pick #{picks} diverged at step {step}"
            );
            model.deliver(scan_id.index(), indexed.as_mut());
            picks += 1;
        }
    }
    assert!(picks > iters / 4, "{label}: the harness exercised picks");
}

/// Every built-in `SchedulerKind`, across several seeds and channel counts.
#[test]
fn random_mutation_sequences_agree_for_every_kind() {
    for kind in SchedulerKind::ALL {
        for seed in [0u64, 1, 42] {
            for channels in [3usize, 10, 33] {
                assert_picks_agree(
                    &format!("{kind} seed {seed} channels {channels}"),
                    kind.build(seed),
                    kind.build(seed),
                    channels,
                    seed ^ (channels as u64) << 8,
                    2_000,
                );
            }
        }
    }
}

/// The composite and special-purpose adversaries outside `SchedulerKind`:
/// starve-node, phase-switch, recording wrappers, bounded-delay.
#[test]
fn special_schedulers_agree_too() {
    let victims = |n: usize| (0..n).filter(|c| c % 3 == 0).map(ChannelId::from_index);
    assert_picks_agree(
        "starve-node",
        Box::new(StarveNodeScheduler::new(0, victims(12).collect())),
        Box::new(StarveNodeScheduler::new(0, victims(12).collect())),
        12,
        5,
        2_000,
    );
    assert_picks_agree(
        "starve-direction",
        Box::new(StarveDirectionScheduler::new(Direction::Ccw)),
        Box::new(StarveDirectionScheduler::new(Direction::Ccw)),
        9,
        6,
        2_000,
    );
    assert_picks_agree(
        "phase-switch fifo->lifo",
        Box::new(PhaseSwitchScheduler::new(
            Box::new(FifoScheduler::new()),
            Box::new(LifoScheduler::new()),
            50,
        )),
        Box::new(PhaseSwitchScheduler::new(
            Box::new(FifoScheduler::new()),
            Box::new(LifoScheduler::new()),
            50,
        )),
        8,
        7,
        2_000,
    );
    // Bounded-delay keeps no index (its picks are RNG-coupled); the harness
    // still proves the lazy deadline bookkeeping changes nothing observable.
    assert_picks_agree(
        "bounded-delay",
        Box::new(BoundedDelayScheduler::new(6, 11)),
        Box::new(BoundedDelayScheduler::new(6, 11)),
        8,
        8,
        2_000,
    );
    // Recording wrappers log identical pick sequences through either path.
    let (indexed_rec, indexed_log) = RecordingScheduler::new(Box::new(SolitudeScheduler::new()));
    let (scan_rec, scan_log) = RecordingScheduler::new(Box::new(SolitudeScheduler::new()));
    assert_picks_agree(
        "recording(solitude)",
        Box::new(indexed_rec),
        Box::new(scan_rec),
        10,
        9,
        2_000,
    );
    assert_eq!(
        indexed_log.borrow().as_slice(),
        scan_log.borrow().as_slice(),
        "recorded logs match pick for pick"
    );
    assert!(!indexed_log.borrow().is_empty());
    // Round-robin cursors wrap identically under both paths.
    assert_picks_agree(
        "round-robin",
        Box::new(RoundRobinScheduler::new()),
        Box::new(RoundRobinScheduler::new()),
        13,
        10,
        2_000,
    );
    // Longest-queue keys on (queue_len, Reverse(head_seq)).
    assert_picks_agree(
        "longest-queue",
        Box::new(LongestQueueScheduler::new()),
        Box::new(LongestQueueScheduler::new()),
        7,
        12,
        2_000,
    );
}

// ---------------------------------------------------------------------------
// Layer 2: the full simulation grid, indexed picks on vs off.
// ---------------------------------------------------------------------------

/// Everything a run exposes.
#[derive(Debug, PartialEq)]
struct Observed {
    report: RunReport,
    total_sent: u64,
    total_delivered: u64,
    fingerprint: u64,
    terminated: Vec<bool>,
}

fn observe<P, F>(
    spec: &RingSpec,
    make: F,
    kind: SchedulerKind,
    seed: u64,
    plan: &FaultPlan,
    backend: QueueBackend,
    indexed: bool,
) -> Observed
where
    P: Protocol<Pulse> + Snapshot,
    F: Fn() -> Vec<P>,
{
    let mut sim: Simulation<Pulse, P> =
        Simulation::with_backend(spec.wiring(), make(), kind.build(seed), backend);
    sim.set_indexed_picks(indexed);
    sim.set_faults(plan.clone());
    let report = sim.run(Budget::steps(200_000));
    let stats = sim.stats();
    Observed {
        total_sent: stats.total_sent,
        total_delivered: stats.total_delivered,
        fingerprint: sim.fingerprint(),
        terminated: (0..spec.len()).map(|v| sim.is_terminated(v)).collect(),
        report,
    }
}

fn assert_modes_equivalent<P, F>(spec: &RingSpec, make: F, label: &str)
where
    P: Protocol<Pulse> + Snapshot,
    F: Fn() -> Vec<P>,
{
    let plans = [
        ("clean", FaultPlan::new()),
        ("drop4", FaultPlan::new().drop_seq(4)),
        ("dup1", FaultPlan::new().duplicate_seq(1)),
    ];
    for kind in SchedulerKind::ALL {
        for seed in [0u64, 7] {
            for (plan_label, plan) in &plans {
                for backend in QueueBackend::ALL {
                    let on = observe(spec, &make, kind, seed, plan, backend, true);
                    let off = observe(spec, &make, kind, seed, plan, backend, false);
                    assert_eq!(
                        on, off,
                        "{label} under {kind} seed {seed} plan {plan_label} backend {backend}"
                    );
                }
            }
        }
    }
}

/// The full grid: 8 schedulers × 3 algorithms × 3 fault plans × 2 backends
/// × 2 seeds, every observable equal with indexes on vs off.
#[test]
fn full_grid_agrees_with_indexes_on_and_off() {
    let spec = RingSpec::oriented(vec![3, 6, 1, 5, 2]);
    assert_modes_equivalent(&spec, || Alg1Def::nodes(&spec), "alg1");
    assert_modes_equivalent(&spec, || Alg2Def::nodes(&spec), "alg2");
    let flipped = RingSpec::with_flips(vec![3, 6, 1, 5, 2], vec![true, false, true, false, false]);
    assert_modes_equivalent(&flipped, || <Alg3Def>::nodes(&flipped), "alg3");
}

// ---------------------------------------------------------------------------
// Layer 3: cross-mode record/replay and snapshot/restore.
// ---------------------------------------------------------------------------

fn alg2_sim(kind: SchedulerKind, seed: u64, indexed: bool) -> Simulation<Pulse, Alg2Node> {
    let spec = RingSpec::oriented(vec![4, 2, 7, 1]);
    let nodes = Alg2Def::nodes(&spec);
    let mut sim = Simulation::new(spec.wiring(), nodes, kind.build(seed));
    sim.set_indexed_picks(indexed);
    sim
}

/// A schedule recorded under one pick mode replays bit-exact under the
/// other, in both directions.
#[test]
fn schedules_cross_replay_between_modes() {
    for kind in SchedulerKind::ALL {
        for (record_indexed, replay_indexed) in [(true, false), (false, true)] {
            let mut recorder = alg2_sim(kind, 3, record_indexed);
            let (report, schedule) = recorder.run_recorded(Budget::default());
            let mut replayer = alg2_sim(kind, 3, replay_indexed);
            let replayed = replayer.replay(&schedule, Budget::default());
            assert_eq!(
                report, replayed,
                "{kind} recorded indexed={record_indexed} replayed indexed={replay_indexed}"
            );
            assert_eq!(recorder.fingerprint(), replayer.fingerprint(), "{kind}");
        }
    }
}

/// A snapshot taken mid-run with indexes on restores into an engine with
/// them off (and vice versa) and walks the identical configuration chain.
#[test]
fn snapshots_cross_restore_between_modes() {
    for kind in SchedulerKind::ALL {
        for (first_indexed, second_indexed) in [(true, false), (false, true)] {
            let mut a = alg2_sim(kind, 5, first_indexed);
            a.start();
            for _ in 0..40 {
                if a.step().is_none() {
                    break;
                }
            }
            let snap = a.snapshot();
            let mut b = alg2_sim(kind, 5, second_indexed);
            b.restore(&snap);
            assert_eq!(a.fingerprint(), b.fingerprint(), "{kind}: restore point");
            loop {
                let sa = a.step();
                let sb = b.step();
                assert_eq!(sa.is_some(), sb.is_some(), "{kind}");
                assert_eq!(a.fingerprint(), b.fingerprint(), "{kind}");
                if sa.is_none() {
                    break;
                }
            }
            assert_eq!(a.stats(), b.stats(), "{kind}");
        }
    }
}
