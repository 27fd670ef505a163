//! Indexed-pick equivalence: every built-in scheduler's incrementally
//! maintained index must be pick-for-pick identical to its O(ready) scan
//! order, kept here as the test-only [`ScanOracle`]. The oracle also checks
//! every view the engine reports against the sends and deliveries reported
//! before it, so a view built from the wrong state fails the grid even
//! where the built-in index and the scan would agree on it.
//!
//! Three layers of evidence:
//!
//! 1. A property harness that replays random ready-set mutation sequences
//!    (enqueue / head-advance / drain, modelled exactly like the engine's
//!    dense array of ready ids and its per-message sends) against a
//!    built-in scheduler and its oracle, both driven through the
//!    incremental hooks and shown the ready ids per pick, and demands
//!    channel-for-channel agreement, surviving mid-sequence re-indexes of
//!    the built-in one (`rebuild_index`, then every in-flight send replayed
//!    in send order) and deliveries the scheduler did not pick
//!    (`Simulation::step_channel`).
//! 2. The full simulation grid — 8 scheduler adversaries × {Alg1, Alg2,
//!    Alg3} × fault plans × both queue backends — run under the built-in
//!    scheduler and under its oracle, demanding the same recorded pick
//!    sequence and byte-identical `RunReport`/`SimStats`/fingerprints.
//!    The picks are what tells two adversaries apart: Theorems 1–3 make
//!    the end state the same under every schedule.
//! 3. Cross record/replay: a schedule recorded under the built-in
//!    scheduler replays bit-exact under the oracle's replay (and vice
//!    versa).

use content_oblivious::core::registry::{Alg1Def, Alg2Def, Alg3Def, RingProtocol};
use content_oblivious::core::Alg2Node;
use content_oblivious::net::sched::{
    BoundedDelayScheduler, FifoScheduler, LatencyScheduler, LongestQueueScheduler,
    PhaseSwitchScheduler, ReplayScheduler, RoundRobinScheduler, StarveDirectionScheduler,
};
use content_oblivious::net::{
    Budget, ChannelId, ChannelView, Direction, FaultPlan, LatencyModel, LatencyPlan, Protocol,
    Pulse, QueueBackend, RingSpec, RunReport, Schedule, Scheduler, SchedulerKind, SimObserver,
    Simulation, Snapshot, StepInfo,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::VecDeque;
use std::rc::Rc;

// ---------------------------------------------------------------------------
// The reference: scan orders over the ready ids.
// ---------------------------------------------------------------------------

/// One built-in adversary's order as a scan. Solitude's order is Fifo's:
/// every send takes its own seq, so no two heads ever tie and Definition
/// 21's CW-first tie-break decides nothing.
#[derive(Clone, Debug)]
enum Order {
    Fifo,
    Lifo,
    Random(StdRng),
    RoundRobin {
        cursor: usize,
    },
    StarveDirection(Direction),
    LongestQueue,
    Latency,
    Replay {
        script: Vec<ChannelId>,
        cursor: usize,
    },
}

/// What the hooks reported of one ready channel: its last view, and the
/// `(seq, arrival)` of every message sent on it and not yet delivered.
#[derive(Clone, Debug)]
struct Reported {
    view: ChannelView,
    queued: VecDeque<(u64, u64)>,
}

/// An [`Order`] as an O(ready) scan of the ready ids it is shown, each
/// looked up in a channel → view map fed by the hooks. It keeps no ordered
/// index. Before it scans, it checks each view against the sends and
/// deliveries the hooks reported: the queue length, head seq and head
/// arrival must be what those imply.
#[derive(Clone, Debug)]
struct ScanOracle {
    order: Order,
    channels: Vec<Option<Reported>>,
}

impl ScanOracle {
    fn new(order: Order) -> ScanOracle {
        ScanOracle {
            order,
            channels: Vec::new(),
        }
    }

    /// The oracle of `kind.build(seed)`.
    fn of(kind: SchedulerKind, seed: u64) -> ScanOracle {
        ScanOracle::new(match kind {
            SchedulerKind::Fifo | SchedulerKind::Solitude => Order::Fifo,
            SchedulerKind::Lifo => Order::Lifo,
            SchedulerKind::Random => Order::Random(StdRng::seed_from_u64(seed)),
            SchedulerKind::RoundRobin => Order::RoundRobin { cursor: 0 },
            SchedulerKind::StarveCw => Order::StarveDirection(Direction::Cw),
            SchedulerKind::StarveCcw => Order::StarveDirection(Direction::Ccw),
            SchedulerKind::LongestQueue => Order::LongestQueue,
            SchedulerKind::Latency => Order::Latency,
        })
    }

    /// The oracle of `ReplayScheduler::new(script)`.
    fn replay(script: Vec<ChannelId>) -> ScanOracle {
        ScanOracle::new(Order::Replay { script, cursor: 0 })
    }

    /// Records `view` as its channel's latest and returns the channel's
    /// in-flight messages.
    fn report(&mut self, view: ChannelView) -> &mut VecDeque<(u64, u64)> {
        let at = view.id.index();
        if self.channels.len() <= at {
            self.channels.resize(at + 1, None);
        }
        let reported = self.channels[at].get_or_insert_with(|| Reported {
            view,
            queued: VecDeque::new(),
        });
        reported.view = view;
        &mut reported.queued
    }

    /// `id`'s latest view, checked against its in-flight messages.
    fn checked_view(&self, id: ChannelId) -> ChannelView {
        let reported = self
            .channels
            .get(id.index())
            .and_then(Option::as_ref)
            .unwrap_or_else(|| panic!("{id:?} is ready but no hook reported it"));
        let &(head_seq, arrival) = reported
            .queued
            .front()
            .unwrap_or_else(|| panic!("{id:?} is ready but nothing was sent on it"));
        let view = reported.view;
        assert_eq!(
            (view.queue_len, view.head_seq, view.arrival),
            (reported.queued.len(), head_seq, arrival),
            "{id:?}: the reported view disagrees with the reported sends and deliveries"
        );
        view
    }
}

/// The ready channel with the smallest `key`.
fn min_by<K: Ord>(ready: &[ChannelView], key: impl Fn(&ChannelView) -> K) -> ChannelId {
    ready
        .iter()
        .min_by_key(|v| key(v))
        .expect("ready is non-empty")
        .id
}

impl Scheduler for ScanOracle {
    fn pick(&mut self, ready: &[ChannelId]) -> ChannelId {
        let views: Vec<ChannelView> = ready.iter().map(|&id| self.checked_view(id)).collect();
        match &mut self.order {
            Order::Fifo => min_by(&views, |v| v.head_seq),
            Order::Lifo => min_by(&views, |v| Reverse(v.head_seq)),
            Order::Random(rng) => ready[rng.gen_range(0..ready.len())],
            Order::RoundRobin { cursor } => {
                let at = *cursor;
                let id = min_by(&views, |v| (v.id.index() < at, v.id.index()));
                *cursor = id.index() + 1;
                id
            }
            Order::StarveDirection(starved) => {
                let starved = Some(*starved);
                min_by(&views, |v| (v.direction == starved, v.head_seq))
            }
            Order::LongestQueue => min_by(&views, |v| (Reverse(v.queue_len), v.head_seq)),
            Order::Latency => min_by(&views, |v| (v.arrival, v.head_seq)),
            Order::Replay { script, cursor } => {
                if let Some(&want) = script.get(*cursor) {
                    *cursor += 1;
                    if ready.contains(&want) {
                        return want;
                    }
                }
                min_by(&views, |v| v.head_seq)
            }
        }
    }

    fn on_send(&mut self, seq: u64, arrival: u64, view: ChannelView) {
        self.report(view).push_back((seq, arrival));
    }

    /// A delivery left messages queued: every seq below the new head was
    /// delivered, since a channel delivers in send order.
    fn on_change(&mut self, view: ChannelView) {
        let queued = self.report(view);
        while queued.front().is_some_and(|&(seq, _)| seq < view.head_seq) {
            queued.pop_front();
        }
    }

    fn on_unready(&mut self, id: ChannelId) {
        if let Some(slot) = self.channels.get_mut(id.index()) {
            *slot = None;
        }
    }

    fn clear_index(&mut self) {
        self.channels.clear();
    }
}

// ---------------------------------------------------------------------------
// Layer 1: the ready-set mutation property harness.
// ---------------------------------------------------------------------------

/// A faithful model of the engine's ready bookkeeping: a dense array of
/// ready ids, swap-removed on drain, backed by per-channel FIFO queues of
/// globally unique send seqs with per-channel non-decreasing arrival times,
/// from which every view is derived.
struct ReadyModel {
    ready: Vec<ChannelId>,
    queues: Vec<VecDeque<(u64, u64)>>,
    last_arrival: Vec<u64>,
    next_seq: u64,
}

impl ReadyModel {
    fn new(channels: usize) -> ReadyModel {
        ReadyModel {
            ready: Vec::new(),
            queues: (0..channels).map(|_| VecDeque::new()).collect(),
            last_arrival: vec![0; channels],
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

    /// The view of ready `channel`, read from its queue.
    fn view(&self, channel: usize) -> ChannelView {
        let queue = &self.queues[channel];
        let &(head_seq, arrival) = queue.front().expect("viewing a ready channel");
        ChannelView {
            id: ChannelId::from_index(channel),
            queue_len: queue.len(),
            head_seq,
            direction: Self::direction(channel),
            arrival,
        }
    }

    /// Enqueues the next seq onto `channel`, arriving no earlier than
    /// `arrival` (nor before the channel's previous message), firing the
    /// hook on both schedulers exactly as the engine does: the send, with
    /// the view of the channel it joined.
    fn enqueue(&mut self, channel: usize, arrival: u64, schedulers: [&mut dyn Scheduler; 2]) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let arrival = arrival.max(self.last_arrival[channel]);
        self.last_arrival[channel] = arrival;
        self.queues[channel].push_back((seq, arrival));
        let id = ChannelId::from_index(channel);
        if !self.ready.contains(&id) {
            self.ready.push(id);
        }
        let view = self.view(channel);
        for s in schedulers {
            s.on_send(seq, arrival, view);
        }
    }

    /// Re-seeds `indexed` as the engine does after a scheduler swap: the
    /// ready views, then every in-flight message in send order, each with
    /// its channel's view.
    fn reindex(&self, indexed: &mut dyn Scheduler) {
        let views: Vec<ChannelView> = self.ready.iter().map(|id| self.view(id.index())).collect();
        indexed.rebuild_index(&views);
        let mut in_flight: Vec<(u64, u64, ChannelView)> = views
            .iter()
            .flat_map(|&view| {
                self.queues[view.id.index()]
                    .iter()
                    .map(move |&(seq, arrival)| (seq, arrival, view))
            })
            .collect();
        in_flight.sort_unstable_by_key(|&(seq, ..)| seq);
        for (seq, arrival, view) in in_flight {
            indexed.on_send(seq, arrival, view);
        }
    }

    /// Delivers the head of `channel`, firing the matching hook on both
    /// schedulers.
    fn deliver(&mut self, channel: usize, schedulers: [&mut dyn Scheduler; 2]) {
        let id = ChannelId::from_index(channel);
        let at = self
            .ready
            .iter()
            .position(|&ready| ready == id)
            .expect("delivering a ready channel");
        self.queues[channel].pop_front();
        if self.queues[channel].is_empty() {
            self.ready.swap_remove(at);
            for s in schedulers {
                s.on_unready(id);
            }
        } else {
            let view = self.view(channel);
            for s in schedulers {
                s.on_change(view);
            }
        }
    }
}

/// A scheduler shown only the ready ids: it forwards each pick and drops
/// every hook, so the scheduler inside learns nothing from them.
#[derive(Clone, Debug)]
struct PicksOnly<S>(S);

impl<S: Scheduler + Clone + 'static> Scheduler for PicksOnly<S> {
    fn pick(&mut self, ready: &[ChannelId]) -> ChannelId {
        self.0.pick(ready)
    }
}

/// Runs `iters` random mutations against a built-in scheduler and its
/// reference: both see the incremental hooks (a [`PicksOnly`] reference
/// drops them), `indexed` also the occasional re-index. Every pick must
/// name the same channel.
fn assert_picks_agree(
    label: &str,
    mut indexed: Box<dyn Scheduler>,
    mut oracle: Box<dyn Scheduler>,
    channels: usize,
    seed: u64,
    iters: usize,
) {
    let mut model = ReadyModel::new(channels);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut picks = 0usize;
    for step in 0..iters {
        // A re-index mid-sequence must be a no-op for subsequent picks.
        if step % 97 == 96 {
            model.reindex(indexed.as_mut());
        }
        if model.ready.is_empty() || rng.gen_range(0u32..100) < 55 {
            let channel = rng.gen_range(0..channels);
            let arrival = step as u64 / 8 + rng.gen_range(0u64..16);
            model.enqueue(channel, arrival, [indexed.as_mut(), oracle.as_mut()]);
        } else {
            let want = oracle.pick(&model.ready);
            let got = indexed.pick(&model.ready);
            assert_eq!(got, want, "{label}: pick #{picks} diverged at step {step}");
            model.deliver(want.index(), [indexed.as_mut(), oracle.as_mut()]);
            picks += 1;
        }
    }
    assert!(picks > iters / 4, "{label}: the harness exercised picks");
}

/// Every built-in `SchedulerKind` (the realistic-time `Latency` too, on
/// non-zero arrivals), across several seeds and channel counts.
#[test]
fn random_mutation_sequences_agree_for_every_kind() {
    let kinds = SchedulerKind::ALL
        .into_iter()
        .chain([SchedulerKind::Latency]);
    for kind in kinds {
        for seed in [0u64, 1, 42] {
            for channels in [3usize, 10, 33] {
                assert_picks_agree(
                    &format!("{kind} seed {seed} channels {channels}"),
                    kind.build(seed),
                    Box::new(ScanOracle::of(kind, seed)),
                    channels,
                    seed ^ (channels as u64) << 8,
                    2_000,
                );
            }
        }
    }
}

/// The composite and special-purpose adversaries outside `SchedulerKind`
/// (phase-switch, replay, bounded-delay), and starve-direction built
/// directly.
#[test]
fn special_schedulers_agree_too() {
    assert_picks_agree(
        "starve-direction",
        Box::new(StarveDirectionScheduler::new(Direction::Ccw)),
        Box::new(ScanOracle::new(Order::StarveDirection(Direction::Ccw))),
        9,
        6,
        2_000,
    );
    assert_picks_agree(
        "phase-switch fifo->lifo",
        Box::new(PhaseSwitchScheduler::new(
            SchedulerKind::Fifo.build(0),
            SchedulerKind::Lifo.build(0),
            50,
        )),
        Box::new(PhaseSwitchScheduler::new(
            Box::new(ScanOracle::new(Order::Fifo)),
            Box::new(ScanOracle::new(Order::Lifo)),
            50,
        )),
        8,
        7,
        2_000,
    );
    // Bounded-delay scans the ready ids itself (its picks are RNG-coupled),
    // so it is its own reference, shown only the ready ids: the harness
    // proves the lazy deadline bookkeeping is blind to the hooks and
    // re-indexes the other copy sees.
    assert_picks_agree(
        "bounded-delay",
        Box::new(BoundedDelayScheduler::new(6, 11)),
        Box::new(PicksOnly(BoundedDelayScheduler::new(6, 11))),
        8,
        8,
        2_000,
    );
    // Replay follows its script while the scripted channel is ready and
    // falls back to FIFO otherwise; the script names absent channels too.
    let mut rng = StdRng::seed_from_u64(9);
    let script: Vec<ChannelId> = (0..600)
        .map(|_| ChannelId::from_index(rng.gen_range(0..14)))
        .collect();
    assert_picks_agree(
        "replay",
        Box::new(ReplayScheduler::new(script.clone())),
        Box::new(ScanOracle::replay(script)),
        10,
        9,
        2_000,
    );
    // Round-robin cursors wrap identically under both paths.
    assert_picks_agree(
        "round-robin",
        Box::new(RoundRobinScheduler::new()),
        Box::new(ScanOracle::new(Order::RoundRobin { cursor: 0 })),
        13,
        10,
        2_000,
    );
    // Longest-queue keys on (queue_len, Reverse(head_seq)).
    assert_picks_agree(
        "longest-queue",
        Box::new(LongestQueueScheduler::new()),
        Box::new(ScanOracle::new(Order::LongestQueue)),
        7,
        12,
        2_000,
    );
}

/// The send-order schedulers, untimed and (for `Latency`) under
/// `uniform:1..10`.
fn send_order_cells() -> [(SchedulerKind, LatencyPlan); 3] {
    let timed = LatencyPlan::new(LatencyModel::Uniform { min: 1, max: 10 }, 11);
    [
        (SchedulerKind::Fifo, LatencyPlan::zero()),
        (SchedulerKind::Solitude, LatencyPlan::zero()),
        (SchedulerKind::Latency, timed),
    ]
}

/// Deliveries the scheduler did not pick (`step_channel`, the explorer's
/// primitive) interleaved with scheduled steps and with restores of the
/// built-in run's own snapshots (which copy its index back whole): the
/// send-order schedulers drop what was delivered behind their back and
/// still pick what their scan oracle picks, step for step.
#[test]
fn step_channel_deliveries_interleave_with_scheduled_picks() {
    let spec = RingSpec::oriented(vec![5, 9, 2, 7, 4, 8]);
    for (kind, latency) in send_order_cells() {
        for seed in [0u64, 3, 17] {
            let sim = |which| {
                let mut sim = Simulation::new(
                    spec.wiring(),
                    Alg2Def::nodes(&spec),
                    scheduler(kind, seed, which),
                );
                sim.set_latency(latency.clone());
                sim.start();
                sim
            };
            let (mut built_in, mut oracle) = (sim(Impl::BuiltIn), sim(Impl::Oracle));
            let mut rng = StdRng::seed_from_u64(seed);
            let mut picks = 0usize;
            loop {
                let ready = built_in.ready_channels();
                assert_eq!(ready, oracle.ready_channels(), "{kind} seed {seed}");
                if ready.is_empty() {
                    break;
                }
                let roll = rng.gen_range(0u32..100);
                if roll < 5 {
                    let snap = built_in.snapshot();
                    built_in.restore(&snap);
                }
                let (a, b) = if roll < 40 {
                    let channel = ready[rng.gen_range(0..ready.len())];
                    (built_in.step_channel(channel), oracle.step_channel(channel))
                } else {
                    picks += 1;
                    (built_in.step(), oracle.step())
                };
                assert_eq!(a, b, "{kind} seed {seed}: step after {picks} picks");
                assert_eq!(built_in.fingerprint(), oracle.fingerprint(), "{kind}");
            }
            assert_eq!(built_in.stats(), oracle.stats(), "{kind} seed {seed}");
            assert!(picks > 50, "{kind} seed {seed}: the walk exercised picks");
        }
    }
}

/// A send-order scheduler that publishes its queue size after every hook.
#[derive(Clone, Debug)]
struct Watched<S> {
    inner: S,
    runs: fn(&S) -> usize,
    held: Rc<Cell<usize>>,
}

impl<S: Scheduler + Clone + 'static> Scheduler for Watched<S> {
    fn pick(&mut self, ready: &[ChannelId]) -> ChannelId {
        self.inner.pick(ready)
    }
    fn on_send(&mut self, seq: u64, arrival: u64, view: ChannelView) {
        self.inner.on_send(seq, arrival, view);
        self.held.set((self.runs)(&self.inner));
    }
    fn on_change(&mut self, view: ChannelView) {
        self.inner.on_change(view);
        self.held.set((self.runs)(&self.inner));
    }
    fn on_unready(&mut self, id: ChannelId) {
        self.inner.on_unready(id);
        self.held.set((self.runs)(&self.inner));
    }
    fn clear_index(&mut self) {
        self.inner.clear_index();
    }
}

/// A long walk of `step_channel` deliveries only — no pick ever drops from the
/// send order — keeps it within twice the in-flight count.
#[test]
fn step_channel_only_walks_keep_the_send_order_bounded() {
    let spec = RingSpec::oriented(vec![40, 7, 33, 12, 25, 3, 18, 29]);
    let held = Rc::new(Cell::new(0));
    let schedulers: [(&str, Box<dyn Scheduler>); 2] = [
        (
            "fifo",
            Box::new(Watched {
                inner: FifoScheduler::new(),
                runs: FifoScheduler::queued_runs,
                held: Rc::clone(&held),
            }),
        ),
        (
            "latency",
            Box::new(Watched {
                inner: LatencyScheduler::new(),
                runs: LatencyScheduler::queued_runs,
                held: Rc::clone(&held),
            }),
        ),
    ];
    for (label, scheduler) in schedulers {
        let mut sim = Simulation::new(spec.wiring(), Alg2Def::nodes(&spec), scheduler);
        if label == "latency" {
            sim.set_latency(LatencyPlan::new(
                LatencyModel::Uniform { min: 1, max: 10 },
                5,
            ));
        }
        sim.start();
        let mut rng = StdRng::seed_from_u64(21);
        let mut steps = 0u64;
        while !sim.is_quiescent() {
            // Favour the youngest-indexed ready channel so deliveries run
            // far out of send order.
            let ready = sim.ready_channels();
            let channel = if rng.gen_range(0u32..4) == 0 {
                ready[rng.gen_range(0..ready.len())]
            } else {
                ready[ready.len() - 1]
            };
            sim.step_channel(channel).expect("ready channel");
            steps += 1;
            let in_flight = sim.in_flight() as usize;
            assert!(
                held.get() <= 2 * in_flight,
                "{label} step {steps}: {} entries for {in_flight} in flight",
                held.get()
            );
        }
        // Theorem 1: n(2·ID_max + 1) pulses under any schedule.
        assert_eq!(steps, 8 * (2 * 40 + 1), "{label}");
    }
}

// ---------------------------------------------------------------------------
// Layer 2: the full simulation grid, built-in scheduler vs oracle.
// ---------------------------------------------------------------------------

/// Everything a run exposes, down to the channel picked at every step.
#[derive(Debug, PartialEq)]
struct Observed {
    schedule: Schedule,
    report: RunReport,
    total_sent: u64,
    total_delivered: u64,
    fingerprint: u64,
    terminated: Vec<bool>,
}

/// Counts the deliveries that leave a pulse in the picked channel and one
/// elsewhere. Only there does round-robin's choice between picking the
/// channel again and moving on to the next show in its picks.
struct HeldAfterPick(usize);

impl<P: Protocol<Pulse>> SimObserver<Pulse, P> for HeldAfterPick {
    fn after_step(&mut self, sim: &Simulation<Pulse, P>, step: &StepInfo) {
        let held = sim.queue_len(step.channel) as u64;
        if held > 0 && sim.in_flight() > held {
            self.0 += 1;
        }
    }
}

/// Which implementation of an adversary a run uses.
#[derive(Copy, Clone, Debug)]
enum Impl {
    BuiltIn,
    Oracle,
}

fn scheduler(kind: SchedulerKind, seed: u64, which: Impl) -> Box<dyn Scheduler> {
    match which {
        Impl::BuiltIn => kind.build(seed),
        Impl::Oracle => Box::new(ScanOracle::of(kind, seed)),
    }
}

#[allow(clippy::too_many_arguments)]
fn observe<P, F>(
    spec: &RingSpec,
    make: F,
    kind: SchedulerKind,
    seed: u64,
    plan: &FaultPlan,
    latency: &LatencyPlan,
    backend: QueueBackend,
    which: Impl,
) -> Observed
where
    P: Protocol<Pulse> + Snapshot,
    F: Fn() -> Vec<P>,
{
    let mut sim: Simulation<Pulse, P> =
        Simulation::with_backend(spec.wiring(), make(), scheduler(kind, seed, which), backend);
    sim.set_faults(plan.clone());
    sim.set_latency(latency.clone());
    let (report, schedule) = sim.run_recorded(Budget::steps(200_000));
    let stats = sim.stats();
    Observed {
        schedule,
        total_sent: stats.total_sent,
        total_delivered: stats.total_delivered,
        fingerprint: sim.fingerprint(),
        terminated: (0..spec.len()).map(|v| sim.is_terminated(v)).collect(),
        report,
    }
}

/// [`HeldAfterPick`] over a built-in round-robin run of the grid cell.
fn round_robin_held<P, F>(
    spec: &RingSpec,
    make: F,
    seed: u64,
    plan: &FaultPlan,
    backend: QueueBackend,
) -> usize
where
    P: Protocol<Pulse>,
    F: Fn() -> Vec<P>,
{
    let scheduler = SchedulerKind::RoundRobin.build(seed);
    let mut sim: Simulation<Pulse, P> =
        Simulation::with_backend(spec.wiring(), make(), scheduler, backend);
    sim.set_faults(plan.clone());
    let mut held = HeldAfterPick(0);
    sim.run_observed(Budget::steps(200_000), &mut held);
    held.0
}

fn assert_oracle_equivalent<P, F>(spec: &RingSpec, make: F, label: &str)
where
    P: Protocol<Pulse> + Snapshot,
    F: Fn() -> Vec<P>,
{
    let plans = [
        ("clean", FaultPlan::new()),
        ("drop4", FaultPlan::new().drop_seq(4)),
        ("dup1", FaultPlan::new().duplicate_seq(1)),
    ];
    // The adversarial family untimed, plus earliest-arrival delivery under
    // a seeded latency plan (untimed it is FIFO).
    let timed = LatencyPlan::new(LatencyModel::Uniform { min: 1, max: 10 }, 3);
    let cells = SchedulerKind::ALL
        .into_iter()
        .map(|kind| (kind, LatencyPlan::zero()))
        .chain([(SchedulerKind::Latency, timed)]);
    let mut held = 0;
    for (kind, latency) in cells {
        for seed in [0u64, 7] {
            for (plan_label, plan) in &plans {
                for backend in QueueBackend::ALL {
                    let run =
                        |which| observe(spec, &make, kind, seed, plan, &latency, backend, which);
                    assert_eq!(
                        run(Impl::BuiltIn),
                        run(Impl::Oracle),
                        "{label} under {kind} seed {seed} plan {plan_label} backend {backend}"
                    );
                    if kind == SchedulerKind::RoundRobin {
                        held += round_robin_held(spec, &make, seed, plan, backend);
                    }
                }
            }
        }
    }
    // A round-robin cursor left on the picked channel picks the same
    // channels as the oracle unless some delivery leaves a pulse behind
    // in the picked channel while another channel holds one.
    assert!(
        held > 0,
        "{label}: no round-robin delivery left a pulse in the picked channel"
    );
}

/// The full grid: 8 schedulers (plus timed `Latency`) × 3 algorithms × 3
/// fault plans × 2 backends × 2 seeds, the pick sequence and every
/// observable equal under the built-in scheduler and its scan oracle.
#[test]
fn full_grid_agrees_with_the_scan_oracle() {
    let spec = RingSpec::oriented(vec![3, 6, 1, 5, 2]);
    assert_oracle_equivalent(&spec, || Alg1Def::nodes(&spec), "alg1");
    assert_oracle_equivalent(&spec, || Alg2Def::nodes(&spec), "alg2");
    let flipped = RingSpec::with_flips(vec![3, 6, 1, 5, 2], vec![true, false, true, false, false]);
    assert_oracle_equivalent(&flipped, || <Alg3Def>::nodes(&flipped), "alg3");
}

// ---------------------------------------------------------------------------
// Layer 3: cross record/replay.
// ---------------------------------------------------------------------------

fn alg2_sim(scheduler: Box<dyn Scheduler>) -> Simulation<Pulse, Alg2Node> {
    let spec = RingSpec::oriented(vec![4, 2, 7, 1]);
    let nodes = Alg2Def::nodes(&spec);
    Simulation::new(spec.wiring(), nodes, scheduler)
}

/// A schedule recorded under the built-in scheduler replays bit-exact,
/// pick for pick, through the oracle's replay, and one recorded under the
/// oracle replays bit-exact through the built-in `ReplayScheduler`.
#[test]
fn schedules_cross_replay_between_modes() {
    for kind in SchedulerKind::ALL {
        for (record, replay) in [(Impl::BuiltIn, Impl::Oracle), (Impl::Oracle, Impl::BuiltIn)] {
            let mut recorder = alg2_sim(scheduler(kind, 3, record));
            let (report, schedule) = recorder.run_recorded(Budget::default());
            let mut sim = match replay {
                Impl::BuiltIn => alg2_sim(SchedulerKind::Fifo.build(0)),
                Impl::Oracle => alg2_sim(Box::new(ScanOracle::replay(schedule.picks().to_vec()))),
            };
            sim.enable_schedule_recording();
            let replayed = match replay {
                Impl::BuiltIn => sim.replay(&schedule, Budget::default()),
                Impl::Oracle => sim.run(Budget::default()),
            };
            let label = format!("{kind} recorded {record:?} replayed {replay:?}");
            assert_eq!(sim.recorded_schedule(), Some(schedule), "{label}: picks");
            assert_eq!(report, replayed, "{label}");
            assert_eq!(recorder.fingerprint(), sim.fingerprint(), "{label}");
        }
    }
}

/// The send-order schedulers on a large ring: the n = 300 Algorithm 2
/// election under Fifo, Solitude and Latency (`uniform:1..10`), snapshotted
/// mid-run and restored into a fresh simulation of the same kind, must
/// match its scan oracle byte for byte — report, statistics, fingerprint
/// and, since Theorem 1 fixes the first three under every schedule, the
/// picks after the restore. Release-mode CI runs it (`large-n-smoke`).
#[test]
#[ignore = "n = 300 in release: run with --ignored"]
fn large_ring_send_order_matches_the_scan_oracle() {
    let n = 300u64;
    let spec = RingSpec::oriented((1..=n).rev().collect());
    for (kind, latency) in send_order_cells() {
        let run = |which| {
            let build = || {
                let mut sim = Simulation::with_backend(
                    spec.wiring(),
                    Alg2Def::nodes(&spec),
                    scheduler(kind, 1, which),
                    QueueBackend::Counter,
                );
                sim.set_latency(latency.clone());
                sim
            };
            let mut first = build();
            let half = Budget::steps(n * (2 * n + 1) / 2);
            first.run(half);
            let mut sim = build();
            sim.restore(&first.snapshot());
            let (report, picks) = sim.run_recorded(Budget::default());
            (report, sim.stats().clone(), sim.fingerprint(), picks)
        };
        let (built_in, oracle) = (run(Impl::BuiltIn), run(Impl::Oracle));
        assert_eq!(built_in.0.total_sent, n * (2 * n + 1), "{kind}");
        assert_eq!(built_in, oracle, "{kind}");
    }
}
