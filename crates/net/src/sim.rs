//! Discrete-event simulation of an asynchronous, fully defective network.
//!
//! The simulator realises the paper's model exactly:
//!
//! * nodes are **event-driven**: they act once at start-up and thereafter
//!   only when a message is delivered to them ([`Protocol`]);
//! * channels are **FIFO per channel** with adversarial finite delays — at
//!   every step the [`Scheduler`] picks which non-empty
//!   channel delivers its head message;
//! * message **content is irrelevant**: for content-oblivious algorithms the
//!   message type is [`Pulse`](crate::Pulse), which has no content;
//! * a **terminated** node ignores all further messages and never sends
//!   again (the simulator enforces this; such deliveries void quiescent
//!   termination and are reported in the [`RunReport`]).
//!
//! [`Simulation`] is a thin, `Port`-typed facade over the generic
//! [`EventCore`] (see the [`engine`](crate::engine)
//! module): the core owns queues, scheduler dispatch, faults and
//! accounting, while this facade pins the topology to the two-port
//! ring [`Wiring`] and dispatches events into [`Protocol`] nodes.
//!
//! The run loop is exposed one step at a time ([`Simulation::step`]) so that
//! invariant monitors (executable Lemmas 6–12 in `co-core`) can inspect the
//! global state between events; for whole runs, attach a [`SimObserver`]
//! via [`Simulation::run_observed`].

use crate::dedup::splitmix64;
use crate::engine::{
    CoreSnapshot, EngineError, EngineStep, EventCore, EventHandler, QueueBackend, RunMetrics,
};
use crate::faults::{FaultPlan, FaultStats};
use crate::message::{Message, UnitMessage};
use crate::port::{Direction, Port};
use crate::sched::{ReplayScheduler, Scheduler};
use crate::snapshot::{Fingerprint, Schedule, Snapshot};
use crate::topology::{ChannelId, NodeIndex, Wiring};
use std::fmt;
use std::marker::PhantomData;

pub use crate::engine::{Budget, Outcome, RunReport, SimStats};

/// An event-driven node program.
///
/// Implementations correspond to the per-node pseudocode of the paper's
/// algorithms. A node may send any number of messages during `on_start` and
/// each `on_message`; it can never block, read clocks, or observe anything
/// but its own state and the in-port of the delivered message.
pub trait Protocol<M: Message> {
    /// The node's decision (e.g. `Leader` / `NonLeader`), if any yet.
    type Output: Clone + fmt::Debug;

    /// Called once before any delivery; the paper's "act once right in the
    /// beginning of the computation".
    fn on_start(&mut self, ctx: &mut Context<'_, M>);

    /// Called when a message is delivered to `port`.
    fn on_message(&mut self, port: Port, msg: M, ctx: &mut Context<'_, M>);

    /// Whether the node has entered a terminating state.
    ///
    /// Once `true`, the simulator never calls [`Protocol::on_message`] again:
    /// the node ignores all incoming messages and sends no new ones, matching
    /// the paper's definition of (process) termination. Defaults to `false`
    /// for stabilizing algorithms, which never terminate.
    fn is_terminated(&self) -> bool {
        false
    }

    /// The node's current output, if decided.
    fn output(&self) -> Option<Self::Output>;
}

/// Send capability handed to a [`Protocol`] during an event.
///
/// Sends are buffered and enqueued by the simulator when the event handler
/// returns, in call order (preserving per-channel FIFO). The buffer is the
/// engine's raw `(port index, message)` outbox; this context is the typed
/// rim around it.
#[derive(Debug)]
pub struct Context<'a, M: Message> {
    node: NodeIndex,
    outbox: &'a mut Vec<(usize, M)>,
}

impl<'a, M: Message> Context<'a, M> {
    /// Creates a context that buffers sends into `outbox` without any
    /// attached network.
    ///
    /// This is for harnesses that interpose on a protocol's sends — e.g.
    /// the universal ring simulator, which feeds a protocol's events
    /// manually and re-encodes its outgoing messages as pulse trains, and
    /// the explorer's successor probe. Within a [`Simulation`] the context
    /// is provided by the engine; ordinary protocol code never needs this.
    #[must_use]
    pub fn buffered(node: NodeIndex, outbox: &'a mut Vec<(usize, M)>) -> Context<'a, M> {
        Context { node, outbox }
    }

    /// Sends `msg` out of `port`.
    pub fn send(&mut self, port: Port, msg: M) {
        self.outbox.push((port.index(), msg));
    }

    /// The index of the node executing the event (positions are opaque to
    /// paper algorithms; exposed for instrumentation and baselines).
    #[must_use]
    pub fn node(&self) -> NodeIndex {
        self.node
    }
}

/// One delivery, as reported by [`Simulation::step`] — the `Port`-typed view
/// of the engine's [`EngineStep`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct StepInfo {
    /// The channel that delivered.
    pub channel: ChannelId,
    /// The receiving node.
    pub node: NodeIndex,
    /// The in-port the message arrived at.
    pub port: Port,
    /// Global send sequence number of the delivered message.
    pub seq: u64,
    /// Direction tag of the channel, if any.
    pub direction: Option<Direction>,
    /// Whether the receiver had already terminated (message ignored).
    pub ignored: bool,
    /// Virtual delivery time (always 0 without a latency plan).
    pub at: u64,
}

impl StepInfo {
    fn from_engine(step: EngineStep) -> StepInfo {
        StepInfo {
            channel: ChannelId::from_index(step.channel),
            node: step.node,
            port: Port::from_index(step.port),
            seq: step.seq,
            direction: step.direction,
            ignored: step.ignored,
            at: step.at,
        }
    }
}

/// A full checkpoint of a [`Simulation`]: engine state plus node states.
///
/// Produced by [`Simulation::snapshot`] (which requires the protocol to
/// implement [`Snapshot`]) and consumed by [`Simulation::restore`]. The
/// pair turns a simulation into a branchable value: restore the same
/// checkpoint once per ready channel and fan out with
/// [`Simulation::step_channel`]. The exhaustive explorer branches without
/// a simulation, from a smaller record ([`crate::explore::PulseConfig`]).
pub struct SimSnapshot<M: Message, P: Snapshot> {
    core: CoreSnapshot<M>,
    nodes: Vec<P::State>,
}

impl<M: Message, P: Snapshot> Clone for SimSnapshot<M, P> {
    fn clone(&self) -> Self {
        SimSnapshot {
            core: self.core.clone(),
            nodes: self.nodes.clone(),
        }
    }
}

impl<M: Message, P: Snapshot> fmt::Debug for SimSnapshot<M, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimSnapshot")
            .field("core", &self.core)
            .field("nodes", &self.nodes)
            .finish()
    }
}

/// A whole-run spectator with access to the global simulation state.
///
/// The one way to watch a run delivery by delivery: a `SimObserver` is
/// called *after* each delivery with its [`StepInfo`] (channel, receiver,
/// sequence number, direction, whether it was ignored) and the full
/// post-event [`Simulation`] — node states included — which is what
/// `co-core`'s invariant monitors (executable Lemmas 6–12 and 17) and the
/// solitude patterns of Definition 21 need. Attach one with
/// [`Simulation::run_observed`] or [`Simulation::replay_observed`].
pub trait SimObserver<M: Message, P: Protocol<M>> {
    /// Called after every delivery with the post-event state.
    fn after_step(&mut self, sim: &Simulation<M, P>, step: &StepInfo);
}

/// Adapts a `&mut [P]` node slice to the engine's [`EventHandler`].
struct RingHandler<'a, M: Message, P: Protocol<M>> {
    nodes: &'a mut [P],
    _msg: PhantomData<M>,
}

impl<M: Message, P: Protocol<M>> EventHandler<M> for RingHandler<'_, M, P> {
    fn on_start(&mut self, node: usize, _degree: usize, outbox: &mut Vec<(usize, M)>) {
        let mut ctx = Context::buffered(node, outbox);
        self.nodes[node].on_start(&mut ctx);
    }

    fn on_message(
        &mut self,
        node: usize,
        _degree: usize,
        port: usize,
        msg: M,
        outbox: &mut Vec<(usize, M)>,
    ) {
        let mut ctx = Context::buffered(node, outbox);
        self.nodes[node].on_message(Port::from_index(port), msg, &mut ctx);
    }

    fn is_terminated(&self, node: usize) -> bool {
        self.nodes[node].is_terminated()
    }
}

/// Discrete-event simulation of a ring of [`Protocol`] nodes.
///
/// See the [crate-level documentation](crate) for a complete example.
pub struct Simulation<M: Message, P: Protocol<M>> {
    core: EventCore<M, Wiring>,
    nodes: Vec<P>,
}

impl<M: Message, P: Protocol<M>> Simulation<M, P> {
    /// Creates a simulation over `wiring` with one protocol instance per node.
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len()` differs from the wiring's node count.
    #[must_use]
    pub fn new(wiring: Wiring, nodes: Vec<P>, scheduler: Box<dyn Scheduler>) -> Simulation<M, P> {
        assert_eq!(
            nodes.len(),
            wiring.len(),
            "one protocol instance per node required"
        );
        Simulation {
            core: EventCore::new(wiring, scheduler),
            nodes,
        }
    }

    /// Creates a simulation using the given queue storage backend.
    ///
    /// [`QueueBackend::Counter`] requires a [`UnitMessage`] payload (e.g.
    /// [`Pulse`](crate::Pulse)); it stores queued traffic as run-length
    /// counters instead of per-message envelopes, making thousand-node rings
    /// with millions of queued pulses cheap. Behaviour is identical to
    /// [`Simulation::new`] in every observable way — see
    /// `tests/backend_equivalence.rs`.
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len()` differs from the wiring's node count.
    #[must_use]
    pub fn with_backend(
        wiring: Wiring,
        nodes: Vec<P>,
        scheduler: Box<dyn Scheduler>,
        backend: QueueBackend,
    ) -> Simulation<M, P>
    where
        M: UnitMessage,
    {
        assert_eq!(
            nodes.len(),
            wiring.len(),
            "one protocol instance per node required"
        );
        Simulation {
            core: EventCore::with_backend(wiring, scheduler, backend),
            nodes,
        }
    }

    /// The queue storage backend in use.
    #[must_use]
    pub fn queue_backend(&self) -> QueueBackend {
        self.core.queue_backend()
    }

    /// Bytes of queued messages currently held by the engine's
    /// [`QueueStore`](crate::QueueStore).
    #[must_use]
    pub fn queue_bytes(&self) -> usize {
        self.core.queue_bytes()
    }

    /// High-water mark of [`Simulation::queue_bytes`] over the run so far.
    #[must_use]
    pub fn peak_queue_bytes(&self) -> usize {
        self.core.peak_queue_bytes()
    }

    fn handler(nodes: &mut [P]) -> RingHandler<'_, M, P> {
        RingHandler {
            nodes,
            _msg: PhantomData,
        }
    }

    /// Installs a plan of model-violating channel faults (experiment E11).
    ///
    /// The paper's model forbids drops and injections; use this to observe
    /// what that assumption buys. Must be called before the run starts.
    pub fn set_faults(&mut self, faults: FaultPlan) {
        self.core.set_faults(faults);
    }

    /// Installs a seeded per-channel latency plan (virtual time).
    ///
    /// A degenerate all-zero plan is a no-op: the engine keeps its untimed
    /// fast path and every observable (scheduler picks, reports, stats,
    /// fingerprints) is bit-identical to a simulation without a plan. Must
    /// be called before the run starts.
    pub fn set_latency(&mut self, plan: crate::clock::LatencyPlan) {
        self.core.set_latency(plan);
    }

    /// The current virtual time (0 forever in untimed runs).
    #[must_use]
    pub fn now(&self) -> u64 {
        self.core.now()
    }

    /// Counters of faults actually applied so far.
    #[must_use]
    pub fn fault_stats(&self) -> FaultStats {
        self.core.fault_stats()
    }

    /// Injects a spurious message into a channel, as forbidden channel
    /// noise would (experiment E11). Counted in [`Simulation::fault_stats`]
    /// but *not* in `total_sent` — no node sent it.
    pub fn inject(&mut self, channel: ChannelId, msg: M) {
        self.core.inject(channel.index(), msg);
    }

    /// Enables the O(1) run-summary metrics ([`RunMetrics`]).
    pub fn enable_metrics(&mut self) {
        self.core.enable_metrics();
    }

    /// The run metrics so far, if enabled.
    #[must_use]
    pub fn metrics(&self) -> Option<RunMetrics> {
        self.core.metrics()
    }

    /// Runs every node's `on_start` (in node order). Idempotent.
    pub fn start(&mut self) {
        let mut handler = Self::handler(&mut self.nodes);
        self.core.start(&mut handler);
    }

    /// Delivers one message chosen by the scheduler.
    ///
    /// Starts the simulation if [`Simulation::start`] has not run yet.
    /// Returns `None` when the network is quiescent (no messages in transit).
    ///
    /// # Panics
    ///
    /// Panics if the scheduler picks a channel that is not ready; use
    /// [`Simulation::try_step`] to get a typed [`EngineError`] instead.
    pub fn step(&mut self) -> Option<StepInfo> {
        let mut handler = Self::handler(&mut self.nodes);
        self.core.step(&mut handler).map(StepInfo::from_engine)
    }

    /// Like [`Simulation::step`], but reports a misbehaving scheduler as a
    /// typed [`EngineError`] — with the simulation state untouched —
    /// instead of panicking.
    pub fn try_step(&mut self) -> Result<Option<StepInfo>, EngineError> {
        let mut handler = Self::handler(&mut self.nodes);
        self.core
            .try_step(&mut handler)
            .map(|step| step.map(StepInfo::from_engine))
    }

    /// Runs until quiescence or budget exhaustion.
    ///
    /// Attach a per-step [`SimObserver`] with [`Simulation::run_observed`].
    pub fn run(&mut self, budget: Budget) -> RunReport {
        let mut handler = Self::handler(&mut self.nodes);
        self.core.run(&mut handler, budget)
    }

    /// Runs until quiescence or budget exhaustion under a [`SimObserver`],
    /// which sees the post-event simulation state after every delivery.
    ///
    /// This is how `co-core`'s invariant monitors (executable Lemmas 6–12)
    /// watch every intermediate configuration:
    ///
    /// ```rust
    /// # use co_net::{Budget, Context, Port, Protocol, Pulse, RingSpec, SchedulerKind};
    /// # use co_net::{SimObserver, Simulation, StepInfo};
    /// # #[derive(Debug)]
    /// # struct Quiet;
    /// # impl Protocol<Pulse> for Quiet {
    /// #     type Output = ();
    /// #     fn on_start(&mut self, ctx: &mut Context<'_, Pulse>) { ctx.send(Port::One, Pulse); }
    /// #     fn on_message(&mut self, _p: Port, _m: Pulse, _c: &mut Context<'_, Pulse>) {}
    /// #     fn output(&self) -> Option<()> { None }
    /// # }
    /// # let spec = RingSpec::oriented(vec![1, 2]);
    /// # let nodes = vec![Quiet, Quiet];
    /// # let mut sim: Simulation<Pulse, Quiet> =
    /// #     Simulation::new(spec.wiring(), nodes, SchedulerKind::Fifo.build(0));
    /// struct MaxInFlight(u64);
    /// impl SimObserver<Pulse, Quiet> for MaxInFlight {
    ///     fn after_step(&mut self, sim: &Simulation<Pulse, Quiet>, _step: &StepInfo) {
    ///         self.0 = self.0.max(sim.in_flight());
    ///     }
    /// }
    /// let mut peak = MaxInFlight(0);
    /// sim.run_observed(Budget::default(), &mut peak);
    /// assert!(peak.0 <= 2);
    /// ```
    pub fn run_observed<O>(&mut self, budget: Budget, observer: &mut O) -> RunReport
    where
        O: SimObserver<M, P> + ?Sized,
    {
        self.start();
        let mut executed: u64 = 0;
        while executed < budget.max_steps {
            // `step` borrows self mutably; copy the info out for the observer.
            let Some(info) = self.step() else { break };
            executed += 1;
            observer.after_step(self, &info);
        }
        self.core.report()
    }

    /// Starts recording the sequence of channel picks as a [`Schedule`].
    pub fn enable_schedule_recording(&mut self) {
        self.core.enable_schedule_recording();
    }

    /// The schedule recorded so far, if recording was enabled.
    #[must_use]
    pub fn recorded_schedule(&self) -> Option<Schedule> {
        self.core.recorded_schedule()
    }

    /// Runs to quiescence or budget exhaustion while recording the schedule.
    ///
    /// The returned [`Schedule`] fed to [`Simulation::replay`] on a freshly
    /// built simulation of the same configuration reproduces this run — same
    /// deliveries in the same order, byte-identical [`RunReport`] and
    /// [`SimStats`].
    pub fn run_recorded(&mut self, budget: Budget) -> (RunReport, Schedule) {
        self.enable_schedule_recording();
        let report = self.run(budget);
        let schedule = self.recorded_schedule().expect("recording just enabled");
        (report, schedule)
    }

    /// Replays a recorded [`Schedule`] (deterministic record/replay).
    ///
    /// Replaces the installed scheduler with a
    /// [`ReplayScheduler`] over the
    /// schedule's picks, then runs. On a fresh simulation of the recorded
    /// configuration this reproduces the original execution exactly; the
    /// FIFO fallback (for picks that are not ready, e.g. after the protocol
    /// changed) keeps every schedule — including shrunken subsequences —
    /// a valid asynchronous execution.
    pub fn replay(&mut self, schedule: &Schedule, budget: Budget) -> RunReport {
        self.core
            .set_scheduler(Box::new(ReplayScheduler::new(schedule.picks().to_vec())));
        self.run(budget)
    }

    /// [`Simulation::replay`] under a [`SimObserver`] — e.g. an invariant
    /// monitor re-checking a shrunken counterexample schedule.
    pub fn replay_observed<O>(
        &mut self,
        schedule: &Schedule,
        budget: Budget,
        observer: &mut O,
    ) -> RunReport
    where
        O: SimObserver<M, P> + ?Sized,
    {
        self.core
            .set_scheduler(Box::new(ReplayScheduler::new(schedule.picks().to_vec())));
        self.run_observed(budget, observer)
    }

    /// Channels with at least one queued message, sorted by index.
    #[must_use]
    pub fn ready_channels(&self) -> Vec<ChannelId> {
        self.core
            .ready_channels()
            .into_iter()
            .map(ChannelId::from_index)
            .collect()
    }

    /// Delivers the head message of a *specific* non-empty channel,
    /// bypassing the scheduler — the branching primitive of exhaustive
    /// exploration. Starts the simulation if needed; returns `None` if the
    /// channel is empty.
    pub fn step_channel(&mut self, channel: ChannelId) -> Option<StepInfo> {
        let mut handler = Self::handler(&mut self.nodes);
        self.core
            .step_channel(&mut handler, channel.index())
            .map(StepInfo::from_engine)
    }

    /// Number of messages queued on `channel`.
    #[must_use]
    pub fn queue_len(&self, channel: ChannelId) -> usize {
        self.core.queue_len(channel.index())
    }

    /// Number of messages currently in transit.
    #[must_use]
    pub fn in_flight(&self) -> u64 {
        self.core.in_flight()
    }

    /// Number of in-transit messages on channels tagged `direction`.
    #[must_use]
    pub fn in_flight_direction(&self, direction: Direction) -> u64 {
        self.core.in_flight_direction(direction)
    }

    /// Whether no messages are in transit.
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        self.core.is_quiescent()
    }

    /// Whether the given node has terminated.
    #[must_use]
    pub fn is_terminated(&self, node: NodeIndex) -> bool {
        self.core.is_terminated(node)
    }

    /// The protocol instance of a node (for state inspection by monitors).
    #[must_use]
    pub fn node(&self, node: NodeIndex) -> &P {
        &self.nodes[node]
    }

    /// All protocol instances, in node order.
    #[must_use]
    pub fn nodes(&self) -> &[P] {
        &self.nodes
    }

    /// Every node's current output.
    #[must_use]
    pub fn outputs(&self) -> Vec<Option<P::Output>> {
        self.nodes.iter().map(Protocol::output).collect()
    }

    /// Aggregate counters.
    #[must_use]
    pub fn stats(&self) -> &SimStats {
        self.core.stats()
    }

    /// The next global send sequence number — the counter
    /// [`FaultPlan`] faults trigger on.
    #[must_use]
    pub fn send_seq(&self) -> u64 {
        self.core.send_seq()
    }

    /// The network wiring.
    #[must_use]
    pub fn wiring(&self) -> &Wiring {
        self.core.topology()
    }
}

impl<M: Message, P: Protocol<M> + Snapshot> Simulation<M, P> {
    /// Captures the full simulation state (engine + every node).
    #[must_use]
    pub fn snapshot(&self) -> SimSnapshot<M, P> {
        SimSnapshot {
            core: self.core.snapshot(),
            nodes: self.nodes.iter().map(Snapshot::extract).collect(),
        }
    }

    /// Restores a state captured by [`Simulation::snapshot`], the
    /// snapshot's scheduler included.
    ///
    /// The snapshot must come from a simulation of the same configuration
    /// (same wiring, node count, queue backend and latency mode).
    pub fn restore(&mut self, snapshot: &SimSnapshot<M, P>) {
        assert_eq!(
            snapshot.nodes.len(),
            self.nodes.len(),
            "snapshot is for a different ring size"
        );
        self.core.restore(&snapshot.core);
        for (node, state) in self.nodes.iter_mut().zip(&snapshot.nodes) {
            node.restore(state);
        }
    }

    /// A stable 64-bit hash of the current *configuration*: per-channel
    /// queue lengths, termination flags, and every node's fingerprint.
    ///
    /// Deliberately excluded: send counters and aggregate statistics, so
    /// that two executions reaching the same configuration by different
    /// delivery orders collide — that collision is exactly what
    /// fingerprint-deduplicated exploration prunes on. Message *contents*
    /// are not hashed either (only queue lengths), which is sound for
    /// content-oblivious protocols where every message is a
    /// [`Pulse`](crate::Pulse).
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint_with(None)
    }

    /// [`configuration_hash`] of the current configuration.
    pub(crate) fn fingerprint_with(&self, clamped_send_seq: Option<u64>) -> u64 {
        configuration_hash(
            self.core.is_started(),
            (0..self.core.topology().channel_count()).map(|ch| self.core.queue_len(ch) as u64),
            (0..self.nodes.len()).map(|v| self.core.is_terminated(v)),
            self.nodes.iter().map(Snapshot::fingerprint),
            clamped_send_seq,
        )
    }
}

/// The one configuration hash layout, behind [`Simulation::fingerprint`],
/// [`crate::explore::config_fingerprint`], the explorer's
/// [`crate::explore::Probe`] and the fleet's end-state fingerprint.
///
/// The hash is a wrapping sum of position-keyed terms
/// ([`configuration_term`]): position 0 holds the node count and the
/// started flag, then one position per queue length, one per terminated
/// flag and one per node fingerprint, in that order. A term depends only
/// on its position and its word, so a delivery, which changes at most
/// four words and one node, updates the sum by swapping those terms
/// alone; the probe does exactly that. With a fault plan, the clamped
/// send counter is then mixed into the finished sum
/// ([`with_send_seq`]). CORINGCK v3 checkpoints store its values.
pub(crate) fn configuration_hash(
    started: bool,
    counts: impl Iterator<Item = u64>,
    terminated: impl Iterator<Item = bool>,
    nodes: impl ExactSizeIterator<Item = u64>,
    clamped_send_seq: Option<u64>,
) -> u64 {
    let header = ((nodes.len() as u64) << 1) | u64::from(started);
    let words = counts.chain(terminated.map(u64::from)).chain(nodes);
    let sum = words
        .enumerate()
        .fold(configuration_term(0, header), |sum, (i, word)| {
            sum.wrapping_add(configuration_term(i + 1, word))
        });
    clamped_send_seq.map_or(sum, |seq| with_send_seq(sum, seq))
}

/// The term of `word` at `position` of the [`configuration_hash`] layout:
/// SplitMix64 of the word offset by a per-position multiple of the golden
/// ratio, so distinct positions draw from distinct streams.
#[inline]
fn configuration_term(position: usize, word: u64) -> u64 {
    splitmix64(word.wrapping_add((position as u64).wrapping_mul(POSITION_STRIDE)))
}

/// A [`configuration_hash`] sum with the term of `old` at `position`
/// swapped for the term of `new`. Counting the queue lengths and then the
/// terminated flags as `words` words, word `i` sits at position `i + 1`
/// and node `v`'s fingerprint at position `words + 1 + v`.
#[inline]
pub(crate) fn swap_term(sum: u64, position: usize, old: u64, new: u64) -> u64 {
    sum.wrapping_sub(configuration_term(position, old))
        .wrapping_add(configuration_term(position, new))
}

/// ⌊2^64 / φ⌋, SplitMix64's own stream increment.
const POSITION_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// The fault-aware finish of a [`configuration_hash`] sum: the clamped
/// send counter mixed in after the sum.
pub(crate) fn with_send_seq(sum: u64, clamped_send_seq: u64) -> u64 {
    let mut fp = Fingerprint::new();
    fp.write_u64(sum);
    fp.write_u64(clamped_send_seq);
    fp.finish()
}

impl<M: Message, P: Protocol<M> + fmt::Debug> fmt::Debug for Simulation<M, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulation")
            .field("n", &self.wiring().len())
            .field("in_flight", &self.in_flight())
            .field("stats", &self.stats())
            .field("nodes", &self.nodes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{LatencyModel, LatencyPlan};
    use crate::message::Pulse;
    use crate::sched::{BoundedDelayScheduler, FifoScheduler, PhaseSwitchScheduler, SchedulerKind};
    use crate::topology::RingSpec;

    /// Sends `budget` pulses clockwise, one per received pulse.
    #[derive(Debug)]
    struct Ticker {
        budget: u64,
        seen: u64,
        done: bool,
    }

    impl Ticker {
        fn new(budget: u64) -> Ticker {
            Ticker {
                budget,
                seen: 0,
                done: false,
            }
        }
    }

    impl Protocol<Pulse> for Ticker {
        type Output = u64;
        fn on_start(&mut self, ctx: &mut Context<'_, Pulse>) {
            if self.budget > 0 {
                ctx.send(Port::One, Pulse);
            }
        }
        fn on_message(&mut self, _port: Port, _msg: Pulse, ctx: &mut Context<'_, Pulse>) {
            self.seen += 1;
            if self.seen < self.budget {
                ctx.send(Port::One, Pulse);
            } else {
                self.done = true;
            }
        }
        fn is_terminated(&self) -> bool {
            self.done
        }
        fn output(&self) -> Option<u64> {
            Some(self.seen)
        }
    }

    fn ring_sim(n: usize, budget: u64) -> Simulation<Pulse, Ticker> {
        let spec = RingSpec::oriented((1..=n as u64).collect());
        let nodes = (0..n).map(|_| Ticker::new(budget)).collect();
        Simulation::new(spec.wiring(), nodes, Box::new(FifoScheduler::new()))
    }

    #[test]
    fn tickers_reach_quiescent_termination() {
        let mut sim = ring_sim(4, 5);
        let report = sim.run(Budget::default());
        assert_eq!(report.outcome, Outcome::QuiescentTerminated);
        // 4 initial + each node relays 4 times (the 5th receipt terminates).
        assert_eq!(report.total_sent, 4 + 4 * 4);
        assert!(sim.is_quiescent());
        for i in 0..4 {
            assert!(sim.is_terminated(i));
            assert_eq!(sim.node(i).output(), Some(5));
        }
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        // Infinite relay: each pulse regenerates forever.
        let mut sim = ring_sim(3, u64::MAX);
        let report = sim.run(Budget::steps(100));
        assert_eq!(report.outcome, Outcome::BudgetExhausted);
        assert_eq!(report.steps, 100);
        assert!(report.in_flight > 0);
    }

    #[test]
    fn self_loop_delivers_to_self() {
        let mut sim = ring_sim(1, 3);
        let report = sim.run(Budget::default());
        assert_eq!(report.outcome, Outcome::QuiescentTerminated);
        assert_eq!(sim.node(0).output(), Some(3));
        // 1 initial + 2 relays.
        assert_eq!(report.total_sent, 3);
    }

    #[test]
    fn stats_account_every_message() {
        let mut sim = ring_sim(4, 5);
        let report = sim.run(Budget::default());
        let stats = sim.stats();
        assert_eq!(stats.total_sent, report.total_sent);
        assert_eq!(
            stats.total_delivered + stats.delivered_to_terminated,
            report.steps
        );
        assert_eq!(
            stats.sent_by_direction[Direction::Cw.index()],
            report.total_sent
        );
        assert_eq!(stats.sent_by_direction[Direction::Ccw.index()], 0);
        let per_node: u64 = (0..4).map(|i| stats.sent_by_node(i)).sum();
        assert_eq!(per_node, report.total_sent);
    }

    #[test]
    fn run_metrics_track_in_flight_extremes() {
        // Four tickers each start one pulse and relay one per receipt, so
        // the ring carries one pulse per message queued at the start.
        let peak = |faults: FaultPlan| {
            let mut sim = ring_sim(4, 5);
            sim.set_faults(faults);
            sim.enable_metrics();
            sim.run(Budget::default());
            let metrics = sim.metrics().expect("metrics enabled");
            assert_eq!(metrics.peak_queue_bytes, sim.peak_queue_bytes() as u64);
            metrics.max_in_flight
        };
        assert_eq!(peak(FaultPlan::new()), 4);
        // The last start-up send is dropped: it is never queued, so it
        // never counts as in flight.
        assert_eq!(peak(FaultPlan::new().drop_seq(3)), 3);
        // A duplicate is queued behind its original and counts.
        assert_eq!(peak(FaultPlan::new().duplicate_seq(3)), 5);
    }

    /// Collects every delivered step.
    struct Steps(Vec<StepInfo>);

    impl<P: Protocol<Pulse>> SimObserver<Pulse, P> for Steps {
        fn after_step(&mut self, _sim: &Simulation<Pulse, P>, step: &StepInfo) {
            self.0.push(*step);
        }
    }

    #[test]
    fn faults_show_in_delivered_seqs_and_fault_stats() {
        let mut sim = ring_sim(4, 5);
        sim.set_faults(FaultPlan::new().drop_seq(1).duplicate_seq(2));
        let mut steps = Steps(Vec::new());
        sim.run_observed(Budget::default(), &mut steps);
        assert_eq!(
            sim.fault_stats(),
            FaultStats {
                dropped: 1,
                duplicated: 1,
                injected: 0
            }
        );
        let seqs: Vec<u64> = steps.0.iter().map(|s| s.seq).collect();
        // The dropped send never arrives.
        assert!(!seqs.contains(&1));
        // The duplicate takes the next sequence number after its original
        // and arrives on the same channel right behind it.
        let original = steps.0.iter().position(|s| s.seq == 2).expect("seq 2");
        let copy = steps.0.iter().position(|s| s.seq == 3).expect("seq 3");
        assert!(original < copy);
        assert_eq!(steps.0[original].channel, steps.0[copy].channel);
    }

    #[test]
    fn fifo_law_holds_for_every_scheduler() {
        // Every channel delivers in send order: the seqs delivered at each
        // receiving (node, port) increase.
        for kind in SchedulerKind::ALL {
            let spec = RingSpec::oriented(vec![1, 2, 3]);
            let nodes = (0..3).map(|_| Ticker::new(5)).collect();
            let mut sim: Simulation<Pulse, Ticker> =
                Simulation::new(spec.wiring(), nodes, kind.build(3));
            let mut steps = Steps(Vec::new());
            sim.run_observed(Budget::default(), &mut steps);
            assert!(!steps.0.is_empty(), "{kind}");
            let mut last = std::collections::HashMap::new();
            for step in &steps.0 {
                if let Some(prev) = last.insert((step.node, step.port), step.seq) {
                    assert!(prev < step.seq, "{kind}: seq {} after {prev}", step.seq);
                }
            }
        }
    }

    #[test]
    fn sim_observer_sees_every_step() {
        struct Counter(u64);
        impl SimObserver<Pulse, Ticker> for Counter {
            fn after_step(&mut self, _sim: &Simulation<Pulse, Ticker>, _step: &StepInfo) {
                self.0 += 1;
            }
        }
        let mut sim = ring_sim(3, 4);
        let mut counter = Counter(0);
        let report = sim.run_observed(Budget::default(), &mut counter);
        assert!(report.steps > 0);
        assert_eq!(counter.0, report.steps);
    }

    #[test]
    fn all_schedulers_drive_to_completion() {
        for kind in SchedulerKind::ALL {
            let spec = RingSpec::oriented(vec![1, 2, 3, 4, 5]);
            let nodes = (0..5).map(|_| Ticker::new(7)).collect();
            let mut sim: Simulation<Pulse, Ticker> =
                Simulation::new(spec.wiring(), nodes, kind.build(99));
            let report = sim.run(Budget::default());
            assert_eq!(
                report.outcome,
                Outcome::QuiescentTerminated,
                "scheduler {kind} failed"
            );
            assert_eq!(report.total_sent, 5 + 5 * 6, "scheduler {kind} count");
        }
    }

    impl Snapshot for Ticker {
        type State = (u64, u64, bool);
        fn extract(&self) -> Self::State {
            (self.budget, self.seen, self.done)
        }
        fn restore(&mut self, state: &Self::State) {
            (self.budget, self.seen, self.done) = *state;
        }
        fn fingerprint(&self) -> u64 {
            let mut fp = Fingerprint::new();
            fp.write_u64(self.budget);
            fp.write_u64(self.seen);
            fp.write_bool(self.done);
            fp.finish()
        }
    }

    #[test]
    fn record_then_replay_reproduces_report_and_stats() {
        for kind in SchedulerKind::ALL {
            let spec = RingSpec::oriented(vec![1, 2, 3, 4]);
            let nodes = (0..4).map(|_| Ticker::new(6)).collect();
            let mut original: Simulation<Pulse, Ticker> =
                Simulation::new(spec.wiring(), nodes, kind.build(17));
            let (report, schedule) = original.run_recorded(Budget::default());
            assert_eq!(report.steps as usize, schedule.len(), "{kind}");

            let nodes = (0..4).map(|_| Ticker::new(6)).collect();
            let mut replayed: Simulation<Pulse, Ticker> =
                Simulation::new(spec.wiring(), nodes, kind.build(999));
            let replay_report = replayed.replay(&schedule, Budget::default());
            assert_eq!(report, replay_report, "{kind}");
            assert_eq!(original.stats(), replayed.stats(), "{kind}");
            assert_eq!(original.outputs(), replayed.outputs(), "{kind}");
        }
    }

    /// Starts one pulse each way and relays every receipt onward in its
    /// direction of travel until `budget` receipts, so both directions
    /// carry traffic and every adversary has choices to make.
    #[derive(Clone, Debug)]
    struct Bouncer {
        budget: u64,
        seen: u64,
    }

    impl Protocol<Pulse> for Bouncer {
        type Output = u64;
        fn on_start(&mut self, ctx: &mut Context<'_, Pulse>) {
            ctx.send(Port::Zero, Pulse);
            ctx.send(Port::One, Pulse);
        }
        fn on_message(&mut self, port: Port, _msg: Pulse, ctx: &mut Context<'_, Pulse>) {
            self.seen += 1;
            if self.seen < self.budget {
                ctx.send(port.opposite(), Pulse);
            }
        }
        fn is_terminated(&self) -> bool {
            self.seen >= self.budget
        }
        fn output(&self) -> Option<u64> {
            Some(self.seen)
        }
    }

    impl Snapshot for Bouncer {
        type State = u64;
        fn extract(&self) -> u64 {
            self.seen
        }
        fn restore(&mut self, state: &u64) {
            self.seen = *state;
        }
        fn fingerprint(&self) -> u64 {
            let mut fp = Fingerprint::new();
            fp.write_u64(self.seen);
            fp.finish()
        }
    }

    fn bouncer_sim(
        scheduler: Box<dyn Scheduler>,
        latency: LatencyPlan,
    ) -> Simulation<Pulse, Bouncer> {
        let spec = RingSpec::oriented(vec![4, 1, 3, 2]);
        let nodes = (0..4).map(|_| Bouncer { budget: 6, seen: 0 }).collect();
        let mut sim = Simulation::new(spec.wiring(), nodes, scheduler);
        sim.set_latency(latency);
        sim
    }

    /// A snapshot taken mid-run and restored after the run finished replays
    /// the same continuation under every scheduler type: the restore copies
    /// back random streams (Random, BoundedDelay), cursors (RoundRobin,
    /// Replay), the delivery count of a phase switch still ahead, deadlines,
    /// send orders, ready indexes, and latency streams with the clock.
    #[test]
    fn snapshot_restore_rewinds_a_run() {
        const CHECKPOINT: usize = 5;
        let untimed = LatencyPlan::zero;
        let timed = LatencyPlan::new(LatencyModel::Uniform { min: 1, max: 10 }, 3);
        let script = bouncer_sim(SchedulerKind::Lifo.build(0), untimed())
            .run_recorded(Budget::default())
            .1
            .picks()
            .to_vec();
        let mut cases: Vec<(String, Box<dyn Scheduler>, LatencyPlan)> = SchedulerKind::ALL
            .iter()
            .map(|kind| (kind.to_string(), kind.build(7), untimed()))
            .collect();
        cases.push(("latency".into(), SchedulerKind::Latency.build(0), timed));
        cases.push((
            "bounded-delay".into(),
            Box::new(BoundedDelayScheduler::new(2, 5)),
            untimed(),
        ));
        cases.push((
            "phase-switch".into(),
            Box::new(PhaseSwitchScheduler::new(
                SchedulerKind::Random.build(4),
                SchedulerKind::Random.build(8),
                2 * CHECKPOINT as u64,
            )),
            untimed(),
        ));
        cases.push((
            "replay".into(),
            Box::new(ReplayScheduler::new(script)),
            untimed(),
        ));
        for (label, scheduler, latency) in cases {
            let mut sim = bouncer_sim(scheduler, latency);
            sim.enable_schedule_recording();
            sim.start();
            for _ in 0..CHECKPOINT {
                sim.step().expect("the run is still going");
            }
            let checkpoint = sim.snapshot();
            let fp_at_checkpoint = sim.fingerprint();
            let (report, picks) = sim.run_recorded(Budget::default());
            let stats = sim.stats().clone();
            assert_ne!(sim.fingerprint(), fp_at_checkpoint, "{label}");

            sim.restore(&checkpoint);
            assert_eq!(sim.fingerprint(), fp_at_checkpoint, "{label}");
            let rerun = sim.run_recorded(Budget::default());
            assert_eq!(picks, rerun.1, "{label}: picks");
            assert_eq!(report, rerun.0, "{label}: report");
            assert_eq!(&stats, sim.stats(), "{label}: stats");
        }
    }

    #[test]
    fn step_channel_delivers_from_the_named_channel_only() {
        let mut sim = ring_sim(3, 2);
        sim.start();
        let ready = sim.ready_channels();
        assert!(!ready.is_empty());
        let target = ready[0];
        let info = sim.step_channel(target).expect("channel is ready");
        assert_eq!(info.channel, target);
        // An empty channel yields no step: CW-only Tickers never fill the
        // CCW channel out of node 0's port Zero.
        let empty = ChannelId::new(0, Port::Zero);
        assert!(!sim.ready_channels().contains(&empty));
        assert!(sim.step_channel(empty).is_none());
    }

    #[test]
    fn fingerprint_ignores_path_but_sees_configuration() {
        // Two different delivery orders reaching quiescent termination end
        // in the same configuration → same fingerprint.
        let mut a = ring_sim(3, 2);
        a.run(Budget::default());
        let spec = RingSpec::oriented(vec![1, 2, 3]);
        let nodes = (0..3).map(|_| Ticker::new(2)).collect();
        let mut b: Simulation<Pulse, Ticker> =
            Simulation::new(spec.wiring(), nodes, SchedulerKind::Lifo.build(0));
        b.run(Budget::default());
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), ring_sim(3, 2).fingerprint());
    }

    #[test]
    fn fingerprint_values_are_pinned() {
        // Dedup sets in CORINGCK v3 checkpoints hold these values: a change
        // of hash layout must bump the checkpoint version.
        let mut sim = ring_sim(3, 2);
        sim.start();
        for _ in 0..4 {
            sim.step();
        }
        assert!((0..3).any(|v| sim.is_terminated(v)) && !sim.is_quiescent());
        assert_eq!(sim.fingerprint(), 13_513_442_218_975_725_207);
    }

    #[test]
    fn counter_backend_reproduces_vec_backend_run() {
        let spec = RingSpec::oriented(vec![1, 2, 3, 4]);
        let nodes: Vec<Ticker> = (0..4).map(|_| Ticker::new(6)).collect();
        let mut vec_sim: Simulation<Pulse, Ticker> = Simulation::with_backend(
            spec.wiring(),
            nodes,
            Box::new(FifoScheduler::new()),
            QueueBackend::Vec,
        );
        assert_eq!(vec_sim.queue_backend(), QueueBackend::Vec);
        let nodes: Vec<Ticker> = (0..4).map(|_| Ticker::new(6)).collect();
        let mut ctr_sim: Simulation<Pulse, Ticker> = Simulation::with_backend(
            spec.wiring(),
            nodes,
            Box::new(FifoScheduler::new()),
            QueueBackend::Counter,
        );
        assert_eq!(ctr_sim.queue_backend(), QueueBackend::Counter);
        let vec_report = vec_sim.run(Budget::default());
        let ctr_report = ctr_sim.run(Budget::default());
        assert_eq!(vec_report, ctr_report);
        assert_eq!(vec_sim.stats(), ctr_sim.stats());
        assert_eq!(vec_sim.fingerprint(), ctr_sim.fingerprint());
        // Both backends measured real bytes; the accounting is nonzero and
        // backend-specific.
        assert!(vec_sim.peak_queue_bytes() > 0);
        assert!(ctr_sim.peak_queue_bytes() > 0);
    }

    /// A deliberately broken adversary: always names a channel far past
    /// every ready one.
    #[derive(Clone, Debug)]
    struct IdleChannelScheduler;
    impl Scheduler for IdleChannelScheduler {
        fn pick(&mut self, _ready: &[ChannelId]) -> ChannelId {
            ChannelId::from_index(999)
        }
    }
    use crate::sched::ChannelView;

    #[test]
    fn try_step_reports_buggy_scheduler_without_mutating_state() {
        let spec = RingSpec::oriented(vec![1, 2, 3]);
        let nodes = (0..3).map(|_| Ticker::new(2)).collect();
        let mut sim: Simulation<Pulse, Ticker> =
            Simulation::new(spec.wiring(), nodes, Box::new(IdleChannelScheduler));
        sim.start();
        let before_steps = sim.stats().steps;
        let before_in_flight = sim.in_flight();
        let err = sim.try_step().expect_err("scheduler names an idle channel");
        assert_eq!(err, EngineError::SchedulerIdleChannel { channel: 999 });
        let text = err.to_string();
        assert!(text.contains("999") && text.contains("not ready"), "{text}");
        // The error is raised before any delivery: nothing moved.
        assert_eq!(sim.stats().steps, before_steps);
        assert_eq!(sim.in_flight(), before_in_flight);
        // A fixed scheduler resumes the wedged-free engine normally.
        sim.core.set_scheduler(Box::new(FifoScheduler::new()));
        let report = sim.run(Budget::default());
        assert_eq!(report.outcome, Outcome::QuiescentTerminated);
    }

    /// A broken incremental index: FIFO that never hears `on_unready`, so
    /// it goes on naming channels that have drained.
    #[derive(Clone, Debug, Default)]
    struct StaleIndexScheduler(FifoScheduler);
    impl Scheduler for StaleIndexScheduler {
        fn pick(&mut self, ready: &[ChannelId]) -> ChannelId {
            self.0.pick(ready)
        }
        fn on_send(&mut self, seq: u64, arrival: u64, view: ChannelView) {
            self.0.on_send(seq, arrival, view);
        }
        fn on_change(&mut self, view: ChannelView) {
            self.0.on_change(view);
        }
        fn clear_index(&mut self) {
            self.0.clear_index();
        }
    }

    #[test]
    fn try_step_reports_a_pick_of_a_drained_channel() {
        let spec = RingSpec::oriented(vec![1, 2, 3]);
        let nodes = (0..3).map(|_| Ticker::new(2)).collect();
        let mut sim: Simulation<Pulse, Ticker> =
            Simulation::new(spec.wiring(), nodes, Box::<StaleIndexScheduler>::default());
        sim.start();
        let err = loop {
            let before_steps = sim.stats().steps;
            match sim.try_step() {
                Ok(step) => assert!(step.is_some(), "the stale index must misfire first"),
                Err(e) => {
                    // The error is raised before any delivery: nothing moved.
                    assert_eq!(sim.stats().steps, before_steps);
                    break e;
                }
            }
        };
        let EngineError::SchedulerIdleChannel { channel } = err;
        assert!(channel < spec.wiring().channel_count(), "a real channel");
        assert!(!sim
            .ready_channels()
            .contains(&ChannelId::from_index(channel)));
        // A fixed scheduler, seeded from the ready set, finishes the run.
        sim.core.set_scheduler(Box::new(FifoScheduler::new()));
        let report = sim.run(Budget::default());
        assert_eq!(report.outcome, Outcome::QuiescentTerminated);
    }

    #[test]
    #[should_panic(expected = "not ready")]
    fn step_panics_on_buggy_scheduler() {
        let spec = RingSpec::oriented(vec![1, 2]);
        let nodes = (0..2).map(|_| Ticker::new(2)).collect();
        let mut sim: Simulation<Pulse, Ticker> =
            Simulation::new(spec.wiring(), nodes, Box::new(IdleChannelScheduler));
        sim.step();
    }

    #[test]
    fn messages_to_terminated_nodes_are_ignored_and_counted() {
        /// Node 0 sends two pulses at start; every node terminates after one
        /// receipt, so the second pulse reaches a terminated node.
        #[derive(Debug)]
        struct Flooder {
            id: usize,
            got: bool,
        }
        impl Protocol<Pulse> for Flooder {
            type Output = ();
            fn on_start(&mut self, ctx: &mut Context<'_, Pulse>) {
                if self.id == 0 {
                    ctx.send(Port::One, Pulse);
                    ctx.send(Port::One, Pulse);
                }
            }
            fn on_message(&mut self, _p: Port, _m: Pulse, _ctx: &mut Context<'_, Pulse>) {
                self.got = true;
            }
            fn is_terminated(&self) -> bool {
                self.got
            }
            fn output(&self) -> Option<()> {
                self.got.then_some(())
            }
        }
        let spec = RingSpec::oriented(vec![1, 2]);
        let nodes = vec![Flooder { id: 0, got: false }, Flooder { id: 1, got: false }];
        let mut sim: Simulation<Pulse, Flooder> =
            Simulation::new(spec.wiring(), nodes, Box::new(FifoScheduler::new()));
        let report = sim.run(Budget::default());
        // Node 1 terminates after the first pulse; the second is ignored.
        // Node 0 never receives anything, so it never terminates: quiescent
        // only after both deliveries.
        assert_eq!(sim.stats().delivered_to_terminated, 1);
        assert_eq!(report.outcome, Outcome::Quiescent);
    }
}
