//! The unified event core shared by every delivery engine.
//!
//! [`EventCore`] owns everything a discrete-event network simulation needs
//! that is independent of the topology's port discipline: per-channel FIFO
//! queues behind a pluggable [`QueueStore`], the incrementally maintained
//! ready list, scheduler dispatch, fault application ([`FaultPlan`]), budget
//! and quiescence accounting ([`Budget`], [`Outcome`]), aggregate statistics
//! ([`SimStats`]), and the optional [`RunMetrics`] high-water marks. A
//! whole run is watched delivery by delivery through the facades'
//! observers ([`SimObserver`](crate::SimObserver)), which read the
//! [`EngineStep`] each delivery returns.
//!
//! Two abstractions parameterize the core:
//!
//! * [`Topology`] — the channel table. The fixed two-port ring
//!   ([`Wiring`](crate::Wiring)) and the arbitrary-degree multigraph
//!   ([`GraphWiring`](crate::multiport::GraphWiring)) both implement it;
//!   ports are dense `usize` indices `0..degree(node)` at this layer.
//! * [`EventHandler`] — dispatch into the node programs. The typed facades
//!   ([`Simulation`](crate::Simulation) for rings,
//!   [`GraphSim`](crate::multiport::GraphSim) for multigraphs) implement it
//!   by wrapping the raw outbox in their port-typed contexts, so protocol
//!   code keeps its `Port`-typed (or degree-indexed) API while the core
//!   stays monomorphic over `usize`.
//!
//! The core's delivery semantics are the paper's model exactly — see the
//! [`sim`](crate::sim) module docs — and are byte-identical to the
//! pre-unification ring engine: sequence numbers are assigned in send order
//! and faults apply drop-then-duplicate. The ready list handed to the
//! scheduler is a dense array of channel ids updated in place on
//! enqueue/deliver (swap-remove on empty), so its *order* is an
//! implementation detail; schedulers must pick by channel identity / head
//! sequence, not by array position (see [`Scheduler`]). Head sequence
//! numbers are globally unique, so key-based picks are well-defined
//! regardless of array order. The [`QueueStore`] is the one record of each
//! channel's length and head: the [`ChannelView`] a scheduler hook receives
//! is read from it when the hook fires.

use crate::clock::{LatencyPlan, VirtualClock};
use crate::faults::{FaultPlan, FaultStats};
use crate::message::{Message, UnitMessage};
use crate::port::Direction;
use crate::prof;
use crate::sched::{ChannelView, Scheduler};
use crate::snapshot::Schedule;
use crate::topology::ChannelId;
use rand::rngs::StdRng;
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::time::Instant;

/// A channel table: how many nodes, how their ports map to directed FIFO
/// channels, and where each channel delivers.
///
/// Channels are dense indices `0..channel_count()`; ports are dense indices
/// `0..degree(node)`. Channels are numbered in `(node, port)` order: node
/// `v`'s out-channels are the `degree(v)` indices right after node `v − 1`'s,
/// in port order, which is also the layout of [`SimStats`]' per-port slots;
/// building an [`EventCore`] over a topology that breaks this panics.
/// The map `(node, port) → out_channel → endpoint` must
/// describe undirected links: following the channel leaving `(v, p)` to its
/// endpoint `(u, q)` and back along the channel leaving `(u, q)` lands at
/// `(v, p)` again.
pub trait Topology {
    /// Number of nodes.
    fn len(&self) -> usize;

    /// Whether the network has no nodes (never true for a valid topology).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of directed channels.
    fn channel_count(&self) -> usize;

    /// Number of ports of `node`.
    fn degree(&self, node: usize) -> usize;

    /// The channel carrying messages sent by `node` from `port`.
    fn out_channel(&self, node: usize, port: usize) -> usize;

    /// Destination `(node, in-port)` of `channel`.
    fn endpoint(&self, channel: usize) -> (usize, usize);

    /// Global direction tag of `channel`, if the topology defines one
    /// (rings tag channels CW/CCW; general graphs leave this `None`).
    fn direction(&self, channel: usize) -> Option<Direction> {
        let _ = channel;
        None
    }
}

/// Dispatch from the core into a set of node programs.
///
/// Implemented by the typed facades, not by protocol code: the facade wraps
/// the raw `(port, message)` outbox in its port-typed context and forwards
/// to the node's `on_start` / `on_message`.
pub trait EventHandler<M: Message> {
    /// Run node `node`'s start-up action, buffering sends into `outbox`.
    fn on_start(&mut self, node: usize, degree: usize, outbox: &mut Vec<(usize, M)>);

    /// Deliver `msg` on `port` to node `node`, buffering sends into `outbox`.
    fn on_message(
        &mut self,
        node: usize,
        degree: usize,
        port: usize,
        msg: M,
        outbox: &mut Vec<(usize, M)>,
    );

    /// Whether node `node` has entered a terminating state.
    fn is_terminated(&self, node: usize) -> bool;
}

/// Run-summary metrics the engine keeps while [`EventCore::enable_metrics`]
/// is on: the two high-water marks that no other counter holds.
///
/// Both are updated where a message is queued, so the state stays O(1)
/// however long the run. Sends, deliveries and faults are counted in
/// [`SimStats`] and [`FaultStats`] whether or not metrics are on.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct RunMetrics {
    /// Peak number of messages queued at once across all channels,
    /// duplicates and injected messages included. A dropped send is never
    /// queued, so it never counts as in flight.
    pub max_in_flight: u64,
    /// High-water mark of queued bytes across all channels, as accounted by
    /// the engine's [`QueueStore`].
    ///
    /// This field is *backend-dependent by design* — it is the measured
    /// footprint of the storage actually in use, not an estimate, so the
    /// same run costs far fewer bytes under [`QueueBackend::Counter`] than
    /// under [`QueueBackend::Vec`].
    pub peak_queue_bytes: u64,
}

/// Step/message budget bounding a run.
///
/// The paper's algorithms all reach quiescence in finite time; the budget
/// exists to turn a would-be hang (a bug) into a reported
/// [`Outcome::BudgetExhausted`] instead of an endless loop.
///
/// The unit is *pulses*: individual message deliveries.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Budget {
    /// Maximum number of pulses delivered before aborting.
    pub max_steps: u64,
}

impl Budget {
    /// A budget of `max_steps` pulses (single-message deliveries).
    #[must_use]
    pub fn steps(max_steps: u64) -> Budget {
        Budget { max_steps }
    }
}

impl Default for Budget {
    /// 50 million deliveries — far above `n(2·ID_max + 1)` for every
    /// configuration exercised in this repository.
    fn default() -> Budget {
        Budget {
            max_steps: 50_000_000,
        }
    }
}

/// How a run ended.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Every node terminated, and no message was ever delivered to (or left
    /// queued toward) a terminated node — the paper's *quiescent
    /// termination*.
    QuiescentTerminated,
    /// Every node terminated but some messages were still in transit when
    /// nodes terminated (they were delivered and ignored).
    TerminatedNonQuiescent,
    /// No messages remain in transit but at least one node has not
    /// terminated — *quiescence*, the guarantee of stabilizing algorithms.
    Quiescent,
    /// The step budget ran out with messages still in transit.
    BudgetExhausted,
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Outcome::QuiescentTerminated => "quiescent termination",
            Outcome::TerminatedNonQuiescent => "termination (non-quiescent)",
            Outcome::Quiescent => "quiescence without termination",
            Outcome::BudgetExhausted => "budget exhausted",
        };
        f.write_str(s)
    }
}

/// Aggregate counters of a simulation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Total messages sent (= the paper's message complexity when the run
    /// reaches quiescence).
    pub total_sent: u64,
    /// Total messages delivered to live nodes.
    pub total_delivered: u64,
    /// Messages delivered to terminated nodes and ignored.
    pub delivered_to_terminated: u64,
    /// Deliveries performed (steps executed).
    pub steps: u64,
    /// Sent counts by direction tag: `[CW, CCW]` (untagged channels are not
    /// counted here).
    pub sent_by_direction: [u64; 2],
    /// Messages sent from each port, one slot per `(node, port)`: node
    /// `v`'s port `p` is slot [`Topology::out_channel`]`(v, p)`, the index of
    /// the channel it sends on.
    pub sent_by_port: Vec<u64>,
    /// Messages received (processed) at each port, in the same slots: a
    /// delivery at node `v`'s in-port `p` counts in slot `out_channel(v, p)`.
    pub recv_by_port: Vec<u64>,
    /// Node `v`'s slots are `port_base[v]..port_base[v + 1]`.
    port_base: Vec<usize>,
}

impl SimStats {
    /// Zeroed counters with `degrees[v]` per-port slots for node `v`.
    pub(crate) fn with_degrees(degrees: impl IntoIterator<Item = usize>) -> SimStats {
        let mut port_base = vec![0];
        for degree in degrees {
            port_base.push(port_base[port_base.len() - 1] + degree);
        }
        let slots = port_base[port_base.len() - 1];
        SimStats {
            sent_by_port: vec![0; slots],
            recv_by_port: vec![0; slots],
            port_base,
            ..SimStats::default()
        }
    }

    fn for_topology<T: Topology>(topology: &T) -> SimStats {
        let stats = SimStats::with_degrees((0..topology.len()).map(|v| topology.degree(v)));
        assert!(
            (0..topology.len()).all(|v| (0..topology.degree(v))
                .all(|p| topology.out_channel(v, p) == stats.port_base[v] + p)),
            "channels are numbered in (node, port) order"
        );
        stats
    }

    /// Total messages sent by one node.
    #[must_use]
    pub fn sent_by_node(&self, node: usize) -> u64 {
        self.sent_by_port[self.port_base[node]..self.port_base[node + 1]]
            .iter()
            .sum()
    }

    /// Total messages received (processed) by one node.
    #[must_use]
    pub fn recv_by_node(&self, node: usize) -> u64 {
        self.recv_by_port[self.port_base[node]..self.port_base[node + 1]]
            .iter()
            .sum()
    }
}

/// Result of running an engine to quiescence or budget exhaustion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunReport {
    /// How the run ended.
    pub outcome: Outcome,
    /// Total messages sent — the paper's *message complexity* of the
    /// execution.
    pub total_sent: u64,
    /// Deliveries performed.
    pub steps: u64,
    /// Messages still in transit at the end (0 unless the budget ran out).
    pub in_flight: u64,
}

/// One delivery, as reported by [`EventCore::step`] — the topology-neutral
/// analogue of [`StepInfo`](crate::StepInfo), with dense `usize` indices.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct EngineStep {
    /// The channel that delivered.
    pub channel: usize,
    /// The receiving node.
    pub node: usize,
    /// The in-port the message arrived at.
    pub port: usize,
    /// Global send sequence number of the delivered message.
    pub seq: u64,
    /// Direction tag of the channel, if any.
    pub direction: Option<Direction>,
    /// Whether the receiver had already terminated (message ignored).
    pub ignored: bool,
    /// Virtual time of the delivery (0 throughout untimed runs).
    pub at: u64,
}

/// A scheduler misbehaved and the engine refused to act on its answer.
///
/// Returned by [`EventCore::try_step`] / [`crate::Simulation::try_step`]
/// *before* any engine state is mutated, so a buggy adversary cannot wedge
/// the core half-updated — the explorer can report the offending scheduler
/// and carry on.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// The scheduler picked a channel with no queued messages: one that is
    /// not in the ready set it was shown (e.g. a broken incremental index).
    SchedulerIdleChannel {
        /// The channel the scheduler named.
        channel: usize,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            EngineError::SchedulerIdleChannel { channel } => {
                write!(f, "scheduler picked channel {channel}, which is not ready")
            }
        }
    }
}

impl Error for EngineError {}

/// Which storage backend an [`EventCore`]'s [`QueueStore`] uses.
///
/// The two backends are observationally identical — same delivery order,
/// same sequence numbers, same [`RunReport`]s and snapshot fingerprints —
/// and differ only in memory footprint and constant factors (see the
/// backend-equivalence property suite in `tests/backend_equivalence.rs`).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum QueueBackend {
    /// Per-channel `VecDeque` of full `(message, seq)` envelopes. Works for
    /// any payload type; a queued message costs `size_of::<M>() + 8` bytes.
    #[default]
    Vec,
    /// Run-length counters over sequence numbers, for [`UnitMessage`]
    /// payloads only: a channel holds `(head_seq, len)` runs of consecutive
    /// seqs, so a burst of a million queued pulses costs one 16-byte run.
    /// Fault-injected duplicates and interleaved sends spill into further
    /// runs; the representation stays lossless because deliveries
    /// reconstruct the payload from `M::default()`.
    Counter,
}

impl QueueBackend {
    /// Both backends, in a fixed order (for test/bench grids).
    pub const ALL: [QueueBackend; 2] = [QueueBackend::Vec, QueueBackend::Counter];

    /// Parses `"vec"` / `"counter"` (case-insensitive).
    #[must_use]
    pub fn parse(name: &str) -> Option<QueueBackend> {
        match name.to_ascii_lowercase().as_str() {
            "vec" => Some(QueueBackend::Vec),
            "counter" => Some(QueueBackend::Counter),
            _ => None,
        }
    }
}

impl fmt::Display for QueueBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            QueueBackend::Vec => "vec",
            QueueBackend::Counter => "counter",
        })
    }
}

#[derive(Clone, Debug)]
struct Envelope<M> {
    msg: M,
    seq: u64,
}

/// One channel of the counter backend: FIFO runs of consecutive sequence
/// numbers. `runs[0]` is the head run (next delivery = its start seq); the
/// rest is the spill list created by sequence gaps (interleaved sends on
/// other channels) or fault-injected duplicates.
#[derive(Clone, Debug, Default)]
struct PulseRuns {
    runs: VecDeque<(u64, u64)>,
    len: usize,
}

impl PulseRuns {
    fn push(&mut self, seq: u64) -> bool {
        self.len += 1;
        if let Some(last) = self.runs.back_mut() {
            if last.0 + last.1 == seq {
                last.1 += 1;
                return false;
            }
        }
        self.runs.push_back((seq, 1));
        true
    }

    fn pop(&mut self) -> Option<(u64, bool)> {
        let front = self.runs.front_mut()?;
        let seq = front.0;
        self.len -= 1;
        if front.1 == 1 {
            self.runs.pop_front();
            Some((seq, true))
        } else {
            front.0 += 1;
            front.1 -= 1;
            Some((seq, false))
        }
    }

    fn head_seq(&self) -> Option<u64> {
        self.runs.front().map(|&(start, _)| start)
    }
}

const RUN_BYTES: usize = std::mem::size_of::<(u64, u64)>();

#[derive(Clone, Debug)]
enum StoreRepr<M> {
    Vec(Vec<VecDeque<Envelope<M>>>),
    Counter { proto: M, chans: Vec<PulseRuns> },
}

/// Pluggable per-channel FIFO storage — the concrete state behind a
/// [`QueueBackend`].
///
/// The store owns only message content and sequence numbers; ready-list
/// maintenance, statistics, and fault logic live in [`EventCore`]. It also
/// keeps the byte accounting ([`QueueStore::queue_bytes`] /
/// [`QueueStore::peak_queue_bytes`]) that backs `RunMetrics::
/// peak_queue_bytes` and the E17 memory column.
#[derive(Clone, Debug)]
pub struct QueueStore<M> {
    repr: StoreRepr<M>,
    total: usize,
    cur_bytes: usize,
    peak_bytes: usize,
}

impl<M: Message> QueueStore<M> {
    fn vec(channels: usize) -> QueueStore<M> {
        QueueStore {
            repr: StoreRepr::Vec((0..channels).map(|_| VecDeque::new()).collect()),
            total: 0,
            cur_bytes: 0,
            peak_bytes: 0,
        }
    }

    fn counter(channels: usize) -> QueueStore<M>
    where
        M: UnitMessage,
    {
        QueueStore {
            repr: StoreRepr::Counter {
                proto: M::default(),
                chans: vec![PulseRuns::default(); channels],
            },
            total: 0,
            cur_bytes: 0,
            peak_bytes: 0,
        }
    }

    /// The backend this store implements.
    #[must_use]
    pub fn backend(&self) -> QueueBackend {
        match self.repr {
            StoreRepr::Vec(_) => QueueBackend::Vec,
            StoreRepr::Counter { .. } => QueueBackend::Counter,
        }
    }

    /// Number of channels.
    #[must_use]
    pub fn channel_count(&self) -> usize {
        match &self.repr {
            StoreRepr::Vec(queues) => queues.len(),
            StoreRepr::Counter { chans, .. } => chans.len(),
        }
    }

    /// Messages queued on one channel.
    #[must_use]
    pub fn len(&self, channel: usize) -> usize {
        match &self.repr {
            StoreRepr::Vec(queues) => queues[channel].len(),
            StoreRepr::Counter { chans, .. } => chans[channel].len,
        }
    }

    /// Whether no messages are queued anywhere.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Messages queued across all channels.
    #[must_use]
    pub fn total_len(&self) -> usize {
        self.total
    }

    /// Sequence number of the next message `channel` would deliver.
    #[must_use]
    pub fn head_seq(&self, channel: usize) -> Option<u64> {
        match &self.repr {
            StoreRepr::Vec(queues) => queues[channel].front().map(|e| e.seq),
            StoreRepr::Counter { chans, .. } => chans[channel].head_seq(),
        }
    }

    /// Bytes of queued payload currently held (envelopes for the vec
    /// backend, run entries for the counter backend; container overhead is
    /// not counted).
    #[must_use]
    pub fn queue_bytes(&self) -> usize {
        self.cur_bytes
    }

    /// High-water mark of [`QueueStore::queue_bytes`] over the store's
    /// lifetime.
    #[must_use]
    pub fn peak_queue_bytes(&self) -> usize {
        self.peak_bytes
    }

    /// Appends `channel`'s queued messages to `out` as runs of consecutive
    /// seqs, front first (one run per message for the vec backend).
    fn channel_runs(&self, channel: usize, out: &mut Vec<SendRun>) {
        match &self.repr {
            StoreRepr::Vec(queues) => {
                out.extend(queues[channel].iter().enumerate().map(|(at, e)| SendRun {
                    start: e.seq,
                    len: 1,
                    channel,
                    at,
                }));
            }
            StoreRepr::Counter { chans, .. } => {
                let mut at = 0;
                for &(start, len) in &chans[channel].runs {
                    out.push(SendRun {
                        start,
                        len,
                        channel,
                        at,
                    });
                    at += len as usize;
                }
            }
        }
    }

    fn push(&mut self, channel: usize, msg: M, seq: u64) {
        self.total += 1;
        match &mut self.repr {
            StoreRepr::Vec(queues) => {
                queues[channel].push_back(Envelope { msg, seq });
                self.cur_bytes += std::mem::size_of::<Envelope<M>>();
            }
            StoreRepr::Counter { chans, .. } => {
                if chans[channel].push(seq) {
                    self.cur_bytes += RUN_BYTES;
                }
            }
        }
        if self.cur_bytes > self.peak_bytes {
            self.peak_bytes = self.cur_bytes;
        }
    }

    fn pop(&mut self, channel: usize) -> Option<(M, u64)> {
        match &mut self.repr {
            StoreRepr::Vec(queues) => {
                let envelope = queues[channel].pop_front()?;
                self.total -= 1;
                self.cur_bytes -= std::mem::size_of::<Envelope<M>>();
                Some((envelope.msg, envelope.seq))
            }
            StoreRepr::Counter { proto, chans } => {
                let (seq, run_freed) = chans[channel].pop()?;
                self.total -= 1;
                if run_freed {
                    self.cur_bytes -= RUN_BYTES;
                }
                Some((proto.clone(), seq))
            }
        }
    }
}

/// A copy of an [`EventCore`]'s run state: every field a delivery can
/// change — queues, termination flags, the dense ready array, the
/// scheduler (its random stream, cursors and index included), statistics,
/// counters, clock and latency streams — plus the length of the
/// recorded schedule. Restoring it makes the core behave exactly as the
/// captured one would from that point on.
///
/// Deliberately *not* captured: metrics and the recorded schedule
/// beyond its length at capture time. Those are instrumentation of one
/// particular execution; a restore rewinds the engine, not its records.
#[derive(Clone, Debug)]
pub struct CoreSnapshot<M> {
    terminated: Vec<bool>,
    queues: QueueStore<M>,
    ready: Vec<ChannelId>,
    ready_pos: Vec<usize>,
    scheduler: Box<dyn Scheduler>,
    stats: SimStats,
    send_seq: u64,
    started: bool,
    fault_stats: FaultStats,
    clock: VirtualClock,
    latency: Option<LatencyState>,
    recorded_len: usize,
}

/// The mutable half of a latency plan: per-channel sample streams and the
/// arrival timestamps of every queued message.
#[derive(Clone, Debug)]
struct LatencyState {
    plan: LatencyPlan,
    /// One independent generator per channel (see
    /// [`LatencyPlan::channel_rng`]).
    rngs: Vec<StdRng>,
    /// Arrival timestamps of queued messages, FIFO-parallel to the
    /// [`QueueStore`]'s per-channel contents.
    arrivals: Vec<VecDeque<u64>>,
    /// Last arrival handed out per channel — enforces per-channel FIFO in
    /// virtual time (a later send never arrives before an earlier one).
    last_arrival: Vec<u64>,
}

impl LatencyState {
    fn new(plan: LatencyPlan, channels: usize) -> LatencyState {
        LatencyState {
            rngs: (0..channels).map(|c| plan.channel_rng(c)).collect(),
            arrivals: vec![VecDeque::new(); channels],
            last_arrival: vec![0; channels],
            plan,
        }
    }
}

const NOT_READY: usize = usize::MAX;

/// Queued messages with send seqs `start..start + len` on `channel`, the
/// first of them at queue position `at`.
#[derive(Copy, Clone, Debug)]
struct SendRun {
    start: u64,
    len: u64,
    channel: usize,
    at: usize,
}

/// Opens a profiler bracket on the observed delivery path; on the quiet
/// one it is `None`, so the [`prof::stop`] that closes it compiles away.
#[inline(always)]
fn bracket<const OBSERVED: bool>() -> Option<Instant> {
    if OBSERVED {
        prof::start()
    } else {
        None
    }
}

/// The generic event core: queues, scheduler dispatch, faults, accounting,
/// and event recording over any [`Topology`].
///
/// Node programs live *outside* the core, behind an [`EventHandler`] passed
/// into [`EventCore::start`] / [`EventCore::step`] / [`EventCore::run`] —
/// this keeps the core free of the protocol type and lets the facades hand
/// out `&[P]` node access without interior mutability.
pub struct EventCore<M: Message, T: Topology> {
    topology: T,
    terminated: Vec<bool>,
    queues: QueueStore<M>,
    /// Dense array of non-empty channels, updated in place on
    /// enqueue/deliver (swap-remove on empty) so `step()` never rebuilds
    /// it — O(1) + scheduler cost per step regardless of how many channels
    /// are active. Order is arbitrary (a function of run history);
    /// `ready_pos` maps channel index → position, `NOT_READY` if absent.
    /// Ids only: a channel's length, head and arrival live in `queues` and
    /// `latency`, and [`EventCore::view`] reads them from there.
    ready: Vec<ChannelId>,
    ready_pos: Vec<usize>,
    scheduler: Box<dyn Scheduler>,
    stats: SimStats,
    send_seq: u64,
    started: bool,
    metrics: Option<RunMetrics>,
    outbox: Vec<(usize, M)>,
    faults: FaultPlan,
    fault_stats: FaultStats,
    /// Channel picks made so far, when schedule recording is enabled.
    recorded: Option<Vec<ChannelId>>,
    /// The discrete virtual clock. Advances to the arrival timestamp of each
    /// delivery while a latency plan is installed; stays at 0 (and costs
    /// nothing) in untimed runs.
    clock: VirtualClock,
    /// `None` (the default) is the untimed fast path, byte-identical to the
    /// pre-clock engine; `Some` carries the seeded per-channel latency
    /// streams and queued-message arrival timestamps.
    latency: Option<LatencyState>,
    /// Recycled list of the in-flight runs a scheduler re-index replays.
    run_buf: Vec<SendRun>,
}

impl<M: Message, T: Topology> EventCore<M, T> {
    /// Creates an idle core over `topology` with the default
    /// [`QueueBackend::Vec`] store.
    #[must_use]
    pub fn new(topology: T, scheduler: Box<dyn Scheduler>) -> EventCore<M, T> {
        let store = QueueStore::vec(topology.channel_count());
        EventCore::with_store(topology, scheduler, store)
    }

    /// Creates an idle core using the given queue backend.
    ///
    /// [`QueueBackend::Counter`] requires a [`UnitMessage`] payload — the
    /// type system enforces that the compact store is only used where it is
    /// lossless.
    #[must_use]
    pub fn with_backend(
        topology: T,
        scheduler: Box<dyn Scheduler>,
        backend: QueueBackend,
    ) -> EventCore<M, T>
    where
        M: UnitMessage,
    {
        let store = match backend {
            QueueBackend::Vec => QueueStore::vec(topology.channel_count()),
            QueueBackend::Counter => QueueStore::counter(topology.channel_count()),
        };
        EventCore::with_store(topology, scheduler, store)
    }

    fn with_store(topology: T, scheduler: Box<dyn Scheduler>, store: QueueStore<M>) -> Self {
        let n = topology.len();
        let channels = topology.channel_count();
        let stats = SimStats::for_topology(&topology);
        EventCore {
            topology,
            terminated: vec![false; n],
            queues: store,
            ready: Vec::new(),
            ready_pos: vec![NOT_READY; channels],
            scheduler,
            stats,
            send_seq: 0,
            started: false,
            metrics: None,
            outbox: Vec::new(),
            faults: FaultPlan::new(),
            fault_stats: FaultStats::default(),
            recorded: None,
            clock: VirtualClock::new(),
            latency: None,
            run_buf: Vec::new(),
        }
    }

    /// The topology driving this core.
    #[must_use]
    pub fn topology(&self) -> &T {
        &self.topology
    }

    /// The queue storage backend in use.
    #[must_use]
    pub fn queue_backend(&self) -> QueueBackend {
        self.queues.backend()
    }

    /// Bytes of queued messages currently held by the [`QueueStore`].
    #[must_use]
    pub fn queue_bytes(&self) -> usize {
        self.queues.queue_bytes()
    }

    /// High-water mark of [`EventCore::queue_bytes`] over the run so far.
    #[must_use]
    pub fn peak_queue_bytes(&self) -> usize {
        self.queues.peak_queue_bytes()
    }

    /// Installs a plan of model-violating channel faults (experiment E11).
    ///
    /// The paper's model forbids drops and injections; use this to observe
    /// what that assumption buys. Must be called before the run starts.
    pub fn set_faults(&mut self, faults: FaultPlan) {
        self.faults = faults;
    }

    /// Counters of faults actually applied so far.
    #[must_use]
    pub fn fault_stats(&self) -> FaultStats {
        self.fault_stats
    }

    /// Installs a seeded per-channel latency plan, switching the virtual
    /// clock on. Must be called before the run starts.
    ///
    /// An all-zero plan (the default) keeps the engine on its untimed fast
    /// path: no latency state is allocated, every arrival timestamp stays 0,
    /// and the run is byte-identical to one on a core that never heard of
    /// clocks.
    ///
    /// # Panics
    ///
    /// Panics if the run has already started — arrival timestamps are
    /// assigned at send time and cannot be retrofitted.
    pub fn set_latency(&mut self, plan: LatencyPlan) {
        assert!(
            !self.started,
            "latency plan must be installed before the run starts"
        );
        self.latency = if plan.is_zero() {
            None
        } else {
            Some(LatencyState::new(plan, self.topology.channel_count()))
        };
    }

    /// The current virtual time. Stays 0 throughout untimed runs.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.clock.now()
    }

    /// Enables the O(1) run-summary metrics ([`RunMetrics`]).
    pub fn enable_metrics(&mut self) {
        self.metrics = Some(RunMetrics::default());
    }

    /// The run metrics so far, if enabled.
    #[must_use]
    pub fn metrics(&self) -> Option<RunMetrics> {
        self.metrics
    }

    /// Replaces the delivery adversary for subsequent steps.
    ///
    /// Used by replay (install a [`crate::sched::ReplayScheduler`] on a
    /// fresh core) and by exploration (drive the core channel-by-channel
    /// while keeping a trivial scheduler installed). The incoming
    /// scheduler's incremental index is seeded from the current ready set
    /// and in-flight messages, so a mid-run swap keeps its picks exact.
    pub fn set_scheduler(&mut self, scheduler: Box<dyn Scheduler>) {
        self.scheduler = scheduler;
        self.reindex_scheduler();
    }

    /// Seeds the scheduler's index from the in-flight state: the ready
    /// views through [`Scheduler::rebuild_index`], then every queued
    /// message, in send order, through [`Scheduler::on_send`] with its
    /// channel's current view.
    fn reindex_scheduler(&mut self) {
        let views: Vec<ChannelView> = self.ready.iter().map(|id| self.view(id.index())).collect();
        self.scheduler.rebuild_index(&views);
        let mut runs = std::mem::take(&mut self.run_buf);
        runs.clear();
        for id in &self.ready {
            self.queues.channel_runs(id.index(), &mut runs);
        }
        // A run is consecutive seqs of one channel, so runs never overlap
        // and sorting them by start sorts every message by seq.
        runs.sort_unstable_by_key(|run| run.start);
        for run in &runs {
            let view = views[self.ready_pos[run.channel]];
            for k in 0..run.len {
                let arrival = self
                    .latency
                    .as_ref()
                    .map_or(0, |lat| lat.arrivals[run.channel][run.at + k as usize]);
                self.scheduler.on_send(run.start + k, arrival, view);
            }
        }
        self.run_buf = runs;
    }

    /// Starts recording the sequence of channel picks as a [`Schedule`].
    pub fn enable_schedule_recording(&mut self) {
        if self.recorded.is_none() {
            self.recorded = Some(Vec::new());
        }
    }

    /// The schedule recorded so far, if recording was enabled.
    #[must_use]
    pub fn recorded_schedule(&self) -> Option<Schedule> {
        self.recorded
            .as_ref()
            .map(|picks| Schedule::from_picks(picks.clone()))
    }

    /// Copies the core's run state into a [`CoreSnapshot`].
    #[must_use]
    pub fn snapshot(&self) -> CoreSnapshot<M> {
        // Exhaustive, so that a new field must be sorted into run state or
        // configuration before this compiles.
        let EventCore {
            topology: _,
            terminated,
            queues,
            ready,
            ready_pos,
            scheduler,
            stats,
            send_seq,
            started,
            metrics: _,
            outbox: _,
            faults: _,
            fault_stats,
            recorded,
            clock,
            latency,
            run_buf: _,
        } = self;
        CoreSnapshot {
            terminated: terminated.clone(),
            queues: queues.clone(),
            ready: ready.clone(),
            ready_pos: ready_pos.clone(),
            scheduler: scheduler.clone(),
            stats: stats.clone(),
            send_seq: *send_seq,
            started: *started,
            fault_stats: *fault_stats,
            clock: *clock,
            latency: latency.clone(),
            recorded_len: recorded.as_ref().map_or(0, Vec::len),
        }
    }

    /// Restores a state previously captured by [`EventCore::snapshot`],
    /// scheduler included.
    ///
    /// The snapshot must come from a core over the same topology (same
    /// channel count), the same [`QueueBackend`] and the same latency mode.
    pub fn restore(&mut self, snapshot: &CoreSnapshot<M>) {
        assert_eq!(
            snapshot.queues.channel_count(),
            self.queues.channel_count(),
            "snapshot is for a different topology"
        );
        assert_eq!(
            snapshot.queues.backend(),
            self.queues.backend(),
            "snapshot is for a different queue backend"
        );
        assert_eq!(
            snapshot.latency.is_some(),
            self.latency.is_some(),
            "snapshot is for a different latency mode"
        );
        // Every field is read here, so one that `snapshot` fills and this
        // forgets is dead code.
        self.terminated.clone_from(&snapshot.terminated);
        self.queues.clone_from(&snapshot.queues);
        self.ready.clone_from(&snapshot.ready);
        self.ready_pos.clone_from(&snapshot.ready_pos);
        self.scheduler.clone_from(&snapshot.scheduler);
        self.stats.clone_from(&snapshot.stats);
        self.send_seq = snapshot.send_seq;
        self.started = snapshot.started;
        self.fault_stats = snapshot.fault_stats;
        self.clock = snapshot.clock;
        self.latency.clone_from(&snapshot.latency);
        if let Some(rec) = &mut self.recorded {
            rec.truncate(snapshot.recorded_len);
        }
    }

    /// The view of ready `channel` that a scheduler hook receives: its
    /// length and head from the store, its direction from the topology and
    /// its head's arrival from the latency state (0 in untimed runs).
    ///
    /// Always inlined: left to the compiler it stayed an out-of-line call
    /// in the benchmark's build, and a FIFO election of n = 1000 took 69 ms
    /// instead of 65.
    #[inline(always)]
    fn view(&self, channel: usize) -> ChannelView {
        ChannelView {
            id: ChannelId::from_index(channel),
            queue_len: self.queues.len(channel),
            head_seq: self
                .queues
                .head_seq(channel)
                .expect("a viewed channel is ready"),
            direction: self.topology.direction(channel),
            arrival: self
                .latency
                .as_ref()
                .map_or(0, |lat| lat.arrivals[channel][0]),
        }
    }

    /// Injects a spurious message into a channel, as forbidden channel
    /// noise would (experiment E11). Counted in [`EventCore::fault_stats`]
    /// but *not* in `total_sent` — no node sent it.
    pub fn inject(&mut self, channel: usize, msg: M) {
        let seq = self.send_seq;
        self.send_seq += 1;
        self.fault_stats.injected += 1;
        self.enqueue::<true>(channel, msg, seq);
    }

    /// Files a sent message: stamps its arrival, queues it, marks its
    /// channel ready and reports it to the scheduler.
    ///
    /// `enqueue`, [`EventCore::flush_outbox`], [`EventCore::deliver`] and
    /// the step they serve take `OBSERVED`: `true` keeps the profiler
    /// brackets and the metrics and recording checks, `false` compiles
    /// them out for a [`EventCore::run`] that nothing observes.
    fn enqueue<const OBSERVED: bool>(&mut self, channel: usize, msg: M, seq: u64) {
        let t = bracket::<OBSERVED>();
        // Stamp the message's virtual arrival: a latency sample from the
        // channel's stream, clamped to the previous arrival so per-channel
        // FIFO holds in virtual time too. Untimed runs skip all of this and
        // every arrival stays 0.
        let arrival = match &mut self.latency {
            None => 0,
            Some(lat) => {
                let delay = lat.plan.model_for(channel).sample(&mut lat.rngs[channel]);
                let at = self
                    .clock
                    .now()
                    .saturating_add(delay)
                    .max(lat.last_arrival[channel]);
                lat.last_arrival[channel] = at;
                lat.arrivals[channel].push_back(at);
                at
            }
        };
        self.queues.push(channel, msg, seq);
        if self.ready_pos[channel] == NOT_READY {
            self.ready_pos[channel] = self.ready.len();
            self.ready.push(ChannelId::from_index(channel));
        }
        let view = self.view(channel);
        prof::stop(prof::Phase::Enqueue, t);
        if let Some(m) = self.metrics.as_mut().filter(|_| OBSERVED) {
            let t = prof::start();
            m.max_in_flight = m.max_in_flight.max(self.queues.total_len() as u64);
            m.peak_queue_bytes = m
                .peak_queue_bytes
                .max(self.queues.peak_queue_bytes() as u64);
            prof::stop(prof::Phase::Observe, t);
        }
        let t = bracket::<OBSERVED>();
        self.scheduler.on_send(seq, arrival, view);
        prof::stop(prof::Phase::Index, t);
    }

    fn flush_outbox<const OBSERVED: bool>(&mut self, node: usize, outbox: &mut Vec<(usize, M)>) {
        for (port, msg) in outbox.drain(..) {
            let channel = self.topology.out_channel(node, port);
            let seq = self.send_seq;
            self.send_seq += 1;
            self.stats.total_sent += 1;
            self.stats.sent_by_port[channel] += 1;
            let direction = self.topology.direction(channel);
            if let Some(d) = direction {
                self.stats.sent_by_direction[d.index()] += 1;
            }
            if self.faults.should_drop(seq) {
                self.fault_stats.dropped += 1;
                continue;
            }
            if self.faults.should_duplicate(seq) {
                self.fault_stats.duplicated += 1;
                let dup_seq = self.send_seq;
                self.send_seq += 1;
                self.enqueue::<OBSERVED>(channel, msg.clone(), seq);
                self.enqueue::<OBSERVED>(channel, msg, dup_seq);
            } else {
                self.enqueue::<OBSERVED>(channel, msg, seq);
            }
        }
    }

    fn note_termination<H: EventHandler<M>>(&mut self, node: usize, handler: &H) {
        if !self.terminated[node] && handler.is_terminated(node) {
            self.terminated[node] = true;
        }
    }

    /// Runs every node's start-up action (in node order). Idempotent.
    pub fn start<H: EventHandler<M>>(&mut self, handler: &mut H) {
        if self.started {
            return;
        }
        self.started = true;
        for node in 0..self.topology.len() {
            let mut outbox = std::mem::take(&mut self.outbox);
            handler.on_start(node, self.topology.degree(node), &mut outbox);
            self.flush_outbox::<true>(node, &mut outbox);
            self.outbox = outbox;
            self.note_termination(node, handler);
        }
    }

    /// Delivers one message chosen by the scheduler, validating the
    /// scheduler's answer before acting on it.
    ///
    /// Starts the run if [`EventCore::start`] has not run yet. Returns
    /// `Ok(None)` when the network is quiescent (no messages in transit)
    /// and `Err` — with the engine state untouched — if the scheduler
    /// picks a channel that is not ready.
    pub fn try_step<H: EventHandler<M>>(
        &mut self,
        handler: &mut H,
    ) -> Result<Option<EngineStep>, EngineError> {
        self.try_step_as::<true, H>(handler)
    }

    /// [`EventCore::try_step`], observed or quiet (see
    /// [`EventCore::enqueue`]). Always inlined, so that the quiet run loop
    /// and `try_step` each hold their own copy of the step.
    #[inline(always)]
    fn try_step_as<const OBSERVED: bool, H: EventHandler<M>>(
        &mut self,
        handler: &mut H,
    ) -> Result<Option<EngineStep>, EngineError> {
        self.start(handler);
        if self.ready.is_empty() {
            return Ok(None);
        }
        let t = bracket::<OBSERVED>();
        let channel = self.scheduler.pick(&self.ready).index();
        prof::stop(prof::Phase::Pick, t);
        if self
            .ready_pos
            .get(channel)
            .is_none_or(|&pos| pos == NOT_READY)
        {
            return Err(EngineError::SchedulerIdleChannel { channel });
        }
        Ok(Some(self.deliver::<OBSERVED, H>(handler, channel)))
    }

    /// Delivers one message chosen by the scheduler.
    ///
    /// Starts the run if [`EventCore::start`] has not run yet. Returns
    /// `None` when the network is quiescent (no messages in transit).
    ///
    /// # Panics
    ///
    /// Panics if the scheduler picks a channel that is not ready (before
    /// any engine state is mutated — see [`EventCore::try_step`] for the
    /// non-panicking form).
    pub fn step<H: EventHandler<M>>(&mut self, handler: &mut H) -> Option<EngineStep> {
        match self.try_step(handler) {
            Ok(step) => step,
            Err(e) => panic!("{e}"),
        }
    }

    /// Delivers the head message of a *specific* non-empty channel,
    /// bypassing the scheduler.
    ///
    /// This is the branching primitive of exhaustive exploration: after
    /// restoring a snapshot, each ready channel (see
    /// [`EventCore::ready_channels`]) is one successor configuration.
    /// Starts the run if needed; returns `None` if the channel is empty.
    pub fn step_channel<H: EventHandler<M>>(
        &mut self,
        handler: &mut H,
        channel: usize,
    ) -> Option<EngineStep> {
        self.start(handler);
        if self.queues.len(channel) == 0 {
            return None;
        }
        Some(self.deliver::<true, H>(handler, channel))
    }

    /// Indices of channels with at least one queued message, sorted.
    #[must_use]
    pub fn ready_channels(&self) -> Vec<usize> {
        let mut channels: Vec<usize> = self.ready.iter().map(|id| id.index()).collect();
        channels.sort_unstable();
        channels
    }

    /// Number of messages queued on `channel`.
    #[must_use]
    pub fn queue_len(&self, channel: usize) -> usize {
        self.queues.len(channel)
    }

    /// Whether the start-up actions have run.
    #[must_use]
    pub fn is_started(&self) -> bool {
        self.started
    }

    /// The next global send sequence number (total sends attempted so far,
    /// including dropped and duplicated ones).
    ///
    /// This is the counter [`FaultPlan`] triggers on; the explorer needs it
    /// to keep fingerprints sound while a fault plan is still active.
    #[must_use]
    pub fn send_seq(&self) -> u64 {
        self.send_seq
    }

    fn deliver<const OBSERVED: bool, H: EventHandler<M>>(
        &mut self,
        handler: &mut H,
        channel: usize,
    ) -> EngineStep {
        if let Some(rec) = self.recorded.as_mut().filter(|_| OBSERVED) {
            rec.push(ChannelId::from_index(channel));
        }
        let t = bracket::<OBSERVED>();
        let direction = self.topology.direction(channel);
        let (msg, seq) = self
            .queues
            .pop(channel)
            .expect("delivered channel is non-empty");
        // Consume the message's arrival timestamp and advance the virtual
        // clock to it (a no-op throughout untimed runs: the clock stays 0).
        if let Some(lat) = &mut self.latency {
            let arrival = lat.arrivals[channel]
                .pop_front()
                .expect("every queued message has an arrival timestamp");
            self.clock.advance_to(arrival);
        }
        let at = self.clock.now();
        let pos = self.ready_pos[channel];
        debug_assert_ne!(pos, NOT_READY, "delivered channel is in the ready array");
        // The channel's new head for `on_change`, or `None` once it drained.
        let head = if self.queues.len(channel) > 0 {
            Some(self.view(channel))
        } else {
            self.ready.swap_remove(pos);
            self.ready_pos[channel] = NOT_READY;
            if let Some(moved) = self.ready.get(pos) {
                self.ready_pos[moved.index()] = pos;
            }
            None
        };
        let (node, port) = self.topology.endpoint(channel);
        self.stats.steps += 1;
        let ignored = self.terminated[node];
        if ignored {
            self.stats.delivered_to_terminated += 1;
        } else {
            self.stats.total_delivered += 1;
            self.stats.recv_by_port[self.topology.out_channel(node, port)] += 1;
        }
        prof::stop(prof::Phase::Dequeue, t);
        let t = bracket::<OBSERVED>();
        match head {
            Some(view) => self.scheduler.on_change(view),
            None => self.scheduler.on_unready(ChannelId::from_index(channel)),
        }
        prof::stop(prof::Phase::Index, t);

        if !ignored {
            let t = bracket::<OBSERVED>();
            let mut outbox = std::mem::take(&mut self.outbox);
            handler.on_message(node, self.topology.degree(node), port, msg, &mut outbox);
            prof::stop(prof::Phase::Deliver, t);
            self.flush_outbox::<OBSERVED>(node, &mut outbox);
            self.outbox = outbox;
            self.note_termination(node, handler);
        }

        EngineStep {
            channel,
            node,
            port,
            seq,
            direction,
            ignored,
            at,
        }
    }

    /// Runs until quiescence or budget exhaustion.
    ///
    /// Whether anything observes the run — the profiler, metrics or
    /// schedule recording — is read once, here: a run that nothing
    /// observes delivers through a quiet instantiation of the step, with
    /// the profiler brackets and the observer checks compiled out.
    ///
    /// # Panics
    ///
    /// As [`EventCore::step`]: if the scheduler picks a channel that is not
    /// ready.
    pub fn run<H: EventHandler<M>>(&mut self, handler: &mut H, budget: Budget) -> RunReport {
        self.start(handler);
        if prof::enabled() || self.metrics.is_some() || self.recorded.is_some() {
            self.run_as::<true, H>(handler, budget);
        } else {
            self.run_as::<false, H>(handler, budget);
        }
        self.report()
    }

    fn run_as<const OBSERVED: bool, H: EventHandler<M>>(
        &mut self,
        handler: &mut H,
        budget: Budget,
    ) {
        let mut executed: u64 = 0;
        while executed < budget.max_steps {
            match self.try_step_as::<OBSERVED, H>(handler) {
                Ok(Some(_)) => executed += 1,
                Ok(None) => break,
                Err(e) => panic!("{e}"),
            }
        }
    }

    /// Classifies the current state into a [`RunReport`] — the paper's
    /// quiescence/termination taxonomy.
    #[must_use]
    pub fn report(&self) -> RunReport {
        let in_flight = self.in_flight();
        let outcome = if in_flight > 0 {
            Outcome::BudgetExhausted
        } else if self.terminated.iter().all(|&t| t) {
            if self.stats.delivered_to_terminated == 0 {
                Outcome::QuiescentTerminated
            } else {
                Outcome::TerminatedNonQuiescent
            }
        } else {
            Outcome::Quiescent
        };
        RunReport {
            outcome,
            total_sent: self.stats.total_sent,
            steps: self.stats.steps,
            in_flight,
        }
    }

    /// Number of messages currently in transit.
    #[must_use]
    pub fn in_flight(&self) -> u64 {
        self.queues.total_len() as u64
    }

    /// Number of in-transit messages on channels tagged `direction`.
    #[must_use]
    pub fn in_flight_direction(&self, direction: Direction) -> u64 {
        (0..self.queues.channel_count())
            .filter(|&ch| self.topology.direction(ch) == Some(direction))
            .map(|ch| self.queues.len(ch) as u64)
            .sum()
    }

    /// Whether no messages are in transit.
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        self.queues.is_empty()
    }

    /// Whether the given node has terminated.
    #[must_use]
    pub fn is_terminated(&self, node: usize) -> bool {
        self.terminated[node]
    }

    /// Aggregate counters.
    #[must_use]
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }
}

impl<M: Message, T: Topology + fmt::Debug> fmt::Debug for EventCore<M, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventCore")
            .field("topology", &self.topology)
            .field("backend", &self.queues.backend())
            .field("in_flight", &self.in_flight())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_backend_parses_and_displays() {
        for backend in QueueBackend::ALL {
            assert_eq!(QueueBackend::parse(&backend.to_string()), Some(backend));
        }
        assert_eq!(QueueBackend::parse("VEC"), Some(QueueBackend::Vec));
        assert_eq!(QueueBackend::parse("ring-buffer"), None);
        assert_eq!(QueueBackend::default(), QueueBackend::Vec);
    }

    #[test]
    fn engine_error_displays_the_offense() {
        let text = EngineError::SchedulerIdleChannel { channel: 9 }.to_string();
        assert!(text.contains('9') && text.contains("not ready"), "{text}");
    }

    #[test]
    fn pulse_runs_merge_consecutive_seqs() {
        let mut runs = PulseRuns::default();
        // A burst of consecutive seqs collapses into one run.
        assert!(runs.push(10)); // new run
        assert!(!runs.push(11));
        assert!(!runs.push(12));
        // A gap spills into a second run.
        assert!(runs.push(20));
        assert_eq!(runs.len, 4);
        assert_eq!(runs.runs.len(), 2);
        assert_eq!(runs.head_seq(), Some(10));
        // FIFO pop order with exact seqs preserved.
        assert_eq!(runs.pop(), Some((10, false)));
        assert_eq!(runs.pop(), Some((11, false)));
        assert_eq!(runs.pop(), Some((12, true)));
        assert_eq!(runs.head_seq(), Some(20));
        assert_eq!(runs.pop(), Some((20, true)));
        assert_eq!(runs.pop(), None);
    }

    #[test]
    fn counter_store_is_fifo_with_byte_accounting() {
        use crate::message::Pulse;
        let mut store: QueueStore<Pulse> = QueueStore::counter(2);
        assert_eq!(store.backend(), QueueBackend::Counter);
        // Interleave two channels: ch0 gets seqs 0,1,3 (gap), ch1 gets 2.
        store.push(0, Pulse, 0);
        store.push(0, Pulse, 1);
        store.push(1, Pulse, 2);
        store.push(0, Pulse, 3);
        assert_eq!(store.len(0), 3);
        assert_eq!(store.len(1), 1);
        assert_eq!(store.total_len(), 4);
        // ch0 holds runs [(0,2),(3,1)], ch1 holds [(2,1)]: three runs.
        assert_eq!(store.queue_bytes(), 3 * RUN_BYTES);
        assert_eq!(store.head_seq(0), Some(0));
        assert_eq!(store.pop(0), Some((Pulse, 0)));
        assert_eq!(store.pop(0), Some((Pulse, 1)));
        assert_eq!(store.pop(0), Some((Pulse, 3)));
        assert_eq!(store.pop(0), None);
        assert_eq!(store.queue_bytes(), RUN_BYTES);
        assert_eq!(store.peak_queue_bytes(), 3 * RUN_BYTES);
        assert_eq!(store.pop(1), Some((Pulse, 2)));
        assert!(store.is_empty());
    }

    #[test]
    fn vec_store_counts_envelope_bytes() {
        let mut store: QueueStore<u64> = QueueStore::vec(1);
        assert_eq!(store.backend(), QueueBackend::Vec);
        store.push(0, 99, 0);
        store.push(0, 100, 1);
        let per_msg = std::mem::size_of::<Envelope<u64>>();
        assert_eq!(store.queue_bytes(), 2 * per_msg);
        assert_eq!(store.pop(0), Some((99, 0)));
        assert_eq!(store.queue_bytes(), per_msg);
        assert_eq!(store.peak_queue_bytes(), 2 * per_msg);
    }
}
