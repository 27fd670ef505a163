//! Adversarial delivery schedulers.
//!
//! In the paper's asynchronous model, channel delays are chosen by an
//! adversary: unbounded but always finite, with per-channel FIFO order.
//! A [`Scheduler`] is that adversary — at every simulation step it picks
//! which non-empty channel delivers its *head* message next (FIFO within a
//! channel is enforced by the simulator itself).
//!
//! Correctness claims in the paper quantify over *all* schedules; the test
//! suites approximate this by running every algorithm under the whole
//! [`SchedulerKind`] family plus many random seeds.

use crate::clock::VirtualClock;
use crate::port::Direction;
use crate::topology::ChannelId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fmt;

/// A read-only view of one non-empty channel, as the engine's hooks report
/// it to the scheduler ([`Scheduler::on_send`], [`Scheduler::on_change`]).
///
/// The engine builds it when the hook fires, from its queue store, its
/// topology and its latency state; it is a copy, not a handle, so an index
/// that needs a field keeps its own.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ChannelView {
    /// Which channel.
    pub id: ChannelId,
    /// How many messages are queued on it.
    pub queue_len: usize,
    /// Global send sequence number of the head (oldest) message.
    pub head_seq: u64,
    /// Direction tag of the channel, if the topology is a ring.
    pub direction: Option<Direction>,
    /// Virtual arrival time of the head message. Always 0 while the engine
    /// runs without a latency plan (the untimed default), so untimed
    /// schedulers can ignore it.
    pub arrival: u64,
}

/// An incrementally maintained ordered index over the ready set.
///
/// Maps each ready channel to an `Ord` key and keeps the `(key, channel)`
/// pairs in a [`BTreeSet`], so the minimum / maximum / successor ready
/// channel under a scheduler's order is an O(log C) query instead of an
/// O(ready) scan per pick. A parallel `key_of` table remembers each
/// channel's current key, so re-keying and removal need only the channel
/// index — which is all the engine's incremental hooks provide.
///
/// Backs the adversaries whose order is not send order: Lifo, RoundRobin,
/// StarveDirection, LongestQueue and Replay (Fifo, Solitude and Latency
/// pop a send-order queue instead). Every key but RoundRobin's
/// includes `head_seq` (globally unique across channels), so the trailing
/// channel index only makes set elements unique.
#[derive(Clone, Debug)]
pub struct ReadyIndex<K: Ord + Copy> {
    set: BTreeSet<(K, usize)>,
    key_of: Vec<Option<K>>,
}

impl<K: Ord + Copy> Default for ReadyIndex<K> {
    fn default() -> Self {
        ReadyIndex::new()
    }
}

impl<K: Ord + Copy> ReadyIndex<K> {
    /// An empty index.
    #[must_use]
    pub fn new() -> ReadyIndex<K> {
        ReadyIndex {
            set: BTreeSet::new(),
            key_of: Vec::new(),
        }
    }

    /// Inserts `channel` under `key`, replacing any previous key (upsert).
    pub fn insert(&mut self, channel: usize, key: K) {
        if self.key_of.len() <= channel {
            self.key_of.resize(channel + 1, None);
        }
        match self.key_of[channel].replace(key) {
            Some(old) if old == key => {} // already indexed under this key
            Some(old) => {
                self.set.remove(&(old, channel));
                self.set.insert((key, channel));
            }
            None => {
                self.set.insert((key, channel));
            }
        }
    }

    /// Removes `channel` if present.
    pub fn remove(&mut self, channel: usize) {
        if let Some(old) = self.key_of.get_mut(channel).and_then(Option::take) {
            self.set.remove(&(old, channel));
        }
    }

    /// Whether `channel` is currently indexed.
    #[must_use]
    pub fn contains(&self, channel: usize) -> bool {
        self.key_of.get(channel).is_some_and(Option::is_some)
    }

    /// Drops every entry (the channel-capacity table is kept allocated).
    pub fn clear(&mut self) {
        self.set.clear();
        self.key_of.fill(None);
    }

    /// Number of indexed channels.
    #[must_use]
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// Whether no channel is indexed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// The channel with the smallest `(key, channel)` pair.
    #[must_use]
    pub fn first(&self) -> Option<usize> {
        self.set.first().map(|&(_, ch)| ch)
    }

    /// The channel with the largest `(key, channel)` pair.
    #[must_use]
    pub fn last(&self) -> Option<usize> {
        self.set.last().map(|&(_, ch)| ch)
    }

    /// The smallest entry at or after `(key, channel)` — the successor
    /// query behind round-robin cursors.
    #[must_use]
    pub fn first_at_or_after(&self, key: K, channel: usize) -> Option<usize> {
        self.set.range((key, channel)..).next().map(|&(_, ch)| ch)
    }
}

/// One run of consecutive sends on one channel: the messages with send
/// sequence numbers `start..start + len`.
#[derive(Copy, Clone, Debug)]
struct Run {
    start: u64,
    len: u64,
    channel: usize,
}

/// The head seq of a channel with nothing queued.
const IDLE: u64 = u64::MAX;

/// Whether part of `run` is still in flight on a channel whose head message
/// is `head`: a channel delivers in send order, so every seq below its head
/// is delivered (an idle channel's `head` is [`IDLE`], above every seq).
fn in_flight(run: &Run, head: u64) -> bool {
    head < run.start + run.len
}

/// Every in-flight message in send order: the queue behind
/// [`FifoScheduler`], [`SolitudeScheduler`] and [`LatencyScheduler`].
///
/// Messages are held as run-length entries, like the counter backend's
/// queues, in one deque per virtual arrival tick (every message of an
/// untimed order is filed under tick 0). Send seqs are handed out in
/// increasing order and a channel's arrivals never decrease, so a
/// channel's head is its least `(arrival, seq)` message, and the least
/// `(arrival, seq)` in flight — the front of the earliest tick — is always
/// some channel's head. A pick therefore reads one front entry instead of
/// ordering the heads.
///
/// Deliveries are not removed eagerly: `head` tracks each channel's head
/// seq from the `on_change`/`on_unready` hooks, and a pick drops front
/// entries whose seqs all lie below their channel's head. That also
/// covers deliveries the scheduler did not pick (`step_channel`, or the
/// idle half of a [`PhaseSwitchScheduler`]); their entries are dropped
/// wholesale once stale entries could outnumber in-flight messages, so the
/// queue stays within twice the in-flight count.
#[derive(Clone, Debug, Default)]
struct SendOrder {
    /// The earliest tick filed, kept out of `later` so that an untimed
    /// order never touches the map.
    front_tick: u64,
    /// Entries filed under `front_tick`, in send order.
    front: VecDeque<Run>,
    /// Later ticks → entries filed under them, in send order.
    later: BTreeMap<u64, VecDeque<Run>>,
    /// Emptied deques, kept for the next tick.
    spare: Vec<VecDeque<Run>>,
    /// Head seq per channel ([`IDLE`] while nothing is queued).
    head: Vec<u64>,
    /// Messages in flight.
    live: usize,
    /// Entries held, stale ones included.
    entries: usize,
}

impl SendOrder {
    fn grow(&mut self, channel: usize) {
        if self.head.len() <= channel {
            self.head.resize(channel + 1, IDLE);
        }
    }

    /// Files message `seq` on `channel` under `tick`.
    fn push(&mut self, channel: usize, seq: u64, tick: u64) {
        self.grow(channel);
        self.live += 1;
        if tick < self.front_tick && !self.front.is_empty() {
            let earlier = self.spare.pop().unwrap_or_default();
            let front = std::mem::replace(&mut self.front, earlier);
            self.later.insert(self.front_tick, front);
        }
        let runs = if tick <= self.front_tick || self.front.is_empty() && self.later.is_empty() {
            self.front_tick = tick;
            &mut self.front
        } else {
            let spare = &mut self.spare;
            self.later
                .entry(tick)
                .or_insert_with(|| spare.pop().unwrap_or_default())
        };
        match runs.back_mut() {
            Some(run) if run.channel == channel && run.start + run.len == seq => run.len += 1,
            _ => {
                runs.push_back(Run {
                    start: seq,
                    len: 1,
                    channel,
                });
                self.entries += 1;
            }
        }
    }

    /// `channel`'s head is now `seq`: newly queued, or advanced by one
    /// delivery.
    fn set_head(&mut self, channel: usize, seq: u64) {
        self.grow(channel);
        let old = std::mem::replace(&mut self.head[channel], seq);
        if old != IDLE && old != seq {
            self.live = self.live.saturating_sub(1);
        }
        self.settle();
    }

    /// `channel` drained: its last message was delivered.
    fn unready(&mut self, channel: usize) {
        self.grow(channel);
        self.head[channel] = IDLE;
        self.live = self.live.saturating_sub(1);
        self.settle();
    }

    /// Compacts once stale entries could outnumber in-flight messages.
    fn settle(&mut self) {
        if self.entries > 2 * self.live {
            self.compact();
        }
    }

    fn clear(&mut self) {
        self.front.clear();
        let spare = &mut self.spare;
        spare.extend(
            std::mem::take(&mut self.later)
                .into_values()
                .map(|mut runs| {
                    runs.clear();
                    runs
                }),
        );
        self.front_tick = 0;
        self.head.fill(IDLE);
        self.live = 0;
        self.entries = 0;
    }

    /// Drops every entry whose seqs were all delivered.
    fn compact(&mut self) {
        let head = &self.head;
        self.front.retain(|run| in_flight(run, head[run.channel]));
        let mut entries = self.front.len();
        self.later.retain(|_, runs| {
            runs.retain(|run| in_flight(run, head[run.channel]));
            entries += runs.len();
            !runs.is_empty()
        });
        self.entries = entries;
    }

    /// The channel of the least `(tick, seq)` message in flight.
    fn front(&mut self) -> ChannelId {
        loop {
            while let Some(run) = self.front.front() {
                if in_flight(run, self.head[run.channel]) {
                    return ChannelId::from_index(run.channel);
                }
                self.front.pop_front();
                self.entries -= 1;
            }
            let (tick, runs) = self.later.pop_first().expect(
                "pick on an empty send order: report every in-flight message through on_send",
            );
            self.front_tick = tick;
            self.spare.push(std::mem::replace(&mut self.front, runs));
        }
    }
}

/// The asynchrony adversary: picks which ready channel delivers next.
///
/// [`Scheduler::pick`] names one channel of `ready` (always non-empty): the
/// ids of the channels with messages queued. The *order* of `ready` is
/// unspecified: the engine maintains it as a dense array updated in place
/// (swap-remove on empty), so positions are an artifact of run history.
/// Deterministic adversaries therefore pick by channel *identity* and by
/// what the [`Scheduler::on_send`] / [`Scheduler::on_change`] /
/// [`Scheduler::on_unready`] hooks report of each channel in its
/// [`ChannelView`] — `head_seq` (globally unique across channels),
/// `queue_len`, `direction`, `arrival`. The built-in ones answer from an
/// index those hooks keep current, ignoring `ready`: a send-order queue for
/// Fifo, Solitude and Latency, a [`ReadyIndex`] for the rest.
/// Position-based adversaries ([`RandomScheduler`],
/// [`BoundedDelayScheduler`]) read the ids in `ready` instead; they remain
/// deterministic per run because the engine's array evolution is itself
/// deterministic, but they are not stable under re-orderings.
///
/// The engine refuses an answer that names a channel which is not ready
/// ([`crate::EngineError::SchedulerIdleChannel`]) before mutating any
/// state. Any valid answer yields *some* valid asynchronous schedule:
/// per-channel FIFO is enforced by the simulator and every message is
/// eventually delivered as long as the run continues (delays are finite
/// because runs are finite).
///
/// Every scheduler is `Clone` (through [`CloneScheduler`]), so an engine
/// snapshot copies its adversary — stream, cursors and index — whole.
pub trait Scheduler: fmt::Debug + CloneScheduler {
    /// Chooses the next channel to deliver from: one of `ready`.
    fn pick(&mut self, ready: &[ChannelId]) -> ChannelId;

    /// A message was queued under global send sequence number `seq`,
    /// arriving at virtual time `arrival` (0 in untimed runs), on the
    /// channel `view` now describes: it just became ready, or its queue
    /// grew.
    ///
    /// Driven by the engine on every enqueue (sends, fault duplicates and
    /// injections), in increasing `seq` order. The default upserts `view`
    /// through [`Scheduler::on_change`], all that an index over ready views
    /// needs; a send-order index also files the message.
    fn on_send(&mut self, seq: u64, arrival: u64, view: ChannelView) {
        let _ = (seq, arrival);
        self.on_change(view);
    }

    /// A ready channel's view was inserted or changed (an upsert): its
    /// head advanced after a delivery left messages queued, or (through
    /// the default [`Scheduler::on_send`]) an enqueue made it ready or
    /// grew its queue.
    ///
    /// Driven by the engine on every such change (fault injections
    /// included), before the next pick, so an index keyed on any view field
    /// stays current. The default — for adversaries that keep no index —
    /// ignores it.
    fn on_change(&mut self, view: ChannelView) {
        let _ = view;
    }

    /// A channel stopped being ready: its queue drained to empty.
    fn on_unready(&mut self, id: ChannelId) {
        let _ = id;
    }

    /// Forgets every index entry, as if nothing were in flight. The default
    /// keeps no index.
    fn clear_index(&mut self) {}

    /// Rebuilds the incremental index from the full ready set: clears it,
    /// then upserts every view (the engine builds them for this call).
    ///
    /// Called by the engine when a scheduler is installed mid-run
    /// ([`crate::EventCore::set_scheduler`]), followed by one
    /// [`Scheduler::on_send`] per in-flight message in send order (each
    /// with its channel's current view), so a new adversary starts from
    /// the queues it inherits.
    fn rebuild_index(&mut self, ready: &[ChannelView]) {
        self.clear_index();
        for &view in ready {
            self.on_change(view);
        }
    }
}

/// Boxed cloning for [`Scheduler`] trait objects: blanket-implemented for
/// every `Clone` scheduler, so `Box<dyn Scheduler>` is `Clone` too.
pub trait CloneScheduler {
    /// A boxed copy of this scheduler.
    fn clone_box(&self) -> Box<dyn Scheduler>;
}

impl<T: Scheduler + Clone + 'static> CloneScheduler for T {
    fn clone_box(&self) -> Box<dyn Scheduler> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn Scheduler> {
    fn clone(&self) -> Box<dyn Scheduler> {
        (**self).clone_box()
    }
}

/// The answer of an index-backed pick.
///
/// The engine keeps every index in step with its non-empty ready set, so
/// an empty index means the hooks were never fed.
fn indexed(channel: Option<usize>) -> ChannelId {
    ChannelId::from_index(
        channel.expect("pick on an empty index: call rebuild_index(ready) before picking"),
    )
}

/// Globally FIFO: always delivers the oldest in-flight message.
///
/// This is the "synchronous-looking" schedule. The oldest message in
/// flight is always some channel's head, so the pick pops the front of the
/// send order the [`Scheduler::on_send`] hook builds (amortized O(1), no
/// per-delivery re-keying).
///
/// ```rust
/// use co_net::sched::{FifoScheduler, Scheduler};
/// use co_net::{ChannelId, ChannelView};
///
/// let view = |ch: usize, head_seq: u64| ChannelView {
///     id: ChannelId::from_index(ch),
///     queue_len: 1,
///     head_seq,
///     direction: None,
///     arrival: 0,
/// };
/// let mut fifo = FifoScheduler::new();
/// // The engine reports each send with the view of the channel it joined.
/// fifo.on_send(2, 0, view(1, 2));
/// fifo.on_send(9, 0, view(0, 9));
/// let ready = [ChannelId::from_index(0), ChannelId::from_index(1)];
/// assert_eq!(fifo.pick(&ready), ChannelId::from_index(1)); // oldest send first
/// ```
#[derive(Clone, Debug, Default)]
pub struct FifoScheduler {
    order: SendOrder,
}

impl FifoScheduler {
    /// Creates a new FIFO scheduler.
    #[must_use]
    pub fn new() -> FifoScheduler {
        FifoScheduler::default()
    }

    /// Entries the send order holds, stale ones included: at most twice
    /// the in-flight count, however the deliveries were chosen.
    #[must_use]
    pub fn queued_runs(&self) -> usize {
        self.order.entries
    }
}

impl Scheduler for FifoScheduler {
    fn pick(&mut self, _ready: &[ChannelId]) -> ChannelId {
        self.order.front()
    }

    fn on_send(&mut self, seq: u64, _arrival: u64, view: ChannelView) {
        self.order.push(view.id.index(), seq, 0);
        self.order.set_head(view.id.index(), view.head_seq);
    }

    fn on_change(&mut self, view: ChannelView) {
        self.order.set_head(view.id.index(), view.head_seq);
    }

    fn on_unready(&mut self, id: ChannelId) {
        self.order.unready(id.index());
    }

    fn clear_index(&mut self) {
        self.order.clear();
    }
}

/// The canonical scheduler of Definition 21 as run here: messages are
/// delivered one by one in the order they were sent.
///
/// Definition 21 breaks ties between messages sent during the same event by
/// delivering clockwise pulses first. Every send takes its own global
/// sequence number, so no two in-flight messages ever tie: sends made in
/// the same dispatch are delivered in outbox order, CW or not, and this
/// scheduler is [`FifoScheduler`]. (On a one-node ring, an Algorithm 3
/// node sends CCW from `Port_0` before CW, and the CCW pulse is delivered
/// first.)
pub type SolitudeScheduler = FifoScheduler;

/// Adversarially anti-FIFO: always delivers the *youngest* head message,
/// maximally delaying old messages (while respecting per-channel FIFO).
#[derive(Clone, Debug, Default)]
pub struct LifoScheduler {
    index: ReadyIndex<u64>,
}

impl LifoScheduler {
    /// Creates a new anti-FIFO scheduler.
    #[must_use]
    pub fn new() -> LifoScheduler {
        LifoScheduler::default()
    }
}

impl Scheduler for LifoScheduler {
    fn pick(&mut self, _ready: &[ChannelId]) -> ChannelId {
        indexed(self.index.last())
    }

    fn on_change(&mut self, view: ChannelView) {
        self.index.insert(view.id.index(), view.head_seq);
    }

    fn on_unready(&mut self, id: ChannelId) {
        self.index.remove(id.index());
    }

    fn clear_index(&mut self) {
        self.index.clear();
    }
}

/// Uniformly random delivery, seeded for reproducibility.
///
/// Picks by array *position* rather than channel identity, so it keeps no
/// [`ReadyIndex`] and reads the ready ids it is shown.
///
/// ```rust
/// use co_net::sched::{RandomScheduler, Scheduler};
/// use co_net::ChannelId;
///
/// let ready = [ChannelId::from_index(0), ChannelId::from_index(1)];
/// let mut a = RandomScheduler::seeded(7);
/// let mut b = RandomScheduler::seeded(7);
/// // Same seed, same schedule — adversaries are reproducible.
/// assert_eq!(a.pick(&ready), b.pick(&ready));
/// ```
#[derive(Clone, Debug)]
pub struct RandomScheduler {
    rng: StdRng,
}

impl RandomScheduler {
    /// Creates a random scheduler from a seed.
    #[must_use]
    pub fn seeded(seed: u64) -> RandomScheduler {
        RandomScheduler {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Scheduler for RandomScheduler {
    fn pick(&mut self, ready: &[ChannelId]) -> ChannelId {
        ready[self.rng.gen_range(0..ready.len())]
    }
}

/// Round-robin over channel indices: fair but staggered delivery.
#[derive(Clone, Debug, Default)]
pub struct RoundRobinScheduler {
    cursor: usize,
    /// Ready channels ordered by index alone — the key carries no
    /// information, so the set is ordered by channel and the cursor's
    /// successor is one range query.
    index: ReadyIndex<()>,
}

impl RoundRobinScheduler {
    /// Creates a new round-robin scheduler.
    #[must_use]
    pub fn new() -> RoundRobinScheduler {
        RoundRobinScheduler::default()
    }
}

impl Scheduler for RoundRobinScheduler {
    fn pick(&mut self, _ready: &[ChannelId]) -> ChannelId {
        // Deliver from the lowest-indexed ready channel at or past the
        // cursor, wrapping to the lowest overall; then advance the cursor
        // past it.
        let next = indexed(
            self.index
                .first_at_or_after((), self.cursor)
                .or_else(|| self.index.first()),
        );
        self.cursor = next.index() + 1;
        next
    }

    /// The key is `()`, so re-keying a channel already indexed is a no-op.
    fn on_change(&mut self, view: ChannelView) {
        self.index.insert(view.id.index(), ());
    }

    fn on_unready(&mut self, id: ChannelId) {
        self.index.remove(id.index());
    }

    fn clear_index(&mut self) {
        self.index.clear();
    }
}

/// Starves one direction: messages travelling `starved` are delivered only
/// when no other channel is ready.
///
/// This is the adversary that maximally desynchronises the paper's two
/// parallel executions of Algorithm 1 (Algorithms 2 and 3): one direction
/// races arbitrarily far ahead of the other.
#[derive(Clone, Debug)]
pub struct StarveDirectionScheduler {
    starved: Direction,
    /// Channels not travelling the starved direction, FIFO by head seq.
    preferred: ReadyIndex<u64>,
    /// Channels travelling the starved direction — drained only when
    /// `preferred` is empty.
    deferred: ReadyIndex<u64>,
}

impl StarveDirectionScheduler {
    /// Creates a scheduler that starves the given direction.
    #[must_use]
    pub fn new(starved: Direction) -> StarveDirectionScheduler {
        StarveDirectionScheduler {
            starved,
            preferred: ReadyIndex::new(),
            deferred: ReadyIndex::new(),
        }
    }

    fn tier(&mut self, direction: Option<Direction>) -> &mut ReadyIndex<u64> {
        if direction == Some(self.starved) {
            &mut self.deferred
        } else {
            &mut self.preferred
        }
    }
}

impl Scheduler for StarveDirectionScheduler {
    fn pick(&mut self, _ready: &[ChannelId]) -> ChannelId {
        indexed(self.preferred.first().or_else(|| self.deferred.first()))
    }

    fn on_change(&mut self, view: ChannelView) {
        // A channel's direction never changes, so an upsert lands in the
        // same tier the channel was registered in.
        self.tier(view.direction)
            .insert(view.id.index(), view.head_seq);
    }

    fn on_unready(&mut self, id: ChannelId) {
        self.preferred.remove(id.index());
        self.deferred.remove(id.index());
    }

    fn clear_index(&mut self) {
        self.preferred.clear();
        self.deferred.clear();
    }
}

/// Drains the longest queue first — a bursty, congestion-like schedule.
#[derive(Clone, Debug, Default)]
pub struct LongestQueueScheduler {
    /// Keyed on `(queue_len, Reverse(head_seq))` so the set's maximum is the
    /// longest queue, oldest head on ties. `on_change` re-keys on every
    /// view change, which covers both queue growth (enqueue) and head
    /// advance (partial drain).
    index: ReadyIndex<(usize, Reverse<u64>)>,
}

impl LongestQueueScheduler {
    /// Creates a new longest-queue-first scheduler.
    #[must_use]
    pub fn new() -> LongestQueueScheduler {
        LongestQueueScheduler::default()
    }
}

impl Scheduler for LongestQueueScheduler {
    fn pick(&mut self, _ready: &[ChannelId]) -> ChannelId {
        indexed(self.index.last())
    }

    fn on_change(&mut self, view: ChannelView) {
        self.index
            .insert(view.id.index(), (view.queue_len, Reverse(view.head_seq)));
    }

    fn on_unready(&mut self, id: ChannelId) {
        self.index.remove(id.index());
    }

    fn clear_index(&mut self) {
        self.index.clear();
    }
}

/// Realistic-time delivery: the earliest-arriving head message goes first.
///
/// This is the scheduler that makes the virtual clock *mean* something:
/// under a latency plan, every queued message carries an arrival timestamp,
/// and `LatencyScheduler` delivers in timestamp order — the schedule a real
/// network with those link latencies would produce. Ties (equal arrivals,
/// ubiquitous under the zero-latency default where every arrival is 0) are
/// broken by `head_seq`, so without a latency plan this degenerates to
/// exactly the [`FifoScheduler`] schedule.
///
/// Like [`FifoScheduler`] it pops a send order, here filed by arrival tick:
/// the least `(arrival, seq)` in flight is always a channel head, because
/// send seqs increase and the engine clamps each channel's arrivals to be
/// non-decreasing. A pick is amortized O(1) plus a lookup among the
/// distinct arrival ticks in flight.
#[derive(Clone, Debug, Default)]
pub struct LatencyScheduler {
    order: SendOrder,
}

impl LatencyScheduler {
    /// Creates a new earliest-arrival scheduler.
    #[must_use]
    pub fn new() -> LatencyScheduler {
        LatencyScheduler::default()
    }

    /// Entries the send order holds, stale ones included: at most twice
    /// the in-flight count, however the deliveries were chosen.
    #[must_use]
    pub fn queued_runs(&self) -> usize {
        self.order.entries
    }
}

impl Scheduler for LatencyScheduler {
    fn pick(&mut self, _ready: &[ChannelId]) -> ChannelId {
        self.order.front()
    }

    fn on_send(&mut self, seq: u64, arrival: u64, view: ChannelView) {
        self.order.push(view.id.index(), seq, arrival);
        self.order.set_head(view.id.index(), view.head_seq);
    }

    fn on_change(&mut self, view: ChannelView) {
        self.order.set_head(view.id.index(), view.head_seq);
    }

    fn on_unready(&mut self, id: ChannelId) {
        self.order.unready(id.index());
    }

    fn clear_index(&mut self) {
        self.order.clear();
    }
}

/// Partial synchrony: adversarial (seeded-random) delivery, but no message
/// may be overtaken more than `bound` times — once the head of a channel
/// has waited through `bound` picks, it is delivered next.
///
/// The paper's asynchronous model allows unbounded (finite) delays;
/// `BoundedDelayScheduler` interpolates between fully synchronous
/// (`bound = 0`, which degenerates to FIFO) and nearly unconstrained
/// adversaries, and is used to study how schedule skew affects *time*-like
/// metrics even though message complexity stays fixed.
#[derive(Clone, Debug)]
pub struct BoundedDelayScheduler {
    bound: u64,
    rng: StdRng,
    /// The adversary's private virtual clock: one tick per pick. Deadlines
    /// are expressed in this clock's time.
    clock: VirtualClock,
    /// `deadline[channel] = clock time by which its head must deliver`.
    deadlines: HashMap<ChannelId, u64>,
    /// Mirror of `deadlines` ordered by `(deadline, channel)`, so the
    /// overdue lookup is a peek at the minimum instead of a map scan.
    by_deadline: BTreeSet<(u64, usize)>,
}

impl BoundedDelayScheduler {
    /// Creates a scheduler that delays no head message by more than
    /// `bound` deliveries.
    #[must_use]
    pub fn new(bound: u64, seed: u64) -> BoundedDelayScheduler {
        BoundedDelayScheduler {
            bound,
            rng: StdRng::seed_from_u64(seed),
            clock: VirtualClock::new(),
            deadlines: HashMap::new(),
            by_deadline: BTreeSet::new(),
        }
    }

    fn forget(&mut self, id: ChannelId) {
        if let Some(d) = self.deadlines.remove(&id) {
            self.by_deadline.remove(&(d, id.index()));
        }
    }
}

impl Scheduler for BoundedDelayScheduler {
    fn pick(&mut self, ready: &[ChannelId]) -> ChannelId {
        let now = self.clock.tick();
        let bound = self.bound;
        // Register deadlines for newly seen heads. Entries for channels this
        // adversary delivered were removed at that pick, so under engine use
        // the map holds only ready channels; entries made stale by
        // out-of-band deliveries (`step_channel`, scheduler swaps) are
        // dropped lazily during the overdue lookup below instead of an
        // O(ready) `retain` sweep on every pick.
        for &id in ready {
            if let std::collections::hash_map::Entry::Vacant(e) = self.deadlines.entry(id) {
                e.insert(now + bound);
                self.by_deadline.insert((now + bound, id.index()));
            }
        }
        // Deliver any overdue head first (oldest deadline; ties broken by
        // channel index so the pick never depends on map iteration order).
        while let Some(&(deadline, ch)) = self.by_deadline.first() {
            if deadline > now {
                break;
            }
            let id = ChannelId::from_index(ch);
            self.by_deadline.pop_first();
            self.deadlines.remove(&id);
            if ready.contains(&id) {
                return id;
            }
            // Stale: the channel drained without this adversary picking it.
        }
        let id = ready[self.rng.gen_range(0..ready.len())];
        self.forget(id);
        id
    }
}

/// Replays an explicit schedule: at each step, delivers from the recorded
/// [`ChannelId`] if it is ready, falling back to FIFO otherwise (and after
/// the recording is exhausted).
///
/// Fed a schedule recorded with [`crate::Simulation::run_recorded`], this
/// reproduces the observed execution exactly — the tool behind
/// regression-pinning an adversarial interleaving.
#[derive(Clone, Debug)]
pub struct ReplayScheduler {
    script: Vec<ChannelId>,
    cursor: usize,
    /// FIFO index over the ready set: one O(1) membership probe for the
    /// scripted pick plus an O(log C) oldest-head fallback.
    fifo: ReadyIndex<u64>,
}

impl ReplayScheduler {
    /// Creates a scheduler replaying `script`.
    #[must_use]
    pub fn new(script: Vec<ChannelId>) -> ReplayScheduler {
        ReplayScheduler {
            script,
            cursor: 0,
            fifo: ReadyIndex::new(),
        }
    }

    /// How many scripted picks have been consumed.
    #[must_use]
    pub fn consumed(&self) -> usize {
        self.cursor
    }
}

impl Scheduler for ReplayScheduler {
    fn pick(&mut self, _ready: &[ChannelId]) -> ChannelId {
        if let Some(&want) = self.script.get(self.cursor) {
            self.cursor += 1;
            if self.fifo.contains(want.index()) {
                return want;
            }
        }
        indexed(self.fifo.first())
    }

    fn on_change(&mut self, view: ChannelView) {
        self.fifo.insert(view.id.index(), view.head_seq);
    }

    fn on_unready(&mut self, id: ChannelId) {
        self.fifo.remove(id.index());
    }

    fn clear_index(&mut self) {
        self.fifo.clear();
    }
}

/// Switches from one adversary to another after a fixed number of
/// deliveries — e.g. FIFO while the CW instance races ahead, then LIFO to
/// torture the CCW tail.
#[derive(Clone, Debug)]
pub struct PhaseSwitchScheduler {
    first: Box<dyn Scheduler>,
    second: Box<dyn Scheduler>,
    switch_after: u64,
    delivered: u64,
}

impl PhaseSwitchScheduler {
    /// Uses `first` for the first `switch_after` deliveries, `second` after.
    #[must_use]
    pub fn new(
        first: Box<dyn Scheduler>,
        second: Box<dyn Scheduler>,
        switch_after: u64,
    ) -> PhaseSwitchScheduler {
        PhaseSwitchScheduler {
            first,
            second,
            switch_after,
            delivered: 0,
        }
    }
}

impl Scheduler for PhaseSwitchScheduler {
    fn pick(&mut self, ready: &[ChannelId]) -> ChannelId {
        let pick = if self.delivered < self.switch_after {
            self.first.pick(ready)
        } else {
            self.second.pick(ready)
        };
        self.delivered += 1;
        pick
    }

    fn on_send(&mut self, seq: u64, arrival: u64, view: ChannelView) {
        self.first.on_send(seq, arrival, view);
        self.second.on_send(seq, arrival, view);
    }

    fn on_change(&mut self, view: ChannelView) {
        self.first.on_change(view);
        self.second.on_change(view);
    }

    fn on_unready(&mut self, id: ChannelId) {
        self.first.on_unready(id);
        self.second.on_unready(id);
    }

    fn clear_index(&mut self) {
        self.first.clear_index();
        self.second.clear_index();
    }
}

/// Enumerable family of schedulers used by the test and bench harnesses.
///
/// Iterate [`SchedulerKind::ALL`] to quantify a test over a representative
/// set of adversaries:
///
/// ```rust
/// use co_net::SchedulerKind;
///
/// for kind in SchedulerKind::ALL {
///     let mut scheduler = kind.build(42);
///     // ... hand `scheduler` to a Simulation ...
/// #   let _ = &mut scheduler;
/// }
/// assert_eq!(SchedulerKind::ALL.len(), 8);
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// Globally FIFO delivery.
    Fifo,
    /// Definition-21 canonical: send order, which is [`SchedulerKind::Fifo`]
    /// (see [`SolitudeScheduler`]).
    Solitude,
    /// Anti-FIFO (youngest head first).
    Lifo,
    /// Seeded uniform random.
    Random,
    /// Round-robin across channels.
    RoundRobin,
    /// Starve clockwise traffic.
    StarveCw,
    /// Starve counterclockwise traffic.
    StarveCcw,
    /// Longest queue first.
    LongestQueue,
    /// Earliest virtual arrival first (realistic-time delivery).
    ///
    /// Not part of [`SchedulerKind::ALL`]: the family enumerates the paper's
    /// *adversarial* schedules, whereas `Latency` models a benign network and
    /// degenerates to [`SchedulerKind::Fifo`] without a latency plan — adding
    /// it to the grid would only duplicate FIFO rows.
    Latency,
}

impl SchedulerKind {
    /// All adversarial kinds, in a fixed order ([`SchedulerKind::Latency`]
    /// is deliberately excluded — see its docs).
    pub const ALL: [SchedulerKind; 8] = [
        SchedulerKind::Fifo,
        SchedulerKind::Solitude,
        SchedulerKind::Lifo,
        SchedulerKind::Random,
        SchedulerKind::RoundRobin,
        SchedulerKind::StarveCw,
        SchedulerKind::StarveCcw,
        SchedulerKind::LongestQueue,
    ];

    /// Instantiates the scheduler; `seed` only affects [`SchedulerKind::Random`].
    #[must_use]
    pub fn build(self, seed: u64) -> Box<dyn Scheduler> {
        match self {
            SchedulerKind::Fifo => Box::new(FifoScheduler::new()),
            SchedulerKind::Solitude => Box::new(SolitudeScheduler::new()),
            SchedulerKind::Lifo => Box::new(LifoScheduler::new()),
            SchedulerKind::Random => Box::new(RandomScheduler::seeded(seed)),
            SchedulerKind::RoundRobin => Box::new(RoundRobinScheduler::new()),
            SchedulerKind::StarveCw => Box::new(StarveDirectionScheduler::new(Direction::Cw)),
            SchedulerKind::StarveCcw => Box::new(StarveDirectionScheduler::new(Direction::Ccw)),
            SchedulerKind::LongestQueue => Box::new(LongestQueueScheduler::new()),
            SchedulerKind::Latency => Box::new(LatencyScheduler::new()),
        }
    }
}

impl fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            SchedulerKind::Fifo => "fifo",
            SchedulerKind::Solitude => "solitude",
            SchedulerKind::Lifo => "lifo",
            SchedulerKind::Random => "random",
            SchedulerKind::RoundRobin => "round-robin",
            SchedulerKind::StarveCw => "starve-cw",
            SchedulerKind::StarveCcw => "starve-ccw",
            SchedulerKind::LongestQueue => "longest-queue",
            SchedulerKind::Latency => "latency",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(
        id: usize,
        queue_len: usize,
        head_seq: u64,
        direction: Option<Direction>,
    ) -> ChannelView {
        ChannelView {
            id: ChannelId::from_index(id),
            queue_len,
            head_seq,
            direction,
            arrival: 0,
        }
    }

    /// Like `view`, with an explicit virtual arrival time.
    fn viewt(id: usize, head_seq: u64, arrival: u64) -> ChannelView {
        ChannelView {
            arrival,
            ..view(id, 1, head_seq, None)
        }
    }

    /// The ids of `views`, as the engine's ready array holds them.
    fn ids(views: &[ChannelView]) -> Vec<ChannelId> {
        views.iter().map(|v| v.id).collect()
    }

    /// `s`'s pick on `ready` after seeding its index from `ready`, as the
    /// engine does: the views, then each head's send in seq order.
    fn pick_fresh(s: &mut dyn Scheduler, ready: &[ChannelView]) -> ChannelId {
        s.rebuild_index(ready);
        let mut heads = ready.to_vec();
        heads.sort_by_key(|v| v.head_seq);
        for v in heads {
            s.on_send(v.head_seq, v.arrival, v);
        }
        s.pick(&ids(ready))
    }

    fn ch(index: usize) -> ChannelId {
        ChannelId::from_index(index)
    }

    #[test]
    fn fifo_picks_oldest() {
        let ready = [
            view(0, 1, 9, None),
            view(1, 1, 3, None),
            view(2, 1, 5, None),
        ];
        assert_eq!(pick_fresh(&mut FifoScheduler::new(), &ready), ch(1));
    }

    #[test]
    fn solitude_delivers_same_dispatch_sends_in_outbox_order() {
        // A CCW send (seq 0) and then a CW send (seq 1) from one dispatch:
        // distinct seqs, so the CCW pulse goes first.
        let ready = [
            view(0, 1, 0, Some(Direction::Ccw)),
            view(1, 1, 1, Some(Direction::Cw)),
        ];
        assert_eq!(pick_fresh(&mut SolitudeScheduler::new(), &ready), ch(0));
    }

    #[test]
    fn send_order_skips_deliveries_it_did_not_pick() {
        let mut s = FifoScheduler::new();
        // Channel 0 queues seqs 0, 1, 3; channel 1 queues seq 2.
        s.on_send(0, 0, view(0, 1, 0, None));
        s.on_send(1, 0, view(0, 2, 0, None));
        s.on_send(2, 0, view(1, 1, 2, None));
        s.on_send(3, 0, view(0, 3, 0, None));
        assert_eq!(s.queued_runs(), 3); // (0..2 on 0), (2 on 1), (3 on 0)
                                        // Channel 0 delivers twice out of band (`step_channel`).
        s.on_change(view(0, 2, 1, None));
        s.on_change(view(0, 1, 3, None));
        assert_eq!(s.pick(&[]), ch(1)); // the stale front run is dropped
        s.on_unready(ch(1));
        assert_eq!(s.pick(&[]), ch(0));
        // Out-of-band drains of every channel leave nothing to pick.
        s.on_unready(ch(0));
        let mut empty = std::panic::AssertUnwindSafe(s);
        assert!(std::panic::catch_unwind(move || empty.pick(&[])).is_err());
    }

    #[test]
    fn send_order_stays_within_twice_the_in_flight_count() {
        // Never pick: deliver out of band, always from the channel whose
        // head is youngest, while each delivery sends on another channel.
        let mut s = LatencyScheduler::new();
        let mut queues: Vec<VecDeque<(u64, u64)>> = vec![VecDeque::new(); 4];
        let mut seq = 0u64;
        let mut send = |s: &mut LatencyScheduler, queues: &mut [VecDeque<(u64, u64)>], c: usize| {
            let arrival = seq % 7;
            let arrival = arrival.max(queues[c].back().map_or(0, |&(_, a)| a));
            queues[c].push_back((seq, arrival));
            let (head, at) = queues[c][0];
            let channel = ChannelView {
                arrival: at,
                ..view(c, queues[c].len(), head, None)
            };
            s.on_send(seq, arrival, channel);
            seq += 1;
        };
        for c in 0..4 {
            for _ in 0..3 {
                send(&mut s, &mut queues, c);
            }
        }
        for step in 0..20_000usize {
            let c = (0..4)
                .filter(|&c| !queues[c].is_empty())
                .max_by_key(|&c| queues[c][0].0)
                .expect("something in flight");
            queues[c].pop_front();
            match queues[c].front() {
                Some(&(head, at)) => s.on_change(ChannelView {
                    arrival: at,
                    ..view(c, queues[c].len(), head, None)
                }),
                None => s.on_unready(ch(c)),
            }
            send(&mut s, &mut queues, (c + 1 + step % 3) % 4);
            let in_flight: usize = queues.iter().map(VecDeque::len).sum();
            assert!(
                s.queued_runs() <= 2 * in_flight,
                "step {step}: {} entries for {in_flight} in flight",
                s.queued_runs()
            );
        }
    }

    #[test]
    fn lifo_picks_youngest() {
        let ready = [view(0, 1, 9, None), view(1, 1, 3, None)];
        assert_eq!(pick_fresh(&mut LifoScheduler::new(), &ready), ch(0));
    }

    #[test]
    fn random_is_reproducible() {
        let ready = [ch(0), ch(1), ch(2)];
        let picks_a: Vec<ChannelId> = {
            let mut s = RandomScheduler::seeded(7);
            (0..16).map(|_| s.pick(&ready)).collect()
        };
        let picks_b: Vec<ChannelId> = {
            let mut s = RandomScheduler::seeded(7);
            (0..16).map(|_| s.pick(&ready)).collect()
        };
        assert_eq!(picks_a, picks_b);
        assert!(picks_a.iter().all(|p| p.index() < 3));
    }

    #[test]
    fn round_robin_cycles() {
        let mut s = RoundRobinScheduler::new();
        let ready = [
            view(0, 1, 0, None),
            view(2, 1, 1, None),
            view(5, 1, 2, None),
        ];
        s.rebuild_index(&ready);
        let ready = ids(&ready);
        assert_eq!(s.pick(&ready), ch(0));
        assert_eq!(s.pick(&ready), ch(2));
        assert_eq!(s.pick(&ready), ch(5));
        assert_eq!(s.pick(&ready), ch(0)); // wraps
    }

    #[test]
    fn round_robin_is_ready_order_independent() {
        // The engine's ready array is dense and unsorted; the same ready
        // *set* must yield the same channel regardless of array order.
        let sorted = [
            view(0, 1, 0, None),
            view(2, 1, 1, None),
            view(5, 1, 2, None),
        ];
        let shuffled = [sorted[2], sorted[0], sorted[1]];
        let mut a = RoundRobinScheduler::new();
        let mut b = RoundRobinScheduler::new();
        a.rebuild_index(&sorted);
        b.rebuild_index(&shuffled);
        for _ in 0..5 {
            assert_eq!(a.pick(&ids(&sorted)), b.pick(&ids(&shuffled)));
        }
    }

    #[test]
    fn starve_direction_defers_victim() {
        let mut s = StarveDirectionScheduler::new(Direction::Ccw);
        let ready = [
            view(0, 1, 0, Some(Direction::Ccw)),
            view(1, 1, 5, Some(Direction::Cw)),
        ];
        // CCW is older but starved; CW wins.
        assert_eq!(pick_fresh(&mut s, &ready), ch(1));
        // Only CCW ready: it must be delivered (finite delays).
        s.on_unready(ch(1));
        assert_eq!(s.pick(&ids(&ready[..1])), ch(0));
    }

    #[test]
    fn longest_queue_first() {
        let ready = [view(0, 2, 0, None), view(1, 7, 5, None)];
        assert_eq!(pick_fresh(&mut LongestQueueScheduler::new(), &ready), ch(1));
    }

    #[test]
    fn latency_picks_earliest_arrival_head_seq_ties() {
        let mut s = LatencyScheduler::new();
        let ready = [viewt(0, 9, 7), viewt(1, 3, 4), viewt(2, 1, 4)];
        // Channel 1 and 2 tie on arrival 4; the older head (seq 1) wins.
        assert_eq!(pick_fresh(&mut s, &ready), ch(2));
        // Channel 2 queues seq 10 (arriving at 9) behind its head, then
        // delivers the head: seq 10 becomes the head.
        s.on_send(
            10,
            9,
            ChannelView {
                queue_len: 2,
                ..viewt(2, 1, 4)
            },
        );
        s.on_change(viewt(2, 10, 9));
        assert_eq!(s.pick(&ids(&ready)), ch(1));
        // All-zero arrivals (no latency plan): degenerates to FIFO.
        let untimed = [view(0, 1, 9, None), view(1, 1, 3, None)];
        assert_eq!(
            pick_fresh(&mut s, &untimed),
            pick_fresh(&mut FifoScheduler::new(), &untimed)
        );
    }

    #[test]
    fn latency_kind_is_buildable_but_not_in_all() {
        assert!(!SchedulerKind::ALL.contains(&SchedulerKind::Latency));
        assert_eq!(SchedulerKind::Latency.to_string(), "latency");
        let ready = [viewt(0, 1, 3), viewt(1, 0, 8)];
        let mut s = SchedulerKind::Latency.build(0);
        assert_eq!(pick_fresh(s.as_mut(), &ready), ch(0));
    }

    #[test]
    fn bounded_delay_eventually_delivers_the_oldest() {
        // With bound 2, a head can be skipped at most ~twice before being
        // forced out.
        let ready = [ch(0), ch(1), ch(2)];
        let mut s = BoundedDelayScheduler::new(2, 42);
        // Track how long channel 0 survives without being picked.
        let mut survived = 0;
        for _ in 0..16 {
            if s.pick(&ready) == ch(0) {
                break;
            }
            survived += 1;
        }
        assert!(survived <= 3, "channel 0 skipped {survived} times");
    }

    #[test]
    fn bounded_delay_zero_acts_promptly() {
        let ready = [ch(0), ch(1)];
        let mut s = BoundedDelayScheduler::new(0, 1);
        // After the first pick, every remaining head is immediately overdue.
        let first = s.pick(&ready);
        let second = s.pick(&ready);
        assert!(first.index() < 2 && second.index() < 2);
    }

    #[test]
    fn replay_follows_script_with_fifo_fallback() {
        let ready = [view(0, 1, 5, None), view(2, 1, 3, None)];
        let mut s = ReplayScheduler::new(vec![
            ch(0),
            ch(9), // never ready: falls back to FIFO
        ]);
        assert_eq!(pick_fresh(&mut s, &ready), ch(0)); // scripted
        let ready = ids(&ready);
        assert_eq!(s.pick(&ready), ch(2)); // fallback FIFO: oldest head (seq 3)
        assert_eq!(s.consumed(), 2);
        assert_eq!(s.pick(&ready), ch(2)); // script exhausted: FIFO
    }

    #[test]
    fn phase_switch_changes_adversary() {
        let ready = [view(0, 1, 1, None), view(1, 1, 9, None)];
        let mut s = PhaseSwitchScheduler::new(
            Box::new(FifoScheduler::new()),
            Box::new(LifoScheduler::new()),
            2,
        );
        assert_eq!(pick_fresh(&mut s, &ready), ch(0)); // FIFO: oldest
        assert_eq!(s.pick(&ids(&ready)), ch(0));
        assert_eq!(s.pick(&ids(&ready)), ch(1)); // switched to LIFO: youngest

        // A child that keeps no index counts its deliveries the same way.
        let mut mixed = PhaseSwitchScheduler::new(
            Box::new(RandomScheduler::seeded(3)),
            Box::new(LifoScheduler::new()),
            1,
        );
        assert!(pick_fresh(&mut mixed, &ready).index() < 2);
        assert_eq!(mixed.pick(&ids(&ready)), ch(1)); // switched
    }

    #[test]
    fn ready_index_orders_and_upserts() {
        let mut idx: ReadyIndex<u64> = ReadyIndex::new();
        assert!(idx.is_empty());
        assert_eq!(idx.first(), None);
        idx.insert(3, 30);
        idx.insert(7, 10);
        idx.insert(1, 20);
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.first(), Some(7)); // smallest key
        assert_eq!(idx.last(), Some(3)); // largest key
        assert!(idx.contains(1) && !idx.contains(2));
        // Upsert re-keys in place.
        idx.insert(7, 99);
        assert_eq!(idx.first(), Some(1));
        assert_eq!(idx.last(), Some(7));
        // Same-key upsert is a no-op.
        idx.insert(1, 20);
        assert_eq!(idx.len(), 3);
        idx.remove(1);
        assert!(!idx.contains(1));
        assert_eq!(idx.len(), 2);
        // Removing an absent channel is harmless.
        idx.remove(1);
        idx.remove(40);
        idx.clear();
        assert!(idx.is_empty() && idx.first().is_none() && idx.last().is_none());
    }

    #[test]
    fn ready_index_successor_query_wraps_round_robin() {
        let mut idx: ReadyIndex<()> = ReadyIndex::new();
        for ch in [0, 2, 5] {
            idx.insert(ch, ());
        }
        assert_eq!(idx.first_at_or_after((), 0), Some(0));
        assert_eq!(idx.first_at_or_after((), 1), Some(2));
        assert_eq!(idx.first_at_or_after((), 3), Some(5));
        assert_eq!(idx.first_at_or_after((), 6), None); // caller wraps to first()
        assert_eq!(idx.first(), Some(0));
    }

    #[test]
    fn kind_family_builds() {
        let ready = [view(0, 1, 0, Some(Direction::Cw)), view(1, 1, 1, None)];
        for kind in SchedulerKind::ALL {
            let mut s = kind.build(123);
            let pick = pick_fresh(s.as_mut(), &ready);
            assert!(
                pick.index() < ready.len(),
                "{kind} picked a channel not ready"
            );
            assert!(!kind.to_string().is_empty());
        }
    }
}
