//! Fleet mode: millions of concurrent independent ring elections in one
//! process.
//!
//! The production framing of this repository ("heavy traffic from millions
//! of users") maps to millions of *small* concurrent elections, not one
//! giant ring. A [`Simulation`](crate::Simulation) heap-allocates its own
//! queues, scheduler and stats — fine for one ring, ruinous for 10⁶. This
//! module packs a whole *shard* of rings into contiguous arrays instead:
//!
//! - **protocol state**: one `Vec<P>` holding every node of every ring in
//!   the shard, addressed by per-ring offsets;
//! - **queues**: one send-order queue per shard, reused by each ring in
//!   turn. A pulse has no content, so a ring's whole queue state is its
//!   in-flight sends in send order, kept in one flat buffer behind a head
//!   cursor; the FIFO pick takes the front, and the counter backend's
//!   16-byte runs are blocks of equal adjacent entries.
//!
//! Rings are mutually independent, so a shard runs them one after another
//! through the same arenas (maximum cache reuse, zero per-ring allocation
//! after warm-up) and shards fan out across threads. Everything a ring does
//! is derived from [`ring_seed`] — a splitmix64 chain over
//! `(fleet seed, round, ring index)` — so the aggregate [`FleetReport`] is
//! byte-identical for any shard-to-thread assignment: `--jobs 1`,
//! `--jobs 8` and a re-run all produce the same bytes.
//!
//! Per-ring execution replicates the [`EventCore`](crate::EventCore)
//! delivery semantics exactly — same send order, same FIFO (oldest send
//! first) pick, same outcome taxonomy, same stats bookkeeping — which
//! [`run_ring_detailed`] turns into a checkable contract: a one-ring fleet
//! yields the same [`RunReport`], [`SimStats`], fingerprint and
//! counter-backend peak queue bytes as the equivalent
//! [`Simulation`](crate::Simulation) run
//! (`tests/fleet_determinism.rs` locks this in for the paper's algorithms).
//!
//! Fleet runs are untimed, per-pulse and FIFO-scheduled: the virtual-clock
//! layer stays a single-ring concern. Fault injection is the engine's
//! spurious-pulse primitive: with probability `fault_rate` a ring receives
//! one extra content-free pulse on a random clockwise channel, which counts
//! toward `faults_injected` but never toward `total_sent`, exactly like
//! [`EventCore::inject`](crate::EventCore::inject).

use crate::dedup::splitmix64;
use crate::engine::{Budget, Outcome, RunReport, SimStats};
use crate::port::Port;
use crate::sim::{configuration_hash, Context, Protocol};
use crate::snapshot::Snapshot;
use crate::Pulse;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::ops::Range;
use std::str::FromStr;

/// Bytes one queue run occupies in the counter backend: `(head_seq, len)`.
pub const RUN_BYTES: u64 = 16;

/// Default rings per shard — the unit of thread-level parallelism. Small
/// enough that a 10⁴-ring round splits into ten shards the worker pool can
/// balance, big enough that per-shard set-up stays noise.
pub const DEFAULT_SHARD_RINGS: u64 = 1024;

/// The deterministic per-ring seed: a splitmix64 chain over the fleet seed,
/// round number and ring index.
///
/// Every random choice a ring makes (its size, its ID assignment, its fault
/// roll) is drawn from a [`StdRng`] seeded with this value, so a ring's
/// entire execution is a pure function of `(fleet_seed, round, ring)` — the
/// property that makes fleet output independent of sharding and thread
/// count.
#[must_use]
pub fn ring_seed(fleet_seed: u64, round: u64, ring: u64) -> u64 {
    splitmix64(splitmix64(splitmix64(fleet_seed) ^ round) ^ ring)
}

/// Distribution of ring sizes across the fleet.
///
/// Parsed from the CLI `--ring-sizes` flag: `"4"` (every ring has 4 nodes),
/// `"uniform:3..9"` (uniform over the inclusive range) or `"mix:3,5,8"`
/// (uniform over the listed sizes).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RingSizes {
    /// Every ring has exactly this many nodes.
    Fixed(usize),
    /// Sizes drawn uniformly from `min..=max`.
    Uniform {
        /// Smallest ring size (inclusive, ≥ 1).
        min: usize,
        /// Largest ring size (inclusive).
        max: usize,
    },
    /// Sizes drawn uniformly from an explicit list.
    Mix(Vec<usize>),
}

impl RingSizes {
    /// Draws one ring size from the distribution.
    #[must_use]
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        match self {
            RingSizes::Fixed(n) => *n,
            RingSizes::Uniform { min, max } => rng.gen_range(*min..=*max),
            RingSizes::Mix(sizes) => sizes[rng.gen_range(0..sizes.len())],
        }
    }

    /// The largest size the distribution can produce.
    #[must_use]
    pub fn max_len(&self) -> usize {
        match self {
            RingSizes::Fixed(n) => *n,
            RingSizes::Uniform { max, .. } => *max,
            RingSizes::Mix(sizes) => sizes.iter().copied().max().unwrap_or(0),
        }
    }
}

impl fmt::Display for RingSizes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RingSizes::Fixed(n) => write!(f, "{n}"),
            RingSizes::Uniform { min, max } => write!(f, "uniform:{min}..{max}"),
            RingSizes::Mix(sizes) => {
                write!(f, "mix:")?;
                for (i, n) in sizes.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{n}")?;
                }
                Ok(())
            }
        }
    }
}

impl FromStr for RingSizes {
    type Err = String;

    fn from_str(s: &str) -> Result<RingSizes, String> {
        fn size(s: &str) -> Result<usize, String> {
            match s.trim().parse::<usize>() {
                Ok(n) if n >= 1 => Ok(n),
                Ok(_) => Err("ring sizes must be >= 1".to_owned()),
                Err(_) => Err(format!("invalid ring size '{s}'")),
            }
        }
        if let Some(range) = s.strip_prefix("uniform:") {
            let (lo, hi) = range
                .split_once("..")
                .ok_or_else(|| format!("expected uniform:MIN..MAX, got '{s}'"))?;
            let (min, max) = (size(lo)?, size(hi)?);
            if min > max {
                return Err(format!("empty range uniform:{min}..{max}"));
            }
            Ok(RingSizes::Uniform { min, max })
        } else if let Some(list) = s.strip_prefix("mix:") {
            let sizes = list.split(',').map(size).collect::<Result<Vec<_>, _>>()?;
            if sizes.is_empty() {
                return Err("mix: needs at least one size".to_owned());
            }
            Ok(RingSizes::Mix(sizes))
        } else {
            Ok(RingSizes::Fixed(size(s)?))
        }
    }
}

/// Configuration of a fleet run.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetConfig {
    /// Number of independent rings per round.
    pub rings: u64,
    /// Ring-size distribution.
    pub sizes: RingSizes,
    /// Fleet seed; combined with round and ring index by [`ring_seed`].
    pub seed: u64,
    /// Per-ring probability of injecting one spurious pulse on a random
    /// clockwise channel after start-up (`0.0` = fault-free).
    pub fault_rate: f64,
    /// Per-ring pulse budget override; `None` uses the default formula
    /// `8·n² + 256`, comfortably above the paper's `n·(2·ID_max + 1)`
    /// bound for fleet-assigned IDs (a permutation of `1..=n`).
    pub ring_budget: Option<u64>,
    /// Rings per shard; shards are the unit of thread-level parallelism.
    /// The value never affects results, only memory footprint and load
    /// balance.
    pub shard_rings: u64,
}

impl FleetConfig {
    /// A fleet of `rings` four-node rings, seed 0, fault-free, default
    /// sharding.
    #[must_use]
    pub fn new(rings: u64) -> FleetConfig {
        FleetConfig {
            rings,
            sizes: RingSizes::Fixed(4),
            seed: 0,
            fault_rate: 0.0,
            ring_budget: None,
            shard_rings: DEFAULT_SHARD_RINGS,
        }
    }

    /// The pulse budget applied to one ring of `n` nodes.
    #[must_use]
    pub fn budget_for(&self, n: usize) -> u64 {
        self.ring_budget
            .unwrap_or_else(|| 8 * (n as u64) * (n as u64) + 256)
    }

    /// Number of shards the fleet splits into.
    #[must_use]
    pub fn shard_count(&self) -> u64 {
        let per = self.shard_rings.max(1);
        self.rings.div_ceil(per)
    }

    /// Ring-index range of one shard.
    #[must_use]
    pub fn shard_range(&self, shard: u64) -> Range<u64> {
        let per = self.shard_rings.max(1);
        let start = shard * per;
        start..self.rings.min(start + per)
    }
}

/// Everything a ring does, derived deterministically from [`ring_seed`]:
/// its size, its ID assignment and its fault-injection choice.
///
/// The draw order is fixed (size, then IDs, then fault roll, then fault
/// channel) and shared by [`run_shard`] and [`ring_plan`], so a test can
/// reconstruct the exact single-ring `Simulation` a fleet ring ran.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RingPlan {
    /// Ring index within the fleet.
    pub ring: u64,
    /// Number of nodes.
    pub n: usize,
    /// ID of each node by position: a shuffled permutation of `1..=n`
    /// (positive, unique — `ID_max = n`). The ring is oriented: every
    /// node's clockwise port is [`Port::One`], matching
    /// [`RingSpec::oriented`](crate::RingSpec::oriented).
    pub ids: Vec<u64>,
    /// Spurious-pulse injection target, if the fault roll hit: a ring-local
    /// channel index (channel `2·v + p` is node `v`'s port `p`). Always a
    /// clockwise channel (`p = 1`): CW is the direction every election
    /// protocol listens on, so a spurious CW pulse corrupts its pulse
    /// counting, while a CCW pulse would merely violate Algorithm 1's
    /// direction invariant.
    pub inject: Option<usize>,
}

impl RingPlan {
    fn empty() -> RingPlan {
        RingPlan {
            ring: 0,
            n: 0,
            ids: Vec::new(),
            inject: None,
        }
    }
}

/// Fills `plan` for one ring, reusing its `ids` allocation.
fn fill_plan(cfg: &FleetConfig, round: u64, ring: u64, plan: &mut RingPlan) {
    let mut rng = StdRng::seed_from_u64(ring_seed(cfg.seed, round, ring));
    let n = cfg.sizes.sample(&mut rng);
    plan.ring = ring;
    plan.n = n;
    plan.ids.clear();
    plan.ids.extend(1..=n as u64);
    plan.ids.shuffle(&mut rng);
    plan.inject = if cfg.fault_rate > 0.0 && rng.gen::<f64>() < cfg.fault_rate {
        Some(2 * rng.gen_range(0..n) + 1)
    } else {
        None
    };
}

/// The deterministic plan of ring `ring` in round `round`.
#[must_use]
pub fn ring_plan(cfg: &FleetConfig, round: u64, ring: u64) -> RingPlan {
    let mut plan = RingPlan::empty();
    fill_plan(cfg, round, ring, &mut plan);
    plan
}

// ---------------------------------------------------------------------------
// Send-order queue
// ---------------------------------------------------------------------------

/// Marks a ring with no planned fault in the shard's per-ring inject table.
const NO_INJECT: u32 = u32::MAX;

/// Buffer length at which [`SendQueue::push`] may compact: once the buffer
/// holds this many entries and at least half of them are consumed, the
/// consumed prefix is dropped. A ring's buffer therefore never exceeds
/// `max(COMPACT_LEN, 2 × in-flight)` entries after a push, under any budget.
const COMPACT_LEN: usize = 4096;

/// One ring's in-flight pulses as ring-local channel indices in send order.
///
/// A pulse carries no content, so a channel queue is nothing but the set of
/// its in-flight sends; under FIFO the oldest send is always delivered
/// first. The whole queue state of a ring is therefore this one sequence:
/// a send (or an injected fault) pushes its channel at the back of `buf`,
/// the FIFO pick reads the entry at `head` and advances it, and the
/// in-flight sends are `buf[head..]`. Consumed entries stay in place until
/// the ring ends or [`COMPACT_LEN`] says to drop them.
///
/// The counter backend stores a channel's queue as runs of consecutive
/// sequence numbers. Sequence numbers are consecutive here too, so a run is
/// a block of equal adjacent entries: `live_runs` rises on a push whose
/// channel differs from the back in-flight entry and falls on a pop whose
/// channel differs from the new front, which keeps `peak_runs × RUN_BYTES`
/// exactly the engine's `peak_queue_bytes`.
#[derive(Debug, Default)]
struct SendQueue {
    buf: Vec<u32>,
    head: usize,
    live_runs: u64,
    peak_runs: u64,
}

impl SendQueue {
    /// Empties the queue for the next ring, keeping its allocation.
    fn reset(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.live_runs = 0;
        self.peak_runs = 0;
    }

    /// The in-flight sends, oldest first.
    fn in_flight(&self) -> &[u32] {
        &self.buf[self.head..]
    }

    fn push(&mut self, c: u32) {
        let len = self.buf.len();
        if self.head == len || self.buf[len - 1] != c {
            self.live_runs += 1;
            self.peak_runs = self.peak_runs.max(self.live_runs);
        }
        if len >= COMPACT_LEN && 2 * self.head >= len {
            self.buf.drain(..self.head);
            self.head = 0;
        }
        self.buf.push(c);
    }

    /// Pops the oldest in-flight send: the FIFO pick.
    fn pop(&mut self) -> Option<u32> {
        let c = *self.buf.get(self.head)?;
        self.head += 1;
        if self.buf.get(self.head) != Some(&c) {
            self.live_runs -= 1;
        }
        Some(c)
    }
}

// ---------------------------------------------------------------------------
// Per-ring execution
// ---------------------------------------------------------------------------

/// Per-port bookkeeping hook for the per-ring loop. The aggregate path uses
/// the no-op implementation (compiled away); [`run_ring_detailed`] plugs in
/// per-node counters to reconstruct a full [`SimStats`].
trait RingObserver {
    fn on_send(&mut self, node: usize, port: usize);
    fn on_recv(&mut self, node: usize, port: Port);
}

struct NullObserver;

impl RingObserver for NullObserver {
    fn on_send(&mut self, _node: usize, _port: usize) {}
    fn on_recv(&mut self, _node: usize, _port: Port) {}
}

struct PortCounters {
    sent: Vec<u64>,
    recv: Vec<u64>,
}

impl RingObserver for PortCounters {
    fn on_send(&mut self, node: usize, port: usize) {
        self.sent[2 * node + port] += 1;
    }
    fn on_recv(&mut self, node: usize, port: Port) {
        self.recv[2 * node + port as usize] += 1;
    }
}

/// Raw counters of one ring's run; mirrors the engine's bookkeeping.
#[derive(Clone, Copy, Debug, Default)]
struct RingRun {
    total_sent: u64,
    total_delivered: u64,
    delivered_to_terminated: u64,
    steps: u64,
    sent_by_direction: [u64; 2],
    in_flight: u64,
    injected: u64,
    peak_runs: u64,
    all_terminated: bool,
}

impl RingRun {
    fn outcome(&self) -> Outcome {
        if self.in_flight > 0 {
            Outcome::BudgetExhausted
        } else if self.all_terminated {
            if self.delivered_to_terminated == 0 {
                Outcome::QuiescentTerminated
            } else {
                Outcome::TerminatedNonQuiescent
            }
        } else {
            Outcome::Quiescent
        }
    }
}

/// Flushes a node's buffered sends in call order — the engine's
/// `flush_outbox`. Queue position stands in for the send sequence number.
fn flush<O: RingObserver>(
    node: usize,
    outbox: &mut Vec<(usize, Pulse)>,
    q: &mut SendQueue,
    rr: &mut RingRun,
    obs: &mut O,
) {
    for (port, _msg) in outbox.drain(..) {
        rr.total_sent += 1;
        // Oriented ring: port One (index 1) is the CW direction (slot 0).
        rr.sent_by_direction[1 - port] += 1;
        obs.on_send(node, port);
        q.push((node * 2 + port) as u32);
    }
}

/// Runs one oriented ring to quiescence or budget exhaustion under FIFO
/// delivery, replicating `EventCore` semantics exactly: start-up dispatch
/// order, send order, oldest-send-first picks, ignored deliveries to
/// terminated nodes, and the outcome taxonomy. `q` is reset first and
/// holds the pulses still in flight when the ring stops.
fn run_ring<P: Protocol<Pulse>, O: RingObserver>(
    nodes: &mut [P],
    terminated: &mut [bool],
    q: &mut SendQueue,
    outbox: &mut Vec<(usize, Pulse)>,
    inject: Option<usize>,
    budget: u64,
    obs: &mut O,
) -> RingRun {
    let n = nodes.len();
    let mut rr = RingRun::default();
    q.reset();

    // Start-up: each node's on_start, flushed before the next node starts,
    // exactly like `EventCore::start`.
    for i in 0..n {
        let mut ctx = Context::buffered(i, outbox);
        nodes[i].on_start(&mut ctx);
        flush(i, outbox, q, &mut rr, obs);
        if !terminated[i] && nodes[i].is_terminated() {
            terminated[i] = true;
        }
    }

    // Fault injection: one spurious pulse, sequenced after start-up sends;
    // counted as a fault, never as a send (`EventCore::inject`).
    if let Some(c) = inject {
        q.push(c as u32);
        rr.injected += 1;
    }

    // Delivery loop: FIFO = globally oldest send first = the queue front.
    while rr.steps < budget {
        let Some(c) = q.pop() else { break };
        rr.steps += 1;

        // Oriented wiring: channel (v, One) feeds the CW neighbour's port
        // Zero; channel (v, Zero) feeds the CCW neighbour's port One.
        // Neighbours wrap by compare, not `% n`: the divide, and the
        // `terminated[receiver]` load waiting on it, was the loop's largest
        // single cost.
        let sender = (c >> 1) as usize;
        let (receiver, in_port) = if c & 1 == 1 {
            let cw = sender + 1;
            (if cw == n { 0 } else { cw }, Port::Zero)
        } else {
            (if sender == 0 { n - 1 } else { sender - 1 }, Port::One)
        };
        if terminated[receiver] {
            rr.delivered_to_terminated += 1;
            continue;
        }
        rr.total_delivered += 1;
        obs.on_recv(receiver, in_port);
        let mut ctx = Context::buffered(receiver, outbox);
        nodes[receiver].on_message(in_port, Pulse, &mut ctx);
        flush(receiver, outbox, q, &mut rr, obs);
        if !terminated[receiver] && nodes[receiver].is_terminated() {
            terminated[receiver] = true;
        }
    }

    rr.in_flight = q.in_flight().len() as u64;
    rr.all_terminated = terminated.iter().all(|&t| t);
    rr.peak_runs = q.peak_runs;
    rr
}

// ---------------------------------------------------------------------------
// Aggregate reporting
// ---------------------------------------------------------------------------

/// Number of histogram buckets: exact below 8, then four sub-buckets per
/// octave up to `u64::MAX`.
const HIST_BUCKETS: usize = 256;

/// A compact log-scale histogram of per-ring pulse counts.
///
/// Values below 8 are exact; larger values share four sub-buckets per
/// power of two (≤ 19 % relative error), which keeps the whole histogram
/// at 2 KiB while still giving meaningful p50/p99 estimates for fleets of
/// heterogeneous rings. Merging histograms is exact bucket-wise addition,
/// so aggregation order never changes the result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PulseHistogram {
    buckets: Vec<u64>,
    count: u64,
    max: u64,
}

fn bucket_of(v: u64) -> usize {
    if v < 8 {
        v as usize
    } else {
        let e = 63 - u64::from(v.leading_zeros());
        (8 + (e - 3) * 4 + ((v >> (e - 2)) & 3)) as usize
    }
}

fn bucket_floor(b: usize) -> u64 {
    if b < 8 {
        b as u64
    } else {
        let e = 3 + (b as u64 - 8) / 4;
        let sub = (b as u64 - 8) % 4;
        if e >= 64 {
            // Buckets past the u64 range (unreachable from bucket_of).
            u64::MAX
        } else {
            (1 << e) + sub * (1 << (e - 2))
        }
    }
}

impl PulseHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> PulseHistogram {
        PulseHistogram {
            buckets: vec![0; HIST_BUCKETS],
            count: 0,
            max: 0,
        }
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.max = self.max.max(v);
    }

    /// Adds another histogram's counts into this one.
    pub fn merge(&mut self, other: &PulseHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += *b;
        }
        self.count += other.count;
        self.max = self.max.max(other.max);
    }

    /// Number of recorded values.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest recorded value (exact, not bucketed).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `q`-quantile (`0.0..=1.0`) as the lower bound of the bucket
    /// holding the rank — a deterministic, slightly conservative estimate.
    /// Returns 0 for an empty histogram.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count - 1) as f64 * q.clamp(0.0, 1.0)) as u64;
        let mut cum = 0u64;
        for (b, &cnt) in self.buckets.iter().enumerate() {
            cum += cnt;
            if cum > rank {
                return bucket_floor(b);
            }
        }
        bucket_floor(HIST_BUCKETS - 1)
    }
}

impl Default for PulseHistogram {
    fn default() -> PulseHistogram {
        PulseHistogram::new()
    }
}

/// Deterministic aggregate result of a fleet run (one or more shards).
///
/// Every field is a pure function of the [`FleetConfig`] and round set —
/// never of wall-clock time, thread count or shard size — so two reports
/// can be compared with `==` to prove determinism. Throughput (elections
/// per second) is deliberately *not* in here; the bench driver layers
/// timing on top.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FleetReport {
    /// Rings run.
    pub rings: u64,
    /// Total nodes across all rings.
    pub nodes: u64,
    /// Rings that reached quiescence with exactly one leader — successful
    /// elections.
    pub elections: u64,
    /// Rings ending in [`Outcome::QuiescentTerminated`].
    pub quiescent_terminated: u64,
    /// Rings ending in [`Outcome::Quiescent`] (stabilizing protocols).
    pub quiescent: u64,
    /// Rings ending in [`Outcome::TerminatedNonQuiescent`].
    pub terminated_nonquiescent: u64,
    /// Rings whose per-ring pulse budget ran out (e.g. a spurious pulse
    /// circulating forever under Algorithm 1).
    pub budget_exhausted: u64,
    /// Pulses delivered across the fleet (including ignored deliveries to
    /// terminated nodes).
    pub total_pulses: u64,
    /// Pulses sent across the fleet (the paper's message complexity,
    /// summed; excludes injected faults).
    pub total_sent: u64,
    /// Spurious pulses injected.
    pub faults_injected: u64,
    /// Peak queue bytes of any single ring, in the counter backend's
    /// 16-byte-per-run accounting.
    pub peak_ring_queue_bytes: u64,
    /// Distribution of pulses-to-quiescence over rings that drained their
    /// queues (budget-exhausted rings excluded).
    pub pulses_to_quiescence: PulseHistogram,
}

impl FleetReport {
    /// An empty report (identity element of [`merge`](FleetReport::merge)).
    #[must_use]
    pub fn new() -> FleetReport {
        FleetReport {
            rings: 0,
            nodes: 0,
            elections: 0,
            quiescent_terminated: 0,
            quiescent: 0,
            terminated_nonquiescent: 0,
            budget_exhausted: 0,
            total_pulses: 0,
            total_sent: 0,
            faults_injected: 0,
            peak_ring_queue_bytes: 0,
            pulses_to_quiescence: PulseHistogram::new(),
        }
    }

    /// Folds another report in. Merging is commutative and associative, so
    /// any aggregation order over the same shards produces identical bytes.
    pub fn merge(&mut self, other: &FleetReport) {
        self.rings += other.rings;
        self.nodes += other.nodes;
        self.elections += other.elections;
        self.quiescent_terminated += other.quiescent_terminated;
        self.quiescent += other.quiescent;
        self.terminated_nonquiescent += other.terminated_nonquiescent;
        self.budget_exhausted += other.budget_exhausted;
        self.total_pulses += other.total_pulses;
        self.total_sent += other.total_sent;
        self.faults_injected += other.faults_injected;
        self.peak_ring_queue_bytes = self.peak_ring_queue_bytes.max(other.peak_ring_queue_bytes);
        self.pulses_to_quiescence.merge(&other.pulses_to_quiescence);
    }

    /// Median pulses-to-quiescence.
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.pulses_to_quiescence.quantile(0.50)
    }

    /// 99th-percentile pulses-to-quiescence.
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.pulses_to_quiescence.quantile(0.99)
    }

    /// Folds one ring's run into the aggregate.
    fn absorb(&mut self, rr: &RingRun, n: u64, leaders: u64) {
        self.rings += 1;
        self.nodes += n;
        self.total_pulses += rr.steps;
        self.total_sent += rr.total_sent;
        self.faults_injected += rr.injected;
        self.peak_ring_queue_bytes = self.peak_ring_queue_bytes.max(rr.peak_runs * RUN_BYTES);
        let outcome = rr.outcome();
        match outcome {
            Outcome::QuiescentTerminated => self.quiescent_terminated += 1,
            Outcome::Quiescent => self.quiescent += 1,
            Outcome::TerminatedNonQuiescent => self.terminated_nonquiescent += 1,
            Outcome::BudgetExhausted => self.budget_exhausted += 1,
        }
        if outcome != Outcome::BudgetExhausted {
            self.pulses_to_quiescence.record(rr.steps);
            if leaders == 1 {
                self.elections += 1;
            }
        }
    }

    /// Human-readable multi-line summary (the CLI/smoke-artifact format).
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "fleet: {} rings ({} nodes)\n\
             outcomes: {} quiescent-terminated | {} quiescent | \
             {} terminated-nonquiescent | {} budget-exhausted\n\
             elections won (unique leader): {}\n\
             pulses: {} delivered, {} sent | faults injected: {}\n\
             pulses-to-quiescence: p50={} p99={} max={}\n\
             peak queue bytes/ring: {}\n",
            self.rings,
            self.nodes,
            self.quiescent_terminated,
            self.quiescent,
            self.terminated_nonquiescent,
            self.budget_exhausted,
            self.elections,
            self.total_pulses,
            self.total_sent,
            self.faults_injected,
            self.p50(),
            self.p99(),
            self.pulses_to_quiescence.max(),
            self.peak_ring_queue_bytes,
        )
    }
}

impl Default for FleetReport {
    fn default() -> FleetReport {
        FleetReport::new()
    }
}

impl fmt::Display for FleetReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

// ---------------------------------------------------------------------------
// Shard and fleet entry points
// ---------------------------------------------------------------------------

/// Runs one shard of rings (`rings` is a range of ring indices) through
/// shared arrays and returns its aggregate report.
///
/// `make(plan, pos)` builds the node at position `pos` of a planned ring
/// (its ID is `plan.ids[pos]`, its clockwise port [`Port::One`]);
/// `is_leader` classifies a node's final state. Shards are embarrassingly
/// parallel: any partition of `0..cfg.rings` into shards, run on any
/// threads in any order, merges to the same [`FleetReport`].
pub fn run_shard<P, F, L>(
    cfg: &FleetConfig,
    round: u64,
    rings: Range<u64>,
    make: &F,
    is_leader: &L,
) -> FleetReport
where
    P: Protocol<Pulse>,
    F: Fn(&RingPlan, usize) -> P,
    L: Fn(&P) -> bool,
{
    let count = (rings.end.saturating_sub(rings.start)) as usize;

    // Build pass: fill the shard's protocol-state arena and per-ring plans.
    let mut nodes: Vec<P> = Vec::new();
    let mut ring_n: Vec<u32> = Vec::with_capacity(count);
    let mut ring_inject: Vec<u32> = Vec::with_capacity(count);
    let mut plan = RingPlan::empty();
    for ring in rings {
        fill_plan(cfg, round, ring, &mut plan);
        ring_n.push(plan.n as u32);
        ring_inject.push(plan.inject.map_or(NO_INJECT, |c| c as u32));
        for pos in 0..plan.n {
            nodes.push(make(&plan, pos));
        }
    }

    // Termination arena for the whole shard; one send-order queue reused
    // by every ring.
    let mut terminated = vec![false; nodes.len()];
    let mut q = SendQueue::default();
    let mut outbox: Vec<(usize, Pulse)> = Vec::new();

    // Run pass: rings execute one after another through the same arenas.
    let mut report = FleetReport::new();
    let mut off = 0usize;
    for (i, &rn) in ring_n.iter().enumerate() {
        let n = rn as usize;
        let inject = (ring_inject[i] != NO_INJECT).then_some(ring_inject[i] as usize);
        let ring_nodes = &mut nodes[off..off + n];
        let rr = run_ring(
            ring_nodes,
            &mut terminated[off..off + n],
            &mut q,
            &mut outbox,
            inject,
            cfg.budget_for(n),
            &mut NullObserver,
        );
        let leaders = ring_nodes.iter().filter(|p| is_leader(p)).count() as u64;
        report.absorb(&rr, n as u64, leaders);
        off += n;
    }
    report
}

/// Runs one whole round of the fleet sequentially, shard by shard.
///
/// This is the single-threaded reference: the parallel driver in
/// `co_bench` fans the same shards out over its thread pool and must (and
/// does, by test) produce a byte-identical report.
pub fn run_fleet_sequential<P, F, L>(
    cfg: &FleetConfig,
    round: u64,
    make: &F,
    is_leader: &L,
) -> FleetReport
where
    P: Protocol<Pulse>,
    F: Fn(&RingPlan, usize) -> P,
    L: Fn(&P) -> bool,
{
    let mut report = FleetReport::new();
    for shard in 0..cfg.shard_count() {
        let part = run_shard(cfg, round, cfg.shard_range(shard), make, is_leader);
        report.merge(&part);
    }
    report
}

/// Full observable state of one fleet ring's run, for equivalence checks
/// against a plain [`Simulation`](crate::Simulation).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FleetRingDetail {
    /// The ring's deterministic plan (size, IDs, fault choice).
    pub plan: RingPlan,
    /// The run report, field-for-field what `Simulation::run` returns.
    pub report: RunReport,
    /// Full engine statistics, field-for-field `Simulation::stats`.
    pub stats: SimStats,
    /// End-state fingerprint, bit-for-bit `Simulation::fingerprint`.
    pub fingerprint: u64,
    /// Peak queue bytes, byte-for-byte `Simulation::peak_queue_bytes` under
    /// [`QueueBackend::Counter`](crate::QueueBackend::Counter).
    pub peak_queue_bytes: u64,
    /// Number of nodes classified as leader at the end.
    pub leaders: u64,
    /// The pulse budget the ring ran under (for rebuilding the equivalent
    /// single-ring run: `Budget::steps(budget)`).
    pub budget: Budget,
}

/// Runs a single fleet ring with full bookkeeping: per-port counters and an
/// end-state fingerprint, matching what the equivalent single-ring
/// [`Simulation`](crate::Simulation) (oriented ring, FIFO scheduler,
/// untimed, per-pulse) reports. The contract behind the one-ring
/// equivalence test: fleet execution is the engine's execution, re-packed.
pub fn run_ring_detailed<P, F, L>(
    cfg: &FleetConfig,
    round: u64,
    ring: u64,
    make: &F,
    is_leader: &L,
) -> FleetRingDetail
where
    P: Protocol<Pulse> + Snapshot,
    F: Fn(&RingPlan, usize) -> P,
    L: Fn(&P) -> bool,
{
    let plan = ring_plan(cfg, round, ring);
    let n = plan.n;
    let mut nodes: Vec<P> = (0..n).map(|pos| make(&plan, pos)).collect();
    let mut terminated = vec![false; n];
    let mut q = SendQueue::default();
    let mut outbox: Vec<(usize, Pulse)> = Vec::new();
    // One slot per (node, port), in the ring wiring's channel order, as
    // `SimStats` lays them out.
    let mut obs = PortCounters {
        sent: vec![0; 2 * n],
        recv: vec![0; 2 * n],
    };
    let budget = cfg.budget_for(n);
    let rr = run_ring(
        &mut nodes,
        &mut terminated,
        &mut q,
        &mut outbox,
        plan.inject,
        budget,
        &mut obs,
    );

    // The layout of `Simulation::fingerprint`, over per-channel queue
    // lengths in global channel order.
    let mut queue_len = vec![0u64; 2 * n];
    for &c in q.in_flight() {
        queue_len[c as usize] += 1;
    }
    let fingerprint = configuration_hash(
        true,
        queue_len.into_iter(),
        terminated.iter().copied(),
        nodes.iter().map(Snapshot::fingerprint),
        None,
    );

    let mut stats = SimStats::with_degrees(vec![2; n]);
    stats.total_sent = rr.total_sent;
    stats.total_delivered = rr.total_delivered;
    stats.delivered_to_terminated = rr.delivered_to_terminated;
    stats.steps = rr.steps;
    stats.sent_by_direction = rr.sent_by_direction;
    stats.sent_by_port = obs.sent;
    stats.recv_by_port = obs.recv;
    let report = RunReport {
        outcome: rr.outcome(),
        total_sent: rr.total_sent,
        steps: rr.steps,
        in_flight: rr.in_flight,
    };
    let leaders = nodes.iter().filter(|p| is_leader(p)).count() as u64;
    FleetRingDetail {
        plan,
        report,
        stats,
        fingerprint,
        peak_queue_bytes: rr.peak_runs * RUN_BYTES,
        leaders,
        budget: Budget::steps(budget),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::Fingerprint;
    use crate::{QueueBackend, RingSpec, SchedulerKind, Simulation};
    use std::collections::VecDeque;

    /// A miniature Algorithm 1: send CW on start, relay until the received
    /// count reaches the node's ID. Stabilizes with the ID_max holder as
    /// the unique leader — enough structure to exercise every fleet path
    /// without depending on `co_core`.
    #[derive(Clone, Debug)]
    struct MiniAlg1 {
        id: u64,
        rho: u64,
        leader: bool,
    }

    impl MiniAlg1 {
        fn new(id: u64) -> MiniAlg1 {
            MiniAlg1 {
                id,
                rho: 0,
                leader: false,
            }
        }
    }

    impl Protocol<Pulse> for MiniAlg1 {
        type Output = bool;

        fn on_start(&mut self, ctx: &mut Context<'_, Pulse>) {
            ctx.send(Port::One, Pulse);
        }

        fn on_message(&mut self, _port: Port, _msg: Pulse, ctx: &mut Context<'_, Pulse>) {
            self.rho += 1;
            if self.rho == self.id {
                self.leader = true;
            } else {
                self.leader = false;
                ctx.send(Port::One, Pulse);
            }
        }

        fn output(&self) -> Option<bool> {
            Some(self.leader)
        }
    }

    impl Snapshot for MiniAlg1 {
        type State = MiniAlg1;

        fn extract(&self) -> MiniAlg1 {
            self.clone()
        }

        fn restore(&mut self, state: &MiniAlg1) {
            *self = state.clone();
        }

        fn fingerprint(&self) -> u64 {
            let mut fp = Fingerprint::new();
            fp.write_u64(self.id);
            fp.write_u64(self.rho);
            fp.write_bool(self.leader);
            fp.finish()
        }
    }

    fn mini(plan: &RingPlan, pos: usize) -> MiniAlg1 {
        MiniAlg1::new(plan.ids[pos])
    }

    fn mini_leader(p: &MiniAlg1) -> bool {
        p.leader
    }

    /// The counter backend's live runs of a queue: blocks of equal
    /// adjacent entries.
    fn runs(model: &VecDeque<u32>) -> u64 {
        let mut runs = 0;
        let mut back = None;
        for &c in model {
            if back != Some(c) {
                runs += 1;
            }
            back = Some(c);
        }
        runs
    }

    #[test]
    fn send_queue_matches_a_deque_model() {
        let mut rng = StdRng::seed_from_u64(33);
        let mut q = SendQueue::default();
        let (mut compactions, mut long_tails) = (0, 0);
        // (channels, phase length, push odds while growing, while draining):
        // alternating phases grow and drain the backlog, so the buffer
        // passes COMPACT_LEN with short in-flight tails (1,500-step phases)
        // and with tails too long to compact (4,000-step phases).
        let shapes = [
            (1u32, 1_500, 0.6, 0.4),
            (2, 1_500, 0.6, 0.4),
            (3, 1_500, 0.6, 0.4),
            (8, 1_500, 0.6, 0.4),
            (2, 4_000, 0.9, 0.3),
        ];
        for (channels, phase, grow, drain) in shapes {
            q.reset();
            let mut model = VecDeque::new();
            let mut peak = 0;
            for step in 0..12_000 {
                let push_odds = if (step / phase) % 2 == 0 { grow } else { drain };
                if rng.gen::<f64>() < push_odds {
                    let c = rng.gen_range(0..channels);
                    let (head, len) = (q.head, q.buf.len());
                    q.push(c);
                    model.push_back(c);
                    if q.head < head {
                        compactions += 1;
                    } else if len >= COMPACT_LEN {
                        long_tails += 1;
                    }
                    peak = peak.max(runs(&model));
                    assert!(
                        q.buf.len() <= COMPACT_LEN.max(2 * model.len()),
                        "buffer {} with {} in flight",
                        q.buf.len(),
                        model.len()
                    );
                } else {
                    assert_eq!(q.pop(), model.pop_front(), "step {step}");
                }
                assert!(q.in_flight().iter().eq(model.iter()), "step {step}");
                assert_eq!(q.live_runs, runs(&model), "step {step}");
                assert_eq!(q.peak_runs, peak, "step {step}");
            }
        }
        assert!(compactions > 4, "only {compactions} compactions");
        assert!(long_tails > 0, "no push kept a long in-flight tail");
    }

    #[test]
    fn ring_sizes_parse_and_display() {
        assert_eq!("4".parse::<RingSizes>().unwrap(), RingSizes::Fixed(4));
        assert_eq!(
            "uniform:3..9".parse::<RingSizes>().unwrap(),
            RingSizes::Uniform { min: 3, max: 9 }
        );
        assert_eq!(
            "mix:3,5,8".parse::<RingSizes>().unwrap(),
            RingSizes::Mix(vec![3, 5, 8])
        );
        for s in ["4", "uniform:3..9", "mix:3,5,8"] {
            assert_eq!(s.parse::<RingSizes>().unwrap().to_string(), s);
        }
        assert!("0".parse::<RingSizes>().is_err());
        assert!("uniform:9..3".parse::<RingSizes>().is_err());
        assert!("uniform:5".parse::<RingSizes>().is_err());
        assert!("mix:".parse::<RingSizes>().is_err());
        assert!("bogus:1".parse::<RingSizes>().is_err());
    }

    #[test]
    fn plans_are_deterministic_and_vary_by_ring() {
        let mut cfg = FleetConfig::new(100);
        cfg.sizes = RingSizes::Uniform { min: 3, max: 9 };
        cfg.fault_rate = 0.5;
        let a = ring_plan(&cfg, 0, 7);
        let b = ring_plan(&cfg, 0, 7);
        assert_eq!(a, b);
        let distinct: std::collections::HashSet<u64> =
            (0..100).map(|r| ring_seed(cfg.seed, 0, r)).collect();
        assert_eq!(distinct.len(), 100, "ring seeds must not collide here");
        // Pinned: every fleet report derives from these bytes.
        assert_eq!(ring_seed(7, 2, 3), 0xab03_565e_dcb5_3bcf);
        // IDs are always a permutation of 1..=n.
        let mut ids = a.ids.clone();
        ids.sort_unstable();
        assert_eq!(ids, (1..=a.n as u64).collect::<Vec<_>>());
    }

    #[test]
    fn histogram_quantiles_are_sane() {
        let mut h = PulseHistogram::new();
        for v in 1..=1000 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.max(), 1000);
        let p50 = h.quantile(0.5);
        assert!((256..=640).contains(&p50), "p50 = {p50}");
        assert!(h.quantile(0.99) >= p50);
        assert_eq!(PulseHistogram::new().quantile(0.5), 0);
        // Small values are exact.
        let mut h = PulseHistogram::new();
        for _ in 0..10 {
            h.record(5);
        }
        assert_eq!(h.quantile(0.5), 5);
    }

    #[test]
    fn bucket_floor_inverts_bucket_of() {
        for v in [0, 1, 7, 8, 9, 15, 16, 100, 1 << 20, u64::MAX] {
            let b = bucket_of(v);
            assert!(b < HIST_BUCKETS);
            assert!(bucket_floor(b) <= v);
            if b + 1 < HIST_BUCKETS && v < u64::MAX {
                assert!(bucket_floor(b + 1) > v, "v = {v}");
            }
        }
    }

    #[test]
    fn fleet_elects_on_every_clean_ring() {
        let mut cfg = FleetConfig::new(50);
        cfg.sizes = RingSizes::Fixed(5);
        let report = run_fleet_sequential(&cfg, 0, &mini, &mini_leader);
        assert_eq!(report.rings, 50);
        assert_eq!(report.nodes, 250);
        assert_eq!(report.elections, 50);
        assert_eq!(report.quiescent, 50);
        assert_eq!(report.budget_exhausted, 0);
        // MiniAlg1 with IDs 1..=5: every node sends/receives ID_max = 5
        // pulses, so each ring sends exactly 25.
        assert_eq!(report.total_sent, 50 * 25);
        assert_eq!(report.total_pulses, 50 * 25);
        assert_eq!(report.faults_injected, 0);
        assert!(report.peak_ring_queue_bytes >= RUN_BYTES);
    }

    #[test]
    fn tiny_rings_run() {
        for n in 1..=2 {
            let mut cfg = FleetConfig::new(10);
            cfg.sizes = RingSizes::Fixed(n);
            let report = run_fleet_sequential(&cfg, 0, &mini, &mini_leader);
            assert_eq!(report.elections, 10, "n = {n}");
            assert_eq!(report.quiescent, 10, "n = {n}");
        }
    }

    #[test]
    fn shard_partition_never_changes_the_report() {
        let mut cfg = FleetConfig::new(200);
        cfg.sizes = RingSizes::Uniform { min: 3, max: 9 };
        cfg.fault_rate = 0.1;
        let whole = run_shard(&cfg, 0, 0..200, &mini, &mini_leader);
        for split in [1, 37, 100, 199] {
            let mut parts = run_shard(&cfg, 0, 0..split, &mini, &mini_leader);
            parts.merge(&run_shard(&cfg, 0, split..200, &mini, &mini_leader));
            assert_eq!(whole, parts, "split at {split}");
        }
        // And via the configured shard size.
        cfg.shard_rings = 17;
        assert_eq!(run_fleet_sequential(&cfg, 0, &mini, &mini_leader), whole);
    }

    #[test]
    fn injected_faults_are_counted_and_break_stabilization() {
        let mut cfg = FleetConfig::new(20);
        cfg.sizes = RingSizes::Fixed(4);
        cfg.fault_rate = 1.0;
        let report = run_fleet_sequential(&cfg, 0, &mini, &mini_leader);
        assert_eq!(report.faults_injected, 20);
        // A spurious pulse circulates forever under a relay protocol: every
        // ring must hit its budget, and none reaches quiescence.
        assert_eq!(report.budget_exhausted, 20);
        assert_eq!(report.elections, 0);
        assert_eq!(report.pulses_to_quiescence.count(), 0);
        assert_eq!(report.total_pulses, 20 * cfg.budget_for(4));
    }

    #[test]
    fn rounds_decorrelate() {
        let mut cfg = FleetConfig::new(64);
        cfg.sizes = RingSizes::Uniform { min: 3, max: 9 };
        let r0 = run_fleet_sequential(&cfg, 0, &mini, &mini_leader);
        let r1 = run_fleet_sequential(&cfg, 1, &mini, &mini_leader);
        assert_eq!(r0.rings, r1.rings);
        assert_ne!(r0.nodes, r1.nodes, "rounds should sample different sizes");
    }

    #[test]
    fn one_ring_fleet_matches_simulation() {
        let mut cfg = FleetConfig::new(1);
        for n in [1usize, 2, 3, 6] {
            for seed in 0..4u64 {
                cfg.sizes = RingSizes::Fixed(n);
                cfg.seed = seed;
                let detail = run_ring_detailed(&cfg, 0, 0, &mini, &mini_leader);
                let spec = RingSpec::oriented(detail.plan.ids.clone());
                let nodes: Vec<MiniAlg1> = detail
                    .plan
                    .ids
                    .iter()
                    .map(|&id| MiniAlg1::new(id))
                    .collect();
                let mut sim: Simulation<Pulse, MiniAlg1> = Simulation::with_backend(
                    spec.wiring(),
                    nodes,
                    SchedulerKind::Fifo.build(0),
                    QueueBackend::Counter,
                );
                let report = sim.run(detail.budget);
                assert_eq!(detail.report, report, "n = {n}, seed = {seed}");
                assert_eq!(&detail.stats, sim.stats(), "n = {n}, seed = {seed}");
                assert_eq!(
                    detail.fingerprint,
                    sim.fingerprint(),
                    "n = {n}, seed = {seed}"
                );
                assert_eq!(
                    detail.peak_queue_bytes,
                    sim.peak_queue_bytes() as u64,
                    "n = {n}, seed = {seed}"
                );
            }
        }
    }

    #[test]
    fn report_merge_is_commutative() {
        let mut cfg = FleetConfig::new(60);
        cfg.sizes = RingSizes::Uniform { min: 3, max: 7 };
        cfg.fault_rate = 0.2;
        let a = run_shard(&cfg, 0, 0..30, &mini, &mini_leader);
        let b = run_shard(&cfg, 0, 30..60, &mini, &mini_leader);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.rings, 60);
    }

    #[test]
    fn render_mentions_the_headline_numbers() {
        let mut cfg = FleetConfig::new(8);
        cfg.sizes = RingSizes::Fixed(3);
        let report = run_fleet_sequential(&cfg, 0, &mini, &mini_leader);
        let text = report.render();
        assert!(text.contains("8 rings"));
        assert!(text.contains("elections won"));
        assert!(text.contains("p50="));
        assert!(report.to_string().contains("peak queue bytes/ring"));
    }
}
