//! Exhaustive schedule exploration — a small model checker for pulse
//! protocols.
//!
//! The paper's theorems are `∀ schedule` statements. The adversaries in
//! [`crate::sched`] sample that space; this module *exhausts* it on small
//! instances: starting from the initial configuration it explores **every**
//! reachable configuration under **every** possible delivery order,
//! verifying a safety predicate in each and a final predicate in every
//! quiescent configuration.
//!
//! [`explore`] runs on the snapshot layer: the protocol implements
//! [`Snapshot`], so the explorer checkpoints a real [`Simulation`] with
//! [`Simulation::snapshot`], branches with [`Simulation::step_channel`], and
//! deduplicates visited configurations by their stable 64-bit
//! [`Simulation::fingerprint`] — **8 bytes per configuration** regardless of
//! ring size. It runs on a pool of `jobs` work-stealing workers; with
//! `jobs: 1` the visit order, and so the order of reported violations, is
//! deterministic. The previous-generation explorer is kept as
//! [`explore_reference`]: it stores full `(queues, terminated, node-keys)`
//! tuples per configuration, which grows linearly with the ring and is what
//! limited the reachable instance sizes. Differential tests assert the two
//! enumerate identical state spaces where both fit in memory.
//!
//! ```rust
//! use co_net::explore::{explore, ExploreConfig};
//! use co_net::{Context, Fingerprint, Port, Protocol, Pulse, RingSpec, Snapshot};
//!
//! /// Each node forwards the first pulse it sees and stops.
//! #[derive(Clone, Debug)]
//! struct Once(bool);
//! impl Protocol<Pulse> for Once {
//!     type Output = ();
//!     fn on_start(&mut self, ctx: &mut Context<'_, Pulse>) {
//!         ctx.send(Port::One, Pulse);
//!     }
//!     fn on_message(&mut self, _p: Port, _m: Pulse, ctx: &mut Context<'_, Pulse>) {
//!         if !self.0 {
//!             self.0 = true;
//!             ctx.send(Port::One, Pulse);
//!         }
//!     }
//!     fn output(&self) -> Option<()> { None }
//! }
//! impl Snapshot for Once {
//!     type State = bool;
//!     fn extract(&self) -> bool { self.0 }
//!     fn restore(&mut self, state: &bool) { self.0 = *state; }
//!     fn fingerprint(&self) -> u64 { u64::from(self.0) }
//! }
//!
//! let spec = RingSpec::oriented(vec![1, 2, 3]);
//! let report = explore(
//!     &spec.wiring(),
//!     || vec![Once(false), Once(false), Once(false)],
//!     |_state| Ok(()),                    // safety predicate
//!     |state| {
//!         // In every quiescent configuration, everyone relayed once.
//!         if state.nodes.iter().all(|n| n.0) { Ok(()) } else { Err("missed".into()) }
//!     },
//!     &ExploreConfig { jobs: 1, ..ExploreConfig::default() },
//! );
//! assert!(report.complete);
//! assert!(report.violations.is_empty());
//! assert!(report.quiescent_configs >= 1);
//! ```

use crate::dedup::{shard_image_len, unique_name, DedupKind, ShardedIndex};
use crate::engine::QueueBackend;
use crate::faults::FaultPlan;
use crate::message::Pulse;
use crate::port::Port;
use crate::sched::FifoScheduler;
use crate::sim::{Context, Protocol, SimSnapshot, Simulation};
use crate::snapshot::{put_bytes, put_str, put_u32, put_u64, ByteReader, Fingerprint, Snapshot};
use crate::topology::{ChannelId, Wiring};
use std::collections::{HashSet, VecDeque};
use std::fs::{File, OpenOptions};
use std::hash::Hash;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Bounds on the exploration.
#[derive(Copy, Clone, Debug)]
pub struct ExploreLimits {
    /// Maximum distinct configurations to visit before giving up.
    pub max_configs: usize,
    /// Maximum deliveries along any single path (guards non-terminating
    /// protocols).
    pub max_depth: usize,
    /// Maximum bytes of visited-set storage before giving up.
    ///
    /// This is the budget on which [`explore`] (8 bytes/config) and
    /// [`explore_reference`] (full state tuples) are compared: with the same
    /// byte budget, fingerprint dedup reaches instances the reference
    /// explorer cannot.
    pub max_state_bytes: usize,
}

impl Default for ExploreLimits {
    fn default() -> ExploreLimits {
        ExploreLimits {
            max_configs: 2_000_000,
            max_depth: 100_000,
            max_state_bytes: usize::MAX,
        }
    }
}

/// Result of an exploration.
#[derive(Clone, Debug)]
pub struct ExploreReport {
    /// Distinct configurations visited.
    pub configs: usize,
    /// Distinct quiescent configurations found.
    pub quiescent_configs: usize,
    /// Safety / quiescence predicate failures (deduplicated messages).
    pub violations: Vec<String>,
    /// Whether the state space was fully explored within the limits.
    pub complete: bool,
    /// Total bytes of visited-set storage used by the deduplication index
    /// (`visited_heap_bytes + visited_file_bytes`); the
    /// [`ExploreLimits::max_state_bytes`] budget applies to this total.
    pub visited_bytes: usize,
    /// Heap-resident bytes of the deduplication index (the exact backend).
    pub visited_heap_bytes: usize,
    /// File-backed bytes of the deduplication index (the mmap backend's
    /// table files) — the out-of-core share of the footprint.
    pub visited_file_bytes: usize,
    /// Frontier items that were spilled to disk at some point of the run.
    pub spilled_jobs: usize,
    /// Checkpoint files written (including the final one).
    pub checkpoints_written: usize,
}

/// A configuration handed to the predicates.
#[derive(Clone, Debug)]
pub struct ExploreState<P> {
    /// Protocol instances, in node order.
    pub nodes: Vec<P>,
    /// Per-channel queued-pulse counts, indexed by [`ChannelId::index`].
    pub queues: Vec<u32>,
    /// Per-node terminated flags.
    pub terminated: Vec<bool>,
    /// Total pulses sent so far along this path.
    pub sent: u64,
}

impl<P> ExploreState<P> {
    /// Whether no pulses are in transit.
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        self.queues.iter().all(|&q| q == 0)
    }
}

fn note_violation(violations: &mut Vec<String>, msg: String) {
    if violations.len() < 16 && !violations.contains(&msg) {
        violations.push(msg);
    }
}

fn state_of<P: Protocol<Pulse> + Clone>(sim: &Simulation<Pulse, P>) -> ExploreState<P> {
    let n = sim.wiring().len();
    ExploreState {
        nodes: sim.nodes().to_vec(),
        queues: (0..2 * n)
            .map(|ch| sim.queue_len(ChannelId::from_index(ch)) as u32)
            .collect(),
        terminated: (0..n).map(|v| sim.is_terminated(v)).collect(),
        sent: sim.stats().total_sent,
    }
}

/// Configuration for [`explore`].
#[derive(Clone, Debug)]
pub struct ExploreConfig {
    /// Bounds on the exploration.
    pub limits: ExploreLimits,
    /// Worker threads; `0` means all available cores. `1` gives a
    /// deterministic visit and violation order.
    pub jobs: usize,
    /// Visited-fingerprint backend (see [`crate::dedup`]).
    pub dedup: DedupKind,
    /// Channel faults to apply along every explored path.
    ///
    /// Faults trigger on the global send sequence number, which the plain
    /// configuration fingerprint deliberately omits; while the plan has
    /// faults left to fire, the explorer therefore mixes the (clamped) send
    /// counter into the fingerprint so deduplication stays sound.
    pub faults: FaultPlan,
    /// Queue storage backend for the worker simulations (see
    /// [`QueueBackend`]). The visited state space, fingerprints, and report
    /// are identical under either backend — asserted by differential
    /// tests — so this only trades snapshot memory for envelope generality.
    /// Defaults to [`QueueBackend::Counter`]: the explorer only carries
    /// pulses.
    pub backend: QueueBackend,
    /// Macro-step successor expansion (off by default): each branch
    /// delivers the chosen channel's *entire head run* in one fused
    /// transition ([`Simulation::step_channel_batch`]) instead of a single
    /// pulse.
    ///
    /// Every configuration this explorer visits has a fingerprint
    /// byte-identical to the per-pulse explorer's fingerprint of the same
    /// configuration — batching changes which interleavings are expanded,
    /// never how a configuration hashes. The visited set is the macro-step
    /// reachable *subset* of the per-pulse state space: configurations
    /// "inside" a run (some but not all of a run's pulses delivered before
    /// switching channels) are skipped, so safety predicates are only
    /// checked at run boundaries. Use per-pulse exploration for
    /// exhaustive safety; batched exploration for reachability and
    /// quiescence questions at scale.
    pub batch: bool,
    /// Frontier spill-to-disk high-water mark, in items per worker shard
    /// (`0` disables spilling). When a worker's shard grows past this mark,
    /// its *coldest* items (the shard front — the ones LIFO processing
    /// would touch last) are written to a per-worker spill file as
    /// channel-pick replay paths and paged back in LIFO order once the
    /// in-memory shard drains. Spilled items still count as pending work,
    /// so termination and state counts are unaffected.
    pub spill_high_water: usize,
    /// Directory for scratch files (mmap dedup tables, frontier spill
    /// files); `None` means the system temp dir. Each run creates unique
    /// subdirectories there and removes them when it finishes.
    pub scratch_dir: Option<PathBuf>,
    /// Periodic checkpointing: persist frontier + dedup state + counters to
    /// [`CheckpointPlan::path`] every [`CheckpointPlan::every`] admitted
    /// configurations, and once more when the run stops for any reason.
    pub checkpoint: Option<CheckpointPlan>,
    /// Resume from a previously written checkpoint instead of the initial
    /// configuration. The caller is responsible for checking
    /// [`ExploreCheckpoint::meta`] describes the same instance; the
    /// explorer itself asserts the dedup backend matches.
    pub resume: Option<ExploreCheckpoint>,
}

impl Default for ExploreConfig {
    fn default() -> ExploreConfig {
        ExploreConfig {
            limits: ExploreLimits::default(),
            jobs: 0,
            dedup: DedupKind::Exact,
            faults: FaultPlan::new(),
            backend: QueueBackend::Counter,
            batch: false,
            spill_high_water: 0,
            scratch_dir: None,
            checkpoint: None,
            resume: None,
        }
    }
}

/// Periodic checkpointing policy for [`explore`].
#[derive(Clone, Debug)]
pub struct CheckpointPlan {
    /// Where to write the checkpoint file (atomically: a `.tmp` sibling is
    /// written, fsynced, and renamed over `path`).
    pub path: PathBuf,
    /// Admitted configurations between checkpoint writes.
    pub every: usize,
    /// Opaque instance-identity blob stored verbatim in the checkpoint.
    /// On resume the *caller* compares it against the current instance
    /// (protocol, ids, batch mode, …) before handing the checkpoint to the
    /// explorer — the explorer treats it as bytes.
    pub meta: Vec<u8>,
}

/// One pending frontier configuration, persisted as its replay path: the
/// sequence of channel picks that reaches it from the deterministic started
/// initial configuration. Replaying the picks (in the run's delivery mode,
/// with its fault plan) reconstructs the exact simulation state, so generic
/// protocol state never needs to be byte-serialized.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrontierItem {
    /// Delivery depth of the configuration (for the `max_depth` limit).
    pub depth: usize,
    /// Channel indices to deliver, in order, from the initial configuration.
    pub picks: Vec<u32>,
}

/// A resumable exploration checkpoint: everything [`explore`]
/// needs to continue a run as if it had never stopped — the visited-set
/// shards, the frontier (as replay paths), and the report counters.
///
/// Re-convergence argument: the explorer maintains the invariant that every
/// admitted configuration is either already fully expanded or present in
/// the frontier (a popped item is always expanded to completion, and a
/// successor is pushed before any stop condition is honoured). A checkpoint
/// therefore partitions the admitted set into "done" (counted in
/// `quiescent`/`violations`) and "frontier" (persisted as paths); resuming
/// processes each frontier configuration exactly once, so the final
/// `configs`/`quiescent_configs`/violation set equal an uninterrupted
/// run's, regardless of where the run was cut.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExploreCheckpoint {
    /// Caller-supplied instance identity (see [`CheckpointPlan::meta`]).
    pub meta: Vec<u8>,
    /// Canonical name of the dedup backend the run used.
    pub dedup: String,
    /// Configurations admitted so far.
    pub admitted: usize,
    /// Quiescent configurations counted so far.
    pub quiescent: usize,
    /// Frontier items spilled to disk so far (report bookkeeping).
    pub spilled: usize,
    /// Whether a `max_depth` limit pruned subtrees before this checkpoint
    /// (permanent: those subtrees are unrecoverable, so a resumed run can
    /// never report `complete`).
    pub pruned: bool,
    /// Violations found so far.
    pub violations: Vec<String>,
    /// Serialized dedup shards ([`ShardedIndex::save_shards`]).
    pub shards: Vec<Vec<u8>>,
    /// Pending configurations, as replay paths.
    pub frontier: Vec<FrontierItem>,
}

const CK_MAGIC: &[u8; 8] = b"CORINGCK";
const CK_VERSION: u32 = 1;

impl ExploreCheckpoint {
    /// Whether the checkpointed run had finished (empty frontier). Resuming
    /// a finished checkpoint is an idempotent no-op that reproduces the
    /// final report.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.frontier.is_empty()
    }

    /// Serializes to the on-disk format (see DESIGN.md §13).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(CK_MAGIC);
        put_u32(&mut out, CK_VERSION);
        put_bytes(&mut out, &self.meta);
        put_str(&mut out, &self.dedup);
        put_u64(&mut out, self.admitted as u64);
        put_u64(&mut out, self.quiescent as u64);
        put_u64(&mut out, self.spilled as u64);
        put_u32(&mut out, u32::from(self.pruned));
        put_u64(&mut out, self.violations.len() as u64);
        for v in &self.violations {
            put_str(&mut out, v);
        }
        put_u64(&mut out, self.shards.len() as u64);
        for blob in &self.shards {
            put_bytes(&mut out, blob);
        }
        put_u64(&mut out, self.frontier.len() as u64);
        for item in &self.frontier {
            put_u64(&mut out, item.depth as u64);
            put_u64(&mut out, item.picks.len() as u64);
            for &pick in &item.picks {
                put_u32(&mut out, pick);
            }
        }
        out
    }

    /// Parses the on-disk format back; rejects wrong magic/version, any
    /// truncation or trailing garbage, a malformed dedup shard image, and an
    /// `admitted` count that differs from what the shards hold.
    pub fn decode(bytes: &[u8]) -> Result<ExploreCheckpoint, String> {
        let mut r = ByteReader::new(bytes);
        if r.take(8)? != CK_MAGIC {
            return Err("not a co-ring exploration checkpoint (bad magic)".into());
        }
        let version = r.u32()?;
        if version != CK_VERSION {
            return Err(format!(
                "checkpoint version {version}, this build reads {CK_VERSION}"
            ));
        }
        let meta = r.bytes()?.to_vec();
        let dedup = r.string()?;
        let admitted = r.len()?;
        let quiescent = r.len()?;
        let spilled = r.len()?;
        let pruned = r.u32()? != 0;
        let violations = (0..r.len()?)
            .map(|_| r.string())
            .collect::<Result<Vec<_>, _>>()?;
        let shards = (0..r.len()?)
            .map(|_| r.bytes().map(<[u8]>::to_vec))
            .collect::<Result<Vec<_>, _>>()?;
        let mut frontier = Vec::new();
        for _ in 0..r.len()? {
            let depth = r.len()?;
            let picks = (0..r.len()?).map(|_| r.u32()).collect::<Result<_, _>>()?;
            frontier.push(FrontierItem { depth, picks });
        }
        r.finish()?;
        let mut stored = 0usize;
        for (i, blob) in shards.iter().enumerate() {
            stored += shard_image_len(blob).map_err(|e| format!("dedup shard {i}: {e}"))?;
        }
        if stored != admitted {
            return Err(format!(
                "header claims {admitted} admitted configurations, the dedup shards hold {stored}"
            ));
        }
        Ok(ExploreCheckpoint {
            meta,
            dedup,
            admitted,
            quiescent,
            spilled,
            pruned,
            violations,
            shards,
            frontier,
        })
    }

    /// Reads and parses a checkpoint file.
    pub fn read(path: &Path) -> Result<ExploreCheckpoint, String> {
        let bytes = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        ExploreCheckpoint::decode(&bytes).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Writes the checkpoint atomically: a `.tmp` sibling is written,
    /// fsynced, then renamed over `path`, and the parent directory is
    /// fsynced so the rename itself is durable — a kill or power loss at
    /// any point leaves either the previous checkpoint or this one, never a
    /// torn file.
    pub fn write_atomic(&self, path: &Path) -> Result<(), String> {
        let mut tmp_name = path.as_os_str().to_os_string();
        tmp_name.push(".tmp");
        let tmp = PathBuf::from(tmp_name);
        let fail = |op: &str, e: std::io::Error| format!("{op} {}: {e}", tmp.display());
        let mut file = File::create(&tmp).map_err(|e| fail("create", e))?;
        std::io::Write::write_all(&mut file, &self.encode()).map_err(|e| fail("write", e))?;
        file.sync_all().map_err(|e| fail("sync", e))?;
        drop(file);
        std::fs::rename(&tmp, path)
            .map_err(|e| format!("rename {} -> {}: {e}", tmp.display(), path.display()))?;
        let dir = match path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => dir,
            _ => Path::new("."),
        };
        File::open(dir)
            .and_then(|d| d.sync_all())
            .map_err(|e| format!("sync directory {}: {e}", dir.display()))
    }
}

/// Per-worker frontier spill file: length-prefixed `(depth, picks)` records
/// appended at the end, paged back LIFO by truncating. The offsets stack
/// lives in memory (8 B per spilled item); the paths live on disk.
struct SpillFile {
    file: File,
    path: PathBuf,
    offsets: Vec<u64>,
    end: u64,
}

impl SpillFile {
    fn create(dir: &Path, worker: usize) -> SpillFile {
        let path = dir.join(format!("spill-{worker}.bin"));
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)
            .expect("spill file creation failed");
        SpillFile {
            file,
            path,
            offsets: Vec::new(),
            end: 0,
        }
    }

    fn push(&mut self, depth: usize, picks: &[u32]) {
        let mut rec = Vec::with_capacity(16 + picks.len() * 4);
        put_u64(&mut rec, depth as u64);
        put_u64(&mut rec, picks.len() as u64);
        for &p in picks {
            put_u32(&mut rec, p);
        }
        self.file
            .write_all_at(&rec, self.end)
            .expect("spill write failed");
        self.offsets.push(self.end);
        self.end += rec.len() as u64;
    }

    fn record_at(&self, off: u64) -> (usize, Vec<u32>) {
        let mut hdr = [0u8; 16];
        self.file
            .read_exact_at(&mut hdr, off)
            .expect("spill read failed");
        let depth = u64::from_le_bytes(hdr[..8].try_into().expect("8B")) as usize;
        let count = u64::from_le_bytes(hdr[8..].try_into().expect("8B")) as usize;
        let mut buf = vec![0u8; count * 4];
        self.file
            .read_exact_at(&mut buf, off + 16)
            .expect("spill read failed");
        let picks = buf
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4B")))
            .collect();
        (depth, picks)
    }

    /// Pops the most recently spilled item (LIFO) and truncates it away.
    fn pop(&mut self) -> Option<(usize, Vec<u32>)> {
        let off = self.offsets.pop()?;
        let rec = self.record_at(off);
        self.file.set_len(off).expect("spill truncate failed");
        self.end = off;
        Some(rec)
    }

    /// Reads every spilled item without consuming (checkpoint collection).
    fn items(&self) -> Vec<FrontierItem> {
        self.offsets
            .iter()
            .map(|&off| {
                let (depth, picks) = self.record_at(off);
                FrontierItem { depth, picks }
            })
            .collect()
    }
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// One frontier entry: the snapshot to expand (or `None` for items loaded
/// from a checkpoint/spill file, which are rematerialized by replaying
/// `path` from the initial configuration), its depth, and — when paths are
/// being tracked for spill/checkpoint — its replay path.
struct Job<S> {
    snap: Option<S>,
    depth: usize,
    path: Vec<u32>,
}

/// Resolves `0` to the number of available cores.
fn effective_jobs(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }
}

/// The configuration fingerprint used for deduplication, fault-aware.
///
/// Without faults this is exactly [`Simulation::fingerprint`]. With a fault
/// plan, two configurations that hash equal but differ in how many sends
/// have happened can still diverge (a pending `drop_seq`/`duplicate_seq`
/// fires for one and not the other), so the send counter — clamped to just
/// past the plan's [`FaultPlan::horizon`], beyond which the plan is inert —
/// is mixed in.
fn config_fingerprint<P>(sim: &Simulation<Pulse, P>, fault_horizon: Option<u64>) -> u64
where
    P: Protocol<Pulse> + Snapshot,
{
    let base = sim.fingerprint();
    match fault_horizon {
        None => base,
        Some(h) => {
            let mut fp = Fingerprint::new();
            fp.write_u64(base);
            fp.write_u64(sim.send_seq().min(h + 1));
            fp.finish()
        }
    }
}

/// Exhaustively explores every delivery order of a pulse protocol, with
/// fingerprint-based visited-state deduplication.
///
/// * `make_nodes` builds the initial protocol instances (one per node of
///   `wiring`);
/// * `safety` is checked in every reachable configuration;
/// * `at_quiescence` is checked in every reachable quiescent configuration.
///
/// The node fingerprint comes from the protocol's [`Snapshot`]
/// implementation, which must capture *all* behaviourally relevant state
/// (two nodes with equal fingerprints must behave identically forever).
///
/// A fixed pool of `config.jobs` workers (scoped std threads) each runs a
/// depth-first loop over its own frontier shard, stealing from other
/// shards when its own runs dry. Every worker owns a private
/// [`Simulation`] it restores checkpoints into, so only snapshots — plain
/// data — cross threads. Deduplication goes through a [`ShardedIndex`]
/// ([`crate::dedup::FP_SHARDS`] locks keyed by fingerprint prefix) with the
/// backend chosen by `config.dedup`: `exact` keeps the set on the heap at
/// 8 bytes per configuration, so the explorer reaches ring sizes the
/// tuple-keyed [`explore_reference`] cannot under the same
/// [`ExploreLimits::max_state_bytes`] budget; `mmap` stores the same set in
/// files so RAM stops being the bound.
///
/// Guarantees, asserted by differential tests:
///
/// * with no limits hit, `configs`, `quiescent_configs`, and the violation
///   verdict are identical for every worker count and both backends — a
///   successor is pushed only by the worker that *admitted* its
///   fingerprint, so each configuration is processed exactly once;
/// * with `jobs: 1` nothing is stolen, so the visit order — and with it
///   the violation list — repeats verbatim from run to run;
/// * a [`FaultPlan`] may be supplied; fingerprints are then extended per
///   [`FaultPlan::horizon`] so dedup stays sound while faults can still
///   fire.
///
/// Out-of-core extensions (see [`ExploreConfig`]): frontier spill-to-disk
/// past `spill_high_water`, periodic resumable checkpoints via
/// `checkpoint`/`resume`. The run is processed in *legs*: when a
/// checkpoint is due, workers finish the item in hand, park, a checkpoint
/// is written atomically, and the pool resumes — a popped item is always
/// fully expanded and every admitted-but-unexpanded configuration sits in
/// the frontier, so a resumed run provably converges to the same counts
/// as an uninterrupted one (see [`ExploreCheckpoint`]).
///
/// When limits are hit the run stops early with `complete = false`.
/// Because every worker finishes expanding its current item (the
/// resume-convergence invariant), `configs` may overshoot `max_configs` by
/// up to one branching factor per worker.
pub fn explore<P, FM, FS, FQ>(
    wiring: &Wiring,
    make_nodes: FM,
    safety: FS,
    at_quiescence: FQ,
    config: &ExploreConfig,
) -> ExploreReport
where
    P: Protocol<Pulse> + Snapshot + Clone,
    P::State: Send,
    FM: Fn() -> Vec<P> + Sync,
    FS: Fn(&ExploreState<P>) -> Result<(), String> + Sync,
    FQ: Fn(&ExploreState<P>) -> Result<(), String> + Sync,
{
    let jobs = effective_jobs(config.jobs);
    let limits = config.limits;
    let horizon = config.faults.horizon();
    // Replay paths are only tracked when something might persist them.
    let track_paths = config.spill_high_water > 0 || config.checkpoint.is_some();

    // Seed: the started initial configuration — also the replay origin for
    // every spilled or checkpointed frontier item.
    let nodes = make_nodes();
    assert_eq!(nodes.len(), wiring.len(), "one protocol instance per node");
    let mut seed_sim: Simulation<Pulse, P> = Simulation::with_backend(
        wiring.clone(),
        nodes,
        Box::new(FifoScheduler::new()),
        config.backend,
    );
    seed_sim.set_faults(config.faults.clone());
    seed_sim.start();
    let seed_snap = seed_sim.snapshot();

    let index = ShardedIndex::with_dir(config.dedup, 0, 0.0, config.scratch_dir.as_deref());

    // One frontier shard per worker; each worker pops its own back (LIFO,
    // depth-first) and steals from other shards' fronts (oldest first,
    // which tends to hand over large subtrees).
    type Frontier<P> = Mutex<VecDeque<Job<SimSnapshot<Pulse, P>>>>;
    let shards: Vec<Frontier<P>> = (0..jobs).map(|_| Mutex::new(VecDeque::new())).collect();

    // In-flight item count: incremented before a push (including spilled
    // items), decremented after an item is fully processed. Zero with all
    // shards and spill files empty means done.
    let pending = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let pause = AtomicBool::new(false);
    let pruned = AtomicBool::new(false);
    let quiescent = AtomicUsize::new(0);
    let spilled_total = AtomicUsize::new(0);
    let violations: Mutex<Vec<String>> = Mutex::new(Vec::new());

    if let Some(ck) = &config.resume {
        assert_eq!(
            ck.dedup,
            config.dedup.to_string(),
            "resume requires the checkpoint's dedup backend"
        );
        index
            .load_shards(&ck.shards, ck.admitted)
            .expect("checkpoint dedup shards must load");
        quiescent.store(ck.quiescent, Ordering::Relaxed);
        spilled_total.store(ck.spilled, Ordering::Relaxed);
        pruned.store(ck.pruned, Ordering::Relaxed);
        *violations.lock().expect("fresh mutex") = ck.violations.clone();
        pending.store(ck.frontier.len(), Ordering::Release);
        for (i, item) in ck.frontier.iter().enumerate() {
            shards[i % jobs]
                .lock()
                .expect("fresh shard")
                .push_back(Job {
                    snap: None,
                    depth: item.depth,
                    path: item.picks.clone(),
                });
        }
    } else {
        index.insert(config_fingerprint(&seed_sim, horizon));
        if index.bytes().total() > limits.max_state_bytes {
            // The mmap backend preallocates its table files and can blow
            // the byte budget before the first delivery: stop before
            // expanding anything.
            let bytes = index.bytes();
            return ExploreReport {
                configs: index.admitted(),
                quiescent_configs: 0,
                violations: Vec::new(),
                complete: false,
                visited_bytes: bytes.total(),
                visited_heap_bytes: bytes.heap,
                visited_file_bytes: bytes.file,
                spilled_jobs: 0,
                checkpoints_written: 0,
            };
        }
        pending.store(1, Ordering::Release);
        shards[0].lock().expect("fresh shard").push_back(Job {
            snap: Some(seed_snap.clone()),
            depth: 0,
            path: Vec::new(),
        });
    }

    // Spill files live in their own unique subdirectory; one file per
    // worker, created lazily on first spill.
    let spill_dir: Option<PathBuf> = (config.spill_high_water > 0).then(|| {
        let root = config
            .scratch_dir
            .clone()
            .unwrap_or_else(std::env::temp_dir);
        let dir = root.join(unique_name("co-ring-spill"));
        std::fs::create_dir_all(&dir).expect("spill dir creation failed");
        dir
    });
    let spills: Vec<Mutex<Option<SpillFile>>> = (0..jobs).map(|_| Mutex::new(None)).collect();

    let mut checkpoints_written = 0usize;
    loop {
        // One leg: run workers until the frontier drains, a limit trips, or
        // a checkpoint comes due (`pause`). Each leg re-spawns the scoped
        // pool; legs are long (`checkpoint.every` admissions), so the spawn
        // cost is noise.
        let leg_target = config
            .checkpoint
            .as_ref()
            .filter(|plan| plan.every > 0)
            .map(|plan| index.admitted() + plan.every);
        pause.store(false, Ordering::Release);
        std::thread::scope(|scope| {
            for me in 0..jobs {
                let shards = &shards;
                let spills = &spills;
                let spill_dir = spill_dir.as_deref();
                let index = &index;
                let pending = &pending;
                let stop = &stop;
                let pause = &pause;
                let pruned = &pruned;
                let quiescent = &quiescent;
                let spilled_total = &spilled_total;
                let violations = &violations;
                let make_nodes = &make_nodes;
                let safety = &safety;
                let at_quiescence = &at_quiescence;
                let faults = &config.faults;
                let backend = config.backend;
                let batch = config.batch;
                let spill_high_water = config.spill_high_water;
                let my_seed = seed_snap.clone();
                scope.spawn(move || {
                    let mut sim: Simulation<Pulse, P> = Simulation::with_backend(
                        wiring.clone(),
                        make_nodes(),
                        Box::new(FifoScheduler::new()),
                        backend,
                    );
                    sim.set_faults(faults.clone());
                    sim.start();
                    loop {
                        if stop.load(Ordering::Acquire) || pause.load(Ordering::Acquire) {
                            break;
                        }
                        // Own shard first (LIFO — depth-first), then steal
                        // from the front of the others, then page back from
                        // spill files (own first). Each lock is taken and
                        // released in its own statement: holding the
                        // own-shard lock while probing a victim would
                        // deadlock two workers stealing from each other.
                        let mut item = shards[me].lock().expect("shard poisoned").pop_back();
                        if item.is_none() {
                            for d in 1..jobs {
                                item = shards[(me + d) % jobs]
                                    .lock()
                                    .expect("shard poisoned")
                                    .pop_front();
                                if item.is_some() {
                                    break;
                                }
                            }
                        }
                        if item.is_none() && spill_high_water > 0 {
                            for d in 0..jobs {
                                let mut guard =
                                    spills[(me + d) % jobs].lock().expect("spill poisoned");
                                if let Some((depth, picks)) =
                                    guard.as_mut().and_then(SpillFile::pop)
                                {
                                    item = Some(Job {
                                        snap: None,
                                        depth,
                                        path: picks,
                                    });
                                    break;
                                }
                            }
                        }
                        let Some(Job { snap, depth, path }) = item else {
                            if pending.load(Ordering::Acquire) == 0 {
                                break;
                            }
                            std::thread::yield_now();
                            continue;
                        };
                        // Rematerialize path-only items (spilled or resumed)
                        // by replaying their channel picks from the seed.
                        // Faults key on the global send sequence, which the
                        // replay reproduces exactly.
                        let snapshot = match snap {
                            Some(s) => s,
                            None => {
                                sim.restore(&my_seed);
                                for &pick in &path {
                                    let channel = ChannelId::from_index(pick as usize);
                                    if batch {
                                        sim.step_channel_batch(channel, u64::MAX)
                                            .expect("replayed channel has a message");
                                    } else {
                                        sim.step_channel(channel)
                                            .expect("replayed channel has a message");
                                    }
                                }
                                sim.snapshot()
                            }
                        };
                        sim.restore(&snapshot);
                        let state = state_of(&sim);
                        if let Err(e) = safety(&state) {
                            note_violation(
                                &mut violations.lock().expect("violations poisoned"),
                                format!("safety: {e}"),
                            );
                        }
                        if state.is_quiescent() {
                            quiescent.fetch_add(1, Ordering::Relaxed);
                            if let Err(e) = at_quiescence(&state) {
                                note_violation(
                                    &mut violations.lock().expect("violations poisoned"),
                                    format!("at quiescence: {e}"),
                                );
                            }
                        } else if depth >= limits.max_depth {
                            // Depth pruning is permanent: the skipped
                            // subtree is unrecoverable, unlike a transient
                            // budget stop whose frontier stays intact.
                            pruned.store(true, Ordering::Release);
                        } else {
                            for channel in sim.ready_channels() {
                                sim.restore(&snapshot);
                                if batch {
                                    sim.step_channel_batch(channel, u64::MAX)
                                        .expect("ready channel has a message");
                                } else {
                                    sim.step_channel(channel)
                                        .expect("ready channel has a message");
                                }
                                let fp = config_fingerprint(&sim, horizon);
                                if !index.insert(fp) {
                                    continue;
                                }
                                // Invariant (resume convergence): an
                                // admitted successor is pushed before any
                                // stop condition is honoured, and the
                                // current item is expanded to completion —
                                // so admitted = processed ∪ frontier at
                                // every checkpoint.
                                let succ_path = if track_paths {
                                    let mut p = path.clone();
                                    p.push(channel.index() as u32);
                                    p
                                } else {
                                    Vec::new()
                                };
                                pending.fetch_add(1, Ordering::AcqRel);
                                let spill_me = {
                                    let mut shard = shards[me].lock().expect("shard poisoned");
                                    shard.push_back(Job {
                                        snap: Some(sim.snapshot()),
                                        depth: depth + 1,
                                        path: succ_path,
                                    });
                                    // High water: evict the coldest item
                                    // (shard front — the one LIFO order
                                    // touches last) to disk.
                                    (spill_high_water > 0 && shard.len() > spill_high_water)
                                        .then(|| shard.pop_front())
                                        .flatten()
                                };
                                if let Some(cold) = spill_me {
                                    let mut guard = spills[me].lock().expect("spill poisoned");
                                    guard
                                        .get_or_insert_with(|| {
                                            SpillFile::create(
                                                spill_dir.expect("spill dir exists"),
                                                me,
                                            )
                                        })
                                        .push(cold.depth, &cold.path);
                                    spilled_total.fetch_add(1, Ordering::Relaxed);
                                }
                                if index.admitted() > limits.max_configs
                                    || index.bytes().total() > limits.max_state_bytes
                                {
                                    stop.store(true, Ordering::Release);
                                }
                            }
                        }
                        pending.fetch_sub(1, Ordering::AcqRel);
                        if let Some(target) = leg_target {
                            if index.admitted() >= target {
                                pause.store(true, Ordering::Release);
                            }
                        }
                    }
                });
            }
        });

        // A checkpoint is written after *every* leg — including the final
        // one, whose (possibly empty) frontier makes resuming idempotent.
        if let Some(plan) = &config.checkpoint {
            let mut frontier: Vec<FrontierItem> = Vec::new();
            for shard in &shards {
                for job in shard.lock().expect("shard poisoned").iter() {
                    frontier.push(FrontierItem {
                        depth: job.depth,
                        picks: job.path.clone(),
                    });
                }
            }
            for spill in &spills {
                if let Some(sf) = spill.lock().expect("spill poisoned").as_ref() {
                    frontier.extend(sf.items());
                }
            }
            debug_assert_eq!(
                frontier.len(),
                pending.load(Ordering::Acquire),
                "every pending item must be in a shard or a spill file"
            );
            let ck = ExploreCheckpoint {
                meta: plan.meta.clone(),
                dedup: config.dedup.to_string(),
                admitted: index.admitted(),
                quiescent: quiescent.load(Ordering::Relaxed),
                spilled: spilled_total.load(Ordering::Relaxed),
                pruned: pruned.load(Ordering::Acquire),
                violations: violations.lock().expect("violations poisoned").clone(),
                shards: index.save_shards(),
                frontier,
            };
            ck.write_atomic(&plan.path)
                .expect("checkpoint write failed");
            checkpoints_written += 1;
        }
        if stop.load(Ordering::Acquire)
            || pending.load(Ordering::Acquire) == 0
            || config.checkpoint.is_none()
        {
            break;
        }
    }

    // Spill hygiene: files delete themselves on drop; the subdir goes last.
    drop(spills);
    if let Some(dir) = spill_dir {
        let _ = std::fs::remove_dir(&dir);
    }

    let bytes = index.bytes();
    ExploreReport {
        configs: index.admitted(),
        quiescent_configs: quiescent.into_inner(),
        violations: violations.into_inner().expect("violations poisoned"),
        complete: !pruned.into_inner() && !stop.into_inner(),
        visited_bytes: bytes.total(),
        visited_heap_bytes: bytes.heap,
        visited_file_bytes: bytes.file,
        spilled_jobs: spilled_total.into_inner(),
        checkpoints_written,
    }
}

/// The previous-generation explorer, kept as a differential-testing oracle.
///
/// Instead of snapshots and fingerprints it re-implements delivery on a bare
/// `(queues, nodes)` state and deduplicates through *full* state tuples
/// `(queue counts, terminated flags, caller-supplied node keys)` — storage
/// per configuration grows with the ring, which is exactly the limitation
/// the snapshot-layer [`explore`] removes. Kept verbatim so tests can assert
/// that the rewrite enumerates the identical state space.
pub fn explore_reference<P, K, FM, FF, FS, FQ>(
    wiring: &Wiring,
    make_nodes: FM,
    fingerprint: FF,
    safety: FS,
    at_quiescence: FQ,
    limits: ExploreLimits,
) -> ExploreReport
where
    P: Protocol<Pulse> + Clone,
    K: Eq + Hash,
    FM: FnOnce() -> Vec<P>,
    FF: Fn(&P) -> K,
    FS: Fn(&ExploreState<P>) -> Result<(), String>,
    FQ: Fn(&ExploreState<P>) -> Result<(), String>,
{
    let n = wiring.len();
    let channels = wiring.channel_count();
    // What one dedup entry costs: the heap payload of the three vectors.
    let bytes_per_config = channels * std::mem::size_of::<u32>() + n + n * std::mem::size_of::<K>();

    // Initial configuration: run every on_start.
    let mut nodes = make_nodes();
    assert_eq!(nodes.len(), n, "one protocol instance per node");
    let mut queues = vec![0u32; channels];
    let mut outbox: Vec<(usize, Pulse)> = Vec::new();
    let mut sent = 0u64;
    for (v, node) in nodes.iter_mut().enumerate() {
        let mut ctx = Context::new_internal(v, &mut outbox);
        node.on_start(&mut ctx);
        for (port, _msg) in outbox.drain(..) {
            queues[ChannelId::new(v, Port::from_index(port)).index()] += 1;
            sent += 1;
        }
    }
    let terminated: Vec<bool> = nodes.iter().map(Protocol::is_terminated).collect();
    let initial = ExploreState {
        nodes,
        queues,
        terminated,
        sent,
    };

    let key_of = |state: &ExploreState<P>| -> (Vec<u32>, Vec<bool>, Vec<K>) {
        (
            state.queues.clone(),
            state.terminated.clone(),
            state.nodes.iter().map(&fingerprint).collect(),
        )
    };

    let mut visited: HashSet<(Vec<u32>, Vec<bool>, Vec<K>)> = HashSet::new();
    let mut violations: Vec<String> = Vec::new();
    let mut quiescent_configs = 0usize;
    let mut complete = true;
    let mut budget_exhausted = false;

    visited.insert(key_of(&initial));
    // DFS stack of (state, depth).
    let mut stack: Vec<(ExploreState<P>, usize)> = vec![(initial, 0)];

    while let Some((state, depth)) = stack.pop() {
        if let Err(e) = safety(&state) {
            note_violation(&mut violations, format!("safety: {e}"));
        }
        if state.is_quiescent() {
            quiescent_configs += 1;
            if let Err(e) = at_quiescence(&state) {
                note_violation(&mut violations, format!("at quiescence: {e}"));
            }
            continue;
        }
        if depth >= limits.max_depth {
            complete = false;
            continue;
        }
        // Branch on every non-empty channel.
        for ch in 0..state.queues.len() {
            if state.queues[ch] == 0 {
                continue;
            }
            let mut next = state.clone();
            next.queues[ch] -= 1;
            let channel = ChannelId::from_index(ch);
            let (dst, port) = wiring.endpoint(channel);
            if !next.terminated[dst] {
                let mut outbox: Vec<(usize, Pulse)> = Vec::new();
                {
                    let mut ctx = Context::new_internal(dst, &mut outbox);
                    next.nodes[dst].on_message(port, Pulse, &mut ctx);
                }
                for (out_port, _msg) in outbox.drain(..) {
                    next.queues[ChannelId::new(dst, Port::from_index(out_port)).index()] += 1;
                    next.sent += 1;
                }
                next.terminated[dst] = next.nodes[dst].is_terminated();
            }
            let key = key_of(&next);
            if visited.contains(&key) {
                continue;
            }
            // Same accounting rule as [`explore`]: only new entries pay.
            // A config whose key was already present above costs nothing —
            // this prospective (visited.len() + 1) charge must only ever be
            // applied to a key that is actually about to be inserted, and
            // only here. (An earlier revision re-evaluated this charge after
            // the loop as well, double-counting the key and aborting runs
            // whose budget was exactly tight; `budget_exhausted` records the
            // one legitimate trigger site.)
            if visited.len() >= limits.max_configs
                || (visited.len() + 1) * bytes_per_config > limits.max_state_bytes
            {
                complete = false;
                budget_exhausted = true;
                break;
            }
            visited.insert(key);
            stack.push((next, depth + 1));
        }
        if budget_exhausted {
            break;
        }
    }

    ExploreReport {
        configs: visited.len(),
        quiescent_configs,
        violations,
        complete,
        visited_bytes: visited.len() * bytes_per_config,
        visited_heap_bytes: visited.len() * bytes_per_config,
        visited_file_bytes: 0,
        spilled_jobs: 0,
        checkpoints_written: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::Fingerprint;
    use crate::topology::RingSpec;

    /// Forwards every pulse, absorbing the `id`-th — a miniature
    /// Algorithm 1 used to validate the explorer itself.
    #[derive(Clone, Debug)]
    struct MiniAlg1 {
        id: u32,
        rho: u32,
    }

    impl Protocol<Pulse> for MiniAlg1 {
        type Output = bool;
        fn on_start(&mut self, ctx: &mut Context<'_, Pulse>) {
            ctx.send(Port::One, Pulse);
        }
        fn on_message(&mut self, _p: Port, _m: Pulse, ctx: &mut Context<'_, Pulse>) {
            self.rho += 1;
            if self.rho != self.id {
                ctx.send(Port::One, Pulse);
            }
        }
        fn output(&self) -> Option<bool> {
            Some(self.rho == self.id)
        }
    }

    impl Snapshot for MiniAlg1 {
        type State = (u32, u32);
        fn extract(&self) -> Self::State {
            (self.id, self.rho)
        }
        fn restore(&mut self, state: &Self::State) {
            (self.id, self.rho) = *state;
        }
        fn fingerprint(&self) -> u64 {
            let mut fp = Fingerprint::new();
            fp.write_u64(u64::from(self.id));
            fp.write_u64(u64::from(self.rho));
            fp.finish()
        }
    }

    /// The default configuration at `jobs` workers.
    fn workers(jobs: usize) -> ExploreConfig {
        ExploreConfig {
            jobs,
            ..ExploreConfig::default()
        }
    }

    fn mini_ring() -> Vec<MiniAlg1> {
        vec![
            MiniAlg1 { id: 1, rho: 0 },
            MiniAlg1 { id: 3, rho: 0 },
            MiniAlg1 { id: 2, rho: 0 },
        ]
    }

    fn mini_safety(state: &ExploreState<MiniAlg1>) -> Result<(), String> {
        // Corollary 14 analogue: counters never exceed ID_max.
        if state.nodes.iter().any(|n| n.rho > 3) {
            Err("rho exceeded ID_max".into())
        } else {
            Ok(())
        }
    }

    fn mini_quiescence(state: &ExploreState<MiniAlg1>) -> Result<(), String> {
        // Every quiescent configuration: all counters at ID_max.
        if state.nodes.iter().all(|n| n.rho == 3) {
            Ok(())
        } else {
            Err(format!(
                "quiescent with counters {:?}",
                state.nodes.iter().map(|n| n.rho).collect::<Vec<_>>()
            ))
        }
    }

    #[test]
    fn explores_all_schedules_of_mini_alg1() {
        let spec = RingSpec::oriented(vec![1, 3, 2]);
        let report = explore(
            &spec.wiring(),
            mini_ring,
            mini_safety,
            mini_quiescence,
            &workers(1),
        );
        assert!(report.complete, "state space should be exhausted");
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.configs > 10, "nontrivial state space");
        assert!(report.quiescent_configs >= 1);
        assert_eq!(report.visited_bytes, report.configs * 8);
    }

    #[test]
    fn snapshot_explorer_matches_the_reference() {
        let spec = RingSpec::oriented(vec![1, 3, 2]);
        let snap = explore(
            &spec.wiring(),
            mini_ring,
            mini_safety,
            mini_quiescence,
            &workers(1),
        );
        let reference = explore_reference(
            &spec.wiring(),
            mini_ring,
            |node| (node.id, node.rho),
            mini_safety,
            mini_quiescence,
            ExploreLimits::default(),
        );
        assert_eq!(snap.configs, reference.configs);
        assert_eq!(snap.quiescent_configs, reference.quiescent_configs);
        assert!(snap.complete && reference.complete);
        assert!(
            snap.visited_bytes < reference.visited_bytes,
            "fingerprints ({}) must be cheaper than tuples ({})",
            snap.visited_bytes,
            reference.visited_bytes
        );
    }

    #[test]
    fn byte_budget_starves_the_reference_first() {
        // Pick a budget that covers the full fingerprint index but not the
        // reference's tuple index: the snapshot explorer completes, the
        // reference cannot.
        let spec = RingSpec::oriented(vec![1, 3, 2]);
        let full = explore(
            &spec.wiring(),
            mini_ring,
            mini_safety,
            mini_quiescence,
            &workers(1),
        );
        assert!(full.complete);
        let budget = ExploreLimits {
            max_state_bytes: full.visited_bytes + 8,
            ..ExploreLimits::default()
        };
        let snap = explore(
            &spec.wiring(),
            mini_ring,
            mini_safety,
            mini_quiescence,
            &ExploreConfig {
                limits: budget,
                ..workers(1)
            },
        );
        assert!(snap.complete, "snapshot explorer fits in its own footprint");
        let reference = explore_reference(
            &spec.wiring(),
            mini_ring,
            |node| (node.id, node.rho),
            mini_safety,
            mini_quiescence,
            budget,
        );
        assert!(!reference.complete, "tuple index must exceed the budget");
        assert!(reference.configs < snap.configs);
    }

    #[test]
    fn reference_bytes_are_exactly_per_config() {
        // Satellite audit: every dedup entry must be charged exactly once.
        let spec = RingSpec::oriented(vec![1, 3, 2]);
        let n = spec.wiring().len();
        let channels = spec.wiring().channel_count();
        let bytes_per_config =
            channels * std::mem::size_of::<u32>() + n + n * std::mem::size_of::<(u32, u32)>();
        for max_depth in [4, 8, usize::MAX] {
            let report = explore_reference(
                &spec.wiring(),
                mini_ring,
                |node| (node.id, node.rho),
                mini_safety,
                mini_quiescence,
                ExploreLimits {
                    max_depth,
                    ..ExploreLimits::default()
                },
            );
            assert_eq!(
                report.visited_bytes,
                report.configs * bytes_per_config,
                "at max_depth={max_depth}: a re-queued config must not be re-charged"
            );
        }
    }

    /// Node 0 fires one pulse out of each port at start and echoes every
    /// received pulse back; node 1 goes quiet or bounces forever depending
    /// on which port its first pulse arrived on. On the n=2 double edge
    /// this yields exactly the DFS shape that exposed the reference
    /// explorer's byte double-count: the bouncing subtree is explored first
    /// (tripping the depth limit), while the quiet branch — whose quiescent
    /// child is the run's final dedup insert — lingers at the stack bottom.
    #[derive(Clone, Debug)]
    struct EchoFork {
        node: usize,
        first: Option<Port>,
        received: u32,
    }

    impl Protocol<Pulse> for EchoFork {
        type Output = ();
        fn on_start(&mut self, ctx: &mut Context<'_, Pulse>) {
            if self.node == 0 {
                ctx.send(Port::Zero, Pulse);
                ctx.send(Port::One, Pulse);
            }
        }
        fn on_message(&mut self, p: Port, _m: Pulse, ctx: &mut Context<'_, Pulse>) {
            self.received += 1;
            if self.node == 0 {
                ctx.send(p, Pulse);
            } else if *self.first.get_or_insert(p) == Port::Zero {
                ctx.send(Port::One, Pulse);
            }
        }
        fn output(&self) -> Option<()> {
            None
        }
    }

    #[test]
    fn tight_budget_does_not_abort_a_depth_limited_reference_run() {
        // Regression test for the double-count: with a depth limit already
        // marking the run incomplete, a byte budget that exactly covers the
        // visited set used to trip the (visited + 1) re-charge after the
        // branch loop and abort with the quiet branch's quiescent
        // configuration still on the stack — uncounted, its at-quiescence
        // predicate never run.
        let spec = RingSpec::oriented(vec![1, 2]);
        let ring = || -> Vec<EchoFork> {
            (0..2)
                .map(|node| EchoFork {
                    node,
                    first: None,
                    received: 0,
                })
                .collect()
        };
        let key = |n: &EchoFork| (n.node, n.first.map(|p| p as u8), n.received);
        let max_depth = 4;
        let unlimited = explore_reference(
            &spec.wiring(),
            ring,
            key,
            |_| Ok(()),
            |_| Err("flagged".into()),
            ExploreLimits {
                max_depth,
                ..ExploreLimits::default()
            },
        );
        assert!(!unlimited.complete, "depth limit must bite for this test");
        assert_eq!(unlimited.quiescent_configs, 1);
        let tight = explore_reference(
            &spec.wiring(),
            ring,
            key,
            |_| Ok(()),
            |_| Err("flagged".into()),
            ExploreLimits {
                max_depth,
                max_state_bytes: unlimited.visited_bytes,
                ..ExploreLimits::default()
            },
        );
        assert_eq!(tight.configs, unlimited.configs);
        assert_eq!(
            tight.quiescent_configs, 1,
            "an exactly-tight budget must not skip the queued quiescent config"
        );
        assert_eq!(
            tight.violations, unlimited.violations,
            "skipping the quiescent config would silently drop its violation"
        );
        assert_eq!(tight.visited_bytes, unlimited.visited_bytes);
    }

    #[test]
    fn every_worker_count_matches_the_single_worker_run() {
        let spec = RingSpec::oriented(vec![1, 3, 2]);
        let single = explore(
            &spec.wiring(),
            mini_ring,
            mini_safety,
            mini_quiescence,
            &workers(1),
        );
        for jobs in [2, 4, 8] {
            let parallel = explore(
                &spec.wiring(),
                mini_ring,
                mini_safety,
                mini_quiescence,
                &workers(jobs),
            );
            assert_eq!(parallel.configs, single.configs, "jobs={jobs}");
            assert_eq!(
                parallel.quiescent_configs, single.quiescent_configs,
                "jobs={jobs}"
            );
            assert_eq!(parallel.visited_bytes, single.visited_bytes);
            assert!(parallel.complete);
            assert!(parallel.violations.is_empty(), "{:?}", parallel.violations);
        }
    }

    #[test]
    fn queue_backends_enumerate_the_same_state_space() {
        // The visited set, quiescent count, and verdict must not depend on
        // how the per-channel queues are stored.
        let spec = RingSpec::oriented(vec![1, 3, 2]);
        let single = explore(
            &spec.wiring(),
            mini_ring,
            mini_safety,
            mini_quiescence,
            &workers(1),
        );
        for backend in QueueBackend::ALL {
            let report = explore(
                &spec.wiring(),
                mini_ring,
                mini_safety,
                mini_quiescence,
                &ExploreConfig {
                    jobs: 1,
                    backend,
                    ..ExploreConfig::default()
                },
            );
            assert_eq!(report.configs, single.configs, "{backend}");
            assert_eq!(
                report.quiescent_configs, single.quiescent_configs,
                "{backend}"
            );
            assert!(report.complete, "{backend}");
            assert!(report.violations.is_empty(), "{backend}");
        }
    }

    #[test]
    fn batched_successors_keep_fingerprints_and_verdicts() {
        // Macro-step exploration visits the run-boundary subset of the
        // state space, with every configuration hashing exactly as the
        // per-pulse explorer hashes it.
        let spec = RingSpec::oriented(vec![1, 3, 2]);
        let per_pulse = explore(
            &spec.wiring(),
            mini_ring,
            mini_safety,
            mini_quiescence,
            &ExploreConfig {
                jobs: 1,
                ..ExploreConfig::default()
            },
        );
        let batched = explore(
            &spec.wiring(),
            mini_ring,
            mini_safety,
            mini_quiescence,
            &ExploreConfig {
                jobs: 1,
                batch: true,
                ..ExploreConfig::default()
            },
        );
        assert!(batched.complete);
        assert!(batched.violations.is_empty(), "{:?}", batched.violations);
        assert!(batched.quiescent_configs >= 1);
        assert!(
            batched.configs <= per_pulse.configs,
            "macro-steps expand a subset of interleavings"
        );

        // Fingerprint identity: a fused run-delivery lands on the same
        // 64-bit fingerprint as pulse-by-pulse delivery of the same run.
        let build = || -> Simulation<Pulse, MiniAlg1> {
            Simulation::with_backend(
                spec.wiring(),
                mini_ring(),
                Box::new(FifoScheduler::new()),
                QueueBackend::Counter,
            )
        };
        let mut fused = build();
        fused.start();
        // Find an empty channel and inject two pulses: their consecutive
        // sequence numbers form a genuine head run of 2.
        let ready = fused.ready_channels();
        let channel = (0..6)
            .map(ChannelId::from_index)
            .find(|c| !ready.contains(c))
            .expect("MiniAlg1 leaves the counterclockwise channels empty");
        fused.inject_run(channel, Pulse, 2);
        let mut stepped = build();
        stepped.start();
        stepped.inject_run(channel, Pulse, 2);
        let (_, count) = fused
            .step_channel_batch(channel, u64::MAX)
            .expect("ready channel");
        assert_eq!(count, 2, "the injected pulse extends the head run");
        for _ in 0..count {
            stepped.step_channel(channel).expect("ready channel");
        }
        assert_eq!(fused.fingerprint(), stepped.fingerprint());
    }

    #[test]
    fn mmap_matches_exact_out_of_core() {
        let spec = RingSpec::oriented(vec![1, 3, 2]);
        let exact = explore(
            &spec.wiring(),
            mini_ring,
            mini_safety,
            mini_quiescence,
            &workers(1),
        );
        let dir = std::env::temp_dir().join(unique_name("co-ring-test-mmap"));
        std::fs::create_dir_all(&dir).expect("test scratch dir");
        for jobs in [1, 4] {
            let mmap = explore(
                &spec.wiring(),
                mini_ring,
                mini_safety,
                mini_quiescence,
                &ExploreConfig {
                    jobs,
                    dedup: DedupKind::Mmap { budget: 1 << 16 },
                    scratch_dir: Some(dir.clone()),
                    ..ExploreConfig::default()
                },
            );
            // State-space identity with the exact backend: the mmap table
            // is a set, not a filter.
            assert_eq!(mmap.configs, exact.configs, "jobs={jobs}");
            assert_eq!(
                mmap.quiescent_configs, exact.quiescent_configs,
                "jobs={jobs}"
            );
            assert!(mmap.complete);
            assert!(mmap.violations.is_empty(), "{:?}", mmap.violations);
            // The footprint is file-backed, not heap.
            assert_eq!(mmap.visited_heap_bytes, 0);
            assert!(mmap.visited_file_bytes > 0);
            assert_eq!(mmap.visited_bytes, mmap.visited_file_bytes);
        }
        // All per-run scratch subdirs were removed on drop.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .expect("scratch dir readable")
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn spilled_frontier_explores_the_same_state_space() {
        let spec = RingSpec::oriented(vec![1, 3, 2]);
        let plain = explore(
            &spec.wiring(),
            mini_ring,
            mini_safety,
            mini_quiescence,
            &ExploreConfig {
                jobs: 2,
                ..ExploreConfig::default()
            },
        );
        let dir = std::env::temp_dir().join(unique_name("co-ring-test-spill"));
        std::fs::create_dir_all(&dir).expect("test scratch dir");
        let spilled = explore(
            &spec.wiring(),
            mini_ring,
            mini_safety,
            mini_quiescence,
            &ExploreConfig {
                jobs: 2,
                // A tiny high-water mark forces heavy spill traffic.
                spill_high_water: 2,
                scratch_dir: Some(dir.clone()),
                ..ExploreConfig::default()
            },
        );
        assert!(
            spilled.spilled_jobs > 0,
            "a high-water mark of 2 must force spills"
        );
        assert_eq!(spilled.configs, plain.configs);
        assert_eq!(spilled.quiescent_configs, plain.quiescent_configs);
        assert!(spilled.complete);
        assert!(spilled.violations.is_empty(), "{:?}", spilled.violations);
        // Spill files and their subdir are gone.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .expect("scratch dir readable")
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let _ = std::fs::remove_dir(&dir);
    }

    fn sorted(mut v: Vec<String>) -> Vec<String> {
        v.sort();
        v
    }

    #[test]
    fn checkpoint_kill_and_resume_reproduces_the_uninterrupted_run() {
        let spec = RingSpec::oriented(vec![1, 3, 2]);
        // A safety predicate with a handful of distinct, state-derived
        // messages (well under the 16-message cap, so the *set* is
        // discovery-order-independent): flag every node whose counter
        // passes through its own id.
        let spicy = |s: &ExploreState<MiniAlg1>| -> Result<(), String> {
            mini_safety(s)?;
            match s.nodes.iter().find(|n| n.rho == n.id && n.rho > 0) {
                Some(n) => Err(format!("rho hit id {}", n.id)),
                None => Ok(()),
            }
        };
        let uninterrupted = explore(
            &spec.wiring(),
            mini_ring,
            spicy,
            mini_quiescence,
            &ExploreConfig {
                jobs: 2,
                ..ExploreConfig::default()
            },
        );
        assert!(uninterrupted.complete);
        assert!(!uninterrupted.violations.is_empty());

        let dir = std::env::temp_dir().join(unique_name("co-ring-test-ck"));
        std::fs::create_dir_all(&dir).expect("test scratch dir");
        let ck_path = dir.join("explore.ck");
        for kind in [DedupKind::Exact, DedupKind::Mmap { budget: 1 << 16 }] {
            // "Kill" the run mid-flight: a max_configs cut plays the role of
            // the interruption — the frontier at the stop is intact, and the
            // final checkpoint captures it.
            let cut = explore(
                &spec.wiring(),
                mini_ring,
                spicy,
                mini_quiescence,
                &ExploreConfig {
                    jobs: 2,
                    dedup: kind,
                    scratch_dir: Some(dir.clone()),
                    limits: ExploreLimits {
                        max_configs: uninterrupted.configs / 3,
                        ..ExploreLimits::default()
                    },
                    checkpoint: Some(CheckpointPlan {
                        path: ck_path.clone(),
                        every: 20,
                        meta: b"mini".to_vec(),
                    }),
                    ..ExploreConfig::default()
                },
            );
            assert!(!cut.complete, "{kind:?}: the cut must bite");
            assert!(cut.checkpoints_written >= 1, "{kind:?}");

            let ck = ExploreCheckpoint::read(&ck_path).expect("checkpoint reads back");
            assert_eq!(ck.meta, b"mini".to_vec());
            assert_eq!(ck.dedup, kind.to_string());
            assert!(!ck.is_finished(), "{kind:?}: frontier must survive the cut");

            // Resume with full limits: the run must re-converge exactly.
            let resumed = explore(
                &spec.wiring(),
                mini_ring,
                spicy,
                mini_quiescence,
                &ExploreConfig {
                    jobs: 2,
                    dedup: kind,
                    scratch_dir: Some(dir.clone()),
                    checkpoint: Some(CheckpointPlan {
                        path: ck_path.clone(),
                        every: 20,
                        meta: b"mini".to_vec(),
                    }),
                    resume: Some(ck),
                    ..ExploreConfig::default()
                },
            );
            assert_eq!(resumed.configs, uninterrupted.configs, "{kind:?}");
            assert_eq!(
                resumed.quiescent_configs, uninterrupted.quiescent_configs,
                "{kind:?}"
            );
            assert!(resumed.complete, "{kind:?}");
            // Violation discovery order is nondeterministic across workers;
            // the *set* must match byte-for-byte.
            assert_eq!(
                sorted(resumed.violations.clone()),
                sorted(uninterrupted.violations.clone()),
                "{kind:?}"
            );

            // The final checkpoint is finished; resuming it is idempotent.
            let done = ExploreCheckpoint::read(&ck_path).expect("final checkpoint");
            assert!(done.is_finished(), "{kind:?}");
            let again = explore(
                &spec.wiring(),
                mini_ring,
                spicy,
                mini_quiescence,
                &ExploreConfig {
                    jobs: 2,
                    dedup: kind,
                    scratch_dir: Some(dir.clone()),
                    resume: Some(done),
                    ..ExploreConfig::default()
                },
            );
            assert_eq!(again.configs, uninterrupted.configs, "{kind:?}");
            assert_eq!(
                again.quiescent_configs, uninterrupted.quiescent_configs,
                "{kind:?}"
            );
            std::fs::remove_file(&ck_path).expect("checkpoint file exists");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn faulted_checkpoint_resume_stays_deterministic() {
        // Replay-based resume must reproduce fault firings exactly: faults
        // key on the global send sequence, which the channel-pick replay
        // regenerates.
        let spec = RingSpec::oriented(vec![1, 3, 2]);
        let faults = FaultPlan::new().drop_seq(4);
        let base = ExploreConfig {
            jobs: 2,
            faults: faults.clone(),
            ..ExploreConfig::default()
        };
        let uninterrupted = explore(
            &spec.wiring(),
            mini_ring,
            mini_safety,
            mini_quiescence,
            &base,
        );
        assert!(uninterrupted.complete);
        assert!(!uninterrupted.violations.is_empty());

        let dir = std::env::temp_dir().join(unique_name("co-ring-test-fck"));
        std::fs::create_dir_all(&dir).expect("test scratch dir");
        let ck_path = dir.join("explore.ck");
        let cut = explore(
            &spec.wiring(),
            mini_ring,
            mini_safety,
            mini_quiescence,
            &ExploreConfig {
                limits: ExploreLimits {
                    max_configs: uninterrupted.configs / 2,
                    ..ExploreLimits::default()
                },
                checkpoint: Some(CheckpointPlan {
                    path: ck_path.clone(),
                    every: 25,
                    meta: Vec::new(),
                }),
                spill_high_water: 2,
                scratch_dir: Some(dir.clone()),
                ..base.clone()
            },
        );
        assert!(!cut.complete);
        let ck = ExploreCheckpoint::read(&ck_path).expect("checkpoint reads back");
        let resumed = explore(
            &spec.wiring(),
            mini_ring,
            mini_safety,
            mini_quiescence,
            &ExploreConfig {
                spill_high_water: 2,
                scratch_dir: Some(dir.clone()),
                resume: Some(ck),
                ..base
            },
        );
        assert_eq!(resumed.configs, uninterrupted.configs);
        assert_eq!(resumed.quiescent_configs, uninterrupted.quiescent_configs);
        assert!(resumed.complete);
        assert_eq!(
            sorted(resumed.violations.clone()),
            sorted(uninterrupted.violations.clone())
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_encoding_roundtrips_and_rejects_corruption() {
        let image = |fps: &[u64]| {
            let mut blob = Vec::new();
            put_u64(&mut blob, fps.len() as u64);
            fps.iter().for_each(|&fp| put_u64(&mut blob, fp));
            blob
        };
        let ck = ExploreCheckpoint {
            meta: b"alg1|n=4".to_vec(),
            dedup: "mmap:65536".to_string(),
            admitted: 3,
            quiescent: 17,
            spilled: 3,
            pruned: true,
            violations: vec!["safety: boom".to_string()],
            shards: vec![image(&[7, 9]), image(&[]), image(&[11])],
            frontier: vec![
                FrontierItem {
                    depth: 2,
                    picks: vec![0, 5, 3],
                },
                FrontierItem {
                    depth: 0,
                    picks: Vec::new(),
                },
            ],
        };
        let bytes = ck.encode();
        assert_eq!(ExploreCheckpoint::decode(&bytes).expect("roundtrip"), ck);
        // Truncation, trailing garbage, bad magic, bad version all fail.
        assert!(ExploreCheckpoint::decode(&bytes[..bytes.len() - 1]).is_err());
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(ExploreCheckpoint::decode(&longer).is_err());
        let mut magic = bytes.clone();
        magic[0] ^= 0xff;
        assert!(ExploreCheckpoint::decode(&magic).is_err());
        let mut version = bytes;
        version[8] = 99;
        assert!(ExploreCheckpoint::decode(&version)
            .expect_err("version check")
            .contains("version"));
        // `admitted` is recounted from the shards, not trusted.
        let bumped = ExploreCheckpoint {
            admitted: ck.admitted + 1,
            ..ck.clone()
        };
        assert!(ExploreCheckpoint::decode(&bumped.encode())
            .expect_err("admitted check")
            .contains("admitted"));
        // A shard blob cut short inside an otherwise well-formed file.
        let mut truncated = ck.clone();
        truncated.shards[0].pop();
        assert!(ExploreCheckpoint::decode(&truncated.encode())
            .expect_err("shard check")
            .contains("dedup shard 0"));
    }

    #[test]
    fn every_worker_count_detects_the_same_violations() {
        // Break the quiescence predicate so every quiescent config violates.
        let spec = RingSpec::oriented(vec![1, 3, 2]);
        let bad = |_: &ExploreState<MiniAlg1>| -> Result<(), String> { Err("always wrong".into()) };
        let run = |jobs| explore(&spec.wiring(), mini_ring, mini_safety, bad, &workers(jobs));
        let single = run(1);
        assert!(!single.violations.is_empty());
        // One worker visits in a fixed order: the list repeats verbatim.
        assert_eq!(run(1).violations, single.violations);
        assert_eq!(sorted(run(4).violations), sorted(single.violations.clone()));
    }

    #[test]
    fn explore_respects_limits() {
        let spec = RingSpec::oriented(vec![1, 2]);
        let jobs = 4;
        let report = explore(
            &spec.wiring(),
            || vec![MiniAlg1 { id: 50, rho: 0 }, MiniAlg1 { id: 60, rho: 0 }],
            |_| Ok(()),
            |_| Ok(()),
            &ExploreConfig {
                jobs,
                limits: ExploreLimits {
                    max_configs: 16,
                    max_depth: 8,
                    max_state_bytes: usize::MAX,
                },
                ..ExploreConfig::default()
            },
        );
        assert!(!report.complete);
        // Workers race to the limit and always finish expanding the item in
        // hand (the resume-convergence invariant), so the overshoot is
        // bounded by one branching factor (here ≤ 4 channels) per worker.
        assert!(
            report.configs <= 16 + jobs * 4,
            "configs={}",
            report.configs
        );
    }

    #[test]
    fn faulty_exploration_finds_the_deadlock_and_stays_deterministic() {
        // Exhaustive exploration under a FaultPlan: dropping the fifth send
        // (seq 4 — *which* pulse that is depends on the delivery order, so
        // the fault-aware fingerprint is load-bearing here) starves the
        // counters and some schedule must reach quiescence early, violating
        // the all-counters-at-ID_max predicate. The clean run stays green.
        let spec = RingSpec::oriented(vec![1, 3, 2]);
        let clean = explore(
            &spec.wiring(),
            mini_ring,
            mini_safety,
            mini_quiescence,
            &ExploreConfig::default(),
        );
        assert!(clean.complete && clean.violations.is_empty());
        let faults = FaultPlan::new().drop_seq(4);
        let run = |jobs: usize| {
            explore(
                &spec.wiring(),
                mini_ring,
                mini_safety,
                mini_quiescence,
                &ExploreConfig {
                    jobs,
                    faults: faults.clone(),
                    ..ExploreConfig::default()
                },
            )
        };
        let faulty = run(1);
        assert!(faulty.complete);
        assert!(
            !faulty.violations.is_empty(),
            "a dropped pulse must starve some schedule short of quiescence targets"
        );
        // Exact-backend exploration is deterministic in the worker count.
        let faulty4 = run(4);
        assert_eq!(faulty.configs, faulty4.configs);
        assert_eq!(faulty.quiescent_configs, faulty4.quiescent_configs);
        assert_eq!(faulty.violations.is_empty(), faulty4.violations.is_empty());
    }

    #[test]
    fn reference_respects_limits() {
        let spec = RingSpec::oriented(vec![1, 2]);
        let limits = ExploreLimits {
            max_configs: 16,
            max_depth: 8,
            max_state_bytes: usize::MAX,
        };
        let report = explore_reference(
            &spec.wiring(),
            || vec![MiniAlg1 { id: 50, rho: 0 }, MiniAlg1 { id: 60, rho: 0 }],
            |node| node.rho,
            |_| Ok(()),
            |_| Ok(()),
            limits,
        );
        assert!(!report.complete);
        assert!(report.configs <= 17);
    }
}
