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
//! In the content-oblivious model every message is a bare pulse, so a
//! configuration is just the node states ([`Snapshot`]), a pulse count per
//! channel, the terminated flags and the send counters: a [`PulseConfig`],
//! the explorer's frontier item. A delivery changes only the receiving
//! node, one count and that node's out-channel counts, so [`explore`]
//! branches with a [`Probe`]: it clones the receiving node, delivers one
//! pulse and updates its parent's hash sum by the terms of the words and
//! the node that changed, and builds a record only for a successor whose
//! fingerprint is new. The engine starts the initial configuration and
//! nothing else. Visited configurations are deduplicated by their stable
//! 64-bit fingerprint ([`config_fingerprint`]) — **8 bytes per
//! configuration** regardless of ring size. It runs on a
//! pool of `jobs` work-stealing workers; with `jobs: 1` the visit order,
//! and so the order of reported violations, is deterministic. The
//! previous-generation explorer is kept as [`explore_reference`]: it stores
//! full `(queues, terminated, node-keys)` tuples per configuration, which
//! grows linearly with the ring and is what limited the reachable instance
//! sizes. Differential tests assert the two enumerate identical state
//! spaces where both fit in memory.
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

use crate::dedup::{unique_name, validate_shard_images, DedupKind, ShardedIndex};
use crate::engine::Topology;
use crate::faults::FaultPlan;
use crate::message::Pulse;
use crate::port::Port;
use crate::prof::{self, Phase};
use crate::sched::FifoScheduler;
use crate::sim::{swap_term, with_send_seq, Context, Protocol, Simulation};
use crate::snapshot::{put_bytes, put_str, put_u32, put_u64, ByteReader, Fingerprint, Snapshot};
use crate::topology::{ChannelId, Wiring};
use std::collections::{HashSet, VecDeque};
use std::fmt;
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
    /// explorer itself checks the dedup backend and replays every frontier
    /// path before any worker starts (see [`ResumeError`]).
    pub resume: Option<ExploreCheckpoint>,
}

impl Default for ExploreConfig {
    fn default() -> ExploreConfig {
        ExploreConfig {
            limits: ExploreLimits::default(),
            jobs: 0,
            dedup: DedupKind::Exact,
            faults: FaultPlan::new(),
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
    /// (protocol, ids, …) before handing the checkpoint to the
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
/// Version 3: fingerprints from the position-keyed sum of
/// [`Simulation::fingerprint`], and a trailing payload checksum. Version 2
/// files hold fingerprints of the chained word-at-a-time hash, version 1
/// files those of the older byte-wise hash; no configuration hashes to
/// either any more.
const CK_VERSION: u32 = 3;
/// Magic (8 bytes) and version (4 bytes).
const CK_HEADER: usize = 12;

/// The checkpoint checksum: [`Fingerprint`] over `bytes` as little-endian
/// 8-byte words, with the tail bytes mixed one at a time.
fn checksum(bytes: &[u8]) -> u64 {
    let mut fp = Fingerprint::new();
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        fp.write_u64(u64::from_le_bytes(word.try_into().expect("8B")));
    }
    fp.write_bytes(words.remainder());
    fp.finish()
}

/// Walks a checkpoint payload's layout without building anything: every
/// length prefix and count is checked against the bytes actually present
/// before [`ExploreCheckpoint::decode`] allocates for it, so a payload it
/// refuses here costs no allocation beyond the error message.
fn walk_layout(payload: &[u8]) -> Result<(), String> {
    let mut r = ByteReader::new(payload);
    r.take(CK_HEADER)?;
    r.bytes()?; // meta
    r.bytes()?; // dedup backend
    r.take(3 * 8 + 4)?; // admitted, quiescent, spilled, pruned
    for _ in 0..2 {
        // Violations, then dedup shard images.
        for _ in 0..r.len()? {
            r.bytes()?;
        }
    }
    for _ in 0..r.len()? {
        r.u64()?; // depth
        let bytes = r.len()?.checked_mul(4);
        r.take(bytes.ok_or("frontier path length overflows")?)?;
    }
    r.finish()
}

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
        let sum = checksum(&out);
        put_u64(&mut out, sum);
        out
    }

    /// Parses the on-disk format back; rejects wrong magic/version, a
    /// checksum mismatch (checked before anything else is parsed), any
    /// truncation or trailing garbage, a malformed dedup shard image, shard
    /// images no [`ShardedIndex`] could have saved (see
    /// [`validate_shard_images`]), and an `admitted` count that differs
    /// from what the shards hold. A decoded checkpoint's shards always load.
    pub fn decode(bytes: &[u8]) -> Result<ExploreCheckpoint, String> {
        let mut header = ByteReader::new(bytes);
        if header.take(8)? != CK_MAGIC {
            return Err("not a co-ring exploration checkpoint (bad magic)".into());
        }
        let version = header.u32()?;
        if version != CK_VERSION {
            let why = if version < CK_VERSION {
                ": its fingerprints come from an older hash, so resuming it would \
                 re-admit configurations it already counted"
            } else {
                ""
            };
            return Err(format!(
                "checkpoint version {version}, this build reads {CK_VERSION}{why}"
            ));
        }
        let payload_len = bytes
            .len()
            .checked_sub(8)
            .filter(|&len| len >= CK_HEADER)
            .ok_or("checkpoint truncated before its checksum")?;
        let (payload, stored) = bytes.split_at(payload_len);
        if checksum(payload) != u64::from_le_bytes(stored.try_into().expect("8B")) {
            return Err("checkpoint checksum mismatch: the file is corrupted".into());
        }
        walk_layout(payload)?;
        let mut r = ByteReader::new(payload);
        r.take(CK_HEADER)?;
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
        let stored = validate_shard_images(&shards)?;
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

/// One configuration of a pulse protocol as a flat record: every node's
/// [`Snapshot::State`] beside its fingerprint, one word per channel holding
/// its pulse count, one word per node holding its terminated flag, the send
/// counters, and the configuration's hash sum.
///
/// In the content-oblivious model every message is a bare pulse, so this
/// is the whole configuration. It is the explorer's frontier item: two
/// allocations, where a [`crate::SimSnapshot`] also carries queue runs,
/// per-port statistics, the ready order, scheduler state and the
/// clock, none of which the explorer reads. The explorer never loads one
/// into a [`Simulation`]: a [`Probe`] computes its successors from the
/// record itself, and the node fingerprints and hash sum the record keeps
/// let the probe hash a successor by updating the parent's sum instead of
/// rehashing it. Records come from [`PulseConfig::capture`] and
/// [`Probe::record`], which keep them in step with the states and
/// `words`; editing either field in place leaves them stale.
#[derive(Clone, Debug)]
pub struct PulseConfig<S> {
    /// Every node's state and its [`Snapshot::fingerprint`], in node
    /// order.
    pub nodes: Vec<(S, u64)>,
    /// The per-channel pulse counts (by [`ChannelId::index`]), then one
    /// terminated flag (0 or 1) per node.
    pub words: Vec<u32>,
    /// The next global send sequence number, which [`FaultPlan`]s trigger
    /// on ([`Simulation::send_seq`]).
    pub send_seq: u64,
    /// Pulses sent so far ([`ExploreState::sent`]).
    pub sent: u64,
    /// The configuration's hash before any send counter is mixed in: the
    /// [`Simulation::fingerprint`] of this configuration, a wrapping sum of
    /// one term per word and per node fingerprint.
    sum: u64,
}

impl<S> PulseConfig<S> {
    /// Captures `sim`'s current configuration.
    #[must_use]
    pub fn capture<P>(sim: &Simulation<Pulse, P>) -> PulseConfig<S>
    where
        P: Protocol<Pulse> + Snapshot<State = S>,
    {
        let counts = (0..sim.wiring().channel_count())
            .map(|ch| sim.queue_len(ChannelId::from_index(ch)) as u32);
        let flags = (0..sim.nodes().len()).map(|v| u32::from(sim.is_terminated(v)));
        PulseConfig {
            nodes: sim
                .nodes()
                .iter()
                .map(|node| (node.extract(), node.fingerprint()))
                .collect(),
            words: counts.chain(flags).collect(),
            send_seq: sim.send_seq(),
            sent: sim.stats().total_sent,
            sum: sim.fingerprint(),
        }
    }
}

/// The explorer's successor function on flat records.
///
/// [`Probe::load`] restores a record's node states into the
/// [`ExploreState`] the predicates read. [`Probe::probe`] then delivers one
/// pulse from a channel of that record by cloning only the receiving node,
/// and applies its sends to a copy of the counts by the engine's rules: a
/// pulse to a terminated node is consumed and ignored; every send takes
/// the next send sequence number and counts as sent;
/// [`FaultPlan::should_drop`] and [`FaultPlan::should_duplicate`] apply at
/// that number; termination latches. It returns the successor's dedup
/// fingerprint: the parent's hash sum with the terms of the changed words
/// (the delivered count, the out-channel counts, the terminated flag) and
/// of the receiving node swapped for their new ones, so a probe hashes at
/// most four words and one node fingerprint, not the whole configuration.
/// Only a successor the caller admits is built into a record
/// ([`Probe::record`]). `tests/flat_record.rs` checks every probed
/// successor and its fingerprint against [`Simulation::step_channel`].
#[derive(Debug)]
pub struct Probe<'a, P> {
    wiring: &'a Wiring,
    faults: &'a FaultPlan,
    /// The loaded configuration.
    state: ExploreState<P>,
    /// The last probed successor: its receiving node, that node after the
    /// delivery and its fingerprint, its words, its send counters and its
    /// hash sum.
    dst: usize,
    node: P,
    dst_fp: u64,
    words: Vec<u32>,
    send_seq: u64,
    sent: u64,
    sum: u64,
    outbox: Vec<(usize, Pulse)>,
}

/// Sets word `i` of `words` to `value` and swaps its hash term in `sum`.
#[inline]
fn set_word(words: &mut [u32], sum: &mut u64, i: usize, value: u32) {
    *sum = swap_term(*sum, i + 1, u64::from(words[i]), u64::from(value));
    words[i] = value;
}

impl<'a, P: Protocol<Pulse> + Snapshot + Clone> Probe<'a, P> {
    /// A probe for the ring `wiring` under `faults`. `nodes` supplies one
    /// protocol instance per node, which every [`Probe::load`] overwrites.
    ///
    /// # Panics
    ///
    /// Panics unless there is one instance per node.
    #[must_use]
    pub fn new(wiring: &'a Wiring, nodes: Vec<P>, faults: &'a FaultPlan) -> Probe<'a, P> {
        assert_eq!(nodes.len(), wiring.len(), "one protocol instance per node");
        Probe {
            wiring,
            faults,
            node: nodes[0].clone(),
            state: ExploreState {
                nodes,
                queues: Vec::new(),
                terminated: Vec::new(),
                sent: 0,
            },
            dst: 0,
            dst_fp: 0,
            words: Vec::new(),
            send_seq: 0,
            sent: 0,
            sum: 0,
            outbox: Vec::new(),
        }
    }

    /// Loads `record` as the configuration to probe from: the `parent` of
    /// every later [`Probe::probe`] and [`Probe::record`] call. Nothing is
    /// hashed: the record carries its node fingerprints and sum.
    ///
    /// # Panics
    ///
    /// Panics if `record` is not a configuration of this ring.
    pub fn load(&mut self, record: &PulseConfig<P::State>) {
        let (n, channels) = (self.state.nodes.len(), self.wiring.channel_count());
        assert!(
            record.nodes.len() == n && record.words.len() == channels + n,
            "a record of another ring"
        );
        for (node, (saved, _)) in self.state.nodes.iter_mut().zip(&record.nodes) {
            node.restore(saved);
        }
        let (counts, flags) = record.words.split_at(channels);
        self.state.queues.clear();
        self.state.queues.extend_from_slice(counts);
        self.state.terminated.clear();
        self.state
            .terminated
            .extend(flags.iter().map(|&flag| flag != 0));
        self.state.sent = record.sent;
    }

    /// The loaded configuration, as the predicates see it.
    #[must_use]
    pub fn state(&self) -> &ExploreState<P> {
        &self.state
    }

    /// Delivers one pulse from `channel` of `parent`, the loaded record,
    /// and returns the successor's dedup fingerprint — the value
    /// [`config_fingerprint`] gives the simulation
    /// [`Simulation::step_channel`] leaves — or `None` if the channel is
    /// empty.
    pub fn probe(&mut self, parent: &PulseConfig<P::State>, channel: usize) -> Option<u64> {
        let count = parent.words[channel];
        if count == 0 {
            return None;
        }
        let channels = self.state.queues.len();
        let (dst, port) = self.wiring.endpoint(ChannelId::from_index(channel));
        self.dst = dst;
        self.words.clone_from(&parent.words);
        let mut sum = parent.sum;
        set_word(&mut self.words, &mut sum, channel, count - 1);
        self.send_seq = parent.send_seq;
        self.sent = parent.sent;
        let parent_fp = parent.nodes[dst].1;
        self.dst_fp = parent_fp;
        if !self.state.terminated[dst] {
            self.node.clone_from(&self.state.nodes[dst]);
            let mut ctx = Context::buffered(dst, &mut self.outbox);
            self.node.on_message(port, Pulse, &mut ctx);
            for (out_port, _) in self.outbox.drain(..) {
                let seq = self.send_seq;
                self.send_seq += 1;
                self.sent += 1;
                let out = Topology::out_channel(self.wiring, dst, out_port);
                if self.faults.should_drop(seq) {
                    continue;
                }
                let mut count = self.words[out] + 1;
                if self.faults.should_duplicate(seq) {
                    self.send_seq += 1;
                    count += 1;
                }
                set_word(&mut self.words, &mut sum, out, count);
            }
            if self.node.is_terminated() {
                set_word(&mut self.words, &mut sum, channels + dst, 1);
            }
            self.dst_fp = self.node.fingerprint();
            let position = self.words.len() + 1 + dst;
            sum = swap_term(sum, position, parent_fp, self.dst_fp);
        }
        self.sum = sum;
        Some(match self.faults.horizon() {
            Some(h) => with_send_seq(sum, self.send_seq.min(h + 1)),
            None => sum,
        })
    }

    /// The last probed successor of `parent` as a record: `parent` with
    /// the receiving node's state and fingerprint, the words, the send
    /// counters and the sum replaced.
    #[must_use]
    pub fn record(&self, parent: &PulseConfig<P::State>) -> PulseConfig<P::State> {
        let mut nodes = parent.nodes.clone();
        // A pulse to a terminated node changes no state.
        if !self.state.terminated[self.dst] {
            nodes[self.dst] = (self.node.extract(), self.dst_fp);
        }
        PulseConfig {
            nodes,
            words: self.words.clone(),
            send_seq: self.send_seq,
            sent: self.sent,
            sum: self.sum,
        }
    }
}

/// Why [`try_explore`] refused to resume a checkpoint. Every check runs
/// before any worker starts, so a refused resume has explored nothing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ResumeError {
    /// The checkpoint was written with a different dedup backend.
    Dedup {
        /// The backend named in the checkpoint.
        checkpoint: String,
        /// The backend of this run.
        run: String,
    },
    /// A frontier item's depth is not the length of its path.
    DepthMismatch {
        /// Index of the frontier item.
        item: usize,
        /// The depth the item claims.
        depth: usize,
        /// The number of picks in its path.
        picks: usize,
    },
    /// A frontier path names a channel the ring does not have.
    NoSuchChannel {
        /// Index of the frontier item.
        item: usize,
        /// Position of the pick in the item's path.
        step: usize,
        /// The channel the pick names.
        channel: u32,
        /// Channels the ring has.
        channels: usize,
    },
    /// A frontier path delivers from a channel that holds no pulse at that
    /// point of its replay.
    EmptyChannel {
        /// Index of the frontier item.
        item: usize,
        /// Position of the pick in the item's path.
        step: usize,
        /// The channel the pick names.
        channel: u32,
    },
}

impl fmt::Display for ResumeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResumeError::Dedup { checkpoint, run } => write!(
                f,
                "checkpoint was written with dedup backend '{checkpoint}', this run uses '{run}'"
            ),
            ResumeError::DepthMismatch { item, depth, picks } => write!(
                f,
                "frontier item {item} claims depth {depth}, but its path has length {picks}"
            ),
            ResumeError::NoSuchChannel {
                item,
                step,
                channel,
                channels,
            } => write!(
                f,
                "frontier item {item}, pick {step}: channel {channel} does not exist \
                 (the ring has {channels} channels)"
            ),
            ResumeError::EmptyChannel {
                item,
                step,
                channel,
            } => write!(
                f,
                "frontier item {item}, pick {step}: channel {channel} holds no pulse \
                 at that point of the replay"
            ),
        }
    }
}

impl std::error::Error for ResumeError {}

/// Rematerializes frontier item `item`: delivers `picks` in order from the
/// started initial configuration `seed`, through the same [`Probe`] the
/// workers branch with. Faults key on the global send sequence, which the
/// replay reproduces exactly.
fn replay<P>(
    probe: &mut Probe<'_, P>,
    seed: &PulseConfig<P::State>,
    item: usize,
    picks: &[u32],
) -> Result<PulseConfig<P::State>, ResumeError>
where
    P: Protocol<Pulse> + Snapshot + Clone,
{
    let mut record = seed.clone();
    let channels = probe.wiring.channel_count();
    for (step, &channel) in picks.iter().enumerate() {
        if channel as usize >= channels {
            return Err(ResumeError::NoSuchChannel {
                item,
                step,
                channel,
                channels,
            });
        }
        probe.load(&record);
        if probe.probe(&record, channel as usize).is_none() {
            return Err(ResumeError::EmptyChannel {
                item,
                step,
                channel,
            });
        }
        record = probe.record(&record);
    }
    Ok(record)
}

/// One frontier entry: the record to expand (or `None` for items
/// loaded from a checkpoint/spill file, which are rematerialized by
/// replaying `path` from the initial configuration), its depth, and — when
/// paths are being tracked for spill/checkpoint — its replay path.
struct Job<S> {
    record: Option<PulseConfig<S>>,
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
/// is mixed in. [`Probe::probe`] returns the same value for a successor.
#[must_use]
pub fn config_fingerprint<P>(sim: &Simulation<Pulse, P>, faults: &FaultPlan) -> u64
where
    P: Protocol<Pulse> + Snapshot,
{
    sim.fingerprint_with(faults.horizon().map(|h| sim.send_seq().min(h + 1)))
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
/// shards when its own runs dry. Every worker owns a private [`Probe`] it
/// expands frontier records ([`PulseConfig`]) with, so only plain data
/// crosses threads. Deduplication goes through a [`ShardedIndex`] built
/// for the worker count ([`ShardedIndex::for_workers`]): one worker inserts
/// into one table, two or more into [`crate::dedup::FP_SHARDS`] tables
/// under their own locks, keyed by fingerprint prefix. Its checkpoint
/// images are the same either way, so a run cut with one worker count
/// resumes under another. The backend is chosen by `config.dedup`: `exact`
/// keeps the set on the heap at 8 bytes per configuration, so the explorer
/// reaches ring sizes the tuple-keyed [`explore_reference`] cannot under
/// the same [`ExploreLimits::max_state_bytes`] budget; `mmap` stores the
/// same set in files so RAM stops being the bound.
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
///
/// # Panics
///
/// Panics if `config.resume` holds a checkpoint [`try_explore`] refuses;
/// call that to get the [`ResumeError`] instead.
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
    try_explore(wiring, make_nodes, safety, at_quiescence, config)
        .unwrap_or_else(|e| panic!("cannot resume the checkpoint: {e}"))
}

/// [`explore`], with a checkpoint it cannot resume returned as a
/// [`ResumeError`] instead of a panic.
///
/// Before any worker starts, a resumed run checks the checkpoint's dedup
/// backend and replays every frontier path from the initial configuration:
/// each pick must name an existing channel that holds a pulse at that
/// point. A decoded checkpoint's checksum guards against accidental
/// corruption only, so this is what keeps a hand-edited path from
/// panicking a worker.
pub fn try_explore<P, FM, FS, FQ>(
    wiring: &Wiring,
    make_nodes: FM,
    safety: FS,
    at_quiescence: FQ,
    config: &ExploreConfig,
) -> Result<ExploreReport, ResumeError>
where
    P: Protocol<Pulse> + Snapshot + Clone,
    P::State: Send,
    FM: Fn() -> Vec<P> + Sync,
    FS: Fn(&ExploreState<P>) -> Result<(), String> + Sync,
    FQ: Fn(&ExploreState<P>) -> Result<(), String> + Sync,
{
    let jobs = effective_jobs(config.jobs);
    let limits = config.limits;
    // Replay paths are only tracked when something might persist them.
    let track_paths = config.spill_high_water > 0 || config.checkpoint.is_some();

    // Seed: the started initial configuration — also the replay origin for
    // every spilled or checkpointed frontier item. The engine starts it;
    // every later configuration comes from a probe.
    let mut seed_sim =
        Simulation::new(wiring.clone(), make_nodes(), Box::new(FifoScheduler::new()));
    seed_sim.set_faults(config.faults.clone());
    seed_sim.start();
    let seed = PulseConfig::capture(&seed_sim);
    let seed_fp = config_fingerprint(&seed_sim, &config.faults);

    if let Some(ck) = &config.resume {
        let run = config.dedup.to_string();
        if ck.dedup != run {
            return Err(ResumeError::Dedup {
                checkpoint: ck.dedup.clone(),
                run,
            });
        }
        let mut probe = Probe::new(wiring, make_nodes(), &config.faults);
        for (item, frontier) in ck.frontier.iter().enumerate() {
            if frontier.depth != frontier.picks.len() {
                return Err(ResumeError::DepthMismatch {
                    item,
                    depth: frontier.depth,
                    picks: frontier.picks.len(),
                });
            }
            replay(&mut probe, &seed, item, &frontier.picks)?;
        }
    }

    let index = ShardedIndex::for_workers(config.dedup, jobs, config.scratch_dir.as_deref());

    // One frontier shard per worker; each worker pops its own back (LIFO,
    // depth-first) and steals from other shards' fronts (oldest first,
    // which tends to hand over large subtrees).
    type Frontier<S> = Mutex<VecDeque<Job<S>>>;
    let shards: Vec<Frontier<P::State>> = (0..jobs).map(|_| Mutex::new(VecDeque::new())).collect();

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
        index
            .load_shards(&ck.shards, ck.admitted)
            .expect("a decoded checkpoint's dedup shards load");
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
                    record: None,
                    depth: item.depth,
                    path: item.picks.clone(),
                });
        }
    } else {
        index.insert(seed_fp);
        if index.bytes().total() > limits.max_state_bytes {
            // The mmap backend preallocates its table files and can blow
            // the byte budget before the first delivery: stop before
            // expanding anything.
            let bytes = index.bytes();
            return Ok(ExploreReport {
                configs: index.admitted(),
                quiescent_configs: 0,
                violations: Vec::new(),
                complete: false,
                visited_bytes: bytes.total(),
                visited_heap_bytes: bytes.heap,
                visited_file_bytes: bytes.file,
                spilled_jobs: 0,
                checkpoints_written: 0,
            });
        }
        pending.store(1, Ordering::Release);
        shards[0].lock().expect("fresh shard").push_back(Job {
            record: Some(seed.clone()),
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
        let worker = |me: usize, seed: PulseConfig<P::State>| {
            let mut probe = Probe::new(wiring, make_nodes(), &config.faults);
            loop {
                if stop.load(Ordering::Acquire) || pause.load(Ordering::Acquire) {
                    break;
                }
                // Own shard first (LIFO — depth-first), then steal from the
                // front of the others, then page back from spill files (own
                // first). Each lock is taken and released in its own statement:
                // holding the own-shard lock while probing a victim would
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
                if item.is_none() && config.spill_high_water > 0 {
                    for d in 0..jobs {
                        let mut guard = spills[(me + d) % jobs].lock().expect("spill poisoned");
                        if let Some((depth, picks)) = guard.as_mut().and_then(SpillFile::pop) {
                            item = Some(Job {
                                record: None,
                                depth,
                                path: picks,
                            });
                            break;
                        }
                    }
                }
                let Some(Job {
                    record,
                    depth,
                    path,
                }) = item
                else {
                    if pending.load(Ordering::Acquire) == 0 {
                        break;
                    }
                    std::thread::yield_now();
                    continue;
                };
                // Path-only items (spilled or resumed) are rematerialized by
                // replaying their channel picks from the seed.
                let record = match record {
                    Some(record) => record,
                    None => replay(&mut probe, &seed, 0, &path).expect(
                        "resumed paths are validated up front and spilled ones \
                         were recorded by this run",
                    ),
                };
                let t = prof::start();
                probe.load(&record);
                prof::stop(Phase::Load, t);
                let state = probe.state();
                if let Err(e) = safety(state) {
                    note_violation(
                        &mut violations.lock().expect("violations poisoned"),
                        format!("safety: {e}"),
                    );
                }
                if state.is_quiescent() {
                    quiescent.fetch_add(1, Ordering::Relaxed);
                    if let Err(e) = at_quiescence(state) {
                        note_violation(
                            &mut violations.lock().expect("violations poisoned"),
                            format!("at quiescence: {e}"),
                        );
                    }
                } else if depth >= limits.max_depth {
                    // Depth pruning is permanent: the skipped subtree is
                    // unrecoverable, unlike a transient budget stop whose
                    // frontier stays intact.
                    pruned.store(true, Ordering::Release);
                } else {
                    // Branch on every non-empty channel, in channel order; only
                    // admitted successors become records.
                    for channel in 0..wiring.channel_count() {
                        if record.words[channel] == 0 {
                            continue;
                        }
                        let t = prof::start();
                        let fp = probe.probe(&record, channel).expect("a pulse to deliver");
                        prof::stop(Phase::Probe, t);
                        let t = prof::start();
                        let admitted = index.insert(fp);
                        prof::stop(Phase::Dedup, t);
                        if !admitted {
                            continue;
                        }
                        // Invariant (resume convergence): an admitted successor
                        // is pushed before any stop condition is honoured, and
                        // the current item is expanded to completion — so
                        // admitted = processed ∪ frontier at every checkpoint.
                        let t = prof::start();
                        let succ = probe.record(&record);
                        prof::stop(Phase::Record, t);
                        let job = Job {
                            record: Some(succ),
                            depth: depth + 1,
                            path: if track_paths {
                                [path.as_slice(), &[channel as u32]].concat()
                            } else {
                                Vec::new()
                            },
                        };
                        pending.fetch_add(1, Ordering::AcqRel);
                        let spill_me = {
                            let mut shard = shards[me].lock().expect("shard poisoned");
                            shard.push_back(job);
                            // High water: evict the coldest item (shard front —
                            // the one LIFO order touches last) to disk.
                            (config.spill_high_water > 0 && shard.len() > config.spill_high_water)
                                .then(|| shard.pop_front())
                                .flatten()
                        };
                        if let Some(cold) = spill_me {
                            let mut guard = spills[me].lock().expect("spill poisoned");
                            guard
                                .get_or_insert_with(|| {
                                    SpillFile::create(
                                        spill_dir.as_deref().expect("spill dir exists"),
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
        };
        std::thread::scope(|scope| {
            for me in 0..jobs {
                let seed = seed.clone();
                scope.spawn(move || worker(me, seed));
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
    Ok(ExploreReport {
        configs: index.admitted(),
        quiescent_configs: quiescent.into_inner(),
        violations: violations.into_inner().expect("violations poisoned"),
        complete: !pruned.into_inner() && !stop.into_inner(),
        visited_bytes: bytes.total(),
        visited_heap_bytes: bytes.heap,
        visited_file_bytes: bytes.file,
        spilled_jobs: spilled_total.into_inner(),
        checkpoints_written,
    })
}

/// The previous-generation explorer, kept as a differential-testing oracle.
///
/// It clones a whole `(queues, nodes)` state per branch, with its own
/// delivery loop and no fault plan, and deduplicates through *full* state
/// tuples `(queue counts, terminated flags, caller-supplied node keys)` —
/// storage per configuration grows with the ring, which is exactly the
/// limitation the fingerprint-deduplicating [`explore`] removes. Kept
/// verbatim so tests can assert that the rewrite enumerates the identical
/// state space.
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
        let mut ctx = Context::buffered(v, &mut outbox);
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
                    let mut ctx = Context::buffered(dst, &mut outbox);
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
    use crate::dedup::FP_SHARDS;
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
        let kinds = [DedupKind::Exact, DedupKind::Mmap { budget: 1 << 16 }];
        // Cut and resume under the same worker count, and across the
        // one-table (one worker) and sixty-four-table (two workers) index.
        let jobs = [(2, 2), (1, 2), (2, 1)];
        for (kind, (cut_jobs, resume_jobs)) in
            kinds.into_iter().flat_map(|k| jobs.map(|pair| (k, pair)))
        {
            let kind_jobs = format!("{kind:?}, jobs {cut_jobs}→{resume_jobs}");
            // "Kill" the run mid-flight: a max_configs cut plays the role of
            // the interruption — the frontier at the stop is intact, and the
            // final checkpoint captures it.
            let cut = explore(
                &spec.wiring(),
                mini_ring,
                spicy,
                mini_quiescence,
                &ExploreConfig {
                    jobs: cut_jobs,
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
            assert!(!cut.complete, "{kind_jobs}: the cut must bite");
            assert!(cut.checkpoints_written >= 1, "{kind_jobs}");

            let ck = ExploreCheckpoint::read(&ck_path).expect("checkpoint reads back");
            assert_eq!(ck.meta, b"mini".to_vec());
            assert_eq!(ck.dedup, kind.to_string());
            assert!(
                !ck.is_finished(),
                "{kind_jobs}: frontier must survive the cut"
            );

            // Resume with full limits: the run must re-converge exactly.
            let resumed = explore(
                &spec.wiring(),
                mini_ring,
                spicy,
                mini_quiescence,
                &ExploreConfig {
                    jobs: resume_jobs,
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
            assert_eq!(resumed.configs, uninterrupted.configs, "{kind_jobs}");
            assert_eq!(
                resumed.quiescent_configs, uninterrupted.quiescent_configs,
                "{kind_jobs}"
            );
            assert!(resumed.complete, "{kind_jobs}");
            // Violation discovery order is nondeterministic across workers;
            // the *set* must match byte-for-byte.
            assert_eq!(
                sorted(resumed.violations.clone()),
                sorted(uninterrupted.violations.clone()),
                "{kind_jobs}"
            );

            // The final checkpoint is finished; resuming it is idempotent.
            let done = ExploreCheckpoint::read(&ck_path).expect("final checkpoint");
            assert!(done.is_finished(), "{kind_jobs}");
            let again = explore(
                &spec.wiring(),
                mini_ring,
                spicy,
                mini_quiescence,
                &ExploreConfig {
                    jobs: resume_jobs,
                    dedup: kind,
                    scratch_dir: Some(dir.clone()),
                    resume: Some(done),
                    ..ExploreConfig::default()
                },
            );
            assert_eq!(again.configs, uninterrupted.configs, "{kind_jobs}");
            assert_eq!(
                again.quiescent_configs, uninterrupted.quiescent_configs,
                "{kind_jobs}"
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

    /// A one-worker MiniAlg1 checkpoint cut at 10 configurations.
    fn cut_checkpoint() -> ExploreCheckpoint {
        let spec = RingSpec::oriented(vec![1, 3, 2]);
        let dir = std::env::temp_dir().join(unique_name("co-ring-test-picks"));
        std::fs::create_dir_all(&dir).expect("test scratch dir");
        let ck_path = dir.join("explore.ck");
        explore(
            &spec.wiring(),
            mini_ring,
            mini_safety,
            mini_quiescence,
            &ExploreConfig {
                limits: ExploreLimits {
                    max_configs: 10,
                    ..ExploreLimits::default()
                },
                checkpoint: Some(CheckpointPlan {
                    path: ck_path.clone(),
                    every: 0,
                    meta: Vec::new(),
                }),
                ..workers(1)
            },
        );
        let ck = ExploreCheckpoint::read(&ck_path).expect("checkpoint reads back");
        let _ = std::fs::remove_dir_all(&dir);
        ck
    }

    fn resume(ck: ExploreCheckpoint) -> Result<ExploreReport, ResumeError> {
        let spec = RingSpec::oriented(vec![1, 3, 2]);
        try_explore(
            &spec.wiring(),
            mini_ring,
            mini_safety,
            mini_quiescence,
            &ExploreConfig {
                resume: Some(ck),
                ..workers(1)
            },
        )
    }

    #[test]
    fn resume_refuses_paths_that_do_not_replay_before_exploring() {
        let ck = cut_checkpoint();
        let item = ck
            .frontier
            .iter()
            .position(|item| !item.picks.is_empty())
            .expect("a non-empty frontier path");
        // Every MiniAlg1 node sends on port One at start, so channel 0
        // (node 0's port Zero) is empty where each path's first pick lands.
        let mut far = ck.clone();
        far.frontier[item].picks[0] = 6;
        let mut empty = ck.clone();
        empty.frontier[item].picks[0] = 0;
        let mut other_dedup = ck.clone();
        other_dedup.dedup = "mmap:65536".into();
        let refused = [
            ResumeError::NoSuchChannel {
                item,
                step: 0,
                channel: 6,
                channels: 6,
            },
            ResumeError::EmptyChannel {
                item,
                step: 0,
                channel: 0,
            },
            ResumeError::Dedup {
                checkpoint: "mmap:65536".into(),
                run: "exact".into(),
            },
        ];
        for (bad, want) in [far, empty, other_dedup].into_iter().zip(refused) {
            assert_eq!(resume(bad).expect_err("refused"), want);
        }
        assert!(
            resume(ck)
                .expect("the untouched checkpoint resumes")
                .complete
        );
    }

    #[test]
    fn resume_refuses_a_depth_that_is_not_the_path_length() {
        // A hand-edited depth used to resume silently: past `max_depth` it
        // pruned the item, and the run reported `complete: false`.
        let ck = cut_checkpoint();
        let last = ck.frontier.len() - 1;
        let picks = ck.frontier[last].picks.len();
        for depth in [4_000_000_000, picks + 1, picks.saturating_sub(1)] {
            if depth == picks {
                continue;
            }
            let mut bad = ck.clone();
            bad.frontier[last].depth = depth;
            assert_eq!(
                resume(bad).expect_err("refused"),
                ResumeError::DepthMismatch {
                    item: last,
                    depth,
                    picks,
                }
            );
        }
    }

    #[test]
    fn faulted_fingerprint_values_are_pinned() {
        // The dedup fingerprint under a fault plan mixes the clamped send
        // counter into `Simulation::fingerprint`; CORINGCK v3 checkpoints
        // of faulted runs hold these values.
        let spec = RingSpec::oriented(vec![1, 3, 2]);
        let faults = FaultPlan::new().drop_seq(4).duplicate_seq(5);
        let mut sim = Simulation::new(spec.wiring(), mini_ring(), Box::new(FifoScheduler::new()));
        sim.set_faults(faults.clone());
        sim.start();
        for _ in 0..3 {
            sim.step();
        }
        assert_eq!(
            (sim.fingerprint(), sim.send_seq()),
            (14_868_369_542_588_901_726, 5)
        );
        assert_eq!(config_fingerprint(&sim, &faults), 6_839_187_351_640_412_027);
    }

    fn shard_image(fps: &[u64]) -> Vec<u8> {
        let mut blob = Vec::new();
        put_u64(&mut blob, fps.len() as u64);
        fps.iter().for_each(|&fp| put_u64(&mut blob, fp));
        blob
    }

    /// A stored fingerprint that belongs in `shard`: its top bits select it.
    fn in_shard(shard: usize, low: u64) -> u64 {
        ((shard as u64) << (64 - FP_SHARDS.trailing_zeros())) | low
    }

    /// A small checkpoint: 3 admitted fingerprints in shards 0 and 2.
    fn small_checkpoint() -> ExploreCheckpoint {
        let mut shards = vec![shard_image(&[]); FP_SHARDS];
        shards[0] = shard_image(&[in_shard(0, 7), in_shard(0, 9)]);
        shards[2] = shard_image(&[in_shard(2, 11)]);
        ExploreCheckpoint {
            meta: b"alg1|n=4".to_vec(),
            dedup: "mmap:65536".to_string(),
            admitted: 3,
            quiescent: 17,
            spilled: 3,
            pruned: true,
            violations: vec!["safety: boom".to_string()],
            shards,
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
        }
    }

    #[test]
    fn checkpoint_encoding_roundtrips_and_rejects_corruption() {
        let ck = small_checkpoint();
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
    fn version_1_checkpoints_are_refused() {
        let mut bytes = small_checkpoint().encode();
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        let err = ExploreCheckpoint::decode(&bytes).expect_err("v1 is refused");
        assert!(err.contains("version 1"), "{err}");
    }

    #[test]
    fn every_single_bit_flip_is_refused() {
        let bytes = small_checkpoint().encode();
        for pos in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[pos] ^= 1 << bit;
                assert!(
                    ExploreCheckpoint::decode(&flipped).is_err(),
                    "flipping bit {bit} of byte {pos} went unnoticed"
                );
            }
        }
        // Past the header, the checksum is what catches a flip.
        let mut flipped = bytes.clone();
        flipped[bytes.len() / 2] ^= 1;
        assert!(ExploreCheckpoint::decode(&flipped)
            .expect_err("checksum")
            .contains("checksum"));
    }

    #[test]
    fn shard_images_no_index_could_save_are_refused() {
        let ck = small_checkpoint();
        let mut repeated = ck.clone();
        repeated.shards[0] = shard_image(&[in_shard(0, 7), in_shard(0, 9), in_shard(0, 7)]);
        repeated.admitted += 1;
        let mut misplaced = ck.clone();
        misplaced.shards[2] = shard_image(&[in_shard(3, 11)]);
        let mut short = ck.clone();
        short.shards.pop();
        for (bad, why) in [
            (repeated, "stored twice"),
            (misplaced, "belongs in shard 3"),
            (short, "dedup shard images"),
        ] {
            let err = ExploreCheckpoint::decode(&bad.encode()).expect_err(why);
            assert!(err.contains(why), "{why}: {err}");
        }
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
