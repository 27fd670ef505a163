//! Visited-state deduplication backends for exhaustive exploration.
//!
//! The explorer ([`crate::explore::explore`]) stores one 64-bit fingerprint
//! per visited configuration and funnels every insert through a
//! [`ShardedIndex`] with a pluggable [`FingerprintStore`] backend. Both
//! backends are exact sets: no false positives, so state counts are exact
//! and deterministic.
//!
//! An index has [`FP_SHARDS`] *logical* shards, keyed by a fingerprint
//! prefix: a checkpoint stores one image per logical shard. Its *physical*
//! tables, each behind its own lock, follow the number of workers that
//! insert into it ([`ShardedIndex::for_workers`]). One worker gets one
//! table, which grows from empty once, where sixty-four small tables pay
//! for every doubling sixty-four times. Two or more get one table per
//! logical shard: two workers on one lock exhausted Algorithm 2 on eight
//! nodes about 1.7 times slower than on sixty-four (DESIGN.md §7). The
//! table count never shows in a checkpoint, so a run cut with one table
//! count resumes under the other.
//!
//! * [`ExactStore`] — a `HashSet<u64>` under a keyed folded-multiply
//!   hasher, 8 bytes of accounted heap storage per admitted configuration.
//! * [`MmapStore`] — a file-backed open-addressing table (8-byte slots,
//!   linear probing, grow-by-rehash into a doubled file) that moves the
//!   storage *out of RAM*: the table lives in a sparse file the OS page
//!   cache maps in and out on demand, so the resident footprint is
//!   working-set-sized rather than state-space-sized. This is the
//!   out-of-core backend that makes state spaces larger than RAM
//!   exhaustible.
//!
//! The mmap backend is implemented with positioned reads/writes
//! ([`std::os::unix::fs::FileExt`]) rather than a raw `mmap(2)` mapping:
//! the workspace forbids `unsafe` and carries no FFI dependency, and an
//! 8-byte `pread`/`pwrite` against a page-cached file has the same
//! out-of-core behaviour (the kernel caches hot pages, evicts cold ones)
//! without any unsafe aliasing. Set-equivalence with [`ExactStore`] is
//! asserted by property tests driving both stores with identical insert
//! sequences across grow-by-rehash boundaries.
//!
//! Both stores checkpoint to the same shard image, `count, fp…` (see
//! [`shard_image_len`]), so a checkpoint's admitted count can always be
//! recounted from its shards, and [`validate_shard_images`] can prove a
//! set of images loads into a fresh [`ShardedIndex`] before anything is
//! loaded.

use crate::snapshot::{put_u64, ByteReader, WORD_MIX};
use std::collections::hash_map::RandomState;
use std::collections::HashSet;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::hash::{BuildHasher, Hasher};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Number of logical shards of a [`ShardedIndex`]: the fingerprint prefix
/// classes a checkpoint stores one image each for, and the number of
/// physical tables of an index that two or more workers insert into, so
/// their inserts rarely meet on a lock.
pub const FP_SHARDS: usize = 64;
const SHARD_BITS: u32 = FP_SHARDS.trailing_zeros();

/// The shard that holds a stored (diffused) fingerprint: its top bits.
fn shard_of(stored: u64) -> usize {
    (stored >> (64 - SHARD_BITS)) as usize
}

/// Default initial byte budget for the mmap backend: the total size of the
/// initial table files across all tables. Small on purpose — the table
/// grows by rehash, so the budget only sets where growing starts.
pub const MMAP_DEFAULT_BUDGET: usize = 1 << 20;

/// Ceiling on an `mmap:BUDGET` initial budget: 64 GiB, 64× the largest
/// budget below it that any test, CI job or README example uses
/// (`mmap:1g`). Tables grow past their initial size by rehashing, so the
/// ceiling never caps capacity; it only refuses initial files the
/// filesystem cannot create.
pub const MMAP_MAX_BUDGET: usize = 64 << 30;

/// Which deduplication backend a [`ShardedIndex`] uses.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum DedupKind {
    /// Exact `HashSet<u64>` tables: 8 B per admitted configuration, no
    /// false positives.
    #[default]
    Exact,
    /// File-backed open-addressing tables ([`MmapStore`]): exact answers,
    /// out-of-core storage. `budget` is the initial total file size in
    /// bytes across all tables (tables grow by rehash past it).
    Mmap {
        /// Initial total table-file bytes across all tables.
        budget: usize,
    },
}

impl DedupKind {
    /// All backends, in order (mmap with its default budget).
    pub const ALL: [DedupKind; 2] = [
        DedupKind::Exact,
        DedupKind::Mmap {
            budget: MMAP_DEFAULT_BUDGET,
        },
    ];

    /// The spellings `FromStr` accepts, for use in error messages and CLI
    /// usage text. Kept in sync with [`DedupKind::ALL`] by a test.
    pub const NAMES: [&'static str; 2] = ["exact", "mmap[:BUDGET]"];

    /// Parses `"exact"` / `"mmap"` / `"mmap:BUDGET"`; see
    /// [`FromStr`] for the budget syntax.
    #[must_use]
    pub fn parse(s: &str) -> Option<DedupKind> {
        s.parse().ok()
    }
}

impl fmt::Display for DedupKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DedupKind::Exact => f.write_str("exact"),
            DedupKind::Mmap { budget } if *budget == MMAP_DEFAULT_BUDGET => f.write_str("mmap"),
            DedupKind::Mmap { budget } => write!(f, "mmap:{budget}"),
        }
    }
}

/// Error parsing a [`DedupKind`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseDedupError {
    /// Not a backend spelling; the message lists the valid ones, matching
    /// the registry's "one of: …" error style.
    Unknown(String),
    /// An `mmap:BUDGET` above [`MMAP_MAX_BUDGET`].
    BudgetTooLarge(usize),
}

impl fmt::Display for ParseDedupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseDedupError::Unknown(s) => write!(
                f,
                "unknown dedup backend '{s}'; one of: {}",
                DedupKind::NAMES.join(", ")
            ),
            ParseDedupError::BudgetTooLarge(budget) => write!(
                f,
                "mmap budget {budget} bytes is above the ceiling of {} bytes \
                 ({}G); tables grow past their initial budget by rehashing",
                MMAP_MAX_BUDGET,
                MMAP_MAX_BUDGET >> 30
            ),
        }
    }
}

impl std::error::Error for ParseDedupError {}

impl FromStr for DedupKind {
    type Err = ParseDedupError;

    /// `exact`, `mmap`, or `mmap:BUDGET` where BUDGET is a byte
    /// count with an optional `k`/`m`/`g` (×1024) suffix, e.g. `mmap:64m`.
    fn from_str(s: &str) -> Result<DedupKind, ParseDedupError> {
        match s {
            "exact" => return Ok(DedupKind::Exact),
            "mmap" => {
                return Ok(DedupKind::Mmap {
                    budget: MMAP_DEFAULT_BUDGET,
                })
            }
            _ => {}
        }
        if let Some(spec) = s.strip_prefix("mmap:") {
            let (digits, scale) = match spec.strip_suffix(['k', 'K']) {
                Some(d) => (d, 1usize << 10),
                None => match spec.strip_suffix(['m', 'M']) {
                    Some(d) => (d, 1 << 20),
                    None => match spec.strip_suffix(['g', 'G']) {
                        Some(d) => (d, 1 << 30),
                        None => (spec, 1),
                    },
                },
            };
            if let Ok(n) = digits.parse::<usize>() {
                if let Some(budget) = n.checked_mul(scale).filter(|&b| b > 0) {
                    if budget > MMAP_MAX_BUDGET {
                        return Err(ParseDedupError::BudgetTooLarge(budget));
                    }
                    return Ok(DedupKind::Mmap { budget });
                }
            }
        }
        Err(ParseDedupError::Unknown(s.to_string()))
    }
}

/// Byte accounting for a fingerprint store, split by storage class.
///
/// The exact backend is pure heap; the mmap backend is pure
/// file. Exploration byte *limits* apply to the total, but E22 and the
/// bench gate need the split: the whole point of the out-of-core backend is
/// that its `heap` stays ~0 while `file` carries the state space.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct DedupBytes {
    /// Bytes resident on the heap.
    pub heap: usize,
    /// Bytes backed by files on disk.
    pub file: usize,
}

impl DedupBytes {
    /// Heap + file bytes.
    #[must_use]
    pub fn total(&self) -> usize {
        self.heap + self.file
    }
}

/// One table's worth of fingerprint storage.
///
/// `insert` is the only mutation: it returns `true` iff the fingerprint was
/// **not** already present (i.e. the caller just admitted a new
/// configuration). Stores are exact sets: `insert` answers `false` exactly
/// for fingerprints previously inserted into the same store.
pub trait FingerprintStore: Send {
    /// Inserts `fp`, returning whether it was new to this store.
    fn insert(&mut self, fp: u64) -> bool;
    /// Number of fingerprints stored.
    fn len(&self) -> usize;
    /// Whether the store holds no fingerprint.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Bytes of storage this store accounts for, split heap/file.
    fn bytes(&self) -> DedupBytes;
    /// Streams every stored fingerprint to `visit`, in any order.
    fn for_each(&self, visit: &mut dyn FnMut(u64));
}

/// Validates one shard image (`count, fp…`) and returns its `count`: the
/// image must hold exactly `count` fingerprints after the header, no more
/// and no fewer. The checkpoint decoder recounts `admitted` through this, so
/// only this module knows the shard format.
pub fn shard_image_len(image: &[u8]) -> Result<usize, String> {
    let mut r = ByteReader::new(image);
    let count = r.len()?;
    let body = count
        .checked_mul(8)
        .ok_or_else(|| format!("shard image count {count} overflows"))?;
    r.take(body)?;
    r.finish()?;
    Ok(count)
}

/// The fingerprints of a shard image that [`shard_image_len`] accepts.
fn image_fps(image: &[u8]) -> Result<impl Iterator<Item = u64> + '_, String> {
    shard_image_len(image)?;
    Ok(image[8..]
        .chunks_exact(8)
        .map(|fp| u64::from_le_bytes(fp.try_into().expect("8B"))))
}

/// Validates the shard images of a whole index, as
/// [`ShardedIndex::save_shards`] writes them, and returns how many
/// fingerprints they hold.
///
/// Beyond each image being well formed ([`shard_image_len`]), the set must
/// be one [`ShardedIndex`] could have saved: exactly [`FP_SHARDS`] images,
/// every fingerprint in the shard its prefix selects, and no fingerprint
/// stored twice (within a shard; the prefix rule rules out repeats across
/// shards). Images that pass load into a fresh index without error, and
/// the index then admits exactly the returned count.
pub fn validate_shard_images(images: &[Vec<u8>]) -> Result<usize, String> {
    if images.len() != FP_SHARDS {
        return Err(format!(
            "{} dedup shard images, this build uses {FP_SHARDS}",
            images.len()
        ));
    }
    let mut total = 0;
    let mut fps = Vec::new();
    for (i, image) in images.iter().enumerate() {
        fps.clear();
        fps.extend(image_fps(image).map_err(|e| format!("dedup shard {i}: {e}"))?);
        total += fps.len();
        if let Some(&fp) = fps.iter().find(|&&fp| shard_of(fp) != i) {
            return Err(format!(
                "dedup shard {i}: fingerprint {fp:#018x} belongs in shard {}",
                shard_of(fp)
            ));
        }
        fps.sort_unstable();
        if let Some(pair) = fps.windows(2).find(|pair| pair[0] == pair[1]) {
            return Err(format!(
                "dedup shard {i}: fingerprint {:#018x} stored twice",
                pair[0]
            ));
        }
    }
    Ok(total)
}

/// The hasher of an [`ExactStore`]'s `HashSet`: one keyed folded multiply
/// per word, `fold((key ^ x) × φ)`, the 128-bit fold of
/// [`crate::snapshot::Fingerprint::write_u64`].
///
/// Stored values are already [`splitmix64`]-diffused, so SipHash's rounds
/// are wasted on them. A pass-through hash is not safe either: the stored
/// values of one table of a sixty-four-table index share their top 6 bits,
/// which hashbrown reads as tag bits, and a hand-written checkpoint image
/// can load values that share their low bits, which it reads as the
/// bucket. The product's high half carries every input bit into the low
/// bits, and the per-table random key keeps crafted values from lining up
/// in one probe chain.
struct FoldHasher(u64);

impl Hasher for FoldHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, x: u64) {
        let m = u128::from(self.0 ^ x) * u128::from(WORD_MIX);
        self.0 = (m as u64) ^ ((m >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Builds [`FoldHasher`]s from one key, drawn at random per table.
#[derive(Copy, Clone, Debug)]
struct FoldState(u64);

impl Default for FoldState {
    fn default() -> FoldState {
        FoldState(RandomState::new().hash_one(()))
    }
}

impl BuildHasher for FoldState {
    type Hasher = FoldHasher;

    fn build_hasher(&self) -> FoldHasher {
        FoldHasher(self.0)
    }
}

/// Exact backend: a `HashSet<u64>` under a keyed folded-multiply hash.
#[derive(Debug, Default)]
pub struct ExactStore(HashSet<u64, FoldState>);

impl ExactStore {
    /// An empty store.
    #[must_use]
    pub fn new() -> ExactStore {
        ExactStore::default()
    }
}

impl FingerprintStore for ExactStore {
    fn insert(&mut self, fp: u64) -> bool {
        self.0.insert(fp)
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn bytes(&self) -> DedupBytes {
        // Accounted cost: the 8-byte payload per entry (hash-table overhead
        // is an implementation detail).
        DedupBytes {
            heap: self.0.len() * std::mem::size_of::<u64>(),
            file: 0,
        }
    }

    fn for_each(&self, visit: &mut dyn FnMut(u64)) {
        self.0.iter().for_each(|&fp| visit(fp));
    }
}

/// Process-unique sequence for table/scratch file names.
static FILE_SEQ: AtomicU64 = AtomicU64::new(0);

/// A process-unique file/dir name: `{prefix}-{pid}-{seq}`. Shared with the
/// explorer's spill files so every on-disk artifact follows one naming
/// scheme.
pub(crate) fn unique_name(prefix: &str) -> String {
    format!(
        "{prefix}-{}-{}",
        std::process::id(),
        FILE_SEQ.fetch_add(1, Ordering::Relaxed)
    )
}

/// File-backed open-addressing backend — the out-of-core store.
///
/// Layout: a sparse file of 8-byte little-endian slots (a power of two),
/// linear probing from `splitmix64(fp) & mask`, slot value `0` meaning
/// empty (the fingerprint `0` itself is tracked by a one-bit side flag).
/// When occupancy crosses ⅞ the table grows by rehash into a fresh file of
/// twice the slots and the old file is deleted; the rehash shrinks the old
/// file as it goes, so the two files never hold much more than the new
/// table's bytes between them. All I/O is positioned
/// (`read_at`/`write_at`), so the OS page cache keeps the hot prefix of the
/// probe space resident and evicts the rest — RSS tracks the working set,
/// not the table.
///
/// I/O errors (disk full, table file unlinked underneath us) panic: a
/// dedup store that silently loses inserts would corrupt state counts.
#[derive(Debug)]
pub struct MmapStore {
    file: File,
    path: PathBuf,
    /// Slot count, always a power of two.
    slots: u64,
    /// Occupied (non-empty) slots.
    occupied: u64,
    /// Whether the fingerprint `0` (the empty-slot sentinel) is present.
    has_zero: bool,
    /// Shared total-file-bytes counter, so a [`ShardedIndex`] can report
    /// byte usage without locking every shard.
    file_bytes: Option<Arc<AtomicUsize>>,
}

impl MmapStore {
    /// Minimum slot count per table (one page of slots).
    const MIN_SLOTS: u64 = 512;
    const SLOT: u64 = 8;

    /// Creates a store whose initial table file is ~`initial_bytes` large,
    /// in `dir`. The file is removed on drop.
    pub fn in_dir(dir: &Path, initial_bytes: usize) -> io::Result<MmapStore> {
        MmapStore::with_counter(dir, initial_bytes, None)
    }

    /// Like [`MmapStore::in_dir`], registering table bytes in `counter`.
    pub fn with_counter(
        dir: &Path,
        initial_bytes: usize,
        counter: Option<Arc<AtomicUsize>>,
    ) -> io::Result<MmapStore> {
        let slots = ((initial_bytes as u64) / MmapStore::SLOT)
            .next_power_of_two()
            .max(MmapStore::MIN_SLOTS);
        let (file, path) = MmapStore::create_table(dir, slots)?;
        if let Some(c) = &counter {
            c.fetch_add((slots * MmapStore::SLOT) as usize, Ordering::Relaxed);
        }
        Ok(MmapStore {
            file,
            path,
            slots,
            occupied: 0,
            has_zero: false,
            file_bytes: counter,
        })
    }

    fn create_table(dir: &Path, slots: u64) -> io::Result<(File, PathBuf)> {
        let path = dir.join(format!("{}.fptable", unique_name("co-ring-fp")));
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)?;
        // Sparse: unwritten slots read back as zero (= empty) without
        // consuming disk blocks up front.
        file.set_len(slots * MmapStore::SLOT)?;
        Ok((file, path))
    }

    fn read_slot(file: &File, i: u64) -> u64 {
        let mut buf = [0u8; 8];
        file.read_exact_at(&mut buf, i * MmapStore::SLOT)
            .expect("mmap store: table read failed");
        u64::from_le_bytes(buf)
    }

    fn write_slot(file: &File, i: u64, fp: u64) {
        file.write_all_at(&fp.to_le_bytes(), i * MmapStore::SLOT)
            .expect("mmap store: table write failed");
    }

    /// Probes for `fp` (non-zero); returns `Ok(slot)` if present at `slot`,
    /// `Err(slot)` with the first empty slot otherwise.
    fn probe(file: &File, slots: u64, fp: u64) -> Result<u64, u64> {
        let mask = slots - 1;
        let mut i = splitmix64(fp) & mask;
        loop {
            match MmapStore::read_slot(file, i) {
                0 => return Err(i),
                v if v == fp => return Ok(i),
                _ => i = (i + 1) & mask,
            }
        }
    }

    fn grow(&mut self) {
        let new_slots = self.slots * 2;
        let (new_file, new_path) =
            MmapStore::create_table(self.path.parent().expect("table has a dir"), new_slots)
                .expect("mmap store: grow failed");
        // Rehash: stream the old table in page-sized chunks from its end,
        // re-probe every occupied slot into the doubled file, and cut each
        // chunk off the old file once it is read. Old slot `i` goes to new
        // slot `i` or `i + slots` (give or take its probe run), so the new
        // file fills behind the shrinking old one, and the pair's disk use
        // peaks near the new table's size instead of 1.5 times it.
        let mut buf = [0u8; 4096];
        let mut end = self.slots * MmapStore::SLOT;
        while end > 0 {
            let n = (end as usize).min(buf.len());
            let off = end - n as u64;
            self.file
                .read_exact_at(&mut buf[..n], off)
                .expect("mmap store: rehash read failed");
            for chunk in buf[..n].chunks_exact(8) {
                let fp = u64::from_le_bytes(chunk.try_into().expect("8B"));
                if fp != 0 {
                    let slot = MmapStore::probe(&new_file, new_slots, fp)
                        .expect_err("rehash inserts are distinct");
                    MmapStore::write_slot(&new_file, slot, fp);
                }
            }
            self.file
                .set_len(off)
                .expect("mmap store: rehash truncate failed");
            end = off;
        }
        let _ = std::fs::remove_file(&self.path);
        if let Some(c) = &self.file_bytes {
            // Net growth: new table added, old table removed.
            c.fetch_add(
                ((new_slots - self.slots) * MmapStore::SLOT) as usize,
                Ordering::Relaxed,
            );
        }
        self.file = new_file;
        self.path = new_path;
        self.slots = new_slots;
    }

    /// Non-mutating membership probe: true iff `fp` is present.
    #[must_use]
    pub fn contains(&self, fp: u64) -> bool {
        if fp == 0 {
            return self.has_zero;
        }
        MmapStore::probe(&self.file, self.slots, fp).is_ok()
    }

    /// The table file currently backing this store.
    #[must_use]
    pub fn table_path(&self) -> &Path {
        &self.path
    }
}

impl FingerprintStore for MmapStore {
    fn insert(&mut self, fp: u64) -> bool {
        if fp == 0 {
            let new = !self.has_zero;
            self.has_zero = true;
            return new;
        }
        // Keep occupancy under ⅞ so probe chains stay short.
        if (self.occupied + 1) * 8 >= self.slots * 7 {
            self.grow();
        }
        match MmapStore::probe(&self.file, self.slots, fp) {
            Ok(_) => false,
            Err(slot) => {
                MmapStore::write_slot(&self.file, slot, fp);
                self.occupied += 1;
                true
            }
        }
    }

    fn len(&self) -> usize {
        self.occupied as usize + usize::from(self.has_zero)
    }

    fn bytes(&self) -> DedupBytes {
        DedupBytes {
            heap: 0,
            file: (self.slots * MmapStore::SLOT) as usize,
        }
    }

    fn for_each(&self, visit: &mut dyn FnMut(u64)) {
        if self.has_zero {
            visit(0);
        }
        let mut buf = [0u8; 4096];
        let mut off = 0u64;
        let total = self.slots * MmapStore::SLOT;
        while off < total {
            let n = ((total - off) as usize).min(buf.len());
            self.file
                .read_exact_at(&mut buf[..n], off)
                .expect("mmap store: scan read failed");
            for chunk in buf[..n].chunks_exact(8) {
                let fp = u64::from_le_bytes(chunk.try_into().expect("8B"));
                if fp != 0 {
                    visit(fp);
                }
            }
            off += n as u64;
        }
    }
}

impl Drop for MmapStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
        if let Some(c) = &self.file_bytes {
            c.fetch_sub((self.slots * MmapStore::SLOT) as usize, Ordering::Relaxed);
        }
    }
}

/// SplitMix64 diffusion — spreads fingerprint entropy over all 64 bits so
/// both the shard selector (top bits) and the mmap probe start see uniform
/// input even if the underlying hash has weak high bits.
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A concurrently usable visited-fingerprint index: [`FP_SHARDS`] logical
/// shards keyed by fingerprint prefix, stored in one or [`FP_SHARDS`]
/// physical tables, each a [`FingerprintStore`] behind its own lock.
///
/// `insert` takes exactly one table lock; the global admitted count is an
/// atomic so limit checks never lock anything. With one table every
/// logical shard lives in it; with [`FP_SHARDS`] tables each shard has its
/// own. [`ShardedIndex::save_shards`] writes one image per logical shard
/// either way, so checkpoints do not depend on the table count. For the
/// mmap backend the index creates a unique scratch subdirectory for its
/// table files and removes it on drop.
pub struct ShardedIndex {
    kind: DedupKind,
    /// One table, or one per logical shard: a power of two either way.
    tables: Vec<Mutex<Box<dyn FingerprintStore>>>,
    admitted: AtomicUsize,
    /// Live total of table-file bytes (mmap backend; zero otherwise).
    file_bytes: Arc<AtomicUsize>,
    /// Scratch subdirectory owned (and removed on drop) by this index.
    scratch: Option<PathBuf>,
}

impl ShardedIndex {
    /// Builds a one-table index (one inserting worker) with the given
    /// backend. The mmap backend puts its table file under the system
    /// temp dir — use [`ShardedIndex::with_dir`] to choose the directory.
    #[must_use]
    pub fn new(kind: DedupKind) -> ShardedIndex {
        ShardedIndex::with_dir(kind, 0, 0.0, None)
    }

    /// Builds a one-table index, placing any file-backed storage under
    /// `scratch_dir` (`None` = the system temp dir). A unique subdirectory
    /// is created there and removed when the index is dropped.
    ///
    /// `_capacity` and `_fp_budget` are unused; they stay only so existing
    /// four-argument callers keep compiling. Pass `0` and `0.0`.
    #[must_use]
    pub fn with_dir(
        kind: DedupKind,
        _capacity: usize,
        _fp_budget: f64,
        scratch_dir: Option<&Path>,
    ) -> ShardedIndex {
        ShardedIndex::for_workers(kind, 1, scratch_dir)
    }

    /// Builds an index for `workers` concurrent inserters, placing any
    /// file-backed storage under `scratch_dir` as
    /// [`ShardedIndex::with_dir`] does.
    ///
    /// One worker gets one table (the mmap backend: one table file with the
    /// whole budget); two or more get [`FP_SHARDS`] tables, so their
    /// inserts rarely meet on a lock.
    #[must_use]
    pub fn for_workers(
        kind: DedupKind,
        workers: usize,
        scratch_dir: Option<&Path>,
    ) -> ShardedIndex {
        let tables = if workers > 1 { FP_SHARDS } else { 1 };
        let file_bytes = Arc::new(AtomicUsize::new(0));
        let scratch = match kind {
            DedupKind::Mmap { .. } => {
                let root = scratch_dir
                    .map(Path::to_path_buf)
                    .unwrap_or_else(std::env::temp_dir);
                let dir = root.join(unique_name("co-ring-dedup"));
                std::fs::create_dir_all(&dir).expect("mmap store: scratch dir creation failed");
                Some(dir)
            }
            _ => None,
        };
        let tables: Vec<Mutex<Box<dyn FingerprintStore>>> = (0..tables)
            .map(|_| -> Mutex<Box<dyn FingerprintStore>> {
                match kind {
                    DedupKind::Exact => Mutex::new(Box::new(ExactStore::new())),
                    DedupKind::Mmap { budget } => Mutex::new(Box::new(
                        MmapStore::with_counter(
                            scratch.as_deref().expect("mmap scratch dir"),
                            budget.div_ceil(tables),
                            Some(Arc::clone(&file_bytes)),
                        )
                        .expect("mmap store: table creation failed"),
                    )),
                }
            })
            .collect();
        ShardedIndex {
            kind,
            tables,
            admitted: AtomicUsize::new(0),
            file_bytes,
            scratch,
        }
    }

    /// The backend kind this index was built with.
    #[must_use]
    pub fn kind(&self) -> DedupKind {
        self.kind
    }

    /// The table that holds a stored (diffused) fingerprint: its shard's,
    /// or the only one.
    fn table(&self, stored: u64) -> &Mutex<Box<dyn FingerprintStore>> {
        &self.tables[shard_of(stored) & (self.tables.len() - 1)]
    }

    /// Inserts a fingerprint; returns whether it was new (admitted).
    pub fn insert(&self, fp: u64) -> bool {
        let h = splitmix64(fp);
        let new = self.table(h).lock().expect("table poisoned").insert(h);
        if new {
            self.admitted.fetch_add(1, Ordering::Relaxed);
        }
        new
    }

    /// Number of fingerprints admitted as new so far.
    #[must_use]
    pub fn admitted(&self) -> usize {
        self.admitted.load(Ordering::Relaxed)
    }

    /// Current byte cost of the index, split heap/file, cheap enough to
    /// check per insert: the exact backend pays 8 B of heap per admitted
    /// entry, the mmap backend the live total of its table files (tracked
    /// by a shared atomic — no table locks taken).
    #[must_use]
    pub fn bytes(&self) -> DedupBytes {
        match self.kind {
            DedupKind::Exact => DedupBytes {
                heap: self.admitted() * std::mem::size_of::<u64>(),
                file: 0,
            },
            DedupKind::Mmap { .. } => DedupBytes {
                heap: 0,
                file: self.file_bytes.load(Ordering::Relaxed),
            },
        }
    }

    /// Serializes the index for checkpointing: one image per logical shard,
    /// in shard order, whatever the table count.
    #[must_use]
    pub fn save_shards(&self) -> Vec<Vec<u8>> {
        // Each image starts with a count placeholder, patched once every
        // table has been streamed.
        let mut images = vec![vec![0u8; 8]; FP_SHARDS];
        for table in &self.tables {
            table
                .lock()
                .expect("table poisoned")
                .for_each(&mut |fp| put_u64(&mut images[shard_of(fp)], fp));
        }
        for image in &mut images {
            let count = (image.len() / 8 - 1) as u64;
            image[..8].copy_from_slice(&count.to_le_bytes());
        }
        images
    }

    /// Restores shard images saved by [`ShardedIndex::save_shards`] — from
    /// an index of any table count — into this freshly built (empty)
    /// index. The admitted count is recounted from the loaded fingerprints
    /// and must equal `admitted`, the count the checkpoint header claims.
    pub fn load_shards(&self, images: &[Vec<u8>], admitted: usize) -> Result<(), String> {
        if images.len() != FP_SHARDS {
            return Err(format!(
                "checkpoint has {} dedup shards, index has {FP_SHARDS}",
                images.len()
            ));
        }
        let mut loaded = 0;
        for (i, image) in images.iter().enumerate() {
            for fp in image_fps(image).map_err(|e| format!("dedup shard {i}: {e}"))? {
                if self.table(fp).lock().expect("table poisoned").insert(fp) {
                    loaded += 1;
                }
            }
        }
        if loaded != admitted {
            return Err(format!(
                "checkpoint claims {admitted} admitted configurations, its dedup shards hold {loaded}"
            ));
        }
        self.admitted.store(loaded, Ordering::Relaxed);
        Ok(())
    }
}

impl Drop for ShardedIndex {
    fn drop(&mut self) {
        // Table files remove themselves (MmapStore::drop); the unique
        // subdir they lived in goes last. Tables are still alive here, so
        // drain them explicitly first.
        if let Some(dir) = self.scratch.take() {
            self.tables.clear();
            let _ = std::fs::remove_dir(&dir);
        }
    }
}

impl fmt::Debug for ShardedIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedIndex")
            .field("kind", &self.kind)
            .field("tables", &self.tables.len())
            .field("admitted", &self.admitted())
            .field("bytes", &self.bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp() -> PathBuf {
        let dir = std::env::temp_dir().join(unique_name("co-ring-dedup-test"));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn exact_store_dedups() {
        let mut s = ExactStore::new();
        assert!(s.insert(1));
        assert!(s.insert(2));
        assert!(!s.insert(1));
        assert_eq!(s.bytes().heap, 16);
        assert_eq!(s.bytes().file, 0);
    }

    /// The store-level backend-equivalence property test: one
    /// duplicate-heavy insert sequence that forces several grow-by-rehash
    /// boundaries, driven through both stores in lockstep; they must agree
    /// on every single answer.
    #[test]
    fn all_stores_agree_on_the_same_insert_sequence() {
        let dir = tmp();
        let mut exact = ExactStore::new();
        // Start tiny (MIN_SLOTS) so 3 000 distinct inserts at ⅞ load cross
        // several doublings: 512 → 1024 → 2048 → 4096 slots.
        let mut mmap = MmapStore::in_dir(&dir, 1).unwrap();
        assert_eq!(mmap.bytes().file, 512 * 8, "budget floors at MIN_SLOTS");

        // Deterministic duplicate-heavy stream: ~3000 distinct values, each
        // appearing multiple times, plus the empty-slot sentinel 0.
        let stream: Vec<u64> = (0..10_000u64)
            .map(|i| match i % 3 {
                0 => splitmix64(i % 3_000),
                1 => splitmix64((i * 7) % 3_000),
                _ => (i * 31) % 3_000, // small raw values incl. 0
            })
            .collect();
        for &fp in &stream {
            let e = exact.insert(fp);
            let m = mmap.insert(fp);
            assert_eq!(e, m, "exact/mmap diverged on {fp:#x}");
        }
        assert_eq!(exact.bytes().heap, mmap.len() * 8);
        assert!(
            mmap.bytes().file > 512 * 8,
            "3000 distinct inserts must have grown the table"
        );
        // Membership after growth: every inserted value present, a fresh
        // range absent.
        for &fp in &stream {
            assert!(mmap.contains(fp));
            assert!(!exact.insert(fp) && !mmap.insert(fp));
        }
        for i in 0..1_000u64 {
            let fp = splitmix64(i.wrapping_add(1 << 50));
            assert!(!mmap.contains(fp), "phantom member {fp:#x}");
        }
        drop(mmap);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn mmap_store_removes_its_file_on_drop_and_grow() {
        let dir = tmp();
        let mut m = MmapStore::in_dir(&dir, 1).unwrap();
        let first = m.table_path().to_path_buf();
        assert!(first.exists());
        for i in 0..1_000u64 {
            m.insert(splitmix64(i));
        }
        let grown = m.table_path().to_path_buf();
        assert_ne!(first, grown, "growth rehashes into a fresh file");
        assert!(!first.exists(), "old table must be deleted after growth");
        drop(m);
        assert!(!grown.exists(), "table must be deleted on drop");
        std::fs::remove_dir(&dir).expect("scratch dir left non-empty");
    }

    /// Stored values that differ only in their top 16 bits — the ones a
    /// shard prefix and hashbrown's tag bits read — must still spread over
    /// the low bits hashbrown picks a bucket with. A random function fills
    /// ~63 % of the buckets and this hasher ~96 %; an identity hash fills
    /// one and a `rotate_left(17)` hash 128.
    #[test]
    fn fold_hasher_spreads_values_that_differ_only_in_their_top_bits() {
        let state = FoldState::default();
        let mut buckets = HashSet::new();
        for i in 0..4_096u64 {
            let stored = (i << 52) | 0x0000_1234_5678_9abc;
            buckets.insert(state.hash_one(stored) & 0xfff);
        }
        assert!(buckets.len() >= 2_048, "{} of 4096 buckets", buckets.len());
    }

    #[test]
    fn sharded_index_counts_admissions() {
        for (kind, workers) in DedupKind::ALL.into_iter().flat_map(|k| [(k, 1), (k, 2)]) {
            let idx = ShardedIndex::for_workers(kind, workers, None);
            let mut admitted = 0usize;
            for i in 0..5_000u64 {
                if idx.insert(i) {
                    admitted += 1;
                }
            }
            assert_eq!(idx.admitted(), admitted, "{kind}");
            assert_eq!(admitted, 5_000, "{kind}");
            // Re-inserting admits nothing new.
            for i in 0..5_000u64 {
                assert!(!idx.insert(i), "{kind}: duplicate admitted");
            }
            assert_eq!(idx.admitted(), admitted, "{kind}");
        }
    }

    #[test]
    fn sharded_index_is_thread_safe() {
        let kinds = [DedupKind::Exact, DedupKind::Mmap { budget: 1 }];
        for (kind, workers) in kinds.into_iter().flat_map(|k| [(k, 1), (k, 8)]) {
            let idx = ShardedIndex::for_workers(kind, workers, None);
            std::thread::scope(|scope| {
                for t in 0..8u64 {
                    let idx = &idx;
                    scope.spawn(move || {
                        // Overlapping ranges: every value raced by two threads.
                        for i in 0..2_000u64 {
                            idx.insert((t / 2) * 10_000 + i);
                        }
                    });
                }
            });
            assert_eq!(idx.admitted(), 4 * 2_000, "{kind}, {workers} workers");
        }
        let exact = ShardedIndex::new(DedupKind::Exact);
        for i in 0..100u64 {
            exact.insert(i);
        }
        assert_eq!(exact.bytes().heap, 100 * 8);
        assert_eq!(exact.bytes().file, 0);
    }

    #[test]
    fn mmap_index_accounts_file_bytes_and_cleans_up() {
        let root = tmp();
        // One worker: one table file with the whole budget; two: one file
        // per logical shard, each at least MIN_SLOTS.
        for (budget, workers, file) in [
            (1 << 20, 1, 1 << 20),
            (1 << 20, 2, 1 << 20),
            (1, 1, 512 * 8),
            (1, 2, FP_SHARDS * 512 * 8),
        ] {
            let idx = ShardedIndex::for_workers(DedupKind::Mmap { budget }, workers, Some(&root));
            assert_eq!(idx.bytes().file, file, "budget {budget}, {workers} workers");
        }
        let idx = ShardedIndex::with_dir(DedupKind::Mmap { budget: 1 }, 0, 0.0, Some(&root));
        let before = idx.bytes();
        assert_eq!(before.heap, 0);
        assert_eq!(before.file, 512 * 8);
        for i in 0..60_000u64 {
            idx.insert(i);
        }
        let after = idx.bytes();
        assert!(after.file > before.file, "the table must have grown");
        assert_eq!(after.heap, 0);
        let tables: Vec<_> = std::fs::read_dir(&root)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(tables.len(), 1, "one scratch subdir: {tables:?}");
        drop(idx);
        assert!(
            !tables[0].exists(),
            "scratch subdir must be removed on drop"
        );
        let _ = std::fs::remove_dir(&root);
    }

    /// Every pairing of saving and loading index, by backend and by table
    /// count (one table for one worker, [`FP_SHARDS`] for two): the saved
    /// images are the same logical shards either way. The set includes the
    /// fingerprint `0`, the mmap table's empty-slot sentinel, as a loaded
    /// image can.
    #[test]
    fn sharded_index_save_load_roundtrip_preserves_membership() {
        let kinds = [DedupKind::Exact, DedupKind::Mmap { budget: 1 }];
        let layouts: Vec<_> = kinds.into_iter().flat_map(|k| [(k, 1), (k, 2)]).collect();
        for (saver, loader) in layouts
            .iter()
            .flat_map(|&s| layouts.iter().map(move |&l| (s, l)))
        {
            let pair = format!("{saver:?}→{loader:?}");
            let idx = ShardedIndex::for_workers(saver.0, saver.1, None);
            for i in 0..5_000u64 {
                idx.insert(i);
            }
            let mut blobs = idx.save_shards();
            let recounted: usize = blobs.iter().map(|b| shard_image_len(b).unwrap()).sum();
            assert_eq!(recounted, idx.admitted(), "{pair}");
            assert_eq!(validate_shard_images(&blobs), Ok(idx.admitted()), "{pair}");
            assert!(validate_shard_images(&blobs[1..]).is_err(), "{pair}");
            // Add the stored fingerprint 0 to shard 0.
            let zero = &mut blobs[0];
            let count = shard_image_len(zero).unwrap() as u64 + 1;
            zero[..8].copy_from_slice(&count.to_le_bytes());
            put_u64(zero, 0);
            let admitted = idx.admitted() + 1;
            assert_eq!(validate_shard_images(&blobs), Ok(admitted), "{pair}");

            // The header's admitted count is checked, not trusted.
            let err = ShardedIndex::for_workers(loader.0, loader.1, None)
                .load_shards(&blobs, admitted + 1)
                .unwrap_err();
            assert!(err.contains("admitted"), "{pair}: {err}");

            let fresh = ShardedIndex::for_workers(loader.0, loader.1, None);
            fresh.load_shards(&blobs, admitted).unwrap();
            assert_eq!(fresh.admitted(), admitted, "{pair}");
            // The loaded index saves the same logical shards back.
            let again = fresh.save_shards();
            assert_eq!(validate_shard_images(&again), Ok(admitted), "{pair}");
            for (a, b) in again.iter().zip(&blobs) {
                assert_eq!(sorted_fps(a), sorted_fps(b), "{pair}");
            }
            for i in 0..5_000u64 {
                assert!(!fresh.insert(i), "{pair}: lost {i} across save/load");
            }
            assert_eq!(fresh.admitted(), admitted, "{pair}");
            assert!(fresh
                .load_shards(&blobs[..FP_SHARDS - 1], admitted)
                .is_err());
        }
    }

    fn sorted_fps(image: &[u8]) -> Vec<u64> {
        let mut fps: Vec<u64> = image_fps(image).unwrap().collect();
        fps.sort_unstable();
        fps
    }

    #[test]
    fn dedup_kind_parse_roundtrip() {
        for kind in DedupKind::ALL {
            assert_eq!(DedupKind::parse(&kind.to_string()), Some(kind));
        }
        for kind in [
            DedupKind::Mmap { budget: 4096 },
            DedupKind::Mmap { budget: 64 << 20 },
        ] {
            assert_eq!(
                DedupKind::parse(&kind.to_string()),
                Some(kind),
                "non-default budgets must round-trip"
            );
        }
        assert_eq!(
            DedupKind::parse("mmap"),
            Some(DedupKind::Mmap {
                budget: MMAP_DEFAULT_BUDGET
            })
        );
        assert_eq!(
            DedupKind::parse("mmap:64k"),
            Some(DedupKind::Mmap { budget: 64 << 10 })
        );
        assert_eq!(
            DedupKind::parse("mmap:2M"),
            Some(DedupKind::Mmap { budget: 2 << 20 })
        );
        assert_eq!(
            DedupKind::parse("mmap:1g"),
            Some(DedupKind::Mmap { budget: 1 << 30 })
        );
        for bad in [
            "cuckoo",
            "mmap:",
            "mmap:0",
            "mmap:x",
            "mmap:9999999999999999999999",
        ] {
            assert_eq!(DedupKind::parse(bad), None, "{bad:?}");
            let err = bad.parse::<DedupKind>().unwrap_err().to_string();
            assert!(
                err.contains("one of: exact, mmap[:BUDGET]"),
                "error must list valid kinds: {err}"
            );
        }
        assert_eq!(
            DedupKind::parse("mmap:64G"),
            Some(DedupKind::Mmap {
                budget: MMAP_MAX_BUDGET
            })
        );
        for too_big in ["mmap:65G", "mmap:16000000G", "mmap:18446744073709551615"] {
            let err = too_big.parse::<DedupKind>().unwrap_err();
            assert!(
                matches!(err, ParseDedupError::BudgetTooLarge(_)),
                "{too_big}: {err}"
            );
            assert!(err.to_string().contains("above the ceiling"), "{err}");
        }
        assert_eq!(DedupKind::default(), DedupKind::Exact);
        assert_eq!(DedupKind::ALL.len(), DedupKind::NAMES.len());
    }

    #[test]
    fn shard_images_must_hold_exactly_their_count() {
        let mut image = Vec::new();
        put_u64(&mut image, 2);
        put_u64(&mut image, 7);
        put_u64(&mut image, 9);
        assert_eq!(shard_image_len(&image), Ok(2));
        // A truncated body, a trailing byte, a bumped count, an
        // overflowing count and a missing header are all refused.
        assert!(shard_image_len(&image[..image.len() - 1]).is_err());
        let mut longer = image.clone();
        longer.push(0);
        assert!(shard_image_len(&longer).is_err());
        let mut bumped = image.clone();
        bumped[0] = 3;
        assert!(shard_image_len(&bumped).is_err());
        assert!(shard_image_len(&u64::MAX.to_le_bytes()).is_err());
        assert!(shard_image_len(&[]).is_err());
        let mut images = vec![0u64.to_le_bytes().to_vec(); FP_SHARDS];
        images[0] = bumped;
        let err = ShardedIndex::new(DedupKind::Exact)
            .load_shards(&images, 3)
            .unwrap_err();
        assert!(err.starts_with("dedup shard 0:"), "{err}");
    }
}
