//! State capture: the [`Snapshot`] trait, stable [`Fingerprint`] hashing,
//! and replayable [`Schedule`]s.
//!
//! The paper's guarantees are adversarial — Algorithms 1–3 must be correct
//! under *every* message interleaving — so correctness tooling needs to treat
//! simulation state as a first-class value: captured, restored, hashed, and
//! driven down a recorded schedule. This module provides the three primitives
//! the rest of the stack builds on:
//!
//! * [`Snapshot`]: extract/restore a protocol node's (or an engine's) state,
//!   plus a stable 64-bit `fingerprint` for visited-state deduplication.
//! * [`Fingerprint`]: a hand-rolled streaming hasher whose output is
//!   identical across runs, platforms, and compiler versions (unlike
//!   `std::collections::hash_map::DefaultHasher`, which is randomly keyed).
//!   Words cost one folded multiply each; single bytes are FNV-1a rounds.
//! * [`Schedule`]: the sequence of channel picks an execution made — enough,
//!   together with a seed-deterministic protocol, to replay the execution
//!   byte-for-byte (see `Simulation::replay`).
//! * a minimal little-endian byte codec ([`put_u64`] / [`put_bytes`] /
//!   [`ByteReader`]) shared by the on-disk artifacts of the exploration
//!   stack: fingerprint-store serialization (`dedup`) and resumable
//!   exploration checkpoints (`explore`). The format is deliberately dumb —
//!   fixed-width words, length-prefixed blobs, no varints — so the
//!   checkpoint layout documented in DESIGN.md §13 can be read back by eye.

use crate::topology::ChannelId;
use std::fmt;
use std::str::FromStr;

/// State capture for a single component (protocol node, scheduler, engine).
///
/// Implementors expose their full mutable state as a cloneable value so that
/// simulations can be checkpointed, restored, and deduplicated:
///
/// * `extract`/`restore` must round-trip: restoring an extracted state makes
///   the component behave exactly as the original would from that point on.
/// * `fingerprint` must be *stable* (same state ⇒ same hash in every run —
///   use [`Fingerprint`], not `DefaultHasher`) and should depend on exactly
///   the state that influences future behaviour, so that two executions
///   reaching the same configuration by different paths collide.
pub trait Snapshot {
    /// The captured state value.
    type State: Clone + fmt::Debug;

    /// Captures the current state.
    fn extract(&self) -> Self::State;

    /// Restores a previously captured state.
    fn restore(&mut self, state: &Self::State);

    /// A stable 64-bit hash of the current state.
    fn fingerprint(&self) -> u64;
}

/// A streaming 64-bit hasher with a run-stable output.
///
/// Exhaustive exploration stores one `u64` per visited configuration; the
/// hash must therefore be identical across processes so that recorded state
/// counts (and the bench tables built on them) are reproducible.
///
/// Two mixing rounds share one 64-bit state:
///
/// * [`Fingerprint::write_u64`] (and [`Fingerprint::write_usize`]) folds a
///   whole word in with one 64×64→128-bit multiply: the state becomes
///   `lo ^ hi` of `(state ^ w) · K` for a fixed odd `K`. A configuration
///   hash is mostly words (queue lengths, node counters, node fingerprints)
///   and is computed once per explored branch, so a word costs one
///   multiply round rather than eight dependent byte rounds.
/// * [`Fingerprint::write_u8`], [`Fingerprint::write_bytes`] and
///   [`Fingerprint::write_bool`] are FNV-1a byte rounds, so a hash fed only
///   bytes is plain FNV-1a 64 and matches its published reference vectors.
#[derive(Clone, Debug)]
pub struct Fingerprint(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// The multiplier of the word round: ⌊2^64 / φ⌋, which is odd.
pub(crate) const WORD_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

impl Fingerprint {
    /// Starts a new hash at the FNV-1a offset basis.
    #[must_use]
    pub fn new() -> Fingerprint {
        Fingerprint(FNV_OFFSET)
    }

    /// Mixes one byte.
    pub fn write_u8(&mut self, b: u8) {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }

    /// Mixes a byte slice.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    /// Mixes a 64-bit word in one folded multiply (see [`Fingerprint`]).
    pub fn write_u64(&mut self, w: u64) {
        let m = u128::from(self.0 ^ w) * u128::from(WORD_MIX);
        self.0 = (m as u64) ^ ((m >> 64) as u64);
    }

    /// Mixes a `usize` (widened to 64 bits for cross-platform stability).
    pub fn write_usize(&mut self, w: usize) {
        self.write_u64(w as u64);
    }

    /// Mixes a boolean as one byte.
    pub fn write_bool(&mut self, b: bool) {
        self.write_u8(u8::from(b));
    }

    /// Finishes and returns the hash.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint::new()
    }
}

/// A recorded sequence of channel picks — the adversary's moves.
///
/// Replaying a schedule against the same initial configuration (same ring,
/// same seeds) reproduces the original execution exactly; see
/// `Simulation::replay`. Schedules print as comma-separated channel indices
/// (`"0,3,2,1"`) and parse back via [`FromStr`], so a counterexample found by
/// the shrinker can be pasted straight into `co-ring replay --schedule ...`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Schedule {
    picks: Vec<ChannelId>,
}

impl Schedule {
    /// An empty schedule.
    #[must_use]
    pub fn new() -> Schedule {
        Schedule::default()
    }

    /// Wraps an explicit pick sequence.
    #[must_use]
    pub fn from_picks(picks: Vec<ChannelId>) -> Schedule {
        Schedule { picks }
    }

    /// Appends one pick.
    pub fn push(&mut self, pick: ChannelId) {
        self.picks.push(pick);
    }

    /// Number of picks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.picks.len()
    }

    /// Whether the schedule is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.picks.is_empty()
    }

    /// The picks as a slice.
    #[must_use]
    pub fn picks(&self) -> &[ChannelId] {
        &self.picks
    }

    /// Iterates over the picks.
    pub fn iter(&self) -> impl Iterator<Item = ChannelId> + '_ {
        self.picks.iter().copied()
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, pick) in self.picks.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", pick.index())?;
        }
        Ok(())
    }
}

/// Error parsing a [`Schedule`] from its textual form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseScheduleError(String);

impl fmt::Display for ParseScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid schedule: {}", self.0)
    }
}

impl std::error::Error for ParseScheduleError {}

impl FromStr for Schedule {
    type Err = ParseScheduleError;

    fn from_str(s: &str) -> Result<Schedule, ParseScheduleError> {
        let s = s.trim();
        if s.is_empty() {
            return Ok(Schedule::new());
        }
        let picks = s
            .split(',')
            .map(|tok| {
                tok.trim()
                    .parse::<usize>()
                    .map(ChannelId::from_index)
                    .map_err(|e| ParseScheduleError(format!("{tok:?}: {e}")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Schedule { picks })
    }
}

/// Appends a `u32` in little-endian byte order.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` in little-endian byte order.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a length-prefixed (`u64`) byte blob.
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u64(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// A bounds-checked cursor over bytes written with the `put_*` helpers.
///
/// Every accessor returns `Err` (with a position) instead of panicking, so a
/// truncated or corrupted checkpoint file surfaces as a parse error rather
/// than a crash.
#[derive(Clone, Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Starts reading at the beginning of `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Takes the next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| format!("truncated at byte {} (wanted {n} more)", self.pos))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4B")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8B")))
    }

    /// Reads a `u64` and narrows it to `usize`.
    pub fn len(&mut self) -> Result<usize, String> {
        usize::try_from(self.u64()?).map_err(|_| format!("length overflow at byte {}", self.pos))
    }

    /// Reads a length-prefixed byte blob.
    pub fn bytes(&mut self) -> Result<&'a [u8], String> {
        let n = self.len()?;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, String> {
        let pos = self.pos;
        String::from_utf8(self.bytes()?.to_vec()).map_err(|_| format!("bad UTF-8 at byte {pos}"))
    }

    /// Whether every byte has been consumed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Fails unless the whole buffer was consumed.
    pub fn finish(&self) -> Result<(), String> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "{} trailing bytes after byte {}",
                self.buf.len() - self.pos,
                self.pos
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // FNV-1a 64 of "a" and "foobar" (published reference values).
        let mut h = Fingerprint::new();
        h.write_u8(b'a');
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fingerprint::new();
        h.write_bytes(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
        // The word round is not FNV; its value is pinned so a change to it
        // (which invalidates stored fingerprints and checkpoints) is
        // deliberate.
        let mut h = Fingerprint::new();
        h.write_u64(1);
        assert_eq!(h.finish(), 0x248f_f7fe_56b3_da9a);
        h.write_usize(2);
        assert_eq!(h.finish(), 0x1ff1_647d_1905_90cb);
    }

    #[test]
    fn fingerprint_is_order_sensitive() {
        let mut a = Fingerprint::new();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = Fingerprint::new();
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn schedule_display_parse_roundtrip() {
        let s = Schedule::from_picks(vec![
            ChannelId::from_index(0),
            ChannelId::from_index(3),
            ChannelId::from_index(2),
        ]);
        assert_eq!(s.to_string(), "0,3,2");
        assert_eq!("0,3,2".parse::<Schedule>().unwrap(), s);
        assert_eq!(" 0 , 3 , 2 ".parse::<Schedule>().unwrap(), s);
        assert_eq!("".parse::<Schedule>().unwrap(), Schedule::new());
        assert!("0,x".parse::<Schedule>().is_err());
    }

    #[test]
    fn byte_codec_roundtrips() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 7);
        put_u64(&mut buf, u64::MAX - 1);
        put_bytes(&mut buf, &[1, 2, 3]);
        put_str(&mut buf, "mmap:4096");
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.u32().unwrap(), 7);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(r.string().unwrap(), "mmap:4096");
        r.finish().unwrap();
    }

    #[test]
    fn byte_reader_rejects_truncation_and_trailing_garbage() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 9);
        let mut r = ByteReader::new(&buf);
        // A length prefix of 9 with no payload behind it must error, not panic.
        assert!(r.bytes().is_err());
        let mut r = ByteReader::new(&buf);
        r.u32().unwrap();
        assert!(r.finish().is_err(), "4 unread bytes must be flagged");
    }
}
