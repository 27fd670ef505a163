//! Mutation test of the checkpoint decoder at its input boundary.
//!
//! A real CORINGCK v3 image (`tests/fixtures/alg2-n5-cut200-v3.ck`) is
//! mutated three ways with a seeded generator: truncated, bit-flipped, and
//! given huge length prefixes. Truncations are tried both as they come
//! (the checksum or the header catches them) and re-signed with a valid
//! checksum, so the parser itself meets the short payload; a huge prefix
//! is always re-signed. Every mutant must decode to `Err`, without a
//! panic and without any single allocation larger than the input (or, for
//! an input of a few dozen bytes, than its error message): a length prefix
//! is never trusted before the bytes it claims are there.
//!
//! The allocation bound is checked by the counting global allocator of
//! `tests/largest_alloc`, which records the largest request made on the
//! decoding thread.

use content_oblivious::net::explore::ExploreCheckpoint;
use content_oblivious::net::Fingerprint;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;

mod largest_alloc;

/// Decodes `bytes` and returns the result with the largest allocation the
/// decode made.
fn decode(bytes: &[u8]) -> (Result<ExploreCheckpoint, String>, usize) {
    largest_alloc::largest_allocation(|| ExploreCheckpoint::decode(bytes))
}

/// Room for the error message itself, which a refused input of a few
/// dozen bytes may outgrow.
const MESSAGE_BYTES: usize = 256;

/// Decodes a mutant, which must fail within the allocation bound.
fn refuse(bytes: &[u8], what: &str) {
    let (result, largest) = decode(bytes);
    assert!(result.is_err(), "{what}: decoded");
    assert!(
        largest <= bytes.len().max(MESSAGE_BYTES),
        "{what}: allocated {largest} bytes for a {}-byte input",
        bytes.len()
    );
}

/// The checksum of DESIGN.md §13: [`Fingerprint`] over the payload as
/// little-endian 8-byte words, the tail bytes mixed one at a time.
fn checksum(payload: &[u8]) -> u64 {
    let mut fp = Fingerprint::new();
    let mut words = payload.chunks_exact(8);
    for word in &mut words {
        fp.write_u64(u64::from_le_bytes(word.try_into().expect("8 bytes")));
    }
    fp.write_bytes(words.remainder());
    fp.finish()
}

/// `payload` with a valid checksum appended.
fn sign(payload: &[u8]) -> Vec<u8> {
    let mut image = payload.to_vec();
    image.extend_from_slice(&checksum(payload).to_le_bytes());
    image
}

/// Offsets of every length prefix and element count in `image`, walked by
/// the v3 layout: magic and version, meta, dedup name, three counters and
/// the pruned flag, violations, dedup shard images (each a length, then a
/// fingerprint count and the fingerprints), frontier items (depth, pick
/// count, picks), checksum.
fn length_prefixes(image: &[u8]) -> Vec<usize> {
    let mut at = 12;
    let mut prefixes = Vec::new();
    let mut prefix = |at: &mut usize| {
        prefixes.push(*at);
        let value = u64::from_le_bytes(image[*at..*at + 8].try_into().expect("8 bytes"));
        *at += 8;
        usize::try_from(value).expect("a length of the fixture")
    };
    for _ in 0..2 {
        at += prefix(&mut at); // meta, dedup name
    }
    at += 3 * 8 + 4;
    for _ in 0..prefix(&mut at) {
        at += prefix(&mut at); // violations
    }
    for _ in 0..prefix(&mut at) {
        let end = prefix(&mut at) + at; // shard image
        let count = prefix(&mut at);
        at += 8 * count;
        assert_eq!(at, end, "shard image layout");
    }
    for _ in 0..prefix(&mut at) {
        at += 8; // depth
        at += 4 * prefix(&mut at);
    }
    assert_eq!(at + 8, image.len(), "the walk ends at the checksum");
    prefixes
}

#[test]
fn mutated_checkpoint_images_are_refused_within_the_input_size() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/alg2-n5-cut200-v3.ck");
    let image = std::fs::read(&path).expect("the fixture is readable");
    let (clean, largest) = decode(&image);
    let ck = clean.expect("the fixture decodes");
    assert!(
        largest <= image.len(),
        "the clean decode allocated {largest} bytes"
    );
    assert!(!ck.is_finished() && !ck.shards.is_empty());
    let payload = &image[..image.len() - 8];
    assert_eq!(sign(payload), image, "the checksum is the documented one");

    let mut rng = StdRng::seed_from_u64(0xC0DE_C4EC);
    for _ in 0..400 {
        let len = rng.gen_range(0..image.len());
        refuse(&image[..len], &format!("truncated to {len} bytes"));
        let len = rng.gen_range(0..payload.len());
        refuse(
            &sign(&payload[..len]),
            &format!("payload cut to {len} bytes, re-signed"),
        );
    }
    for _ in 0..2_000 {
        let mut flipped = image.clone();
        let flips = rng.gen_range(1..=4usize);
        for _ in 0..flips {
            let pos = rng.gen_range(0..image.len());
            flipped[pos] ^= 1 << rng.gen_range(0..8u32);
        }
        if flipped != image {
            refuse(&flipped, &format!("{flips} bit flips"));
        }
    }
    let prefixes = length_prefixes(&image);
    assert!(
        prefixes.len() > 2 * ck.shards.len(),
        "every shard has two prefixes"
    );
    for &at in &prefixes {
        let mut huge = vec![u64::MAX, u64::MAX / 8 + 1, 1 << 40, image.len() as u64 + 1];
        huge.push(rng.gen_range(image.len() as u64 + 1..=u64::MAX));
        for value in huge {
            let mut edited = payload.to_vec();
            edited[at..at + 8].copy_from_slice(&value.to_le_bytes());
            refuse(&sign(&edited), &format!("length {value} at byte {at}"));
        }
    }
}
