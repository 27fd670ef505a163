//! Mutation tests of the text parsers that read outside input: schedule
//! strings (`--schedule`, recordings), latency models (`--latency`), fleet
//! ring sizes (`--ring-sizes`), dedup backends (`--dedup`) and JSON
//! (`co_json::parse`).
//!
//! Each parser's valid spellings are mutated three ways with a seeded
//! generator: truncated, bit-flipped (invalid UTF-8 is replaced, since the
//! parsers take `&str`), and given overlong digit runs. Every mutant must
//! parse to `Ok` or to the parser's typed `Err`, without a panic, and
//! without any single allocation above the parser's stated bound for the
//! input's length (see [`Parser::bound`]). The bound is checked by the
//! counting global allocator of `tests/largest_alloc`.

use content_oblivious::core::registry::{Alg2Def, RingProtocol};
use content_oblivious::core::Alg2Node;
use content_oblivious::net::{
    Budget, DedupKind, LatencyModel, Pulse, RingSizes, RingSpec, Schedule, SchedulerKind,
    Simulation,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::mem::size_of;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

mod largest_alloc;

/// One parser under test.
struct Parser {
    name: &'static str,
    /// Whether the input parsed; a panic fails the test.
    parse: fn(&str) -> bool,
    /// The largest single allocation allowed for an input of `len` bytes.
    bound: fn(usize) -> usize,
    /// Valid inputs to mutate.
    seeds: Vec<String>,
}

/// Room for a fixed error text around the quoted input.
const MESSAGE_BYTES: usize = 128;

/// A recorded Algorithm 2 schedule, as `co-ring record` writes it.
fn recorded_schedule() -> String {
    let spec = RingSpec::oriented(vec![3, 7, 2, 5, 1]);
    let mut sim: Simulation<Pulse, Alg2Node> = Simulation::new(
        spec.wiring(),
        Alg2Def::nodes(&spec),
        SchedulerKind::Random.build(9),
    );
    let (_, schedule) = sim.run_recorded(Budget::default());
    schedule.to_string()
}

fn parsers() -> Vec<Parser> {
    let baseline = Path::new(env!("CARGO_MANIFEST_DIR")).join("bench_baseline.json");
    let owned = |seeds: &[&str]| seeds.iter().map(|s| (*s).to_owned()).collect();
    vec![
        // A pick is one `ChannelId` (a `usize`) per at least two input
        // bytes, collected into a doubling vector: at most `len + 4`
        // slots. A refused token is quoted with `Debug` escapes, at most
        // six bytes per input byte, in a string that may double.
        Parser {
            name: "Schedule",
            parse: |s| s.parse::<Schedule>().is_ok(),
            bound: |len| (size_of::<usize>() * (len + 4)).max(12 * len + MESSAGE_BYTES),
            seeds: vec![recorded_schedule(), " 0, 1 ,2".to_owned(), String::new()],
        },
        // An accepted model allocates nothing; a refusal keeps the input.
        Parser {
            name: "LatencyModel",
            parse: |s| s.parse::<LatencyModel>().is_ok(),
            bound: |len| len,
            seeds: owned(&["zero", "fixed:3", "uniform:1..10", "uniform:0..0"]),
        },
        // A size is one `usize` per at least two input bytes, as for
        // schedules; a refusal quotes the input once in a fixed text.
        Parser {
            name: "RingSizes",
            parse: |s| s.parse::<RingSizes>().is_ok(),
            bound: |len| (size_of::<usize>() * (len + 4)).max(2 * (len + MESSAGE_BYTES)),
            seeds: owned(&["4", "uniform:3..9", "mix:3,5,8", "mix: 12 ,7"]),
        },
        // As for latency models.
        Parser {
            name: "DedupKind",
            parse: |s| s.parse::<DedupKind>().is_ok(),
            bound: |len| len,
            seeds: owned(&["exact", "mmap", "mmap:64m", "mmap:4096", "mmap:2G"]),
        },
        // An array element or object entry takes at least two input bytes,
        // so a doubling vector holds at most `len + 4` slots of the larger
        // element, `(String, Value)`; a string's buffer is below that.
        Parser {
            name: "co_json::parse",
            parse: |s| co_json::parse(s).is_ok(),
            bound: |len| size_of::<(String, co_json::Value)>() * (len + 4) + MESSAGE_BYTES,
            seeds: vec![
                std::fs::read_to_string(baseline).expect("the baseline is readable"),
                r#"{"s":"tab\t é 😀 \"q\" \\ /","n":[-1,0,1.5e3,-2E-2,
                   18446744073709551615,-9223372036854775808],
                   "o":{"a":null,"b":true,"c":false},"e":[],"f":{}}"#
                    .to_owned(),
            ],
        },
    ]
}

/// Parses `input`, which must not panic nor allocate above the bound.
fn check(parser: &Parser, input: &str, what: &str) {
    let (outcome, largest) = largest_alloc::largest_allocation(|| {
        catch_unwind(AssertUnwindSafe(|| (parser.parse)(input)))
    });
    assert!(
        outcome.is_ok(),
        "{}: {what}: panicked on {input:?}",
        parser.name
    );
    let bound = (parser.bound)(input.len());
    assert!(
        largest <= bound,
        "{}: {what}: allocated {largest} bytes (bound {bound}) for the {}-byte input {input:?}",
        parser.name,
        input.len()
    );
}

/// `bytes` as a string, each invalid UTF-8 sequence replaced by U+FFFD.
fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// `len` random decimal digits.
fn digits(rng: &mut StdRng, len: usize) -> String {
    (0..len)
        .map(|_| char::from_digit(rng.gen_range(0..10u32), 10).expect("a digit"))
        .collect()
}

/// Byte ranges of the maximal ASCII digit runs in `seed`.
fn digit_runs(seed: &str) -> Vec<(usize, usize)> {
    let bytes = seed.as_bytes();
    let mut runs = Vec::new();
    let mut at = 0;
    while at < bytes.len() {
        if bytes[at].is_ascii_digit() {
            let start = at;
            while at < bytes.len() && bytes[at].is_ascii_digit() {
                at += 1;
            }
            runs.push((start, at));
        } else {
            at += 1;
        }
    }
    runs
}

#[test]
fn every_seed_parses() {
    for parser in parsers() {
        for seed in &parser.seeds {
            assert!((parser.parse)(seed), "{}: {seed:?}", parser.name);
            check(&parser, seed, "seed");
        }
    }
}

#[test]
fn mutated_inputs_parse_or_fail_with_a_typed_error_within_the_bound() {
    let mut rng = StdRng::seed_from_u64(0x9A45_E125);
    for parser in parsers() {
        for seed in &parser.seeds {
            let bytes = seed.as_bytes();
            for _ in 0..200 {
                let len = rng.gen_range(0..=bytes.len());
                check(&parser, &text(&bytes[..len]), "truncated");
            }
            for _ in 0..1_000 {
                let mut flipped = bytes.to_vec();
                for _ in 0..rng.gen_range(1..=4usize) {
                    if flipped.is_empty() {
                        break;
                    }
                    let pos = rng.gen_range(0..flipped.len());
                    flipped[pos] ^= 1 << rng.gen_range(0..8u32);
                }
                check(&parser, &text(&flipped), "bit flips");
            }
            let runs = digit_runs(seed);
            for &len in &[20, 21, 40, 400, 4_000] {
                for &(start, end) in runs.iter().take(64) {
                    let run = digits(&mut rng, len);
                    let grown = format!("{}{run}{}", &seed[..start], &seed[end..]);
                    check(&parser, &grown, &format!("{len}-digit run"));
                }
                let nines = "9".repeat(len);
                let at = rng.gen_range(0..=seed.len());
                if seed.is_char_boundary(at) {
                    let inserted = format!("{}{nines}{}", &seed[..at], &seed[at..]);
                    check(&parser, &inserted, &format!("{len} nines inserted"));
                }
            }
        }
    }
}

#[test]
fn deeply_nested_json_is_refused_without_overflowing_the_stack() {
    for open in ["[", "{\"k\":"] {
        let input = open.repeat(100_000);
        assert!(co_json::parse(&input).is_err(), "{open}");
    }
}
