//! Mutation tests of `co-ring`'s argument parser (`co_cli::Cli::parse`),
//! the CLI's input boundary.
//!
//! Valid command lines, one or more per command and together using every
//! flag, are mutated with a seeded generator: an argument dropped or
//! duplicated, a value truncated or bit-flipped (invalid UTF-8 is
//! replaced, since arguments are `&str`), a digit run grown to an overlong
//! one, and `--ids` lists of a hundred thousand IDs. Every mutant must
//! parse to `Ok` or to a `ParseError`, without a panic, and without any
//! single allocation above [`bound`] for the line's length. The bound is
//! checked by the counting global allocator of `tests/largest_alloc`. The
//! parser runs no command, so nothing here starts a thread or touches a
//! file.

use co_cli::{run, Cli};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

mod largest_alloc;

/// `--n`'s ceiling (`MAX_N` in `crates/cli/src/args.rs`).
const MAX_N: usize = 1_000_000;

/// Room for a fixed error text (a flag name, the scheduler list, the
/// protocol registry's names) around whatever the error quotes.
const MESSAGE_BYTES: usize = 1024;

/// The largest single allocation allowed for a line of `len` bytes (its
/// arguments' lengths plus one separator each).
///
/// A parsed list (`--ids`, `--schedule`, `mix:` ring sizes) holds one
/// 8-byte element per at least two input bytes in a doubling vector, at
/// most `8 * (len + 4)` bytes. A refusal quotes the input, escaped at most
/// six bytes per byte, in a string that may double: `12 * len` plus the
/// fixed text. Only `--n N` allocates by value: `1..=N` as `u64` IDs, and
/// `N` is refused above `MAX_N` before that allocation.
fn bound(line: &[String]) -> usize {
    let len: usize = line.iter().map(|arg| arg.len() + 1).sum();
    let ids = if line.iter().any(|arg| arg == "--n") {
        8 * MAX_N
    } else {
        0
    };
    (8 * (len + 4)).max(12 * len + MESSAGE_BYTES) + ids
}

/// A recorded Algorithm 2 schedule, as `co-ring record` prints it.
fn recorded_schedule() -> String {
    let cli = Cli::parse(["record", "--ids", "3,7,2,5,1", "--seed", "9"]).expect("parses");
    let out = run(&cli);
    let schedule = out.json.get("schedule").and_then(co_json::Value::as_str);
    schedule.expect("a recorded schedule").to_owned()
}

/// Valid command lines; together they give every command and every flag.
fn seeds() -> Vec<Vec<String>> {
    let schedule = recorded_schedule();
    let lines: Vec<Vec<&str>> = vec![
        vec![
            "elect",
            "--ids",
            "5,2,9",
            "--scheduler",
            "lifo",
            "--seed",
            "7",
        ],
        vec![
            "stabilize",
            "--n",
            "5",
            "--latency",
            "uniform:1..9",
            "--latency-seed",
            "42",
            "--scheduler",
            "latency",
            "--json",
        ],
        vec!["orient", "--scheme", "doubled", "--ids", "2,8,5"],
        vec!["anonymous", "--n", "16", "--c", "2.0", "--trials", "50"],
        vec!["compose", "--n", "5", "--scheduler", "fifo"],
        vec!["solitude", "--max-id", "3"],
        vec!["baseline", "--algo", "hs", "--n", "6"],
        vec!["echo", "--graph", "complete:5", "--root", "2"],
        vec![
            "fleet",
            "--rings",
            "500",
            "--ring-sizes",
            "mix:3,5,8",
            "--protocol",
            "alg2",
            "--fault-rate",
            "0.01",
            "--rounds",
            "3",
            "--jobs",
            "4",
            "--seed",
            "9",
        ],
        vec!["fleet", "--duration", "2.5", "--ring-sizes", "uniform:3..9"],
        vec!["record", "--protocol", "chang-roberts", "--ids", "4,9,2,7"],
        vec![
            "replay",
            "--ids",
            "3,7,2,5,1",
            "--schedule",
            &schedule,
            "--latency",
            "fixed:3",
        ],
        vec!["shrink", "--protocol", "alg2", "--ids", "1,2"],
        vec![
            "explore",
            "--protocol",
            "alg3",
            "--n",
            "4",
            "--jobs",
            "2",
            "--max-configs",
            "500",
            "--dedup",
            "mmap:64M",
            "--checkpoint",
            "run.ck",
            "--checkpoint-every",
            "5000",
            "--resume",
            "run.ck",
            "--spill",
            "100",
            "--scratch-dir",
            "scratch",
        ],
        vec!["protocols", "--json"],
        vec!["help"],
    ];
    lines
        .into_iter()
        .map(|line| line.into_iter().map(str::to_owned).collect())
        .collect()
}

/// Parses `line`, which must not panic nor allocate above the bound.
fn check(line: &[String], what: &str) -> bool {
    let (outcome, largest) =
        largest_alloc::largest_allocation(|| catch_unwind(AssertUnwindSafe(|| Cli::parse(line))));
    let shown: String = format!("{line:?}").chars().take(300).collect();
    let parsed = outcome.unwrap_or_else(|_| panic!("{what}: panicked on {shown}"));
    let bound = bound(line);
    assert!(
        largest <= bound,
        "{what}: allocated {largest} bytes (bound {bound}) for {shown}"
    );
    parsed.is_ok()
}

/// `len` random decimal digits.
fn digits(rng: &mut StdRng, len: usize) -> String {
    (0..len)
        .map(|_| char::from_digit(rng.gen_range(0..10u32), 10).expect("a digit"))
        .collect()
}

/// `arg` with one maximal ASCII digit run, picked at random, replaced by
/// `run`; `None` if it has no digits.
fn regrow(rng: &mut StdRng, arg: &str, run: &str) -> Option<String> {
    let bytes = arg.as_bytes();
    let starts: Vec<usize> = (0..bytes.len())
        .filter(|&i| bytes[i].is_ascii_digit() && (i == 0 || !bytes[i - 1].is_ascii_digit()))
        .collect();
    let &start = starts.get(rng.gen_range(0..starts.len().max(1)))?;
    let end = (start..bytes.len())
        .find(|&i| !bytes[i].is_ascii_digit())
        .unwrap_or(bytes.len());
    Some(format!("{}{run}{}", &arg[..start], &arg[end..]))
}

#[test]
fn every_seed_parses() {
    // The registry is built once, on first use, outside any bound.
    let _ = co_cli::args::usage();
    for line in seeds() {
        assert!(check(&line, "seed"), "{line:?}");
    }
}

#[test]
fn mutated_command_lines_parse_or_fail_with_a_typed_error_within_the_bound() {
    let _ = co_cli::args::usage();
    let mut rng = StdRng::seed_from_u64(0xC011_A265);
    for seed in seeds() {
        for _ in 0..50 {
            let mut line = seed.clone();
            line.remove(rng.gen_range(0..line.len()));
            check(&line, "dropped argument");

            let mut line = seed.clone();
            let at = rng.gen_range(0..line.len());
            let copy = line[at].clone();
            line.insert(rng.gen_range(0..=line.len()), copy);
            check(&line, "duplicated argument");
        }
        for _ in 0..200 {
            let mut line = seed.clone();
            let at = rng.gen_range(0..line.len());
            let bytes = line[at].as_bytes();
            let cut = rng.gen_range(0..=bytes.len());
            line[at] = String::from_utf8_lossy(&bytes[..cut]).into_owned();
            check(&line, "truncated argument");
        }
        for _ in 0..400 {
            let mut line = seed.clone();
            let at = rng.gen_range(0..line.len());
            let mut bytes = line[at].clone().into_bytes();
            for _ in 0..rng.gen_range(1..=3usize) {
                if !bytes.is_empty() {
                    let pos = rng.gen_range(0..bytes.len());
                    bytes[pos] ^= 1 << rng.gen_range(0..8u32);
                }
            }
            line[at] = String::from_utf8_lossy(&bytes).into_owned();
            check(&line, "bit flips");
        }
        for &len in &[7, 20, 21, 40, 400, 4_000] {
            for _ in 0..8 {
                let mut line = seed.clone();
                let at = rng.gen_range(0..line.len());
                let run = if rng.gen_range(0..2u32) == 0 {
                    digits(&mut rng, len)
                } else {
                    "9".repeat(len)
                };
                if let Some(grown) = regrow(&mut rng, &line[at], &run) {
                    line[at] = grown;
                    check(&line, &format!("{len}-digit run"));
                }
            }
        }
    }
}

#[test]
fn huge_id_lists_parse_or_fail_within_the_bound() {
    let _ = co_cli::args::usage();
    let ids: Vec<String> = (1..=100_000u64).map(|id| id.to_string()).collect();
    let valid = ids.join(",");
    for (command, ids) in [
        ("elect", valid.clone()),
        ("explore", valid.clone()),
        ("record", format!("{valid},0")),
        ("replay", format!("{valid},x")),
        ("shrink", format!("{valid},{}", "9".repeat(4_000))),
        // Parsing checks syntax only: `orient` itself refuses an ID whose
        // Algorithm 3 virtual ID overflows.
        ("orient", format!("{},{valid}", u64::MAX)),
    ] {
        let line: Vec<String> = vec![command.into(), "--ids".into(), ids];
        let parsed = check(&line, "huge --ids");
        let valid = ["elect", "explore", "orient"].contains(&command);
        assert_eq!(parsed, valid, "{command}");
    }
}
