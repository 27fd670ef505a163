//! `tables` — prints the experiment tables regenerating the paper's claims,
//! and hosts the `check` benchmark-regression gate.
//!
//! ```sh
//! cargo run -p co-bench --bin tables --release            # all experiments
//! cargo run -p co-bench --bin tables --release -- --exp e1
//! cargo run -p co-bench --bin tables --release -- --json  # JSON lines
//! cargo run -p co-bench --bin tables --release -- --jobs 8
//! cargo run -p co-bench --bin tables --release -- --exp e19 --profile
//! cargo run -p co-bench --bin tables --release -- check              # gate
//! cargo run -p co-bench --bin tables --release -- check --update    # re-baseline
//! ```
//!
//! `--jobs N` fans each experiment's internal trial grid across up to `N`
//! worker threads (`--jobs 0` uses one worker per core; `N` is at most
//! [`MAX_JOBS`]). Every trial is seeded from its grid coordinates, so the
//! output is byte-identical for every jobs value — only the wall clock
//! changes.
//!
//! `--profile` turns on the event core's hot-path collector
//! (`co_net::prof`) and prints a per-phase latency table (enqueue / pick /
//! deliver / observe: sample counts, total ms, mean and tail nanoseconds)
//! after each experiment. Collection is reset between experiments, so each
//! profile covers exactly one table.
//!
//! `check` collects the deterministic gate metrics and compares them against
//! `bench_baseline.json`, exiting nonzero on any regression. `--update`
//! rewrites the baseline instead; `--inject-regression` applies a synthetic
//! +10% to the first metric (proof the gate trips); `--report FILE` writes
//! the human-readable report for CI artifact upload.

use co_bench::parallel::MAX_JOBS;
use co_bench::{run_experiment_with, Experiment};
use std::process::ExitCode;

const DEFAULT_BASELINE: &str = "bench_baseline.json";

fn run_check(args: &[String]) -> ExitCode {
    let mut baseline_path = DEFAULT_BASELINE.to_string();
    let mut update = false;
    let mut inject: Option<f64> = None;
    let mut report_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--baseline" => {
                i += 1;
                let Some(p) = args.get(i) else {
                    eprintln!("--baseline requires a path");
                    return ExitCode::FAILURE;
                };
                baseline_path = p.clone();
            }
            "--update" => update = true,
            "--inject-regression" => inject = Some(10.0),
            "--report" => {
                i += 1;
                let Some(p) = args.get(i) else {
                    eprintln!("--report requires a path");
                    return ExitCode::FAILURE;
                };
                report_path = Some(p.clone());
            }
            other => {
                eprintln!("unknown check argument {other}");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }

    let metrics = co_bench::collect_metrics(inject);
    if update {
        let doc = co_bench::check::baseline_json(&metrics);
        if let Err(e) = std::fs::write(&baseline_path, doc.to_string_compact() + "\n") {
            eprintln!("cannot write {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "baseline written to {baseline_path} ({} metrics)",
            metrics.len()
        );
        return ExitCode::SUCCESS;
    }

    let text = match std::fs::read_to_string(&baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {baseline_path}: {e} (run `tables check --update` once)");
            return ExitCode::FAILURE;
        }
    };
    let baseline = match co_json::parse(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{baseline_path} is not valid JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = co_bench::compare(&metrics, &baseline);
    let rendered = report.render();
    print!("{rendered}");
    if let Some(path) = report_path {
        if let Err(e) = std::fs::write(&path, &rendered) {
            eprintln!("cannot write report to {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("check") {
        return run_check(&args[1..]);
    }
    let mut selected: Vec<Experiment> = Vec::new();
    let mut json = false;
    let mut jobs = 1usize;
    let mut profile = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--exp" => {
                i += 1;
                let Some(name) = args.get(i) else {
                    eprintln!("--exp requires an argument (e0..e19, e21 or e22)");
                    return ExitCode::FAILURE;
                };
                match Experiment::parse(name) {
                    Some(e) => selected.push(e),
                    None => {
                        eprintln!("unknown experiment {name}; expected e0..e19, e21 or e22");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--jobs" => {
                i += 1;
                let parsed = args.get(i).and_then(|s| s.parse::<usize>().ok());
                let Some(n) = parsed else {
                    eprintln!("--jobs requires a number (0 = one worker per core)");
                    return ExitCode::FAILURE;
                };
                if n > MAX_JOBS {
                    eprintln!("--jobs must be at most {MAX_JOBS}, got {n}");
                    return ExitCode::FAILURE;
                }
                jobs = n;
            }
            "--json" => json = true,
            "--profile" => profile = true,
            "--help" | "-h" => {
                println!(
                    "usage: tables [--exp eN]... [--jobs N] [--json] [--profile]\n       tables check [--baseline FILE] [--update] [--inject-regression] [--report FILE]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument {other}");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }
    if selected.is_empty() {
        selected = Experiment::ALL.to_vec();
    }
    co_net::prof::set_enabled(profile);
    for exp in selected {
        co_net::prof::reset();
        let table = run_experiment_with(exp, jobs);
        if json {
            println!("{}", table.to_json().to_string_compact());
        } else {
            println!("{table}");
        }
        if profile {
            println!("hot-path profile ({exp}):\n{}", co_net::prof::report());
        }
    }
    ExitCode::SUCCESS
}
