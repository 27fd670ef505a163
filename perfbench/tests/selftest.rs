//! Self-test of the benchmark at toy sizes: every metric `BENCHMARK.json`
//! declares is printed with its unit, every correctness check passes (a
//! fail ratio of 0), and the shadow walk admits exactly the explorer's
//! configuration count.

use co_json::Value;
use perfbench::shadow;
use perfbench::workloads::{check_round, explore_once, Input, Setup};
use perfbench::{expected_probes, Sizes, Verdict, Workload};
use std::path::PathBuf;
use std::process::Command;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let doc = co_json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Value::as_array)
        .expect("section is an array")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("string field")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("selftest-{tag}"));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Runs the benchmark binary at toy sizes and parses its result line.
fn run(workload: Workload, trace: bool) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--toy", "--workload", workload.name(), "--seed", "7"])
        .args(["--seconds", "0.3", "--trace", if trace { "1" } else { "0" }])
        .current_dir(scratch(&format!("{}-{trace}", workload.name())))
        .output()
        .expect("benchmark runs");
    assert!(
        out.status.success(),
        "{}: {}",
        workload.name(),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    co_json::parse(stdout.lines().last().expect("a result line")).expect("result parses")
}

/// Checks a result line: correct, no failures, and exactly the declared
/// metrics with their units (in any order), each a finite number.
fn assert_result(result: &Value, section: &str, what: &str) {
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{what}");
    assert_eq!(
        result.get("failed").and_then(Value::as_u64),
        Some(0),
        "{what}"
    );
    assert!(
        result.get("attempted").and_then(Value::as_u64) >= Some(1),
        "{what}"
    );
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics object");
    let mut printed: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .expect("numeric value");
            assert!(value.is_finite(), "{what}: {name} = {value}");
            let unit = m.get("unit").and_then(Value::as_str).expect("unit");
            (name.clone(), unit.to_owned())
        })
        .collect();
    let mut want = declared(section);
    printed.sort();
    want.sort();
    assert_eq!(printed, want, "{what}");
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    for workload in Workload::ALL {
        let result = run(workload, false);
        assert_result(&result, "end_to_end", workload.name());
    }
}

#[test]
fn the_traced_run_prints_every_per_layer_metric() {
    let result = run(Workload::FleetMixed, true);
    assert_result(&result, "per_layer", "traced run");
}

#[test]
fn shadow_walk_admits_exactly_the_explorers_count() {
    let root = scratch("shadow");
    for workload in [Workload::ExploreAlg2, Workload::ExploreOoc] {
        let setup = Setup::new(workload, 3, &Sizes::TOY, &root).expect("set-up");
        let mut verdict = Verdict::default();
        let report = explore_once(&setup, 2, &mut verdict);
        assert_eq!(verdict.failed, 0, "{:?}", verdict.notes);
        let Input::Explore { spec, config, .. } = &setup.input else {
            panic!("explore input");
        };
        let walk = shadow::walk(spec, config.dedup, setup.scratch.path());
        assert_eq!(walk.admitted, report.configs, "{}", workload.name());
        assert_eq!(walk.quiescent, 1);
        assert_eq!(Some(walk.probes), expected_probes(spec.len()));
    }
}

#[test]
fn a_fleet_shortfall_counts_failed_rings() {
    let mut report = co_net::FleetReport::new();
    report.rings = 100;
    report.faults_injected = 3;
    report.elections = 95;
    let mut verdict = Verdict::default();
    check_round(&report, 0, &mut verdict);
    assert_eq!((verdict.attempted, verdict.failed), (100, 2));
}
