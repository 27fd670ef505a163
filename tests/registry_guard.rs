//! Seam guard: protocol dispatch happens in the registry, nowhere else.
//!
//! Before the registry, every driver layer matched on its own protocol enum
//! (`ProtocolChoice::Alg1 => …` in the CLI, `FleetProtocol::Alg1 => …` in
//! the bench crate), so onboarding a protocol meant editing a pyramid of
//! match arms per layer. This test pins the refactor: no source file in
//! `crates/cli` or `crates/bench` may name a per-protocol variant again —
//! they resolve `ProtocolSpec` entries through the registry instead. Nor
//! may they, or the runners, build a registered protocol's node set: that
//! is `RingProtocol::nodes`' job.
//!
//! A second guard keeps the engine's snapshot a plain copy of its run
//! state: no scheduler under `crates/` serializes itself into words again.
//!
//! A third keeps deleted layers deleted. The paper's model stays
//! message-driven and its schedules stay in the adversary's hands: the async
//! node facade, the engine's timer heap, the registry flag that advertised
//! the facade and the thread-per-node runtime are gone, as is the
//! starve-node adversary no scheduler kind, command or experiment used.
//! Each experiment number has one source: the Criterion-shaped micro-bench
//! harness and its bench targets are gone (perfbench and the `tables`
//! catalogue time the system), and so is the `co-ring tables` front end
//! (the `tables` binary is the one). The explorer is one path: the second,
//! tuple-keyed explorer and the visited-set byte budget only it was
//! compared under are gone, and an independent model in `tests/model`
//! checks the explorer's counts instead. A run is watched one way: the
//! engine's event log (its trace, event and fault-kind types and the trace
//! analysis module) is gone, because a delivery is fully described by the
//! `StepInfo` a `SimObserver` already receives. No source under `crates/`,
//! `tests/` or `examples/` names any of them again.

use std::fs;
use std::path::{Path, PathBuf};

/// Substrings whose reappearance means a dispatch site has leaked back out
/// of the registry seam.
const FORBIDDEN: &[&str] = &[
    "ProtocolChoice::Alg",
    "ProtocolChoice::Ungated",
    "FleetProtocol::",
];

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("crate source dir exists") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every `path:line: needle` where a line of `sources` contains a needle.
fn lines_naming(sources: &[PathBuf], needles: &[&str]) -> Vec<String> {
    let mut found = Vec::new();
    for path in sources {
        let text = fs::read_to_string(path).expect("source is UTF-8");
        for (lineno, line) in text.lines().enumerate() {
            for needle in needles {
                if line.contains(needle) {
                    found.push(format!("{}:{}: {needle}", path.display(), lineno + 1));
                }
            }
        }
    }
    found
}

#[test]
fn driver_layers_contain_no_per_protocol_match_arms() {
    // tests/ lives at the workspace root, one level above crates/.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = Vec::new();
    for layer in ["crates/cli/src", "crates/bench/src"] {
        rust_sources(&root.join(layer), &mut sources);
    }
    assert!(
        sources.len() >= 2,
        "guard must actually see the driver layers, found {sources:?}"
    );

    let leaks = lines_naming(&sources, FORBIDDEN);
    assert!(
        leaks.is_empty(),
        "per-protocol dispatch leaked out of the registry:\n{}",
        leaks.join("\n")
    );
}

/// Constructors of the registered protocols' nodes. A line that calls one
/// with a ring position's ID (`spec.id(i)`) is building a node set that
/// `RingProtocol::nodes` already builds.
const REGISTERED_NODES: &[&str] = &[
    "Alg1Node::new(",
    "Alg2Node::new(",
    "Alg3Node::new(",
    "UngatedAlg2Node::new(",
    "ChangRobertsNode::new(",
    "HirschbergSinclairNode::new(",
    "PetersonNode::new(",
    "FranklinNode::new(",
];

#[test]
fn node_sets_are_built_only_by_their_definitions() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = vec![
        root.join("crates/core/src/runner.rs"),
        root.join("crates/classic/src/runner.rs"),
    ];
    for layer in ["crates/cli/src", "crates/bench/src"] {
        rust_sources(&root.join(layer), &mut sources);
    }
    let mut copies = Vec::new();
    for path in &sources {
        let text = fs::read_to_string(path).expect("source is UTF-8");
        for (lineno, line) in text.lines().enumerate() {
            // The universal simulation wires every node's CW port to
            // `Port::One`: a different node set, not a copy.
            let per_position = line.contains(".id(i)") && !line.contains("Port::One");
            if per_position && REGISTERED_NODES.iter().any(|c| line.contains(c)) {
                copies.push(format!(
                    "{}:{}: {}",
                    path.display(),
                    lineno + 1,
                    line.trim()
                ));
            }
        }
    }
    assert!(
        copies.is_empty(),
        "node sets built outside their RingProtocol::nodes:\n{}",
        copies.join("\n")
    );
}

/// Names of the word-vector encoding of scheduler and latency state that
/// engine snapshots used before they became a copy of the run state.
const SECOND_ENCODING: &[&str] = &["fn save_state", "fn restore_state", "LatencySnapshot"];

#[test]
fn engine_snapshots_keep_no_second_encoding_of_run_state() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = Vec::new();
    rust_sources(&root.join("crates"), &mut sources);
    assert!(
        sources
            .iter()
            .any(|p| p.ends_with("crates/net/src/engine.rs")),
        "guard must actually see the engine, found {} files",
        sources.len()
    );
    let leaks = lines_naming(&sources, SECOND_ENCODING);
    assert!(
        leaks.is_empty(),
        "engine snapshots copy their run state; a second encoding is back:\n{}",
        leaks.join("\n")
    );
}

/// Names of the deleted async node facade, engine timer heap,
/// thread-per-node runtime, starve-node adversary, micro-bench harness,
/// `co-ring tables` command, second explorer and its byte budget, and
/// engine event log. Each is
/// split with `concat!` so that this file, which the guard also reads, does
/// not contain the names it forbids.
const DELETED_LAYERS: &[&str] = &[
    concat!("runtime", "::"),
    concat!("arm", "_timer"),
    concat!("on", "_timer"),
    concat!("drain", "_timers"),
    concat!("Timer", "Fired"),
    concat!("Async", "Twin"),
    concat!("run", "_threaded"),
    concat!("Threaded", "Options"),
    concat!("Threaded", "Report"),
    concat!("Threaded", "Outcome"),
    concat!("for", "_threaded"),
    concat!("net::", "threaded"),
    concat!("StarveNode", "Scheduler"),
    concat!("criterion", "_group"),
    concat!("criterion", "_main"),
    concat!("co_bench::", "harness"),
    concat!("Command::", "Tables"),
    concat!("explore", "_reference"),
    concat!("max_state", "_bytes"),
    concat!("Trace", "Event"),
    concat!("enable", "_trace"),
    concat!("delivery", "_directions"),
    concat!("Fault", "Kind"),
    concat!("analysis", "::"),
];

#[test]
fn no_source_names_the_async_facade_or_the_timer_heap() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = Vec::new();
    for dir in ["crates", "tests", "examples"] {
        rust_sources(&root.join(dir), &mut sources);
    }
    for seen in [
        "crates/net/src/engine.rs",
        "crates/cli/src/args.rs",
        "tests/registry_guard.rs",
        "examples/quickstart.rs",
    ] {
        assert!(
            sources.iter().any(|p| p.ends_with(seen)),
            "guard must actually see {seen}, found {} files",
            sources.len()
        );
    }
    let leaks = lines_naming(&sources, DELETED_LAYERS);
    assert!(
        leaks.is_empty(),
        "a deleted layer is back (the model has no timers or runtime of its own, \
         the experiments have one front end and one timing path, there is \
         one explorer, and runs are watched through StepInfo):\n{}",
        leaks.join("\n")
    );
}
