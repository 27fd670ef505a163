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

    let mut leaks = Vec::new();
    for path in &sources {
        let text = fs::read_to_string(path).expect("source is UTF-8");
        for (lineno, line) in text.lines().enumerate() {
            for needle in FORBIDDEN {
                if line.contains(needle) {
                    leaks.push(format!("{}:{}: {needle}", path.display(), lineno + 1));
                }
            }
        }
    }
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
