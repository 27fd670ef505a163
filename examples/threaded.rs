//! The same algorithms on real OS threads: one thread per node, an mpsc
//! channel per link, delays from genuine scheduler nondeterminism plus
//! injected jitter — demonstrating the results are not simulator artifacts.
//!
//! ```sh
//! cargo run --example threaded
//! ```

use content_oblivious::core::registry::{Alg1Def, Alg2Def, RingProtocol};
use content_oblivious::core::{Alg1Node, Alg2Node, Role};
use content_oblivious::net::threaded::{run_threaded, ThreadedOptions, ThreadedOutcome};
use content_oblivious::net::{Pulse, RingSpec};

fn main() {
    let ids = vec![9u64, 17, 3, 12, 6];
    let spec = RingSpec::oriented(ids.clone());
    let n = spec.len() as u64;
    let id_max = spec.id_max();

    let opts = ThreadedOptions {
        max_jitter_us: 50, // perturb thread interleavings
        ..ThreadedOptions::default()
    };

    // --- Algorithm 2: terminating; threads stop on their own. -------------
    let nodes: Vec<Alg2Node> = Alg2Def::nodes(&spec);
    let report = run_threaded::<Pulse, _>(&spec.wiring(), nodes, &opts);
    println!("[alg2/threads] outcome: {:?}", report.outcome);
    assert_eq!(report.outcome, ThreadedOutcome::AllTerminated);
    for (i, node) in report.nodes.iter().enumerate() {
        println!(
            "[alg2/threads] node {i} (ID {:>2}): {:?}",
            ids[i],
            node.role()
        );
    }
    assert_eq!(report.nodes[1].role(), Role::Leader);
    println!(
        "[alg2/threads] pulses sent: {} (Theorem 1: {})",
        report.total_sent,
        n * (2 * id_max + 1)
    );
    assert_eq!(report.total_sent, n * (2 * id_max + 1));

    // --- Algorithm 1: stabilizing; quiescence detected by the watchdog. ---
    let nodes: Vec<Alg1Node> = Alg1Def::nodes(&spec);
    let report = run_threaded::<Pulse, _>(&spec.wiring(), nodes, &opts);
    println!("\n[alg1/threads] outcome: {:?}", report.outcome);
    assert_eq!(report.outcome, ThreadedOutcome::Quiescent);
    assert_eq!(report.nodes[1].role(), Role::Leader);
    println!(
        "[alg1/threads] pulses sent: {} (Corollary 13: n·ID_max = {})",
        report.total_sent,
        n * id_max
    );
    assert_eq!(report.total_sent, n * id_max);

    println!("\nthreaded runtime agrees with the discrete-event simulator.");
}
