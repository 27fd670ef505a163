//! Quickstart: elect a leader on an oriented ring over fully defective
//! channels (Theorem 1), and verify the exact message complexity.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use content_oblivious::core::registry::Alg2Def;
use content_oblivious::core::runner::RunOptions;
use content_oblivious::core::{runner, Role};
use content_oblivious::net::{RingSpec, SchedulerKind};

fn main() {
    // A ring of 8 nodes with arbitrary positive IDs (clockwise order).
    // The channels corrupt every message into a contentless pulse; the
    // algorithm elects the maximum-ID node anyway.
    let ids = vec![23u64, 7, 42, 5, 18, 31, 2, 12];
    let spec = RingSpec::oriented(ids.clone());
    println!("ring: {spec}");

    // Run Algorithm 2 (quiescently terminating leader election) under a
    // randomized adversarial scheduler.
    let report = runner::run::<Alg2Def>(&spec, &RunOptions::new(SchedulerKind::Random, 0xC0FFEE));

    println!("\noutcome:            {}", report.outcome);
    for (i, role) in report.roles.iter().enumerate() {
        let marker = if *role == Role::Leader {
            "  <-- elected"
        } else {
            ""
        };
        println!("  node {i} (ID {:>2}): {role}{marker}", ids[i]);
    }

    let n = spec.len() as u64;
    let id_max = spec.id_max();
    println!("\nmessage complexity: {} pulses", report.total_messages);
    println!(
        "Theorem 1 predicts: n(2·ID_max + 1) = {}·(2·{} + 1) = {}",
        n,
        id_max,
        n * (2 * id_max + 1)
    );
    assert!(report.quiescently_terminated());
    assert_eq!(report.total_messages, n * (2 * id_max + 1));
    assert_eq!(report.leader, Some(2), "ID 42 sits at position 2");
    report
        .validate(&spec)
        .expect("exactly one leader, at ID_max");
    println!("\nall checks passed: quiescent termination, unique leader, exact count");
}
