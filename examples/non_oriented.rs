//! Non-oriented rings (Theorem 2 / Figure 1): nodes cannot tell which port
//! leads clockwise, yet Algorithm 3 elects a leader *and* orients the ring.
//!
//! Renders the paper's Figure 1 contrast — an oriented ring vs. one with
//! scrambled ports — and shows the algorithm converging on both, with the
//! improved ID scheme hitting exactly `n(2·ID_max + 1)` pulses.
//!
//! ```sh
//! cargo run --example non_oriented
//! ```

use content_oblivious::core::registry::Alg2Def;
use content_oblivious::core::runner::RunOptions;
use content_oblivious::core::{runner, IdScheme, Role};
use content_oblivious::net::{Port, RingSpec, SchedulerKind};

/// ASCII rendering of a ring's port layout (the paper's Figure 1).
fn render(spec: &RingSpec) {
    let n = spec.len();
    print!("  ");
    for i in 0..n {
        let (a, b) = if spec.flips()[i] {
            ("1", "0")
        } else {
            ("0", "1")
        };
        print!("--[{a}({}){b}]--", spec.id(i));
    }
    println!(
        "  (wraps around; left port / ID / right port; right leads clockwise iff it is Port_1)"
    );
}

fn run(label: &str, spec: &RingSpec, scheme: IdScheme) {
    println!("\n=== {label}: {spec} / scheme: {scheme} ===");
    render(spec);
    let out = runner::run_alg3(spec, scheme, &RunOptions::new(SchedulerKind::Random, 7))
        .expect("IDs fit");
    assert!(out.report.reached_quiescence());
    for i in 0..spec.len() {
        let role = out.report.roles[i];
        let claimed = out.cw_ports[i].expect("stabilized");
        let truth = spec.cw_port(i);
        println!(
            "  node {i} (ID {:>2}): {role:<10}  claims CW = {claimed}  (wiring says {truth})",
            spec.id(i)
        );
    }
    println!(
        "  orientation consistent: {} | messages: {} (predicted {})",
        out.orientation_consistent,
        out.report.total_messages,
        out.report.predicted_messages.unwrap()
    );
    assert!(out.orientation_consistent);
    assert_eq!(
        out.report.total_messages,
        out.report.predicted_messages.unwrap()
    );
    let leaders = out
        .report
        .roles
        .iter()
        .filter(|r| **r == Role::Leader)
        .count();
    assert_eq!(leaders, 1);
}

fn main() {
    let ids = vec![9u64, 4, 11, 6, 3];

    // Figure 1 left: an oriented ring (every Port_1 leads clockwise).
    let oriented = RingSpec::oriented(ids.clone());
    run("oriented ring", &oriented, IdScheme::Improved);

    // Figure 1 right: a non-oriented ring — some nodes' ports are swapped.
    let scrambled = RingSpec::with_flips(ids.clone(), vec![true, false, true, true, false]);
    run("non-oriented ring", &scrambled, IdScheme::Improved);

    // Proposition 15's simpler scheme pays ~2x the pulses on the same ring.
    run("non-oriented ring", &scrambled, IdScheme::Doubled);

    // The orientation output really is usable: feed it back as an oriented
    // ring and run the terminating Algorithm 2 on top.
    let out = runner::run_alg3(
        &scrambled,
        IdScheme::Improved,
        &RunOptions::new(SchedulerKind::Random, 7),
    )
    .expect("IDs fit");
    let flips: Vec<bool> = (0..5)
        .map(|i| out.cw_ports[i].expect("stabilized") == Port::Zero)
        .collect();
    let reoriented = RingSpec::with_flips(ids, flips);
    let report = runner::run::<Alg2Def>(&reoriented, &RunOptions::new(SchedulerKind::Random, 8));
    assert!(report.quiescently_terminated());
    println!(
        "\nre-running Algorithm 2 on the self-oriented ring: {}",
        report.outcome
    );
    println!("leader again at position {:?}", report.leader);
}
