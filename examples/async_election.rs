//! Async facade: the same elections, written as straight-line `async fn`
//! node programs over the virtual-time network model.
//!
//! ```sh
//! cargo run --example async_election
//! ```
//!
//! Three acts:
//!
//! 1. Algorithm 1 as an async future (`alg1_async_ring`) stabilizes to the
//!    maximum-ID leader and matches the state-machine twin's counts.
//! 2. Chang–Roberts as an async future terminates — futures returning is
//!    the termination event — under every adversarial scheduler.
//! 3. A seeded latency plan plus the earliest-arrival scheduler runs the
//!    election in virtual time, byte-identically on every rerun.

use content_oblivious::classic::chang_roberts_async_ring;
use content_oblivious::core::registry::Alg1Def;
use content_oblivious::core::runner::RunOptions;
use content_oblivious::core::{alg1_async_ring, runner, Role};
use content_oblivious::net::{Budget, LatencyModel, LatencyPlan, Outcome, RingSpec, SchedulerKind};

fn main() {
    let ids = vec![23u64, 7, 42, 5, 18, 31, 2, 12];
    let spec = RingSpec::oriented(ids.clone());
    println!("ring: {spec}");

    // -- Act 1: Algorithm 1, async vs state machine ---------------------------
    let mut ring = alg1_async_ring(&spec, SchedulerKind::Random.build(0xC0FFEE));
    let report = ring.run(Budget::default());
    let twin = runner::run::<Alg1Def>(&spec, &RunOptions::new(SchedulerKind::Random, 0xC0FFEE));
    println!("\nAlgorithm 1 (async): outcome {}", report.outcome);
    for (i, role) in ring.outputs().iter().enumerate() {
        let marker = if *role == Some(Role::Leader) {
            "  <-- leader"
        } else {
            ""
        };
        println!("  node {i} (ID {:>2}): {:?}{marker}", ids[i], role);
    }
    assert_eq!(
        report.outcome,
        Outcome::Quiescent,
        "stabilizes, never terminates"
    );
    assert_eq!(
        report.total_sent, twin.total_messages,
        "async == state machine"
    );
    println!("pulses: {} (state-machine twin agrees)", report.total_sent);

    // -- Act 2: Chang–Roberts terminates under every adversary ----------------
    let mut elected = None;
    for kind in SchedulerKind::ALL {
        let mut cr = chang_roberts_async_ring(&spec, kind.build(7));
        let r = cr.run(Budget::default());
        assert_eq!(r.outcome, Outcome::QuiescentTerminated, "under {kind}");
        let leader = cr
            .outputs()
            .iter()
            .position(|o| *o == Some(Role::Leader))
            .expect("one leader");
        assert_eq!(
            *elected.get_or_insert(leader),
            leader,
            "same leader under {kind}"
        );
    }
    println!(
        "\nChang-Roberts (async): node {} (ID 42) elected under all {} schedulers",
        elected.expect("ran"),
        SchedulerKind::ALL.len()
    );

    // -- Act 3: virtual time --------------------------------------------------
    let plan = LatencyPlan::new(LatencyModel::Uniform { min: 1, max: 9 }, 42);
    let run_timed = || {
        let mut cr = chang_roberts_async_ring(&spec, SchedulerKind::Latency.build(1));
        cr.set_latency(plan.clone());
        let r = cr.run(Budget::default());
        (r.steps, r.total_sent, cr.now(), cr.net_fingerprint())
    };
    let (steps, sent, now, fp) = run_timed();
    assert_eq!(
        run_timed(),
        (steps, sent, now, fp),
        "seeded latency replays"
    );
    println!(
        "\nvirtual time: {sent} messages over {steps} deliveries \
         finished at t = {now} (deterministic, fingerprint {fp:#018x})"
    );

    println!("\nall checks passed");
}
