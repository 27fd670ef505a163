//! Corollary 5 end-to-end: elect a leader content-obliviously, then use it
//! as the root of an arbitrary computation — all over channels that erase
//! every message.
//!
//! Three computations run after the election:
//!   1. every node learns the ring size;
//!   2. max/sum aggregation with distance-from-leader labelling;
//!   3. a leader-driven replicated counter (a tiny state machine).
//!
//! ```sh
//! cargo run --example composition
//! ```

use content_oblivious::compose::pipeline::{
    elect_then_aggregate, elect_then_replicate, elect_then_ring_size,
};
use content_oblivious::core::runner::RunOptions;
use content_oblivious::net::{RingSpec, SchedulerKind};

fn main() {
    let ids = vec![14u64, 3, 27, 9, 21, 6];
    let spec = RingSpec::oriented(ids.clone());
    println!("ring: {spec}\n");

    // --- 1. Ring size ------------------------------------------------------
    let out = elect_then_ring_size(&spec, &RunOptions::new(SchedulerKind::Random, 42));
    assert!(out.quiescently_terminated);
    println!(
        "[ring-size] leader at position {:?} (ID {})",
        out.leader, 27
    );
    println!("[ring-size] every node's answer: {:?}", out.outputs);
    assert_eq!(out.outputs, vec![Some(6); 6]);
    println!(
        "[ring-size] total pulses {} (election alone: {:?})\n",
        out.total_messages, out.election_messages
    );

    // --- 2. Aggregation ----------------------------------------------------
    let inputs = vec![100u64, 250, 30, 480, 75, 120];
    let out = elect_then_aggregate(&spec, &inputs, &RunOptions::new(SchedulerKind::Random, 7));
    assert!(out.quiescently_terminated);
    println!("[aggregate] inputs: {inputs:?}");
    for (i, o) in out.outputs.iter().enumerate() {
        let o = o.expect("decided");
        println!(
            "[aggregate] node {i}: max={} sum={} n={} distance-from-leader={}",
            o.max, o.sum, o.count, o.distance
        );
        assert_eq!((o.max, o.sum, o.count), (480, 1055, 6));
    }
    println!();

    // --- 3. Replicated counter --------------------------------------------
    let script = vec![500i64, -125, 42, -17];
    let out = elect_then_replicate(&spec, &script, &RunOptions::new(SchedulerKind::Random, 9));
    assert!(out.quiescently_terminated);
    let expected: i64 = script.iter().sum();
    println!("[replicate] leader applies script {script:?}");
    println!("[replicate] all replicas converged to: {:?}", out.outputs);
    assert_eq!(out.outputs, vec![Some(expected); 6]);

    println!("\ncomposition checks passed: quiescent termination end-to-end,");
    println!("no phase-1 pulse ever consumed by a phase-2 node (paper §1.1).");
}
