//! Corollary 5's punchline: run Chang–Roberts — an algorithm that *reads
//! IDs out of messages* — on a network that erases every message, by
//! electing a root content-obliviously (Algorithm 2) and simulating CR's
//! deliveries through the round-broadcast layer.
//!
//! ```sh
//! cargo run --example universal_sim
//! ```

use content_oblivious::classic::chang_roberts::{ChangRobertsNode, CrMsg};
use content_oblivious::compose::universal::simulate_on_defective_ring;
use content_oblivious::core::runner::RunOptions;
use content_oblivious::core::Role;
use content_oblivious::net::{Port, RingSpec, SchedulerKind};

fn main() {
    let ids = vec![9u64, 3, 12, 5, 8];
    let spec = RingSpec::oriented(ids.clone());
    println!("ring: {spec}");
    println!("channels: fully defective (every message becomes a bare pulse)\n");

    let out = simulate_on_defective_ring(
        &spec,
        &RunOptions::new(SchedulerKind::Random, 2024),
        |i| ChangRobertsNode::new(spec.id(i), Port::One),
        |m| match *m {
            CrMsg::Candidate(id) => id << 1,
            CrMsg::Elected(id) => (id << 1) | 1,
        },
        |w| {
            if w & 1 == 0 {
                CrMsg::Candidate(w >> 1)
            } else {
                CrMsg::Elected(w >> 1)
            }
        },
    );

    let election = out.election_messages.expect("small IDs");
    println!("phase 1  (Algorithm 2 election):   {election} pulses");
    println!(
        "phase 2  (simulated Chang-Roberts): {} pulses",
        out.total_messages - election
    );
    println!(
        "outcome: quiescent termination = {}\n",
        out.quiescently_terminated
    );

    for (i, role) in out.outputs.iter().enumerate() {
        let role = role.expect("every simulated node decided");
        let marker = if role == Role::Leader {
            "  <-- CR's winner"
        } else {
            ""
        };
        println!("  node {i} (ID {:>2}): {role}{marker}", ids[i]);
    }

    assert!(out.quiescently_terminated);
    assert_eq!(out.outputs[2], Some(Role::Leader));
    println!("\nChang-Roberts, which compares IDs inside messages, just ran");
    println!("to completion over channels that destroyed every message body.");
}
