//! Corollary 5 at full strength: classical content-carrying algorithms —
//! which provably cannot run on defective channels directly (see
//! `defective_sanity.rs`) — executed *through* the universal simulation
//! after a content-oblivious election.

use content_oblivious::classic::chang_roberts::{ChangRobertsNode, CrMsg};
use content_oblivious::classic::peterson::{PetersonMsg, PetersonNode};
use content_oblivious::compose::universal::simulate_on_defective_ring;
use content_oblivious::core::runner::RunOptions;
use content_oblivious::core::Role;
use content_oblivious::net::{Port, RingSpec, SchedulerKind};

fn cr_encode(m: &CrMsg) -> u64 {
    match *m {
        CrMsg::Candidate(id) => id << 1,
        CrMsg::Elected(id) => (id << 1) | 1,
    }
}

fn cr_decode(w: u64) -> CrMsg {
    if w & 1 == 0 {
        CrMsg::Candidate(w >> 1)
    } else {
        CrMsg::Elected(w >> 1)
    }
}

#[test]
fn chang_roberts_runs_over_pulses() {
    let spec = RingSpec::oriented(vec![4, 2, 7, 3]);
    for kind in [
        SchedulerKind::Fifo,
        SchedulerKind::Lifo,
        SchedulerKind::Random,
    ] {
        let out = simulate_on_defective_ring(
            &spec,
            &RunOptions::new(kind, 11),
            |i| ChangRobertsNode::new(spec.id(i), Port::One),
            cr_encode,
            cr_decode,
        );
        assert!(out.quiescently_terminated, "{kind}");
        // The *simulated* CR elects ID 7 at position 2 — decided entirely
        // over contentless pulses.
        let roles: Vec<Option<Role>> = out.outputs.clone();
        assert_eq!(roles[2], Some(Role::Leader), "{kind}");
        for i in [0usize, 1, 3] {
            assert_eq!(roles[i], Some(Role::NonLeader), "{kind} node {i}");
        }
        // The physical election (phase 1) also chose position 2; the two
        // layers agree because both elect the maximal ID.
        assert_eq!(out.leader, Some(2), "{kind}");
    }
}

#[test]
fn peterson_runs_over_pulses() {
    let spec = RingSpec::oriented(vec![3, 6, 2, 5]);
    let out = simulate_on_defective_ring(
        &spec,
        &RunOptions::new(SchedulerKind::Random, 5),
        |i| PetersonNode::new(spec.id(i), Port::One),
        |m| match *m {
            PetersonMsg::Token(t) => t << 1,
            PetersonMsg::Elected(id) => (id << 1) | 1,
        },
        |w| {
            if w & 1 == 0 {
                PetersonMsg::Token(w >> 1)
            } else {
                PetersonMsg::Elected(w >> 1)
            }
        },
    );
    assert!(out.quiescently_terminated);
    let leaders = out
        .outputs
        .iter()
        .filter(|o| **o == Some(Role::Leader))
        .count();
    assert_eq!(leaders, 1, "Peterson elects exactly one leader");
    assert!(out.outputs.iter().all(Option::is_some));
}

#[test]
fn simulation_cost_accounting() {
    // The pipeline reports both the Theorem 1 election cost and the total;
    // the simulation overhead is the difference and is positive.
    let spec = RingSpec::oriented(vec![2, 4, 3]);
    let out = simulate_on_defective_ring(
        &spec,
        &RunOptions::new(SchedulerKind::Fifo, 0),
        |i| ChangRobertsNode::new(spec.id(i), Port::One),
        cr_encode,
        cr_decode,
    );
    assert!(out.quiescently_terminated);
    assert_eq!(out.election_messages, Some(3 * (2 * 4 + 1)));
    assert!(Some(out.total_messages) > out.election_messages);
}

#[test]
#[should_panic(expected = "oriented rings")]
fn universal_simulation_requires_oriented_ring() {
    let spec = RingSpec::with_flips(vec![1, 2], vec![true, false]);
    let _ = simulate_on_defective_ring(
        &spec,
        &RunOptions::new(SchedulerKind::Fifo, 0),
        |i| ChangRobertsNode::new(spec.id(i), Port::One),
        cr_encode,
        cr_decode,
    );
}
