//! The threaded runtime and the discrete-event simulator must agree: same
//! leader, same exact message counts — the algorithms' guarantees are
//! schedule-independent, and OS threads are just one more adversary.

use content_oblivious::core::registry::Alg2Def;
use content_oblivious::core::registry::{Alg1Def, RingProtocol};
use content_oblivious::core::runner::RunOptions;
use content_oblivious::core::{runner, Alg1Node, Alg2Node, Role};
use content_oblivious::net::threaded::{run_threaded, ThreadedOptions, ThreadedOutcome};
use content_oblivious::net::{Pulse, RingSpec, SchedulerKind};

fn opts() -> ThreadedOptions {
    ThreadedOptions {
        max_jitter_us: 20,
        ..ThreadedOptions::default()
    }
}

#[test]
fn alg2_threaded_matches_simulator() {
    let spec = RingSpec::oriented(vec![8, 3, 14, 5, 11, 2]);
    let sim_report = runner::run::<Alg2Def>(&spec, &RunOptions::new(SchedulerKind::Random, 9));

    let nodes: Vec<Alg2Node> = Alg2Def::nodes(&spec);
    let threaded = run_threaded::<Pulse, _>(&spec.wiring(), nodes, &opts());

    assert_eq!(threaded.outcome, ThreadedOutcome::AllTerminated);
    assert_eq!(threaded.total_sent, sim_report.total_messages);
    let threaded_roles: Vec<Role> = threaded.nodes.iter().map(Alg2Node::role).collect();
    assert_eq!(threaded_roles, sim_report.roles);
}

#[test]
fn alg1_threaded_quiesces_at_id_max() {
    let spec = RingSpec::oriented(vec![6, 13, 4]);
    let nodes: Vec<Alg1Node> = Alg1Def::nodes(&spec);
    let threaded = run_threaded::<Pulse, _>(&spec.wiring(), nodes, &opts());
    assert_eq!(threaded.outcome, ThreadedOutcome::Quiescent);
    assert_eq!(threaded.total_sent, 3 * 13);
    for (i, node) in threaded.nodes.iter().enumerate() {
        assert_eq!(node.rho_cw(), 13, "node {i}");
        let expected = if i == 1 {
            Role::Leader
        } else {
            Role::NonLeader
        };
        assert_eq!(node.role(), expected, "node {i}");
    }
}

#[test]
fn alg2_threaded_repeated_runs_are_deterministic_in_count() {
    // Thread interleavings differ per run; the pulse count may not.
    let spec = RingSpec::oriented(vec![4, 10, 7]);
    let expected = 3 * (2 * 10 + 1);
    for run in 0..5 {
        let nodes: Vec<Alg2Node> = Alg2Def::nodes(&spec);
        let threaded = run_threaded::<Pulse, _>(&spec.wiring(), nodes, &opts());
        assert_eq!(
            threaded.outcome,
            ThreadedOutcome::AllTerminated,
            "run {run}"
        );
        assert_eq!(threaded.total_sent, expected, "run {run}");
        assert_eq!(threaded.nodes[1].role(), Role::Leader, "run {run}");
    }
}

#[test]
fn threaded_single_node_ring() {
    let spec = RingSpec::oriented(vec![6]);
    let nodes = vec![Alg2Node::new(6, spec.cw_port(0))];
    let threaded = run_threaded::<Pulse, _>(&spec.wiring(), nodes, &opts());
    assert_eq!(threaded.outcome, ThreadedOutcome::AllTerminated);
    assert_eq!(threaded.total_sent, 2 * 6 + 1);
    assert_eq!(threaded.nodes[0].role(), Role::Leader);
}
