//! Experiment E11b: violate the channel model (drop / duplicate / inject
//! pulses) and observe the algorithms break — empirical evidence that the
//! paper's "pulses cannot be dropped or injected" assumption (§2) is
//! load-bearing.

use content_oblivious::core::invariants::CwMonitor;
use content_oblivious::core::registry::Alg1Def;
use content_oblivious::core::registry::{Alg2Def, RingProtocol};
use content_oblivious::core::{Alg1Node, Alg2Node, Role};
use content_oblivious::net::{
    Budget, ChannelId, FaultPlan, Outcome, Port, Pulse, RingSpec, SchedulerKind, Simulation,
};

fn alg2_sim(spec: &RingSpec, kind: SchedulerKind, seed: u64) -> Simulation<Pulse, Alg2Node> {
    let nodes = Alg2Def::nodes(spec);
    Simulation::new(spec.wiring(), nodes, kind.build(seed))
}

#[test]
fn dropped_pulse_prevents_termination() {
    // Drop one early pulse: the counting arguments of Lemmas 6-12 need
    // every pulse; the ring deadlocks short of electing (quiescent, but
    // nodes wait forever — or worse).
    let spec = RingSpec::oriented(vec![3, 5, 2]);
    let mut sim = alg2_sim(&spec, SchedulerKind::Fifo, 0);
    sim.set_faults(FaultPlan::new().drop_seq(4));
    let report = sim.run(Budget::default());
    assert_eq!(sim.fault_stats().dropped, 1);
    assert_ne!(
        report.outcome,
        Outcome::QuiescentTerminated,
        "a lost pulse must break quiescent termination"
    );
    // The healthy control on the same ring succeeds.
    let mut healthy = alg2_sim(&spec, SchedulerKind::Fifo, 0);
    let ok = healthy.run(Budget::default());
    assert_eq!(ok.outcome, Outcome::QuiescentTerminated);
}

#[test]
fn dropped_pulse_breaks_lemma9_equivalence() {
    // Algorithm 1 with one dropped pulse reaches quiescence while some node
    // still has ρ_cw < ID — exactly the configuration Lemma 9 proves
    // impossible in the fault-free model. The monitor sees the violation.
    let spec = RingSpec::oriented(vec![2, 4, 3]);
    let nodes: Vec<Alg1Node> = Alg1Def::nodes(&spec);
    let mut sim: Simulation<Pulse, Alg1Node> =
        Simulation::new(spec.wiring(), nodes, SchedulerKind::Fifo.build(0));
    sim.set_faults(FaultPlan::new().drop_seq(2));
    let report = sim.run(Budget::default());
    assert_eq!(report.outcome, Outcome::Quiescent);
    let mut monitor = CwMonitor::new();
    let verdict = monitor.check(sim.nodes(), 0);
    assert!(
        verdict.is_err(),
        "monitor must flag the impossible quiescent configuration"
    );
}

#[test]
fn duplicated_pulse_overshoots_counters() {
    // A duplicated pulse inflates some ρ_cw beyond ID_max (Corollary 14
    // violation) or yields a wrong election.
    let spec = RingSpec::oriented(vec![2, 4, 3]);
    let nodes: Vec<Alg1Node> = Alg1Def::nodes(&spec);
    let mut sim: Simulation<Pulse, Alg1Node> =
        Simulation::new(spec.wiring(), nodes, SchedulerKind::Fifo.build(0));
    sim.set_faults(FaultPlan::new().duplicate_seq(1));
    // The surplus pulse circulates forever once every node has absorbed —
    // cap the run; BudgetExhausted is itself evidence of the breakage.
    let report = sim.run(Budget::steps(100_000));
    assert_eq!(sim.fault_stats().duplicated, 1);
    assert!(report.outcome == Outcome::Quiescent || report.outcome == Outcome::BudgetExhausted);
    let id_max = 4;
    let overshoot = (0..3).any(|i| sim.node(i).rho_cw() > id_max);
    let wrong_leader = sim.node(1).role() != Role::Leader
        || sim.node(0).role() == Role::Leader
        || sim.node(2).role() == Role::Leader;
    assert!(
        overshoot || wrong_leader,
        "duplication must corrupt counters or the election"
    );
}

#[test]
fn injected_pulse_corrupts_the_election() {
    // Channel noise inventing a pulse out of thin air (forbidden by the
    // model) likewise corrupts the run.
    let spec = RingSpec::oriented(vec![2, 4, 3]);
    let nodes: Vec<Alg1Node> = Alg1Def::nodes(&spec);
    let mut sim: Simulation<Pulse, Alg1Node> =
        Simulation::new(spec.wiring(), nodes, SchedulerKind::Fifo.build(0));
    sim.start();
    // Inject a spurious CW pulse on node 0's clockwise channel.
    sim.inject(ChannelId::new(0, Port::One), Pulse);
    // As with duplication, the spurious pulse never dies; cap the run.
    let report = sim.run(Budget::steps(100_000));
    assert_eq!(sim.fault_stats().injected, 1);
    assert!(report.outcome == Outcome::Quiescent || report.outcome == Outcome::BudgetExhausted);
    let overshoot = (0..3).any(|i| sim.node(i).rho_cw() > 4);
    let wrong = sim.node(1).role() != Role::Leader;
    assert!(overshoot || wrong, "injection must corrupt the run");
}

#[test]
fn faults_are_reproducible() {
    // The fault plan keys on deterministic sequence numbers: two identical
    // runs with the same plan and scheduler behave identically.
    let spec = RingSpec::oriented(vec![3, 5, 2]);
    let run = |seed| {
        let mut sim = alg2_sim(&spec, SchedulerKind::Lifo, seed);
        sim.set_faults(FaultPlan::new().drop_seq(3).duplicate_seq(7));
        let report = sim.run(Budget::steps(50_000));
        (
            report.outcome,
            report.total_sent,
            (0..3).map(|i| sim.node(i).role()).collect::<Vec<_>>(),
        )
    };
    assert_eq!(run(9), run(9));
}
