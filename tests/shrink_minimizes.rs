//! The ddmin shrinker against the ablation: find a schedule that drives the
//! ungated Algorithm 2 variant into an invariant violation, then minimize it.
//! The shrunk schedule must be no longer than the original and must still
//! trip the monitor — a 1-minimal machine-checked counterexample for the
//! necessity of the CCW receive gate (Lemma 9).

use content_oblivious::core::ablation::UngatedAlg2Node;
use content_oblivious::core::invariants::Alg2MonitorObserver;
use content_oblivious::core::registry::{RingProtocol, UngatedDef};
use content_oblivious::net::{
    shrink_schedule, Budget, Pulse, RingSpec, Schedule, SchedulerKind, Simulation,
};

fn ungated(spec: &RingSpec) -> Vec<UngatedAlg2Node> {
    UngatedDef::nodes(spec)
}

/// Finds a recorded schedule under which the ablation violates the CW/CCW
/// invariants, scanning the adversary matrix.
fn find_violating_schedule(spec: &RingSpec) -> (Schedule, SchedulerKind, u64) {
    for kind in SchedulerKind::ALL {
        for seed in 0..32u64 {
            let mut sim: Simulation<Pulse, UngatedAlg2Node> =
                Simulation::new(spec.wiring(), ungated(spec), kind.build(seed));
            let mut monitor = Alg2MonitorObserver::new();
            sim.enable_schedule_recording();
            sim.run_observed(Budget::default(), &mut monitor);
            if monitor.violation().is_some() {
                return (
                    sim.recorded_schedule().expect("recording was enabled"),
                    kind,
                    seed,
                );
            }
        }
    }
    panic!("the ungated ablation never tripped the monitor — it should");
}

#[test]
fn shrinker_minimizes_an_ungated_counterexample() {
    let spec = RingSpec::oriented(vec![2, 3, 1]);
    let (original, kind, seed) = find_violating_schedule(&spec);

    let violates = |schedule: &Schedule| {
        let mut sim: Simulation<Pulse, UngatedAlg2Node> =
            Simulation::new(spec.wiring(), ungated(&spec), SchedulerKind::Fifo.build(0));
        let mut monitor = Alg2MonitorObserver::new();
        sim.replay_observed(schedule, Budget::default(), &mut monitor);
        monitor.violation().is_some()
    };

    assert!(
        violates(&original),
        "{kind}/{seed}: recorded schedule must reproduce the violation via replay"
    );

    let shrunk = shrink_schedule(&original, violates);
    assert!(
        shrunk.len() <= original.len(),
        "shrunk {} > original {}",
        shrunk.len(),
        original.len()
    );
    assert!(
        violates(&shrunk),
        "shrunk schedule no longer trips the monitor"
    );

    // 1-minimality: deleting any single pick loses the violation.
    for i in 0..shrunk.len() {
        let mut shorter = shrunk.picks().to_vec();
        shorter.remove(i);
        assert!(
            !violates(&Schedule::from_picks(shorter)),
            "not 1-minimal: pick {i} of {} is removable",
            shrunk.len()
        );
    }
}

#[test]
fn shrinking_preserves_textual_round_trip() {
    // The minimized counterexample must survive Display/FromStr so it can be
    // pasted into `co-ring replay --schedule ...`.
    let spec = RingSpec::oriented(vec![2, 3, 1]);
    let (original, _, _) = find_violating_schedule(&spec);
    let violates = |schedule: &Schedule| {
        let mut sim: Simulation<Pulse, UngatedAlg2Node> =
            Simulation::new(spec.wiring(), ungated(&spec), SchedulerKind::Fifo.build(0));
        let mut monitor = Alg2MonitorObserver::new();
        sim.replay_observed(schedule, Budget::default(), &mut monitor);
        monitor.violation().is_some()
    };
    let shrunk = shrink_schedule(&original, violates);
    let reparsed: Schedule = shrunk.to_string().parse().expect("round trip");
    assert_eq!(shrunk, reparsed);
    assert!(violates(&reparsed));
}
