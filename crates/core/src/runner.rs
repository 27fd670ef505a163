//! High-level election runners.
//!
//! Convenience wrappers that wire a [`RingSpec`] to the right protocol,
//! drive the simulation to completion, and package the result as an
//! [`ElectionReport`] with the paper's predicted message complexity
//! attached. All the examples, integration tests, and benches go through
//! these entry points.

use crate::alg1::Alg1Node;
use crate::alg2::Alg2Node;
use crate::alg3::{Alg3Node, Alg3Output, IdScheme};
use crate::election::{unique_leader, ElectionReport, Role};
use crate::invariants::{Alg2MonitorObserver, CwMonitorObserver, InvariantViolation};
use co_net::{
    Budget, LatencyPlan, Port, Pulse, QueueBackend, RingSpec, RunReport, SchedulerKind, Simulation,
};

/// Runs Algorithm 1 (stabilizing, oriented) to quiescence.
///
/// The ring may be non-oriented as a wiring, but each node is told its
/// clockwise port — Algorithm 1 is defined for oriented rings.
#[must_use]
pub fn run_alg1(spec: &RingSpec, scheduler: SchedulerKind, seed: u64) -> ElectionReport {
    run_alg1_latency(spec, scheduler, seed, &LatencyPlan::zero())
}

/// [`run_alg1`] under a per-channel latency plan (virtual time).
///
/// A zero plan keeps the engine's untimed fast path and reproduces
/// [`run_alg1`] bit-for-bit; a non-degenerate plan timestamps every
/// delivery, which matters to latency-aware schedulers like
/// [`SchedulerKind::Latency`].
#[must_use]
pub fn run_alg1_latency(
    spec: &RingSpec,
    scheduler: SchedulerKind,
    seed: u64,
    latency: &LatencyPlan,
) -> ElectionReport {
    let nodes = (0..spec.len())
        .map(|i| Alg1Node::new(spec.id(i), spec.cw_port(i)))
        .collect();
    let mut sim: Simulation<Pulse, Alg1Node> =
        Simulation::new(spec.wiring(), nodes, scheduler.build(seed));
    sim.set_latency(latency.clone());
    let run = sim.run(Budget::default());
    let roles: Vec<Role> = (0..spec.len()).map(|i| sim.node(i).role()).collect();
    report_from(spec, &run, roles, Some(spec.len() as u64 * spec.id_max()))
}

/// Runs Algorithm 1 with the Lemma 6–12 monitors checked after every step.
///
/// # Errors
///
/// Returns the first [`InvariantViolation`] observed, if any.
pub fn run_alg1_monitored(
    spec: &RingSpec,
    scheduler: SchedulerKind,
    seed: u64,
) -> Result<ElectionReport, InvariantViolation> {
    let nodes = (0..spec.len())
        .map(|i| Alg1Node::new(spec.id(i), spec.cw_port(i)))
        .collect();
    let mut sim: Simulation<Pulse, Alg1Node> =
        Simulation::new(spec.wiring(), nodes, scheduler.build(seed));
    let mut observer = CwMonitorObserver::new();
    let run = sim.run_observed(Budget::default(), &mut observer);
    observer.finish(sim.nodes())?;
    let roles: Vec<Role> = (0..spec.len()).map(|i| sim.node(i).role()).collect();
    Ok(report_from(
        spec,
        &run,
        roles,
        Some(spec.len() as u64 * spec.id_max()),
    ))
}

/// Runs Algorithm 2 (quiescently terminating, oriented; Theorem 1).
#[must_use]
pub fn run_alg2(spec: &RingSpec, scheduler: SchedulerKind, seed: u64) -> ElectionReport {
    run_alg2_scheduler(spec, scheduler.build(seed))
}

/// [`run_alg2`] under a per-channel latency plan (virtual time).
///
/// A zero plan reproduces [`run_alg2`] bit-for-bit.
#[must_use]
pub fn run_alg2_latency(
    spec: &RingSpec,
    scheduler: SchedulerKind,
    seed: u64,
    latency: &LatencyPlan,
) -> ElectionReport {
    run_alg2_scheduler_latency(spec, scheduler.build(seed), latency)
}

/// Runs Algorithm 2 under an arbitrary (possibly custom) scheduler.
#[must_use]
pub fn run_alg2_scheduler(
    spec: &RingSpec,
    scheduler: Box<dyn co_net::Scheduler>,
) -> ElectionReport {
    run_alg2_scheduler_latency(spec, scheduler, &LatencyPlan::zero())
}

/// [`run_alg2_scheduler`] under a per-channel latency plan (virtual time).
///
/// A zero plan reproduces [`run_alg2_scheduler`] bit-for-bit.
#[must_use]
pub fn run_alg2_scheduler_latency(
    spec: &RingSpec,
    scheduler: Box<dyn co_net::Scheduler>,
    latency: &LatencyPlan,
) -> ElectionReport {
    let nodes = alg2_nodes(spec);
    let mut sim: Simulation<Pulse, Alg2Node> = Simulation::new(spec.wiring(), nodes, scheduler);
    sim.set_latency(latency.clone());
    let run = sim.run(Budget::default());
    let roles = alg2_roles(&sim, spec.len());
    report_from(spec, &run, roles, Some(predicted_alg2(spec)))
}

/// Runs Algorithm 2 with all §3 invariant monitors checked every step.
///
/// # Errors
///
/// Returns the first [`InvariantViolation`] observed, if any.
pub fn run_alg2_monitored(
    spec: &RingSpec,
    scheduler: SchedulerKind,
    seed: u64,
) -> Result<ElectionReport, InvariantViolation> {
    let nodes = alg2_nodes(spec);
    let mut sim: Simulation<Pulse, Alg2Node> =
        Simulation::new(spec.wiring(), nodes, scheduler.build(seed));
    let mut observer = Alg2MonitorObserver::new();
    let run = sim.run_observed(Budget::default(), &mut observer);
    observer.finish(sim.nodes())?;
    let roles = alg2_roles(&sim, spec.len());
    Ok(report_from(spec, &run, roles, Some(predicted_alg2(spec))))
}

/// Theorem 1's exact complexity for a ring: `n(2·ID_max + 1)`.
#[must_use]
pub fn predicted_alg2(spec: &RingSpec) -> u64 {
    spec.len() as u64 * (2 * spec.id_max() + 1)
}

fn alg2_nodes(spec: &RingSpec) -> Vec<Alg2Node> {
    (0..spec.len())
        .map(|i| Alg2Node::new(spec.id(i), spec.cw_port(i)))
        .collect()
}

fn alg2_roles(sim: &Simulation<Pulse, Alg2Node>, n: usize) -> Vec<Role> {
    (0..n).map(|i| sim.node(i).role()).collect()
}

/// Result of a backend-parameterized run: election report plus queue-memory
/// accounting. Produced by the `*_scaled` runners behind the E17 scaling
/// experiment.
#[derive(Clone, Debug)]
pub struct ScaledReport {
    /// The election outcome.
    pub report: ElectionReport,
    /// Queue storage backend the run used.
    pub backend: QueueBackend,
    /// High-water mark of queue storage bytes over the whole run.
    pub peak_queue_bytes: usize,
}

/// Runs Algorithm 1 under an explicit queue backend and step budget.
///
/// Semantically identical to [`run_alg1`] — the report is byte-for-byte the
/// same under either backend — but additionally returns the queue-memory
/// high-water mark, and accepts a budget large enough for thousand-node
/// rings (the default budget caps at 50 M steps, which `n = 5000` Alg2
/// exceeds).
#[must_use]
pub fn run_alg1_scaled(
    spec: &RingSpec,
    scheduler: SchedulerKind,
    seed: u64,
    backend: QueueBackend,
    budget: Budget,
) -> ScaledReport {
    let nodes = (0..spec.len())
        .map(|i| Alg1Node::new(spec.id(i), spec.cw_port(i)))
        .collect();
    let mut sim: Simulation<Pulse, Alg1Node> =
        Simulation::with_backend(spec.wiring(), nodes, scheduler.build(seed), backend);
    let run = sim.run(budget);
    let roles: Vec<Role> = (0..spec.len()).map(|i| sim.node(i).role()).collect();
    ScaledReport {
        report: report_from(spec, &run, roles, Some(spec.len() as u64 * spec.id_max())),
        backend,
        peak_queue_bytes: sim.peak_queue_bytes(),
    }
}

/// Runs Algorithm 2 under an explicit queue backend and step budget.
///
/// See [`run_alg1_scaled`] for the contract.
#[must_use]
pub fn run_alg2_scaled(
    spec: &RingSpec,
    scheduler: SchedulerKind,
    seed: u64,
    backend: QueueBackend,
    budget: Budget,
) -> ScaledReport {
    let nodes = alg2_nodes(spec);
    let mut sim: Simulation<Pulse, Alg2Node> =
        Simulation::with_backend(spec.wiring(), nodes, scheduler.build(seed), backend);
    let run = sim.run(budget);
    let roles = alg2_roles(&sim, spec.len());
    ScaledReport {
        report: report_from(spec, &run, roles, Some(predicted_alg2(spec))),
        backend,
        peak_queue_bytes: sim.peak_queue_bytes(),
    }
}

/// Runs Algorithm 3 under an explicit queue backend and step budget.
///
/// See [`run_alg1_scaled`] for the contract.
#[must_use]
pub fn run_alg3_scaled(
    spec: &RingSpec,
    scheme: IdScheme,
    scheduler: SchedulerKind,
    seed: u64,
    backend: QueueBackend,
    budget: Budget,
) -> ScaledReport {
    let nodes = (0..spec.len())
        .map(|i| Alg3Node::new(spec.id(i), scheme))
        .collect();
    let mut sim: Simulation<Pulse, Alg3Node> =
        Simulation::with_backend(spec.wiring(), nodes, scheduler.build(seed), backend);
    let run = sim.run(budget);
    let out = alg3_report_from(spec, scheme, &sim, &run);
    ScaledReport {
        report: out.report,
        backend,
        peak_queue_bytes: sim.peak_queue_bytes(),
    }
}

/// Result of an Algorithm 3 run: election report plus orientation data.
#[derive(Clone, Debug)]
pub struct Alg3Report {
    /// The election outcome.
    pub report: ElectionReport,
    /// Each node's claimed clockwise port (position order); `None` if the
    /// node never reached the output guard.
    pub cw_ports: Vec<Option<Port>>,
    /// Whether the orientation claims form one consistent global walk.
    pub orientation_consistent: bool,
}

/// Runs Algorithm 3 on a (possibly non-oriented) ring to quiescence.
#[must_use]
pub fn run_alg3(
    spec: &RingSpec,
    scheme: IdScheme,
    scheduler: SchedulerKind,
    seed: u64,
) -> Alg3Report {
    let nodes = (0..spec.len())
        .map(|i| Alg3Node::new(spec.id(i), scheme))
        .collect();
    run_alg3_nodes(spec, scheme, nodes, scheduler, seed)
}

/// Runs Algorithm 3 with Proposition 19 ID resampling enabled.
///
/// Returns the report plus each node's final (resampled) ID.
#[must_use]
pub fn run_alg3_resampling(
    spec: &RingSpec,
    scheme: IdScheme,
    scheduler: SchedulerKind,
    seed: u64,
) -> (Alg3Report, Vec<u64>) {
    let nodes = (0..spec.len())
        .map(|i| Alg3Node::with_resampling(spec.id(i), scheme, seed ^ (i as u64) << 32 | i as u64))
        .collect::<Vec<_>>();
    let spec_clone = spec.clone();
    let mut sim: Simulation<Pulse, Alg3Node> =
        Simulation::new(spec.wiring(), nodes, scheduler.build(seed));
    let run = sim.run(Budget::default());
    let final_ids: Vec<u64> = (0..spec.len()).map(|i| sim.node(i).id()).collect();
    let report = alg3_report_from(&spec_clone, scheme, &sim, &run);
    (report, final_ids)
}

fn run_alg3_nodes(
    spec: &RingSpec,
    scheme: IdScheme,
    nodes: Vec<Alg3Node>,
    scheduler: SchedulerKind,
    seed: u64,
) -> Alg3Report {
    let mut sim: Simulation<Pulse, Alg3Node> =
        Simulation::new(spec.wiring(), nodes, scheduler.build(seed));
    let run = sim.run(Budget::default());
    alg3_report_from(spec, scheme, &sim, &run)
}

fn alg3_report_from(
    spec: &RingSpec,
    scheme: IdScheme,
    sim: &Simulation<Pulse, Alg3Node>,
    run: &RunReport,
) -> Alg3Report {
    let outputs: Vec<Option<Alg3Output>> = (0..spec.len()).map(|i| sim.node(i).output()).collect();
    let roles: Vec<Role> = outputs
        .iter()
        .map(|o| o.map_or(Role::NonLeader, |o| o.role))
        .collect();
    let cw_ports: Vec<Option<Port>> = outputs.iter().map(|o| o.map(|o| o.cw_port)).collect();
    let decided = outputs.iter().all(Option::is_some);
    let all_cw = decided && (0..spec.len()).all(|i| cw_ports[i] == Some(spec.cw_port(i)));
    let all_ccw = decided && (0..spec.len()).all(|i| cw_ports[i] == Some(spec.ccw_port(i)));
    let report = report_from(
        spec,
        run,
        roles,
        Some(scheme.predicted_messages(spec.len() as u64, spec.id_max())),
    );
    Alg3Report {
        report,
        cw_ports,
        orientation_consistent: all_cw || all_ccw,
    }
}

fn report_from(
    _spec: &RingSpec,
    run: &RunReport,
    roles: Vec<Role>,
    predicted: Option<u64>,
) -> ElectionReport {
    ElectionReport {
        outcome: run.outcome,
        total_messages: run.total_sent,
        steps: run.steps,
        leader: unique_leader(&roles),
        roles,
        predicted_messages: predicted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::IdAssignment;
    use co_net::Outcome;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn run_alg1_stabilizes_and_predicts() {
        let spec = RingSpec::oriented(vec![2, 6, 3]);
        let report = run_alg1(&spec, SchedulerKind::Fifo, 0);
        assert_eq!(report.outcome, Outcome::Quiescent);
        assert_eq!(report.leader, Some(1));
        assert_eq!(report.total_messages, report.predicted_messages.unwrap());
        report.validate(&spec).expect("valid election");
    }

    #[test]
    fn run_alg2_terminates_and_predicts() {
        let spec = RingSpec::oriented(vec![2, 6, 3]);
        let report = run_alg2(&spec, SchedulerKind::Random, 11);
        assert!(report.quiescently_terminated());
        assert_eq!(report.total_messages, 3 * 13);
        assert_eq!(report.predicted_messages, Some(39));
        report.validate(&spec).expect("valid election");
    }

    #[test]
    fn monitored_runs_pass_over_scheduler_family() {
        let mut rng = StdRng::seed_from_u64(4);
        for n in [1usize, 2, 3, 5, 9] {
            let ids = IdAssignment::Shuffled.generate(n, &mut rng);
            let spec = RingSpec::oriented(ids);
            for kind in SchedulerKind::ALL {
                run_alg1_monitored(&spec, kind, 17).expect("Alg1 invariants");
                let report = run_alg2_monitored(&spec, kind, 17).expect("Alg2 invariants");
                report.validate(&spec).expect("valid election");
            }
        }
    }

    #[test]
    fn run_alg3_reports_orientation() {
        let spec = RingSpec::with_flips(vec![3, 8, 1, 5], vec![true, false, false, true]);
        let out = run_alg3(&spec, IdScheme::Improved, SchedulerKind::Random, 2);
        assert!(out.report.reached_quiescence());
        assert!(out.orientation_consistent);
        assert_eq!(out.report.leader, Some(1));
        assert_eq!(out.report.total_messages, 4 * 17);
    }

    #[test]
    fn custom_scheduler_entry_point() {
        use co_net::sched::BoundedDelayScheduler;
        // Partial synchrony is just another adversary: Theorem 1 unchanged.
        let spec = RingSpec::oriented(vec![4, 7, 2, 5]);
        for bound in [0u64, 1, 5, 50] {
            let report = run_alg2_scheduler(&spec, Box::new(BoundedDelayScheduler::new(bound, 3)));
            assert!(report.quiescently_terminated(), "bound {bound}");
            assert_eq!(report.leader, Some(1), "bound {bound}");
            assert_eq!(report.total_messages, 4 * (2 * 7 + 1), "bound {bound}");
        }
    }

    #[test]
    fn scaled_runners_agree_with_plain_across_backends() {
        let spec = RingSpec::oriented(vec![2, 6, 3, 5]);
        let plain1 = run_alg1(&spec, SchedulerKind::Fifo, 0);
        let plain2 = run_alg2(&spec, SchedulerKind::Fifo, 0);
        let plain3 = run_alg3(&spec, IdScheme::Improved, SchedulerKind::Fifo, 0);
        for backend in QueueBackend::ALL {
            let budget = Budget::default();
            let s1 = run_alg1_scaled(&spec, SchedulerKind::Fifo, 0, backend, budget);
            let s2 = run_alg2_scaled(&spec, SchedulerKind::Fifo, 0, backend, budget);
            let s3 = run_alg3_scaled(
                &spec,
                IdScheme::Improved,
                SchedulerKind::Fifo,
                0,
                backend,
                budget,
            );
            for (scaled, plain) in [(&s1, &plain1), (&s2, &plain2), (&s3, &plain3.report)] {
                assert_eq!(scaled.backend, backend);
                assert_eq!(scaled.report.outcome, plain.outcome, "{backend}");
                assert_eq!(scaled.report.steps, plain.steps, "{backend}");
                assert_eq!(
                    scaled.report.total_messages, plain.total_messages,
                    "{backend}"
                );
                assert_eq!(scaled.report.leader, plain.leader, "{backend}");
                assert!(scaled.peak_queue_bytes > 0, "{backend}: queues were used");
            }
        }
    }

    #[test]
    fn resampling_returns_final_ids() {
        let spec = RingSpec::oriented(vec![2, 2, 7, 2]);
        let (out, ids) = run_alg3_resampling(&spec, IdScheme::Improved, SchedulerKind::Fifo, 3);
        assert!(out.report.reached_quiescence());
        assert_eq!(ids.len(), 4);
        assert_eq!(ids[2], 7, "the max node keeps its ID");
        assert!(ids.iter().all(|&id| id >= 1));
    }
}
