//! The election runner: one options struct, one run loop.
//!
//! [`run`] turns a [`RingSpec`] into a finished election for any registry
//! definition ([`RingProtocol`]): it builds the node set with
//! [`RingProtocol::nodes`], the [`Simulation`] under the [`RunOptions`]'
//! scheduler, queue backend and latency plan, runs it to the budget and
//! packages an [`ElectionReport`] with the definition's predicted message
//! count. [`run_monitored`] is the same loop under a lemma monitor, and
//! [`run_alg3`] adds Algorithm 3's orientation data.

use crate::alg3::{orientation_consistent, Alg3Node, IdScheme, InvalidId};
use crate::election::{unique_leader, ElectionReport};
use crate::invariants::{InvariantViolation, Verdict};
use crate::registry::{Alg3Def, Backend, Doubled, Improved, RingProtocol, SchemeType};
use co_net::{
    Budget, LatencyPlan, Message, Port, Protocol, QueueBackend, RingSpec, RunReport, SchedulerKind,
    SimObserver, Simulation,
};

/// How to run an election. `B` is the protocol's [`RingProtocol::Backend`]
/// ([`crate::registry::Envelopes`] for content-carrying protocols and the
/// registry's record/replay).
#[derive(Clone, Debug)]
pub struct RunOptions<B = QueueBackend> {
    /// Delivery adversary.
    pub scheduler: SchedulerKind,
    /// Scheduler seed (also seeds Proposition 19 resampling).
    pub seed: u64,
    /// Per-channel latency plan; a zero plan keeps the untimed engine.
    pub latency: LatencyPlan,
    /// Queue storage backend.
    pub backend: B,
    /// Step budget.
    pub budget: Budget,
}

impl<B: Default> RunOptions<B> {
    /// `scheduler` and `seed` with zero latency, the default backend and
    /// the default budget.
    #[must_use]
    pub fn new(scheduler: SchedulerKind, seed: u64) -> RunOptions<B> {
        RunOptions {
            scheduler,
            seed,
            latency: LatencyPlan::zero(),
            backend: B::default(),
            budget: Budget::default(),
        }
    }
}

/// Builds `nodes` on `spec` under `opts`' scheduler, backend and latency
/// (the budget is the caller's to run).
pub fn simulation<M: Message, P: Protocol<M>, B: Backend<M>>(
    spec: &RingSpec,
    nodes: Vec<P>,
    opts: &RunOptions<B>,
) -> Simulation<M, P> {
    let mut sim = opts
        .backend
        .simulation(spec, nodes, opts.scheduler.build(opts.seed));
    sim.set_latency(opts.latency.clone());
    sim
}

/// Runs protocol `D` on `spec` to quiescence or the budget.
#[must_use]
pub fn run<D: RingProtocol>(spec: &RingSpec, opts: &RunOptions<D::Backend>) -> ElectionReport {
    let mut sim = simulation(spec, D::nodes(spec), opts);
    let run = sim.run(opts.budget);
    report::<D>(spec, &sim, &run)
}

/// [`run`] with `monitor` checking the run after every step and, at the
/// end, the final configuration.
///
/// # Errors
///
/// Returns the first [`InvariantViolation`] the monitor observed.
pub fn run_monitored<D, O>(
    spec: &RingSpec,
    opts: &RunOptions<D::Backend>,
    mut monitor: O,
) -> Result<ElectionReport, InvariantViolation>
where
    D: RingProtocol,
    O: SimObserver<D::Msg, D::Node> + Verdict<D::Node>,
{
    let mut sim = simulation(spec, D::nodes(spec), opts);
    let run = sim.run_observed(opts.budget, &mut monitor);
    monitor.finish(sim.nodes())?;
    Ok(report::<D>(spec, &sim, &run))
}

fn report<D: RingProtocol>(
    spec: &RingSpec,
    sim: &Simulation<D::Msg, D::Node>,
    run: &RunReport,
) -> ElectionReport {
    let roles: Vec<_> = sim.nodes().iter().map(D::role).collect();
    ElectionReport {
        outcome: run.outcome,
        total_messages: run.total_sent,
        steps: run.steps,
        leader: unique_leader(&roles),
        roles,
        predicted_messages: D::predicted(spec),
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

/// Runs Algorithm 3 under `scheme` on a (possibly non-oriented) ring.
///
/// # Errors
///
/// Refuses, before running, a ring with an ID of 0 or one whose virtual
/// IDs do not fit in a `u64` ([`IdScheme::check_ids`]).
pub fn run_alg3(
    spec: &RingSpec,
    scheme: IdScheme,
    opts: &RunOptions,
) -> Result<Alg3Report, InvalidId> {
    Ok(alg3(spec, scheme, opts, false)?.0)
}

/// [`run_alg3`] with Proposition 19 ID resampling (node `i` draws from
/// seed `opts.seed ^ i << 32 | i`); also returns each node's final ID.
///
/// # Errors
///
/// As [`run_alg3`].
pub fn run_alg3_resampling(
    spec: &RingSpec,
    scheme: IdScheme,
    opts: &RunOptions,
) -> Result<(Alg3Report, Vec<u64>), InvalidId> {
    alg3(spec, scheme, opts, true)
}

fn alg3(
    spec: &RingSpec,
    scheme: IdScheme,
    opts: &RunOptions,
    resample: bool,
) -> Result<(Alg3Report, Vec<u64>), InvalidId> {
    scheme.check_ids(spec.ids())?;
    Ok(match scheme {
        IdScheme::Improved => alg3_under::<Improved>(spec, opts, resample),
        IdScheme::Doubled => alg3_under::<Doubled>(spec, opts, resample),
    })
}

fn alg3_under<S: SchemeType>(
    spec: &RingSpec,
    opts: &RunOptions,
    resample: bool,
) -> (Alg3Report, Vec<u64>) {
    let mut nodes = Alg3Def::<S>::nodes(spec);
    if resample {
        let seed = |i: u64| (opts.seed ^ (i << 32)) | i;
        nodes = (0..)
            .zip(nodes)
            .map(|(i, n)| n.with_resampling(seed(i)))
            .collect();
    }
    let mut sim = simulation(spec, nodes, opts);
    let run = sim.run(opts.budget);
    let cw_ports: Vec<Option<Port>> = sim
        .nodes()
        .iter()
        .map(|n| n.output().map(|o| o.cw_port))
        .collect();
    let report = Alg3Report {
        report: report::<Alg3Def<S>>(spec, &sim, &run),
        cw_ports,
        orientation_consistent: orientation_consistent(spec, sim.nodes()),
    };
    (report, sim.nodes().iter().map(Alg3Node::id).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::IdAssignment;
    use crate::invariants::{Alg2MonitorObserver, CwMonitorObserver};
    use crate::registry::{Alg1Def, Alg2Def};
    use co_net::Outcome;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn run_alg1_stabilizes_and_predicts() {
        let spec = RingSpec::oriented(vec![2, 6, 3]);
        let report = run::<Alg1Def>(&spec, &RunOptions::new(SchedulerKind::Fifo, 0));
        assert_eq!(report.outcome, Outcome::Quiescent);
        assert_eq!(report.leader, Some(1));
        assert_eq!(report.total_messages, report.predicted_messages.unwrap());
        report.validate(&spec).expect("valid election");
    }

    #[test]
    fn run_alg2_terminates_and_predicts() {
        let spec = RingSpec::oriented(vec![2, 6, 3]);
        let report = run::<Alg2Def>(&spec, &RunOptions::new(SchedulerKind::Random, 11));
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
                let opts = RunOptions::new(kind, 17);
                run_monitored::<Alg1Def, _>(&spec, &opts, CwMonitorObserver::new())
                    .expect("Alg1 invariants");
                let report = run_monitored::<Alg2Def, _>(&spec, &opts, Alg2MonitorObserver::new())
                    .expect("Alg2 invariants");
                report.validate(&spec).expect("valid election");
            }
        }
    }

    #[test]
    fn run_alg3_reports_orientation() {
        let spec = RingSpec::with_flips(vec![3, 8, 1, 5], vec![true, false, false, true]);
        let out = run_alg3(
            &spec,
            IdScheme::Improved,
            &RunOptions::new(SchedulerKind::Random, 2),
        )
        .expect("IDs fit");
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
            let scheduler = Box::new(BoundedDelayScheduler::new(bound, 3));
            let mut sim = Simulation::new(spec.wiring(), Alg2Def::nodes(&spec), scheduler);
            let run = sim.run(Budget::default());
            let report = report::<Alg2Def>(&spec, &sim, &run);
            assert!(report.quiescently_terminated(), "bound {bound}");
            assert_eq!(report.leader, Some(1), "bound {bound}");
            assert_eq!(report.total_messages, 4 * (2 * 7 + 1), "bound {bound}");
        }
    }

    #[test]
    fn backends_agree_and_report_their_peak() {
        let spec = RingSpec::oriented(vec![2, 6, 3, 5]);
        let [vec, counter] = QueueBackend::ALL.map(|backend| {
            let opts = RunOptions {
                backend,
                ..RunOptions::new(SchedulerKind::Fifo, 0)
            };
            [
                run::<Alg1Def>(&spec, &opts),
                run::<Alg2Def>(&spec, &opts),
                run_alg3(&spec, IdScheme::Improved, &opts)
                    .expect("IDs fit")
                    .report,
            ]
        });
        for (v, c) in vec.iter().zip(&counter) {
            assert_eq!(v.outcome, c.outcome);
            assert_eq!(v.steps, c.steps);
            assert_eq!(v.total_messages, c.total_messages);
            assert_eq!(v.leader, c.leader);
            assert!(v.peak_queue_bytes > 0 && c.peak_queue_bytes > 0);
        }
    }

    #[test]
    fn resampling_returns_final_ids() {
        let spec = RingSpec::oriented(vec![2, 2, 7, 2]);
        let opts = RunOptions::new(SchedulerKind::Fifo, 3);
        let (out, ids) = run_alg3_resampling(&spec, IdScheme::Improved, &opts).expect("IDs fit");
        assert!(out.report.reached_quiescence());
        assert_eq!(ids.len(), 4);
        assert_eq!(ids[2], 7, "the max node keeps its ID");
        assert!(ids.iter().all(|&id| id >= 1));
    }

    #[test]
    fn run_alg3_refuses_ids_whose_virtual_ids_overflow() {
        let opts = RunOptions::new(SchedulerKind::Fifo, 0);
        for (scheme, id) in [
            (IdScheme::Improved, u64::MAX),
            (IdScheme::Doubled, (u64::MAX >> 1) + 1),
        ] {
            let spec = RingSpec::oriented(vec![1, id]);
            let want = InvalidId::TooLarge { id, scheme };
            assert_eq!(run_alg3(&spec, scheme, &opts).err(), Some(want));
            assert_eq!(run_alg3_resampling(&spec, scheme, &opts).err(), Some(want));
        }
    }
}
