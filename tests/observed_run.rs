//! An observed run is the same run.
//!
//! `EventCore::run` reads once, as it starts, whether anything observes it
//! (the profiler, a trace, metrics or schedule recording), and a run that
//! nothing observes delivers through a step with every observation compiled
//! out. Each observer alone must leave the run's report, statistics,
//! fingerprint and clock exactly as the quiet run has them, and must see
//! the run it observed.
//!
//! The profiler is process-global, so this file holds one test: nothing
//! else in this binary switches it on or reads it.

use content_oblivious::core::registry::{Alg2Def, RingProtocol};
use content_oblivious::core::Alg2Node;
use content_oblivious::net::prof::{self, Phase};
use content_oblivious::net::{
    Budget, FaultPlan, LatencyModel, LatencyPlan, Pulse, RingSpec, RunReport, SchedulerKind,
    SimStats, Simulation,
};

#[derive(Clone, Copy, Debug)]
enum Observer {
    Quiet,
    Profiler,
    Trace,
    Metrics,
    Recording,
}

type Outcome = (RunReport, SimStats, u64, u64);

#[test]
fn each_observer_sees_the_quiet_run() {
    let n = 64u64;
    let spec = RingSpec::oriented((0..n).map(|i| (i * 37) % n + 1).collect());
    let cells = [
        (SchedulerKind::Fifo, LatencyPlan::zero()),
        (SchedulerKind::Random, LatencyPlan::zero()),
        (
            SchedulerKind::Latency,
            LatencyPlan::new(LatencyModel::Uniform { min: 1, max: 10 }, 5),
        ),
    ];
    let faults = [
        FaultPlan::new(),
        FaultPlan::new().drop_seq(3).duplicate_seq(7),
    ];
    for (kind, latency) in cells {
        for plan in &faults {
            let run = |observer: Observer| -> Outcome {
                let mut sim: Simulation<Pulse, Alg2Node> =
                    Simulation::new(spec.wiring(), Alg2Def::nodes(&spec), kind.build(9));
                sim.set_latency(latency.clone());
                sim.set_faults(plan.clone());
                match observer {
                    Observer::Quiet | Observer::Profiler => {}
                    Observer::Trace => sim.enable_trace(None),
                    Observer::Metrics => sim.enable_metrics(),
                    Observer::Recording => sim.enable_schedule_recording(),
                }
                let before = prof::report();
                prof::set_enabled(matches!(observer, Observer::Profiler));
                let report = sim.run(Budget::default());
                prof::set_enabled(false);
                let booked = |phase| prof::report().phase(phase).count - before.phase(phase).count;
                let ctx = format!("{kind} {observer:?}");
                match observer {
                    Observer::Quiet => {
                        assert_eq!(booked(Phase::Dequeue), 0, "{ctx}");
                        assert_eq!(booked(Phase::Pick), 0, "{ctx}");
                    }
                    Observer::Profiler => {
                        // Every delivery is picked, then booked once as
                        // bookkeeping and once as index upkeep.
                        assert_eq!(booked(Phase::Pick), report.steps, "{ctx}");
                        assert_eq!(booked(Phase::Dequeue), report.steps, "{ctx}");
                        assert!(booked(Phase::Index) > report.steps, "{ctx}");
                    }
                    Observer::Trace => {
                        let trace = sim.trace().expect("trace enabled");
                        assert!(trace.len() as u64 > report.steps, "{ctx}");
                    }
                    Observer::Metrics => {
                        let m = sim.metrics().expect("metrics enabled");
                        assert_eq!(m.pulses_delivered, sim.stats().total_delivered, "{ctx}");
                        assert!(m.peak_queue_bytes > 0, "{ctx}");
                    }
                    Observer::Recording => {
                        let schedule = sim.recorded_schedule().expect("recording enabled");
                        assert_eq!(schedule.picks().len() as u64, report.steps, "{ctx}");
                    }
                }
                (report, sim.stats().clone(), sim.fingerprint(), sim.now())
            };
            let quiet = run(Observer::Quiet);
            assert!(quiet.0.steps > 0, "{kind}: the run delivered");
            for observer in [
                Observer::Profiler,
                Observer::Trace,
                Observer::Metrics,
                Observer::Recording,
            ] {
                assert_eq!(run(observer), quiet, "{kind} observed by {observer:?}");
            }
        }
    }
}
