//! Queue-backend equivalence: the run-length counter store must be
//! observationally identical to the generic `VecDeque` store.
//!
//! The two [`QueueBackend`]s differ only in how queued pulses are
//! represented; every externally visible quantity — the channel picked at
//! each step, [`RunReport`], [`co_net::SimStats`], configuration
//! fingerprints, node roles — must be byte-identical on the same run. This
//! suite proves it over the full grid of all 8 scheduler adversaries ×
//! {Alg1, Alg2, Alg3} × fault plans (clean / dropped pulse / duplicated
//! pulse), and checks that the exhaustive explorer enumerates the same
//! state space under either store.
//! Only `peak_queue_bytes` may differ: it measures the storage itself.

use content_oblivious::core::registry::{Alg1Def, Alg2Def, Alg3Def, RingProtocol};
use content_oblivious::core::Alg2Node;
use content_oblivious::net::{
    Budget, FaultPlan, Protocol, Pulse, QueueBackend, RingSpec, RunReport, Schedule, SchedulerKind,
    Simulation, Snapshot,
};

/// Everything a run exposes, minus the backend-dependent memory accounting.
/// The pick sequence is part of it: Theorems 1–3 make the end state the same
/// under every schedule, so only the picks show that both stores drove the
/// scheduler identically.
#[derive(Debug, PartialEq)]
struct Observed {
    schedule: Schedule,
    report: RunReport,
    total_sent: u64,
    total_delivered: u64,
    fingerprint: u64,
    terminated: Vec<bool>,
}

fn observe<P, F>(
    spec: &RingSpec,
    make: F,
    kind: SchedulerKind,
    seed: u64,
    plan: &FaultPlan,
    backend: QueueBackend,
) -> (Observed, usize)
where
    P: Protocol<Pulse> + Snapshot,
    F: Fn() -> Vec<P>,
{
    let mut sim: Simulation<Pulse, P> =
        Simulation::with_backend(spec.wiring(), make(), kind.build(seed), backend);
    sim.set_faults(plan.clone());
    // Faulted runs may deadlock or circulate forever; the bounded budget
    // classifies them identically on both backends.
    let (report, schedule) = sim.run_recorded(Budget::steps(200_000));
    let stats = sim.stats();
    let observed = Observed {
        schedule,
        total_sent: stats.total_sent,
        total_delivered: stats.total_delivered,
        fingerprint: sim.fingerprint(),
        terminated: (0..spec.len()).map(|v| sim.is_terminated(v)).collect(),
        report,
    };
    (observed, sim.peak_queue_bytes())
}

fn assert_equivalent<P, F>(spec: &RingSpec, make: F, label: &str)
where
    P: Protocol<Pulse> + Snapshot,
    F: Fn() -> Vec<P>,
{
    let plans = [
        ("clean", FaultPlan::new()),
        ("drop4", FaultPlan::new().drop_seq(4)),
        ("dup1", FaultPlan::new().duplicate_seq(1)),
    ];
    for kind in SchedulerKind::ALL {
        for seed in [0u64, 7] {
            for (plan_label, plan) in &plans {
                let (vec_run, vec_peak) = observe(spec, &make, kind, seed, plan, QueueBackend::Vec);
                let (ctr_run, ctr_peak) =
                    observe(spec, &make, kind, seed, plan, QueueBackend::Counter);
                assert_eq!(
                    vec_run, ctr_run,
                    "{label} under {kind} seed {seed} plan {plan_label}"
                );
                assert!(vec_peak > 0 && ctr_peak > 0, "{label}: queues were used");
            }
        }
    }
}

/// The full grid: 8 schedulers × 3 algorithms × 3 fault plans × 2 seeds,
/// the same channel picks and every observable equal between the two stores.
#[test]
fn all_schedulers_algorithms_and_faults_agree_across_backends() {
    let spec = RingSpec::oriented(vec![3, 6, 1, 5, 2]);
    assert_equivalent(&spec, || Alg1Def::nodes(&spec), "alg1");
    assert_equivalent(&spec, || Alg2Def::nodes(&spec), "alg2");
    let flipped = RingSpec::with_flips(vec![3, 6, 1, 5, 2], vec![true, false, true, false, false]);
    assert_equivalent(&flipped, || <Alg3Def>::nodes(&flipped), "alg3");
}

/// Snapshot fingerprints are backend-independent at every prefix of a run,
/// not just at the end: the two stores walk through identical
/// configuration hashes step by step.
#[test]
fn fingerprints_agree_at_every_step() {
    let spec = RingSpec::oriented(vec![2, 4, 1]);
    let make = || Alg2Def::nodes(&spec);
    for kind in SchedulerKind::ALL {
        let mut vec_sim: Simulation<Pulse, Alg2Node> =
            Simulation::with_backend(spec.wiring(), make(), kind.build(9), QueueBackend::Vec);
        let mut ctr_sim: Simulation<Pulse, Alg2Node> =
            Simulation::with_backend(spec.wiring(), make(), kind.build(9), QueueBackend::Counter);
        vec_sim.start();
        ctr_sim.start();
        assert_eq!(vec_sim.fingerprint(), ctr_sim.fingerprint(), "under {kind}");
        loop {
            let a = vec_sim.step();
            let b = ctr_sim.step();
            assert_eq!(a.is_some(), b.is_some(), "under {kind}");
            assert_eq!(vec_sim.fingerprint(), ctr_sim.fingerprint(), "under {kind}");
            if a.is_none() {
                break;
            }
        }
    }
}

/// The exhaustive explorer, whose workers run on the counter store, visits
/// the state space a depth-first search over `VecDeque`-store snapshots
/// finds: the same configurations and the same quiescent ones.
#[test]
fn explorer_state_space_is_backend_independent() {
    use content_oblivious::core::registry::ExploreDriver;
    use content_oblivious::net::explore::ExploreConfig;
    use std::collections::HashSet;

    let spec = RingSpec::oriented(vec![1, 2, 4]);
    let make = || Alg2Def::nodes(&spec);
    let report = ExploreDriver::of::<Alg2Def>().run(
        &spec,
        &ExploreConfig {
            jobs: 1,
            ..ExploreConfig::default()
        },
    );
    assert!(report.complete);
    assert!(report.violations.is_empty());

    let mut sim = Simulation::with_backend(
        spec.wiring(),
        make(),
        SchedulerKind::Fifo.build(0),
        QueueBackend::Vec,
    );
    sim.start();
    let mut seen = HashSet::from([sim.fingerprint()]);
    let mut stack = vec![sim.snapshot()];
    let mut quiescent = 0;
    while let Some(snapshot) = stack.pop() {
        sim.restore(&snapshot);
        let ready = sim.ready_channels();
        quiescent += usize::from(ready.is_empty());
        for channel in ready {
            sim.restore(&snapshot);
            sim.step_channel(channel);
            if seen.insert(sim.fingerprint()) {
                stack.push(sim.snapshot());
            }
        }
    }
    assert_eq!(report.configs, seen.len());
    assert_eq!(report.quiescent_configs, quiescent);
}
