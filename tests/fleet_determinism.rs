//! Fleet-mode determinism contracts.
//!
//! Three properties anchor `co_net::fleet` (DESIGN.md §11):
//!
//! 1. **Jobs invariance** — the aggregate `FleetReport` is byte-identical
//!    at `--jobs` 1, 4 and 8, and across repeated runs: shard boundaries
//!    come from the config, per-ring seeds from `ring_seed`, and the merge
//!    is performed in shard order regardless of which thread ran what.
//! 2. **Engine equivalence** — a one-ring fleet is not a reimplementation
//!    wearing the engine's clothes: for the paper's actual protocols it
//!    must produce the same `RunReport`, the same `SimStats`, the same
//!    configuration fingerprint and the same counter-backend peak queue
//!    bytes as a `Simulation` built from the identical `RingPlan`, with and
//!    without an injected fault, and for rings long enough to compact the
//!    fleet's send buffer.
//! 3. **Golden reports** — two full multi-shard `FleetReport`s are pinned
//!    to the exact figures `co-ring fleet` printed for them before the
//!    fleet kernel was rewritten, at every `--jobs` value.
//! 4. **Scale** (ignored by default, run by the CI `fleet-smoke` job in
//!    release) — 10⁵ mixed-size rings and the headline 10⁶-ring fleet
//!    complete in-process with every clean ring electing exactly one
//!    leader.
//!
//! The fleet-capable protocols come from the workspace registry
//! (`co_bench::protocols().supporting(Capability::Fleet)`), so onboarding a
//! new fleet protocol automatically enrols it in the determinism and
//! engine-equivalence contracts below.

use co_bench::{protocols, run_fleet_round};
use content_oblivious::core::registry::{Capability, FleetDriver};
use content_oblivious::core::{Alg1Node, Alg2Node};
use content_oblivious::net::fleet::{FleetConfig, FleetReport, FleetRingDetail, RingSizes};
use content_oblivious::net::{
    ChannelId, Protocol, Pulse, QueueBackend, RingSpec, RunReport, SchedulerKind, Simulation,
};

fn mixed_cfg(rings: u64, seed: u64, fault_rate: f64) -> FleetConfig {
    let mut cfg = FleetConfig::new(rings);
    cfg.sizes = RingSizes::Uniform { min: 3, max: 9 };
    cfg.seed = seed;
    cfg.fault_rate = fault_rate;
    cfg
}

/// Every fleet-capable registry entry, as `(name, driver)` pairs.
fn fleet_entries() -> Vec<(&'static str, FleetDriver)> {
    protocols()
        .supporting(Capability::Fleet)
        .into_iter()
        .map(|name| (name, protocols().fleet(name).expect("capability-filtered")))
        .collect()
}

#[test]
fn aggregate_report_is_jobs_invariant_and_reproducible() {
    let mut cfg = mixed_cfg(2000, 7, 0.02);
    // Small shards so every jobs value actually exercises the fan-out.
    cfg.shard_rings = 128;
    for (protocol, driver) in fleet_entries() {
        let reference = run_fleet_round(&cfg, driver, 0, 1);
        assert_eq!(reference.rings, 2000, "{protocol}");
        for jobs in [1usize, 4, 8] {
            assert_eq!(
                run_fleet_round(&cfg, driver, 0, jobs),
                reference,
                "{protocol} at jobs = {jobs}"
            );
        }
        // Across runs, not just across thread counts.
        assert_eq!(
            run_fleet_round(&cfg, driver, 0, 4),
            reference,
            "{protocol} re-run"
        );
    }
}

/// Replays `detail`'s ring plan through the real event core on `backend`
/// and returns the finished simulation with its run report.
fn simulate<P, F>(
    detail: &FleetRingDetail,
    make: &F,
    backend: QueueBackend,
) -> (Simulation<Pulse, P>, RunReport)
where
    P: Protocol<Pulse>,
    F: Fn(&RingSpec, usize) -> P,
{
    let spec = RingSpec::oriented(detail.plan.ids.clone());
    let nodes: Vec<P> = (0..spec.len()).map(|i| make(&spec, i)).collect();
    let mut sim: Simulation<Pulse, P> =
        Simulation::with_backend(spec.wiring(), nodes, SchedulerKind::Fifo.build(0), backend);
    // The fleet starts every node, then injects the planned fault (if any)
    // — mirror that order so send sequence numbers line up.
    sim.start();
    if let Some(channel) = detail.plan.inject {
        sim.inject(ChannelId::from_index(channel), Pulse);
    }
    let report = sim.run(detail.budget);
    (sim, report)
}

/// Checks the fleet produced the identical execution to the event core: the
/// same `RunReport`, `SimStats` and fingerprint on both queue backends, and
/// the counter backend's peak queue bytes.
fn assert_matches_simulation<P, F>(detail: &FleetRingDetail, make: F, label: &str)
where
    P: Protocol<Pulse> + content_oblivious::net::Snapshot,
    F: Fn(&RingSpec, usize) -> P,
{
    for backend in [QueueBackend::Vec, QueueBackend::Counter] {
        let (sim, report) = simulate(detail, &make, backend);
        assert_eq!(detail.report, report, "{label}, {backend:?}: RunReport");
        assert_eq!(&detail.stats, sim.stats(), "{label}, {backend:?}: SimStats");
        assert_eq!(
            detail.fingerprint,
            sim.fingerprint(),
            "{label}, {backend:?}: fingerprint"
        );
        if backend == QueueBackend::Counter {
            assert_eq!(
                detail.peak_queue_bytes,
                sim.peak_queue_bytes() as u64,
                "{label}: counter-backend peak queue bytes"
            );
        }
    }
}

#[test]
fn one_ring_fleet_matches_the_event_core_for_the_papers_algorithms() {
    for (protocol, driver) in fleet_entries() {
        for n in [1usize, 2, 3, 5, 8, 13] {
            // fault_rate 1.0 guarantees the plan carries an injection; 0.0
            // guarantees it does not — both paths must match the engine.
            for fault_rate in [0.0, 1.0] {
                for seed in 0..5u64 {
                    let mut cfg = FleetConfig::new(1);
                    cfg.sizes = RingSizes::Fixed(n);
                    cfg.seed = seed;
                    cfg.fault_rate = fault_rate;
                    let detail = driver.run_ring_detailed(&cfg, 0, 0);
                    assert_eq!(detail.plan.n, n);
                    assert_eq!(detail.plan.inject.is_some(), fault_rate == 1.0);
                    let label = format!("{protocol}, n = {n}, fault = {fault_rate}, seed = {seed}");
                    // The registry erases node types, so the engine twin is
                    // re-derived per name; a new fleet entry must extend this
                    // match or the test fails loudly.
                    match protocol {
                        "alg1" => assert_matches_simulation(
                            &detail,
                            |spec: &RingSpec, i| Alg1Node::new(spec.id(i), spec.cw_port(i)),
                            &label,
                        ),
                        "alg2" => assert_matches_simulation(
                            &detail,
                            |spec: &RingSpec, i| Alg2Node::new(spec.id(i), spec.cw_port(i)),
                            &label,
                        ),
                        other => panic!("no engine twin wired up for fleet protocol {other}"),
                    }
                }
            }
        }
    }
}

#[test]
fn rings_that_compact_the_send_buffer_match_the_event_core() {
    // Under Algorithm 1 an injected pulse circulates until the budget is
    // spent: 200,000 deliveries, so the fleet's send buffer compacts many
    // times before the ring stops, each time with the queue drained.
    let alg1 = protocols().fleet("alg1").expect("alg1 is fleet-capable");
    for (n, seed) in [(3usize, 0u64), (8, 1)] {
        let mut cfg = FleetConfig::new(1);
        cfg.sizes = RingSizes::Fixed(n);
        cfg.seed = seed;
        cfg.fault_rate = 1.0;
        cfg.ring_budget = Some(200_000);
        let detail = alg1.run_ring_detailed(&cfg, 0, 0);
        assert!(detail.plan.inject.is_some());
        assert_eq!(detail.report.steps, 200_000, "n = {n}: budget spent");
        assert!(
            detail.report.in_flight > 0,
            "n = {n}: pulse still in flight"
        );
        assert_matches_simulation(
            &detail,
            |spec: &RingSpec, i| Alg1Node::new(spec.id(i), spec.cw_port(i)),
            &format!("alg1, n = {n}, seed = {seed}, budget 200000"),
        );
    }

    // A clean 64-node Algorithm 2 election sends 64·129 = 8,256 pulses
    // with dozens in flight at a time, so the buffer compacts while it
    // still holds pulses that must survive the move.
    let alg2 = protocols().fleet("alg2").expect("alg2 is fleet-capable");
    let mut cfg = FleetConfig::new(1);
    cfg.sizes = RingSizes::Fixed(64);
    let detail = alg2.run_ring_detailed(&cfg, 0, 0);
    assert_eq!(detail.report.steps, 64 * 129);
    assert_matches_simulation(
        &detail,
        |spec: &RingSpec, i| Alg2Node::new(spec.id(i), spec.cw_port(i)),
        "alg2, n = 64, clean",
    );
}

/// Merges `rounds` fleet rounds the way `co-ring fleet --rounds` does.
fn fleet_rounds(cfg: &FleetConfig, driver: FleetDriver, rounds: u64, jobs: usize) -> FleetReport {
    let mut report = FleetReport::new();
    for round in 0..rounds {
        report.merge(&run_fleet_round(cfg, driver, round, jobs));
    }
    report
}

#[test]
fn golden_fleet_reports_are_unchanged() {
    // `co-ring fleet --protocol alg2 --rings 10000 --fault-rate 0.01
    // --seed 101 --rounds 2`: the benchmark's fleet shape, two rounds.
    let alg2 = mixed_cfg(10_000, 101, 0.01);
    // `co-ring fleet --protocol alg1 --rings 5000 --ring-sizes
    // uniform:3..40 --fault-rate 0.2 --seed 7`: up to 41 live queue runs
    // per ring, so run merging and splitting both matter.
    let mut alg1 = FleetConfig::new(5_000);
    alg1.sizes = RingSizes::Uniform { min: 3, max: 40 };
    alg1.seed = 7;
    alg1.fault_rate = 0.2;
    let cases = [
        (
            "alg2",
            alg2,
            2,
            "fleet: 20000 rings (119820 nodes)\n\
             outcomes: 19805 quiescent-terminated | 11 quiescent | \
             0 terminated-nonquiescent | 184 budget-exhausted\n\
             elections won (unique leader): 19807\n\
             pulses: 1807554 delivered, 1807543 sent | faults injected: 195\n\
             pulses-to-quiescence: p50=64 p99=160 max=171\n\
             peak queue bytes/ring: 160\n",
        ),
        (
            "alg1",
            alg1,
            1,
            "fleet: 5000 rings (106889 nodes)\n\
             outcomes: 0 quiescent-terminated | 4034 quiescent | \
             0 terminated-nonquiescent | 966 budget-exhausted\n\
             elections won (unique leader): 4034\n\
             pulses: 7068025 delivered, 7068025 sent | faults injected: 966\n\
             pulses-to-quiescence: p50=384 p99=1536 max=1600\n\
             peak queue bytes/ring: 656\n",
        ),
    ];
    for (protocol, cfg, rounds, expected) in cases {
        let driver = protocols().fleet(protocol).expect("fleet-capable");
        let report = fleet_rounds(&cfg, driver, rounds, 1);
        assert_eq!(report.render(), expected, "{protocol}");
        assert_eq!(
            fleet_rounds(&cfg, driver, rounds, 0),
            report,
            "{protocol}: jobs-invariant"
        );
    }
}

/// Budget-capped 10⁵-ring smoke: mixed sizes, a 0.1% fault rate, both
/// protocols, and a jobs-invariance check at full scale. CI runs this in
/// release as the `fleet-smoke` job with a hard timeout.
#[test]
#[ignore = "large; run explicitly (CI fleet-smoke job)"]
fn fleet_smoke_1e5_mixed_sizes() {
    let cfg = mixed_cfg(100_000, 8, 0.001);
    for (protocol, driver) in fleet_entries() {
        let report = run_fleet_round(&cfg, driver, 0, 0);
        println!("== {protocol} ==\n{}", report.render());
        assert_eq!(report.rings, 100_000, "{protocol}");
        // Only faulted rings may miss their election.
        assert!(
            report.elections + report.faults_injected >= 100_000,
            "{protocol}: {} elections, {} faults",
            report.elections,
            report.faults_injected
        );
        assert!(
            report.budget_exhausted <= report.faults_injected,
            "{protocol}: clean rings must never exhaust their budget"
        );
        // Counter-backend queues: a handful of 16-byte runs per ring.
        assert!(
            report.peak_ring_queue_bytes < 4096,
            "{protocol}: peak {} bytes/ring",
            report.peak_ring_queue_bytes
        );
        assert_eq!(
            run_fleet_round(&cfg, driver, 0, 1),
            report,
            "{protocol}: jobs-invariant at 1e5 rings"
        );
    }
}

/// The headline: one million concurrent rings in one process (Algorithm 1,
/// counter-backed queues), every ring electing exactly one leader at the
/// paper's exact pulse count. CI runs this in release as `fleet-smoke`.
#[test]
#[ignore = "large; run explicitly (CI fleet-smoke job)"]
fn fleet_smoke_1e6_alg1() {
    let mut cfg = FleetConfig::new(1_000_000);
    cfg.sizes = RingSizes::Fixed(4);
    let alg1 = protocols().fleet("alg1").expect("alg1 is fleet-capable");
    let report = run_fleet_round(&cfg, alg1, 0, 0);
    println!("{}", report.render());
    assert_eq!(report.rings, 1_000_000);
    assert_eq!(report.nodes, 4_000_000);
    assert_eq!(report.elections, 1_000_000);
    assert_eq!(report.budget_exhausted, 0);
    // Corollary 13: n·ID_max = 4·4 pulses per ring, IDs a permutation of 1..=4.
    assert_eq!(report.total_sent, 16_000_000);
    // At most 4 concurrent 16-byte runs per ring ever live.
    assert_eq!(report.peak_ring_queue_bytes, 64);
}
