//! The traced run: every workload once untraced and once traced, plus the
//! probes that split each workload's time by layer.
//!
//! The traced run covers all four workloads whatever `--workload` names, so
//! every per-layer metric is measured in every traced run; each layer's
//! metrics come from the workload that exercises it. Spans are recorded
//! here, around calls into each layer's public functions; the engine's
//! phase split comes from `co_net::prof`, switched on only here.

use crate::shadow::{self, FINGERPRINT, INSERT, READY, RESTORE, SNAPSHOT, STEP};
use crate::trace::{LayerClock, Tracer};
use crate::workloads::{
    alternate, check_round, checkpoint_path, elect_once, explore_once, fleet_once, setting_of,
    Input, Produced, Setting, Setup, Tally,
};
use crate::{expected_probes, quantile, ratio, Metric, Sizes, Verdict, Workload, WORKERS};
use co_bench::fleet::run_fleet_round;
use co_bench::parallel::par_map;
use co_net::explore::ExploreCheckpoint;
use co_net::fleet::ring_plan;
use co_net::prof::{self, Phase};
use co_net::FleetReport;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Everything the traced run measured.
pub struct TracedRun {
    /// Correctness over every operation of the traced run.
    pub verdict: Verdict,
    /// The per-layer metrics.
    pub metrics: Vec<Metric>,
    /// The recorded spans.
    pub tracer: Tracer,
    /// Per-layer clocks of the shadow walks, by dedup store.
    pub walks: Vec<(&'static str, LayerClock)>,
}

/// Runs the traced suite: each workload alternates untraced and traced
/// operations for `seconds / 4`, then runs its layer probes.
///
/// # Errors
///
/// A workload cannot be set up, or a checkpoint cannot be read back.
pub fn run_traced(
    seed: u64,
    sizes: &Sizes,
    seconds: f64,
    root: &Path,
) -> Result<TracedRun, String> {
    let window = Duration::from_secs_f64(seconds / 4.0);
    let mut run = TracedRun {
        verdict: Verdict::default(),
        metrics: Vec::new(),
        tracer: Tracer::new(),
        walks: Vec::new(),
    };
    elect(
        &Setup::new(Workload::ElectN1000, seed, sizes, root)?,
        window,
        &mut run,
    );
    explore(
        &Setup::new(Workload::ExploreAlg2, seed, sizes, root)?,
        window,
        &mut run,
    )?;
    explore(
        &Setup::new(Workload::ExploreOoc, seed, sizes, root)?,
        window,
        &mut run,
    )?;
    fleet(
        &Setup::new(Workload::FleetMixed, seed, sizes, root)?,
        window,
        &mut run,
    );
    Ok(run)
}

fn overhead(workload: Workload, untraced: &Tally, traced: &Tally) -> Metric {
    Metric::new(
        format!("trace.overhead_ratio.{}", workload.name()),
        ratio(traced.results_per_s(), untraced.results_per_s()),
        "ratio",
    )
}

/// The engine phases reported per scheduler setting.
const PHASES: [Phase; 4] = [Phase::Enqueue, Phase::Deliver, Phase::Observe, Phase::Pick];

/// `elect-n1000`: the engine's phase split per scheduler setting, read as
/// the `co_net::prof` delta over each traced election.
fn elect(setup: &Setup, window: Duration, run: &mut TracedRun) {
    let verdict = &mut run.verdict;
    let tracer = &run.tracer;
    // [setting][phase] = (samples, ns)
    let mut phases = [[(0u64, 0u64); PHASES.len()]; Setting::ALL.len()];
    let (untraced, traced) = alternate(window, Setting::ALL.len() as u64, |k, traced| {
        let pair = k / 2;
        let setting = setting_of(pair);
        if !traced {
            return elect_once(setup, setting, pair, false, verdict);
        }
        let before = prof::report();
        prof::set_enabled(true);
        let out = tracer.span("elect", None, tracer.new_run(), |_| {
            elect_once(setup, setting, pair, true, verdict)
        });
        prof::set_enabled(false);
        let after = prof::report();
        let acc = &mut phases[(pair % Setting::ALL.len() as u64) as usize];
        for (slot, phase) in acc.iter_mut().zip(PHASES) {
            slot.0 += after.phase(phase).count - before.phase(phase).count;
            slot.1 += after.phase(phase).total_ns - before.phase(phase).total_ns;
        }
        out
    });
    for (setting, acc) in Setting::ALL.iter().zip(phases) {
        let mean = |i: usize| ratio(acc[i].1 as f64, acc[i].0 as f64);
        let name = setting.name();
        run.metrics.extend([
            Metric::new(format!("engine.enqueue_ns.{name}"), mean(0), "ns"),
            Metric::new(format!("engine.deliver_ns.{name}"), mean(1), "ns"),
            Metric::new(format!("engine.observe_ns.{name}"), mean(2), "ns"),
            Metric::new(format!("sched.pick_ns.{name}"), mean(3), "ns"),
        ]);
    }
    run.metrics
        .push(overhead(setup.workload, &untraced, &traced));
}

/// Both explore workloads: explorer throughput traced and untraced, then a
/// shadow walk over the same dedup store.
fn explore(setup: &Setup, window: Duration, run: &mut TracedRun) -> Result<(), String> {
    let Input::Explore {
        spec,
        config,
        configs,
        ..
    } = &setup.input
    else {
        unreachable!("explore setup without exploration input");
    };
    let out_of_core = setup.workload == Workload::ExploreOoc;
    let verdict = &mut run.verdict;
    let tracer = &run.tracer;
    let mut last = None;
    let (untraced, traced) = alternate(window, 1, |_, traced| {
        let report = if traced {
            tracer.span("explore", None, tracer.new_run(), |_| {
                explore_once(setup, WORKERS, verdict)
            })
        } else {
            explore_once(setup, WORKERS, verdict)
        };
        let out = Produced {
            pulses: 0,
            results: report.configs as u64,
        };
        if traced {
            last = Some(report);
        }
        out
    });
    let last = last.expect("the loop runs at least one traced operation");
    run.metrics
        .push(overhead(setup.workload, &untraced, &traced));

    // The shadow walk, on the same store the workload uses.
    let walk_run = tracer.new_run();
    let walk = tracer.span("explore.shadow_walk", None, walk_run, |_| {
        shadow::walk(spec, config.dedup, setup.scratch.path())
    });
    let want_probes = expected_probes(spec.len());
    verdict.check(
        walk.admitted == *configs
            && walk.admitted == last.configs
            && walk.quiescent == 1
            && want_probes.is_none_or(|p| p == walk.probes),
        || {
            format!(
                "shadow walk on {}: {} admitted, {} quiescent, {} probes; explorer {} configs, want {configs} and {want_probes:?} probes",
                setup.workload.name(),
                walk.admitted,
                walk.quiescent,
                walk.probes,
                last.configs
            )
        },
    );
    let admitted = walk.admitted as f64;

    if out_of_core {
        run.metrics.extend([
            Metric::new("dedup.insert_ns.mmap", walk.clock.mean_ns(INSERT), "ns"),
            Metric::new("dedup.file_bytes", last.visited_file_bytes as f64, "bytes"),
            Metric::new("explore.spilled_jobs", last.spilled_jobs as f64, "count"),
            Metric::new(
                "explore.checkpoints_written",
                last.checkpoints_written as f64,
                "count",
            ),
        ]);
        // The run's final checkpoint: read + decode, then encode + atomic
        // write (which fsyncs) to a sibling file.
        let path = checkpoint_path(setup.scratch.path());
        let bytes = std::fs::metadata(&path)
            .map_err(|e| format!("stat {}: {e}", path.display()))?
            .len();
        let t = Instant::now();
        let ck = tracer.span("explore.checkpoint_read", None, walk_run, |_| {
            ExploreCheckpoint::read(&path)
        })?;
        let read_ms = t.elapsed().as_secs_f64() * 1e3;
        verdict.check(ck.is_finished() && ck.admitted == *configs, || {
            format!(
                "final checkpoint: {} frontier items, {} admitted (want {configs})",
                ck.frontier.len(),
                ck.admitted
            )
        });
        let t = Instant::now();
        tracer.span("explore.checkpoint_write", None, walk_run, |_| {
            ck.write_atomic(&path.with_extension("rewrite.ck"))
        })?;
        let write_ms = t.elapsed().as_secs_f64() * 1e3;
        run.metrics.extend([
            Metric::new("explore.checkpoint_bytes", bytes as f64, "bytes"),
            Metric::new("explore.checkpoint_write_ms", write_ms, "ms"),
            Metric::new("explore.checkpoint_read_ms", read_ms, "ms"),
        ]);
        run.walks.push(("mmap", walk.clock));
        return Ok(());
    }

    // One exhaustion at one worker: the speed-up base and the per-config
    // wall time the shadow walk's layers must account for.
    let t = Instant::now();
    let single = tracer.span("explore.1worker", None, tracer.new_run(), |_| {
        explore_once(setup, 1, verdict)
    });
    let one_worker_ns = t.elapsed().as_nanos() as f64;
    let two_worker_ns = quantile(&untraced.op_secs(), 0.5) * 1e9;
    let per_config_ns = ratio(one_worker_ns, single.configs as f64);
    let layer_ns_per_config = ratio(walk.clock.total_ns(), admitted);
    let mean = |layer| walk.clock.mean_ns(layer);
    run.metrics.extend([
        Metric::new("snapshot.restore_ns", mean(RESTORE), "ns"),
        Metric::new("sim.ready_channels_ns", mean(READY), "ns"),
        Metric::new("sim.step_channel_ns", mean(STEP), "ns"),
        Metric::new("snapshot.fingerprint_ns", mean(FINGERPRINT), "ns"),
        Metric::new("snapshot.snapshot_ns", mean(SNAPSHOT), "ns"),
        Metric::new("dedup.insert_ns.exact", mean(INSERT), "ns"),
        Metric::new("dedup.heap_bytes", last.visited_heap_bytes as f64, "bytes"),
        Metric::new(
            "explore.speedup_2w",
            ratio(one_worker_ns, two_worker_ns),
            "ratio",
        ),
        Metric::new(
            "explore.unattributed_us_per_config",
            (per_config_ns - layer_ns_per_config) / 1e3,
            "us",
        ),
    ]);
    run.walks.push(("exact", walk.clock));
    Ok(())
}

/// `fleet-mixed`: shard spans on the pool's workers, the merge, and the
/// fan-out wait around them.
fn fleet(setup: &Setup, window: Duration, run: &mut TracedRun) {
    let Input::Fleet { driver, config } = &setup.input else {
        unreachable!("fleet setup without fleet input");
    };
    let verdict = &mut run.verdict;
    let tracer = &run.tracer;
    let shards: Vec<u64> = (0..config.shard_count()).collect();
    let mut shard_ns: Vec<u64> = Vec::new();
    let mut wall_ns = 0u64;
    let mut wait_ns = 0u64;
    let mut merge_ns = 0u64;
    let mut exhausted = 0u64;
    let mut first: Option<(u64, FleetReport)> = None;
    // Every operation takes a fresh round index.
    let (untraced, traced) = alternate(window, 1, |round, traced| {
        if !traced {
            return fleet_once(setup, round, verdict);
        }
        let id = tracer.new_run();
        let root = tracer.open("fleet.round", None, id);
        let parts = par_map(&shards, WORKERS, |&shard| {
            let span = tracer.open("fleet.shard", Some(root), id);
            let report = driver.run_shard(config, round, config.shard_range(shard));
            (report, tracer.close(span))
        });
        let merge = tracer.open("fleet.merge", Some(root), id);
        let mut report = FleetReport::new();
        for (part, _) in &parts {
            report.merge(part);
        }
        merge_ns += tracer.close(merge);
        let round_ns = tracer.close(root);
        let slowest = parts.iter().map(|(_, ns)| *ns).max().unwrap_or(0);
        wall_ns += round_ns;
        wait_ns += round_ns.saturating_sub(slowest);
        shard_ns.extend(parts.iter().map(|(_, ns)| *ns));
        exhausted += report.budget_exhausted;
        let produced = check_round(&report, round, verdict);
        first.get_or_insert((round, report));
        produced
    });
    let rounds = traced.ops.len() as f64;

    // Merged shard reports must equal `run_fleet_round`'s byte for byte.
    let (round, merged) = first.expect("the closed loop runs at least once");
    let reference = run_fleet_round(config, *driver, round, WORKERS);
    verdict.check(
        reference == merged && reference.render() == merged.render(),
        || format!("fleet round {round}: merged shard reports differ from run_fleet_round"),
    );

    // Ring planning over one shard's rings.
    let plan_rings = config.shard_range(0);
    let count = plan_rings.end - plan_rings.start;
    let t = Instant::now();
    for ring in plan_rings {
        black_box(ring_plan(config, round, ring));
    }
    let plan_ns = t.elapsed().as_nanos() as f64;

    let busy_ns: u64 = shard_ns.iter().sum();
    let shard_ms: Vec<f64> = shard_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    run.metrics.extend([
        Metric::new("fleet.plan_ns_per_ring", ratio(plan_ns, count as f64), "ns"),
        Metric::new("fleet.shard_ms_p50", quantile(&shard_ms, 0.5), "ms"),
        Metric::new("fleet.shard_ms_max", quantile(&shard_ms, 1.0), "ms"),
        Metric::new(
            "fleet.ns_per_pulse",
            ratio(
                busy_ns as f64,
                traced.ops.iter().map(|(_, p)| p.pulses).sum::<u64>() as f64,
            ),
            "ns",
        ),
        Metric::new("fleet.merge_us", ratio(merge_ns as f64 / 1e3, rounds), "us"),
        Metric::new("fleet.budget_exhausted_rings", exhausted as f64, "count"),
        Metric::new(
            "pool.fanout_wait_ms",
            ratio(wait_ns as f64 / 1e6, rounds),
            "ms",
        ),
        Metric::new(
            "pool.utilization",
            ratio(busy_ns as f64, wall_ns as f64 * WORKERS as f64),
            "ratio",
        ),
        overhead(setup.workload, &untraced, &traced),
    ]);
}
