//! Workload inputs, one operation of each workload with its correctness
//! check, and the untraced closed loop that yields the end-to-end metrics.

use crate::{expected_configs, mix, ratio, Metric, Scratch, Sizes, Verdict, Workload};
use co_bench::fleet::run_fleet_round;
use co_bench::registry::protocols;
use co_core::registry::{ExploreDriver, FleetDriver};
use co_core::{Alg2Node, Role};
use co_net::explore::{CheckpointPlan, ExploreConfig, ExploreReport};
use co_net::{
    Budget, DedupKind, FleetConfig, FleetReport, LatencyModel, LatencyPlan, Outcome, Pulse,
    RingSizes, RingSpec, RunReport, SchedulerKind, Simulation,
};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The scheduler settings `elect-n1000` cycles through.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Setting {
    /// Global FIFO: the scheduler's indexed pick.
    Fifo,
    /// Seeded uniform random: the scan pick.
    Random,
    /// Earliest virtual arrival under `uniform:1..10` latency: the clock
    /// and the earliest-arrival index.
    Latency,
}

impl Setting {
    /// Every setting, in cycle order.
    pub const ALL: [Setting; 3] = [Setting::Fifo, Setting::Random, Setting::Latency];

    /// Metric-name suffix.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Setting::Fifo => "fifo",
            Setting::Random => "random",
            Setting::Latency => "latency",
        }
    }
}

/// Generated inputs of one workload.
// One value per set-up: the size gap between variants costs nothing.
#[allow(clippy::large_enum_variant)]
pub enum Input {
    /// `elect-n1000`.
    Elect {
        /// The oriented ring with IDs `1..=n`, rotated by the seed.
        spec: RingSpec,
        /// Position of the maximum ID: where the leader must be.
        leader: usize,
        /// Theorem 1: `n·(2·ID_max + 1)` pulses per election.
        pulses: u64,
    },
    /// `explore-alg2` and `explore-ooc`.
    Explore {
        /// The registry's exploration driver for `alg2`.
        driver: ExploreDriver,
        /// The oriented ring with IDs `1..=n`, rotated by the seed.
        spec: RingSpec,
        /// Explorer configuration (dedup store, workers, out-of-core).
        config: ExploreConfig,
        /// The configuration count every exhaustion must report.
        configs: usize,
    },
    /// `fleet-mixed`.
    Fleet {
        /// The registry's fleet driver for `alg2`.
        driver: FleetDriver,
        /// Fleet configuration.
        config: FleetConfig,
    },
}

/// A workload's set-up: registry lookups, generated inputs and a scratch
/// directory.
pub struct Setup {
    /// The workload.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// Generated inputs.
    pub input: Input,
    /// Scratch directory (removed on drop).
    pub scratch: Scratch,
}

impl Setup {
    /// Sets `workload` up from `seed` under `root`.
    ///
    /// # Errors
    ///
    /// A registry lookup fails, the instance size has no known count, or
    /// the scratch directory cannot be created.
    pub fn new(workload: Workload, seed: u64, sizes: &Sizes, root: &Path) -> Result<Setup, String> {
        let registry = protocols();
        let scratch = Scratch::create(root, workload.name())?;
        let input = match workload {
            Workload::ElectN1000 => {
                let n = sizes.elect_n;
                let mut ids: Vec<u64> = (1..=n).collect();
                // Rotating relabels positions only: every seed elects with
                // the same pulse count on an isomorphic ring, while the
                // scheduler and latency seeds vary.
                ids.rotate_left((seed % n) as usize);
                let leader = ids.iter().position(|&id| id == n).ok_or("empty ring")?;
                Input::Elect {
                    pulses: n * (2 * n + 1),
                    spec: RingSpec::oriented(ids),
                    leader,
                }
            }
            Workload::ExploreAlg2 | Workload::ExploreOoc => {
                let n = sizes.explore_n;
                let configs = expected_configs(n).ok_or(format!("no known count for n = {n}"))?;
                let mut ids: Vec<u64> = (1..=n as u64).collect();
                // A rotation relabels positions only: the state space, and
                // so its configuration count, is unchanged.
                ids.rotate_left((seed % n as u64) as usize);
                let mut config = ExploreConfig {
                    jobs: crate::WORKERS,
                    ..ExploreConfig::default()
                };
                if workload == Workload::ExploreOoc {
                    config.dedup = DedupKind::Mmap {
                        budget: sizes.ooc_mmap_bytes,
                    };
                    config.spill_high_water = sizes.ooc_spill;
                    config.scratch_dir = Some(scratch.path().to_path_buf());
                    config.checkpoint = Some(CheckpointPlan {
                        path: checkpoint_path(scratch.path()),
                        every: sizes.ooc_checkpoint_every,
                        meta: format!("perfbench alg2 {ids:?}").into_bytes(),
                    });
                }
                Input::Explore {
                    driver: registry.explore("alg2").map_err(|e| e.to_string())?,
                    spec: RingSpec::oriented(ids),
                    config,
                    configs,
                }
            }
            Workload::FleetMixed => Input::Fleet {
                driver: registry.fleet("alg2").map_err(|e| e.to_string())?,
                config: FleetConfig {
                    sizes: RingSizes::Uniform { min: 3, max: 9 },
                    seed,
                    fault_rate: 0.01,
                    ..FleetConfig::new(sizes.fleet_rings)
                },
            },
        };
        Ok(Setup {
            workload,
            seed,
            input,
            scratch,
        })
    }
}

/// Where `explore-ooc` writes its checkpoint.
#[must_use]
pub fn checkpoint_path(scratch: &Path) -> PathBuf {
    scratch.join("explore.ck")
}

/// What one operation produced.
#[derive(Clone, Copy, Debug, Default)]
pub struct Produced {
    /// Simulated pulses delivered.
    pub pulses: u64,
    /// Useful results: verified elections, admitted configurations, or
    /// unique-leader fleet elections.
    pub results: u64,
}

/// Runs one `elect-n1000` election (election number `k`) under `setting`
/// and checks it: quiescent termination, the leader at the max-ID
/// position, and exactly `n·(2·ID_max + 1)` pulses. `metrics` attaches
/// the engine's metrics observer (the traced run's observe phase).
pub fn elect_once(
    setup: &Setup,
    setting: Setting,
    k: u64,
    metrics: bool,
    verdict: &mut Verdict,
) -> Produced {
    let Input::Elect {
        spec,
        leader,
        pulses,
    } = &setup.input
    else {
        unreachable!("elect_once on a non-election setup");
    };
    let seed = mix(setup.seed, k);
    let nodes = (0..spec.len())
        .map(|i| Alg2Node::new(spec.id(i), spec.cw_port(i)))
        .collect();
    let kind = match setting {
        Setting::Fifo => SchedulerKind::Fifo,
        Setting::Random => SchedulerKind::Random,
        Setting::Latency => SchedulerKind::Latency,
    };
    let mut sim: Simulation<Pulse, Alg2Node> =
        Simulation::new(spec.wiring(), nodes, kind.build(seed));
    if setting == Setting::Latency {
        sim.set_latency(LatencyPlan::new(
            LatencyModel::Uniform { min: 1, max: 10 },
            seed,
        ));
    }
    if metrics {
        sim.enable_metrics();
    }
    let report: RunReport = sim.run(Budget::default());
    let leaders: Vec<usize> = (0..spec.len())
        .filter(|&i| sim.node(i).role() == Role::Leader)
        .collect();
    let ok = report.outcome == Outcome::QuiescentTerminated
        && report.total_sent == *pulses
        && report.steps == *pulses
        && leaders == [*leader];
    verdict.check(ok, || {
        format!(
            "election {k} ({}): {:?}, {} sent, {} delivered, leaders {leaders:?}; want {pulses} pulses, leader {leader}",
            setting.name(),
            report.outcome,
            report.total_sent,
            report.steps
        )
    });
    Produced {
        pulses: report.steps,
        results: u64::from(ok),
    }
}

/// Runs one exhaustive exploration through the registry driver, with
/// `jobs` workers, and checks it: complete, no violations, one quiescent
/// configuration, the known configuration count, and (out of core) no heap
/// index bytes. Returns the report for the traced run's counters.
pub fn explore_once(setup: &Setup, jobs: usize, verdict: &mut Verdict) -> ExploreReport {
    let Input::Explore {
        driver,
        spec,
        config,
        configs,
    } = &setup.input
    else {
        unreachable!("explore_once on a non-exploration setup");
    };
    let config = ExploreConfig {
        jobs,
        ..config.clone()
    };
    let report = driver.run(spec, &config);
    let out_of_core = setup.workload == Workload::ExploreOoc;
    let ok = report.complete
        && report.violations.is_empty()
        && report.quiescent_configs == 1
        && report.configs == *configs
        && (!out_of_core || report.visited_heap_bytes == 0);
    verdict.check(ok, || {
        format!(
            "exploration: complete {}, {} violations, {} quiescent, {} configs (want {configs}), {} heap bytes",
            report.complete,
            report.violations.len(),
            report.quiescent_configs,
            report.configs,
            report.visited_heap_bytes
        )
    });
    report
}

/// Checks one fleet round: every ring without an injected fault elects a
/// unique leader (`elections ≥ rings − faults_injected`). Each ring is one
/// operation; the shortfall counts as failed rings.
pub fn check_round(report: &FleetReport, round: u64, verdict: &mut Verdict) -> Produced {
    let want = report.rings.saturating_sub(report.faults_injected);
    let short = want.saturating_sub(report.elections);
    verdict.add(report.rings, short, || {
        format!(
            "fleet round {round}: {} elections < {} rings - {} faults",
            report.elections, report.rings, report.faults_injected
        )
    });
    Produced {
        pulses: report.total_pulses,
        results: report.elections,
    }
}

/// Runs fleet round `round` through `co_bench::fleet` and checks it.
pub fn fleet_once(setup: &Setup, round: u64, verdict: &mut Verdict) -> Produced {
    let Input::Fleet { driver, config } = &setup.input else {
        unreachable!("fleet_once on a non-fleet setup");
    };
    let report = run_fleet_round(config, *driver, round, crate::WORKERS);
    check_round(&report, round, verdict)
}

/// What a closed loop measured, operation by operation.
///
/// Rates and operation time are read from the fastest whole cycle. The
/// shared host switches between quiet stretches and stretches where other
/// tenants slow every operation by up to 1.7×, each lasting seconds, and how
/// much of a run is slow varies from run to run. A median over cycles falls
/// on whichever side holds more of the run: on `elect-n1000` it moved by
/// 25 % between runs of the same code. The fastest cycle needs one quiet
/// stretch per run, and a change to the program moves it as much as any
/// other cycle.
#[derive(Clone, Debug)]
pub struct Tally {
    /// Wall time and output of each operation, in order.
    pub ops: Vec<(f64, Produced)>,
    /// Operations per cycle: the loop runs whole cycles (one election of
    /// each setting, one exhaustion, or one fleet round).
    pub cycle: usize,
}

impl Tally {
    fn new(cycle: u64) -> Tally {
        Tally {
            ops: Vec::new(),
            cycle: cycle as usize,
        }
    }

    /// Wall time of each operation, in seconds.
    #[must_use]
    pub fn op_secs(&self) -> Vec<f64> {
        self.ops.iter().map(|(secs, _)| *secs).collect()
    }

    /// `count` per wall second in the fastest whole cycle.
    #[must_use]
    pub fn rate(&self, count: impl Fn(&Produced) -> u64) -> f64 {
        self.ops
            .chunks_exact(self.cycle)
            .map(|c| {
                let n: u64 = c.iter().map(|(_, p)| count(p)).sum();
                ratio(n as f64, c.iter().map(|(secs, _)| secs).sum())
            })
            .fold(0.0, f64::max)
    }

    /// Mean operation time in the fastest whole cycle, in seconds.
    #[must_use]
    pub fn op_secs_min(&self) -> f64 {
        self.ops
            .chunks_exact(self.cycle)
            .map(|c| c.iter().map(|(secs, _)| secs).sum::<f64>() / c.len() as f64)
            .fold(f64::INFINITY, f64::min)
    }

    /// Results per wall second (see [`Tally::rate`]).
    #[must_use]
    pub fn results_per_s(&self) -> f64 {
        self.rate(|p| p.results)
    }

    /// Pulses per wall second (see [`Tally::rate`]).
    #[must_use]
    pub fn pulses_per_s(&self) -> f64 {
        self.rate(|p| p.pulses)
    }
}

/// Runs `op(k)` for `k = 0, 1, …`, each after the previous one returns,
/// until `window` has passed, stopping only after whole cycles of `cycle`
/// operations (at least one cycle runs). `after_cycle` runs between
/// cycles, outside the timed operations.
pub fn closed_loop(
    window: Duration,
    cycle: u64,
    mut op: impl FnMut(u64) -> Produced,
    mut after_cycle: impl FnMut(),
) -> Tally {
    let mut tally = Tally::new(cycle);
    let start = Instant::now();
    let mut k = 0u64;
    while k == 0 || k % cycle != 0 || start.elapsed() < window {
        let t = Instant::now();
        let produced = op(k);
        tally.ops.push((t.elapsed().as_secs_f64(), produced));
        k += 1;
        if k % cycle == 0 {
            after_cycle();
        }
    }
    tally
}

/// Like [`closed_loop`], but operations alternate untraced (even `k`) and
/// traced (odd `k`), so both halves see the same machine conditions;
/// returns the `(untraced, traced)` tallies, each of whole cycles.
pub fn alternate(
    window: Duration,
    cycle: u64,
    mut op: impl FnMut(u64, bool) -> Produced,
) -> (Tally, Tally) {
    let mut halves = [Tally::new(cycle), Tally::new(cycle)];
    closed_loop(
        window,
        2 * cycle,
        |k| {
            let traced = k % 2 == 1;
            let t = Instant::now();
            let produced = op(k, traced);
            halves[usize::from(traced)]
                .ops
                .push((t.elapsed().as_secs_f64(), produced));
            produced
        },
        || {},
    );
    let [untraced, traced] = halves;
    (untraced, traced)
}

/// The setting of election `k`: the three settings in turn.
#[must_use]
pub fn setting_of(k: u64) -> Setting {
    Setting::ALL[(k % Setting::ALL.len() as u64) as usize]
}

/// Runs `setup`'s workload untraced for `window`, calling `after_cycle`
/// between cycles.
pub fn run_untraced(
    setup: &Setup,
    window: Duration,
    verdict: &mut Verdict,
    after_cycle: impl FnMut(),
) -> Tally {
    match setup.workload {
        Workload::ElectN1000 => closed_loop(
            window,
            Setting::ALL.len() as u64,
            |k| elect_once(setup, setting_of(k), k, false, verdict),
            after_cycle,
        ),
        Workload::ExploreAlg2 | Workload::ExploreOoc => {
            let Input::Explore { spec, .. } = &setup.input else {
                unreachable!("explore workload without exploration input");
            };
            // The explorer does not report the pulses it delivers. Every
            // exhaustion of the instance makes the same transitions, so
            // this counts the benchmark's own per-instance total, which the
            // traced run's shadow walk re-counts: here `sim_pulses_per_s`
            // is that constant times exhaustions per second, not a count
            // the program reported.
            let probes = crate::expected_probes(spec.len()).unwrap_or(0);
            closed_loop(
                window,
                1,
                |_| {
                    let report = explore_once(setup, crate::EXPLORE_JOBS, verdict);
                    Produced {
                        pulses: probes,
                        results: report.configs as u64,
                    }
                },
                after_cycle,
            )
        }
        Workload::FleetMixed => closed_loop(
            window,
            1,
            |round| fleet_once(setup, round, verdict),
            after_cycle,
        ),
    }
}

/// The end-to-end metrics of an untraced run, apart from `setup_s` and
/// `peak_rss_mb`.
#[must_use]
pub fn end_to_end(tally: &Tally) -> Vec<Metric> {
    vec![
        Metric::new("sim_pulses_per_s", tally.pulses_per_s(), "1/s"),
        Metric::new("results_per_s", tally.results_per_s(), "1/s"),
        Metric::new("op_ms_min", tally.op_secs_min() * 1e3, "ms"),
    ]
}
