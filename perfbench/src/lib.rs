//! The repository benchmark: four closed-loop workloads over the
//! user-facing engines (single-ring [`Simulation`](co_net::Simulation), the
//! registry's exhaustive explorer and the parallel fleet), an untraced run
//! that reports end-to-end metrics, and a traced run that splits them by
//! layer. See `README.md` in this directory for the metric map.
//!
//! The benchmark only calls public items of the program; every span is
//! recorded here, around those calls. The one source inside the program it
//! reads is the engine's own phase collector, `co_net::prof`, switched on
//! only in the traced run.

pub mod shadow;
pub mod trace;
pub mod traced;
pub mod workloads;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// One benchmark workload.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Algorithm 2 elections on a 1000-node ring through `Simulation`.
    ElectN1000,
    /// Exhaustive exploration of Algorithm 2 with the exact heap store.
    ExploreAlg2,
    /// The same exploration with mmap dedup, frontier spill and checkpoints.
    ExploreOoc,
    /// Rounds of 10,000 mixed-size Algorithm 2 rings through the fleet.
    FleetMixed,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::ElectN1000,
        Workload::ExploreAlg2,
        Workload::ExploreOoc,
        Workload::FleetMixed,
    ];

    /// The `--workload` spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::ElectN1000 => "elect-n1000",
            Workload::ExploreAlg2 => "explore-alg2",
            Workload::ExploreOoc => "explore-ooc",
            Workload::FleetMixed => "fleet-mixed",
        }
    }

    /// Parses a `--workload` value.
    #[must_use]
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Instance sizes. [`Sizes::FULL`] is the benchmark; [`Sizes::TOY`] keeps
/// the self-test fast while running every code path.
#[derive(Copy, Clone, Debug)]
pub struct Sizes {
    /// Ring size of `elect-n1000` (IDs are a permutation of `1..=n`).
    pub elect_n: u64,
    /// Ring size of both explore workloads (IDs `1..=n`, rotated).
    pub explore_n: usize,
    /// Rings per fleet round.
    pub fleet_rings: u64,
    /// mmap dedup budget of `explore-ooc`, in bytes.
    pub ooc_mmap_bytes: usize,
    /// Frontier spill high-water mark of `explore-ooc`, in items.
    pub ooc_spill: usize,
    /// Admitted configurations between `explore-ooc` checkpoints.
    pub ooc_checkpoint_every: usize,
}

impl Sizes {
    /// The benchmark's sizes.
    pub const FULL: Sizes = Sizes {
        elect_n: 1000,
        explore_n: 7,
        fleet_rings: 10_000,
        ooc_mmap_bytes: 64 << 10,
        ooc_spill: 64,
        ooc_checkpoint_every: 10_000,
    };

    /// Toy sizes for the self-test.
    pub const TOY: Sizes = Sizes {
        elect_n: 40,
        explore_n: 5,
        fleet_rings: 300,
        ooc_mmap_bytes: 1 << 10,
        ooc_spill: 4,
        ooc_checkpoint_every: 200,
    };
}

/// Worker threads for the explorer and the fleet (the benchmark host has
/// two cores).
pub const WORKERS: usize = 2;

/// Explorer workers of the untraced explore workloads: one, the default of
/// `co-ring explore`. With two, an exhaustion needs both cores free of the
/// other tenants at once, and its time spread twice as much between runs
/// as at one. The traced run still times two workers
/// (`explore.speedup_2w`).
pub const EXPLORE_JOBS: usize = 1;

/// Configurations `co-ring explore --protocol alg2 --n N` reports for the
/// oriented ring with IDs `1..=N`.
#[must_use]
pub fn expected_configs(n: usize) -> Option<usize> {
    match n {
        3 => Some(60),
        4 => Some(244),
        5 => Some(1_024),
        6 => Some(4_431),
        7 => Some(19_485),
        8 => Some(86_909),
        _ => None,
    }
}

/// Dedup probes (successor transitions, one delivered pulse each) of one
/// exhaustive exploration of the same instance: every admitted
/// non-quiescent configuration is expanded once, over all its ready
/// channels. The traced run's shadow walk re-counts it.
#[must_use]
pub fn expected_probes(n: usize) -> Option<u64> {
    match n {
        3 => Some(108),
        4 => Some(581),
        5 => Some(3_048),
        6 => Some(15_775),
        7 => Some(80_744),
        8 => Some(410_609),
        _ => None,
    }
}

/// A per-run scratch directory under the benchmark's output root, removed
/// on drop.
#[derive(Debug)]
pub struct Scratch(PathBuf);

impl Scratch {
    /// Creates `root/run-<pid>-<tag>`.
    ///
    /// # Errors
    ///
    /// The directory cannot be created.
    pub fn create(root: &Path, tag: &str) -> Result<Scratch, String> {
        let dir = root.join(format!("run-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    /// The directory.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    #[must_use]
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Operations attempted and failed, with the first failure messages.
#[derive(Clone, Debug, Default)]
pub struct Verdict {
    /// Operations attempted (elections, explorations, fleet rings, checks).
    pub attempted: u64,
    /// Operations that failed their correctness check.
    pub failed: u64,
    /// The first few failure messages.
    pub notes: Vec<String>,
}

impl Verdict {
    /// Counts `attempted` operations of which `failed` failed, noting `why`.
    pub fn add(&mut self, attempted: u64, failed: u64, why: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && self.notes.len() < 8 {
            self.notes.push(why());
        }
    }

    /// One operation that passed iff `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.add(1, u64::from(!ok), why);
    }
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics`.
///
/// # Errors
///
/// A metric value is not finite.
pub fn result_line(verdict: &Verdict, metrics: &[Metric]) -> Result<String, String> {
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        verdict.failed == 0 && verdict.attempted > 0,
        verdict.attempted,
        verdict.failed
    ))
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
///
/// # Errors
///
/// `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb as f64 / 1024.0)
}

/// The `q`-quantile of `values` by linear interpolation between closest
/// ranks (`0.0` for an empty slice).
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// `num / den`, or `0.0` when `den` is zero.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// SplitMix64 step: the seed stream behind every generated input.
#[must_use]
pub fn mix(seed: u64, salt: u64) -> u64 {
    co_net::dedup::splitmix64(seed ^ co_net::dedup::splitmix64(salt))
}
