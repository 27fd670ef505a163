//! Hot-path profiling for the event core — zero-cost when disabled.
//!
//! The engine's hot phases ([`Phase`]), and the explorer's record loads,
//! successor probes, visited-set inserts and frontier records, are
//! bracketed with [`start`]/[`stop`] pairs. While profiling is off (the
//! default), each bracket is a single relaxed atomic load and no clock is
//! read; switching [`set_enabled`]`(true)` turns every bracket into a timed
//! sample feeding per-phase counters, total nanoseconds, and log₂ latency
//! histograms.
//!
//! The collector is process-global (plain atomics, no locks), so it
//! composes with the multi-threaded harness: samples from concurrent
//! engines aggregate into the same report. Use [`reset`] between
//! measurements and [`report`] to read the aggregate out; `tables
//! --profile` renders the report after each experiment.
//!
//! ```rust
//! use co_net::prof;
//!
//! prof::reset();
//! prof::set_enabled(true);
//! let t = prof::start();
//! // ... the bracketed hot phase ...
//! prof::stop(prof::Phase::Pick, t);
//! prof::set_enabled(false);
//! let report = prof::report();
//! assert_eq!(report.phase(prof::Phase::Pick).count, 1);
//! ```

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Histogram buckets: log₂ of nanoseconds, clamped to `[0, BUCKETS)`.
const BUCKETS: usize = 32;

/// The phases instrumented by the core's hot path and by the explorer.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Pushing a sent message into its channel queue (store push +
    /// ready-list maintenance).
    Enqueue,
    /// The scheduler choosing the next channel to deliver from.
    Pick,
    /// Scheduler index upkeep: the engine's [`crate::Scheduler::on_send`],
    /// [`crate::Scheduler::on_change`] and [`crate::Scheduler::on_unready`]
    /// hooks on every enqueue and delivery.
    Index,
    /// Protocol dispatch: the receiving node's `on_message` handler.
    Deliver,
    /// Event recording: appending to the trace and folding into the run
    /// metrics, whichever of the two is enabled.
    Observe,
    /// The explorer building a frontier record: one flat pulse
    /// configuration per admitted successor (see
    /// [`crate::explore::PulseConfig`]).
    Record,
    /// The explorer probing one successor of a record: the delivery and its
    /// fingerprint, once per branch (see [`crate::explore::Probe`]).
    Probe,
    /// The explorer loading a popped record into its probe, once per
    /// expanded configuration ([`crate::explore::Probe::load`]).
    Load,
    /// The explorer inserting a probed successor's fingerprint into its
    /// visited set, once per probe ([`crate::dedup::Inserter::insert`]).
    Dedup,
}

impl Phase {
    /// All phases, in display order.
    pub const ALL: [Phase; PHASES] = [
        Phase::Enqueue,
        Phase::Pick,
        Phase::Index,
        Phase::Deliver,
        Phase::Observe,
        Phase::Record,
        Phase::Probe,
        Phase::Load,
        Phase::Dedup,
    ];

    fn index(self) -> usize {
        match self {
            Phase::Enqueue => 0,
            Phase::Pick => 1,
            Phase::Index => 2,
            Phase::Deliver => 3,
            Phase::Observe => 4,
            Phase::Record => 5,
            Phase::Probe => 6,
            Phase::Load => 7,
            Phase::Dedup => 8,
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Phase::Enqueue => "enqueue",
            Phase::Pick => "pick",
            Phase::Index => "index",
            Phase::Deliver => "deliver",
            Phase::Observe => "observe",
            Phase::Record => "record",
            Phase::Probe => "probe",
            Phase::Load => "load",
            Phase::Dedup => "dedup",
        })
    }
}

const PHASES: usize = 9;

static ENABLED: AtomicBool = AtomicBool::new(false);

struct PhaseCell {
    count: AtomicU64,
    total_ns: AtomicU64,
    hist: [AtomicU64; BUCKETS],
}

impl PhaseCell {
    const fn new() -> PhaseCell {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        PhaseCell {
            count: ZERO,
            total_ns: ZERO,
            hist: [ZERO; BUCKETS],
        }
    }
}

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY_CELL: PhaseCell = PhaseCell::new();
static CELLS: [PhaseCell; PHASES] = [EMPTY_CELL; PHASES];

/// Whether profiling is currently collecting samples.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns sample collection on or off (process-global).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Clears all collected samples.
pub fn reset() {
    for cell in &CELLS {
        cell.count.store(0, Ordering::Relaxed);
        cell.total_ns.store(0, Ordering::Relaxed);
        for bucket in &cell.hist {
            bucket.store(0, Ordering::Relaxed);
        }
    }
}

/// Opens a timing bracket: `None` (no clock read) while profiling is off.
#[inline]
#[must_use]
pub fn start() -> Option<Instant> {
    if enabled() {
        Some(Instant::now())
    } else {
        None
    }
}

/// Closes a timing bracket opened by [`start`], attributing the elapsed
/// time to `phase`. A `None` token is a no-op.
#[inline]
pub fn stop(phase: Phase, token: Option<Instant>) {
    if let Some(t0) = token {
        record(phase, t0.elapsed().as_nanos() as u64);
    }
}

fn record(phase: Phase, ns: u64) {
    let cell = &CELLS[phase.index()];
    cell.count.fetch_add(1, Ordering::Relaxed);
    cell.total_ns.fetch_add(ns, Ordering::Relaxed);
    let bucket = (64 - u64::leading_zeros(ns | 1) as usize - 1).min(BUCKETS - 1);
    cell.hist[bucket].fetch_add(1, Ordering::Relaxed);
}

/// Aggregated samples of one [`Phase`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseStats {
    /// Number of samples.
    pub count: u64,
    /// Total nanoseconds across all samples.
    pub total_ns: u64,
    /// `hist[b]` counts samples with `floor(log2(ns)) == b` (bucket 0 also
    /// holds sub-nanosecond samples; the last bucket is open-ended).
    pub hist: [u64; BUCKETS],
}

impl PhaseStats {
    /// Mean nanoseconds per sample (0 when empty).
    #[must_use]
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }

    /// Upper bound (in ns) of the smallest histogram prefix holding at
    /// least `q` of the samples, `q` in `[0, 1]` — a coarse quantile.
    #[must_use]
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let want = (self.count as f64 * q).ceil() as u64;
        let mut seen = 0u64;
        for (bucket, &c) in self.hist.iter().enumerate() {
            seen += c;
            if seen >= want {
                return 1u64 << (bucket + 1).min(63);
            }
        }
        u64::MAX
    }
}

/// A point-in-time readout of all phase collectors.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProfReport {
    phases: [PhaseStats; PHASES],
}

impl ProfReport {
    /// Stats of one phase.
    #[must_use]
    pub fn phase(&self, phase: Phase) -> &PhaseStats {
        &self.phases[phase.index()]
    }
}

impl fmt::Display for ProfReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<10} {:>12} {:>14} {:>10} {:>10} {:>10}",
            "phase", "samples", "total ms", "mean ns", "p50 ns", "p99 ns"
        )?;
        for phase in Phase::ALL {
            let s = self.phase(phase);
            writeln!(
                f,
                "{:<10} {:>12} {:>14.3} {:>10} {:>10} {:>10}",
                phase.to_string(),
                s.count,
                s.total_ns as f64 / 1e6,
                s.mean_ns(),
                if s.count == 0 { 0 } else { s.quantile_ns(0.50) },
                if s.count == 0 { 0 } else { s.quantile_ns(0.99) },
            )?;
        }
        Ok(())
    }
}

/// Reads the current aggregate out of the collector.
#[must_use]
pub fn report() -> ProfReport {
    let mut out = ProfReport::default();
    for (i, cell) in CELLS.iter().enumerate() {
        let stats = &mut out.phases[i];
        stats.count = cell.count.load(Ordering::Relaxed);
        stats.total_ns = cell.total_ns.load(Ordering::Relaxed);
        for (b, bucket) in cell.hist.iter().enumerate() {
            stats.hist[b] = bucket.load(Ordering::Relaxed);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // The collector is process-global and `cargo test` runs tests
    // concurrently, so every test here must tolerate foreign samples; they
    // assert on deltas of distinct phases or on pure arithmetic instead.

    #[test]
    fn disabled_brackets_cost_no_samples() {
        set_enabled(false);
        let before = report().phase(Phase::Pick).count;
        let t = start();
        assert!(t.is_none());
        stop(Phase::Pick, t);
        assert_eq!(report().phase(Phase::Pick).count, before);
    }

    #[test]
    fn enabled_brackets_record_samples() {
        let before = report().phase(Phase::Observe).count;
        set_enabled(true);
        let t = start();
        stop(Phase::Observe, t);
        set_enabled(false);
        let after = report().phase(Phase::Observe).count;
        assert!(after > before, "sample was recorded");
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let mut s = PhaseStats {
            count: 3,
            total_ns: 0,
            hist: [0; BUCKETS],
        };
        // ns = 1 → bucket 0; ns = 1024 → bucket 10.
        s.hist[0] = 2;
        s.hist[10] = 1;
        assert_eq!(s.quantile_ns(0.5), 2);
        assert_eq!(s.quantile_ns(1.0), 1 << 11);
    }

    #[test]
    fn mean_handles_empty_and_nonempty() {
        let empty = PhaseStats::default();
        assert_eq!(empty.mean_ns(), 0);
        let s = PhaseStats {
            count: 4,
            total_ns: 400,
            hist: [0; BUCKETS],
        };
        assert_eq!(s.mean_ns(), 100);
    }

    #[test]
    fn report_renders_all_phases() {
        let text = report().to_string();
        for phase in Phase::ALL {
            assert!(text.contains(&phase.to_string()), "missing {phase}");
        }
    }
}
