//! In-memory spans and per-layer call clocks for the traced run.
//!
//! A span has a name, start and end (nanoseconds since the tracer was
//! created), the span that caused it and a run id shared by every span of
//! one operation. Spans stay in memory until [`Tracer::write`] at the end
//! of the benchmark; self time is derived from them afterwards.
//!
//! Calls too fine-grained to keep one span each (the shadow walk makes
//! millions) are timed into a [`LayerClock`] instead: a call count and a
//! nanosecond total per layer boundary.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a span within its [`Tracer`].
pub type SpanId = usize;

/// One recorded span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span covers.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer epoch (0 while open).
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The operation this span belongs to.
    pub run: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Thread-safe span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    runs: AtomicU64,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose epoch is now.
    #[must_use]
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            runs: AtomicU64::new(0),
        }
    }

    /// A fresh run id for the next operation.
    pub fn new_run(&self) -> u64 {
        self.runs.fetch_add(1, Ordering::Relaxed)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span.
    pub fn open(&self, name: &'static str, parent: Option<SpanId>, run: u64) -> SpanId {
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span list poisoned");
        spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            run,
        });
        spans.len() - 1
    }

    /// Closes span `id` and returns its duration in nanoseconds.
    pub fn close(&self, id: SpanId) -> u64 {
        let end_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span list poisoned");
        let span = &mut spans[id];
        span.end_ns = end_ns;
        span.duration_ns()
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        run: u64,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let id = self.open(name, parent, run);
        let out = f(id);
        self.close(id);
        out
    }

    /// A copy of every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// Writes every span as one JSON line, with its derived self time,
    /// followed by one line per layer clock.
    ///
    /// # Errors
    ///
    /// The file cannot be written.
    pub fn write(&self, path: &Path, clocks: &[(&str, &LayerClock)]) -> Result<(), String> {
        let spans = self.spans();
        let self_ns = self_times(&spans);
        let mut out = String::new();
        for (id, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\": {id}, \"name\": \"{}\", \"parent\": {parent}, \"run\": {}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                s.name, s.run, s.start_ns, s.end_ns, self_ns[id]
            );
        }
        for (walk, clock) in clocks {
            let _ = writeln!(
                out,
                "{{\"walk\": \"{walk}\", \"clock_read_ns\": {}}}",
                clock.read_ns
            );
            for (layer, stat) in &clock.layers {
                let _ = writeln!(
                    out,
                    "{{\"walk\": \"{walk}\", \"layer\": \"{layer}\", \"calls\": {}, \"total_ns\": {}}}",
                    stat.calls, stat.total_ns
                );
            }
        }
        let mut file =
            std::fs::File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
        file.write_all(out.as_bytes())
            .and_then(|()| file.flush())
            .map_err(|e| format!("write {}: {e}", path.display()))
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children, e.g. shards on different
/// workers, count once).
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut covered)| {
            covered.sort_unstable();
            let mut union = 0u64;
            let mut reach = 0u64;
            for (lo, hi) in covered {
                let lo = lo.max(reach);
                if hi > lo {
                    union += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns().saturating_sub(union)
        })
        .collect()
}

/// Total self time per span name, in name order.
#[must_use]
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut by_name = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *by_name.entry(s.name).or_insert(0) += own;
    }
    by_name
}

/// Call count and time of one layer boundary.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CallStat {
    /// Calls timed.
    pub calls: u64,
    /// Nanoseconds spent in them.
    pub total_ns: u64,
}

impl CallStat {
    /// Mean nanoseconds per call.
    #[must_use]
    pub fn mean_ns(&self) -> f64 {
        crate::ratio(self.total_ns as f64, self.calls as f64)
    }
}

/// Per-layer call clocks of one sequential walk.
///
/// Each timed call also pays for one clock read. The clock measures that
/// cost once, as the mean of empty timed calls, and subtracts it from
/// every figure it reports.
#[derive(Clone, Debug)]
pub struct LayerClock {
    layers: BTreeMap<&'static str, CallStat>,
    read_ns: f64,
}

impl LayerClock {
    /// A clock calibrated against this host's clock-read cost.
    #[must_use]
    pub fn calibrated() -> LayerClock {
        const SAMPLES: u32 = 100_000;
        let mut total = 0u128;
        for _ in 0..SAMPLES {
            let t = Instant::now();
            std::hint::black_box(());
            total += t.elapsed().as_nanos();
        }
        LayerClock {
            layers: BTreeMap::new(),
            read_ns: total as f64 / f64::from(SAMPLES),
        }
    }

    /// Times `f` as one call into `layer`.
    #[inline]
    pub fn time<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = f();
        let ns = t.elapsed().as_nanos() as u64;
        let stat = self.layers.entry(layer).or_default();
        stat.calls += 1;
        stat.total_ns += ns;
        out
    }

    /// The raw stats of `layer` (zero if never called).
    #[must_use]
    pub fn get(&self, layer: &str) -> CallStat {
        self.layers.get(layer).copied().unwrap_or_default()
    }

    /// Mean nanoseconds per call into `layer`, clock-read cost removed.
    #[must_use]
    pub fn mean_ns(&self, layer: &str) -> f64 {
        let stat = self.get(layer);
        if stat.calls == 0 {
            return 0.0;
        }
        (stat.mean_ns() - self.read_ns).max(0.0)
    }

    /// Nanoseconds summed over every layer, clock-read cost removed.
    #[must_use]
    pub fn total_ns(&self) -> f64 {
        self.layers
            .values()
            .map(|s| (s.total_ns as f64 - s.calls as f64 * self.read_ns).max(0.0))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            run: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("round", 0, 100, None),
            span("shard", 10, 60, Some(0)),
            span("shard", 20, 70, Some(0)),
            span("merge", 80, 90, Some(0)),
        ];
        // Children cover [10, 70) ∪ [80, 90) = 70 ns of the round's 100.
        assert_eq!(self_times(&spans), vec![30, 50, 50, 10]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["shard"], 100);
        assert_eq!(by_name["round"], 30);
    }

    #[test]
    fn tracer_records_parents_and_runs() {
        let tracer = Tracer::new();
        tracer.span("outer", None, 7, |outer| {
            tracer.span("inner", Some(outer), 7, |_| ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.run == 7 && s.end_ns >= s.start_ns));
    }
}
