//! # `co-bench` — the experiment harness
//!
//! Regenerates every quantitative claim of the paper as a table
//! (experiments E0–E22, indexed in `DESIGN.md` §5). Each experiment is a
//! pure function returning a [`Table`]; the `tables` binary prints them
//! (optionally fanning the catalogue across a worker pool, see
//! [`parallel`]) and the [`harness`] benches measure the wall-clock cost of
//! representative configurations. The [`check`] module is the benchmark
//! regression gate CI runs against `bench_baseline.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod experiments;
pub mod fleet;
pub mod harness;
pub mod parallel;
pub mod registry;
pub mod stats;
pub mod table;

pub use check::{collect_metrics, compare, CheckReport, Metric};
pub use experiments::{run_experiment, run_experiment_with, Experiment};
pub use fleet::{run_fleet, run_fleet_round, FleetRunSummary};
pub use parallel::{effective_jobs, par_map};
pub use registry::protocols;
pub use stats::Summary;
pub use table::Table;
