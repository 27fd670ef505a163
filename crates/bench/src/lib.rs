//! # `co-bench` — the experiment harness
//!
//! Regenerates every quantitative claim of the paper as a table
//! (experiments E0–E22, indexed in `DESIGN.md` §5). Each experiment is a
//! function returning a [`Table`], reached through one dispatch,
//! [`run_experiment_with`]; the `tables` binary is the one front end that
//! prints them (fanning each experiment's grid across a worker pool, see
//! [`parallel`]). The [`check`] module is the benchmark regression gate CI
//! runs against `bench_baseline.json`; system timings come from the
//! `perfbench` crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod experiments;
pub mod fleet;
pub mod parallel;
pub mod registry;
pub mod stats;
pub mod table;

pub use check::{collect_metrics, compare, CheckReport, Metric};
pub use experiments::{run_experiment_with, Experiment};
pub use fleet::{run_fleet, run_fleet_round, FleetRunSummary};
pub use parallel::{effective_jobs, par_map};
pub use registry::protocols;
pub use stats::Summary;
pub use table::Table;
