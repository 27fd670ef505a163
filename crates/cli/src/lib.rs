//! # `co-cli` — command-line driver
//!
//! Implements the `co-ring` binary: run elections, orientations, anonymous
//! rings, compositions and solitude-pattern extractions from the shell,
//! with optional JSON output and schedule record/replay. See `co-ring help` or the
//! [`run`] entry point.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;

pub use args::{Cli, Command, Opts, ParseError};
pub use commands::run;
