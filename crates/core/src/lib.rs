//! # `co-core` — content-oblivious leader election on rings
//!
//! A faithful, executable reproduction of *Content-Oblivious Leader Election
//! on Rings* (Frei, Gelles, Ghazy, Nolin; DISC 2024). Nodes communicate over
//! an asynchronous network whose noise erases the content of every message,
//! leaving only contentless *pulses*; algorithms may depend solely on the
//! order in which pulses arrive from each neighbour.
//!
//! ## The paper's results, as code
//!
//! | Paper | Here | Guarantee |
//! |-------|------|-----------|
//! | Algorithm 1 (§3.1) | [`alg1::Alg1Node`] | quiescently *stabilizing* election, oriented ring |
//! | Algorithm 2 / Theorem 1 (§3.2) | [`alg2::Alg2Node`] | quiescently *terminating* election, exactly `n(2·ID_max + 1)` pulses |
//! | Algorithm 3 / Prop. 15 & Theorem 2 (§4) | [`alg3::Alg3Node`] | stabilizing election **and ring orientation** on non-oriented rings |
//! | Algorithm 4 / Theorem 3 (§5) | [`anonymous`] | anonymous rings: random IDs, election whp |
//! | Proposition 19 (§5) | [`alg3::Alg3Node::with_resampling`] | unique IDs for all nodes whp |
//! | Theorem 20 / Definition 21 (§6) | [`lower_bound`] | solitude patterns, the `n⌊log(ID_max/n)⌋` bound, and the proof's witness construction |
//! | Lemmas 6–12, 17 (§3.1) | [`invariants`] | executable invariant monitors checked on every step |
//! | §3.2 design rationale | [`ablation`] | Algorithm 2 *without* the receive gate — exhaustively shown incorrect |
//! | §7 open problem groundwork | [`general`] | content-oblivious flood-echo wave on arbitrary graphs |
//!
//! ## Quickstart
//!
//! ```rust
//! use co_core::registry::Alg2Def;
//! use co_core::runner::{self, RunOptions};
//! use co_core::IdAssignment;
//! use co_net::{RingSpec, SchedulerKind};
//!
//! // Elect a leader on an oriented ring of 8 nodes with IDs 1..=8.
//! let spec = RingSpec::oriented((1..=8).collect());
//! let report = runner::run::<Alg2Def>(&spec, &RunOptions::new(SchedulerKind::Random, 42));
//!
//! assert!(report.quiescently_terminated());
//! assert_eq!(report.leader, Some(7));              // position of ID 8
//! assert_eq!(report.total_messages, 8 * (2 * 8 + 1)); // Theorem 1, exactly
//! # let _ = IdAssignment::Contiguous;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod alg1;
pub mod alg2;
pub mod alg3;
pub mod anonymous;
pub mod election;
pub mod general;
pub mod id;
pub mod invariants;
pub mod lower_bound;
pub mod registry;
pub mod runner;

pub use alg1::Alg1Node;
pub use alg2::Alg2Node;
pub use alg3::{Alg3Node, Alg3Output, IdScheme, InvalidId};
pub use election::{ElectionError, ElectionReport, Role};
pub use id::IdAssignment;
pub use registry::{Capability, ProtocolSpec, Registry, RegistryError};
