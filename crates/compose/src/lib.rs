//! # `co-compose` — content-oblivious computation after leader election
//!
//! Corollary 5 of the paper: *any asynchronous algorithm on rings can be
//! simulated in a fully defective oriented ring*, by composing the paper's
//! quiescently-terminating leader election (Algorithm 2) with a
//! root-initiated content-oblivious computation scheme in the style of
//! Censor-Hillel, Cohen, Gelles & Sela (Distributed Computing 2023).
//!
//! This crate implements a **ring-specialised computation layer** of our own
//! design (the general-graph compiler of that paper is out of scope for
//! rings; see `DESIGN.md` §1 for the substitution argument):
//!
//! * [`broadcast`] — a serialized *round-broadcast* primitive: the current
//!   token holder transmits an arbitrary `u64` to every node using only
//!   pulses (unary clockwise train + counterclockwise end-marker), with the
//!   token rotating counterclockwise via an implicit one-hop grant pulse.
//!   Correctness needs only per-channel FIFO and causality, exactly the
//!   guarantees of the fully defective model.
//! * [`apps`] — computations built on the primitive: ring-size counting,
//!   max/sum aggregation with distance labelling, and a leader-driven
//!   replicated counter.
//! * [`pipeline`] — the actual Corollary 5 composition: run Algorithm 2,
//!   and let each node switch to the computation the moment it terminates.
//!   Because Algorithm 2 terminates quiescently *with the leader last*, no
//!   pulse of the first algorithm can ever be mistaken for one of the
//!   second (the paper's message-algorithm attribution, §1.1).
//!
//! ```rust
//! use co_compose::pipeline::elect_then_ring_size;
//! use co_core::runner::RunOptions;
//! use co_net::{RingSpec, SchedulerKind};
//!
//! let spec = RingSpec::oriented(vec![4, 1, 7, 3, 6]);
//! let out = elect_then_ring_size(&spec, &RunOptions::new(SchedulerKind::Random, 11));
//! assert!(out.quiescently_terminated);
//! // Every node — not just the leader — learned the ring size.
//! assert_eq!(out.outputs, vec![Some(5); 5]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
pub mod broadcast;
pub mod pipeline;
pub mod universal;

pub use apps::{AggregateApp, AggregateOutput, BytesApp, ReplicatedCounterApp, RingSizeApp};
pub use broadcast::{RoundApp, RoundNode, TokenAction};
pub use pipeline::ElectThenCompute;
pub use universal::{simulate_on_defective_ring, UniversalApp, UniversalAppState};
