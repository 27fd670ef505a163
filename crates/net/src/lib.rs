//! # `co-net` — asynchronous fully-defective network substrate
//!
//! This crate implements the communication model of *Content-Oblivious Leader
//! Election on Rings* (Frei, Gelles, Ghazy, Nolin; DISC 2024):
//!
//! * an **asynchronous** message-passing network — per-channel FIFO delivery
//!   with unbounded-but-finite adversarial delays, modelled as a
//!   discrete-event [`Simulation`] whose delivery order is chosen by a
//!   pluggable adversarial [`Scheduler`];
//! * **fully defective channels** — the content of every message is erased by
//!   noise, leaving only a [`Pulse`]; content-obliviousness is enforced *by
//!   type*: a protocol over `M = Pulse` cannot read content because none
//!   exists;
//! * **ring topologies** — oriented and non-oriented rings including the
//!   degenerate cases `n = 1` (self-loop) and `n = 2` (double edge), built by
//!   [`RingSpec`].
//!
//! The simulator is generic over the message type `M` so the same machinery
//! runs both content-oblivious algorithms (`M = Pulse`) and the classical
//! content-carrying baselines used for comparison (`M =` payload enums).
//!
//! ## Quick example
//!
//! ```rust
//! use co_net::{Budget, Context, Outcome, Port, Protocol, Pulse, RingSpec, Simulation};
//! use co_net::sched::FifoScheduler;
//!
//! /// A node that emits one pulse clockwise and relays the first pulse it sees.
//! #[derive(Debug)]
//! struct OneShotRelay {
//!     relayed: bool,
//! }
//!
//! impl Protocol<Pulse> for OneShotRelay {
//!     type Output = bool;
//!     fn on_start(&mut self, ctx: &mut Context<'_, Pulse>) {
//!         ctx.send(Port::One, Pulse);
//!     }
//!     fn on_message(&mut self, _port: Port, _msg: Pulse, ctx: &mut Context<'_, Pulse>) {
//!         if !self.relayed {
//!             self.relayed = true;
//!             ctx.send(Port::One, Pulse);
//!         }
//!     }
//!     fn output(&self) -> Option<bool> {
//!         Some(self.relayed)
//!     }
//! }
//!
//! let spec = RingSpec::oriented(vec![1, 2, 3]);
//! let nodes = (0..spec.len()).map(|_| OneShotRelay { relayed: false }).collect();
//! let mut sim = Simulation::new(spec.wiring(), nodes, Box::new(FifoScheduler::new()));
//! let report = sim.run(Budget::default());
//! assert_eq!(report.outcome, Outcome::Quiescent);
//! assert_eq!(report.total_sent, 6); // 3 initial pulses + 3 relays
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod clock;
pub mod dedup;
pub mod engine;
pub mod explore;
pub mod faults;
pub mod fleet;
pub mod graph;
pub mod message;
pub mod multiport;
pub mod port;
pub mod prof;
pub mod sched;
pub mod shrink;
pub mod sim;
pub mod snapshot;
pub mod topology;
pub mod trace;

pub use clock::{LatencyModel, LatencyPlan, VirtualClock};
pub use dedup::{
    DedupBytes, DedupKind, FingerprintStore, MmapStore, ParseDedupError, ShardedIndex,
};
pub use engine::{
    CoreSnapshot, EngineError, EngineStep, EventCore, EventHandler, FaultKind, QueueBackend,
    QueueStore, RunMetrics, Topology,
};
pub use faults::{FaultPlan, FaultStats};
pub use fleet::{FleetConfig, FleetReport, FleetRingDetail, PulseHistogram, RingPlan, RingSizes};
pub use message::{Message, Pulse, UnitMessage};
pub use multiport::{GraphContext, GraphProtocol, GraphSim, GraphWiring};
pub use port::{Direction, Port};
pub use sched::{ChannelView, Scheduler, SchedulerKind};
pub use shrink::shrink_schedule;
pub use sim::{
    Budget, Context, Outcome, Protocol, RunReport, SimObserver, SimSnapshot, SimStats, Simulation,
    StepInfo,
};
pub use snapshot::{Fingerprint, Schedule, Snapshot};
pub use topology::{ChannelId, NodeIndex, RingSpec, Wiring};
pub use trace::{Trace, TraceEvent};
