//! Execution traces for debugging and analysis.
//!
//! A [`Trace`] is an append-only log of network events. Traces are optional
//! (off by default) because the paper's algorithms exchange up to
//! `n · ID_max` pulses; when enabled, the trace can be capped to a maximum
//! length.
//!
//! [`TraceEvent`] is the unified event core's one event type: a `Trace`
//! stores exactly the events the core emits, for rings *and* general graphs
//! alike, and [`RunMetrics`](crate::RunMetrics) folds the same events into
//! its summary. Ports are the core's dense `usize` indices; on a ring they
//! coincide with [`Port::index`](crate::Port::index).

use crate::engine::FaultKind;
use crate::port::Direction;
use crate::topology::NodeIndex;

/// One observable network event, as the engine emits it.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A node executed its initialisation step.
    Start {
        /// The node.
        node: NodeIndex,
    },
    /// A node sent a message.
    Send {
        /// Sending node.
        node: NodeIndex,
        /// Out-port used (dense index, `0..degree`).
        port: usize,
        /// Global send sequence number of the message.
        seq: u64,
        /// Direction tag of the channel, if any.
        direction: Option<Direction>,
    },
    /// A message was delivered to (and processed by) a node.
    Deliver {
        /// Receiving node.
        node: NodeIndex,
        /// In-port the message arrived at (dense index).
        port: usize,
        /// Global send sequence number of the message.
        seq: u64,
        /// Direction tag of the channel, if any.
        direction: Option<Direction>,
        /// Virtual delivery time (always 0 without a latency plan).
        at: u64,
    },
    /// A message arrived at a node that had already terminated and was
    /// ignored (this voids quiescent termination).
    DeliverIgnored {
        /// Receiving (terminated) node.
        node: NodeIndex,
        /// In-port the message arrived at (dense index).
        port: usize,
        /// Global send sequence number of the message.
        seq: u64,
    },
    /// A node entered its terminating state.
    Terminate {
        /// The node.
        node: NodeIndex,
    },
    /// A model-violating channel fault was applied (experiment E11).
    Fault {
        /// What happened to the message.
        kind: FaultKind,
        /// Sequence number of the affected message.
        seq: u64,
    },
}

/// An append-only, optionally capped log of [`TraceEvent`]s.
///
/// ```rust
/// use co_net::{Trace, TraceEvent};
/// let mut trace = Trace::with_capacity(2);
/// trace.push(TraceEvent::Start { node: 0 });
/// trace.push(TraceEvent::Terminate { node: 0 });
/// trace.push(TraceEvent::Start { node: 1 }); // dropped: cap reached
/// assert_eq!(trace.len(), 2);
/// assert_eq!(trace.dropped(), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
    cap: Option<usize>,
    dropped: u64,
}

impl Trace {
    /// Creates an unbounded trace.
    #[must_use]
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Creates a trace that retains at most `cap` events (later events are
    /// counted but dropped).
    #[must_use]
    pub fn with_capacity(cap: usize) -> Trace {
        Trace {
            events: Vec::new(),
            cap: Some(cap),
            dropped: 0,
        }
    }

    /// Appends an event, honouring the cap.
    pub fn push(&mut self, event: TraceEvent) {
        match self.cap {
            Some(cap) if self.events.len() >= cap => self.dropped += 1,
            _ => self.events.push(event),
        }
    }

    /// The recorded events.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of retained events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events were retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events dropped due to the cap.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Sequence of delivery directions, in order — the encoding used by the
    /// paper's Definition 21 (solitude patterns): `Cw ↦ 0`, `Ccw ↦ 1`.
    #[must_use]
    pub fn delivery_directions(&self) -> Vec<Direction> {
        self.events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Deliver { direction, .. } => *direction,
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_trace_keeps_everything() {
        let mut t = Trace::new();
        for i in 0..100 {
            t.push(TraceEvent::Start { node: i });
        }
        assert_eq!(t.len(), 100);
        assert_eq!(t.dropped(), 0);
        assert!(!t.is_empty());
    }

    #[test]
    fn delivery_directions_filters_and_orders() {
        let mut t = Trace::new();
        t.push(TraceEvent::Start { node: 0 });
        t.push(TraceEvent::Deliver {
            node: 0,
            port: 0,
            seq: 0,
            direction: Some(Direction::Cw),
            at: 0,
        });
        t.push(TraceEvent::Send {
            node: 0,
            port: 1,
            seq: 1,
            direction: Some(Direction::Cw),
        });
        t.push(TraceEvent::Fault {
            kind: FaultKind::Duplicated,
            seq: 2,
        });
        t.push(TraceEvent::Deliver {
            node: 0,
            port: 1,
            seq: 1,
            direction: Some(Direction::Ccw),
            at: 0,
        });
        assert_eq!(t.delivery_directions(), vec![Direction::Cw, Direction::Ccw]);
    }
}
