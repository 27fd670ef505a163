//! General-graph substrate: asynchronous defective networks beyond rings.
//!
//! The paper's concluding open problem asks for content-oblivious leader
//! election in arbitrary 2-edge-connected networks. This module provides
//! the simulation substrate for that line of work: nodes of arbitrary
//! degree ([`GraphProtocol`], ports are `usize`), wired from a
//! [`MultiGraph`].
//!
//! [`GraphSim`] is a thin facade over the same generic
//! [`EventCore`] that powers the ring
//! [`Simulation`](crate::Simulation): the only difference is the
//! [`Topology`] (a compiled [`GraphWiring`] instead
//! of the two-port ring table). Scheduler adversaries, channel faults,
//! metrics, budgets, and the full [`SimStats`] accounting therefore behave
//! identically on rings and general graphs — the engine-equivalence test in
//! `crates/net/tests` locks that in.
//!
//! `co-core::general` builds a first content-oblivious algorithm on top
//! (the flood-echo wave).

use crate::engine::{EngineStep, EventCore, EventHandler, RunMetrics, Topology};
use crate::faults::{FaultPlan, FaultStats};
use crate::graph::MultiGraph;
use crate::message::Message;
use crate::sched::Scheduler;
use crate::sim::{Budget, RunReport, SimStats};
use std::fmt;
use std::marker::PhantomData;

/// An event-driven node of arbitrary degree.
///
/// The general-graph analogue of [`Protocol`](crate::Protocol): ports are
/// dense indices `0..degree`, assigned per node in edge-insertion order of
/// the underlying [`MultiGraph`].
pub trait GraphProtocol<M: Message> {
    /// The node's decision, if any.
    type Output: Clone + fmt::Debug;

    /// Called once at start-up.
    fn on_start(&mut self, ctx: &mut GraphContext<'_, M>);

    /// Called when a message is delivered to `port`.
    fn on_message(&mut self, port: usize, msg: M, ctx: &mut GraphContext<'_, M>);

    /// Whether the node has terminated (then it ignores all messages).
    fn is_terminated(&self) -> bool {
        false
    }

    /// The node's current output.
    fn output(&self) -> Option<Self::Output>;
}

/// Send capability for [`GraphProtocol`] events.
#[derive(Debug)]
pub struct GraphContext<'a, M: Message> {
    node: usize,
    degree: usize,
    outbox: &'a mut Vec<(usize, M)>,
}

impl<M: Message> GraphContext<'_, M> {
    /// Sends `msg` out of `port`.
    ///
    /// # Panics
    ///
    /// Panics if `port >= degree`.
    pub fn send(&mut self, port: usize, msg: M) {
        assert!(port < self.degree, "port {port} out of range");
        self.outbox.push((port, msg));
    }

    /// This node's index.
    #[must_use]
    pub fn node(&self) -> usize {
        self.node
    }

    /// This node's degree (number of ports).
    #[must_use]
    pub fn degree(&self) -> usize {
        self.degree
    }
}

/// Compiled channel table of a general graph.
#[derive(Clone, Debug)]
pub struct GraphWiring {
    n: usize,
    /// `port_base[v]` = first flat channel index of node `v`'s out-ports;
    /// `port_base[n]` = total channel count.
    port_base: Vec<usize>,
    /// `endpoints[flat]` = destination `(node, port)`.
    endpoints: Vec<(usize, usize)>,
}

impl GraphWiring {
    /// Compiles a multigraph into a channel table. Each undirected edge
    /// becomes one port at each endpoint (two consecutive ports for a
    /// self-loop) and two directed FIFO channels.
    ///
    /// # Panics
    ///
    /// Panics if the graph has no vertices.
    #[must_use]
    pub fn from_graph(graph: &MultiGraph) -> GraphWiring {
        let n = graph.vertex_count();
        assert!(n > 0, "network must have at least one node");
        // Assign ports in edge-insertion order.
        let mut ports: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n]; // (peer, peer_port)
        for e in 0..graph.edge_count() {
            let (u, v) = graph.edge(e);
            let pu = ports[u].len();
            let pv = if u == v { pu + 1 } else { ports[v].len() };
            ports[u].push((v, pv));
            if u == v {
                ports[u].push((u, pu));
            } else {
                ports[v].push((u, pu));
            }
        }
        let mut port_base = Vec::with_capacity(n + 1);
        let mut acc = 0;
        for p in &ports {
            port_base.push(acc);
            acc += p.len();
        }
        port_base.push(acc);
        let mut endpoints = vec![(0usize, 0usize); acc];
        for (v, plist) in ports.iter().enumerate() {
            for (p, &(peer, peer_port)) in plist.iter().enumerate() {
                endpoints[port_base[v] + p] = (peer, peer_port);
            }
        }
        GraphWiring {
            n,
            port_base,
            endpoints,
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the network is empty (never true for a valid wiring).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Degree of a node.
    #[must_use]
    pub fn degree(&self, node: usize) -> usize {
        self.port_base[node + 1] - self.port_base[node]
    }

    /// Total directed channels.
    #[must_use]
    pub fn channel_count(&self) -> usize {
        *self.port_base.last().expect("non-empty")
    }

    fn flat(&self, node: usize, port: usize) -> usize {
        debug_assert!(port < self.degree(node));
        self.port_base[node] + port
    }

    /// Destination `(node, port)` of the channel leaving `(node, port)`.
    #[must_use]
    pub fn endpoint(&self, node: usize, port: usize) -> (usize, usize) {
        self.endpoints[self.flat(node, port)]
    }
}

/// The multigraph channel table as seen by the generic event core: node
/// `v`'s ports occupy the flat channel range `port_base[v]..port_base[v+1]`
/// and every channel stores its destination directly.
impl Topology for GraphWiring {
    fn len(&self) -> usize {
        self.n
    }

    fn channel_count(&self) -> usize {
        GraphWiring::channel_count(self)
    }

    fn degree(&self, node: usize) -> usize {
        GraphWiring::degree(self, node)
    }

    fn out_channel(&self, node: usize, port: usize) -> usize {
        self.flat(node, port)
    }

    fn endpoint(&self, channel: usize) -> (usize, usize) {
        self.endpoints[channel]
    }
}

/// How a general-graph run ended (same semantics as
/// [`Outcome`](crate::Outcome)).
pub use crate::sim::Outcome as GraphOutcome;

/// Adapts a `&mut [P]` node slice to the engine's [`EventHandler`].
struct GraphHandler<'a, M: Message, P: GraphProtocol<M>> {
    nodes: &'a mut [P],
    _msg: PhantomData<M>,
}

impl<M: Message, P: GraphProtocol<M>> EventHandler<M> for GraphHandler<'_, M, P> {
    fn on_start(&mut self, node: usize, degree: usize, outbox: &mut Vec<(usize, M)>) {
        let mut ctx = GraphContext {
            node,
            degree,
            outbox,
        };
        self.nodes[node].on_start(&mut ctx);
    }

    fn on_message(
        &mut self,
        node: usize,
        degree: usize,
        port: usize,
        msg: M,
        outbox: &mut Vec<(usize, M)>,
    ) {
        let mut ctx = GraphContext {
            node,
            degree,
            outbox,
        };
        self.nodes[node].on_message(port, msg, &mut ctx);
    }

    fn is_terminated(&self, node: usize) -> bool {
        self.nodes[node].is_terminated()
    }
}

/// Discrete-event simulation over an arbitrary multigraph.
///
/// Shares every capability of the ring [`Simulation`](crate::Simulation) —
/// faults, run-summary metrics, budget/outcome classification, and
/// full [`SimStats`] — because both are facades over the same
/// [`EventCore`].
pub struct GraphSim<M: Message, P: GraphProtocol<M>> {
    core: EventCore<M, GraphWiring>,
    nodes: Vec<P>,
}

impl<M: Message, P: GraphProtocol<M>> GraphSim<M, P> {
    /// Creates a simulation with one protocol instance per node.
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len()` differs from the wiring's node count.
    #[must_use]
    pub fn new(
        wiring: GraphWiring,
        nodes: Vec<P>,
        scheduler: Box<dyn Scheduler>,
    ) -> GraphSim<M, P> {
        assert_eq!(nodes.len(), wiring.len(), "one protocol per node");
        GraphSim {
            core: EventCore::new(wiring, scheduler),
            nodes,
        }
    }

    fn handler(nodes: &mut [P]) -> GraphHandler<'_, M, P> {
        GraphHandler {
            nodes,
            _msg: PhantomData,
        }
    }

    /// Installs a plan of model-violating channel faults. Must be called
    /// before the run starts.
    pub fn set_faults(&mut self, faults: FaultPlan) {
        self.core.set_faults(faults);
    }

    /// Counters of faults actually applied so far.
    #[must_use]
    pub fn fault_stats(&self) -> FaultStats {
        self.core.fault_stats()
    }

    /// Injects a spurious message into the flat channel leaving
    /// `(node, port)`, as forbidden channel noise would.
    pub fn inject(&mut self, node: usize, port: usize, msg: M) {
        let channel = self.core.topology().flat(node, port);
        self.core.inject(channel, msg);
    }

    /// Enables the O(1) run-summary metrics ([`RunMetrics`]).
    pub fn enable_metrics(&mut self) {
        self.core.enable_metrics();
    }

    /// The run metrics so far, if enabled.
    #[must_use]
    pub fn metrics(&self) -> Option<RunMetrics> {
        self.core.metrics()
    }

    /// Runs every `on_start` (idempotent).
    pub fn start(&mut self) {
        let mut handler = Self::handler(&mut self.nodes);
        self.core.start(&mut handler);
    }

    /// Delivers one message; `None` when quiescent.
    pub fn step(&mut self) -> Option<EngineStep> {
        let mut handler = Self::handler(&mut self.nodes);
        self.core.step(&mut handler)
    }

    /// Runs to quiescence or budget exhaustion.
    pub fn run(&mut self, budget: Budget) -> RunReport {
        let mut handler = Self::handler(&mut self.nodes);
        self.core.run(&mut handler, budget)
    }

    /// Number of messages currently in transit.
    #[must_use]
    pub fn in_flight(&self) -> u64 {
        self.core.in_flight()
    }

    /// Whether no messages are in transit.
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        self.core.is_quiescent()
    }

    /// Whether the given node has terminated.
    #[must_use]
    pub fn is_terminated(&self, node: usize) -> bool {
        self.core.is_terminated(node)
    }

    /// A node's protocol instance.
    #[must_use]
    pub fn node(&self, node: usize) -> &P {
        &self.nodes[node]
    }

    /// All protocol instances, in node order.
    #[must_use]
    pub fn nodes(&self) -> &[P] {
        &self.nodes
    }

    /// All outputs, in node order.
    #[must_use]
    pub fn outputs(&self) -> Vec<Option<P::Output>> {
        self.nodes.iter().map(GraphProtocol::output).collect()
    }

    /// Aggregate counters.
    #[must_use]
    pub fn stats(&self) -> &SimStats {
        self.core.stats()
    }

    /// The compiled channel table.
    #[must_use]
    pub fn wiring(&self) -> &GraphWiring {
        self.core.topology()
    }
}

impl<M: Message, P: GraphProtocol<M> + fmt::Debug> fmt::Debug for GraphSim<M, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GraphSim")
            .field("n", &self.wiring().len())
            .field("in_flight", &self.in_flight())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::FifoScheduler;

    /// Relays the first pulse it sees to all other ports.
    #[derive(Debug)]
    struct FloodOnce {
        source: bool,
        reached: bool,
    }

    impl GraphProtocol<crate::Pulse> for FloodOnce {
        type Output = bool;
        fn on_start(&mut self, ctx: &mut GraphContext<'_, crate::Pulse>) {
            if self.source {
                self.reached = true;
                for p in 0..ctx.degree() {
                    ctx.send(p, crate::Pulse);
                }
            }
        }
        fn on_message(
            &mut self,
            port: usize,
            _m: crate::Pulse,
            ctx: &mut GraphContext<'_, crate::Pulse>,
        ) {
            if !self.reached {
                self.reached = true;
                for p in (0..ctx.degree()).filter(|&p| p != port) {
                    ctx.send(p, crate::Pulse);
                }
            }
        }
        fn output(&self) -> Option<bool> {
            Some(self.reached)
        }
    }

    fn flood(graph: &MultiGraph, source: usize) -> (RunReport, Vec<bool>) {
        let wiring = GraphWiring::from_graph(graph);
        let nodes = (0..graph.vertex_count())
            .map(|v| FloodOnce {
                source: v == source,
                reached: false,
            })
            .collect();
        let mut sim: GraphSim<crate::Pulse, FloodOnce> =
            GraphSim::new(wiring, nodes, Box::new(FifoScheduler::new()));
        let report = sim.run(Budget::steps(1_000_000));
        let reached = (0..graph.vertex_count())
            .map(|v| sim.node(v).reached)
            .collect();
        (report, reached)
    }

    #[test]
    fn flood_reaches_every_node_on_a_ring() {
        let g = MultiGraph::ring(6);
        let (report, reached) = flood(&g, 0);
        assert_eq!(report.outcome, GraphOutcome::Quiescent);
        assert!(reached.iter().all(|&r| r));
    }

    #[test]
    fn flood_reaches_every_node_on_a_theta_graph() {
        let mut g = MultiGraph::new(5);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(2, 1);
        g.add_edge(0, 3);
        g.add_edge(3, 4);
        g.add_edge(4, 1);
        let (report, reached) = flood(&g, 3);
        assert_eq!(report.outcome, GraphOutcome::Quiescent);
        assert!(reached.iter().all(|&r| r));
    }

    #[test]
    fn flood_stops_at_components() {
        let mut g = MultiGraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(2, 3);
        let (_, reached) = flood(&g, 0);
        assert_eq!(reached, vec![true, true, false, false]);
    }

    #[test]
    fn wiring_degrees_and_endpoints() {
        let mut g = MultiGraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(0, 0); // self-loop: two ports at node 0
        let w = GraphWiring::from_graph(&g);
        assert_eq!(w.degree(0), 3);
        assert_eq!(w.degree(1), 2);
        assert_eq!(w.degree(2), 1);
        assert_eq!(w.channel_count(), 6);
        // Self-loop ports point at each other.
        assert_eq!(w.endpoint(0, 1), (0, 2));
        assert_eq!(w.endpoint(0, 2), (0, 1));
        // Regular edge round-trips.
        let (v, p) = w.endpoint(1, 1);
        assert_eq!(w.endpoint(v, p), (1, 1));
    }

    #[test]
    fn self_loop_delivery_works() {
        let mut g = MultiGraph::new(1);
        g.add_edge(0, 0);
        let (report, reached) = flood(&g, 0);
        assert_eq!(report.outcome, GraphOutcome::Quiescent);
        assert!(reached[0]);
        assert_eq!(report.total_sent, 2);
    }

    #[test]
    fn graph_sim_has_engine_instrumentation() {
        let g = MultiGraph::ring(4);
        let wiring = GraphWiring::from_graph(&g);
        let nodes = (0..4)
            .map(|v| FloodOnce {
                source: v == 0,
                reached: false,
            })
            .collect();
        let mut sim: GraphSim<crate::Pulse, FloodOnce> =
            GraphSim::new(wiring, nodes, Box::new(FifoScheduler::new()));
        sim.enable_metrics();
        let report = sim.run(Budget::default());
        let stats = sim.stats();
        assert_eq!(stats.total_sent, report.total_sent);
        assert_eq!(
            stats.total_delivered + stats.delivered_to_terminated,
            report.steps
        );
        let metrics = sim.metrics().expect("metrics enabled");
        assert!(metrics.max_in_flight >= 1);
        assert!(metrics.peak_queue_bytes > 0);
        assert!(sim.is_quiescent());
    }

    /// Sends `p + 1` pulses out of each port `p` at start-up and ignores
    /// what it receives: every per-port count is fixed by the wiring.
    #[derive(Debug)]
    struct PortChatter;

    impl GraphProtocol<crate::Pulse> for PortChatter {
        type Output = ();
        fn on_start(&mut self, ctx: &mut GraphContext<'_, crate::Pulse>) {
            for p in 0..ctx.degree() {
                for _ in 0..=p {
                    ctx.send(p, crate::Pulse);
                }
            }
        }
        fn on_message(
            &mut self,
            _: usize,
            _: crate::Pulse,
            _: &mut GraphContext<'_, crate::Pulse>,
        ) {
        }
        fn output(&self) -> Option<()> {
            None
        }
    }

    #[test]
    fn per_port_counters_match_a_hand_count_on_mixed_degrees() {
        // Degrees 3, 2, 2, 1. Ports in edge order: node 0 reaches 1, 2, 3
        // on ports 0, 1, 2; node 1 reaches 0, 2; node 2 reaches 0, 1.
        let mut g = MultiGraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(0, 3);
        g.add_edge(1, 2);
        let wiring = GraphWiring::from_graph(&g);
        let mut sim: GraphSim<crate::Pulse, PortChatter> = GraphSim::new(
            wiring,
            (0..4).map(|_| PortChatter).collect(),
            Box::new(FifoScheduler::new()),
        );
        sim.run(Budget::default());
        let stats = sim.stats();
        // Slots in (node, port) order: n0 p0..p2, n1 p0..p1, n2 p0..p1, n3 p0.
        assert_eq!(stats.sent_by_port, [1, 2, 3, 1, 2, 1, 2, 1]);
        // (0,0)→(1,0): 1; (0,1)→(2,0): 2; (0,2)→(3,0): 3; (1,0)→(0,0): 1;
        // (1,1)→(2,1): 2; (2,0)→(0,1): 1; (2,1)→(1,1): 2; (3,0)→(0,2): 1.
        assert_eq!(stats.recv_by_port, [1, 1, 1, 1, 2, 2, 2, 3]);
        let sent: Vec<u64> = (0..4).map(|v| stats.sent_by_node(v)).collect();
        let recv: Vec<u64> = (0..4).map(|v| stats.recv_by_node(v)).collect();
        assert_eq!(sent, [6, 3, 3, 1]);
        assert_eq!(recv, [3, 3, 4, 3]);
        for v in 0..4 {
            for p in 0..sim.wiring().degree(v) {
                let slot = Topology::out_channel(sim.wiring(), v, p);
                assert_eq!(stats.sent_by_port[slot], p as u64 + 1, "node {v} port {p}");
            }
        }
        assert_eq!(stats.total_sent, 13);
        assert_eq!(stats.total_delivered, 13);
    }
}
