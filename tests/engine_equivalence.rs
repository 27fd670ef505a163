//! Engine equivalence: the ring [`Simulation`] and the general-graph
//! [`GraphSim`] are facades over the same [`EventCore`], so the *same*
//! algorithm run on the *same* topology through either substrate must
//! produce the same outcome and the same message count — under every
//! scheduler adversary and a spread of seeds.
//!
//! The probe is the flood-echo wave (schedule-invariant: exactly one pulse
//! per directed edge), run on a cycle once as a two-port ring and once as a
//! [`MultiGraph`] ring.

use content_oblivious::core::general::{EchoNode, EchoState};
use content_oblivious::net::graph::MultiGraph;
use content_oblivious::net::multiport::{GraphSim, GraphWiring};
use content_oblivious::net::{
    Budget, Context, Outcome, Port, Protocol, Pulse, RingSpec, SchedulerKind, Simulation,
};

/// The flood-echo wave of `co_core::general::EchoNode`, restated for the
/// two-port ring [`Protocol`]. Same algorithm, different substrate API.
#[derive(Clone, Debug)]
struct RingEcho {
    is_root: bool,
    state: EchoState,
    parent: Option<Port>,
    received: [bool; 2],
    terminated: bool,
}

impl RingEcho {
    fn new(is_root: bool) -> RingEcho {
        RingEcho {
            is_root,
            state: EchoState::Idle,
            parent: None,
            received: [false; 2],
            terminated: false,
        }
    }

    fn pending_ports(&self) -> usize {
        [Port::Zero, Port::One]
            .into_iter()
            .filter(|&p| !self.received[p.index()] && Some(p) != self.parent)
            .count()
    }

    fn maybe_finish(&mut self, ctx: &mut Context<'_, Pulse>) {
        if self.state == EchoState::Waiting && self.pending_ports() == 0 {
            self.state = EchoState::Done;
            if let Some(parent) = self.parent {
                ctx.send(parent, Pulse);
            }
            self.terminated = true;
        }
    }
}

impl Protocol<Pulse> for RingEcho {
    type Output = EchoState;

    fn on_start(&mut self, ctx: &mut Context<'_, Pulse>) {
        if self.is_root {
            self.state = EchoState::Waiting;
            ctx.send(Port::Zero, Pulse);
            ctx.send(Port::One, Pulse);
        }
    }

    fn on_message(&mut self, port: Port, _msg: Pulse, ctx: &mut Context<'_, Pulse>) {
        self.received[port.index()] = true;
        if self.state == EchoState::Idle {
            self.state = EchoState::Waiting;
            self.parent = Some(port);
            ctx.send(port.opposite(), Pulse);
        }
        self.maybe_finish(ctx);
    }

    fn is_terminated(&self) -> bool {
        self.terminated
    }

    fn output(&self) -> Option<EchoState> {
        Some(self.state)
    }
}

fn run_ring(
    n: usize,
    root: usize,
    kind: SchedulerKind,
    seed: u64,
    budget: Budget,
) -> (Outcome, u64, u64) {
    let spec = RingSpec::oriented((1..=n as u64).collect());
    let nodes = (0..n).map(|i| RingEcho::new(i == root)).collect();
    let mut sim: Simulation<Pulse, RingEcho> =
        Simulation::new(spec.wiring(), nodes, kind.build(seed));
    sim.enable_metrics();
    let report = sim.run(budget);
    let metrics = sim.metrics().expect("metrics enabled");
    assert!(
        metrics.max_in_flight >= 1,
        "metrics track the in-flight peak"
    );
    if report.outcome == Outcome::QuiescentTerminated {
        for i in 0..n {
            assert_eq!(sim.node(i).state, EchoState::Done);
        }
    }
    (report.outcome, report.total_sent, report.steps)
}

fn run_graph(
    n: usize,
    root: usize,
    kind: SchedulerKind,
    seed: u64,
    budget: Budget,
) -> (Outcome, u64, u64) {
    let wiring = GraphWiring::from_graph(&MultiGraph::ring(n));
    let nodes = (0..n).map(|v| EchoNode::new(v == root)).collect();
    let mut sim: GraphSim<Pulse, EchoNode> = GraphSim::new(wiring, nodes, kind.build(seed));
    sim.enable_metrics();
    let report = sim.run(budget);
    let metrics = sim.metrics().expect("metrics enabled");
    assert!(
        metrics.max_in_flight >= 1,
        "metrics track the in-flight peak"
    );
    if report.outcome == Outcome::QuiescentTerminated {
        for v in 0..n {
            assert_eq!(sim.node(v).state(), EchoState::Done);
        }
    }
    (report.outcome, report.total_sent, report.steps)
}

/// Same cycle, both substrates, all 8 adversaries, a spread of seeds:
/// identical outcome, identical `total_sent`, identical step counts.
#[test]
fn ring_and_graph_engines_agree() {
    for n in [1usize, 2, 3, 4, 8, 13] {
        let root = n / 3;
        let m = MultiGraph::ring(n).edge_count() as u64;
        for kind in SchedulerKind::ALL {
            for seed in [0u64, 1, 7, 42, 0xC0FFEE] {
                let budget = Budget::steps(1_000_000);
                let ring = run_ring(n, root, kind, seed, budget);
                let graph = run_graph(n, root, kind, seed, budget);
                assert_eq!(ring, graph, "n={n} under {kind} seed {seed}");
                assert_eq!(ring.0, Outcome::QuiescentTerminated, "n={n} under {kind}");
                assert_eq!(ring.1, 2 * m, "2m pulses, n={n} under {kind}");
            }
        }
    }
}

/// Budget exhaustion classifies identically through both facades.
#[test]
fn budget_exhaustion_agrees() {
    for kind in SchedulerKind::ALL {
        let tiny = Budget::steps(3);
        let (ring_outcome, _, ring_steps) = run_ring(8, 0, kind, 5, tiny);
        let (graph_outcome, _, graph_steps) = run_graph(8, 0, kind, 5, tiny);
        assert_eq!(ring_outcome, Outcome::BudgetExhausted, "under {kind}");
        assert_eq!(graph_outcome, Outcome::BudgetExhausted, "under {kind}");
        assert_eq!(ring_steps, 3, "under {kind}");
        assert_eq!(graph_steps, 3, "under {kind}");
    }
}
