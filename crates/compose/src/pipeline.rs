//! The Corollary 5 pipeline: Algorithm 2, then a content-oblivious
//! computation, composed exactly as the paper prescribes (§1.1).
//!
//! Composition in the content-oblivious setting is delicate: messages carry
//! no algorithm tag, so a pulse of the first algorithm must never be
//! processed by a node already running the second. [`ElectThenCompute`]
//! relies on the two properties Algorithm 2 provides:
//!
//! 1. **quiescent termination** — when a node terminates, no pulse is in
//!    flight toward it, and none will ever be sent to it by a node still in
//!    phase one;
//! 2. **the leader terminates last** — so when the leader (the only node
//!    that *initiates* phase-two traffic, as the root of the round-broadcast
//!    layer) sends its first phase-two pulse, every other node has already
//!    switched.
//!
//! Together these give perfect message-algorithm attribution with zero
//! overhead — no `r+1`-fold message duplication (cf. the paper's discussion
//! of relaxed quiescence).

use crate::apps::{AggregateApp, AggregateOutput, ReplicatedCounterApp, RingSizeApp};
use crate::broadcast::{RoundApp, RoundNode};
use co_core::registry::{Alg2Def, RingProtocol};
use co_core::runner::{self, RunOptions};
use co_core::{Alg2Node, Role};
use co_net::{Context, Outcome, Port, Protocol, Pulse, RingSpec};
use std::fmt;

/// A node that runs Algorithm 2 and, upon (quiescent) termination, switches
/// to the round-broadcast computation with the elected leader as root.
pub struct ElectThenCompute<A, F> {
    election: Alg2Node,
    cw_port: Port,
    make_app: Option<F>,
    compute: Option<RoundNode<A>>,
}

impl<A, F> ElectThenCompute<A, F>
where
    A: RoundApp,
    F: FnOnce(Role) -> A,
{
    /// Creates the composed node. `make_app` builds the phase-two
    /// application once the election decides this node's role.
    #[must_use]
    pub fn new(id: u64, cw_port: Port, make_app: F) -> ElectThenCompute<A, F> {
        ElectThenCompute {
            election: Alg2Node::new(id, cw_port),
            cw_port,
            make_app: Some(make_app),
            compute: None,
        }
    }

    /// The election phase's node (for inspection).
    #[must_use]
    pub fn election(&self) -> &Alg2Node {
        &self.election
    }

    /// The computation phase's node, once started.
    #[must_use]
    pub fn compute(&self) -> Option<&RoundNode<A>> {
        self.compute.as_ref()
    }

    /// The elected role, once phase one finished.
    #[must_use]
    pub fn role(&self) -> Option<Role> {
        self.election.is_terminated().then(|| self.election.role())
    }

    fn maybe_switch(&mut self, ctx: &mut Context<'_, Pulse>) {
        if self.compute.is_none() && self.election.is_terminated() {
            let role = self.election.role();
            let make_app = self.make_app.take().expect("switch happens once");
            let app = make_app(role);
            let mut compute = RoundNode::new(app, role == Role::Leader, self.cw_port);
            // The paper: "replacing the act of termination with the act of
            // switching to the second algorithm". The leader initiates.
            compute.on_start(ctx);
            self.compute = Some(compute);
        }
    }
}

impl<A, F> Protocol<Pulse> for ElectThenCompute<A, F>
where
    A: RoundApp,
    F: FnOnce(Role) -> A,
{
    type Output = A::Output;

    fn on_start(&mut self, ctx: &mut Context<'_, Pulse>) {
        self.election.on_start(ctx);
        self.maybe_switch(ctx);
    }

    fn on_message(&mut self, port: Port, msg: Pulse, ctx: &mut Context<'_, Pulse>) {
        match &mut self.compute {
            Some(compute) => compute.on_message(port, msg, ctx),
            None => {
                self.election.on_message(port, msg, ctx);
                self.maybe_switch(ctx);
            }
        }
    }

    fn is_terminated(&self) -> bool {
        self.compute.as_ref().is_some_and(RoundNode::is_terminated)
    }

    fn output(&self) -> Option<A::Output> {
        self.compute.as_ref().and_then(RoundNode::output)
    }
}

impl<A: RoundApp + fmt::Debug, F> fmt::Debug for ElectThenCompute<A, F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ElectThenCompute")
            .field("election", &self.election)
            .field("compute", &self.compute)
            .finish()
    }
}

/// Result of a full pipeline run.
#[derive(Clone, Debug)]
pub struct PipelineOutput<O> {
    /// Whether the whole composition ended in quiescent termination.
    pub quiescently_terminated: bool,
    /// Each node's application output (position order).
    pub outputs: Vec<Option<O>>,
    /// Position of the elected leader.
    pub leader: Option<usize>,
    /// Total pulses across both phases.
    pub total_messages: u64,
    /// Pulses spent by the election phase alone (Theorem 1's
    /// `n(2·ID_max + 1)`), for accounting; `None` if it exceeds a `u64`.
    pub election_messages: Option<u64>,
}

/// Runs the pipeline with an arbitrary application factory under `opts`'
/// scheduler, seed, latency plan, queue backend and budget.
///
/// `make_app(position, role)` builds each node's phase-two app once its
/// role is known.
#[must_use]
pub fn run_pipeline<A, F>(
    spec: &RingSpec,
    opts: &RunOptions,
    make_app: F,
) -> PipelineOutput<A::Output>
where
    A: RoundApp,
    F: Fn(usize, Role) -> A,
{
    let nodes: Vec<_> = (0..spec.len())
        .map(|i| {
            let make = &make_app;
            ElectThenCompute::new(spec.id(i), spec.cw_port(i), move |role| make(i, role))
        })
        .collect();
    let mut sim = runner::simulation(spec, nodes, opts);
    let report = sim.run(opts.budget);
    let leader = (0..spec.len()).find(|&i| sim.node(i).role() == Some(Role::Leader));
    let outputs = (0..spec.len()).map(|i| sim.node(i).output()).collect();
    let election_messages = Alg2Def::predicted(spec);
    PipelineOutput {
        quiescently_terminated: report.outcome == Outcome::QuiescentTerminated,
        outputs,
        leader,
        total_messages: report.total_sent,
        election_messages,
    }
}

/// Corollary 5 demo: elect, then every node learns the ring size.
#[must_use]
pub fn elect_then_ring_size(spec: &RingSpec, opts: &RunOptions) -> PipelineOutput<u64> {
    run_pipeline(spec, opts, |_, role| RingSizeApp::new(role == Role::Leader))
}

/// Corollary 5 demo: elect, then aggregate per-node inputs (max, sum,
/// count) and label every node with its distance from the leader.
#[must_use]
pub fn elect_then_aggregate(
    spec: &RingSpec,
    inputs: &[u64],
    opts: &RunOptions,
) -> PipelineOutput<AggregateOutput> {
    assert_eq!(inputs.len(), spec.len(), "one input per node");
    let inputs = inputs.to_vec();
    run_pipeline(spec, opts, move |i, role| {
        AggregateApp::new(inputs[i], role == Role::Leader)
    })
}

/// Corollary 5 demo: elect, then replicate a counter state machine driven
/// by the leader's script.
#[must_use]
pub fn elect_then_replicate(
    spec: &RingSpec,
    script: &[i64],
    opts: &RunOptions,
) -> PipelineOutput<i64> {
    let script = script.to_vec();
    run_pipeline(spec, opts, move |_, role| {
        if role == Role::Leader {
            ReplicatedCounterApp::root(script.clone())
        } else {
            ReplicatedCounterApp::replica()
        }
    })
}

/// Corollary 5 demo: elect, then the leader broadcasts an arbitrary byte
/// string that every node reassembles — messaging over channels that erase
/// all messages.
#[must_use]
pub fn elect_then_broadcast_bytes(
    spec: &RingSpec,
    message: &[u8],
    opts: &RunOptions,
) -> PipelineOutput<Vec<u8>> {
    let message = message.to_vec();
    run_pipeline(spec, opts, move |_, role| {
        if role == Role::Leader {
            crate::apps::BytesApp::root(message.clone())
        } else {
            crate::apps::BytesApp::replica()
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use co_net::SchedulerKind;

    #[test]
    fn ring_size_after_election_all_schedulers() {
        let spec = RingSpec::oriented(vec![4, 9, 2, 7, 5]);
        for kind in SchedulerKind::ALL {
            let out = elect_then_ring_size(&spec, &RunOptions::new(kind, 3));
            assert!(out.quiescently_terminated, "{kind}");
            assert_eq!(out.leader, Some(1), "{kind}");
            assert_eq!(out.outputs, vec![Some(5); 5], "{kind}");
            assert!(Some(out.total_messages) > out.election_messages, "{kind}");
        }
    }

    #[test]
    fn aggregate_after_election() {
        let spec = RingSpec::oriented(vec![3, 11, 6, 2]);
        let inputs = [10u64, 20, 30, 40];
        let out = elect_then_aggregate(&spec, &inputs, &RunOptions::new(SchedulerKind::Random, 9));
        assert!(out.quiescently_terminated);
        assert_eq!(out.leader, Some(1));
        for (i, o) in out.outputs.iter().enumerate() {
            let o = o.expect("decided");
            assert_eq!(o.max, 40, "node {i}");
            assert_eq!(o.sum, 100, "node {i}");
            assert_eq!(o.count, 4, "node {i}");
        }
        // Distances measured CCW from the leader at position 1.
        let dist: Vec<u64> = out.outputs.iter().map(|o| o.unwrap().distance).collect();
        assert_eq!(dist, vec![1, 0, 3, 2]);
    }

    #[test]
    fn replicated_counter_after_election() {
        let spec = RingSpec::oriented(vec![8, 1, 5]);
        let out = elect_then_replicate(
            &spec,
            &[100, -42, 7],
            &RunOptions::new(SchedulerKind::Lifo, 1),
        );
        assert!(out.quiescently_terminated);
        assert_eq!(out.leader, Some(0));
        assert_eq!(out.outputs, vec![Some(65); 3]);
    }

    #[test]
    fn bytes_after_election() {
        let spec = RingSpec::oriented(vec![6, 2, 9, 4]);
        let msg = b"hello, defective world".to_vec();
        let out =
            elect_then_broadcast_bytes(&spec, &msg, &RunOptions::new(SchedulerKind::Random, 4));
        assert!(out.quiescently_terminated);
        assert_eq!(out.outputs, vec![Some(msg); 4]);
    }

    #[test]
    fn single_node_pipeline() {
        let spec = RingSpec::oriented(vec![6]);
        let out = elect_then_ring_size(&spec, &RunOptions::new(SchedulerKind::Fifo, 0));
        assert!(out.quiescently_terminated);
        assert_eq!(out.outputs, vec![Some(1)]);
    }

    #[test]
    fn election_cost_matches_theorem1_within_pipeline() {
        let spec = RingSpec::oriented(vec![2, 5, 3]);
        let out = elect_then_ring_size(&spec, &RunOptions::new(SchedulerKind::Fifo, 0));
        // Phase 1 costs exactly n(2·ID_max + 1); phase 2's cost comes on
        // top: counting rounds + announcement + halt + grants.
        use crate::broadcast::{halt_cost, round_cost, GRANT_COST};
        let n = 3u64;
        let phase1 = n * (2 * 5 + 1);
        let phase2 = n * round_cost(n, 1)            // n counting rounds (payload 1)
            + round_cost(n, n + 1)                   // announcement (payload n+1)
            + halt_cost(n)
            + n * GRANT_COST; // n grants: root->..., plus the return grant
        assert_eq!(out.total_messages, phase1 + phase2);
    }
}
