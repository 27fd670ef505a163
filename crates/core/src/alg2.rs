//! Algorithm 2 — quiescently *terminating* leader election (paper §3.2,
//! Theorem 1).
//!
//! Two instances of Algorithm 1 run in parallel: one over the clockwise
//! channel (started immediately) and one over the counterclockwise channel
//! (started at node `v` only once `ρ_cw[v] ≥ ID_v`, so the CCW instance
//! always lags behind the CW one). Because of this lag and the uniqueness of
//! IDs, the event `ρ_cw = ID_v = ρ_ccw` occurs **only** at the maximum-ID
//! node, after both instances have quiesced globally. That node — the
//! leader — then emits a single extra counterclockwise *termination pulse*.
//! Every node that sees `ρ_ccw > ρ_cw` for the first time forwards the pulse
//! and terminates; the pulse returns to the leader, which terminates last
//! without forwarding.
//!
//! Message complexity: exactly `n·ID_max` CW pulses + `n·ID_max` CCW
//! pulses + `n` termination pulses = `n(2·ID_max + 1)` (Theorem 1),
//! achieved with quiescent termination — no pulse is in flight toward any
//! terminated node.
//!
//! ## Event-driven translation
//!
//! The paper's pseudocode polls `recvCCW()` only while `ρ_cw ≥ ID_v`
//! (line 9 guards lines 10–13). In an event-driven node this gating becomes
//! an explicit *deferral queue*: CCW pulses delivered while the gate is
//! closed are buffered unprocessed — semantically identical to leaving them
//! in the channel — and drained as soon as the gate opens. The
//! `ρ_cw = ID = ρ_ccw` check (line 14) runs after every processed pulse,
//! which is equivalent to the pseudocode's per-iteration check because the
//! triggering state can only first arise immediately after processing a
//! pulse.
//!
//! ```rust
//! use co_core::registry::Alg2Def;
//! use co_core::runner::{self, RunOptions};
//! use co_core::Role;
//! use co_net::{RingSpec, SchedulerKind};
//!
//! let spec = RingSpec::oriented(vec![4, 9, 2]);
//! let report = runner::run::<Alg2Def>(&spec, &RunOptions::new(SchedulerKind::Lifo, 7));
//! assert!(report.quiescently_terminated());
//! assert_eq!(report.roles[1], Role::Leader);
//! assert_eq!(report.total_messages, 3 * (2 * 9 + 1));
//! ```

use crate::election::Role;
use crate::invariants::{CcwInstanceView, CwInstanceView};
use co_net::{Context, Fingerprint, Port, Protocol, Pulse, Snapshot};
use std::fmt;

/// Phase of an [`Alg2Node`], exposed for monitors and debugging.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Alg2Phase {
    /// Only the CW instance is running (`ρ_cw < ID`).
    CwOnly,
    /// Both instances run (`ρ_cw ≥ ID`; the CCW gate is open).
    BothInstances,
    /// This node initiated the termination pulse and awaits its return
    /// (leader only).
    AwaitingEcho,
    /// Terminated: the node ignores pulses and sends nothing.
    Terminated,
}

/// A node running Algorithm 2 on an oriented ring.
#[derive(Clone, Debug)]
pub struct Alg2Node {
    id: u64,
    cw_port: Port,
    rho_cw: u64,
    sigma_cw: u64,
    rho_ccw: u64,
    sigma_ccw: u64,
    role: Role,
    /// CCW pulses delivered while the gate (`ρ_cw ≥ ID`) was closed.
    deferred_ccw: u64,
    /// Set when this node sent the termination pulse (line 15).
    awaiting_echo: bool,
    terminated: bool,
}

impl Alg2Node {
    /// Creates a node with the given (positive) ID and clockwise port.
    ///
    /// # Panics
    ///
    /// Panics if `id == 0`; the paper requires positive integer IDs.
    #[must_use]
    pub fn new(id: u64, cw_port: Port) -> Alg2Node {
        assert!(id > 0, "IDs must be positive integers");
        Alg2Node {
            id,
            cw_port,
            rho_cw: 0,
            sigma_cw: 0,
            rho_ccw: 0,
            sigma_ccw: 0,
            role: Role::NonLeader,
            deferred_ccw: 0,
            awaiting_echo: false,
            terminated: false,
        }
    }

    /// The node's ID.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Clockwise pulses received (`ρ_cw`).
    #[must_use]
    pub fn rho_cw(&self) -> u64 {
        self.rho_cw
    }

    /// Clockwise pulses sent (`σ_cw`).
    #[must_use]
    pub fn sigma_cw(&self) -> u64 {
        self.sigma_cw
    }

    /// Counterclockwise pulses received and processed (`ρ_ccw`).
    ///
    /// Deferred pulses (delivered while the gate was closed) are *not*
    /// included — they match the paper's pulses still waiting in the
    /// incoming queue.
    #[must_use]
    pub fn rho_ccw(&self) -> u64 {
        self.rho_ccw
    }

    /// Counterclockwise pulses sent (`σ_ccw`).
    #[must_use]
    pub fn sigma_ccw(&self) -> u64 {
        self.sigma_ccw
    }

    /// CCW pulses currently deferred (delivered but not yet processed).
    #[must_use]
    pub fn deferred_ccw(&self) -> u64 {
        self.deferred_ccw
    }

    /// Whether this node has sent the termination pulse and awaits its
    /// return (line 15–17; true only at the leader).
    #[must_use]
    pub fn awaiting_echo(&self) -> bool {
        self.awaiting_echo
    }

    /// The node's current role.
    #[must_use]
    pub fn role(&self) -> Role {
        self.role
    }

    /// The node's phase.
    #[must_use]
    pub fn phase(&self) -> Alg2Phase {
        if self.terminated {
            Alg2Phase::Terminated
        } else if self.awaiting_echo {
            Alg2Phase::AwaitingEcho
        } else if self.rho_cw >= self.id {
            Alg2Phase::BothInstances
        } else {
            Alg2Phase::CwOnly
        }
    }

    fn send_cw(&mut self, ctx: &mut Context<'_, Pulse>) {
        self.sigma_cw += 1;
        ctx.send(self.cw_port, Pulse);
    }

    fn send_ccw(&mut self, ctx: &mut Context<'_, Pulse>) {
        self.sigma_ccw += 1;
        ctx.send(self.cw_port.opposite(), Pulse);
    }

    /// Whether the CCW gate is open (pseudocode line 9: `ρ_cw ≥ ID_v`).
    fn gate_open(&self) -> bool {
        self.rho_cw >= self.id
    }

    /// Pseudocode lines 9–10: on gate opening, inject the initial CCW pulse.
    fn maybe_start_ccw(&mut self, ctx: &mut Context<'_, Pulse>) {
        if self.gate_open() && self.sigma_ccw == 0 {
            self.send_ccw(ctx);
        }
    }

    /// Pseudocode line 14–17: the leader-only termination trigger.
    fn maybe_initiate_termination(&mut self, ctx: &mut Context<'_, Pulse>) {
        if !self.awaiting_echo && self.rho_cw == self.id && self.rho_ccw == self.id {
            self.send_ccw(ctx);
            self.awaiting_echo = true;
        }
    }

    /// Processes one CCW pulse (pseudocode lines 11–13 plus the `until`
    /// check of line 18).
    fn process_ccw(&mut self, ctx: &mut Context<'_, Pulse>) {
        self.rho_ccw += 1;
        if self.awaiting_echo {
            // Line 16–17: the termination pulse returned to the leader; it
            // terminates without forwarding.
            self.terminated = true;
            return;
        }
        if self.rho_ccw > self.rho_cw {
            // Line 18 fires: this is the termination pulse passing through a
            // non-leader. ρ_ccw > ρ_cw implies ρ_ccw > ID (the gate is
            // open), so line 12 forwarded it before the loop exited.
            self.send_ccw(ctx);
            self.terminated = true;
            return;
        }
        if self.rho_ccw != self.id {
            // Line 12–13: relay.
            self.send_ccw(ctx);
        }
        self.maybe_initiate_termination(ctx);
    }

    /// Drains deferred CCW pulses while the gate is open, checking the
    /// termination trigger after each one — equivalent to the pseudocode
    /// consuming one queued CCW pulse per loop iteration.
    fn drain_deferred(&mut self, ctx: &mut Context<'_, Pulse>) {
        while self.deferred_ccw > 0 && self.gate_open() && !self.terminated {
            self.deferred_ccw -= 1;
            self.process_ccw(ctx);
        }
    }
}

impl Protocol<Pulse> for Alg2Node {
    type Output = Role;

    fn on_start(&mut self, ctx: &mut Context<'_, Pulse>) {
        // Line 1: sendCW().
        self.send_cw(ctx);
        // An ID of 1 opens the gate only after receiving a pulse, so nothing
        // else happens at start; but keep the checks uniform.
        self.maybe_start_ccw(ctx);
        self.maybe_initiate_termination(ctx);
    }

    fn on_message(&mut self, port: Port, _msg: Pulse, ctx: &mut Context<'_, Pulse>) {
        if self.terminated {
            return; // Defensive; the simulator already drops these.
        }
        if port == self.cw_port.opposite() {
            // A clockwise pulse (lines 3–8).
            self.rho_cw += 1;
            if self.rho_cw == self.id {
                self.role = Role::Leader;
            } else {
                self.role = Role::NonLeader;
                self.send_cw(ctx);
            }
            // Lines 9–10: the gate may just have opened.
            self.maybe_start_ccw(ctx);
            self.drain_deferred(ctx);
            self.maybe_initiate_termination(ctx);
        } else {
            // A counterclockwise pulse (lines 11–13): processed only while
            // the gate is open, otherwise left pending (deferral queue).
            if self.gate_open() {
                self.process_ccw(ctx);
            } else {
                self.deferred_ccw += 1;
            }
        }
    }

    fn is_terminated(&self) -> bool {
        self.terminated
    }

    fn output(&self) -> Option<Role> {
        // Line 19: output is produced at termination.
        self.terminated.then_some(self.role)
    }
}

impl CwInstanceView for Alg2Node {
    fn cw_id(&self) -> u64 {
        self.id
    }
    fn cw_rho(&self) -> u64 {
        self.rho_cw
    }
    fn cw_sigma(&self) -> u64 {
        self.sigma_cw
    }
}

impl CcwInstanceView for Alg2Node {
    fn ccw_rho(&self) -> u64 {
        self.rho_ccw
    }
    fn ccw_sigma(&self) -> u64 {
        self.sigma_ccw
    }
    fn ccw_deferred(&self) -> u64 {
        self.deferred_ccw
    }
}

impl Snapshot for Alg2Node {
    type State = Alg2Node;

    fn extract(&self) -> Alg2Node {
        self.clone()
    }

    fn restore(&mut self, state: &Alg2Node) {
        *self = state.clone();
    }

    fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::new();
        fp.write_u64(self.id);
        fp.write_usize(self.cw_port.index());
        fp.write_u64(self.rho_cw);
        fp.write_u64(self.sigma_cw);
        fp.write_u64(self.rho_ccw);
        fp.write_u64(self.sigma_ccw);
        fp.write_u64(self.deferred_ccw);
        fp.write_bool(self.role == Role::Leader);
        fp.write_bool(self.awaiting_echo);
        fp.write_bool(self.terminated);
        fp.finish()
    }
}

impl fmt::Display for Alg2Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "alg2(id={}, ρcw={}, σcw={}, ρccw={}, σccw={}, {:?})",
            self.id,
            self.rho_cw,
            self.sigma_cw,
            self.rho_ccw,
            self.sigma_ccw,
            self.phase()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{Alg2Def, RingProtocol};
    use co_net::{Budget, Outcome, RingSpec, SchedulerKind, Simulation};

    fn run(spec: &RingSpec, kind: SchedulerKind, seed: u64) -> Simulation<Pulse, Alg2Node> {
        let nodes = Alg2Def::nodes(spec);
        let mut sim = Simulation::new(spec.wiring(), nodes, kind.build(seed));
        let report = sim.run(Budget::default());
        assert_eq!(
            report.outcome,
            Outcome::QuiescentTerminated,
            "{kind}: expected quiescent termination"
        );
        sim
    }

    fn assert_exact_complexity(spec: &RingSpec, sim: &Simulation<Pulse, Alg2Node>) {
        let n = spec.len() as u64;
        let id_max = spec.id_max();
        assert_eq!(sim.stats().total_sent, n * (2 * id_max + 1), "Theorem 1");
    }

    #[test]
    fn theorem1_on_small_ring() {
        let spec = RingSpec::oriented(vec![2, 5, 1, 4]);
        let sim = run(&spec, SchedulerKind::Fifo, 0);
        assert_eq!(sim.node(1).role(), Role::Leader);
        for i in [0usize, 2, 3] {
            assert_eq!(sim.node(i).role(), Role::NonLeader, "node {i}");
        }
        assert_exact_complexity(&spec, &sim);
    }

    #[test]
    fn all_schedulers_agree() {
        let spec = RingSpec::oriented(vec![6, 3, 9, 1, 7]);
        for kind in SchedulerKind::ALL {
            for seed in [0u64, 1, 2] {
                let sim = run(&spec, kind, seed);
                assert_eq!(sim.node(2).role(), Role::Leader, "{kind} seed {seed}");
                assert_exact_complexity(&spec, &sim);
            }
        }
    }

    #[test]
    fn single_node_ring_terminates() {
        let spec = RingSpec::oriented(vec![5]);
        let sim = run(&spec, SchedulerKind::Fifo, 0);
        assert_eq!(sim.node(0).role(), Role::Leader);
        // 2 * 5 + 1 = 11 pulses on the self-loop.
        assert_eq!(sim.stats().total_sent, 11);
    }

    #[test]
    fn two_node_ring_terminates() {
        let spec = RingSpec::oriented(vec![1, 2]);
        let sim = run(&spec, SchedulerKind::Lifo, 0);
        assert_eq!(sim.node(0).role(), Role::NonLeader);
        assert_eq!(sim.node(1).role(), Role::Leader);
        assert_eq!(sim.stats().total_sent, 2 * (2 * 2 + 1));
    }

    #[test]
    fn counters_converge_to_id_max() {
        let spec = RingSpec::oriented(vec![3, 8, 5]);
        let sim = run(&spec, SchedulerKind::Random, 77);
        for i in 0..3 {
            let node = sim.node(i);
            // CW instance: everyone at ID_max (Lemma 11). CCW instance: the
            // termination pulse adds one receive everywhere and one send at
            // every node (leader's initiation or non-leader's forward).
            assert_eq!(node.rho_cw(), 8, "node {i}");
            assert_eq!(node.sigma_cw(), 8, "node {i}");
            assert_eq!(node.rho_ccw(), 8 + 1, "node {i}");
            assert_eq!(node.sigma_ccw(), 8 + 1, "node {i}");
            assert_eq!(node.deferred_ccw(), 0, "node {i}");
            assert_eq!(node.phase(), Alg2Phase::Terminated);
        }
    }

    #[test]
    fn leader_terminates_last() {
        let spec = RingSpec::oriented(vec![4, 2, 7, 1]);
        let nodes = Alg2Def::nodes(&spec);
        let mut sim: Simulation<Pulse, Alg2Node> =
            Simulation::new(spec.wiring(), nodes, SchedulerKind::Random.build(5));
        let mut order = Vec::new();
        sim.start();
        while sim.step().is_some() {
            for i in 0..4 {
                if sim.is_terminated(i) && !order.contains(&i) {
                    order.push(i);
                }
            }
        }
        assert_eq!(order.len(), 4, "all nodes terminate");
        assert_eq!(*order.last().unwrap(), 2, "the leader (ID 7) is last");
    }

    #[test]
    fn output_only_after_termination() {
        let node = Alg2Node::new(3, Port::One);
        assert_eq!(node.output(), None);
        assert_eq!(node.phase(), Alg2Phase::CwOnly);
    }

    #[test]
    fn sparse_ids_complexity_tracks_id_max_not_n() {
        // Theorem 4's point: complexity grows with ID_max even for fixed n.
        let small = RingSpec::oriented(vec![1, 6]);
        let big = RingSpec::oriented(vec![1, 60]);
        let sim_small = run(&small, SchedulerKind::Fifo, 0);
        let sim_big = run(&big, SchedulerKind::Fifo, 0);
        assert_eq!(sim_small.stats().total_sent, 2 * 13);
        assert_eq!(sim_big.stats().total_sent, 2 * 121);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_id() {
        let _ = Alg2Node::new(0, Port::One);
    }
}
