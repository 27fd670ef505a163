//! Algorithm 1 — quiescently stabilizing leader election (paper §3.1).
//!
//! Each node starts by sending one clockwise pulse and thereafter relays
//! every received pulse clockwise, except for the single time its received
//! count `ρ_cw` reaches its own ID: that pulse is absorbed and the node
//! (temporarily) marks itself `Leader`; any later pulse reverts it to
//! `NonLeader` and is relayed again.
//!
//! Guarantees (Lemmas 6–12, Corollary 13): in every execution the network
//! reaches quiescence with every node having sent and received exactly
//! `ID_max` pulses, and at that point exactly the maximum-ID node(s) hold
//! state `Leader`. The algorithm never *terminates* — nodes cannot tell
//! whether pulses are still in transit — which is precisely what
//! Algorithm 2 fixes.
//!
//! ```rust
//! use co_core::{Alg1Node, Role};
//! use co_net::{Budget, Outcome, Port, Pulse, RingSpec, SchedulerKind, Simulation};
//!
//! let spec = RingSpec::oriented(vec![3, 1, 2]);
//! let nodes: Vec<Alg1Node> = (0..spec.len())
//!     .map(|i| Alg1Node::new(spec.id(i), spec.cw_port(i)))
//!     .collect();
//! let mut sim = Simulation::new(spec.wiring(), nodes, SchedulerKind::Fifo.build(0));
//! let report = sim.run(Budget::default());
//!
//! assert_eq!(report.outcome, Outcome::Quiescent); // stabilizes, never terminates
//! assert_eq!(sim.node(0).role(), Role::Leader);   // ID 3 = ID_max wins
//! assert_eq!(report.total_sent, 3 * 3);           // every node sends ID_max pulses
//! ```

use crate::election::Role;
use crate::invariants::CwInstanceView;
use co_net::{Context, Fingerprint, Port, Protocol, Pulse, Snapshot};
use std::fmt;

/// A node running Algorithm 1 on an oriented ring.
///
/// The node must be told which of its ports leads to its clockwise
/// neighbour (`cw_port`) — that is what "oriented ring" means. Clockwise
/// pulses are *sent* from `cw_port` and *arrive* at the opposite port.
#[derive(Clone, Debug)]
pub struct Alg1Node {
    id: u64,
    cw_port: Port,
    rho_cw: u64,
    sigma_cw: u64,
    role: Role,
}

impl Alg1Node {
    /// Creates a node with the given (positive) ID and clockwise port.
    ///
    /// # Panics
    ///
    /// Panics if `id == 0`; the paper requires positive integer IDs.
    #[must_use]
    pub fn new(id: u64, cw_port: Port) -> Alg1Node {
        assert!(id > 0, "IDs must be positive integers");
        Alg1Node {
            id,
            cw_port,
            rho_cw: 0,
            sigma_cw: 0,
            role: Role::NonLeader,
        }
    }

    /// The node's ID.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Number of clockwise pulses received (the paper's `ρ_cw`).
    #[must_use]
    pub fn rho_cw(&self) -> u64 {
        self.rho_cw
    }

    /// Number of clockwise pulses sent (the paper's `σ_cw`).
    #[must_use]
    pub fn sigma_cw(&self) -> u64 {
        self.sigma_cw
    }

    /// The node's current (stabilizing) role.
    #[must_use]
    pub fn role(&self) -> Role {
        self.role
    }

    fn send_cw(&mut self, ctx: &mut Context<'_, Pulse>) {
        self.sigma_cw += 1;
        ctx.send(self.cw_port, Pulse);
    }
}

impl Protocol<Pulse> for Alg1Node {
    type Output = Role;

    fn on_start(&mut self, ctx: &mut Context<'_, Pulse>) {
        // Line 1: sendCW().
        self.send_cw(ctx);
    }

    fn on_message(&mut self, port: Port, _msg: Pulse, ctx: &mut Context<'_, Pulse>) {
        // Clockwise pulses arrive at the counterclockwise port. Algorithm 1
        // sends no counterclockwise pulses, so nothing can legitimately
        // arrive at the clockwise port.
        debug_assert_eq!(
            port,
            self.cw_port.opposite(),
            "Algorithm 1 received a pulse from an impossible direction"
        );
        // Lines 3-8: count the pulse; absorb it exactly when ρ_cw = ID.
        self.rho_cw += 1;
        if self.rho_cw == self.id {
            self.role = Role::Leader;
        } else {
            self.role = Role::NonLeader;
            self.send_cw(ctx);
        }
    }

    fn output(&self) -> Option<Role> {
        Some(self.role)
    }
}

impl CwInstanceView for Alg1Node {
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

impl Snapshot for Alg1Node {
    type State = Alg1Node;

    fn extract(&self) -> Alg1Node {
        self.clone()
    }

    fn restore(&mut self, state: &Alg1Node) {
        *self = state.clone();
    }

    fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::new();
        fp.write_u64(self.id);
        fp.write_usize(self.cw_port.index());
        fp.write_u64(self.rho_cw);
        fp.write_u64(self.sigma_cw);
        fp.write_bool(self.role == Role::Leader);
        fp.finish()
    }
}

impl fmt::Display for Alg1Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "alg1(id={}, ρ={}, σ={}, {})",
            self.id, self.rho_cw, self.sigma_cw, self.role
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use co_net::{Budget, Outcome, RingSpec, SchedulerKind, Simulation};

    fn run(spec: &RingSpec, kind: SchedulerKind, seed: u64) -> Simulation<Pulse, Alg1Node> {
        let nodes = (0..spec.len())
            .map(|i| Alg1Node::new(spec.id(i), spec.cw_port(i)))
            .collect();
        let mut sim = Simulation::new(spec.wiring(), nodes, kind.build(seed));
        let report = sim.run(Budget::default());
        assert_eq!(report.outcome, Outcome::Quiescent, "{kind} did not quiesce");
        sim
    }

    #[test]
    fn elects_max_id_on_small_ring() {
        let spec = RingSpec::oriented(vec![2, 5, 1, 4]);
        let sim = run(&spec, SchedulerKind::Fifo, 0);
        for i in 0..4 {
            let expected = if i == 1 {
                Role::Leader
            } else {
                Role::NonLeader
            };
            assert_eq!(sim.node(i).role(), expected, "node {i}");
        }
    }

    #[test]
    fn every_node_sends_and_receives_exactly_id_max() {
        // Corollary 13.
        let spec = RingSpec::oriented(vec![3, 7, 2, 6, 1]);
        let sim = run(&spec, SchedulerKind::Random, 123);
        for i in 0..spec.len() {
            assert_eq!(sim.node(i).rho_cw(), 7, "node {i} rho");
            assert_eq!(sim.node(i).sigma_cw(), 7, "node {i} sigma");
        }
        assert_eq!(sim.stats().total_sent, 5 * 7);
    }

    #[test]
    fn single_node_ring() {
        let spec = RingSpec::oriented(vec![4]);
        let sim = run(&spec, SchedulerKind::Fifo, 0);
        assert_eq!(sim.node(0).role(), Role::Leader);
        assert_eq!(sim.node(0).rho_cw(), 4);
        assert_eq!(sim.stats().total_sent, 4);
    }

    #[test]
    fn two_node_ring_all_schedulers() {
        let spec = RingSpec::oriented(vec![3, 8]);
        for kind in SchedulerKind::ALL {
            let sim = run(&spec, kind, 99);
            assert_eq!(sim.node(0).role(), Role::NonLeader, "{kind}");
            assert_eq!(sim.node(1).role(), Role::Leader, "{kind}");
            assert_eq!(sim.stats().total_sent, 2 * 8, "{kind}");
        }
    }

    #[test]
    fn non_unique_ids_elect_all_max_holders() {
        // Lemma 16: with duplicate IDs, all holders of ID_max end as Leader.
        let spec = RingSpec::oriented(vec![4, 2, 4, 1]);
        let sim = run(&spec, SchedulerKind::Fifo, 0);
        assert_eq!(sim.node(0).role(), Role::Leader);
        assert_eq!(sim.node(2).role(), Role::Leader);
        assert_eq!(sim.node(1).role(), Role::NonLeader);
        assert_eq!(sim.node(3).role(), Role::NonLeader);
        // Every node still converges to ID_max sent/received.
        for i in 0..4 {
            assert_eq!(sim.node(i).rho_cw(), 4);
            assert_eq!(sim.node(i).sigma_cw(), 4);
        }
    }

    #[test]
    fn leader_is_transient_for_non_max_nodes() {
        // Drive the simulation step by step and observe node 0 (ID 1) pass
        // through Leader before reverting.
        let spec = RingSpec::oriented(vec![1, 2]);
        let nodes = vec![Alg1Node::new(1, Port::One), Alg1Node::new(2, Port::One)];
        let mut sim: Simulation<Pulse, Alg1Node> =
            Simulation::new(spec.wiring(), nodes, SchedulerKind::Fifo.build(0));
        sim.start();
        let mut was_leader = false;
        while sim.step().is_some() {
            if sim.node(0).role() == Role::Leader {
                was_leader = true;
            }
        }
        assert!(was_leader, "ID 1 should hold Leader transiently");
        assert_eq!(sim.node(0).role(), Role::NonLeader);
        assert_eq!(sim.node(1).role(), Role::Leader);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_id() {
        let _ = Alg1Node::new(0, Port::One);
    }

    #[test]
    fn display_shows_state() {
        let node = Alg1Node::new(3, Port::One);
        assert_eq!(node.to_string(), "alg1(id=3, ρ=0, σ=0, Non-Leader)");
    }
}
