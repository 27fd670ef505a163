//! Franklin (1982): bidirectional `O(n log n)` leader election.
//!
//! Every active node sends its ID in both directions. After receiving the
//! IDs of its nearest active neighbours on both sides it stays active iff
//! its own ID beats both; at least half of the active nodes are eliminated
//! per phase. A node receiving its *own* ID is the sole survivor and
//! declares itself leader. Relays forward everything.

use co_core::Role;
use co_net::{Context, Fingerprint, Port, Protocol, Snapshot};
use std::collections::VecDeque;

/// Messages of Franklin's algorithm.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FranklinMsg {
    /// An active node's ID travelling toward its active neighbours.
    Bid(u64),
    /// Termination notification.
    Elected(u64),
}

/// A node running Franklin's algorithm on an oriented ring.
#[derive(Clone, Debug)]
pub struct FranklinNode {
    id: u64,
    cw_port: Port,
    active: bool,
    /// Bids received from each port, not yet consumed (phase alignment is
    /// guaranteed by per-channel FIFO: the k-th bid from a side belongs to
    /// phase k).
    pending: [VecDeque<u64>; 2],
    role: Option<Role>,
    terminated: bool,
}

impl FranklinNode {
    /// Creates a node with the given (positive) ID and clockwise port.
    ///
    /// # Panics
    ///
    /// Panics if `id == 0`.
    #[must_use]
    pub fn new(id: u64, cw_port: Port) -> FranklinNode {
        assert!(id > 0, "IDs must be positive integers");
        FranklinNode {
            id,
            cw_port,
            active: true,
            pending: [VecDeque::new(), VecDeque::new()],
            role: None,
            terminated: false,
        }
    }

    fn send_bids(&self, ctx: &mut Context<'_, FranklinMsg>) {
        for port in Port::ALL {
            ctx.send(port, FranklinMsg::Bid(self.id));
        }
    }

    /// On demotion to relay, any bids buffered while active belong to peers
    /// farther away and must continue travelling.
    fn flush_pending(&mut self, ctx: &mut Context<'_, FranklinMsg>) {
        for port in Port::ALL {
            while let Some(bid) = self.pending[port.index()].pop_front() {
                ctx.send(port.opposite(), FranklinMsg::Bid(bid));
            }
        }
    }
}

impl Protocol<FranklinMsg> for FranklinNode {
    type Output = Role;

    fn on_start(&mut self, ctx: &mut Context<'_, FranklinMsg>) {
        self.send_bids(ctx);
    }

    fn on_message(&mut self, port: Port, msg: FranklinMsg, ctx: &mut Context<'_, FranklinMsg>) {
        match msg {
            FranklinMsg::Bid(bid) => {
                if !self.active {
                    ctx.send(port.opposite(), FranklinMsg::Bid(bid));
                    return;
                }
                if bid == self.id {
                    // Our bid travelled the whole ring: sole active node.
                    if self.role.is_none() {
                        self.role = Some(Role::Leader);
                        ctx.send(self.cw_port, FranklinMsg::Elected(self.id));
                    }
                    return;
                }
                self.pending[port.index()].push_back(bid);
                if !self.pending[0].is_empty() && !self.pending[1].is_empty() {
                    let a = self.pending[0].pop_front().expect("non-empty");
                    let b = self.pending[1].pop_front().expect("non-empty");
                    if self.id > a.max(b) {
                        // Survived the phase: bid again.
                        self.send_bids(ctx);
                    } else {
                        self.active = false;
                        self.flush_pending(ctx);
                    }
                }
            }
            FranklinMsg::Elected(j) => {
                if j == self.id {
                    self.terminated = true;
                } else {
                    self.role = Some(Role::NonLeader);
                    ctx.send(port.opposite(), FranklinMsg::Elected(j));
                    self.terminated = true;
                }
            }
        }
    }

    fn is_terminated(&self) -> bool {
        self.terminated
    }

    fn output(&self) -> Option<Role> {
        self.role
    }
}

impl Snapshot for FranklinNode {
    type State = FranklinNode;

    fn extract(&self) -> FranklinNode {
        self.clone()
    }

    fn restore(&mut self, state: &FranklinNode) {
        *self = state.clone();
    }

    fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::new();
        fp.write_u64(self.id);
        fp.write_usize(self.cw_port.index());
        fp.write_bool(self.active);
        for side in &self.pending {
            fp.write_usize(side.len());
            for &bid in side {
                fp.write_u64(bid);
            }
        }
        fp.write_u8(match self.role {
            None => 0,
            Some(Role::Leader) => 1,
            Some(Role::NonLeader) => 2,
        });
        fp.write_bool(self.terminated);
        fp.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::FranklinDef;
    use co_core::registry::RingProtocol;
    use co_net::{Budget, Outcome, RingSpec, SchedulerKind, Simulation};

    fn run(
        spec: &RingSpec,
        kind: SchedulerKind,
        seed: u64,
    ) -> Simulation<FranklinMsg, FranklinNode> {
        let nodes = FranklinDef::nodes(spec);
        let mut sim = Simulation::new(spec.wiring(), nodes, kind.build(seed));
        let report = sim.run(Budget::default());
        assert!(
            matches!(
                report.outcome,
                Outcome::QuiescentTerminated | Outcome::TerminatedNonQuiescent
            ),
            "{kind}: {}",
            report.outcome
        );
        sim
    }

    #[test]
    fn elects_max_under_all_schedulers() {
        let spec = RingSpec::oriented(vec![4, 9, 1, 6, 2, 8, 3, 5]);
        for kind in SchedulerKind::ALL {
            let sim = run(&spec, kind, 7);
            assert_eq!(sim.node(1).output(), Some(Role::Leader), "{kind}");
            for i in (0..8).filter(|&i| i != 1) {
                assert_eq!(
                    sim.node(i).output(),
                    Some(Role::NonLeader),
                    "{kind} node {i}"
                );
            }
        }
    }

    #[test]
    fn single_node() {
        let spec = RingSpec::oriented(vec![5]);
        let sim = run(&spec, SchedulerKind::Fifo, 0);
        assert_eq!(sim.node(0).output(), Some(Role::Leader));
    }

    #[test]
    fn two_nodes() {
        let spec = RingSpec::oriented(vec![3, 8]);
        let sim = run(&spec, SchedulerKind::Random, 4);
        assert_eq!(sim.node(0).output(), Some(Role::NonLeader));
        assert_eq!(sim.node(1).output(), Some(Role::Leader));
    }

    #[test]
    fn message_complexity_beats_quadratic() {
        let n = 64u64;
        let spec = RingSpec::oriented((1..=n).rev().collect());
        let sim = run(&spec, SchedulerKind::Fifo, 0);
        let sent = sim.stats().total_sent;
        // 2n bids per phase, ≤ log n + 1 phases, + n elected.
        let bound = (2.0 * n as f64 * (64f64.log2() + 1.0) + 2.0 * n as f64) as u64;
        assert!(sent <= bound, "{sent} > {bound}");
    }
}
