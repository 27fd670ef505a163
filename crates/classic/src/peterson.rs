//! Peterson (1982): unidirectional `O(n log n)` leader election.
//!
//! Nodes are *active* or *relays*. In each phase every active node sends its
//! temporary ID clockwise and then relays the first ID it receives; after
//! seeing the temporary IDs of its two nearest active counterclockwise
//! predecessors (`t1`, then `t2`), it stays active for the next phase iff
//! `t1 > max(tid, t2)`, adopting `tid = t1`. Each phase at least halves the
//! number of active nodes. When a temporary ID survives a full circle and
//! returns to the node currently holding it, that node is the unique
//! remaining active and declares itself leader.

use co_core::Role;
use co_net::{Context, Fingerprint, Port, Protocol, Snapshot};

/// Messages of Peterson's algorithm.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PetersonMsg {
    /// A temporary ID travelling clockwise.
    Token(u64),
    /// Termination notification.
    Elected(u64),
}

/// A node running Peterson's algorithm on an oriented ring.
#[derive(Clone, Debug)]
pub struct PetersonNode {
    id: u64,
    cw_port: Port,
    tid: u64,
    active: bool,
    /// The first token of the current phase, if already received.
    first_token: Option<u64>,
    role: Option<Role>,
    terminated: bool,
}

impl PetersonNode {
    /// Creates a node with the given (positive) ID and clockwise port.
    ///
    /// # Panics
    ///
    /// Panics if `id == 0`.
    #[must_use]
    pub fn new(id: u64, cw_port: Port) -> PetersonNode {
        assert!(id > 0, "IDs must be positive integers");
        PetersonNode {
            id,
            cw_port,
            tid: id,
            active: true,
            first_token: None,
            role: None,
            terminated: false,
        }
    }

    /// Whether the node is still an active contender.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.active
    }
}

impl Protocol<PetersonMsg> for PetersonNode {
    type Output = Role;

    fn on_start(&mut self, ctx: &mut Context<'_, PetersonMsg>) {
        ctx.send(self.cw_port, PetersonMsg::Token(self.tid));
    }

    fn on_message(&mut self, _port: Port, msg: PetersonMsg, ctx: &mut Context<'_, PetersonMsg>) {
        match msg {
            PetersonMsg::Token(t) => {
                if !self.active {
                    ctx.send(self.cw_port, PetersonMsg::Token(t));
                    return;
                }
                if self.first_token.is_none() {
                    // First token of the phase: t1.
                    if t == self.tid {
                        // Our temporary ID survived a full circle: sole
                        // active node left.
                        self.role = Some(Role::Leader);
                        ctx.send(self.cw_port, PetersonMsg::Elected(self.id));
                        return;
                    }
                    self.first_token = Some(t);
                    ctx.send(self.cw_port, PetersonMsg::Token(t));
                } else {
                    // Second token of the phase: t2.
                    let t1 = self.first_token.take().expect("just checked");
                    let t2 = t;
                    if t1 > self.tid && t1 > t2 {
                        // Stay active, champion the predecessor's ID.
                        self.tid = t1;
                        ctx.send(self.cw_port, PetersonMsg::Token(self.tid));
                    } else {
                        self.active = false;
                    }
                }
            }
            PetersonMsg::Elected(j) => {
                if j == self.id {
                    self.terminated = true;
                } else {
                    self.role = Some(Role::NonLeader);
                    ctx.send(self.cw_port, PetersonMsg::Elected(j));
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

impl Snapshot for PetersonNode {
    type State = PetersonNode;

    fn extract(&self) -> PetersonNode {
        self.clone()
    }

    fn restore(&mut self, state: &PetersonNode) {
        *self = state.clone();
    }

    fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::new();
        fp.write_u64(self.id);
        fp.write_usize(self.cw_port.index());
        fp.write_u64(self.tid);
        fp.write_bool(self.active);
        fp.write_u64(self.first_token.map_or(0, |t| t + 1));
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
    use crate::registry::PetersonDef;
    use co_core::registry::RingProtocol;
    use co_net::{Budget, Outcome, RingSpec, SchedulerKind, Simulation};

    fn run(
        spec: &RingSpec,
        kind: SchedulerKind,
        seed: u64,
    ) -> Simulation<PetersonMsg, PetersonNode> {
        let nodes = PetersonDef::nodes(spec);
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
    fn elects_unique_leader_under_all_schedulers() {
        // NOTE: Peterson elects the node that ends up holding the maximal
        // temporary ID — not necessarily the max-ID node itself; we assert
        // exactly one leader and agreement.
        let spec = RingSpec::oriented(vec![4, 9, 1, 6, 2, 8, 3]);
        for kind in SchedulerKind::ALL {
            let sim = run(&spec, kind, 5);
            let leaders: Vec<usize> = (0..7)
                .filter(|&i| sim.node(i).output() == Some(Role::Leader))
                .collect();
            assert_eq!(leaders.len(), 1, "{kind}: leaders {leaders:?}");
            for i in 0..7 {
                assert!(sim.node(i).output().is_some(), "{kind} node {i} undecided");
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
        let sim = run(&spec, SchedulerKind::Lifo, 2);
        let leaders = (0..2)
            .filter(|&i| sim.node(i).output() == Some(Role::Leader))
            .count();
        assert_eq!(leaders, 1);
    }

    #[test]
    fn message_complexity_beats_quadratic() {
        let n = 64u64;
        let spec = RingSpec::oriented((1..=n).rev().collect());
        let sim = run(&spec, SchedulerKind::Fifo, 0);
        let sent = sim.stats().total_sent;
        // Peterson's bound: 2n log n + O(n) tokens + n elected.
        let bound = (2.2 * n as f64 * 64f64.log2() + 3.0 * n as f64) as u64;
        assert!(sent <= bound, "{sent} > {bound}");
    }
}
