//! Chang–Roberts (1979): unidirectional extrema-finding, `O(n²)` worst case.
//!
//! Every node sends its ID clockwise. A node forwards candidate IDs larger
//! than its own and swallows smaller ones; a node receiving its *own* ID
//! knows every other node yielded and becomes the leader, then circulates an
//! `Elected` notification on which all nodes terminate.

use co_core::Role;
use co_net::{Context, Fingerprint, Port, Protocol, Snapshot};

/// Messages of the Chang–Roberts algorithm.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CrMsg {
    /// A candidate ID still in the running.
    Candidate(u64),
    /// The election result, circulated once for termination.
    Elected(u64),
}

/// A node running Chang–Roberts on an oriented ring.
#[derive(Clone, Debug)]
pub struct ChangRobertsNode {
    id: u64,
    cw_port: Port,
    role: Option<Role>,
    leader_id: Option<u64>,
    terminated: bool,
}

impl ChangRobertsNode {
    /// Creates a node with the given (positive) ID and clockwise port.
    ///
    /// # Panics
    ///
    /// Panics if `id == 0`.
    #[must_use]
    pub fn new(id: u64, cw_port: Port) -> ChangRobertsNode {
        assert!(id > 0, "IDs must be positive integers");
        ChangRobertsNode {
            id,
            cw_port,
            role: None,
            leader_id: None,
            terminated: false,
        }
    }

    /// The ID of the elected leader, once known.
    #[must_use]
    pub fn leader_id(&self) -> Option<u64> {
        self.leader_id
    }
}

impl Protocol<CrMsg> for ChangRobertsNode {
    type Output = Role;

    fn on_start(&mut self, ctx: &mut Context<'_, CrMsg>) {
        ctx.send(self.cw_port, CrMsg::Candidate(self.id));
    }

    fn on_message(&mut self, _port: Port, msg: CrMsg, ctx: &mut Context<'_, CrMsg>) {
        match msg {
            CrMsg::Candidate(j) if j > self.id => {
                ctx.send(self.cw_port, CrMsg::Candidate(j));
            }
            CrMsg::Candidate(j) if j == self.id => {
                // Our ID survived the whole ring: we are the maximum.
                self.role = Some(Role::Leader);
                self.leader_id = Some(self.id);
                ctx.send(self.cw_port, CrMsg::Elected(self.id));
            }
            CrMsg::Candidate(_) => {} // swallow smaller IDs
            CrMsg::Elected(j) if j == self.id => {
                // Our own notification returned: everyone knows.
                self.terminated = true;
            }
            CrMsg::Elected(j) => {
                self.role = Some(Role::NonLeader);
                self.leader_id = Some(j);
                ctx.send(self.cw_port, CrMsg::Elected(j));
                self.terminated = true;
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

impl Snapshot for ChangRobertsNode {
    type State = ChangRobertsNode;

    fn extract(&self) -> ChangRobertsNode {
        self.clone()
    }

    fn restore(&mut self, state: &ChangRobertsNode) {
        *self = state.clone();
    }

    fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::new();
        fp.write_u64(self.id);
        fp.write_usize(self.cw_port.index());
        fp.write_u8(match self.role {
            None => 0,
            Some(Role::Leader) => 1,
            Some(Role::NonLeader) => 2,
        });
        fp.write_u64(self.leader_id.map_or(0, |id| id + 1));
        fp.write_bool(self.terminated);
        fp.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ChangRobertsDef;
    use co_core::registry::RingProtocol;
    use co_net::{Budget, Outcome, RingSpec, SchedulerKind, Simulation};

    fn run(spec: &RingSpec, kind: SchedulerKind, seed: u64) -> Simulation<CrMsg, ChangRobertsNode> {
        let nodes = ChangRobertsDef::nodes(spec);
        let mut sim = Simulation::new(spec.wiring(), nodes, kind.build(seed));
        let report = sim.run(Budget::default());
        assert_eq!(report.outcome, Outcome::QuiescentTerminated, "{kind}");
        sim
    }

    #[test]
    fn elects_max_everywhere() {
        let spec = RingSpec::oriented(vec![4, 9, 1, 6]);
        for kind in SchedulerKind::ALL {
            let sim = run(&spec, kind, 3);
            assert_eq!(sim.node(1).output(), Some(Role::Leader), "{kind}");
            for i in [0usize, 2, 3] {
                assert_eq!(sim.node(i).output(), Some(Role::NonLeader), "{kind}");
                assert_eq!(sim.node(i).leader_id(), Some(9));
            }
        }
    }

    #[test]
    fn single_node() {
        let spec = RingSpec::oriented(vec![5]);
        let sim = run(&spec, SchedulerKind::Fifo, 0);
        assert_eq!(sim.node(0).output(), Some(Role::Leader));
        // Candidate circles once (1 msg) + Elected circles once (1 msg).
        assert_eq!(sim.stats().total_sent, 2);
    }

    #[test]
    fn worst_case_is_quadratic() {
        // IDs descending clockwise: candidate of the k-th node travels k
        // hops, total n(n+1)/2 candidate messages + n elected.
        let n = 16u64;
        let spec = RingSpec::oriented((1..=n).rev().collect());
        let sim = run(&spec, SchedulerKind::Fifo, 0);
        assert_eq!(sim.stats().total_sent, n * (n + 1) / 2 + n);
    }

    #[test]
    fn best_case_is_linear() {
        // IDs ascending clockwise: every candidate dies after one hop except
        // the maximum: n + (n - 1)... candidate hops = (n-1)*1 + n, + n elected.
        let n = 16u64;
        let spec = RingSpec::oriented((1..=n).collect());
        let sim = run(&spec, SchedulerKind::Fifo, 0);
        assert_eq!(sim.stats().total_sent, (n - 1) + n + n);
    }
}
