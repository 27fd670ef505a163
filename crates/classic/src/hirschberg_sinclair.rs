//! Hirschberg–Sinclair (1980): bidirectional probing, `O(n log n)` messages.
//!
//! A candidate in phase `k` probes `2^k` hops in both directions. Probes are
//! swallowed by any node with a larger ID; probes that survive their full
//! range are answered with a reply. A candidate that collects replies from
//! both directions enters the next phase; a probe that travels all the way
//! back to its originator proves the originator is the global maximum.

use co_core::Role;
use co_net::{Context, Fingerprint, Port, Protocol, Snapshot};

/// Messages of the Hirschberg–Sinclair algorithm.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum HsMsg {
    /// A probe travelling outward from a candidate.
    Probe {
        /// Originating candidate's ID.
        id: u64,
        /// Phase number (range is `2^phase`).
        phase: u32,
        /// Remaining hops.
        ttl: u64,
    },
    /// A reply travelling back toward the candidate.
    Reply {
        /// The candidate being answered.
        id: u64,
        /// Phase number.
        phase: u32,
    },
    /// Termination notification.
    Elected(u64),
}

/// A node running Hirschberg–Sinclair on an oriented ring.
#[derive(Clone, Debug)]
pub struct HirschbergSinclairNode {
    id: u64,
    phase: u32,
    awaiting_replies: u8,
    active: bool,
    role: Option<Role>,
    terminated: bool,
}

impl HirschbergSinclairNode {
    /// Creates a node with the given (positive) ID.
    ///
    /// The ring must be oriented, but HS does not otherwise care which port
    /// is clockwise — probes are symmetric.
    ///
    /// # Panics
    ///
    /// Panics if `id == 0`.
    #[must_use]
    pub fn new(id: u64) -> HirschbergSinclairNode {
        assert!(id > 0, "IDs must be positive integers");
        HirschbergSinclairNode {
            id,
            phase: 0,
            awaiting_replies: 2,
            active: true,
            role: None,
            terminated: false,
        }
    }

    /// The node's current phase.
    #[must_use]
    pub fn phase(&self) -> u32 {
        self.phase
    }

    fn become_leader(&mut self, ctx: &mut Context<'_, HsMsg>) {
        self.role = Some(Role::Leader);
        ctx.send(Port::One, HsMsg::Elected(self.id));
    }
}

impl Protocol<HsMsg> for HirschbergSinclairNode {
    type Output = Role;

    fn on_start(&mut self, ctx: &mut Context<'_, HsMsg>) {
        for port in Port::ALL {
            ctx.send(
                port,
                HsMsg::Probe {
                    id: self.id,
                    phase: 0,
                    ttl: 1,
                },
            );
        }
    }

    fn on_message(&mut self, port: Port, msg: HsMsg, ctx: &mut Context<'_, HsMsg>) {
        match msg {
            HsMsg::Probe { id, phase, ttl } => {
                if id == self.id {
                    // Our probe circumnavigated the ring: we are the
                    // maximum. Both directions' probes may return; announce
                    // only once.
                    if self.role.is_none() {
                        self.become_leader(ctx);
                    }
                } else if id > self.id {
                    self.active = false;
                    if ttl > 1 {
                        ctx.send(
                            port.opposite(),
                            HsMsg::Probe {
                                id,
                                phase,
                                ttl: ttl - 1,
                            },
                        );
                    } else {
                        // End of range: answer back toward the candidate.
                        ctx.send(port, HsMsg::Reply { id, phase });
                    }
                }
                // id < self.id: swallow — the candidate loses here.
            }
            HsMsg::Reply { id, phase } => {
                if id != self.id {
                    ctx.send(port.opposite(), HsMsg::Reply { id, phase });
                } else if self.active && phase == self.phase {
                    self.awaiting_replies -= 1;
                    if self.awaiting_replies == 0 {
                        self.phase += 1;
                        self.awaiting_replies = 2;
                        for out in Port::ALL {
                            ctx.send(
                                out,
                                HsMsg::Probe {
                                    id: self.id,
                                    phase: self.phase,
                                    ttl: 1 << self.phase,
                                },
                            );
                        }
                    }
                }
            }
            HsMsg::Elected(j) => {
                if j == self.id {
                    self.terminated = true;
                } else {
                    self.role = Some(Role::NonLeader);
                    ctx.send(port.opposite(), HsMsg::Elected(j));
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

impl Snapshot for HirschbergSinclairNode {
    type State = HirschbergSinclairNode;

    fn extract(&self) -> HirschbergSinclairNode {
        self.clone()
    }

    fn restore(&mut self, state: &HirschbergSinclairNode) {
        *self = state.clone();
    }

    fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::new();
        fp.write_u64(self.id);
        fp.write_u64(u64::from(self.phase));
        fp.write_u8(self.awaiting_replies);
        fp.write_bool(self.active);
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
    use crate::registry::HirschbergSinclairDef;
    use co_core::registry::RingProtocol;
    use co_net::{Budget, Outcome, RingSpec, SchedulerKind, Simulation};

    fn run(
        spec: &RingSpec,
        kind: SchedulerKind,
        seed: u64,
    ) -> (Simulation<HsMsg, HirschbergSinclairNode>, Outcome) {
        let nodes = HirschbergSinclairDef::nodes(spec);
        let mut sim = Simulation::new(spec.wiring(), nodes, kind.build(seed));
        let report = sim.run(Budget::default());
        (sim, report.outcome)
    }

    #[test]
    fn elects_max_under_all_schedulers() {
        let spec = RingSpec::oriented(vec![4, 9, 1, 6, 2, 8]);
        for kind in SchedulerKind::ALL {
            let (sim, outcome) = run(&spec, kind, 5);
            assert!(
                matches!(
                    outcome,
                    Outcome::QuiescentTerminated | Outcome::TerminatedNonQuiescent
                ),
                "{kind}: {outcome}"
            );
            assert_eq!(sim.node(1).output(), Some(Role::Leader), "{kind}");
            for i in [0usize, 2, 3, 4, 5] {
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
        let (sim, outcome) = run(&spec, SchedulerKind::Fifo, 0);
        assert_eq!(sim.node(0).output(), Some(Role::Leader));
        assert!(matches!(
            outcome,
            Outcome::QuiescentTerminated | Outcome::TerminatedNonQuiescent
        ));
    }

    #[test]
    fn two_nodes() {
        let spec = RingSpec::oriented(vec![3, 8]);
        let (sim, _) = run(&spec, SchedulerKind::Random, 1);
        assert_eq!(sim.node(0).output(), Some(Role::NonLeader));
        assert_eq!(sim.node(1).output(), Some(Role::Leader));
    }

    #[test]
    fn message_complexity_is_n_log_n_shaped() {
        // Worst case bound: 8n(1 + log n) + n. Check we are well under it
        // and well under Chang-Roberts' quadratic worst case for descending
        // rings (CR's pathological input).
        let n = 64u64;
        let spec = RingSpec::oriented((1..=n).rev().collect());
        let (sim, _) = run(&spec, SchedulerKind::Fifo, 0);
        let sent = sim.stats().total_sent;
        let log_n = 64f64.log2();
        let hs_bound = (8.0 * n as f64 * (1.0 + log_n) + n as f64) as u64;
        assert!(sent <= hs_bound, "{sent} > {hs_bound}");
        let cr_worst = n * (n + 1) / 2 + n;
        assert!(sent < cr_worst, "{sent} should beat CR's {cr_worst}");
    }
}
