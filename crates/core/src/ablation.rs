//! Ablations: remove one design element of Algorithm 2 and watch it break.
//!
//! The paper motivates two load-bearing mechanisms in §3.2:
//!
//! 1. **receive gating** — a node consumes counterclockwise pulses only
//!    once `ρ_cw ≥ ID` (pseudocode line 9 guards `recvCCW`). Without it,
//!    the termination trigger `ρ_cw = ID = ρ_ccw` can fire at a *non*-max
//!    node, electing the wrong leader and destroying quiescent termination.
//! 2. **unique IDs** — "It is the uniqueness of all IDs, crucially
//!    including `ID_max`, that enables this approach": with a duplicated
//!    maximum, two nodes trigger termination.
//!
//! [`UngatedAlg2Node`] removes mechanism 1. The tests (and experiment E11)
//! exhibit concrete schedules under which it misbehaves, demonstrating the
//! gate is necessary, not an implementation nicety.

use crate::election::Role;
use crate::invariants::{CcwInstanceView, CwInstanceView};
use co_net::{Context, Fingerprint, Port, Protocol, Pulse, Snapshot};

/// Algorithm 2 **without** the CCW receive gate — a deliberately broken
/// variant for ablation studies. Do not use for actual elections.
///
/// Differences from [`crate::Alg2Node`]: counterclockwise pulses are
/// processed immediately on arrival, even while `ρ_cw < ID`; consequently a
/// node may also relay CCW pulses before injecting its own initial one,
/// suppressing that injection entirely (the `σ_ccw = 0` check no longer
/// coincides with gate opening).
#[derive(Clone, Debug)]
pub struct UngatedAlg2Node {
    id: u64,
    cw_port: Port,
    rho_cw: u64,
    sigma_cw: u64,
    rho_ccw: u64,
    sigma_ccw: u64,
    role: Role,
    awaiting_echo: bool,
    terminated: bool,
}

impl UngatedAlg2Node {
    /// Creates the ablated node.
    ///
    /// # Panics
    ///
    /// Panics if `id == 0`.
    #[must_use]
    pub fn new(id: u64, cw_port: Port) -> UngatedAlg2Node {
        assert!(id > 0, "IDs must be positive integers");
        UngatedAlg2Node {
            id,
            cw_port,
            rho_cw: 0,
            sigma_cw: 0,
            rho_ccw: 0,
            sigma_ccw: 0,
            role: Role::NonLeader,
            awaiting_echo: false,
            terminated: false,
        }
    }

    /// The node's current role claim.
    #[must_use]
    pub fn role(&self) -> Role {
        self.role
    }

    /// Clockwise pulses received.
    #[must_use]
    pub fn rho_cw(&self) -> u64 {
        self.rho_cw
    }

    /// Counterclockwise pulses received.
    #[must_use]
    pub fn rho_ccw(&self) -> u64 {
        self.rho_ccw
    }

    /// Clockwise pulses sent.
    #[must_use]
    pub fn sigma_cw(&self) -> u64 {
        self.sigma_cw
    }

    /// Counterclockwise pulses sent.
    #[must_use]
    pub fn sigma_ccw(&self) -> u64 {
        self.sigma_ccw
    }

    /// Whether this node has initiated termination and awaits the echo.
    #[must_use]
    pub fn awaiting_echo(&self) -> bool {
        self.awaiting_echo
    }

    fn send_cw(&mut self, ctx: &mut Context<'_, Pulse>) {
        self.sigma_cw += 1;
        ctx.send(self.cw_port, Pulse);
    }

    fn send_ccw(&mut self, ctx: &mut Context<'_, Pulse>) {
        self.sigma_ccw += 1;
        ctx.send(self.cw_port.opposite(), Pulse);
    }

    fn maybe_start_ccw(&mut self, ctx: &mut Context<'_, Pulse>) {
        if self.rho_cw >= self.id && self.sigma_ccw == 0 {
            self.send_ccw(ctx);
        }
    }

    fn maybe_initiate_termination(&mut self, ctx: &mut Context<'_, Pulse>) {
        if !self.awaiting_echo && self.rho_cw == self.id && self.rho_ccw == self.id {
            self.send_ccw(ctx);
            self.awaiting_echo = true;
        }
    }
}

impl Protocol<Pulse> for UngatedAlg2Node {
    type Output = Role;

    fn on_start(&mut self, ctx: &mut Context<'_, Pulse>) {
        self.send_cw(ctx);
    }

    fn on_message(&mut self, port: Port, _msg: Pulse, ctx: &mut Context<'_, Pulse>) {
        if self.terminated {
            return;
        }
        if port == self.cw_port.opposite() {
            self.rho_cw += 1;
            if self.rho_cw == self.id {
                self.role = Role::Leader;
            } else {
                self.role = Role::NonLeader;
                self.send_cw(ctx);
            }
            self.maybe_start_ccw(ctx);
            self.maybe_initiate_termination(ctx);
        } else {
            // ABLATED: no gate — the pulse is consumed immediately.
            self.rho_ccw += 1;
            if self.awaiting_echo {
                self.terminated = true;
                return;
            }
            if self.rho_ccw > self.rho_cw {
                self.send_ccw(ctx);
                self.terminated = true;
                return;
            }
            if self.rho_ccw != self.id {
                self.send_ccw(ctx);
            }
            self.maybe_initiate_termination(ctx);
        }
    }

    fn is_terminated(&self) -> bool {
        self.terminated
    }

    fn output(&self) -> Option<Role> {
        self.terminated.then_some(self.role)
    }
}

impl Snapshot for UngatedAlg2Node {
    type State = UngatedAlg2Node;

    fn extract(&self) -> UngatedAlg2Node {
        self.clone()
    }

    fn restore(&mut self, state: &UngatedAlg2Node) {
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
        fp.write_bool(self.role == Role::Leader);
        fp.write_bool(self.awaiting_echo);
        fp.write_bool(self.terminated);
        fp.finish()
    }
}

impl CwInstanceView for UngatedAlg2Node {
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

impl CcwInstanceView for UngatedAlg2Node {
    fn ccw_rho(&self) -> u64 {
        self.rho_ccw
    }
    fn ccw_sigma(&self) -> u64 {
        self.sigma_ccw
    }
    fn ccw_deferred(&self) -> u64 {
        // The ablation has no deferral queue — that is the point.
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{core_registry, RingProtocol, UngatedDef};
    use co_net::explore::{ExploreConfig, ExploreReport};
    use co_net::{RingSpec, SchedulerKind};

    /// The ablated variant misbehaves on *some* schedule: exhaustively
    /// explore a 2-ring against Algorithm 2's claims and find a quiescent
    /// configuration with the wrong leader set, a node that has not
    /// terminated, or the wrong pulse count.
    #[test]
    fn ungated_variant_fails_under_some_schedule() {
        let report = explore_1_2("ungated");
        assert!(report.complete, "tiny instance must be fully explored");
        assert!(
            report.violations.iter().any(|v| v.contains("Theorem 1")),
            "the ungated ablation should fail Theorem 1 on some schedule \
             ({} configs explored): {:?}",
            report.configs,
            report.violations
        );
    }

    /// Control: the *real* Algorithm 2 passes the identical exhaustive
    /// check on the same ring — the failure above is caused by the ablation.
    #[test]
    fn gated_original_passes_the_same_exhaustive_check() {
        let report = explore_1_2("alg2");
        assert!(report.complete);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    /// Every schedule of the registered protocol `name` on the ring
    /// `[1, 2]`, checked against its definition's claims.
    fn explore_1_2(name: &str) -> ExploreReport {
        let config = ExploreConfig {
            jobs: 1,
            ..ExploreConfig::default()
        };
        let driver = core_registry().explore(name).expect("explore-capable");
        driver.run(&RingSpec::oriented(vec![1, 2]), &config)
    }

    /// Even without exhaustive search, a plain adversary already breaks the
    /// ungated variant on slightly larger rings for some seed.
    #[test]
    fn ungated_variant_fails_under_sampled_adversaries() {
        let spec = RingSpec::oriented(vec![1, 2, 3]);
        let mut failures = 0;
        let mut runs = 0;
        for kind in SchedulerKind::ALL {
            for seed in 0..8u64 {
                let nodes = UngatedDef::nodes(&spec);
                let mut sim: co_net::Simulation<Pulse, UngatedAlg2Node> =
                    co_net::Simulation::new(spec.wiring(), nodes, kind.build(seed));
                let report = sim.run(co_net::Budget::steps(100_000));
                runs += 1;
                let ok = report.outcome == co_net::Outcome::QuiescentTerminated
                    && sim.node(2).role() == Role::Leader
                    && sim.node(0).role() == Role::NonLeader
                    && sim.node(1).role() == Role::NonLeader
                    && report.total_sent == 3 * (2 * 3 + 1);
                if !ok {
                    failures += 1;
                }
            }
        }
        assert!(
            failures > 0,
            "expected at least one misbehaving run out of {runs}"
        );
    }
}
