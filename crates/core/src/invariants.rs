//! Executable invariant monitors — the paper's Lemmas 6–12 and 17 as code.
//!
//! The proofs in Section 3.1 rest on invariants of Algorithm 1's
//! configuration space. Each lemma is implemented as a predicate over the
//! *global* simulation state and checked after **every** delivery by
//! attaching a monitor observer ([`CwMonitorObserver`], [`Alg2MonitorObserver`])
//! to [`co_net::Simulation::run_observed`], turning the paper's proofs into
//! continuously-verified runtime assertions:
//!
//! * **Lemma 6** — while `ρ_cw < ID`: `σ_cw = ρ_cw + 1`; once
//!   `ρ_cw ≥ ID`: `σ_cw = ρ_cw`.
//! * **Lemma 7 / 17** — a node holding `ID_max` is the *last* to satisfy
//!   `ρ_cw ≥ ID` (17 generalises to non-unique IDs).
//! * **Lemmas 8, 9 / Corollary 10** — the CW instance is quiescent **iff**
//!   every node has `ρ_cw ≥ ID`.
//! * **Lemma 11** — at quiescence, `ρ_cw = σ_cw = ID_max` everywhere.
//! * **Lemma 12 / Corollary 13** — quiescence is eventually reached (checked
//!   by the run completing within budget).
//! * **Corollary 14** — `ρ_cw ≤ ID_max` at all times.
//!
//! The same monitors apply to Algorithm 2's CW instance through the
//! [`CwInstanceView`] trait, plus Algorithm-2-specific invariants
//! ([`Alg2Monitor`]): the CCW instance lags the CW one (`ρ_ccw ≤ ρ_cw`
//! before the termination pulse) and the termination trigger fires only at
//! the maximum-ID node.

use co_net::{Direction, Message, NodeIndex, Protocol, SimObserver, Simulation, StepInfo};
use std::fmt;

/// Read-only view of a node's CW Algorithm-1 instance.
pub trait CwInstanceView {
    /// The ID governing the CW instance.
    fn cw_id(&self) -> u64;
    /// Pulses received (`ρ_cw`).
    fn cw_rho(&self) -> u64;
    /// Pulses sent (`σ_cw`).
    fn cw_sigma(&self) -> u64;
}

/// Read-only view of a node's CCW Algorithm-1 instance (Algorithm 2 only).
pub trait CcwInstanceView: CwInstanceView {
    /// Pulses received and processed (`ρ_ccw`).
    fn ccw_rho(&self) -> u64;
    /// Pulses sent (`σ_ccw`).
    fn ccw_sigma(&self) -> u64;
    /// Pulses delivered but still deferred (gate closed).
    fn ccw_deferred(&self) -> u64;
}

/// A violated invariant, identifying the lemma and the offending state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InvariantViolation {
    /// Which lemma failed, e.g. `"Lemma 6"`.
    pub lemma: &'static str,
    /// Human-readable diagnosis.
    pub detail: String,
    /// The node where the violation was observed, if node-local.
    pub node: Option<NodeIndex>,
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} violated", self.lemma)?;
        if let Some(n) = self.node {
            write!(f, " at node {n}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

impl std::error::Error for InvariantViolation {}

fn violation(lemma: &'static str, node: Option<NodeIndex>, detail: String) -> InvariantViolation {
    InvariantViolation {
        lemma,
        detail,
        node,
    }
}

/// Lemma 6 and Corollary 14 at node `i` of a ring whose largest ID is
/// `id_max`: while `ρ_cw < ID`, `σ_cw = ρ_cw + 1`; once `ρ_cw ≥ ID`,
/// `σ_cw = ρ_cw`; and `ρ_cw ≤ ID_max` always.
///
/// Stateless, so it holds in every reachable configuration on its own:
/// [`CwMonitor::check`] runs it after every delivery, and the exhaustive
/// explorer in every configuration it visits
/// ([`crate::registry::ExploreProperties`]).
///
/// # Errors
///
/// The violated lemma, naming node `i`.
// The explorer calls this for every node of every configuration; left to
// the compiler it stayed a call, which cost `explore-alg2` ~8 % of its
// configurations per second.
#[inline]
pub fn lemma6_and_corollary14<V: CwInstanceView>(
    i: NodeIndex,
    node: &V,
    id_max: u64,
) -> Result<(), InvariantViolation> {
    let (id, rho, sigma) = (node.cw_id(), node.cw_rho(), node.cw_sigma());
    if rho < id {
        if sigma != rho + 1 {
            return Err(violation(
                "Lemma 6.1",
                Some(i),
                format!("ρ_cw={rho} < ID={id} but σ_cw={sigma} ≠ ρ_cw+1"),
            ));
        }
    } else if sigma != rho {
        return Err(violation(
            "Lemma 6.2",
            Some(i),
            format!("ρ_cw={rho} ≥ ID={id} but σ_cw={sigma} ≠ ρ_cw"),
        ));
    }
    if rho > id_max {
        return Err(violation(
            "Corollary 14",
            Some(i),
            format!("ρ_cw={rho} exceeds ID_max={id_max}"),
        ));
    }
    Ok(())
}

/// Monitor for the CW Algorithm-1 instance (Lemmas 6–12, 17, Cor. 14).
///
/// Feed it every post-delivery state via [`CwMonitor::check`]; it returns
/// the first violation found, accumulating the absorption order needed for
/// Lemma 7/17 across calls.
///
/// The idiomatic way to drive it is [`CwMonitorObserver`], which plugs into
/// [`Simulation::run_observed`]:
///
/// ```rust
/// use co_core::invariants::{CwMonitorObserver, Verdict};
/// use co_core::Alg1Node;
/// use co_net::{Budget, Pulse, RingSpec, SchedulerKind, Simulation};
///
/// let spec = RingSpec::oriented(vec![2, 5, 3]);
/// let nodes = (0..3).map(|i| Alg1Node::new(spec.id(i), spec.cw_port(i))).collect();
/// let mut sim: Simulation<Pulse, Alg1Node> =
///     Simulation::new(spec.wiring(), nodes, SchedulerKind::Random.build(7));
/// let mut observer = CwMonitorObserver::new();
/// sim.run_observed(Budget::default(), &mut observer);
/// observer
///     .finish(sim.nodes())
///     .expect("the paper's lemmas hold at every step");
/// ```
#[derive(Clone, Debug, Default)]
pub struct CwMonitor {
    /// Positions in the order they first satisfied `ρ_cw ≥ ID`.
    absorption_order: Vec<NodeIndex>,
}

impl CwMonitor {
    /// Creates a fresh monitor.
    #[must_use]
    pub fn new() -> CwMonitor {
        CwMonitor::default()
    }

    /// The order in which nodes first satisfied `ρ_cw ≥ ID` so far.
    #[must_use]
    pub fn absorption_order(&self) -> &[NodeIndex] {
        &self.absorption_order
    }

    /// Checks all step-wise invariants against the current global state.
    ///
    /// `cw_in_flight` must be the number of CW pulses currently in transit
    /// **plus** any delivered-but-deferred CW pulses (zero for Algorithm 1,
    /// which never defers CW pulses).
    ///
    /// # Errors
    ///
    /// Returns the first [`InvariantViolation`] found.
    pub fn check<V: CwInstanceView>(
        &mut self,
        nodes: &[V],
        cw_in_flight: u64,
    ) -> Result<(), InvariantViolation> {
        let id_max = nodes.iter().map(CwInstanceView::cw_id).max().unwrap_or(0);

        for (i, node) in nodes.iter().enumerate() {
            lemma6_and_corollary14(i, node, id_max)?;
            // Track absorption order for Lemma 7/17.
            if node.cw_rho() >= node.cw_id() && !self.absorption_order.contains(&i) {
                self.absorption_order.push(i);
            }
        }

        let all_absorbed = nodes.iter().all(|v| v.cw_rho() >= v.cw_id());
        // Lemma 8: all absorbed ⇒ quiescent (CW pulses only).
        if all_absorbed && cw_in_flight != 0 {
            return Err(violation(
                "Lemma 8",
                None,
                format!("all nodes have ρ_cw ≥ ID but {cw_in_flight} CW pulses in flight"),
            ));
        }
        // Lemma 9: quiescent ⇒ all absorbed.
        if cw_in_flight == 0 && !all_absorbed {
            let bad: Vec<usize> = nodes
                .iter()
                .enumerate()
                .filter(|(_, v)| v.cw_rho() < v.cw_id())
                .map(|(i, _)| i)
                .collect();
            return Err(violation(
                "Lemma 9",
                None,
                format!("CW quiescent but nodes {bad:?} still have ρ_cw < ID"),
            ));
        }
        // Lemma 11: at quiescence, ρ = σ = ID_max everywhere.
        if cw_in_flight == 0 {
            for (i, node) in nodes.iter().enumerate() {
                if node.cw_rho() != id_max || node.cw_sigma() != id_max {
                    return Err(violation(
                        "Lemma 11",
                        Some(i),
                        format!(
                            "at CW quiescence ρ_cw={}, σ_cw={}, expected ID_max={id_max}",
                            node.cw_rho(),
                            node.cw_sigma()
                        ),
                    ));
                }
            }
        }
        // Lemma 7/17: once any ID_max holder absorbs, everyone must have.
        let any_max_absorbed = nodes
            .iter()
            .any(|v| v.cw_id() == id_max && v.cw_rho() >= v.cw_id());
        if any_max_absorbed && !all_absorbed {
            return Err(violation(
                "Lemma 7/17",
                None,
                "an ID_max node absorbed before some other node".to_string(),
            ));
        }
        Ok(())
    }

    /// Final check (Lemma 7/17's "last" claim): the last node to absorb
    /// holds `ID_max`.
    ///
    /// # Errors
    ///
    /// Returns a violation if some other node absorbed last or not every
    /// node absorbed.
    pub fn check_final<V: CwInstanceView>(&self, nodes: &[V]) -> Result<(), InvariantViolation> {
        if self.absorption_order.len() != nodes.len() {
            return Err(violation(
                "Lemma 12",
                None,
                format!(
                    "only {} of {} nodes ever satisfied ρ_cw ≥ ID",
                    self.absorption_order.len(),
                    nodes.len()
                ),
            ));
        }
        let id_max = nodes.iter().map(CwInstanceView::cw_id).max().unwrap_or(0);
        let last = *self.absorption_order.last().expect("non-empty ring");
        if nodes[last].cw_id() != id_max {
            return Err(violation(
                "Lemma 7/17",
                Some(last),
                format!(
                    "last absorber holds ID {} ≠ ID_max {id_max}",
                    nodes[last].cw_id()
                ),
            ));
        }
        Ok(())
    }
}

/// Additional invariants of Algorithm 2 (§3.2).
///
/// * the CCW instance lags: a non-terminated node that has not seen the
///   termination pulse has `ρ_ccw ≤ ρ_cw`;
/// * the termination trigger `ρ_cw = ID = ρ_ccw` fires only at a node
///   holding `ID_max` (checked via the *lag* property: when `ρ_ccw = ID`
///   at a non-max node, `ρ_cw > ID` must already hold).
#[derive(Clone, Debug, Default)]
pub struct Alg2Monitor {
    cw: CwMonitor,
}

impl Alg2Monitor {
    /// Creates a fresh monitor.
    #[must_use]
    pub fn new() -> Alg2Monitor {
        Alg2Monitor::default()
    }

    /// Access to the inner CW-instance monitor.
    #[must_use]
    pub fn cw(&self) -> &CwMonitor {
        &self.cw
    }

    /// Checks Algorithm-2 invariants; see [`CwMonitor::check`] for the
    /// meaning of `cw_in_flight`.
    ///
    /// # Errors
    ///
    /// Returns the first [`InvariantViolation`] found.
    pub fn check<V: CcwInstanceView>(
        &mut self,
        nodes: &[V],
        cw_in_flight: u64,
    ) -> Result<(), InvariantViolation> {
        self.cw.check(nodes, cw_in_flight)?;
        let id_max = nodes.iter().map(CwInstanceView::cw_id).max().unwrap_or(0);
        for (i, node) in nodes.iter().enumerate() {
            // Lag invariant: ρ_ccw can exceed ρ_cw only via the termination
            // pulse, which is the (ID_max + 1)-th CCW pulse.
            if node.ccw_rho() > node.cw_rho() && node.ccw_rho() != id_max + 1 {
                return Err(violation(
                    "§3.2 lag",
                    Some(i),
                    format!(
                        "ρ_ccw={} > ρ_cw={} before the termination pulse",
                        node.ccw_rho(),
                        node.cw_rho()
                    ),
                ));
            }
            // Uniqueness of the trigger: ρ_cw = ID = ρ_ccw only at ID_max.
            if node.cw_rho() == node.cw_id()
                && node.ccw_rho() == node.cw_id()
                && node.cw_id() != id_max
            {
                return Err(violation(
                    "§3.2 trigger",
                    Some(i),
                    format!(
                        "termination trigger ρ_cw = ID = ρ_ccw = {} at non-max node",
                        node.cw_id()
                    ),
                ));
            }
        }
        Ok(())
    }
}

/// Convenience: the number of CW pulses "outstanding" from the CW
/// instance's point of view — in transit on CW channels.
#[must_use]
pub fn cw_in_flight<M: Message, P: Protocol<M>>(sim: &Simulation<M, P>) -> u64 {
    sim.in_flight_direction(Direction::Cw)
}

/// [`SimObserver`] adapter for [`CwMonitor`]: runs the lemma checks after
/// every delivery, latching the *first* violation (the monitor's state is
/// unreliable past that point).
///
/// Attach with [`Simulation::run_observed`], then call
/// [`Verdict::finish`] to collect the verdict including the
/// end-of-run checks (Lemma 12, last absorber).
#[derive(Clone, Debug, Default)]
pub struct CwMonitorObserver {
    monitor: CwMonitor,
    violation: Option<InvariantViolation>,
}

impl CwMonitorObserver {
    /// Creates a fresh observer around a fresh [`CwMonitor`].
    #[must_use]
    pub fn new() -> CwMonitorObserver {
        CwMonitorObserver::default()
    }

    /// The monitor driven by this observer.
    #[must_use]
    pub fn monitor(&self) -> &CwMonitor {
        &self.monitor
    }

    /// The verdict so far: the first per-step violation, if any.
    #[must_use]
    pub fn violation(&self) -> Option<&InvariantViolation> {
        self.violation.as_ref()
    }
}

/// An observer that renders a verdict once the run is over.
pub trait Verdict<V> {
    /// The first violation latched during the run, else the end-of-run
    /// checks on `nodes`, the final configuration.
    ///
    /// # Errors
    ///
    /// Returns the first [`InvariantViolation`] observed over the whole run.
    fn finish(self, nodes: &[V]) -> Result<(), InvariantViolation>;
}

impl<V: CwInstanceView> Verdict<V> for CwMonitorObserver {
    fn finish(self, nodes: &[V]) -> Result<(), InvariantViolation> {
        if let Some(v) = self.violation {
            return Err(v);
        }
        self.monitor.check_final(nodes)
    }
}

impl<M, P> SimObserver<M, P> for CwMonitorObserver
where
    M: Message,
    P: Protocol<M> + CwInstanceView,
{
    fn after_step(&mut self, sim: &Simulation<M, P>, _step: &StepInfo) {
        if self.violation.is_none() {
            let in_flight = sim.in_flight_direction(Direction::Cw);
            if let Err(v) = self.monitor.check(sim.nodes(), in_flight) {
                self.violation = Some(v);
            }
        }
    }
}

/// [`SimObserver`] adapter for [`Alg2Monitor`]: the Algorithm-2 analogue of
/// [`CwMonitorObserver`] (CW lemmas plus the §3.2 lag/trigger invariants).
#[derive(Clone, Debug, Default)]
pub struct Alg2MonitorObserver {
    monitor: Alg2Monitor,
    violation: Option<InvariantViolation>,
}

impl Alg2MonitorObserver {
    /// Creates a fresh observer around a fresh [`Alg2Monitor`].
    #[must_use]
    pub fn new() -> Alg2MonitorObserver {
        Alg2MonitorObserver::default()
    }

    /// The monitor driven by this observer.
    #[must_use]
    pub fn monitor(&self) -> &Alg2Monitor {
        &self.monitor
    }

    /// The verdict so far: the first per-step violation, if any.
    #[must_use]
    pub fn violation(&self) -> Option<&InvariantViolation> {
        self.violation.as_ref()
    }
}

impl<V: CwInstanceView> Verdict<V> for Alg2MonitorObserver {
    fn finish(self, nodes: &[V]) -> Result<(), InvariantViolation> {
        if let Some(v) = self.violation {
            return Err(v);
        }
        self.monitor.cw().check_final(nodes)
    }
}

impl<M, P> SimObserver<M, P> for Alg2MonitorObserver
where
    M: Message,
    P: Protocol<M> + CcwInstanceView,
{
    fn after_step(&mut self, sim: &Simulation<M, P>, _step: &StepInfo) {
        if self.violation.is_none() {
            let in_flight = sim.in_flight_direction(Direction::Cw);
            if let Err(v) = self.monitor.check(sim.nodes(), in_flight) {
                self.violation = Some(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fake {
        id: u64,
        rho: u64,
        sigma: u64,
    }

    impl CwInstanceView for Fake {
        fn cw_id(&self) -> u64 {
            self.id
        }
        fn cw_rho(&self) -> u64 {
            self.rho
        }
        fn cw_sigma(&self) -> u64 {
            self.sigma
        }
    }

    #[test]
    fn lemma6_violation_detected() {
        let nodes = vec![Fake {
            id: 3,
            rho: 1,
            sigma: 3, // should be rho + 1 = 2
        }];
        let mut m = CwMonitor::new();
        let err = m.check(&nodes, 1).unwrap_err();
        assert_eq!(err.lemma, "Lemma 6.1");
        assert!(err.to_string().contains("node 0"));
    }

    #[test]
    fn lemma8_violation_detected() {
        // Everyone absorbed but a pulse claims to be in flight.
        let nodes = vec![Fake {
            id: 2,
            rho: 2,
            sigma: 2,
        }];
        let mut m = CwMonitor::new();
        let err = m.check(&nodes, 5).unwrap_err();
        assert_eq!(err.lemma, "Lemma 8");
    }

    #[test]
    fn lemma9_violation_detected() {
        let nodes = vec![Fake {
            id: 5,
            rho: 2,
            sigma: 3,
        }];
        let mut m = CwMonitor::new();
        let err = m.check(&nodes, 0).unwrap_err();
        assert_eq!(err.lemma, "Lemma 9");
    }

    #[test]
    fn quiescent_consistent_state_passes() {
        let nodes = vec![
            Fake {
                id: 2,
                rho: 3,
                sigma: 3,
            },
            Fake {
                id: 3,
                rho: 3,
                sigma: 3,
            },
        ];
        let mut m = CwMonitor::new();
        m.check(&nodes, 0).expect("valid quiescent state");
        assert_eq!(m.absorption_order(), &[0, 1]);
        m.check_final(&nodes).expect("ID_max node absorbed last");
    }

    #[test]
    fn corollary14_violation_detected() {
        let nodes = vec![Fake {
            id: 2,
            rho: 9,
            sigma: 9,
        }];
        let mut m = CwMonitor::new();
        let err = m.check(&nodes, 1).unwrap_err();
        assert_eq!(err.lemma, "Corollary 14");
    }

    #[test]
    fn check_final_flags_wrong_last_absorber() {
        let nodes = vec![
            Fake {
                id: 5,
                rho: 5,
                sigma: 5,
            },
            Fake {
                id: 2,
                rho: 5,
                sigma: 5,
            },
        ];
        let mut m = CwMonitor::new();
        // Feed a state where node 1 (small ID) absorbs after node 0.
        m.absorption_order = vec![0, 1];
        let err = m.check_final(&nodes).unwrap_err();
        assert_eq!(err.lemma, "Lemma 7/17");
    }
}
