//! Algorithm 3 — leader election *and ring orientation* on non-oriented
//! rings (paper §4, Proposition 15 and Theorem 2).
//!
//! On a non-oriented ring, nodes cannot tell which port leads clockwise.
//! Algorithm 3 runs two parallel executions of Algorithm 1 — one per global
//! travel direction — by exploiting that a pulse which is always re-sent
//! from the port opposite to its arrival port keeps travelling in one global
//! direction. Each node picks two *virtual IDs*, one governing the pulses
//! arriving at each port; the virtual-ID scheme guarantees the two
//! executions have distinct maxima, so at quiescence every node sees
//! strictly more pulses in one direction than the other. That asymmetry
//! yields a consistent orientation, and the node whose virtual ID was the
//! global maximum elects itself leader.
//!
//! Two [`IdScheme`]s are provided:
//!
//! * [`IdScheme::Doubled`] — `ID_v^(i) = 2·ID_v − 1 + i` (Proposition 15):
//!   simple, but doubles the complexity to `n(4·ID_max − 1)` pulses;
//! * [`IdScheme::Improved`] — `ID_v^(0) = ID_v`, `ID_v^(1) = ID_v + 1`
//!   (Theorem 2): virtual IDs are no longer unique, but Lemma 16 shows
//!   Algorithm 1 tolerates duplicates as long as the per-direction maxima
//!   are unique; complexity drops to `n(2·ID_max + 1)`.
//!
//! The algorithm is quiescently *stabilizing*: all pulse activity ceases but
//! nodes never terminate (the paper conjectures this is inherent).
//!
//! Proposition 19 is available through [`Alg3Node::with_resampling`]: nodes
//! re-sample their ID whenever `min(ρ_0, ρ_1)` exceeds it, ending with
//! pairwise-distinct IDs with high probability.
//!
//! ```rust
//! use co_core::runner::{self, RunOptions};
//! use co_core::{IdScheme, Role};
//! use co_net::{RingSpec, SchedulerKind};
//!
//! // A non-oriented ring: nodes 1 and 3 have flipped ports.
//! let spec = RingSpec::with_flips(vec![4, 9, 2, 5], vec![false, true, false, true]);
//! let opts = RunOptions::new(SchedulerKind::Random, 3);
//! let report = runner::run_alg3(&spec, IdScheme::Improved, &opts).expect("IDs fit");
//! assert!(report.report.reached_quiescence());
//! assert_eq!(report.report.roles[1], Role::Leader);
//! assert!(report.orientation_consistent);
//! assert_eq!(report.report.total_messages, 4 * (2 * 9 + 1)); // Theorem 2
//! ```

use crate::election::Role;
use co_net::{Context, Fingerprint, Port, Protocol, Pulse, RingSpec, Snapshot};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// How a node derives its two virtual IDs from its real ID.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum IdScheme {
    /// `ID^(i) = 2·ID − 1 + i` — Proposition 15, `n(4·ID_max − 1)` pulses.
    Doubled,
    /// `ID^(0) = ID`, `ID^(1) = ID + 1` — Theorem 2, `n(2·ID_max + 1)` pulses.
    Improved,
}

impl IdScheme {
    /// The largest real ID whose virtual IDs fit in a `u64`:
    /// `u64::MAX / 2` doubled, `u64::MAX − 1` improved.
    #[must_use]
    pub const fn max_id(self) -> u64 {
        match self {
            IdScheme::Doubled => u64::MAX / 2,
            IdScheme::Improved => u64::MAX - 1,
        }
    }

    /// Refuses a ring whose IDs include 0 or one above
    /// [`IdScheme::max_id`].
    ///
    /// # Errors
    ///
    /// The first such ID, as an [`InvalidId`].
    pub fn check_ids(self, ids: &[u64]) -> Result<(), InvalidId> {
        match ids.iter().find(|&&id| id == 0 || id > self.max_id()) {
            Some(0) => Err(InvalidId::Zero { scheme: self }),
            Some(&id) => Err(InvalidId::TooLarge { id, scheme: self }),
            None => Ok(()),
        }
    }

    /// The virtual ID `ID^(i)` for a node with real ID `id`.
    ///
    /// `ID^(i)` governs the pulses *arriving at* `Port_{1−i}` (equivalently:
    /// the execution whose pulses this node re-sends from `Port_i`).
    ///
    /// # Errors
    ///
    /// `id` is 0 or exceeds [`IdScheme::max_id`] (the virtual ID would not
    /// be a positive `u64`), as an [`InvalidId`].
    pub fn virtual_id(self, id: u64, i: usize) -> Result<u64, InvalidId> {
        debug_assert!(i < 2);
        self.check_ids(&[id])?;
        Ok(match self {
            IdScheme::Doubled => 2 * id - 1 + i as u64,
            IdScheme::Improved => id + i as u64,
        })
    }

    /// The exact total message complexity on a ring of `n` nodes with
    /// maximal ID `id_max` (Proposition 15 / Theorem 2), or `None` when it
    /// does not fit in a `u64`.
    #[must_use]
    pub fn predicted_messages(self, n: u64, id_max: u64) -> Option<u64> {
        let per_node = match self {
            IdScheme::Doubled => id_max.checked_mul(4)?.checked_sub(1)?,
            IdScheme::Improved => id_max.checked_mul(2)?.checked_add(1)?,
        };
        per_node.checked_mul(n)
    }
}

impl fmt::Display for IdScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IdScheme::Doubled => f.write_str("doubled (Prop. 15)"),
            IdScheme::Improved => f.write_str("improved (Thm. 2)"),
        }
    }
}

/// A real ID a virtual-ID scheme cannot run.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum InvalidId {
    /// ID 0: the paper's IDs are positive integers (and the doubled
    /// scheme's `ID^(0) = 2·0 − 1` is not a `u64`).
    Zero {
        /// The scheme it was refused under.
        scheme: IdScheme,
    },
    /// An ID whose `ID^(1)` would exceed `u64::MAX` (see
    /// [`IdScheme::max_id`]).
    TooLarge {
        /// The offending ID.
        id: u64,
        /// The scheme it was refused under.
        scheme: IdScheme,
    },
}

impl fmt::Display for InvalidId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            InvalidId::Zero { scheme } => write!(
                f,
                "ID 0 is not a positive integer, as the {scheme} virtual-ID scheme requires"
            ),
            InvalidId::TooLarge { id, scheme } => write!(
                f,
                "ID {id} is too large for the {scheme} virtual-ID scheme (at most {})",
                scheme.max_id()
            ),
        }
    }
}

impl std::error::Error for InvalidId {}

/// The stabilizing output of an [`Alg3Node`]: a role plus the port the node
/// believes leads to its clockwise neighbour.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Alg3Output {
    /// Leader / non-leader decision.
    pub role: Role,
    /// The port this node labels *CW* (leading to the clockwise neighbour).
    pub cw_port: Port,
}

/// A node running Algorithm 3 on a (possibly) non-oriented ring.
///
/// Unlike [`crate::Alg1Node`], the constructor takes no orientation: the
/// node treats its two ports symmetrically, exactly as the paper requires.
#[derive(Clone, Debug)]
pub struct Alg3Node {
    id: u64,
    scheme: IdScheme,
    /// `virt[i]` = `ID^(i)`, governing pulses that arrive at `Port_{1-i}`.
    virt: [u64; 2],
    /// `rho[p]` = pulses received at `Port_p` (the paper's `ρ_p`).
    rho: [u64; 2],
    /// `sigma[p]` = pulses sent from `Port_p`.
    sigma: [u64; 2],
    output: Option<Alg3Output>,
    /// Proposition 19: RNG for ID resampling, if enabled.
    resampler: Option<StdRng>,
}

impl Alg3Node {
    /// Creates a node with the given (positive) ID.
    ///
    /// # Panics
    ///
    /// Panics with the [`InvalidId`] message if `id == 0` ("ID 0 is not a
    /// positive integer, …") or `id > scheme.max_id()`. This is the
    /// contract: callers holding untrusted IDs refuse them up front with
    /// [`IdScheme::check_ids`], as `run_alg3`, the registry and the CLI do.
    #[must_use]
    pub fn new(id: u64, scheme: IdScheme) -> Alg3Node {
        let virt = |i| scheme.virtual_id(id, i).unwrap_or_else(|e| panic!("{e}"));
        Alg3Node {
            id,
            scheme,
            virt: [virt(0), virt(1)],
            rho: [0; 2],
            sigma: [0; 2],
            output: None,
            resampler: None,
        }
    }

    /// This node, additionally re-sampling its ID per Proposition 19
    /// (drawing from a generator seeded with `seed`): whenever a pulse arrives and `min(ρ_0, ρ_1)`
    /// exceeds the current ID, the ID is redrawn uniformly from
    /// `1..min(ρ_0, ρ_1)`.
    ///
    /// Re-sampling never changes the pulse dynamics — by the time it fires,
    /// both counters have passed every threshold derived from the old ID, so
    /// the node is already a permanent relay in both directions — but it
    /// leaves all nodes with pairwise-distinct IDs with high probability.
    #[must_use]
    pub fn with_resampling(mut self, seed: u64) -> Alg3Node {
        self.resampler = Some(StdRng::seed_from_u64(seed));
        self
    }

    /// The node's current ID (may change under Proposition 19 resampling).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The virtual-ID scheme this node runs.
    #[must_use]
    pub fn scheme(&self) -> IdScheme {
        self.scheme
    }

    /// Pulses received at each port.
    #[must_use]
    pub fn rho(&self) -> [u64; 2] {
        self.rho
    }

    /// Pulses sent from each port.
    #[must_use]
    pub fn sigma(&self) -> [u64; 2] {
        self.sigma
    }

    /// The node's current stabilizing output, if the guard of pseudocode
    /// line 8 (`max(ρ_0, ρ_1) ≥ ID^(1)`) has been reached.
    #[must_use]
    pub fn output(&self) -> Option<Alg3Output> {
        self.output
    }

    fn send(&mut self, port: Port, ctx: &mut Context<'_, Pulse>) {
        self.sigma[port.index()] += 1;
        ctx.send(port, Pulse);
    }

    /// Pseudocode lines 8–16: recompute the stabilizing output.
    fn update_output(&mut self) {
        let [rho0, rho1] = self.rho;
        let id1 = self.virt[1];
        if rho0.max(rho1) < id1 {
            return; // Line 8 guard: too early to decide anything.
        }
        let role = if rho0 == id1 && rho1 < id1 {
            Role::Leader
        } else {
            Role::NonLeader
        };
        // Lines 13-16: the port that received *more* pulses received the
        // busier global direction; the paper names it so that the *other*
        // port leads clockwise.
        let cw_port = if rho0 > rho1 { Port::One } else { Port::Zero };
        self.output = Some(Alg3Output { role, cw_port });
    }

    /// Proposition 19: re-sample the ID if both counters passed it.
    fn maybe_resample(&mut self) {
        let Some(rng) = &mut self.resampler else {
            return;
        };
        let min = self.rho[0].min(self.rho[1]);
        if min > self.id && min >= 2 {
            self.id = rng.gen_range(1..min);
        }
    }
}

impl Protocol<Pulse> for Alg3Node {
    type Output = Alg3Output;

    fn on_start(&mut self, ctx: &mut Context<'_, Pulse>) {
        // Lines 1-3: send one pulse out of each port.
        self.send(Port::Zero, ctx);
        self.send(Port::One, ctx);
    }

    fn on_message(&mut self, port: Port, _msg: Pulse, ctx: &mut Context<'_, Pulse>) {
        // Lines 5-7: a pulse arriving at Port_{1-i} is counted in ρ_{1-i}
        // and forwarded from Port_i unless ρ_{1-i} = ID^(i).
        let arrived = port.index();
        let out = port.opposite();
        self.rho[arrived] += 1;
        if self.rho[arrived] != self.virt[out.index()] {
            self.send(out, ctx);
        }
        self.maybe_resample();
        self.update_output();
    }

    fn output(&self) -> Option<Alg3Output> {
        self.output
    }
}

impl Snapshot for Alg3Node {
    type State = Alg3Node;

    fn extract(&self) -> Alg3Node {
        self.clone()
    }

    fn restore(&mut self, state: &Alg3Node) {
        *self = state.clone();
    }

    fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::new();
        fp.write_u64(self.id);
        fp.write_u64(self.virt[0]);
        fp.write_u64(self.virt[1]);
        fp.write_u64(self.rho[0]);
        fp.write_u64(self.rho[1]);
        fp.write_u64(self.sigma[0]);
        fp.write_u64(self.sigma[1]);
        match self.output {
            None => fp.write_u8(0),
            Some(out) => {
                fp.write_u8(1);
                fp.write_bool(out.role == Role::Leader);
                fp.write_usize(out.cw_port.index());
            }
        }
        // Resampler state is behaviourally relevant (Proposition 19): two
        // nodes that agree on counters but not on RNG state may diverge.
        match &self.resampler {
            None => fp.write_u8(0),
            Some(rng) => {
                fp.write_u8(1);
                for word in rng.to_state() {
                    fp.write_u64(word);
                }
            }
        }
        fp.finish()
    }
}

/// Whether every node of `nodes` has decided and their CW ports form one
/// consistent orientation of `spec`: each claimed CW port leads to the
/// clockwise neighbour, or each leads counterclockwise, the same global
/// orientation mirrored (Theorem 2 asks only for consistency).
#[must_use]
pub fn orientation_consistent(spec: &RingSpec, nodes: &[Alg3Node]) -> bool {
    let along = |port: fn(&RingSpec, usize) -> Port| {
        (0..)
            .zip(nodes)
            .all(|(i, n)| n.output().map(|o| o.cw_port) == Some(port(spec, i)))
    };
    along(RingSpec::cw_port) || along(RingSpec::ccw_port)
}

impl fmt::Display for Alg3Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "alg3(id={}, ρ=[{}, {}], σ=[{}, {}])",
            self.id, self.rho[0], self.rho[1], self.sigma[0], self.sigma[1]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use co_net::{Budget, Direction, Outcome, SchedulerKind, Simulation};

    fn run(
        spec: &RingSpec,
        scheme: IdScheme,
        kind: SchedulerKind,
        seed: u64,
    ) -> Simulation<Pulse, Alg3Node> {
        let nodes = (0..spec.len())
            .map(|i| Alg3Node::new(spec.id(i), scheme))
            .collect();
        let mut sim = Simulation::new(spec.wiring(), nodes, kind.build(seed));
        let report = sim.run(Budget::default());
        assert_eq!(report.outcome, Outcome::Quiescent, "{kind} did not quiesce");
        sim
    }

    #[test]
    fn improved_scheme_on_oriented_ring() {
        let spec = RingSpec::oriented(vec![2, 7, 4]);
        let sim = run(&spec, IdScheme::Improved, SchedulerKind::Fifo, 0);
        assert_eq!(sim.node(1).output().unwrap().role, Role::Leader);
        assert_eq!(sim.node(0).output().unwrap().role, Role::NonLeader);
        assert_eq!(sim.node(2).output().unwrap().role, Role::NonLeader);
        assert!(orientation_consistent(&spec, sim.nodes()));
        assert_eq!(sim.stats().total_sent, 3 * (2 * 7 + 1));
    }

    #[test]
    fn doubled_scheme_complexity() {
        let spec = RingSpec::oriented(vec![2, 7, 4]);
        let sim = run(&spec, IdScheme::Doubled, SchedulerKind::Fifo, 0);
        assert_eq!(sim.stats().total_sent, 3 * (4 * 7 - 1));
        assert_eq!(sim.node(1).output().unwrap().role, Role::Leader);
    }

    #[test]
    fn all_port_layouts_n3() {
        // Sweep every flip combination of a 3-ring: the algorithm must work
        // for all assignments of the nodes' ports.
        for mask in 0u8..8 {
            let flips = (0..3).map(|i| mask >> i & 1 == 1).collect();
            let spec = RingSpec::with_flips(vec![3, 9, 5], flips);
            for scheme in [IdScheme::Doubled, IdScheme::Improved] {
                let sim = run(&spec, scheme, SchedulerKind::Random, u64::from(mask));
                assert_eq!(
                    sim.node(1).output().unwrap().role,
                    Role::Leader,
                    "mask {mask} scheme {scheme}"
                );
                for i in [0usize, 2] {
                    assert_eq!(
                        sim.node(i).output().unwrap().role,
                        Role::NonLeader,
                        "mask {mask} node {i}"
                    );
                }
                assert!(
                    orientation_consistent(&spec, sim.nodes()),
                    "mask {mask} scheme {scheme}"
                );
                assert_eq!(
                    Some(sim.stats().total_sent),
                    scheme.predicted_messages(3, 9),
                    "mask {mask} scheme {scheme}"
                );
            }
        }
    }

    #[test]
    fn orientation_agrees_with_busier_direction() {
        // In the improved scheme the direction of ℓ's Port_1 carries
        // ID_max + 1 pulses per node and the other ID_max; every node must
        // label ports accordingly.
        let spec = RingSpec::with_flips(vec![5, 2, 8, 3], vec![true, false, true, true]);
        let sim = run(&spec, IdScheme::Improved, SchedulerKind::Lifo, 1);
        assert!(orientation_consistent(&spec, sim.nodes()));
        for i in 0..4 {
            let node = sim.node(i);
            let [r0, r1] = node.rho();
            assert_eq!(r0 + r1, 2 * 8 + 1, "node {i} total receives");
            assert_ne!(r0, r1, "asymmetry is what orients the ring");
        }
    }

    #[test]
    fn single_node_ring_stabilizes() {
        let spec = RingSpec::oriented(vec![3]);
        let sim = run(&spec, IdScheme::Improved, SchedulerKind::Fifo, 0);
        let out = sim.node(0).output().expect("decided");
        assert_eq!(out.role, Role::Leader);
        assert_eq!(sim.stats().total_sent, 2 * 3 + 1);
    }

    #[test]
    fn two_node_ring_with_flip() {
        let spec = RingSpec::with_flips(vec![2, 6], vec![true, false]);
        for kind in SchedulerKind::ALL {
            let sim = run(&spec, IdScheme::Improved, kind, 9);
            assert_eq!(sim.node(1).output().unwrap().role, Role::Leader, "{kind}");
            assert_eq!(
                sim.node(0).output().unwrap().role,
                Role::NonLeader,
                "{kind}"
            );
            assert!(orientation_consistent(&spec, sim.nodes()), "{kind}");
        }
    }

    #[test]
    fn resampling_preserves_election_and_uniquifies_ids() {
        // Proposition 19 on a ring with duplicate IDs below the max.
        let spec = RingSpec::oriented(vec![4, 4, 9, 4, 4]);
        let nodes = (0..spec.len())
            .map(|i| Alg3Node::new(spec.id(i), IdScheme::Improved).with_resampling(1000 + i as u64))
            .collect();
        let mut sim: Simulation<Pulse, Alg3Node> =
            Simulation::new(spec.wiring(), nodes, SchedulerKind::Random.build(5));
        let report = sim.run(Budget::default());
        assert_eq!(report.outcome, Outcome::Quiescent);
        assert_eq!(sim.node(2).output().unwrap().role, Role::Leader);
        // The max-ID node never resamples (min ρ never exceeds its ID by
        // construction... it does reach ID_max+1 on one side only).
        assert_eq!(sim.node(2).id(), 9);
    }

    #[test]
    fn virtual_id_schemes() {
        assert_eq!(IdScheme::Doubled.virtual_id(5, 0), Ok(9));
        assert_eq!(IdScheme::Doubled.virtual_id(5, 1), Ok(10));
        assert_eq!(IdScheme::Improved.virtual_id(5, 0), Ok(5));
        assert_eq!(IdScheme::Improved.virtual_id(5, 1), Ok(6));
        // The largest accepted IDs still fit.
        assert_eq!(IdScheme::Improved.virtual_id(u64::MAX - 1, 1), Ok(u64::MAX));
        assert_eq!(
            IdScheme::Doubled.virtual_id(u64::MAX / 2, 1),
            Ok(u64::MAX - 1)
        );
    }

    #[test]
    fn ids_whose_virtual_ids_overflow_are_refused() {
        let improved = IdScheme::Improved;
        assert_eq!(improved.check_ids(&[1, u64::MAX - 1]), Ok(()));
        let e = improved
            .check_ids(&[1, u64::MAX])
            .expect_err("ID^(1) = 2^64");
        assert_eq!(
            e,
            InvalidId::TooLarge {
                id: u64::MAX,
                scheme: improved
            }
        );
        assert!(e.to_string().contains("too large"), "{e}");
        let doubled = IdScheme::Doubled;
        assert_eq!(doubled.check_ids(&[u64::MAX / 2]), Ok(()));
        assert!(doubled.check_ids(&[1, 1 << 63]).is_err());
    }

    #[test]
    fn virtual_id_refuses_instead_of_wrapping() {
        let e = IdScheme::Doubled
            .virtual_id(1 << 63, 0)
            .expect_err("2·2^63 − 1 is not a u64");
        assert!(e.to_string().contains("too large"), "{e}");
    }

    #[test]
    fn id_zero_is_refused_under_both_schemes() {
        for scheme in [IdScheme::Doubled, IdScheme::Improved] {
            let want = InvalidId::Zero { scheme };
            assert_eq!(scheme.check_ids(&[3, 0, 5]), Err(want));
            // Doubled: 2·0 − 1 would wrap to u64::MAX; it is refused.
            assert_eq!(scheme.virtual_id(0, 0), Err(want));
            assert_eq!(scheme.virtual_id(0, 1), Err(want));
            assert!(want.to_string().contains("positive"), "{want}");
        }
    }

    #[test]
    fn solitude_delivers_the_first_sent_pulse_first() {
        // One node: on_start sends CCW from Port_0 (seq 0), then CW from
        // Port_1 (seq 1). Every send has its own seq, so the Definition-21
        // CW-first tie-break never applies: Solitude delivers the CCW
        // pulse first, exactly as Fifo does.
        let spec = RingSpec::oriented(vec![4]);
        for kind in [SchedulerKind::Solitude, SchedulerKind::Fifo] {
            let node = Alg3Node::new(4, IdScheme::Improved);
            let mut sim: Simulation<Pulse, Alg3Node> =
                Simulation::new(spec.wiring(), vec![node], kind.build(0));
            let first = sim.step().expect("two pulses in flight");
            assert_eq!(
                (first.seq, first.direction),
                (0, Some(Direction::Ccw)),
                "{kind}"
            );
        }
    }

    #[test]
    fn predictions_that_overflow_are_none() {
        assert_eq!(IdScheme::Doubled.predicted_messages(3, 9), Some(3 * 35));
        assert_eq!(IdScheme::Improved.predicted_messages(3, 9), Some(3 * 19));
        assert_eq!(IdScheme::Improved.predicted_messages(2, u64::MAX / 2), None);
        assert_eq!(
            IdScheme::Improved.predicted_messages(1, u64::MAX / 2),
            Some(u64::MAX)
        );
        assert_eq!(
            IdScheme::Doubled.predicted_messages(1, u64::MAX / 4 + 1),
            None
        );
        assert_eq!(IdScheme::Improved.predicted_messages(1, u64::MAX), None);
    }

    #[test]
    #[should_panic(expected = "ID 0 is not a positive integer")]
    fn rejects_zero_id() {
        let _ = Alg3Node::new(0, IdScheme::Improved);
    }
}
