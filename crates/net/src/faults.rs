//! Model-violating channel faults: drops, duplications, injections.
//!
//! The paper's model (§2) states *"Pulses cannot be dropped or injected by
//! the channel"* — and its algorithms are exactly as fragile as that
//! assumption implies: a single lost or spurious pulse permanently corrupts
//! the counter-based reasoning of Lemmas 6–12. This module lets the
//! harness *violate* the model deliberately and observe the consequences
//! (experiment E11), empirically demonstrating that the assumption is
//! load-bearing rather than cosmetic:
//!
//! * **drop** — the algorithms deadlock short of their target counts: the
//!   network reaches quiescence with nodes still waiting (Lemma 9's
//!   equivalence breaks);
//! * **duplicate / inject** — counters overshoot, violating Corollary 14
//!   and electing the wrong node or multiple nodes.
//!
//! Faults are scheduled by **global send sequence number**, which is
//! deterministic for a given scheduler and seed, making every fault
//! scenario reproducible.

use std::collections::BTreeSet;

/// A plan of channel faults to apply during a simulation.
///
/// ```rust
/// use co_net::faults::FaultPlan;
/// let plan = FaultPlan::new().drop_seq(7).duplicate_seq(12);
/// assert!(plan.should_drop(7));
/// assert!(!plan.should_drop(8));
/// assert!(plan.should_duplicate(12));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    drops: BTreeSet<u64>,
    duplicates: BTreeSet<u64>,
    /// The largest seq either set holds (0 for an empty plan): past it,
    /// [`FaultPlan::should_drop`] and [`FaultPlan::should_duplicate`]
    /// answer `false` from this one compare, without a set lookup.
    last: u64,
}

impl FaultPlan {
    /// An empty plan (no faults).
    #[must_use]
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Drop the message with global send sequence `seq` (it is counted as
    /// sent but never delivered).
    #[must_use]
    pub fn drop_seq(mut self, seq: u64) -> FaultPlan {
        self.drops.insert(seq);
        self.last = self.last.max(seq);
        self
    }

    /// Duplicate the message with global send sequence `seq` (the copy is
    /// enqueued right behind the original, as channel noise would).
    #[must_use]
    pub fn duplicate_seq(mut self, seq: u64) -> FaultPlan {
        self.duplicates.insert(seq);
        self.last = self.last.max(seq);
        self
    }

    /// Whether the given send should be dropped.
    #[inline]
    #[must_use]
    pub fn should_drop(&self, seq: u64) -> bool {
        seq <= self.last && self.drops.contains(&seq)
    }

    /// Whether the given send should be duplicated.
    #[inline]
    #[must_use]
    pub fn should_duplicate(&self, seq: u64) -> bool {
        seq <= self.last && self.duplicates.contains(&seq)
    }

    /// Whether the plan contains any fault.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.drops.is_empty() && self.duplicates.is_empty()
    }

    /// The largest send sequence number any fault in this plan triggers on,
    /// or `None` for an empty plan.
    ///
    /// Beyond the horizon the plan is inert: two configurations whose send
    /// counters both exceed it behave identically under this plan. The
    /// explorer uses this to keep fingerprint deduplication sound in the
    /// presence of faults — it mixes `min(send_seq, horizon + 1)` into the
    /// configuration fingerprint, so states that the plan could still
    /// distinguish are never merged, while the state space stays finite.
    #[must_use]
    pub fn horizon(&self) -> Option<u64> {
        (!self.is_empty()).then_some(self.last)
    }
}

/// Counters of faults actually applied during a run.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages silently discarded.
    pub dropped: u64,
    /// Spurious copies enqueued by duplication.
    pub duplicated: u64,
    /// Spurious messages injected via
    /// [`Simulation::inject`](crate::Simulation::inject).
    pub injected: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_builders() {
        let plan = FaultPlan::new().drop_seq(1).drop_seq(5).duplicate_seq(5);
        assert!(plan.should_drop(1));
        assert!(plan.should_drop(5));
        assert!(plan.should_duplicate(5));
        assert!(!plan.should_duplicate(1));
        assert!(!plan.is_empty());
        assert!(FaultPlan::new().is_empty());
        // Past the last fault, and on an empty plan, nothing fires.
        assert!(!plan.should_drop(6) && !plan.should_duplicate(u64::MAX));
        assert!(!FaultPlan::new().should_drop(0) && !FaultPlan::new().should_duplicate(0));
        // A fault at the largest seq is still found.
        assert!(FaultPlan::new().drop_seq(u64::MAX).should_drop(u64::MAX));
    }

    #[test]
    fn horizon_is_the_last_faulted_seq() {
        assert_eq!(FaultPlan::new().horizon(), None);
        assert_eq!(FaultPlan::new().drop_seq(3).horizon(), Some(3));
        assert_eq!(FaultPlan::new().duplicate_seq(9).horizon(), Some(9));
        assert_eq!(
            FaultPlan::new().drop_seq(4).duplicate_seq(2).horizon(),
            Some(4)
        );
    }
}
