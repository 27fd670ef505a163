//! The classical baselines as one enumeration, run through
//! `co_core::runner::run` like the paper's algorithms so the bench harness
//! can compare message complexities directly (experiment E8).

use crate::registry::{ChangRobertsDef, FranklinDef, HirschbergSinclairDef, PetersonDef};
use co_core::election::ElectionReport;
use co_core::registry::Envelopes;
use co_core::runner::{run, RunOptions};
use co_net::RingSpec;
use std::fmt;

/// The classical baselines, enumerable for sweeps.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Baseline {
    /// Chang–Roberts, unidirectional `O(n²)`.
    ChangRoberts,
    /// Hirschberg–Sinclair, bidirectional `O(n log n)`.
    HirschbergSinclair,
    /// Peterson, unidirectional `O(n log n)`.
    Peterson,
    /// Franklin, bidirectional `O(n log n)`.
    Franklin,
}

impl Baseline {
    /// All baselines in a fixed order.
    pub const ALL: [Baseline; 4] = [
        Baseline::ChangRoberts,
        Baseline::HirschbergSinclair,
        Baseline::Peterson,
        Baseline::Franklin,
    ];

    /// Runs this baseline on the given ring. Content-carrying messages
    /// live in [`Envelopes`], their one queue backend.
    #[must_use]
    pub fn run(self, spec: &RingSpec, opts: &RunOptions<Envelopes>) -> ElectionReport {
        match self {
            Baseline::ChangRoberts => run::<ChangRobertsDef>(spec, opts),
            Baseline::HirschbergSinclair => run::<HirschbergSinclairDef>(spec, opts),
            Baseline::Peterson => run::<PetersonDef>(spec, opts),
            Baseline::Franklin => run::<FranklinDef>(spec, opts),
        }
    }

    /// Whether this baseline is guaranteed to elect the maximum-ID node
    /// (Peterson elects a unique leader, but not necessarily the maximum).
    #[must_use]
    pub fn elects_max(self) -> bool {
        !matches!(self, Baseline::Peterson)
    }
}

impl fmt::Display for Baseline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Baseline::ChangRoberts => "chang-roberts",
            Baseline::HirschbergSinclair => "hirschberg-sinclair",
            Baseline::Peterson => "peterson",
            Baseline::Franklin => "franklin",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use co_net::SchedulerKind;

    #[test]
    fn all_baselines_elect_one_leader() {
        let spec = RingSpec::oriented(vec![12, 5, 9, 3, 17, 8]);
        for baseline in Baseline::ALL {
            for kind in SchedulerKind::ALL {
                let report = baseline.run(&spec, &RunOptions::new(kind, 21));
                let leader = report
                    .leader
                    .unwrap_or_else(|| panic!("{baseline} under {kind}: no unique leader"));
                if baseline.elects_max() {
                    assert_eq!(leader, 4, "{baseline} under {kind}");
                }
            }
        }
    }

    #[test]
    fn complexity_ordering_on_descending_ring() {
        // On CR's worst case, the O(n log n) algorithms send fewer messages.
        let n = 64u64;
        let spec = RingSpec::oriented((1..=n).rev().collect());
        let fifo = RunOptions::new(SchedulerKind::Fifo, 0);
        let cr = Baseline::ChangRoberts.run(&spec, &fifo).total_messages;
        for baseline in [
            Baseline::HirschbergSinclair,
            Baseline::Peterson,
            Baseline::Franklin,
        ] {
            let m = baseline.run(&spec, &fifo).total_messages;
            assert!(m < cr, "{baseline}: {m} >= CR's {cr}");
        }
    }

    #[test]
    fn degenerate_rings() {
        for n in [1usize, 2] {
            let spec = RingSpec::oriented((1..=n as u64).collect());
            for baseline in Baseline::ALL {
                let report = baseline.run(&spec, &RunOptions::new(SchedulerKind::Random, 13));
                assert!(report.leader.is_some(), "{baseline} n={n}");
            }
        }
    }
}
