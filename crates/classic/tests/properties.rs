//! Randomized tests of the classical baselines: unique (and for the
//! extrema-finding algorithms, maximal) leaders over random rings, seeds,
//! and adversaries; complexity envelopes.
//!
//! Inputs come from a seeded [`StdRng`] grid, keeping the suite offline and
//! reproducible from the printed case number.

use co_classic::runner::Baseline;
use co_core::runner::RunOptions;
use co_core::Role;
use co_net::{RingSpec, SchedulerKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

fn distinct_ids(rng: &mut StdRng) -> Vec<u64> {
    let k = rng.gen_range(1usize..=16);
    let mut set = BTreeSet::new();
    while set.len() < k {
        set.insert(rng.gen_range(1u64..=500));
    }
    let mut ids: Vec<u64> = set.into_iter().collect();
    // Shuffle positions so the maximum is not always last.
    for i in (1..ids.len()).rev() {
        let j = rng.gen_range(0..=i);
        ids.swap(i, j);
    }
    ids
}

/// Every baseline elects exactly one leader under every adversary, and
/// the extrema-finding ones elect the maximum.
#[test]
fn baselines_elect_uniquely() {
    for case in 0u64..12 {
        for kind in SchedulerKind::ALL {
            for baseline in Baseline::ALL {
                let mut rng = StdRng::seed_from_u64(0xC1A5 + case);
                let ids = distinct_ids(&mut rng);
                let seed = rng.gen_range(0u64..500);
                let spec = RingSpec::oriented(ids);
                let report = baseline.run(&spec, &RunOptions::new(kind, seed));
                let leaders = report.roles.iter().filter(|r| **r == Role::Leader).count();
                assert_eq!(leaders, 1, "case {case}: {baseline} under {kind}");
                if baseline.elects_max() {
                    assert_eq!(report.leader, Some(spec.max_position()));
                }
            }
        }
    }
}

/// Chang-Roberts' exact cost on monotone rings matches the closed
/// forms: descending = n(n+1)/2 + n, ascending = 2n + (n-1).
#[test]
fn chang_roberts_monotone_cost() {
    for n in 1u64..=64 {
        let desc = RingSpec::oriented((1..=n).rev().collect());
        let report = Baseline::ChangRoberts.run(&desc, &RunOptions::new(SchedulerKind::Fifo, 0));
        assert_eq!(report.total_messages, n * (n + 1) / 2 + n);

        let asc = RingSpec::oriented((1..=n).collect());
        let report = Baseline::ChangRoberts.run(&asc, &RunOptions::new(SchedulerKind::Fifo, 0));
        assert_eq!(report.total_messages, 2 * n + (n - 1));
    }
}

/// The O(n log n) algorithms never exceed their textbook envelopes.
#[test]
fn log_algorithms_stay_within_envelopes() {
    for case in 0u64..96 {
        let mut rng = StdRng::seed_from_u64(0x10C0 + case);
        let ids = distinct_ids(&mut rng);
        let seed = rng.gen_range(0u64..200);
        let n = ids.len() as u64;
        let log_n = (n as f64).log2().max(1.0);
        let spec = RingSpec::oriented(ids);
        let hs = Baseline::HirschbergSinclair
            .run(&spec, &RunOptions::new(SchedulerKind::Random, seed))
            .total_messages;
        assert!(hs as f64 <= 8.0 * n as f64 * (1.0 + log_n) + n as f64 + 4.0);
        let peterson = Baseline::Peterson
            .run(&spec, &RunOptions::new(SchedulerKind::Random, seed))
            .total_messages;
        assert!(peterson as f64 <= 2.2 * n as f64 * log_n + 3.0 * n as f64 + 4.0);
        let franklin = Baseline::Franklin
            .run(&spec, &RunOptions::new(SchedulerKind::Random, seed))
            .total_messages;
        assert!(franklin as f64 <= 2.0 * n as f64 * (log_n + 1.0) + 2.0 * n as f64 + 4.0);
    }
}
