//! Randomized tests: the paper's theorems quantified over random ring
//! sizes, ID assignments, port layouts, schedulers, and seeds.
//!
//! Inputs are drawn from a seeded [`StdRng`] grid rather than a property
//! framework (the build is fully offline), so every failure reproduces from
//! the printed case number.

use content_oblivious::core::invariants::Alg2MonitorObserver;
use content_oblivious::core::registry::{Alg1Def, Alg2Def};
use content_oblivious::core::runner::RunOptions;
use content_oblivious::core::{
    anonymous::{sample_ids, SamplingConfig},
    lower_bound, runner, IdScheme, Role,
};
use content_oblivious::net::{Outcome, RingSpec, SchedulerKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// A set of 1..=12 distinct positive IDs (≤ 200 to keep runs fast), in
/// shuffled position order.
fn distinct_ids(rng: &mut StdRng) -> Vec<u64> {
    let k = rng.gen_range(1usize..=12);
    let mut set = BTreeSet::new();
    while set.len() < k {
        set.insert(rng.gen_range(1u64..=200));
    }
    let mut ids: Vec<u64> = set.into_iter().collect();
    for i in (1..ids.len()).rev() {
        let j = rng.gen_range(0..=i);
        ids.swap(i, j);
    }
    ids
}

fn scheduler_for(case: u64) -> SchedulerKind {
    SchedulerKind::ALL[case as usize % SchedulerKind::ALL.len()]
}

/// Theorem 1, universally: Algorithm 2 quiescently terminates, elects
/// the maximum, and sends exactly n(2·ID_max + 1) pulses.
#[test]
fn theorem1_universal() {
    for case in 0u64..64 {
        let mut rng = StdRng::seed_from_u64(0x7E01 + case);
        let spec = RingSpec::oriented(distinct_ids(&mut rng));
        let kind = scheduler_for(case);
        let seed = rng.gen_range(0u64..1000);
        let n = spec.len() as u64;
        let id_max = spec.id_max();
        let report = runner::run::<Alg2Def>(&spec, &RunOptions::new(kind, seed));
        assert_eq!(report.outcome, Outcome::QuiescentTerminated, "case {case}");
        assert!(report.validate(&spec).is_ok(), "case {case}");
        assert_eq!(report.total_messages, n * (2 * id_max + 1), "case {case}");
    }
}

/// Lemmas 6-12 and 17 hold after every delivery of Algorithm 2.
#[test]
fn alg2_invariants_universal() {
    for case in 0u64..64 {
        let mut rng = StdRng::seed_from_u64(0x7E02 + case);
        let spec = RingSpec::oriented(distinct_ids(&mut rng));
        let kind = scheduler_for(case);
        let seed = rng.gen_range(0u64..1000);
        let result = runner::run_monitored::<Alg2Def, _>(
            &spec,
            &RunOptions::new(kind, seed),
            Alg2MonitorObserver::new(),
        );
        assert!(result.is_ok(), "case {case}: violation: {:?}", result.err());
    }
}

/// Theorem 2, universally: Algorithm 3 (improved) elects + orients any
/// port layout with exactly n(2·ID_max + 1) pulses.
#[test]
fn theorem2_universal() {
    for case in 0u64..64 {
        let mut rng = StdRng::seed_from_u64(0x7E03 + case);
        let ids = distinct_ids(&mut rng);
        let flips: Vec<bool> = (0..ids.len()).map(|_| rng.gen::<bool>()).collect();
        let kind = scheduler_for(case);
        let seed = rng.gen_range(0u64..1000);
        let spec = RingSpec::with_flips(ids, flips);
        let n = spec.len() as u64;
        let id_max = spec.id_max();
        let out = runner::run_alg3(&spec, IdScheme::Improved, &RunOptions::new(kind, seed))
            .expect("IDs fit");
        assert_eq!(out.report.outcome, Outcome::Quiescent, "case {case}");
        assert!(out.report.validate(&spec).is_ok(), "case {case}");
        assert!(out.orientation_consistent, "case {case}");
        assert_eq!(
            out.report.total_messages,
            n * (2 * id_max + 1),
            "case {case}"
        );
    }
}

/// Proposition 15, universally: the doubled scheme costs n(4·ID_max − 1).
#[test]
fn proposition15_universal() {
    for case in 0u64..64 {
        let mut rng = StdRng::seed_from_u64(0x7E04 + case);
        let spec = RingSpec::oriented(distinct_ids(&mut rng));
        let seed = rng.gen_range(0u64..1000);
        let n = spec.len() as u64;
        let id_max = spec.id_max();
        let out = runner::run_alg3(
            &spec,
            IdScheme::Doubled,
            &RunOptions::new(SchedulerKind::Random, seed),
        )
        .expect("IDs fit");
        assert!(out.report.validate(&spec).is_ok(), "case {case}");
        assert_eq!(
            out.report.total_messages,
            n * (4 * id_max - 1),
            "case {case}"
        );
    }
}

/// Lemma 22, empirically: solitude patterns of distinct IDs differ.
#[test]
fn lemma22_universal() {
    for case in 0u64..64 {
        let mut rng = StdRng::seed_from_u64(0x7E05 + case);
        let k = rng.gen_range(2usize..=8);
        let mut set = BTreeSet::new();
        while set.len() < k {
            set.insert(rng.gen_range(1u64..=300));
        }
        let patterns: Vec<_> = set
            .iter()
            .map(|&id| lower_bound::solitude_pattern_alg2(id).expect("terminates"))
            .collect();
        assert!(lower_bound::patterns_unique(&patterns), "case {case}");
    }
}

/// Theorem 4 vs Theorem 1: the measured complexity of Algorithm 2 always
/// dominates the lower bound n⌊log(ID_max/n)⌋.
#[test]
fn upper_dominates_lower_bound() {
    for case in 0u64..64 {
        let mut rng = StdRng::seed_from_u64(0x7E06 + case);
        let spec = RingSpec::oriented(distinct_ids(&mut rng));
        let seed = rng.gen_range(0u64..100);
        let n = spec.len() as u64;
        let id_max = spec.id_max();
        if id_max < n {
            continue;
        }
        let report = runner::run::<Alg2Def>(&spec, &RunOptions::new(SchedulerKind::Random, seed));
        let lower = lower_bound::lower_bound_messages(id_max, n);
        assert!(report.total_messages >= lower, "case {case}");
    }
}

/// Algorithm 4's sampling is always positive, reproducible, and bounded
/// by the cap.
#[test]
fn algorithm4_sampling_sound() {
    for case in 0u64..64 {
        let mut rng = StdRng::seed_from_u64(0x7E07 + case);
        let n = rng.gen_range(1usize..=64);
        let seed = rng.gen_range(0u64..10_000);
        let cfg = SamplingConfig::new(1.0).with_max_bits(16);
        let a = sample_ids(n, &cfg, seed);
        let b = sample_ids(n, &cfg, seed);
        assert_eq!(&a, &b, "case {case}");
        assert!(
            a.iter().all(|&id| (1..=(1u64 << 16)).contains(&id)),
            "case {case}"
        );
    }
}

/// Exactly one leader in every Algorithm 1 run with distinct IDs, and it
/// is the maximum (also under duplicated low IDs, Lemma 16 keeps the
/// unique maximum winning).
#[test]
fn alg1_unique_max_wins_with_duplicates() {
    for case in 0u64..64 {
        let mut rng = StdRng::seed_from_u64(0x7E08 + case);
        let k = rng.gen_range(1usize..=10);
        let mut ids: Vec<u64> = (0..k).map(|_| rng.gen_range(1u64..=50)).collect();
        let kind = scheduler_for(case);
        let seed = rng.gen_range(0u64..1000);
        // Force a unique maximum by adding a fresh largest ID.
        ids.push(51 + seed % 20);
        let spec = RingSpec::oriented(ids);
        let report = runner::run::<Alg1Def>(&spec, &RunOptions::new(kind, seed));
        assert_eq!(report.outcome, Outcome::Quiescent, "case {case}");
        let leaders: Vec<usize> = report
            .roles
            .iter()
            .enumerate()
            .filter(|(_, r)| **r == Role::Leader)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(leaders, vec![spec.len() - 1], "case {case}");
        assert_eq!(
            report.total_messages,
            spec.len() as u64 * spec.id_max(),
            "case {case}"
        );
    }
}
