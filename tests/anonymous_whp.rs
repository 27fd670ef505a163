//! Theorem 3 / Lemma 18 / Proposition 19, empirically: anonymous rings
//! elect with high probability; sampled maxima are unique whp and of
//! polynomial magnitude; resampling leaves all IDs distinct whp.

use content_oblivious::core::anonymous::{elect_anonymous, success_rate, SamplingConfig};
use content_oblivious::core::runner::RunOptions;
use content_oblivious::core::{runner, IdScheme};
use content_oblivious::net::{RingSpec, SchedulerKind};
use std::collections::BTreeSet;

#[test]
fn success_rate_is_high_and_failures_track_tied_maxima() {
    let cfg = SamplingConfig::new(1.0).with_max_bits(12);
    let stats = success_rate(12, &cfg, &RunOptions::new(SchedulerKind::Random, 42), 100);
    // Theorem 3: success whp. With c = 1 and n = 12 the tie probability is
    // small; demand a comfortable margin rather than a tight constant.
    assert!(stats.rate() > 0.85, "success rate {} too low", stats.rate());
    // Lemma 18: the success events are exactly the unique-max events.
    assert_eq!(stats.successes, stats.unique_max);
}

#[test]
fn unique_max_implies_successful_election_always() {
    let cfg = SamplingConfig::new(1.0).with_max_bits(12);
    for seed in 0..60u64 {
        let r = elect_anonymous(9, &cfg, &RunOptions::new(SchedulerKind::Random, seed));
        assert!(r.quiescent, "seed {seed}");
        if r.unique_max {
            assert!(r.success, "seed {seed}: unique max must elect");
        }
    }
}

#[test]
fn id_magnitude_grows_with_n_as_lemma18_predicts() {
    // The max of n geometric samples grows like log n; the resulting ID
    // magnitude like poly(n). Compare means across n. (The 11-bit cap keeps
    // the heavy tail simulatable in debug builds without affecting the
    // comparison: both configurations share the cap.)
    let cfg = SamplingConfig::new(1.0).with_max_bits(11);
    let small = success_rate(4, &cfg, &RunOptions::new(SchedulerKind::Fifo, 7), 60).mean_id_max;
    let large = success_rate(64, &cfg, &RunOptions::new(SchedulerKind::Fifo, 7), 60).mean_id_max;
    assert!(
        large > 2.0 * small,
        "mean ID_max should grow with n: {small} vs {large}"
    );
}

#[test]
fn message_complexity_stays_polynomial(/* Theorem 3: n^{O(1)} */) {
    let cfg = SamplingConfig::new(0.5).with_max_bits(12);
    for n in [4usize, 16, 64] {
        let stats = success_rate(n, &cfg, &RunOptions::new(SchedulerKind::Random, 11), 20);
        // Messages per trial = n(2·ID_max + 1); with ID_max = n^{O(c²)} this
        // is polynomial. Enforce a generous concrete ceiling.
        let ceiling = (n as u64) * (1 << 14);
        assert!(
            stats.max_messages < ceiling,
            "n={n}: {} pulses exceeds polynomial ceiling {ceiling}",
            stats.max_messages
        );
    }
}

#[test]
fn proposition19_resampling_yields_distinct_ids_whp() {
    // Ring with many duplicate IDs below a large unique max; after the run,
    // resampled IDs should (usually) be pairwise distinct. We check a batch
    // of trials and require a strong majority to end fully distinct, and
    // every trial to keep a unique maximum and correct election.
    let mut distinct_trials = 0;
    let trials = 30;
    for seed in 0..trials {
        let ids = vec![3u64, 3, 3, 3, 500];
        let spec = RingSpec::oriented(ids);
        let (report, final_ids) = runner::run_alg3_resampling(
            &spec,
            IdScheme::Improved,
            &RunOptions::new(SchedulerKind::Random, seed),
        )
        .expect("IDs fit");
        assert!(report.report.reached_quiescence(), "seed {seed}");
        assert_eq!(report.report.leader, Some(4), "seed {seed}");
        assert_eq!(final_ids[4], 500, "seed {seed}: max keeps its ID");
        let set: BTreeSet<u64> = final_ids.iter().copied().collect();
        if set.len() == final_ids.len() {
            distinct_trials += 1;
        }
    }
    assert!(
        distinct_trials >= (trials * 8) / 10,
        "only {distinct_trials}/{trials} trials ended with distinct IDs"
    );
}
