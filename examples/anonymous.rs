//! Anonymous rings (Theorem 3): identical nodes with no IDs, each with its
//! own randomness, elect a leader and orient the ring with high probability.
//!
//! Runs Algorithm 4's geometric ID sampling followed by Algorithm 3 and
//! reports the empirical success rate and ID-magnitude statistics that
//! Lemma 18 predicts (`ID_max` unique whp, of size `n^{Θ(c)}..n^{O(c²)}`).
//!
//! ```sh
//! cargo run --example anonymous
//! ```

use content_oblivious::core::anonymous::{elect_anonymous, success_rate, SamplingConfig};
use content_oblivious::core::runner::RunOptions;
use content_oblivious::net::SchedulerKind;

fn main() {
    // The 13-bit cap keeps the heavy geometric tail interactive; it is a
    // documented harness guard, not part of Algorithm 4.
    let cfg = SamplingConfig::new(1.0).with_max_bits(13);

    // One detailed trial.
    println!("--- one trial on an anonymous ring of n = 10 ---");
    let r = elect_anonymous(10, &cfg, &RunOptions::new(SchedulerKind::Random, 2024));
    println!("sampled IDs: {:?}", r.ids);
    println!(
        "ID_max = {} (unique: {}), messages = {}, success = {}",
        r.id_max, r.unique_max, r.messages, r.success
    );

    // Success rates across ring sizes: failure probability should shrink
    // polynomially in n (Theorem 3: success ≥ 1 − O(n^{-c})).
    println!("\n--- success rate over 100 trials per n (c = 1) ---");
    println!(
        "{:>6} {:>10} {:>12} {:>14} {:>14}",
        "n", "success", "unique max", "mean ID_max", "max messages"
    );
    for n in [4usize, 8, 16, 32, 64] {
        let stats = success_rate(n, &cfg, &RunOptions::new(SchedulerKind::Random, 1234), 100);
        println!(
            "{:>6} {:>9.1}% {:>11.1}% {:>14.1} {:>14}",
            n,
            100.0 * stats.rate(),
            100.0 * stats.unique_max as f64 / stats.trials as f64,
            stats.mean_id_max,
            stats.max_messages
        );
    }

    // Larger c buys a better success probability at the cost of larger IDs
    // (and hence more pulses): the Theorem 3 trade-off.
    println!("\n--- varying c at n = 16 (100 trials each) ---");
    println!(
        "{:>6} {:>10} {:>14} {:>14}",
        "c", "success", "mean ID_max", "max messages"
    );
    for c in [0.5f64, 1.0, 2.0] {
        let cfg = SamplingConfig::new(c).with_max_bits(14);
        let stats = success_rate(16, &cfg, &RunOptions::new(SchedulerKind::Random, 99), 100);
        println!(
            "{:>6.1} {:>9.1}% {:>14.1} {:>14}",
            c,
            100.0 * stats.rate(),
            stats.mean_id_max,
            stats.max_messages
        );
    }
}
