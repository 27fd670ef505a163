//! The lower bound, hands on (paper §6): solitude patterns, Lemma 22's
//! uniqueness, Corollary 24's pigeonhole, and Theorem 20's witness ring.
//!
//! ```sh
//! cargo run --example lower_bound
//! ```

use content_oblivious::core::lower_bound::{
    lower_bound_messages, max_prefix_group, patterns_unique, solitude_pattern_alg2,
    theorem20_witness,
};
use content_oblivious::core::registry::Alg2Def;
use content_oblivious::core::runner;
use content_oblivious::core::runner::RunOptions;
use content_oblivious::net::SchedulerKind;

fn main() {
    // --- Definition 21: what a node does when it is alone. ---------------
    println!("solitude patterns of Algorithm 2 (0 = CW pulse, 1 = CCW pulse):");
    for id in [1u64, 2, 4, 7] {
        let p = solitude_pattern_alg2(id).expect("terminates");
        println!("  ID {id}: {p}");
    }
    println!("the pattern of ID i is 0^i 1^(i+1): the node hears its own ID in unary.\n");

    // --- Lemma 22: distinct IDs, distinct patterns. -----------------------
    let k = 128u64;
    let patterns: Vec<_> = (1..=k)
        .map(|id| solitude_pattern_alg2(id).expect("terminates"))
        .collect();
    println!(
        "Lemma 22 check over IDs 1..={k}: unique = {}\n",
        patterns_unique(&patterns)
    );

    // --- Corollary 24: many patterns share a long prefix. -----------------
    for n in [2usize, 4, 8] {
        let (s, group) = max_prefix_group(&patterns, n);
        let ids: Vec<u64> = group.iter().map(|&i| i as u64 + 1).collect();
        let bound = (k / n as u64).ilog2();
        println!(
            "n={n}: IDs {ids:?} share a prefix of length {s} (pigeonhole guarantees ≥ {bound})"
        );
    }

    // --- Theorem 20: the witness ring forces n·s pulses. ------------------
    println!("\nTheorem 20 witness rings (IDs drawn from 1..=k):");
    println!(
        "{:>6} {:>4} {:>12} {:>14} {:>16}",
        "k", "n", "bound n⌊log⌋", "witness n·s", "Alg2 measured"
    );
    for (k, n) in [(64u64, 2usize), (64, 4), (128, 4), (128, 8)] {
        let (spec, s) = theorem20_witness(k, n);
        let report = runner::run::<Alg2Def>(&spec, &RunOptions::new(SchedulerKind::Solitude, 0));
        println!(
            "{:>6} {:>4} {:>12} {:>14} {:>16}",
            k,
            n,
            lower_bound_messages(k, n as u64),
            n * s,
            report.total_messages,
        );
        assert!(report.total_messages >= (n * s) as u64);
    }
    println!("\nthe measured cost dominates n·s, which dominates the pigeonhole bound —");
    println!("and Theorem 4 says *no* algorithm can escape the log(ID_max/n) factor.");
}
