//! The adversary gauntlet: every algorithm against every scheduler.
//!
//! The paper's guarantees are `∀ schedule`; this example makes the
//! quantifier tangible by running Algorithms 1–3 under the whole adversary
//! family (FIFO, anti-FIFO, random, round-robin, direction starvation,
//! congestion) and printing the per-schedule outcomes — identical leaders
//! and identical exact message counts every time, per Theorems 1 and 2.
//!
//! ```sh
//! cargo run --example adversary_gauntlet
//! ```

use content_oblivious::core::registry::{Alg1Def, Alg2Def};
use content_oblivious::core::runner::RunOptions;
use content_oblivious::core::{runner, IdScheme};
use content_oblivious::net::{RingSpec, SchedulerKind};

fn main() {
    let ids = vec![12u64, 30, 7, 19, 4, 25];
    let oriented = RingSpec::oriented(ids.clone());
    let scrambled = RingSpec::with_flips(ids, vec![true, false, false, true, true, false]);

    println!(
        "{:<16} | {:^21} | {:^21} | {:^21}",
        "", "Algorithm 1", "Algorithm 2", "Algorithm 3 (improved)"
    );
    println!(
        "{:<16} | {:>6} {:>8} {:>5} | {:>6} {:>8} {:>5} | {:>6} {:>8} {:>5}",
        "scheduler", "leader", "pulses", "ok", "leader", "pulses", "ok", "leader", "pulses", "ok"
    );
    println!("{}", "-".repeat(88));

    for kind in SchedulerKind::ALL {
        let a1 = runner::run::<Alg1Def>(&oriented, &RunOptions::new(kind, 1));
        let a2 = runner::run::<Alg2Def>(&oriented, &RunOptions::new(kind, 1));
        let a3 = runner::run_alg3(&scrambled, IdScheme::Improved, &RunOptions::new(kind, 1));

        let ok1 =
            a1.validate(&oriented).is_ok() && a1.total_messages == a1.predicted_messages.unwrap();
        let ok2 = a2.quiescently_terminated()
            && a2.validate(&oriented).is_ok()
            && a2.total_messages == a2.predicted_messages.unwrap();
        let ok3 = a3.orientation_consistent
            && a3.report.validate(&scrambled).is_ok()
            && a3.report.total_messages == a3.report.predicted_messages.unwrap();

        println!(
            "{:<16} | {:>6} {:>8} {:>5} | {:>6} {:>8} {:>5} | {:>6} {:>8} {:>5}",
            kind.to_string(),
            a1.leader.map_or(-1, |l| l as i64),
            a1.total_messages,
            ok1,
            a2.leader.map_or(-1, |l| l as i64),
            a2.total_messages,
            ok2,
            a3.report.leader.map_or(-1, |l| l as i64),
            a3.report.total_messages,
            ok3,
        );
        assert!(ok1 && ok2 && ok3, "{kind} broke an invariant");
    }

    println!("{}", "-".repeat(88));
    println!("every adversary produced the same leader and the same exact pulse count.");
}
