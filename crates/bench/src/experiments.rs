//! Experiments E0–E22: one function per quantitative claim of the paper.
//!
//! See `DESIGN.md` §5 for the claim-to-experiment index and
//! `EXPERIMENTS.md` for recorded paper-vs-measured results.

use crate::table::Table;
use co_classic::defective::Defective;
use co_classic::registry::ChangRobertsDef;
use co_classic::runner::Baseline;
use co_classic::ChangRobertsNode;
use co_compose::pipeline::{elect_then_aggregate, elect_then_replicate, elect_then_ring_size};
use co_core::anonymous::SamplingConfig;
use co_core::invariants::{Alg2MonitorObserver, CwMonitorObserver};
use co_core::lower_bound::{
    lower_bound_messages, max_prefix_group, patterns_unique, solitude_pattern_alg2,
};
use co_core::registry::{
    Alg1Def, Alg2Def, ExploreDriver, ExploreProperties, ExploreRing, RingProtocol, UngatedDef,
};
use co_core::runner::{self, RunOptions};
use co_core::{IdAssignment, IdScheme, Role};
use co_net::explore::ExploreConfig;
use co_net::{Budget, Outcome, Protocol, RingSpec, SchedulerKind, Simulation};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;

/// A message count that may exceed a `u64` (a checked prediction).
fn count(messages: Option<u64>) -> String {
    messages.map_or_else(|| "> u64::MAX".to_owned(), |m| m.to_string())
}

/// The experiment catalogue.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Experiment {
    /// Classical algorithms break under full defectiveness.
    E0,
    /// Theorem 1: Algorithm 2's exact complexity `n(2·ID_max+1)`.
    E1,
    /// Corollary 13: Algorithm 1 converges to `n·ID_max`.
    E2,
    /// Proposition 15: Algorithm 3 (doubled) costs `n(4·ID_max−1)`.
    E3,
    /// Theorem 2: Algorithm 3 (improved) costs `n(2·ID_max+1)`.
    E4,
    /// Theorem 3 / Lemma 18: anonymous rings succeed whp.
    E5,
    /// Lemma 22: solitude patterns are unique.
    E6,
    /// Theorem 4/20: the `n⌊log(ID_max/n)⌋` lower bound vs measured.
    E7,
    /// §1.2: baselines vs the content-oblivious algorithm.
    E8,
    /// Corollary 5: composition end-to-end.
    E9,
    /// Lemmas 6–12/17: invariant monitors over a run matrix.
    E10,
    /// Ablation: remove Algorithm 2's CCW receive gate and watch it break.
    E11,
    /// Exhaustive model check: all schedules of tiny instances.
    E12,
    /// Model violations: dropped / duplicated pulses break the algorithms.
    E13,
    /// Corollary 5 full strength: classical algorithms simulated over pulses.
    E14,
    /// Snapshot explorer vs the reference: explored-state counts and dedup bytes.
    E15,
    /// Parallel frontier-sharded exploration: speedup grid and exhaustive
    /// fault model-checking.
    E16,
    /// Scaling: thousand-node rings under both queue backends, plus the
    /// million-pulse single-channel burst that motivates the counter store.
    E17,
    /// Incremental scheduler indexes: per-scheduler pick latency and the
    /// n = 5000 full scheduler-matrix wall time.
    E18,
    /// Virtual time: clock-on vs clock-off election throughput and the
    /// earliest-arrival scheduler under seeded latency.
    E19,
    /// Fleet mode: 10⁴ concurrent small-ring elections per cell through the
    /// fleet harness — jobs-invariant aggregates, fault behaviour, and
    /// elections/sec throughput.
    E21,
    /// Out-of-core exploration: exact vs mmap dedup backends
    /// (bytes-per-config and configs/sec), frontier spill, and checkpointed
    /// kill-and-resume equality.
    E22,
}

impl Experiment {
    /// All experiments in order.
    pub const ALL: [Experiment; 22] = [
        Experiment::E0,
        Experiment::E1,
        Experiment::E2,
        Experiment::E3,
        Experiment::E4,
        Experiment::E5,
        Experiment::E6,
        Experiment::E7,
        Experiment::E8,
        Experiment::E9,
        Experiment::E10,
        Experiment::E11,
        Experiment::E12,
        Experiment::E13,
        Experiment::E14,
        Experiment::E15,
        Experiment::E16,
        Experiment::E17,
        Experiment::E18,
        Experiment::E19,
        Experiment::E21,
        Experiment::E22,
    ];

    /// Parses `"e3"` / `"E3"` into the experiment.
    #[must_use]
    pub fn parse(s: &str) -> Option<Experiment> {
        let s = s.to_ascii_lowercase();
        Experiment::ALL
            .into_iter()
            .find(|e| e.to_string().to_ascii_lowercase() == s)
    }
}

impl fmt::Display for Experiment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Runs one experiment, fanning its internal `(n, seed, scheduler)` grid
/// across up to `jobs` worker threads where the experiment has one.
///
/// Every trial is seeded from its grid coordinates, so the produced table is
/// byte-identical for every `jobs` value (`0` means one worker per core).
#[must_use]
pub fn run_experiment_with(exp: Experiment, jobs: usize) -> Table {
    match exp {
        Experiment::E0 => e0_defective_sanity(),
        Experiment::E1 => e1_theorem1(),
        Experiment::E2 => e2_algorithm1(),
        Experiment::E3 => e3_prop15(),
        Experiment::E4 => e4_theorem2(),
        Experiment::E5 => e5_anonymous(jobs),
        Experiment::E6 => e6_solitude(),
        Experiment::E7 => e7_lower_bound(),
        Experiment::E8 => e8_baselines(jobs),
        Experiment::E9 => e9_composition(),
        Experiment::E10 => e10_invariants(jobs),
        Experiment::E11 => e11_ablation(),
        Experiment::E12 => e12_model_check(),
        Experiment::E13 => e13_model_violations(),
        Experiment::E14 => e14_universal_simulation(),
        Experiment::E15 => e15_explore_dedup(),
        Experiment::E16 => e16_parallel_explore(),
        Experiment::E17 => e17_scaling(jobs),
        Experiment::E18 => e18_sched_index(jobs),
        Experiment::E19 => e19_virtual_time(jobs),
        Experiment::E21 => e21_fleet(jobs),
        Experiment::E22 => e22_out_of_core(),
    }
}

/// E0 — classical election dies on fully defective channels.
fn e0_defective_sanity() -> Table {
    let mut t = Table::new(
        "E0 — fully defective channels break content-carrying election",
        "§2: no algorithm relying on message content survives total corruption",
        vec![
            "n",
            "reliable CR leader",
            "defective CR leaders",
            "defective msgs",
        ],
    );
    let mut all_dead = true;
    for n in [2usize, 4, 8, 16, 32, 64] {
        let spec = RingSpec::oriented((1..=n as u64).collect());
        let healthy = Baseline::ChangRoberts.run(&spec, &RunOptions::new(SchedulerKind::Random, 1));
        let nodes = ChangRobertsDef::nodes(&spec)
            .into_iter()
            .map(Defective::new)
            .collect();
        let mut sim: Simulation<co_classic::chang_roberts::CrMsg, _> =
            Simulation::new(spec.wiring(), nodes, SchedulerKind::Random.build(1));
        let report = sim.run(Budget::default());
        let leaders = (0..n)
            .filter(|&i| sim.node(i).output() == Some(Role::Leader))
            .count();
        all_dead &= leaders == 0;
        t.row(vec![
            n.to_string(),
            format!("{:?}", healthy.leader),
            leaders.to_string(),
            report.total_sent.to_string(),
        ]);
    }
    t.set_verdict(if all_dead {
        "corruption prevents every election; content-oblivious design is necessary"
    } else {
        "UNEXPECTED: some defective run elected a leader"
    });
    t
}

fn complexity_sweep<F, P>(mut t: Table, predict: fn(u64, u64) -> u64, run: F) -> Table
where
    F: Fn(&RingSpec, SchedulerKind, u64) -> (u64, bool, P),
    P: fmt::Display,
{
    let mut rng = StdRng::seed_from_u64(0xE1);
    let mut all_exact = true;
    for n in [1usize, 2, 4, 8, 16, 32, 64, 128] {
        for assignment in [
            IdAssignment::Contiguous,
            IdAssignment::Shuffled,
            IdAssignment::SingleBig {
                id_max: 4 * n as u64 + 17,
            },
        ] {
            let spec = RingSpec::oriented(assignment.generate(n, &mut rng));
            let id_max = spec.id_max();
            let predicted = predict(n as u64, id_max);
            // Measure under two contrasting adversaries.
            let mut measured = Vec::new();
            let mut ok = true;
            let mut extra = None;
            for kind in [
                SchedulerKind::Fifo,
                SchedulerKind::Lifo,
                SchedulerKind::Random,
            ] {
                let (msgs, valid, info) = run(&spec, kind, 7);
                measured.push(msgs);
                ok &= valid && msgs == predicted;
                extra = Some(info);
            }
            all_exact &= ok;
            t.row(vec![
                n.to_string(),
                assignment.to_string(),
                id_max.to_string(),
                predicted.to_string(),
                format!("{:?}", measured),
                extra.expect("ran at least once").to_string(),
                ok.to_string(),
            ]);
        }
    }
    t.set_verdict(if all_exact {
        "measured counts equal the paper's formula exactly, under every adversary"
    } else {
        "MISMATCH: some run deviates from the formula"
    });
    t
}

/// E1 — Theorem 1: Algorithm 2 sends exactly `n(2·ID_max + 1)` pulses.
fn e1_theorem1() -> Table {
    let t = Table::new(
        "E1 — Theorem 1: Algorithm 2 message complexity",
        "quiescently terminating election with exactly n(2·ID_max + 1) pulses",
        vec![
            "n",
            "assignment",
            "ID_max",
            "predicted",
            "measured (fifo/lifo/rand)",
            "outcome",
            "exact",
        ],
    );
    complexity_sweep(
        t,
        |n, id_max| n * (2 * id_max + 1),
        |spec, kind, seed| {
            let r = runner::run::<Alg2Def>(spec, &RunOptions::new(kind, seed));
            let valid = r.quiescently_terminated() && r.validate(spec).is_ok();
            (r.total_messages, valid, r.outcome)
        },
    )
}

/// E2 — Corollary 13: Algorithm 1 converges with `n·ID_max` pulses.
fn e2_algorithm1() -> Table {
    let t = Table::new(
        "E2 — Corollary 13: Algorithm 1 message complexity",
        "quiescent stabilization; every node sends and receives exactly ID_max pulses",
        vec![
            "n",
            "assignment",
            "ID_max",
            "predicted",
            "measured (fifo/lifo/rand)",
            "outcome",
            "exact",
        ],
    );
    complexity_sweep(
        t,
        |n, id_max| n * id_max,
        |spec, kind, seed| {
            let r = runner::run::<Alg1Def>(spec, &RunOptions::new(kind, seed));
            let valid = r.outcome == Outcome::Quiescent && r.validate(spec).is_ok();
            (r.total_messages, valid, r.outcome)
        },
    )
}

fn alg3_sweep(mut t: Table, scheme: IdScheme) -> Table {
    let mut rng = StdRng::seed_from_u64(0xE3);
    let mut all_exact = true;
    for n in [1usize, 2, 4, 8, 16, 32, 64] {
        let ids = IdAssignment::Shuffled.generate(n, &mut rng);
        let spec = RingSpec::random_flips(ids, &mut rng);
        let predicted = scheme
            .predicted_messages(n as u64, spec.id_max())
            .expect("IDs up to 64 fit");
        let out = runner::run_alg3(&spec, scheme, &RunOptions::new(SchedulerKind::Random, 3))
            .expect("IDs fit");
        let ok = out.report.validate(&spec).is_ok()
            && out.orientation_consistent
            && out.report.total_messages == predicted;
        all_exact &= ok;
        t.row(vec![
            n.to_string(),
            spec.id_max().to_string(),
            spec.flips().iter().filter(|&&f| f).count().to_string(),
            predicted.to_string(),
            out.report.total_messages.to_string(),
            out.orientation_consistent.to_string(),
            ok.to_string(),
        ]);
    }
    t.set_verdict(if all_exact {
        "election + orientation correct on every random port layout; counts exact"
    } else {
        "MISMATCH in some configuration"
    });
    t
}

/// E3 — Proposition 15: Algorithm 3 (doubled IDs) costs `n(4·ID_max − 1)`.
fn e3_prop15() -> Table {
    let t = Table::new(
        "E3 — Proposition 15: Algorithm 3 with doubled virtual IDs",
        "elects + orients non-oriented rings using n(4·ID_max − 1) pulses",
        vec![
            "n",
            "ID_max",
            "flipped ports",
            "predicted",
            "measured",
            "oriented",
            "exact",
        ],
    );
    alg3_sweep(t, IdScheme::Doubled)
}

/// E4 — Theorem 2: Algorithm 3 (improved IDs) costs `n(2·ID_max + 1)`.
fn e4_theorem2() -> Table {
    let t = Table::new(
        "E4 — Theorem 2: Algorithm 3 with improved virtual IDs",
        "elects + orients non-oriented rings using n(2·ID_max + 1) pulses",
        vec![
            "n",
            "ID_max",
            "flipped ports",
            "predicted",
            "measured",
            "oriented",
            "exact",
        ],
    );
    alg3_sweep(t, IdScheme::Improved)
}

/// E5 — Theorem 3 / Lemma 18: anonymous rings.
fn e5_anonymous(jobs: usize) -> Table {
    use co_core::anonymous::elect_anonymous;

    let mut t = Table::new(
        "E5 — Theorem 3: anonymous rings with randomness",
        "success probability 1 − O(n^-c); ID_max unique whp, n^Ω(c) ≤ ID_max ≤ n^O(c²)",
        vec![
            "n",
            "c",
            "trials",
            "success",
            "unique max",
            "ID_max (mean/p95/max)",
            "msgs (p95)",
        ],
    );
    let trials = 100u64;
    // The (c, n) grid, flattened to one work item per *trial*: every trial
    // is independently seeded from its coordinates, so items fan across
    // workers (even within a single heavy cell) without changing output.
    let cells: Vec<(f64, usize)> = [0.5f64, 1.0, 2.0]
        .iter()
        .flat_map(|&c| [4usize, 8, 16, 32, 64].map(|n| (c, n)))
        .collect();
    let items: Vec<(f64, usize, u64)> = cells
        .iter()
        .flat_map(|&(c, n)| (0..trials).map(move |trial| (c, n, trial)))
        .collect();
    let per_trial = crate::parallel::par_map(&items, jobs, |&(c, n, trial)| {
        // 14-bit cap: a documented harness guard keeping the geometric
        // tail's worst case at ~2M pulses per trial (n = 64).
        let cfg = SamplingConfig::new(c).with_max_bits(14);
        let r = elect_anonymous(
            n,
            &cfg,
            &RunOptions::new(
                SchedulerKind::Random,
                0xE5u64.wrapping_add(trial.wrapping_mul(0x2545_F491)),
            ),
        );
        (r.id_max, r.messages, r.success, r.unique_max)
    });
    let mut ok = true;
    for (&(c, n), chunk) in cells.iter().zip(per_trial.chunks(trials as usize)) {
        let id_maxes: Vec<u64> = chunk.iter().map(|r| r.0).collect();
        let messages: Vec<u64> = chunk.iter().map(|r| r.1).collect();
        let successes: u64 = chunk.iter().map(|r| u64::from(r.2)).sum();
        let unique: u64 = chunk.iter().map(|r| u64::from(r.3)).sum();
        ok &= successes == unique; // failures are exactly ties
        let ids = crate::stats::Summary::of_counts(&id_maxes);
        let msgs = crate::stats::Summary::of_counts(&messages);
        t.row(vec![
            n.to_string(),
            format!("{c:.1}"),
            trials.to_string(),
            format!("{:.1}%", 100.0 * successes as f64 / trials as f64),
            format!("{:.1}%", 100.0 * unique as f64 / trials as f64),
            format!("{:.0}/{:.0}/{:.0}", ids.mean, ids.p95, ids.max),
            format!("{:.0}", msgs.p95),
        ]);
    }
    t.set_verdict(if ok {
        "every failure coincides with a tied maximum (Lemma 18); success rises with c and n"
    } else {
        "UNEXPECTED: an election failed despite a unique maximum"
    });
    t
}

/// E6 — Lemma 22 / Definition 21: solitude patterns.
fn e6_solitude() -> Table {
    let mut t = Table::new(
        "E6 — Definition 21 / Lemma 22: solitude patterns",
        "each ID's solitude pattern is unique; Algorithm 2's is 0^ID 1^(ID+1)",
        vec!["ID", "pattern (CW=0, CCW=1)", "length", "= 2·ID+1"],
    );
    for id in [1u64, 2, 3, 5, 8, 13] {
        let p = solitude_pattern_alg2(id).expect("terminates");
        let display = if p.len() <= 27 {
            p.to_string()
        } else {
            format!("{}…", &p.to_string()[..27])
        };
        t.row(vec![
            id.to_string(),
            display,
            p.len().to_string(),
            (p.len() as u64 == 2 * id + 1).to_string(),
        ]);
    }
    let patterns: Vec<_> = (1..=512)
        .map(|id| solitude_pattern_alg2(id).expect("terminates"))
        .collect();
    t.set_verdict(format!(
        "patterns for IDs 1..=512 pairwise distinct: {}",
        patterns_unique(&patterns)
    ));
    t
}

/// E7 — Theorem 4/20: the lower bound vs the measured upper bound.
fn e7_lower_bound() -> Table {
    let mut t = Table::new(
        "E7 — Theorem 4/20: lower bound n·⌊log(ID_max/n)⌋ vs Algorithm 2",
        "any terminating content-oblivious election sends ≥ n⌊log(k/n)⌋ pulses",
        vec![
            "n",
            "ID_max = k",
            "lower bound",
            "Alg2 measured",
            "shared prefix (Cor.24 ≥)",
            "holds",
        ],
    );
    let mut all_hold = true;
    for n in [1u64, 2, 4, 8] {
        for exp in [8u32, 12, 16] {
            let id_max = 1u64 << exp;
            let mut ids: Vec<u64> = (1..n).collect();
            ids.push(id_max);
            let spec = RingSpec::oriented(ids);
            let measured = runner::run::<Alg2Def>(&spec, &RunOptions::new(SchedulerKind::Fifo, 0))
                .total_messages;
            let bound = lower_bound_messages(id_max, n);
            // Corollary 24 check on a subsample of patterns (k capped for
            // tractability: pattern extraction is Θ(k²) pulses total).
            let k_sample = 64u64.min(id_max);
            let patterns: Vec<_> = (1..=k_sample)
                .map(|id| solitude_pattern_alg2(id).expect("terminates"))
                .collect();
            let (shared, _) = max_prefix_group(&patterns, n.min(k_sample) as usize);
            let pigeonhole = (k_sample / n).max(1).ilog2() as usize;
            let holds = measured >= bound && shared >= pigeonhole;
            all_hold &= holds;
            t.row(vec![
                n.to_string(),
                id_max.to_string(),
                bound.to_string(),
                measured.to_string(),
                format!("{shared} ≥ {pigeonhole}"),
                holds.to_string(),
            ]);
        }
    }
    t.set_verdict(if all_hold {
        "bound always below measured cost; pigeonhole prefix guarantee observed"
    } else {
        "VIOLATION of the lower bound?!"
    });
    t
}

/// E8 — §1.2 comparison: baselines vs the content-oblivious algorithm.
fn e8_baselines(jobs: usize) -> Table {
    let mut t = Table::new(
        "E8 — §1.2: classical baselines vs content-oblivious election",
        "CR O(n²), HS/Peterson/Franklin O(n log n) with content; ours O(n·ID_max) without",
        vec![
            "n",
            "CR",
            "HS",
            "Peterson",
            "Franklin",
            "Alg2 (ID≤n)",
            "Alg2 (ID≤n²)",
        ],
    );
    // Specs are drawn from one sequential RNG stream (so the table is
    // independent of `jobs`); only the election runs fan out.
    let mut rng = StdRng::seed_from_u64(0xE8);
    let specs: Vec<(usize, RingSpec, RingSpec)> = [4usize, 8, 16, 32, 64, 128, 256]
        .into_iter()
        .map(|n| {
            let spec = RingSpec::oriented(IdAssignment::Shuffled.generate(n, &mut rng));
            let big_ids = IdAssignment::SparseUniform {
                id_max: (n * n) as u64,
            }
            .generate(n, &mut rng);
            (n, spec, RingSpec::oriented(big_ids))
        })
        .collect();
    let rows = crate::parallel::par_map(&specs, jobs, |(n, spec, big_spec)| {
        let mut cells = vec![n.to_string()];
        for baseline in Baseline::ALL {
            let r = baseline.run(spec, &RunOptions::new(SchedulerKind::Fifo, 1));
            cells.push(r.total_messages.to_string());
        }
        let small =
            runner::run::<Alg2Def>(spec, &RunOptions::new(SchedulerKind::Fifo, 1)).total_messages;
        cells.push(small.to_string());
        let big = runner::run::<Alg2Def>(big_spec, &RunOptions::new(SchedulerKind::Fifo, 1))
            .total_messages;
        cells.push(big.to_string());
        cells
    });
    for row in rows {
        t.row(row);
    }
    t.set_verdict(
        "with dense IDs our cost is ~2n² (competitive with CR's worst case); \
         sparse IDs inflate it — exactly the ID_max dependence Theorem 4 proves necessary",
    );
    t
}

/// E9 — Corollary 5: composition end-to-end.
fn e9_composition() -> Table {
    let mut t = Table::new(
        "E9 — Corollary 5: election composed with computation",
        "after quiescent termination the leader roots an arbitrary ring computation",
        vec![
            "n",
            "app",
            "correct",
            "quiescent term.",
            "total msgs",
            "election msgs",
        ],
    );
    let mut rng = StdRng::seed_from_u64(0xE9);
    let mut all_ok = true;
    for n in [2usize, 4, 8, 16, 32] {
        let spec = RingSpec::oriented(IdAssignment::Shuffled.generate(n, &mut rng));

        let rs = elect_then_ring_size(&spec, &RunOptions::new(SchedulerKind::Random, 5));
        let rs_ok = rs.outputs == vec![Some(n as u64); n];
        all_ok &= rs_ok && rs.quiescently_terminated;
        t.row(vec![
            n.to_string(),
            "ring-size".into(),
            rs_ok.to_string(),
            rs.quiescently_terminated.to_string(),
            rs.total_messages.to_string(),
            count(rs.election_messages),
        ]);

        let inputs: Vec<u64> = (0..n as u64).map(|i| i * i).collect();
        let agg = elect_then_aggregate(&spec, &inputs, &RunOptions::new(SchedulerKind::Random, 5));
        let want_sum: u64 = inputs.iter().sum();
        let agg_ok = agg
            .outputs
            .iter()
            .all(|o| o.is_some_and(|o| o.sum == want_sum && o.count == n as u64));
        all_ok &= agg_ok && agg.quiescently_terminated;
        t.row(vec![
            n.to_string(),
            "aggregate".into(),
            agg_ok.to_string(),
            agg.quiescently_terminated.to_string(),
            agg.total_messages.to_string(),
            count(agg.election_messages),
        ]);

        let script = vec![7i64, -11, 100];
        let rep = elect_then_replicate(&spec, &script, &RunOptions::new(SchedulerKind::Random, 5));
        let rep_ok = rep.outputs == vec![Some(96); n];
        all_ok &= rep_ok && rep.quiescently_terminated;
        t.row(vec![
            n.to_string(),
            "replicated-counter".into(),
            rep_ok.to_string(),
            rep.quiescently_terminated.to_string(),
            rep.total_messages.to_string(),
            count(rep.election_messages),
        ]);
    }
    t.set_verdict(if all_ok {
        "every composition computed correctly with quiescent termination end-to-end"
    } else {
        "composition FAILED somewhere"
    });
    t
}

/// E10 — Lemmas 6–12/17 as continuously-checked invariants.
fn e10_invariants(jobs: usize) -> Table {
    let mut t = Table::new(
        "E10 — Lemmas 6-12, 17: invariant monitors",
        "σ=ρ+1 before absorption, σ=ρ after; quiescence ⟺ ∀v ρ≥ID; ID_max absorbs last; ρ≤ID_max",
        vec!["n", "assignment", "schedulers × seeds", "violations"],
    );
    // Specs are drawn from one sequential RNG stream (so the table is
    // independent of `jobs`); only the monitored runs fan out.
    let mut rng = StdRng::seed_from_u64(0xE10);
    let mut cells = Vec::new();
    for n in [1usize, 2, 5, 9, 17] {
        for assignment in [
            IdAssignment::Shuffled,
            IdAssignment::SingleBig {
                id_max: 3 * n as u64 + 40,
            },
        ] {
            let spec = RingSpec::oriented(assignment.generate(n, &mut rng));
            cells.push((n, assignment, spec));
        }
    }
    let results = crate::parallel::par_map(&cells, jobs, |(_, _, spec)| {
        let mut bad = 0u64;
        let mut runs = 0u64;
        for kind in SchedulerKind::ALL {
            for seed in 0..4u64 {
                runs += 1;
                if runner::run_monitored::<Alg1Def, _>(
                    spec,
                    &RunOptions::new(kind, seed),
                    CwMonitorObserver::new(),
                )
                .is_err()
                {
                    bad += 1;
                }
                runs += 1;
                if runner::run_monitored::<Alg2Def, _>(
                    spec,
                    &RunOptions::new(kind, seed),
                    Alg2MonitorObserver::new(),
                )
                .is_err()
                {
                    bad += 1;
                }
            }
        }
        (runs, bad)
    });
    let mut total_runs = 0u64;
    let mut violations = 0u64;
    for ((n, assignment, _), (runs, bad)) in cells.iter().zip(results) {
        total_runs += runs;
        violations += bad;
        t.row(vec![
            n.to_string(),
            assignment.to_string(),
            runs.to_string(),
            bad.to_string(),
        ]);
    }
    t.set_verdict(format!(
        "{violations} violations in {total_runs} fully-monitored executions"
    ));
    t
}

/// E11 — ablation: Algorithm 2 without the CCW receive gate.
fn e11_ablation() -> Table {
    let mut t = Table::new(
        "E11 — ablation: Algorithm 2 without the CCW receive gate",
        "§3.2: gating recvCCW on ρ_cw ≥ ID is what confines the termination trigger to ID_max",
        vec![
            "ring",
            "variant",
            "configs explored",
            "all schedules correct",
        ],
    );
    let mut gated_ok = true;
    let mut ungated_broken = false;
    let config = ExploreConfig {
        jobs: 1,
        ..ExploreConfig::default()
    };
    for ids in [vec![1u64, 2], vec![2, 3], vec![1, 2, 3]] {
        let spec = RingSpec::oriented(ids.clone());
        // Both variants are held to Algorithm 2's claims (Lemma 6,
        // Corollary 14, Theorem 1).
        let gated = ExploreDriver::of::<Alg2Def>().run(&spec, &config);
        gated_ok &= gated.complete && gated.violations.is_empty();
        let ungated = ExploreDriver::of::<UngatedDef>().run(&spec, &config);
        ungated_broken |= !ungated.violations.is_empty();
        for (variant, report) in [("gated (paper)", gated), ("ungated (ablated)", ungated)] {
            t.row(vec![
                format!("{ids:?}"),
                variant.into(),
                report.configs.to_string(),
                report.violations.is_empty().to_string(),
            ]);
        }
    }
    t.set_verdict(if gated_ok && ungated_broken {
        "the gate is load-bearing: the paper's variant is correct on every schedule, the ablation is not"
    } else {
        "UNEXPECTED ablation outcome"
    });
    t
}

/// E12 — exhaustive model check of Algorithm 2 on tiny instances.
fn e12_model_check() -> Table {
    let mut t = Table::new(
        "E12 — exhaustive model check: every schedule of tiny instances",
        "Theorem 1 holds for all asynchronous schedules, not just sampled adversaries",
        vec![
            "ring",
            "configs",
            "quiescent configs",
            "complete",
            "violations",
        ],
    );
    let mut all_ok = true;
    for ids in [
        vec![1u64],
        vec![4u64],
        vec![1, 2],
        vec![2, 1],
        vec![3, 1],
        vec![1, 2, 3],
        vec![3, 1, 2],
        vec![2, 3, 1],
        vec![1, 2, 4],
    ] {
        // Lemma 6 and Corollary 14 in every configuration, Theorem 1 in
        // every quiescent one.
        let report = ExploreDriver::of::<Alg2Def>().run(
            &RingSpec::oriented(ids.clone()),
            &ExploreConfig {
                jobs: 1,
                ..ExploreConfig::default()
            },
        );
        all_ok &= report.complete && report.violations.is_empty();
        t.row(vec![
            format!("{ids:?}"),
            report.configs.to_string(),
            report.quiescent_configs.to_string(),
            report.complete.to_string(),
            report.violations.len().to_string(),
        ]);
    }
    t.set_verdict(if all_ok {
        "Theorem 1 verified on the full schedule space of every instance"
    } else {
        "model check FAILED"
    });
    t
}

/// E13 — model violations: dropped / duplicated pulses break everything.
fn e13_model_violations() -> Table {
    use co_net::FaultPlan;
    let mut t = Table::new(
        "E13 — violating the channel model (§2: \"pulses cannot be dropped or injected\")",
        "one lost pulse deadlocks the election; one duplicate corrupts it",
        vec!["ring", "fault", "outcome", "healthy outcome", "broken"],
    );
    let mut all_broken = true;
    for ids in [vec![3u64, 5, 2], vec![2, 7, 4, 1]] {
        let spec = RingSpec::oriented(ids.clone());
        for (label, plan) in [
            ("drop seq 4", FaultPlan::new().drop_seq(4)),
            ("duplicate seq 1", FaultPlan::new().duplicate_seq(1)),
        ] {
            let nodes = Alg2Def::nodes(&spec);
            let mut sim: Simulation<co_net::Pulse, co_core::Alg2Node> =
                Simulation::new(spec.wiring(), nodes, SchedulerKind::Fifo.build(0));
            sim.set_faults(plan);
            let faulty = sim.run(Budget::steps(500_000));
            let healthy = runner::run::<Alg2Def>(&spec, &RunOptions::new(SchedulerKind::Fifo, 0));
            let broken = faulty.outcome != Outcome::QuiescentTerminated;
            all_broken &= broken;
            t.row(vec![
                format!("{ids:?}"),
                label.into(),
                faulty.outcome.to_string(),
                healthy.outcome.to_string(),
                broken.to_string(),
            ]);
        }
    }
    t.set_verdict(if all_broken {
        "every injected model violation destroyed quiescent termination — the assumption is necessary"
    } else {
        "UNEXPECTED: some faulted run still terminated quiescently"
    });
    t
}

/// E14 — Corollary 5 full strength: Chang–Roberts simulated over pulses.
fn e14_universal_simulation() -> Table {
    use co_classic::chang_roberts::CrMsg;
    use co_compose::universal::simulate_on_defective_ring;
    use co_net::Port;

    fn cr_encode(m: &CrMsg) -> u64 {
        match *m {
            CrMsg::Candidate(id) => id << 1,
            CrMsg::Elected(id) => (id << 1) | 1,
        }
    }
    fn cr_decode(w: u64) -> CrMsg {
        if w & 1 == 0 {
            CrMsg::Candidate(w >> 1)
        } else {
            CrMsg::Elected(w >> 1)
        }
    }

    let mut t = Table::new(
        "E14 — Corollary 5, full strength: Chang-Roberts simulated over pulses",
        "any asynchronous ring algorithm can be simulated in a fully defective oriented ring",
        vec![
            "n",
            "ID_max",
            "CR leader (simulated)",
            "correct",
            "election pulses",
            "simulation pulses",
            "quiescent term.",
        ],
    );
    let mut rng = StdRng::seed_from_u64(0xE14);
    let mut all_ok = true;
    for n in [2usize, 3, 4, 6, 8] {
        let spec = RingSpec::oriented(IdAssignment::Shuffled.generate(n, &mut rng));
        let out = simulate_on_defective_ring(
            &spec,
            &RunOptions::new(SchedulerKind::Random, 5),
            |i| ChangRobertsNode::new(spec.id(i), Port::One),
            cr_encode,
            cr_decode,
        );
        let leader = out.outputs.iter().position(|o| *o == Some(Role::Leader));
        let correct = leader == Some(spec.max_position()) && out.quiescently_terminated;
        all_ok &= correct;
        t.row(vec![
            n.to_string(),
            spec.id_max().to_string(),
            format!("{leader:?}"),
            correct.to_string(),
            count(out.election_messages),
            count(out.election_messages.map(|e| out.total_messages - e)),
            out.quiescently_terminated.to_string(),
        ]);
    }
    t.set_verdict(if all_ok {
        "Chang-Roberts — which compares IDs inside messages — ran correctly over bare pulses"
    } else {
        "simulation FAILED somewhere"
    });
    t
}

/// E15 — explored-state accounting: the fingerprint explorer at 1 and 4
/// workers, with the bytes a full state tuple per configuration would take.
fn e15_explore_dedup() -> Table {
    let mut t = Table::new(
        "E15 — explorer grid: fingerprint explorer at 1 and 4 workers vs full state tuples",
        "fingerprint dedup (8 B/config) covers the same state space at every worker count",
        vec![
            "ring",
            "engine",
            "jobs",
            "configs",
            "bytes",
            "tuple bytes",
            "complete",
            "agree",
        ],
    );
    // One full state tuple: a u32 pulse count per channel, a terminated
    // flag per node and each node's counters and flags as a
    // `(ρ_cw, σ_cw, ρ_ccw, σ_ccw, deferred, leader, terminated)` key.
    let key = std::mem::size_of::<(u64, u64, u64, u64, u64, bool, bool)>();
    let mut all_ok = true;
    for ids in [
        vec![1u64, 2],
        vec![3u64, 1],
        vec![1, 2, 3],
        vec![2, 3, 1],
        vec![1, 2, 4],
    ] {
        let spec = RingSpec::oriented(ids.clone());
        let n = spec.len();
        let tuple = spec.wiring().channel_count() * 4 + n + n * key;
        let driver = ExploreDriver::of::<Alg2Def>();
        let snap = driver.run(
            &spec,
            &ExploreConfig {
                jobs: 1,
                ..ExploreConfig::default()
            },
        );
        all_ok &= snap.complete
            && snap.violations.is_empty()
            && snap.visited_bytes < snap.configs * tuple;
        let config = ExploreConfig {
            jobs: 4,
            ..ExploreConfig::default()
        };
        let par = driver.run(&spec, &config);
        // Every worker count must agree bit-for-bit on the count.
        let agree = par.complete && par.configs == snap.configs && par.violations.is_empty();
        all_ok &= agree;
        for (jobs, report, agree) in [(1, &snap, "-".to_string()), (4, &par, agree.to_string())] {
            t.row(vec![
                format!("{ids:?}"),
                "explore".into(),
                jobs.to_string(),
                report.configs.to_string(),
                report.visited_bytes.to_string(),
                (report.configs * tuple).to_string(),
                report.complete.to_string(),
                agree,
            ]);
        }
    }
    t.set_verdict(if all_ok {
        "identical state spaces at every worker count; fingerprints far smaller than full state tuples"
    } else {
        "UNEXPECTED: explorer disagreement or no memory saving"
    });
    t
}

/// The two exploration workloads of E16 and E22: the full n = 4
/// Algorithm 1 ring and the n = 7 Algorithm 2 ring, each with the driver
/// that checks its definition's claims.
fn explore_workloads() -> [(&'static str, ExploreDriver, RingSpec); 2] {
    [
        (
            "alg1 n=4",
            ExploreDriver::of::<Alg1Def>(),
            RingSpec::oriented(vec![2, 4, 1, 3]),
        ),
        (
            "alg2 n=7",
            ExploreDriver::of::<Alg2Def>(),
            RingSpec::oriented(vec![3, 5, 2, 4, 1, 6, 7]),
        ),
    ]
}

/// E16 — parallel frontier-sharded exploration: speedup grid and exhaustive
/// fault model-checking.
///
/// The worker grid is 1/2/4/8 whatever the harness's `--jobs`, so the
/// table is the same for every jobs value apart from its `ms` column.
fn e16_parallel_explore() -> Table {
    use co_net::explore::{explore, ExploreLimits};
    use co_net::FaultPlan;
    use std::time::Instant;

    let mut t = Table::new(
        "E16 — parallel frontier-sharded exploration: speedup and exhaustive faults",
        "work stealing makes larger rings and exhaustive fault injection model-checkable",
        vec![
            "workload",
            "backend",
            "jobs",
            "configs",
            "quiescent",
            "bytes",
            "ms",
            "complete",
            "agree",
        ],
    );
    let worker_grid = [1, 2, 4, 8];
    let max_jobs = 8;
    let mut all_ok = true;

    // -- Part 1: speedup grid -------------------------------------------------
    // Two workloads: the n=4 Algorithm 1 ring of the PR acceptance criterion
    // (Alg 1 quiesces per Corollary 13, so every maximal schedule ends in a
    // countable quiescent configuration), and an n=7 Algorithm 2 ring whose
    // ~20k-configuration space is large enough for work stealing to pay off.
    // Each run checks its definition's claims.
    for (label, driver, spec) in &explore_workloads() {
        let run = |jobs: usize| {
            let config = ExploreConfig {
                jobs,
                ..ExploreConfig::default()
            };
            let start = Instant::now();
            let report = driver.run(spec, &config);
            (report, start.elapsed().as_millis())
        };
        // The grid starts at one worker: that run is the reference every
        // wider run must match.
        let mut single = None;
        for &w in &worker_grid {
            let (par, ms) = run(w);
            let single = single.get_or_insert_with(|| par.clone());
            // The verdict only depends on deterministic quantities: config
            // counts, byte totals and verdict agreement. Wall-clock columns
            // are informational.
            let agree = par.complete
                && par.configs == single.configs
                && par.quiescent_configs == single.quiescent_configs
                && par.violations.is_empty();
            all_ok &= agree;
            t.row(vec![
                (*label).into(),
                "exact".into(),
                w.to_string(),
                par.configs.to_string(),
                par.quiescent_configs.to_string(),
                par.visited_bytes.to_string(),
                ms.to_string(),
                par.complete.to_string(),
                agree.to_string(),
            ]);
        }
    }

    // -- Part 2: exhaustive fault model-checking (E13, quantified ∀ schedules) -
    // E13 samples one schedule per fault; here every schedule of the faulted
    // n=3 instance is explored. Algorithm 2's quiescence predicate is
    // inverted: a violation would mean some schedule *survives* the fault and
    // still elects correctly — we verify none does. No safety claim is
    // checked: an injected fault breaks the channel model Lemma 6 rests on.
    let spec3 = RingSpec::oriented(vec![3u64, 5, 2]);
    let ring3 = ExploreRing::new(&spec3);
    let make3 = || Alg2Def::nodes(&spec3);
    for (label, plan, bounded) in [
        // A dropped pulse only shrinks the state space: the exploration is
        // exhaustive and proves the fault deadlocks EVERY schedule.
        ("drop seq 4", FaultPlan::new().drop_seq(4), false),
        // A duplicated pulse circulates forever (the gate defers it but never
        // absorbs it), so the space is infinite; the search is bounded and the
        // claim is over every configuration within the bound.
        ("duplicate seq 1", FaultPlan::new().duplicate_seq(1), true),
    ] {
        // A cut run stops once every worker has expanded the item in hand,
        // so with two or more workers how far past `max_configs` it reads
        // depends on their interleaving; at one worker it is exact.
        let workers = if bounded { 1 } else { max_jobs };
        let config = ExploreConfig {
            jobs: workers,
            faults: plan,
            limits: ExploreLimits {
                max_configs: if bounded { 50_000 } else { 2_000_000 },
                ..ExploreLimits::default()
            },
            ..ExploreConfig::default()
        };
        let start = Instant::now();
        let par = explore(
            &spec3.wiring(),
            make3,
            |_| Ok(()),
            |state| match Alg2Def::at_quiescence(&ring3, state) {
                Ok(()) => Err("schedule survived the fault with a healthy election".into()),
                Err(_) => Ok(()),
            },
            &config,
        );
        let ms = start.elapsed().as_millis();
        // "agree" here means the fault is fatal: no explored quiescent
        // configuration passed the healthy-election predicate. The drop run
        // must additionally be exhaustive and actually reach (deadlocked)
        // quiescent configurations; the duplicate run must keep generating
        // state (the stray pulse never quiesces healthily), hence hits the
        // configuration bound.
        let fatal = par.violations.is_empty()
            && if bounded {
                !par.complete
            } else {
                par.complete && par.quiescent_configs > 0
            };
        all_ok &= fatal;
        t.row(vec![
            format!("alg2 n=3 {label}"),
            "exact".into(),
            workers.to_string(),
            par.configs.to_string(),
            par.quiescent_configs.to_string(),
            par.visited_bytes.to_string(),
            ms.to_string(),
            par.complete.to_string(),
            fatal.to_string(),
        ]);
    }

    t.set_verdict(if all_ok {
        "every worker count matches the one-worker verdict, and no schedule survives an injected fault"
    } else {
        "UNEXPECTED: worker counts disagree or a schedule survives a fault"
    });
    t
}

/// E17 — thousand-node scaling under both queue backends.
///
/// Three workloads, each at `n ∈ {100, 500, 1000, 2000, 5000}` under both
/// the generic `VecDeque` store and the run-length counter store:
///
/// 1. **token** — one pulse circulating the ring for a fixed 500 k
///    deliveries. The message count is fixed while `n` grows 50×, so with
///    incremental ready tracking steps/sec stays flat in `n` (the old
///    per-step `ready_buf` rebuild was O(channels) even with one pulse in
///    flight).
/// 2. **election matrix** — Alg1/Alg2/Alg3 with contiguous IDs, exact to
///    the paper's complexity formulas. Step and pulse counts must be
///    byte-identical across backends; wall-time and peak queue bytes are
///    informational. At this scale wall-time is dominated by the
///    scheduler's O(ready) scan (see `--profile`), so the big cells run
///    minutes — the matrix fans across `jobs` workers.
/// 3. **burst** — 10⁶ pulses fired into a single channel, isolating the
///    memory claim: the counter store keeps one 16-byte `(head_seq, len)`
///    run however many pulses are queued; the `VecDeque` store pays one
///    envelope each.
fn e17_scaling(jobs: usize) -> Table {
    use co_net::{Context, Port, Pulse, QueueBackend};
    use std::time::Instant;

    let mut t = Table::new(
        "E17 — scaling: thousand-node rings, pluggable queue backends",
        "identical counts under both stores; ready upkeep O(1)/step; counter store O(runs) memory",
        vec![
            "workload",
            "n",
            "backend",
            "steps",
            "pulses",
            "exact",
            "peak queue B",
            "ms",
            "Ksteps/s",
        ],
    );
    let ns = [100usize, 500, 1000, 2000, 5000];
    let mut all_ok = true;
    let row_of = |workload: String,
                  n: usize,
                  backend: QueueBackend,
                  steps: u64,
                  pulses: u64,
                  exact: bool,
                  peak: usize,
                  ms: u128| {
        let ksteps = steps as f64 / 1e3 / (ms.max(1) as f64 / 1e3);
        vec![
            workload,
            n.to_string(),
            backend.to_string(),
            steps.to_string(),
            pulses.to_string(),
            exact.to_string(),
            peak.to_string(),
            ms.to_string(),
            format!("{ksteps:.0}"),
        ]
    };

    // -- Workload 1: fixed message count, growing ring ------------------------
    // One token relayed clockwise forever; the budget cuts it off after
    // exactly 500 k deliveries on every ring size.
    #[derive(Clone, Debug)]
    struct Token {
        starts: bool,
    }
    impl Protocol<Pulse> for Token {
        type Output = ();
        fn on_start(&mut self, ctx: &mut Context<'_, Pulse>) {
            if self.starts {
                ctx.send(Port::One, Pulse);
            }
        }
        fn on_message(&mut self, _p: Port, _m: Pulse, ctx: &mut Context<'_, Pulse>) {
            ctx.send(Port::One, Pulse);
        }
        fn output(&self) -> Option<()> {
            None
        }
    }
    const TOKEN_STEPS: u64 = 500_000;
    for n in ns {
        let spec = RingSpec::oriented((1..=n as u64).collect());
        for backend in QueueBackend::ALL {
            let nodes = (0..n).map(|i| Token { starts: i == 0 }).collect();
            let mut sim: Simulation<Pulse, Token> = Simulation::with_backend(
                spec.wiring(),
                nodes,
                SchedulerKind::Fifo.build(0),
                backend,
            );
            let start = Instant::now();
            let run = sim.run(Budget::steps(TOKEN_STEPS));
            let ms = start.elapsed().as_millis();
            // Exactly one pulse is ever in flight: the budget, not
            // quiescence, ends the run, after TOKEN_STEPS deliveries and
            // TOKEN_STEPS + 1 sends.
            let exact = run.outcome == Outcome::BudgetExhausted
                && run.steps == TOKEN_STEPS
                && run.total_sent == TOKEN_STEPS + 1;
            all_ok &= exact;
            t.row(row_of(
                "token 500k".into(),
                n,
                backend,
                run.steps,
                run.total_sent,
                exact,
                sim.peak_queue_bytes(),
                ms,
            ));
        }
    }

    // -- Workload 2: the election matrix --------------------------------------
    // Alg2 at n = 5000 with contiguous IDs sends n(2n+1) ≈ 50 M pulses,
    // which exceeds the 50 M-step default budget — size it explicitly.
    let budget = Budget::steps(120_000_000);
    let cells: Vec<(usize, &str, QueueBackend)> = ns
        .iter()
        .flat_map(|&n| {
            ["alg1", "alg2", "alg3"]
                .into_iter()
                .flat_map(move |alg| QueueBackend::ALL.map(|b| (n, alg, b)))
        })
        .collect();
    let results = crate::parallel::par_map(&cells, jobs, |&(n, alg, backend)| {
        let spec = RingSpec::oriented((1..=n as u64).collect());
        let start = Instant::now();
        let opts = RunOptions {
            backend,
            budget,
            ..RunOptions::new(SchedulerKind::Fifo, 0)
        };
        let out = match alg {
            "alg1" => runner::run::<Alg1Def>(&spec, &opts),
            "alg2" => runner::run::<Alg2Def>(&spec, &opts),
            _ => {
                runner::run_alg3(&spec, IdScheme::Improved, &opts)
                    .expect("IDs fit")
                    .report
            }
        };
        let ms = start.elapsed().as_millis();
        (out, ms)
    });
    for (chunk, items) in results.chunks(2).zip(cells.chunks(2)) {
        // Chunks pair the Vec and Counter runs of one (n, alg) cell; their
        // step and pulse counts must be byte-identical.
        let counts: Vec<(u64, u64)> = chunk
            .iter()
            .map(|(r, _)| (r.steps, r.total_messages))
            .collect();
        let backends_agree = counts[0] == counts[1];
        for ((r, ms), &(n, alg, backend)) in chunk.iter().zip(items) {
            let exact = r.reached_quiescence()
                && Some(r.total_messages) == r.predicted_messages
                && backends_agree;
            all_ok &= exact;
            t.row(row_of(
                alg.into(),
                n,
                backend,
                r.steps,
                r.total_messages,
                exact,
                r.peak_queue_bytes,
                *ms,
            ));
        }
    }

    // -- Workload 3: the memory claim in isolation ----------------------------
    // One node on a self-loop fires 10⁶ consecutive-seq pulses into a
    // single channel at start, then drains them.
    #[derive(Clone, Debug)]
    struct Burst;
    impl Protocol<Pulse> for Burst {
        type Output = ();
        fn on_start(&mut self, ctx: &mut Context<'_, Pulse>) {
            for _ in 0..1_000_000 {
                ctx.send(Port::One, Pulse);
            }
        }
        fn on_message(&mut self, _p: Port, _m: Pulse, _ctx: &mut Context<'_, Pulse>) {}
        fn output(&self) -> Option<()> {
            None
        }
    }
    let spec1 = RingSpec::oriented(vec![1]);
    let mut peaks = Vec::new();
    for backend in QueueBackend::ALL {
        let mut sim: Simulation<Pulse, Burst> = Simulation::with_backend(
            spec1.wiring(),
            vec![Burst],
            SchedulerKind::Fifo.build(0),
            backend,
        );
        let start = Instant::now();
        let run = sim.run(Budget::steps(2_000_000));
        let ms = start.elapsed().as_millis();
        let exact = run.outcome == Outcome::Quiescent && run.steps == 1_000_000;
        all_ok &= exact;
        peaks.push(sim.peak_queue_bytes());
        t.row(row_of(
            "burst 1e6".into(),
            1,
            backend,
            run.steps,
            run.total_sent,
            exact,
            sim.peak_queue_bytes(),
            ms,
        ));
    }
    // peaks[0] is the Vec store, peaks[1] the counter store.
    let burst_ok = peaks[0] >= 1_000_000 * 8 && peaks[1] <= 64;
    all_ok &= burst_ok;

    t.set_verdict(if all_ok {
        "counts identical under both stores at every scale; the counter store holds a \
         million queued pulses in one 16-byte run"
    } else {
        "MISMATCH: backend-dependent counts or unexpected queue memory"
    });
    t
}

/// E18 — incremental scheduler indexes: send-order pops and O(log C)
/// adversary picks.
///
/// Two workloads:
///
/// 1. **pick latency** — the n = 2000 Algorithm 2 election (4000 channels)
///    under every adversary of [`SchedulerKind::ALL`], capped at a
///    2 M-delivery budget (Theorem 1 puts the full election at
///    n(2n+1) ≈ 8 M pulses, so every cell must exhaust it) and bracketed
///    by the [`co_net::prof`] collector, so the rows report the measured
///    per-pick mean, the per-hook mean of the index upkeep the engine
///    drives on every enqueue and delivery (`prof::Phase::Index`), and
///    each one's share of hot-path time. Fifo and Solitude pop a send
///    order; the other indexed adversaries query a `ReadyIndex`. Runs
///    sequentially: the profiler is process-global. (Pick-for-pick
///    agreement with the O(ready) scan orders is proved by
///    `tests/sched_index_equivalence.rs`, not timed here.)
/// 2. **matrix n = 5000** — the full 8-scheduler matrix on the n = 5000
///    Algorithm 2 election (counter backend, the same 2 M cap), fanned
///    across `jobs` workers: the wall-time row that used to be
///    scheduler-bound.
fn e18_sched_index(jobs: usize) -> Table {
    use co_core::Alg2Node;
    use co_net::{prof, Pulse, QueueBackend};
    use std::time::Instant;

    let mut t = Table::new(
        "E18 — incremental scheduler indexes: send-order pops and O(log C) picks",
        "Fifo and Solitude pop the oldest send (amortized O(1)), the other indexed \
         adversaries query an O(log C) index; neither pick nor index upkeep dominates",
        vec![
            "workload",
            "scheduler",
            "n",
            "steps",
            "pick mean ns",
            "pick %",
            "index mean ns",
            "index %",
            "exact",
            "ms",
        ],
    );
    let mut all_ok = true;
    const CAP: u64 = 2_000_000;

    // -- Workload 1: per-scheduler pick latency -------------------------------
    let was_profiling = prof::enabled();
    let n = 2000usize;
    let spec = RingSpec::oriented((1..=n as u64).collect());
    for kind in SchedulerKind::ALL {
        let nodes = Alg2Def::nodes(&spec);
        let mut sim: Simulation<Pulse, Alg2Node> =
            Simulation::new(spec.wiring(), nodes, kind.build(0));
        prof::reset();
        prof::set_enabled(true);
        let start = Instant::now();
        let run = sim.run(Budget::steps(CAP));
        let ms = start.elapsed().as_millis();
        prof::set_enabled(false);
        let report = prof::report();
        let hot_ns: u64 = prof::Phase::ALL
            .iter()
            .map(|&p| report.phase(p).total_ns)
            .sum();
        let share = |phase| report.phase(phase).total_ns as f64 / hot_ns.max(1) as f64 * 100.0;
        let exact = run.steps == CAP;
        all_ok &= exact;
        t.row(vec![
            "pick latency".into(),
            kind.to_string(),
            n.to_string(),
            run.steps.to_string(),
            report.phase(prof::Phase::Pick).mean_ns().to_string(),
            format!("{:.1}", share(prof::Phase::Pick)),
            report.phase(prof::Phase::Index).mean_ns().to_string(),
            format!("{:.1}", share(prof::Phase::Index)),
            exact.to_string(),
            ms.to_string(),
        ]);
    }
    prof::reset();
    prof::set_enabled(was_profiling);

    // -- Workload 2: the full scheduler matrix at n = 5000 --------------------
    let spec5k = RingSpec::oriented((1..=5000u64).collect());
    let kinds: Vec<SchedulerKind> = SchedulerKind::ALL.to_vec();
    let results = crate::parallel::par_map(&kinds, jobs, |&kind| {
        let start = Instant::now();
        let opts = RunOptions {
            backend: QueueBackend::Counter,
            budget: Budget::steps(CAP),
            ..RunOptions::new(kind, 0)
        };
        let out = runner::run::<Alg2Def>(&spec5k, &opts);
        (out.steps, start.elapsed().as_millis())
    });
    for (&kind, &(steps, ms)) in kinds.iter().zip(&results) {
        // Theorem 1 puts the full election at 5000 × 10001 ≈ 50 M pulses
        // under *any* schedule, so every cell must exhaust the 2 M cap.
        let exact = steps == CAP;
        all_ok &= exact;
        t.row(vec![
            "matrix".into(),
            kind.to_string(),
            "5000".into(),
            steps.to_string(),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            exact.to_string(),
            ms.to_string(),
        ]);
    }

    t.set_verdict(if all_ok {
        "every cell exhausts the 2 M-delivery cap, as Theorem 1 requires"
    } else {
        "MISMATCH: a cell stopped short of the 2 M-delivery cap"
    });
    t
}

/// E19 — virtual time: the clock layer costs nothing it does not deliver.
///
/// Two workloads:
///
/// 1. **clock overhead** — the n = 1000 Algorithm 2 election under Fifo,
///    once on the untimed fast path and once per timed latency model
///    (`fixed:1`, `uniform:1..4`). Theorem 1 makes the message complexity
///    schedule-independent and Algorithm 2's final configuration unique, so
///    every mode must report identical step counts *and* identical
///    configuration fingerprints — latency moves deliveries in virtual
///    time, never changes how many happen or where the ring ends up. The
///    wall-clock columns show what the timestamp bookkeeping costs.
/// 2. **earliest-arrival adversary** — the `latency` scheduler (pick the
///    earliest-timestamped head, [`co_net::sched::LatencyScheduler`]) on a
///    seeded `uniform:1..8` plan, fanned across a latency-seed grid with
///    `jobs` workers. Each cell runs twice; exactness demands the reruns
///    agree byte-for-byte (steps, fingerprint, final virtual time): all
///    sampling flows through per-channel RNGs keyed by the plan seed.
fn e19_virtual_time(jobs: usize) -> Table {
    use co_core::Alg2Node;
    use co_net::{LatencyModel, LatencyPlan, Pulse};
    use std::time::Instant;

    let mut t = Table::new(
        "E19 — virtual time: seeded latency, earliest-arrival picks",
        "latency timestamps reorder deliveries without changing complexity; seeded runs are deterministic",
        vec!["workload", "mode", "n", "steps", "now", "exact", "ms"],
    );
    let mut all_ok = true;

    // -- Workload 1: clock on vs clock off ------------------------------------
    let n = 1000usize;
    let spec = RingSpec::oriented((1..=n as u64).collect());
    let modes: [(&str, LatencyModel); 3] = [
        ("untimed", LatencyModel::Zero),
        ("fixed:1", LatencyModel::Fixed(1)),
        ("uniform:1..4", LatencyModel::Uniform { min: 1, max: 4 }),
    ];
    let mut reference: Option<(u64, u64)> = None; // (steps, fingerprint)
    for (label, model) in modes {
        let nodes = Alg2Def::nodes(&spec);
        let mut sim: Simulation<Pulse, Alg2Node> =
            Simulation::new(spec.wiring(), nodes, SchedulerKind::Fifo.build(0));
        sim.set_latency(LatencyPlan::new(model, 19));
        let start = Instant::now();
        let run = sim.run(Budget::default());
        let ms = start.elapsed().as_millis();
        let cell = (run.steps, sim.fingerprint());
        // Theorem 1: same pulse count under any timing; unique final
        // configuration: same fingerprint. The untimed run is the referee.
        let exact =
            run.outcome == Outcome::QuiescentTerminated && reference.is_none_or(|r| r == cell);
        reference.get_or_insert(cell);
        all_ok &= exact;
        t.row(vec![
            "clock overhead".into(),
            label.into(),
            n.to_string(),
            run.steps.to_string(),
            sim.now().to_string(),
            exact.to_string(),
            ms.to_string(),
        ]);
    }

    // -- Workload 2: the earliest-arrival adversary over a seed grid ----------
    let seeds: Vec<u64> = (0..8).collect();
    let spec2 = RingSpec::oriented((1..=200u64).collect());
    let results = crate::parallel::par_map(&seeds, jobs, |&seed| {
        let run_once = || {
            let nodes = Alg2Def::nodes(&spec2);
            let mut sim: Simulation<Pulse, Alg2Node> =
                Simulation::new(spec2.wiring(), nodes, SchedulerKind::Latency.build(seed));
            sim.set_latency(LatencyPlan::new(
                LatencyModel::Uniform { min: 1, max: 8 },
                seed,
            ));
            let run = sim.run(Budget::default());
            (run.outcome, run.steps, sim.fingerprint(), sim.now())
        };
        (run_once(), run_once())
    });
    for (&seed, (a, b)) in seeds.iter().zip(&results) {
        let exact = a == b && a.0 == Outcome::QuiescentTerminated;
        all_ok &= exact;
        t.row(vec![
            "earliest-arrival".into(),
            format!("uniform:1..8 seed {seed}"),
            spec2.len().to_string(),
            a.1.to_string(),
            a.3.to_string(),
            exact.to_string(),
            "-".into(),
        ]);
    }

    t.set_verdict(if all_ok {
        "clock-on runs match the untimed election exactly; seeded latency \
         replays byte-identically"
    } else {
        "MISMATCH: virtual time changed an outcome that must be timing-independent"
    });
    t
}

/// E21 — fleet mode: 10⁴ concurrent ring elections per cell, fanned
/// across `jobs` workers (`0` = one per core).
///
/// Runs the fleet harness (`co_net::fleet`) over a grid of protocol ×
/// fault-rate cells, each a fleet of 10,000 independent oriented rings with
/// sizes drawn uniformly from 3..=9. Per cell the experiment checks three
/// things:
///
/// 1. **Determinism across thread counts** — the parallel aggregate report
///    must equal the single-threaded reference byte-for-byte (`det`
///    column). Shard boundaries come from the config, never the thread
///    count, so this must hold at any `jobs`.
/// 2. **Universal election on clean fleets** — with `fault_rate = 0` every
///    ring elects exactly one leader (`elections == rings`), per the
///    paper's correctness theorems applied 10⁴ times over mixed sizes.
/// 3. **Fault visibility** — with spurious clockwise pulses injected into
///    1% of rings, the aggregate report separates corrupted rings
///    (budget-exhausted) from clean elections instead of silently
///    miscounting.
///
/// The throughput columns (`ms`, `elect/s`) are wall-clock and therefore
/// *not* part of the determinism claim; they feed the `e21_*` wall-clock
/// gate metrics whose wide tolerances are documented in [`crate::check`].
fn e21_fleet(jobs: usize) -> Table {
    use crate::registry::protocols;
    use co_core::registry::Capability;
    use co_net::fleet::{FleetConfig, RingSizes};

    const RINGS: u64 = 10_000;

    let mut t = Table::new(
        "E21 — fleet mode: 10⁴ concurrent rings per cell, jobs-invariant aggregates",
        "the fleet harness elects on every clean ring, surfaces injected faults, and its \
         aggregate report is byte-identical at any thread count",
        vec![
            "protocol",
            "rings",
            "sizes",
            "fault",
            "elections",
            "exhausted",
            "pulses",
            "p50",
            "p99",
            "peak B/ring",
            "det",
            "ms",
            "elect/s",
        ],
    );

    let mut all_ok = true;
    for protocol in protocols().supporting(Capability::Fleet) {
        let fleet = protocols().fleet(protocol).expect("capability-filtered");
        for fault_rate in [0.0, 0.01] {
            let mut cfg = FleetConfig::new(RINGS);
            cfg.sizes = RingSizes::Uniform { min: 3, max: 9 };
            cfg.seed = 21;
            cfg.fault_rate = fault_rate;
            let summary = crate::fleet::run_fleet(&cfg, fleet, 1, jobs);
            let report = &summary.report;
            let det = *report == fleet.run_round(&cfg, 0);
            let clean_ok = fault_rate > 0.0 || report.elections == RINGS;
            all_ok &= det && clean_ok;
            t.row(vec![
                protocol.to_string(),
                report.rings.to_string(),
                cfg.sizes.to_string(),
                format!("{fault_rate}"),
                report.elections.to_string(),
                report.budget_exhausted.to_string(),
                report.total_pulses.to_string(),
                report.p50().to_string(),
                report.p99().to_string(),
                report.peak_ring_queue_bytes.to_string(),
                det.to_string(),
                summary.elapsed.as_millis().to_string(),
                format!("{:.0}", summary.elections_per_sec()),
            ]);
        }
    }

    t.set_verdict(if all_ok {
        "every clean ring elects exactly one leader, injected faults show up as \
         budget-exhausted rings, and the aggregate report is byte-identical to the \
         single-threaded reference"
    } else {
        "MISMATCH: a parallel fleet diverged from the sequential reference, or a clean \
         ring failed to elect"
    });
    t
}

/// E22 — out-of-core exploration: exact vs mmap dedup backends, frontier
/// spill, and checkpointed kill-and-resume equality.
///
/// Part 1 runs the two acceptance-criteria workloads (the full n = 4
/// Algorithm 1 ring and the n = 7 Algorithm 2 ring) under both
/// [`co_net::DedupKind`] backends and reports the heap/file split of the visited
/// index, bytes per configuration, and configs/sec. The mmap backend must be
/// state-space-identical to the exact backend with **zero** heap-resident
/// index bytes — the table moved into a page-cache-backed file. Part 2 cuts
/// a checkpointed mmap run at a third of the state space, resumes it from
/// the checkpoint file, and asserts the resumed totals are byte-identical
/// to the uninterrupted run. Every run checks its definition's claims.
///
/// Each Part 1 row's `cfg/s` is its fastest of five unprofiled
/// exhaustions. Its `dedup mean ns` comes from one more exhaustion,
/// bracketed by the [`co_net::prof`] collector on its own, so it is the
/// mean visited-set insert of that backend alone. The rows run
/// sequentially: the profiler is process-global.
fn e22_out_of_core() -> Table {
    use co_net::explore::{CheckpointPlan, ExploreCheckpoint, ExploreLimits};
    use co_net::{prof, DedupKind};
    use std::time::Instant;

    let mut t = Table::new(
        "E22 — out-of-core exploration: mmap dedup, frontier spill, checkpoint/resume",
        "the visited set moves to a file-backed table and interrupted runs resume to identical counts",
        vec![
            "workload", "backend", "configs", "quiescent", "heap B", "file B", "B/config",
            "cfg/s", "dedup mean ns", "complete", "agree",
        ],
    );
    let mut all_ok = true;
    let scratch = std::env::temp_dir();
    let mmap = DedupKind::Mmap { budget: 1 << 20 };

    // -- Part 1: backend grid -------------------------------------------------
    // `cfg/s` is the fastest of `TIMED_RUNS` unprofiled exhaustions (one
    // ~30 ms run swings by a third with the host's load), and `dedup mean
    // ns` comes from one more, profiled, exhaustion.
    const TIMED_RUNS: usize = 5;
    let was_profiling = prof::enabled();
    prof::set_enabled(false);
    let mut alg2_exact_report = None;
    for (label, driver, spec) in &explore_workloads() {
        let mut exact_configs = 0usize;
        for (name, kind) in [("exact", DedupKind::Exact), ("mmap", mmap)] {
            let config = ExploreConfig {
                jobs: 1,
                dedup: kind,
                scratch_dir: Some(scratch.clone()),
                ..ExploreConfig::default()
            };
            let mut secs = f64::INFINITY;
            let mut timed_configs = Vec::with_capacity(TIMED_RUNS);
            for _ in 0..TIMED_RUNS {
                let start = Instant::now();
                let report = driver.run(spec, &config);
                secs = secs.min(start.elapsed().as_secs_f64());
                timed_configs.push(report.configs);
            }
            prof::reset();
            prof::set_enabled(true);
            let report = driver.run(spec, &config);
            prof::set_enabled(false);
            let dedup_ns = prof::report().phase(prof::Phase::Dedup).mean_ns();
            // Every timed run must have visited the profiled run's space.
            let repeatable = timed_configs.iter().all(|&c| c == report.configs);
            let agree = match kind {
                DedupKind::Exact => {
                    exact_configs = report.configs;
                    if label.starts_with("alg2") {
                        alg2_exact_report = Some((report.configs, report.quiescent_configs));
                    }
                    report.complete && report.violations.is_empty()
                }
                // The mmap table is semantically exact: identical state space,
                // zero heap-resident index bytes.
                DedupKind::Mmap { .. } => {
                    report.complete
                        && report.configs == exact_configs
                        && report.violations.is_empty()
                        && report.visited_heap_bytes == 0
                        && report.visited_file_bytes > 0
                }
            } && repeatable;
            all_ok &= agree;
            t.row(vec![
                (*label).into(),
                name.into(),
                report.configs.to_string(),
                report.quiescent_configs.to_string(),
                report.visited_heap_bytes.to_string(),
                report.visited_file_bytes.to_string(),
                format!("{:.1}", report.visited_bytes as f64 / report.configs as f64),
                format!("{:.0}", report.configs as f64 / secs.max(1e-9)),
                dedup_ns.to_string(),
                report.complete.to_string(),
                agree.to_string(),
            ]);
        }
    }
    prof::reset();
    prof::set_enabled(was_profiling);

    // -- Part 2: checkpointed kill-and-resume --------------------------------
    // Cut an mmap+spill run of the alg2 n=7 space at a third of its
    // configurations via `max_configs`, then resume from the checkpoint file
    // with the limit lifted; the resumed totals must equal the uninterrupted
    // run's exactly.
    let (full_configs, full_quiescent) = alg2_exact_report.unwrap_or((0, 0));
    let spec = RingSpec::oriented(vec![3, 5, 2, 4, 1, 6, 7]);
    let driver = ExploreDriver::of::<Alg2Def>();
    let ck_path = scratch.join(format!("co-ring-e22-{}.ck", std::process::id()));
    let plan = CheckpointPlan {
        path: ck_path.clone(),
        every: 2000,
        meta: b"e22".to_vec(),
    };
    let cut_config = ExploreConfig {
        jobs: 2,
        dedup: mmap,
        limits: ExploreLimits {
            max_configs: full_configs / 3,
            ..ExploreLimits::default()
        },
        spill_high_water: 64,
        scratch_dir: Some(scratch.clone()),
        checkpoint: Some(plan.clone()),
        ..ExploreConfig::default()
    };
    let cut = driver.run(&spec, &cut_config);
    let start = Instant::now();
    let resumed = match ExploreCheckpoint::read(&ck_path) {
        Ok(ck) => {
            let resume_config = ExploreConfig {
                jobs: 2,
                dedup: mmap,
                spill_high_water: 64,
                scratch_dir: Some(scratch.clone()),
                checkpoint: Some(plan),
                resume: Some(ck),
                ..ExploreConfig::default()
            };
            Some(driver.run(&spec, &resume_config))
        }
        Err(_) => None,
    };
    let secs = start.elapsed().as_secs_f64();
    let _ = std::fs::remove_file(&ck_path);
    let resume_ok = resumed.as_ref().is_some_and(|r| {
        !cut.complete
            && r.complete
            && r.configs == full_configs
            && r.quiescent_configs == full_quiescent
            && r.violations.is_empty()
    });
    all_ok &= resume_ok;
    if let Some(r) = resumed {
        t.row(vec![
            "alg2 n=7 cut+resume".into(),
            "mmap".into(),
            r.configs.to_string(),
            r.quiescent_configs.to_string(),
            r.visited_heap_bytes.to_string(),
            r.visited_file_bytes.to_string(),
            format!("{:.1}", r.visited_bytes as f64 / r.configs as f64),
            format!("{:.0}", r.configs as f64 / secs.max(1e-9)),
            "-".into(),
            r.complete.to_string(),
            resume_ok.to_string(),
        ]);
    }

    t.set_verdict(if all_ok {
        "mmap matches exact bit-for-bit with zero heap-resident index bytes, and the \
         killed run resumes from its checkpoint to the uninterrupted totals"
    } else {
        "UNEXPECTED: a backend diverged from exact, or the resumed run missed the \
         uninterrupted totals"
    });
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_parse_roundtrip() {
        for e in Experiment::ALL {
            assert_eq!(Experiment::parse(&e.to_string()), Some(e));
        }
        assert_eq!(Experiment::parse("e23"), None);
    }

    #[test]
    fn jobs_do_not_change_tables() {
        // The worker pool must be a pure wall-clock optimization: E10 has a
        // fanned grid AND a sequential spec-RNG stream, so it exercises both
        // determinism hazards. Byte-identical at 1 and 8 workers.
        let sequential = run_experiment_with(Experiment::E10, 1);
        let fanned = run_experiment_with(Experiment::E10, 8);
        assert_eq!(sequential.to_string(), fanned.to_string());
        assert_eq!(
            sequential.to_json().to_string_compact(),
            fanned.to_json().to_string_compact()
        );
    }

    #[test]
    fn fast_experiments_report_success() {
        // The heavyweight sweeps run in the tables binary; here we
        // sanity-check the cheapest ones end-to-end.
        let t = e0_defective_sanity();
        assert!(t.verdict.contains("necessary"), "{}", t.verdict);
        let t = e6_solitude();
        assert!(t.verdict.contains("true"), "{}", t.verdict);
    }
}
