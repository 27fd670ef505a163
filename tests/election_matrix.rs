//! Cross-crate integration matrix: every election algorithm × every
//! scheduler × assorted ring shapes, with exact message-complexity checks
//! (Theorems 1 and 2, Proposition 15) and step-wise invariant monitoring
//! (Lemmas 6–12, 17).

use content_oblivious::core::invariants::Alg2MonitorObserver;
use content_oblivious::core::registry::{Alg1Def, Alg2Def, RingProtocol};
use content_oblivious::core::runner::RunOptions;
use content_oblivious::core::{runner, IdAssignment, IdScheme, Role};
use content_oblivious::net::{Outcome, RingSpec, SchedulerKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn specs_under_test() -> Vec<RingSpec> {
    let mut rng = StdRng::seed_from_u64(0xA11CE);
    let mut specs = vec![
        RingSpec::oriented(vec![1]),
        RingSpec::oriented(vec![7]),
        RingSpec::oriented(vec![1, 2]),
        RingSpec::oriented(vec![2, 1]),
        RingSpec::oriented(vec![5, 17, 3]),
    ];
    for n in [4usize, 7, 12, 23] {
        for assignment in [
            IdAssignment::Contiguous,
            IdAssignment::Shuffled,
            IdAssignment::Descending,
            IdAssignment::SparseUniform {
                id_max: 4 * n as u64,
            },
            IdAssignment::SingleBig { id_max: 120 },
        ] {
            specs.push(RingSpec::oriented(assignment.generate(n, &mut rng)));
        }
    }
    specs
}

#[test]
fn alg1_exact_complexity_and_election_everywhere() {
    for spec in specs_under_test() {
        let n = spec.len() as u64;
        let id_max = spec.id_max();
        for kind in SchedulerKind::ALL {
            let report = runner::run::<Alg1Def>(&spec, &RunOptions::new(kind, 42));
            assert_eq!(report.outcome, Outcome::Quiescent, "{spec} {kind}");
            report
                .validate(&spec)
                .unwrap_or_else(|e| panic!("{spec} {kind}: {e}"));
            assert_eq!(report.total_messages, n * id_max, "{spec} {kind}");
        }
    }
}

#[test]
fn alg2_exact_complexity_and_quiescent_termination_everywhere() {
    for spec in specs_under_test() {
        let n = spec.len() as u64;
        let id_max = spec.id_max();
        for kind in SchedulerKind::ALL {
            let report = runner::run::<Alg2Def>(&spec, &RunOptions::new(kind, 43));
            assert_eq!(
                report.outcome,
                Outcome::QuiescentTerminated,
                "{spec} {kind}"
            );
            report
                .validate(&spec)
                .unwrap_or_else(|e| panic!("{spec} {kind}: {e}"));
            assert_eq!(report.total_messages, n * (2 * id_max + 1), "{spec} {kind}");
        }
    }
}

#[test]
fn alg2_invariants_hold_stepwise() {
    // The paper's Lemmas as runtime assertions, on a denser seed sweep.
    let mut rng = StdRng::seed_from_u64(7);
    for n in [1usize, 2, 5, 11] {
        for seed in 0..5u64 {
            let ids = IdAssignment::Shuffled.generate(n, &mut rng);
            let spec = RingSpec::oriented(ids);
            for kind in SchedulerKind::ALL {
                runner::run_monitored::<Alg2Def, _>(
                    &spec,
                    &RunOptions::new(kind, seed),
                    Alg2MonitorObserver::new(),
                )
                .unwrap_or_else(|v| panic!("{spec} {kind} seed {seed}: {v}"));
            }
        }
    }
}

#[test]
fn alg3_elects_and_orients_across_port_layouts() {
    let mut rng = StdRng::seed_from_u64(99);
    for n in [1usize, 2, 3, 6, 10] {
        for trial in 0..4u64 {
            let ids = IdAssignment::Shuffled.generate(n, &mut rng);
            let spec = RingSpec::random_flips(ids, &mut rng);
            for scheme in [IdScheme::Doubled, IdScheme::Improved] {
                for kind in SchedulerKind::ALL {
                    let out = runner::run_alg3(&spec, scheme, &RunOptions::new(kind, trial))
                        .expect("IDs fit");
                    assert_eq!(
                        out.report.outcome,
                        Outcome::Quiescent,
                        "{spec} {scheme} {kind}"
                    );
                    out.report
                        .validate(&spec)
                        .unwrap_or_else(|e| panic!("{spec} {scheme} {kind}: {e}"));
                    assert!(out.orientation_consistent, "{spec} {scheme} {kind}");
                    assert_eq!(
                        Some(out.report.total_messages),
                        scheme.predicted_messages(spec.len() as u64, spec.id_max()),
                        "{spec} {scheme} {kind}"
                    );
                }
            }
        }
    }
}

#[test]
fn message_complexity_depends_on_id_max_not_n() {
    // The headline of Theorems 1 & 4: complexity is governed by ID_max.
    // Fix n = 4; grow ID_max; messages grow linearly in ID_max.
    let mut last = 0;
    for id_max in [10u64, 100, 1000, 10_000] {
        let spec = RingSpec::oriented(vec![1, 2, 3, id_max]);
        let report = runner::run::<Alg2Def>(&spec, &RunOptions::new(SchedulerKind::Fifo, 0));
        assert_eq!(report.total_messages, 4 * (2 * id_max + 1));
        assert!(report.total_messages > last);
        last = report.total_messages;
    }
}

#[test]
fn alg2_direction_split_matches_the_analysis() {
    // Theorem 1's accounting, per direction: exactly n·ID_max clockwise
    // pulses (the CW instance) and n·ID_max + n counterclockwise ones (the
    // CCW instance plus the termination round), with every channel FIFO,
    // no ignored delivery, and the leader terminating last.
    use content_oblivious::core::Alg2Node;
    use content_oblivious::net::{
        Budget, Direction, Port, Pulse, SimObserver, Simulation, StepInfo,
    };
    use std::collections::HashMap;

    /// Checks per-channel FIFO and records the order of terminations.
    #[derive(Default)]
    struct Watch {
        last_seq: HashMap<(usize, Port), u64>,
        fifo_violation: Option<u64>,
        termination_order: Vec<usize>,
    }

    impl SimObserver<Pulse, Alg2Node> for Watch {
        fn after_step(&mut self, sim: &Simulation<Pulse, Alg2Node>, step: &StepInfo) {
            if let Some(prev) = self.last_seq.insert((step.node, step.port), step.seq) {
                if step.seq < prev && self.fifo_violation.is_none() {
                    self.fifo_violation = Some(step.seq);
                }
            }
            // Only the receiver can terminate on a delivery.
            if sim.is_terminated(step.node) && !self.termination_order.contains(&step.node) {
                self.termination_order.push(step.node);
            }
        }
    }

    let spec = RingSpec::oriented(vec![3, 8, 5, 2]);
    let n = 4u64;
    let id_max = 8u64;
    for kind in [
        SchedulerKind::Fifo,
        SchedulerKind::Lifo,
        SchedulerKind::Random,
    ] {
        let nodes = Alg2Def::nodes(&spec);
        let mut sim: Simulation<Pulse, Alg2Node> =
            Simulation::new(spec.wiring(), nodes, kind.build(9));
        let mut watch = Watch::default();
        let report = sim.run_observed(Budget::default(), &mut watch);
        assert_eq!(report.outcome, Outcome::QuiescentTerminated, "{kind}");
        let stats = sim.stats();
        assert_eq!(
            stats.sent_by_direction[Direction::Cw.index()],
            n * id_max,
            "{kind}"
        );
        assert_eq!(
            stats.sent_by_direction[Direction::Ccw.index()],
            n * id_max + n,
            "{kind}"
        );
        assert_eq!(watch.fifo_violation, None, "{kind}");
        assert_eq!(
            stats.delivered_to_terminated, 0,
            "{kind}: quiescent termination"
        );
        // The leader (position 1) terminates last (paper §1.1).
        assert_eq!(watch.termination_order.len(), 4, "{kind}");
        assert_eq!(watch.termination_order.last(), Some(&1), "{kind}");
    }
}

#[test]
fn duplicate_ids_lemma16_all_max_holders_win_alg1() {
    // Lemma 16: Algorithm 1 with non-unique IDs stabilizes with all ID_max
    // holders as leaders and everyone at exactly ID_max pulses.
    let spec = RingSpec::oriented(vec![6, 2, 6, 6, 1]);
    for kind in SchedulerKind::ALL {
        let report = runner::run::<Alg1Def>(&spec, &RunOptions::new(kind, 5));
        assert_eq!(report.outcome, Outcome::Quiescent, "{kind}");
        assert_eq!(report.total_messages, 5 * 6, "{kind}");
        let leaders: Vec<usize> = report
            .roles
            .iter()
            .enumerate()
            .filter(|(_, r)| **r == Role::Leader)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(leaders, vec![0, 2, 3], "{kind}");
    }
}

/// Timed large-n smoke: the n = 5000 Algorithm 2 election on the counter
/// queue backend, exact to Theorem 1. Ignored in the default test run (it
/// delivers ~50 M pulses — affordable since the scheduler's indexed pick
/// path made large elections delivery-bound); CI runs it in release as the
/// `large-n-smoke` job with a hard timeout.
#[test]
#[ignore = "large; run explicitly (CI large-n-smoke job)"]
fn large_ring_smoke_n5000_counter_backend() {
    use content_oblivious::net::{Budget, QueueBackend};
    let n = 5000usize;
    let spec = RingSpec::oriented((1..=n as u64).collect());
    let opts = RunOptions {
        backend: QueueBackend::Counter,
        budget: Budget::steps(120_000_000),
        ..RunOptions::new(SchedulerKind::Fifo, 0)
    };
    let out = runner::run::<Alg2Def>(&spec, &opts);
    assert!(out.quiescently_terminated());
    assert_eq!(
        out.total_messages,
        n as u64 * (2 * n as u64 + 1),
        "Theorem 1 at n = 5000"
    );
    assert_eq!(out.leader, Some(n - 1));
    assert!(
        out.peak_queue_bytes > 0 && out.peak_queue_bytes < 1 << 20,
        "counter store stays under a megabyte, got {}",
        out.peak_queue_bytes
    );
}

/// Timed large-n smoke at n = 100,000: both queue backends, one trajectory.
///
/// A full election at this scale needs n(2·ID_max + 1) ≈ 2×10¹⁰ pulses, so
/// the run is budget-capped and the assertion is backend agreement instead
/// of Theorem 1: the `Vec` and `Counter` stores must reach the same
/// `RunReport` and the same state fingerprint after the same 50 M pulses —
/// a scale `tests/backend_equivalence.rs` never reaches. CI runs this in
/// release as the `large-n-smoke` job.
#[test]
#[ignore = "large; run explicitly (CI large-n-smoke job)"]
fn large_ring_smoke_n100000_backends_agree() {
    use content_oblivious::core::Alg2Node;
    use content_oblivious::net::{Budget, Pulse, QueueBackend, Simulation};

    const CAP: u64 = 50_000_000;
    let n = 100_000usize;
    let spec = RingSpec::oriented((1..=n as u64).collect());
    let mut cells = Vec::new();
    for backend in QueueBackend::ALL {
        let nodes = Alg2Def::nodes(&spec);
        let mut sim: Simulation<Pulse, Alg2Node> =
            Simulation::with_backend(spec.wiring(), nodes, SchedulerKind::Fifo.build(0), backend);
        let run = sim.run(Budget::steps(CAP));
        assert_eq!(run.outcome, Outcome::BudgetExhausted, "{backend}");
        assert_eq!(run.steps, CAP, "{backend}");
        cells.push((run, sim.fingerprint()));
    }
    assert_eq!(
        cells[0], cells[1],
        "the vec and counter backends must agree at n = 100,000"
    );
}
