//! Experiment E0: content-carrying algorithms break under the fully
//! defective channel, while the paper's algorithms never read content in
//! the first place (enforced by the `Pulse` type). This is the motivation
//! for content-oblivious computation.

use content_oblivious::classic::chang_roberts::{ChangRobertsNode, CrMsg};
use content_oblivious::classic::defective::Defective;
use content_oblivious::classic::runner::Baseline;
use content_oblivious::core::registry::Alg2Def;
use content_oblivious::core::runner::RunOptions;
use content_oblivious::core::{runner, Role};
use content_oblivious::net::{Budget, Outcome, Protocol, RingSpec, SchedulerKind, Simulation};

#[test]
fn chang_roberts_fails_on_defective_channels_at_all_sizes() {
    for n in [2usize, 4, 8, 16, 32, 64] {
        let spec = RingSpec::oriented((1..=n as u64).collect());
        let nodes = (0..n)
            .map(|i| Defective::new(ChangRobertsNode::new(spec.id(i), spec.cw_port(i))))
            .collect();
        let mut sim: Simulation<CrMsg, Defective<ChangRobertsNode>> =
            Simulation::new(spec.wiring(), nodes, SchedulerKind::Random.build(n as u64));
        let report = sim.run(Budget::default());
        let leaders = (0..n)
            .filter(|&i| sim.node(i).output() == Some(Role::Leader))
            .count();
        assert_eq!(leaders, 0, "n={n}: corruption must prevent election");
        assert_ne!(
            report.outcome,
            Outcome::QuiescentTerminated,
            "n={n}: nobody should terminate believing the election succeeded"
        );
    }
}

#[test]
fn same_rings_succeed_with_reliable_channels_and_with_pulses() {
    // Control group: identical rings elect correctly both with reliable
    // content (Chang-Roberts) and with pure pulses (Algorithm 2).
    for n in [2usize, 8, 32] {
        let spec = RingSpec::oriented((1..=n as u64).collect());
        let cr = Baseline::ChangRoberts.run(&spec, &RunOptions::new(SchedulerKind::Random, 3));
        assert_eq!(cr.leader, Some(n - 1), "CR n={n}");
        let alg2 = runner::run::<Alg2Def>(&spec, &RunOptions::new(SchedulerKind::Random, 3));
        assert_eq!(alg2.leader, Some(n - 1), "Alg2 n={n}");
        assert!(alg2.quiescently_terminated());
    }
}

#[test]
fn content_oblivious_cost_is_the_price_of_robustness() {
    // On the same ring, Algorithm 2 pays Θ(n·ID_max) where Chang-Roberts
    // pays O(n²) — the measurable price of surviving full corruption
    // (Theorem 4 shows some ID_max dependence is unavoidable).
    let n = 32u64;
    let spec = RingSpec::oriented((1..=n).collect());
    let cr = Baseline::ChangRoberts.run(&spec, &RunOptions::new(SchedulerKind::Fifo, 0));
    let alg2 = runner::run::<Alg2Def>(&spec, &RunOptions::new(SchedulerKind::Fifo, 0));
    assert_eq!(alg2.total_messages, n * (2 * n + 1));
    assert!(alg2.total_messages > cr.total_messages);
}
