//! Extended cross-crate coverage: phase-switching adversaries, record and
//! replay, compositions under randomized configurations, and a deeper
//! (ignored-by-default) model check.

use content_oblivious::compose::pipeline::elect_then_replicate;
use content_oblivious::core::registry::{Alg2Def, RingProtocol};
use content_oblivious::core::runner::RunOptions;
use content_oblivious::net::sched::{
    LifoScheduler, PhaseSwitchScheduler, ReplayScheduler, StarveDirectionScheduler,
};
use content_oblivious::net::{
    Budget, Direction, Outcome, Pulse, RingSpec, SchedulerKind, Simulation,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

#[test]
fn phase_switch_adversary_preserves_theorem1() {
    // Torture schedule: FIFO while the CW instance races, then starve CW
    // entirely; Theorem 1 must be unaffected.
    let spec = RingSpec::oriented(vec![5, 12, 3, 9]);
    for switch_at in [0u64, 5, 25, 100] {
        let scheduler = Box::new(PhaseSwitchScheduler::new(
            Box::new(LifoScheduler::new()),
            Box::new(StarveDirectionScheduler::new(Direction::Cw)),
            switch_at,
        ));
        let mut sim = Simulation::new(spec.wiring(), Alg2Def::nodes(&spec), scheduler);
        let report = sim.run(Budget::default());
        assert_eq!(
            report.outcome,
            Outcome::QuiescentTerminated,
            "switch at {switch_at}"
        );
        assert_eq!(
            Alg2Def::leader_positions(sim.nodes()),
            vec![1],
            "switch at {switch_at}"
        );
        assert_eq!(report.total_sent, 4 * (2 * 12 + 1), "switch at {switch_at}");
    }
}

#[test]
fn recorded_schedule_replays_identically() {
    // Record a random adversary's schedule, then replay it: both runs must
    // produce identical step counts and node states.
    let spec = RingSpec::oriented(vec![3, 7, 5]);
    let make_nodes = || Alg2Def::nodes(&spec);
    let mut original: Simulation<Pulse, _> =
        Simulation::new(spec.wiring(), make_nodes(), SchedulerKind::Random.build(99));
    let (first, schedule) = original.run_recorded(Budget::default());
    assert_eq!(schedule.len() as u64, first.steps, "one pick per delivery");

    let replay = ReplayScheduler::new(schedule.picks().to_vec());
    let mut replayed: Simulation<Pulse, _> =
        Simulation::new(spec.wiring(), make_nodes(), Box::new(replay));
    let second = replayed.run(Budget::default());

    assert_eq!(first, second);
    for i in 0..3 {
        assert_eq!(original.node(i).role(), replayed.node(i).role(), "node {i}");
        assert_eq!(
            original.node(i).rho_ccw(),
            replayed.node(i).rho_ccw(),
            "node {i}"
        );
    }
}

/// Replicated-counter pipelines converge for arbitrary scripts, ring
/// shapes, and adversaries.
#[test]
fn replication_converges_universally() {
    for case in 0u64..24 {
        let mut rng = StdRng::seed_from_u64(0x5EED + case);
        let k = rng.gen_range(2usize..=8);
        let mut set = BTreeSet::new();
        while set.len() < k {
            set.insert(rng.gen_range(1u64..=60));
        }
        let ids: Vec<u64> = set.into_iter().collect();
        let script: Vec<i64> = (0..rng.gen_range(0usize..=6))
            .map(|_| rng.gen_range(0u64..=200) as i64 - 100)
            .collect();
        let kind = SchedulerKind::ALL[case as usize % SchedulerKind::ALL.len()];
        let seed = rng.gen_range(0u64..500);
        let spec = RingSpec::oriented(ids);
        let out = elect_then_replicate(&spec, &script, &RunOptions::new(kind, seed));
        assert!(out.quiescently_terminated, "case {case} under {kind}");
        let expected: i64 = script.iter().sum();
        assert_eq!(out.outputs, vec![Some(expected); spec.len()], "case {case}");
        assert_eq!(out.leader, Some(spec.max_position()), "case {case}");
    }
}

/// Deeper model check: configuration deduplication keeps even 4- and
/// 5-node instances tractable.
#[test]
fn alg2_exhaustive_larger_rings() {
    use content_oblivious::core::registry::ExploreDriver;
    use content_oblivious::net::explore::{ExploreConfig, ExploreLimits};
    for ids in [vec![1u64, 2, 3, 4], vec![4, 2, 1, 3], vec![2, 4, 1, 5, 3]] {
        let report = ExploreDriver::of::<Alg2Def>().run(
            &RingSpec::oriented(ids.clone()),
            &ExploreConfig {
                jobs: 1,
                limits: ExploreLimits {
                    max_configs: 50_000_000,
                    max_depth: 1_000_000,
                    max_state_bytes: usize::MAX,
                },
                ..ExploreConfig::default()
            },
        );
        assert!(report.complete, "{ids:?}");
        assert!(
            report.violations.is_empty(),
            "{ids:?}: {:?}",
            report.violations
        );
        assert!(report.configs > 100, "{ids:?}: suspiciously small space");
    }
}
