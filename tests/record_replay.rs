//! Record/replay determinism: a recorded [`Schedule`] replayed on a fresh
//! simulation must reproduce the original run byte-for-byte — the same
//! picks, the same [`RunReport`], the same [`SimStats`] — for every
//! scheduler kind, a spread of seeds, and each of the paper's three
//! algorithms.

use content_oblivious::core::registry::{Alg1Def, Alg2Def, Alg3Def, RingProtocol};
use content_oblivious::core::Alg2Node;
use content_oblivious::net::{
    Budget, Protocol, Pulse, RingSpec, Schedule, SchedulerKind, Simulation,
};

/// Records a run under `kind`/`seed`, then replays the schedule on a fresh
/// simulation and checks that both runs are byte-identical.
fn assert_replay_identical<P, F>(spec: &RingSpec, make: F, kind: SchedulerKind, seed: u64)
where
    P: Protocol<Pulse>,
    F: Fn() -> Vec<P>,
{
    let mut recorded: Simulation<Pulse, P> =
        Simulation::new(spec.wiring(), make(), kind.build(seed));
    let (report, schedule) = recorded.run_recorded(Budget::default());

    // The replaying simulation's own scheduler is irrelevant: the schedule
    // dictates every delivery. Give it a *different* scheduler to prove it.
    let mut replayed: Simulation<Pulse, P> = Simulation::new(
        spec.wiring(),
        make(),
        SchedulerKind::Lifo.build(seed ^ 0xdead),
    );
    replayed.enable_schedule_recording();
    let replay_report = replayed.replay(&schedule, Budget::default());

    let tag = format!("{kind} seed {seed}");
    // Theorems 1–3 make the report the same under every schedule; the picks
    // are what shows the replay followed the recording.
    assert_eq!(
        replayed.recorded_schedule().as_ref(),
        Some(&schedule),
        "{tag}: replayed picks differ"
    );
    assert_eq!(report, replay_report, "{tag}: RunReport differs");
    assert_eq!(
        format!("{:?}", recorded.stats()),
        format!("{:?}", replayed.stats()),
        "{tag}: SimStats differ"
    );
    assert_eq!(
        format!("{report:?}"),
        format!("{replay_report:?}"),
        "{tag}: RunReport debug bytes differ"
    );

    // Round-trip the schedule through its textual form too: the CLI's
    // `record` output must feed `replay --schedule` without loss.
    let reparsed: Schedule = schedule.to_string().parse().expect("schedule parses");
    assert_eq!(schedule, reparsed, "{tag}: Display/FromStr round trip");
}

#[test]
fn alg1_replays_identically_under_every_scheduler() {
    let spec = RingSpec::oriented(vec![3, 1, 4, 2]);
    for kind in SchedulerKind::ALL {
        for seed in [0u64, 7, 42, 1000] {
            assert_replay_identical(&spec, || Alg1Def::nodes(&spec), kind, seed);
        }
    }
}

#[test]
fn alg2_replays_identically_under_every_scheduler() {
    let spec = RingSpec::oriented(vec![2, 5, 1, 3]);
    for kind in SchedulerKind::ALL {
        for seed in [0u64, 7, 42, 1000] {
            assert_replay_identical(&spec, || Alg2Def::nodes(&spec), kind, seed);
        }
    }
}

#[test]
fn alg3_replays_identically_under_every_scheduler() {
    // A non-oriented ring: Algorithm 3 must also agree on orientation, and
    // the replay must reproduce that too.
    let spec = RingSpec::with_flips(vec![2, 4, 1], vec![true, false, true]);
    for kind in SchedulerKind::ALL {
        for seed in [0u64, 7, 42] {
            assert_replay_identical(&spec, || <Alg3Def>::nodes(&spec), kind, seed);
        }
    }
}

#[test]
fn replay_reproduces_outputs_not_just_counters() {
    // Spot-check that replayed node states match, not only the aggregate
    // report: same roles at every position.
    let spec = RingSpec::oriented(vec![4, 9, 1, 6, 2]);
    for kind in [SchedulerKind::Random, SchedulerKind::LongestQueue] {
        let make = || Alg2Def::nodes(&spec);
        let mut recorded: Simulation<Pulse, Alg2Node> =
            Simulation::new(spec.wiring(), make(), kind.build(13));
        let (_, schedule) = recorded.run_recorded(Budget::default());
        let mut replayed: Simulation<Pulse, Alg2Node> =
            Simulation::new(spec.wiring(), make(), SchedulerKind::Fifo.build(0));
        replayed.replay(&schedule, Budget::default());
        for i in 0..spec.len() {
            assert_eq!(
                recorded.node(i).role(),
                replayed.node(i).role(),
                "{kind}: node {i} role"
            );
        }
    }
}
