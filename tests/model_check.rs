//! Exhaustive model checking of the paper's algorithms on small instances:
//! unlike the sampled adversaries, these tests enumerate **every** possible
//! asynchronous schedule and check each definition's claims
//! (`ExploreProperties`) in each reachable configuration.
//!
//! Every exhaustive count the repository pins is re-derived here by an
//! independent model (`tests/model`) that keeps full configurations and
//! shares no code with the explorer: the configuration and quiescent
//! counts, the `(pulses sent, leader positions)` multiset of the quiescent
//! configurations, and how many of them break the protocol's claim.

mod model;

use content_oblivious::core::registry::{
    Alg1Def, Alg2Def, Alg3Def, ExploreDriver, ExploreProperties, ExploreRing, RingProtocol,
    UngatedDef,
};
use content_oblivious::net::explore::{explore, ExploreConfig};
use content_oblivious::net::{Port, Pulse, RingSpec, Snapshot};
use model::{ModelReport, Protocol, Ring};
use std::sync::Mutex;

/// Explores every schedule of `spec` with `driver` at one worker and
/// requires a complete, violation-free run that reaches quiescence.
fn check_all_schedules(driver: ExploreDriver, spec: &RingSpec) {
    let report = driver.run(
        spec,
        &ExploreConfig {
            jobs: 1,
            ..ExploreConfig::default()
        },
    );
    assert!(report.complete, "{spec}: exploration incomplete");
    assert!(
        report.violations.is_empty(),
        "{spec}: {:?}",
        report.violations
    );
    assert!(report.quiescent_configs >= 1, "{spec}");
}

#[test]
fn alg2_exhaustive_tiny_rings() {
    // Every schedule of every listed instance satisfies Lemma 6,
    // Corollary 14 and Theorem 1.
    let alg2 = ExploreDriver::of::<Alg2Def>();
    for ids in [
        [1].as_slice(),
        &[3],
        &[1, 2],
        &[2, 1],
        &[1, 3],
        &[3, 1],
        &[2, 3],
    ] {
        check_all_schedules(alg2, &RingSpec::oriented(ids.to_vec()));
    }
}

#[test]
fn alg2_exhaustive_three_ring() {
    let alg2 = ExploreDriver::of::<Alg2Def>();
    for ids in [vec![1, 2, 3], vec![3, 1, 2], vec![2, 3, 1]] {
        check_all_schedules(alg2, &RingSpec::oriented(ids));
    }
}

#[test]
fn alg1_exhaustive_stabilization() {
    // Algorithm 1 on all schedules: quiescence implies everyone at ID_max
    // with exactly the max-ID node(s) holding Leader (incl. duplicates —
    // Lemma 16).
    for ids in [vec![1u64, 2], vec![2, 4, 3], vec![3, 3, 1]] {
        check_all_schedules(ExploreDriver::of::<Alg1Def>(), &RingSpec::oriented(ids));
    }
}

#[test]
fn alg3_exhaustive_orientation() {
    // Algorithm 3 (improved) on a flipped 2-ring: all schedules stabilize
    // to one leader and a consistent orientation, with the Theorem 2 count.
    for flips in [vec![false, false], vec![true, false], vec![true, true]] {
        let spec = RingSpec::with_flips(vec![1, 2], flips);
        check_all_schedules(ExploreDriver::of::<Alg3Def>(), &spec);
    }
}

#[test]
fn theorem1_still_checked_through_the_snapshot_explorer() {
    // The explorer must still catch violations: check Algorithm 2's
    // claims (Theorem 1's exact count among them) at every quiescent
    // configuration, and confirm a falsified predicate is reported.
    let spec = RingSpec::oriented(vec![2, 1, 3]);
    let one_worker = ExploreConfig {
        jobs: 1,
        ..ExploreConfig::default()
    };
    let report = ExploreDriver::of::<Alg2Def>().run(&spec, &one_worker);
    assert!(report.complete);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert!(report.quiescent_configs >= 1);

    let falsified = explore(
        &spec.wiring(),
        || Alg2Def::nodes(&spec),
        |_| Ok(()),
        |_| Err("always wrong".into()),
        &one_worker,
    );
    assert!(!falsified.violations.is_empty());
}

/// What the explorer found on `spec` at one worker while checking `D`'s
/// claims: its configuration count, the sorted `(pulses sent, leader
/// positions)` of every quiescent configuration, and how many of those
/// broke `D`'s claim at quiescence.
fn explored<D>(spec: &RingSpec) -> ModelReport
where
    D: ExploreProperties<Msg = Pulse>,
    D::Node: Clone + Sync,
    <D::Node as Snapshot>::State: Send,
{
    let ring = ExploreRing::new(spec);
    let seen = Mutex::new((Vec::new(), 0));
    let report = explore(
        &spec.wiring(),
        || D::nodes(spec),
        |state| D::safety(&ring, state),
        |state| {
            let verdict = D::at_quiescence(&ring, state);
            let mut seen = seen.lock().expect("no predicate panicked");
            seen.0.push((state.sent, D::leader_positions(&state.nodes)));
            seen.1 += usize::from(verdict.is_err());
            verdict
        },
        &ExploreConfig {
            jobs: 1,
            ..ExploreConfig::default()
        },
    );
    assert!(report.complete, "{spec}: exploration incomplete");
    // Lemma 6 and Corollary 14 hold in every configuration, the
    // ablation's included: the gate guards only the CCW instance.
    let unsafe_configs: Vec<_> = report
        .violations
        .iter()
        .filter(|v| !v.starts_with("at quiescence"))
        .collect();
    assert!(unsafe_configs.is_empty(), "{spec}: {unsafe_configs:?}");
    let (mut quiescent, broken) = seen.into_inner().expect("no predicate panicked");
    assert_eq!(quiescent.len(), report.quiescent_configs, "{spec}");
    quiescent.sort();
    ModelReport {
        configs: report.configs,
        quiescent,
        broken,
    }
}

/// Requires the model and the explorer to find `configs` configurations
/// and `quiescent` quiescent ones on `spec`, and to agree on every
/// quiescent configuration's `(pulses sent, leader positions)` and on how
/// many break `D`'s claim.
fn model_agrees<D>(
    protocol: Protocol,
    spec: &RingSpec,
    configs: usize,
    quiescent: usize,
) -> ModelReport
where
    D: ExploreProperties<Msg = Pulse>,
    D::Node: Clone + Sync,
    <D::Node as Snapshot>::State: Send,
{
    let flips: Vec<bool> = (0..spec.len())
        .map(|i| spec.cw_port(i) == Port::Zero)
        .collect();
    let model = model::explore(&Ring::with_flips(protocol, spec.ids(), &flips));
    assert_eq!(
        (model.configs, model.quiescent.len()),
        (configs, quiescent),
        "{spec}: the model's counts"
    );
    assert_eq!(
        explored::<D>(spec),
        model,
        "{spec}: the explorer and the model disagree"
    );
    model
}

/// A protocol whose claim holds ends every schedule in one quiescent
/// configuration: `predicted` pulses sent and the leaders its claim names.
fn one_outcome(model: &ModelReport, predicted: u64, leaders: &[usize]) {
    assert_eq!(model.quiescent, [(predicted, leaders.to_vec())]);
    assert_eq!(model.broken, 0);
}

#[test]
fn model_rederives_the_algorithm1_counts() {
    let spec = RingSpec::oriented((1..=6).collect());
    let model = model_agrees::<Alg1Def>(Protocol::Alg1, &spec, 749, 1);
    one_outcome(&model, 6 * 6, &[5]);
    // Lemma 16: a duplicated ID_max elects both holders.
    let spec = RingSpec::oriented(vec![3, 1, 3, 2]);
    let model = model::explore(&Ring::oriented(Protocol::Alg1, spec.ids()));
    one_outcome(&model, 4 * 3, &[0, 2]);
    assert_eq!(explored::<Alg1Def>(&spec), model);
}

#[test]
fn model_rederives_the_algorithm2_counts() {
    // E15's five rings, the checkpoint fixture's ring, the explore
    // benchmark's and the exact gate's n = 7 rings, and the n = 8 ring.
    for (ids, configs) in [
        (vec![1, 2], 16),
        (vec![3, 1], 22),
        (vec![1, 2, 3], 60),
        (vec![2, 3, 1], 60),
        (vec![1, 2, 4], 75),
        ((1..=5).collect(), 1_024),
        ((1..=7).collect(), 19_485),
        (vec![3, 5, 2, 4, 1, 6, 7], 20_357),
        ((1..=8).collect(), 86_909),
    ] {
        let spec = RingSpec::oriented(ids);
        let model = model_agrees::<Alg2Def>(Protocol::Alg2, &spec, configs, 1);
        let n = spec.len() as u64;
        one_outcome(&model, n * (2 * spec.id_max() + 1), &[spec.max_position()]);
    }
}

#[test]
fn model_rederives_the_ablation_quiescent_set() {
    // Without the gate, 58 quiescent configurations with 29 distinct
    // (sent, leaders) outcomes; all but one break Theorem 1.
    let spec = RingSpec::oriented((1..=4).collect());
    let model = model_agrees::<UngatedDef>(Protocol::Ungated, &spec, 1_475, 58);
    let mut distinct = model.quiescent.clone();
    distinct.dedup();
    assert_eq!(distinct.len(), 29);
    assert_eq!(model.broken, 57);
}

#[test]
fn model_rederives_the_algorithm3_counts() {
    let spec = RingSpec::oriented((1..=4).collect());
    let model = model_agrees::<Alg3Def>(Protocol::Alg3, &spec, 5_335, 1);
    one_outcome(&model, 4 * (2 * 4 + 1), &[3]);
    for flips in [vec![true, false], vec![true, true], vec![false, true, true]] {
        let ids: Vec<u64> = (1..=flips.len() as u64).collect();
        let spec = RingSpec::with_flips(ids, flips);
        let model = model::explore(&Ring::with_flips(Protocol::Alg3, spec.ids(), spec.flips()));
        let n = spec.len() as u64;
        one_outcome(&model, n * (2 * spec.id_max() + 1), &[spec.max_position()]);
        assert_eq!(explored::<Alg3Def>(&spec), model, "{spec}");
    }
}
