//! Acceptance for the work-stealing, frontier-sharded explorer.
//!
//! Three properties gate the engine:
//!
//! 1. every worker count is a drop-in for the one-worker (sequential) run —
//!    identical configuration counts, quiescent counts, byte accounting and
//!    violation verdicts;
//! 2. across a seeded sweep of random faulted instances the mmap backend
//!    reports exactly what the exact backend reports: the same counts and
//!    the same violation set;
//! 3. the n=4 Algorithm 1 sweep completes at 8 workers.

use content_oblivious::core::registry::{
    Alg1Def, Alg2Def, Alg3Def, ExploreDriver, ExploreProperties, ExploreRing, RingProtocol,
    UngatedDef,
};
use content_oblivious::core::Alg2Node;
use content_oblivious::net::explore::{explore, ExploreConfig, ExploreLimits, ExploreState};
use content_oblivious::net::{DedupKind, FaultPlan, RingSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn alg2_nodes(spec: &RingSpec) -> Vec<Alg2Node> {
    Alg2Def::nodes(spec)
}

/// The faulted runs' safety predicate: an injected fault breaks the channel
/// model Lemma 6 rests on, so no claim is checked before quiescence.
fn no_check<P>(_: &ExploreState<P>) -> Result<(), String> {
    Ok(())
}

/// The default configuration at `jobs` workers.
fn workers(jobs: usize) -> ExploreConfig {
    ExploreConfig {
        jobs,
        ..ExploreConfig::default()
    }
}

fn sorted(mut v: Vec<String>) -> Vec<String> {
    v.sort();
    v
}

#[test]
fn parallel_exact_is_a_drop_in_for_the_sequential_explorer() {
    // One protocol per snapshot-capable family, each checked against its
    // claims; the one-worker run is the sequential reference.
    let spec = RingSpec::oriented(vec![3u64, 1, 2]);
    for (name, driver) in [
        ("alg1", ExploreDriver::of::<Alg1Def>()),
        ("alg2", ExploreDriver::of::<Alg2Def>()),
        ("alg3", ExploreDriver::of::<Alg3Def>()),
    ] {
        let seq = driver.run(&spec, &workers(1));
        assert!(seq.complete && seq.violations.is_empty(), "{name}");
        for jobs in [2usize, 4, 8] {
            let par = driver.run(&spec, &workers(jobs));
            assert_eq!(par.configs, seq.configs, "{name} configs at jobs={jobs}");
            assert_eq!(par.quiescent_configs, seq.quiescent_configs, "{name}");
            assert_eq!(par.visited_bytes, seq.visited_bytes, "{name}");
            assert!(par.complete && par.violations.is_empty(), "{name}");
        }
    }
}

#[test]
fn parallel_agrees_with_sequential_on_the_ablation() {
    // The deliberately broken ablation (E11) livelocks under adversarial
    // schedules, but its *deduplicated* state space on this tiny ring is
    // still finite — every worker count must agree on it exactly, and on
    // the Algorithm 2 claims it breaks.
    let spec = RingSpec::oriented(vec![2u64, 3, 1]);
    let driver = ExploreDriver::of::<UngatedDef>();
    let seq = driver.run(&spec, &workers(1));
    assert!(seq.complete && !seq.violations.is_empty());
    let par = driver.run(&spec, &workers(4));
    assert!(par.complete);
    assert_eq!(par.configs, seq.configs);
    assert_eq!(par.quiescent_configs, seq.quiescent_configs);
    assert_eq!(sorted(par.violations), sorted(seq.violations));
}

#[test]
fn both_engines_truncate_a_genuinely_infinite_space() {
    // A duplicated pulse never quiesces under Algorithm 2 (the gate defers
    // it forever), so the state space is infinite: no worker count may claim
    // completeness under a configuration cap. The fault breaks the channel
    // model the claims rest on, so none is checked.
    let spec = RingSpec::oriented(vec![3u64, 5, 2]);
    let limits = ExploreLimits {
        max_configs: 3_000,
        ..ExploreLimits::default()
    };
    let plan = FaultPlan::new().duplicate_seq(1);
    let seq = explore(
        &spec.wiring(),
        || alg2_nodes(&spec),
        no_check,
        no_check,
        &ExploreConfig {
            jobs: 1,
            limits,
            faults: plan.clone(),
            ..ExploreConfig::default()
        },
    );
    assert!(!seq.complete);
    let par = explore(
        &spec.wiring(),
        || alg2_nodes(&spec),
        no_check,
        no_check,
        &ExploreConfig {
            jobs: 4,
            limits,
            faults: plan,
            ..ExploreConfig::default()
        },
    );
    assert!(!par.complete);
}

/// The quiescence predicate of the fault sweep: Algorithm 2's, inverted to
/// flag any quiescent configuration that still looks like a healthy
/// election, so a "violation" means a schedule survived the fault.
fn healthy_election_flag(
    spec: &RingSpec,
) -> impl Fn(&ExploreState<Alg2Node>) -> Result<(), String> + Sync + '_ {
    let ring = ExploreRing::new(spec);
    move |state| match Alg2Def::at_quiescence(&ring, state) {
        Ok(()) => Err("healthy election under fault".into()),
        Err(_) => Ok(()),
    }
}

#[test]
fn mmap_and_exact_agree_on_a_seeded_fault_sweep() {
    // 50 seeded random faulted n=3 instances. Dropped pulses keep the state
    // space finite; the healthy-election predicate turns "a schedule survives
    // the fault" into a violation. Both backends are exact sets, so the
    // file-backed one at 4 workers must report the one-worker exact run's
    // counts and violation set, trial for trial.
    let mut rng = StdRng::seed_from_u64(0x5EED_B100);
    for trial in 0..50 {
        let ids: Vec<u64> = (0..3).map(|_| rng.gen_range(1..=7)).collect();
        let spec = RingSpec::oriented(ids.clone());
        let drop_at = rng.gen_range(1..=8);
        let plan = FaultPlan::new().drop_seq(drop_at);
        let run = |jobs: usize, dedup: DedupKind| {
            explore(
                &spec.wiring(),
                || alg2_nodes(&spec),
                no_check,
                healthy_election_flag(&spec),
                &ExploreConfig {
                    jobs,
                    dedup,
                    faults: plan.clone(),
                    ..ExploreConfig::default()
                },
            )
        };
        let exact = run(1, DedupKind::Exact);
        let mmap = run(4, DedupKind::Mmap { budget: 1 << 16 });
        let at = format!("trial {trial}: ids {ids:?} drop {drop_at}");
        assert!(exact.complete && mmap.complete, "{at}");
        assert_eq!(mmap.configs, exact.configs, "{at}");
        assert_eq!(mmap.quiescent_configs, exact.quiescent_configs, "{at}");
        assert_eq!(sorted(mmap.violations), sorted(exact.violations), "{at}");
        assert_eq!(mmap.visited_heap_bytes, 0, "{at}");
    }
}

#[test]
fn acceptance_n4_alg1_sweep_with_8_workers() {
    let spec = RingSpec::oriented(vec![2u64, 4, 1, 3]);
    let driver = ExploreDriver::of::<Alg1Def>();
    let seq = driver.run(&spec, &workers(1));
    assert!(seq.complete && seq.violations.is_empty());
    let par = driver.run(&spec, &workers(8));
    assert!(par.complete && par.violations.is_empty());
    assert_eq!(par.configs, seq.configs);
    assert_eq!(par.quiescent_configs, seq.quiescent_configs);
    assert_eq!(par.visited_bytes, seq.visited_bytes);
}
