//! The explorer's flat frontier records against full snapshots.
//!
//! The explorer keeps each frontier configuration as a `PulseConfig`: node
//! states, one pulse count per channel, the terminated flags and the send
//! counters. Loading one rewrites a running simulation in place; everything
//! a `SimSnapshot` holds beyond that (queue runs, per-port statistics, the
//! ready order, scheduler state) is left as it was. This suite checks that
//! the difference is invisible to the explorer, for every explore-capable
//! registry entry, with and without a fault plan:
//!
//! 1. along seeded random delivery paths, each configuration is loaded from
//!    its flat record into one long-lived simulation and restored from its
//!    full snapshot into another; the two must agree on the fingerprint,
//!    the send counters and the explorer's view of the configuration, and
//!    again after delivering from every ready channel;
//! 2. the registry's explore drivers still report the configuration,
//!    quiescent and spill counts the snapshot-based explorer reported.

use co_bench::protocols;
use content_oblivious::core::ablation::UngatedAlg2Node;
use content_oblivious::core::registry::Capability;
use content_oblivious::core::{Alg1Node, Alg2Node, Alg3Node, IdScheme};
use content_oblivious::net::explore::{ExploreConfig, PulseConfig};
use content_oblivious::net::{
    ChannelId, DedupKind, FaultPlan, Protocol, Pulse, QueueBackend, RingSpec, SchedulerKind,
    Simulation, Snapshot,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What the explorer reads of a configuration: its dedup fingerprint
/// inputs, the fault plan's trigger counter, and the `ExploreState` fields
/// (node states by their captured value).
#[derive(Debug, PartialEq, Eq)]
struct Seen {
    fingerprint: u64,
    send_seq: u64,
    sent: u64,
    queues: Vec<usize>,
    terminated: Vec<bool>,
    nodes: Vec<String>,
}

fn seen<P: Protocol<Pulse> + Snapshot>(sim: &Simulation<Pulse, P>) -> Seen {
    let n = sim.nodes().len();
    Seen {
        fingerprint: sim.fingerprint(),
        send_seq: sim.send_seq(),
        sent: sim.stats().total_sent,
        queues: (0..2 * n)
            .map(|ch| sim.queue_len(ChannelId::from_index(ch)))
            .collect(),
        terminated: (0..n).map(|v| sim.is_terminated(v)).collect(),
        nodes: sim
            .nodes()
            .iter()
            .map(|node| format!("{:?}", node.extract()))
            .collect(),
    }
}

fn sim<P: Protocol<Pulse>>(
    spec: &RingSpec,
    nodes: Vec<P>,
    faults: &FaultPlan,
) -> Simulation<Pulse, P> {
    let mut sim = Simulation::with_backend(
        spec.wiring(),
        nodes,
        SchedulerKind::Fifo.build(0),
        QueueBackend::Counter,
    );
    sim.set_faults(faults.clone());
    sim
}

/// Walks seeded random delivery paths of the ring whose node `i` is
/// `node(i)`, and checks every configuration on them, and every successor
/// of each, loaded versus restored. Returns the number of configurations
/// checked.
fn check_walks<P, F>(spec: &RingSpec, node: F, faults: &FaultPlan, rng: &mut StdRng) -> usize
where
    P: Protocol<Pulse> + Snapshot,
    F: Fn(usize) -> P,
{
    let make = || (0..spec.len()).map(&node).collect();
    // Both are long-lived, so every load lands on buffers a different
    // configuration left behind.
    let mut loaded = sim(spec, make(), faults);
    let mut restored = sim(spec, make(), faults);
    let mut checked = 0;
    for _ in 0..12 {
        let mut walk = sim(spec, make(), faults);
        walk.start();
        for _ in 0..400 {
            let record = PulseConfig::capture(&walk);
            let snapshot = walk.snapshot();
            record.load(&mut loaded);
            restored.restore(&snapshot);
            assert_eq!(seen(&loaded), seen(&walk), "load reproduces the record");
            assert_eq!(seen(&loaded), seen(&restored));
            let ready = walk.ready_channels();
            assert_eq!(loaded.ready_channels(), ready);
            for &channel in &ready {
                record.load(&mut loaded);
                restored.restore(&snapshot);
                let a = loaded.step_channel(channel).expect("ready channel");
                let b = restored.step_channel(channel).expect("ready channel");
                assert_eq!((a.node, a.port, a.ignored), (b.node, b.port, b.ignored));
                assert_eq!(seen(&loaded), seen(&restored), "after channel {channel:?}");
                assert_eq!(loaded.ready_channels(), restored.ready_channels());
            }
            checked += 1;
            let Some(&channel) = ready.get(rng.gen_range(0..ready.len().max(1))) else {
                break;
            };
            walk.step_channel(channel);
        }
    }
    checked
}

/// The node sets the registry's explore drivers build, by entry name.
fn check_entry(name: &str, spec: &RingSpec, faults: &FaultPlan, rng: &mut StdRng) -> usize {
    let (id, cw) = (|i| spec.id(i), |i| spec.cw_port(i));
    match name {
        "alg1" => check_walks(spec, |i| Alg1Node::new(id(i), cw(i)), faults, rng),
        "alg2" => check_walks(spec, |i| Alg2Node::new(id(i), cw(i)), faults, rng),
        "alg3" => check_walks(
            spec,
            |i| Alg3Node::new(id(i), IdScheme::Improved),
            faults,
            rng,
        ),
        "ungated" => check_walks(spec, |i| UngatedAlg2Node::new(id(i), cw(i)), faults, rng),
        other => panic!("explore-capable entry '{other}' has no flat-record check"),
    }
}

#[test]
fn a_loaded_flat_record_steps_like_a_restored_snapshot() {
    let names = protocols().supporting(Capability::Explore);
    assert_eq!(names, ["alg1", "alg2", "alg3", "ungated"]);
    let mut rng = StdRng::seed_from_u64(0x00F1_A7EC);
    for name in names {
        for n in [3usize, 5] {
            let mut ids: Vec<u64> = (1..=n as u64).collect();
            for i in (1..n).rev() {
                ids.swap(i, rng.gen_range(0..=i));
            }
            let spec = RingSpec::oriented(ids);
            // Clean, then a drop and a duplicate early enough to fire on
            // every path, so counter channels also carry split runs.
            for faults in [
                FaultPlan::new(),
                FaultPlan::new()
                    .drop_seq(3)
                    .duplicate_seq(1)
                    .duplicate_seq(6),
            ] {
                let checked = check_entry(name, &spec, &faults, &mut rng);
                assert!(
                    checked > 12,
                    "{name} on {spec}: only {checked} configurations"
                );
            }
        }
    }
}

/// Configuration, quiescent and (one worker) spill counts of the registry
/// drivers, as `co-ring explore --protocol NAME --n N` printed them before
/// the frontier held flat records.
#[test]
fn registry_explore_counts_are_unchanged() {
    let reg = protocols();
    for (name, n, configs, quiescent) in [
        ("alg1", 6, 749, 1),
        ("alg2", 7, 19_485, 1),
        ("alg2", 8, 86_909, 1),
        ("alg3", 4, 5_335, 1),
        ("ungated", 4, 1_475, 58),
    ] {
        let spec = RingSpec::oriented((1..=n).collect());
        let driver = reg.explore(name).expect("explore-capable");
        for jobs in [1, 2] {
            let report = driver.run(
                &spec,
                &ExploreConfig {
                    jobs,
                    ..ExploreConfig::default()
                },
            );
            let got = (report.configs, report.quiescent_configs, report.complete);
            assert_eq!(got, (configs, quiescent, true), "{name} n={n} jobs={jobs}");
        }
    }

    let dir = std::env::temp_dir().join(format!("co-ring-flat-record-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let spec = RingSpec::oriented((1..=6).collect());
    for jobs in [1, 2] {
        let report = reg.explore("alg2").expect("explore-capable").run(
            &spec,
            &ExploreConfig {
                jobs,
                dedup: "mmap".parse::<DedupKind>().expect("dedup kind"),
                spill_high_water: 8,
                scratch_dir: Some(dir.clone()),
                ..ExploreConfig::default()
            },
        );
        assert_eq!(report.configs, 4_431, "jobs={jobs}");
        assert_eq!(report.quiescent_configs, 1, "jobs={jobs}");
        assert!(report.complete);
        // Which items spill depends on how two workers interleave.
        if jobs == 1 {
            assert_eq!(report.spilled_jobs, 658);
        } else {
            assert!(report.spilled_jobs > 0);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
