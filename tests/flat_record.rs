//! The explorer's successor probe against the engine.
//!
//! The explorer never steps a simulation: a `Probe` delivers one pulse from
//! a flat `PulseConfig` record by cloning only the receiving node, applies
//! its sends to a copy of the counts by the engine's rules, and hashes the
//! successor from the parent's parts. This suite ties that reimplementation
//! to the engine, for every explore-capable registry entry, with and
//! without a fault plan:
//!
//! 1. along seeded random delivery paths (oriented rings of 1, 2, 3 and 5
//!    nodes, and a non-oriented ring; also for a relay ring whose nodes
//!    would act on a pulse after terminating), every successor the probe builds
//!    equals `PulseConfig::capture` after `Simulation::step_channel` —
//!    words, send counters and node fingerprints — and its dedup
//!    fingerprint equals `config_fingerprint`; the walks must deliver a
//!    pulse to a terminated node, drop a send and duplicate one;
//! 2. the registry's explore drivers report the configuration, quiescent
//!    and spill counts the engine-stepping explorer reported;
//! 3. a checkpoint written by that explorer resumes to its full count.

use co_bench::protocols;
use content_oblivious::core::ablation::UngatedAlg2Node;
use content_oblivious::core::registry::Capability;
use content_oblivious::core::{Alg1Node, Alg2Node, Alg3Node, IdScheme};
use content_oblivious::net::explore::{
    config_fingerprint, ExploreCheckpoint, ExploreConfig, Probe, PulseConfig,
};
use content_oblivious::net::{
    ChannelId, Context, DedupKind, FaultPlan, Port, Protocol, Pulse, RingSpec, SchedulerKind,
    Simulation, Snapshot,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;

/// The node fingerprints of a record's states, restored into `scratch`;
/// each must equal the fingerprint the record keeps beside its state.
fn node_fps<P: Snapshot>(scratch: &mut [P], nodes: &[(P::State, u64)]) -> Vec<u64> {
    scratch
        .iter_mut()
        .zip(nodes)
        .map(|(node, (state, kept))| {
            node.restore(state);
            assert_eq!(
                node.fingerprint(),
                *kept,
                "a record's kept node fingerprint"
            );
            *kept
        })
        .collect()
}

/// Forwards every pulse it receives and terminates after its second. Were
/// it handed a pulse after that, it would count and forward it: the
/// registry's nodes ignore pulses once terminated, so this is the ring that
/// shows a probe delivering to a terminated node.
#[derive(Clone, Debug)]
struct Relay(u64);

impl Protocol<Pulse> for Relay {
    type Output = u64;
    fn on_start(&mut self, ctx: &mut Context<'_, Pulse>) {
        ctx.send(Port::One, Pulse);
    }
    fn on_message(&mut self, _port: Port, _msg: Pulse, ctx: &mut Context<'_, Pulse>) {
        self.0 += 1;
        ctx.send(Port::One, Pulse);
    }
    fn is_terminated(&self) -> bool {
        self.0 >= 2
    }
    fn output(&self) -> Option<u64> {
        Some(self.0)
    }
}

impl Snapshot for Relay {
    type State = u64;
    fn extract(&self) -> u64 {
        self.0
    }
    fn restore(&mut self, state: &u64) {
        self.0 = *state;
    }
    fn fingerprint(&self) -> u64 {
        self.0
    }
}

/// What the walks delivered: pulses ignored by terminated nodes, sends
/// dropped and sends duplicated.
#[derive(Default)]
struct Seen {
    successors: usize,
    ignored: usize,
    dropped: u64,
    duplicated: u64,
}

/// Walks seeded random delivery paths of the ring whose node `i` is
/// `node(i)`, and checks every successor of every configuration on them:
/// the probe's against the engine's.
fn check_walks<P, F>(
    spec: &RingSpec,
    node: F,
    faults: &FaultPlan,
    rng: &mut StdRng,
    seen: &mut Seen,
) where
    P: Protocol<Pulse> + Snapshot + Clone,
    F: Fn(usize) -> P,
{
    let make = || (0..spec.len()).map(&node).collect::<Vec<P>>();
    let wiring = spec.wiring();
    let mut probe = Probe::new(&wiring, make(), faults);
    let mut scratch = make();
    for _ in 0..12 {
        let mut walk = Simulation::new(spec.wiring(), make(), SchedulerKind::Fifo.build(0));
        walk.set_faults(faults.clone());
        walk.start();
        for _ in 0..400 {
            let parent = PulseConfig::capture(&walk);
            let snapshot = walk.snapshot();
            probe.load(&parent);
            let state = probe.state();
            let queues: Vec<u32> = (0..wiring.channel_count())
                .map(|ch| walk.queue_len(ChannelId::from_index(ch)) as u32)
                .collect();
            assert_eq!(state.queues, queues);
            assert_eq!(state.sent, walk.stats().total_sent);
            let terminated: Vec<bool> = (0..spec.len()).map(|v| walk.is_terminated(v)).collect();
            assert_eq!(state.terminated, terminated);
            let ready = walk.ready_channels();
            for channel in wiring.channels() {
                let probed = probe.probe(&parent, channel.index());
                if !ready.contains(&channel) {
                    assert_eq!(probed, None, "empty channel {channel:?}");
                    continue;
                }
                let fp = probed.expect("a ready channel has a successor");
                let built = probe.record(&parent);
                walk.restore(&snapshot);
                let before = walk.fault_stats();
                let step = walk.step_channel(channel).expect("ready channel");
                let after = walk.fault_stats();
                let want = PulseConfig::capture(&walk);
                assert_eq!(built.words, want.words, "after {channel:?}");
                assert_eq!(built.send_seq, want.send_seq, "after {channel:?}");
                assert_eq!(built.sent, want.sent, "after {channel:?}");
                assert_eq!(
                    node_fps(&mut scratch, &built.nodes),
                    node_fps(&mut scratch, &want.nodes),
                    "after {channel:?}"
                );
                assert_eq!(fp, config_fingerprint(&walk, faults), "after {channel:?}");
                seen.successors += 1;
                seen.ignored += usize::from(step.ignored);
                seen.dropped += after.dropped - before.dropped;
                seen.duplicated += after.duplicated - before.duplicated;
            }
            walk.restore(&snapshot);
            let Some(&channel) = ready.get(rng.gen_range(0..ready.len().max(1))) else {
                break;
            };
            walk.step_channel(channel);
        }
    }
}

/// The node sets the registry's explore drivers build, by entry name.
fn check_entry(name: &str, spec: &RingSpec, faults: &FaultPlan, rng: &mut StdRng, seen: &mut Seen) {
    let (id, cw) = (|i| spec.id(i), |i| spec.cw_port(i));
    match name {
        "alg1" => check_walks(spec, |i| Alg1Node::new(id(i), cw(i)), faults, rng, seen),
        "alg2" => check_walks(spec, |i| Alg2Node::new(id(i), cw(i)), faults, rng, seen),
        "alg3" => check_walks(
            spec,
            |i| Alg3Node::new(id(i), IdScheme::Improved),
            faults,
            rng,
            seen,
        ),
        "ungated" => check_walks(
            spec,
            |i| UngatedAlg2Node::new(id(i), cw(i)),
            faults,
            rng,
            seen,
        ),
        "relay" => check_walks(spec, |_| Relay(0), faults, rng, seen),
        other => panic!("explore-capable entry '{other}' has no probe check"),
    }
}

#[test]
fn a_probed_successor_equals_the_engine_step() {
    let names = protocols().supporting(Capability::Explore);
    assert_eq!(names, ["alg1", "alg2", "alg3", "ungated"]);
    let mut rng = StdRng::seed_from_u64(0x00F1_A7EC);
    let mut seen = Seen::default();
    for name in names.into_iter().chain(["relay"]) {
        let mut rings = Vec::new();
        for n in [1usize, 2, 3, 5] {
            let mut ids: Vec<u64> = (1..=n as u64).collect();
            for i in (1..n).rev() {
                ids.swap(i, rng.gen_range(0..=i));
            }
            rings.push(RingSpec::oriented(ids));
        }
        rings.push(RingSpec::with_flips(
            vec![2, 4, 1, 3],
            vec![false, true, true, false],
        ));
        for spec in &rings {
            // Clean, then a drop and a duplicate early enough to fire on
            // every path.
            for faults in [
                FaultPlan::new(),
                FaultPlan::new()
                    .drop_seq(3)
                    .duplicate_seq(1)
                    .duplicate_seq(6),
            ] {
                let before = seen.successors;
                check_entry(name, spec, &faults, &mut rng, &mut seen);
                assert!(
                    seen.successors > before,
                    "{name} on {spec}: no successor checked"
                );
            }
        }
    }
    assert!(seen.ignored > 0, "no pulse reached a terminated node");
    assert!(seen.dropped > 0, "no send was dropped");
    assert!(seen.duplicated > 0, "no send was duplicated");
}

/// Configuration, quiescent and (one worker) spill counts of the registry
/// drivers, as `co-ring explore --protocol NAME --n N` printed them before
/// the explorer probed successors instead of stepping a simulation.
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

/// `tests/fixtures/alg2-n5-cut200-v3.ck` was written by `co-ring explore
/// --protocol alg2 --n 5 --max-configs 200 --checkpoint
/// alg2-n5-cut200-v3.ck`. Its dedup shards hold the fingerprints of that
/// build, so resuming it re-admits nothing only if the probe still hashes
/// every configuration to the same value.
#[test]
fn an_older_checkpoint_resumes_to_the_uninterrupted_count() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/alg2-n5-cut200-v3.ck");
    let ck = ExploreCheckpoint::read(&path).expect("the fixture decodes");
    assert_eq!(ck.admitted, 201);
    assert!(!ck.is_finished());
    let spec = RingSpec::oriented((1..=5).collect());
    let driver = protocols().explore("alg2").expect("explore-capable");
    let full = driver.run(&spec, &ExploreConfig::default());
    assert_eq!((full.configs, full.quiescent_configs), (1_024, 1));
    for jobs in [1, 2] {
        let resumed = driver.run(
            &spec,
            &ExploreConfig {
                jobs,
                resume: Some(ck.clone()),
                ..ExploreConfig::default()
            },
        );
        let got = (resumed.configs, resumed.quiescent_configs, resumed.complete);
        assert_eq!(got, (1_024, 1, true), "jobs={jobs}");
    }
}

/// `tests/fixtures/alg2-n5-cut200.ck` is the same cut written as CORINGCK
/// v2, whose dedup shards hold fingerprints of the chained hash that
/// preceded the position-keyed sum. Resuming it would re-admit every
/// configuration it counted, so decoding must refuse it and say why.
#[test]
fn a_version_2_checkpoint_is_refused() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/alg2-n5-cut200.ck");
    let err = ExploreCheckpoint::read(&path).expect_err("v2 is refused");
    assert!(err.contains("version 2"), "{err}");
    assert!(err.contains("older hash"), "{err}");
}
