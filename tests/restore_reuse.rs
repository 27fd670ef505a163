//! Snapshot restore into a long-lived simulation.
//!
//! `Simulation::restore` copies a snapshot into the simulation's existing
//! queue, statistics and latency buffers instead of reallocating them. A
//! buffer that kept stale contents from an earlier, differently shaped
//! configuration would leak into the restored one; this suite drives one
//! simulation through a seeded sequence of restores — cycling through
//! snapshots of different shapes, with steps in between that dirty the
//! buffers — and requires it to match a fresh simulation restored once.

use content_oblivious::core::registry::{Alg2Def, RingProtocol};
use content_oblivious::core::Alg2Node;
use content_oblivious::net::{
    Budget, ChannelId, FaultPlan, LatencyModel, LatencyPlan, Pulse, QueueBackend, RingSpec,
    SchedulerKind, SimSnapshot, Simulation,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const IDS: [u64; 5] = [3, 7, 2, 5, 1];

/// What rides along with the ring: nothing, duplicated sends (so counter
/// channels carry spill runs), or a latency plan (so restores rewind
/// arrival timestamps and the clock).
#[derive(Copy, Clone, Debug)]
enum Plan {
    Plain,
    Duplicates,
    Latency,
}

fn build(backend: QueueBackend, plan: Plan) -> Simulation<Pulse, Alg2Node> {
    let spec = RingSpec::oriented(IDS.to_vec());
    let nodes = Alg2Def::nodes(&spec);
    let mut sim = Simulation::with_backend(
        spec.wiring(),
        nodes,
        SchedulerKind::Random.build(11),
        backend,
    );
    match plan {
        Plan::Plain => {}
        Plan::Duplicates => sim.set_faults(
            FaultPlan::new()
                .duplicate_seq(2)
                .duplicate_seq(5)
                .duplicate_seq(9),
        ),
        Plan::Latency => sim.set_latency(LatencyPlan::new(
            LatencyModel::Uniform { min: 1, max: 6 },
            4,
        )),
    }
    sim
}

/// Snapshots along one run, taken at uneven step counts so that queue
/// lengths, run lists and statistics differ from one to the next.
fn snapshots(backend: QueueBackend, plan: Plan) -> Vec<SimSnapshot<Pulse, Alg2Node>> {
    let mut sim = build(backend, plan);
    sim.start();
    let mut out = vec![sim.snapshot()];
    for chunk in [1, 2, 4, 7, 12, 20, 35] {
        sim.run(Budget::steps(chunk));
        out.push(sim.snapshot());
    }
    out
}

fn channel_lens(sim: &Simulation<Pulse, Alg2Node>) -> Vec<usize> {
    (0..2 * IDS.len())
        .map(|ch| sim.queue_len(ChannelId::from_index(ch)))
        .collect()
}

#[test]
fn a_long_lived_simulation_matches_a_fresh_one_after_every_restore() {
    for backend in [QueueBackend::Vec, QueueBackend::Counter] {
        for plan in [Plan::Plain, Plan::Duplicates, Plan::Latency] {
            let case = format!("{backend} {plan:?}");
            let snaps = snapshots(backend, plan);
            let mut reused = build(backend, plan);
            let mut rng = StdRng::seed_from_u64(0x5EED);
            for round in 0..60 {
                let snap = &snaps[rng.gen_range(0..snaps.len())];
                reused.restore(snap);
                let mut fresh = build(backend, plan);
                fresh.restore(snap);

                assert_eq!(reused.fingerprint(), fresh.fingerprint(), "{case} #{round}");
                assert_eq!(
                    reused.net_fingerprint(),
                    fresh.net_fingerprint(),
                    "{case} #{round}"
                );
                assert_eq!(reused.stats(), fresh.stats(), "{case} #{round}");
                assert_eq!(
                    channel_lens(&reused),
                    channel_lens(&fresh),
                    "{case} #{round}"
                );
                assert_eq!(
                    reused.ready_channels(),
                    fresh.ready_channels(),
                    "{case} #{round}"
                );
                assert_eq!(reused.queue_bytes(), fresh.queue_bytes(), "{case} #{round}");
                assert_eq!(reused.now(), fresh.now(), "{case} #{round}");

                // Even rounds run both to the end; odd rounds leave the
                // reused simulation partway, with its buffers in whatever
                // shape the steps left them, for the next restore.
                if round % 2 == 0 {
                    let a = reused.run(Budget::steps(5_000));
                    let b = fresh.run(Budget::steps(5_000));
                    assert_eq!(a, b, "{case} #{round}");
                    assert_eq!(reused.fingerprint(), fresh.fingerprint(), "{case} #{round}");
                    assert_eq!(reused.stats(), fresh.stats(), "{case} #{round}");
                } else {
                    reused.run(Budget::steps(rng.gen_range(1..30)));
                }
            }
        }
    }
}

#[test]
fn counter_snapshots_cover_spill_runs() {
    // The restore test above only exercises run-list reuse if some counter
    // channel holds more than its head run: more run entries than ready
    // channels, at 16 bytes per entry.
    for plan in [Plan::Plain, Plan::Duplicates] {
        let spilled = snapshots(QueueBackend::Counter, plan).iter().any(|snap| {
            let mut sim = build(QueueBackend::Counter, plan);
            sim.restore(snap);
            sim.queue_bytes() > 16 * sim.ready_channels().len()
        });
        assert!(spilled, "{plan:?}: no snapshot carries a spill run");
    }
}
