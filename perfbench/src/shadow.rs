//! The shadow walk: the explorer's depth-first search replayed on one
//! thread through the public calls it is made of, each timed as a layer.
//!
//! Per popped configuration the explorer restores its snapshot, lists the
//! ready channels, and for each one restores again, delivers one pulse
//! (`step_channel`), fingerprints the result and offers the fingerprint to
//! the dedup index; an admitted successor is snapshotted and pushed. The
//! walk does the same with the same dedup store, so it must admit exactly
//! the explorer's configuration count. Its per-layer totals attribute the
//! explorer's per-configuration time; what the explorer spends beyond them
//! (state copies for predicates, frontier locking, worker hand-off) is
//! reported as unattributed.

use crate::trace::LayerClock;
use co_core::Alg2Node;
use co_net::sched::FifoScheduler;
use co_net::{DedupKind, Pulse, QueueBackend, RingSpec, ShardedIndex, Simulation};
use std::path::Path;

/// Layer names, as the per-layer metrics spell them.
pub const RESTORE: &str = "snapshot.restore";
/// See [`RESTORE`].
pub const READY: &str = "sim.ready_channels";
/// See [`RESTORE`].
pub const STEP: &str = "sim.step_channel";
/// See [`RESTORE`].
pub const FINGERPRINT: &str = "snapshot.fingerprint";
/// See [`RESTORE`].
pub const SNAPSHOT: &str = "snapshot.snapshot";
/// See [`RESTORE`].
pub const INSERT: &str = "dedup.insert";

/// What a shadow walk counted and timed.
#[derive(Clone, Debug)]
pub struct Walk {
    /// Configurations admitted (the seed included).
    pub admitted: usize,
    /// Quiescent configurations popped.
    pub quiescent: usize,
    /// Fingerprints offered to the index: one per delivered successor.
    pub probes: u64,
    /// Per-layer call clocks.
    pub clock: LayerClock,
    /// Wall time of the whole walk, in nanoseconds.
    pub wall_ns: u64,
}

/// Walks the Algorithm 2 state space on `spec` with a `dedup` index whose
/// files (if any) live under `scratch`.
#[must_use]
pub fn walk(spec: &RingSpec, dedup: DedupKind, scratch: &Path) -> Walk {
    let start = std::time::Instant::now();
    let nodes = (0..spec.len())
        .map(|i| Alg2Node::new(spec.id(i), spec.cw_port(i)))
        .collect();
    let mut sim: Simulation<Pulse, Alg2Node> = Simulation::with_backend(
        spec.wiring(),
        nodes,
        Box::new(FifoScheduler::new()),
        QueueBackend::Counter,
    );
    sim.start();
    let index = ShardedIndex::with_dir(dedup, 0, 0.0, Some(scratch));
    let mut clock = LayerClock::calibrated();
    let mut probes = 0u64;
    let mut quiescent = 0usize;

    let seed_fp = clock.time(FINGERPRINT, || sim.fingerprint());
    clock.time(INSERT, || index.insert(seed_fp));
    let mut stack = vec![clock.time(SNAPSHOT, || sim.snapshot())];
    while let Some(snap) = stack.pop() {
        clock.time(RESTORE, || sim.restore(&snap));
        if sim.is_quiescent() {
            quiescent += 1;
            continue;
        }
        for channel in clock.time(READY, || sim.ready_channels()) {
            clock.time(RESTORE, || sim.restore(&snap));
            clock
                .time(STEP, || sim.step_channel(channel))
                .expect("ready channel has a message");
            let fp = clock.time(FINGERPRINT, || sim.fingerprint());
            probes += 1;
            if clock.time(INSERT, || index.insert(fp)) {
                stack.push(clock.time(SNAPSHOT, || sim.snapshot()));
            }
        }
    }
    Walk {
        admitted: index.admitted(),
        quiescent,
        probes,
        clock,
        wall_ns: start.elapsed().as_nanos() as u64,
    }
}
