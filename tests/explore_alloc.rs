//! The explorer's hot loop allocates nothing per configuration.
//!
//! A worker refills spare frontier records instead of building new ones,
//! and replays a paged-back spill into one, so an exhaustion's allocations
//! are its setup plus the amortized growth of its frontier, its spares and
//! its visited set: a few hundred, not two per admitted configuration,
//! with or without frontier spilling. This binary holds a single test, so no
//! other test allocates while the process-wide count runs.

use content_oblivious::core::registry::{Alg2Def, ExploreDriver};
use content_oblivious::net::explore::{ExploreConfig, ExploreReport};
use content_oblivious::net::RingSpec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Forwards every call to `System`, counting allocations and reallocations
/// on every thread while armed.
struct CountingAllocator;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

fn note() {
    if ARMED.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the bookkeeping
// only touches two static atomics, which never allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs a one-worker `alg2` exhaustion of `1..7` under `config`, counting
/// the allocations it makes.
fn exhaust(config: &ExploreConfig) -> (ExploreReport, usize) {
    let spec = RingSpec::oriented((1..=7).collect());
    let driver = ExploreDriver::of::<Alg2Def>();
    ALLOCATIONS.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    let report = driver.run(&spec, config);
    ARMED.store(false, Ordering::Relaxed);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed);
    assert!(report.complete && report.violations.is_empty());
    assert_eq!(report.configs, 19_485);
    (report, allocations)
}

#[test]
fn a_one_worker_exhaustion_allocates_far_less_than_once_per_configuration() {
    let (report, allocations) = exhaust(&ExploreConfig {
        jobs: 1,
        ..ExploreConfig::default()
    });
    assert!(
        allocations < report.configs / 16,
        "{allocations} allocations for {} configurations",
        report.configs
    );
    // With a high-water mark of 2 over a third of the admitted
    // configurations are spilled and paged back. Each is replayed into a
    // spare record and a spilled job's record is kept as a spare, so the
    // allocations, and with them the live records, stay as few as without
    // spilling.
    let (report, allocations) = exhaust(&ExploreConfig {
        jobs: 1,
        spill_high_water: 2,
        ..ExploreConfig::default()
    });
    assert!(report.spilled_jobs > report.configs / 4);
    assert!(
        allocations < report.configs / 16,
        "{allocations} allocations for {} configurations, {} spilled",
        report.configs,
        report.spilled_jobs
    );
}
