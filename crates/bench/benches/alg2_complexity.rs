//! E1 bench — Theorem 1: Algorithm 2 across ring sizes and ID magnitudes.
//!
//! Wall-clock scales with the pulse count `n(2·ID_max + 1)`; the bench
//! sweeps both axes to expose the `ID_max` dependence that Theorem 4 proves
//! inherent.

use co_bench::harness::{BenchmarkId, Criterion, Throughput};
use co_bench::{criterion_group, criterion_main};
use co_core::registry::Alg2Def;
use co_core::runner;
use co_core::runner::RunOptions;
use co_net::{RingSpec, SchedulerKind};

fn bench_by_n(c: &mut Criterion) {
    let mut group = c.benchmark_group("alg2/by_n");
    for n in [8u64, 32, 128, 512] {
        let spec = RingSpec::oriented((1..=n).collect());
        let pulses = n * (2 * n + 1);
        group.throughput(Throughput::Elements(pulses));
        group.bench_with_input(BenchmarkId::from_parameter(n), &spec, |b, spec| {
            b.iter(|| {
                let report = runner::run::<Alg2Def>(spec, &RunOptions::new(SchedulerKind::Fifo, 0));
                assert_eq!(report.total_messages, pulses);
                report
            })
        });
    }
    group.finish();
}

fn bench_by_id_max(c: &mut Criterion) {
    let mut group = c.benchmark_group("alg2/by_id_max");
    // Fixed n = 8: complexity is governed purely by ID_max.
    for id_max in [64u64, 256, 1024, 4096, 16384] {
        let mut ids: Vec<u64> = (1..8).collect();
        ids.push(id_max);
        let spec = RingSpec::oriented(ids);
        let pulses = 8 * (2 * id_max + 1);
        group.throughput(Throughput::Elements(pulses));
        group.bench_with_input(BenchmarkId::from_parameter(id_max), &spec, |b, spec| {
            b.iter(|| {
                let report = runner::run::<Alg2Def>(spec, &RunOptions::new(SchedulerKind::Fifo, 0));
                assert_eq!(report.total_messages, pulses);
                report
            })
        });
    }
    group.finish();
}

fn bench_by_scheduler(c: &mut Criterion) {
    let mut group = c.benchmark_group("alg2/by_scheduler");
    let spec = RingSpec::oriented((1..=64u64).collect());
    for kind in SchedulerKind::ALL {
        group.bench_with_input(BenchmarkId::from_parameter(kind), &kind, |b, &kind| {
            b.iter(|| runner::run::<Alg2Def>(&spec, &RunOptions::new(kind, 1)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_by_n, bench_by_id_max, bench_by_scheduler);
criterion_main!(benches);
