//! E9 bench — Corollary 5: the cost of election-then-computation pipelines.

use co_bench::harness::{BenchmarkId, Criterion};
use co_bench::{criterion_group, criterion_main};
use co_compose::pipeline::{elect_then_aggregate, elect_then_ring_size};
use co_core::runner::RunOptions;
use co_net::{RingSpec, SchedulerKind};

fn bench_ring_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("composition/ring_size");
    for n in [8u64, 32, 128] {
        let spec = RingSpec::oriented((1..=n).collect());
        group.bench_with_input(BenchmarkId::from_parameter(n), &spec, |b, spec| {
            b.iter(|| elect_then_ring_size(spec, &RunOptions::new(SchedulerKind::Fifo, 0)))
        });
    }
    group.finish();
}

fn bench_aggregate(c: &mut Criterion) {
    let mut group = c.benchmark_group("composition/aggregate");
    for n in [8u64, 32, 128] {
        let spec = RingSpec::oriented((1..=n).collect());
        let inputs: Vec<u64> = (0..n).collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &spec, |b, spec| {
            b.iter(|| elect_then_aggregate(spec, &inputs, &RunOptions::new(SchedulerKind::Fifo, 0)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ring_size, bench_aggregate);
criterion_main!(benches);
