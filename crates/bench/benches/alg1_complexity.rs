//! E2 bench — Corollary 13: Algorithm 1 stabilization cost (`n·ID_max`
//! pulses), with and without the full Lemma 6–12 invariant monitors, to
//! quantify the monitoring overhead.

use co_bench::harness::{BenchmarkId, Criterion, Throughput};
use co_bench::{criterion_group, criterion_main};
use co_core::invariants::CwMonitorObserver;
use co_core::registry::Alg1Def;
use co_core::runner;
use co_core::runner::RunOptions;
use co_net::{RingSpec, SchedulerKind};

fn bench_by_n(c: &mut Criterion) {
    let mut group = c.benchmark_group("alg1/by_n");
    for n in [8u64, 32, 128, 512] {
        let spec = RingSpec::oriented((1..=n).collect());
        group.throughput(Throughput::Elements(n * n));
        group.bench_with_input(BenchmarkId::from_parameter(n), &spec, |b, spec| {
            b.iter(|| runner::run::<Alg1Def>(spec, &RunOptions::new(SchedulerKind::Fifo, 0)))
        });
    }
    group.finish();
}

fn bench_monitored(c: &mut Criterion) {
    let mut group = c.benchmark_group("alg1/monitored");
    let spec = RingSpec::oriented((1..=32u64).collect());
    group.bench_function("plain", |b| {
        b.iter(|| runner::run::<Alg1Def>(&spec, &RunOptions::new(SchedulerKind::Random, 2)))
    });
    group.bench_function("with_lemma_monitors", |b| {
        b.iter(|| {
            runner::run_monitored::<Alg1Def, _>(
                &spec,
                &RunOptions::new(SchedulerKind::Random, 2),
                CwMonitorObserver::new(),
            )
            .expect("invariants")
        })
    });
    group.finish();
}

criterion_group!(benches, bench_by_n, bench_monitored);
criterion_main!(benches);
