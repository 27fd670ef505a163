//! E5 bench — Theorem 3: anonymous-ring election cost across `n` and `c`.
//! The complexity is `n^{O(1)}` but grows with `c` through `ID_max`.

use co_bench::harness::{BenchmarkId, Criterion};
use co_bench::{criterion_group, criterion_main};
use co_core::anonymous::{elect_anonymous, SamplingConfig};
use co_core::runner::RunOptions;
use co_net::SchedulerKind;

fn bench_by_n(c: &mut Criterion) {
    let mut group = c.benchmark_group("anonymous/by_n");
    group.sample_size(20);
    let cfg = SamplingConfig::new(1.0).with_max_bits(12);
    for n in [8usize, 32, 128] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                elect_anonymous(n, &cfg, &RunOptions::new(SchedulerKind::Random, seed))
            })
        });
    }
    group.finish();
}

fn bench_by_c(c: &mut Criterion) {
    let mut group = c.benchmark_group("anonymous/by_c");
    group.sample_size(20);
    for c_param in [0.5f64, 1.0, 2.0] {
        let cfg = SamplingConfig::new(c_param).with_max_bits(12);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("c={c_param}")),
            &cfg,
            |b, cfg| {
                let mut seed = 0u64;
                b.iter(|| {
                    seed += 1;
                    elect_anonymous(16, cfg, &RunOptions::new(SchedulerKind::Random, seed))
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_by_n, bench_by_c);
criterion_main!(benches);
