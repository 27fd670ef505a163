//! E3/E4 bench — Proposition 15 vs Theorem 2: the two virtual-ID schemes of
//! Algorithm 3 on non-oriented rings. The improved scheme should run at
//! roughly half the doubled scheme's cost (pulse ratio ≈ (2·ID)/(4·ID)).

use co_bench::harness::{BenchmarkId, Criterion, Throughput};
use co_bench::{criterion_group, criterion_main};
use co_core::runner::RunOptions;
use co_core::{runner, IdScheme};
use co_net::{RingSpec, SchedulerKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_schemes(c: &mut Criterion) {
    let mut group = c.benchmark_group("alg3/scheme");
    let mut rng = StdRng::seed_from_u64(33);
    for n in [16u64, 64, 256] {
        let spec = RingSpec::random_flips((1..=n).collect(), &mut rng);
        for scheme in [IdScheme::Doubled, IdScheme::Improved] {
            let pulses = scheme.predicted_messages(n, n).expect("fits in u64");
            group.throughput(Throughput::Elements(pulses));
            let label = format!("{scheme:?}/n={n}");
            group.bench_with_input(BenchmarkId::from_parameter(label), &spec, |b, spec| {
                b.iter(|| {
                    let out =
                        runner::run_alg3(spec, scheme, &RunOptions::new(SchedulerKind::Fifo, 0))
                            .expect("IDs fit");
                    assert_eq!(out.report.total_messages, pulses);
                    out
                })
            });
        }
    }
    group.finish();
}

fn bench_resampling_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("alg3/prop19_resampling");
    let spec = RingSpec::oriented(vec![5, 5, 5, 5, 5, 5, 5, 120]);
    group.bench_function("without", |b| {
        b.iter(|| {
            runner::run_alg3(
                &spec,
                IdScheme::Improved,
                &RunOptions::new(SchedulerKind::Random, 4),
            )
            .expect("IDs fit")
        })
    });
    group.bench_function("with", |b| {
        b.iter(|| {
            runner::run_alg3_resampling(
                &spec,
                IdScheme::Improved,
                &RunOptions::new(SchedulerKind::Random, 4),
            )
            .expect("IDs fit")
        })
    });
    group.finish();
}

criterion_group!(benches, bench_schemes, bench_resampling_overhead);
criterion_main!(benches);
