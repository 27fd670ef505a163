//! E8 bench — §1.2 comparison: classical content-carrying baselines vs the
//! content-oblivious Algorithm 2 on the same rings.

use co_bench::harness::{BenchmarkId, Criterion};
use co_bench::{criterion_group, criterion_main};
use co_classic::runner::Baseline;
use co_core::registry::Alg2Def;
use co_core::runner::RunOptions;
use co_core::{runner, IdAssignment};
use co_net::{RingSpec, SchedulerKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_all(c: &mut Criterion) {
    let mut group = c.benchmark_group("baselines/by_n");
    let mut rng = StdRng::seed_from_u64(88);
    for n in [32usize, 128, 512] {
        let spec = RingSpec::oriented(IdAssignment::Shuffled.generate(n, &mut rng));
        for baseline in Baseline::ALL {
            let label = format!("{baseline}/n={n}");
            group.bench_with_input(BenchmarkId::from_parameter(label), &spec, |b, spec| {
                b.iter(|| baseline.run(spec, &RunOptions::new(SchedulerKind::Fifo, 2)))
            });
        }
        let label = format!("alg2-content-oblivious/n={n}");
        group.bench_with_input(BenchmarkId::from_parameter(label), &spec, |b, spec| {
            b.iter(|| runner::run::<Alg2Def>(spec, &RunOptions::new(SchedulerKind::Fifo, 2)))
        });
    }
    group.finish();
}

fn bench_cr_worst_case(c: &mut Criterion) {
    // Chang-Roberts' pathological descending ring vs ours on the same ring.
    let mut group = c.benchmark_group("baselines/descending_ring");
    let n = 256u64;
    let spec = RingSpec::oriented((1..=n).rev().collect());
    group.bench_function("chang_roberts", |b| {
        b.iter(|| Baseline::ChangRoberts.run(&spec, &RunOptions::new(SchedulerKind::Fifo, 0)))
    });
    group.bench_function("alg2", |b| {
        b.iter(|| runner::run::<Alg2Def>(&spec, &RunOptions::new(SchedulerKind::Fifo, 0)))
    });
    group.finish();
}

criterion_group!(benches, bench_all, bench_cr_worst_case);
criterion_main!(benches);
