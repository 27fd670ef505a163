//! E12 bench — cost of exhaustively model-checking Algorithm 2's schedule
//! space against its claims as the instance grows (configurations grow
//! combinatorially; the fingerprint-deduplication keeps it tractable).

use co_bench::harness::{BenchmarkId, Criterion};
use co_bench::{criterion_group, criterion_main};
use co_core::registry::{Alg2Def, ExploreDriver};
use co_net::explore::ExploreConfig;
use co_net::RingSpec;

/// One exhaustive check of Lemma 6, Corollary 14 and Theorem 1.
fn check(ids: &[u64]) -> usize {
    let report = ExploreDriver::of::<Alg2Def>().run(
        &RingSpec::oriented(ids.to_vec()),
        &ExploreConfig {
            jobs: 1,
            ..ExploreConfig::default()
        },
    );
    assert!(report.complete && report.violations.is_empty());
    report.configs
}

fn bench_model_check(c: &mut Criterion) {
    let mut group = c.benchmark_group("model_check/alg2");
    for ids in [
        vec![1u64, 2],
        vec![1, 2, 3],
        vec![2, 3, 4],
        vec![1, 2, 3, 4],
    ] {
        let label = format!("{ids:?}");
        group.bench_with_input(BenchmarkId::from_parameter(label), &ids, |b, ids| {
            b.iter(|| check(ids))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_model_check);
criterion_main!(benches);
