//! E14 bench — the universal ring simulation: cost of running a simulated
//! content-carrying algorithm (Chang–Roberts) over the defective ring, as
//! a function of ring size and of the simulated message magnitude (the
//! unary encoding makes words expensive — the price of obliviousness).

use co_bench::harness::{BenchmarkId, Criterion};
use co_bench::{criterion_group, criterion_main};
use co_classic::chang_roberts::{ChangRobertsNode, CrMsg};
use co_compose::universal::simulate_on_defective_ring;
use co_core::runner::RunOptions;
use co_net::{Port, RingSpec, SchedulerKind};

fn cr_encode(m: &CrMsg) -> u64 {
    match *m {
        CrMsg::Candidate(id) => id << 1,
        CrMsg::Elected(id) => (id << 1) | 1,
    }
}

fn cr_decode(w: u64) -> CrMsg {
    if w & 1 == 0 {
        CrMsg::Candidate(w >> 1)
    } else {
        CrMsg::Elected(w >> 1)
    }
}

fn bench_by_n(c: &mut Criterion) {
    let mut group = c.benchmark_group("universal/chang_roberts_by_n");
    group.sample_size(20);
    for n in [3u64, 6, 12] {
        let spec = RingSpec::oriented((1..=n).collect());
        group.bench_with_input(BenchmarkId::from_parameter(n), &spec, |b, spec| {
            b.iter(|| {
                simulate_on_defective_ring(
                    spec,
                    &RunOptions::new(SchedulerKind::Fifo, 0),
                    |i| ChangRobertsNode::new(spec.id(i), Port::One),
                    cr_encode,
                    cr_decode,
                )
            })
        });
    }
    group.finish();
}

fn bench_by_id_magnitude(c: &mut Criterion) {
    // Same ring size, bigger IDs: unary word cost grows linearly.
    let mut group = c.benchmark_group("universal/chang_roberts_by_id");
    group.sample_size(20);
    for base in [4u64, 32, 256] {
        let spec = RingSpec::oriented(vec![base, base + 1, base + 2]);
        group.bench_with_input(BenchmarkId::from_parameter(base), &spec, |b, spec| {
            b.iter(|| {
                simulate_on_defective_ring(
                    spec,
                    &RunOptions::new(SchedulerKind::Fifo, 0),
                    |i| ChangRobertsNode::new(spec.id(i), Port::One),
                    cr_encode,
                    cr_decode,
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_by_n, bench_by_id_magnitude);
criterion_main!(benches);
