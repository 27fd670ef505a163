//! End-to-end Corollary 5 integration: election composed with computation,
//! across schedulers and ring shapes, including the §1.1 attribution
//! property (leader terminates phase 1 last; no cross-phase pulses).

use content_oblivious::compose::pipeline::{
    elect_then_aggregate, elect_then_replicate, elect_then_ring_size,
};
use content_oblivious::core::runner::RunOptions;
use content_oblivious::core::IdAssignment;
use content_oblivious::net::{RingSpec, SchedulerKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn ring_size_pipeline_matrix() {
    let mut rng = StdRng::seed_from_u64(31);
    for n in [1usize, 2, 3, 5, 9, 16] {
        let ids = IdAssignment::Shuffled.generate(n, &mut rng);
        let spec = RingSpec::oriented(ids);
        for kind in SchedulerKind::ALL {
            let out = elect_then_ring_size(&spec, &RunOptions::new(kind, 77));
            assert!(out.quiescently_terminated, "n={n} {kind}");
            assert_eq!(out.leader, Some(spec.max_position()), "n={n} {kind}");
            assert_eq!(out.outputs, vec![Some(n as u64); n], "n={n} {kind}");
        }
    }
}

#[test]
fn aggregate_pipeline_matrix() {
    let mut rng = StdRng::seed_from_u64(32);
    for n in [1usize, 4, 8] {
        let ids = IdAssignment::SparseUniform { id_max: 60 }.generate(n, &mut rng);
        let spec = RingSpec::oriented(ids);
        let inputs: Vec<u64> = (0..n as u64).map(|i| 3 * i + 1).collect();
        let expected_sum: u64 = inputs.iter().sum();
        let expected_max: u64 = *inputs.iter().max().unwrap();
        for kind in [
            SchedulerKind::Fifo,
            SchedulerKind::Lifo,
            SchedulerKind::Random,
        ] {
            let out = elect_then_aggregate(&spec, &inputs, &RunOptions::new(kind, 5));
            assert!(out.quiescently_terminated, "n={n} {kind}");
            let mut distances = Vec::new();
            for (i, o) in out.outputs.iter().enumerate() {
                let o = o.unwrap_or_else(|| panic!("n={n} {kind} node {i} undecided"));
                assert_eq!(o.sum, expected_sum, "n={n} {kind} node {i}");
                assert_eq!(o.max, expected_max, "n={n} {kind} node {i}");
                assert_eq!(o.count, n as u64, "n={n} {kind} node {i}");
                distances.push(o.distance);
            }
            // Distances are a permutation of 0..n (each node has a unique
            // CCW distance from the leader).
            distances.sort_unstable();
            let expected: Vec<u64> = (0..n as u64).collect();
            assert_eq!(distances, expected, "n={n} {kind}");
        }
    }
}

#[test]
fn replicated_counter_pipeline() {
    let spec = RingSpec::oriented(vec![10, 40, 20, 30]);
    let script = vec![1i64, -2, 300, -4_000, 50_000];
    let expected: i64 = script.iter().sum();
    for kind in SchedulerKind::ALL {
        let out = elect_then_replicate(&spec, &script, &RunOptions::new(kind, 13));
        assert!(out.quiescently_terminated, "{kind}");
        assert_eq!(out.outputs, vec![Some(expected); 4], "{kind}");
    }
}

#[test]
fn election_phase_cost_is_invariant_within_pipeline() {
    // Whatever the application does afterwards, phase 1 costs exactly
    // Theorem 1's n(2·ID_max + 1): total = phase1 + phase2, with phase2
    // deterministic for the ring-size app.
    let spec = RingSpec::oriented(vec![5, 2, 9]);
    let baseline = elect_then_ring_size(&spec, &RunOptions::new(SchedulerKind::Fifo, 0));
    for kind in SchedulerKind::ALL {
        for seed in 0..3u64 {
            let out = elect_then_ring_size(&spec, &RunOptions::new(kind, seed));
            assert_eq!(
                out.total_messages, baseline.total_messages,
                "{kind} seed {seed}: total pulse count must be schedule-independent"
            );
            assert_eq!(out.election_messages, Some(3 * (2 * 9 + 1)));
        }
    }
}
