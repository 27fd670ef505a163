//! Exhaustive model checking of the paper's algorithms on small instances:
//! unlike the sampled adversaries, these tests enumerate **every** possible
//! asynchronous schedule and verify the theorems in each reachable
//! configuration.

use content_oblivious::core::registry::Alg3Def;
use content_oblivious::core::registry::{Alg1Def, Alg2Def, RingProtocol};
use content_oblivious::core::{Alg2Node, Role};
use content_oblivious::net::explore::{explore, ExploreConfig};
use content_oblivious::net::RingSpec;

fn check_alg2_all_schedules(ids: Vec<u64>) {
    let spec = RingSpec::oriented(ids.clone());
    let n = spec.len() as u64;
    let id_max = spec.id_max();
    let leader_pos = spec.max_position();
    let report = explore(
        &spec.wiring(),
        || Alg2Def::nodes(&spec),
        |state| {
            // Safety in every reachable configuration: Lemma 6 for the CW
            // instance and Corollary 14.
            for (i, node) in state.nodes.iter().enumerate() {
                let (id, rho, sigma) = (node.id(), node.rho_cw(), node.sigma_cw());
                let expected = if rho < id { rho + 1 } else { rho };
                if sigma != expected {
                    return Err(format!("Lemma 6 at node {i}: ρ={rho} σ={sigma} ID={id}"));
                }
                if rho > state.nodes.iter().map(Alg2Node::id).max().unwrap() {
                    return Err(format!("Corollary 14 at node {i}"));
                }
            }
            Ok(())
        },
        |state| {
            // Every quiescent configuration must be the unique correct one:
            // all terminated, right leader, exact Theorem 1 count.
            if !state.terminated.iter().all(|&t| t) {
                return Err("quiescent but not all terminated".into());
            }
            for (i, node) in state.nodes.iter().enumerate() {
                let want = if i == leader_pos {
                    Role::Leader
                } else {
                    Role::NonLeader
                };
                if node.role() != want {
                    return Err(format!("node {i} ended as {:?}", node.role()));
                }
            }
            if state.sent != n * (2 * id_max + 1) {
                return Err(format!("sent {} ≠ {}", state.sent, n * (2 * id_max + 1)));
            }
            Ok(())
        },
        &ExploreConfig {
            jobs: 1,
            ..ExploreConfig::default()
        },
    );
    assert!(report.complete, "{ids:?}: exploration incomplete");
    assert!(
        report.violations.is_empty(),
        "{ids:?}: {:?}",
        report.violations
    );
    assert!(report.quiescent_configs >= 1, "{ids:?}");
}

#[test]
fn alg2_exhaustive_tiny_rings() {
    // Every schedule of every listed instance satisfies Theorem 1.
    check_alg2_all_schedules(vec![1]);
    check_alg2_all_schedules(vec![3]);
    check_alg2_all_schedules(vec![1, 2]);
    check_alg2_all_schedules(vec![2, 1]);
    check_alg2_all_schedules(vec![1, 3]);
    check_alg2_all_schedules(vec![3, 1]);
    check_alg2_all_schedules(vec![2, 3]);
}

#[test]
fn alg2_exhaustive_three_ring() {
    check_alg2_all_schedules(vec![1, 2, 3]);
    check_alg2_all_schedules(vec![3, 1, 2]);
    check_alg2_all_schedules(vec![2, 3, 1]);
}

#[test]
fn alg1_exhaustive_stabilization() {
    // Algorithm 1 on all schedules: quiescence implies everyone at ID_max
    // with exactly the max-ID node(s) holding Leader (incl. duplicates —
    // Lemma 16).
    for ids in [vec![1u64, 2], vec![2, 4, 3], vec![3, 3, 1]] {
        let spec = RingSpec::oriented(ids.clone());
        let id_max = spec.id_max();
        let report = explore(
            &spec.wiring(),
            || Alg1Def::nodes(&spec),
            |_| Ok(()),
            |state| {
                for (i, node) in state.nodes.iter().enumerate() {
                    if node.rho_cw() != id_max || node.sigma_cw() != id_max {
                        return Err(format!("node {i} counters not at ID_max"));
                    }
                    let want = if node.id() == id_max {
                        Role::Leader
                    } else {
                        Role::NonLeader
                    };
                    if node.role() != want {
                        return Err(format!("node {i}: {:?}", node.role()));
                    }
                }
                Ok(())
            },
            &ExploreConfig {
                jobs: 1,
                ..ExploreConfig::default()
            },
        );
        assert!(report.complete, "{ids:?}");
        assert!(
            report.violations.is_empty(),
            "{ids:?}: {:?}",
            report.violations
        );
    }
}

#[test]
fn alg3_exhaustive_orientation() {
    // Algorithm 3 (improved) on a flipped 2-ring: all schedules stabilize
    // to one leader and a consistent orientation, with the Theorem 2 count.
    for flips in [vec![false, false], vec![true, false], vec![true, true]] {
        let spec = RingSpec::with_flips(vec![1, 2], flips.clone());
        let n = 2u64;
        let id_max = 2u64;
        let report = explore(
            &spec.wiring(),
            || <Alg3Def>::nodes(&spec),
            |_| Ok(()),
            |state| {
                let outs: Vec<_> = state
                    .nodes
                    .iter()
                    .map(|nd| nd.output().ok_or("undecided at quiescence"))
                    .collect::<Result<_, _>>()?;
                let leaders = outs.iter().filter(|o| o.role == Role::Leader).count();
                if leaders != 1 || outs[1].role != Role::Leader {
                    return Err(format!("leaders: {leaders}"));
                }
                let all_cw = (0..2).all(|i| outs[i].cw_port == spec.cw_port(i));
                let all_ccw = (0..2).all(|i| outs[i].cw_port == spec.ccw_port(i));
                if !(all_cw || all_ccw) {
                    return Err("inconsistent orientation".into());
                }
                if state.sent != n * (2 * id_max + 1) {
                    return Err(format!("sent {}", state.sent));
                }
                Ok(())
            },
            &ExploreConfig {
                jobs: 1,
                ..ExploreConfig::default()
            },
        );
        assert!(report.complete, "{flips:?}");
        assert!(
            report.violations.is_empty(),
            "{flips:?}: {:?}",
            report.violations
        );
    }
}
