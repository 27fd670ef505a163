//! Randomized property tests of the substrate itself: wiring laws, scheduler
//! contract, simulator conservation laws, and graph analysis.
//!
//! Inputs are drawn from a seeded [`StdRng`] grid rather than a property
//! framework (the build is fully offline), so every failure reproduces from
//! the printed case number.

use co_net::graph::MultiGraph;
use co_net::sched::ChannelView;
use co_net::{
    Budget, ChannelId, Context, Direction, Outcome, Port, Protocol, Pulse, RingSpec, SchedulerKind,
    Simulation,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A relay that forwards each pulse once, clockwise, and bounces pulses
/// arriving at the clockwise port back counterclockwise up to a budget —
/// exercising both directions.
#[derive(Clone, Debug)]
struct Bouncer {
    cw_budget: u8,
    ccw_budget: u8,
}

impl Protocol<Pulse> for Bouncer {
    type Output = ();
    fn on_start(&mut self, ctx: &mut Context<'_, Pulse>) {
        ctx.send(Port::One, Pulse);
        ctx.send(Port::Zero, Pulse);
    }
    fn on_message(&mut self, port: Port, _m: Pulse, ctx: &mut Context<'_, Pulse>) {
        match port {
            Port::Zero if self.cw_budget > 0 => {
                self.cw_budget -= 1;
                ctx.send(Port::One, Pulse);
            }
            Port::One if self.ccw_budget > 0 => {
                self.ccw_budget -= 1;
                ctx.send(Port::Zero, Pulse);
            }
            _ => {}
        }
    }
    fn output(&self) -> Option<()> {
        None
    }
}

fn random_ring(rng: &mut StdRng) -> RingSpec {
    let n = rng.gen_range(1usize..=9);
    RingSpec::random_flips((1..=n as u64).collect(), rng)
}

/// The wiring endpoint map is an involution for every ring layout.
#[test]
fn wiring_involution() {
    for case in 0u64..128 {
        let mut rng = StdRng::seed_from_u64(0x11AA + case);
        let spec = random_ring(&mut rng);
        let w = spec.wiring();
        for c in w.channels() {
            let (v, p) = w.endpoint(c);
            assert_eq!(
                w.endpoint(ChannelId::new(v, p)),
                (c.node(), c.port()),
                "case {case}"
            );
        }
    }
}

/// Every channel has exactly one direction tag and the two channels of
/// a link carry opposite tags.
#[test]
fn wiring_direction_tags() {
    for case in 0u64..128 {
        let mut rng = StdRng::seed_from_u64(0x22BB + case);
        let spec = random_ring(&mut rng);
        let w = spec.wiring();
        for c in w.channels() {
            let d = w.direction(c).expect("ring channels are tagged");
            let (v, p) = w.endpoint(c);
            let back = w.direction(ChannelId::new(v, p)).expect("tagged");
            assert_eq!(d.opposite(), back, "case {case}");
        }
    }
}

/// Conservation: sent = delivered + ignored + in-flight, under every
/// scheduler, at every point — checked at the end of bounded runs.
#[test]
fn simulator_conserves_messages() {
    for case in 0u64..16 {
        for kind in SchedulerKind::ALL {
            let mut rng = StdRng::seed_from_u64(0x33CC + case);
            let spec = random_ring(&mut rng);
            let n = spec.len();
            let nodes: Vec<Bouncer> = (0..n)
                .map(|_| Bouncer {
                    cw_budget: rng.gen_range(0u64..4) as u8,
                    ccw_budget: rng.gen_range(0u64..4) as u8,
                })
                .collect();
            let seed = rng.gen::<u64>();
            let mut sim: Simulation<Pulse, Bouncer> =
                Simulation::new(spec.wiring(), nodes, kind.build(seed));
            let report = sim.run(Budget::steps(10_000));
            let stats = sim.stats();
            assert_eq!(
                stats.total_sent,
                stats.total_delivered + stats.delivered_to_terminated + sim.in_flight(),
                "case {case} under {kind}"
            );
            // Finite budgets mean the network always dies out.
            assert_eq!(
                report.outcome,
                Outcome::Quiescent,
                "case {case} under {kind}"
            );
            // Per-direction accounting covers everything on a ring.
            assert_eq!(
                stats.sent_by_direction[Direction::Cw.index()]
                    + stats.sent_by_direction[Direction::Ccw.index()],
                stats.total_sent,
                "case {case} under {kind}"
            );
        }
    }
}

/// Scheduler contract: once its index is seeded as the engine seeds it —
/// `rebuild_index`, then one `on_send` per queued message in send order —
/// every built-in adversary picks a channel of the ready set it is shown,
/// on arbitrary ready sets.
#[test]
fn scheduler_contract() {
    for case in 0u64..16 {
        for kind in SchedulerKind::ALL {
            let mut rng = StdRng::seed_from_u64(0x44DD + case);
            let len = rng.gen_range(1usize..=12);
            let ready: Vec<ChannelView> = (0..len)
                .map(|i| ChannelView {
                    id: ChannelId::from_index(i),
                    queue_len: rng.gen_range(1usize..5),
                    head_seq: (i as u64).wrapping_mul(7),
                    direction: match i % 3 {
                        0 => Some(Direction::Cw),
                        1 => Some(Direction::Ccw),
                        _ => None,
                    },
                    arrival: 0,
                })
                .collect();
            let mut sched = kind.build(rng.gen::<u64>());
            sched.rebuild_index(&ready);
            // Channel i queues seqs 7i, 7i + 1, …: increasing in i.
            for v in &ready {
                for k in 0..v.queue_len as u64 {
                    sched.on_send(v.head_seq + k, v.arrival, *v);
                }
            }
            let ids: Vec<ChannelId> = ready.iter().map(|v| v.id).collect();
            for _ in 0..32 {
                let pick = sched.pick(&ids);
                assert!(
                    ids.contains(&pick),
                    "case {case}: {kind} picked {pick:?}, which is not ready"
                );
            }
        }
    }
}

/// Cycles are 2-edge-connected; removing any edge leaves a path, i.e. all
/// remaining edges become bridges.
#[test]
fn cycle_minus_edge_is_all_bridges() {
    for n in 3usize..10 {
        let full = MultiGraph::ring(n);
        assert!(full.is_two_edge_connected());
        // Remove the last edge by rebuilding without it.
        let mut cut = MultiGraph::new(n);
        for i in 0..n - 1 {
            cut.add_edge(i, i + 1);
        }
        assert!(!cut.is_two_edge_connected());
        assert_eq!(cut.bridges().len(), n - 1);
    }
}
