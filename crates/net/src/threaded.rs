//! Threaded runtime: the same protocols on real OS threads.
//!
//! Each node runs on its own thread; each directed channel is an `mpsc`
//! FIFO channel. Delays come from genuine OS scheduling nondeterminism
//! (optionally amplified by random jitter), demonstrating that the
//! algorithms' guarantees are not artifacts of the discrete-event simulator.
//!
//! Quiescence of a *stabilizing* algorithm cannot be detected from inside
//! the asynchronous system (that is exactly the paper's point about
//! non-termination); the harness detects it from the outside with a global
//! sent/delivered counter pair — a privileged observer position that the
//! nodes themselves do not have.

use crate::message::Message;
use crate::port::Port;
use crate::sim::{Context, Protocol};
use crate::snapshot::Schedule;
use crate::topology::{ChannelId, NodeIndex, Wiring};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Options for a threaded run.
#[derive(Clone, Debug)]
pub struct ThreadedOptions {
    /// Hard wall-clock limit for the whole run.
    pub timeout: Duration,
    /// Number of consecutive idle polls required to declare quiescence.
    pub quiescence_polls: u32,
    /// Interval between watchdog polls.
    pub poll_interval: Duration,
    /// If nonzero, each node sleeps up to this many microseconds (seeded by
    /// node index) before processing each message, perturbing schedules.
    pub max_jitter_us: u64,
    /// Record the global delivery order as a [`Schedule`] (in
    /// `ThreadedReport::schedule`), replayable on the discrete-event
    /// [`Simulation`](crate::Simulation) — the cross-engine
    /// divergence-replay tool. Adds one mutex acquisition per delivery.
    pub record: bool,
}

impl Default for ThreadedOptions {
    fn default() -> ThreadedOptions {
        ThreadedOptions {
            timeout: Duration::from_secs(30),
            quiescence_polls: 3,
            poll_interval: Duration::from_millis(2),
            max_jitter_us: 0,
            record: false,
        }
    }
}

/// How a threaded run ended.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ThreadedOutcome {
    /// Every node terminated on its own.
    AllTerminated,
    /// The network went quiescent (sent == delivered, all threads idle).
    Quiescent,
    /// The wall-clock timeout fired first.
    TimedOut,
}

/// Result of [`run_threaded`].
#[derive(Clone, Debug)]
pub struct ThreadedReport<P> {
    /// How the run ended.
    pub outcome: ThreadedOutcome,
    /// Total messages sent across all nodes.
    pub total_sent: u64,
    /// Total messages delivered (processed) across all nodes.
    pub total_delivered: u64,
    /// The final protocol instances, in node order.
    pub nodes: Vec<P>,
    /// The global delivery order, when [`ThreadedOptions::record`] was set.
    ///
    /// Each entry is the channel whose head message a node dequeued,
    /// logged at dequeue time — before the node processes the message and
    /// sends its replies — so the recorded order respects causality: the
    /// delivery that *produced* a message is always logged before the
    /// delivery *of* that message. Replaying the schedule on a fresh
    /// [`Simulation`](crate::Simulation) of the same configuration
    /// therefore always finds the picked channel non-empty and reproduces
    /// the threaded execution's per-node delivery counts exactly.
    pub schedule: Option<Schedule>,
}

struct NodeHarness<M> {
    rx: [Receiver<M>; 2],
    tx: [Sender<M>; 2],
    /// `in_channel[q]` = the network channel delivering into port `q`.
    in_channel: [ChannelId; 2],
}

/// Runs one protocol instance per node on dedicated OS threads.
///
/// Returns when every node terminates, the network is detected quiescent, or
/// the timeout fires. Terminated nodes stop consuming messages (matching the
/// paper's semantics: a terminated node ignores incoming pulses).
///
/// # Panics
///
/// Panics if `nodes.len()` differs from the wiring's node count or if a node
/// thread panics.
pub fn run_threaded<M, P>(
    wiring: &Wiring,
    nodes: Vec<P>,
    opts: &ThreadedOptions,
) -> ThreadedReport<P>
where
    M: Message,
    P: Protocol<M> + Send + 'static,
{
    assert_eq!(nodes.len(), wiring.len(), "one protocol per node");
    let n = wiring.len();

    // One mpsc channel per directed network channel. senders[c] feeds
    // the queue of channel c; the receiver lives at the channel's endpoint.
    let mut senders: Vec<Sender<M>> = Vec::with_capacity(2 * n);
    let mut receivers: Vec<Option<Receiver<M>>> = Vec::with_capacity(2 * n);
    for _ in 0..2 * n {
        let (tx, rx) = channel();
        senders.push(tx);
        receivers.push(Some(rx));
    }

    // rx_at[(v, q)] = receiver of the channel whose endpoint is (v, q):
    // the channel leaving (u, p) where endpoint(u, p) == (v, q). Because the
    // endpoint map is an involution, that channel is exactly the one leaving
    // (v, q)'s link partner, i.e. endpoint(v, q) read backwards.
    let mut harnesses: Vec<NodeHarness<M>> = Vec::with_capacity(n);
    for v in 0..n {
        let in_channel = [Port::Zero, Port::One].map(|q| {
            let (u, p) = wiring.endpoint(ChannelId::new(v, q));
            ChannelId::new(u, p)
        });
        let rx = in_channel.map(|ch| {
            receivers[ch.index()]
                .take()
                .expect("each channel has exactly one consumer")
        });
        let tx = [Port::Zero, Port::One].map(|p| senders[ChannelId::new(v, p).index()].clone());
        harnesses.push(NodeHarness { rx, tx, in_channel });
    }

    let sent = Arc::new(AtomicU64::new(0));
    let delivered = Arc::new(AtomicU64::new(0));
    let busy = Arc::new(AtomicUsize::new(0));
    let terminated_count = Arc::new(AtomicUsize::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let picks: Option<Arc<Mutex<Vec<ChannelId>>>> = opts
        .record
        .then(|| Arc::new(Mutex::new(Vec::with_capacity(1024))));

    let mut handles = Vec::with_capacity(n);
    for (v, (mut proto, harness)) in nodes.into_iter().zip(harnesses).enumerate() {
        let sent = Arc::clone(&sent);
        let delivered = Arc::clone(&delivered);
        let busy = Arc::clone(&busy);
        let terminated_count = Arc::clone(&terminated_count);
        let stop = Arc::clone(&stop);
        let picks = picks.clone();
        let max_jitter_us = opts.max_jitter_us;
        let handle = std::thread::Builder::new()
            .name(format!("co-node-{v}"))
            .spawn(move || {
                let mut outbox: Vec<(usize, M)> = Vec::new();
                busy.fetch_add(1, Ordering::SeqCst);
                {
                    let mut ctx = Context::for_threaded(v, &mut outbox);
                    proto.on_start(&mut ctx);
                }
                for (port, msg) in outbox.drain(..) {
                    sent.fetch_add(1, Ordering::SeqCst);
                    let _ = harness.tx[port].send(msg);
                }
                busy.fetch_sub(1, Ordering::SeqCst);

                let mut jitter_state: u64 = 0x9E37_79B9_7F4A_7C15 ^ (v as u64);
                let mut terminated = proto.is_terminated();
                if terminated {
                    terminated_count.fetch_add(1, Ordering::SeqCst);
                }
                // Which port to poll first; alternated so neither receiver
                // starves the other under sustained traffic.
                let mut first = 0usize;
                while !stop.load(Ordering::SeqCst) && !terminated {
                    let mut received = None;
                    for k in 0..2 {
                        let q = (first + k) % 2;
                        match harness.rx[q].try_recv() {
                            Ok(m) => {
                                received = Some((Port::from_index(q), m));
                                break;
                            }
                            Err(TryRecvError::Empty | TryRecvError::Disconnected) => {}
                        }
                    }
                    first ^= 1;
                    let Some((port, msg)) = received else {
                        std::thread::sleep(Duration::from_micros(500));
                        continue;
                    };
                    // Log the pick at dequeue time, before processing:
                    // replies to this message can only be logged later, so
                    // the recorded order respects causality.
                    if let Some(log) = &picks {
                        log.lock()
                            .expect("pick log lock")
                            .push(harness.in_channel[port.index()]);
                    }
                    busy.fetch_add(1, Ordering::SeqCst);
                    if max_jitter_us > 0 {
                        // xorshift jitter: cheap, deterministic per node.
                        jitter_state ^= jitter_state << 13;
                        jitter_state ^= jitter_state >> 7;
                        jitter_state ^= jitter_state << 17;
                        let us = jitter_state % max_jitter_us;
                        if us > 0 {
                            std::thread::sleep(Duration::from_micros(us));
                        }
                    }
                    {
                        let mut ctx = Context::for_threaded(v, &mut outbox);
                        proto.on_message(port, msg, &mut ctx);
                    }
                    for (out_port, out_msg) in outbox.drain(..) {
                        sent.fetch_add(1, Ordering::SeqCst);
                        let _ = harness.tx[out_port].send(out_msg);
                    }
                    delivered.fetch_add(1, Ordering::SeqCst);
                    busy.fetch_sub(1, Ordering::SeqCst);
                    if proto.is_terminated() {
                        terminated = true;
                        terminated_count.fetch_add(1, Ordering::SeqCst);
                    }
                }
                proto
            })
            .expect("spawn node thread");
        handles.push(handle);
    }

    // Watchdog: declare quiescence when sent == delivered and no thread is
    // processing, stable across several polls.
    let deadline = Instant::now() + opts.timeout;
    let mut stable_polls = 0;
    let outcome = loop {
        if terminated_count.load(Ordering::SeqCst) == n {
            break ThreadedOutcome::AllTerminated;
        }
        if Instant::now() >= deadline {
            break ThreadedOutcome::TimedOut;
        }
        let s = sent.load(Ordering::SeqCst);
        let d = delivered.load(Ordering::SeqCst);
        let b = busy.load(Ordering::SeqCst);
        if s == d && b == 0 {
            stable_polls += 1;
            if stable_polls >= opts.quiescence_polls {
                break ThreadedOutcome::Quiescent;
            }
        } else {
            stable_polls = 0;
        }
        std::thread::sleep(opts.poll_interval);
    };

    stop.store(true, Ordering::SeqCst);
    let nodes: Vec<P> = handles
        .into_iter()
        .map(|h| h.join().expect("node thread panicked"))
        .collect();

    let schedule = picks.map(|log| {
        let picks = std::mem::take(&mut *log.lock().expect("pick log lock"));
        Schedule::from_picks(picks)
    });

    ThreadedReport {
        outcome,
        total_sent: sent.load(Ordering::SeqCst),
        total_delivered: delivered.load(Ordering::SeqCst),
        nodes,
        schedule,
    }
}

impl<'a, M: Message> Context<'a, M> {
    /// Internal constructor used by the threaded runtime.
    pub(crate) fn for_threaded(node: NodeIndex, outbox: &'a mut Vec<(usize, M)>) -> Context<'a, M> {
        Context::buffered(node, outbox)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Pulse;
    use crate::topology::RingSpec;

    /// Relays each pulse once around the ring `laps` times, then terminates.
    #[derive(Debug)]
    struct LapCounter {
        laps: u64,
        seen: u64,
        done: bool,
    }

    impl Protocol<Pulse> for LapCounter {
        type Output = u64;
        fn on_start(&mut self, ctx: &mut Context<'_, Pulse>) {
            ctx.send(Port::One, Pulse);
        }
        fn on_message(&mut self, _port: Port, _msg: Pulse, ctx: &mut Context<'_, Pulse>) {
            self.seen += 1;
            if self.seen < self.laps {
                ctx.send(Port::One, Pulse);
            } else {
                self.done = true;
            }
        }
        fn is_terminated(&self) -> bool {
            self.done
        }
        fn output(&self) -> Option<u64> {
            Some(self.seen)
        }
    }

    #[test]
    fn threaded_ring_terminates() {
        let spec = RingSpec::oriented(vec![1, 2, 3, 4]);
        let nodes = (0..4)
            .map(|_| LapCounter {
                laps: 6,
                seen: 0,
                done: false,
            })
            .collect();
        let report = run_threaded(&spec.wiring(), nodes, &ThreadedOptions::default());
        assert_eq!(report.outcome, ThreadedOutcome::AllTerminated);
        for node in &report.nodes {
            assert_eq!(node.seen, 6);
        }
        assert_eq!(report.total_sent, 4 + 4 * 5);
    }

    /// A pure relay network with no initial sends goes quiescent immediately.
    #[derive(Debug)]
    struct Silent;

    impl Protocol<Pulse> for Silent {
        type Output = ();
        fn on_start(&mut self, _ctx: &mut Context<'_, Pulse>) {}
        fn on_message(&mut self, _p: Port, _m: Pulse, _ctx: &mut Context<'_, Pulse>) {}
        fn output(&self) -> Option<()> {
            None
        }
    }

    #[test]
    fn threaded_detects_quiescence() {
        let spec = RingSpec::oriented(vec![1, 2, 3]);
        let nodes = vec![Silent, Silent, Silent];
        let report = run_threaded(&spec.wiring(), nodes, &ThreadedOptions::default());
        assert_eq!(report.outcome, ThreadedOutcome::Quiescent);
        assert_eq!(report.total_sent, 0);
    }

    #[test]
    fn threaded_recording_replays_on_the_simulator() {
        use crate::sim::{Budget, Simulation};
        let spec = RingSpec::oriented(vec![1, 2, 3, 4, 5]);
        let nodes = (0..5)
            .map(|_| LapCounter {
                laps: 4,
                seen: 0,
                done: false,
            })
            .collect();
        let opts = ThreadedOptions {
            record: true,
            max_jitter_us: 50,
            ..ThreadedOptions::default()
        };
        let report = run_threaded(&spec.wiring(), nodes, &opts);
        assert_eq!(report.outcome, ThreadedOutcome::AllTerminated);
        let schedule = report.schedule.as_ref().expect("recording was enabled");
        assert_eq!(schedule.len() as u64, report.total_delivered);

        // The recorded schedule, replayed on the discrete-event simulator,
        // reproduces the threaded run: same sends, same per-node receipts.
        let nodes = (0..5)
            .map(|_| LapCounter {
                laps: 4,
                seen: 0,
                done: false,
            })
            .collect();
        let mut sim: Simulation<Pulse, LapCounter> = Simulation::new(
            spec.wiring(),
            nodes,
            crate::sched::SchedulerKind::Fifo.build(0),
        );
        let sim_report = sim.replay(schedule, Budget::steps(schedule.len() as u64));
        assert_eq!(sim_report.total_sent, report.total_sent);
        assert_eq!(sim_report.steps, report.total_delivered);
        for (v, node) in report.nodes.iter().enumerate() {
            assert_eq!(sim.node(v).seen, node.seen, "node {v} diverged");
        }
    }

    #[test]
    fn unrecorded_runs_have_no_schedule() {
        let spec = RingSpec::oriented(vec![1, 2, 3]);
        let nodes = vec![Silent, Silent, Silent];
        let report = run_threaded(&spec.wiring(), nodes, &ThreadedOptions::default());
        assert!(report.schedule.is_none());
    }

    #[test]
    fn threaded_self_loop() {
        let spec = RingSpec::oriented(vec![9]);
        let nodes = vec![LapCounter {
            laps: 10,
            seen: 0,
            done: false,
        }];
        let report = run_threaded(&spec.wiring(), nodes, &ThreadedOptions::default());
        assert_eq!(report.outcome, ThreadedOutcome::AllTerminated);
        assert_eq!(report.nodes[0].seen, 10);
    }
}
