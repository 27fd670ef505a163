//! Async node facade over the event core — straight-line protocol logic.
//!
//! A [`Protocol`](crate::Protocol) is an event-driven state machine: control
//! flow that a human would write as "send, wait, send again" has to be
//! hand-compiled into `on_message` dispatch over explicit state enums. This
//! module lets node logic be written as a plain `async fn` instead and
//! compiles it *onto the very same engine events*:
//!
//! * [`NodeHandle::send`] buffers a message into the node's outbox — flushed
//!   by the engine when the current event returns, exactly like
//!   [`Context::send`](crate::Context::send);
//! * [`NodeHandle::recv`] suspends until the adversarial scheduler delivers
//!   a message to the node;
//! * [`NodeHandle::sleep`] suspends for a number of *virtual* clock ticks
//!   (see [`crate::clock`]) by arming an engine timer;
//! * [`NodeHandle::timeout`] races any future against a virtual deadline.
//!
//! The executor is deliberately minimal: single-threaded, `std`-only, no
//! `unsafe` (the no-op waker is built with the stable [`std::task::Wake`]
//! trait rather than `RawWaker`), and it polls each node future exactly once
//! per engine event addressed to that node. Leaf futures re-check their
//! readiness on every poll, so one poll per event is complete: a future only
//! returns `Pending` when the node is genuinely blocked on the network, and
//! only the network (scheduler picks, timer firings) can unblock it. All
//! nondeterminism therefore still flows through the
//! [`crate::Scheduler`] — async runs record and replay
//! byte-for-byte like state-machine runs, and an async protocol paired with
//! its hand-written twin produces identical [`RunReport`]s, [`SimStats`],
//! and network fingerprints under every scheduler.
//!
//! ```rust
//! use co_net::runtime::{AsyncRing, NodeFuture};
//! use co_net::{Budget, Outcome, Port, Pulse, RingSpec, SchedulerKind};
//!
//! // Each node: send one pulse clockwise, relay the first pulse received,
//! // consume the relayed pulse of its neighbour, and terminate.
//! let spec = RingSpec::oriented(vec![1, 2, 3]);
//! let mut ring: AsyncRing<Pulse, ()> =
//!     AsyncRing::new(spec.wiring(), SchedulerKind::Fifo.build(0), |_, h| {
//!         Box::pin(async move {
//!             h.send(Port::One, Pulse);
//!             let _ = h.recv().await;
//!             h.send(Port::One, Pulse);
//!             let _ = h.recv().await;
//!         }) as NodeFuture<()>
//!     });
//! let report = ring.run(Budget::default());
//! assert_eq!(report.outcome, Outcome::QuiescentTerminated);
//! assert_eq!(report.total_sent, 6); // 3 initial pulses + 3 relays
//! ```

use crate::clock::LatencyPlan;
use crate::engine::{Budget, EventCore, EventHandler, RunMetrics, RunReport, SimStats};
use crate::faults::{FaultPlan, FaultStats};
use crate::message::Message;
use crate::port::Port;
use crate::sched::{ReplayScheduler, Scheduler};
use crate::snapshot::Schedule;
use crate::topology::Wiring;
use crate::trace::Trace;
use std::cell::RefCell;
use std::collections::{HashSet, VecDeque};
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

/// The boxed future type a node program compiles to.
///
/// `Output = Out` is the node's final decision: returning from the future
/// *terminates* the node (it ignores all further deliveries and never sends
/// again, like [`Protocol::is_terminated`](crate::Protocol::is_terminated)).
/// Stabilizing algorithms never return; they report interim decisions with
/// [`NodeHandle::publish`] and block forever on the next `recv`.
pub type NodeFuture<Out> = Pin<Box<dyn Future<Output = Out>>>;

/// Shared per-node state between the executor and the node's futures.
struct NodeCell<M: Message, Out> {
    /// Messages delivered to the node but not yet consumed by `recv`.
    inbox: VecDeque<(usize, M)>,
    /// Messages sent by the node during the current poll, in call order.
    outbox: Vec<(usize, M)>,
    /// Timers armed during the current poll: `(delay, token)`.
    timer_arms: Vec<(u64, u64)>,
    /// Tokens of timers that have fired but not yet been observed.
    fired: HashSet<u64>,
    /// Next timer token to hand out.
    next_token: u64,
    /// Latest interim decision (stabilizing output).
    published: Option<Out>,
    /// Final decision — set when the node future returns.
    done: Option<Out>,
}

impl<M: Message, Out> NodeCell<M, Out> {
    fn new() -> NodeCell<M, Out> {
        NodeCell {
            inbox: VecDeque::new(),
            outbox: Vec::new(),
            timer_arms: Vec::new(),
            fired: HashSet::new(),
            next_token: 0,
            published: None,
            done: None,
        }
    }
}

/// Capability handle owned by a node's async program.
///
/// Cheap to clone; all clones refer to the same node. The handle is the
/// async counterpart of [`Context`](crate::Context) plus the blocking
/// primitives that only make sense with suspendable control flow.
pub struct NodeHandle<M: Message, Out> {
    node: usize,
    cell: Rc<RefCell<NodeCell<M, Out>>>,
}

impl<M: Message, Out> Clone for NodeHandle<M, Out> {
    fn clone(&self) -> Self {
        NodeHandle {
            node: self.node,
            cell: Rc::clone(&self.cell),
        }
    }
}

impl<M: Message, Out> fmt::Debug for NodeHandle<M, Out> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NodeHandle")
            .field("node", &self.node)
            .finish()
    }
}

impl<M: Message, Out: Clone> NodeHandle<M, Out> {
    /// The index of this node (opaque to paper algorithms; exposed for
    /// instrumentation, like [`Context::node`](crate::Context::node)).
    #[must_use]
    pub fn node(&self) -> usize {
        self.node
    }

    /// Sends `msg` out of `port`.
    ///
    /// Buffered like [`Context::send`](crate::Context::send): the engine
    /// enqueues all sends of the current poll, in call order, when the
    /// event returns.
    pub fn send(&self, port: Port, msg: M) {
        self.cell.borrow_mut().outbox.push((port.index(), msg));
    }

    /// Resolves to the next `(port, message)` delivered to this node.
    #[must_use]
    pub fn recv(&self) -> Recv<M, Out> {
        Recv {
            cell: Rc::clone(&self.cell),
        }
    }

    /// Suspends for `ticks` virtual clock ticks.
    ///
    /// In an untimed run (no latency plan) the virtual clock only advances
    /// when the network goes quiescent, so a sleeping node effectively
    /// yields until every in-flight message has been delivered.
    #[must_use]
    pub fn sleep(&self, ticks: u64) -> Sleep<M, Out> {
        Sleep {
            cell: Rc::clone(&self.cell),
            ticks,
            token: None,
        }
    }

    /// Races `future` against a virtual deadline `ticks` from now:
    /// `Some(output)` if the future wins, `None` on timeout.
    #[must_use]
    pub fn timeout<F: Future + Unpin>(&self, ticks: u64, future: F) -> Timeout<F, M, Out> {
        Timeout {
            inner: future,
            sleep: self.sleep(ticks),
        }
    }

    /// [`NodeHandle::recv`] bounded by a virtual deadline.
    #[must_use]
    pub fn recv_timeout(&self, ticks: u64) -> Timeout<Recv<M, Out>, M, Out> {
        self.timeout(ticks, self.recv())
    }

    /// Reports an interim decision without terminating.
    ///
    /// This is how stabilizing algorithms (which never return from their
    /// future) expose their current output; the latest published value is
    /// what [`AsyncRing::outputs`] reports until the future returns.
    pub fn publish(&self, out: Out) {
        self.cell.borrow_mut().published = Some(out);
    }
}

/// Future returned by [`NodeHandle::recv`].
pub struct Recv<M: Message, Out> {
    cell: Rc<RefCell<NodeCell<M, Out>>>,
}

impl<M: Message, Out> fmt::Debug for Recv<M, Out> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Recv").finish_non_exhaustive()
    }
}

impl<M: Message, Out> Future for Recv<M, Out> {
    type Output = (Port, M);

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<(Port, M)> {
        match self.cell.borrow_mut().inbox.pop_front() {
            Some((port, msg)) => Poll::Ready((Port::from_index(port), msg)),
            None => Poll::Pending,
        }
    }
}

/// Future returned by [`NodeHandle::sleep`].
pub struct Sleep<M: Message, Out> {
    cell: Rc<RefCell<NodeCell<M, Out>>>,
    ticks: u64,
    /// Token of the armed engine timer; `None` until first polled.
    token: Option<u64>,
}

impl<M: Message, Out> fmt::Debug for Sleep<M, Out> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sleep")
            .field("ticks", &self.ticks)
            .field("token", &self.token)
            .finish_non_exhaustive()
    }
}

impl<M: Message, Out> Future for Sleep<M, Out> {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        let ticks = self.ticks;
        match self.token {
            None => {
                // Arm lazily on first poll so a sleep constructed but never
                // awaited (e.g. the loser of a `timeout` race) costs nothing.
                let mut cell = self.cell.borrow_mut();
                let token = cell.next_token;
                cell.next_token += 1;
                cell.timer_arms.push((ticks, token));
                drop(cell);
                self.token = Some(token);
                Poll::Pending
            }
            Some(token) => {
                if self.cell.borrow_mut().fired.remove(&token) {
                    Poll::Ready(())
                } else {
                    Poll::Pending
                }
            }
        }
    }
}

/// Future returned by [`NodeHandle::timeout`]: `Some(out)` if `F` completed
/// before the deadline, `None` otherwise. The inner future is polled first,
/// so a result that is ready exactly at the deadline wins the race.
#[derive(Debug)]
pub struct Timeout<F, M: Message, Out> {
    inner: F,
    sleep: Sleep<M, Out>,
}

impl<F: Future + Unpin, M: Message, Out> Future for Timeout<F, M, Out> {
    type Output = Option<F::Output>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Option<F::Output>> {
        let this = self.get_mut();
        if let Poll::Ready(v) = Pin::new(&mut this.inner).poll(cx) {
            return Poll::Ready(Some(v));
        }
        match Pin::new(&mut this.sleep).poll(cx) {
            Poll::Ready(()) => Poll::Ready(None),
            Poll::Pending => Poll::Pending,
        }
    }
}

/// A waker that does nothing: the executor re-polls on engine events, not
/// on wake-ups. Built via the stable [`Wake`] trait — no `RawWaker`, no
/// `unsafe` — which keeps the crate `#![forbid(unsafe_code)]` and MSRV-clean.
struct NoopWake;

impl Wake for NoopWake {
    fn wake(self: Arc<Self>) {}
}

/// The engine-side half of the executor: adapts the per-node futures to the
/// engine's [`EventHandler`].
struct AsyncNodes<M: Message, Out> {
    cells: Vec<Rc<RefCell<NodeCell<M, Out>>>>,
    futures: Vec<Option<NodeFuture<Out>>>,
    waker: Waker,
}

impl<M: Message, Out: Clone> AsyncNodes<M, Out> {
    /// Polls `node`'s future once; records its decision if it returned.
    fn poll_node(&mut self, node: usize) {
        let Some(future) = self.futures[node].as_mut() else {
            return;
        };
        let mut cx = Context::from_waker(&self.waker);
        if let Poll::Ready(out) = future.as_mut().poll(&mut cx) {
            self.cells[node].borrow_mut().done = Some(out);
            self.futures[node] = None;
        }
    }

    /// Moves the node's buffered sends into the engine outbox.
    fn flush(&mut self, node: usize, outbox: &mut Vec<(usize, M)>) {
        outbox.append(&mut self.cells[node].borrow_mut().outbox);
    }
}

impl<M: Message, Out: Clone + fmt::Debug> EventHandler<M> for AsyncNodes<M, Out> {
    fn on_start(&mut self, node: usize, _degree: usize, outbox: &mut Vec<(usize, M)>) {
        self.poll_node(node);
        self.flush(node, outbox);
    }

    fn on_message(
        &mut self,
        node: usize,
        _degree: usize,
        port: usize,
        msg: M,
        outbox: &mut Vec<(usize, M)>,
    ) {
        self.cells[node].borrow_mut().inbox.push_back((port, msg));
        self.poll_node(node);
        self.flush(node, outbox);
    }

    fn is_terminated(&self, node: usize) -> bool {
        self.cells[node].borrow().done.is_some()
    }

    fn on_timer(&mut self, node: usize, _degree: usize, token: u64, outbox: &mut Vec<(usize, M)>) {
        self.cells[node].borrow_mut().fired.insert(token);
        self.poll_node(node);
        self.flush(node, outbox);
    }

    fn drain_timers(&mut self, node: usize, sink: &mut Vec<(u64, u64)>) {
        sink.append(&mut self.cells[node].borrow_mut().timer_arms);
    }
}

/// Discrete-event simulation of a ring of `async fn` node programs.
///
/// The async twin of [`Simulation`](crate::Simulation): the same
/// [`EventCore`] underneath, the same schedulers, faults, budgets,
/// record/replay, tracing, and metrics — only the node representation
/// differs. See the [module docs](self) for the execution model.
pub struct AsyncRing<M: Message, Out: Clone + fmt::Debug> {
    core: EventCore<M, Wiring>,
    nodes: AsyncNodes<M, Out>,
}

impl<M: Message, Out: Clone + fmt::Debug> AsyncRing<M, Out> {
    /// Creates a ring where node `i`'s program is `spawn(i, handle)`.
    ///
    /// The spawn function typically captures per-node inputs (e.g. the ID
    /// assignment) and moves the handle into the returned future:
    ///
    /// ```rust
    /// # use co_net::runtime::{AsyncRing, NodeFuture};
    /// # use co_net::{Port, Pulse, RingSpec, SchedulerKind};
    /// let ids = vec![3u64, 1, 2];
    /// let spec = RingSpec::oriented(ids.clone());
    /// let ring: AsyncRing<Pulse, u64> =
    ///     AsyncRing::new(spec.wiring(), SchedulerKind::Fifo.build(0), |i, h| {
    ///         let id = ids[i];
    ///         Box::pin(async move {
    ///             h.send(Port::One, Pulse);
    ///             let _ = h.recv().await;
    ///             id
    ///         }) as NodeFuture<u64>
    ///     });
    /// ```
    #[must_use]
    pub fn new<F>(wiring: Wiring, scheduler: Box<dyn Scheduler>, mut spawn: F) -> AsyncRing<M, Out>
    where
        F: FnMut(usize, NodeHandle<M, Out>) -> NodeFuture<Out>,
    {
        let n = wiring.len();
        let cells: Vec<Rc<RefCell<NodeCell<M, Out>>>> = (0..n)
            .map(|_| Rc::new(RefCell::new(NodeCell::new())))
            .collect();
        let futures = cells
            .iter()
            .enumerate()
            .map(|(node, cell)| {
                let handle = NodeHandle {
                    node,
                    cell: Rc::clone(cell),
                };
                Some(spawn(node, handle))
            })
            .collect();
        AsyncRing {
            core: EventCore::new(wiring, scheduler),
            nodes: AsyncNodes {
                cells,
                futures,
                waker: Waker::from(Arc::new(NoopWake)),
            },
        }
    }

    /// Installs a seeded per-channel latency plan (virtual time). Must be
    /// called before the run starts; see
    /// [`Simulation::set_latency`](crate::Simulation::set_latency).
    pub fn set_latency(&mut self, plan: LatencyPlan) {
        self.core.set_latency(plan);
    }

    /// Installs a plan of model-violating channel faults (experiment E11).
    pub fn set_faults(&mut self, faults: FaultPlan) {
        self.core.set_faults(faults);
    }

    /// Counters of faults actually applied so far.
    #[must_use]
    pub fn fault_stats(&self) -> FaultStats {
        self.core.fault_stats()
    }

    /// Enables event tracing (unbounded if `cap` is `None`).
    pub fn enable_trace(&mut self, cap: Option<usize>) {
        self.core.enable_trace(cap);
    }

    /// The recorded trace, if tracing was enabled.
    #[must_use]
    pub fn trace(&self) -> Option<&Trace> {
        self.core.trace()
    }

    /// Enables the O(1) run-summary metrics collector.
    pub fn enable_metrics(&mut self) {
        self.core.enable_metrics();
    }

    /// The collected run metrics, if enabled.
    #[must_use]
    pub fn metrics(&self) -> Option<&RunMetrics> {
        self.core.metrics()
    }

    /// Runs every node future's first poll (in node order). Idempotent.
    pub fn start(&mut self) {
        self.core.start(&mut self.nodes);
    }

    /// Delivers one event chosen by the scheduler; `false` when quiescent.
    pub fn step(&mut self) -> bool {
        self.core.step(&mut self.nodes).is_some()
    }

    /// Runs until quiescence or budget exhaustion.
    pub fn run(&mut self, budget: Budget) -> RunReport {
        self.start();
        let mut executed: u64 = 0;
        while executed < budget.max_steps {
            if !self.step() {
                break;
            }
            executed += 1;
        }
        self.core.report()
    }

    /// Starts recording the sequence of channel picks as a [`Schedule`].
    pub fn enable_schedule_recording(&mut self) {
        self.core.enable_schedule_recording();
    }

    /// The schedule recorded so far, if recording was enabled.
    #[must_use]
    pub fn recorded_schedule(&self) -> Option<Schedule> {
        self.core.recorded_schedule()
    }

    /// Runs to completion while recording the schedule; see
    /// [`Simulation::run_recorded`](crate::Simulation::run_recorded).
    pub fn run_recorded(&mut self, budget: Budget) -> (RunReport, Schedule) {
        self.enable_schedule_recording();
        let report = self.run(budget);
        let schedule = self.recorded_schedule().expect("recording just enabled");
        (report, schedule)
    }

    /// Replays a recorded [`Schedule`] (deterministic record/replay); see
    /// [`Simulation::replay`](crate::Simulation::replay).
    pub fn replay(&mut self, schedule: &Schedule, budget: Budget) -> RunReport {
        self.core
            .set_scheduler(Box::new(ReplayScheduler::new(schedule.picks().to_vec())));
        self.run(budget)
    }

    /// Every node's current output: its final decision if the future
    /// returned, else the latest [`NodeHandle::publish`]ed value.
    #[must_use]
    pub fn outputs(&self) -> Vec<Option<Out>> {
        self.nodes
            .cells
            .iter()
            .map(|cell| {
                let cell = cell.borrow();
                cell.done.clone().or_else(|| cell.published.clone())
            })
            .collect()
    }

    /// Whether the given node's future has returned.
    #[must_use]
    pub fn is_terminated(&self, node: usize) -> bool {
        self.nodes.cells[node].borrow().done.is_some()
    }

    /// Whether no messages are in transit.
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        self.core.is_quiescent()
    }

    /// Number of messages currently in transit.
    #[must_use]
    pub fn in_flight(&self) -> u64 {
        self.core.in_flight()
    }

    /// Aggregate counters.
    #[must_use]
    pub fn stats(&self) -> &SimStats {
        self.core.stats()
    }

    /// The current virtual time (0 forever in untimed runs).
    #[must_use]
    pub fn now(&self) -> u64 {
        self.core.now()
    }

    /// Number of armed timers that have not fired yet.
    #[must_use]
    pub fn pending_timers(&self) -> usize {
        self.core.pending_timers()
    }

    /// Network-level fingerprint; see
    /// [`EventCore::net_fingerprint`](crate::EventCore::net_fingerprint).
    #[must_use]
    pub fn net_fingerprint(&self) -> u64 {
        self.core.net_fingerprint()
    }

    /// The network wiring.
    #[must_use]
    pub fn wiring(&self) -> &Wiring {
        self.core.topology()
    }
}

impl<M: Message, Out: Clone + fmt::Debug> fmt::Debug for AsyncRing<M, Out> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AsyncRing")
            .field("n", &self.wiring().len())
            .field("in_flight", &self.in_flight())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::LatencyModel;
    use crate::engine::Outcome;
    use crate::message::Pulse;
    use crate::sched::SchedulerKind;
    use crate::topology::RingSpec;

    /// Async twin of `sim::tests::Ticker`: sends `budget` pulses clockwise,
    /// one per received pulse, then terminates.
    fn ticker_ring(n: usize, budget: u64, kind: SchedulerKind, seed: u64) -> AsyncRing<Pulse, u64> {
        let spec = RingSpec::oriented((1..=n as u64).collect());
        AsyncRing::new(spec.wiring(), kind.build(seed), move |_, h| {
            Box::pin(async move {
                if budget > 0 {
                    h.send(Port::One, Pulse);
                }
                let mut seen = 0u64;
                while seen < budget {
                    let _ = h.recv().await;
                    seen += 1;
                    if seen < budget {
                        h.send(Port::One, Pulse);
                    }
                }
                seen
            }) as NodeFuture<u64>
        })
    }

    #[test]
    fn async_tickers_reach_quiescent_termination() {
        let mut ring = ticker_ring(4, 5, SchedulerKind::Fifo, 0);
        let report = ring.run(Budget::default());
        assert_eq!(report.outcome, Outcome::QuiescentTerminated);
        assert_eq!(report.total_sent, 4 + 4 * 4);
        for i in 0..4 {
            assert!(ring.is_terminated(i));
        }
        assert_eq!(ring.outputs(), vec![Some(5); 4]);
    }

    #[test]
    fn async_record_replay_is_byte_identical() {
        for kind in SchedulerKind::ALL {
            let mut original = ticker_ring(4, 6, kind, 17);
            let (report, schedule) = original.run_recorded(Budget::default());
            let mut replayed = ticker_ring(4, 6, kind, 999);
            let replay_report = replayed.replay(&schedule, Budget::default());
            assert_eq!(report, replay_report, "{kind}");
            assert_eq!(original.stats(), replayed.stats(), "{kind}");
            assert_eq!(original.outputs(), replayed.outputs(), "{kind}");
            assert_eq!(
                original.net_fingerprint(),
                replayed.net_fingerprint(),
                "{kind}"
            );
        }
    }

    #[test]
    fn sleep_fires_after_quiescence_in_untimed_runs() {
        // One node: sleep 10 ticks, then decide. No messages at all, so the
        // engine must jump the clock to the timer deadline.
        let spec = RingSpec::oriented(vec![1]);
        let mut ring: AsyncRing<Pulse, u64> =
            AsyncRing::new(spec.wiring(), SchedulerKind::Fifo.build(0), |_, h| {
                Box::pin(async move {
                    h.sleep(10).await;
                    42u64
                }) as NodeFuture<u64>
            });
        let report = ring.run(Budget::default());
        assert_eq!(report.outcome, Outcome::QuiescentTerminated);
        assert_eq!(ring.outputs(), vec![Some(42)]);
        assert_eq!(ring.now(), 10);
        assert_eq!(ring.stats().timer_fires, 1);
        assert_eq!(ring.pending_timers(), 0);
    }

    #[test]
    fn recv_timeout_times_out_when_ring_is_silent() {
        // Node 0 waits for a message that never comes; its timeout elapses.
        let spec = RingSpec::oriented(vec![1, 2]);
        let mut ring: AsyncRing<Pulse, bool> =
            AsyncRing::new(spec.wiring(), SchedulerKind::Fifo.build(0), |i, h| {
                Box::pin(async move {
                    if i == 0 {
                        h.recv_timeout(5).await.is_some()
                    } else {
                        false
                    }
                }) as NodeFuture<bool>
            });
        let report = ring.run(Budget::default());
        assert_eq!(report.outcome, Outcome::QuiescentTerminated);
        assert_eq!(ring.outputs()[0], Some(false));
    }

    #[test]
    fn recv_timeout_wins_when_a_message_arrives_first() {
        let spec = RingSpec::oriented(vec![1, 2]);
        let mut ring: AsyncRing<Pulse, bool> =
            AsyncRing::new(spec.wiring(), SchedulerKind::Fifo.build(0), |i, h| {
                Box::pin(async move {
                    if i == 0 {
                        h.recv_timeout(1_000).await.is_some()
                    } else {
                        h.send(Port::Zero, Pulse); // port Zero of node 1 → node 0
                        true
                    }
                }) as NodeFuture<bool>
            });
        let report = ring.run(Budget::default());
        assert_eq!(report.outcome, Outcome::QuiescentTerminated);
        assert_eq!(ring.outputs()[0], Some(true));
    }

    #[test]
    fn published_outputs_surface_without_termination() {
        let spec = RingSpec::oriented(vec![1]);
        let mut ring: AsyncRing<Pulse, &'static str> =
            AsyncRing::new(spec.wiring(), SchedulerKind::Fifo.build(0), |_, h| {
                Box::pin(async move {
                    h.publish("interim");
                    let _ = h.recv().await; // never resolves: ring is silent
                    "final"
                }) as NodeFuture<&'static str>
            });
        let report = ring.run(Budget::default());
        // Never terminated — publish is not termination.
        assert_eq!(report.outcome, Outcome::Quiescent);
        assert_eq!(ring.outputs(), vec![Some("interim")]);
        assert!(!ring.is_terminated(0));
    }

    #[test]
    fn latency_reorders_but_stays_deterministic() {
        let plan = LatencyPlan::new(LatencyModel::Uniform { min: 1, max: 9 }, 7);
        let run = |seed| {
            let mut ring = ticker_ring(4, 6, SchedulerKind::Latency, seed);
            ring.set_latency(plan.clone());
            let report = ring.run(Budget::default());
            (report, ring.net_fingerprint(), ring.now())
        };
        let (r1, fp1, now1) = run(5);
        let (r2, fp2, now2) = run(5);
        assert_eq!(r1, r2);
        assert_eq!(fp1, fp2);
        assert_eq!(now1, now2);
        assert!(now1 > 0, "uniform latency advances the clock");
    }
}
