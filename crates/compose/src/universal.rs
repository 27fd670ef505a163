//! The universal ring simulation: Corollary 5 in full.
//!
//! *"Assuming unique IDs, any asynchronous algorithm on rings can be
//! simulated in a fully defective oriented ring."* This module delivers
//! that promise executably: [`UniversalApp`] takes an **arbitrary**
//! content-carrying ring protocol (`P: Protocol<M>` — e.g. Chang–Roberts
//! with its ID-carrying messages) and executes it faithfully over channels
//! that erase all content, by sequencing its message deliveries through the
//! round-broadcast layer.
//!
//! ## How a content-carrying message crosses a contentless network
//!
//! After a **setup loop** (each node learns the ring size `n` and its
//! distance from the root, like [`crate::apps::RingSizeApp`]), the token
//! keeps rotating. A holder with a pending simulated message `(port, m)`
//! broadcasts one word
//!
//! ```text
//! word = 1 + 2·(encode(m)·n + target_distance) + arrival_port_bit
//! ```
//!
//! in unary; every node decodes it and the one at `target_distance`
//! delivers `m` to its inner protocol on the right port, collecting any
//! replies into its own pending queue. A holder with nothing to send
//! broadcasts the reserved no-op word `0`. When the root observes `n`
//! consecutive no-op rounds while its own queue is empty, the simulated
//! algorithm is globally quiescent and the root halts the layer
//! (quiescent termination of the whole composition).
//!
//! The induced delivery order — one message at a time, per-sender FIFO —
//! is a legal asynchronous schedule of the inner protocol, so any of its
//! `∀ schedule` guarantees carry over. The cost is `O(word)` pulses per
//! simulated message: unary encoding is exponential in the message length,
//! the same trade-off the paper's own scheme accepts (content-oblivious
//! computation buys robustness, not efficiency).
//!
//! ```rust
//! use co_compose::universal::simulate_on_defective_ring;
//! use co_classic::chang_roberts::{ChangRobertsNode, CrMsg};
//! use co_core::runner::RunOptions;
//! use co_core::Role;
//! use co_net::{Port, RingSpec, SchedulerKind};
//!
//! // Chang–Roberts needs to read IDs out of messages — impossible on a
//! // defective ring... unless simulated:
//! let spec = RingSpec::oriented(vec![4, 2, 5]);
//! let out = simulate_on_defective_ring(
//!     &spec,
//!     &RunOptions::new(SchedulerKind::Random, 7),
//!     |i| ChangRobertsNode::new(spec.id(i), Port::One),
//!     |m| match *m {
//!         CrMsg::Candidate(id) => id << 1,
//!         CrMsg::Elected(id) => (id << 1) | 1,
//!     },
//!     |w| if w & 1 == 0 { CrMsg::Candidate(w >> 1) } else { CrMsg::Elected(w >> 1) },
//! );
//! assert!(out.quiescently_terminated);
//! assert_eq!(out.outputs[2], Some(Role::Leader)); // ID 5 wins, via pulses only
//! ```

use crate::broadcast::{RoundApp, TokenAction};
use crate::pipeline::{run_pipeline, PipelineOutput};
use co_core::runner::RunOptions;
use co_core::Role;
use co_net::{Context, Fingerprint, Message, Port, Protocol, RingSpec, Snapshot};
use std::collections::VecDeque;
use std::fmt;

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Phase {
    /// Token loop measuring `n` and distances (payloads: 0 = counting,
    /// `n ≥ 1` = the root's announcement).
    Setup,
    /// Message-by-message simulation (payloads: 0 = no-op, `w ≥ 1` =
    /// encoded message).
    Simulate,
}

/// A [`RoundApp`] that simulates an arbitrary ring protocol over the
/// defective ring. Build it through [`simulate_on_defective_ring`].
pub struct UniversalApp<P, M> {
    inner: P,
    encode: fn(&M) -> u64,
    decode: fn(u64) -> M,
    is_root: bool,
    phase: Phase,
    grants: u64,
    counting_rounds: u64,
    n: u64,
    distance: u64,
    pending: VecDeque<(Port, M)>,
    noop_streak: u64,
    halted: bool,
}

impl<P, M> UniversalApp<P, M>
where
    P: Protocol<M>,
    M: Message,
{
    fn new(inner: P, is_root: bool, encode: fn(&M) -> u64, decode: fn(u64) -> M) -> Self {
        UniversalApp {
            inner,
            encode,
            decode,
            is_root,
            phase: Phase::Setup,
            grants: 0,
            counting_rounds: 0,
            n: 0,
            distance: 0,
            pending: VecDeque::new(),
            noop_streak: 0,
            halted: false,
        }
    }

    /// The simulated protocol instance.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Runs an inner-protocol event, routing its sends into `pending`.
    fn run_inner<F: FnOnce(&mut P, &mut Context<'_, M>)>(&mut self, event: F) {
        if self.inner.is_terminated() {
            return; // terminated simulated nodes ignore deliveries
        }
        let mut outbox: Vec<(usize, M)> = Vec::new();
        {
            // Node index 0 is a placeholder: the simulated protocol only
            // observes ports, not indices.
            let mut ctx = Context::buffered(0, &mut outbox);
            event(&mut self.inner, &mut ctx);
        }
        self.pending
            .extend(outbox.into_iter().map(|(p, m)| (Port::from_index(p), m)));
    }

    /// Packs one simulated message into a broadcast word.
    fn pack(&self, port: Port, msg: &M) -> u64 {
        // Sending from the CW port (Port_1) reaches the clockwise
        // neighbour's Port_0, and vice versa — the oriented convention.
        let (target, arrival_bit) = match port {
            Port::One => ((self.distance + self.n - 1) % self.n, 0u64),
            Port::Zero => ((self.distance + 1) % self.n, 1u64),
        };
        1 + 2 * ((self.encode)(msg) * self.n + target) + arrival_bit
    }

    /// Unpacks a broadcast word; delivers it if it is addressed to us.
    fn unpack_and_deliver(&mut self, word: u64) {
        let body = (word - 1) >> 1;
        let arrival_bit = (word - 1) & 1;
        let target = body % self.n;
        let payload = body / self.n;
        if target == self.distance {
            let msg = (self.decode)(payload);
            let port = if arrival_bit == 0 {
                Port::Zero
            } else {
                Port::One
            };
            self.run_inner(|inner, ctx| inner.on_message(port, msg, ctx));
        }
    }
}

impl<P, M> RoundApp for UniversalApp<P, M>
where
    P: Protocol<M>,
    M: Message,
{
    type Output = P::Output;

    fn on_token(&mut self) -> TokenAction {
        self.grants += 1;
        match self.phase {
            Phase::Setup => {
                if self.is_root && self.grants == 2 {
                    // Everyone counted; announce n (≥ 1, distinguishable
                    // from the counting word 0) and keep the token to start
                    // the simulation immediately.
                    TokenAction::BroadcastKeep(self.counting_rounds)
                } else {
                    TokenAction::Broadcast(0)
                }
            }
            Phase::Simulate => {
                if self.is_root && self.pending.is_empty() && self.noop_streak >= self.n {
                    // A full silent loop with an empty queue: the simulated
                    // algorithm is quiescent everywhere.
                    self.halted = true;
                    TokenAction::Halt
                } else if let Some((port, msg)) = self.pending.pop_front() {
                    TokenAction::Broadcast(self.pack(port, &msg))
                } else {
                    TokenAction::Broadcast(0)
                }
            }
        }
    }

    fn on_round(&mut self, payload: u64, was_sender: bool) {
        match self.phase {
            Phase::Setup => {
                if payload == 0 {
                    self.counting_rounds += 1;
                    if was_sender {
                        self.distance = self.counting_rounds - 1;
                    }
                } else {
                    // The announcement: boot the simulated protocol.
                    self.n = payload;
                    self.phase = Phase::Simulate;
                    self.run_inner(|inner, ctx| inner.on_start(ctx));
                }
            }
            Phase::Simulate => {
                if payload == 0 {
                    self.noop_streak += 1;
                } else {
                    self.noop_streak = 0;
                    self.unpack_and_deliver(payload);
                }
            }
        }
    }

    fn output(&self) -> Option<P::Output> {
        self.inner.output()
    }
}

/// Captured state of a [`UniversalApp`]: the inner protocol's snapshot plus
/// the simulation layer's bookkeeping. The `encode`/`decode` function
/// pointers are configuration, not state, and are not captured.
#[derive(Clone, Debug)]
pub struct UniversalAppState<S, M> {
    inner: S,
    is_root: bool,
    phase: Phase,
    grants: u64,
    counting_rounds: u64,
    n: u64,
    distance: u64,
    pending: VecDeque<(Port, M)>,
    noop_streak: u64,
    halted: bool,
}

impl<P, M> Snapshot for UniversalApp<P, M>
where
    P: Protocol<M> + Snapshot,
    M: Message,
{
    type State = UniversalAppState<P::State, M>;

    fn extract(&self) -> Self::State {
        UniversalAppState {
            inner: self.inner.extract(),
            is_root: self.is_root,
            phase: self.phase,
            grants: self.grants,
            counting_rounds: self.counting_rounds,
            n: self.n,
            distance: self.distance,
            pending: self.pending.clone(),
            noop_streak: self.noop_streak,
            halted: self.halted,
        }
    }

    fn restore(&mut self, state: &Self::State) {
        self.inner.restore(&state.inner);
        self.is_root = state.is_root;
        self.phase = state.phase;
        self.grants = state.grants;
        self.counting_rounds = state.counting_rounds;
        self.n = state.n;
        self.distance = state.distance;
        self.pending = state.pending.clone();
        self.noop_streak = state.noop_streak;
        self.halted = state.halted;
    }

    fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::new();
        fp.write_u64(self.inner.fingerprint());
        fp.write_bool(self.is_root);
        fp.write_bool(self.phase == Phase::Simulate);
        fp.write_u64(self.grants);
        fp.write_u64(self.counting_rounds);
        fp.write_u64(self.n);
        fp.write_u64(self.distance);
        fp.write_usize(self.pending.len());
        for (port, msg) in &self.pending {
            fp.write_usize(port.index());
            fp.write_u64((self.encode)(msg));
        }
        fp.write_u64(self.noop_streak);
        fp.write_bool(self.halted);
        fp.finish()
    }
}

impl<P: fmt::Debug, M> fmt::Debug for UniversalApp<P, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("UniversalApp")
            .field("inner", &self.inner)
            .field("phase", &self.phase)
            .field("n", &self.n)
            .field("distance", &self.distance)
            .field("pending", &self.pending.len())
            .field("halted", &self.halted)
            .finish()
    }
}

/// Corollary 5, end to end: elect a leader with Algorithm 2, then simulate
/// an arbitrary content-carrying ring protocol over the defective ring.
///
/// * `make_inner(position)` builds the simulated protocol instance of each
///   node (it will run on an oriented ring where `Port::One` is clockwise);
/// * `encode`/`decode` serialise the simulated message type to/from a
///   `u64` word (must round-trip; keep words small — broadcast cost is
///   unary in the word value).
#[must_use]
pub fn simulate_on_defective_ring<P, M>(
    spec: &RingSpec,
    opts: &RunOptions,
    make_inner: impl Fn(usize) -> P,
    encode: fn(&M) -> u64,
    decode: fn(u64) -> M,
) -> PipelineOutput<P::Output>
where
    P: Protocol<M>,
    M: Message,
{
    assert!(
        spec.is_oriented(),
        "the universal simulation targets oriented rings (Corollary 5)"
    );
    run_pipeline(spec, opts, move |i, role| {
        UniversalApp::new(make_inner(i), role == Role::Leader, encode, decode)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use co_net::Pulse;
    use co_net::SchedulerKind;

    /// A trivial simulated protocol: floods one token around its ring and
    /// counts receipts.
    #[derive(Clone, Debug)]
    struct OneLap {
        start: bool,
        seen: u64,
    }

    impl Protocol<u64> for OneLap {
        type Output = u64;
        fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
            if self.start {
                ctx.send(Port::One, 17);
            }
        }
        fn on_message(&mut self, _p: Port, m: u64, ctx: &mut Context<'_, u64>) {
            self.seen += 1;
            if !self.start {
                ctx.send(Port::One, m);
            }
        }
        fn output(&self) -> Option<u64> {
            Some(self.seen)
        }
    }

    #[test]
    fn simulated_token_laps_the_ring() {
        let spec = RingSpec::oriented(vec![2, 7, 4, 3]);
        let out = simulate_on_defective_ring(
            &spec,
            &RunOptions::new(SchedulerKind::Random, 3),
            |i| OneLap {
                start: i == 0,
                seen: 0,
            },
            |m| *m,
            |w| w,
        );
        assert!(out.quiescently_terminated);
        // Every node saw the token exactly once (it dies back at node 0).
        assert_eq!(out.outputs, vec![Some(1); 4]);
        let _ = Pulse; // the transport really is pulses only
    }

    #[test]
    fn single_node_simulation() {
        let spec = RingSpec::oriented(vec![5]);
        let out = simulate_on_defective_ring(
            &spec,
            &RunOptions::new(SchedulerKind::Fifo, 0),
            |_| OneLap {
                start: true,
                seen: 0,
            },
            |m| *m,
            |w| w,
        );
        assert!(out.quiescently_terminated);
        assert_eq!(out.outputs, vec![Some(1)]);
    }
}
