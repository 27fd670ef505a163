//! Fully defective channels applied to classical algorithms (experiment E0).
//!
//! The paper's model erases the content of every message in transit. This
//! module wraps any content-carrying protocol in a channel that performs
//! exactly that corruption: the receiver always sees the same canonical
//! "noise" value regardless of what was sent. Classical algorithms, whose
//! correctness rests on comparing IDs inside messages, break immediately —
//! the sanity check motivating content-oblivious design.

use co_net::{Context, Message, Port, Protocol};

/// A message type with a canonical fully-corrupted value.
///
/// The corrupted value models what a receiver in a fully defective network
/// observes: the message exists but carries no recoverable information, so
/// *every* delivery looks identical.
pub trait Corruptible: Message {
    /// The canonical noise value every delivery is replaced with.
    fn corrupted() -> Self;
}

impl Corruptible for crate::chang_roberts::CrMsg {
    fn corrupted() -> Self {
        // All messages are indistinguishable; a receiver cannot even tell
        // `Candidate` from `Elected`. We model the erasure as the lowest
        // candidate value (content zeroed).
        crate::chang_roberts::CrMsg::Candidate(0)
    }
}

impl Corruptible for crate::peterson::PetersonMsg {
    fn corrupted() -> Self {
        crate::peterson::PetersonMsg::Token(0)
    }
}

impl Corruptible for crate::franklin::FranklinMsg {
    fn corrupted() -> Self {
        crate::franklin::FranklinMsg::Bid(0)
    }
}

impl Corruptible for crate::hirschberg_sinclair::HsMsg {
    fn corrupted() -> Self {
        crate::hirschberg_sinclair::HsMsg::Probe {
            id: 0,
            phase: 0,
            ttl: 1,
        }
    }
}

/// Wraps a protocol so that every delivered message is corrupted to
/// [`Corruptible::corrupted`] before the inner protocol sees it.
///
/// Sending is unchanged — corruption happens in the channel, and erasing on
/// delivery is observationally identical to erasing in transit.
#[derive(Clone, Debug)]
pub struct Defective<P> {
    inner: P,
}

impl<P> Defective<P> {
    /// Wraps `inner` behind fully defective channels.
    #[must_use]
    pub fn new(inner: P) -> Defective<P> {
        Defective { inner }
    }

    /// The wrapped protocol.
    #[must_use]
    pub fn inner(&self) -> &P {
        &self.inner
    }
}

impl<M, P> Protocol<M> for Defective<P>
where
    M: Corruptible,
    P: Protocol<M>,
{
    type Output = P::Output;

    fn on_start(&mut self, ctx: &mut Context<'_, M>) {
        self.inner.on_start(ctx);
    }

    fn on_message(&mut self, port: Port, _msg: M, ctx: &mut Context<'_, M>) {
        self.inner.on_message(port, M::corrupted(), ctx);
    }

    fn is_terminated(&self) -> bool {
        self.inner.is_terminated()
    }

    fn output(&self) -> Option<P::Output> {
        self.inner.output()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chang_roberts::{ChangRobertsNode, CrMsg};
    use co_core::Role;
    use co_net::{Budget, RingSpec, SchedulerKind, Simulation};

    #[test]
    fn chang_roberts_breaks_under_full_defectiveness() {
        // E0: with content erased, every candidate looks like Candidate(0),
        // which every node swallows — nobody is ever elected.
        let spec = RingSpec::oriented(vec![3, 7, 2, 5]);
        let nodes = (0..spec.len())
            .map(|i| Defective::new(ChangRobertsNode::new(spec.id(i), spec.cw_port(i))))
            .collect();
        let mut sim: Simulation<CrMsg, Defective<ChangRobertsNode>> =
            Simulation::new(spec.wiring(), nodes, SchedulerKind::Fifo.build(0));
        let report = sim.run(Budget::default());
        // The network dies out with zero leaders.
        let leaders = (0..4)
            .filter(|&i| sim.node(i).output() == Some(Role::Leader))
            .count();
        assert_eq!(leaders, 0, "no node should win under corruption");
        assert!(
            report.total_sent <= 4,
            "all candidates swallowed at first hop"
        );
    }

    #[test]
    fn healthy_channel_comparison() {
        // The same ring *without* corruption elects correctly — the failure
        // above is the channel's fault, not the algorithm's.
        let spec = RingSpec::oriented(vec![3, 7, 2, 5]);
        let opts = co_core::runner::RunOptions::new(SchedulerKind::Fifo, 0);
        let report = crate::runner::Baseline::ChangRoberts.run(&spec, &opts);
        assert_eq!(report.leader, Some(1));
    }
}
