//! View agreement: the installed view and this node's open proposal.
//!
//! The lowest live current member proposes the alive set under a higher
//! epoch, every proposed member acknowledges, and the proposer commits
//! once all have. The installed view only ever moves to a higher
//! [`ViewId`](crate::ViewId).

use crate::config::{due, PROPOSE_RESEND};
use crate::node::send_all;
use crate::{GcsWire, View, ViewId};
use dosgi_net::{Fabric, NodeId, SimTime};
use std::collections::BTreeSet;

#[derive(Debug)]
pub(crate) struct Membership {
    pub(crate) view: View,
    proposal: Option<Proposal>,
}

#[derive(Debug)]
struct Proposal {
    view: View,
    acks: BTreeSet<NodeId>,
    last_sent: SimTime,
}

impl Membership {
    pub fn new(view: View) -> Self {
        Membership {
            view,
            proposal: None,
        }
    }

    /// True while a proposal of this node's is open.
    pub fn proposing(&self) -> bool {
        self.proposal.is_some()
    }

    /// The proposer's half of the tick, entered while the live peers
    /// (`alive`) differ from the view. `counter` is this node's sequencer
    /// position. Returns the view to install if the proposal is committed.
    pub fn propose<A: Clone>(
        &mut self,
        net: &mut impl Fabric<GcsWire<A>>,
        me: NodeId,
        alive: &[NodeId],
        counter: u64,
        now: SimTime,
    ) -> Option<View> {
        // Proposer election: the lowest *live current member* proposes. A
        // freshly-(re)started outsider with a stale optimistic view must
        // not pre-empt the incumbent coordinator — otherwise a restarted
        // lowest-id node and the incumbent each wait for the other and the
        // merge never happens. If no current member is alive (a node alone
        // after a wipe), fall back to the lowest live node.
        let member = alive.iter().find(|m| self.view.contains(**m));
        if member.or(alive.first()) != Some(&me) {
            return None;
        }
        // An open proposal of the same members is re-sent once its
        // interval has passed; any other is superseded at once.
        let mut open = match &self.proposal {
            Some(p) if p.view.members == alive => Some(p.last_sent),
            _ => None,
        };
        if due(&mut open, PROPOSE_RESEND, now) {
            // Every (re-)proposal bumps the epoch: if the previous one
            // could not gather acks (e.g. the other side of a healed
            // partition sits at a higher epoch), the retry eventually
            // overtakes it.
            let proposed = self.proposal.as_ref().map_or(0, |p| p.view.id.epoch);
            let epoch = proposed.max(self.view.id.epoch) + 1;
            // The proposer is the lowest live node, i.e. the new view's
            // coordinator. If it is *already* sequencing (its
            // coordinatorship survives the change), the stream continues
            // and joiners must skip its history; a freshly elected
            // coordinator starts a new stream at zero.
            let proposer = me;
            let view = View::new(ViewId { epoch, proposer }, alive.to_vec());
            let view = view.with_stream_base(self.position(me, counter));
            let acks = BTreeSet::from([me]);
            let msg = GcsWire::ViewPropose(view.clone());
            send_all(net, me, &view.members, &msg);
            self.proposal = Some(Proposal {
                view,
                acks,
                last_sent: now,
            });
        }
        self.try_commit(net, me)
    }

    /// Where this node's stream continues into a view it will coordinate:
    /// at `counter` if it sequences the current view, else a new stream
    /// starts at 0.
    fn position(&self, me: NodeId, counter: u64) -> u64 {
        if self.view.coordinator() == Some(me) {
            counter
        } else {
            0
        }
    }

    /// A member's answer to a proposal newer than its view. If this node
    /// would coordinate the proposed view, it reports where its stream
    /// continues, so the commit carries that `stream_base` (the proposer
    /// may not be this node).
    pub fn ack<A>(
        &self,
        net: &mut impl Fabric<GcsWire<A>>,
        me: NodeId,
        proposed: &View,
        counter: u64,
    ) {
        if proposed.id > self.view.id {
            let stream_base = if proposed.coordinator() == Some(me) {
                self.position(me, counter)
            } else {
                0
            };
            let id = proposed.id;
            net.send(me, id.proposer, GcsWire::ViewAck { id, stream_base });
        }
    }

    /// Counts `from`'s acknowledgement of proposal `id`; returns the view
    /// to install if that completes the proposal.
    pub fn acked<A: Clone>(
        &mut self,
        net: &mut impl Fabric<GcsWire<A>>,
        me: NodeId,
        from: NodeId,
        id: ViewId,
        stream_base: u64,
    ) -> Option<View> {
        if let Some(p) = self.proposal.as_mut().filter(|p| p.view.id == id) {
            p.acks.insert(from);
            if p.view.coordinator() == Some(from) {
                p.view.stream_base = stream_base;
            }
        }
        self.try_commit(net, me)
    }

    /// Commits the open proposal once every proposed member has
    /// acknowledged it: each other member is sent the view, and the caller
    /// installs it.
    fn try_commit<A>(&mut self, net: &mut impl Fabric<GcsWire<A>>, me: NodeId) -> Option<View> {
        let view = self
            .proposal
            .take_if(|p| p.view.members.iter().all(|m| p.acks.contains(m)))?
            .view;
        for &m in view.members.iter().filter(|&&m| m != me) {
            net.send(me, m, GcsWire::ViewCommit(view.clone()));
        }
        Some(view)
    }

    /// Installs `view` and returns the view it replaces. A proposal not
    /// newer than `view` is over.
    pub fn install(&mut self, view: View) -> View {
        if self.proposal.as_ref().is_some_and(|p| p.view.id <= view.id) {
            self.proposal = None;
        }
        std::mem::replace(&mut self.view, view)
    }
}
