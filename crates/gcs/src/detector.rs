//! Failure detection: who is alive, and which life of each peer this node
//! has heard from.
//!
//! A peer is alive while it has been heard from within the suspicion
//! timeout and has not announced its departure. Every peer's heartbeat
//! carries its incarnation, so a genuine restart is told from a suspicion
//! flap (DESIGN §6b, "Incarnation numbers").

use crate::config::due;
use crate::{GcsConfig, View};
use dosgi_net::{NodeId, SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};

#[derive(Debug)]
pub(crate) struct Detector {
    /// The fixed universe, this node included, in id order.
    pub(crate) peers: Vec<NodeId>,
    config: GcsConfig,
    /// This node's life: its start time plus one, so never 0.
    pub(crate) incarnation: u64,
    peer_incarnations: BTreeMap<NodeId, u64>,
    last_heard: BTreeMap<NodeId, SimTime>,
    last_hb_sent: Option<SimTime>,
    departed: BTreeSet<NodeId>,
}

impl Detector {
    /// A detector that has just heard every peer.
    pub fn new(mut peers: Vec<NodeId>, config: GcsConfig, now: SimTime) -> Self {
        peers.sort_unstable();
        let last_heard = peers.iter().map(|p| (*p, now)).collect();
        Detector {
            peers,
            config,
            incarnation: now.as_micros().wrapping_add(1),
            peer_incarnations: BTreeMap::new(),
            last_heard,
            last_hb_sent: None,
            departed: BTreeSet::new(),
        }
    }

    /// Any traffic counts as liveness.
    pub fn heard(&mut self, from: NodeId, now: SimTime) {
        self.last_heard.insert(from, now);
        self.departed.remove(&from);
    }

    /// `from` announced a graceful departure.
    pub fn left(&mut self, from: NodeId) {
        self.departed.insert(from);
        self.last_heard.remove(&from);
    }

    /// Records the incarnation `from` advertises; true when it replaces a
    /// different one, i.e. `from` truly restarted.
    pub fn restarted(&mut self, from: NodeId, incarnation: u64) -> bool {
        let prev = self.peer_incarnations.insert(from, incarnation);
        prev.is_some_and(|prev| prev != incarnation)
    }

    /// The incarnation of `peer` this node knows, 0 before it has heard one.
    pub fn incarnation_of(&self, peer: NodeId) -> u64 {
        self.peer_incarnations.get(&peer).copied().unwrap_or(0)
    }

    /// True, once per heartbeat interval, when a heartbeat is due; the
    /// caller sends it.
    pub fn beat(&mut self, now: SimTime) -> bool {
        due(&mut self.last_hb_sent, self.config.heartbeat_interval, now)
    }

    /// The peers alive at `now`, in id order: this node, and every peer
    /// heard from within the suspicion timeout that has not departed.
    pub fn alive(&self, me: NodeId, now: SimTime) -> impl Iterator<Item = NodeId> + '_ {
        let timeout = self.config.suspect_timeout();
        let heard = move |p: &NodeId| {
            self.last_heard
                .get(p)
                .is_some_and(|&at| now.since(at) <= timeout)
        };
        let live = move |p: &NodeId| *p == me || (!self.departed.contains(p) && heard(p));
        self.peers.iter().copied().filter(live)
    }

    /// True while the live peers are exactly `view`'s members (both are in
    /// id order).
    pub fn alive_match(&self, me: NodeId, view: &View, now: SimTime) -> bool {
        self.alive(me, now).eq(view.members.iter().copied())
    }

    /// The next heartbeat, or the moment the first member of `view` falls
    /// silent for longer than the suspicion timeout, whichever is first.
    pub fn next_deadline(&self, me: NodeId, view: &View, now: SimTime) -> SimTime {
        let mut at = self
            .last_hb_sent
            .map_or(now, |sent| sent + self.config.heartbeat_interval);
        // A member counts as alive up to and including `suspect_timeout` of
        // silence (every member has been heard, or it would not be alive).
        let suspect_after = self.config.suspect_timeout() + SimDuration::from_micros(1);
        for m in &view.members {
            if let Some(&heard) = self.last_heard.get(m).filter(|_| *m != me) {
                at = at.min(heard + suspect_after);
            }
        }
        at
    }
}
