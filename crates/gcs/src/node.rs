//! The per-node endpoint: the three machines — failure detection
//! (`detector.rs`), view agreement (`membership.rs`) and total order
//! (`stream.rs`) — plus the events they hand up and their metrics.

use crate::detector::Detector;
use crate::membership::Membership;
use crate::metrics::Metrics;
use crate::stream::{Sequenced, Sequencer, Stream};
use crate::{GcsConfig, GcsWire, View, ViewId};
use dosgi_net::{Fabric, NodeId, SimTime};
use dosgi_telemetry::{Telemetry, TraceContext};

/// Events a [`GroupNode`] delivers to the layer above.
#[derive(Debug, Clone, PartialEq)]
pub enum GcsEvent<A> {
    /// A new membership view was installed.
    ViewChange {
        /// The installed view.
        view: View,
        /// Members present now but not before.
        joined: Vec<NodeId>,
        /// Members present before but not now — the trigger for the paper's
        /// failover redeployment.
        left: Vec<NodeId>,
    },
    /// A totally-ordered message. All members of a stable view deliver
    /// these in the same `gseq` order.
    OrderedDeliver {
        /// The global sequence number (per sequencer epoch).
        gseq: u64,
        /// The message. No node delivers the same identity twice.
        msg: Sequenced<A>,
    },
}

/// One node's endpoint of the group.
///
/// Drive it with [`handle`](Self::handle) for every incoming wire message
/// and [`tick`](Self::tick) periodically (at least once per heartbeat
/// interval); collect outputs with [`take_events`](Self::take_events).
#[derive(Debug)]
pub struct GroupNode<A> {
    id: NodeId,
    detector: Detector,
    membership: Membership,
    stream: Stream<A>,
    events: Vec<GcsEvent<A>>,
    metrics: Metrics,
}

impl<A: Clone> GroupNode<A> {
    /// Creates a node for `id` in a fixed universe of `peers` (in any
    /// order; they must include `id`). The initial view optimistically
    /// contains every peer; the failure detector prunes it within a
    /// suspicion timeout.
    ///
    /// # Panics
    ///
    /// Panics if `peers` does not contain `id`.
    pub fn new(id: NodeId, peers: Vec<NodeId>, config: GcsConfig, now: SimTime) -> Self {
        assert!(peers.contains(&id), "peers must include the local node");
        let view = View::new(ViewId::default(), peers.clone());
        let detector = Detector::new(peers, config, now);
        let mut node = GroupNode {
            id,
            stream: Stream::new(id, detector.incarnation),
            detector,
            membership: Membership::new(view.clone()),
            events: Vec::new(),
            metrics: Metrics::default(),
        };
        let joined = view.members.clone();
        node.events.push(GcsEvent::ViewChange {
            view,
            joined,
            left: Vec::new(),
        });
        node
    }

    /// Attaches a telemetry handle: resolves every `gcs.*` metric to its
    /// slot, once. Telemetry is passive: it never alters protocol
    /// behaviour.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.metrics = Metrics::new(&telemetry);
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The currently installed view.
    pub fn view(&self) -> &View {
        &self.membership.view
    }

    /// The fixed universe size (for majority tests).
    pub fn universe(&self) -> usize {
        self.detector.peers.len()
    }

    /// True if this node is the current view's coordinator/sequencer.
    pub fn is_coordinator(&self) -> bool {
        self.membership.view.coordinator() == Some(self.id)
    }

    /// Drains accumulated events.
    pub fn take_events(&mut self) -> Vec<GcsEvent<A>> {
        std::mem::take(&mut self.events)
    }

    /// True while events wait to be taken. A message this node sequences
    /// itself is delivered to it at once, and handed up with the next
    /// [`take_events`](Self::take_events).
    pub fn has_events(&self) -> bool {
        !self.events.is_empty()
    }

    /// Number of ordered messages sent but not yet sequenced. A node that
    /// intends to leave gracefully must wait until this reaches zero, or
    /// its final control messages die with it.
    pub fn pending_orders(&self) -> usize {
        self.stream.queue.pending.len()
    }

    /// True while this node's ordered cursor has only ever moved by
    /// delivering: it has followed one stream from that stream's first
    /// message and applied everything ordered in it. A re-base, the reset
    /// for a restarted sequencer and a change of coordinator each end it
    /// for good. The layer above reads it to tell a node that booted with
    /// the group (it missed nothing) from one that joined a stream already
    /// under way (it owes its state to a transfer).
    pub fn delivered_from_start(&self) -> bool {
        !self.stream.cursor.rebased
    }

    // ------------------------------------------------------------------
    // Sending
    // ------------------------------------------------------------------

    /// Totally-ordered broadcast: the message is sequenced by the view
    /// coordinator and delivered everywhere in global order. Retries
    /// automatically across sequencer failovers until ordered.
    ///
    /// Per-origin FIFO is preserved by keeping at most one order request
    /// outstanding: later messages queue locally until the head is
    /// sequenced (ordering traffic is low-rate control-plane traffic, so
    /// the extra round trip is immaterial).
    pub fn order(&mut self, net: &mut impl Fabric<GcsWire<A>>, payload: A) {
        self.order_traced(net, payload, None);
    }

    /// [`order`](Self::order) with a causal [`TraceContext`] that rides
    /// the wire to every deliverer. GCS carries it opaquely — tracing
    /// never alters ordering behaviour.
    pub fn order_traced(
        &mut self,
        net: &mut impl Fabric<GcsWire<A>>,
        payload: A,
        trace: Option<TraceContext>,
    ) {
        self.metrics.order_sent.incr();
        if self.stream.queue.push(payload, trace) {
            self.send_head(net);
        }
        // Otherwise the tick timer sends it once the head clears.
    }

    /// Announces a graceful departure (the paper's normal-shutdown path):
    /// peers exclude this node without waiting for suspicion.
    pub fn leave(&mut self, net: &mut impl Fabric<GcsWire<A>>) {
        send_all(net, self.id, &self.detector.peers, &GcsWire::Leave);
    }

    /// Sends the queue's head to the view's coordinator: sequenced here if
    /// that is this node, else as an `OrderRequest`.
    fn send_head(&mut self, net: &mut impl Fabric<GcsWire<A>>) {
        let (view, head) = (&self.membership.view, self.stream.queue.head());
        match (view.coordinator(), head) {
            (Some(c), Some(head)) if c == self.id => {
                let seq = &mut self.stream.seq;
                let fresh = seq.sequence(net, self.id, view, head, &self.metrics);
                self.deliver(fresh);
            }
            (Some(c), Some(head)) => net.send(self.id, c, GcsWire::OrderRequest(head)),
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // Periodic work
    // ------------------------------------------------------------------

    /// Runs heartbeats, suspicion, view proposal and retransmission timers.
    /// Call at least once per heartbeat interval.
    pub fn tick(&mut self, net: &mut impl Fabric<GcsWire<A>>, now: SimTime) {
        let view = &self.membership.view;
        if self.detector.beat(now) {
            let heartbeat = GcsWire::Heartbeat {
                ordered: self.stream.seq.counter,
                incarnation: self.detector.incarnation,
                view: view.id,
                delivered: self.stream.cursor.expected - 1,
                stream: view
                    .coordinator()
                    .map_or(0, |c| self.detector.incarnation_of(c)),
            };
            send_all(net, self.id, &self.detector.peers, &heartbeat);
        }

        // Suspicion: who do I currently believe is alive? While that is
        // exactly the view there is nothing to agree on.
        if !self.detector.alive_match(self.id, view, now) {
            let alive: Vec<NodeId> = self.detector.alive(self.id, now).collect();
            let counter = self.stream.seq.counter;
            if let Some(view) = self.membership.propose(net, self.id, &alive, counter, now) {
                self.install_view(view);
            }
        }

        if self.stream.queue.resend_due(now) {
            self.send_head(net);
        }
    }

    /// The earliest instant at which [`tick`](Self::tick) may have
    /// something to do, provided no message is [`handle`](Self::handle)d
    /// and nothing is sent before then: the next heartbeat, the moment the
    /// first member falls silent for longer than the suspicion timeout, the
    /// resend of an unsequenced order. Conservative — a tick at or after it
    /// may still find nothing due — and `now` itself while membership is
    /// unsettled (the live peers are not the view, or a proposal is open)
    /// or events wait to be taken: agreement is a conversation, and a node
    /// in one simply ticks every time.
    pub fn next_deadline(&self, now: SimTime) -> SimTime {
        let view = &self.membership.view;
        if !self.events.is_empty()
            || self.membership.proposing()
            || !self.detector.alive_match(self.id, view, now)
        {
            return now;
        }
        let at = self.detector.next_deadline(self.id, view, now);
        let resend = self.stream.queue.next_deadline(now);
        resend.map_or(at, |resend| at.min(resend))
    }

    // ------------------------------------------------------------------
    // Receiving
    // ------------------------------------------------------------------

    /// Processes one incoming wire message.
    pub fn handle(
        &mut self,
        net: &mut impl Fabric<GcsWire<A>>,
        from: NodeId,
        msg: GcsWire<A>,
        now: SimTime,
    ) {
        self.detector.heard(from, now);
        let coordinator = self.membership.view.coordinator();
        match msg {
            GcsWire::Heartbeat {
                ordered,
                incarnation,
                view,
                delivered,
                stream,
            } => {
                let current = &self.membership.view;
                // View anti-entropy. A `ViewCommit` is sent exactly once;
                // if the one carrying this member into the current view was
                // lost, no later message repairs it — the member waits for
                // a proposal from a coordinator that, seeing its own view
                // already match the alive set, never proposes again. So:
                // a current member advertising an older view id missed a
                // commit; push it the view we hold. A commit not newer than
                // the receiver's view is ignored, so concurrent pushes are
                // harmless.
                if view < current.id && current.contains(from) {
                    self.metrics.antientropy_view_repairs.incr();
                    net.send(self.id, from, GcsWire::ViewCommit(current.clone()));
                }
                // A changed incarnation means the peer truly restarted. If
                // it is the current sequencer, its stream begins again at
                // 1. (A restarted *member* needs nothing here: it asks for
                // replay from 1 and is re-based, see `Sequencer::replay`.)
                if self.detector.restarted(from, incarnation) && Some(from) == coordinator {
                    self.stream.cursor.follow(0);
                }
                // The sender's cursor in our stream: an acknowledgement
                // counts only from a member that shares our view (so we are
                // its coordinator) and knows this incarnation of us (so the
                // cursor is a position in this stream, not our last life's).
                let seq = &mut self.stream.seq;
                if coordinator == Some(self.id)
                    && current.contains(from)
                    && view == current.id
                    && stream == self.detector.incarnation
                    && delivered <= seq.counter
                {
                    seq.ack(from, delivered);
                    seq.truncate(self.id, current, &self.metrics);
                }
                // Anti-entropy: if the sequencer claims more ordered
                // messages than we have delivered, ask for replay — this
                // recovers a tail whose every copy was lost (no gap visible
                // locally).
                if Some(from) == coordinator && ordered >= self.stream.cursor.expected {
                    self.request_replay(net, from, now);
                }
            }
            GcsWire::OrderedReplayRequest { from_gseq } => {
                if coordinator == Some(self.id) {
                    let (seq, view) = (&self.stream.seq, &self.membership.view);
                    seq.replay(net, self.id, view, from, from_gseq, &self.metrics);
                }
            }
            GcsWire::OrderedRebase { base } => {
                // Forward only, so a duplicate or late re-base is harmless.
                if Some(from) == coordinator && base >= self.stream.cursor.expected {
                    for skipped in self.stream.cursor.rebase(base).values() {
                        self.stream.queue.settle(skipped);
                    }
                    self.deliver(None);
                }
            }
            GcsWire::Leave => self.detector.left(from),
            GcsWire::ViewPropose(view) => {
                let counter = self.stream.seq.counter;
                self.membership.ack(net, self.id, &view, counter);
            }
            GcsWire::ViewAck { id, stream_base } => {
                self.metrics.view_acks.incr();
                if let Some(view) = self.membership.acked(net, self.id, from, id, stream_base) {
                    self.install_view(view);
                }
            }
            GcsWire::ViewCommit(view) => {
                if view.id > self.membership.view.id {
                    self.install_view(view);
                }
            }
            GcsWire::OrderRequest(msg) => {
                // A stale request to an ex-coordinator is dropped: the
                // origin retries against the new one.
                if msg.origin == from && coordinator == Some(self.id) {
                    let (seq, view) = (&mut self.stream.seq, &self.membership.view);
                    let fresh = seq.sequence(net, self.id, view, msg, &self.metrics);
                    self.deliver(fresh);
                }
            }
            GcsWire::Ordered { gseq, msg } => {
                // Only the current coordinator's stream counts.
                if Some(from) != coordinator {
                    return;
                }
                let expected = self.stream.cursor.expected;
                if gseq < expected {
                    // Duplicate of something already processed; still
                    // clears pending.
                    self.stream.queue.settle(&msg);
                } else if gseq > expected {
                    self.stream.cursor.ooo.insert(gseq, msg);
                    self.request_replay(net, from, now);
                } else {
                    self.deliver(Some((gseq, msg)));
                }
            }
        }
    }

    /// Asks `to`, the sequencer, to replay the stream from the cursor, at
    /// most once per resend interval.
    fn request_replay(&mut self, net: &mut impl Fabric<GcsWire<A>>, to: NodeId, now: SimTime) {
        if self.stream.cursor.nack_due(now) {
            self.metrics.antientropy_replay_requests.incr();
            let from_gseq = self.stream.cursor.expected;
            net.send(self.id, to, GcsWire::OrderedReplayRequest { from_gseq });
        }
    }

    /// Delivers `first`, if any, then every held message from the cursor
    /// on. None is held at the cursor outside this loop, so with no `first`
    /// it delivers only what a re-base has just brought to the cursor.
    fn deliver(&mut self, first: Option<(u64, Sequenced<A>)>) {
        let mut next = first.or_else(|| self.stream.cursor.next_held());
        while let Some((gseq, msg)) = next {
            self.stream.queue.settle(&msg);
            if self.stream.cursor.advance(gseq, &msg, &self.metrics) {
                self.events.push(GcsEvent::OrderedDeliver { gseq, msg });
            }
            next = self.stream.cursor.next_held();
        }
    }

    fn install_view(&mut self, view: View) {
        self.metrics.view_installed.incr();
        let old = self.membership.install(view.clone());
        let (joined, left) = view.diff(&old);
        // Joining a stream is not lagging in it: whoever this view makes a
        // member of a stream it was not in starts just past `stream_base`,
        // never at 1. The history before that was ordered while it was not
        // a member; its registry state for that span arrives by snapshot
        // transfer, and re-applying already-incorporated messages on top of
        // the snapshot is not idempotent (it was a real divergence:
        // replayed `Deployed` bumped record revisions only on the rejoining
        // side). A sequencer change makes every member such a joiner, and
        // each resets its own cursor (pending orders are retried against
        // the new sequencer by the tick timer; a freshly elected
        // coordinator has `stream_base` 0, a new stream from 1). When the
        // sequencer stays, only it knows who is new; it notes their base
        // and tells them when they ask (`Sequencer::replay`).
        if view.coordinator() != old.coordinator() {
            self.stream.cursor.follow(view.stream_base);
            self.stream.seq = if self.is_coordinator() {
                // Everyone joins our stream at `stream_base`.
                let seq = Sequencer::at(view.stream_base, &view.members);
                seq.publish_window(&self.metrics);
                seq
            } else {
                // Only the counter outlives sequencing: heartbeats carry it.
                Sequencer::at(self.stream.seq.counter, &[])
            };
            self.stream.queue.resend_now();
        } else if self.is_coordinator() {
            let seq = &mut self.stream.seq;
            seq.admit(self.id, &view, &joined, &self.metrics);
        }
        let change = GcsEvent::ViewChange { view, joined, left };
        self.events.push(change);
    }
}

/// Sends `msg` from `from` to every other node in `to`, one clone each.
pub(crate) fn send_all<A: Clone>(
    net: &mut impl Fabric<GcsWire<A>>,
    from: NodeId,
    to: &[NodeId],
    msg: &GcsWire<A>,
) {
    for &n in to {
        if n != from {
            net.send(from, n, msg.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RETAINED_AT_QUIESCENCE;
    use dosgi_net::{LinkConfig, SimDuration, SimNet};
    use std::collections::BTreeMap;

    type Net = SimNet<GcsWire<u64>>;
    type Node = GroupNode<u64>;

    struct Cluster {
        net: Net,
        nodes: Vec<Node>,
        crashed: Vec<bool>,
        // `Some`: tick a node only when it has mail or its deadline (taken
        // after its last tick, zeroed by every call made on it) has come.
        wake_at: Option<Vec<SimTime>>,
    }

    impl Cluster {
        fn new(n: usize, link: LinkConfig, config: GcsConfig, seed: u64) -> Self {
            let mut net = Net::new(link, seed);
            let ids: Vec<NodeId> = (0..n).map(|_| net.register_node()).collect();
            let nodes = ids
                .iter()
                .map(|&id| Node::new(id, ids.clone(), config, SimTime::ZERO))
                .collect();
            Cluster {
                net,
                nodes,
                crashed: vec![false; n],
                wake_at: None,
            }
        }

        fn gated(mut self) -> Self {
            self.wake_at = Some(vec![SimTime::ZERO; self.nodes.len()]);
            self
        }

        fn wake(&mut self, i: usize) {
            if let Some(wake_at) = &mut self.wake_at {
                wake_at[i] = SimTime::ZERO;
            }
        }

        /// Advances simulated time in 5ms steps, ticking and draining every
        /// live node.
        fn run(&mut self, duration: SimDuration) {
            let step = SimDuration::from_millis(5);
            let end = self.net.now() + duration;
            while self.net.now() < end {
                self.net.advance(step);
                let now = self.net.now();
                for i in 0..self.nodes.len() {
                    if self.crashed[i] {
                        continue;
                    }
                    let id = NodeId(i as u32);
                    let inbox = self.net.drain(id);
                    if inbox.is_empty() && self.wake_at.as_ref().is_some_and(|w| now < w[i]) {
                        continue;
                    }
                    for env in inbox {
                        self.nodes[i].handle(&mut self.net, env.from, env.payload, now);
                    }
                    self.nodes[i].tick(&mut self.net, now);
                    if let Some(wake_at) = &mut self.wake_at {
                        wake_at[i] = self.nodes[i].next_deadline(now);
                    }
                }
            }
        }

        fn crash(&mut self, i: usize) {
            self.crashed[i] = true;
            self.net.crash(NodeId(i as u32));
        }

        /// Restarts node `i` with fresh protocol state.
        fn restart(&mut self, i: usize) {
            let ids: Vec<NodeId> = (0..self.nodes.len()).map(|n| NodeId(n as u32)).collect();
            self.net.restart(NodeId(i as u32));
            self.crashed[i] = false;
            self.nodes[i] = Node::new(NodeId(i as u32), ids, GcsConfig::lan(), self.net.now());
            self.wake(i);
        }

        fn events(&mut self, i: usize) -> Vec<GcsEvent<u64>> {
            self.nodes[i].take_events()
        }

        fn order(&mut self, i: usize, payload: u64) {
            self.nodes[i].order(&mut self.net, payload);
            self.wake(i);
        }

        fn order_traced(&mut self, i: usize, payload: u64, trace: dosgi_telemetry::TraceContext) {
            self.nodes[i].order_traced(&mut self.net, payload, Some(trace));
            self.wake(i);
        }
    }

    fn ordered(events: &[GcsEvent<u64>]) -> Vec<u64> {
        events
            .iter()
            .filter_map(|e| match e {
                GcsEvent::OrderedDeliver { msg, .. } => Some(msg.payload),
                _ => None,
            })
            .collect()
    }

    fn last_view(events: &[GcsEvent<u64>]) -> Option<View> {
        events.iter().rev().find_map(|e| match e {
            GcsEvent::ViewChange { view, .. } => Some(view.clone()),
            _ => None,
        })
    }

    #[test]
    fn initial_view_contains_everyone() {
        let mut c = Cluster::new(3, LinkConfig::lan(), GcsConfig::lan(), 1);
        c.run(SimDuration::from_millis(300));
        for i in 0..3 {
            let events = c.events(i);
            let v = last_view(&events).expect("initial view event");
            assert_eq!(v.members.len(), 3);
            assert_eq!(c.nodes[i].view().members.len(), 3);
            assert_eq!(c.nodes[i].view().coordinator(), Some(NodeId(0)));
        }
        assert!(c.nodes[0].is_coordinator());
        assert!(!c.nodes[1].is_coordinator());
    }

    #[test]
    fn crash_is_detected_and_view_shrinks() {
        let mut c = Cluster::new(3, LinkConfig::lan(), GcsConfig::lan(), 2);
        c.run(SimDuration::from_millis(200));
        for i in 0..3 {
            c.events(i);
        }
        c.crash(2);
        c.run(SimDuration::from_millis(600));
        for i in 0..2 {
            let events = c.events(i);
            let v = last_view(&events).expect("view after crash");
            assert_eq!(v.members, vec![NodeId(0), NodeId(1)]);
            // The ViewChange reports who left.
            let left: Vec<NodeId> = events
                .iter()
                .filter_map(|e| match e {
                    GcsEvent::ViewChange { left, .. } => Some(left.clone()),
                    _ => None,
                })
                .flatten()
                .collect();
            assert!(left.contains(&NodeId(2)), "node {i} saw the departure");
        }
    }

    #[test]
    fn coordinator_crash_elects_next_lowest() {
        let mut c = Cluster::new(3, LinkConfig::lan(), GcsConfig::lan(), 3);
        c.run(SimDuration::from_millis(200));
        c.crash(0);
        c.run(SimDuration::from_millis(800));
        for i in 1..3 {
            assert_eq!(
                c.nodes[i].view().members,
                vec![NodeId(1), NodeId(2)],
                "node {i}"
            );
            assert_eq!(c.nodes[i].view().coordinator(), Some(NodeId(1)));
        }
        assert!(c.nodes[1].is_coordinator());
    }

    #[test]
    fn graceful_leave_is_faster_than_suspicion() {
        let mut c = Cluster::new(3, LinkConfig::lan(), GcsConfig::lan(), 4);
        c.run(SimDuration::from_millis(200));
        // Node 2 leaves gracefully.
        c.nodes[2].leave(&mut c.net);
        c.crashed[2] = true;
        // Well under the 200ms suspicion timeout plus propose round.
        c.run(SimDuration::from_millis(150));
        for i in 0..2 {
            assert_eq!(c.nodes[i].view().members, vec![NodeId(0), NodeId(1)]);
        }
    }

    #[test]
    fn rejoin_after_restart_is_readmitted() {
        let mut c = Cluster::new(3, LinkConfig::lan(), GcsConfig::lan(), 5);
        c.run(SimDuration::from_millis(200));
        c.crash(2);
        c.run(SimDuration::from_millis(600));
        assert_eq!(c.nodes[0].view().members.len(), 2);
        c.restart(2);
        c.run(SimDuration::from_millis(600));
        for i in 0..3 {
            assert_eq!(c.nodes[i].view().members.len(), 3, "node {i}");
        }
    }

    #[test]
    fn total_order_is_identical_across_members() {
        let mut c = Cluster::new(3, LinkConfig::lan(), GcsConfig::lan(), 8);
        c.run(SimDuration::from_millis(100));
        for i in 0..3 {
            c.events(i);
        }
        // Interleave ordering requests from every node.
        for round in 0..10u64 {
            for i in 0..3 {
                c.order(i, round * 10 + i as u64);
            }
        }
        c.run(SimDuration::from_secs(2));
        let seqs: Vec<Vec<u64>> = (0..3).map(|i| ordered(&c.events(i))).collect();
        assert_eq!(seqs[0].len(), 30, "all 30 messages ordered");
        assert_eq!(seqs[0], seqs[1], "node 0 and 1 agree");
        assert_eq!(seqs[1], seqs[2], "node 1 and 2 agree");
    }

    #[test]
    fn total_order_survives_loss() {
        let mut c = Cluster::new(3, LinkConfig::lossy(0.2), GcsConfig::lan(), 9);
        c.run(SimDuration::from_millis(200));
        for i in 0..3 {
            c.events(i);
        }
        for v in 1..=15 {
            c.order(1, v);
        }
        c.run(SimDuration::from_secs(8));
        let seqs: Vec<Vec<u64>> = (0..3).map(|i| ordered(&c.events(i))).collect();
        for (i, s) in seqs.iter().enumerate() {
            assert_eq!(s.len(), 15, "node {i} delivered all");
        }
        assert_eq!(seqs[0], seqs[1]);
        assert_eq!(seqs[1], seqs[2]);
    }

    #[test]
    fn trace_contexts_survive_loss_and_replay() {
        use dosgi_telemetry::TraceContext;
        let mut c = Cluster::new(3, LinkConfig::lossy(0.25), GcsConfig::lan(), 12);
        c.run(SimDuration::from_millis(200));
        for i in 0..3 {
            c.events(i);
        }
        // Each message carries a distinct context; loss forces the
        // nack/replay paths, which must forward the buffered trace.
        for v in 1..=10u64 {
            c.order_traced(
                2,
                v,
                TraceContext {
                    trace_id: 3 << 40,
                    parent_span: (3 << 40) | v,
                    lamport: 100 + v,
                },
            );
        }
        c.order(2, 11); // untraced tail keeps working alongside
        c.run(SimDuration::from_secs(8));
        for i in 0..3 {
            let got: Vec<(u64, Option<TraceContext>)> = c
                .events(i)
                .into_iter()
                .filter_map(|e| match e {
                    GcsEvent::OrderedDeliver { msg, .. } => Some((msg.payload, msg.trace)),
                    _ => None,
                })
                .collect();
            assert_eq!(got.len(), 11, "node {i} delivered all");
            for (payload, trace) in got {
                if payload == 11 {
                    assert_eq!(trace, None, "node {i}: untraced stays untraced");
                } else {
                    let t = trace.expect("traced delivery");
                    assert_eq!(t.parent_span, (3 << 40) | payload, "node {i}");
                    assert_eq!(t.lamport, 100 + payload, "node {i}");
                }
            }
        }
    }

    #[test]
    fn sequencer_failover_still_orders_pending_messages() {
        let mut c = Cluster::new(3, LinkConfig::lan(), GcsConfig::lan(), 10);
        c.run(SimDuration::from_millis(200));
        for i in 0..3 {
            c.events(i);
        }
        // Crash the sequencer, then immediately try to order from node 2.
        c.crash(0);
        c.order(2, 77);
        c.order(2, 78);
        c.run(SimDuration::from_secs(3));
        for i in 1..3 {
            let got = ordered(&c.events(i));
            assert_eq!(got, vec![77, 78], "node {i} got the retried orders");
        }
    }

    #[test]
    fn partition_and_heal_reconverges() {
        let mut c = Cluster::new(4, LinkConfig::lan(), GcsConfig::lan(), 11);
        c.run(SimDuration::from_millis(200));
        c.net.partition(dosgi_net::Partition::split([
            vec![NodeId(0), NodeId(1)],
            vec![NodeId(2), NodeId(3)],
        ]));
        c.run(SimDuration::from_secs(1));
        // Each side formed its own view; only one side has a majority test.
        assert_eq!(c.nodes[0].view().members, vec![NodeId(0), NodeId(1)]);
        assert_eq!(c.nodes[2].view().members, vec![NodeId(2), NodeId(3)]);
        assert!(!c.nodes[0].view().has_majority(c.nodes[0].universe()));
        c.net.heal();
        c.run(SimDuration::from_secs(1));
        for i in 0..4 {
            assert_eq!(c.nodes[i].view().members.len(), 4, "node {i} healed");
            assert!(c.nodes[i].view().has_majority(4));
        }
    }

    /// `(gseq, payload)` of every ordered delivery, in delivery order.
    fn ordered_gseqs(events: &[GcsEvent<u64>]) -> Vec<(u64, u64)> {
        events
            .iter()
            .filter_map(|e| match e {
                GcsEvent::OrderedDeliver { gseq, msg } => Some((*gseq, msg.payload)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn rejoiner_starts_at_the_stream_position_and_the_sequencer_forgets() {
        let mut c = Cluster::new(4, LinkConfig::lan(), GcsConfig::lan(), 13);
        c.run(SimDuration::from_millis(200));
        for v in 1..=30 {
            c.order(1 + (v as usize % 3), v);
        }
        c.run(SimDuration::from_secs(3));
        for i in 0..4 {
            assert_eq!(ordered(&c.events(i)).len(), 30, "node {i}");
        }
        assert_eq!(c.nodes[0].stream.seq.counter, 30);
        assert_eq!(c.nodes[0].stream.seq.buffer.len(), RETAINED_AT_QUIESCENCE);
        assert_eq!(c.nodes[0].stream.seq.low_water, 30);

        // Crash a non-coordinator; the stream moves on without it.
        c.crash(2);
        c.run(SimDuration::from_millis(600));
        assert_eq!(c.nodes[0].view().members.len(), 3);
        for v in 31..=35 {
            c.order(1, v);
        }
        c.run(SimDuration::from_secs(1));
        assert_eq!(
            c.nodes[0].stream.seq.buffer.len(),
            RETAINED_AT_QUIESCENCE,
            "a departed member does not hold the low-water mark"
        );

        c.restart(2);
        c.run(SimDuration::from_secs(1));
        let events = c.events(2);
        let admitted = last_view(&events).expect("readmitted");
        assert_eq!(admitted.members.len(), 4);
        assert_eq!(admitted.stream_base, 35);
        assert_eq!(
            ordered_gseqs(&events),
            vec![],
            "a rejoiner delivers nothing at or below its stream base"
        );
        assert_eq!(c.nodes[2].stream.cursor.expected, 36);

        // New traffic reaches it, including its own.
        c.order(2, 36);
        c.order(3, 37);
        c.run(SimDuration::from_secs(1));
        let mut got = ordered_gseqs(&c.events(2));
        got.sort();
        assert_eq!(got.iter().map(|g| g.0).collect::<Vec<_>>(), vec![36, 37]);
        assert_eq!(c.nodes[2].pending_orders(), 0);
        assert_eq!(c.nodes[0].stream.seq.buffer.len(), RETAINED_AT_QUIESCENCE);
        assert_eq!(c.nodes[0].stream.seq.low_water, 37);
        for i in [0, 1, 3] {
            c.events(i);
        }

        // A lagging *continuing* member is repaired by replay, not re-based:
        // cut node 3 off from the sequencer for less than the suspicion
        // timeout while ten messages are ordered.
        c.net.set_link(NodeId(0), NodeId(3), LinkConfig::lossy(1.0));
        for v in 38..=47 {
            c.order(1, v);
        }
        c.run(SimDuration::from_millis(100));
        assert_eq!(c.nodes[0].view().members.len(), 4, "no view change");
        assert!(
            c.nodes[0].stream.seq.buffer.len() >= 8,
            "the sequencer keeps what the laggard has not acknowledged, has {}",
            c.nodes[0].stream.seq.buffer.len()
        );
        c.net.set_link(NodeId(0), NodeId(3), LinkConfig::lan());
        c.run(SimDuration::from_secs(2));
        let got = ordered_gseqs(&c.events(3));
        let want: Vec<(u64, u64)> = (38..=47).map(|v| (v, v)).collect();
        assert_eq!(got, want, "no skipped gseq on the laggard");
        assert_eq!(c.nodes[0].stream.seq.buffer.len(), RETAINED_AT_QUIESCENCE);
    }

    /// A `SimNet` that loses the first `ViewCommit` addressed to `victim`,
    /// and records every later one sent to it and every proposal's epoch.
    struct LoseFirstCommit {
        net: Net,
        victim: NodeId,
        lost: bool,
        commits_after: u64,
        proposed: Vec<u64>,
    }

    impl Fabric<GcsWire<u64>> for LoseFirstCommit {
        fn now(&self) -> SimTime {
            self.net.now()
        }

        fn send(&mut self, from: NodeId, to: NodeId, msg: GcsWire<u64>) {
            match &msg {
                GcsWire::ViewPropose(view) => self.proposed.push(view.id.epoch),
                GcsWire::ViewCommit(_) if to == self.victim => {
                    if !self.lost {
                        self.lost = true;
                        return;
                    }
                    self.commits_after += 1;
                }
                _ => {}
            }
            self.net.send(from, to, msg);
        }

        fn drain(&mut self, node: NodeId, into: &mut Vec<dosgi_net::Envelope<GcsWire<u64>>>) {
            Fabric::drain(&mut self.net, node, into);
        }
    }

    #[test]
    fn a_lost_view_commit_is_repaired_by_a_heartbeat() {
        // Node 2 crashes and node 0 commits {0, 1}; its one commit to node 1
        // is lost. Node 1 waits for node 0 to propose, and node 0, whose
        // view is the alive set, never proposes again: only its answer to
        // node 1's stale heartbeat moves node 1.
        fn run(fabric: &mut LoseFirstCommit, nodes: &mut [Node], steps: usize) {
            for _ in 0..steps {
                fabric.net.advance(SimDuration::from_millis(5));
                let now = fabric.net.now();
                for node in nodes.iter_mut() {
                    if !fabric.net.is_alive(node.id()) {
                        continue;
                    }
                    for env in fabric.net.drain(node.id()) {
                        node.handle(fabric, env.from, env.payload, now);
                    }
                    node.tick(fabric, now);
                }
            }
        }
        let telemetry = Telemetry::new();
        let mut net = Net::new(LinkConfig::lan(), 20);
        let ids: Vec<NodeId> = (0..3).map(|_| net.register_node()).collect();
        let mut nodes: Vec<Node> = ids
            .iter()
            .map(|&id| Node::new(id, ids.clone(), GcsConfig::lan(), SimTime::ZERO))
            .collect();
        for node in &mut nodes {
            node.set_telemetry(telemetry.clone());
        }
        let mut fabric = LoseFirstCommit {
            net,
            victim: NodeId(1),
            lost: false,
            commits_after: 0,
            proposed: Vec::new(),
        };
        run(&mut fabric, &mut nodes, 40);
        fabric.net.crash(NodeId(2));
        run(&mut fabric, &mut nodes, 200);

        assert!(fabric.lost, "the commit to node 1 was lost");
        let agreed = nodes[0].view().id;
        assert_eq!(nodes[0].view().members, vec![NodeId(0), NodeId(1)]);
        assert_eq!(nodes[1].view().id, agreed, "node 1 caught up");
        assert!(
            fabric.proposed.iter().all(|&epoch| epoch <= agreed.epoch),
            "no proposal past the agreed view: {:?}",
            fabric.proposed
        );
        assert!(fabric.commits_after >= 1, "the view was pushed again");
        assert_eq!(
            telemetry.counter("gcs.antientropy.view_repairs"),
            fabric.commits_after
        );
    }

    #[test]
    fn a_sequencer_restarted_inside_the_timeout_starts_a_new_stream() {
        let mut c = Cluster::new(3, LinkConfig::lan(), GcsConfig::lan(), 21);
        c.run(SimDuration::from_millis(200));
        for v in 1..=12 {
            c.order(1 + v as usize % 2, v);
        }
        c.run(SimDuration::from_secs(2));
        let view_before = c.nodes[0].view().id;
        for i in 0..3 {
            assert_eq!(ordered(&c.events(i)).len(), 12, "node {i}");
            assert!(c.nodes[i].delivered_from_start(), "node {i}");
        }

        // The sequencer crashes and restarts before anyone suspects it; its
        // new life numbers a new stream from 1. The members' first requests
        // race its first heartbeat.
        c.crash(0);
        c.restart(0);
        for v in 100..106 {
            c.order(v as usize % 3, v);
        }
        c.run(SimDuration::from_secs(2));
        let got: Vec<Vec<(u64, u64)>> = (0..3).map(|i| ordered_gseqs(&c.events(i))).collect();
        let gseqs: Vec<u64> = got[0].iter().map(|g| g.0).collect();
        assert_eq!(gseqs, (1..=6).collect::<Vec<_>>());
        let mut payloads: Vec<u64> = got[0].iter().map(|g| g.1).collect();
        payloads.sort();
        assert_eq!(payloads, (100..106).collect::<Vec<_>>());
        for i in 0..3 {
            assert_eq!(
                c.nodes[i].view().id,
                view_before,
                "node {i}: no view change"
            );
            assert_eq!(got[i], got[0], "node {i}");
            assert_eq!(c.nodes[i].pending_orders(), 0, "node {i}");
        }
        // The members' cursors were reset for the new stream; the restarted
        // sequencer has followed its own from its first message.
        assert!(c.nodes[0].delivered_from_start());
        for i in 1..3 {
            assert!(!c.nodes[i].delivered_from_start(), "node {i}");
        }
    }

    #[test]
    fn silent_restart_rebases_without_a_view_change() {
        let mut c = Cluster::new(3, LinkConfig::lan(), GcsConfig::lan(), 14);
        c.run(SimDuration::from_millis(200));
        for v in 1..=12 {
            c.order(1, v);
        }
        c.run(SimDuration::from_secs(2));
        let view_before = c.nodes[0].view().id;
        for i in 0..3 {
            c.events(i);
        }

        // Crash and restart inside the suspicion timeout: nobody notices a
        // departure, yet node 2 lost its cursor.
        c.crash(2);
        c.restart(2);
        c.order(2, 100); // its first request races its first heartbeat
        c.run(SimDuration::from_secs(1));
        for i in 0..3 {
            assert_eq!(
                c.nodes[i].view().id,
                view_before,
                "node {i}: no view change"
            );
        }
        assert_eq!(
            ordered_gseqs(&c.events(2)),
            vec![(13, 100)],
            "re-based to the sequencer's position, then its own message"
        );
        assert_eq!(c.nodes[2].pending_orders(), 0);
        assert_eq!(ordered(&c.events(0)), vec![100]);
        assert_eq!(ordered(&c.events(1)), vec![100]);

        // And it keeps up with new traffic from others.
        c.order(1, 101);
        c.run(SimDuration::from_secs(1));
        assert_eq!(ordered_gseqs(&c.events(2)), vec![(14, 101)]);
        assert_eq!(c.nodes[0].stream.seq.buffer.len(), RETAINED_AT_QUIESCENCE);
    }

    #[test]
    fn restart_inside_a_minority_joins_at_the_merge_base_not_past_it() {
        let mut c = Cluster::new(5, LinkConfig::lan(), GcsConfig::lan(), 16);
        c.run(SimDuration::from_millis(200));
        for v in 1..=10 {
            c.order(3, v);
        }
        c.run(SimDuration::from_secs(1));
        c.net.partition(dosgi_net::Partition::split([
            vec![NodeId(1), NodeId(2)],
            vec![NodeId(0), NodeId(3), NodeId(4)],
        ]));
        c.run(SimDuration::from_secs(1));
        // Node 2 restarts while cut off with node 1; the majority's
        // sequencer still knows its old incarnation.
        c.crash(2);
        c.run(SimDuration::from_millis(300));
        c.restart(2);
        for v in 11..=15 {
            c.order(3, v);
        }
        c.run(SimDuration::from_secs(1));
        assert_eq!(c.nodes[2].view().members, vec![NodeId(1), NodeId(2)]);
        c.events(2);

        // Heal; what is ordered after the merge stands for the state
        // transfer the admission triggers. Node 0 learns node 2's new
        // incarnation only now — node 2 joins at the merge base all the
        // same. (The loss pattern under which node 0 learns it *after*
        // admitting node 2 is pinned by the cluster-level regression
        // `regression_restart_in_minority_still_gets_the_merge_sync`.)
        c.net.heal();
        c.run(SimDuration::from_millis(400));
        for v in 900..905 {
            c.order(0, v);
        }
        c.run(SimDuration::from_secs(2));
        let events = c.events(2);
        let base = last_view(&events).expect("merged view").stream_base;
        assert_eq!(c.nodes[2].view().members.len(), 5);
        assert_eq!(base, 15);
        let got = ordered_gseqs(&events);
        let want: Vec<(u64, u64)> = (900..905).map(|v| (base + 1 + v - 900, v)).collect();
        assert_eq!(got, want, "everything past the merge base, nothing before");
    }

    #[test]
    fn lost_rebase_is_repaired_by_the_replay_request() {
        // 30 % loss: the one-shot re-base (and much else) goes missing; the
        // restarted node's replay request from 1 must be answered with its
        // base again, never with history.
        let mut c = Cluster::new(3, LinkConfig::lossy(0.3), GcsConfig::lan(), 15);
        c.run(SimDuration::from_millis(200));
        for v in 1..=12 {
            c.order(1, v);
        }
        c.run(SimDuration::from_secs(8));
        assert_eq!(ordered(&c.events(2)).len(), 12);
        c.crash(2);
        c.restart(2);
        for v in 100..110 {
            c.order(1, v);
        }
        c.run(SimDuration::from_secs(8));
        let got = ordered_gseqs(&c.events(2));
        assert!(
            got.iter().all(|(g, _)| *g > 12),
            "history replayed: {got:?}"
        );
        let tail: Vec<u64> = got.iter().map(|(_, p)| *p).collect();
        let want: Vec<u64> = (100..110).collect();
        assert!(
            !tail.is_empty() && want.ends_with(&tail),
            "a gap-free suffix of the new traffic, got {tail:?}"
        );
    }

    /// `(origin, incarnation, origin_seq) → gseq` of every ordered delivery.
    fn identities(events: &[GcsEvent<u64>]) -> Vec<((NodeId, u64, u64), u64)> {
        events
            .iter()
            .filter_map(|e| match e {
                GcsEvent::OrderedDeliver { gseq, msg } => {
                    Some(((msg.origin, msg.inc, msg.seq), *gseq))
                }
                _ => None,
            })
            .collect()
    }

    #[test]
    fn a_request_sequenced_before_its_origin_was_admitted_keeps_its_position() {
        // A restarted node believes node 0 coordinates it and orders before
        // it is admitted. The members deliver and acknowledge the message
        // and the sequencer forgets it; the origin, admitted above it, keeps
        // retrying. The retry must not get a second position (which only the
        // origin, re-based past the first, would deliver).
        let mut c = Cluster::new(4, LinkConfig::lan(), GcsConfig::lan(), 17);
        c.run(SimDuration::from_millis(200));
        for v in 1..=5 {
            c.order(1, v);
        }
        c.run(SimDuration::from_secs(1));
        c.crash(3);
        c.run(SimDuration::from_millis(600));
        assert_eq!(c.nodes[0].view().members.len(), 3);
        for i in 0..4 {
            c.events(i);
        }
        c.restart(3);
        c.order(3, 777);
        let mut admitted = false;
        for _ in 0..400 {
            c.run(SimDuration::from_millis(5));
            if !admitted && c.nodes[0].view().members.len() == 4 {
                admitted = true;
                c.order(0, 900);
            }
        }
        assert!(admitted);
        let want = vec![(6, 777), (7, 900)];
        for i in 0..3 {
            assert_eq!(ordered_gseqs(&c.events(i)), want, "node {i}");
        }
        let got = ordered_gseqs(&c.events(3));
        assert!(
            got == want || got == want[1..],
            "node 3 joined before or after 777, but at no other position: {got:?}"
        );
        assert_eq!(c.nodes[3].pending_orders(), 0, "the origin stops retrying");
        assert_eq!(c.nodes[0].stream.seq.counter, 7);
        assert_eq!(c.nodes[0].stream.seq.buffer.len(), RETAINED_AT_QUIESCENCE);
    }

    #[test]
    fn a_superseded_or_forgotten_request_is_never_sequenced_again() {
        let mut c = Cluster::new(3, LinkConfig::lan(), GcsConfig::lan(), 18);
        c.run(SimDuration::from_millis(200));
        c.order(1, 1);
        c.order(1, 2);
        c.run(SimDuration::from_secs(1));
        assert_eq!(c.nodes[0].stream.seq.counter, 2);
        assert_eq!(c.nodes[0].stream.seq.buffer.len(), RETAINED_AT_QUIESCENCE);
        let inc = c.nodes[1].detector.incarnation;
        for i in 0..3 {
            c.events(i);
        }
        // Late copies of both requests reach the sequencer: the forgotten
        // newest is answered to its origin alone, the older one dropped.
        for origin_seq in [2, 1] {
            c.nodes[0].handle(
                &mut c.net,
                NodeId(1),
                GcsWire::OrderRequest(Sequenced {
                    origin: NodeId(1),
                    inc,
                    seq: origin_seq,
                    payload: origin_seq,
                    trace: None,
                }),
                SimTime::ZERO,
            );
        }
        c.run(SimDuration::from_secs(1));
        assert_eq!(c.nodes[0].stream.seq.counter, 2, "no new position");
        for i in 0..3 {
            assert_eq!(ordered_gseqs(&c.events(i)), vec![], "node {i}");
        }
    }

    #[test]
    fn a_second_position_in_one_stream_is_counted_a_retry_in_the_next_is_not() {
        let mut c = Cluster::new(3, LinkConfig::lan(), GcsConfig::lan(), 19);
        let telemetry = Telemetry::new();
        c.nodes[2].set_telemetry(telemetry.clone());
        c.run(SimDuration::from_millis(200));
        c.order(1, 5);
        c.run(SimDuration::from_secs(1));
        let inc = c.nodes[1].detector.incarnation;
        let copy = |gseq| GcsWire::Ordered {
            gseq,
            msg: Sequenced {
                origin: NodeId(1),
                inc,
                seq: 1,
                payload: 5,
                trace: None,
            },
        };
        // A sequencer gone wrong hands node 2 the same message again.
        c.nodes[2].handle(&mut c.net, NodeId(0), copy(2), SimTime::ZERO);
        assert_eq!(telemetry.counter("gcs.order.resequenced"), 1);
        // The next sequencer re-ordering a retried request is routine.
        c.crash(0);
        c.run(SimDuration::from_secs(1));
        assert_eq!(c.nodes[2].view().coordinator(), Some(NodeId(1)));
        c.nodes[2].handle(&mut c.net, NodeId(1), copy(1), SimTime::ZERO);
        assert_eq!(telemetry.counter("gcs.order.resequenced"), 1);
        assert_eq!(ordered(&c.events(2)), vec![5], "delivered once");
    }

    /// One long-lived sequencer (node 0 never fails), the others crash and
    /// restart — after the suspicion timeout or inside it — and order at
    /// once, under loss. Whatever happens: a message has one position on
    /// every node that delivers it, no node delivers a message twice or out
    /// of order, every origin's pending queue drains and the sequencer ends
    /// up retaining nothing. (A case in which loss gets node 0 suspected has
    /// a second stream, where a retried message rightly gets a second
    /// position; such a case is abandoned.)
    #[test]
    fn one_stream_gives_every_message_one_position_everywhere() {
        use dosgi_testkit::{prop, TestRng};

        struct Seen {
            position: BTreeMap<(NodeId, u64, u64), u64>,
            // Per node: the gseq of its current incarnation's last delivery.
            last: [u64; 4],
            one_stream: bool,
        }

        fn check(c: &mut Cluster, seen: &mut Seen) -> prop::PropResult {
            let events: Vec<_> = (0..4).map(|i| c.events(i)).collect();
            seen.one_stream &= events.iter().flatten().all(|e| match e {
                GcsEvent::ViewChange { view, .. } => view.coordinator() == Some(NodeId(0)),
                _ => true,
            });
            if !seen.one_stream {
                return Ok(());
            }
            for (i, events) in events.iter().enumerate() {
                for (id, gseq) in identities(events) {
                    if gseq <= seen.last[i] {
                        return Err(format!("node {i}: {gseq} after {}", seen.last[i]));
                    }
                    seen.last[i] = gseq;
                    let at = *seen.position.entry(id).or_insert(gseq);
                    if at != gseq {
                        return Err(format!("{id:?} at {at} and at {gseq} (node {i})"));
                    }
                }
            }
            Ok(())
        }

        let cfg = prop::Config::with_cases(60);
        let gen = prop::u64s(0, u64::MAX);
        prop::check_with(&cfg, "one_position_per_message", &gen, |&seed| {
            let mut rng = TestRng::new(seed);
            let loss = [0.0, 0.05, 0.1][rng.u64_below(3) as usize];
            let mut c = Cluster::new(4, LinkConfig::lossy(loss), GcsConfig::lan(), seed);
            c.run(SimDuration::from_millis(300));
            let mut seen = Seen {
                position: BTreeMap::new(),
                last: [0; 4],
                one_stream: true,
            };
            let mut payload = 0;
            for _ in 0..12 {
                let victim = 1 + rng.u64_below(3) as usize;
                let op = rng.u64_below(4);
                if op < 2 {
                    // Restart and order at once: after being excluded, or
                    // inside the suspicion timeout (no view change).
                    c.crash(victim);
                    if op == 0 {
                        c.run(SimDuration::from_millis(300 + rng.u64_below(400)));
                        check(&mut c, &mut seen)?;
                    }
                    c.restart(victim);
                    seen.last[victim] = 0;
                    payload += 1;
                    c.order(victim, payload);
                } else {
                    for _ in 0..=rng.u64_below(3) {
                        payload += 1;
                        c.order(rng.u64_below(4) as usize, payload);
                    }
                }
                c.run(SimDuration::from_millis(50 + rng.u64_below(700)));
                check(&mut c, &mut seen)?;
            }
            c.run(SimDuration::from_secs(10));
            check(&mut c, &mut seen)?;
            if !seen.one_stream {
                return Ok(());
            }
            if let Some(i) = (0..4).find(|&i| c.nodes[i].pending_orders() != 0) {
                return Err(format!("node {i} still retries"));
            }
            if c.nodes[0].stream.seq.buffer.len() != RETAINED_AT_QUIESCENCE {
                return Err(format!("retained {}", c.nodes[0].stream.seq.buffer.len()));
            }
            Ok(())
        });
    }

    /// Ticking a node only when it has mail or its deadline has come is the
    /// same execution as ticking it every step: same events on every node
    /// at every check, same traffic, same final views.
    #[test]
    fn ticking_on_mail_or_deadline_is_ticking_every_step() {
        use dosgi_testkit::{prop, TestRng};

        let cfg = prop::Config::with_cases(500);
        let gen = prop::u64s(0, u64::MAX);
        prop::check_with(&cfg, "gated_equals_ungated", &gen, |&seed| {
            const N: usize = 4;
            let mut rng = TestRng::new(seed);
            let loss = [0.0, 0.0, 0.03, 0.1][rng.u64_below(4) as usize];
            let new = || Cluster::new(N, LinkConfig::lossy(loss), GcsConfig::lan(), seed);
            let mut pair = [new(), new().gated()];
            let mut payload = 0;
            for round in 0..14 {
                let op = rng.u64_below(8);
                let i = rng.u64_below(N as u64) as usize;
                let j = rng.u64_below(N as u64) as usize;
                let sends = 1 + rng.u64_below(3);
                // Inside the suspicion timeout (nobody notices) or outside.
                let down = [0, 40, 300 + rng.u64_below(400)][rng.u64_below(3) as usize];
                let settle = 20 + rng.u64_below(600);
                for c in &mut pair {
                    let mut payload = payload;
                    match op {
                        0 | 1 => {
                            for _ in 0..sends {
                                payload += 1;
                                c.order(i, payload);
                            }
                        }
                        2 => {
                            for _ in 0..sends {
                                payload += 1;
                                c.order(j, payload);
                            }
                        }
                        3 | 4 => {
                            if !c.crashed[i] {
                                c.crash(i);
                                c.run(SimDuration::from_millis(down));
                            }
                            c.restart(i);
                            c.order(i, payload + 1);
                        }
                        5 => c.net.partition(dosgi_net::Partition::split([
                            (0..N as u32)
                                .filter(|n| n % 2 == 0)
                                .map(NodeId)
                                .collect::<Vec<_>>(),
                            (0..N as u32)
                                .filter(|n| n % 2 == 1)
                                .map(NodeId)
                                .collect::<Vec<_>>(),
                        ])),
                        6 => c.net.heal(),
                        _ => {
                            let link = LinkConfig::lossy(if round % 2 == 0 { 1.0 } else { loss });
                            c.net.set_link(NodeId(i as u32), NodeId(j as u32), link);
                        }
                    }
                    c.run(SimDuration::from_millis(settle));
                }
                payload += 3;
                let [every_step, gated] = &mut pair;
                for n in 0..N {
                    let (want, got) = (every_step.events(n), gated.events(n));
                    if want != got {
                        return Err(format!(
                            "round {round} op {op}: node {n} every step {want:?}, gated {got:?}"
                        ));
                    }
                    if every_step.nodes[n].view() != gated.nodes[n].view() {
                        return Err(format!("round {round}: node {n} views differ"));
                    }
                }
                if every_step.net.stats() != gated.net.stats() {
                    return Err(format!(
                        "round {round} op {op}: traffic {:?} vs {:?}",
                        every_step.net.stats(),
                        gated.net.stats()
                    ));
                }
            }
            Ok(())
        });
    }

    #[test]
    fn send_all_skips_the_sender() {
        let mut net: Net = SimNet::new(LinkConfig::ideal(), 1);
        let ids: Vec<NodeId> = (0..3).map(|_| net.register_node()).collect();
        let msg = GcsWire::OrderedReplayRequest { from_gseq: 4 };
        send_all(&mut net, ids[1], &ids, &msg);
        net.advance(SimDuration::from_millis(1));
        for (i, &id) in ids.iter().enumerate() {
            let got: Vec<_> = net.drain(id).into_iter().map(|e| e.from).collect();
            assert_eq!(got, if i == 1 { vec![] } else { vec![ids[1]] });
        }
    }

    #[test]
    fn a_group_node_sends_through_any_fabric_backend() {
        let ids = vec![NodeId(0), NodeId(1)];
        let node = |id| Node::new(id, ids.clone(), GcsConfig::lan(), SimTime::ZERO);
        // Sim backend.
        let mut net: Net = SimNet::new(LinkConfig::ideal(), 1);
        let (a, b) = (net.register_node(), net.register_node());
        node(a).leave(&mut net);
        net.advance(SimDuration::from_millis(1));
        let got = net.drain(b);
        assert_eq!((got.len(), got[0].from), (1, a));
        assert_eq!(got[0].payload, GcsWire::Leave);
        // Real backend.
        let mut rt: dosgi_net::RealNet<GcsWire<u64>> = dosgi_net::RealNet::new();
        let (a, b) = (rt.register_node(), rt.register_node());
        let (mut ea, mut eb) = (rt.endpoint(a), rt.endpoint(b));
        node(a).leave(&mut ea);
        let mut got = Vec::new();
        eb.drain(b, &mut got);
        assert_eq!((got.len(), got[0].from), (1, a));
        assert_eq!(got[0].payload, GcsWire::Leave);
    }

    #[test]
    #[should_panic(expected = "peers must include")]
    fn new_requires_self_in_peers() {
        let _ = Node::new(NodeId(9), vec![NodeId(0)], GcsConfig::lan(), SimTime::ZERO);
    }
}
