//! The per-node protocol engine: failure detection, view agreement and
//! sequencer-based total order.

use crate::metrics::Metrics;
use crate::{GcsConfig, GcsWire, View, ViewId};
use dosgi_net::{Fabric, NodeId, SimDuration, SimTime};
use dosgi_telemetry::{Telemetry, TraceContext};
use std::collections::{BTreeMap, BTreeSet};

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
        /// The original sender.
        origin: NodeId,
        /// The origin's incarnation and its per-incarnation sequence number:
        /// with `origin`, the message's identity. No node delivers the same
        /// identity twice.
        origin_inc: u64,
        /// See `origin_inc`.
        origin_seq: u64,
        /// The payload.
        payload: A,
        /// The origin's causal trace context, if the flow was traced
        /// (carried opaquely: GCS never inspects or alters it).
        trace: Option<TraceContext>,
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
    peers: Vec<NodeId>,
    config: GcsConfig,

    // Failure detection.
    incarnation: u64,
    peer_incarnations: BTreeMap<NodeId, u64>,
    last_heard: BTreeMap<NodeId, SimTime>,
    last_hb_sent: Option<SimTime>,
    departed: BTreeSet<NodeId>,

    // View agreement.
    view: View,
    proposal: Option<Proposal>,

    // Total order.
    order_seq: u64,
    pending_orders: BTreeMap<u64, (A, Option<TraceContext>)>,
    pending_last_sent: Option<SimTime>,
    gseq_counter: u64,
    // Sequencer: the ordered messages some member may still need, i.e.
    // everything above `low_water`.
    ordered_buffer: BTreeMap<u64, Sequenced<A>>,
    // Sequencer: per origin, the newest request sequenced in this stream,
    // `(incarnation, origin_seq, gseq)`. An origin keeps one request
    // outstanding, so a request not newer than this is a retry (or a stale
    // copy): it is answered with the `gseq` it has, never sequenced again.
    assigned: BTreeMap<NodeId, (u64, u64, u64)>,
    // Sequencer: per member, a `gseq` it is known to be past — acknowledged
    // on its heartbeats, or the base it was admitted at. Above the member's
    // real cursor only until the member asks for replay and is re-based.
    acked: BTreeMap<NodeId, u64>,
    // Sequencer: the minimum of `acked` over the view; nothing at or below
    // it is retained.
    low_water: u64,
    expected_gseq: u64,
    ordered_ooo: BTreeMap<u64, Sequenced<A>>,
    // Per origin, the newest `(incarnation, origin_seq)` delivered, and the
    // `stream_gen` it was delivered in. An origin keeps one order request
    // outstanding, so its messages arrive in sequence and anything not
    // newer is a duplicate.
    delivered_high: BTreeMap<NodeId, (u64, u64, u64)>,
    // Counts the streams this node has followed: bumped whenever the cursor
    // is reset for a new one. A duplicate of something delivered in an
    // *earlier* stream is a new sequencer re-ordering a retried request; in
    // the *same* stream it means the sequencer gave one message two
    // positions (`gcs.order.resequenced`, never expected).
    stream_gen: u64,
    // Set for good the first time the cursor moves other than by delivering
    // (see `delivered_from_start`).
    rebased: bool,
    last_order_nack: Option<SimTime>,

    events: Vec<GcsEvent<A>>,
    metrics: Metrics,
}

/// How many ordered messages a sequencer still retains for replay once
/// every member of its view has acknowledged the whole stream: none. The
/// `gcs.order.retained` gauge reads this at quiescence.
pub const RETAINED_AT_QUIESCENCE: usize = 0;

/// A sequenced message: `(origin, origin_inc, origin_seq, payload, trace)`.
type Sequenced<A> = (NodeId, u64, u64, A, Option<TraceContext>);

#[derive(Debug)]
struct Proposal {
    view: View,
    acks: BTreeSet<NodeId>,
    last_sent: SimTime,
}

impl<A: Clone> GroupNode<A> {
    /// Creates a node for `id` in a fixed universe of `peers` (which must
    /// include `id`). The initial view optimistically contains every peer;
    /// the failure detector prunes it within a suspicion timeout.
    ///
    /// # Panics
    ///
    /// Panics if `peers` does not contain `id`.
    pub fn new(id: NodeId, peers: Vec<NodeId>, config: GcsConfig, now: SimTime) -> Self {
        assert!(peers.contains(&id), "peers must include the local node");
        let view = View::new(
            ViewId {
                epoch: 0,
                proposer: NodeId(0),
            },
            peers.clone(),
        );
        let last_heard = peers.iter().map(|p| (*p, now)).collect();
        let mut node = GroupNode {
            id,
            peers,
            config,
            incarnation: now.as_micros().wrapping_add(1),
            peer_incarnations: BTreeMap::new(),
            last_heard,
            last_hb_sent: None,
            departed: BTreeSet::new(),
            view: view.clone(),
            proposal: None,
            order_seq: 0,
            pending_orders: BTreeMap::new(),
            pending_last_sent: None,
            gseq_counter: 0,
            ordered_buffer: BTreeMap::new(),
            assigned: BTreeMap::new(),
            acked: BTreeMap::new(),
            low_water: 0,
            expected_gseq: 1,
            ordered_ooo: BTreeMap::new(),
            delivered_high: BTreeMap::new(),
            stream_gen: 0,
            rebased: false,
            last_order_nack: None,
            events: Vec::new(),
            metrics: Metrics::default(),
        };
        let members = view.members.clone();
        node.events.push(GcsEvent::ViewChange {
            view,
            joined: members,
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
        &self.view
    }

    /// The fixed universe size (for majority tests).
    pub fn universe(&self) -> usize {
        self.peers.len()
    }

    /// True if this node is the current view's coordinator/sequencer.
    pub fn is_coordinator(&self) -> bool {
        self.view.coordinator() == Some(self.id)
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
        self.pending_orders.len()
    }

    /// True while this node's ordered cursor has only ever moved by
    /// delivering: it has followed one stream from that stream's first
    /// message and applied everything ordered in it. A re-base, the reset
    /// for a restarted sequencer and a change of coordinator each end it
    /// for good. The layer above reads it to tell a node that booted with
    /// the group (it missed nothing) from one that joined a stream already
    /// under way (it owes its state to a transfer).
    pub fn delivered_from_start(&self) -> bool {
        !self.rebased
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
        self.order_seq += 1;
        self.pending_orders
            .insert(self.order_seq, (payload.clone(), trace));
        let is_head = self.pending_orders.len() == 1;
        let origin_seq = self.order_seq;
        if !is_head {
            return; // the tick timer sends it once the head clears
        }
        if self.is_coordinator() {
            let inc = self.incarnation;
            self.assign_and_broadcast(net, self.id, inc, origin_seq, payload, trace);
        } else if let Some(seq) = self.view.coordinator() {
            net.send(
                self.id,
                seq,
                GcsWire::OrderRequest {
                    incarnation: self.incarnation,
                    origin_seq,
                    payload,
                    trace,
                },
            );
        }
    }

    /// Announces a graceful departure (the paper's normal-shutdown path):
    /// peers exclude this node without waiting for suspicion.
    pub fn leave(&mut self, net: &mut impl Fabric<GcsWire<A>>) {
        for &m in &self.peers {
            if m != self.id {
                net.send(self.id, m, GcsWire::Leave);
            }
        }
    }

    // ------------------------------------------------------------------
    // Periodic work
    // ------------------------------------------------------------------

    /// Runs heartbeats, suspicion, view proposal and retransmission timers.
    /// Call at least once per heartbeat interval.
    pub fn tick(&mut self, net: &mut impl Fabric<GcsWire<A>>, now: SimTime) {
        // Heartbeats.
        let due = self
            .last_hb_sent
            .map(|at| now.since(at) >= self.config.heartbeat_interval)
            .unwrap_or(true);
        if due {
            let stream = self
                .view
                .coordinator()
                .and_then(|c| self.peer_incarnations.get(&c))
                .copied()
                .unwrap_or(0);
            for &m in &self.peers {
                if m != self.id {
                    net.send(
                        self.id,
                        m,
                        GcsWire::Heartbeat {
                            ordered: self.gseq_counter,
                            incarnation: self.incarnation,
                            view: self.view.id,
                            delivered: self.expected_gseq - 1,
                            stream,
                        },
                    );
                }
            }
            self.last_hb_sent = Some(now);
        }

        // Suspicion: who do I currently believe is alive? While that is
        // exactly the view there is nothing to agree on.
        if !self.alive_matches_view(now) {
            self.propose_alive_set(net, now);
        }

        // Retry pending ordered messages (sequencer may have changed or a
        // request may have been lost).
        if !self.pending_orders.is_empty() {
            let due = self
                .pending_last_sent
                .map(|at| now.since(at) >= self.config.order_resend)
                .unwrap_or(true);
            if due {
                self.pending_last_sent = Some(now);
                // Only the head of the queue goes out (per-origin FIFO).
                let head = self
                    .pending_orders
                    .iter()
                    .next()
                    .map(|(&s, p)| (s, p.clone()));
                if let (Some(seq), Some((origin_seq, (payload, trace)))) =
                    (self.view.coordinator(), head)
                {
                    if seq == self.id {
                        let inc = self.incarnation;
                        self.assign_and_broadcast(net, self.id, inc, origin_seq, payload, trace);
                    } else {
                        net.send(
                            self.id,
                            seq,
                            GcsWire::OrderRequest {
                                incarnation: self.incarnation,
                                origin_seq,
                                payload,
                                trace,
                            },
                        );
                    }
                }
            }
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
        if !self.events.is_empty() || self.proposal.is_some() || !self.alive_matches_view(now) {
            return now;
        }
        let mut at = self
            .last_hb_sent
            .map_or(now, |sent| sent + self.config.heartbeat_interval);
        // A member counts as alive up to and including `suspect_timeout` of
        // silence (every member has been heard, or it would not be alive).
        let suspect_after = self.config.suspect_timeout + SimDuration::from_micros(1);
        for m in &self.view.members {
            if let Some(&heard) = self.last_heard.get(m).filter(|_| *m != self.id) {
                at = at.min(heard + suspect_after);
            }
        }
        if !self.pending_orders.is_empty() {
            at = at.min(
                self.pending_last_sent
                    .map_or(now, |sent| sent + self.config.order_resend),
            );
        }
        at
    }

    fn is_alive(&self, p: NodeId, now: SimTime) -> bool {
        p == self.id
            || (!self.departed.contains(&p)
                && self
                    .last_heard
                    .get(&p)
                    .is_some_and(|&at| now.since(at) <= self.config.suspect_timeout))
    }

    /// `alive_set(now) == view.members`, without building the set.
    fn alive_matches_view(&self, now: SimTime) -> bool {
        let mut alive = 0;
        for &p in &self.peers {
            if self.is_alive(p, now) {
                if !self.view.contains(p) {
                    return false;
                }
                alive += 1;
            }
        }
        alive == self.view.members.len()
    }

    fn alive_set(&self, now: SimTime) -> Vec<NodeId> {
        let mut alive: Vec<NodeId> = self
            .peers
            .iter()
            .filter(|&&p| self.is_alive(p, now))
            .copied()
            .collect();
        alive.sort();
        alive
    }

    /// The view-agreement half of the tick, entered while the live peers
    /// differ from the view.
    fn propose_alive_set(&mut self, net: &mut impl Fabric<GcsWire<A>>, now: SimTime) {
        let alive = self.alive_set(now);
        // Proposer election: the lowest *live current member* proposes. A
        // freshly-(re)started outsider with a stale optimistic view must
        // not pre-empt the incumbent coordinator — otherwise a restarted
        // lowest-id node and the incumbent each wait for the other and the
        // merge never happens. If no current member is alive (a node alone
        // after a wipe), fall back to the lowest live node.
        let proposer = alive
            .iter()
            .find(|m| self.view.contains(**m))
            .or(alive.first())
            .copied();
        if proposer == Some(self.id) {
            let need_new = match &self.proposal {
                Some(p) => p.view.members != alive,
                None => true,
            };
            let resend_due = self
                .proposal
                .as_ref()
                .map(|p| now.since(p.last_sent) >= self.config.propose_resend)
                .unwrap_or(false);
            if need_new || resend_due {
                // Every (re-)proposal bumps the epoch: if the previous one
                // could not gather acks (e.g. the other side of a healed
                // partition sits at a higher epoch), the retry eventually
                // overtakes it.
                let epoch = self
                    .proposal
                    .as_ref()
                    .map(|p| p.view.id.epoch)
                    .unwrap_or(0)
                    .max(self.view.id.epoch)
                    + 1;
                // The proposer is the lowest live node, i.e. the new
                // view's coordinator. If it is *already* sequencing (its
                // coordinatorship survives the change), the stream
                // continues and joiners must skip its history; a freshly
                // elected coordinator starts a new stream at zero.
                let stream_base = if self.is_coordinator() {
                    self.gseq_counter
                } else {
                    0
                };
                let view = View::new(
                    ViewId {
                        epoch,
                        proposer: self.id,
                    },
                    alive.clone(),
                )
                .with_stream_base(stream_base);
                let mut acks = BTreeSet::new();
                acks.insert(self.id);
                self.proposal = Some(Proposal {
                    view,
                    acks,
                    last_sent: now,
                });
                self.send_proposal(net);
            }
            self.try_commit(net);
        }
    }

    fn send_proposal(&mut self, net: &mut impl Fabric<GcsWire<A>>) {
        if let Some(p) = &self.proposal {
            let msg = GcsWire::ViewPropose(p.view.clone());
            send_all(net, self.id, &p.view.members, &msg);
        }
    }

    fn try_commit(&mut self, net: &mut impl Fabric<GcsWire<A>>) {
        let ready = self
            .proposal
            .as_ref()
            .map(|p| p.view.members.iter().all(|m| p.acks.contains(m)))
            .unwrap_or(false);
        if ready {
            let view = self.proposal.take().expect("checked").view;
            let msg = GcsWire::ViewCommit(view);
            let GcsWire::ViewCommit(view_ref) = &msg else {
                unreachable!()
            };
            send_all(net, self.id, &view_ref.members, &msg);
            let GcsWire::ViewCommit(view) = msg else {
                unreachable!()
            };
            self.install_view(view);
        }
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
        // Any traffic counts as liveness.
        self.last_heard.insert(from, now);
        self.departed.remove(&from);
        match msg {
            GcsWire::Heartbeat {
                ordered,
                incarnation,
                view,
                delivered,
                stream,
            } => {
                // View anti-entropy. A `ViewCommit` is sent exactly once;
                // if the one carrying this member into the current view was
                // lost, no later message repairs it — the member waits for
                // a proposal from a coordinator that, seeing its own view
                // already match the alive set, never proposes again. So:
                // a current member advertising an older view id missed a
                // commit; push it the view we hold. `install_view` ignores
                // anything not newer than the receiver's own, so
                // concurrent pushes are harmless.
                if view < self.view.id && self.view.contains(from) {
                    self.metrics.antientropy_view_repairs.incr();
                    net.send(self.id, from, GcsWire::ViewCommit(self.view.clone()));
                }
                // A changed incarnation means the peer truly restarted. If
                // it is the current sequencer, its global order counter
                // restarted: reset our cursor for its stream. (A restarted
                // *member* needs nothing here: it asks for replay from 1
                // and is re-based, see `replay_ordered`.)
                let prev = self.peer_incarnations.insert(from, incarnation);
                if prev.is_some()
                    && prev != Some(incarnation)
                    && Some(from) == self.view.coordinator()
                {
                    self.expected_gseq = 1;
                    self.ordered_ooo.clear();
                    self.stream_gen += 1;
                    self.rebased = true;
                }
                // The sender's cursor in our stream: an acknowledgement
                // counts only from a member that shares our view (so we are
                // its coordinator) and knows this incarnation of us (so the
                // cursor is a position in this stream, not our last life's).
                if self.is_coordinator()
                    && self.view.contains(from)
                    && view == self.view.id
                    && stream == self.incarnation
                    && delivered <= self.gseq_counter
                {
                    let acked = self.acked.entry(from).or_insert(0);
                    *acked = (*acked).max(delivered);
                    self.truncate_ordered();
                }
                // Anti-entropy: if the sequencer claims more ordered
                // messages than we have delivered, ask for replay — this
                // recovers a tail whose every copy was lost (no gap visible
                // locally).
                if Some(from) == self.view.coordinator() && ordered >= self.expected_gseq {
                    self.request_ordered_replay(net, from, now);
                }
            }
            GcsWire::OrderedReplayRequest { from_gseq } => {
                if self.is_coordinator() {
                    self.replay_ordered(net, from, from_gseq);
                }
            }
            GcsWire::OrderedRebase { base } => {
                // Forward only, so a duplicate or late re-base is harmless.
                if Some(from) == self.view.coordinator() && base >= self.expected_gseq {
                    self.expected_gseq = base + 1;
                    self.rebased = true;
                    let above = self.ordered_ooo.split_off(&(base + 1));
                    // Skipped, but sequenced: a request of ours among them
                    // needs no more retries.
                    for (_, (o, oi, os, ..)) in std::mem::replace(&mut self.ordered_ooo, above) {
                        self.clear_pending(o, oi, os);
                    }
                    self.deliver_buffered();
                }
            }
            GcsWire::Leave => {
                self.departed.insert(from);
                self.last_heard.remove(&from);
            }
            GcsWire::ViewPropose(view) => {
                if view.id > self.view.id {
                    // If we would coordinate the proposed view and already
                    // sequence our current one, the stream continues at our
                    // counter; report it so the commit carries the right
                    // `stream_base` (the proposer may not be us).
                    let stream_base =
                        if view.coordinator() == Some(self.id) && self.is_coordinator() {
                            self.gseq_counter
                        } else {
                            0
                        };
                    net.send(
                        self.id,
                        view.id.proposer,
                        GcsWire::ViewAck {
                            id: view.id,
                            stream_base,
                        },
                    );
                }
            }
            GcsWire::ViewAck { id, stream_base } => {
                self.metrics.view_acks.incr();
                if let Some(p) = self.proposal.as_mut() {
                    if p.view.id == id {
                        p.acks.insert(from);
                        if p.view.coordinator() == Some(from) {
                            p.view.stream_base = stream_base;
                        }
                    }
                }
                self.try_commit(net);
            }
            GcsWire::ViewCommit(view) => {
                if view.id > self.view.id {
                    self.install_view(view);
                }
            }
            GcsWire::OrderRequest {
                incarnation,
                origin_seq,
                payload,
                trace,
            } => {
                if self.is_coordinator() {
                    self.assign_and_broadcast(net, from, incarnation, origin_seq, payload, trace);
                }
                // Otherwise: stale request to an ex-coordinator; the origin
                // will retry against the new one.
            }
            GcsWire::Ordered {
                gseq,
                origin,
                origin_inc,
                origin_seq,
                payload,
                trace,
            } => self.handle_ordered(
                net, from, gseq, origin, origin_inc, origin_seq, payload, trace, now,
            ),
        }
    }

    /// Sequencer: forgets every ordered message all current members have
    /// acknowledged (a member not heard from yet holds the mark at 0).
    fn truncate_ordered(&mut self) {
        let low_water = self
            .view
            .members
            .iter()
            .filter(|m| **m != self.id)
            .map(|m| self.acked.get(m).copied().unwrap_or(0))
            .min()
            .unwrap_or(self.gseq_counter);
        if low_water > self.low_water {
            self.low_water = low_water;
            self.ordered_buffer = self.ordered_buffer.split_off(&(low_water + 1));
            self.publish_window();
        }
    }

    /// Sequencer: publishes the replay window's size and floor. Called at
    /// every change of the window, taking over a stream included, so the
    /// gauges read the sequencer that last changed its window (nodes of one
    /// simulated cluster share a registry; a deposed sequencer stays
    /// silent).
    fn publish_window(&self) {
        self.metrics
            .order_retained
            .set(self.ordered_buffer.len() as i64);
        self.metrics.order_low_water.set(self.low_water as i64);
    }

    fn assign_and_broadcast(
        &mut self,
        net: &mut impl Fabric<GcsWire<A>>,
        origin: NodeId,
        origin_inc: u64,
        origin_seq: u64,
        payload: A,
        trace: Option<TraceContext>,
    ) {
        // Never sequence the same request twice: a retry gets the `gseq` it
        // already has. While that is retained, re-announce it to the view (a
        // lost broadcast). Once it is forgotten every member is past it,
        // the origin included — delivered, or admitted above it with its
        // state transferred — so only the origin is told, to stop retrying.
        let id = (origin_inc, origin_seq);
        let (gseq, fresh) = match self.assigned.get(&origin) {
            Some(&(inc, seq, _)) if id < (inc, seq) => return, // superseded
            Some(&(inc, seq, gseq)) if id == (inc, seq) => (gseq, false),
            _ => {
                self.gseq_counter += 1;
                self.assigned
                    .insert(origin, (origin_inc, origin_seq, self.gseq_counter));
                self.ordered_buffer.insert(
                    self.gseq_counter,
                    (origin, origin_inc, origin_seq, payload.clone(), trace),
                );
                self.publish_window();
                (self.gseq_counter, true)
            }
        };
        let ordered = |payload| GcsWire::Ordered {
            gseq,
            origin,
            origin_inc,
            origin_seq,
            payload,
            trace,
        };
        if !self.ordered_buffer.contains_key(&gseq) {
            if origin != self.id {
                net.send(self.id, origin, ordered(payload));
            }
            return;
        }
        for &m in &self.view.members {
            if m != self.id {
                net.send(self.id, m, ordered(payload.clone()));
            }
        }
        if fresh {
            // Sequencer self-delivery.
            self.deliver_ordered_chain(gseq, origin, origin_inc, origin_seq, payload, trace);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_ordered(
        &mut self,
        net: &mut impl Fabric<GcsWire<A>>,
        from: NodeId,
        gseq: u64,
        origin: NodeId,
        origin_inc: u64,
        origin_seq: u64,
        payload: A,
        trace: Option<TraceContext>,
        now: SimTime,
    ) {
        // Only the current coordinator's stream counts.
        if Some(from) != self.view.coordinator() {
            return;
        }
        if gseq < self.expected_gseq {
            // Duplicate of something already processed; still clears pending.
            self.clear_pending(origin, origin_inc, origin_seq);
            return;
        }
        if gseq > self.expected_gseq {
            self.ordered_ooo
                .insert(gseq, (origin, origin_inc, origin_seq, payload, trace));
            self.request_ordered_replay(net, from, now);
            return;
        }
        self.deliver_ordered_chain(gseq, origin, origin_inc, origin_seq, payload, trace);
    }

    /// Rate-limited request to the sequencer to replay the ordered stream
    /// from our cursor.
    fn request_ordered_replay(
        &mut self,
        net: &mut impl Fabric<GcsWire<A>>,
        sequencer: NodeId,
        now: SimTime,
    ) {
        let due = self
            .last_order_nack
            .map(|at| now.since(at) >= self.config.order_resend)
            .unwrap_or(true);
        if due {
            self.last_order_nack = Some(now);
            self.metrics.antientropy_replay_requests.incr();
            net.send(
                self.id,
                sequencer,
                GcsWire::OrderedReplayRequest {
                    from_gseq: self.expected_gseq,
                },
            );
        }
    }

    fn deliver_ordered_chain(
        &mut self,
        gseq: u64,
        origin: NodeId,
        origin_inc: u64,
        origin_seq: u64,
        payload: A,
        trace: Option<TraceContext>,
    ) {
        self.deliver_ordered_one(gseq, origin, origin_inc, origin_seq, payload, trace);
        self.deliver_buffered();
    }

    /// Delivers the out-of-order buffer's run starting at the cursor.
    fn deliver_buffered(&mut self) {
        while let Some((o, oi, os, p, tr)) = self.ordered_ooo.remove(&self.expected_gseq) {
            self.deliver_ordered_one(self.expected_gseq, o, oi, os, p, tr);
        }
    }

    fn deliver_ordered_one(
        &mut self,
        gseq: u64,
        origin: NodeId,
        origin_inc: u64,
        origin_seq: u64,
        payload: A,
        trace: Option<TraceContext>,
    ) {
        // Monotone: a replayed/stale gseq must never pull the cursor back.
        self.expected_gseq = self.expected_gseq.max(gseq + 1);
        self.clear_pending(origin, origin_inc, origin_seq);
        let high = self.delivered_high.entry(origin).or_insert((0, 0, 0));
        if (origin_inc, origin_seq) <= (high.0, high.1) {
            if high.2 == self.stream_gen {
                self.metrics.order_resequenced.incr();
            }
        } else {
            *high = (origin_inc, origin_seq, self.stream_gen);
            self.metrics.order_delivered.incr();
            self.events.push(GcsEvent::OrderedDeliver {
                gseq,
                origin,
                origin_inc,
                origin_seq,
                payload,
                trace,
            });
        }
    }

    fn clear_pending(&mut self, origin: NodeId, origin_inc: u64, origin_seq: u64) {
        if origin == self.id
            && origin_inc == self.incarnation
            && self.pending_orders.remove(&origin_seq).is_some()
        {
            // Head cleared: let the next tick dispatch the next pending
            // message immediately.
            self.pending_last_sent = None;
        }
    }

    fn install_view(&mut self, view: View) {
        self.metrics.view_installed.incr();
        let old = std::mem::replace(&mut self.view, view.clone());
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
        // and tells them when they ask (`replay_ordered`).
        if view.coordinator() != old.coordinator() {
            self.expected_gseq = view.stream_base + 1;
            self.stream_gen += 1;
            self.rebased = true;
            self.ordered_ooo.clear();
            self.ordered_buffer.clear();
            self.assigned.clear();
            self.acked.clear();
            if self.is_coordinator() {
                // Everyone joins our stream at `stream_base`.
                self.gseq_counter = view.stream_base;
                self.low_water = view.stream_base;
                self.acked
                    .extend(view.members.iter().map(|m| (*m, view.stream_base)));
                self.publish_window();
            }
            self.pending_last_sent = None;
        } else if self.is_coordinator() {
            // Our stream continues. The members this view admits join it at
            // `stream_base` (taken before the commit, so before any state
            // transfer the admission triggers), or at the low-water mark if
            // the stream has already been truncated past that. They learn
            // it when they first ask for anything older.
            self.acked.retain(|m, _| view.contains(*m));
            let base = view.stream_base.max(self.low_water);
            self.acked.extend(joined.iter().map(|j| (*j, base)));
            self.truncate_ordered();
        }
        if self.proposal.as_ref().is_some_and(|p| p.view.id <= view.id) {
            self.proposal = None;
        }
        self.events
            .push(GcsEvent::ViewChange { view, joined, left });
    }

    /// Handles a replay request: resends the ordered buffer from
    /// `from_gseq` to a lagging member. A request that reaches to or below
    /// what the requester is known to be past is answered with that base
    /// instead of with history. It comes from a node a view change admitted
    /// (its base is the view's `stream_base`, its cursor older), or from a
    /// member that restarted without a view change and asks from 1 — it
    /// resumes where its previous incarnation last acknowledged, a position
    /// before its restart and so before the `Hello` that fetches its state.
    /// A node that is not (yet) a member has no place in the stream at all
    /// and is sent to its head. A member's cursor is never below the
    /// low-water mark, so what a member may ask for is always retained.
    fn replay_ordered(
        &mut self,
        net: &mut impl Fabric<GcsWire<A>>,
        to: NodeId,
        mut from_gseq: u64,
    ) {
        let base = if self.view.contains(to) {
            self.acked.get(&to).copied().unwrap_or(0)
        } else {
            self.gseq_counter
        };
        if from_gseq <= base {
            self.metrics.antientropy_rebased.incr();
            net.send(self.id, to, GcsWire::OrderedRebase { base });
            from_gseq = base + 1;
        }
        for (&gseq, (origin, origin_inc, origin_seq, payload, trace)) in
            self.ordered_buffer.range(from_gseq..)
        {
            self.metrics.antientropy_replayed.incr();
            net.send(
                self.id,
                to,
                GcsWire::Ordered {
                    gseq,
                    origin: *origin,
                    origin_inc: *origin_inc,
                    origin_seq: *origin_seq,
                    payload: payload.clone(),
                    trace: *trace,
                },
            );
        }
    }
}

/// Sends `msg` from `from` to every other node in `to`, one clone each.
fn send_all<A: Clone>(
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
    use dosgi_net::{LinkConfig, SimDuration, SimNet};

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
                GcsEvent::OrderedDeliver { payload, .. } => Some(*payload),
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
                    GcsEvent::OrderedDeliver { payload, trace, .. } => Some((payload, trace)),
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
                GcsEvent::OrderedDeliver { gseq, payload, .. } => Some((*gseq, *payload)),
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
        assert_eq!(c.nodes[0].gseq_counter, 30);
        assert_eq!(c.nodes[0].ordered_buffer.len(), RETAINED_AT_QUIESCENCE);
        assert_eq!(c.nodes[0].low_water, 30);

        // Crash a non-coordinator; the stream moves on without it.
        c.crash(2);
        c.run(SimDuration::from_millis(600));
        assert_eq!(c.nodes[0].view().members.len(), 3);
        for v in 31..=35 {
            c.order(1, v);
        }
        c.run(SimDuration::from_secs(1));
        assert_eq!(
            c.nodes[0].ordered_buffer.len(),
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
        assert_eq!(c.nodes[2].expected_gseq, 36);

        // New traffic reaches it, including its own.
        c.order(2, 36);
        c.order(3, 37);
        c.run(SimDuration::from_secs(1));
        let mut got = ordered_gseqs(&c.events(2));
        got.sort();
        assert_eq!(got.iter().map(|g| g.0).collect::<Vec<_>>(), vec![36, 37]);
        assert_eq!(c.nodes[2].pending_orders(), 0);
        assert_eq!(c.nodes[0].ordered_buffer.len(), RETAINED_AT_QUIESCENCE);
        assert_eq!(c.nodes[0].low_water, 37);
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
            c.nodes[0].ordered_buffer.len() >= 8,
            "the sequencer keeps what the laggard has not acknowledged, has {}",
            c.nodes[0].ordered_buffer.len()
        );
        c.net.set_link(NodeId(0), NodeId(3), LinkConfig::lan());
        c.run(SimDuration::from_secs(2));
        let got = ordered_gseqs(&c.events(3));
        let want: Vec<(u64, u64)> = (38..=47).map(|v| (v, v)).collect();
        assert_eq!(got, want, "no skipped gseq on the laggard");
        assert_eq!(c.nodes[0].ordered_buffer.len(), RETAINED_AT_QUIESCENCE);
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
        assert_eq!(c.nodes[0].ordered_buffer.len(), RETAINED_AT_QUIESCENCE);
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
                GcsEvent::OrderedDeliver {
                    gseq,
                    origin,
                    origin_inc,
                    origin_seq,
                    ..
                } => Some(((*origin, *origin_inc, *origin_seq), *gseq)),
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
        assert_eq!(c.nodes[0].gseq_counter, 7);
        assert_eq!(c.nodes[0].ordered_buffer.len(), RETAINED_AT_QUIESCENCE);
    }

    #[test]
    fn a_superseded_or_forgotten_request_is_never_sequenced_again() {
        let mut c = Cluster::new(3, LinkConfig::lan(), GcsConfig::lan(), 18);
        c.run(SimDuration::from_millis(200));
        c.order(1, 1);
        c.order(1, 2);
        c.run(SimDuration::from_secs(1));
        assert_eq!(c.nodes[0].gseq_counter, 2);
        assert_eq!(c.nodes[0].ordered_buffer.len(), RETAINED_AT_QUIESCENCE);
        let inc = c.nodes[1].incarnation;
        for i in 0..3 {
            c.events(i);
        }
        // Late copies of both requests reach the sequencer: the forgotten
        // newest is answered to its origin alone, the older one dropped.
        for origin_seq in [2, 1] {
            c.nodes[0].handle(
                &mut c.net,
                NodeId(1),
                GcsWire::OrderRequest {
                    incarnation: inc,
                    origin_seq,
                    payload: origin_seq,
                    trace: None,
                },
                SimTime::ZERO,
            );
        }
        c.run(SimDuration::from_secs(1));
        assert_eq!(c.nodes[0].gseq_counter, 2, "no new position");
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
        let inc = c.nodes[1].incarnation;
        let copy = |gseq| GcsWire::Ordered {
            gseq,
            origin: NodeId(1),
            origin_inc: inc,
            origin_seq: 1,
            payload: 5,
            trace: None,
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
            if c.nodes[0].ordered_buffer.len() != RETAINED_AT_QUIESCENCE {
                return Err(format!("retained {}", c.nodes[0].ordered_buffer.len()));
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
