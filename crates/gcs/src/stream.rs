//! Total order: the one stream the view's coordinator numbers, in three
//! parts — the origin's queue of messages waiting for a position, the
//! sequencer's state for the stream it numbers, and the receiver's cursor
//! in the stream it follows.

use crate::config::{due, ORDER_RESEND};
use crate::metrics::Metrics;
use crate::node::send_all;
use crate::{GcsWire, View};
use dosgi_net::{Fabric, NodeId, SimTime};
use dosgi_telemetry::TraceContext;
use std::collections::{BTreeMap, VecDeque};

/// How many ordered messages a sequencer still retains for replay once
/// every member of its view has acknowledged the whole stream: none. The
/// `gcs.order.retained` gauge reads this at quiescence.
pub const RETAINED_AT_QUIESCENCE: usize = 0;

/// One totally-ordered message, as its origin queued it. `(origin, inc,
/// seq)` is its identity: no node delivers the same identity twice.
#[derive(Debug, Clone, PartialEq)]
pub struct Sequenced<A> {
    /// The node that originated the message.
    pub origin: NodeId,
    /// The origin's incarnation when it queued the message, so a restarted
    /// origin's fresh sequence numbers never collide with its previous
    /// life's.
    pub inc: u64,
    /// The origin's per-incarnation sequence number.
    pub seq: u64,
    /// The application payload.
    pub payload: A,
    /// The origin's causal trace context, if the flow was traced (carried
    /// opaquely: GCS never inspects or alters it).
    pub trace: Option<TraceContext>,
}

/// The three parts of the stream machine.
#[derive(Debug)]
pub(crate) struct Stream<A> {
    pub(crate) queue: Queue<A>,
    pub(crate) seq: Sequencer<A>,
    pub(crate) cursor: Cursor<A>,
}

impl<A: Clone> Stream<A> {
    /// The stream machine of `origin`'s incarnation `inc`.
    pub fn new(origin: NodeId, inc: u64) -> Self {
        Stream {
            queue: Queue {
                origin,
                inc,
                last_seq: 0,
                pending: BTreeMap::new(),
                last_sent: None,
            },
            seq: Sequencer::at(0, &[]),
            cursor: Cursor {
                expected: 1,
                ooo: BTreeMap::new(),
                delivered_high: BTreeMap::new(),
                stream_gen: 0,
                rebased: false,
                last_nack: None,
            },
        }
    }
}

/// The origin's queue: its messages not yet sequenced. Only the head is
/// ever sent, so an origin's messages are sequenced in the order it queued
/// them.
#[derive(Debug)]
pub(crate) struct Queue<A> {
    /// This node and its incarnation: the identity every record it queues
    /// starts with.
    origin: NodeId,
    inc: u64,
    last_seq: u64,
    pub(crate) pending: BTreeMap<u64, Sequenced<A>>,
    last_sent: Option<SimTime>,
}

impl<A: Clone> Queue<A> {
    /// Queues `payload` as this origin's next message; true when it is the
    /// head, to be sent at once.
    pub fn push(&mut self, payload: A, trace: Option<TraceContext>) -> bool {
        self.last_seq += 1;
        let (origin, inc, seq) = (self.origin, self.inc, self.last_seq);
        let msg = Sequenced {
            origin,
            inc,
            seq,
            payload,
            trace,
        };
        self.pending.insert(seq, msg);
        self.pending.len() == 1
    }

    /// The head, to be sent.
    pub fn head(&self) -> Option<Sequenced<A>> {
        self.pending.values().next().cloned()
    }

    /// True, once per resend interval, while a head waits: the sequencer
    /// may have changed or the request may have been lost.
    pub fn resend_due(&mut self, now: SimTime) -> bool {
        !self.pending.is_empty() && due(&mut self.last_sent, ORDER_RESEND, now)
    }

    /// When [`resend_due`](Self::resend_due) next turns true.
    pub fn next_deadline(&self, now: SimTime) -> Option<SimTime> {
        (!self.pending.is_empty()).then(|| self.last_sent.map_or(now, |sent| sent + ORDER_RESEND))
    }

    /// The head goes out at the next tick, to whoever sequences now.
    pub fn resend_now(&mut self) {
        self.last_sent = None;
    }

    /// `msg` has a position: if it is one of ours it needs no more
    /// retries.
    pub fn settle(&mut self, msg: &Sequenced<A>) {
        let ours = msg.origin == self.origin && msg.inc == self.inc;
        if ours && self.pending.remove(&msg.seq).is_some() {
            // Head cleared: the next tick sends the next one at once.
            self.resend_now();
        }
    }
}

/// The sequencer's state for the stream it numbers. A coordinator change
/// replaces it whole.
#[derive(Debug)]
pub(crate) struct Sequencer<A> {
    /// The last `gseq` assigned. A node that no longer sequences keeps it:
    /// its heartbeats still advertise it, and a member that has not yet
    /// learnt of the change compares its cursor to it.
    pub(crate) counter: u64,
    /// The ordered messages some member may still need, everything above
    /// `low_water`, oldest first: the last is `counter`'s. A queue that
    /// keeps its buffer, so sequencing allocates nothing once it is warm.
    pub(crate) buffer: VecDeque<Sequenced<A>>,
    /// Per origin, the newest request sequenced in this stream, `(inc,
    /// seq, gseq)`. An origin keeps one request outstanding, so a request
    /// not newer than this is a retry (or a stale copy): it is answered
    /// with the `gseq` it has, never sequenced again.
    assigned: BTreeMap<NodeId, (u64, u64, u64)>,
    /// Per member, a `gseq` it is known to be past — acknowledged on its
    /// heartbeats, or the base it was admitted at. Above the member's real
    /// cursor only until the member asks for replay and is re-based.
    acked: BTreeMap<NodeId, u64>,
    /// The minimum of `acked` over the view; nothing at or below it is
    /// retained.
    pub(crate) low_water: u64,
}

impl<A: Clone> Sequencer<A> {
    /// A stream whose `members` are all past `base`, where it continues.
    pub fn at(base: u64, members: &[NodeId]) -> Self {
        let mut acked = BTreeMap::new();
        acked.extend(members.iter().map(|m| (*m, base)));
        Sequencer {
            counter: base,
            buffer: VecDeque::new(),
            assigned: BTreeMap::new(),
            acked,
            low_water: base,
        }
    }

    /// Gives `msg` its position — a new one, or the one a retry already
    /// has — and announces it: to the view while it is retained, else
    /// (every member is past it, the origin included) to the origin alone,
    /// to stop its retries. Returns a newly sequenced message for this
    /// node to deliver.
    pub fn sequence(
        &mut self,
        net: &mut impl Fabric<GcsWire<A>>,
        me: NodeId,
        view: &View,
        msg: Sequenced<A>,
        metrics: &Metrics,
    ) -> Option<(u64, Sequenced<A>)> {
        let id = (msg.inc, msg.seq);
        let (gseq, fresh) = match self.assigned.get(&msg.origin) {
            Some(&(inc, seq, _)) if id < (inc, seq) => return None, // superseded
            Some(&(inc, seq, gseq)) if id == (inc, seq) => (gseq, false),
            _ => {
                self.counter += 1;
                let gseq = self.counter;
                self.assigned.insert(msg.origin, (msg.inc, msg.seq, gseq));
                self.buffer.push_back(msg.clone());
                self.publish_window(metrics);
                (gseq, true)
            }
        };
        if gseq < self.first_retained() {
            if msg.origin != me {
                net.send(me, msg.origin, GcsWire::Ordered { gseq, msg });
            }
            return None;
        }
        let copy = msg.clone();
        let announce = GcsWire::Ordered { gseq, msg: copy };
        send_all(net, me, &view.members, &announce);
        fresh.then_some((gseq, msg))
    }

    /// The `gseq` of the oldest retained message (`counter + 1` when none
    /// is).
    fn first_retained(&self) -> u64 {
        self.counter + 1 - self.buffer.len() as u64
    }

    /// Notes `member`'s acknowledged cursor.
    pub fn ack(&mut self, member: NodeId, delivered: u64) {
        let acked = self.acked.entry(member).or_insert(0);
        *acked = (*acked).max(delivered);
    }

    /// The stream continues into `view`: the members it admits join at
    /// `stream_base` (taken before the commit, so before any state
    /// transfer the admission triggers), or at the low-water mark if the
    /// stream has already been truncated past that. They learn it when
    /// they first ask for anything older.
    pub fn admit(&mut self, me: NodeId, view: &View, joined: &[NodeId], metrics: &Metrics) {
        self.acked.retain(|m, _| view.contains(*m));
        let base = view.stream_base.max(self.low_water);
        self.acked.extend(joined.iter().map(|j| (*j, base)));
        self.truncate(me, view, metrics);
    }

    /// Forgets every ordered message all of `view`'s other members have
    /// acknowledged (a member not heard from yet holds the mark at 0), in
    /// place: the replay buffer keeps its capacity.
    pub fn truncate(&mut self, me: NodeId, view: &View, metrics: &Metrics) {
        let acked = |m: &NodeId| self.acked.get(m).copied().unwrap_or(0);
        let others = view.members.iter().filter(|m| **m != me);
        let low_water = others.map(acked).min().unwrap_or(self.counter);
        if low_water > self.low_water {
            self.low_water = low_water;
            while !self.buffer.is_empty() && self.first_retained() <= low_water {
                self.buffer.pop_front();
            }
            self.publish_window(metrics);
        }
    }

    /// Publishes the replay window's size and floor. Called at every change
    /// of the window, taking over a stream included, so the gauges read the
    /// sequencer that last changed its window (nodes of one simulated
    /// cluster share a registry; a deposed sequencer stays silent).
    pub fn publish_window(&self, metrics: &Metrics) {
        metrics.order_retained.set(self.buffer.len() as i64);
        metrics.order_low_water.set(self.low_water as i64);
    }

    /// Answers `to`'s replay request: resends the buffer from `from_gseq`.
    /// A request that reaches to or below what the requester is known to be
    /// past is answered with that base instead of with history. It comes
    /// from a node a view change admitted (its base is the view's
    /// `stream_base`, its cursor older), or from a member that restarted
    /// without a view change and asks from 1 — it resumes where its
    /// previous incarnation last acknowledged, a position before its
    /// restart and so before the `Hello` that fetches its state. A node
    /// that is not (yet) a member has no place in the stream at all and is
    /// sent to its head. A member's cursor is never below the low-water
    /// mark, so what a member may ask for is always retained.
    pub fn replay(
        &self,
        net: &mut impl Fabric<GcsWire<A>>,
        me: NodeId,
        view: &View,
        to: NodeId,
        mut from_gseq: u64,
        metrics: &Metrics,
    ) {
        let acked = self.acked.get(&to).copied().unwrap_or(0);
        let base = if view.contains(to) {
            acked
        } else {
            self.counter
        };
        if from_gseq <= base {
            metrics.antientropy_rebased.incr();
            net.send(me, to, GcsWire::OrderedRebase { base });
            from_gseq = base + 1;
        }
        let first = self.first_retained();
        let skipped = from_gseq.saturating_sub(first);
        for (gseq, msg) in (first..).zip(&self.buffer).skip(skipped as usize) {
            metrics.antientropy_replayed.incr();
            let msg = msg.clone();
            net.send(me, to, GcsWire::Ordered { gseq, msg });
        }
    }
}

/// The receiver's cursor in the stream it follows.
#[derive(Debug)]
pub(crate) struct Cursor<A> {
    /// The next `gseq` to deliver.
    pub(crate) expected: u64,
    /// Messages received above `expected`, held until the gap below them
    /// is filled. None is ever held at `expected` itself: delivering
    /// drains the run there.
    pub(crate) ooo: BTreeMap<u64, Sequenced<A>>,
    /// Per origin, the newest `(inc, seq)` delivered, and the `stream_gen`
    /// it was delivered in. An origin keeps one order request outstanding,
    /// so its messages arrive in sequence and anything not newer is a
    /// duplicate.
    delivered_high: BTreeMap<NodeId, (u64, u64, u64)>,
    /// Counts the streams this node has followed. A duplicate of something
    /// delivered in an *earlier* stream is a new sequencer re-ordering a
    /// retried request; in the *same* stream it means the sequencer gave
    /// one message two positions (`gcs.order.resequenced`, never
    /// expected).
    stream_gen: u64,
    /// Set for good the first time the cursor moves other than by
    /// delivering (see `GroupNode::delivered_from_start`).
    pub(crate) rebased: bool,
    last_nack: Option<SimTime>,
}

impl<A> Cursor<A> {
    /// Follows a new stream from just past `base`: a new sequencer's, or
    /// the same sequencer's after it restarted.
    pub fn follow(&mut self, base: u64) {
        self.expected = base + 1;
        self.ooo.clear();
        self.stream_gen += 1;
        self.rebased = true;
    }

    /// Skips the stream up to and including `base` (the sequencer's answer
    /// to a joiner), returning the skipped messages it had held: they are
    /// sequenced, so an origin's own among them needs no more retries.
    pub fn rebase(&mut self, base: u64) -> BTreeMap<u64, Sequenced<A>> {
        self.expected = base + 1;
        self.rebased = true;
        let above = self.ooo.split_off(&(base + 1));
        std::mem::replace(&mut self.ooo, above)
    }

    /// Takes the held message at the cursor, if any.
    pub fn next_held(&mut self) -> Option<(u64, Sequenced<A>)> {
        let msg = self.ooo.remove(&self.expected)?;
        Some((self.expected, msg))
    }

    /// Moves past `gseq`; true unless this node already delivered `msg`'s
    /// identity.
    pub fn advance(&mut self, gseq: u64, msg: &Sequenced<A>, metrics: &Metrics) -> bool {
        // Monotone: a replayed/stale gseq must never pull the cursor back.
        self.expected = self.expected.max(gseq + 1);
        let high = self.delivered_high.entry(msg.origin).or_insert((0, 0, 0));
        if (msg.inc, msg.seq) <= (high.0, high.1) {
            if high.2 == self.stream_gen {
                metrics.order_resequenced.incr();
            }
            return false;
        }
        *high = (msg.inc, msg.seq, self.stream_gen);
        metrics.order_delivered.incr();
        true
    }

    /// True, once per resend interval, when a replay request may go out;
    /// the caller sends it.
    pub fn nack_due(&mut self, now: SimTime) -> bool {
        due(&mut self.last_nack, ORDER_RESEND, now)
    }
}
