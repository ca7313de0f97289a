//! The wire protocol between group members.
//!
//! Every [`Fabric`](dosgi_net::Fabric) in this workspace moves typed
//! `GcsWire<A>` values directly; no fabric carries bytes, so there is no
//! frame codec.

use crate::{Sequenced, View, ViewId};

/// Messages exchanged by [`GroupNode`](crate::GroupNode)s. Generic over the
/// application payload `A` so upper layers send plain Rust values.
#[derive(Debug, Clone, PartialEq)]
pub enum GcsWire<A> {
    /// "I am alive" — the failure-detector pulse. Carries the sender's
    /// ordered head, so a member behind the sequencer's head asks for
    /// replay even if it never saw a gap (anti-entropy), and the sender's
    /// cursor in its coordinator's stream, which acknowledges it.
    Heartbeat {
        /// The sender's highest assigned global order number (meaningful
        /// only from the current coordinator).
        ordered: u64,
        /// The sender's incarnation (its start time). A change tells a
        /// genuine restart from a suspicion flap: when the current
        /// sequencer's changes, its stream begins again at 1 and receivers
        /// reset their cursor in it.
        incarnation: u64,
        /// The sender's current view id. View commits are fire-and-forget;
        /// a member advertising an older id than the receiver's missed one
        /// and is re-sent the current view (view anti-entropy).
        view: ViewId,
        /// The sender's delivered cursor in its coordinator's ordered
        /// stream: every `gseq` up to and including this one has been
        /// delivered (or skipped by a re-base). The sequencer forgets what
        /// every member has acknowledged.
        delivered: u64,
        /// The coordinator incarnation `delivered` refers to, as the sender
        /// knows it (0 before it has heard the coordinator). A restarted
        /// sequencer numbers a new stream from 1; this keeps a position in
        /// its previous life's stream from acknowledging the new one.
        stream: u64,
    },
    /// "I am leaving gracefully" — peers exclude the sender immediately
    /// instead of waiting for suspicion (the paper's normal-shutdown path).
    Leave,
    /// Coordinator proposes a new view.
    ViewPropose(View),
    /// A member acknowledges a proposal.
    ViewAck {
        /// The proposal being acknowledged.
        id: ViewId,
        /// If the acker is the proposed view's coordinator *and* its
        /// current stream continues (it already sequences its own view),
        /// its current ordered-stream position; 0 otherwise. The proposer
        /// cannot know this — it may propose a view coordinated by someone
        /// else — so the coordinator-elect reports it and the proposer
        /// patches it into the committed view's `stream_base`.
        stream_base: u64,
    },
    /// Coordinator commits an acknowledged view.
    ViewCommit(View),
    /// A lagging member asks the sequencer to replay its ordered stream
    /// from `from_gseq`.
    OrderedReplayRequest {
        /// First missing global sequence number.
        from_gseq: u64,
    },
    /// The sequencer's answer to a replay request from a joiner — a node
    /// admitted by a view change, a restarted member, a node that is not a
    /// member at all: where the stream begins for it. Nothing at or below
    /// `base` will be delivered; that span is covered by application-level
    /// state transfer.
    OrderedRebase {
        /// The last global sequence number the receiver must skip.
        base: u64,
    },
    /// A member asks the sequencer (coordinator) to order a message: the
    /// head of its queue. A request whose `origin` is not its sender is
    /// dropped.
    OrderRequest(Sequenced<A>),
    /// The sequencer's ordered announcement, sent point to point to each
    /// member. A lost copy shows as a gap or as a heartbeat's head past
    /// the receiver's cursor, and is replayed on request.
    Ordered {
        /// Global sequence number.
        gseq: u64,
        /// The message, as its origin queued it.
        msg: Sequenced<A>,
    },
}
