//! The wire protocol between group members, plus its versioned byte
//! codec.
//!
//! The simulator moves typed `GcsWire<A>` values directly, but a real
//! deployment (and the codec robustness tests) need a byte format. The
//! codec here is the authoritative frame layout: fixed-width
//! little-endian integers, length-prefixed payload bytes supplied by an
//! application-level encoder, and a **version byte** first.
//!
//! ## Version tolerance
//!
//! * v1 frames carry no trace section; decoding one yields
//!   `trace: None` on the ordering variants.
//! * v2 appends an optional [`TraceContext`] — flag byte then three
//!   `u64`s — to `OrderRequest` and `Ordered`. Old decoders would reject
//!   v2 frames by version byte rather than misparse them; new decoders
//!   accept both, so a mixed-version group keeps ordering (traces simply
//!   degrade to `None` across old links).
//! * v3 (current) appends the ordered-stream acknowledgement — `delivered`
//!   and `stream` — to `Heartbeat` and adds `OrderedRebase`. An older
//!   heartbeat decodes as acknowledging nothing (`0`, `0`), which only
//!   delays the sequencer's truncation.

use crate::View;
use crate::ViewId;
use dosgi_net::NodeId;
use dosgi_telemetry::TraceContext;

/// Messages exchanged by [`GroupNode`](crate::GroupNode)s. Generic over the
/// application payload `A` so upper layers send plain Rust values.
#[derive(Debug, Clone, PartialEq)]
pub enum GcsWire<A> {
    /// "I am alive" — the failure-detector pulse. Carries the sender's
    /// current FIFO head and (when the sender is the sequencer) its ordered
    /// head, so receivers can detect streams they lost entirely
    /// (anti-entropy: a receiver behind either counter nacks even if it
    /// never saw a gap).
    Heartbeat {
        /// The sender's highest assigned FIFO sequence number.
        sent: u64,
        /// The sender's highest assigned global order number (meaningful
        /// only from the current coordinator).
        ordered: u64,
        /// The sender's incarnation (its start time): receivers reset the
        /// sender's FIFO stream when this changes — and only then. A mere
        /// suspicion flap must NOT reset the stream (that would re-deliver
        /// the retransmission buffer).
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
    /// Reliable FIFO application data, sequenced per sender.
    Data {
        /// Per-sender sequence number (1-based, contiguous).
        seq: u64,
        /// The application payload.
        payload: A,
    },
    /// Receiver signals a gap in a sender's stream: "resend from `from_seq`".
    Nack {
        /// First missing sequence number.
        from_seq: u64,
    },
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
    /// A member asks the sequencer (coordinator) to order a message.
    OrderRequest {
        /// The origin's incarnation: ordering identity is
        /// `(origin, incarnation, origin_seq)`, so a restarted origin's
        /// fresh sequence numbers can never collide with its previous
        /// life's in the sequencer's dedupe state.
        incarnation: u64,
        /// The origin's local ordering sequence (for dedupe/retry).
        origin_seq: u64,
        /// The application payload.
        payload: A,
        /// Causal trace context minted by the origin (v2 frames; `None`
        /// on untraced flows and everything decoded from v1).
        trace: Option<TraceContext>,
    },
    /// The sequencer's ordered announcement, carried inside its own
    /// FIFO-reliable stream.
    Ordered {
        /// Global sequence number.
        gseq: u64,
        /// The node that originated the message.
        origin: NodeId,
        /// The origin's incarnation at ordering time.
        origin_inc: u64,
        /// The origin's local ordering sequence.
        origin_seq: u64,
        /// The application payload.
        payload: A,
        /// The origin's causal trace context, forwarded verbatim by the
        /// sequencer so every deliverer links its spans to the origin's.
        trace: Option<TraceContext>,
    },
}

/// Current wire codec version ([`encode_frame`] always emits this).
pub const WIRE_VERSION: u8 = 3;

/// First codec version; frames carry no trace section.
pub const WIRE_VERSION_V1: u8 = 1;

/// First version whose ordering frames carry a trace section.
const WIRE_VERSION_TRACE: u8 = 2;

const TAG_HEARTBEAT: u8 = 0;
const TAG_LEAVE: u8 = 1;
const TAG_VIEW_PROPOSE: u8 = 2;
const TAG_VIEW_ACK: u8 = 3;
const TAG_VIEW_COMMIT: u8 = 4;
const TAG_DATA: u8 = 5;
const TAG_NACK: u8 = 6;
const TAG_ORDERED_REPLAY_REQUEST: u8 = 7;
const TAG_ORDER_REQUEST: u8 = 8;
const TAG_ORDERED: u8 = 9;
const TAG_ORDERED_REBASE: u8 = 10;

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_view_id(out: &mut Vec<u8>, id: ViewId) {
    put_u64(out, id.epoch);
    put_u32(out, id.proposer.0);
}

fn put_view(out: &mut Vec<u8>, view: &View) {
    put_view_id(out, view.id);
    put_u64(out, view.stream_base);
    put_u32(out, view.members.len() as u32);
    for m in &view.members {
        put_u32(out, m.0);
    }
}

fn put_trace(out: &mut Vec<u8>, trace: &Option<TraceContext>) {
    match trace {
        None => out.push(0),
        Some(t) => {
            out.push(1);
            put_u64(out, t.trace_id);
            put_u64(out, t.parent_span);
            put_u64(out, t.lamport);
        }
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn u8(&mut self) -> Option<u8> {
        let b = *self.buf.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    fn u32(&mut self) -> Option<u32> {
        let end = self.pos.checked_add(4)?;
        let bytes = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(u32::from_le_bytes(bytes.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        let end = self.pos.checked_add(8)?;
        let bytes = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(u64::from_le_bytes(bytes.try_into().ok()?))
    }

    fn view_id(&mut self) -> Option<ViewId> {
        Some(ViewId {
            epoch: self.u64()?,
            proposer: NodeId(self.u32()?),
        })
    }

    fn view(&mut self) -> Option<View> {
        let id = self.view_id()?;
        let stream_base = self.u64()?;
        let n = self.u32()? as usize;
        // Cheap sanity bound: a member id is 4 bytes on the wire.
        if n > self.buf.len().saturating_sub(self.pos) / 4 {
            return None;
        }
        let mut members = Vec::with_capacity(n);
        for _ in 0..n {
            members.push(NodeId(self.u32()?));
        }
        Some(View::new(id, members).with_stream_base(stream_base))
    }

    fn bytes(&mut self) -> Option<&'a [u8]> {
        let n = self.u32()? as usize;
        let end = self.pos.checked_add(n)?;
        let bytes = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(bytes)
    }

    fn trace(&mut self, version: u8) -> Option<Option<TraceContext>> {
        if version < WIRE_VERSION_TRACE {
            // v1 frames end right after the payload: no trace section.
            return Some(None);
        }
        match self.u8()? {
            0 => Some(None),
            1 => Some(Some(TraceContext {
                trace_id: self.u64()?,
                parent_span: self.u64()?,
                lamport: self.u64()?,
            })),
            _ => None,
        }
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

impl<A> GcsWire<A> {
    /// Maps the application payload, preserving every other field. Used to
    /// turn a zero-copy [`decode_frame_borrowed`] result into an owned
    /// message once (and only where) ownership is actually needed.
    pub fn map_payload<B>(self, mut f: impl FnMut(A) -> B) -> GcsWire<B> {
        match self {
            GcsWire::Heartbeat {
                sent,
                ordered,
                incarnation,
                view,
                delivered,
                stream,
            } => GcsWire::Heartbeat {
                sent,
                ordered,
                incarnation,
                view,
                delivered,
                stream,
            },
            GcsWire::Leave => GcsWire::Leave,
            GcsWire::ViewPropose(v) => GcsWire::ViewPropose(v),
            GcsWire::ViewAck { id, stream_base } => GcsWire::ViewAck { id, stream_base },
            GcsWire::ViewCommit(v) => GcsWire::ViewCommit(v),
            GcsWire::Data { seq, payload } => GcsWire::Data {
                seq,
                payload: f(payload),
            },
            GcsWire::Nack { from_seq } => GcsWire::Nack { from_seq },
            GcsWire::OrderedReplayRequest { from_gseq } => {
                GcsWire::OrderedReplayRequest { from_gseq }
            }
            GcsWire::OrderedRebase { base } => GcsWire::OrderedRebase { base },
            GcsWire::OrderRequest {
                incarnation,
                origin_seq,
                payload,
                trace,
            } => GcsWire::OrderRequest {
                incarnation,
                origin_seq,
                payload: f(payload),
                trace,
            },
            GcsWire::Ordered {
                gseq,
                origin,
                origin_inc,
                origin_seq,
                payload,
                trace,
            } => GcsWire::Ordered {
                gseq,
                origin,
                origin_inc,
                origin_seq,
                payload: f(payload),
                trace,
            },
        }
    }
}

/// Encode a frame at the current [`WIRE_VERSION`]; `enc` serializes the
/// application payload.
pub fn encode_frame<A>(msg: &GcsWire<A>, enc: impl Fn(&A) -> Vec<u8>) -> Vec<u8> {
    encode_frame_at(WIRE_VERSION, msg, enc)
}

/// Encode a frame at an explicit version (v1 silently drops trace
/// contexts — the format simply has nowhere to put them). Exposed so
/// mixed-version tolerance is testable.
pub fn encode_frame_at<A>(version: u8, msg: &GcsWire<A>, enc: impl Fn(&A) -> Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    encode_frame_into_at(version, &mut out, msg, |a, o| o.extend_from_slice(&enc(a)));
    out
}

/// Encode a frame at the current [`WIRE_VERSION`] by appending to `out` —
/// the allocation-free hot path. `enc_into` writes the application payload
/// directly into the frame buffer; the length prefix is backpatched, so no
/// intermediate payload `Vec` is ever materialized. Callers that clear and
/// reuse `out` (see [`FrameTransport`](crate::FrameTransport)) encode with
/// zero allocations in steady state.
pub fn encode_frame_into<A>(
    out: &mut Vec<u8>,
    msg: &GcsWire<A>,
    enc_into: impl Fn(&A, &mut Vec<u8>),
) {
    encode_frame_into_at(WIRE_VERSION, out, msg, enc_into);
}

/// [`encode_frame_into`] at an explicit version. Produces bytes identical
/// to [`encode_frame_at`] for the same message and payload encoding.
pub fn encode_frame_into_at<A>(
    version: u8,
    out: &mut Vec<u8>,
    msg: &GcsWire<A>,
    enc_into: impl Fn(&A, &mut Vec<u8>),
) {
    // Reserve the 4-byte length prefix, encode the payload in place, then
    // backpatch the actual length — the moral equivalent of `put_bytes`
    // without the temporary.
    fn put_payload<A>(out: &mut Vec<u8>, payload: &A, enc_into: &impl Fn(&A, &mut Vec<u8>)) {
        let len_at = out.len();
        put_u32(out, 0);
        enc_into(payload, out);
        let n = (out.len() - len_at - 4) as u32;
        out[len_at..len_at + 4].copy_from_slice(&n.to_le_bytes());
    }
    out.push(version);
    match msg {
        GcsWire::Heartbeat {
            sent,
            ordered,
            incarnation,
            view,
            delivered,
            stream,
        } => {
            out.push(TAG_HEARTBEAT);
            put_u64(out, *sent);
            put_u64(out, *ordered);
            put_u64(out, *incarnation);
            put_view_id(out, *view);
            if version >= WIRE_VERSION {
                put_u64(out, *delivered);
                put_u64(out, *stream);
            }
        }
        GcsWire::Leave => out.push(TAG_LEAVE),
        GcsWire::ViewPropose(view) => {
            out.push(TAG_VIEW_PROPOSE);
            put_view(out, view);
        }
        GcsWire::ViewAck { id, stream_base } => {
            out.push(TAG_VIEW_ACK);
            put_view_id(out, *id);
            put_u64(out, *stream_base);
        }
        GcsWire::ViewCommit(view) => {
            out.push(TAG_VIEW_COMMIT);
            put_view(out, view);
        }
        GcsWire::Data { seq, payload } => {
            out.push(TAG_DATA);
            put_u64(out, *seq);
            put_payload(out, payload, &enc_into);
        }
        GcsWire::Nack { from_seq } => {
            out.push(TAG_NACK);
            put_u64(out, *from_seq);
        }
        GcsWire::OrderedReplayRequest { from_gseq } => {
            out.push(TAG_ORDERED_REPLAY_REQUEST);
            put_u64(out, *from_gseq);
        }
        GcsWire::OrderedRebase { base } => {
            out.push(TAG_ORDERED_REBASE);
            put_u64(out, *base);
        }
        GcsWire::OrderRequest {
            incarnation,
            origin_seq,
            payload,
            trace,
        } => {
            out.push(TAG_ORDER_REQUEST);
            put_u64(out, *incarnation);
            put_u64(out, *origin_seq);
            put_payload(out, payload, &enc_into);
            if version >= WIRE_VERSION_TRACE {
                put_trace(out, trace);
            }
        }
        GcsWire::Ordered {
            gseq,
            origin,
            origin_inc,
            origin_seq,
            payload,
            trace,
        } => {
            out.push(TAG_ORDERED);
            put_u64(out, *gseq);
            put_u32(out, origin.0);
            put_u64(out, *origin_inc);
            put_u64(out, *origin_seq);
            put_payload(out, payload, &enc_into);
            if version >= WIRE_VERSION_TRACE {
                put_trace(out, trace);
            }
        }
    }
}

/// Decode one frame (v1 to v3); `dec` parses the application payload.
/// Returns `None` on unknown versions/tags, truncation, or trailing
/// garbage.
pub fn decode_frame<A>(bytes: &[u8], dec: impl Fn(&[u8]) -> Option<A>) -> Option<GcsWire<A>> {
    decode_frame_with(bytes, dec)
}

/// Decode one frame with the payload **borrowed from the frame**: the
/// zero-copy hot path. `dec` receives a slice tied to `bytes`' lifetime,
/// so `A` may itself borrow — [`decode_frame_borrowed`] instantiates this
/// with the identity to get a `GcsWire<&[u8]>` without copying a byte.
/// Validation is identical to [`decode_frame`] (same rejection of
/// truncation, trailing garbage, bad versions/tags).
pub fn decode_frame_with<'a, A>(
    bytes: &'a [u8],
    dec: impl Fn(&'a [u8]) -> Option<A>,
) -> Option<GcsWire<A>> {
    let mut r = Reader::new(bytes);
    let version = r.u8()?;
    if version == 0 || version > WIRE_VERSION {
        return None;
    }
    let tag = r.u8()?;
    let msg = match tag {
        TAG_HEARTBEAT => {
            let (sent, ordered, incarnation, view) = (r.u64()?, r.u64()?, r.u64()?, r.view_id()?);
            let (delivered, stream) = if version >= WIRE_VERSION {
                (r.u64()?, r.u64()?)
            } else {
                (0, 0)
            };
            GcsWire::Heartbeat {
                sent,
                ordered,
                incarnation,
                view,
                delivered,
                stream,
            }
        }
        TAG_LEAVE => GcsWire::Leave,
        TAG_VIEW_PROPOSE => GcsWire::ViewPropose(r.view()?),
        TAG_VIEW_ACK => GcsWire::ViewAck {
            id: r.view_id()?,
            stream_base: r.u64()?,
        },
        TAG_VIEW_COMMIT => GcsWire::ViewCommit(r.view()?),
        TAG_DATA => GcsWire::Data {
            seq: r.u64()?,
            payload: dec(r.bytes()?)?,
        },
        TAG_NACK => GcsWire::Nack { from_seq: r.u64()? },
        TAG_ORDERED_REPLAY_REQUEST => GcsWire::OrderedReplayRequest {
            from_gseq: r.u64()?,
        },
        TAG_ORDERED_REBASE => GcsWire::OrderedRebase { base: r.u64()? },
        TAG_ORDER_REQUEST => GcsWire::OrderRequest {
            incarnation: r.u64()?,
            origin_seq: r.u64()?,
            payload: dec(r.bytes()?)?,
            trace: r.trace(version)?,
        },
        TAG_ORDERED => GcsWire::Ordered {
            gseq: r.u64()?,
            origin: NodeId(r.u32()?),
            origin_inc: r.u64()?,
            origin_seq: r.u64()?,
            payload: dec(r.bytes()?)?,
            trace: r.trace(version)?,
        },
        _ => return None,
    };
    r.done().then_some(msg)
}

/// Zero-copy decode: the payload of `Data`/`OrderRequest`/`Ordered` is a
/// slice into `bytes` — no allocation, no copy. Use
/// [`GcsWire::map_payload`] to take ownership when a message must outlive
/// the receive buffer.
pub fn decode_frame_borrowed(bytes: &[u8]) -> Option<GcsWire<&[u8]>> {
    decode_frame_with(bytes, Some)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enc_into(v: &u32, out: &mut Vec<u8>) {
        out.extend_from_slice(&v.to_le_bytes());
    }

    fn enc(v: &u32) -> Vec<u8> {
        let mut out = Vec::with_capacity(4);
        enc_into(v, &mut out);
        out
    }

    fn dec(b: &[u8]) -> Option<u32> {
        Some(u32::from_le_bytes(b.try_into().ok()?))
    }

    fn sample_trace() -> TraceContext {
        TraceContext {
            trace_id: (3 << 40) | 1,
            parent_span: (3 << 40) | 2,
            lamport: 17,
        }
    }

    fn samples() -> Vec<GcsWire<u32>> {
        let view = View::new(
            ViewId {
                epoch: 4,
                proposer: NodeId(2),
            },
            vec![NodeId(2), NodeId(3), NodeId(5)],
        )
        .with_stream_base(9);
        vec![
            GcsWire::Heartbeat {
                sent: 10,
                ordered: 20,
                incarnation: 30,
                view: view.id,
                delivered: 19,
                stream: 31,
            },
            GcsWire::Leave,
            GcsWire::ViewPropose(view.clone()),
            GcsWire::ViewAck {
                id: view.id,
                stream_base: 7,
            },
            GcsWire::ViewCommit(view),
            GcsWire::Data {
                seq: 3,
                payload: 42,
            },
            GcsWire::Nack { from_seq: 2 },
            GcsWire::OrderedReplayRequest { from_gseq: 11 },
            GcsWire::OrderedRebase { base: 10 },
            GcsWire::OrderRequest {
                incarnation: 8,
                origin_seq: 5,
                payload: 77,
                trace: Some(sample_trace()),
            },
            GcsWire::OrderRequest {
                incarnation: 8,
                origin_seq: 6,
                payload: 78,
                trace: None,
            },
            GcsWire::Ordered {
                gseq: 12,
                origin: NodeId(3),
                origin_inc: 8,
                origin_seq: 5,
                payload: 77,
                trace: Some(sample_trace()),
            },
        ]
    }

    #[test]
    fn wire_values_are_cloneable_and_comparable() {
        let m: GcsWire<u32> = GcsWire::Data {
            seq: 1,
            payload: 42,
        };
        assert_eq!(m.clone(), m);
        let hb: GcsWire<u32> = GcsWire::Heartbeat {
            sent: 0,
            ordered: 0,
            incarnation: 1,
            view: ViewId::default(),
            delivered: 0,
            stream: 0,
        };
        assert_ne!(hb, GcsWire::Leave);
    }

    #[test]
    fn codec_round_trips_every_variant() {
        for msg in samples() {
            let bytes = encode_frame(&msg, enc);
            assert_eq!(bytes[0], WIRE_VERSION);
            let back = decode_frame(&bytes, dec).expect("decodes");
            assert_eq!(back, msg, "round trip of {msg:?}");
        }
    }

    #[test]
    fn v1_frames_decode_with_no_trace() {
        // An old sender has no trace section at all; the new decoder
        // must still accept its ordering frames.
        let msg = GcsWire::Ordered {
            gseq: 12,
            origin: NodeId(3),
            origin_inc: 8,
            origin_seq: 5,
            payload: 77u32,
            trace: Some(sample_trace()),
        };
        let old = encode_frame_at(WIRE_VERSION_V1, &msg, enc);
        assert_eq!(old[0], WIRE_VERSION_V1);
        match decode_frame(&old, dec).expect("v1 decodes") {
            GcsWire::Ordered { payload, trace, .. } => {
                assert_eq!(payload, 77);
                assert_eq!(trace, None, "v1 has nowhere to carry the trace");
            }
            other => panic!("wrong variant: {other:?}"),
        }
        // Non-ordering variants are byte-identical across versions bar
        // the version byte.
        let hb: GcsWire<u32> = GcsWire::Nack { from_seq: 2 };
        let v1 = encode_frame_at(WIRE_VERSION_V1, &hb, enc);
        let v2 = encode_frame(&hb, enc);
        assert_eq!(v1[1..], v2[1..]);
        assert_eq!(decode_frame(&v1, dec), decode_frame(&v2, dec));
    }

    #[test]
    fn pre_v3_heartbeats_decode_as_acknowledging_nothing() {
        let hb = samples().remove(0);
        let current = encode_frame(&hb, enc);
        for version in [WIRE_VERSION_V1, WIRE_VERSION_TRACE] {
            let old = encode_frame_at(version, &hb, enc);
            assert_eq!(old.len() + 16, current.len(), "v{version} has no ack");
            match decode_frame(&old, dec).expect("old heartbeat decodes") {
                GcsWire::Heartbeat {
                    sent,
                    ordered,
                    incarnation,
                    delivered,
                    stream,
                    ..
                } => {
                    assert_eq!((sent, ordered, incarnation), (10, 20, 30));
                    assert_eq!((delivered, stream), (0, 0), "v{version}");
                }
                other => panic!("wrong variant: {other:?}"),
            }
        }
    }

    #[test]
    fn truncation_and_garbage_are_rejected() {
        for msg in samples() {
            let bytes = encode_frame(&msg, enc);
            for cut in 0..bytes.len() {
                assert_eq!(
                    decode_frame(&bytes[..cut], dec),
                    None,
                    "truncated {msg:?} at {cut}"
                );
            }
            let mut padded = bytes.clone();
            padded.push(0);
            assert_eq!(decode_frame(&padded, dec), None, "trailing byte accepted");
        }
        assert_eq!(decode_frame(&[], dec), None);
        assert_eq!(decode_frame(&[0, TAG_LEAVE], dec), None, "version 0");
        assert_eq!(
            decode_frame(&[WIRE_VERSION + 1, TAG_LEAVE], dec),
            None,
            "future version"
        );
        assert_eq!(decode_frame(&[WIRE_VERSION, 99], dec), None, "bad tag");
    }

    #[test]
    fn encode_into_matches_owning_encode_and_reuses_the_buffer() {
        let mut scratch = Vec::new();
        for version in [WIRE_VERSION_V1, WIRE_VERSION_TRACE, WIRE_VERSION] {
            for msg in samples() {
                let owned = encode_frame_at(version, &msg, enc);
                scratch.clear();
                encode_frame_into_at(version, &mut scratch, &msg, enc_into);
                assert_eq!(scratch, owned, "v{version} {msg:?}");
            }
        }
        // The default-version entry point agrees too.
        let msg = GcsWire::Data {
            seq: 3,
            payload: 42u32,
        };
        scratch.clear();
        encode_frame_into(&mut scratch, &msg, enc_into);
        assert_eq!(scratch, encode_frame(&msg, enc));
    }

    #[test]
    fn borrowed_decode_points_into_the_frame() {
        let msg = GcsWire::Ordered {
            gseq: 12,
            origin: NodeId(3),
            origin_inc: 8,
            origin_seq: 5,
            payload: 0xDEAD_BEEFu32,
            trace: Some(sample_trace()),
        };
        let bytes = encode_frame(&msg, enc);
        let borrowed = decode_frame_borrowed(&bytes).expect("decodes");
        match &borrowed {
            GcsWire::Ordered { payload, .. } => {
                // The payload slice is literally inside the frame buffer.
                let frame = bytes.as_ptr() as usize;
                let p = payload.as_ptr() as usize;
                assert!(p >= frame && p + payload.len() <= frame + bytes.len());
                assert_eq!(*payload, 0xDEAD_BEEFu32.to_le_bytes());
            }
            other => panic!("wrong variant: {other:?}"),
        }
        // map_payload takes ownership and reproduces the typed message.
        let owned = borrowed.map_payload(|b| dec(b).unwrap());
        assert_eq!(owned, msg);
    }

    /// The zero-copy decoder must agree with the owning decoder on every
    /// input — valid frames, truncations, and bit flips alike. 200 cases.
    #[test]
    fn prop_borrowed_decode_equals_owning_decode() {
        use dosgi_testkit::prop;

        // Arbitrary mutation recipe over an arbitrary sample frame:
        // (sample index, version, cut length, flip position, flip mask).
        let gen = prop::u64s(0, u64::MAX);
        let cfg = prop::Config::with_cases(200);
        prop::check_with(&cfg, "borrowed_decode_equals_owning", &gen, |&raw| {
            let all = samples();
            let msg = &all[(raw % all.len() as u64) as usize];
            let version =
                [WIRE_VERSION, WIRE_VERSION_V1, WIRE_VERSION_TRACE][(raw >> 40) as usize % 3];
            let mut bytes = encode_frame_at(version, msg, enc);
            // Maybe truncate, maybe flip a bit — driven by the raw seed.
            let cut = ((raw >> 8) % (bytes.len() as u64 + 1)) as usize;
            bytes.truncate(cut.max(1));
            if raw >> 16 & 1 == 1 {
                let at = ((raw >> 24) % bytes.len() as u64) as usize;
                bytes[at] ^= 1 << ((raw >> 32) % 8);
            }
            let owning = decode_frame(&bytes, dec);
            // Map the borrowed result through the same payload decoder;
            // a payload `dec` rejects must reject the whole frame, exactly
            // as the owning path does.
            let via_borrowed = match decode_frame_borrowed(&bytes) {
                None => None,
                Some(m) => {
                    let mut ok = true;
                    let mapped = m.map_payload(|b| match dec(b) {
                        Some(v) => v,
                        None => {
                            ok = false;
                            0
                        }
                    });
                    ok.then_some(mapped)
                }
            };
            if owning != via_borrowed {
                return Err(format!(
                    "owning {owning:?} != borrowed {via_borrowed:?} on {bytes:?}"
                ));
            }
            // When the frame is accepted, the borrowed payload bytes
            // re-encode to exactly the input (the codec is canonical).
            if owning.is_some() {
                let raw_payload = decode_frame_borrowed(&bytes)
                    .expect("accepted above")
                    .map_payload(|b| b.to_vec());
                let reenc = encode_frame_at(bytes[0], &raw_payload, |p: &Vec<u8>| p.clone());
                if reenc != bytes {
                    return Err(format!("re-encode mismatch on {bytes:?}"));
                }
            }
            Ok(())
        });
    }

    #[test]
    fn bogus_member_count_is_rejected_without_allocation() {
        let view = View::new(ViewId::default(), vec![NodeId(0)]);
        let mut bytes = encode_frame(&GcsWire::<u32>::ViewCommit(view), enc);
        // Patch the member count (after version+tag+epoch+proposer+base)
        // to a huge value; the decoder must bail on the sanity bound.
        let count_at = 1 + 1 + 8 + 4 + 8;
        bytes[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_frame(&bytes, dec), None);
    }
}
