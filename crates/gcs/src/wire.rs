//! The wire protocol between group members, plus its byte codec.
//!
//! Every [`Fabric`](dosgi_net::Fabric) in this workspace moves typed
//! `GcsWire<A>` values directly; the codec here is the authoritative frame
//! layout for one that carries bytes: a **version byte** first, fixed-width
//! little-endian integers, length-prefixed payload bytes supplied by an
//! application-level encoder. There is one version, [`WIRE_VERSION`] — no
//! older peer has ever existed — and a frame at any other is rejected. The
//! layout is pinned by the golden frames in this module's tests.

use crate::View;
use crate::ViewId;
use dosgi_net::NodeId;
use dosgi_telemetry::TraceContext;

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
        /// Causal trace context minted by the origin (`None` on untraced
        /// flows).
        trace: Option<TraceContext>,
    },
    /// The sequencer's ordered announcement, sent point to point to each
    /// member. A lost copy shows as a gap or as a heartbeat's head past
    /// the receiver's cursor, and is replayed on request.
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

/// The wire codec version: [`encode_frame`] emits it, [`decode_frame`]
/// accepts nothing else.
pub const WIRE_VERSION: u8 = 4;

// Tags 5 and 6 carried a reliable-FIFO broadcast that version 4 dropped.
const TAG_HEARTBEAT: u8 = 0;
const TAG_LEAVE: u8 = 1;
const TAG_VIEW_PROPOSE: u8 = 2;
const TAG_VIEW_ACK: u8 = 3;
const TAG_VIEW_COMMIT: u8 = 4;
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
        // A view's members are sorted and distinct; `View::new` would quietly
        // repair a list that is not, and the frame would no longer be the
        // one encoding of what it decodes to.
        if !members.windows(2).all(|w| w[0] < w[1]) {
            return None;
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

    fn trace(&mut self) -> Option<Option<TraceContext>> {
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

/// Appends one frame to `out`. `enc_into` writes the application payload
/// directly into the frame buffer; the length prefix is backpatched, so no
/// intermediate payload `Vec` is materialized, and a caller that clears and
/// reuses `out` encodes without allocating in steady state.
pub fn encode_frame<A>(out: &mut Vec<u8>, msg: &GcsWire<A>, enc_into: impl Fn(&A, &mut Vec<u8>)) {
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
    out.push(WIRE_VERSION);
    match msg {
        GcsWire::Heartbeat {
            ordered,
            incarnation,
            view,
            delivered,
            stream,
        } => {
            out.push(TAG_HEARTBEAT);
            put_u64(out, *ordered);
            put_u64(out, *incarnation);
            put_view_id(out, *view);
            put_u64(out, *delivered);
            put_u64(out, *stream);
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
            put_trace(out, trace);
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
            put_trace(out, trace);
        }
    }
}

/// Decodes one frame; `dec` parses the application payload. Returns `None`
/// on any version but [`WIRE_VERSION`], an unknown tag, truncation or
/// trailing bytes. `dec` receives a slice tied to `bytes`' lifetime, so `A`
/// may itself borrow: `decode_frame(bytes, Some)` yields a `GcsWire<&[u8]>`
/// whose payload points into the frame, without copying a byte.
pub fn decode_frame<'a, A>(
    bytes: &'a [u8],
    dec: impl Fn(&'a [u8]) -> Option<A>,
) -> Option<GcsWire<A>> {
    let mut r = Reader::new(bytes);
    if r.u8()? != WIRE_VERSION {
        return None;
    }
    let tag = r.u8()?;
    let msg = match tag {
        TAG_HEARTBEAT => GcsWire::Heartbeat {
            ordered: r.u64()?,
            incarnation: r.u64()?,
            view: r.view_id()?,
            delivered: r.u64()?,
            stream: r.u64()?,
        },
        TAG_LEAVE => GcsWire::Leave,
        TAG_VIEW_PROPOSE => GcsWire::ViewPropose(r.view()?),
        TAG_VIEW_ACK => GcsWire::ViewAck {
            id: r.view_id()?,
            stream_base: r.u64()?,
        },
        TAG_VIEW_COMMIT => GcsWire::ViewCommit(r.view()?),
        TAG_ORDERED_REPLAY_REQUEST => GcsWire::OrderedReplayRequest {
            from_gseq: r.u64()?,
        },
        TAG_ORDERED_REBASE => GcsWire::OrderedRebase { base: r.u64()? },
        TAG_ORDER_REQUEST => GcsWire::OrderRequest {
            incarnation: r.u64()?,
            origin_seq: r.u64()?,
            payload: dec(r.bytes()?)?,
            trace: r.trace()?,
        },
        TAG_ORDERED => GcsWire::Ordered {
            gseq: r.u64()?,
            origin: NodeId(r.u32()?),
            origin_inc: r.u64()?,
            origin_seq: r.u64()?,
            payload: dec(r.bytes()?)?,
            trace: r.trace()?,
        },
        _ => return None,
    };
    r.done().then_some(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosgi_net::{Envelope, Fabric, SimTime};

    fn enc_into(v: &u32, out: &mut Vec<u8>) {
        out.extend_from_slice(&v.to_le_bytes());
    }

    fn dec(b: &[u8]) -> Option<u32> {
        Some(u32::from_le_bytes(b.try_into().ok()?))
    }

    fn frame(msg: &GcsWire<u32>) -> Vec<u8> {
        let mut out = Vec::new();
        encode_frame(&mut out, msg, enc_into);
        out
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

    /// The frame layout as a contract: [`samples`], one frame each, at
    /// [`WIRE_VERSION`]. A layout change is a reviewed edit of these
    /// literals (and a version bump).
    const GOLDEN: [&str; 10] = [
        "040014000000000000001e0000000000000004000000000000000200000013000000000000001f00000000000000",
        "0401",
        "0402040000000000000002000000090000000000000003000000020000000300000005000000",
        "04030400000000000000020000000700000000000000",
        "0404040000000000000002000000090000000000000003000000020000000300000005000000",
        "04070b00000000000000",
        "040a0a00000000000000",
        "040808000000000000000500000000000000040000004d00000001010000000003000002000000000300001100000000000000",
        "040808000000000000000600000000000000040000004e00000000",
        "04090c000000000000000300000008000000000000000500000000000000040000004d00000001010000000003000002000000000300001100000000000000",
    ];

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn wire_values_are_cloneable_and_comparable() {
        let m: GcsWire<u32> = GcsWire::OrderRequest {
            incarnation: 1,
            origin_seq: 1,
            payload: 42,
            trace: None,
        };
        assert_eq!(m.clone(), m);
        let hb: GcsWire<u32> = GcsWire::Heartbeat {
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
            let bytes = frame(&msg);
            assert_eq!(bytes[0], WIRE_VERSION);
            let back = decode_frame(&bytes, dec).expect("decodes");
            assert_eq!(back, msg, "round trip of {msg:?}");
        }
    }

    #[test]
    fn golden_frames_pin_the_layout() {
        let all = samples();
        assert_eq!(all.len(), GOLDEN.len());
        // One buffer for every frame: the encoder appends, it never clears.
        let mut out = Vec::new();
        for (msg, golden) in all.iter().zip(GOLDEN) {
            let start = out.len();
            encode_frame(&mut out, msg, enc_into);
            assert_eq!(hex(&out[start..]), golden, "layout of {msg:?}");
            assert_eq!(decode_frame(&out[start..], dec).as_ref(), Some(msg));
        }
        assert_eq!(hex(&out), GOLDEN.concat());
    }

    #[test]
    fn truncation_and_garbage_are_rejected() {
        for msg in samples() {
            let bytes = frame(&msg);
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
    fn frames_at_any_other_version_are_rejected() {
        // Versions 1 to 3 were once decodable; no peer ever spoke them.
        for msg in samples() {
            let mut bytes = frame(&msg);
            for version in (0..=u8::MAX).filter(|&v| v != WIRE_VERSION) {
                bytes[0] = version;
                assert_eq!(decode_frame(&bytes, dec), None, "v{version} {msg:?}");
            }
        }
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
        let bytes = frame(&msg);
        match decode_frame(&bytes, Some).expect("decodes") {
            GcsWire::Ordered { payload, .. } => {
                // The payload slice is literally inside the frame buffer.
                let frame = bytes.as_ptr() as usize;
                let p = payload.as_ptr() as usize;
                assert!(p >= frame && p + payload.len() <= frame + bytes.len());
                assert_eq!(payload, 0xDEAD_BEEFu32.to_le_bytes());
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    /// Untrusted bytes never panic the decoder, and the codec is canonical:
    /// every single-bit flip of every sample frame, alone and after every
    /// truncation — whatever is still accepted re-encodes to exactly the
    /// input bytes. Exhaustive; the frames are under 100 bytes each.
    #[test]
    fn every_bit_flip_of_every_truncation_is_rejected_or_canonical() {
        let mut decoded = 0u32;
        let mut reenc = Vec::new();
        for msg in samples() {
            let full = frame(&msg);
            assert!(full.len() < 100);
            for cut in 1..=full.len() {
                let mut bytes = full[..cut].to_vec();
                for bit in 0..cut * 8 {
                    bytes[bit / 8] ^= 1 << (bit % 8);
                    // Raw payload bytes, so a rejection is the frame's own.
                    if let Some(back) = decode_frame(&bytes, Some) {
                        decoded += 1;
                        reenc.clear();
                        encode_frame(&mut reenc, &back, |p, out| out.extend_from_slice(p));
                        assert_eq!(reenc, bytes, "{back:?} is not canonical");
                    }
                    bytes[bit / 8] ^= 1 << (bit % 8);
                }
            }
        }
        assert!(decoded > 1_000, "flips in integer fields still decode");
    }

    #[test]
    fn bogus_member_count_is_rejected_without_allocation() {
        let view = View::new(ViewId::default(), vec![NodeId(0)]);
        let mut bytes = frame(&GcsWire::ViewCommit(view));
        // Patch the member count (after version+tag+epoch+proposer+base)
        // to a huge value; the decoder must bail on the sanity bound.
        let count_at = 1 + 1 + 8 + 4 + 8;
        bytes[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_frame(&bytes, dec), None);
    }

    /// A fabric that carries bytes: a frame is encoded on `send` and decoded
    /// on `drain` — the codec pair is all a byte-carrying backend adds.
    #[derive(Default)]
    struct ByteNet {
        mail: Vec<(NodeId, NodeId, Vec<u8>)>,
    }

    impl Fabric<GcsWire<u32>> for ByteNet {
        fn now(&self) -> SimTime {
            SimTime::ZERO
        }

        fn send(&mut self, from: NodeId, to: NodeId, msg: GcsWire<u32>) {
            self.mail.push((from, to, frame(&msg)));
        }

        fn drain(&mut self, node: NodeId, into: &mut Vec<Envelope<GcsWire<u32>>>) {
            let (mine, rest): (Vec<_>, Vec<_>) = std::mem::take(&mut self.mail)
                .into_iter()
                .partition(|(_, to, _)| *to == node);
            self.mail = rest;
            into.extend(mine.into_iter().map(|(from, to, bytes)| Envelope {
                from,
                to,
                sent_at: SimTime::ZERO,
                delivered_at: SimTime::ZERO,
                payload: decode_frame(&bytes, dec).expect("frame decodes"),
            }));
        }
    }

    #[test]
    fn group_nodes_interoperate_over_byte_frames() {
        use crate::{GcsConfig, GcsEvent, GroupNode};

        let ids = vec![NodeId(0), NodeId(1)];
        let mut nodes = [
            GroupNode::<u32>::new(NodeId(0), ids.clone(), GcsConfig::lan(), SimTime::ZERO),
            GroupNode::<u32>::new(NodeId(1), ids, GcsConfig::lan(), SimTime::ZERO),
        ];
        let ctx = TraceContext {
            trace_id: 1 << 40,
            parent_span: (1 << 40) | 3,
            lamport: 9,
        };
        // Node 1 (non-coordinator) orders two traced messages: the first
        // travels OrderRequest -> sequencer -> Ordered, serialized to bytes
        // on every hop; the second queues behind it (per-origin FIFO) and is
        // released by node 1's tick once the head clears.
        let mut net = ByteNet::default();
        nodes[1].order_traced(&mut net, 7, Some(ctx));
        nodes[1].order_traced(&mut net, 8, Some(ctx));
        for round in 0.. {
            if net.mail.is_empty() {
                break;
            }
            assert!(round < 20, "byte-frame exchange did not quiesce");
            for node in &mut nodes {
                let mut inbox = Vec::new();
                net.drain(node.id(), &mut inbox);
                for env in inbox {
                    node.handle(&mut net, env.from, env.payload, SimTime::ZERO);
                }
            }
            nodes[1].tick(&mut net, SimTime::ZERO);
        }
        for (i, node) in nodes.iter_mut().enumerate() {
            let ordered: Vec<(u32, Option<TraceContext>)> = node
                .take_events()
                .into_iter()
                .filter_map(|e| match e {
                    GcsEvent::OrderedDeliver { payload, trace, .. } => Some((payload, trace)),
                    _ => None,
                })
                .collect();
            assert_eq!(
                ordered,
                vec![(7, Some(ctx)), (8, Some(ctx))],
                "node {i}: order and trace context survive the byte hops"
            );
        }
    }
}
