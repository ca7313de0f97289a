//! Transport abstraction: how a group node's messages reach the network.
//!
//! `GroupNode` is transport-agnostic so the cluster layer can multiplex GCS
//! traffic with its own messages over one fabric. [`FabricTransport`]
//! adapts *any* [`Fabric`](dosgi_net::Fabric) backend — the deterministic
//! [`SimNet`](dosgi_net::SimNet) or a real-clock
//! [`RealEndpoint`](dosgi_net::RealEndpoint) — whose payload type *is* the
//! GCS wire type. [`SimTransport`] is the historical name for the sim
//! special case and remains as an alias-shaped wrapper for this crate's own
//! tests.

use crate::GcsWire;
use dosgi_net::{Fabric, NodeId, SimNet};

/// The sending half a [`GroupNode`](crate::GroupNode) needs.
pub trait Transport<A> {
    /// Sends `msg` to `to`.
    fn send(&mut self, to: NodeId, msg: GcsWire<A>);

    /// Sends `msg` to every node in `to` except `skip` (the local node).
    ///
    /// The default clones per recipient — identical behavior to a manual
    /// loop, so deterministic backends are unaffected. Byte transports
    /// override it to serialize **once** per broadcast instead of cloning
    /// and re-encoding the message (a `ViewPropose` used to clone its
    /// whole member list per recipient).
    fn send_all(&mut self, to: &[NodeId], skip: NodeId, msg: &GcsWire<A>)
    where
        A: Clone,
    {
        for &n in to {
            if n != skip {
                self.send(n, msg.clone());
            }
        }
    }
}

/// Adapts one node's view of a [`Fabric`] as its GCS transport.
#[derive(Debug)]
pub struct FabricTransport<'a, N> {
    net: &'a mut N,
    from: NodeId,
}

impl<'a, N> FabricTransport<'a, N> {
    /// Wraps `net` for messages sent by `from`.
    pub fn new(net: &'a mut N, from: NodeId) -> Self {
        FabricTransport { net, from }
    }
}

impl<'a, A, N: Fabric<GcsWire<A>>> Transport<A> for FabricTransport<'a, N> {
    fn send(&mut self, to: NodeId, msg: GcsWire<A>) {
        self.net.send(self.from, to, msg);
    }
}

/// Adapts a `SimNet<GcsWire<A>>` as the transport of one node — the
/// [`FabricTransport`] special case predating the fabric trait.
#[derive(Debug)]
pub struct SimTransport<'a, A> {
    net: &'a mut SimNet<GcsWire<A>>,
    from: NodeId,
}

impl<'a, A> SimTransport<'a, A> {
    /// Wraps `net` for messages sent by `from`.
    pub fn new(net: &'a mut SimNet<GcsWire<A>>, from: NodeId) -> Self {
        SimTransport { net, from }
    }
}

impl<'a, A> Transport<A> for SimTransport<'a, A> {
    fn send(&mut self, to: NodeId, msg: GcsWire<A>) {
        self.net.send(self.from, to, msg);
    }
}

impl<A, F> Transport<A> for F
where
    F: FnMut(NodeId, GcsWire<A>),
{
    fn send(&mut self, to: NodeId, msg: GcsWire<A>) {
        self(to, msg);
    }
}

/// Adapts a byte-frame sink as a transport: every message is serialized
/// with the versioned wire codec before it leaves the node — the shape a
/// real (non-simulated) deployment uses, and what the interop tests drive
/// to prove old and new frame versions coexist.
///
/// Serialization goes through
/// [`encode_frame_into`](crate::wire::encode_frame_into) with a
/// per-connection scratch buffer: after warm-up a send performs **zero
/// allocations** (the payload is encoded in place behind a backpatched
/// length prefix), and a [`send_all`](Transport::send_all) broadcast
/// encodes once for all recipients.
pub struct FrameTransport<S, E> {
    sink: S,
    enc: E,
    scratch: Vec<u8>,
}

impl<S, E> FrameTransport<S, E> {
    /// Wraps `sink` (called with `(to, frame_bytes)`) using `enc` to
    /// serialize application payloads directly into the frame buffer.
    pub fn new(sink: S, enc: E) -> Self {
        FrameTransport {
            sink,
            enc,
            scratch: Vec::with_capacity(64),
        }
    }
}

impl<A, S, E> Transport<A> for FrameTransport<S, E>
where
    S: FnMut(NodeId, &[u8]),
    E: Fn(&A, &mut Vec<u8>),
{
    fn send(&mut self, to: NodeId, msg: GcsWire<A>) {
        self.scratch.clear();
        crate::wire::encode_frame_into(&mut self.scratch, &msg, &self.enc);
        (self.sink)(to, &self.scratch);
    }

    fn send_all(&mut self, to: &[NodeId], skip: NodeId, msg: &GcsWire<A>)
    where
        A: Clone,
    {
        self.scratch.clear();
        crate::wire::encode_frame_into(&mut self.scratch, msg, &self.enc);
        for &n in to {
            if n != skip {
                (self.sink)(n, &self.scratch);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosgi_net::{LinkConfig, SimDuration};

    #[test]
    fn sim_transport_routes_through_the_net() {
        let mut net: SimNet<GcsWire<u32>> = SimNet::new(LinkConfig::ideal(), 1);
        let a = net.register_node();
        let b = net.register_node();
        SimTransport::new(&mut net, a).send(
            b,
            GcsWire::Heartbeat {
                sent: 0,
                ordered: 0,
                incarnation: 1,
                view: crate::ViewId::default(),
                delivered: 0,
                stream: 0,
            },
        );
        net.advance(SimDuration::from_millis(1));
        assert_eq!(
            net.recv(b).unwrap().payload,
            GcsWire::Heartbeat {
                sent: 0,
                ordered: 0,
                incarnation: 1,
                view: crate::ViewId::default(),
                delivered: 0,
                stream: 0,
            }
        );
    }

    #[test]
    fn fabric_transport_works_on_any_backend() {
        // Sim backend.
        let mut net: SimNet<GcsWire<u32>> = SimNet::new(LinkConfig::ideal(), 1);
        let a = net.register_node();
        let b = net.register_node();
        FabricTransport::new(&mut net, a).send(b, GcsWire::Leave);
        net.advance(SimDuration::from_millis(1));
        assert_eq!(net.recv(b).unwrap().payload, GcsWire::<u32>::Leave);

        // Real backend.
        let mut rt: dosgi_net::RealNet<GcsWire<u32>> = dosgi_net::RealNet::new();
        let ra = rt.register_node();
        let rb = rt.register_node();
        let mut ea = rt.endpoint(ra);
        let mut eb = rt.endpoint(rb);
        FabricTransport::new(&mut ea, ra).send(rb, GcsWire::Nack { from_seq: 4 });
        let got = Fabric::drain(&mut eb, rb);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].payload, GcsWire::Nack { from_seq: 4 });
        assert_eq!(got[0].from, ra);
    }

    #[test]
    fn closures_are_transports() {
        let mut sent = Vec::new();
        {
            let mut t = |to: NodeId, msg: GcsWire<u32>| sent.push((to, msg));
            Transport::send(&mut t, NodeId(3), GcsWire::Leave);
        }
        assert_eq!(sent, vec![(NodeId(3), GcsWire::Leave)]);
    }

    #[test]
    fn send_all_skips_self_and_frame_transport_encodes_once() {
        let view = crate::View::new(
            crate::ViewId::default(),
            vec![NodeId(0), NodeId(1), NodeId(2)],
        );
        let msg: GcsWire<u32> = GcsWire::ViewPropose(view);
        // Default impl: one clone per recipient, self excluded.
        let mut sent = Vec::new();
        {
            let mut t = |to: NodeId, m: GcsWire<u32>| sent.push((to, m));
            t.send_all(&[NodeId(0), NodeId(1), NodeId(2)], NodeId(1), &msg);
        }
        assert_eq!(sent.len(), 2);
        assert_eq!(sent[0].0, NodeId(0));
        assert_eq!(sent[1].0, NodeId(2));
        // Frame transport: every recipient gets byte-identical frames, and
        // they decode back to the message.
        let mut frames: Vec<(NodeId, Vec<u8>)> = Vec::new();
        {
            let mut t = FrameTransport::new(
                |to: NodeId, f: &[u8]| frames.push((to, f.to_vec())),
                |v: &u32, out: &mut Vec<u8>| out.extend_from_slice(&v.to_le_bytes()),
            );
            t.send_all(&[NodeId(0), NodeId(1), NodeId(2)], NodeId(1), &msg);
        }
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].1, frames[1].1);
        let back = crate::wire::decode_frame(&frames[0].1, |b: &[u8]| {
            Some(u32::from_le_bytes(b.try_into().ok()?))
        })
        .unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn group_nodes_interoperate_over_byte_frames() {
        use crate::wire::{decode_frame, encode_frame_at, WIRE_VERSION_V1};
        use crate::{GcsConfig, GcsEvent, GroupNode};
        use dosgi_net::SimTime;
        use dosgi_telemetry::TraceContext;

        fn enc(v: &u32, out: &mut Vec<u8>) {
            out.extend_from_slice(&v.to_le_bytes());
        }
        fn enc_owned(v: &u32) -> Vec<u8> {
            v.to_le_bytes().to_vec()
        }
        fn dec(b: &[u8]) -> Option<u32> {
            Some(u32::from_le_bytes(b.try_into().ok()?))
        }

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
        // Node 1 (non-coordinator) orders one traced message: it travels
        // OrderRequest -> sequencer -> Ordered, serialized to bytes on
        // every hop. A second traced message queues behind it (per-origin
        // FIFO) and is released by the tick timer — which we route over a
        // *v1-downgrading* link below, proving a legacy hop still orders
        // while the trace degrades to None.
        let mut mail: Vec<(NodeId, Vec<u8>)> = Vec::new();
        {
            let mut t =
                FrameTransport::new(|to: NodeId, f: &[u8]| mail.push((to, f.to_vec())), enc);
            nodes[1].order_traced(&mut t, 7, Some(ctx));
            nodes[1].order_traced(&mut t, 8, Some(ctx));
        }
        let mut pending: Vec<(NodeId, Vec<u8>)> = mail;
        for round in 0..20 {
            if pending.is_empty() {
                break;
            }
            let mut next: Vec<(NodeId, Vec<u8>)> = Vec::new();
            for (to, frame) in pending.drain(..) {
                let msg = decode_frame(&frame, dec).expect("frame decodes");
                let mut t =
                    FrameTransport::new(|to: NodeId, f: &[u8]| next.push((to, f.to_vec())), enc);
                let from = if to == NodeId(0) {
                    NodeId(1)
                } else {
                    NodeId(0)
                };
                nodes[to.0 as usize].handle(&mut t, from, msg, SimTime::ZERO);
            }
            // Node 1's periodic traffic (heartbeats + the queued order's
            // dispatch once the head clears) leaves over a legacy link:
            // every frame is re-encoded at v1.
            let mut t = FrameTransport::new(
                |to: NodeId, f: &[u8]| {
                    let typed = decode_frame(f, dec).expect("self-decode");
                    next.push((to, encode_frame_at(WIRE_VERSION_V1, &typed, enc_owned)));
                },
                enc,
            );
            nodes[1].tick(&mut t, SimTime::ZERO);
            pending = next;
            assert!(round < 19, "byte-frame exchange did not quiesce");
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
                vec![(7, Some(ctx)), (8, None)],
                "node {i}: traced v2 hop keeps the context, v1 hop drops it"
            );
        }
    }
}
