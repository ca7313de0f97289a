//! The real-clock, really-concurrent runtime backend.
//!
//! [`RealNet`] wires N nodes together with plain `std::sync::mpsc`
//! channels — zero dependencies, one channel per node. After registering
//! every node, the builder is split into per-node [`RealEndpoint`] handles;
//! each endpoint owns its node's receiver plus a sender to every peer and
//! is `Send`, so one `std::thread` per node runs genuinely in parallel.
//! Time comes from a shared [`RealClock`], so timestamps across threads are
//! mutually comparable.
//!
//! An endpoint implements [`Fabric`], the same trait the deterministic
//! [`SimNet`](crate::SimNet) implements, so the entire dosgi stack runs on
//! either backend unchanged. What the real backend deliberately does *not*
//! reproduce: seeded loss/jitter, partitions, crash-stop faults, or any
//! determinism — it exists to measure real hardware, not to replay
//! schedules.

use crate::{Envelope, Fabric, NodeId, RealClock, SimTime};
use std::sync::mpsc::{channel, Receiver, Sender};

/// Builder for a set of mutually connected [`RealEndpoint`]s.
#[derive(Debug)]
pub struct RealNet<M> {
    clock: RealClock,
    senders: Vec<Sender<Envelope<M>>>,
    receivers: Vec<Option<Receiver<Envelope<M>>>>,
}

impl<M> RealNet<M> {
    /// A new, empty fabric with a fresh monotonic epoch.
    pub fn new() -> Self {
        RealNet {
            clock: RealClock::new(),
            senders: Vec::new(),
            receivers: Vec::new(),
        }
    }

    /// Registers a new node and returns its id. Ids are dense and stable,
    /// matching [`SimNet::register_node`](crate::SimNet::register_node).
    pub fn register_node(&mut self) -> NodeId {
        let id = NodeId(self.senders.len() as u32);
        let (tx, rx) = channel();
        self.senders.push(tx);
        self.receivers.push(Some(rx));
        id
    }

    /// Number of registered nodes.
    pub fn node_count(&self) -> usize {
        self.senders.len()
    }

    /// The shared clock (one epoch for the whole fabric).
    pub fn clock(&self) -> RealClock {
        self.clock.clone()
    }

    /// Detaches `node`'s endpoint: its receiver, a sender to every peer,
    /// and a handle on the shared clock. Call once per node, after all
    /// nodes are registered (an endpoint only knows the peers registered
    /// before it was taken).
    ///
    /// # Panics
    ///
    /// Panics if the endpoint for `node` was already taken.
    pub fn endpoint(&mut self, node: NodeId) -> RealEndpoint<M> {
        let rx = self.receivers[node.index()]
            .take()
            .expect("endpoint already taken");
        RealEndpoint {
            id: node,
            clock: self.clock.clone(),
            rx,
            peers: self.senders.clone(),
        }
    }
}

impl<M> Default for RealNet<M> {
    fn default() -> Self {
        Self::new()
    }
}

/// One node's handle onto a [`RealNet`]: `Send`, so it moves into the
/// node's thread. Implements [`Fabric`] — `now` reads the shared monotonic
/// clock, `send` pushes onto the destination's channel, `drain` empties
/// this node's channel without blocking.
#[derive(Debug)]
pub struct RealEndpoint<M> {
    id: NodeId,
    clock: RealClock,
    rx: Receiver<Envelope<M>>,
    peers: Vec<Sender<Envelope<M>>>,
}

impl<M> RealEndpoint<M> {
    /// The node this endpoint belongs to.
    pub fn id(&self) -> NodeId {
        self.id
    }
}

impl<M> Fabric<M> for RealEndpoint<M> {
    fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Delivery is immediate (the receiver sees it on its next drain);
    /// a send to a node whose endpoint was dropped is silently discarded,
    /// mirroring the sim's crash-stop semantics.
    fn send(&mut self, from: NodeId, to: NodeId, payload: M) {
        let Some(tx) = self.peers.get(to.index()) else {
            return;
        };
        let now = self.clock.now();
        let _ = tx.send(Envelope {
            from,
            to,
            sent_at: now,
            delivered_at: now,
            payload,
        });
    }

    /// # Panics
    ///
    /// Panics if `node` is not this endpoint's node — an endpoint only
    /// holds its own mailbox.
    fn drain(&mut self, node: NodeId, into: &mut Vec<Envelope<M>>) {
        assert_eq!(node, self.id, "an endpoint only drains its own mailbox");
        into.extend(self.rx.try_iter());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints_exchange_messages_across_threads() {
        let mut net: RealNet<u32> = RealNet::new();
        let a = net.register_node();
        let b = net.register_node();
        let mut ea = net.endpoint(a);
        let mut eb = net.endpoint(b);

        let t = std::thread::spawn(move || {
            ea.send(a, b, 7);
            ea.send(a, b, 8);
            // Wait for the echo from b.
            let mut got = Vec::new();
            while got.is_empty() {
                ea.drain(a, &mut got);
                std::thread::yield_now();
            }
            got[0].payload
        });
        // b echoes the sum back to a. The two may arrive in separate drains;
        // the buffer keeps the first while b waits for the second.
        let mut got = Vec::new();
        while got.len() < 2 {
            eb.drain(b, &mut got);
            std::thread::yield_now();
        }
        let sum = got.iter().map(|e| e.payload).sum::<u32>();
        eb.send(b, a, sum);
        assert_eq!(t.join().unwrap(), 15);
    }

    #[test]
    fn send_to_unknown_node_is_discarded() {
        let mut net: RealNet<u32> = RealNet::new();
        let a = net.register_node();
        let mut ea = net.endpoint(a);
        ea.send(a, NodeId(99), 1); // no panic, no delivery
        let mut got = Vec::new();
        ea.drain(a, &mut got);
        assert!(got.is_empty());
    }

    #[test]
    fn timestamps_come_from_the_shared_clock() {
        let mut net: RealNet<u32> = RealNet::new();
        let a = net.register_node();
        let b = net.register_node();
        let mut ea = net.endpoint(a);
        let mut eb = net.endpoint(b);
        let before = ea.now();
        ea.send(a, b, 1);
        let mut got = Vec::new();
        while got.is_empty() {
            eb.drain(b, &mut got);
        }
        let env = &got[0];
        assert!(env.sent_at >= before);
        assert!(eb.now() >= env.sent_at);
    }
}
