//! The message-fabric trait the upper layers code against.
//!
//! Upper layers (GCS, the dosgi core node) only ever need three things from
//! the network: the current time, a way to send a payload, and a way to
//! drain their mailbox. [`Fabric`] captures exactly that surface, and the
//! deterministic simulator implements it over its own clock, sender and
//! mailboxes ([`SimNet`](crate::SimNet)). The simulator is the one runtime;
//! the trait is the seam a test fabric (one that loses chosen messages,
//! say) plugs into instead.

use crate::{Envelope, NodeId, SimTime};

/// The network surface a node needs: a clock, a sender, and a mailbox.
///
/// Contract:
///
/// * `now` is monotonically non-decreasing between calls observed by any
///   one caller;
/// * `send` is fire-and-forget — delivery may be delayed, dropped (sim
///   faults) or reordered across links, but a backend must never deliver a
///   message to a node other than `to`;
/// * `drain` moves every message currently queued for `node` onto the end
///   of the caller's buffer, in the order the backend delivered them. The
///   buffer is the caller's to keep, so a node that drains every tick
///   allocates for its mail once, not once per non-empty mailbox.
///
/// The simulator ([`SimNet`](crate::SimNet)) additionally guarantees that
/// with a fixed seed the exact same interleaving of deliveries and drops
/// is produced on every run.
pub trait Fabric<M> {
    /// The current instant on this backend's clock.
    fn now(&self) -> SimTime;

    /// Sends `payload` from `from` to `to`.
    fn send(&mut self, from: NodeId, to: NodeId, payload: M);

    /// Appends every pending message for `node` to `into`.
    fn drain(&mut self, node: NodeId, into: &mut Vec<Envelope<M>>);
}

impl<M> Fabric<M> for crate::SimNet<M> {
    fn now(&self) -> SimTime {
        crate::SimNet::now(self)
    }

    fn send(&mut self, from: NodeId, to: NodeId, payload: M) {
        crate::SimNet::send(self, from, to, payload);
    }

    fn drain(&mut self, node: NodeId, into: &mut Vec<Envelope<M>>) {
        // One push at a time: `extend` would reserve each mailbox's exact
        // length, and so grow a kept buffer in more and smaller steps.
        for env in self.mailboxes[node.index()].drain(..) {
            into.push(env);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinkConfig, SimDuration, SimNet};

    fn roundtrip<N: Fabric<u32>>(net: &mut N, a: NodeId, b: NodeId) -> Vec<u32> {
        net.send(a, b, 41);
        net.send(a, b, 42);
        let mut got = Vec::new();
        net.drain(b, &mut got);
        got.into_iter().map(|e| e.payload).collect()
    }

    #[test]
    fn sim_net_is_a_fabric() {
        let mut n: SimNet<u32> = SimNet::new(LinkConfig::ideal(), 1);
        let a = n.register_node();
        let b = n.register_node();
        // Through the trait the sim behaves exactly like its inherent API:
        // nothing arrives until the driver advances virtual time.
        assert_eq!(roundtrip(&mut n, a, b), Vec::<u32>::new());
        n.advance(SimDuration::from_millis(1));
        // A drain appends: what the caller already holds stays in front.
        let mut got = Vec::new();
        Fabric::drain(&mut n, b, &mut got);
        n.send(a, b, 43);
        n.advance(SimDuration::from_millis(1));
        Fabric::drain(&mut n, b, &mut got);
        let got: Vec<u32> = got.into_iter().map(|e| e.payload).collect();
        assert_eq!(got, vec![41, 42, 43]);
    }
}
