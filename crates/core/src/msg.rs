//! Cluster application messages (carried inside the GCS).

use crate::registry::InstanceRecord;
use dosgi_net::NodeId;
use dosgi_vosgi::InstanceDescriptor;
use std::rc::Rc;
use std::sync::Arc;

/// Application payloads exchanged between nodes through the group
/// communication layer. Every one travels **totally ordered**, the group
/// layer's one broadcast, so every node applies registry changes and
/// announcements alike in the same sequence.
///
/// A payload travels as `Rc<AppPayload>` (see [`Wire`](crate::Wire)): the
/// node that orders a message builds it once, the group layer's retry
/// queue, sequencer log, fan-out and replays share that one value, and a
/// receiver applies it by reference; no runtime path clones the payload
/// itself. The registry's transfers are typed records, not a serialized
/// tree: a record's name and descriptor are shared pointers made once per
/// deploy, so a transfer, a digest and every registry copy that imports
/// them share those values. Every instance name a payload carries is that record's
/// `Arc<str>` too (the deploying node's, in a `Deployed`), so ordering a
/// message about an instance copies no name.
#[derive(Debug, Clone, PartialEq)]
pub enum AppPayload {
    /// (ordered) A new instance was deployed on `home`. Carries the
    /// descriptor so any node can later re-materialize it.
    Deployed {
        /// The instance name.
        name: Arc<str>,
        /// The descriptor, policy-free: the deploying node's sandbox grants
        /// stay on that node. Shared by every registry record made from
        /// this message and every instance adopted from one.
        descriptor: Rc<InstanceDescriptor>,
        /// The node it was deployed on.
        home: NodeId,
    },
    /// (ordered) A migration was decided: `name` moves `from → to`.
    Migrate {
        /// The instance to move.
        name: Arc<str>,
        /// Current home.
        from: NodeId,
        /// Destination.
        to: NodeId,
    },
    /// (ordered) The source has stopped the instance and its state is in
    /// the SAN; the destination may adopt it.
    Released {
        /// The instance released.
        name: Arc<str>,
        /// The destination that should adopt it.
        to: NodeId,
    },
    /// (ordered) A failover **claim**: `node` takes over an instance
    /// stranded on `prior_home`. Carrying the dead home makes the claim
    /// self-contained: it applies identically on nodes that have already
    /// orphaned the record locally and on nodes whose failure detector is
    /// still lagging — the first claim per instance in the total order wins
    /// everywhere.
    Adopted {
        /// The instance claimed.
        name: Arc<str>,
        /// Its new home (the claimant).
        node: NodeId,
        /// The home the claimant observed as dead.
        prior_home: NodeId,
    },
    /// (ordered) A node exhausted its retry budget re-materializing an
    /// instance it claimed (persistent SAN faults): the instance is
    /// **quarantined** — kept in the registry, homed on the reporting node,
    /// but known-down. When the SAN heals, the home re-claims it with an
    /// `Adopted { prior_home: self }` and re-adopts from the SAN.
    Quarantined {
        /// The instance that could not be re-materialized.
        name: Arc<str>,
        /// The node that holds (and will heal) it.
        node: NodeId,
    },
    /// (ordered) An instance was destroyed on purpose (undeploy).
    Undeployed {
        /// The instance removed.
        name: Arc<str>,
    },
    /// (ordered) A node announces it is draining for a graceful shutdown;
    /// its instances will be migrated away before it leaves the group.
    Draining {
        /// The node shutting down.
        node: NodeId,
    },
    /// (ordered) A node announces it (re)started and asks for the registry.
    /// A node admitted by a view change is sent its state by the
    /// `RegistryTransfer` that view change orders, so a `Hello` from outside
    /// the answering node's view goes unanswered. A `Hello` from a member — a
    /// node that crashed and restarted *below the suspicion timeout*,
    /// invisible to the failure detector — is answered with a
    /// `RegistryTransfer` addressed to it, computed against the carried
    /// digest, so it learns the registry and re-adopts the instances it
    /// silently lost without being sent records it already holds. Until a
    /// transfer addressed to it lands, the node asks again on the
    /// stranded-sweep cadence.
    Hello {
        /// The (re)started node.
        node: NodeId,
        /// The sender's registry digest (`(name, rev)` in name order, see
        /// [`ClusterRegistry::digest`](crate::ClusterRegistry::digest)).
        /// Empty after a fresh restart, in which case the answer carries
        /// every record.
        digest: Vec<(Arc<str>, u64)>,
        /// A repeated request: an earlier `Hello` went unanswered. Every
        /// member that holds the registry answers it, with an empty
        /// transfer if need be, so that the asking stops.
        retry: bool,
    },
    /// (ordered) Registry records for the nodes in `to`, which every member
    /// merges at the same logical instant. Three senders order one: the
    /// lowest-id member already in the group ships every record to the
    /// joiners of a view change (restarted after being suspected, or from
    /// the other side of a healed partition, whose divergence is
    /// unbounded), with no removes; a member answers a `Hello` with the
    /// records its digest is missing or holds at an older revision, plus
    /// revision-guarded removals for records the digest names but the
    /// sender's registry no longer contains; and the lowest member that is
    /// not an addressee of a transfer ships what moved since it was taken.
    RegistryTransfer {
        /// The nodes this transfer is addressed to: a view change's
        /// joiners as the sender saw them, the node whose `Hello` it
        /// answers, or the first addressee of the transfer it corrects.
        to: Box<[NodeId]>,
        /// Records in name order, each sharing its name and descriptor
        /// with the sender's copy.
        upserts: Vec<InstanceRecord>,
        /// `(name, rev)`: records the receiver should no longer hold.
        /// Applied only when the receiver's revision still equals `rev` (a
        /// CAS guard — revisions restart at 1 after an undeploy + redeploy,
        /// so a plain `<=` check would be unsound).
        removes: Box<[(Arc<str>, u64)]>,
    },
}

#[cfg(test)]
mod tests {
    /// Every ordered message's `Rc` allocation is sized by the largest
    /// variant: the transfer's boxed addressee and remove lists keep it at
    /// the size the other variants need.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_payload_is_56_bytes() {
        assert_eq!(std::mem::size_of::<super::AppPayload>(), 56);
    }
}
