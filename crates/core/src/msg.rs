//! Cluster application messages (carried inside the GCS).

use crate::registry::InstanceRecord;
use dosgi_net::NodeId;
use dosgi_san::Value;
use std::sync::Arc;

/// Application payloads exchanged between nodes through the group
/// communication layer. Every one travels **totally ordered**, the group
/// layer's one broadcast, so every node applies registry changes and
/// announcements alike in the same sequence.
///
/// A payload travels as `Arc<AppPayload>` (see [`Wire`](crate::Wire)): the
/// node that orders a message builds it once, the group layer's retry
/// queue, sequencer log, fan-out and replays share that one value, and a
/// receiver applies it by reference; no runtime path clones the payload
/// itself. The registry's transfers are typed records, not a serialized
/// tree: a descriptor is an `Arc` built once per deploy, so a transfer and
/// every registry copy that imports it share that one value.
#[derive(Debug, Clone, PartialEq)]
pub enum AppPayload {
    /// (ordered) A new instance was deployed on `home`. Carries the
    /// serialized descriptor so any node can later re-materialize it.
    Deployed {
        /// The instance name.
        name: String,
        /// The serialized [`InstanceDescriptor`](dosgi_vosgi::InstanceDescriptor),
        /// shared by every registry record made from this message.
        descriptor: Arc<Value>,
        /// The node it was deployed on.
        home: NodeId,
    },
    /// (ordered) A migration was decided: `name` moves `from → to`.
    Migrate {
        /// The instance to move.
        name: String,
        /// Current home.
        from: NodeId,
        /// Destination.
        to: NodeId,
    },
    /// (ordered) The source has stopped the instance and its state is in
    /// the SAN; the destination may adopt it.
    Released {
        /// The instance released.
        name: String,
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
        name: String,
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
        name: String,
        /// The node that holds (and will heal) it.
        node: NodeId,
    },
    /// (ordered) An instance was destroyed on purpose (undeploy).
    Undeployed {
        /// The instance removed.
        name: String,
    },
    /// (ordered) A node announces it is draining for a graceful shutdown;
    /// its instances will be migrated away before it leaves the group.
    Draining {
        /// The node shutting down.
        node: NodeId,
    },
    /// (ordered) A node announces it (re)started and asks for the registry.
    /// A node admitted by a view change is sent its state by the
    /// `RegistrySync` that view change orders, so a `Hello` from outside the
    /// answering node's view goes unanswered. A `Hello` from a member — a
    /// node that crashed and restarted *below the suspicion timeout*,
    /// invisible to the failure detector — is answered with a
    /// `RegistryDelta` addressed to it, computed against the carried digest,
    /// so it learns the registry and re-adopts the instances it silently
    /// lost without being sent records it already holds. Until a transfer
    /// addressed to it lands, the node asks again on the stranded-sweep
    /// cadence.
    Hello {
        /// The (re)started node.
        node: NodeId,
        /// The sender's registry digest (`(name, rev)` in name order, see
        /// [`ClusterRegistry::digest`](crate::ClusterRegistry::digest)).
        /// Empty after a fresh restart, in which case the answering delta
        /// degenerates to a full snapshot.
        digest: Vec<(String, u64)>,
        /// A repeated request: an earlier `Hello` went unanswered. Every
        /// member that holds the registry answers it, with an empty delta
        /// if need be, so that the asking stops.
        retry: bool,
    },
    /// (ordered) Full registry state, ordered by the lowest-id member that
    /// was already in the group when a view change admits nodes: the
    /// joiners' one transfer, whether they restarted after being suspected
    /// or come from the other side of a healed partition, whose divergence
    /// is unbounded. Every member merges it at the same logical instant.
    RegistrySync {
        /// Every record of the sender's registry, in name order, each
        /// sharing its descriptor with the sender's copy.
        registry: Vec<InstanceRecord>,
        /// The nodes the view change admitted, as the sender saw it: the
        /// nodes this transfer is addressed to.
        joined: Vec<NodeId>,
    },
    /// (ordered) Per-record registry delta, answering a `Hello`: only the
    /// records the digest is missing or holds at an older revision travel,
    /// plus revision-guarded removals for records the digest names but the
    /// sender's registry no longer contains.
    RegistryDelta {
        /// The node whose `Hello` this answers: the node it is addressed to.
        to: NodeId,
        /// Records newer than — or absent from — the digest this delta
        /// answers, in name order.
        upserts: Vec<InstanceRecord>,
        /// `(name, rev)`: records the digest named that the sender lacks.
        /// Applied only when the receiver's revision still equals `rev` (a
        /// CAS guard — revisions restart at 1 after an undeploy + redeploy,
        /// so a plain `<=` check would be unsound).
        removes: Vec<(String, u64)>,
    },
}

impl AppPayload {
    /// The instance name this message concerns, if any.
    pub fn instance(&self) -> Option<&str> {
        match self {
            AppPayload::Deployed { name, .. }
            | AppPayload::Migrate { name, .. }
            | AppPayload::Released { name, .. }
            | AppPayload::Adopted { name, .. }
            | AppPayload::Quarantined { name, .. }
            | AppPayload::Undeployed { name } => Some(name),
            AppPayload::Draining { .. }
            | AppPayload::Hello { .. }
            | AppPayload::RegistrySync { .. }
            | AppPayload::RegistryDelta { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instance_accessor() {
        let m = AppPayload::Migrate {
            name: "a".into(),
            from: NodeId(0),
            to: NodeId(1),
        };
        assert_eq!(m.instance(), Some("a"));
        assert_eq!(AppPayload::Draining { node: NodeId(0) }.instance(), None);
        assert_eq!(
            AppPayload::Hello {
                node: NodeId(0),
                digest: Vec::new(),
                retry: false,
            }
            .instance(),
            None
        );
        assert_eq!(
            AppPayload::RegistryDelta {
                to: NodeId(0),
                upserts: Vec::new(),
                removes: Vec::new(),
            }
            .instance(),
            None
        );
        assert_eq!(m.clone(), m);
    }
}
