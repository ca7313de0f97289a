//! Node-level events: the observable record experiments assert on.

use dosgi_net::{NodeId, SimDuration, SimTime};
use dosgi_osgi::Version;
use dosgi_policy::PolicyDecision;
use std::sync::Arc;

/// Something noteworthy that happened on a node. An instance's name is the
/// registry record's `Arc<str>`, shared rather than copied.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeEvent {
    /// A membership view was installed.
    ViewChanged {
        /// When.
        at: SimTime,
        /// Members now: the installed view's list, shared.
        members: Arc<[NodeId]>,
        /// Who left (crash or graceful departure).
        left: Vec<NodeId>,
    },
    /// An instance was deployed locally.
    Deployed {
        /// When.
        at: SimTime,
        /// Which instance.
        name: Arc<str>,
    },
    /// This node stopped and released an instance for migration.
    Released {
        /// When.
        at: SimTime,
        /// Which instance.
        name: Arc<str>,
        /// The destination.
        to: NodeId,
    },
    /// This node adopted an instance.
    Adopted {
        /// When.
        at: SimTime,
        /// Which instance.
        name: Arc<str>,
        /// Why it arrived here.
        reason: AdoptReason,
    },
    /// The autonomic module executed a policy decision.
    PolicyFired {
        /// When.
        at: SimTime,
        /// The decision.
        decision: PolicyDecision,
    },
    /// The node began draining for a graceful shutdown.
    Draining {
        /// When.
        at: SimTime,
    },
    /// The node finished draining: no local instances remain.
    Drained {
        /// When.
        at: SimTime,
    },
    /// The node hibernated (consolidation/power saving).
    Hibernated {
        /// When.
        at: SimTime,
    },
    /// An adoption attempt hit a transient storage fault and was
    /// re-scheduled with backoff.
    AdoptRetried {
        /// When.
        at: SimTime,
        /// Which instance.
        name: Arc<str>,
        /// Which attempt just failed (0-based).
        attempt: u32,
        /// Why.
        error: String,
    },
    /// This node gave up re-materializing an instance after exhausting its
    /// retry budget and quarantined it: the registry keeps the record (homed
    /// here) but the instance stays down until the SAN heals, when the node
    /// re-claims and re-adopts it.
    Quarantined {
        /// When.
        at: SimTime,
        /// Which instance.
        name: Arc<str>,
    },
    /// An instance failed to adopt (error text preserved).
    AdoptFailed {
        /// When.
        at: SimTime,
        /// Which instance.
        name: Arc<str>,
        /// Why.
        error: String,
    },
    /// A bundle was hot-swapped in place: the old revision quiesced, its
    /// state persisted to the SAN, and the new revision adopted it — while
    /// the instance kept serving its other bundles.
    BundleUpgraded {
        /// When.
        at: SimTime,
        /// The instance hosting the bundle.
        name: Arc<str>,
        /// The bundle's symbolic name.
        bundle: String,
        /// Version before the swap.
        from: Version,
        /// Version after the swap.
        to: Version,
        /// Modeled unavailability window of the swapped bundle (the rest of
        /// the instance keeps serving throughout).
        blackout: SimDuration,
    },
    /// A bundle upgrade hit a transient storage fault and was re-scheduled
    /// with backoff (the open `upgrade/` span is kept across retries).
    UpgradeRetried {
        /// When.
        at: SimTime,
        /// The instance hosting the bundle.
        name: Arc<str>,
        /// The bundle's symbolic name.
        bundle: String,
        /// Which attempt just failed (0-based).
        attempt: u32,
        /// Why.
        error: String,
    },
    /// A bundle upgrade failed permanently (incompatible target or retry
    /// budget exhausted); the old revision keeps running.
    UpgradeFailed {
        /// When.
        at: SimTime,
        /// The instance hosting the bundle.
        name: Arc<str>,
        /// The bundle's symbolic name.
        bundle: String,
        /// Why.
        error: String,
    },
}

/// Why an instance arrived on a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdoptReason {
    /// Planned migration (SLA or operator initiated).
    Migration,
    /// Failover after the previous home crashed.
    Failover,
}

impl NodeEvent {
    /// When the event happened.
    pub fn at(&self) -> SimTime {
        match self {
            NodeEvent::ViewChanged { at, .. }
            | NodeEvent::Deployed { at, .. }
            | NodeEvent::Released { at, .. }
            | NodeEvent::Adopted { at, .. }
            | NodeEvent::PolicyFired { at, .. }
            | NodeEvent::Draining { at }
            | NodeEvent::Drained { at }
            | NodeEvent::Hibernated { at }
            | NodeEvent::AdoptRetried { at, .. }
            | NodeEvent::Quarantined { at, .. }
            | NodeEvent::AdoptFailed { at, .. }
            | NodeEvent::BundleUpgraded { at, .. }
            | NodeEvent::UpgradeRetried { at, .. }
            | NodeEvent::UpgradeFailed { at, .. } => *at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn at_accessor() {
        let e = NodeEvent::Drained {
            at: SimTime::from_millis(5),
        };
        assert_eq!(e.at(), SimTime::from_millis(5));
        let e = NodeEvent::Adopted {
            at: SimTime::from_secs(1),
            name: "x".into(),
            reason: AdoptReason::Failover,
        };
        assert_eq!(e.at(), SimTime::from_secs(1));
    }
}
