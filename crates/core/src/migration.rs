//! The Migration Module: protocol description and measurement helpers.
//!
//! §3.2 lists four issues; here is how each is addressed:
//!
//! 1. **Knowledge of the available nodes and their resources** — the GCS
//!    membership service ([`dosgi_gcs`]) plus the replicated
//!    [`ClusterRegistry`](crate::ClusterRegistry) maintained through
//!    totally-ordered control messages.
//! 2. **Node failures** — on a view change that excludes nodes, each
//!    survivor orphans the affected records, computes the *same*
//!    deterministic placement (fewest placed instances, ties to the lowest
//!    id) and claims its own share through the total order; the first claim per
//!    orphan wins everywhere (see [`ClusterRegistry`](crate::ClusterRegistry)). Claims are only
//!    acted on in a **majority partition** (primary-component discipline).
//! 3. **State migration** — the OSGi framework state is persistent (spec
//!    requirement, [`dosgi_osgi::Framework::persist`]) and lives in the SAN
//!    ([`dosgi_san`]), so the destination re-materializes the instance with
//!    [`InstanceManager::adopt_instance`](dosgi_vosgi::InstanceManager::adopt_instance).
//!    Stateless bundles just restart; stateful bundles recover their
//!    persistent state; the in-memory *running context* is lost on crash
//!    (exactly the paper's §3.2 semantics) unless one of the
//!    [`crate::replication`] extensions is active.
//! 4. **Service localization** — virtual IPs ([`dosgi_net::IpBindings`])
//!    moved with the instance (Fig. 5) or shared behind the fault-tolerant
//!    ipvs layer ([`dosgi_ipvs`], Fig. 6).
//!
//! The graceful path (`Migrate → Released` in the total order) is initiated
//! by the administrator ([`DosgiCluster::migrate`](crate::DosgiCluster::migrate)),
//! by the Autonomic Module (SLA enforcement), or by a draining node
//! ([`DosgiCluster::graceful_shutdown`](crate::DosgiCluster::graceful_shutdown)).

use crate::events::{AdoptReason, NodeEvent};
use dosgi_net::{NodeId, SimDuration, SimTime};

/// The instant a node released `name` for migration, from an event stream.
pub fn released_at(events: &[(NodeId, NodeEvent)], name: &str) -> Option<SimTime> {
    events.iter().find_map(|(_, e)| match e {
        NodeEvent::Released { at, name: n, .. } if n == name => Some(*at),
        _ => None,
    })
}

/// The instant `name` was (re-)adopted, optionally filtered by reason.
pub fn adopted_at(
    events: &[(NodeId, NodeEvent)],
    name: &str,
    reason: Option<AdoptReason>,
) -> Option<SimTime> {
    events.iter().find_map(|(_, e)| match e {
        NodeEvent::Adopted {
            at,
            name: n,
            reason: r,
        } if n == name && reason.map(|want| want == *r).unwrap_or(true) => Some(*at),
        _ => None,
    })
}

/// Hand-off latency of a graceful migration: release on the source →
/// adoption on the destination.
pub fn migration_latency(events: &[(NodeId, NodeEvent)], name: &str) -> Option<SimDuration> {
    let released = released_at(events, name)?;
    let adopted = adopted_at(events, name, Some(AdoptReason::Migration))?;
    Some(adopted.since(released))
}

/// Failover latency: from the injected crash instant to the failover
/// adoption (detection + view agreement + claim + re-materialization).
pub fn failover_latency(
    events: &[(NodeId, NodeEvent)],
    name: &str,
    crash_at: SimTime,
) -> Option<SimDuration> {
    let adopted = adopted_at(events, name, Some(AdoptReason::Failover))?;
    Some(adopted.since(crash_at))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream() -> Vec<(NodeId, NodeEvent)> {
        vec![
            (
                NodeId(0),
                NodeEvent::Released {
                    at: SimTime::from_millis(100),
                    name: "a".into(),
                    to: NodeId(1),
                },
            ),
            (
                NodeId(1),
                NodeEvent::Adopted {
                    at: SimTime::from_millis(350),
                    name: "a".into(),
                    reason: AdoptReason::Migration,
                },
            ),
            (
                NodeId(2),
                NodeEvent::Adopted {
                    at: SimTime::from_millis(900),
                    name: "b".into(),
                    reason: AdoptReason::Failover,
                },
            ),
        ]
    }

    #[test]
    fn migration_latency_from_events() {
        let events = stream();
        assert_eq!(
            migration_latency(&events, "a"),
            Some(SimDuration::from_millis(250))
        );
        assert_eq!(migration_latency(&events, "b"), None, "b was failover");
    }

    #[test]
    fn failover_latency_from_crash_instant() {
        let events = stream();
        assert_eq!(
            failover_latency(&events, "b", SimTime::from_millis(500)),
            Some(SimDuration::from_millis(400))
        );
        assert_eq!(failover_latency(&events, "a", SimTime::ZERO), None);
    }

    #[test]
    fn reason_filter() {
        let events = stream();
        assert!(adopted_at(&events, "a", Some(AdoptReason::Failover)).is_none());
        assert!(adopted_at(&events, "a", None).is_some());
    }
}
