//! Service trackers: the OSGi `ServiceTracker` utility.
//!
//! Dynamic services come and go as bundles start and stop; a tracker
//! maintains a live set of the services offering one interface, so a
//! consumer doesn't re-query on every use. The runtime itself does not
//! track: the instance manager looks a service up by interface on every
//! call ([`ServiceRegistry::best`]), which is how a customer's calls follow
//! a service that bounced during an update. The tracker is for consumers
//! outside the runtime that want to watch that churn, as the `hot_update`
//! example does.
//!
//! A tracker follows the registry by its
//! [`generation`](ServiceRegistry::generation): a [`sync`](ServiceTracker::sync)
//! against a registry that has not moved does nothing, and one against a
//! registry that has takes the set of matching services afresh and counts
//! what joined and what left. The registry keeps no event queue for it.

use crate::{ServiceId, ServiceRegistry};
use std::collections::BTreeSet;

/// Tracks the set of registered services offering one interface.
///
/// # Example
///
/// ```
/// use dosgi_osgi::{Framework, ManifestBuilder, ServiceTracker, Version};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut fw = Framework::new("t");
/// let mut tracker = ServiceTracker::new("org.example.Log");
/// tracker.open(fw.registry());
/// assert_eq!(tracker.len(), 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ServiceTracker {
    interface: String,
    tracked: BTreeSet<ServiceId>,
    /// The registry generation `tracked` was taken at.
    generation: Option<u64>,
    added: u64,
    removed: u64,
}

impl ServiceTracker {
    /// Tracks every service registered under `interface`.
    pub fn new(interface: &str) -> Self {
        ServiceTracker {
            interface: interface.to_owned(),
            tracked: BTreeSet::new(),
            generation: None,
            added: 0,
            removed: 0,
        }
    }

    /// Primes the tracker from the registry's current contents.
    pub fn open(&mut self, registry: &ServiceRegistry) {
        self.sync(registry);
    }

    /// Brings the tracked set up to date with `registry`: nothing to do
    /// while its generation stands still; otherwise the matching services
    /// are taken afresh, and those that joined and left the set are
    /// counted in [`churn`](Self::churn).
    pub fn sync(&mut self, registry: &ServiceRegistry) {
        if self.generation == Some(registry.generation()) {
            return;
        }
        self.generation = Some(registry.generation());
        let now: BTreeSet<ServiceId> = registry
            .references(&self.interface)
            .into_iter()
            .map(|r| r.id)
            .collect();
        self.added += now.difference(&self.tracked).count() as u64;
        self.removed += self.tracked.difference(&now).count() as u64;
        self.tracked = now;
    }

    /// Currently tracked service ids, ascending.
    pub fn tracked(&self) -> Vec<ServiceId> {
        self.tracked.iter().copied().collect()
    }

    /// The best (first-registered) tracked service right now.
    pub fn best(&self, registry: &ServiceRegistry) -> Option<ServiceId> {
        registry
            .references(&self.interface)
            .into_iter()
            .map(|r| r.id)
            .find(|id| self.tracked.contains(id))
    }

    /// Number of tracked services.
    pub fn len(&self) -> usize {
        self.tracked.len()
    }

    /// True when nothing matches.
    pub fn is_empty(&self) -> bool {
        self.tracked.is_empty()
    }

    /// Lifetime counters `(added, removed)` — churn observability. A
    /// service that came and went between two syncs is counted in neither.
    pub fn churn(&self) -> (u64, u64) {
        (self.added, self.removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BundleId, CallContext, Service, ServiceError};
    use dosgi_san::Value;

    fn svc() -> Box<dyn Service> {
        Box::new(|_: &mut CallContext<'_>, _: &str, _: &Value| {
            Ok::<Value, ServiceError>(Value::Null)
        })
    }

    #[test]
    fn open_primes_from_existing_registrations() {
        let mut reg = ServiceRegistry::new();
        let a = reg.register(BundleId(1), &["log"], svc());
        let _other = reg.register(BundleId(1), &["http"], svc());
        let mut t = ServiceTracker::new("log");
        t.open(&reg);
        assert_eq!(t.tracked(), vec![a]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn events_add_and_remove() {
        let mut reg = ServiceRegistry::new();
        let mut t = ServiceTracker::new("log");
        t.open(&reg);
        let a = reg.register(BundleId(1), &["log"], svc());
        let b = reg.register(BundleId(2), &["log"], svc());
        t.sync(&reg);
        assert_eq!(t.tracked(), vec![a, b]);
        reg.unregister(a).unwrap();
        t.sync(&reg);
        assert_eq!(t.tracked(), vec![b]);
        assert_eq!(t.churn(), (2, 1));
        assert!(!t.is_empty());
    }

    #[test]
    fn best_is_the_first_registered() {
        let mut reg = ServiceRegistry::new();
        let mut t = ServiceTracker::new("log");
        t.open(&reg);
        let first = reg.register(BundleId(2), &["log"], svc());
        let second = reg.register(BundleId(1), &["log"], svc());
        t.sync(&reg);
        assert_eq!(t.best(&reg), Some(first));
        reg.unregister(first).unwrap();
        t.sync(&reg);
        assert_eq!(t.best(&reg), Some(second));
    }

    #[test]
    fn unrelated_interfaces_are_ignored() {
        let mut reg = ServiceRegistry::new();
        let mut t = ServiceTracker::new("log");
        t.open(&reg);
        reg.register(BundleId(1), &["http"], svc());
        t.sync(&reg);
        assert!(t.is_empty());
    }
}
