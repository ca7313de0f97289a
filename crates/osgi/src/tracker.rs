//! Service trackers: the OSGi `ServiceTracker` utility.
//!
//! Dynamic services come and go as bundles start and stop; a tracker
//! maintains a live, filtered set of matching services, so consumers don't
//! re-query on every use. The paper's virtual instances consume host
//! services exactly this way: the instance manager re-wires customers
//! transparently when a host service bounces during an update (§1's
//! "without disrupting the production environment").
//!
//! A tracker follows the registry by its
//! [`generation`](ServiceRegistry::generation): a [`sync`](ServiceTracker::sync)
//! against a registry that has not moved does nothing, and one against a
//! registry that has takes the set of matching services afresh and counts
//! what joined and what left. The registry keeps no event queue for it.

use crate::{Filter, ServiceId, ServiceRegistry};
use std::collections::BTreeSet;

/// Tracks the set of registered services offering one interface,
/// optionally narrowed by an LDAP filter.
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
    filter: Option<Filter>,
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
            filter: None,
            tracked: BTreeSet::new(),
            generation: None,
            added: 0,
            removed: 0,
        }
    }

    /// Additionally narrows matches with `filter`.
    #[cfg(test)]
    pub(crate) fn with_filter(mut self, filter: Filter) -> Self {
        self.filter = Some(filter);
        self
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
            .references(Some(&self.interface), self.filter.as_ref())
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

    /// The best (highest-ranked) tracked service right now.
    pub fn best(&self, registry: &ServiceRegistry) -> Option<ServiceId> {
        registry
            .references(Some(&self.interface), self.filter.as_ref())
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
    use crate::{BundleId, CallContext, PropValue, Service, ServiceError};
    use dosgi_san::Value;
    use std::collections::BTreeMap;

    fn svc() -> Box<dyn Service> {
        Box::new(|_: &mut CallContext<'_>, _: &str, _: &Value| {
            Ok::<Value, ServiceError>(Value::Null)
        })
    }

    fn props(pairs: &[(&str, PropValue)]) -> BTreeMap<String, PropValue> {
        pairs
            .iter()
            .map(|(k, v)| ((*k).to_owned(), v.clone()))
            .collect()
    }

    #[test]
    fn open_primes_from_existing_registrations() {
        let mut reg = ServiceRegistry::new();
        let a = reg.register(BundleId(1), &["log"], BTreeMap::new(), svc());
        let _other = reg.register(BundleId(1), &["http"], BTreeMap::new(), svc());
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
        let a = reg.register(BundleId(1), &["log"], BTreeMap::new(), svc());
        let b = reg.register(BundleId(2), &["log"], BTreeMap::new(), svc());
        t.sync(&reg);
        assert_eq!(t.tracked(), vec![a, b]);
        reg.unregister(a).unwrap();
        t.sync(&reg);
        assert_eq!(t.tracked(), vec![b]);
        assert_eq!(t.churn(), (2, 1));
        assert!(!t.is_empty());
    }

    #[test]
    fn filter_gates_membership_and_reacts_to_modification() {
        let mut reg = ServiceRegistry::new();
        let mut t = ServiceTracker::new("log").with_filter("(vendor=acme)".parse().unwrap());
        t.open(&reg);
        let a = reg.register(
            BundleId(1),
            &["log"],
            props(&[("vendor", PropValue::from("acme"))]),
            svc(),
        );
        let b = reg.register(
            BundleId(2),
            &["log"],
            props(&[("vendor", PropValue::from("globex"))]),
            svc(),
        );
        t.sync(&reg);
        assert_eq!(t.tracked(), vec![a]);
        // b changes vendor: now it matches.
        reg.set_properties(b, props(&[("vendor", PropValue::from("acme"))]))
            .unwrap();
        t.sync(&reg);
        assert_eq!(t.tracked(), vec![a, b]);
        // a changes away: drops out.
        reg.set_properties(a, props(&[("vendor", PropValue::from("x"))]))
            .unwrap();
        t.sync(&reg);
        assert_eq!(t.tracked(), vec![b]);
    }

    #[test]
    fn best_respects_ranking() {
        let mut reg = ServiceRegistry::new();
        let mut t = ServiceTracker::new("log");
        t.open(&reg);
        let low = reg.register(
            BundleId(1),
            &["log"],
            props(&[("service.ranking", PropValue::Int(1))]),
            svc(),
        );
        let high = reg.register(
            BundleId(2),
            &["log"],
            props(&[("service.ranking", PropValue::Int(9))]),
            svc(),
        );
        t.sync(&reg);
        assert_eq!(t.best(&reg), Some(high));
        reg.unregister(high).unwrap();
        t.sync(&reg);
        assert_eq!(t.best(&reg), Some(low));
    }

    #[test]
    fn unrelated_interfaces_are_ignored() {
        let mut reg = ServiceRegistry::new();
        let mut t = ServiceTracker::new("log");
        t.open(&reg);
        reg.register(BundleId(1), &["http"], BTreeMap::new(), svc());
        t.sync(&reg);
        assert!(t.is_empty());
    }
}
