//! The service registry.

use crate::filter::Properties;
use crate::{
    BundleId, CallContext, DataArea, Filter, PropValue, Service, ServiceError, ServiceId,
    UsageLedger,
};
use dosgi_san::Value;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A registered service: metadata plus the (type-erased) implementation.
pub struct ServiceRecord {
    /// The service's id.
    pub id: ServiceId,
    /// The bundle that registered it.
    pub owner: BundleId,
    /// The interface names it is registered under, shared with the
    /// registry's index.
    pub interfaces: Box<[Arc<str>]>,
    /// Its property dictionary as registered, less the three keys OSGi
    /// sets itself — `objectClass`, `service.id` and `service.ranking` —
    /// which [`property`](Self::property) answers from the fields.
    pub properties: BTreeMap<String, PropValue>,
    /// Its ranking; higher wins ties in [`ServiceRegistry::best`].
    pub ranking: i64,
    implementation: Box<dyn Service>,
}

impl ServiceRecord {
    /// The value of property `key` as OSGi defines it: `objectClass` is
    /// the interface list, `service.id` the id and `service.ranking` the
    /// ranking; any other key is looked up in [`properties`](Self::properties).
    pub fn property(&self, key: &str) -> Option<Cow<'_, PropValue>> {
        let standard = match key {
            "objectClass" => {
                PropValue::List(self.interfaces.iter().map(|i| i.to_string()).collect())
            }
            "service.id" => PropValue::Int(self.id.0 as i64),
            "service.ranking" => PropValue::Int(self.ranking),
            _ => return self.properties.get(key).map(Cow::Borrowed),
        };
        Some(Cow::Owned(standard))
    }
}

impl Properties for ServiceRecord {
    fn property(&self, key: &str) -> Option<Cow<'_, PropValue>> {
        ServiceRecord::property(self, key)
    }
}

impl fmt::Debug for ServiceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServiceRecord")
            .field("id", &self.id)
            .field("owner", &self.owner)
            .field("interfaces", &self.interfaces)
            .field("ranking", &self.ranking)
            .finish_non_exhaustive()
    }
}

/// The ranking `properties` asks for (`service.ranking`, an integer), or
/// `otherwise`; the standard keys leave the map, the record answers them.
fn take_standard_keys(properties: &mut BTreeMap<String, PropValue>, otherwise: i64) -> i64 {
    properties.remove("objectClass");
    properties.remove("service.id");
    match properties.remove("service.ranking") {
        Some(PropValue::Int(r)) => r,
        _ => otherwise,
    }
}

/// The framework's service registry.
///
/// Services are registered under one or more interface names with a property
/// dictionary; consumers look them up by interface, optionally narrowed by
/// an LDAP-style [`Filter`], and receive references ordered by ranking
/// (descending) then id (ascending) — the OSGi tie-break. A
/// [`generation`](Self::generation) moves with every change, which is how a
/// [`ServiceTracker`](crate::ServiceTracker) knows to look again.
#[derive(Debug, Default)]
pub struct ServiceRegistry {
    services: BTreeMap<ServiceId, ServiceRecord>,
    /// Interface name → the ids registered under it, held in lookup order
    /// (ranking descending, then id ascending), so the best provider is the
    /// first entry and a lookup by interface never sorts. Interfaces are
    /// fixed at registration; a list moves on register, unregister and a
    /// property update that changes the ranking, and an interface with no
    /// provider has no entry. A name is one `Arc` shared by the key and
    /// every record registered under it.
    by_interface: BTreeMap<Arc<str>, Vec<ServiceId>>,
    next_id: u64,
    generation: u64,
}

impl ServiceRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Places `id`, whose record is in `services`, in the list of each of
    /// its interfaces at its position in lookup order.
    fn index(&mut self, id: ServiceId) {
        let rec = &self.services[&id];
        for iface in &rec.interfaces {
            let ids = self.by_interface.entry(Arc::clone(iface)).or_default();
            let at = ids.partition_point(|other| {
                let ranking = self.services[other].ranking;
                ranking > rec.ranking || (ranking == rec.ranking && *other < id)
            });
            // An interface named twice in one registration is listed once.
            if ids.get(at) != Some(&id) {
                ids.insert(at, id);
            }
        }
    }

    /// Takes `id` out of the list of each of `interfaces`.
    fn unindex(
        by_interface: &mut BTreeMap<Arc<str>, Vec<ServiceId>>,
        id: ServiceId,
        interfaces: &[Arc<str>],
    ) {
        for iface in interfaces {
            if let Some(ids) = by_interface.get_mut(&**iface) {
                ids.retain(|other| *other != id);
                if ids.is_empty() {
                    by_interface.remove(&**iface);
                }
            }
        }
    }

    /// Registers `implementation` under `interfaces` on behalf of `owner`.
    ///
    /// The record holds one interface list, its names shared with the
    /// index — a name already registered is not copied — and the
    /// properties as given; `objectClass`, `service.id` and
    /// `service.ranking` (read from `properties` if present, defaulting to
    /// 0) are answered from its fields ([`ServiceRecord::property`]).
    ///
    /// # Panics
    ///
    /// Panics if `interfaces` is empty — a service must be registered under
    /// at least one name.
    pub fn register(
        &mut self,
        owner: BundleId,
        interfaces: &[&str],
        mut properties: BTreeMap<String, PropValue>,
        implementation: Box<dyn Service>,
    ) -> ServiceId {
        assert!(
            !interfaces.is_empty(),
            "a service must offer at least one interface"
        );
        let id = ServiceId(self.next_id);
        self.next_id += 1;
        self.generation += 1;
        let ranking = take_standard_keys(&mut properties, 0);
        let interfaces = interfaces
            .iter()
            .map(|name| match self.by_interface.get_key_value(*name) {
                Some((shared, _)) => Arc::clone(shared),
                None => Arc::from(*name),
            })
            .collect();
        self.services.insert(
            id,
            ServiceRecord {
                id,
                owner,
                interfaces,
                properties,
                ranking,
                implementation,
            },
        );
        self.index(id);
        id
    }

    /// Removes a registration.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Gone`] if the id is unknown.
    pub fn unregister(&mut self, id: ServiceId) -> Result<(), ServiceError> {
        match self.services.remove(&id) {
            Some(rec) => {
                Self::unindex(&mut self.by_interface, id, &rec.interfaces);
                self.generation += 1;
                Ok(())
            }
            None => Err(ServiceError::Gone(id)),
        }
    }

    /// Removes every service registered by `owner` (called when a bundle
    /// stops), returning the ids removed.
    pub fn unregister_bundle(&mut self, owner: BundleId) -> Vec<ServiceId> {
        let ids: Vec<ServiceId> = self
            .services
            .values()
            .filter(|r| r.owner == owner)
            .map(|r| r.id)
            .collect();
        for id in &ids {
            let _ = self.unregister(*id);
        }
        ids
    }

    /// Replaces a service's properties (the standard keys stay the
    /// record's; `service.ranking`, if given as an integer, re-ranks it).
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Gone`] if the id is unknown.
    #[cfg(test)]
    pub(crate) fn set_properties(
        &mut self,
        id: ServiceId,
        mut properties: BTreeMap<String, PropValue>,
    ) -> Result<(), ServiceError> {
        let rec = self.services.get_mut(&id).ok_or(ServiceError::Gone(id))?;
        let ranking = take_standard_keys(&mut properties, rec.ranking);
        let reranked = ranking != rec.ranking;
        if reranked {
            Self::unindex(&mut self.by_interface, id, &rec.interfaces);
        }
        rec.ranking = ranking;
        rec.properties = properties;
        self.generation += 1;
        if reranked {
            self.index(id);
        }
        Ok(())
    }

    /// References matching `interface` (if given) and `filter` (if given),
    /// ordered by ranking descending then id ascending. An interface query
    /// walks that interface's list, which is kept in this order; only a
    /// query over every registration sorts.
    pub fn references(
        &self,
        interface: Option<&str>,
        filter: Option<&Filter>,
    ) -> Vec<&ServiceRecord> {
        let matches = |r: &&ServiceRecord| filter.is_none_or(|f| f.matches(*r));
        match interface {
            Some(i) => self
                .by_interface
                .get(i)
                .into_iter()
                .flatten()
                .map(|id| &self.services[id])
                .filter(matches)
                .collect(),
            None => {
                let mut out: Vec<&ServiceRecord> = self.services.values().filter(matches).collect();
                out.sort_by(|a, b| b.ranking.cmp(&a.ranking).then(a.id.cmp(&b.id)));
                out
            }
        }
    }

    /// The best (highest-ranked, then lowest-id) service offering
    /// `interface`: the first entry of its list.
    pub fn best(&self, interface: &str) -> Option<ServiceId> {
        self.by_interface.get(interface)?.first().copied()
    }

    /// Looks up a record by id.
    pub fn record(&self, id: ServiceId) -> Option<&ServiceRecord> {
        self.services.get(&id)
    }

    /// Invokes `method` on service `id`, charging resource use to the
    /// owning bundle's account in `ledger`, with the bundle's persistent
    /// storage area attached to the context if the caller has one. Rows
    /// the call wrote are dirty in `data` afterwards; the framework flushes
    /// them to the SAN.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Gone`] for unknown ids, plus whatever the
    /// implementation returns.
    pub fn call(
        &mut self,
        id: ServiceId,
        ledger: &mut UsageLedger,
        data: Option<&mut DataArea>,
        method: &str,
        arg: &Value,
    ) -> Result<Value, ServiceError> {
        let rec = self.services.get_mut(&id).ok_or(ServiceError::Gone(id))?;
        ledger.count_call(rec.owner);
        let mut ctx = CallContext::new(rec.owner, ledger, data);
        rec.implementation.call(&mut ctx, method, arg)
    }

    /// The bundle that registered service `id`.
    pub fn owner_of(&self, id: ServiceId) -> Option<BundleId> {
        self.services.get(&id).map(|r| r.owner)
    }

    /// Number of live registrations.
    pub fn len(&self) -> usize {
        self.services.len()
    }

    /// True if no services are registered.
    pub fn is_empty(&self) -> bool {
        self.services.is_empty()
    }

    /// A count that moves with every registration, unregistration and
    /// property change: while it stands still, every lookup answers what
    /// it answered before.
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosgi_net::SimDuration;
    use dosgi_testkit::{prop, prop_verify_eq};

    fn echo_service() -> Box<dyn Service> {
        Box::new(
            |ctx: &mut CallContext<'_>, method: &str, arg: &Value| match method {
                "echo" => {
                    ctx.charge_cpu(SimDuration::from_micros(10));
                    Ok(arg.clone())
                }
                other => Err(ServiceError::MethodNotFound {
                    service: ServiceId(0),
                    method: other.to_owned(),
                }),
            },
        )
    }

    fn props(ranking: i64) -> BTreeMap<String, PropValue> {
        let mut p = BTreeMap::new();
        p.insert("service.ranking".to_owned(), PropValue::Int(ranking));
        p
    }

    #[test]
    fn register_sets_standard_properties() {
        let mut r = ServiceRegistry::new();
        let id = r.register(
            BundleId(1),
            &["log.Service"],
            BTreeMap::new(),
            echo_service(),
        );
        let rec = r.record(id).unwrap();
        let class = PropValue::List(vec!["log.Service".into()]);
        assert_eq!(rec.property("objectClass").as_deref(), Some(&class));
        assert_eq!(
            rec.property("service.id").as_deref(),
            Some(&PropValue::Int(0))
        );
        assert_eq!(
            rec.property("service.ranking").as_deref(),
            Some(&PropValue::Int(0))
        );
        assert_eq!(rec.ranking, 0);
        // The record keeps one copy of its metadata: the standard keys are
        // its fields, not entries of its dictionary.
        assert!(rec.properties.is_empty());
        // A name already registered is shared, not copied.
        let again = r.register(
            BundleId(2),
            &["log.Service"],
            BTreeMap::new(),
            echo_service(),
        );
        let (first, second) = (
            &r.record(id).unwrap().interfaces[0],
            &r.record(again).unwrap().interfaces[0],
        );
        assert!(Arc::ptr_eq(first, second));
    }

    #[test]
    fn ranking_orders_references() {
        let mut r = ServiceRegistry::new();
        let low = r.register(BundleId(1), &["svc"], props(1), echo_service());
        let high = r.register(BundleId(1), &["svc"], props(9), echo_service());
        let mid = r.register(BundleId(2), &["svc"], props(5), echo_service());
        let refs = r.references(Some("svc"), None);
        assert_eq!(
            refs.iter().map(|x| x.id).collect::<Vec<_>>(),
            vec![high, mid, low]
        );
        assert_eq!(r.best("svc"), Some(high));
    }

    #[test]
    fn equal_ranking_breaks_ties_by_lowest_id() {
        let mut r = ServiceRegistry::new();
        let first = r.register(BundleId(1), &["svc"], props(5), echo_service());
        let _second = r.register(BundleId(1), &["svc"], props(5), echo_service());
        assert_eq!(r.best("svc"), Some(first));
    }

    #[test]
    fn filter_narrows_lookup() {
        let mut r = ServiceRegistry::new();
        let mut p = BTreeMap::new();
        p.insert("vendor".to_owned(), PropValue::from("acme"));
        let acme = r.register(BundleId(1), &["svc"], p, echo_service());
        let _plain = r.register(BundleId(1), &["svc"], BTreeMap::new(), echo_service());
        let f: Filter = "(vendor=acme)".parse().unwrap();
        let refs = r.references(Some("svc"), Some(&f));
        assert_eq!(refs.len(), 1);
        assert_eq!(refs[0].id, acme);
        // Filter on objectClass works: the record answers it.
        let f: Filter = "(objectClass=svc)".parse().unwrap();
        assert_eq!(r.references(None, Some(&f)).len(), 2);
    }

    #[test]
    fn call_dispatches_and_charges_owner() {
        let mut r = ServiceRegistry::new();
        let mut ledger = UsageLedger::new();
        let id = r.register(BundleId(7), &["svc"], BTreeMap::new(), echo_service());
        let out = r
            .call(id, &mut ledger, None, "echo", &Value::Int(3))
            .unwrap();
        assert_eq!(out, Value::Int(3));
        let snap = ledger.snapshot(BundleId(7));
        assert_eq!(snap.calls, 1);
        assert_eq!(snap.cpu, SimDuration::from_micros(10));
        assert!(matches!(
            r.call(ServiceId(99), &mut ledger, None, "echo", &Value::Null),
            Err(ServiceError::Gone(_))
        ));
    }

    /// Each change moves the generation once; a refused one does not.
    #[test]
    fn unregister_and_events() {
        let mut r = ServiceRegistry::new();
        let id = r.register(BundleId(1), &["svc"], BTreeMap::new(), echo_service());
        assert_eq!(r.generation(), 1);
        r.unregister(id).unwrap();
        assert!(r.is_empty());
        assert_eq!(r.generation(), 2);
        assert!(matches!(r.unregister(id), Err(ServiceError::Gone(_))));
        assert_eq!(r.generation(), 2);
    }

    #[test]
    fn unregister_bundle_sweeps_all_of_its_services() {
        let mut r = ServiceRegistry::new();
        let a = r.register(BundleId(1), &["x"], BTreeMap::new(), echo_service());
        let _b = r.register(BundleId(2), &["x"], BTreeMap::new(), echo_service());
        let c = r.register(BundleId(1), &["y"], BTreeMap::new(), echo_service());
        let removed = r.unregister_bundle(BundleId(1));
        assert_eq!(removed, vec![a, c]);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn interface_index_tracks_churn() {
        let mut r = ServiceRegistry::new();
        // Multi-interface registration appears under every name.
        let ab = r.register(BundleId(1), &["a", "b"], BTreeMap::new(), echo_service());
        let b = r.register(BundleId(2), &["b"], BTreeMap::new(), echo_service());
        assert_eq!(r.references(Some("a"), None).len(), 1);
        assert_eq!(r.references(Some("b"), None).len(), 2);
        assert!(r.references(Some("zzz"), None).is_empty());
        // Unregistering removes it from every interface's candidate set.
        r.unregister(ab).unwrap();
        assert!(r.references(Some("a"), None).is_empty());
        assert_eq!(
            r.references(Some("b"), None)
                .iter()
                .map(|x| x.id)
                .collect::<Vec<_>>(),
            vec![b]
        );
        // Bundle sweep keeps the index in step too.
        r.unregister_bundle(BundleId(2));
        assert!(r.references(Some("b"), None).is_empty());
        assert!(r.by_interface.is_empty());
    }

    /// One step of registry churn. Targets are picked among the live ids.
    #[derive(Debug, Clone)]
    enum Op {
        Register {
            owner: u64,
            interfaces: Vec<usize>,
            ranking: i64,
            acme: bool,
        },
        Unregister(usize),
        UnregisterBundle(u64),
        /// `ranking`: 0 leaves the key out (ranking kept), 1 sets a
        /// non-`Int` value (ranking kept), anything else is the new ranking.
        SetProperties {
            target: usize,
            ranking: i64,
            acme: bool,
        },
    }

    const IFACES: [&str; 4] = ["a", "b", "c", "d"];

    fn churn() -> prop::Gen<Vec<Op>> {
        prop::vecs(
            prop::Gen::new(|rng| match rng.u64_below(8) {
                0..=3 => Op::Register {
                    owner: rng.u64_in(1, 3),
                    interfaces: (0..rng.usize_in(1, 3))
                        .map(|_| rng.usize_in(0, IFACES.len() - 1))
                        .collect(),
                    ranking: rng.i64_in(-1, 2),
                    acme: rng.chance(0.5),
                },
                4 => Op::Unregister(rng.usize_in(0, 63)),
                5 => Op::UnregisterBundle(rng.u64_in(1, 3)),
                _ => Op::SetProperties {
                    target: rng.usize_in(0, 63),
                    ranking: rng.i64_in(-1, 4),
                    acme: rng.chance(0.5),
                },
            }),
            1,
            40,
        )
    }

    fn vendor(acme: bool) -> BTreeMap<String, PropValue> {
        let mut p = BTreeMap::new();
        p.insert(
            "vendor".to_owned(),
            PropValue::from(if acme { "acme" } else { "other" }),
        );
        p
    }

    /// Every lookup by interface agrees, after every step, with a scan over
    /// every record followed by a sort.
    fn index_matches_the_scan(ops: &[Op]) -> prop::PropResult {
        let acme: Filter = "(vendor=acme)".parse().unwrap();
        let mut r = ServiceRegistry::new();
        for op in ops {
            let live: Vec<ServiceId> = r.services.keys().copied().collect();
            match op {
                Op::Register {
                    owner,
                    interfaces,
                    ranking,
                    acme,
                } => {
                    let names: Vec<&str> = interfaces.iter().map(|i| IFACES[*i]).collect();
                    let mut p = vendor(*acme);
                    p.insert("service.ranking".to_owned(), PropValue::Int(*ranking));
                    let _ = r.register(BundleId(*owner), &names, p, echo_service());
                }
                Op::Unregister(target) if !live.is_empty() => {
                    r.unregister(live[target % live.len()]).unwrap();
                }
                Op::UnregisterBundle(owner) => {
                    let _ = r.unregister_bundle(BundleId(*owner));
                }
                Op::SetProperties {
                    target,
                    ranking,
                    acme,
                } if !live.is_empty() => {
                    let mut p = vendor(*acme);
                    match ranking {
                        0 => {}
                        1 => drop(p.insert("service.ranking".to_owned(), "high".into())),
                        r => drop(p.insert("service.ranking".to_owned(), PropValue::Int(*r))),
                    }
                    r.set_properties(live[target % live.len()], p).unwrap();
                }
                Op::Unregister(_) | Op::SetProperties { .. } => {}
            }
            for iface in IFACES {
                // Oracle: the full scan over every record, then a sort.
                let mut scan: Vec<&ServiceRecord> = r
                    .services
                    .values()
                    .filter(|rec| rec.interfaces.iter().any(|x| &**x == iface))
                    .collect();
                scan.sort_by(|a, b| b.ranking.cmp(&a.ranking).then(a.id.cmp(&b.id)));
                let ids = |recs: &[&ServiceRecord]| recs.iter().map(|x| x.id).collect::<Vec<_>>();
                prop_verify_eq!(
                    ids(&r.references(Some(iface), None)),
                    ids(&scan),
                    "{iface} after {op:?}"
                );
                prop_verify_eq!(
                    r.best(iface),
                    scan.first().map(|x| x.id),
                    "best({iface}) after {op:?}"
                );
                prop_verify_eq!(
                    r.by_interface.contains_key(iface),
                    !scan.is_empty(),
                    "entry for {iface} after {op:?}"
                );
                scan.retain(|rec| acme.matches(*rec));
                prop_verify_eq!(
                    ids(&r.references(Some(iface), Some(&acme))),
                    ids(&scan),
                    "{iface} filtered after {op:?}"
                );
            }
        }
        Ok(())
    }

    #[test]
    fn indexed_lookup_matches_full_scan() {
        prop::check_with(
            &prop::Config::with_cases(300),
            "indexed_lookup_matches_full_scan",
            &churn(),
            |ops: &Vec<Op>| index_matches_the_scan(ops),
        );
    }

    #[test]
    fn set_properties_updates_ranking_and_emits_modified() {
        let mut r = ServiceRegistry::new();
        let id = r.register(BundleId(1), &["svc"], BTreeMap::new(), echo_service());
        r.set_properties(id, props(42)).unwrap();
        assert_eq!(r.record(id).unwrap().ranking, 42);
        let ranking = r.record(id).unwrap().property("service.ranking");
        assert_eq!(ranking.as_deref(), Some(&PropValue::Int(42)));
        assert_eq!(r.generation(), 2, "registered, then modified");
    }

    #[test]
    #[should_panic(expected = "at least one interface")]
    fn register_requires_an_interface() {
        let mut r = ServiceRegistry::new();
        let _ = r.register(BundleId(1), &[], BTreeMap::new(), echo_service());
    }
}
