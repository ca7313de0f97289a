//! The service registry.

use crate::{BundleId, CallContext, DataArea, Service, ServiceError, ServiceId, UsageLedger};
use dosgi_san::Value;
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
    implementation: Box<dyn Service>,
}

impl fmt::Debug for ServiceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServiceRecord")
            .field("id", &self.id)
            .field("owner", &self.owner)
            .field("interfaces", &self.interfaces)
            .finish_non_exhaustive()
    }
}

/// The framework's service registry.
///
/// Services are registered under one or more interface names; consumers
/// look them up by interface and receive references in registration order,
/// so the best provider of an interface is the one registered first — the
/// lowest id, OSGi's tie-break among equal rankings. A
/// [`generation`](Self::generation) moves with every change, which is how a
/// [`ServiceTracker`](crate::ServiceTracker) knows to look again.
#[derive(Debug, Default)]
pub struct ServiceRegistry {
    services: BTreeMap<ServiceId, ServiceRecord>,
    /// Interface name → the ids registered under it, ascending. Ids only
    /// grow, so a registration pushes its id and the best provider is the
    /// first entry; a lookup by interface never sorts. Interfaces are fixed
    /// at registration; a list moves on register and unregister, and an
    /// interface with no provider has no entry. A name is one `Arc` shared
    /// by the key and every record registered under it.
    by_interface: BTreeMap<Arc<str>, Vec<ServiceId>>,
    next_id: u64,
    generation: u64,
}

impl ServiceRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `implementation` under `interfaces` on behalf of `owner`.
    ///
    /// The record holds one interface list, its names shared with the
    /// index — a name already registered is not copied.
    ///
    /// # Panics
    ///
    /// Panics if `interfaces` is empty — a service must be registered under
    /// at least one name.
    pub fn register(
        &mut self,
        owner: BundleId,
        interfaces: &[&str],
        implementation: Box<dyn Service>,
    ) -> ServiceId {
        assert!(
            !interfaces.is_empty(),
            "a service must offer at least one interface"
        );
        let id = ServiceId(self.next_id);
        self.next_id += 1;
        self.generation += 1;
        let interfaces: Box<[Arc<str>]> = interfaces
            .iter()
            .map(|name| match self.by_interface.get_key_value(*name) {
                Some((shared, _)) => Arc::clone(shared),
                None => Arc::from(*name),
            })
            .collect();
        for iface in &interfaces {
            let ids = self.by_interface.entry(Arc::clone(iface)).or_default();
            // An interface named twice in one registration is listed once.
            if ids.last() != Some(&id) {
                ids.push(id);
            }
        }
        self.services.insert(
            id,
            ServiceRecord {
                id,
                owner,
                interfaces,
                implementation,
            },
        );
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
                for iface in &rec.interfaces {
                    if let Some(ids) = self.by_interface.get_mut(&**iface) {
                        ids.retain(|other| *other != id);
                        if ids.is_empty() {
                            self.by_interface.remove(&**iface);
                        }
                    }
                }
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

    /// The services offering `interface`, in registration order: its
    /// list, walked as kept.
    pub fn references(&self, interface: &str) -> Vec<&ServiceRecord> {
        self.by_interface
            .get(interface)
            .into_iter()
            .flatten()
            .map(|id| &self.services[id])
            .collect()
    }

    /// The best — the first-registered — service offering `interface`: the
    /// first entry of its list.
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

    /// A count that moves with every registration and unregistration:
    /// while it stands still, every lookup answers what it answered before.
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

    /// A name already registered is shared, not copied.
    #[test]
    fn registrations_share_interface_names() {
        let mut r = ServiceRegistry::new();
        let id = r.register(BundleId(1), &["log.Service"], echo_service());
        let again = r.register(BundleId(2), &["log.Service"], echo_service());
        let (first, second) = (
            &r.record(id).unwrap().interfaces[0],
            &r.record(again).unwrap().interfaces[0],
        );
        assert!(Arc::ptr_eq(first, second));
    }

    #[test]
    fn call_dispatches_and_charges_owner() {
        let mut r = ServiceRegistry::new();
        let mut ledger = UsageLedger::new();
        let id = r.register(BundleId(7), &["svc"], echo_service());
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
        let id = r.register(BundleId(1), &["svc"], echo_service());
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
        let a = r.register(BundleId(1), &["x"], echo_service());
        let _b = r.register(BundleId(2), &["x"], echo_service());
        let c = r.register(BundleId(1), &["y"], echo_service());
        let removed = r.unregister_bundle(BundleId(1));
        assert_eq!(removed, vec![a, c]);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn interface_index_tracks_churn() {
        let mut r = ServiceRegistry::new();
        // Multi-interface registration appears under every name.
        let ab = r.register(BundleId(1), &["a", "b"], echo_service());
        let b = r.register(BundleId(2), &["b"], echo_service());
        assert_eq!(r.references("a").len(), 1);
        assert_eq!(r.references("b").len(), 2);
        assert!(r.references("zzz").is_empty());
        // Unregistering removes it from every interface's candidate set.
        r.unregister(ab).unwrap();
        assert!(r.references("a").is_empty());
        assert_eq!(
            r.references("b").iter().map(|x| x.id).collect::<Vec<_>>(),
            vec![b]
        );
        // Bundle sweep keeps the index in step too.
        r.unregister_bundle(BundleId(2));
        assert!(r.references("b").is_empty());
        assert!(r.by_interface.is_empty());
    }

    /// One step of registry churn. Targets are picked among the live ids.
    #[derive(Debug, Clone)]
    enum Op {
        Register { owner: u64, interfaces: Vec<usize> },
        Unregister(usize),
        UnregisterBundle(u64),
    }

    const IFACES: [&str; 4] = ["a", "b", "c", "d"];

    fn churn() -> prop::Gen<Vec<Op>> {
        prop::vecs(
            prop::Gen::new(|rng| match rng.u64_below(6) {
                0..=3 => Op::Register {
                    owner: rng.u64_in(1, 3),
                    interfaces: (0..rng.usize_in(1, 3))
                        .map(|_| rng.usize_in(0, IFACES.len() - 1))
                        .collect(),
                },
                4 => Op::Unregister(rng.usize_in(0, 63)),
                _ => Op::UnregisterBundle(rng.u64_in(1, 3)),
            }),
            1,
            40,
        )
    }

    /// Every lookup by interface agrees, after every step, with a scan over
    /// every record in id order.
    fn index_matches_the_scan(ops: &[Op]) -> prop::PropResult {
        let mut r = ServiceRegistry::new();
        for op in ops {
            let live: Vec<ServiceId> = r.services.keys().copied().collect();
            match op {
                Op::Register { owner, interfaces } => {
                    let names: Vec<&str> = interfaces.iter().map(|i| IFACES[*i]).collect();
                    let _ = r.register(BundleId(*owner), &names, echo_service());
                }
                Op::Unregister(target) if !live.is_empty() => {
                    r.unregister(live[target % live.len()]).unwrap();
                }
                Op::UnregisterBundle(owner) => {
                    let _ = r.unregister_bundle(BundleId(*owner));
                }
                Op::Unregister(_) => {}
            }
            for iface in IFACES {
                // Oracle: the full scan over every record, ascending by id.
                let scan: Vec<ServiceId> = r
                    .services
                    .values()
                    .filter(|rec| rec.interfaces.iter().any(|x| &**x == iface))
                    .map(|rec| rec.id)
                    .collect();
                prop_verify_eq!(
                    r.references(iface).iter().map(|x| x.id).collect::<Vec<_>>(),
                    scan,
                    "{iface} after {op:?}"
                );
                prop_verify_eq!(
                    r.best(iface),
                    scan.first().copied(),
                    "best({iface}) after {op:?}"
                );
                prop_verify_eq!(
                    r.by_interface.contains_key(iface),
                    !scan.is_empty(),
                    "entry for {iface} after {op:?}"
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
    #[should_panic(expected = "at least one interface")]
    fn register_requires_an_interface() {
        let mut r = ServiceRegistry::new();
        let _ = r.register(BundleId(1), &[], echo_service());
    }
}
