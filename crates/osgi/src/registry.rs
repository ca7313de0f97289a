//! The service registry.

use crate::{BundleId, CallContext, DataArea, Service, ServiceError, ServiceId, UsageLedger};
use dosgi_san::Value;
use std::fmt;
use std::sync::Arc;

/// A registered service: metadata plus the (type-erased) implementation.
pub struct ServiceRecord {
    /// The service's id.
    pub id: ServiceId,
    /// The bundle that registered it.
    pub owner: BundleId,
    /// The interface names it is registered under, each shared with every
    /// other record registered under it.
    pub interfaces: Box<[Arc<str>]>,
    implementation: Box<dyn Service>,
}

impl ServiceRecord {
    /// True if the service is registered under `interface`.
    fn offers(&self, interface: &str) -> bool {
        self.interfaces.iter().any(|name| &**name == interface)
    }
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
/// lowest id, OSGi's tie-break among equal rankings.
///
/// The registrations are one list, ascending by id — ids only grow, so a
/// registration is a push — and a lookup by interface is a scan of it in
/// id order, Blech's definition of a lookup (PAPERS.md). No framework a
/// workload, experiment or example builds holds more than 3 services
/// (DESIGN §10), so the scan reads a few records and there is no index to
/// keep; a lookup by id is a binary search.
#[derive(Debug, Default)]
pub struct ServiceRegistry {
    services: Vec<ServiceRecord>,
    next_id: u64,
}

impl ServiceRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `implementation` under `interfaces` on behalf of `owner`.
    ///
    /// The record holds one interface list; a name another record is
    /// registered under is shared with it, not copied.
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
        let interfaces = interfaces
            .iter()
            .map(|name| {
                let mut held = self.services.iter().flat_map(|r| r.interfaces.iter());
                match held.find(|held| &***held == *name) {
                    Some(shared) => Arc::clone(shared),
                    None => Arc::from(*name),
                }
            })
            .collect();
        self.services.push(ServiceRecord {
            id,
            owner,
            interfaces,
            implementation,
        });
        id
    }

    /// Where the record of `id` is in the list.
    fn position(&self, id: ServiceId) -> Option<usize> {
        self.services.binary_search_by_key(&id, |r| r.id).ok()
    }

    /// Where the record of `id` is in the list, and the bundle that owns
    /// it: what [`call_at`](Self::call_at) takes, found once, and what the
    /// framework finds the owner's data area by.
    pub(crate) fn locate(&self, id: ServiceId) -> Option<(usize, BundleId)> {
        self.position(id).map(|at| (at, self.services[at].owner))
    }

    /// Removes a registration.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Gone`] if the id is unknown.
    pub fn unregister(&mut self, id: ServiceId) -> Result<(), ServiceError> {
        let at = self.position(id).ok_or(ServiceError::Gone(id))?;
        self.services.remove(at);
        Ok(())
    }

    /// Removes every service registered by `owner` (called when a bundle
    /// stops).
    pub fn unregister_bundle(&mut self, owner: BundleId) {
        self.services.retain(|r| r.owner != owner);
    }

    /// The services offering `interface`, in registration order.
    pub fn references(&self, interface: &str) -> Vec<&ServiceRecord> {
        self.services
            .iter()
            .filter(|r| r.offers(interface))
            .collect()
    }

    /// The best — the first-registered — service offering `interface`.
    pub fn best(&self, interface: &str) -> Option<ServiceId> {
        self.services
            .iter()
            .find(|r| r.offers(interface))
            .map(|r| r.id)
    }

    /// Looks up a record by id.
    pub fn record(&self, id: ServiceId) -> Option<&ServiceRecord> {
        self.position(id).map(|at| &self.services[at])
    }

    /// Invokes `method` on the service whose record is at `at`, a position
    /// [`locate`](Self::locate) returned, charging resource use to the
    /// owning bundle's account in `ledger` — the call counted on the account
    /// its charges go to — with the bundle's persistent storage area
    /// attached to the context if the caller has one. Rows the call wrote
    /// are dirty in `data` afterwards; the framework flushes them to the
    /// SAN.
    ///
    /// # Errors
    ///
    /// Whatever the implementation returns.
    pub(crate) fn call_at(
        &mut self,
        at: usize,
        ledger: &mut UsageLedger,
        data: Option<&mut DataArea>,
        method: &str,
        arg: &Value,
    ) -> Result<Value, ServiceError> {
        let rec = &mut self.services[at];
        let mut ctx = CallContext::new(rec.owner, ledger, data);
        ctx.count_call();
        rec.implementation.call(&mut ctx, method, arg)
    }

    /// Number of live registrations.
    pub fn len(&self) -> usize {
        self.services.len()
    }

    /// True if no services are registered.
    pub fn is_empty(&self) -> bool {
        self.services.is_empty()
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
        let (at, owner) = r.locate(id).unwrap();
        assert_eq!(owner, BundleId(7));
        let out = r
            .call_at(at, &mut ledger, None, "echo", &Value::Int(3))
            .unwrap();
        assert_eq!(out, Value::Int(3));
        let snap = ledger.snapshot(BundleId(7));
        assert_eq!(snap.calls, 1);
        assert_eq!(snap.cpu, SimDuration::from_micros(10));
        assert_eq!(r.locate(ServiceId(99)), None);
    }

    /// A removed registration is gone; removing it again is refused.
    #[test]
    fn unregister_and_events() {
        let mut r = ServiceRegistry::new();
        let id = r.register(BundleId(1), &["svc"], echo_service());
        r.unregister(id).unwrap();
        assert!(r.is_empty());
        assert!(matches!(r.unregister(id), Err(ServiceError::Gone(_))));
    }

    #[test]
    fn unregister_bundle_sweeps_all_of_its_services() {
        let mut r = ServiceRegistry::new();
        let a = r.register(BundleId(1), &["x"], echo_service());
        let b = r.register(BundleId(2), &["x"], echo_service());
        let c = r.register(BundleId(1), &["y"], echo_service());
        r.unregister_bundle(BundleId(1));
        assert!(r.record(a).is_none() && r.record(c).is_none());
        assert_eq!(r.locate(b), Some((0, BundleId(2))));
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
        // A bundle sweep leaves no reference under any name.
        r.unregister_bundle(BundleId(2));
        for name in ["a", "b", "zzz"] {
            assert!(r.references(name).is_empty(), "{name}");
            assert_eq!(r.best(name), None, "{name}");
        }
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

    /// The churn as the test keeps it, apart from the registry: each live
    /// registration's id, owner and interface names, in the order
    /// registered.
    #[derive(Default)]
    struct Model {
        live: Vec<(ServiceId, BundleId, Vec<&'static str>)>,
        registered: u64,
    }

    /// Every lookup agrees, after every step, with the model of the
    /// churn: `best`, `references`, `record`, `locate` and `len`. An id the
    /// model has never handed out, or has seen removed, is unknown to the
    /// registry.
    fn registry_matches_the_model(ops: &[Op]) -> prop::PropResult {
        let (mut r, mut m) = (ServiceRegistry::new(), Model::default());
        for op in ops {
            match op {
                Op::Register { owner, interfaces } => {
                    let names: Vec<&'static str> = interfaces.iter().map(|i| IFACES[*i]).collect();
                    let id = r.register(BundleId(*owner), &names, echo_service());
                    prop_verify_eq!(id, ServiceId(m.registered), "ids are handed out in order");
                    m.live.push((id, BundleId(*owner), names));
                    m.registered += 1;
                }
                Op::Unregister(target) if !m.live.is_empty() => {
                    let (id, _, _) = m.live.remove(target % m.live.len());
                    prop_verify_eq!(r.unregister(id), Ok(()), "unregister {id:?}");
                    prop_verify_eq!(r.unregister(id), Err(ServiceError::Gone(id)), "again");
                }
                Op::UnregisterBundle(owner) => {
                    m.live.retain(|(_, o, _)| *o != BundleId(*owner));
                    r.unregister_bundle(BundleId(*owner));
                }
                Op::Unregister(_) => {}
            }
            prop_verify_eq!(r.len(), m.live.len(), "len after {op:?}");
            prop_verify_eq!(r.is_empty(), m.live.is_empty(), "is_empty after {op:?}");
            for iface in IFACES {
                let offering: Vec<ServiceId> = m
                    .live
                    .iter()
                    .filter(|(_, _, names)| names.contains(&iface))
                    .map(|(id, _, _)| *id)
                    .collect();
                prop_verify_eq!(
                    r.references(iface).iter().map(|x| x.id).collect::<Vec<_>>(),
                    offering,
                    "references({iface}) after {op:?}"
                );
                prop_verify_eq!(
                    r.best(iface),
                    offering.first().copied(),
                    "best({iface}) after {op:?}"
                );
            }
            for id in (0..m.registered + 1).map(ServiceId) {
                let held = m.live.iter().find(|(live, _, _)| *live == id);
                let record = r.record(id).map(|rec| {
                    let names: Vec<&str> = rec.interfaces.iter().map(|n| &**n).collect();
                    (rec.id, rec.owner, names)
                });
                prop_verify_eq!(
                    record,
                    held.map(|(id, owner, names)| (*id, *owner, names.clone())),
                    "record({id:?}) after {op:?}"
                );
                prop_verify_eq!(
                    r.locate(id).map(|(at, owner)| (r.services[at].id, owner)),
                    held.map(|(id, owner, _)| (*id, *owner)),
                    "locate({id:?}) after {op:?}"
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
            |ops: &Vec<Op>| registry_matches_the_model(ops),
        );
    }

    #[test]
    #[should_panic(expected = "at least one interface")]
    fn register_requires_an_interface() {
        let mut r = ServiceRegistry::new();
        let _ = r.register(BundleId(1), &[], echo_service());
    }
}
