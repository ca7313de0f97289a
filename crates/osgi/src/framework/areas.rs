//! Bundle data areas — each bundle's persistent storage, a row cache over
//! the SAN keyed by symbolic name — and the service calls that read and
//! write them.

use super::Framework;
use crate::{BundleError, BundleId, DataArea, Service, ServiceError, ServiceId};
use dosgi_san::{SharedStore, StoreError, Value};
use dosgi_telemetry::{Phase, Phases};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The SAN namespace of the data area of the bundles named `sn` in the
/// framework persisted under `namespace`, built at its final size.
pub(super) fn area_namespace(namespace: &str, sn: &str) -> String {
    [namespace, "/data/", sn].concat()
}

/// Runs `f` on the data area of the bundles named `sn`, which is created —
/// its name and SAN namespace built — the first time it is asked for, and
/// kept once `f` is done with it; an existing area is found with one
/// lookup. A free function over the two fields so that callers keep their
/// borrows of the others.
pub(super) fn with_area<R>(
    areas: &mut BTreeMap<String, DataArea>,
    store: &Option<(SharedStore, Arc<str>)>,
    sn: &str,
    f: impl FnOnce(&mut DataArea) -> R,
) -> R {
    if let Some(area) = areas.get_mut(sn) {
        return f(area);
    }
    let mut area = DataArea::default();
    if let Some((store, ns)) = store {
        area.attach(store.clone(), area_namespace(ns, sn));
    }
    let r = f(&mut area);
    areas.insert(sn.to_owned(), area);
    r
}

impl Framework {
    /// Registers a service on behalf of `owner`.
    pub fn register_service(
        &mut self,
        owner: BundleId,
        interfaces: &[&str],
        implementation: Box<dyn Service>,
    ) -> ServiceId {
        let _registering = self.phases.enter(Phase::AdoptRegister);
        self.registry.register(owner, interfaces, implementation)
    }

    /// Invokes a service, charging usage to its owner. The owning bundle's
    /// persistent storage area is attached to the call context: the call
    /// reads the rows it asks for (from the SAN, the first time) and the
    /// rows it wrote are flushed to the SAN before it returns — so a
    /// stateful service's acknowledged state is already on shared storage
    /// when a crash happens. A call that touches no row touches no SAN.
    ///
    /// # Errors
    ///
    /// Lookup and implementation errors (see [`ServiceError`]);
    /// [`ServiceError::Store`] when the flush of a call that wrote fails —
    /// the in-memory effect stands and the rows stay dirty for
    /// [`flush_persist`](Self::flush_persist), but the caller must NOT
    /// treat the call as durably acknowledged.
    pub fn call_service(
        &mut self,
        id: ServiceId,
        method: &str,
        arg: &Value,
    ) -> Result<Value, ServiceError> {
        self.call_service_counted(id, method, arg, &Phases::disabled())
    }

    /// [`call_service`](Self::call_service), its write-through counted in
    /// `phases` as `call.persist`.
    ///
    /// # Errors
    ///
    /// As [`call_service`](Self::call_service).
    pub fn call_service_counted(
        &mut self,
        id: ServiceId,
        method: &str,
        arg: &Value,
        phases: &Phases,
    ) -> Result<Value, ServiceError> {
        let (at, owner) = self.registry.locate(id).ok_or(ServiceError::Gone(id))?;
        let Some(owner) = self.bundles.get(&owner) else {
            // A service whose owner is gone has no data area to attach.
            return self
                .registry
                .call_at(at, &mut self.ledger, None, method, arg);
        };
        let sn = owner.manifest.symbolic_name.as_str();
        let (outcome, flushed) = with_area(&mut self.areas, &self.store, sn, |area| {
            let outcome =
                self.registry
                    .call_at(at, &mut self.ledger, Some(&mut *area), method, arg);
            let flushed = area.written().then(|| {
                let _persisting = phases.enter(Phase::CallPersist);
                area.flush()
            });
            (outcome, flushed)
        });
        if let Some(flushed) = flushed {
            self.settle(flushed)?;
        }
        outcome
    }

    /// Writes to a bundle's persistent storage area (write-through to the
    /// SAN if attached), charging the bytes to the bundle's disk account.
    ///
    /// # Errors
    ///
    /// [`BundleError::NotFound`] for unknown bundles;
    /// [`BundleError::Store`] when the SAN write-through fails — the row is
    /// written in memory regardless and stays dirty for a later
    /// [`flush_persist`](Self::flush_persist).
    pub fn bundle_store_put(
        &mut self,
        bundle: BundleId,
        key: &str,
        value: Value,
    ) -> Result<(), BundleError> {
        let bytes = value.encoded_len() as u64;
        let flushed = self.with_bundle_area(bundle, |area| {
            area.put(key, value);
            area.flush()
        })?;
        self.ledger.charge_disk(bundle, bytes);
        Ok(self.settle(flushed)?)
    }

    /// Reads from a bundle's persistent storage area: the resident row, or
    /// else the SAN's — which is how state written before a migration is
    /// found again on the destination node — remembered from then on.
    ///
    /// # Errors
    ///
    /// [`BundleError::NotFound`] for unknown bundles; [`BundleError::Store`]
    /// when the SAN read fails.
    pub fn bundle_store_get(
        &mut self,
        bundle: BundleId,
        key: &str,
    ) -> Result<Option<Value>, BundleError> {
        Ok(self.with_bundle_area(bundle, |area| area.get(key))??)
    }

    /// Runs `f` on the data area of `bundle`'s symbolic name.
    fn with_bundle_area<R>(
        &mut self,
        bundle: BundleId,
        f: impl FnOnce(&mut DataArea) -> R,
    ) -> Result<R, BundleError> {
        let b = self.bundles.get(&bundle);
        let sn = b
            .ok_or(BundleError::NotFound(bundle))?
            .manifest
            .symbolic_name
            .as_str();
        Ok(with_area(&mut self.areas, &self.store, sn, f))
    }

    /// Keeps the dirty mark equal to [`persist_dirty`](Self::persist_dirty)
    /// across a write-through: a flush that failed sets it, one that landed
    /// the last pending row withdraws it. An unmarked framework whose flush
    /// landed — every request but the rare one — pays a flag test.
    fn settle(&mut self, flushed: Result<(), StoreError>) -> Result<(), StoreError> {
        if flushed.is_err() || self.dirty_mark.counted {
            self.sync_dirty_mark();
        }
        flushed
    }

    /// Ends the residency of the clean rows of `id`'s data area.
    pub(super) fn release_area(&mut self, id: BundleId) {
        let sn = self.bundles.get(&id).map(|b| &b.manifest.symbolic_name);
        if let Some(area) = sn.and_then(|sn| self.areas.get_mut(sn.as_str())) {
            area.release();
        }
    }
}
