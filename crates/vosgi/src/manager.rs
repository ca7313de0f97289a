//! The Instance Manager: life-cycle control and the explicit-export
//! delegation paths (Figures 3–4 of the paper).

use crate::{
    Access, BundleRepository, ChangeLog, InstanceDescriptor, InstanceId, InstanceState,
    QuotaViolation, VirtualInstance, VosgiError,
};
use dosgi_net::{IpAddr, Port, SimDuration};
use dosgi_osgi::{
    ActivatorFactory, BundleId, ClassRef, DirtyCount, Framework, FrameworkConfig, FrameworkMetrics,
    LoadError, LoadPath, ServiceError, SymbolName, UpgradeReport, UsageSnapshot,
};
use dosgi_san::{SharedStore, Value};
use dosgi_telemetry::{Phases, Telemetry};
use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

dosgi_telemetry::metrics! {
    /// Instance lifecycle counters, resolved when a registry is attached.
    struct Metrics {
        counter adopted = "vosgi.lifecycle.adopted",
        counter created = "vosgi.lifecycle.created",
        counter destroyed = "vosgi.lifecycle.destroyed",
        counter started = "vosgi.lifecycle.started",
        counter stopped = "vosgi.lifecycle.stopped",
        counter upgraded = "vosgi.lifecycle.upgraded",
    }
}

/// The name of every virtual instance's framework: static, so creating or
/// adopting an instance formats no name. The instance is named by its
/// descriptor.
const INSTANCE_FRAMEWORK: &str = "vosgi";

/// Owns the host framework and every virtual instance on a node.
///
/// Architecturally this is the bundle labelled *Instance Manager* in
/// Figures 3–4: it lives "inside" the host OSGi environment (it registers a
/// marker service there) and exposes create/start/stop/destroy plus the two
/// delegation paths — class loading and service calls — that make nested
/// instances *virtual* rather than merely co-located.
pub struct InstanceManager {
    host: Framework,
    instances: BTreeMap<InstanceId, VirtualInstance>,
    // Every instance by its name; kept by `insert` and `destroy_instance`,
    // the only two places that change `instances`.
    by_name: BTreeMap<NameKey, InstanceId>,
    next: u64,
    // Shared with every node the cluster boots: neither changes once a
    // manager exists.
    repo: Arc<BundleRepository>,
    factory: Rc<ActivatorFactory>,
    store: Option<SharedStore>,
    // Shared by the host and every instance framework.
    dirty: DirtyCount,
    // Bumped by everything that can change what an instance's
    // `is_running` answers, or whether the instance is here at all.
    lifecycle_epoch: u64,
    // The instances those same writes touched, since the last
    // `clear_changed`.
    changed: ChangeLog<NameKey>,
    // Resolved once; cloned into instance frameworks created or adopted
    // later, before their first transition.
    framework_metrics: FrameworkMetrics,
    metrics: Metrics,
    // Counts the parts of every adoption's restore.
    phases: Phases,
}

/// An instance's descriptor as the key of its name: the descriptor the
/// instance holds, shared, ordered and looked up by its name.
struct NameKey(Rc<InstanceDescriptor>);

impl Borrow<str> for NameKey {
    fn borrow(&self) -> &str {
        &self.0.name
    }
}

impl PartialEq for NameKey {
    fn eq(&self, other: &Self) -> bool {
        self.0.name == other.0.name
    }
}

impl Eq for NameKey {}

impl PartialOrd for NameKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for NameKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.name.cmp(&other.0.name)
    }
}

impl fmt::Debug for InstanceManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InstanceManager")
            .field("host", &self.host.name())
            .field("instances", &self.instances.len())
            .finish_non_exhaustive()
    }
}

impl InstanceManager {
    /// Creates a manager around `host`, using `repo` to resolve bundle
    /// names and `factory` to re-create activators. Either may be shared:
    /// pass an `Arc` (the repository) or an `Rc` (the factory) that other
    /// managers hold too, or a value of its own.
    pub fn new(
        mut host: Framework,
        repo: impl Into<Arc<BundleRepository>>,
        factory: impl Into<Rc<ActivatorFactory>>,
    ) -> Self {
        let dirty = DirtyCount::default();
        host.share_dirty_count(&dirty);
        InstanceManager {
            host,
            instances: BTreeMap::new(),
            by_name: BTreeMap::new(),
            next: 1,
            repo: repo.into(),
            factory: factory.into(),
            store: None,
            dirty,
            lifecycle_epoch: 0,
            changed: ChangeLog::default(),
            framework_metrics: FrameworkMetrics::default(),
            metrics: Metrics::default(),
            phases: Phases::disabled(),
        }
    }

    /// Attaches a telemetry handle. Instance lifecycle transitions are
    /// counted as `vosgi.lifecycle.*`; the handle is also propagated to
    /// the host framework and every instance framework created or
    /// adopted afterwards (`osgi.lifecycle.*`).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.framework_metrics = FrameworkMetrics::new(&telemetry);
        self.host.set_metrics(self.framework_metrics.clone());
        for inst in self.instances.values_mut() {
            inst.framework.set_metrics(self.framework_metrics.clone());
        }
        self.metrics = Metrics::new(&telemetry);
    }

    /// Counts the parts of each adoption's restore (`adopt.*`) and each
    /// call's write-through (`call.persist`) into `phases` from now on.
    pub fn set_phases(&mut self, phases: Phases) {
        self.phases = phases;
    }

    /// Attaches the SAN; every instance framework created afterwards
    /// persists its state under `instance/<name>`, which is what migration
    /// relies on.
    pub fn attach_store(&mut self, store: SharedStore) {
        self.store = Some(store);
    }

    /// Retries deferred (write-behind) persistence on the host framework
    /// and every instance framework: snapshots and data areas left dirty by
    /// transient SAN failures are re-flushed. Returns how many frameworks
    /// are *still* dirty — zero means every durable copy is current. Returns
    /// at once when nothing is dirty; callers run it periodically.
    pub fn flush_persist_all(&mut self) -> usize {
        if !self.persist_dirty() {
            return 0;
        }
        let mut still_dirty = 0;
        if self.host.flush_persist().is_err() {
            still_dirty += 1;
        }
        for inst in self.instances.values_mut() {
            if inst.framework.flush_persist().is_err() {
                still_dirty += 1;
            }
        }
        still_dirty
    }

    /// True while the host or any instance framework has persistence
    /// pending ([`Framework::persist_dirty`]); a counter read, whatever the
    /// number of instances.
    pub fn persist_dirty(&self) -> bool {
        self.dirty.any()
    }

    /// A counter that moves whenever an instance is created, adopted,
    /// started, stopped or destroyed: while it stands still, every instance's
    /// [`is_running`](crate::VirtualInstance::is_running) answers what it
    /// answered before.
    pub fn lifecycle_epoch(&self) -> u64 {
        self.lifecycle_epoch
    }

    /// The instances created, adopted, started, stopped or destroyed since
    /// the last
    /// [`clear_changed`](Self::clear_changed), by name: only their
    /// [`is_running`](crate::VirtualInstance::is_running) answers, and
    /// whether they are here at all, may have changed. `None` when more
    /// changed than the log holds ([`CHANGE_LOG_CAPACITY`](crate::CHANGE_LOG_CAPACITY)):
    /// then any instance may have.
    #[inline]
    pub fn changed(&self) -> Option<impl Iterator<Item = &str>> {
        self.changed.names()
    }

    /// Starts a new [`changed`](Self::changed) log.
    #[inline]
    pub fn clear_changed(&mut self) {
        self.changed.clear();
    }

    /// Read access to the host framework.
    pub fn host(&self) -> &Framework {
        &self.host
    }

    /// The node's bundle repository.
    pub fn repository(&self) -> &BundleRepository {
        &self.repo
    }

    /// The activator factory.
    pub fn factory(&self) -> &ActivatorFactory {
        &self.factory
    }

    // ------------------------------------------------------------------
    // Instance life-cycle
    // ------------------------------------------------------------------

    /// Creates a fresh virtual instance from `descriptor`: a nested
    /// framework with the descriptor's bundles installed (not started).
    /// The instance keeps `descriptor` as it is passed, owned or shared.
    ///
    /// # Errors
    ///
    /// [`VosgiError::DuplicateInstance`] if the name is taken,
    /// [`VosgiError::UnknownBundle`] if a bundle is not in the repository,
    /// [`VosgiError::Store`] when the initial snapshot cannot be written
    /// (creation is atomic: no instance materializes), or a wrapped
    /// framework error.
    pub fn create_instance(
        &mut self,
        descriptor: impl Into<Rc<InstanceDescriptor>>,
    ) -> Result<InstanceId, VosgiError> {
        let descriptor = descriptor.into();
        self.check_name_free(&descriptor.name)?;
        let mut fw = Framework::new(INSTANCE_FRAMEWORK);
        fw.set_metrics(self.framework_metrics.clone());
        if let Some(store) = &self.store {
            fw.attach_store(store.clone(), &descriptor.state_namespace())?;
        }
        for name in &descriptor.bundles {
            let manifest = self
                .repo
                .manifest(name)
                .ok_or_else(|| VosgiError::UnknownBundle(name.clone()))?;
            let activator = self.factory.create(manifest);
            fw.install(Arc::clone(manifest), activator)?;
        }
        self.metrics.created.incr();
        Ok(self.insert(descriptor, fw, InstanceState::Created))
    }

    /// Re-materializes an instance from its SAN-persisted framework state —
    /// the arrival half of a migration or a failover redeployment. Bundles
    /// that were running when the state was persisted come back running,
    /// each sharing the repository's manifest when its persisted one
    /// equals it. An adoption passes the cluster registry's descriptor,
    /// which the instance then shares.
    ///
    /// # Errors
    ///
    /// [`VosgiError::DuplicateInstance`], a corrupt-state framework error if
    /// no snapshot exists, [`VosgiError::NoStore`] when no SAN is attached,
    /// or a transient storage error (check
    /// [`is_transient_store`](VosgiError::is_transient_store)) when the SAN
    /// rejects the snapshot read — the caller's retry loop handles those.
    pub fn adopt_instance(
        &mut self,
        descriptor: impl Into<Rc<InstanceDescriptor>>,
    ) -> Result<InstanceId, VosgiError> {
        let descriptor = descriptor.into();
        self.check_name_free(&descriptor.name)?;
        let store = self
            .store
            .clone()
            .ok_or(VosgiError::NoStore { operation: "adopt" })?;
        let fw = Framework::restore_counted(
            FrameworkConfig::new(INSTANCE_FRAMEWORK),
            store,
            descriptor.state_namespace(),
            &self.factory,
            &*self.repo,
            self.framework_metrics.clone(),
            &self.phases,
        )?;
        let running = fw.bundles().any(|b| b.state.is_active());
        let state = if running {
            InstanceState::Running
        } else {
            InstanceState::Stopped
        };
        self.metrics.adopted.incr();
        Ok(self.insert(descriptor, fw, state))
    }

    fn check_name_free(&self, name: &str) -> Result<(), VosgiError> {
        if self.by_name.contains_key(name) {
            return Err(VosgiError::DuplicateInstance(name.to_owned()));
        }
        Ok(())
    }

    fn insert(
        &mut self,
        descriptor: Rc<InstanceDescriptor>,
        mut framework: Framework,
        state: InstanceState,
    ) -> InstanceId {
        framework.share_dirty_count(&self.dirty);
        self.lifecycle_epoch += 1;
        let id = InstanceId(self.next);
        self.next += 1;
        self.changed.log(NameKey(Rc::clone(&descriptor)));
        self.by_name.insert(NameKey(Rc::clone(&descriptor)), id);
        self.instances.insert(
            id,
            VirtualInstance {
                id,
                descriptor,
                state,
                framework,
            },
        );
        id
    }

    /// Starts every bundle of the instance, in id order.
    ///
    /// # Errors
    ///
    /// [`VosgiError::NoSuchInstance`]; individual activator failures are
    /// not errors — the bundle is left degraded
    /// ([`Framework::degraded_bundles`]) — so one bad bundle does not block
    /// a customer's remaining services.
    pub fn start_instance(&mut self, id: InstanceId) -> Result<(), VosgiError> {
        let inst = self.instance_mut(id)?;
        let order: Vec<BundleId> = inst.framework.bundles().map(|b| b.id).collect();
        inst.framework.resolve_all();
        for bid in order {
            if let Err(e) = inst.framework.start(bid) {
                // Recorded for the monitoring layer; other bundles continue.
                let _ = e;
            }
        }
        inst.state = InstanceState::Running;
        let key = NameKey(Rc::clone(&inst.descriptor));
        self.changed.log(key);
        self.lifecycle_epoch += 1;
        self.metrics.started.incr();
        Ok(())
    }

    /// Orderly shutdown of the instance (state persisted; restartable or
    /// adoptable elsewhere).
    ///
    /// # Errors
    ///
    /// [`VosgiError::NoSuchInstance`].
    pub fn stop_instance(&mut self, id: InstanceId) -> Result<(), VosgiError> {
        let inst = self.instance_mut(id)?;
        inst.framework.shutdown();
        inst.state = InstanceState::Stopped;
        let key = NameKey(Rc::clone(&inst.descriptor));
        self.changed.log(key);
        self.lifecycle_epoch += 1;
        self.metrics.stopped.incr();
        Ok(())
    }

    /// Removes the instance from this node. With `wipe_state`, its SAN
    /// namespace is deleted too (terminal destruction); without, the state
    /// stays for adoption by another node (the migration departure path).
    ///
    /// # Errors
    ///
    /// [`VosgiError::NoSuchInstance`]. Without `wipe_state` (the departure
    /// path) a [`VosgiError::Store`] means deferred persistence could not be
    /// flushed — the instance **stays on the node** so the caller can retry,
    /// because the SAN copy is about to become the only copy. With
    /// `wipe_state`, a storage error means the instance is gone from this
    /// node but the durable wipe is outstanding.
    pub fn destroy_instance(&mut self, id: InstanceId, wipe_state: bool) -> Result<(), VosgiError> {
        self.lifecycle_epoch += 1;
        let inst = self
            .instances
            .get_mut(&id)
            .ok_or(VosgiError::NoSuchInstance(id))?;
        self.changed.log(NameKey(Rc::clone(&inst.descriptor)));
        if inst.state == InstanceState::Running {
            inst.framework.shutdown();
            inst.state = InstanceState::Stopped;
        }
        if !wipe_state {
            inst.framework.flush_persist()?;
        }
        let mut inst = self
            .instances
            .remove(&id)
            .expect("looked up the id just above");
        self.by_name.remove(inst.descriptor.name.as_str());
        inst.state = InstanceState::Destroyed;
        if wipe_state {
            if let Some(store) = &self.store {
                store.delete_namespace(&inst.descriptor.state_namespace())?;
            }
        }
        self.metrics.destroyed.incr();
        Ok(())
    }

    /// Installs (and starts) an additional bundle from the repository into
    /// a *running* instance — the paper's plugin-style extension: "adding
    /// new functionality to an existing system could be achieved by adding
    /// a new bundle … without disrupting the production environment".
    ///
    /// # Errors
    ///
    /// [`VosgiError::NoSuchInstance`], [`VosgiError::UnknownBundle`], or a
    /// wrapped framework error.
    pub fn install_bundle(
        &mut self,
        id: InstanceId,
        symbolic_name: &str,
    ) -> Result<BundleId, VosgiError> {
        let manifest = Arc::clone(
            self.repo
                .manifest(symbolic_name)
                .ok_or_else(|| VosgiError::UnknownBundle(symbolic_name.to_owned()))?,
        );
        let activator = self.factory.create(&manifest);
        let inst = self.instance_mut(id)?;
        let bid = inst.framework.install(manifest, activator)?;
        if inst.state == InstanceState::Running {
            inst.framework.start(bid)?;
        }
        Ok(bid)
    }

    /// Hot-swaps a bundle of a running instance **with state handoff**
    /// ([`Framework::upgrade_bundle`]): the old revision quiesces, its
    /// persisted state flushes to the SAN, the new revision adopts it —
    /// all while the instance's other bundles keep serving. An incompatible
    /// target (different symbolic name or major version than the state's
    /// owner) is rejected before the old revision stops.
    ///
    /// # Errors
    ///
    /// [`VosgiError::NoSuchInstance`], [`VosgiError::UnknownBundle`] when
    /// the instance has no bundle of that name, or a wrapped framework
    /// error — [`is_transient_store`](VosgiError::is_transient_store)
    /// distinguishes a retryable SAN fault during the persist phase (the
    /// old revision was rolled back and still serves) from a permanent
    /// rejection.
    pub fn upgrade_bundle(
        &mut self,
        id: InstanceId,
        symbolic_name: &str,
        manifest: dosgi_osgi::BundleManifest,
    ) -> Result<UpgradeReport, VosgiError> {
        let activator = self.factory.create(&manifest);
        let inst = self.instance_mut(id)?;
        let bid = inst
            .framework
            .find_bundle(symbolic_name)
            .ok_or_else(|| VosgiError::UnknownBundle(symbolic_name.to_owned()))?;
        let report = inst.framework.upgrade_bundle(bid, manifest, activator)?;
        self.metrics.upgraded.incr();
        Ok(report)
    }

    // ------------------------------------------------------------------
    // Delegation paths (the "virtual" in virtual OSGi)
    // ------------------------------------------------------------------

    /// Loads a class for `bundle` inside instance `id`.
    ///
    /// Lookup order is the paper's: *"the virtual instance undergoes the
    /// normal lookup process and if this fails it checks the custom
    /// classloader"*, which forwards to the host **only** for explicitly
    /// exported packages.
    ///
    /// # Errors
    ///
    /// [`LoadError::NotExported`] (wrapped) when the class exists only in a
    /// host package that is not on the instance's export list — the
    /// leak-prevention property; otherwise the usual [`LoadError`]s.
    pub fn load_class(
        &mut self,
        id: InstanceId,
        bundle: BundleId,
        symbol: &SymbolName,
    ) -> Result<ClassRef, VosgiError> {
        let inst = self
            .instances
            .get_mut(&id)
            .ok_or(VosgiError::NoSuchInstance(id))?;
        match inst.framework.load_class(bundle, symbol) {
            Ok(r) => Ok(r),
            Err(LoadError::NotFound(_)) => {
                if !inst
                    .descriptor
                    .shared_packages
                    .iter()
                    .any(|p| p == symbol.package())
                {
                    return Err(LoadError::NotExported(symbol.package().clone()).into());
                }
                // Delegated to the host: find a host exporter of the package.
                let exporter = self
                    .host
                    .bundles()
                    .filter(|b| b.state.is_resolved())
                    .find_map(|b| {
                        b.manifest
                            .exports
                            .iter()
                            .find(|e| &e.name == symbol.package())
                            .map(|e| (b.id, e))
                    });
                match exporter {
                    Some((host_bundle, export)) => {
                        Ok(export.load(symbol, host_bundle, LoadPath::HostDelegation)?)
                    }
                    None => Err(LoadError::NotFound(symbol.clone()).into()),
                }
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Calls `interface`'s best provider as seen from instance `id`:
    /// instance-local services first, then host services **iff** the
    /// interface is on the instance's shared-service list. The call's
    /// write-through counts as `call.persist`.
    ///
    /// # Errors
    ///
    /// [`VosgiError::Denied`] when the service exists on the host but is not
    /// exported to this instance; [`ServiceError::NoSuchService`] (wrapped)
    /// when nobody offers it.
    pub fn call_service(
        &mut self,
        id: InstanceId,
        interface: &str,
        method: &str,
        arg: &Value,
    ) -> Result<Value, VosgiError> {
        let inst = self
            .instances
            .get_mut(&id)
            .ok_or(VosgiError::NoSuchInstance(id))?;
        if let Some(sid) = inst.framework.best_service(interface) {
            let reply = inst
                .framework
                .call_service_counted(sid, method, arg, &self.phases);
            return Ok(reply?);
        }
        let shared = inst
            .descriptor
            .shared_services
            .iter()
            .any(|s| s == interface);
        match self.host.best_service(interface) {
            Some(sid) if shared => {
                let reply = self
                    .host
                    .call_service_counted(sid, method, arg, &self.phases);
                Ok(reply?)
            }
            Some(_) => Err(VosgiError::Denied(format!(
                "service {interface} exists on the host but is not exported to {}",
                inst.descriptor.name
            ))),
            None => Err(ServiceError::NoSuchService(interface.to_owned()).into()),
        }
    }

    // ------------------------------------------------------------------
    // Sandboxed I/O (the SecurityManager analogue)
    // ------------------------------------------------------------------

    /// A simulated file write by instance `id`.
    ///
    /// # Errors
    ///
    /// [`VosgiError::Denied`] unless the instance's policy grants write
    /// access to the path, [`VosgiError::QuotaExceeded`] when it would
    /// exceed the disk quota.
    pub fn fs_write(&mut self, id: InstanceId, path: &str, bytes: u64) -> Result<(), VosgiError> {
        let inst = self
            .instances
            .get_mut(&id)
            .ok_or(VosgiError::NoSuchInstance(id))?;
        if !inst.descriptor.policy.allows_file(path, Access::Write) {
            return Err(VosgiError::Denied(format!("write {path}")));
        }
        let usage = inst.usage();
        // A sum past `u64::MAX` is over any quota.
        let after = usage.disk.checked_add(bytes);
        if after.is_none_or(|after| after > inst.descriptor.quota.disk_bytes) {
            return Err(VosgiError::QuotaExceeded(format!(
                "disk: {} + {bytes} > {}",
                usage.disk, inst.descriptor.quota.disk_bytes
            )));
        }
        inst.framework
            .ledger_mut()
            .charge_disk(INSTANCE_ACCOUNT, bytes);
        Ok(())
    }

    /// A simulated file read by instance `id`.
    ///
    /// # Errors
    ///
    /// [`VosgiError::Denied`] unless the policy grants read access.
    pub fn fs_read(&self, id: InstanceId, path: &str) -> Result<(), VosgiError> {
        let inst = self
            .instances
            .get(&id)
            .ok_or(VosgiError::NoSuchInstance(id))?;
        if !inst.descriptor.policy.allows_file(path, Access::Read) {
            return Err(VosgiError::Denied(format!("read {path}")));
        }
        Ok(())
    }

    /// A simulated socket bind by instance `id`.
    ///
    /// # Errors
    ///
    /// [`VosgiError::Denied`] unless the policy grants the bind.
    pub fn net_bind(&self, id: InstanceId, ip: IpAddr, port: Port) -> Result<(), VosgiError> {
        let inst = self
            .instances
            .get(&id)
            .ok_or(VosgiError::NoSuchInstance(id))?;
        if !inst.descriptor.policy.allows_bind(ip, port) {
            return Err(VosgiError::Denied(format!("bind {ip}:{port}")));
        }
        Ok(())
    }

    /// A simulated outbound connection by instance `id`.
    ///
    /// # Errors
    ///
    /// [`VosgiError::Denied`] unless the policy grants the connect.
    pub fn net_connect(&self, id: InstanceId, ip: IpAddr) -> Result<(), VosgiError> {
        let inst = self
            .instances
            .get(&id)
            .ok_or(VosgiError::NoSuchInstance(id))?;
        if !inst.descriptor.policy.allows_connect(ip) {
            return Err(VosgiError::Denied(format!("connect {ip}")));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Introspection / monitoring hooks
    // ------------------------------------------------------------------

    /// Looks up an instance.
    pub fn instance(&self, id: InstanceId) -> Option<&VirtualInstance> {
        self.instances.get(&id)
    }

    fn instance_mut(&mut self, id: InstanceId) -> Result<&mut VirtualInstance, VosgiError> {
        self.instances
            .get_mut(&id)
            .ok_or(VosgiError::NoSuchInstance(id))
    }

    /// Iterates over instances in id order.
    pub fn instances(&self) -> impl Iterator<Item = &VirtualInstance> {
        self.instances.values()
    }

    /// Finds an instance by name.
    pub fn find_by_name(&self, name: &str) -> Option<InstanceId> {
        self.by_name.get(name).copied()
    }

    /// Number of (non-destroyed) instances.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// True when no instances exist.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// An instance's aggregate usage.
    ///
    /// # Errors
    ///
    /// [`VosgiError::NoSuchInstance`].
    pub fn usage(&self, id: InstanceId) -> Result<UsageSnapshot, VosgiError> {
        self.instances
            .get(&id)
            .map(|i| i.usage())
            .ok_or(VosgiError::NoSuchInstance(id))
    }

    /// Evaluates an instance's quota against CPU consumed over a window.
    ///
    /// # Errors
    ///
    /// [`VosgiError::NoSuchInstance`].
    pub fn check_quota(
        &self,
        id: InstanceId,
        cpu_in_window: SimDuration,
        window: SimDuration,
    ) -> Result<Vec<QuotaViolation>, VosgiError> {
        let inst = self
            .instances
            .get(&id)
            .ok_or(VosgiError::NoSuchInstance(id))?;
        Ok(inst
            .descriptor
            .quota
            .check(&inst.usage(), cpu_in_window, window))
    }
}

/// The pseudo bundle id charged for instance-level (non-bundle) I/O.
pub(crate) const INSTANCE_ACCOUNT: BundleId = BundleId(0);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InstanceDescriptor, ResourceQuota, SecurityPolicy};
    use dosgi_osgi::{CallContext, FnActivator, ManifestBuilder, Version};

    const LOGGER_IFACE: &str = "org.host.log.Logger";

    /// Builds a host framework exporting a log package + service, the way
    /// the paper runs the log/HTTP/JMX services in the underlying
    /// environment.
    fn host() -> Framework {
        let mut fw = Framework::new("host");
        let m = ManifestBuilder::new("org.host.log", Version::new(1, 0, 0))
            .export_package("org.host.log.api", Version::new(1, 0, 0), ["Logger"])
            .build()
            .unwrap();
        let id = fw
            .install(
                m,
                Some(Box::new(FnActivator::on_start(|ctx| {
                    ctx.register_service(
                        &[LOGGER_IFACE],
                        Box::new(
                            |ctx: &mut CallContext<'_>, method: &str, arg: &Value| match method {
                                "log" => {
                                    ctx.charge_cpu(SimDuration::from_micros(5));
                                    Ok(arg.clone())
                                }
                                m => Err(ServiceError::Failed(format!("no {m}"))),
                            },
                        ),
                    );
                    Ok(())
                }))),
            )
            .unwrap();
        fw.start(id).unwrap();
        fw
    }

    fn repo_and_factory() -> (BundleRepository, ActivatorFactory) {
        let mut repo = BundleRepository::new();
        repo.add(
            ManifestBuilder::new("org.cust.app", Version::new(1, 0, 0))
                .private_package("org.cust.app.impl", ["Main"])
                .build()
                .unwrap(),
        );
        let mut factory = ActivatorFactory::new();
        factory.register("org.cust.app", |_| {
            Box::new(FnActivator::on_start(|ctx| {
                ctx.register_service(
                    &["org.cust.app.Api"],
                    Box::new(
                        |_: &mut CallContext<'_>, method: &str, _: &Value| match method {
                            "ping" => Ok(Value::from("pong")),
                            m => Err(ServiceError::Failed(format!("no {m}"))),
                        },
                    ),
                );
                Ok(())
            }))
        });
        (repo, factory)
    }

    fn manager() -> InstanceManager {
        let (repo, factory) = repo_and_factory();
        InstanceManager::new(host(), repo, factory)
    }

    /// A manager whose repository and factory also know `org.cust.extra`,
    /// registered before the manager shares them.
    fn manager_with_extra() -> InstanceManager {
        let (mut repo, mut factory) = repo_and_factory();
        repo.add(
            ManifestBuilder::new("org.cust.extra", Version::new(1, 0, 0))
                .build()
                .unwrap(),
        );
        factory.register("org.cust.extra", |_| {
            Box::new(FnActivator::on_start(|ctx| {
                ctx.register_service(
                    &["org.cust.extra.Api"],
                    Box::new(|_: &mut CallContext<'_>, _: &str, _: &Value| Ok(Value::Int(42))),
                );
                Ok(())
            }))
        });
        InstanceManager::new(host(), repo, factory)
    }

    fn descriptor(name: &str) -> InstanceDescriptor {
        InstanceDescriptor::builder("acme", name)
            .bundle("org.cust.app")
            .share_package("org.host.log.api")
            .share_service(LOGGER_IFACE)
            .build()
    }

    #[test]
    fn create_start_stop_destroy_cycle() {
        let mut mgr = manager();
        let mut epoch = mgr.lifecycle_epoch();
        let mut moved = |mgr: &InstanceManager| {
            let before = std::mem::replace(&mut epoch, mgr.lifecycle_epoch());
            epoch != before
        };
        let id = mgr.create_instance(descriptor("a")).unwrap();
        assert!(moved(&mgr));
        assert_eq!(mgr.instance(id).unwrap().state, InstanceState::Created);
        mgr.start_instance(id).unwrap();
        assert!(moved(&mgr));
        assert!(mgr.instance(id).unwrap().is_running());
        // The customer bundle's own service works.
        let out = mgr
            .call_service(id, "org.cust.app.Api", "ping", &Value::Null)
            .unwrap();
        assert_eq!(out, Value::from("pong"));
        assert!(!moved(&mgr), "a call changes no instance's state");
        mgr.stop_instance(id).unwrap();
        assert!(moved(&mgr));
        assert_eq!(mgr.instance(id).unwrap().state, InstanceState::Stopped);
        mgr.destroy_instance(id, true).unwrap();
        assert!(moved(&mgr));
        assert!(mgr.instance(id).is_none());
        assert!(mgr.is_empty());
    }

    #[test]
    fn every_lifecycle_write_logs_its_instance_once() {
        let mut mgr = manager();
        let taken = |mgr: &mut InstanceManager| {
            let names: Option<Vec<String>> = mgr.changed().map(|n| n.map(str::to_owned).collect());
            mgr.clear_changed();
            names.expect("no overflow")
        };
        let a = mgr.create_instance(descriptor("a")).unwrap();
        mgr.create_instance(descriptor("b")).unwrap();
        mgr.start_instance(a).unwrap();
        assert_eq!(taken(&mut mgr), ["a", "b"]);
        mgr.call_service(a, "org.cust.app.Api", "ping", &Value::Null)
            .unwrap();
        assert!(
            taken(&mut mgr).is_empty(),
            "a call changes no instance's state"
        );
        mgr.stop_instance(a).unwrap();
        assert_eq!(taken(&mut mgr), ["a"]);
        mgr.destroy_instance(a, true).unwrap();
        assert_eq!(taken(&mut mgr), ["a"]);
        assert!(mgr.stop_instance(a).is_err());
        assert!(taken(&mut mgr).is_empty(), "no instance, nothing logged");
    }

    #[test]
    fn duplicate_names_and_unknown_bundles_rejected() {
        let mut mgr = manager();
        mgr.create_instance(descriptor("a")).unwrap();
        assert!(matches!(
            mgr.create_instance(descriptor("a")),
            Err(VosgiError::DuplicateInstance(_))
        ));
        let bad = InstanceDescriptor::builder("x", "b")
            .bundle("no.such.bundle")
            .build();
        assert!(matches!(
            mgr.create_instance(bad),
            Err(VosgiError::UnknownBundle(_))
        ));
    }

    #[test]
    fn shared_service_is_reachable_and_charged_to_the_host() {
        let mut mgr = manager();
        let id = mgr.create_instance(descriptor("a")).unwrap();
        mgr.start_instance(id).unwrap();
        let out = mgr
            .call_service(id, LOGGER_IFACE, "log", &Value::from("hello"))
            .unwrap();
        assert_eq!(out, Value::from("hello"));
        // The CPU charge landed on the host's ledger, not the instance's.
        assert!(mgr.host().ledger().total().cpu > SimDuration::ZERO);
        assert_eq!(mgr.usage(id).unwrap().cpu, SimDuration::ZERO);
    }

    #[test]
    fn unshared_host_service_is_denied_not_missing() {
        let mut mgr = manager();
        // Descriptor without the service share.
        let d = InstanceDescriptor::builder("acme", "a")
            .bundle("org.cust.app")
            .build();
        let id = mgr.create_instance(d).unwrap();
        mgr.start_instance(id).unwrap();
        let err = mgr
            .call_service(id, LOGGER_IFACE, "log", &Value::Null)
            .unwrap_err();
        assert!(matches!(err, VosgiError::Denied(_)), "got {err:?}");
        // A service nobody offers is NoSuchService, not Denied.
        let err = mgr
            .call_service(id, "ghost.Service", "x", &Value::Null)
            .unwrap_err();
        assert!(matches!(
            err,
            VosgiError::Service(ServiceError::NoSuchService(_))
        ));
    }

    #[test]
    fn class_delegation_respects_the_explicit_export_list() {
        let mut mgr = manager();
        let id = mgr.create_instance(descriptor("a")).unwrap();
        mgr.start_instance(id).unwrap();
        let bundle = mgr
            .instance(id)
            .unwrap()
            .framework()
            .find_bundle("org.cust.app")
            .unwrap();

        // Own class resolves locally.
        let own = SymbolName::parse("org.cust.app.impl.Main").unwrap();
        let r = mgr.load_class(id, bundle, &own).unwrap();
        assert_eq!(r.via, LoadPath::Own);

        // Shared host package delegates.
        let shared = SymbolName::parse("org.host.log.api.Logger").unwrap();
        let r = mgr.load_class(id, bundle, &shared).unwrap();
        assert_eq!(r.via, LoadPath::HostDelegation);

        // Shared package, missing symbol: precise error.
        let missing = SymbolName::parse("org.host.log.api.Nope").unwrap();
        assert!(matches!(
            mgr.load_class(id, bundle, &missing),
            Err(VosgiError::Load(LoadError::NoSuchSymbol { .. }))
        ));

        // A host package NOT on the export list must not leak.
        let d2 = InstanceDescriptor::builder("evil", "b")
            .bundle("org.cust.app")
            .build();
        let id2 = mgr.create_instance(d2).unwrap();
        mgr.start_instance(id2).unwrap();
        let bundle2 = mgr
            .instance(id2)
            .unwrap()
            .framework()
            .find_bundle("org.cust.app")
            .unwrap();
        assert!(matches!(
            mgr.load_class(id2, bundle2, &shared),
            Err(VosgiError::Load(LoadError::NotExported(_)))
        ));
    }

    #[test]
    fn adopt_rematerializes_a_running_instance() {
        let store = SharedStore::new();
        let mut mgr = manager();
        mgr.attach_store(store.clone());
        let id = mgr.create_instance(descriptor("a")).unwrap();
        mgr.start_instance(id).unwrap();
        // Departure: orderly stop, state stays in the SAN.
        mgr.stop_instance(id).unwrap();
        mgr.destroy_instance(id, false).unwrap();

        // Arrival on "another node".
        let (repo, factory) = repo_and_factory();
        let mut mgr2 = InstanceManager::new(host(), repo, factory);
        mgr2.attach_store(store);
        let id2 = mgr2.adopt_instance(descriptor("a")).unwrap();
        assert!(mgr2.instance(id2).unwrap().is_running());
        let out = mgr2
            .call_service(id2, "org.cust.app.Api", "ping", &Value::Null)
            .unwrap();
        assert_eq!(out, Value::from("pong"));
    }

    #[test]
    fn adopt_requires_a_store_and_a_snapshot() {
        let mut mgr = manager();
        assert!(matches!(
            mgr.adopt_instance(descriptor("a")),
            Err(VosgiError::NoStore { operation: "adopt" })
        ));
        mgr.attach_store(SharedStore::new());
        assert!(matches!(
            mgr.adopt_instance(descriptor("a")),
            Err(VosgiError::Framework(_))
        ));
    }

    #[test]
    fn sandbox_gates_fs_and_net() {
        let mut mgr = manager();
        let d = InstanceDescriptor::builder("acme", "a")
            .bundle("org.cust.app")
            .policy(
                SecurityPolicy::deny_all()
                    .grant_file_rw("/data/acme")
                    .grant(crate::Permission::Bind {
                        ip: IpAddr::new(10, 0, 0, 9),
                        port: Some(Port(8080)),
                    })
                    .grant(crate::Permission::Connect {
                        ip: IpAddr::new(10, 0, 0, 1),
                    }),
            )
            .build();
        let id = mgr.create_instance(d).unwrap();
        mgr.fs_write(id, "/data/acme/file", 100).unwrap();
        mgr.fs_read(id, "/data/acme/file").unwrap();
        assert!(matches!(
            mgr.fs_write(id, "/etc/passwd", 1),
            Err(VosgiError::Denied(_))
        ));
        assert!(matches!(
            mgr.fs_read(id, "/data/other"),
            Err(VosgiError::Denied(_))
        ));
        mgr.net_bind(id, IpAddr::new(10, 0, 0, 9), Port(8080))
            .unwrap();
        assert!(matches!(
            mgr.net_bind(id, IpAddr::new(10, 0, 0, 9), Port(80)),
            Err(VosgiError::Denied(_))
        ));
        mgr.net_connect(id, IpAddr::new(10, 0, 0, 1)).unwrap();
        assert!(matches!(
            mgr.net_connect(id, IpAddr::new(8, 8, 8, 8)),
            Err(VosgiError::Denied(_))
        ));
    }

    #[test]
    fn disk_quota_blocks_runaway_writes() {
        let mut mgr = manager();
        let d = InstanceDescriptor::builder("acme", "a")
            .bundle("org.cust.app")
            .policy(SecurityPolicy::deny_all().grant_file_rw("/data"))
            .quota(ResourceQuota {
                disk_bytes: 1000,
                ..ResourceQuota::standard()
            })
            .build();
        let id = mgr.create_instance(d).unwrap();
        mgr.fs_write(id, "/data/x", 600).unwrap();
        let err = mgr.fs_write(id, "/data/y", 600).unwrap_err();
        assert!(matches!(err, VosgiError::QuotaExceeded(_)));
        assert_eq!(mgr.usage(id).unwrap().disk, 600);
        // Quota check reports the memory/disk gauges too.
        let v = mgr
            .check_quota(id, SimDuration::ZERO, SimDuration::from_secs(1))
            .unwrap();
        assert!(v.is_empty());
    }

    /// A write whose size would overflow the disk account is over any
    /// quota: it is refused, and the account keeps what it held. It used
    /// to wrap the sum past the quota check (and panic in a debug build).
    #[test]
    fn regression_an_overflowing_write_cannot_bypass_the_disk_quota() {
        let mut mgr = manager();
        let d = InstanceDescriptor::builder("acme", "a")
            .bundle("org.cust.app")
            .policy(SecurityPolicy::deny_all().grant_file_rw("/data"))
            .build();
        let id = mgr.create_instance(d).unwrap();
        mgr.fs_write(id, "/data/acme/small", 100).unwrap();
        let err = mgr.fs_write(id, "/data/acme/big", u64::MAX - 50);
        assert!(matches!(err, Err(VosgiError::QuotaExceeded(_))), "{err:?}");
        assert_eq!(mgr.usage(id).unwrap().disk, 100);
    }

    #[test]
    fn bundles_install_and_update_at_runtime() {
        let mut mgr = manager_with_extra();
        let id = mgr.create_instance(descriptor("a")).unwrap();
        mgr.start_instance(id).unwrap();

        // Hot-install: the new bundle's service appears while the old one
        // keeps serving.
        mgr.install_bundle(id, "org.cust.extra").unwrap();
        assert_eq!(
            mgr.call_service(id, "org.cust.extra.Api", "x", &Value::Null)
                .unwrap(),
            Value::Int(42)
        );
        assert_eq!(
            mgr.call_service(id, "org.cust.app.Api", "ping", &Value::Null)
                .unwrap(),
            Value::from("pong")
        );
        assert!(matches!(
            mgr.install_bundle(id, "no.such"),
            Err(VosgiError::UnknownBundle(_))
        ));

        // Hot-update: bump the app bundle's version in place.
        let v11 = ManifestBuilder::new("org.cust.app", Version::new(1, 1, 0))
            .private_package("org.cust.app.impl", ["Main"])
            .build()
            .unwrap();
        mgr.upgrade_bundle(id, "org.cust.app", v11).unwrap();
        let fw = mgr.instance(id).unwrap().framework();
        let bid = fw.find_bundle("org.cust.app").unwrap();
        assert_eq!(
            fw.bundle(bid).unwrap().manifest.version,
            Version::new(1, 1, 0)
        );
        // The activator re-registered the service on restart.
        assert_eq!(
            mgr.call_service(id, "org.cust.app.Api", "ping", &Value::Null)
                .unwrap(),
            Value::from("pong")
        );
        assert!(matches!(
            mgr.upgrade_bundle(
                id,
                "ghost",
                ManifestBuilder::new("g", Version::ZERO).build().unwrap()
            ),
            Err(VosgiError::UnknownBundle(_))
        ));
    }

    #[test]
    fn bundles_upgrade_in_place_with_state_handoff() {
        let store = SharedStore::new();
        let mut mgr = manager();
        mgr.attach_store(store.clone());
        let id = mgr.create_instance(descriptor("a")).unwrap();
        mgr.start_instance(id).unwrap();
        // Seed data-area state the upgraded revision must inherit.
        {
            let fw = &mut mgr.instances.get_mut(&id).unwrap().framework;
            let bid = fw.find_bundle("org.cust.app").unwrap();
            fw.bundle_store_put(bid, "n", Value::Int(7)).unwrap();
        }
        let v11 = ManifestBuilder::new("org.cust.app", Version::new(1, 1, 0))
            .private_package("org.cust.app.impl", ["Main"])
            .build()
            .unwrap();
        let report = mgr.upgrade_bundle(id, "org.cust.app", v11).unwrap();
        assert_eq!(report.from, Version::new(1, 0, 0));
        assert_eq!(report.to, Version::new(1, 1, 0));
        // The new revision serves and sees the handed-off state.
        assert_eq!(
            mgr.call_service(id, "org.cust.app.Api", "ping", &Value::Null)
                .unwrap(),
            Value::from("pong")
        );
        {
            let fw = &mut mgr.instances.get_mut(&id).unwrap().framework;
            let bid = fw.find_bundle("org.cust.app").unwrap();
            assert_eq!(fw.bundle_store_get(bid, "n").unwrap(), Some(Value::Int(7)));
        }
        // An incompatible major is rejected without disturbing service.
        let v2 = ManifestBuilder::new("org.cust.app", Version::new(2, 0, 0))
            .private_package("org.cust.app.impl", ["Main"])
            .build()
            .unwrap();
        let err = mgr.upgrade_bundle(id, "org.cust.app", v2).unwrap_err();
        assert!(!err.is_transient_store(), "rejection is permanent: {err}");
        assert_eq!(
            mgr.call_service(id, "org.cust.app.Api", "ping", &Value::Null)
                .unwrap(),
            Value::from("pong")
        );
        assert!(matches!(
            mgr.upgrade_bundle(
                id,
                "ghost",
                ManifestBuilder::new("g", Version::ZERO).build().unwrap()
            ),
            Err(VosgiError::UnknownBundle(_))
        ));
    }

    #[test]
    fn upgrade_during_san_fault_is_transient_and_retryable() {
        use dosgi_san::FaultPlan;
        let store = SharedStore::new();
        let mut mgr = manager();
        mgr.attach_store(store.clone());
        let id = mgr.create_instance(descriptor("a")).unwrap();
        mgr.start_instance(id).unwrap();
        {
            let fw = &mut mgr.instances.get_mut(&id).unwrap().framework;
            let bid = fw.find_bundle("org.cust.app").unwrap();
            fw.bundle_store_put(bid, "n", Value::Int(3)).unwrap();
        }
        store.set_fault_plan(FaultPlan::flaky(1.0, 11));
        let v11 = ManifestBuilder::new("org.cust.app", Version::new(1, 1, 0))
            .private_package("org.cust.app.impl", ["Main"])
            .build()
            .unwrap();
        let err = mgr
            .upgrade_bundle(id, "org.cust.app", v11.clone())
            .unwrap_err();
        assert!(err.is_transient_store(), "SAN fault is retryable: {err}");
        // Rolled back: v1 still serves.
        assert_eq!(
            mgr.call_service(id, "org.cust.app.Api", "ping", &Value::Null)
                .unwrap(),
            Value::from("pong")
        );
        store.clear_faults();
        let report = mgr.upgrade_bundle(id, "org.cust.app", v11).unwrap();
        assert_eq!(report.to, Version::new(1, 1, 0));
    }

    #[test]
    fn usage_isolated_per_instance() {
        let mut mgr = manager();
        let a = mgr.create_instance(descriptor("a")).unwrap();
        let b = mgr.create_instance(descriptor("b")).unwrap();
        mgr.start_instance(a).unwrap();
        mgr.start_instance(b).unwrap();
        for _ in 0..3 {
            mgr.call_service(a, "org.cust.app.Api", "ping", &Value::Null)
                .unwrap();
        }
        assert_eq!(mgr.usage(a).unwrap().calls, 3);
        assert_eq!(mgr.usage(b).unwrap().calls, 0);
        assert_eq!(mgr.find_by_name("b"), Some(b));
        assert_eq!(mgr.len(), 2);
    }

    /// Creations, adoptions and destructions of a few names in any order:
    /// the index answers what a scan of the instances answers, and a name is
    /// refused exactly while a scan finds it.
    #[test]
    fn the_name_index_equals_a_scan_200_cases() {
        use dosgi_testkit::prop::{self, Config, Gen};
        use dosgi_testkit::{prop_verify_eq, TestRng};

        const NAMES: [&str; 4] = ["a", "b", "c", "d"];
        // (0 create | 1 adopt | 2 destroy, state kept | 3 destroy, wiped; name)
        let runs = Gen::new(|rng: &mut TestRng| {
            let steps = rng.usize_in(1, 30);
            (0..steps)
                .map(|_| (rng.u64_below(4), rng.usize_in(0, NAMES.len() - 1)))
                .collect::<Vec<_>>()
        });
        let scan = |mgr: &InstanceManager, name: &str| {
            mgr.instances()
                .find(|i| i.descriptor.name == name)
                .map(|i| i.id)
        };
        prop::check_with(&Config::with_cases(200), "name_index", &runs, |run| {
            let mut mgr = manager();
            mgr.attach_store(SharedStore::new());
            for (i, &(op, n)) in run.iter().enumerate() {
                let name = NAMES[n];
                let held = scan(&mgr, name);
                let outcome = match (op, held) {
                    (0, _) => mgr.create_instance(descriptor(name)).map(drop),
                    (1, _) => mgr.adopt_instance(descriptor(name)).map(drop),
                    (_, Some(id)) => mgr.destroy_instance(id, op == 3),
                    (_, None) => Ok(()),
                };
                let refused = matches!(outcome, Err(VosgiError::DuplicateInstance(_)));
                prop_verify_eq!(refused, op < 2 && held.is_some(), "step {i}: {outcome:?}");
                for name in NAMES {
                    prop_verify_eq!(mgr.find_by_name(name), scan(&mgr, name), "{name}, step {i}");
                }
            }
            Ok(())
        });
    }

    #[test]
    fn adopt_during_brownout_is_classified_transient() {
        use dosgi_net::SimTime;
        use dosgi_san::FaultPlan;

        let store = SharedStore::new();
        let mut mgr = manager();
        mgr.attach_store(store.clone());
        let id = mgr.create_instance(descriptor("a")).unwrap();
        mgr.start_instance(id).unwrap();
        mgr.stop_instance(id).unwrap();
        mgr.destroy_instance(id, false).unwrap();

        store.set_fault_plan(FaultPlan::none().with_brownout(SimTime::ZERO, SimTime::from_secs(5)));
        let err = mgr.adopt_instance(descriptor("a")).unwrap_err();
        assert!(err.is_transient_store(), "got {err:?}");
        // A genuinely missing snapshot is NOT transient: retrying is futile.
        store.set_now(SimTime::from_secs(5));
        let err = mgr.adopt_instance(descriptor("ghost")).unwrap_err();
        assert!(!err.is_transient_store(), "got {err:?}");
        // After the brown-out, the same adoption succeeds (the orderly stop
        // kept autostart, so the instance comes back running).
        let id2 = mgr.adopt_instance(descriptor("a")).unwrap();
        assert!(mgr.instance(id2).unwrap().is_running());
    }

    /// Regression: the handles used to be attached after `restore` had run,
    /// so an adopted framework's install / resolve / start and its rows
    /// were counted nowhere.
    #[test]
    fn adopted_frameworks_count_their_lifecycle_like_created_ones() {
        let store = SharedStore::new();
        let telemetry = Telemetry::new();
        let mut mgr = manager();
        mgr.attach_store(store);
        mgr.set_telemetry(telemetry.clone());
        let count = |name: &str| telemetry.counter(name);
        let id = mgr.create_instance(descriptor("a")).unwrap();
        mgr.start_instance(id).unwrap();
        let created = [
            count("osgi.lifecycle.installed"),
            count("osgi.lifecycle.resolved"),
            count("osgi.lifecycle.started"),
        ];
        assert_eq!(created, [1, 1, 1]);
        for adopted in 1..=3u64 {
            let id = mgr.find_by_name("a").unwrap();
            mgr.stop_instance(id).unwrap();
            mgr.destroy_instance(id, false).unwrap();
            let rows_released = count("persist.rows_written");
            mgr.adopt_instance(descriptor("a")).unwrap();
            assert_eq!(count("vosgi.lifecycle.adopted"), adopted);
            assert_eq!(
                count("osgi.lifecycle.started"),
                count("vosgi.lifecycle.created") + count("vosgi.lifecycle.adopted"),
            );
            assert_eq!(count("osgi.lifecycle.installed"), 1 + adopted);
            assert_eq!(count("osgi.lifecycle.resolved"), 1 + adopted);
            // The restore's one write: the bundle's row, ACTIVE again.
            assert_eq!(count("persist.rows_written"), rows_released + 1);
        }
    }

    #[test]
    fn destroy_wipe_failure_still_removes_the_instance() {
        use dosgi_net::SimTime;
        use dosgi_san::FaultPlan;

        let store = SharedStore::new();
        let mut mgr = manager();
        mgr.attach_store(store.clone());
        let id = mgr.create_instance(descriptor("a")).unwrap();
        assert!(!mgr.persist_dirty());
        store.set_fault_plan(FaultPlan::none().with_brownout(SimTime::ZERO, SimTime::from_secs(5)));
        mgr.start_instance(id).unwrap();
        assert!(
            mgr.persist_dirty(),
            "the start's snapshot write is deferred"
        );
        assert_eq!(mgr.flush_persist_all(), 1);
        let err = mgr.destroy_instance(id, true).unwrap_err();
        assert!(err.is_transient_store(), "got {err:?}");
        assert!(mgr.instance(id).is_none(), "gone from the node regardless");
        assert!(!mgr.persist_dirty(), "and its pending writes with it");
        // Durable state survives until a successful wipe — adoptable.
        store.set_now(SimTime::from_secs(5));
        assert!(mgr.adopt_instance(descriptor("a")).is_ok());
    }
}
