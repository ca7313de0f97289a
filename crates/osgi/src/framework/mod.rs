//! The framework: one OSGi-like platform — its bundles, their wiring and
//! services, and the state it persists. This file holds the types and the
//! read-only accessors; each concern that changes a framework has a file
//! of its own, one controller per concern:
//!
//! * [`lifecycle`] — the transitions (`install`, `start`, `stop`,
//!   `update`, `upgrade_bundle`, `uninstall`, `shutdown`) and the one
//!   revision swap `update` and `upgrade_bundle` share;
//! * [`resolution`] — wiring (`resolve_step`, `refresh`) and class loading;
//! * [`persistence`] — dirty marks, the persist of marked rows, the flush
//!   of pending ones, and `restore`;
//! * [`areas`] — bundle data areas and the service calls that use them.
//!
//! `crates/osgi/tests/lifecycle_spec.rs` is the lifecycle's executable
//! specification.

mod areas;
mod lifecycle;
mod persistence;
mod resolution;

pub use persistence::DirtyCount;

use crate::loader::BootDelegation;
use crate::persist::Row;
use crate::{
    Activator, BundleError, BundleId, BundleManifest, BundleState, DataArea, ServiceId,
    ServiceRegistry, UsageLedger, Version, Wiring,
};
use dosgi_san::{SharedStore, Value};
use dosgi_telemetry::Phases;
use persistence::DirtyMark;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Framework construction parameters.
#[derive(Debug, Clone)]
pub struct FrameworkConfig {
    /// A human-readable name, the one [`Framework::name`] reports. It names
    /// no persistence namespace: [`Framework::attach_store`],
    /// [`Framework::restore`] and [`Framework::restore_counted`] each take
    /// theirs.
    pub name: String,
    /// Packages served by the platform itself (the `java.*` analogue).
    pub boot: BootDelegation,
    /// The initial active start level.
    pub start_level: u32,
}

impl FrameworkConfig {
    /// A config named `name` with standard boot delegation and start level 1.
    pub fn new(name: impl Into<String>) -> Self {
        FrameworkConfig {
            name: name.into(),
            boot: BootDelegation::standard(),
            start_level: 1,
        }
    }
}

/// An installed bundle.
pub struct Bundle {
    /// Framework-local id.
    pub id: BundleId,
    /// The bundle's manifest, shared with the repository it was installed
    /// from, and with every framework that installed or restored it from
    /// there.
    pub manifest: Arc<BundleManifest>,
    /// Current lifecycle state.
    pub state: BundleState,
    /// Whether the bundle is persistently started (survives reboots and
    /// start-level sweeps; the OSGi "autostart" setting).
    pub autostart: bool,
    /// The revision that last owned the bundle's persisted data area.
    /// Normally equals `manifest.version`; an in-place upgrade checks the
    /// target against it before adopting the state.
    pub state_version: Version,
    pub(crate) activator: Option<Box<dyn Activator>>,
    /// The bundle's snapshot row as this framework last wrote it, in
    /// `persist::bundle_row`'s form. Built where the manifest is set
    /// (install, update, upgrade); a restore copies no row, so a restored
    /// bundle's is `Null` until its first write builds it, around the
    /// restore's known row form of the manifest when the write is the
    /// restore's own. From then on a persist rewrites its lifecycle fields
    /// in place and hands the store a reference. A row read in another
    /// form — without `state_version`, or with a field this code does not
    /// write — stays as the SAN holds it until that first write.
    pub(crate) row: Value,
}

impl fmt::Debug for Bundle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Bundle")
            .field("id", &self.id)
            .field("symbolic_name", &self.manifest.symbolic_name)
            .field("version", &self.manifest.version)
            .field("state", &self.state)
            .field("autostart", &self.autostart)
            .finish_non_exhaustive()
    }
}

/// The outcome of an in-place [`Framework::upgrade_bundle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpgradeReport {
    /// The bundle that was swapped.
    pub bundle: BundleId,
    /// The revision that quiesced and handed its state off.
    pub from: Version,
    /// The revision that adopted the state.
    pub to: Version,
    /// Rows in the handed-off data area at swap time: all the SAN holds,
    /// whether or not the old revision ever touched them.
    pub handoff_keys: usize,
}

dosgi_telemetry::metrics! {
    /// A framework's telemetry handles. Resolved against a registry once —
    /// by the instance manager, say — and cloned into each framework from
    /// then on: handing them over resolves nothing by name.
    pub struct FrameworkMetrics {
        counter installed = "osgi.lifecycle.installed",
        counter resolved = "osgi.lifecycle.resolved",
        counter started = "osgi.lifecycle.started",
        counter stopped = "osgi.lifecycle.stopped",
        counter updated = "osgi.lifecycle.updated",
        counter upgraded = "osgi.lifecycle.upgraded",
        counter uninstalled = "osgi.lifecycle.uninstalled",
        counter rows_written = "persist.rows_written",
        counter rows_skipped = "persist.rows_skipped",
    }
}

/// An OSGi-like framework instance.
///
/// See the [crate docs](crate) for the model. A `Framework` is used both as
/// the **host** platform of a node and (wrapped by `dosgi-vosgi`) as each
/// customer's **virtual instance**.
pub struct Framework {
    config: FrameworkConfig,
    bundles: BTreeMap<BundleId, Bundle>,
    next_bundle: u64,
    registry: ServiceRegistry,
    wirings: BTreeMap<BundleId, Wiring>,
    ledger: UsageLedger,
    /// Bundle data areas by symbolic name, created on first use. Ordered,
    /// so a flush visits them — and draws its fault rolls — in one order.
    areas: BTreeMap<String, DataArea>,
    store: Option<(SharedStore, String)>,
    /// Snapshot rows (header / `bundle/<id>`) whose in-memory state is
    /// ahead of the SAN; the next persist writes exactly these rows.
    /// Kept sorted, in key order; clearing it keeps its capacity, so a
    /// mark after the first allocates nothing.
    dirty_rows: Vec<Row>,
    /// Snapshot rows pending deletion on the SAN (uninstalled bundles).
    deleted_rows: Vec<Row>,
    /// Whether this framework is dirty, and its entry in the
    /// [`DirtyCount`] it was given, if any; kept equal to
    /// [`persist_dirty`](Framework::persist_dirty) by every site that
    /// changes one of the two sets above or leaves a data-area row dirty.
    dirty_mark: DirtyMark,
    /// How many times a snapshot row was marked dirty: a lifecycle
    /// operation persists when its transitions moved this.
    marks: u64,
    metrics: FrameworkMetrics,
    /// The restore's phase table while a restore runs — its activators'
    /// registrations count as `adopt.register` — and disabled otherwise.
    phases: Phases,
}

impl fmt::Debug for Framework {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Framework")
            .field("name", &self.config.name)
            .field("bundles", &self.bundles.len())
            .field("services", &self.registry.len())
            .field("start_level", &self.config.start_level)
            .finish_non_exhaustive()
    }
}

impl Framework {
    /// Creates a framework with default configuration.
    pub fn new(name: &str) -> Self {
        Self::with_config(FrameworkConfig::new(name))
    }

    /// Creates a framework from an explicit configuration.
    pub fn with_config(config: FrameworkConfig) -> Self {
        Framework {
            config,
            bundles: BTreeMap::new(),
            next_bundle: 1,
            registry: ServiceRegistry::new(),
            wirings: BTreeMap::new(),
            ledger: UsageLedger::new(),
            areas: BTreeMap::new(),
            store: None,
            dirty_rows: Vec::new(),
            deleted_rows: Vec::new(),
            dirty_mark: DirtyMark::default(),
            marks: 0,
            metrics: FrameworkMetrics::default(),
            phases: Phases::disabled(),
        }
    }

    /// Attaches telemetry handles; bundle lifecycle transitions are counted
    /// as `osgi.lifecycle.<kind>`, snapshot rows as `persist.rows_*`.
    pub fn set_metrics(&mut self, metrics: FrameworkMetrics) {
        self.metrics = metrics;
    }

    /// The framework's name.
    pub fn name(&self) -> &str {
        &self.config.name
    }

    /// The active start level.
    pub fn start_level(&self) -> u32 {
        self.config.start_level
    }

    /// The best service offering `interface`.
    pub fn best_service(&self, interface: &str) -> Option<ServiceId> {
        self.registry.best(interface)
    }

    /// Read access to the service registry.
    pub fn registry(&self) -> &ServiceRegistry {
        &self.registry
    }

    /// A bundle's current state.
    ///
    /// # Errors
    ///
    /// [`BundleError::NotFound`] for unknown ids.
    pub fn bundle_state(&self, id: BundleId) -> Result<BundleState, BundleError> {
        self.bundles
            .get(&id)
            .map(|b| b.state)
            .ok_or(BundleError::NotFound(id))
    }

    /// Looks up a bundle by id.
    pub fn bundle(&self, id: BundleId) -> Option<&Bundle> {
        self.bundles.get(&id)
    }

    /// Iterates over installed bundles in id order.
    pub fn bundles(&self) -> impl Iterator<Item = &Bundle> {
        self.bundles.values()
    }

    /// Bundles that should be running but are not: marked autostart, within
    /// the active start level, yet not `ACTIVE` — typically because their
    /// activator failed during a [`restore`](Framework::restore) (e.g. a
    /// transient SAN read error while recovering state). A restored
    /// framework with degraded bundles is only *partially* re-materialized;
    /// the adoption layer treats that as a failed adoption and retries.
    pub fn degraded_bundles(&self) -> Vec<BundleId> {
        self.bundles
            .values()
            .filter(|b| {
                b.autostart
                    && b.manifest.start_level <= self.config.start_level
                    && !b.state.is_active()
            })
            .map(|b| b.id)
            .collect()
    }

    /// Finds a bundle by symbolic name (any version; lowest id wins).
    pub fn find_bundle(&self, symbolic_name: &str) -> Option<BundleId> {
        self.bundles
            .values()
            .find(|b| b.manifest.symbolic_name.as_str() == symbolic_name)
            .map(|b| b.id)
    }

    /// The wiring of a resolved bundle.
    pub fn wiring(&self, id: BundleId) -> Option<&Wiring> {
        self.wirings.get(&id)
    }

    /// The resource-usage ledger.
    pub fn ledger(&self) -> &UsageLedger {
        &self.ledger
    }

    /// Mutable access to the ledger (activation-time accounting).
    pub fn ledger_mut(&mut self) -> &mut UsageLedger {
        &mut self.ledger
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist;
    use crate::{ActivatorFactory, FnActivator, ManifestBuilder, ServiceError};
    use dosgi_telemetry::Telemetry;

    /// A framework counting its lifecycle into a registry of its own.
    fn counted(name: &str) -> (Framework, Telemetry) {
        let telemetry = Telemetry::new();
        let mut fw = Framework::new(name);
        fw.set_metrics(FrameworkMetrics::new(&telemetry));
        (fw, telemetry)
    }

    /// The `osgi.lifecycle.*` counts `telemetry` holds: installed,
    /// resolved, started, stopped, updated, upgraded and uninstalled.
    pub(super) fn lifecycle(telemetry: &Telemetry) -> [u64; 7] {
        [
            "installed",
            "resolved",
            "started",
            "stopped",
            "updated",
            "upgraded",
            "uninstalled",
        ]
        .map(|kind| telemetry.counter(&format!("osgi.lifecycle.{kind}")))
    }

    pub(super) fn log_manifest() -> BundleManifest {
        ManifestBuilder::new("org.test.log", Version::new(1, 0, 0))
            .export_package("org.test.log.api", Version::new(1, 0, 0), ["Logger"])
            .build()
            .unwrap()
    }

    pub(super) fn app_manifest() -> BundleManifest {
        ManifestBuilder::new("org.test.app", Version::new(1, 0, 0))
            .import_package("org.test.log.api", "[1.0,2.0)".parse().unwrap())
            .private_package("org.test.app.impl", ["Main"])
            .start_level(2)
            .build()
            .unwrap()
    }

    fn log_activator() -> Box<dyn Activator> {
        Box::new(FnActivator::on_start(|ctx| {
            ctx.register_service(
                &["org.test.log.Logger"],
                Box::new(
                    |_: &mut crate::CallContext<'_>, method: &str, arg: &Value| match method {
                        "log" => Ok(arg.clone()),
                        other => Err(ServiceError::Failed(format!("no {other}"))),
                    },
                ),
            );
            Ok(())
        }))
    }

    #[test]
    fn install_assigns_ids_and_rejects_duplicates() {
        let mut fw = Framework::new("t");
        let a = fw.install(log_manifest(), None).unwrap();
        assert_eq!(a, BundleId(1));
        assert!(matches!(
            fw.install(log_manifest(), None),
            Err(BundleError::DuplicateBundle { existing }) if existing == a
        ));
        // Same name, different version is fine.
        let m2 = ManifestBuilder::new("org.test.log", Version::new(2, 0, 0))
            .build()
            .unwrap();
        assert_eq!(fw.install(m2, None).unwrap(), BundleId(2));
    }

    #[test]
    fn start_resolves_and_runs_activator() {
        let mut fw = Framework::new("t");
        let log = fw.install(log_manifest(), Some(log_activator())).unwrap();
        let app = fw.install(app_manifest(), None).unwrap();
        fw.start(log).unwrap();
        fw.start(app).unwrap();
        assert!(fw.bundle_state(log).unwrap().is_active());
        assert!(fw.bundle_state(app).unwrap().is_active());
        // The activator registered the logger service.
        let sid = fw.best_service("org.test.log.Logger").unwrap();
        let out = fw.call_service(sid, "log", &Value::from("hi")).unwrap();
        assert_eq!(out, Value::from("hi"));
        // Starting an active bundle is a no-op.
        fw.start(log).unwrap();
    }

    #[test]
    fn start_fails_cleanly_on_unresolvable_imports() {
        let mut fw = Framework::new("t");
        let app = fw.install(app_manifest(), None).unwrap();
        let err = fw.start(app).unwrap_err();
        assert!(matches!(err, BundleError::ResolutionFailed { bundle, .. } if bundle == app));
        assert_eq!(fw.bundle_state(app).unwrap(), BundleState::Installed);
    }

    #[test]
    fn failing_activator_rolls_back_and_sweeps_services() {
        let (mut fw, telemetry) = counted("t");
        let m = ManifestBuilder::new("org.test.bad", Version::new(1, 0, 0))
            .build()
            .unwrap();
        let id = fw
            .install(
                m,
                Some(Box::new(FnActivator::on_start(|ctx| {
                    // Register, then fail: the registration must be swept.
                    ctx.register_service(
                        &["ghost"],
                        Box::new(|_: &mut crate::CallContext<'_>, _: &str, _: &Value| {
                            Ok(Value::Null)
                        }),
                    );
                    Err("deliberate".to_owned())
                }))),
            )
            .unwrap();
        let err = fw.start(id).unwrap_err();
        assert!(matches!(err, BundleError::ActivatorFailed { .. }));
        assert_eq!(fw.bundle_state(id).unwrap(), BundleState::Resolved);
        assert!(fw.best_service("ghost").is_none());
        assert!(
            fw.registry().is_empty(),
            "the half-start's registration is swept"
        );
        assert_eq!(lifecycle(&telemetry)[2], 0, "a failed start is not a start");
    }

    #[test]
    fn stop_unregisters_services_and_clears_autostart() {
        let mut fw = Framework::new("t");
        let log = fw.install(log_manifest(), Some(log_activator())).unwrap();
        fw.start(log).unwrap();
        assert!(fw.bundle(log).unwrap().autostart);
        fw.stop(log).unwrap();
        assert_eq!(fw.bundle_state(log).unwrap(), BundleState::Resolved);
        assert!(!fw.bundle(log).unwrap().autostart);
        assert!(fw.best_service("org.test.log.Logger").is_none());
        // Stop of non-active bundle is a no-op.
        fw.stop(log).unwrap();
    }

    #[test]
    fn uninstall_removes_bundle_and_dependents_lose_resolution() {
        let mut fw = Framework::new("t");
        let log = fw.install(log_manifest(), Some(log_activator())).unwrap();
        let app = fw.install(app_manifest(), None).unwrap();
        fw.start(log).unwrap();
        fw.start(app).unwrap();
        fw.uninstall(log).unwrap();
        assert!(matches!(
            fw.bundle_state(log),
            Err(BundleError::NotFound(_))
        ));
        // Refresh demotes the dependent.
        fw.refresh();
        assert_eq!(fw.bundle_state(app).unwrap(), BundleState::Installed);
    }

    #[test]
    fn update_replaces_manifest_and_restarts() {
        let (mut fw, telemetry) = counted("t");
        let log = fw.install(log_manifest(), Some(log_activator())).unwrap();
        fw.start(log).unwrap();
        let v2 = ManifestBuilder::new("org.test.log", Version::new(1, 1, 0))
            .export_package(
                "org.test.log.api",
                Version::new(1, 1, 0),
                ["Logger", "Appender"],
            )
            .build()
            .unwrap();
        fw.update(log, v2, None).unwrap();
        assert!(fw.bundle_state(log).unwrap().is_active());
        assert_eq!(
            fw.bundle(log).unwrap().manifest.version,
            Version::new(1, 1, 0)
        );
        assert_eq!(lifecycle(&telemetry)[4], 1, "one update");
        // Service re-registered by the restarted activator.
        assert!(fw.best_service("org.test.log.Logger").is_some());
    }

    #[test]
    fn upgrade_hands_state_to_new_revision() {
        let store = SharedStore::new();
        let (mut fw, telemetry) = counted("u");
        fw.attach_store(store.clone(), "u").unwrap();
        let m1 = ManifestBuilder::new("org.test.ctr", Version::new(1, 0, 0))
            .build()
            .unwrap();
        let id = fw.install(m1, None).unwrap();
        fw.start(id).unwrap();
        fw.bundle_store_put(id, "n", Value::Int(41)).unwrap();
        let m2 = ManifestBuilder::new("org.test.ctr", Version::new(1, 2, 0))
            .build()
            .unwrap();
        // The new activator proves adoption: it reads the handed-off state
        // and fails the start if the handoff lost it.
        let report = fw
            .upgrade_bundle(
                id,
                m2,
                Some(Box::new(FnActivator::on_start(|ctx| {
                    match ctx.store_get("n").map_err(|e| e.to_string())? {
                        Some(Value::Int(n)) => ctx
                            .store_put("n", Value::Int(n + 1))
                            .map_err(|e| e.to_string()),
                        other => Err(format!("state not handed off: {other:?}")),
                    }
                }))),
            )
            .unwrap();
        assert_eq!(report.from, Version::new(1, 0, 0));
        assert_eq!(report.to, Version::new(1, 2, 0));
        assert_eq!(report.handoff_keys, 1);
        assert!(fw.bundle_state(id).unwrap().is_active());
        assert_eq!(fw.bundle(id).unwrap().state_version, Version::new(1, 2, 0));
        assert_eq!(fw.bundle_store_get(id, "n").unwrap(), Some(Value::Int(42)));
        assert_eq!(lifecycle(&telemetry)[5], 1, "one upgrade");
        // The swap is durable: a restore comes back at the new revision
        // with the same compatibility anchor.
        let factory = ActivatorFactory::new();
        let fw2 = Framework::restore(FrameworkConfig::new("u"), store, "u", &factory).unwrap();
        let id2 = fw2.find_bundle("org.test.ctr").unwrap();
        assert_eq!(
            fw2.bundle(id2).unwrap().manifest.version,
            Version::new(1, 2, 0)
        );
        assert_eq!(
            fw2.bundle(id2).unwrap().state_version,
            Version::new(1, 2, 0)
        );
    }

    #[test]
    fn upgrade_rejects_incompatible_targets_untouched() {
        let mut fw = Framework::new("u");
        let id = fw
            .install(
                ManifestBuilder::new("a.b", Version::new(1, 4, 0))
                    .build()
                    .unwrap(),
                None,
            )
            .unwrap();
        fw.start(id).unwrap();
        let major = ManifestBuilder::new("a.b", Version::new(2, 0, 0))
            .build()
            .unwrap();
        assert!(matches!(
            fw.upgrade_bundle(id, major, None),
            Err(BundleError::IncompatibleUpgrade { state, target, .. })
                if state == Version::new(1, 4, 0) && target == Version::new(2, 0, 0)
        ));
        let renamed = ManifestBuilder::new("a.c", Version::new(1, 5, 0))
            .build()
            .unwrap();
        assert!(matches!(
            fw.upgrade_bundle(id, renamed, None),
            Err(BundleError::IncompatibleUpgrade { .. })
        ));
        // The old revision never stopped serving.
        assert!(fw.bundle_state(id).unwrap().is_active());
        assert_eq!(
            fw.bundle(id).unwrap().manifest.version,
            Version::new(1, 4, 0)
        );
        // A downgrade within the major is a legal handoff.
        let downgrade = ManifestBuilder::new("a.b", Version::new(1, 2, 0))
            .build()
            .unwrap();
        let report = fw.upgrade_bundle(id, downgrade, None).unwrap();
        assert_eq!(report.to, Version::new(1, 2, 0));
        assert!(fw.bundle_state(id).unwrap().is_active());
    }

    #[test]
    fn upgrade_rolls_back_on_store_failure() {
        use dosgi_san::FaultPlan;
        let store = SharedStore::new();
        let mut fw = Framework::new("u");
        fw.attach_store(store.clone(), "u").unwrap();
        let id = fw
            .install(
                ManifestBuilder::new("a.b", Version::new(1, 0, 0))
                    .build()
                    .unwrap(),
                None,
            )
            .unwrap();
        fw.start(id).unwrap();
        store.set_fault_plan(FaultPlan::flaky(1.0, 7));
        let v2 = ManifestBuilder::new("a.b", Version::new(1, 1, 0))
            .build()
            .unwrap();
        let err = fw.upgrade_bundle(id, v2.clone(), None).unwrap_err();
        assert!(matches!(err, BundleError::Store(_)));
        // Rolled back: the old revision is serving again.
        assert!(fw.bundle_state(id).unwrap().is_active());
        assert_eq!(
            fw.bundle(id).unwrap().manifest.version,
            Version::new(1, 0, 0)
        );
        // Heal and retry: the same upgrade now lands.
        store.faults().clear();
        let report = fw.upgrade_bundle(id, v2, None).unwrap();
        assert_eq!(report.to, Version::new(1, 1, 0));
        assert!(fw.bundle_state(id).unwrap().is_active());
    }

    #[test]
    fn start_levels_sweep_up_and_down() {
        let mut fw = Framework::new("t");
        let log = fw.install(log_manifest(), Some(log_activator())).unwrap(); // level 1
        let app = fw.install(app_manifest(), None).unwrap(); // level 2
        fw.start(log).unwrap();
        fw.start(app).unwrap();
        // Sweep down to level 1: app stops (transiently), log stays.
        fw.set_start_level(1);
        assert_eq!(fw.bundle_state(app).unwrap(), BundleState::Resolved);
        assert!(
            fw.bundle(app).unwrap().autostart,
            "transient stop keeps autostart"
        );
        assert!(fw.bundle_state(log).unwrap().is_active());
        // Sweep back up: app restarts.
        fw.set_start_level(2);
        assert!(fw.bundle_state(app).unwrap().is_active());
        assert_eq!(fw.start_level(), 2);
    }

    #[test]
    fn shutdown_then_restore_recreates_active_set() {
        let store = SharedStore::new();
        let mut factory = ActivatorFactory::new();
        factory.register("org.test.log", |_| log_activator());

        let mut fw = Framework::new("node-a");
        fw.attach_store(store.clone(), "fw/a").unwrap();
        let log = fw.install(log_manifest(), Some(log_activator())).unwrap();
        let app = fw.install(app_manifest(), None).unwrap();
        fw.set_start_level(2);
        fw.start(log).unwrap();
        fw.start(app).unwrap();
        fw.shutdown();
        assert_eq!(fw.bundle_state(log).unwrap(), BundleState::Resolved);
        drop(fw);

        // "Another node" restores from the SAN.
        let fw2 =
            Framework::restore(FrameworkConfig::new("node-b"), store, "fw/a", &factory).unwrap();
        assert_eq!(fw2.start_level(), 2);
        assert!(fw2.bundle_state(log).unwrap().is_active());
        assert!(fw2.bundle_state(app).unwrap().is_active());
        // The activator was re-created and re-registered its service.
        assert!(fw2.best_service("org.test.log.Logger").is_some());
        // Ids preserved.
        assert_eq!(fw2.find_bundle("org.test.app"), Some(app));
    }

    #[test]
    fn restore_fails_on_missing_snapshot() {
        let err = Framework::restore(
            FrameworkConfig::new("x"),
            SharedStore::new(),
            "nope",
            &ActivatorFactory::new(),
        )
        .unwrap_err();
        assert!(matches!(err, BundleError::CorruptState(_)));

        // A monolithic `snapshot` key is not framework state: only rows are.
        let store = SharedStore::new();
        let mono = persist::snapshot(5, 2, std::iter::empty());
        store.put("old", "snapshot", mono).unwrap();
        let err = Framework::restore(
            FrameworkConfig::new("x"),
            store,
            "old",
            &ActivatorFactory::new(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            BundleError::CorruptState("no snapshot in old".to_owned())
        );
    }

    #[test]
    fn data_area_survives_restore_via_san() {
        let store = SharedStore::new();
        let mut fw = Framework::new("a");
        fw.attach_store(store.clone(), "fw/a").unwrap();
        let log = fw.install(log_manifest(), None).unwrap();
        fw.bundle_store_put(log, "counter", Value::Int(41)).unwrap();
        drop(fw);

        let mut fw2 = Framework::restore(
            FrameworkConfig::new("b"),
            store,
            "fw/a",
            &ActivatorFactory::new(),
        )
        .unwrap();
        let log2 = fw2.find_bundle("org.test.log").unwrap();
        assert_eq!(
            fw2.bundle_store_get(log2, "counter"),
            Ok(Some(Value::Int(41)))
        );
        assert_eq!(fw2.bundle_store_get(log2, "missing"), Ok(None));
    }

    #[test]
    fn ledger_tracks_service_calls() {
        let mut fw = Framework::new("t");
        let log = fw.install(log_manifest(), Some(log_activator())).unwrap();
        fw.start(log).unwrap();
        let sid = fw.best_service("org.test.log.Logger").unwrap();
        for _ in 0..5 {
            fw.call_service(sid, "log", &Value::Null).unwrap();
        }
        assert_eq!(fw.ledger().snapshot(log).calls, 5);
    }

    #[test]
    fn snapshot_bytes_reports_persisted_size() {
        let store = SharedStore::new();
        let mut fw = Framework::new("a");
        assert_eq!(fw.snapshot_bytes(), 0);
        fw.attach_store(store, "fw/a").unwrap();
        fw.install(log_manifest(), None).unwrap();
        assert!(fw.snapshot_bytes() > 0);
    }

    /// Each transition of a full lifecycle is counted once, and the
    /// registry's generation moves once for the service's registration
    /// and once for its removal.
    #[test]
    fn events_flow_for_full_lifecycle() {
        let (mut fw, telemetry) = counted("t");
        let log = fw.install(log_manifest(), Some(log_activator())).unwrap();
        fw.start(log).unwrap();
        assert_eq!(fw.registry().generation(), 1, "registered");
        fw.stop(log).unwrap();
        fw.uninstall(log).unwrap();
        assert_eq!(lifecycle(&telemetry), [1, 1, 1, 1, 0, 0, 1]);
        assert_eq!(fw.registry().generation(), 2, "unregistered");
        assert!(fw.bundles().next().is_none() && fw.registry().is_empty());
    }

    // ------------------------------------------------------------------
    // Storage fault behavior
    // ------------------------------------------------------------------

    use dosgi_net::SimTime;
    use dosgi_san::FaultPlan;

    fn counter_activator() -> Box<dyn Activator> {
        Box::new(FnActivator::on_start(|ctx| {
            ctx.register_service(
                &["org.test.Counter"],
                Box::new(
                    |cc: &mut crate::CallContext<'_>, method: &str, _: &Value| match method {
                        "incr" => {
                            let n = match cc.store_get("n")? {
                                Some(Value::Int(n)) => n,
                                _ => 0,
                            };
                            cc.store_put("n", Value::Int(n + 1));
                            Ok(Value::Int(n + 1))
                        }
                        other => Err(ServiceError::Failed(format!("no {other}"))),
                    },
                ),
            );
            Ok(())
        }))
    }

    #[test]
    fn persist_failure_defers_then_flush_converges() {
        let store = SharedStore::new();
        let mut fw = Framework::new("a");
        fw.attach_store(store.clone(), "fw/a").unwrap();
        fw.install(log_manifest(), None).unwrap();
        let count = DirtyCount::default();
        fw.share_dirty_count(&count);
        assert!(!count.any());

        // Brown-out: the lifecycle mutation proceeds in memory, the
        // snapshot write is deferred (write-behind).
        store.set_fault_plan(FaultPlan::none().with_brownout(SimTime::ZERO, SimTime::from_secs(5)));
        let app = fw.install(app_manifest(), None).unwrap();
        assert!(fw.persist_dirty());
        assert!(count.any());
        assert!(fw.bundle_state(app).is_ok());
        assert!(fw.flush_persist().is_err(), "still browned out");
        assert!(count.any());

        // A second framework dirty under the same count, then dropped:
        // its share goes with it.
        let mut other = Framework::new("other");
        other.share_dirty_count(&count);
        assert!(other.attach_store(store.clone(), "fw/other").is_err());
        drop(other);
        assert!(count.any(), "the first framework is still dirty");

        // Heal, flush: durable state converges and restore sees both.
        store.set_now(SimTime::from_secs(5));
        fw.flush_persist().unwrap();
        assert!(!fw.persist_dirty());
        assert!(!count.any());
        drop(fw);
        let fw2 = Framework::restore(
            FrameworkConfig::new("b"),
            store,
            "fw/a",
            &ActivatorFactory::new(),
        )
        .unwrap();
        assert!(fw2.find_bundle("org.test.app").is_some());
    }

    #[test]
    fn unacked_service_write_is_reflushed_not_lost() {
        let store = SharedStore::new();
        let mut fw = Framework::new("a");
        fw.attach_store(store.clone(), "fw/a").unwrap();
        let c = fw
            .install(
                ManifestBuilder::new("org.test.counter", Version::new(1, 0, 0))
                    .build()
                    .unwrap(),
                Some(counter_activator()),
            )
            .unwrap();
        fw.start(c).unwrap();
        let sid = fw.best_service("org.test.Counter").unwrap();
        assert_eq!(
            fw.call_service(sid, "incr", &Value::Null),
            Ok(Value::Int(1))
        );

        // Brown-out: the increment applies in memory but the write-through
        // fails, so the caller must NOT count it as acknowledged.
        store.set_fault_plan(FaultPlan::none().with_brownout(SimTime::ZERO, SimTime::from_secs(5)));
        assert!(matches!(
            fw.call_service(sid, "incr", &Value::Null),
            Err(ServiceError::Store(dosgi_san::StoreError::Unavailable))
        ));
        assert!(fw.persist_dirty());
        assert_eq!(
            store.peek("fw/a/data/org.test.counter", "n"),
            Some(Value::Int(1)),
            "durable state keeps only the acknowledged increment"
        );

        // Heal and flush: the deferred write lands; SAN ≥ acked holds.
        store.set_now(SimTime::from_secs(5));
        fw.flush_persist().unwrap();
        assert_eq!(
            store.peek("fw/a/data/org.test.counter", "n"),
            Some(Value::Int(2))
        );
    }

    /// The row a failed write-through left dirty goes out with the next
    /// write of its area that lands, and the shared count hears of it.
    #[test]
    fn a_later_acknowledged_write_clears_the_dirty_count() {
        let store = SharedStore::new();
        let mut fw = Framework::new("a");
        fw.attach_store(store.clone(), "fw/a").unwrap();
        let log = fw.install(log_manifest(), None).unwrap();
        let count = DirtyCount::default();
        fw.share_dirty_count(&count);
        store.set_fault_plan(FaultPlan::flaky(1.0, 7));
        assert!(fw.bundle_store_put(log, "a", Value::Int(1)).is_err());
        assert!(fw.persist_dirty() && count.any());
        store.clear_faults();
        fw.bundle_store_put(log, "b", Value::Int(2)).unwrap();
        assert_eq!(
            store.peek("fw/a/data/org.test.log", "a"),
            Some(Value::Int(1))
        );
        assert!(!fw.persist_dirty() && !count.any());
    }

    #[test]
    fn restore_surfaces_transient_store_errors() {
        let store = SharedStore::new();
        let mut fw = Framework::new("a");
        fw.attach_store(store.clone(), "fw/a").unwrap();
        fw.install(log_manifest(), None).unwrap();
        drop(fw);

        store.set_fault_plan(FaultPlan::none().with_brownout(SimTime::ZERO, SimTime::from_secs(5)));
        let err = Framework::restore(
            FrameworkConfig::new("b"),
            store.clone(),
            "fw/a",
            &ActivatorFactory::new(),
        )
        .unwrap_err();
        assert!(matches!(&err, BundleError::Store(e) if e.is_transient()));

        store.set_now(SimTime::from_secs(5));
        assert!(Framework::restore(
            FrameworkConfig::new("b"),
            store,
            "fw/a",
            &ActivatorFactory::new(),
        )
        .is_ok());
    }

    /// An install writes `[bundle/<n>, header]`; a batch torn after its first
    /// row leaves the header one bundle behind. A restore of that must not
    /// hand the bundle's id out again — a later install would overwrite it —
    /// and converges the header.
    #[test]
    fn regression_a_torn_install_batch_reuses_no_bundle_id() {
        let store = SharedStore::new();
        let mut fw = Framework::new("a");
        fw.attach_store(store.clone(), "fw/a").unwrap();
        for name in ["a", "b", "c"] {
            let manifest = ManifestBuilder::new(name, Version::new(1, 0, 0));
            fw.install(manifest.build().unwrap(), None).unwrap();
        }
        drop(fw);
        store
            .put("fw/a", persist::HEADER_KEY, persist::header_row(3, 1))
            .unwrap();
        let factory = ActivatorFactory::new();
        let mut fw =
            Framework::restore(FrameworkConfig::new("a"), store.clone(), "fw/a", &factory).unwrap();
        let header = store.peek("fw/a", persist::HEADER_KEY).unwrap();
        assert_eq!(header.get("next_bundle"), Some(&Value::Int(4)));
        let d = ManifestBuilder::new("d", Version::new(1, 0, 0));
        assert_eq!(fw.install(d.build().unwrap(), None), Ok(BundleId(4)));
        let names: Vec<&str> = fw
            .bundles()
            .map(|b| b.manifest.symbolic_name.as_str())
            .collect();
        assert_eq!(names, ["a", "b", "c", "d"]);
    }

    /// A row written before `state_version` existed restores (the field
    /// defaults to the manifest version), and is kept as read: the next
    /// persist of its bundle writes the field into it, so the SAN then holds
    /// the row `bundle_row` builds.
    #[test]
    fn a_kept_row_gains_the_fields_it_was_read_without() {
        let store = SharedStore::new();
        let manifest = log_manifest();
        let legacy = Value::map()
            .with("id", 1u64)
            .with("manifest", manifest.to_value())
            .with("state", "INSTALLED");
        store.put("fw/a", "bundle/1", legacy).unwrap();
        store
            .put("fw/a", persist::HEADER_KEY, persist::header_row(2, 1))
            .unwrap();
        let factory = ActivatorFactory::new();
        let mut fw =
            Framework::restore(FrameworkConfig::new("a"), store.clone(), "fw/a", &factory).unwrap();
        fw.start(BundleId(1)).unwrap();
        let b = fw.bundle(BundleId(1)).unwrap();
        assert_eq!(b.state_version, manifest.version);
        let row = store.peek("fw/a", "bundle/1").unwrap();
        assert_eq!(row.encode(), persist::bundle_row(b).encode());
    }
}
