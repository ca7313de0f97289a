//! The framework: bundle lifecycle orchestration, class loading, services,
//! start levels and persistent state.

use crate::loader::BootDelegation;
use crate::loader::LoadPath;
use crate::persist;
use crate::{
    Activator, ActivatorFactory, BundleContext, BundleError, BundleEvent, BundleEventKind,
    BundleId, BundleManifest, BundleState, ClassRef, DataArea, FrameworkEvent, LoadError,
    PropValue, Service, ServiceError, ServiceEvent, ServiceId, ServiceRegistry, SymbolName,
    UsageLedger, Version, Wiring,
};
use dosgi_san::{SharedStore, StoreError, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Framework construction parameters.
#[derive(Debug, Clone)]
pub struct FrameworkConfig {
    /// A human-readable name; also the default persistence namespace.
    pub name: String,
    /// Packages served by the platform itself (the `java.*` analogue).
    pub boot: BootDelegation,
    /// The initial active start level.
    pub start_level: u32,
}

impl FrameworkConfig {
    /// A config named `name` with standard boot delegation and start level 1.
    pub fn new(name: &str) -> Self {
        FrameworkConfig {
            name: name.to_owned(),
            boot: BootDelegation::standard(),
            start_level: 1,
        }
    }
}

/// An installed bundle.
pub struct Bundle {
    /// Framework-local id.
    pub id: BundleId,
    /// The bundle's manifest.
    pub manifest: BundleManifest,
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
    /// The bundle's snapshot row in the form the SAN holds it. Built where
    /// the manifest is set (install, update, upgrade) and kept as read by a
    /// restore; a persist rewrites its lifecycle fields in place and hands
    /// the store a reference, so no write builds or re-serializes a row.
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
    bundle_events: Vec<BundleEvent>,
    framework_events: Vec<FrameworkEvent>,
    /// Bundle data areas by symbolic name, created on first use. Ordered,
    /// so a flush visits them — and draws its fault rolls — in one order.
    areas: BTreeMap<String, DataArea>,
    store: Option<(SharedStore, String)>,
    /// Snapshot rows (header / `bundle/<id>`) whose in-memory state is
    /// ahead of the SAN; the next persist writes exactly these rows.
    dirty_rows: BTreeSet<String>,
    /// Snapshot rows pending deletion on the SAN (uninstalled bundles).
    deleted_rows: BTreeSet<String>,
    /// This framework's entry in a [`DirtyCount`], kept equal to
    /// [`persist_dirty`](Framework::persist_dirty) by every site that
    /// changes one of the two sets above or leaves a data-area row dirty.
    dirty_mark: DirtyMark,
    /// How many times a snapshot row was marked dirty: a lifecycle
    /// operation persists when its transitions moved this.
    marks: u64,
    metrics: FrameworkMetrics,
}

/// How many of the frameworks sharing this count have persistence pending
/// (see [`Framework::persist_dirty`]): the instance manager's O(1) answer
/// to "is there anything to flush?".
#[derive(Debug, Clone, Default)]
pub struct DirtyCount(Arc<AtomicUsize>);

impl DirtyCount {
    /// True if any framework counted here has persistence pending.
    pub fn any(&self) -> bool {
        // Relaxed: a tally read by the thread that owns the frameworks; it
        // publishes no other data.
        self.0.load(Ordering::Relaxed) != 0
    }
}

/// One framework's contribution to a [`DirtyCount`]; withdrawn on drop, so
/// a framework destroyed while dirty does not leave the count stuck.
#[derive(Debug, Default)]
struct DirtyMark {
    count: DirtyCount,
    counted: bool,
}

impl DirtyMark {
    fn set(&mut self, dirty: bool) {
        if dirty != self.counted {
            self.counted = dirty;
            if dirty {
                self.count.0.fetch_add(1, Ordering::Relaxed);
            } else {
                self.count.0.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }
}

impl Drop for DirtyMark {
    fn drop(&mut self) {
        self.set(false);
    }
}

/// The SAN namespace of the data area of the bundles named `sn` in the
/// framework persisted under `namespace`.
fn area_namespace(namespace: &str, sn: &str) -> String {
    format!("{namespace}/data/{sn}")
}

/// The data area of the bundles named `sn`, created — its name and SAN
/// namespace built — the first time it is asked for. A free function over
/// the two fields so that callers keep their borrows of the others.
fn area_of<'a>(
    areas: &'a mut BTreeMap<String, DataArea>,
    store: &Option<(SharedStore, String)>,
    sn: &str,
) -> &'a mut DataArea {
    if !areas.contains_key(sn) {
        let mut area = DataArea::default();
        if let Some((store, ns)) = store {
            area.attach(store.clone(), area_namespace(ns, sn));
        }
        areas.insert(sn.to_owned(), area);
    }
    areas.get_mut(sn).expect("inserted just above")
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
        let mut fw = Framework {
            config,
            bundles: BTreeMap::new(),
            next_bundle: 1,
            registry: ServiceRegistry::new(),
            wirings: BTreeMap::new(),
            ledger: UsageLedger::new(),
            bundle_events: Vec::new(),
            framework_events: Vec::new(),
            areas: BTreeMap::new(),
            store: None,
            dirty_rows: BTreeSet::new(),
            deleted_rows: BTreeSet::new(),
            dirty_mark: DirtyMark::default(),
            marks: 0,
            metrics: FrameworkMetrics::default(),
        };
        fw.framework_events.push(FrameworkEvent::Started);
        fw
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

    /// Attaches a SAN store; framework state and bundle data areas become
    /// persistent under `namespace`, as the OSGi specification requires.
    ///
    /// # Errors
    ///
    /// The initial write (the snapshot, and data-area rows written while
    /// no store was attached) may fail with a transient [`StoreError`]; the
    /// store stays attached and the rest is flushed on the next successful
    /// [`flush_persist`](Self::flush_persist).
    pub fn attach_store(&mut self, store: SharedStore, namespace: &str) -> Result<(), StoreError> {
        for (sn, area) in &mut self.areas {
            area.attach(store.clone(), area_namespace(namespace, sn));
        }
        self.store = Some((store, namespace.to_owned()));
        self.mark_all_rows_dirty();
        self.flush_persist()
    }

    /// Counts this framework's pending persistence in `count` from now on
    /// (instead of in a count of its own).
    pub fn share_dirty_count(&mut self, count: &DirtyCount) {
        self.dirty_mark = DirtyMark {
            count: count.clone(),
            counted: false,
        };
        self.sync_dirty_mark();
    }

    fn sync_dirty_mark(&mut self) {
        let dirty = self.persist_dirty();
        self.dirty_mark.set(dirty);
    }

    // ------------------------------------------------------------------
    // Lifecycle
    // ------------------------------------------------------------------

    /// Installs a bundle, leaving it `INSTALLED`.
    ///
    /// # Errors
    ///
    /// [`BundleError::DuplicateBundle`] if a bundle with the same symbolic
    /// name and version is already installed.
    pub fn install(
        &mut self,
        manifest: BundleManifest,
        activator: Option<Box<dyn Activator>>,
    ) -> Result<BundleId, BundleError> {
        if let Some(existing) = self.bundles.values().find(|b| {
            b.manifest.symbolic_name == manifest.symbolic_name
                && b.manifest.version == manifest.version
        }) {
            return Err(BundleError::DuplicateBundle {
                existing: existing.id,
            });
        }
        let id = BundleId(self.next_bundle);
        self.next_bundle += 1;
        let state_version = manifest.version;
        let mut bundle = Bundle {
            id,
            manifest,
            state: BundleState::Installed,
            autostart: false,
            state_version,
            activator,
            row: Value::Null,
        };
        bundle.row = persist::bundle_row(&bundle);
        self.bundles.insert(id, bundle);
        self.event(id, BundleEventKind::Installed);
        self.mark_header_dirty(); // next_bundle advanced
        self.mark_bundle_dirty(id);
        let _ = self.persist();
        Ok(id)
    }

    /// Attempts to resolve every `INSTALLED` bundle. Returns the ids that
    /// newly resolved.
    pub fn resolve_all(&mut self) -> Vec<BundleId> {
        self.then_persist(Self::resolve_step)
    }

    /// Runs lifecycle transitions, then persists the rows they marked — if
    /// they marked any — in one write. The transitions themselves
    /// (`*_step`) never persist: [`restore`](Self::restore) and
    /// [`shutdown`](Self::shutdown) run many of them before their one
    /// persist, each public operation here is the batch of one.
    fn then_persist<R>(&mut self, transitions: impl FnOnce(&mut Self) -> R) -> R {
        let marks = self.marks;
        let outcome = transitions(self);
        if self.marks != marks {
            let _ = self.persist();
        }
        outcome
    }

    fn resolve_step(&mut self) -> Vec<BundleId> {
        let candidates: BTreeMap<BundleId, &BundleManifest> = self
            .bundles
            .values()
            .filter(|b| b.state == BundleState::Installed)
            .map(|b| (b.id, &b.manifest))
            .collect();
        let resolved_pool: BTreeMap<BundleId, &BundleManifest> = self
            .bundles
            .values()
            .filter(|b| b.state.is_resolved())
            .map(|b| (b.id, &b.manifest))
            .collect();
        let report = crate::resolver::resolve(&candidates, &resolved_pool);
        let ids: Vec<BundleId> = report.resolved.keys().copied().collect();
        for (id, wiring) in report.resolved {
            self.wirings.insert(id, wiring);
            self.bundles
                .get_mut(&id)
                .expect("resolver only reports candidate ids")
                .state = BundleState::Resolved;
            self.event(id, BundleEventKind::Resolved);
            self.mark_bundle_dirty(id);
        }
        ids
    }

    /// Starts a bundle: resolves it if necessary, runs its activator, and
    /// marks it `ACTIVE` and persistently started. Starting an `ACTIVE`
    /// bundle is a no-op.
    ///
    /// # Errors
    ///
    /// [`BundleError::NotFound`], [`BundleError::ResolutionFailed`],
    /// [`BundleError::ActivatorFailed`] (bundle rolls back to `RESOLVED`),
    /// or [`BundleError::InvalidTransition`] from transient/terminal states.
    pub fn start(&mut self, id: BundleId) -> Result<(), BundleError> {
        // Two operations, each persisted, when the bundle has yet to resolve.
        if self.bundle_state(id)? == BundleState::Installed {
            self.resolve_all();
        }
        self.then_persist(|fw| fw.start_step(id))
    }

    fn start_step(&mut self, id: BundleId) -> Result<(), BundleError> {
        let state = self.bundle_state(id)?;
        match state {
            BundleState::Active => return Ok(()),
            BundleState::Installed => {
                self.resolve_step();
                let state = self.bundle_state(id)?;
                if state == BundleState::Installed {
                    let missing = self
                        .bundles
                        .get(&id)
                        .expect("bundle_state checked id above")
                        .manifest
                        .imports
                        .iter()
                        .filter(|i| !i.optional)
                        .map(|i| i.name.clone())
                        .collect();
                    return Err(BundleError::ResolutionFailed {
                        bundle: id,
                        missing,
                    });
                }
            }
            BundleState::Resolved => {}
            other => {
                return Err(BundleError::InvalidTransition {
                    bundle: id,
                    state: other,
                    operation: "start",
                })
            }
        }
        self.set_state(id, BundleState::Starting);
        let mut activator = self
            .bundles
            .get_mut(&id)
            .expect("bundle_state checked id above")
            .activator
            .take();
        let result = match activator.as_mut() {
            Some(a) => {
                let mut ctx = BundleContext::new(id, self);
                a.start(&mut ctx)
            }
            None => Ok(()),
        };
        let bundle = self
            .bundles
            .get_mut(&id)
            .expect("bundle_state checked id above");
        bundle.activator = activator;
        match result {
            Ok(()) => {
                bundle.state = BundleState::Active;
                bundle.autostart = true;
                self.event(id, BundleEventKind::Started);
                self.mark_bundle_dirty(id);
                Ok(())
            }
            Err(message) => {
                bundle.state = BundleState::Resolved;
                // Services a half-started activator registered are swept,
                // and so are the rows it read.
                self.registry.unregister_bundle(id);
                self.release_area(id);
                self.framework_events.push(FrameworkEvent::Error {
                    bundle: Some(id),
                    message: message.clone(),
                });
                Err(BundleError::ActivatorFailed {
                    bundle: id,
                    message,
                })
            }
        }
    }

    /// Stops an `ACTIVE` bundle: runs its activator's `stop`, sweeps its
    /// services, and clears the persistent-start flag. Stopping a non-active
    /// bundle is a no-op.
    ///
    /// # Errors
    ///
    /// [`BundleError::NotFound`] for unknown ids.
    pub fn stop(&mut self, id: BundleId) -> Result<(), BundleError> {
        self.stop_internal(id, true)?;
        self.release_area(id);
        Ok(())
    }

    /// Stops a bundle without clearing its persistent-start flag — used by
    /// start-level sweeps and framework shutdown, after which the bundle
    /// must come back on restart (OSGi semantics).
    pub fn stop_transient(&mut self, id: BundleId) -> Result<(), BundleError> {
        self.stop_internal(id, false)?;
        self.release_area(id);
        Ok(())
    }

    /// The stop itself. The bundle's data area keeps its rows: the public
    /// stops above end their residency — a stopped bundle holds no copy of
    /// what the SAN holds, so a restart in place reads what is there by
    /// then — while an upgrade's quiesce hands them to the new revision.
    fn stop_internal(&mut self, id: BundleId, persistent: bool) -> Result<(), BundleError> {
        self.then_persist(|fw| fw.stop_step(id, persistent))
    }

    fn stop_step(&mut self, id: BundleId, persistent: bool) -> Result<(), BundleError> {
        let state = self.bundle_state(id)?;
        if state != BundleState::Active {
            if persistent {
                if let Some(b) = self.bundles.get_mut(&id) {
                    b.autostart = false;
                }
                self.mark_bundle_dirty(id);
            }
            return Ok(());
        }
        self.set_state(id, BundleState::Stopping);
        let mut activator = self
            .bundles
            .get_mut(&id)
            .expect("bundle_state checked id above")
            .activator
            .take();
        let result = match activator.as_mut() {
            Some(a) => {
                let mut ctx = BundleContext::new(id, self);
                a.stop(&mut ctx)
            }
            None => Ok(()),
        };
        if let Err(message) = result {
            self.framework_events.push(FrameworkEvent::Error {
                bundle: Some(id),
                message,
            });
        }
        self.registry.unregister_bundle(id);
        let bundle = self
            .bundles
            .get_mut(&id)
            .expect("bundle_state checked id above");
        bundle.activator = activator;
        bundle.state = BundleState::Resolved;
        if persistent {
            bundle.autostart = false;
        }
        self.event(id, BundleEventKind::Stopped);
        self.mark_bundle_dirty(id);
        Ok(())
    }

    /// Uninstalls a bundle (stopping it first if active).
    ///
    /// # Errors
    ///
    /// [`BundleError::NotFound`] or [`BundleError::InvalidTransition`] if
    /// called from a transient state.
    pub fn uninstall(&mut self, id: BundleId) -> Result<(), BundleError> {
        let state = self.bundle_state(id)?;
        if !state.can_uninstall() {
            return Err(BundleError::InvalidTransition {
                bundle: id,
                state,
                operation: "uninstall",
            });
        }
        if state == BundleState::Active {
            self.stop(id)?;
        }
        self.bundles.remove(&id);
        self.wirings.remove(&id);
        self.ledger.forget(id);
        self.event(id, BundleEventKind::Uninstalled);
        if self.store.is_some() {
            let key = persist::bundle_key(id);
            self.dirty_rows.remove(&key);
            self.deleted_rows.insert(key);
            self.sync_dirty_mark();
        }
        let _ = self.persist();
        Ok(())
    }

    /// Replaces a bundle's manifest at run-time (the OSGi `update`
    /// operation): the bundle is stopped if active, re-wired, and restarted
    /// if it was active — the "change a module without disrupting the
    /// production environment" capability the paper's introduction credits
    /// OSGi with.
    ///
    /// # Errors
    ///
    /// Lifecycle errors from the embedded stop/start, or
    /// [`BundleError::ResolutionFailed`] if the new manifest cannot wire.
    pub fn update(&mut self, id: BundleId, manifest: BundleManifest) -> Result<(), BundleError> {
        self.update_with_activator(id, manifest, None)
    }

    /// Like [`update`](Self::update), but also replaces the bundle's
    /// activator — the analogue of the new bundle revision bringing a new
    /// activator class. The old activator's `stop` runs first; the new one
    /// `start`s. `None` keeps the existing activator.
    ///
    /// # Errors
    ///
    /// As [`update`](Self::update).
    pub fn update_with_activator(
        &mut self,
        id: BundleId,
        manifest: BundleManifest,
        activator: Option<Box<dyn Activator>>,
    ) -> Result<(), BundleError> {
        let state = self.bundle_state(id)?;
        let was_active = state == BundleState::Active;
        if was_active {
            self.stop_transient(id)?;
        }
        let bundle = self
            .bundles
            .get_mut(&id)
            .expect("bundle_state checked id above");
        bundle.manifest = manifest;
        bundle.state = BundleState::Installed;
        // `update` gives no state-handoff guarantee: the new revision owns
        // whatever the data area holds, so the compatibility anchor moves.
        bundle.state_version = bundle.manifest.version;
        bundle.row = persist::bundle_row(bundle);
        if let Some(a) = activator {
            bundle.activator = Some(a);
        }
        self.wirings.remove(&id);
        self.event(id, BundleEventKind::Updated);
        self.mark_bundle_dirty(id);
        self.refresh();
        if was_active {
            self.start(id)?;
        }
        let _ = self.persist();
        Ok(())
    }

    /// Hot-swaps a bundle in place with **state handoff** — the paper's
    /// "change a module without disrupting the production environment"
    /// promise taken all the way to stateful bundles:
    ///
    /// 1. **Compatibility gate** — the target manifest must keep the
    ///    symbolic name and share the major version with the revision that
    ///    owns the persisted state ([`Bundle::state_version`]). Rejected
    ///    upgrades leave the old revision serving, untouched.
    /// 2. **Quiesce** — the old revision is stopped transiently (its
    ///    autostart flag survives, as across a framework reboot).
    /// 3. **Persist** — dirty snapshot rows and dirty data-area rows are
    ///    flushed so the handed-off state is durable. A SAN failure here
    ///    **rolls back**: the old revision restarts and the (usually
    ///    transient) [`BundleError::Store`] tells the caller to retry.
    /// 4. **Adopt** — the new revision is swapped in and started; because
    ///    data areas are keyed by symbolic name, it finds resident exactly
    ///    the rows the old revision quiesced with, and on the SAN the
    ///    rest. The instance's *other* bundles keep serving throughout.
    ///
    /// Downgrades ride the same path — any target within the state's major
    /// version may adopt.
    ///
    /// # Errors
    ///
    /// [`BundleError::NotFound`], [`BundleError::IncompatibleUpgrade`]
    /// (never transient), [`BundleError::Store`] from the persist phase
    /// (old revision restored), or a start error from the adopt phase
    /// (the bundle is then degraded — autostart set but not `ACTIVE` —
    /// and a retried upgrade with the same target is idempotent).
    pub fn upgrade_bundle(
        &mut self,
        id: BundleId,
        manifest: BundleManifest,
        activator: Option<Box<dyn Activator>>,
    ) -> Result<UpgradeReport, BundleError> {
        let (sn, from, state_version, state) = {
            let b = self.bundles.get(&id).ok_or(BundleError::NotFound(id))?;
            (
                b.manifest.symbolic_name.clone(),
                b.manifest.version,
                b.state_version,
                b.state,
            )
        };
        if manifest.symbolic_name != sn || manifest.version.major != state_version.major {
            return Err(BundleError::IncompatibleUpgrade {
                bundle: id,
                state: state_version,
                target: manifest.version,
            });
        }
        let was_active = state == BundleState::Active;
        if was_active {
            self.stop_internal(id, false)?;
        }
        if let Err(e) = self.flush_persist() {
            // Roll back: the old revision resumes serving; the caller
            // retries the whole upgrade once the SAN recovers.
            if was_active {
                let _ = self.start(id);
            }
            return Err(BundleError::Store(e));
        }
        let handoff_keys = area_of(&mut self.areas, &self.store, sn.as_str()).len();
        let bundle = self
            .bundles
            .get_mut(&id)
            .expect("bundle presence checked above");
        bundle.manifest = manifest;
        bundle.state = BundleState::Installed;
        let to = bundle.manifest.version;
        bundle.state_version = to;
        bundle.row = persist::bundle_row(bundle);
        if let Some(a) = activator {
            bundle.activator = Some(a);
        }
        self.wirings.remove(&id);
        self.event(id, BundleEventKind::Upgraded);
        self.mark_bundle_dirty(id);
        self.refresh();
        if was_active {
            self.start(id)?;
        }
        let _ = self.persist();
        Ok(UpgradeReport {
            bundle: id,
            from,
            to,
            handoff_keys,
        })
    }

    /// Recomputes all wirings from scratch. Active bundles whose imports can
    /// no longer be satisfied are stopped and demoted to `INSTALLED`
    /// (a simplified OSGi *refresh packages* operation).
    pub fn refresh(&mut self) {
        let candidates: BTreeMap<BundleId, &BundleManifest> = self
            .bundles
            .values()
            .filter(|b| b.state != BundleState::Uninstalled)
            .map(|b| (b.id, &b.manifest))
            .collect();
        let report = crate::resolver::resolve(&candidates, &BTreeMap::new());
        let failed: Vec<BundleId> = report.failed.keys().copied().collect();
        self.wirings = report.resolved.clone();
        for (id, _) in report.resolved {
            let b = self
                .bundles
                .get_mut(&id)
                .expect("resolver only reports installed ids");
            if b.state == BundleState::Installed {
                b.state = BundleState::Resolved;
                self.event(id, BundleEventKind::Resolved);
                self.mark_bundle_dirty(id);
            }
        }
        for id in failed {
            let state = self.bundles.get(&id).map(|b| b.state);
            if state == Some(BundleState::Active) {
                let _ = self.stop_transient(id);
            }
            let demoted = self.bundles.get_mut(&id).is_some_and(|b| {
                if b.state != BundleState::Installed {
                    b.state = BundleState::Installed;
                    true
                } else {
                    false
                }
            });
            if demoted {
                self.mark_bundle_dirty(id);
            }
            self.wirings.remove(&id);
        }
    }

    // ------------------------------------------------------------------
    // Start levels and shutdown
    // ------------------------------------------------------------------

    /// The active start level.
    pub fn start_level(&self) -> u32 {
        self.config.start_level
    }

    /// Moves the framework to `level`: persistently-started bundles at or
    /// below the level are started (ascending level order); active bundles
    /// above it are stopped transiently (descending order). Activator
    /// failures are recorded as framework events and do not abort the sweep.
    #[cfg(test)]
    pub(crate) fn set_start_level(&mut self, level: u32) {
        let mut to_start: Vec<(u32, BundleId)> = self
            .bundles
            .values()
            .filter(|b| {
                b.autostart && b.state != BundleState::Active && b.manifest.start_level <= level
            })
            .map(|b| (b.manifest.start_level, b.id))
            .collect();
        to_start.sort();
        let mut to_stop: Vec<(u32, BundleId)> = self
            .bundles
            .values()
            .filter(|b| b.state == BundleState::Active && b.manifest.start_level > level)
            .map(|b| (b.manifest.start_level, b.id))
            .collect();
        to_stop.sort_by(|a, b| b.cmp(a));
        for (_, id) in to_stop {
            let _ = self.stop_transient(id);
        }
        for (_, id) in to_start {
            if let Err(e) = self.start(id) {
                self.framework_events.push(FrameworkEvent::Error {
                    bundle: Some(id),
                    message: e.to_string(),
                });
            }
        }
        self.config.start_level = level;
        self.framework_events
            .push(FrameworkEvent::StartLevelChanged { level });
        self.mark_header_dirty();
        let _ = self.persist();
    }

    /// Orderly shutdown: stops all active bundles in descending start-level
    /// order *without* clearing their persistent-start flags, then persists
    /// the final state, once. After `restore`, the same bundles come back.
    pub fn shutdown(&mut self) {
        self.framework_events.push(FrameworkEvent::ShuttingDown);
        let mut active: Vec<(u32, BundleId)> = self
            .bundles
            .values()
            .filter(|b| b.state == BundleState::Active)
            .map(|b| (b.manifest.start_level, b.id))
            .collect();
        active.sort_by(|a, b| b.cmp(a));
        for (_, id) in active {
            let _ = self.stop_step(id, false);
            self.release_area(id);
        }
        let _ = self.persist();
    }

    // ------------------------------------------------------------------
    // Class loading
    // ------------------------------------------------------------------

    /// Loads `symbol` through `bundle`'s class space: boot delegation, then
    /// imported packages, then the bundle's own content.
    ///
    /// # Errors
    ///
    /// See [`LoadError`]. An `INSTALLED` bundle triggers a resolution
    /// attempt first, as in OSGi.
    pub fn load_class(
        &mut self,
        bundle: BundleId,
        symbol: &SymbolName,
    ) -> Result<ClassRef, LoadError> {
        let state = self
            .bundles
            .get(&bundle)
            .map(|b| b.state)
            .ok_or(LoadError::Unresolved(bundle))?;
        if state == BundleState::Installed {
            self.resolve_all();
        }
        let b = self
            .bundles
            .get(&bundle)
            .ok_or(LoadError::Unresolved(bundle))?;
        if !b.state.is_resolved() {
            return Err(LoadError::Unresolved(bundle));
        }
        // 1. Boot delegation.
        if self.config.boot.covers(symbol.package()) {
            return Ok(ClassRef {
                symbol: symbol.clone(),
                defined_by: None,
                via: LoadPath::Boot,
            });
        }
        // 2. Imported packages (imports shadow own content, as in OSGi).
        if let Some(wiring) = self.wirings.get(&bundle) {
            if let Some(&(exporter, _)) = wiring.imports.get(symbol.package()) {
                let exp = self
                    .bundles
                    .get(&exporter)
                    .ok_or_else(|| LoadError::NotFound(symbol.clone()))?;
                let pkg = exp
                    .manifest
                    .exports
                    .iter()
                    .find(|e| &e.name == symbol.package())
                    .ok_or_else(|| LoadError::NotFound(symbol.clone()))?;
                return if pkg.symbols.iter().any(|s| s == symbol.simple()) {
                    Ok(ClassRef {
                        symbol: symbol.clone(),
                        defined_by: Some(exporter),
                        via: LoadPath::Import,
                    })
                } else {
                    Err(LoadError::NoSuchSymbol {
                        package: symbol.package().clone(),
                        simple: symbol.simple().to_owned(),
                    })
                };
            }
        }
        // 3. The bundle's own content.
        for pkg in b.manifest.own_packages() {
            if &pkg.name == symbol.package() {
                return if pkg.symbols.iter().any(|s| s == symbol.simple()) {
                    Ok(ClassRef {
                        symbol: symbol.clone(),
                        defined_by: Some(bundle),
                        via: LoadPath::Own,
                    })
                } else {
                    Err(LoadError::NoSuchSymbol {
                        package: symbol.package().clone(),
                        simple: symbol.simple().to_owned(),
                    })
                };
            }
        }
        Err(LoadError::NotFound(symbol.clone()))
    }

    // ------------------------------------------------------------------
    // Services
    // ------------------------------------------------------------------

    /// Registers a service on behalf of `owner`.
    pub fn register_service(
        &mut self,
        owner: BundleId,
        interfaces: &[&str],
        properties: BTreeMap<String, PropValue>,
        implementation: Box<dyn Service>,
    ) -> ServiceId {
        self.registry
            .register(owner, interfaces, properties, implementation)
    }

    /// The best service offering `interface`.
    pub fn best_service(&self, interface: &str) -> Option<ServiceId> {
        self.registry.best(interface)
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
        let owner = self
            .registry
            .owner_of(id)
            .and_then(|b| self.bundles.get(&b));
        let Some(owner) = owner else {
            // Unknown service: let the registry produce the right error.
            return self.registry.call(id, &mut self.ledger, None, method, arg);
        };
        let sn = owner.manifest.symbolic_name.as_str();
        let area = area_of(&mut self.areas, &self.store, sn);
        let outcome = self
            .registry
            .call(id, &mut self.ledger, Some(area), method, arg);
        if area.written() {
            let flushed = area.flush();
            self.settle(flushed)?;
        }
        outcome
    }

    /// Read access to the service registry.
    pub fn registry(&self) -> &ServiceRegistry {
        &self.registry
    }

    // ------------------------------------------------------------------
    // Bundle data areas (persistent storage)
    // ------------------------------------------------------------------

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
        let b = self
            .bundles
            .get(&bundle)
            .ok_or(BundleError::NotFound(bundle))?;
        self.ledger.charge_disk(bundle, value.encoded_len() as u64);
        let sn = b.manifest.symbolic_name.as_str();
        let area = area_of(&mut self.areas, &self.store, sn);
        area.put(key, value);
        let flushed = area.flush();
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
        let b = self
            .bundles
            .get(&bundle)
            .ok_or(BundleError::NotFound(bundle))?;
        let sn = b.manifest.symbolic_name.as_str();
        Ok(area_of(&mut self.areas, &self.store, sn).get(key)?)
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
    fn release_area(&mut self, id: BundleId) {
        let sn = self.bundles.get(&id).map(|b| &b.manifest.symbolic_name);
        if let Some(area) = sn.and_then(|sn| self.areas.get_mut(sn.as_str())) {
            area.release();
        }
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

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

    /// Drains queued bundle events.
    #[cfg(test)]
    pub(crate) fn take_bundle_events(&mut self) -> Vec<BundleEvent> {
        std::mem::take(&mut self.bundle_events)
    }

    /// Drains queued framework events.
    #[cfg(test)]
    pub(crate) fn take_framework_events(&mut self) -> Vec<FrameworkEvent> {
        std::mem::take(&mut self.framework_events)
    }

    /// Drains queued service events.
    pub fn take_service_events(&mut self) -> Vec<ServiceEvent> {
        self.registry.take_events()
    }

    // ------------------------------------------------------------------
    // Persistence
    // ------------------------------------------------------------------

    /// Marks a bundle's snapshot row as ahead of the SAN. Every in-memory
    /// lifecycle mutation must mark the rows it touched; the persist call
    /// sites then flush exactly the marked rows (write-behind on failure).
    fn mark_bundle_dirty(&mut self, id: BundleId) {
        if self.store.is_some() {
            self.dirty_rows.insert(persist::bundle_key(id));
            self.dirty_mark.set(true);
            self.marks += 1;
        }
    }

    /// Marks the header row (`next_bundle` / `start_level`) dirty.
    fn mark_header_dirty(&mut self) {
        if self.store.is_some() {
            self.dirty_rows.insert(persist::HEADER_KEY.to_owned());
            self.dirty_mark.set(true);
            self.marks += 1;
        }
    }

    /// Marks every snapshot row dirty — used when the SAN copy cannot be
    /// assumed to match anything (store attach). Change detection in the
    /// store makes rewriting an identical row free.
    fn mark_all_rows_dirty(&mut self) {
        let ids: Vec<BundleId> = self.bundles.keys().copied().collect();
        self.mark_header_dirty();
        ids.into_iter().for_each(|id| self.mark_bundle_dirty(id));
    }

    /// Writes the changed snapshot rows of the framework state to the
    /// attached store, if any. Called automatically after every lifecycle
    /// mutation; rows that did not change since the last persist are not
    /// rewritten (dirty-tracking at bundle granularity), and the store
    /// additionally skips rows whose bytes are identical.
    ///
    /// Persistence is **write-behind** with respect to lifecycle progress: a
    /// transient SAN failure does not roll back the in-memory transition.
    /// Instead the framework leaves the rows marked dirty, records a
    /// [`FrameworkEvent::Error`], and relies on a later
    /// [`flush_persist`](Self::flush_persist) (the node tick drives one with
    /// backoff) to converge durable state.
    ///
    /// # Errors
    ///
    /// The [`StoreError`] from the failed write; the rows stay dirty.
    pub fn persist(&mut self) -> Result<(), StoreError> {
        // Lent to `persist_rows` beside `&mut self`, then put back.
        let Some((store, ns)) = self.store.take() else {
            return Ok(());
        };
        let outcome = self.persist_rows(&store, &ns);
        self.store = Some((store, ns));
        self.sync_dirty_mark();
        match outcome {
            Ok(()) => Ok(()),
            Err(e) => {
                self.framework_events.push(FrameworkEvent::Error {
                    bundle: None,
                    message: format!("snapshot persist deferred: {e}"),
                });
                Err(e)
            }
        }
    }

    fn persist_rows(&mut self, store: &SharedStore, ns: &str) -> Result<(), StoreError> {
        // Deletes first: an uninstalled bundle's row must be gone before a
        // concurrent restore could reassemble it into a stale bundle.
        let deletes: Vec<String> = self.deleted_rows.iter().cloned().collect();
        for key in deletes {
            match store.delete(ns, &key) {
                Ok(()) | Err(StoreError::NotFound { .. }) => {
                    self.deleted_rows.remove(&key);
                }
                Err(e) => return Err(e),
            }
        }
        if self.dirty_rows.is_empty() {
            return Ok(());
        }
        // A dirty row for a since-uninstalled bundle was replaced by a
        // delete marker: it has no bundle, and nothing is written for it.
        for key in &self.dirty_rows {
            let id = persist::parse_bundle_key(key);
            if let Some(b) = id.and_then(|id| self.bundles.get_mut(&id)) {
                persist::refresh_row(b);
            }
        }
        let header = self
            .dirty_rows
            .contains(persist::HEADER_KEY)
            .then(|| persist::header_row(self.next_bundle, self.config.start_level));
        // In key order, header last: a torn batch lands a prefix of it.
        let mut entries = self.dirty_rows.iter().filter_map(|key| {
            let row = if key == persist::HEADER_KEY {
                header.as_ref()?
            } else {
                &self.bundles.get(&persist::parse_bundle_key(key)?)?.row
            };
            Some((key.as_str(), row))
        });
        // Either end of a hand-off writes one row, and needs no batch built.
        let rows = match (entries.next(), self.dirty_rows.len()) {
            (Some(only), 1) => store.put_many(ns, &[only])?,
            (first, _) => {
                let batch: Vec<(&str, &Value)> = first.into_iter().chain(entries).collect();
                store.put_many(ns, &batch)?
            }
        } as u64;
        self.metrics.rows_written.add(rows);
        self.metrics
            .rows_skipped
            .add((self.bundles.len() as u64 + 1).saturating_sub(rows));
        self.dirty_rows.clear();
        Ok(())
    }

    /// True when a snapshot-row or data-area write-through failed and
    /// durable state lags the in-memory state.
    pub fn persist_dirty(&self) -> bool {
        !self.dirty_rows.is_empty()
            || !self.deleted_rows.is_empty()
            || self.areas.values().any(DataArea::is_dirty)
    }

    /// Retries every pending persistence: dirty snapshot rows, pending row
    /// deletes, and the dirty rows of each data area. Stops at the first
    /// error, leaving the remainder dirty for the next attempt.
    ///
    /// # Errors
    ///
    /// The first [`StoreError`] hit; [`persist_dirty`](Self::persist_dirty)
    /// remains true.
    pub fn flush_persist(&mut self) -> Result<(), StoreError> {
        if !self.persist_dirty() {
            return Ok(());
        }
        if self.store.is_none() {
            self.dirty_rows.clear();
            self.deleted_rows.clear();
            self.dirty_mark.set(false);
            return Ok(());
        }
        if !self.dirty_rows.is_empty() || !self.deleted_rows.is_empty() {
            self.persist()?;
        }
        let outcome = self.flush_areas();
        self.sync_dirty_mark();
        outcome
    }

    /// Each area writes its dirty rows, and only those.
    fn flush_areas(&mut self) -> Result<(), StoreError> {
        self.areas.values_mut().try_for_each(DataArea::flush)
    }

    /// The encoded size of the persisted snapshot rows in bytes (0 when no
    /// store is attached) — the state a migration must move.
    #[cfg(test)]
    pub(crate) fn snapshot_bytes(&self) -> u64 {
        match &self.store {
            // A metric, not a data read: namespace_bytes bypasses the fault
            // layer so sizing stays observable during brown-outs.
            Some((store, ns)) => store.namespace_bytes(ns),
            None => 0,
        }
    }

    /// Reconstructs a framework from the per-bundle snapshot rows stored
    /// under `namespace` (reassembled via `read_namespace`), reinstalling
    /// every bundle (activators re-created via `factory`) and restarting
    /// the ones that were persistently started — one lifecycle batch: one
    /// read, then every transition, then one write of the rows that no
    /// longer say what the SAN holds.
    ///
    /// This is the paper's migration/redeployment path: the OSGi spec makes
    /// framework state persistent, the SAN makes it visible cluster-wide, so
    /// any node can re-materialize the instance.
    ///
    /// # Errors
    ///
    /// [`BundleError::CorruptState`] when no snapshot exists or it fails to
    /// parse; [`BundleError::Store`] when the SAN rejects the read (usually
    /// transient — the adoption retry loop distinguishes the two).
    pub fn restore(
        config: FrameworkConfig,
        store: SharedStore,
        namespace: &str,
        factory: &ActivatorFactory,
    ) -> Result<Framework, BundleError> {
        let uncounted = FrameworkMetrics::default();
        Self::restore_counted(config, store, namespace, factory, uncounted)
    }

    /// [`restore`](Self::restore) with the telemetry handles attached
    /// before the first bundle is installed, so that the restore's own
    /// transitions and rows are counted.
    ///
    /// # Errors
    ///
    /// As [`restore`](Self::restore).
    pub fn restore_counted(
        config: FrameworkConfig,
        store: SharedStore,
        namespace: &str,
        factory: &ActivatorFactory,
        metrics: FrameworkMetrics,
    ) -> Result<Framework, BundleError> {
        let rows = store.read_namespace(namespace)?;
        let parsed = persist::assemble(&rows)
            .map_err(BundleError::CorruptState)?
            .ok_or_else(|| BundleError::CorruptState(format!("no snapshot in {namespace}")))?;
        let mut fw = Framework::with_config(config);
        fw.metrics = metrics;
        fw.config.start_level = parsed.start_level;
        // A torn install batch lands the bundle's row without the header
        // that counts it: no id a row holds is handed out again.
        let past_rows = parsed.bundles.last().map_or(0, |r| r.id.0 + 1);
        fw.next_bundle = parsed.next_bundle.max(past_rows);
        // Attached before anything restarts: activators read their
        // persisted data areas during start.
        fw.store = Some((store, namespace.to_owned()));
        if fw.next_bundle != parsed.next_bundle {
            fw.mark_header_dirty();
        }
        // What each row said when it was read, and the persistently-started
        // bundles within the start level, in (start level, id) order.
        let mut read = Vec::with_capacity(parsed.bundles.len());
        let mut to_start: Vec<(u32, BundleId)> = Vec::new();
        for record in parsed.bundles {
            if record.autostart && record.manifest.start_level <= parsed.start_level {
                to_start.push((record.manifest.start_level, record.id));
            }
            read.push((
                record.id,
                (record.state, record.autostart, record.state_version),
            ));
            let activator = factory.create(&record.manifest);
            fw.bundles.insert(
                record.id,
                Bundle {
                    id: record.id,
                    manifest: record.manifest,
                    state: BundleState::Installed,
                    autostart: record.autostart,
                    state_version: record.state_version,
                    activator,
                    row: Value::Null,
                },
            );
            fw.event(record.id, BundleEventKind::Installed);
        }
        // The rows read are the rows kept: they say what the SAN holds.
        for (key, row) in rows {
            let id = persist::parse_bundle_key(&key);
            if let Some(b) = id.and_then(|id| fw.bundles.get_mut(&id)) {
                b.row = row;
            }
        }
        to_start.sort();
        fw.resolve_step();
        for (_, id) in to_start {
            if let Err(e) = fw.start_step(id) {
                fw.framework_events.push(FrameworkEvent::Error {
                    bundle: Some(id),
                    message: e.to_string(),
                });
            }
        }
        // The transitions marked the rows they changed. A row can also lag
        // what was read without any of them having run: a bundle persisted
        // RESOLVED that no longer resolves stays INSTALLED.
        for (id, as_read) in read {
            let b = &fw.bundles[&id];
            if (b.state, b.autostart, b.state_version) != as_read {
                fw.mark_bundle_dirty(id);
            }
        }
        let _ = fw.persist();
        Ok(fw)
    }

    fn event(&mut self, bundle: BundleId, kind: BundleEventKind) {
        let m = &self.metrics;
        let counter = match kind {
            BundleEventKind::Installed => &m.installed,
            BundleEventKind::Resolved => &m.resolved,
            BundleEventKind::Started => &m.started,
            BundleEventKind::Stopped => &m.stopped,
            BundleEventKind::Updated => &m.updated,
            BundleEventKind::Upgraded => &m.upgraded,
            BundleEventKind::Uninstalled => &m.uninstalled,
        };
        counter.incr();
        self.bundle_events.push(BundleEvent { bundle, kind });
    }

    fn set_state(&mut self, id: BundleId, state: BundleState) {
        if let Some(b) = self.bundles.get_mut(&id) {
            b.state = state;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FnActivator, ManifestBuilder, Version, VersionRange};
    use dosgi_san::SharedStore;

    fn log_manifest() -> BundleManifest {
        ManifestBuilder::new("org.test.log", Version::new(1, 0, 0))
            .export_package("org.test.log.api", Version::new(1, 0, 0), ["Logger"])
            .build()
            .unwrap()
    }

    fn app_manifest() -> BundleManifest {
        ManifestBuilder::new("org.test.app", Version::new(1, 0, 0))
            .import_package("org.test.log.api", "[1.0,2.0)".parse().unwrap())
            .private_package("org.test.app.impl", ["Main"])
            .start_level(2)
            .build()
            .unwrap()
    }

    fn log_activator() -> Box<dyn Activator> {
        Box::new(FnActivator::on_start(|ctx| {
            let mut props = BTreeMap::new();
            props.insert("service.ranking".to_owned(), PropValue::Int(5));
            ctx.register_service(
                &["org.test.log.Logger"],
                props,
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
        let mut fw = Framework::new("t");
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
                        BTreeMap::new(),
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
        let events = fw.take_framework_events();
        assert!(events
            .iter()
            .any(|e| matches!(e, FrameworkEvent::Error { bundle: Some(b), .. } if *b == id)));
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
        let mut fw = Framework::new("t");
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
        fw.update(log, v2).unwrap();
        assert!(fw.bundle_state(log).unwrap().is_active());
        assert_eq!(
            fw.bundle(log).unwrap().manifest.version,
            Version::new(1, 1, 0)
        );
        let kinds: Vec<BundleEventKind> = fw.take_bundle_events().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&BundleEventKind::Updated));
        // Service re-registered by the restarted activator.
        assert!(fw.best_service("org.test.log.Logger").is_some());
    }

    #[test]
    fn upgrade_hands_state_to_new_revision() {
        let store = SharedStore::new();
        let mut fw = Framework::new("u");
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
        let kinds: Vec<BundleEventKind> = fw.take_bundle_events().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&BundleEventKind::Upgraded));
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
    fn class_loading_follows_delegation_order() {
        let mut fw = Framework::new("t");
        let log = fw.install(log_manifest(), None).unwrap();
        let app = fw.install(app_manifest(), None).unwrap();
        fw.resolve_all();

        // Boot delegation.
        let sym = SymbolName::parse("std.collections.HashMap").unwrap();
        let r = fw.load_class(app, &sym).unwrap();
        assert_eq!(r.via, LoadPath::Boot);
        assert_eq!(r.defined_by, None);

        // Imported package resolves in the exporter.
        let sym = SymbolName::parse("org.test.log.api.Logger").unwrap();
        let r = fw.load_class(app, &sym).unwrap();
        assert_eq!(r.via, LoadPath::Import);
        assert_eq!(r.defined_by, Some(log));

        // Own private content.
        let sym = SymbolName::parse("org.test.app.impl.Main").unwrap();
        let r = fw.load_class(app, &sym).unwrap();
        assert_eq!(r.via, LoadPath::Own);
        assert_eq!(r.defined_by, Some(app));

        // Wired package without the symbol: NoSuchSymbol, no fallback.
        let sym = SymbolName::parse("org.test.log.api.Missing").unwrap();
        assert!(matches!(
            fw.load_class(app, &sym),
            Err(LoadError::NoSuchSymbol { .. })
        ));

        // Unknown package.
        let sym = SymbolName::parse("com.nowhere.X").unwrap();
        assert!(matches!(
            fw.load_class(app, &sym),
            Err(LoadError::NotFound(_))
        ));

        // Private content of another bundle is NOT visible.
        let sym = SymbolName::parse("org.test.app.impl.Main").unwrap();
        assert!(matches!(
            fw.load_class(log, &sym),
            Err(LoadError::NotFound(_))
        ));
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

    #[test]
    fn events_flow_for_full_lifecycle() {
        let mut fw = Framework::new("t");
        let log = fw.install(log_manifest(), Some(log_activator())).unwrap();
        fw.start(log).unwrap();
        fw.stop(log).unwrap();
        fw.uninstall(log).unwrap();
        let kinds: Vec<BundleEventKind> = fw.take_bundle_events().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                BundleEventKind::Installed,
                BundleEventKind::Resolved,
                BundleEventKind::Started,
                BundleEventKind::Stopped,
                BundleEventKind::Uninstalled,
            ]
        );
        let service_kinds: Vec<crate::ServiceEventKind> =
            fw.take_service_events().iter().map(|e| e.kind).collect();
        assert_eq!(
            service_kinds,
            vec![
                crate::ServiceEventKind::Registered,
                crate::ServiceEventKind::Unregistering
            ]
        );
    }

    #[test]
    fn optional_import_wires_when_available() {
        let mut fw = Framework::new("t");
        let m = ManifestBuilder::new("opt.app", Version::new(1, 0, 0))
            .import_package_optional("org.test.log.api", VersionRange::ANY)
            .build()
            .unwrap();
        let app = fw.install(m, None).unwrap();
        fw.resolve_all();
        assert_eq!(fw.bundle_state(app).unwrap(), BundleState::Resolved);
        assert!(fw.wiring(app).unwrap().imports.is_empty());
        // Install the exporter, refresh: the optional import now wires.
        let log = fw.install(log_manifest(), None).unwrap();
        fw.refresh();
        assert_eq!(
            fw.wiring(app)
                .unwrap()
                .exporter_of(&crate::PackageName::new("org.test.log.api").unwrap()),
            Some(log)
        );
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
                BTreeMap::new(),
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

    /// The crash-point table of the two batches that hand out bundle ids,
    /// with 0–3 bundles installed before each: every strict prefix of an
    /// install's batch, and of `attach_store`'s, laid over the rows the SAN
    /// held before it, restores to the framework before the batch or to the
    /// one after it (a namespace with no header holds no framework) — never
    /// to a mix, whose next install would reuse an id. Before a restore
    /// counted past the highest row id, an install's `[bundle/<n>]` prefix
    /// failed it.
    #[test]
    fn every_prefix_of_an_id_handing_batch_restores_one_side_of_it() {
        const NS: &str = "table/fw";
        type Shape = Option<(u64, Vec<(BundleId, String)>)>;
        let shape = |fw: &Framework| -> Shape {
            let bundles = fw
                .bundles()
                .map(|b| (b.id, b.manifest.symbolic_name.to_string()));
            Some((fw.next_bundle, bundles.collect()))
        };
        let restored = |rows: &[(String, Value)]| -> Shape {
            let store = SharedStore::new();
            store.put_many(NS, rows).unwrap();
            let factory = ActivatorFactory::new();
            match Framework::restore(FrameworkConfig::new(NS), store, NS, &factory) {
                Ok(fw) => shape(&fw),
                Err(BundleError::CorruptState(_)) => None,
                Err(e) => panic!("restore: {e}"),
            }
        };
        let install = |fw: &mut Framework, i: u64| {
            let manifest = ManifestBuilder::new(&format!("b{i}"), Version::new(1, 0, 0));
            fw.install(manifest.build().unwrap(), None).unwrap();
        };
        // The batch is the rows that moved, in key order, as it is written.
        let check = |old: Vec<(String, Value)>, new: Vec<(String, Value)>, sides: [Shape; 2]| {
            let batch: Vec<_> = new.iter().filter(|row| !old.contains(row)).collect();
            assert_eq!(restored(&new), sides[1]);
            for landed in 0..batch.len() {
                let mut torn = old.clone();
                for (key, value) in &batch[..landed] {
                    torn.retain(|(k, _)| k != key);
                    torn.push((key.clone(), value.clone()));
                }
                let got = restored(&torn);
                assert!(
                    sides.contains(&got),
                    "{landed} of {} rows landed: {got:?} is neither {sides:?}",
                    batch.len()
                );
            }
        };
        for n in 0..=3 {
            let store = SharedStore::new();
            let mut fw = Framework::new(NS);
            fw.attach_store(store.clone(), NS).unwrap();
            (1..=n).for_each(|i| install(&mut fw, i));
            let (old, before) = (store.read_namespace(NS).unwrap(), shape(&fw));
            install(&mut fw, n + 1);
            check(old, store.read_namespace(NS).unwrap(), [before, shape(&fw)]);

            let store = SharedStore::new();
            let mut fw = Framework::new(NS);
            (1..=n).for_each(|i| install(&mut fw, i));
            fw.attach_store(store.clone(), NS).unwrap();
            check(
                Vec::new(),
                store.read_namespace(NS).unwrap(),
                [None, shape(&fw)],
            );
        }
    }

    /// Random lifecycle sequences with SAN faults injected mid-stream: the
    /// store-attached framework must (a) never let a fault change a
    /// lifecycle outcome (its in-memory state stays byte-identical to a
    /// storeless oracle applying the same ops), and (b) once the SAN heals
    /// and the write-behind rows flush, its per-bundle rows — the rows each
    /// bundle keeps, refreshed in place by every persist — must reassemble
    /// byte-identically to the monolithic snapshot the oracle would write,
    /// which builds every row afresh. The ops include `update`, an in-place
    /// upgrade within the major version, and a restore: the framework is
    /// dropped and restored from what the healed SAN holds, the oracle from
    /// a fault-free SAN of its own (after which it keeps that one).
    /// Mutation-checked: an `upgrade_bundle` that leaves the kept row's
    /// manifest stale, and a refresh that skips `autostart`, each fail it.
    #[test]
    fn prop_row_persistence_matches_monolithic_oracle_under_faults() {
        use dosgi_testkit::{prop, prop_verify, Gen, PropResult};

        #[derive(Debug, Clone)]
        enum Op {
            Install(u8),
            Start(u8),
            Stop(u8),
            Uninstall(u8),
            SetStartLevel(u8),
            DataPut(u8),
            Update(u8),
            Upgrade(u8),
            Restore,
            Fault(u8),
            Heal,
        }

        fn pool() -> Vec<BundleManifest> {
            (0..8u32)
                .map(|i| {
                    let mut b =
                        ManifestBuilder::new(&format!("org.prop.b{i}"), Version::new(1, 0, 0))
                            .private_package(&format!("org.prop.b{i}.impl"), ["Main"]);
                    if i % 3 == 0 {
                        b = b.start_level(2);
                    }
                    b.build().unwrap()
                })
                .collect()
        }

        fn apply(
            fw: &mut Framework,
            manifests: &[BundleManifest],
            op: &Op,
            store: Option<&SharedStore>,
        ) {
            match *op {
                Op::Install(n) => {
                    let _ = fw.install(manifests[n as usize % manifests.len()].clone(), None);
                }
                Op::Start(n) => {
                    let _ = fw.start(BundleId(u64::from(n) % 12 + 1));
                }
                Op::Stop(n) => {
                    let _ = fw.stop(BundleId(u64::from(n) % 12 + 1));
                }
                Op::Uninstall(n) => {
                    let _ = fw.uninstall(BundleId(u64::from(n) % 12 + 1));
                }
                Op::SetStartLevel(n) => fw.set_start_level(u32::from(n)),
                Op::DataPut(n) => {
                    let _ = fw.bundle_store_put(
                        BundleId(u64::from(n) % 12 + 1),
                        &format!("k{}", n % 3),
                        Value::Int(i64::from(n)),
                    );
                }
                Op::Update(n) | Op::Upgrade(n) => {
                    let id = BundleId(u64::from(n) % 12 + 1);
                    let Some(mut manifest) = fw.bundle(id).map(|b| b.manifest.clone()) else {
                        return;
                    };
                    let v = manifest.version;
                    if let Op::Update(_) = op {
                        manifest.version = Version::new(v.major + 1, 0, 0);
                        manifest.start_level = 3 - manifest.start_level.min(2);
                        let _ = fw.update(id, manifest);
                    } else {
                        // An upgrade that cannot persist its quiesce rolls
                        // back, an outcome a fault is allowed to change:
                        // the SAN heals first.
                        if let Some(store) = store {
                            store.faults().clear();
                        }
                        manifest.version = Version::new(v.major, v.minor + 1, 0);
                        let _ = fw.upgrade_bundle(id, manifest, None);
                    }
                }
                Op::Restore => {
                    if let Some(store) = store {
                        store.faults().clear();
                    }
                    let (san, ns) = match &fw.store {
                        Some(attached) => attached.clone(),
                        None => {
                            let (san, ns) = (SharedStore::new(), fw.name().to_owned());
                            fw.attach_store(san.clone(), &ns).expect("a fault-free SAN");
                            (san, ns)
                        }
                    };
                    fw.flush_persist().expect("a healed SAN");
                    let factory = ActivatorFactory::new();
                    *fw = Framework::restore(FrameworkConfig::new(&ns), san, &ns, &factory)
                        .expect("rows the framework wrote restore");
                }
                Op::Fault(n) => {
                    // Only the store-attached framework sees the SAN; the
                    // oracle has none to fault.
                    if let Some(store) = store {
                        store.set_fault_plan(
                            FaultPlan::flaky(f64::from(n % 40) / 100.0, u64::from(n) * 977 + 13)
                                .with_torn_writes(f64::from(n % 3) / 4.0),
                        );
                    }
                }
                Op::Heal => {
                    if let Some(store) = store {
                        store.faults().clear();
                    }
                }
            }
        }

        let ops = prop::vecs(
            prop::one_of(vec![
                prop::u8s(0, 7).map(Op::Install),
                prop::u8s(0, 11).map(Op::Start),
                prop::u8s(0, 11).map(Op::Stop),
                prop::u8s(0, 11).map(Op::Uninstall),
                prop::u8s(1, 3).map(Op::SetStartLevel),
                prop::u8s(0, 11).map(Op::DataPut),
                prop::u8s(0, 11).map(Op::Update),
                prop::u8s(0, 11).map(Op::Upgrade),
                Gen::new(|_| Op::Restore),
                prop::u8s(0, 99).map(Op::Fault),
                Gen::new(|_| Op::Heal),
            ]),
            1,
            40,
        );

        prop::check_with(
            &prop::Config::with_cases(200),
            "prop_row_persistence_matches_monolithic_oracle_under_faults",
            &ops,
            |ops: &Vec<Op>| -> PropResult {
                let manifests = pool();
                let store = SharedStore::new();
                let ns = "prop/fw";
                let mut fw = Framework::new(ns);
                fw.attach_store(store.clone(), ns).expect("clean attach");
                let count = DirtyCount::default();
                fw.share_dirty_count(&count);
                let mut oracle = Framework::new(ns);
                for op in ops {
                    apply(&mut fw, &manifests, op, Some(&store));
                    apply(&mut oracle, &manifests, op, None);
                    if let Op::Restore = op {
                        fw.share_dirty_count(&count);
                    }
                    prop_verify!(
                        count.any() == fw.persist_dirty(),
                        "dirty count {} but persist_dirty {} after {op:?}",
                        count.any(),
                        fw.persist_dirty()
                    );
                }
                store.faults().clear();
                fw.flush_persist().expect("flush after heal");

                let mono =
                    persist::snapshot(oracle.next_bundle, oracle.start_level(), oracle.bundles());
                let live = persist::snapshot(fw.next_bundle, fw.start_level(), fw.bundles());
                prop_verify!(
                    live.encode() == mono.encode(),
                    "faulted framework diverged from the storeless oracle in memory"
                );

                let rows = store.read_namespace(ns).expect("healed SAN");
                let assembled = persist::assemble(&rows)
                    .expect("well-formed rows")
                    .expect("header row present");
                let rebuilt: Vec<Bundle> = assembled
                    .bundles
                    .into_iter()
                    .map(|r| Bundle {
                        id: r.id,
                        manifest: r.manifest,
                        state: r.state,
                        autostart: r.autostart,
                        state_version: r.state_version,
                        activator: None,
                        row: Value::Null,
                    })
                    .collect();
                let from_rows =
                    persist::snapshot(assembled.next_bundle, assembled.start_level, rebuilt.iter());
                prop_verify!(
                    from_rows.encode() == mono.encode(),
                    "persisted rows diverge from the monolithic oracle snapshot"
                );
                Ok(())
            },
        );
    }
    /// The model the batched [`Framework::restore`] is held to: the
    /// per-transition sequence it replaced — every transition persisted on
    /// its own through the public operations, every row re-marked at the end.
    fn reference_restore(
        config: FrameworkConfig,
        store: SharedStore,
        namespace: &str,
        factory: &ActivatorFactory,
    ) -> Result<Framework, BundleError> {
        let rows = store.read_namespace(namespace)?;
        let parsed = persist::assemble(&rows)
            .map_err(BundleError::CorruptState)?
            .ok_or_else(|| BundleError::CorruptState(format!("no snapshot in {namespace}")))?;
        let mut fw = Framework::with_config(config);
        fw.config.start_level = parsed.start_level;
        for record in &parsed.bundles {
            let activator = factory.create(&record.manifest);
            let mut bundle = Bundle {
                id: record.id,
                manifest: record.manifest.clone(),
                state: BundleState::Installed,
                autostart: record.autostart,
                state_version: record.state_version,
                activator,
                row: Value::Null,
            };
            bundle.row = persist::bundle_row(&bundle);
            fw.bundles.insert(record.id, bundle);
            fw.event(record.id, BundleEventKind::Installed);
        }
        fw.next_bundle = parsed.next_bundle;
        fw.store = Some((store, namespace.to_owned()));
        fw.resolve_all();
        let mut to_start: Vec<(u32, BundleId)> = parsed
            .bundles
            .iter()
            .filter(|r| r.autostart && r.manifest.start_level <= parsed.start_level)
            .map(|r| (r.manifest.start_level, r.id))
            .collect();
        to_start.sort();
        for (_, id) in to_start {
            if let Err(e) = fw.start(id) {
                fw.framework_events.push(FrameworkEvent::Error {
                    bundle: Some(id),
                    message: e.to_string(),
                });
            }
        }
        fw.mark_all_rows_dirty();
        let _ = fw.persist();
        Ok(fw)
    }

    /// A lifecycle batch against the per-transition model, and against what
    /// a crash or a failing SAN can leave of its one write.
    ///
    /// Random bundle sets (1–6 bundles; start levels; left installed,
    /// resolved, started or started-then-stopped; an exporter uninstalled
    /// under its importers, so that rows persisted RESOLVED or ACTIVE no
    /// longer resolve; an activator that starts refusing; stateful bundles
    /// reading and writing a data area) are persisted, by an orderly
    /// shutdown or a crash. Then:
    ///
    /// * restored by the batched `restore` and by `reference_restore`, each
    ///   from its own copy of the SAN: bundles, start level, wirings and all
    ///   three event queues are equal, and once flushed the two SANs hold
    ///   the same rows, value for value — and each what its framework holds;
    /// * the batch's one write failed with `Unavailable`, with `Io`, and
    ///   torn (the fault armed by the last activator to start, so that it
    ///   hits that write and nothing before it): the transitions stand, the
    ///   dirty count says so, and the flush after the SAN heals lands the
    ///   same rows as the clean run;
    /// * **every** strict prefix of the rows that write changes, laid over
    ///   the old SAN as a torn write would leave it: a second restore of
    ///   what landed yields the state the clean one did — each row is the
    ///   old or the new one and either restores alike — or `CorruptState`,
    ///   and converges the SAN to the same rows; never a panic.
    ///
    /// Mutation-checked: dropping the "differs from the record read" rule,
    /// clearing `dirty_rows` before the batch write has succeeded, and
    /// clearing the `DirtyMark` when the persist failed each fail it.
    #[test]
    fn prop_batched_restore_matches_the_per_transition_model() {
        use dosgi_testkit::{prop, prop_verify, prop_verify_eq, Gen, PropResult, TestRng};
        use std::sync::atomic::AtomicBool;
        use std::sync::Mutex;

        const NS: &str = "diff/fw";

        #[derive(Debug, Clone, Copy, PartialEq)]
        enum Left {
            Installed,
            Resolved,
            Started,
            StartedThenStopped,
        }

        #[derive(Debug, Clone)]
        struct Spec {
            level: u32,
            left: Left,
            imports: bool,
            refuses: bool,
            stateful: bool,
        }

        #[derive(Debug, Clone)]
        struct Case {
            bundles: Vec<Spec>,
            framework_level: u32,
            orphan_importers: bool,
            orderly: bool,
        }

        fn case(rng: &mut TestRng) -> Case {
            let n = rng.usize_in(1, 6);
            Case {
                bundles: (0..n)
                    .map(|i| Spec {
                        level: rng.u64_in(1, 3) as u32,
                        left: [
                            Left::Installed,
                            Left::Resolved,
                            Left::Started,
                            Left::Started,
                            Left::StartedThenStopped,
                        ][rng.usize_in(0, 4)],
                        imports: i > 0 && rng.chance(0.4),
                        refuses: rng.chance(0.15),
                        stateful: rng.chance(0.4),
                    })
                    .collect(),
                framework_level: rng.u64_in(1, 3) as u32,
                orphan_importers: rng.chance(0.3),
                orderly: rng.chance(0.5),
            }
        }

        fn manifest(i: usize, spec: &Spec) -> BundleManifest {
            let mut b = ManifestBuilder::new(&format!("org.diff.b{i}"), Version::new(1, 0, 0))
                .start_level(spec.level);
            if i == 0 {
                b = b.export_package("org.diff.api", Version::new(1, 0, 0), ["Api"]);
            }
            if spec.imports {
                b = b.import_package("org.diff.api", "[1.0,2.0)".parse().unwrap());
            }
            if spec.stateful {
                b = b.stateful(true);
            }
            b.build().unwrap()
        }

        /// What the activators of one framework share: whether the
        /// refusers refuse yet, and a fault plan the bundle named `armed`
        /// sets on `store` at the end of its start.
        #[derive(Clone)]
        struct World {
            store: SharedStore,
            refusing: Arc<AtomicBool>,
            armed: Arc<Mutex<Option<(String, FaultPlan)>>>,
        }

        fn factory(case: &Case, world: &World) -> ActivatorFactory {
            let mut factory = ActivatorFactory::new();
            for (i, spec) in case.bundles.iter().enumerate() {
                let (spec, world) = (spec.clone(), world.clone());
                factory.register(&format!("org.diff.b{i}"), move |m| {
                    let (world, name) = (world.clone(), m.symbolic_name.to_string());
                    let (refuses, stateful) = (spec.refuses, spec.stateful);
                    Box::new(FnActivator::new(
                        move |ctx| {
                            if refuses && world.refusing.load(Ordering::Relaxed) {
                                return Err("refuses".to_owned());
                            }
                            if stateful {
                                let starts = ctx.store_get("starts").map_err(|e| e.to_string())?;
                                let starts = starts.and_then(|v| v.as_int()).unwrap_or(0);
                                ctx.register_service(
                                    &[&format!("org.diff.Starts{starts}")],
                                    BTreeMap::new(),
                                    Box::new(
                                        |_: &mut crate::CallContext<'_>, _: &str, _: &Value| {
                                            Ok(Value::Null)
                                        },
                                    ),
                                );
                            }
                            let mut armed = world.armed.lock().unwrap();
                            if armed.as_ref().is_some_and(|(last, _)| *last == name) {
                                world.store.set_fault_plan(armed.take().unwrap().1);
                            }
                            Ok(())
                        },
                        move |ctx| {
                            if stateful {
                                let starts = ctx.store_get("starts").map_err(|e| e.to_string())?;
                                let starts = starts.and_then(|v| v.as_int()).unwrap_or(0);
                                ctx.store_put("starts", Value::Int(starts + 1))
                                    .map_err(|e| e.to_string())?;
                            }
                            Ok(())
                        },
                    ))
                });
            }
            factory
        }

        fn world(store: &SharedStore) -> World {
            World {
                store: store.clone(),
                refusing: Arc::new(AtomicBool::new(false)),
                armed: Arc::new(Mutex::new(None)),
            }
        }

        /// Runs the case's history on a fresh SAN and returns it.
        fn persisted(case: &Case) -> SharedStore {
            let store = SharedStore::new();
            let factory = factory(case, &world(&store));
            let mut fw = Framework::new(NS);
            fw.attach_store(store.clone(), NS).unwrap();
            let ids: Vec<BundleId> = case
                .bundles
                .iter()
                .enumerate()
                .map(|(i, spec)| {
                    let m = manifest(i, spec);
                    let activator = factory.create(&m);
                    fw.install(m, activator).unwrap()
                })
                .collect();
            fw.set_start_level(case.framework_level);
            for (id, spec) in ids.iter().zip(&case.bundles) {
                match spec.left {
                    Left::Installed => {}
                    Left::Resolved => drop(fw.resolve_all()),
                    Left::Started => drop(fw.start(*id)),
                    Left::StartedThenStopped => {
                        let _ = fw.start(*id);
                        fw.stop(*id).unwrap();
                    }
                }
            }
            if case.orphan_importers {
                fw.uninstall(ids[0]).unwrap();
            }
            if case.orderly {
                fw.shutdown();
            }
            fw.flush_persist().unwrap();
            store
        }

        /// Every live row of `store`, and a fresh SAN holding `rows`.
        fn rows_of(store: &SharedStore) -> Vec<(String, String, Value)> {
            let dump = store.dump().into_iter();
            dump.flat_map(|(ns, rows)| {
                rows.into_iter()
                    .map(move |(key, v)| (ns.clone(), key, v.value))
            })
            .collect()
        }

        fn san_with(rows: &[(String, String, Value)]) -> SharedStore {
            let store = SharedStore::new();
            for (ns, key, value) in rows {
                store.put(ns, key, value.clone()).unwrap();
            }
            store
        }

        fn same_rows(a: &SharedStore, b: &SharedStore) -> Result<(), String> {
            let (a, b) = (rows_of(a), rows_of(b));
            prop_verify_eq!(a.len(), b.len(), "row count");
            for ((ans, akey, av), (bns, bkey, bv)) in a.iter().zip(&b) {
                prop_verify_eq!((ans, akey), (bns, bkey), "row name");
                prop_verify!(
                    dosgi_san::codec::codec_eq(av, bv),
                    "{ans}/{akey}: {av:?} vs {bv:?}"
                );
            }
            Ok(())
        }

        /// What a restore leaves in memory, events included.
        fn state_of(fw: &mut Framework) -> String {
            let bundles: Vec<_> = fw
                .bundles()
                .map(|b| (b.id, &b.manifest, b.state, b.autostart, b.state_version))
                .collect();
            let head = (fw.next_bundle, fw.config.start_level, fw.persist_dirty());
            let wirings = format!("{:?}", fw.wirings);
            let services = fw.registry.len();
            let state = format!("{head:?} {bundles:?} {wirings} {services}");
            let events = (
                fw.take_bundle_events(),
                fw.take_framework_events(),
                fw.take_service_events(),
            );
            format!("{state} {events:?}")
        }

        /// The SAN holds what the framework holds: header and every
        /// bundle's row.
        fn san_is_memory(fw: &Framework, store: &SharedStore) -> Result<(), String> {
            let header = persist::header_row(fw.next_bundle, fw.config.start_level);
            let at = store.peek(NS, persist::HEADER_KEY);
            prop_verify!(
                at.is_some_and(|at| dosgi_san::codec::codec_eq(&at, &header)),
                "header"
            );
            for b in fw.bundles() {
                let at = store.peek(NS, &persist::bundle_key(b.id));
                let row = persist::bundle_row(b);
                prop_verify!(
                    at.is_some_and(|at| dosgi_san::codec::codec_eq(&at, &row)),
                    "row of {:?} lags memory",
                    b.id
                );
            }
            let live = store.list_keys(NS).len();
            prop_verify_eq!(live, fw.bundles().count() + 1, "stray rows");
            Ok(())
        }

        let config = || FrameworkConfig::new(NS);
        prop::check_with(
            &prop::Config::with_cases(300),
            "prop_batched_restore_matches_the_per_transition_model",
            &Gen::new(case),
            |case: &Case| -> PropResult {
                let old = rows_of(&persisted(case));
                let restore = |store: &SharedStore, arm: Option<FaultPlan>| {
                    let world = world(store);
                    world.refusing.store(true, Ordering::Relaxed);
                    // The last bundle `restore` will start.
                    let last = case
                        .bundles
                        .iter()
                        .enumerate()
                        .filter(|(i, spec)| {
                            spec.left == Left::Started
                                && spec.level <= case.framework_level
                                && !(case.orphan_importers && (*i == 0 || spec.imports))
                                && !spec.refuses
                        })
                        .max_by_key(|(i, spec)| (spec.level, *i))
                        .map(|(i, _)| format!("org.diff.b{i}"));
                    let armed = arm.is_some() && last.is_some();
                    *world.armed.lock().unwrap() = last.zip(arm);
                    let factory = factory(case, &world);
                    let fw = Framework::restore(config(), store.clone(), NS, &factory);
                    (fw, armed)
                };

                // Differential leg.
                let (san, model_san) = (san_with(&old), san_with(&old));
                let mut fw = restore(&san, None).0.map_err(|e| format!("batched: {e}"))?;
                let model_world = world(&model_san);
                model_world.refusing.store(true, Ordering::Relaxed);
                let mut model = reference_restore(
                    config(),
                    model_san.clone(),
                    NS,
                    &factory(case, &model_world),
                )
                .map_err(|e| format!("model: {e}"))?;
                prop_verify_eq!(state_of(&mut fw), state_of(&mut model));
                fw.flush_persist().unwrap();
                model.flush_persist().unwrap();
                same_rows(&san, &model_san)?;
                san_is_memory(&fw, &san)?;
                let clean_state = {
                    let (again, _) = restore(&san_with(&old), None);
                    state_of(&mut again.unwrap())
                };

                // The one write fails or tears.
                let plans = [
                    FaultPlan::none().with_brownout(SimTime::ZERO, SimTime::from_secs(1)),
                    FaultPlan::flaky(1.0, 11),
                    FaultPlan::flaky(0.0, 11).with_torn_writes(1.0),
                ];
                for plan in plans {
                    let faulted = san_with(&old);
                    let (fw, armed) = restore(&faulted, Some(plan.clone()));
                    let mut fw = fw.map_err(|e| format!("under {plan:?}: {e}"))?;
                    // The mark `restore` itself left, before anything re-syncs it.
                    prop_verify_eq!(fw.dirty_mark.counted, fw.persist_dirty(), "{plan:?}");
                    let count = DirtyCount::default();
                    fw.share_dirty_count(&count);
                    if armed && rows_of(&san) != old {
                        prop_verify!(fw.persist_dirty(), "a failed write left nothing dirty");
                    }
                    faulted.clear_faults();
                    fw.flush_persist().unwrap();
                    prop_verify!(!count.any() && !fw.persist_dirty(), "dirty after the flush");
                    same_rows(&faulted, &san).map_err(|e| format!("after {plan:?}: {e}"))?;
                }

                // Every strict prefix of the write, as a torn batch leaves it.
                let new = rows_of(&san);
                let changed: Vec<usize> =
                    (0..new.len()).filter(|&i| !old.contains(&new[i])).collect();
                for landed in 0..changed.len() {
                    let mut torn = old.clone();
                    for &i in &changed[..landed] {
                        let (ns, key, value) = &new[i];
                        match torn.iter_mut().find(|(n, k, _)| n == ns && k == key) {
                            Some(row) => row.2 = value.clone(),
                            None => torn.push(new[i].clone()),
                        }
                    }
                    let torn_san = san_with(&torn);
                    match restore(&torn_san, None).0 {
                        Ok(mut second) => {
                            prop_verify_eq!(
                                state_of(&mut second),
                                clean_state,
                                "a chimera from {landed} of {} rows",
                                changed.len()
                            );
                            second.flush_persist().unwrap();
                            same_rows(&torn_san, &san)?;
                        }
                        Err(BundleError::CorruptState(_)) => {}
                        Err(e) => return Err(format!("second restore: {e}")),
                    }
                }
                Ok(())
            },
        );
    }
}
