//! The lifecycle controller: every transition a bundle makes, each written
//! once. A `*_step` is one transition and never persists; a public
//! operation is a batch of steps followed by one persist of the rows they
//! marked ([`then_persist`](Framework::then_persist)), and
//! [`restore`](Framework::restore) and [`shutdown`](Framework::shutdown)
//! are batches of many.

use super::areas::with_area;
use super::persistence::insert_sorted;
use super::{Bundle, Framework, UpgradeReport};
use crate::persist::Row;
use crate::{Activator, BundleContext, BundleError, BundleId, BundleManifest, BundleState};
use dosgi_san::Value;
use std::sync::Arc;

impl Framework {
    /// Installs a bundle, leaving it `INSTALLED`.
    ///
    /// # Errors
    ///
    /// [`BundleError::DuplicateBundle`] if a bundle with the same symbolic
    /// name and version is already installed.
    pub fn install(
        &mut self,
        manifest: impl Into<Arc<BundleManifest>>,
        activator: Option<Box<dyn Activator>>,
    ) -> Result<BundleId, BundleError> {
        let manifest = manifest.into();
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
        let bundle = Bundle {
            id,
            manifest,
            state: BundleState::Installed,
            autostart: false,
            state_version,
            activator,
            row: Value::Null,
        };
        self.bundles.insert(id, bundle);
        self.metrics.installed.incr();
        self.mark(Row::Header); // next_bundle advanced
        self.mark(Row::Bundle(id));
        self.mark(Row::Manifest(id));
        let _ = self.persist();
        Ok(id)
    }

    /// Attempts to resolve every `INSTALLED` bundle.
    pub fn resolve_all(&mut self) {
        self.then_persist(Self::resolve_step);
    }

    /// Runs lifecycle transitions, then persists the rows they marked — if
    /// they marked any — in one write. The transitions themselves
    /// (`*_step`) never persist: [`restore`](Self::restore) and
    /// [`shutdown`](Self::shutdown) run many of them before their one
    /// persist, each public operation here is the batch of one.
    pub(super) fn then_persist<R>(&mut self, transitions: impl FnOnce(&mut Self) -> R) -> R {
        let marks = self.marks;
        let outcome = transitions(self);
        if self.marks != marks {
            let _ = self.persist();
        }
        outcome
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

    pub(super) fn start_step(&mut self, id: BundleId) -> Result<(), BundleError> {
        let state = self.bundle_state(id)?;
        match state {
            BundleState::Active => return Ok(()),
            // Every caller has just resolved: a bundle still `INSTALLED`
            // does not wire.
            BundleState::Installed => {
                let b = self.bundles.get(&id).expect("bundle_state checked id");
                let imports = b.manifest.imports.iter();
                let missing = imports.map(|i| i.name.clone()).collect();
                return Err(BundleError::ResolutionFailed {
                    bundle: id,
                    missing,
                });
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
        let mut activator = self.enter(id, BundleState::Starting);
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
                self.metrics.started.incr();
                self.mark(Row::Bundle(id));
                Ok(())
            }
            Err(message) => {
                bundle.state = BundleState::Resolved;
                // Services a half-started activator registered are swept,
                // and so are the rows it read.
                self.registry.unregister_bundle(id);
                self.release_area(id);
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
        self.stop_releasing(id, true)
    }

    /// A stop, persisted, that ends the residency of the bundle's data-area
    /// rows: a stopped bundle holds no copy of what the SAN holds, so a
    /// restart in place reads what is there by then. A transient stop
    /// (`persistent == false`, as in a refresh)
    /// keeps the persistent-start flag, so the bundle comes back on
    /// restart. Only an upgrade's quiesce stops without releasing: it hands
    /// the rows to the new revision.
    pub(super) fn stop_releasing(
        &mut self,
        id: BundleId,
        persistent: bool,
    ) -> Result<(), BundleError> {
        self.then_persist(|fw| fw.stop_step(id, persistent))?;
        self.release_area(id);
        Ok(())
    }

    fn stop_step(&mut self, id: BundleId, persistent: bool) -> Result<(), BundleError> {
        let state = self.bundle_state(id)?;
        if state != BundleState::Active {
            if persistent {
                self.bundles
                    .get_mut(&id)
                    .expect("state read above")
                    .autostart = false;
                self.mark(Row::Bundle(id));
            }
            return Ok(());
        }
        let mut activator = self.enter(id, BundleState::Stopping);
        // A failing `stop` still stops the bundle: its services go either
        // way.
        if let Some(a) = activator.as_mut() {
            let mut ctx = BundleContext::new(id, self);
            let _ = a.stop(&mut ctx);
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
        self.metrics.stopped.incr();
        self.mark(Row::Bundle(id));
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
        self.metrics.uninstalled.incr();
        if self.store.is_some() {
            let rows = [Row::Bundle(id), Row::Manifest(id)];
            self.dirty_rows.retain(|dirty| !rows.contains(dirty));
            rows.into_iter()
                .for_each(|row| insert_sorted(&mut self.deleted_rows, row));
            self.sync_dirty_mark();
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
        manifest: impl Into<Arc<BundleManifest>>,
        activator: Option<Box<dyn Activator>>,
    ) -> Result<UpgradeReport, BundleError> {
        let manifest = manifest.into();
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
            self.then_persist(|fw| fw.stop_step(id, false))?;
        }
        if let Err(e) = self.flush_persist() {
            // Roll back: the old revision resumes serving; the caller
            // retries the whole upgrade once the SAN recovers.
            if was_active {
                let _ = self.start(id);
            }
            return Err(BundleError::Store(e));
        }
        let handoff_keys = with_area(&mut self.areas, &self.store, sn.as_str(), |area| area.len());
        let to = manifest.version;
        self.metrics.upgraded.incr();
        // The swap: the new manifest, `INSTALLED`, the new revision owning
        // the data area, its activator, its wiring recomputed, and a
        // restart if the old revision was running.
        let bundle = self.bundles.get_mut(&id).expect("looked up above");
        bundle.manifest = manifest;
        bundle.state = BundleState::Installed;
        bundle.state_version = to;
        if let Some(a) = activator {
            bundle.activator = Some(a);
        }
        self.wirings.remove(&id);
        self.mark(Row::Bundle(id));
        self.mark(Row::Manifest(id));
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

    /// Orderly shutdown: stops all active bundles in descending id order
    /// *without* clearing their persistent-start flags, then persists the
    /// final state, once. After `restore`, the same bundles come back.
    pub fn shutdown(&mut self) {
        let active: Vec<BundleId> = self
            .bundles
            .values()
            .rev()
            .filter(|b| b.state == BundleState::Active)
            .map(|b| b.id)
            .collect();
        for id in active {
            let _ = self.stop_step(id, false);
            self.release_area(id);
        }
        let _ = self.persist();
    }

    /// Enters the transient `state` (`STARTING` or `STOPPING`) and takes
    /// the activator out for the call the state stands for.
    fn enter(&mut self, id: BundleId, state: BundleState) -> Option<Box<dyn Activator>> {
        let bundle = self.bundles.get_mut(&id).expect("callers read its state");
        bundle.state = state;
        bundle.activator.take()
    }
}

#[cfg(test)]
mod tests {
    use crate::framework::{Bundle, DirtyCount, Framework, FrameworkConfig};
    use crate::persist;
    use crate::{ActivatorFactory, BundleId, BundleManifest, ManifestBuilder, Version};
    use dosgi_san::{FaultPlan, SharedStore, Value};

    /// Random lifecycle sequences with SAN faults injected mid-stream: the
    /// store-attached framework must (a) never let a fault change a
    /// lifecycle outcome (its in-memory state stays byte-identical to a
    /// storeless oracle applying the same ops), and (b) once the SAN heals
    /// and the write-behind rows flush, its per-bundle rows — the rows each
    /// bundle keeps, refreshed in place by every persist — must reassemble
    /// byte-identically to the monolithic snapshot the oracle would write,
    /// which builds every row afresh. The ops include an in-place upgrade
    /// within the major version, and a restore: the framework is
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
            DataPut(u8),
            Upgrade(u8),
            Restore,
            Fault(u8),
            Heal,
        }

        fn pool() -> Vec<BundleManifest> {
            (0..8u32)
                .map(|i| {
                    ManifestBuilder::new(&format!("org.prop.b{i}"), Version::new(1, 0, 0))
                        .private_package(&format!("org.prop.b{i}.impl"), ["Main"])
                        .build()
                        .unwrap()
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
                Op::DataPut(n) => {
                    let _ = fw.bundle_store_put(
                        BundleId(u64::from(n) % 12 + 1),
                        &format!("k{}", n % 3),
                        Value::Int(i64::from(n)),
                    );
                }
                Op::Upgrade(n) => {
                    let id = BundleId(u64::from(n) % 12 + 1);
                    let Some(mut manifest) = fw.bundle(id).map(|b| (*b.manifest).clone()) else {
                        return;
                    };
                    // An upgrade that cannot persist its quiesce rolls
                    // back, an outcome a fault is allowed to change: the
                    // SAN heals first.
                    if let Some(store) = store {
                        store.clear_faults();
                    }
                    let v = manifest.version;
                    manifest.version = Version::new(v.major, v.minor + 1, 0);
                    let _ = fw.upgrade_bundle(id, manifest, None);
                }
                Op::Restore => {
                    if let Some(store) = store {
                        store.clear_faults();
                    }
                    let (san, ns) = match &fw.store {
                        Some(attached) => attached.clone(),
                        None => {
                            let (san, ns) = (SharedStore::new(), std::sync::Arc::from(fw.name()));
                            fw.attach_store(san.clone(), &ns).expect("a fault-free SAN");
                            (san, ns)
                        }
                    };
                    fw.flush_persist().expect("a healed SAN");
                    let factory = ActivatorFactory::new();
                    let config = FrameworkConfig::new(ns.to_string());
                    *fw = Framework::restore(config, san, &ns, &factory)
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
                        store.clear_faults();
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
                prop::u8s(0, 11).map(Op::DataPut),
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
                store.clear_faults();
                fw.flush_persist().expect("flush after heal");

                let mono = persist::tests::snapshot(oracle.next_bundle, oracle.bundles());
                let live = persist::tests::snapshot(fw.next_bundle, fw.bundles());
                prop_verify!(
                    live.encode() == mono.encode(),
                    "faulted framework diverged from the storeless oracle in memory"
                );

                let mut rows = persist::Rows::new(&());
                store
                    .visit_namespace(ns, |key, row| rows.read(key, row))
                    .expect("healed SAN");
                let assembled = rows
                    .assemble()
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
                let from_rows = persist::tests::snapshot(assembled.next_bundle, rebuilt.iter());
                prop_verify!(
                    from_rows.encode() == mono.encode(),
                    "persisted rows diverge from the monolithic oracle snapshot"
                );
                Ok(())
            },
        );
    }
}
