//! The persistence controller: which snapshot rows are ahead of the SAN
//! (dirty marks, and the [`DirtyCount`] an instance manager reads), the
//! persist that writes exactly those, the flush that retries whatever is
//! pending, and the restore that reads a framework back.

use super::areas::area_namespace;
use super::{Bundle, Framework, FrameworkConfig, FrameworkMetrics};
use crate::persist::{self, Row};
use crate::{ActivatorFactory, BundleError, BundleId, BundleState, DataArea, KnownManifests};
use dosgi_san::{SharedStore, StoreError, Value};
use dosgi_telemetry::{Phase, Phases};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Adds `row` to `rows`, kept sorted and free of duplicates.
pub(super) fn insert_sorted(rows: &mut Vec<Row>, row: Row) {
    if let Err(at) = rows.binary_search(&row) {
        rows.insert(at, row);
    }
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
/// a framework destroyed while dirty does not leave the count stuck. It
/// tracks whether the framework is dirty either way, and counts it only
/// in a count it has been given.
#[derive(Debug, Default)]
pub(super) struct DirtyMark {
    count: Option<DirtyCount>,
    pub(super) counted: bool,
}

impl DirtyMark {
    fn set(&mut self, dirty: bool) {
        if dirty != self.counted {
            self.counted = dirty;
            if let Some(count) = &self.count {
                if dirty {
                    count.0.fetch_add(1, Ordering::Relaxed);
                } else {
                    count.0.fetch_sub(1, Ordering::Relaxed);
                }
            }
        }
    }
}

impl Drop for DirtyMark {
    fn drop(&mut self) {
        self.set(false);
    }
}

impl Framework {
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

    /// Counts this framework's pending persistence in `count` from now on,
    /// withdrawing it from the count it was given before, if any. A
    /// framework counts in no shared count until it is given one.
    pub fn share_dirty_count(&mut self, count: &DirtyCount) {
        self.dirty_mark = DirtyMark {
            count: Some(count.clone()),
            counted: false,
        };
        self.sync_dirty_mark();
    }

    pub(super) fn sync_dirty_mark(&mut self) {
        let dirty = self.persist_dirty();
        self.dirty_mark.set(dirty);
    }

    /// Marks a snapshot row — the header (`next_bundle` / `start_level`) or
    /// a bundle's — as ahead of the SAN. Every in-memory lifecycle mutation
    /// must mark the rows it touched; the persist call sites then flush
    /// exactly the marked rows (write-behind on failure).
    pub(super) fn mark(&mut self, row: Row) {
        if self.store.is_some() {
            insert_sorted(&mut self.dirty_rows, row);
            self.dirty_mark.set(true);
            self.marks += 1;
        }
    }

    /// Marks every snapshot row dirty — used when the SAN copy cannot be
    /// assumed to match anything (store attach). Change detection in the
    /// store makes rewriting an identical row free.
    pub(super) fn mark_all_rows_dirty(&mut self) {
        let ids: Vec<BundleId> = self.bundles.keys().copied().collect();
        self.mark(Row::Header);
        ids.into_iter().for_each(|id| self.mark(Row::Bundle(id)));
    }

    /// Writes the changed snapshot rows of the framework state to the
    /// attached store, if any. Called automatically after every lifecycle
    /// mutation; rows that did not change since the last persist are not
    /// rewritten (dirty-tracking at bundle granularity), and the store
    /// additionally skips rows whose bytes are identical.
    ///
    /// Persistence is **write-behind** with respect to lifecycle progress: a
    /// transient SAN failure does not roll back the in-memory transition.
    /// Instead the framework leaves the rows marked dirty and relies on a
    /// later
    /// [`flush_persist`](Self::flush_persist) (the node tick drives one with
    /// backoff) to converge durable state.
    ///
    /// # Errors
    ///
    /// The [`StoreError`] from the failed write; the rows stay dirty.
    pub fn persist(&mut self) -> Result<(), StoreError> {
        self.persist_knowing(&())
    }

    /// [`persist`](Self::persist), building a restored bundle's first row
    /// around the row form `known` holds of its manifest.
    fn persist_knowing(&mut self, known: &dyn KnownManifests) -> Result<(), StoreError> {
        // Lent to `persist_rows` beside `&mut self`, then put back.
        let Some((store, ns)) = self.store.take() else {
            return Ok(());
        };
        let outcome = self.persist_rows(&store, &ns, known);
        self.store = Some((store, ns));
        self.sync_dirty_mark();
        outcome
    }

    fn persist_rows(
        &mut self,
        store: &SharedStore,
        ns: &str,
        known: &dyn KnownManifests,
    ) -> Result<(), StoreError> {
        // Deletes first: an uninstalled bundle's row must be gone before a
        // concurrent restore could reassemble it into a stale bundle.
        while let Some(&row) = self.deleted_rows.first() {
            match store.delete(ns, row.key().as_ref()) {
                Ok(()) | Err(StoreError::NotFound { .. }) => {
                    self.deleted_rows.remove(0);
                }
                Err(e) => return Err(e),
            }
        }
        if self.dirty_rows.is_empty() {
            return Ok(());
        }
        // A dirty row for a since-uninstalled bundle was replaced by a
        // delete marker: it has no bundle, and nothing is written for it.
        for row in &self.dirty_rows {
            if let Row::Bundle(id) = row {
                if let Some(b) = self.bundles.get_mut(id) {
                    persist::refresh_row(b, known);
                }
            }
        }
        let header = self
            .dirty_rows
            .contains(&Row::Header)
            .then(|| persist::header_row(self.next_bundle, self.config.start_level));
        // In key order, header last: a torn batch lands a prefix of it.
        let mut entries = self.dirty_rows.iter().filter_map(|&row| {
            let value = match row {
                Row::Header => header.as_ref()?,
                Row::Bundle(id) => &self.bundles.get(&id)?.row,
            };
            Some((row.key(), value))
        });
        // Either end of a hand-off writes one row, and needs no batch built.
        let rows = match (entries.next(), self.dirty_rows.len()) {
            (Some(only), 1) => store.put_many(ns, &[only])?,
            (first, _) => {
                let batch: Vec<_> = first.into_iter().chain(entries).collect();
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
        // Each area writes its dirty rows, and only those.
        let outcome = self.areas.values_mut().try_for_each(DataArea::flush);
        self.sync_dirty_mark();
        outcome
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
    /// under `namespace`, reinstalling every bundle (activators re-created
    /// via `factory`, every manifest parsed from its row) and restarting
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
        let (uncounted, unphased) = (FrameworkMetrics::default(), Phases::disabled());
        Self::restore_counted(config, store, namespace, factory, &(), uncounted, &unphased)
    }

    /// [`restore`](Self::restore) sharing the manifests `known` holds —
    /// a bundle whose persisted manifest equals a known one's row form gets
    /// that manifest, any other is parsed from its row — with the telemetry
    /// handles attached before the first bundle is installed, so that the
    /// restore's own transitions and rows are counted, and its parts
    /// counted in `phases`: `adopt.read`, `adopt.manifests`,
    /// `adopt.resolve`, `adopt.start` and, inside the start,
    /// `adopt.register`.
    ///
    /// The namespace is read once, under the store's lock, and every row is
    /// parsed where it lies: no row is copied. The one write holds the
    /// rows whose `(state, autostart, state_version)` differ from what was
    /// read — none when every bundle comes back as its row says — and the
    /// header when the ids its rows hold correct it. A restored bundle's
    /// row is built at its first write, around the row form `known` holds
    /// of its manifest.
    ///
    /// # Errors
    ///
    /// As [`restore`](Self::restore).
    pub fn restore_counted(
        config: FrameworkConfig,
        store: SharedStore,
        namespace: impl Into<String>,
        factory: &ActivatorFactory,
        known: &dyn KnownManifests,
        metrics: FrameworkMetrics,
        phases: &Phases,
    ) -> Result<Framework, BundleError> {
        let namespace = namespace.into();
        let mut rows = persist::Rows::new(known);
        phases.count_in(Phase::AdoptRead, || {
            store.visit_namespace(&namespace, |key, row| rows.read(key, row))
        })?;
        let making = phases.enter(Phase::AdoptManifests);
        let Some(mut parsed) = rows.assemble().map_err(BundleError::CorruptState)? else {
            let missing = format!("no snapshot in {namespace}");
            return Err(BundleError::CorruptState(missing));
        };
        let mut fw = Framework::with_config(config);
        fw.metrics = metrics;
        fw.config.start_level = parsed.start_level;
        // A torn install batch lands the bundle's row without the header
        // that counts it: no id a row holds is handed out again.
        let past_rows = parsed.bundles.last().map_or(0, |r| r.id.0 + 1);
        fw.next_bundle = parsed.next_bundle.max(past_rows);
        // Attached before anything restarts: activators read their
        // persisted data areas during start.
        fw.store = Some((store, namespace));
        if fw.next_bundle != parsed.next_bundle {
            fw.mark(Row::Header);
        }
        for record in &parsed.bundles {
            let activator = factory.create(&record.manifest);
            let bundle = Bundle {
                id: record.id,
                manifest: Arc::clone(&record.manifest),
                state: BundleState::Installed,
                autostart: record.autostart,
                state_version: record.state_version,
                activator,
                row: Value::Null,
            };
            fw.bundles.insert(record.id, bundle);
            fw.metrics.installed.incr();
        }
        // The records still say what each row said when it was read.
        // Sorted, the persistently-started bundles within the start level
        // come last, in (start level, id) order.
        let starts = |r: &persist::BundleRecord| {
            let level = r.manifest.start_level;
            (r.autostart && level <= parsed.start_level).then_some(level)
        };
        parsed.bundles.sort_unstable_by_key(|r| (starts(r), r.id));
        drop(making);
        phases.count_in(Phase::AdoptResolve, || fw.resolve_step());
        fw.phases = phases.clone();
        let starting = phases.enter(Phase::AdoptStart);
        for record in parsed.bundles.iter().filter(|r| starts(r).is_some()) {
            // A bundle whose activator fails stays degraded
            // (`degraded_bundles`); the others start regardless.
            let _ = fw.start_step(record.id);
        }
        drop(starting);
        fw.phases = Phases::disabled();
        // A row lags exactly when its bundle no longer says what it was
        // read as, whatever the transitions marked on the way: a bundle
        // persisted ACTIVE and started again writes nothing, and one
        // persisted RESOLVED that no longer resolves stays INSTALLED
        // without any transition having run.
        fw.dirty_rows.retain(|&row| row == Row::Header);
        for record in &parsed.bundles {
            let b = &fw.bundles[&record.id];
            let as_read = (record.state, record.autostart, record.state_version);
            if (b.state, b.autostart, b.state_version) != as_read {
                fw.mark(Row::Bundle(record.id));
            }
        }
        let _ = fw.persist_knowing(known);
        Ok(fw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::tests::lifecycle;
    use crate::{BundleId, BundleManifest, FnActivator, ManifestBuilder, Version};
    use dosgi_net::SimTime;
    use dosgi_san::FaultPlan;
    use dosgi_telemetry::Telemetry;

    /// The row rule, for a bundle row in a form this code does not write:
    /// `reshape` applied to a started bundle's row. A restore that brings
    /// the bundle back as the row says writes nothing, so every row stays
    /// byte for byte as it was; the first lifecycle write after it writes
    /// the row in `bundle_row`'s form.
    fn a_quiet_restore_keeps_the_row_and_the_next_write_canonicalises_it(
        reshape: impl FnOnce(Value) -> Value,
    ) {
        const NS: &str = "canon/fw";
        let store = SharedStore::new();
        let mut fw = Framework::new(NS);
        fw.attach_store(store.clone(), NS).unwrap();
        let manifest = ManifestBuilder::new("org.canon", Version::new(1, 2, 0))
            .build()
            .unwrap();
        let id = fw.install(manifest, None).unwrap();
        fw.start(id).unwrap();
        let key = Row::Bundle(id).key();
        let read = reshape(store.peek(NS, key.as_ref()).unwrap());
        store.put(NS, key.as_ref(), read.clone()).unwrap();
        let encoded = |store: &SharedStore| -> Vec<(String, Vec<u8>)> {
            let rows = store.read_namespace(NS).unwrap().into_iter();
            rows.map(|(key, row)| (key, row.encode())).collect()
        };
        let (as_read, before) = (encoded(&store), store.stats());

        let factory = ActivatorFactory::new();
        let mut fw = Framework::restore(FrameworkConfig::new(NS), store.clone(), NS, &factory)
            .expect("the row parses");
        let after = store.stats();
        assert!(fw.bundles().all(|b| b.state.is_active()));
        assert_eq!(encoded(&store), as_read, "a quiet restore moved a row");
        assert_eq!(
            (after.writes, after.writes_skipped),
            (before.writes, before.writes_skipped),
            "a quiet restore wrote"
        );

        fw.stop(id).unwrap();
        let b = fw.bundles().next().unwrap();
        let written = store.peek(NS, key.as_ref()).unwrap();
        assert_eq!(written.encode(), persist::bundle_row(b).encode());
        assert_ne!(written.encode(), read.encode());
    }

    /// A row written before `state_version` existed restores, and keeps its
    /// form until the bundle's next transition writes the field.
    #[test]
    fn a_row_without_state_version_is_canonicalised_on_its_first_write() {
        a_quiet_restore_keeps_the_row_and_the_next_write_canonicalises_it(|row| {
            let Value::Map(mut row) = row else {
                panic!("a bundle row is a map")
            };
            assert!(row.remove("state_version").is_some());
            Value::Map(row)
        });
    }

    /// A row carrying a field this code does not write restores, and keeps
    /// it until the bundle's next transition writes the row without it.
    #[test]
    fn a_row_with_an_unknown_field_is_canonicalised_on_its_first_write() {
        a_quiet_restore_keeps_the_row_and_the_next_write_canonicalises_it(|row| {
            row.with("unknown", "kept until the first write")
        });
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
    /// The model the batched [`Framework::restore`] is held to: the
    /// per-transition sequence it replaced — every transition persisted on
    /// its own through the public operations, every row re-marked at the end.
    fn reference_restore(
        config: FrameworkConfig,
        store: SharedStore,
        namespace: &str,
        factory: &ActivatorFactory,
        metrics: FrameworkMetrics,
    ) -> Result<Framework, BundleError> {
        let mut rows = persist::Rows::new(&());
        for (key, row) in store.read_namespace(namespace)? {
            rows.read(&key, &row);
        }
        let parsed = rows
            .assemble()
            .map_err(BundleError::CorruptState)?
            .ok_or_else(|| BundleError::CorruptState(format!("no snapshot in {namespace}")))?;
        let mut fw = Framework::with_config(config);
        fw.metrics = metrics;
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
            fw.metrics.installed.incr();
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
            let _ = fw.start(id);
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
    ///   from its own copy of the SAN: bundles, start level, wirings, the
    ///   services and the registry's generation, and the lifecycle counts
    ///   are equal, and once flushed the two SANs hold
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
                    Left::Resolved => fw.resolve_all(),
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

        /// What a restore leaves in memory, the lifecycle it counted into
        /// `telemetry` included.
        fn state_of(fw: &Framework, telemetry: &Telemetry) -> String {
            let bundles: Vec<_> = fw
                .bundles()
                .map(|b| (b.id, &b.manifest, b.state, b.autostart, b.state_version))
                .collect();
            let head = (fw.next_bundle, fw.config.start_level, fw.persist_dirty());
            let wirings = format!("{:?}", fw.wirings);
            let services = (fw.registry.len(), fw.registry.generation());
            let counted = lifecycle(telemetry);
            format!("{head:?} {bundles:?} {wirings} {services:?} {counted:?}")
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
                let at = store.peek(NS, Row::Bundle(b.id).key().as_ref());
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
                    let telemetry = Telemetry::new();
                    let metrics = FrameworkMetrics::new(&telemetry);
                    let unphased = Phases::disabled();
                    let fw = Framework::restore_counted(
                        config(),
                        store.clone(),
                        NS,
                        &factory,
                        &(),
                        metrics,
                        &unphased,
                    );
                    (fw.map(|fw| (fw, telemetry)), armed)
                };

                // Differential leg.
                let (san, model_san) = (san_with(&old), san_with(&old));
                let (mut fw, counts) =
                    restore(&san, None).0.map_err(|e| format!("batched: {e}"))?;
                let model_world = world(&model_san);
                model_world.refusing.store(true, Ordering::Relaxed);
                let model_counts = Telemetry::new();
                let mut model = reference_restore(
                    config(),
                    model_san.clone(),
                    NS,
                    &factory(case, &model_world),
                    FrameworkMetrics::new(&model_counts),
                )
                .map_err(|e| format!("model: {e}"))?;
                prop_verify_eq!(state_of(&fw, &counts), state_of(&model, &model_counts));
                fw.flush_persist().unwrap();
                model.flush_persist().unwrap();
                same_rows(&san, &model_san)?;
                san_is_memory(&fw, &san)?;
                let clean_state = {
                    let (again, _) = restore(&san_with(&old), None);
                    let (again, counts) = again.unwrap();
                    state_of(&again, &counts)
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
                    let (mut fw, _) = fw.map_err(|e| format!("under {plan:?}: {e}"))?;
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
                        Ok((mut second, counts)) => {
                            prop_verify_eq!(
                                state_of(&second, &counts),
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
