//! A bundle's persistent storage area: a row cache over its SAN namespace.

use dosgi_san::{SharedStore, StoreError, Value};
use std::collections::BTreeMap;

/// One resident row: what the SAN holds under the key (`None`: known to be
/// absent there) or, while dirty, a written value the SAN has yet to take.
#[derive(Debug)]
struct Row {
    value: Option<Value>,
    /// The area's flush count when the row was last written, plus one
    /// (0: never written). The row is dirty while no flush has landed
    /// since, so a flush that lands cleans every row by counting itself.
    written_in: u64,
}

/// A bundle's persistent storage area (OSGi's per-bundle data area) as a
/// **row cache** over the SAN namespace `{framework namespace}/data/{symbolic
/// name}`: the SAN is the area, memory holds only the rows a call touched.
///
/// * A read that misses memory does one [`SharedStore::get`] for that key
///   and remembers the answer, found or absent: a row is fetched at most
///   once per residency. A failed read remembers nothing and is the
///   caller's error.
/// * A write lands in memory and marks its row dirty; a `flush`
///   writes the dirty rows — and only those — as one batch and clears the
///   marks when the SAN took them all.
/// * A `release` ends the residency of every clean row, so
///   the next read asks the SAN again.
///
/// Without a SAN the area is plain memory: reads never miss to anywhere,
/// written rows stay dirty and are flushed once a SAN is attached.
#[derive(Debug, Default)]
pub struct DataArea {
    san: Option<(SharedStore, String)>,
    rows: BTreeMap<String, Row>,
    /// How many flushes landed.
    flushes: u64,
    /// How many rows are dirty.
    dirty: usize,
    /// A row was written since the last flush attempt.
    written: bool,
}

impl DataArea {
    /// Points the area (by default over nothing) at a SAN namespace; rows
    /// written before are still dirty and go there with the next flush.
    pub(crate) fn attach(&mut self, store: SharedStore, namespace: String) {
        self.san = Some((store, namespace));
    }

    /// Reads a row, from memory if it is resident, else from the SAN.
    ///
    /// # Errors
    ///
    /// The [`StoreError`] of the failed SAN read.
    pub fn get(&mut self, key: &str) -> Result<Option<Value>, StoreError> {
        if let Some(row) = self.rows.get(key) {
            return Ok(row.value.clone());
        }
        let Some((store, namespace)) = &self.san else {
            return Ok(None);
        };
        let value = store.get(namespace, key)?;
        let row = Row {
            value: value.clone(),
            written_in: 0,
        };
        self.rows.insert(key.to_owned(), row);
        Ok(value)
    }

    /// Writes a row in memory and marks it dirty. The key is allocated
    /// when the row first becomes resident, not on an overwrite.
    pub fn put(&mut self, key: &str, value: Value) {
        let row = Row {
            value: Some(value),
            written_in: self.flushes + 1,
        };
        let was_dirty = match self.rows.get_mut(key) {
            Some(resident) => std::mem::replace(resident, row).written_in > self.flushes,
            None => self.rows.insert(key.to_owned(), row).is_some(),
        };
        self.dirty += usize::from(!was_dirty);
        self.written = true;
    }

    /// True if a row was written since the last flush attempt: the call
    /// that did owes its caller a flush, a call that wrote nothing does not
    /// answer for rows an earlier one left dirty.
    pub(crate) fn written(&self) -> bool {
        self.written
    }

    /// True while a written row has not reached the attached SAN.
    pub(crate) fn is_dirty(&self) -> bool {
        self.dirty > 0 && self.san.is_some()
    }

    /// Writes the dirty rows to the SAN as one batch. On an error — a torn
    /// batch included — every mark stays: the retry rewrites the same rows
    /// and the store skips the ones that did land.
    ///
    /// # Errors
    ///
    /// The [`StoreError`] of the failed write.
    pub(crate) fn flush(&mut self) -> Result<(), StoreError> {
        self.written = false;
        if self.dirty == 0 {
            return Ok(());
        }
        let Some((store, namespace)) = &self.san else {
            return Ok(());
        };
        // One pass, which ends at the last dirty row.
        let mut dirty = self
            .rows
            .iter()
            .filter(|(_, row)| row.written_in > self.flushes)
            .take(self.dirty)
            .filter_map(|(key, row)| Some((key.as_str(), row.value.as_ref()?)));
        match (dirty.next(), self.dirty) {
            // The hot-key case needs no batch built.
            (Some(only), 1) => store.put_many(namespace, &[only])?,
            (first, _) => {
                let batch: Vec<(&str, &Value)> = first.into_iter().chain(dirty).collect();
                store.put_many(namespace, &batch)?
            }
        };
        self.flushes += 1;
        self.dirty = 0;
        Ok(())
    }

    /// Drops every clean row; dirty rows stay until a flush lands them.
    pub(crate) fn release(&mut self) {
        self.rows.retain(|_, row| row.written_in > self.flushes);
    }

    /// How many rows the area holds: the SAN's live rows when one is
    /// attached (call after a successful flush), else the written ones.
    pub(crate) fn len(&self) -> usize {
        match &self.san {
            Some((store, namespace)) => store.list_keys(namespace).len(),
            None => self.rows.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        ActivatorFactory, BundleId, BundleManifest, CallContext, DirtyCount, FnActivator,
        Framework, FrameworkConfig, ManifestBuilder, ServiceError, Version,
    };
    use dosgi_san::FaultPlan;
    use dosgi_telemetry::Telemetry;
    use dosgi_testkit::{prop, prop_verify, prop_verify_eq, Gen, PropResult};

    const NS: &str = "fw/data/org.test.kv";

    fn area(store: &SharedStore) -> DataArea {
        let mut area = DataArea::default();
        area.attach(store.clone(), NS.to_owned());
        area
    }

    #[test]
    fn a_row_is_fetched_once_per_residency_found_or_absent() {
        let store = SharedStore::new();
        let telemetry = Telemetry::new();
        store.set_telemetry(telemetry.clone());
        store.put(NS, "k", Value::Int(1)).unwrap();
        let ops = || telemetry.counter("san.ops");
        let mut a = area(&store);
        let before = ops();
        for _ in 0..3 {
            assert_eq!(a.get("k"), Ok(Some(Value::Int(1))));
            assert_eq!(a.get("missing"), Ok(None));
        }
        assert_eq!(ops() - before, 2, "one get per key");
        // Somebody else's write is seen once the residency ends.
        store.put(NS, "k", Value::Int(2)).unwrap();
        store.put(NS, "missing", Value::Int(3)).unwrap();
        assert_eq!(a.get("k"), Ok(Some(Value::Int(1))));
        a.release();
        assert_eq!(a.get("k"), Ok(Some(Value::Int(2))));
        assert_eq!(a.get("missing"), Ok(Some(Value::Int(3))));
    }

    #[test]
    fn a_failed_read_remembers_nothing() {
        let store = SharedStore::new();
        store.put(NS, "k", Value::Int(1)).unwrap();
        let mut a = area(&store);
        store.set_fault_plan(FaultPlan::flaky(1.0, 3));
        assert_eq!(a.get("k"), Err(StoreError::Io { op: "get" }));
        store.clear_faults();
        assert_eq!(a.get("k"), Ok(Some(Value::Int(1))));
    }

    #[test]
    fn flush_writes_the_dirty_rows_only_and_keeps_the_marks_on_failure() {
        let store = SharedStore::new();
        store.put(NS, "clean", Value::Int(1)).unwrap();
        let mut a = area(&store);
        assert_eq!(a.get("clean"), Ok(Some(Value::Int(1))));
        a.put("a", Value::Int(10));
        a.put("b", Value::Int(20));
        a.put("a", Value::Int(11));
        assert!(a.is_dirty());
        store.set_fault_plan(FaultPlan::none().with_torn_writes(1.0));
        assert!(matches!(a.flush(), Err(StoreError::TornWrite { .. })));
        assert!(a.is_dirty());
        // A release in between costs no written row.
        a.release();
        store.clear_faults();
        store.reset_stats();
        a.flush().unwrap();
        assert!(!a.is_dirty());
        let stats = store.stats();
        assert_eq!(
            stats.writes + stats.writes_skipped,
            2,
            "`clean` is not rewritten"
        );
        assert_eq!(store.peek(NS, "a"), Some(Value::Int(11)));
        assert_eq!(store.peek(NS, "b"), Some(Value::Int(20)));
        // Nothing dirty: nothing asked of the SAN, not even a fault roll.
        store.set_fault_plan(FaultPlan::flaky(1.0, 3));
        assert_eq!(a.flush(), Ok(()));
    }

    #[test]
    fn without_a_san_rows_wait_for_one() {
        let mut a = DataArea::default();
        assert_eq!(a.get("k"), Ok(None));
        a.put("k", Value::Int(1));
        assert_eq!((a.flush(), a.is_dirty(), a.len()), (Ok(()), false, 1));
        let store = SharedStore::new();
        a.attach(store.clone(), NS.to_owned());
        assert!(a.is_dirty());
        a.flush().unwrap();
        assert_eq!(store.peek(NS, "k"), Some(Value::Int(1)));
    }

    // ------------------------------------------------------------------
    // Through the framework
    // ------------------------------------------------------------------

    const FW: &str = "fw";
    const SN: &str = "org.test.kv";

    fn manifest(minor: u32) -> BundleManifest {
        ManifestBuilder::new(SN, Version::new(1, minor, 0))
            .build()
            .unwrap()
    }

    /// A key-value service over the bundle's data area. Its activator reads
    /// a row at start and fails the start if the read does.
    fn factory() -> ActivatorFactory {
        let mut f = ActivatorFactory::new();
        f.register(SN, |_| {
            Box::new(FnActivator::on_start(|ctx| {
                ctx.store_get("k0").map_err(|e| e.to_string())?;
                ctx.register_service(
                    &["kv"],
                    Default::default(),
                    Box::new(
                        |cc: &mut CallContext<'_>, method: &str, arg: &Value| match method {
                            "get" => {
                                let key = arg.as_str().unwrap_or_default();
                                Ok(cc.store_get(key)?.unwrap_or(Value::Null))
                            }
                            "put" => {
                                let key = arg.get("k").and_then(Value::as_str);
                                let value = arg.get("v").cloned().unwrap_or(Value::Null);
                                cc.store_put(key.unwrap_or_default(), value);
                                Ok(Value::Null)
                            }
                            other => Err(ServiceError::Failed(format!("no {other}"))),
                        },
                    ),
                );
                Ok(())
            }))
        });
        f
    }

    fn started(store: &SharedStore, fac: &ActivatorFactory) -> (Framework, BundleId) {
        let mut fw = Framework::new(FW);
        fw.attach_store(store.clone(), FW).unwrap();
        let id = fw.install(manifest(0), fac.create(&manifest(0))).unwrap();
        fw.start(id).unwrap();
        (fw, id)
    }

    #[test]
    fn handoff_keys_counts_the_sans_rows_not_the_resident_ones() {
        let store = SharedStore::new();
        for (key, n) in [("k0", 0), ("k1", 1), ("k2", 2)] {
            store.put(NS, key, Value::Int(n)).unwrap();
        }
        let fac = factory();
        // The old revision's start touched `k0` and nothing else.
        let (mut fw, id) = started(&store, &fac);
        let report = fw
            .upgrade_bundle(id, manifest(1), fac.create(&manifest(1)))
            .unwrap();
        assert_eq!(report.handoff_keys, 3);
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// Read key `.1`, through the service (`true`) or the bundle context.
        Get(bool, u8),
        /// Write key `.1`, likewise.
        Put(bool, u8, u8),
        Stop,
        Start,
        Flush,
        /// Hot-swap to the next minor revision.
        Upgrade,
        /// Drop the framework and restore it from the SAN.
        Crash,
        /// Arm `.0` % I/O errors and `.1` % torn batches, seeded by `.2`.
        Fault(u8, u8, u8),
        Heal,
    }

    fn ops() -> Gen<Vec<Op>> {
        prop::vecs(
            prop::one_of(vec![
                Gen::new(|r| Op::Get(r.chance(0.5), r.u64_below(5) as u8)),
                Gen::new(|r| Op::Get(r.chance(0.5), r.u64_below(5) as u8)),
                Gen::new(|r| Op::Put(r.chance(0.5), r.u64_below(5) as u8, r.byte())),
                Gen::new(|r| Op::Put(r.chance(0.5), r.u64_below(5) as u8, r.byte())),
                Gen::new(|_| Op::Stop),
                Gen::new(|_| Op::Start),
                Gen::new(|_| Op::Flush),
                Gen::new(|_| Op::Upgrade),
                Gen::new(|_| Op::Crash),
                Gen::new(|r| Op::Fault(r.u64_in(1, 10) as u8, r.u64_below(11) as u8, r.byte())),
                Gen::new(|_| Op::Heal),
            ]),
            1,
            60,
        )
    }

    /// The data namespace as the SAN holds it.
    fn san_rows(store: &SharedStore) -> BTreeMap<String, Value> {
        let dump = store.dump();
        let rows = dump.into_iter().find(|(ns, _)| ns == NS);
        let rows = rows.map(|(_, rows)| rows).unwrap_or_default();
        rows.into_iter().map(|(k, v)| (k, v.value)).collect()
    }

    fn encoded(rows: &BTreeMap<String, Value>) -> Vec<(&String, Vec<u8>)> {
        rows.iter().map(|(k, v)| (k, v.encode())).collect()
    }

    /// Random interleavings of reads and writes through both contexts,
    /// stops and starts in place, flushes, crashes and hot swaps, under
    /// injected I/O errors and torn batches, against an **eager** model:
    /// one map holding the whole area, loaded whole from the SAN at every
    /// restore. Every read returns what the model holds; after every
    /// acknowledged write, flush or hand-off the SAN holds the model, byte
    /// for byte, and so at the end; no key is fetched from the SAN twice in
    /// one residency; and the shared dirty count says what the framework
    /// says.
    fn cache_matches_the_eager_model(ops: &[Op]) -> PropResult {
        let store = SharedStore::new();
        let fac = factory();
        let (mut fw, mut id) = started(&store, &fac);
        let count = DirtyCount::default();
        fw.share_dirty_count(&count);
        let mut model: BTreeMap<String, Value> = BTreeMap::new();
        // Keys known to be resident: read or written since the last
        // release. (Rows may be resident that are not listed; never the
        // reverse.)
        let mut resident: Vec<String> = vec!["k0".to_owned()];
        let mut armed = false;
        let mut minor = 0;
        for op in ops {
            let reads = store.stats().reads;
            // What a release is known to keep: rows the SAN does not hold.
            let dirty = |model: &BTreeMap<String, Value>, key: &String| {
                model.get(key).map(Value::encode) != store.peek(NS, key).map(|v| v.encode())
            };
            let mut acknowledged = false;
            match *op {
                Op::Get(through_service, k) => {
                    let key = format!("k{k}");
                    let got = if !through_service {
                        fw.bundle_store_get(id, &key).map_err(|e| e.to_string())
                    } else if let Some(sid) = fw.best_service("kv") {
                        let reply = fw.call_service(sid, "get", &Value::from(key.as_str()));
                        let found = reply.map(|v| Some(v).filter(|v| !v.is_null()));
                        found.map_err(|e| e.to_string())
                    } else {
                        continue;
                    };
                    let fetched = store.stats().reads - reads;
                    prop_verify!(
                        fetched <= u64::from(!resident.contains(&key)),
                        "{op:?} fetched {fetched} rows, resident: {resident:?}"
                    );
                    match got {
                        Ok(got) => {
                            prop_verify_eq!(got.as_ref(), model.get(&key), "{op:?}");
                            resident.push(key);
                        }
                        Err(e) => prop_verify!(armed, "{op:?} failed on a healthy SAN: {e}"),
                    }
                }
                Op::Put(through_service, k, v) => {
                    let (key, value) = (format!("k{k}"), Value::Int(i64::from(v)));
                    let put = if !through_service {
                        fw.bundle_store_put(id, &key, value.clone())
                            .map_err(|e| e.to_string())
                    } else if let Some(sid) = fw.best_service("kv") {
                        let arg = Value::map()
                            .with("k", key.as_str())
                            .with("v", value.clone());
                        let reply = fw.call_service(sid, "put", &arg);
                        reply.map(drop).map_err(|e| e.to_string())
                    } else {
                        continue;
                    };
                    // Acknowledged or not, the in-memory effect stands.
                    model.insert(key.clone(), value);
                    resident.push(key);
                    prop_verify!(put.is_ok() || armed, "{op:?} failed on a healthy SAN");
                    acknowledged = put.is_ok();
                }
                Op::Stop => {
                    fw.stop(id).expect("installed");
                    resident.retain(|key| dirty(&model, key));
                }
                Op::Start => {
                    if fw.start(id).is_err() {
                        prop_verify!(armed, "start failed on a healthy SAN");
                        resident.retain(|key| dirty(&model, key));
                    }
                }
                Op::Flush => acknowledged = fw.flush_persist().is_ok(),
                Op::Upgrade => {
                    let to = manifest(minor + 1);
                    match fw.upgrade_bundle(id, to.clone(), fac.create(&to)) {
                        Ok(report) => {
                            prop_verify_eq!(report.handoff_keys, model.len(), "handoff_keys");
                            acknowledged = true;
                        }
                        Err(e) => {
                            prop_verify!(armed, "upgrade failed on a healthy SAN: {e}");
                            resident.retain(|key| dirty(&model, key));
                        }
                    }
                    minor = fw.bundle(id).expect("installed").manifest.version.minor;
                }
                Op::Crash => {
                    // What was not acknowledged may or may not have landed:
                    // the SAN says which, and the eager model loads it.
                    store.clear_faults();
                    armed = false;
                    fw = Framework::restore(FrameworkConfig::new(FW), store.clone(), FW, &fac)
                        .map_err(|e| format!("restore: {e}"))?;
                    fw.share_dirty_count(&count);
                    id = fw.find_bundle(SN).ok_or("bundle lost across the crash")?;
                    model = san_rows(&store);
                    resident.clear();
                }
                Op::Fault(io, torn, seed) => {
                    let plan = FaultPlan::flaky(f64::from(io) / 100.0, u64::from(seed));
                    store.set_fault_plan(plan.with_torn_writes(f64::from(torn) / 100.0));
                    armed = true;
                }
                Op::Heal => {
                    store.clear_faults();
                    armed = false;
                }
            }
            // A start reads `k0`; the restore's reads are of snapshot rows.
            let may_fetch = match op {
                Op::Get(..) | Op::Crash => u64::MAX,
                Op::Start | Op::Upgrade => u64::from(!resident.iter().any(|key| key == "k0")),
                _ => 0,
            };
            let fetched = store.stats().reads - reads;
            prop_verify!(fetched <= may_fetch, "{op:?} fetched {fetched} rows");
            prop_verify_eq!(count.any(), fw.persist_dirty(), "dirty count after {op:?}");
            if acknowledged {
                let san = san_rows(&store);
                prop_verify_eq!(
                    encoded(&san),
                    encoded(&model),
                    "acknowledged {op:?}, yet the SAN lags the model"
                );
            }
        }
        store.clear_faults();
        fw.flush_persist()
            .map_err(|e| format!("final flush: {e}"))?;
        prop_verify!(!fw.persist_dirty(), "dirty after the final flush");
        let san = san_rows(&store);
        prop_verify_eq!(encoded(&san), encoded(&model), "final dump");
        for key in (0..5).map(|k| format!("k{k}")) {
            let got = fw.bundle_store_get(id, &key).map_err(|e| e.to_string())?;
            prop_verify_eq!(got.as_ref(), model.get(&key), "final read of {key}");
        }
        Ok(())
    }

    #[test]
    fn prop_row_cache_matches_an_eager_area_under_faults() {
        prop::check_with(
            &prop::Config::with_cases(200),
            "prop_row_cache_matches_an_eager_area_under_faults",
            &ops(),
            |ops: &Vec<Op>| cache_matches_the_eager_model(ops),
        );
    }
}
