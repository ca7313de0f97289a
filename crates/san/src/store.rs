//! The cluster-wide shared object store.

use crate::backend::{MapBackend, Put};
use crate::fault::{FaultInjector, FaultPlan};
use crate::{StoreError, Value};
use dosgi_net::SimTime;
use dosgi_telemetry::{Counter, Telemetry};
use std::borrow::{Borrow, Cow};
use std::cell::{RefCell, RefMut};
use std::rc::Rc;

/// A stored value together with its monotonically increasing version.
#[derive(Debug, Clone, PartialEq)]
pub struct Versioned {
    /// Version counter: 1 on first write, +1 per update. The counter
    /// survives deletion: a deleted key leaves a tombstone, and a re-created
    /// key continues counting from it, so a version number can never be
    /// observed twice for different states.
    pub version: u64,
    /// The value.
    pub value: Value,
}

/// I/O counters for experiment reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Successful read operations.
    pub reads: u64,
    /// Successful write operations (put, cas, delete).
    pub writes: u64,
    /// Total encoded bytes written.
    pub bytes_written: u64,
    /// Total encoded bytes read.
    pub bytes_read: u64,
    /// Operations rejected by the fault layer (brown-out, injected I/O
    /// error, torn batch).
    pub faults: u64,
    /// Writes skipped because the new value was byte-identical to the
    /// stored one (no version bump, no bytes moved).
    pub writes_skipped: u64,
    /// Encoded bytes those skipped writes would have moved — the traffic
    /// change detection saved.
    pub bytes_skipped: u64,
}

/// Everything the store holds, in its one cell: the map, its counters,
/// the fault layer and the telemetry handles.
#[derive(Debug, Default)]
struct Inner {
    map: MapBackend,
    stats: StoreStats,
    faults: FaultInjector,
    metrics: Metrics,
}

/// The `san.*` telemetry handles, resolved when a registry is attached.
/// Counting through one does not borrow the registry.
#[derive(Debug, Default)]
struct Metrics {
    ops: Counter,
    faults: Counter,
    // `san.faults.<kind>` for the kinds the fault layer injects.
    fault_kinds: [(&'static str, Counter); 3],
    skipped_identical: Counter,
}

impl Metrics {
    fn new(t: &Telemetry) -> Self {
        Metrics {
            ops: t.counter_handle("san.ops"),
            faults: t.counter_handle("san.faults"),
            fault_kinds: ["unavailable", "io", "torn_write"]
                .map(|kind| (kind, t.counter_handle(format_args!("san.faults.{kind}")))),
            skipped_identical: t.counter_handle("san.writes.skipped_identical"),
        }
    }

    fn count_fault(&self, e: &StoreError) {
        self.faults.incr();
        if let Some((_, counter)) = self.fault_kinds.iter().find(|(k, _)| *k == e.kind()) {
            counter.incr();
        }
    }
}

/// The simulated SAN: a shared, durable, versioned key-value store.
///
/// Clones share the same underlying storage (`Rc` semantics), modeling the
/// paper's assumption that every node sees the same storage tier. Node
/// crashes in the simulation never touch this store — that is precisely the
/// property migration relies on.
///
/// Keys live inside string *namespaces* (e.g. `"framework/n3"`,
/// `"instance/42/data"`), which map onto the per-framework and per-bundle
/// storage areas of the OSGi specification.
///
/// # Contract
///
/// `SharedStore` is the fault-injecting, telemetry-emitting,
/// stats-accounting front door over one in-memory map of versioned slots.
/// Every key's version counter **survives deletion** — a delete leaves a
/// tombstone and a re-created key continues counting from it — and a
/// byte-identical rewrite is skipped (change detection, decided here, above
/// the map). The `san_contract` bin's capture pins the observable
/// behaviour: results, versions, stats, fault interleaving.
///
/// # Fallibility
///
/// Every **data-plane** operation (`put`, `get`, `cas`, `delete`,
/// `read_namespace`, `delete_namespace`, `put_many`) consults the fault
/// layer first and returns `Err` during brown-outs or injected I/O errors —
/// see [`crate::fault`]. The fault state lives in the store's one cell,
/// beside the map: an operation borrows it once, and counts itself, rolls
/// its faults, writes and updates its counters inside that borrow. With no
/// [`FaultPlan`] attached (the default) these operations never fail for
/// fault reasons. **Control-plane**
/// introspection (`list_keys`, `list_namespaces`, `namespace_bytes`,
/// `stats`, `peek`) is deliberately infallible: it models the simulation
/// harness's omniscient view, not a real client.
#[derive(Debug, Clone, Default)]
pub struct SharedStore {
    shared: Rc<RefCell<Inner>>,
}

impl SharedStore {
    /// Creates an empty store with an inert fault injector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Borrows the shared state.
    fn inner(&self) -> RefMut<'_, Inner> {
        self.shared.borrow_mut()
    }

    /// The head of every data-plane operation `op`: borrows the store,
    /// counts `op` in `san.ops`, then rolls its faults. A rejection is
    /// counted in the stats and in `san.faults` and returned; otherwise the
    /// borrow is handed to the operation.
    fn admit(&self, op: &'static str) -> Result<RefMut<'_, Inner>, StoreError> {
        let mut guard = self.inner();
        let inner = &mut *guard;
        inner.metrics.ops.incr();
        if let Err(e) = inner.faults.roll(op) {
            inner.stats.faults += 1;
            inner.metrics.count_fault(&e);
            return Err(e);
        }
        Ok(guard)
    }

    /// Attaches a telemetry handle (`san.*` metrics), shared by every
    /// clone of this store. Telemetry never affects fault injection: the
    /// injector's RNG stream is consumed identically with telemetry on
    /// or off.
    pub fn set_telemetry(&self, telemetry: Telemetry) {
        let metrics = Metrics::new(&telemetry);
        self.inner().metrics = metrics;
    }

    // ------------------------------------------------------------------
    // Fault layer wiring
    // ------------------------------------------------------------------

    /// Installs a fault plan, (re)seeding the fault RNG stream from it.
    /// See [`crate::fault`].
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        self.inner().faults.set_plan(plan);
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.inner().faults.plan().cloned()
    }

    /// Removes any fault plan; the store becomes infallible again.
    pub fn clear_faults(&self) {
        self.inner().faults.clear();
    }

    /// Advances the fault clock (brown-out windows gate on it). The cluster
    /// driver calls this every simulation step.
    pub fn set_now(&self, now: SimTime) {
        self.inner().faults.set_now(now);
    }

    /// False while the store is inside an injected brown-out window.
    pub fn is_available(&self) -> bool {
        self.inner().faults.is_available()
    }

    // ------------------------------------------------------------------
    // Data plane (fallible)
    // ------------------------------------------------------------------

    /// Writes `value` under `namespace/key`, returning the new version.
    ///
    /// # Errors
    ///
    /// Fault-injected [`StoreError::Unavailable`] / [`StoreError::Io`].
    /// Change detection: if the new value encodes byte-identically to the
    /// stored one the write is skipped entirely — no version bump, no byte
    /// accounting, only `writes_skipped`/`san.writes.skipped_identical`.
    /// The fault roll still happens first, so the injector's RNG stream is
    /// identical whether or not the value changed.
    pub fn put(&self, namespace: &str, key: &str, value: Value) -> Result<u64, StoreError> {
        let mut inner = self.admit("put")?;
        let len = value.encoded_len() as u64;
        match inner.map.put(namespace, key, Cow::Owned(value), len) {
            Put::Skipped(version) => {
                inner.stats.writes_skipped += 1;
                inner.stats.bytes_skipped += len;
                inner.metrics.skipped_identical.incr();
                Ok(version)
            }
            Put::Wrote(version) => {
                inner.stats.writes += 1;
                inner.stats.bytes_written += len;
                Ok(version)
            }
        }
    }

    /// Atomically-intended multi-key write: all of `entries` into
    /// `namespace`, in order, in one borrow of the store. Under a
    /// torn-write fault only a strict prefix lands and
    /// [`StoreError::TornWrite`] reports how much; rewriting the full batch
    /// is the idempotent recovery. Entries are `(key, value)` pairs, owned
    /// or borrowed: a caller that holds its rows elsewhere passes
    /// references. A value that changed is copied into its live slot,
    /// reusing the stored value's allocations where the shapes match.
    ///
    /// # Errors
    ///
    /// Fault-injected [`StoreError::Unavailable`] / [`StoreError::Io`] /
    /// [`StoreError::TornWrite`].
    pub fn put_many<K: AsRef<str>, V: Borrow<Value>>(
        &self,
        namespace: &str,
        entries: &[(K, V)],
    ) -> Result<usize, StoreError> {
        let mut inner = self.admit("put_many")?;
        let torn = inner.faults.torn_len(entries.len());
        let persisted = torn.unwrap_or(entries.len());
        let mut bytes = 0u64;
        let mut skipped = 0u64;
        let mut bytes_skipped = 0u64;
        // Per-entry change detection, same contract as `put`: an identical
        // entry costs nothing and keeps its version. Each surviving entry
        // is written before the next is compared, so a duplicate key
        // compares against the row the batch just wrote, not the pre-batch
        // one.
        for (key, value) in &entries[..persisted] {
            let (key, value) = (key.as_ref(), value.borrow());
            // One size computation per entry (streamed, allocation-free)
            // serves change-detection stats, write accounting and the
            // namespace's running total alike.
            let len = value.encoded_len() as u64;
            match inner.map.put(namespace, key, Cow::Borrowed(value), len) {
                Put::Skipped(_) => {
                    skipped += 1;
                    bytes_skipped += len;
                }
                Put::Wrote(_) => bytes += len,
            }
        }
        inner.stats.writes += persisted as u64 - skipped;
        inner.stats.writes_skipped += skipped;
        inner.stats.bytes_skipped += bytes_skipped;
        inner.stats.bytes_written += bytes;
        if skipped > 0 {
            inner.metrics.skipped_identical.add(skipped);
        }
        match torn {
            Some(written) => {
                let e = StoreError::TornWrite { written };
                inner.stats.faults += 1;
                inner.metrics.count_fault(&e);
                Err(e)
            }
            None => Ok(persisted),
        }
    }

    /// Reads the value under `namespace/key` (`Ok(None)` for a miss).
    ///
    /// # Errors
    ///
    /// Fault-injected [`StoreError::Unavailable`] / [`StoreError::Io`].
    pub fn get(&self, namespace: &str, key: &str) -> Result<Option<Value>, StoreError> {
        Ok(self.get_versioned(namespace, key)?.map(|v| v.value))
    }

    /// Reads the value and its version.
    ///
    /// # Errors
    ///
    /// Fault-injected [`StoreError::Unavailable`] / [`StoreError::Io`].
    pub fn get_versioned(
        &self,
        namespace: &str,
        key: &str,
    ) -> Result<Option<Versioned>, StoreError> {
        let mut inner = self.admit("get")?;
        let v = inner.map.get(namespace, key);
        if let Some(v) = &v {
            inner.stats.reads += 1;
            inner.stats.bytes_read += v.value.encoded_len() as u64;
        }
        Ok(v)
    }

    /// Compare-and-swap: writes `value` only if the current *live* version
    /// equals `expected` (use 0 for "key must not exist" — a deleted key
    /// counts as not existing). Returns the new version, which continues
    /// the key's monotonic counter: recreating a deleted key yields a
    /// version strictly greater than any the key ever had, never
    /// `expected + 1` re-used from before the delete.
    ///
    /// # Errors
    ///
    /// [`StoreError::CasConflict`] if the version does not match, plus
    /// fault-injected errors.
    pub fn cas(
        &self,
        namespace: &str,
        key: &str,
        expected: u64,
        value: Value,
    ) -> Result<u64, StoreError> {
        let mut inner = self.admit("cas")?;
        let found = inner.map.key_version(namespace, key).live();
        if found != expected {
            return Err(StoreError::CasConflict { expected, found });
        }
        let len = value.encoded_len() as u64;
        let version = inner.map.insert(namespace, key, Cow::Owned(value), len);
        inner.stats.writes += 1;
        inner.stats.bytes_written += len;
        Ok(version)
    }

    /// Deletes `namespace/key`. The key's version counter survives as a
    /// tombstone: a later re-put of even an identical value gets a fresh
    /// version, so stale readers can never mistake the recreated key for
    /// the one they cached.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] if the key is absent, plus fault-injected
    /// errors.
    pub fn delete(&self, namespace: &str, key: &str) -> Result<(), StoreError> {
        let mut inner = self.admit("delete")?;
        if inner.map.remove(namespace, key) {
            inner.stats.writes += 1;
            Ok(())
        } else {
            Err(StoreError::NotFound {
                namespace: namespace.to_owned(),
                key: key.to_owned(),
            })
        }
    }

    /// Deletes an entire namespace, returning how many keys it held. Every
    /// deleted key leaves a version tombstone (see [`delete`](Self::delete)).
    ///
    /// # Errors
    ///
    /// Fault-injected [`StoreError::Unavailable`] / [`StoreError::Io`].
    pub fn delete_namespace(&self, namespace: &str) -> Result<usize, StoreError> {
        let mut inner = self.admit("delete_namespace")?;
        let n = inner.map.remove_namespace(namespace);
        if n > 0 {
            inner.stats.writes += 1;
        }
        Ok(n)
    }

    /// Reads a whole namespace as `(key, value)` pairs, sorted by key: the
    /// owning form of [`visit_namespace`](Self::visit_namespace).
    ///
    /// # Errors
    ///
    /// Fault-injected [`StoreError::Unavailable`] / [`StoreError::Io`].
    pub fn read_namespace(&self, namespace: &str) -> Result<Vec<(String, Value)>, StoreError> {
        let mut pairs = Vec::new();
        self.visit_namespace(namespace, |key, value| {
            pairs.push((key.to_owned(), value.clone()));
        })?;
        Ok(pairs)
    }

    /// Reads a whole namespace, handing each live row to `visit` in key
    /// order, borrowed: the reader copies what it keeps and nothing else.
    /// One fault roll, and each row counted as one read of its encoded
    /// bytes, as [`read_namespace`](Self::read_namespace) counts them.
    /// `visit` runs while the store is borrowed, so it must not call the
    /// store.
    ///
    /// # Errors
    ///
    /// Fault-injected [`StoreError::Unavailable`] / [`StoreError::Io`];
    /// `visit` then sees no row.
    pub fn visit_namespace(
        &self,
        namespace: &str,
        mut visit: impl FnMut(&str, &Value),
    ) -> Result<(), StoreError> {
        let mut inner = self.admit("read_namespace")?;
        let Inner { map, stats, .. } = &mut *inner;
        for row in map.rows(namespace) {
            stats.reads += 1;
            stats.bytes_read += row.len;
            visit(row.key, row.value);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Control plane (infallible introspection)
    // ------------------------------------------------------------------

    /// Fault-free diagnostic read: the simulation harness's omniscient view
    /// of `namespace/key`, bypassing the fault layer and the I/O counters.
    /// Invariant checkers use this to inspect durable state *during* a
    /// brown-out; production paths must use [`get`](Self::get).
    pub fn peek(&self, namespace: &str, key: &str) -> Option<Value> {
        self.inner().map.get(namespace, key).map(|v| v.value)
    }

    /// Keys in a namespace, sorted.
    pub fn list_keys(&self, namespace: &str) -> Vec<String> {
        self.inner().map.list_keys(namespace)
    }

    /// All namespaces with at least one key, sorted.
    pub fn list_namespaces(&self) -> Vec<String> {
        self.inner().map.list_namespaces()
    }

    /// A full omniscient dump of the live store — every namespace's
    /// key-sorted `(key, version, value)` rows — bypassing faults and
    /// stats. This is the store section of the `san_contract` capture.
    pub fn dump(&self) -> Vec<(String, Vec<(String, Versioned)>)> {
        let inner = self.inner();
        inner
            .map
            .list_namespaces()
            .into_iter()
            .map(|ns| {
                let rows = inner
                    .map
                    .rows(&ns)
                    .map(|row| {
                        let value = row.value.clone();
                        let versioned = Versioned {
                            version: row.version,
                            value,
                        };
                        (row.key.to_owned(), versioned)
                    })
                    .collect();
                (ns, rows)
            })
            .collect()
    }

    /// Total encoded size of a namespace in bytes (no stats impact) —
    /// the "how much state would a migration move" metric.
    pub fn namespace_bytes(&self, namespace: &str) -> u64 {
        self.inner().map.namespace_bytes(namespace)
    }

    /// Total encoded size across every namespace equal to `prefix` or
    /// under `prefix/…` — an instance's full footprint (framework snapshot
    /// plus all bundle data areas).
    pub fn namespace_bytes_prefixed(&self, prefix: &str) -> u64 {
        self.inner().map.namespace_bytes_prefixed(prefix)
    }

    /// Current I/O counters.
    pub fn stats(&self) -> StoreStats {
        self.inner().stats
    }

    /// Resets the I/O counters (between experiment phases).
    pub fn reset_stats(&self) {
        self.inner().stats = StoreStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosgi_testkit::{prop, prop_verify, prop_verify_eq, Gen, PropConfig, TestRng};
    use std::collections::HashMap;

    #[test]
    fn put_get_round_trip_and_versions() {
        let s = SharedStore::new();
        assert_eq!(s.put("ns", "k", Value::Int(1)), Ok(1));
        assert_eq!(s.put("ns", "k", Value::Int(2)), Ok(2));
        assert_eq!(s.get("ns", "k"), Ok(Some(Value::Int(2))));
        assert_eq!(s.get_versioned("ns", "k").unwrap().unwrap().version, 2);
        assert_eq!(s.get("ns", "missing"), Ok(None));
    }

    #[test]
    fn clones_share_storage() {
        let s = SharedStore::new();
        let s2 = s.clone();
        s.put("ns", "k", Value::Int(1)).unwrap();
        assert_eq!(s2.get("ns", "k"), Ok(Some(Value::Int(1))));
    }

    #[test]
    fn cas_succeeds_only_on_matching_version() {
        let s = SharedStore::new();
        // Create-if-absent.
        assert_eq!(s.cas("ns", "k", 0, Value::Int(1)), Ok(1));
        assert_eq!(
            s.cas("ns", "k", 0, Value::Int(9)),
            Err(StoreError::CasConflict {
                expected: 0,
                found: 1
            })
        );
        assert_eq!(s.cas("ns", "k", 1, Value::Int(2)), Ok(2));
        assert_eq!(s.get("ns", "k"), Ok(Some(Value::Int(2))));
    }

    #[test]
    fn delete_and_not_found() {
        let s = SharedStore::new();
        s.put("ns", "k", Value::Int(1)).unwrap();
        s.delete("ns", "k").unwrap();
        assert_eq!(s.get("ns", "k"), Ok(None));
        assert!(matches!(
            s.delete("ns", "k"),
            Err(StoreError::NotFound { .. })
        ));
    }

    /// Regression for the stale-reader hazard: a delete followed by a
    /// re-put of the *identical* value must bump the version. Before the
    /// tombstone fix the recreated key reused its old version, so a PR 4
    /// change-detecting reader holding the old `(value, version)` pair
    /// would skip a re-read across the delete window and never observe
    /// that the key had been deleted and recreated.
    #[test]
    fn delete_then_identical_reput_always_bumps_the_version() {
        let s = SharedStore::new();
        let v = Value::Str("same".into());
        assert_eq!(s.put("ns", "k", v.clone()), Ok(1));
        s.delete("ns", "k").unwrap();
        let recreated = s.put("ns", "k", v.clone()).unwrap();
        assert!(
            recreated > 1,
            "recreated key must not reuse version 1 (got {recreated})"
        );
        assert_eq!(recreated, 2, "counter continues past the tombstone");
        // And change detection still works on the recreated key.
        assert_eq!(s.put("ns", "k", v.clone()), Ok(2));
        assert_eq!(s.stats().writes_skipped, 1);
    }

    /// Same hazard through the namespace-wide delete: `delete_namespace`
    /// must tombstone every key it removes.
    #[test]
    fn delete_namespace_then_reput_always_bumps_versions() {
        let s = SharedStore::new();
        s.put("ns", "a", Value::Int(1)).unwrap();
        s.put("ns", "a", Value::Int(2)).unwrap();
        s.put("ns", "b", Value::Int(3)).unwrap();
        assert_eq!(s.delete_namespace("ns"), Ok(2));
        assert_eq!(s.put("ns", "a", Value::Int(2)), Ok(3), "a was at 2");
        assert_eq!(s.put("ns", "b", Value::Int(3)), Ok(2), "b was at 1");
    }

    /// A deleted key counts as absent for `cas(expected = 0)`, but the
    /// granted version continues the monotonic counter.
    #[test]
    fn cas_create_after_delete_continues_the_counter() {
        let s = SharedStore::new();
        s.put("ns", "k", Value::Int(1)).unwrap();
        s.put("ns", "k", Value::Int(2)).unwrap();
        s.delete("ns", "k").unwrap();
        assert_eq!(
            s.cas("ns", "k", 2, Value::Int(9)),
            Err(StoreError::CasConflict {
                expected: 2,
                found: 0
            }),
            "a tombstoned key reads as absent to cas"
        );
        assert_eq!(s.cas("ns", "k", 0, Value::Int(9)), Ok(3));
    }

    #[test]
    fn namespace_operations() {
        let s = SharedStore::new();
        s.put("a", "k1", Value::Int(1)).unwrap();
        s.put("a", "k2", Value::Int(2)).unwrap();
        s.put("b", "k3", Value::Int(3)).unwrap();
        assert_eq!(s.list_keys("a"), vec!["k1", "k2"]);
        assert_eq!(s.list_namespaces(), vec!["a", "b"]);
        let all = s.read_namespace("a").unwrap();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0], ("k1".to_owned(), Value::Int(1)));
        assert_eq!(s.delete_namespace("a"), Ok(2));
        assert_eq!(s.list_namespaces(), vec!["b"]);
        assert_eq!(s.delete_namespace("a"), Ok(0));
    }

    #[test]
    fn stats_account_bytes() {
        let s = SharedStore::new();
        let v = Value::Str("hello".into());
        let len = v.encoded_len() as u64;
        s.put("ns", "k", v).unwrap();
        let _ = s.get("ns", "k").unwrap();
        let st = s.stats();
        assert_eq!(st.writes, 1);
        assert_eq!(st.reads, 1);
        assert_eq!(st.bytes_written, len);
        assert_eq!(st.bytes_read, len);
        assert_eq!(st.faults, 0);
        s.reset_stats();
        assert_eq!(s.stats(), StoreStats::default());
    }

    #[test]
    fn namespace_bytes_reports_encoded_size() {
        let s = SharedStore::new();
        let v1 = Value::Str("abc".into());
        let v2 = Value::Int(7);
        let expect = (v1.encoded_len() + v2.encoded_len()) as u64;
        s.put("ns", "k1", v1).unwrap();
        s.put("ns", "k2", v2).unwrap();
        assert_eq!(s.namespace_bytes("ns"), expect);
        assert_eq!(s.namespace_bytes("other"), 0);
    }

    #[test]
    fn prefixed_bytes_cover_sub_namespaces_only() {
        let s = SharedStore::new();
        s.put("inst/a", "k", Value::Int(1)).unwrap();
        s.put("inst/a/data/x", "k", Value::Int(2)).unwrap();
        s.put("inst/ab", "k", Value::Int(3)).unwrap(); // sibling, NOT under inst/a
        let expect = Value::Int(1).encoded_len() as u64 + Value::Int(2).encoded_len() as u64;
        assert_eq!(s.namespace_bytes_prefixed("inst/a"), expect);
        assert!(s.namespace_bytes_prefixed("inst/ab") > 0);
        assert_eq!(s.namespace_bytes_prefixed("nope"), 0);
    }

    /// The walk over the ordered namespace names: `a-b` sorts between `a`
    /// and `a/b`, `a0` and `ab/c` after them, and none of the three is
    /// under `a`; a namespace holding only tombstones weighs nothing.
    #[test]
    fn prefixed_bytes_walk_the_ordered_names() {
        let s = SharedStore::new();
        let names = ["a", "a-b", "a/b", "a/b/c", "a0", "ab/c", "a/gone"];
        for (i, ns) in names.iter().enumerate() {
            s.put(ns, "k", Value::Bytes(vec![0; 1 << i])).unwrap();
        }
        s.delete_namespace("a/gone").unwrap();
        let bytes = |ns: &str| s.namespace_bytes(ns);
        assert!(bytes("a/gone") == 0 && !s.list_namespaces().contains(&"a/gone".to_owned()));
        assert_eq!(
            s.namespace_bytes_prefixed("a"),
            bytes("a") + bytes("a/b") + bytes("a/b/c")
        );
        assert_eq!(
            s.namespace_bytes_prefixed("a/b"),
            bytes("a/b") + bytes("a/b/c")
        );
        assert_eq!(s.namespace_bytes_prefixed("a-b"), bytes("a-b"));
        assert_eq!(s.namespace_bytes_prefixed("ab"), bytes("ab/c"));
        assert_eq!(
            s.namespace_bytes_prefixed("a/"),
            0,
            "no namespace is named `a/`"
        );
        assert_eq!(s.namespace_bytes_prefixed("b"), 0);
        // What the listing-based sum answered, for every prefix.
        for prefix in names {
            let listed: u64 = s
                .list_namespaces()
                .iter()
                .filter(|n| *n == prefix || n.starts_with(&format!("{prefix}/")))
                .map(|n| bytes(n))
                .sum();
            assert_eq!(
                s.namespace_bytes_prefixed(prefix),
                listed,
                "prefix {prefix}"
            );
        }
    }

    #[test]
    fn misses_do_not_count_as_reads() {
        let s = SharedStore::new();
        let _ = s.get("ns", "missing").unwrap();
        assert_eq!(s.stats().reads, 0);
    }

    #[test]
    fn identical_put_skips_version_bump_and_bytes() {
        let s = SharedStore::new();
        let v = Value::Str("same".into());
        assert_eq!(s.put("ns", "k", v.clone()), Ok(1));
        let before = s.stats();
        // Identical rewrite: same version back, nothing counted as a write.
        assert_eq!(s.put("ns", "k", v.clone()), Ok(1));
        let after = s.stats();
        assert_eq!(after.writes, before.writes);
        assert_eq!(after.bytes_written, before.bytes_written);
        assert_eq!(after.writes_skipped, before.writes_skipped + 1);
        assert_eq!(s.get_versioned("ns", "k").unwrap().unwrap().version, 1);
        // A different value still bumps.
        assert_eq!(s.put("ns", "k", Value::Str("new".into())), Ok(2));
        assert_eq!(s.stats().writes, before.writes + 1);
    }

    #[test]
    fn identical_put_uses_codec_equality_for_floats() {
        let s = SharedStore::new();
        s.put("ns", "f", Value::Float(0.0)).unwrap();
        // -0.0 == 0.0 under PartialEq but encodes differently: must write.
        assert_eq!(s.put("ns", "f", Value::Float(-0.0)), Ok(2));
        // Bit-identical NaN is a skip even though NaN != NaN.
        s.put("ns", "n", Value::Float(f64::NAN)).unwrap();
        assert_eq!(s.put("ns", "n", Value::Float(f64::NAN)), Ok(1));
        assert_eq!(s.stats().writes_skipped, 1);
    }

    #[test]
    fn put_many_skips_identical_entries_only() {
        let s = SharedStore::new();
        s.put("ns", "a", Value::Int(1)).unwrap();
        s.put("ns", "b", Value::Int(2)).unwrap();
        s.reset_stats();
        let entries = vec![
            ("a".to_owned(), Value::Int(1)),  // identical → skipped
            ("b".to_owned(), Value::Int(22)), // changed → written
            ("c".to_owned(), Value::Int(3)),  // new → written
        ];
        assert_eq!(s.put_many("ns", &entries), Ok(3));
        let st = s.stats();
        assert_eq!(st.writes, 2);
        assert_eq!(st.writes_skipped, 1);
        assert_eq!(
            st.bytes_written,
            (Value::Int(22).encoded_len() + Value::Int(3).encoded_len()) as u64
        );
        assert_eq!(s.get_versioned("ns", "a").unwrap().unwrap().version, 1);
        assert_eq!(s.get_versioned("ns", "b").unwrap().unwrap().version, 2);
    }

    #[test]
    fn put_many_duplicate_keys_compare_against_the_batch() {
        let s = SharedStore::new();
        // Second occurrence identical to the first: skipped (it compares
        // against the value queued within the batch, not pre-batch state).
        let entries = vec![
            ("k".to_owned(), Value::Int(1)),
            ("k".to_owned(), Value::Int(1)),
        ];
        assert_eq!(s.put_many("ns", &entries), Ok(2));
        let st = s.stats();
        assert_eq!(st.writes, 1);
        assert_eq!(st.writes_skipped, 1);
        assert_eq!(s.get_versioned("ns", "k").unwrap().unwrap().version, 1);
        // Differing duplicate bumps twice.
        let entries = vec![
            ("j".to_owned(), Value::Int(1)),
            ("j".to_owned(), Value::Int(2)),
        ];
        assert_eq!(s.put_many("ns", &entries), Ok(2));
        assert_eq!(s.get_versioned("ns", "j").unwrap().unwrap().version, 2);
    }

    #[test]
    fn put_many_writes_all_entries_when_healthy() {
        let s = SharedStore::new();
        let entries = vec![
            ("a".to_owned(), Value::Int(1)),
            ("b".to_owned(), Value::Int(2)),
        ];
        assert_eq!(s.put_many("ns", &entries), Ok(2));
        assert_eq!(s.get("ns", "a"), Ok(Some(Value::Int(1))));
        assert_eq!(s.get("ns", "b"), Ok(Some(Value::Int(2))));
        assert_eq!(s.stats().writes, 2);
    }

    #[test]
    fn torn_put_many_persists_exactly_the_reported_prefix() {
        let s = SharedStore::new();
        s.set_fault_plan(FaultPlan::none().with_torn_writes(1.0));
        let entries: Vec<(String, Value)> =
            (0..6).map(|i| (format!("k{i}"), Value::Int(i))).collect();
        let Err(StoreError::TornWrite { written }) = s.put_many("ns", &entries) else {
            panic!("rate-1.0 torn plan must tear");
        };
        assert!(written < entries.len());
        assert_eq!(s.list_keys("ns").len(), written);
        // Recovery: rewriting the whole batch is idempotent and complete.
        s.clear_faults();
        assert_eq!(s.put_many("ns", &entries), Ok(6));
        assert_eq!(s.list_keys("ns").len(), 6);
    }

    #[test]
    fn brownout_blocks_data_plane_but_not_peek() {
        let s = SharedStore::new();
        s.put("ns", "k", Value::Int(7)).unwrap();
        s.set_fault_plan(FaultPlan::none().with_brownout(SimTime::ZERO, SimTime::from_secs(10)));
        assert!(!s.is_available());
        assert_eq!(s.get("ns", "k"), Err(StoreError::Unavailable));
        assert_eq!(
            s.put("ns", "k", Value::Int(8)),
            Err(StoreError::Unavailable)
        );
        assert_eq!(s.read_namespace("ns"), Err(StoreError::Unavailable));
        assert_eq!(s.delete_namespace("ns"), Err(StoreError::Unavailable));
        // The omniscient observer still sees the durable value.
        assert_eq!(s.peek("ns", "k"), Some(Value::Int(7)));
        assert!(s.stats().faults >= 4);
        // Time moves past the window: the store heals.
        s.set_now(SimTime::from_secs(10));
        assert!(s.is_available());
        assert_eq!(s.get("ns", "k"), Ok(Some(Value::Int(7))));
    }

    /// The fault layer is the store's, not a clone's: a plan, the clock its
    /// windows gate on and a heal reach every clone, whichever one they went
    /// through.
    #[test]
    fn clones_share_a_fault_plan_and_its_clock() {
        let a = SharedStore::new();
        let b = a.clone();
        a.put("ns", "k", Value::Int(1)).unwrap();
        a.set_fault_plan(FaultPlan::flaky(1.0, 5));
        assert_eq!(b.fault_plan(), Some(FaultPlan::flaky(1.0, 5)));
        assert_eq!(b.get("ns", "k"), Err(StoreError::Io { op: "get" }));
        b.clear_faults();
        assert_eq!(a.fault_plan(), None);
        assert_eq!(a.get("ns", "k"), Ok(Some(Value::Int(1))));

        let (from, until) = (SimTime::from_secs(1), SimTime::from_secs(2));
        b.set_fault_plan(FaultPlan::none().with_brownout(from, until));
        assert!(a.is_available());
        a.set_now(SimTime::from_millis(1500));
        assert!(!b.is_available());
        assert_eq!(
            b.put("ns", "k", Value::Int(2)),
            Err(StoreError::Unavailable)
        );
        b.set_now(until);
        assert!(a.is_available());
        assert_eq!(a.put("ns", "k", Value::Int(2)), Ok(2));

        for healer in [&a, &b] {
            a.set_fault_plan(FaultPlan::flaky(1.0, 5));
            b.set_now(SimTime::from_millis(1500));
            healer.clear_faults();
            for s in [&a, &b] {
                assert!(s.is_available() && s.fault_plan().is_none());
                assert_eq!(s.get("ns", "k"), Ok(Some(Value::Int(2))));
            }
        }
        assert_eq!(a.stats().faults, 2);
    }

    /// A seeded script of every data-plane call under a flaky, tearing and
    /// browning-out plan, run with telemetry off, attached from the start
    /// and attached halfway: the same outcome at every call, the same store
    /// and stats at the end, and on the attached-from-the-start run `san.ops`
    /// is one per call, `san.faults` and its per-kind counters each sum to
    /// `StoreStats::faults`, and `san.writes.skipped_identical` is
    /// `writes_skipped`.
    #[test]
    fn each_operation_counts_once_and_telemetry_is_passive() {
        const CALLS: usize = 400;
        const KINDS: [&str; 3] = ["unavailable", "io", "torn_write"];
        let plan = FaultPlan::flaky(0.15, 0x5A7)
            .with_torn_writes(0.5)
            .with_brownout(SimTime::from_millis(1000), SimTime::from_millis(1400));
        let run = |attach_at: Option<usize>| {
            let (s, t) = (SharedStore::new(), Telemetry::new());
            s.set_fault_plan(plan.clone());
            let mut rng = TestRng::new(49);
            let value = |rng: &mut TestRng| Value::Int(rng.u64_below(3) as i64);
            let mut outcomes = Vec::with_capacity(CALLS);
            for call in 0..CALLS {
                if attach_at == Some(call) {
                    s.set_telemetry(t.clone());
                }
                s.set_now(SimTime::from_millis(5 * call as u64));
                let key = ["a", "b", "c", "d"][rng.u64_below(4) as usize];
                outcomes.push(match rng.u64_below(6) {
                    0 => format!("{:?}", s.put("ns", key, value(&mut rng))),
                    1 => {
                        let batch: Vec<(String, Value)> = (0..rng.usize_in(1, 4))
                            .map(|i| (format!("k{i}"), value(&mut rng)))
                            .collect();
                        format!("{:?}", s.put_many("ns", &batch))
                    }
                    2 => format!("{:?}", s.get("ns", key)),
                    3 => format!("{:?}", s.cas("ns", key, rng.u64_below(3), value(&mut rng))),
                    4 => format!("{:?}", s.delete("ns", key)),
                    _ => format!("{:?}", s.read_namespace("ns")),
                });
            }
            (outcomes, s.dump(), s.stats(), t)
        };
        let (outcomes, dump, stats, t) = run(Some(0));
        assert_eq!(t.counter("san.ops"), CALLS as u64);
        assert_eq!(t.counter("san.faults"), stats.faults);
        let by_kind = KINDS.map(|kind| t.counter(&format!("san.faults.{kind}")));
        assert!(
            by_kind.iter().all(|&n| n > 0),
            "every kind injected: {by_kind:?}"
        );
        assert_eq!(by_kind.iter().sum::<u64>(), stats.faults);
        assert!(stats.writes_skipped > 0);
        assert_eq!(
            t.counter("san.writes.skipped_identical"),
            stats.writes_skipped
        );
        for attach_at in [None, Some(CALLS / 2)] {
            let (other, other_dump, other_stats, other_t) = run(attach_at);
            assert_eq!(other, outcomes, "telemetry attached at {attach_at:?}");
            assert_eq!((other_dump, other_stats), (dump.clone(), stats));
            let counted = attach_at.map_or(0, |at| CALLS - at) as u64;
            assert_eq!(other_t.counter("san.ops"), counted);
        }
    }

    #[test]
    fn flaky_store_fails_deterministically_per_seed() {
        let run = |seed| {
            let s = SharedStore::new();
            s.set_fault_plan(FaultPlan::flaky(0.5, seed));
            (0..64)
                .map(|i| s.put("ns", &format!("k{i}"), Value::Int(i)).is_err())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds, different fault pattern");
    }

    #[test]
    fn dump_covers_every_live_namespace_with_versions() {
        let s = SharedStore::new();
        s.put("b", "k", Value::Int(1)).unwrap();
        s.put("a", "k", Value::Int(2)).unwrap();
        s.put("a", "k", Value::Int(3)).unwrap();
        s.delete("b", "k").unwrap();
        let dump = s.dump();
        assert_eq!(dump.len(), 1, "namespace b is all tombstones");
        assert_eq!(dump[0].0, "a");
        assert_eq!(dump[0].1[0].1.version, 2);
    }

    /// `put_many` as it was while a batch staged itself for a group commit:
    /// survivors queued in a `Vec`, a map from key to queue position so that
    /// a duplicate key compares against the entry queued before it, and
    /// every insert at the end. The streamed write is held to this model.
    fn staged_put_many(
        store: &SharedStore,
        namespace: &str,
        entries: &[(String, Value)],
    ) -> Result<usize, StoreError> {
        let mut inner = store.admit("put_many")?;
        let torn = inner.faults.torn_len(entries.len());
        let persisted = torn.unwrap_or(entries.len());
        let mut batch: Vec<(&str, &Value)> = Vec::new();
        let mut pending: HashMap<&str, usize> = HashMap::new();
        for (key, value) in &entries[..persisted] {
            let len = value.encoded_len() as u64;
            let identical = match pending.get(key.as_str()) {
                Some(&queued) => crate::codec::codec_eq(batch[queued].1, value),
                None => inner.map.identical_live(namespace, key, value).is_some(),
            };
            if identical {
                inner.stats.writes_skipped += 1;
                inner.stats.bytes_skipped += len;
                continue;
            }
            inner.stats.writes += 1;
            inner.stats.bytes_written += len;
            pending.insert(key, batch.len());
            batch.push((key, value));
        }
        for (key, value) in batch {
            let len = value.encoded_len() as u64;
            inner
                .map
                .insert(namespace, key, Cow::Owned(value.clone()), len);
        }
        match torn {
            Some(written) => {
                inner.stats.faults += 1;
                Err(StoreError::TornWrite { written })
            }
            None => Ok(persisted),
        }
    }

    /// A value of few shapes, so that two draws often share one, or one
    /// but for a length: maps of 0–3 entries over three keys (literal or
    /// owned), lists nested down to `depth`, strings and bytes of three
    /// lengths, and both zeros.
    fn shaped_value(rng: &mut TestRng, depth: u32) -> Value {
        match rng.u64_below(if depth == 0 { 5 } else { 7 }) {
            0 => Value::Null,
            1 => Value::Int(7),
            2 => Value::Float(if rng.chance(0.5) { 0.0 } else { -0.0 }),
            3 => Value::Str("seven".repeat(rng.usize_in(0, 2))),
            4 => Value::Bytes(vec![7; 20 * rng.usize_in(0, 2)]),
            5 => (0..rng.usize_in(0, 3))
                .map(|_| shaped_value(rng, depth - 1))
                .collect(),
            _ => (0..rng.usize_in(0, 3))
                .map(|i| {
                    let key = ["a", "b", "c"][i];
                    let key = if rng.chance(0.5) {
                        Cow::Borrowed(key)
                    } else {
                        Cow::Owned(key.to_owned())
                    };
                    (key, shaped_value(rng, depth - 1))
                })
                .collect(),
        }
    }

    /// Overwriting a value in place leaves one equal to the source and
    /// encoded byte for byte as it is, whatever the two shapes: 300 seeded
    /// pairs. Mutation-checked: a `Map::clone_from` that keeps a longer
    /// destination's tail fails it.
    #[test]
    fn prop_clone_from_leaves_the_source_value() {
        let pairs = Gen::new(|rng: &mut TestRng| (shaped_value(rng, 2), shaped_value(rng, 2)));
        prop::check_with(
            &PropConfig::with_cases(300),
            "prop_clone_from_leaves_the_source_value",
            &pairs,
            |(stored, source)| {
                let mut overwritten = stored.clone();
                overwritten.clone_from(source);
                prop_verify!(overwritten == *source, "{overwritten:?} != {source:?}");
                prop_verify_eq!(overwritten.encode(), source.encode());
                Ok(())
            },
        );
    }

    /// One batch over a namespace whose keys are live, tombstoned or absent.
    #[derive(Debug, Clone)]
    struct BatchCase {
        /// Keys written before the batch; `true` deletes the key again.
        before: Vec<(String, Value, bool)>,
        batch: Vec<(String, Value)>,
    }

    fn batch_cases() -> Gen<BatchCase> {
        // Six keys, and half the values one of three: duplicates within a
        // batch and rewrites identical to the live row are the common case,
        // not the rare one. The other half are of few shapes — maps of 0–3
        // entries, nested lists, strings shorter or longer than the stored
        // one — so that an overwrite in place often meets a row it can reuse.
        let value = |rng: &mut TestRng| match rng.u64_below(6) {
            0 => Value::Int(7),
            1 => Value::Str("seven".into()),
            2 => Value::Bytes(vec![7; 40]),
            _ => shaped_value(rng, 2),
        };
        Gen::new(move |rng: &mut TestRng| {
            let mut before = Vec::new();
            for k in 0..6 {
                if rng.chance(0.7) {
                    before.push((format!("k{k}"), value(rng), rng.chance(0.3)));
                }
            }
            BatchCase {
                before,
                batch: (0..rng.usize_in(1, 24))
                    .map(|_| (format!("k{}", rng.u64_below(6)), value(rng)))
                    .collect(),
            }
        })
    }

    /// A plan under which a batch of `len` entries tears after exactly
    /// `torn` of them: fault seeds are tried until the injector draws that
    /// prefix (an inert plan for `None`).
    fn plan_tearing_at(len: usize, torn: Option<usize>) -> FaultPlan {
        let Some(torn) = torn else {
            return FaultPlan::none();
        };
        (0..)
            .map(|seed| FaultPlan::flaky(0.0, seed).with_torn_writes(1.0))
            .find(|plan| {
                let mut probe = FaultInjector::default();
                probe.set_plan(plan.clone());
                probe.torn_len(len) == Some(torn)
            })
            .expect("some seed draws every prefix length")
    }

    /// The streamed `put_many`, which overwrites a live row in place,
    /// against the staged one it replaced, which stored a fresh copy: 300
    /// seeded batches (1–24 entries over six keys that are live, tombstoned
    /// or absent; duplicate keys; rewrites identical to the live row; values
    /// whose shape differs from the live row's), each run untorn and torn at
    /// every prefix length, on two stores in the same state. The result,
    /// `dump()`, `StoreStats` and the running byte totals must be equal.
    /// Mutation-checked: a duplicate compared against the pre-batch value, a
    /// duplicate's version bump skipped, and a `Map::clone_from` that keeps
    /// a longer destination's tail each fail it.
    #[test]
    fn prop_streamed_batch_matches_the_staged_one() {
        const NS: &str = "inst/3/rows";
        prop::check_with(
            &PropConfig::with_cases(300),
            "prop_streamed_batch_matches_the_staged_one",
            &batch_cases(),
            |case| {
                let len = case.batch.len();
                for torn in std::iter::once(None).chain((0..len).map(Some)) {
                    let prepared = || {
                        let s = SharedStore::new();
                        for (key, value, deleted) in &case.before {
                            s.put(NS, key, value.clone()).unwrap();
                            if *deleted {
                                s.delete(NS, key).unwrap();
                            }
                        }
                        s.set_fault_plan(plan_tearing_at(len, torn));
                        s
                    };
                    let (staged, streamed) = (prepared(), prepared());
                    let expected = staged_put_many(&staged, NS, &case.batch);
                    let got = streamed.put_many(NS, &case.batch);
                    if expected
                        != torn.map_or(Ok(len), |written| Err(StoreError::TornWrite { written }))
                    {
                        return Err(format!("torn {torn:?}: the plan drew {expected:?}"));
                    }
                    let differs = if got != expected {
                        "result"
                    } else if streamed.dump() != staged.dump() {
                        "dump"
                    } else if streamed.stats() != staged.stats() {
                        "stats"
                    } else if streamed.namespace_bytes(NS) != staged.namespace_bytes(NS)
                        || streamed.namespace_bytes_prefixed("inst/3")
                            != staged.namespace_bytes_prefixed("inst/3")
                    {
                        "byte totals"
                    } else {
                        continue;
                    };
                    return Err(format!(
                        "torn {torn:?}: {differs} differ: streamed {got:?} {:?} {:?}, staged {expected:?} {:?} {:?}",
                        streamed.dump(),
                        streamed.stats(),
                        staged.dump(),
                        staged.stats()
                    ));
                }
                Ok(())
            },
        );
    }
}
