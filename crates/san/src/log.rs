//! A log-structured storage backend: append-only segments + in-memory
//! index, with size-triggered compaction and group-commit batching.
//!
//! This is the second [`StoreBackend`](crate::StoreBackend) — the proof
//! that the conformance contract in [`crate::backend`] is real. Writes
//! append a record to the active segment and repoint the index; nothing is
//! updated in place. When the active segment crosses
//! [`LogConfig::segment_target_bytes`] it is sealed and a fresh one opens.
//! Superseded and deleted records become *dead bytes*; once they cross
//! [`LogConfig::compact_min_dead_bytes`] **and**
//! [`LogConfig::compact_dead_ratio`] of the log, a compaction pass
//! rewrites the live records into fresh segments (the simulation's
//! single-threaded analogue of a background compactor — it runs inside
//! the mutating call, at a deterministic point).
//!
//! [`insert_many`](crate::StoreBackend::insert_many) appends the whole
//! batch under one *group commit*: one segment-roll decision and one
//! compaction check per batch instead of per entry — sized for the PR 4
//! per-bundle row workload, where a framework persist lands a couple of
//! dozen ~400 B rows at once.
//!
//! Version tombstones follow the contract in [`crate::backend`]: a delete
//! appends a tombstone record (so the log itself records the deletion) and
//! the index keeps the version counter forever; compaction preserves
//! counters even though it drops the tombstone records themselves — the
//! index, not the log, is the recovery authority for version continuity.

use crate::backend::{sum_under, BackendStats, KeyVersion, StoreBackend};
use crate::store::Versioned;
use crate::Value;
use std::collections::BTreeMap;

/// Sizing knobs for the log-structured backend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogConfig {
    /// Seal the active segment once it holds this many record bytes.
    pub segment_target_bytes: u64,
    /// Compact only when at least this many dead bytes have accumulated.
    pub compact_min_dead_bytes: u64,
    /// ... and dead bytes exceed this fraction of all segment bytes.
    pub compact_dead_ratio: f64,
}

impl Default for LogConfig {
    fn default() -> Self {
        // Sized for the per-bundle row workload: a 64 KiB segment holds a
        // few persist rounds; compaction waits for half the log to die.
        LogConfig {
            segment_target_bytes: 64 * 1024,
            compact_min_dead_bytes: 32 * 1024,
            compact_dead_ratio: 0.5,
        }
    }
}

impl LogConfig {
    /// A deliberately tiny geometry for tests that want to see many
    /// segment rolls and compactions with little data.
    pub fn tiny() -> Self {
        LogConfig {
            segment_target_bytes: 512,
            compact_min_dead_bytes: 1024,
            compact_dead_ratio: 0.3,
        }
    }
}

/// One record in a segment.
#[derive(Debug, Clone)]
enum Record {
    Put {
        namespace: String,
        key: String,
        version: u64,
        value: Value,
    },
    Tombstone {
        namespace: String,
        key: String,
        version: u64,
    },
}

impl Record {
    /// The record's accounting cost: key material + `value_len` encoded
    /// value bytes (0 for a tombstone; measured once, when the value was
    /// written) + a fixed framing overhead (tag, version, lengths).
    fn cost(&self, value_len: u64) -> u64 {
        const FRAME: u64 = 16;
        let (Record::Put { namespace, key, .. } | Record::Tombstone { namespace, key, .. }) = self;
        FRAME + namespace.len() as u64 + key.len() as u64 + value_len
    }
}

#[derive(Debug, Default)]
struct Segment {
    records: Vec<Record>,
    bytes: u64,
}

/// Where a live key's current record sits.
#[derive(Debug, Clone, Copy)]
struct Loc {
    segment: u64,
    record: usize,
}

#[derive(Debug, Clone, Copy)]
struct IndexEntry {
    version: u64,
    /// `None` marks a tombstone: the counter survives, the value is gone.
    loc: Option<Loc>,
    /// The live value's encoded length (0 for a tombstone).
    len: u64,
}

/// One namespace of the index: its keys and the running total of their
/// live lengths. Compaction moves records, not lengths, so it leaves the
/// total alone.
#[derive(Debug, Default)]
struct Keys {
    entries: BTreeMap<String, IndexEntry>,
    live_bytes: u64,
}

/// The log-structured backend. See the module docs for the design.
#[derive(Debug)]
pub struct LogBackend {
    config: LogConfig,
    /// Sealed + active segments by id; the highest id is the active one.
    segments: BTreeMap<u64, Segment>,
    next_segment: u64,
    /// `namespace → key → entry`. BTreeMaps keep every iteration (reads,
    /// compaction rewrite order) deterministic.
    index: BTreeMap<String, Keys>,
    dead_bytes: u64,
    total_bytes: u64,
    sealed_segments: u64,
    compactions: u64,
    group_commits: u64,
}

impl Default for LogBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl LogBackend {
    /// Creates an empty log with the default geometry.
    pub fn new() -> Self {
        Self::with_config(LogConfig::default())
    }

    /// Creates an empty log with an explicit geometry.
    pub fn with_config(config: LogConfig) -> Self {
        LogBackend {
            config,
            segments: BTreeMap::new(),
            next_segment: 0,
            index: BTreeMap::new(),
            dead_bytes: 0,
            total_bytes: 0,
            sealed_segments: 0,
            compactions: 0,
            group_commits: 0,
        }
    }

    fn entry(&self, namespace: &str, key: &str) -> Option<&IndexEntry> {
        self.index.get(namespace).and_then(|ns| ns.entries.get(key))
    }

    /// Marks `namespace/key`'s live record dead and its entry a tombstone
    /// at the same version; `None` if the key is not live.
    fn bury(&mut self, namespace: &str, key: &str) -> Option<u64> {
        let keys = self.index.get_mut(namespace)?;
        let entry = keys.entries.get_mut(key)?;
        let loc = entry.loc.take()?;
        let (version, len) = (entry.version, std::mem::take(&mut entry.len));
        keys.live_bytes -= len;
        self.kill(loc, len);
        Some(version)
    }

    fn record_at(&self, loc: Loc) -> &Record {
        &self.segments[&loc.segment].records[loc.record]
    }

    /// The live value a location points at.
    fn value_at(&self, loc: Loc) -> &Value {
        match self.record_at(loc) {
            Record::Put { value, .. } => value,
            Record::Tombstone { .. } => {
                unreachable!("index never points a live key at a tombstone")
            }
        }
    }

    /// Appends one record to the active segment (opening one if needed)
    /// and returns its location. Does *not* roll or compact — group
    /// commits decide that once per batch.
    fn append(&mut self, record: Record, value_len: u64) -> Loc {
        let cost = record.cost(value_len);
        let id = match self.segments.last_key_value() {
            Some((&id, _)) => id,
            None => {
                let id = self.next_segment;
                self.next_segment += 1;
                self.segments.insert(id, Segment::default());
                id
            }
        };
        let seg = self.segments.get_mut(&id).expect("active segment exists");
        seg.records.push(record);
        seg.bytes += cost;
        self.total_bytes += cost;
        Loc {
            segment: id,
            record: seg.records.len() - 1,
        }
    }

    /// Appends the tombstone record of a key [`bury`](Self::bury) just
    /// deleted. The record is dead on arrival for compaction purposes: the
    /// index carries the counter from here on.
    fn append_tombstone(&mut self, namespace: &str, key: &str, version: u64) {
        let record = Record::Tombstone {
            namespace: namespace.to_owned(),
            key: key.to_owned(),
            version,
        };
        self.dead_bytes += record.cost(0);
        self.append(record, 0);
    }

    /// Marks the record a superseded index entry pointed at as dead.
    fn kill(&mut self, loc: Loc, value_len: u64) {
        self.dead_bytes += self.record_at(loc).cost(value_len);
    }

    /// Seals the active segment if it crossed the target, then compacts if
    /// enough of the log has died. One call per logical commit.
    fn finish_commit(&mut self) {
        if let Some((_, seg)) = self.segments.last_key_value() {
            if seg.bytes >= self.config.segment_target_bytes {
                // Sealing is purely logical: the segment stays readable,
                // the next append opens a fresh active segment.
                self.sealed_segments += 1;
                let id = self.next_segment;
                self.next_segment += 1;
                self.segments.insert(id, Segment::default());
            }
        }
        // Tombstone records are dead weight the moment the index carries
        // the counter, so count them toward the compaction trigger too.
        if self.dead_bytes >= self.config.compact_min_dead_bytes
            && (self.dead_bytes as f64)
                >= self.config.compact_dead_ratio * (self.total_bytes as f64)
        {
            self.compact();
        }
    }

    /// Rewrites every live record into fresh segments, dropping dead
    /// records and tombstone records (their version counters live on in
    /// the index). Deterministic: rewrite order is index order.
    fn compact(&mut self) {
        let old_segments = std::mem::take(&mut self.segments);
        self.total_bytes = 0;
        self.dead_bytes = 0;
        // Collect (namespace, key, loc, len) of live entries in index order.
        let live: Vec<(String, String, Loc, u64)> = self
            .index
            .iter()
            .flat_map(|(ns, keys)| {
                keys.entries
                    .iter()
                    .filter_map(|(k, e)| e.loc.map(|loc| (ns.clone(), k.clone(), loc, e.len)))
            })
            .collect();
        for (ns, key, loc, len) in live {
            let record = old_segments[&loc.segment].records[loc.record].clone();
            let cost = record.cost(len);
            let id = match self.segments.last_key_value() {
                Some((&id, seg)) if seg.bytes + cost <= self.config.segment_target_bytes => id,
                _ => {
                    let id = self.next_segment;
                    self.next_segment += 1;
                    self.segments.insert(id, Segment::default());
                    id
                }
            };
            let seg = self.segments.get_mut(&id).expect("fresh segment exists");
            seg.records.push(record);
            seg.bytes += cost;
            self.total_bytes += cost;
            let new_loc = Loc {
                segment: id,
                record: seg.records.len() - 1,
            };
            self.index
                .get_mut(&ns)
                .and_then(|m| m.entries.get_mut(&key))
                .expect("live entry still indexed")
                .loc = Some(new_loc);
        }
        self.compactions += 1;
    }

    /// Rebuilds a `namespace → key → (version, live value)` view by
    /// replaying every segment in id/record order — the recovery path a
    /// real log-structured store would run at startup. The replayed view
    /// must agree with the in-memory index on every *live* key; version
    /// counters of keys whose tombstone records were dropped by compaction
    /// are recovered from the index checkpoint, which is why the index —
    /// not the log — is the authority for version continuity.
    pub fn replay(&self) -> BTreeMap<String, BTreeMap<String, (u64, Option<Value>)>> {
        let mut view: BTreeMap<String, BTreeMap<String, (u64, Option<Value>)>> = BTreeMap::new();
        for seg in self.segments.values() {
            for record in &seg.records {
                match record {
                    Record::Put {
                        namespace,
                        key,
                        version,
                        value,
                    } => {
                        view.entry(namespace.clone())
                            .or_default()
                            .insert(key.clone(), (*version, Some(value.clone())));
                    }
                    Record::Tombstone {
                        namespace,
                        key,
                        version,
                    } => {
                        view.entry(namespace.clone())
                            .or_default()
                            .insert(key.clone(), (*version, None));
                    }
                }
            }
        }
        view
    }

    fn insert_one(&mut self, namespace: &str, key: &str, value: Value) -> u64 {
        let len = value.encoded_len() as u64;
        let prior = self.entry(namespace, key).copied();
        let version = match prior {
            Some(e) => e.version + 1,
            None => 1,
        };
        if let Some(IndexEntry {
            loc: Some(loc),
            len: old,
            ..
        }) = prior
        {
            self.kill(loc, old);
        }
        let record = Record::Put {
            namespace: namespace.to_owned(),
            key: key.to_owned(),
            version,
            value,
        };
        let entry = IndexEntry {
            version,
            loc: Some(self.append(record, len)),
            len,
        };
        // As in the map backend, the index owns a name once.
        if !self.index.contains_key(namespace) {
            self.index.insert(namespace.to_owned(), Keys::default());
        }
        let keys = self.index.get_mut(namespace).expect("ensured just above");
        keys.live_bytes = keys.live_bytes + len - prior.map_or(0, |e| e.len);
        match keys.entries.get_mut(key) {
            Some(e) => *e = entry,
            None => {
                keys.entries.insert(key.to_owned(), entry);
            }
        }
        version
    }
}

impl StoreBackend for LogBackend {
    fn name(&self) -> &'static str {
        "log"
    }

    fn get(&self, namespace: &str, key: &str) -> Option<Versioned> {
        self.entry(namespace, key).and_then(|e| {
            e.loc.map(|loc| Versioned {
                version: e.version,
                value: self.value_at(loc).clone(),
            })
        })
    }

    fn key_version(&self, namespace: &str, key: &str) -> KeyVersion {
        match self.entry(namespace, key) {
            None => KeyVersion::Absent,
            Some(IndexEntry {
                version,
                loc: Some(_),
                ..
            }) => KeyVersion::Live(*version),
            Some(IndexEntry { version, .. }) => KeyVersion::Tombstone(*version),
        }
    }

    fn identical_live(&self, namespace: &str, key: &str, value: &Value) -> Option<u64> {
        self.entry(namespace, key).and_then(|e| {
            e.loc
                .filter(|&loc| crate::codec::codec_eq(self.value_at(loc), value))
                .map(|_| e.version)
        })
    }

    fn insert(&mut self, namespace: &str, key: &str, value: Value) -> u64 {
        let version = self.insert_one(namespace, key, value);
        self.finish_commit();
        version
    }

    fn insert_many(&mut self, namespace: &str, entries: &mut dyn Iterator<Item = (&str, Value)>) {
        // Group commit: every record of the batch lands in the log before
        // the single roll/compact decision.
        for (key, value) in entries {
            self.insert_one(namespace, key, value);
        }
        self.group_commits += 1;
        self.finish_commit();
    }

    fn remove(&mut self, namespace: &str, key: &str) -> bool {
        let Some(version) = self.bury(namespace, key) else {
            return false;
        };
        self.append_tombstone(namespace, key, version);
        self.finish_commit();
        true
    }

    fn remove_namespace(&mut self, namespace: &str) -> usize {
        let live: Vec<String> = self.list_keys(namespace);
        for key in &live {
            let version = self
                .bury(namespace, key)
                .expect("list_keys returns live keys only");
            self.append_tombstone(namespace, key, version);
        }
        // A namespace wipe is one logical commit, like a batch.
        self.finish_commit();
        live.len()
    }

    fn read_namespace(&self, namespace: &str) -> Vec<(String, Versioned)> {
        self.index
            .get(namespace)
            .map(|keys| {
                keys.entries
                    .iter()
                    .filter_map(|(k, e)| {
                        e.loc.map(|loc| {
                            (
                                k.clone(),
                                Versioned {
                                    version: e.version,
                                    value: self.value_at(loc).clone(),
                                },
                            )
                        })
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    fn list_keys(&self, namespace: &str) -> Vec<String> {
        self.index
            .get(namespace)
            .map(|keys| {
                keys.entries
                    .iter()
                    .filter(|(_, e)| e.loc.is_some())
                    .map(|(k, _)| k.clone())
                    .collect()
            })
            .unwrap_or_default()
    }

    fn list_namespaces(&self) -> Vec<String> {
        self.index
            .iter()
            .filter(|(_, keys)| keys.entries.values().any(|e| e.loc.is_some()))
            .map(|(ns, _)| ns.clone())
            .collect()
    }

    fn namespace_bytes(&self, namespace: &str) -> u64 {
        self.index.get(namespace).map_or(0, |keys| keys.live_bytes)
    }

    fn namespace_bytes_prefixed(&self, prefix: &str) -> u64 {
        sum_under(&self.index, prefix, |keys| keys.live_bytes)
    }

    fn backend_stats(&self) -> BackendStats {
        BackendStats {
            live_bytes: self.index.values().map(|keys| keys.live_bytes).sum(),
            dead_bytes: self.dead_bytes,
            segments: self.segments.len() as u64,
            sealed_segments: self.sealed_segments,
            compactions: self.compactions,
            group_commits: self.group_commits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob(n: usize, fill: u8) -> Value {
        Value::Bytes(vec![fill; n])
    }

    #[test]
    fn overwrites_append_and_index_repoints() {
        let mut b = LogBackend::with_config(LogConfig::tiny());
        assert_eq!(b.insert("ns", "k", Value::Int(1)), 1);
        assert_eq!(b.insert("ns", "k", Value::Int(2)), 2);
        assert_eq!(
            b.get("ns", "k"),
            Some(Versioned {
                version: 2,
                value: Value::Int(2)
            })
        );
        let s = b.backend_stats();
        assert!(s.dead_bytes > 0, "superseded record counted dead");
    }

    #[test]
    fn segments_seal_at_the_target() {
        let mut b = LogBackend::with_config(LogConfig::tiny());
        for i in 0..20 {
            b.insert("ns", &format!("k{i}"), blob(128, i as u8));
        }
        assert!(
            b.backend_stats().sealed_segments >= 2,
            "2.5 KiB of unique records over a 512 B target must seal: {:?}",
            b.backend_stats()
        );
    }

    #[test]
    fn compaction_reclaims_dead_bytes_and_preserves_state() {
        let mut b = LogBackend::with_config(LogConfig::tiny());
        for round in 0..30 {
            for k in 0..4 {
                b.insert("ns", &format!("k{k}"), blob(64, round));
            }
        }
        let s = b.backend_stats();
        assert!(s.compactions > 0, "29 dead generations force compaction");
        assert!(
            s.dead_bytes < 2048,
            "compaction keeps dead bytes bounded: {s:?}"
        );
        for k in 0..4 {
            let v = b
                .get("ns", &format!("k{k}"))
                .expect("live after compaction");
            assert_eq!(v.version, 30);
            assert_eq!(v.value, blob(64, 29));
        }
    }

    #[test]
    fn tombstone_counters_survive_compaction() {
        let mut b = LogBackend::with_config(LogConfig::tiny());
        for i in 0..8 {
            b.insert("ns", &format!("k{i}"), blob(96, 1));
        }
        assert_eq!(b.insert("ns", "gone", Value::Int(7)), 1);
        assert!(b.remove("ns", "gone"));
        // Churn until a compaction has certainly run.
        for round in 2..40u8 {
            for i in 0..8 {
                b.insert("ns", &format!("k{i}"), blob(96, round));
            }
        }
        assert!(b.backend_stats().compactions > 0);
        assert_eq!(b.key_version("ns", "gone"), KeyVersion::Tombstone(1));
        assert_eq!(
            b.insert("ns", "gone", Value::Int(7)),
            2,
            "counter continued"
        );
    }

    #[test]
    fn group_commit_counts_batches_not_entries() {
        let mut b = LogBackend::new();
        let rows: Vec<(String, Value)> = (0..24)
            .map(|i| (format!("bundle/{i}"), blob(384, i as u8)))
            .collect();
        b.insert_many("fw", &mut rows.iter().map(|(k, v)| (k.as_str(), v.clone())));
        b.insert_many(
            "fw",
            &mut rows[..2].iter().map(|(k, v)| (k.as_str(), v.clone())),
        );
        let s = b.backend_stats();
        assert_eq!(s.group_commits, 2);
        assert_eq!(b.list_keys("fw").len(), 24);
        assert_eq!(b.get("fw", "bundle/1").unwrap().version, 2);
    }

    /// The recovery property: replaying the raw segments reproduces every
    /// live key's version and value exactly, before and after compaction.
    #[test]
    fn replay_agrees_with_the_index_on_live_keys() {
        let mut b = LogBackend::with_config(LogConfig::tiny());
        for round in 0..20u8 {
            for k in 0..4 {
                b.insert("ns", &format!("k{k}"), blob(64, round));
            }
        }
        b.insert("ns", "gone", Value::Int(1));
        assert!(b.remove("ns", "gone"));
        let check = |b: &LogBackend| {
            let view = b.replay();
            for key in b.list_keys("ns") {
                let got = b.get("ns", &key).expect("live");
                let (v, val) = view["ns"][&key].clone();
                assert_eq!(v, got.version, "replayed version for {key}");
                assert_eq!(val.as_ref(), Some(&got.value), "replayed value for {key}");
            }
        };
        check(&b);
        // Before compaction the tombstone record itself is still replayable.
        if b.backend_stats().compactions == 0 {
            assert_eq!(b.replay()["ns"]["gone"], (1, None));
        }
        // Churn past a compaction and re-check.
        for round in 20..60u8 {
            for k in 0..4 {
                b.insert("ns", &format!("k{k}"), blob(64, round));
            }
        }
        assert!(b.backend_stats().compactions > 0);
        check(&b);
    }

    #[test]
    fn duplicate_keys_in_a_batch_bump_twice() {
        let mut b = LogBackend::new();
        b.insert_many(
            "ns",
            &mut [("k", Value::Int(1)), ("k", Value::Int(2))].into_iter(),
        );
        let got = b.get("ns", "k").unwrap();
        assert_eq!(got.version, 2);
        assert_eq!(got.value, Value::Int(2));
    }
}
