//! The storage backend contract behind [`SharedStore`](crate::SharedStore).
//!
//! The SAN's *semantics* — versioning, tombstones, namespace layout — are
//! the product; the data structure holding the bytes is interchangeable.
//! [`StoreBackend`] is that seam: `SharedStore` stays the single
//! fault-injecting, telemetry-emitting, stats-accounting front door, and a
//! backend only has to answer raw reads and writes. Every backend must pass
//! the identical golden-fixture conformance suite
//! ([`crate::conformance`]), the storeless-oracle property test, and the
//! chaos sweep with fingerprints byte-equal to every other backend — see
//! DESIGN.md §6e for how to add one.
//!
//! # Versioning contract
//!
//! Every key carries a monotonically increasing version counter that
//! **survives deletion**: a delete leaves a *tombstone* remembering the
//! last version, and a later re-insert continues counting from it. This is
//! load-bearing for the PR 4 change-detection machinery — without
//! tombstones, `delete` followed by an identical re-`put` would hand the
//! key the same version a stale reader already cached, and the reader
//! would skip state it must re-fetch.
//!
//! * [`StoreBackend::insert`] returns `counter + 1` where `counter` is the
//!   live version, the tombstone version, or 0 for a never-written key.
//! * [`StoreBackend::remove`] / [`StoreBackend::remove_namespace`] keep
//!   the counter in a tombstone; live reads (`get`, `read_namespace`,
//!   `list_keys`, `list_namespaces`) never see tombstones.
//!
//! Change detection itself (skip a byte-identical rewrite) lives in
//! `SharedStore`, *above* the trait, so its semantics cannot diverge
//! between backends; [`StoreBackend::identical_live`] is only the
//! allocation-free probe it uses.

use crate::store::Versioned;
use crate::Value;
use std::collections::BTreeMap;
use std::ops::Bound;

/// The per-key version-counter state a backend reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyVersion {
    /// Never written.
    Absent,
    /// Currently live at this version.
    Live(u64),
    /// Deleted; the counter a re-insert must continue from.
    Tombstone(u64),
}

impl KeyVersion {
    /// The version a reader observes: live versions only (a tombstoned key
    /// reads as absent, i.e. 0 — the value a `cas` with `expected == 0`
    /// matches against).
    pub fn live(self) -> u64 {
        match self {
            KeyVersion::Live(v) => v,
            KeyVersion::Absent | KeyVersion::Tombstone(_) => 0,
        }
    }

    /// The counter the next insert bumps from (includes tombstones).
    pub fn counter(self) -> u64 {
        match self {
            KeyVersion::Absent => 0,
            KeyVersion::Live(v) | KeyVersion::Tombstone(v) => v,
        }
    }
}

/// Maintenance counters a backend exposes for benches and experiments.
///
/// The map backend reports only `live_bytes`; the log backend fills in the
/// segment/compaction story. These are *diagnostic* — they are not part of
/// the conformance surface and may legitimately differ across backends.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackendStats {
    /// Encoded bytes of live values currently stored.
    pub live_bytes: u64,
    /// Log only: bytes in segments owed to superseded/deleted records.
    pub dead_bytes: u64,
    /// Log only: segments currently on "disk" (sealed + active).
    pub segments: u64,
    /// Log only: segments sealed over the backend's lifetime.
    pub sealed_segments: u64,
    /// Log only: compaction passes run.
    pub compactions: u64,
    /// Log only: multi-entry batches committed as one group append.
    pub group_commits: u64,
}

/// A raw storage engine behind [`SharedStore`](crate::SharedStore).
///
/// Implementations are **infallible and unsynchronized**: fault injection,
/// locking, stats, telemetry, and change detection all live in the wrapper.
/// A backend's only obligations are the versioning contract above and
/// deterministic iteration order (sorted by key / namespace) everywhere.
pub trait StoreBackend: std::fmt::Debug + Send {
    /// A short stable name (`"map"`, `"log"`) used by fixtures, the chaos
    /// sweep, and backend selection.
    fn name(&self) -> &'static str;

    /// The live value and version under `namespace/key`, if any.
    fn get(&self, namespace: &str, key: &str) -> Option<Versioned>;

    /// The key's version-counter state (live, tombstoned, or absent).
    fn key_version(&self, namespace: &str, key: &str) -> KeyVersion;

    /// If the *live* value under `namespace/key` encodes byte-identically
    /// to `value`, returns its version — the change-detection probe.
    /// Backends should answer without cloning the stored value.
    fn identical_live(&self, namespace: &str, key: &str, value: &Value) -> Option<u64>;

    /// Unconditionally writes `value`, bumping the key's version counter
    /// (tombstones included). Returns the new version.
    fn insert(&mut self, namespace: &str, key: &str, value: Value) -> u64;

    /// Writes a batch into one namespace as a single group commit. Entry
    /// semantics are exactly `insert` applied in order (duplicate keys bump
    /// twice). The wrapper has already applied change detection and torn-
    /// write truncation; the batch is to be persisted in full, its values
    /// moved in.
    fn insert_many(&mut self, namespace: &str, entries: &mut dyn Iterator<Item = (&str, Value)>);

    /// Deletes a live key, leaving a version tombstone. Returns `false`
    /// (and changes nothing) if the key is not live.
    fn remove(&mut self, namespace: &str, key: &str) -> bool;

    /// Deletes every live key in the namespace, tombstoning each. Returns
    /// how many live keys were removed.
    fn remove_namespace(&mut self, namespace: &str) -> usize;

    /// All live `(key, versioned-value)` pairs in a namespace, key-sorted.
    fn read_namespace(&self, namespace: &str) -> Vec<(String, Versioned)>;

    /// Live keys in a namespace, sorted.
    fn list_keys(&self, namespace: &str) -> Vec<String>;

    /// Namespaces holding at least one live key, sorted.
    fn list_namespaces(&self) -> Vec<String>;

    /// Total encoded bytes of live values in a namespace: a running total
    /// kept by every write and delete, never a walk over the rows.
    fn namespace_bytes(&self, namespace: &str) -> u64;

    /// Total encoded bytes of live values across every namespace equal to
    /// `prefix` or under `prefix/…`, from the same per-namespace totals.
    fn namespace_bytes_prefixed(&self, prefix: &str) -> u64;

    /// Diagnostic maintenance counters (see [`BackendStats`]).
    fn backend_stats(&self) -> BackendStats;
}

/// Which backend a [`SharedStore`](crate::SharedStore) runs on. The
/// cluster driver, chaos harness, and benches select backends through
/// this; `Default` is the map backend the repo grew up on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// In-memory ordered map (the original backend).
    #[default]
    Map,
    /// Log-structured: append-only segments + in-memory index, with
    /// background compaction and group-commit batching.
    Log,
}

impl BackendKind {
    /// Every registered backend — the set the conformance suite, the
    /// equivalence property test, and the chaos sweep run against.
    pub fn all() -> [BackendKind; 2] {
        [BackendKind::Map, BackendKind::Log]
    }

    /// The backend's stable name.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Map => "map",
            BackendKind::Log => "log",
        }
    }

    /// Parses a stable name (as accepted by `CHAOS_BACKEND=`).
    pub fn from_name(name: &str) -> Option<BackendKind> {
        match name {
            "map" => Some(BackendKind::Map),
            "log" => Some(BackendKind::Log),
            _ => None,
        }
    }

    /// Builds a fresh backend of this kind with default configuration.
    pub fn build(self) -> Box<dyn StoreBackend> {
        match self {
            BackendKind::Map => Box::new(MapBackend::new()),
            BackendKind::Log => Box::new(crate::log::LogBackend::new()),
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Sums `bytes` over the namespaces of `map` that are `prefix` or lie under
/// `prefix/…`, walking the ordered names from `prefix` on: nothing is
/// cloned and no namespace outside the prefix's range is visited.
pub(crate) fn sum_under<T>(
    map: &BTreeMap<String, T>,
    prefix: &str,
    bytes: impl Fn(&T) -> u64,
) -> u64 {
    map.range::<str, _>((Bound::Included(prefix), Bound::Unbounded))
        .take_while(|(name, _)| name.starts_with(prefix))
        // `a-b` and `a0` sort between `a` and `a/b` or after it; neither
        // is under `a`.
        .filter(|(name, _)| matches!(name.as_bytes().get(prefix.len()), None | Some(b'/')))
        .map(|(_, ns)| bytes(ns))
        .sum()
}

/// One key's storage slot: a live value or a version tombstone.
#[derive(Debug, Clone)]
struct Slot {
    version: u64,
    value: Option<Value>,
    /// The live value's encoded length, measured once when it was written
    /// (0 for a tombstone).
    len: u64,
}

/// One namespace: its slots and the running total of their live lengths.
#[derive(Debug, Default)]
struct Namespace {
    slots: BTreeMap<String, Slot>,
    live_bytes: u64,
}

impl Namespace {
    /// Writes `value` under `key`, returning the new version. The slot is
    /// looked up before its key is owned: overwriting a key that exists,
    /// live or tombstoned, allocates nothing, and the total moves by the
    /// difference of the two lengths without the old value being measured.
    fn insert(&mut self, key: &str, value: Value) -> u64 {
        let len = value.encoded_len() as u64;
        self.live_bytes += len;
        if let Some(slot) = self.slots.get_mut(key) {
            self.live_bytes -= slot.len;
            slot.version += 1;
            slot.value = Some(value);
            slot.len = len;
            return slot.version;
        }
        let slot = Slot {
            version: 1,
            value: Some(value),
            len,
        };
        self.slots.insert(key.to_owned(), slot);
        1
    }
}

/// The original in-memory backend: namespaces of ordered maps. Tombstones
/// are slots whose value is `None`.
#[derive(Debug, Default)]
pub struct MapBackend {
    namespaces: BTreeMap<String, Namespace>,
}

impl MapBackend {
    /// Creates an empty map backend.
    pub fn new() -> Self {
        Self::default()
    }

    fn slot(&self, namespace: &str, key: &str) -> Option<&Slot> {
        self.namespaces
            .get(namespace)
            .and_then(|ns| ns.slots.get(key))
    }
}

impl StoreBackend for MapBackend {
    fn name(&self) -> &'static str {
        "map"
    }

    fn get(&self, namespace: &str, key: &str) -> Option<Versioned> {
        self.slot(namespace, key).and_then(|s| {
            s.value.as_ref().map(|v| Versioned {
                version: s.version,
                value: v.clone(),
            })
        })
    }

    fn key_version(&self, namespace: &str, key: &str) -> KeyVersion {
        match self.slot(namespace, key) {
            None => KeyVersion::Absent,
            Some(Slot { version, value, .. }) => match value {
                Some(_) => KeyVersion::Live(*version),
                None => KeyVersion::Tombstone(*version),
            },
        }
    }

    fn identical_live(&self, namespace: &str, key: &str, value: &Value) -> Option<u64> {
        self.slot(namespace, key).and_then(|s| {
            s.value
                .as_ref()
                .filter(|stored| crate::codec::codec_eq(stored, value))
                .map(|_| s.version)
        })
    }

    fn insert(&mut self, namespace: &str, key: &str, value: Value) -> u64 {
        // The namespace, too, is looked up before its name is owned.
        if let Some(ns) = self.namespaces.get_mut(namespace) {
            return ns.insert(key, value);
        }
        let mut ns = Namespace::default();
        ns.insert(key, value);
        self.namespaces.insert(namespace.to_owned(), ns);
        1
    }

    fn insert_many(&mut self, namespace: &str, entries: &mut dyn Iterator<Item = (&str, Value)>) {
        for (key, value) in entries {
            self.insert(namespace, key, value);
        }
    }

    fn remove(&mut self, namespace: &str, key: &str) -> bool {
        let Some(ns) = self.namespaces.get_mut(namespace) else {
            return false;
        };
        match ns.slots.get_mut(key) {
            Some(slot) if slot.value.is_some() => {
                slot.value = None;
                ns.live_bytes -= std::mem::take(&mut slot.len);
                true
            }
            _ => false,
        }
    }

    fn remove_namespace(&mut self, namespace: &str) -> usize {
        let Some(ns) = self.namespaces.get_mut(namespace) else {
            return 0;
        };
        ns.live_bytes = 0;
        let mut removed = 0;
        for slot in ns.slots.values_mut() {
            slot.len = 0;
            if slot.value.take().is_some() {
                removed += 1;
            }
        }
        removed
    }

    fn read_namespace(&self, namespace: &str) -> Vec<(String, Versioned)> {
        self.namespaces
            .get(namespace)
            .map(|ns| {
                ns.slots
                    .iter()
                    .filter_map(|(k, s)| {
                        s.value.as_ref().map(|v| {
                            (
                                k.clone(),
                                Versioned {
                                    version: s.version,
                                    value: v.clone(),
                                },
                            )
                        })
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    fn list_keys(&self, namespace: &str) -> Vec<String> {
        self.namespaces
            .get(namespace)
            .map(|ns| {
                ns.slots
                    .iter()
                    .filter(|(_, s)| s.value.is_some())
                    .map(|(k, _)| k.clone())
                    .collect()
            })
            .unwrap_or_default()
    }

    fn list_namespaces(&self) -> Vec<String> {
        self.namespaces
            .iter()
            .filter(|(_, ns)| ns.slots.values().any(|s| s.value.is_some()))
            .map(|(k, _)| k.clone())
            .collect()
    }

    fn namespace_bytes(&self, namespace: &str) -> u64 {
        self.namespaces.get(namespace).map_or(0, |ns| ns.live_bytes)
    }

    fn namespace_bytes_prefixed(&self, prefix: &str) -> u64 {
        sum_under(&self.namespaces, prefix, |ns| ns.live_bytes)
    }

    fn backend_stats(&self) -> BackendStats {
        BackendStats {
            live_bytes: self.namespaces.values().map(|ns| ns.live_bytes).sum(),
            ..BackendStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn versions_survive_deletion_as_tombstones() {
        let mut b = MapBackend::new();
        assert_eq!(b.insert("ns", "k", Value::Int(1)), 1);
        assert!(b.remove("ns", "k"));
        assert_eq!(b.key_version("ns", "k"), KeyVersion::Tombstone(1));
        // Re-insert continues the counter: the stale-reader fix.
        assert_eq!(b.insert("ns", "k", Value::Int(1)), 2);
        assert_eq!(b.key_version("ns", "k"), KeyVersion::Live(2));
    }

    #[test]
    fn tombstoned_keys_are_invisible_to_live_reads() {
        let mut b = MapBackend::new();
        b.insert("ns", "a", Value::Int(1));
        b.insert("ns", "b", Value::Int(2));
        b.remove("ns", "a");
        assert_eq!(b.get("ns", "a"), None);
        assert_eq!(b.list_keys("ns"), vec!["b"]);
        assert_eq!(b.read_namespace("ns").len(), 1);
        b.remove("ns", "b");
        assert!(b.list_namespaces().is_empty());
        assert_eq!(b.namespace_bytes("ns"), 0);
    }

    #[test]
    fn remove_namespace_tombstones_every_live_key() {
        let mut b = MapBackend::new();
        b.insert("ns", "a", Value::Int(1));
        b.insert("ns", "b", Value::Int(2));
        b.remove("ns", "a"); // already a tombstone: not counted again
        assert_eq!(b.remove_namespace("ns"), 1);
        assert_eq!(b.key_version("ns", "a"), KeyVersion::Tombstone(1));
        assert_eq!(b.key_version("ns", "b"), KeyVersion::Tombstone(1));
        assert_eq!(b.remove_namespace("ns"), 0);
        // Counters still climb after the namespace wipe.
        assert_eq!(b.insert("ns", "b", Value::Int(9)), 2);
    }

    #[test]
    fn kind_round_trips_names() {
        for kind in BackendKind::all() {
            assert_eq!(BackendKind::from_name(kind.name()), Some(kind));
            assert_eq!(kind.build().name(), kind.name());
        }
        assert_eq!(BackendKind::from_name("tape"), None);
    }
}
