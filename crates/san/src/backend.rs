//! The versioned slot map behind [`SharedStore`](crate::SharedStore).
//!
//! `SharedStore` is the fault-injecting, telemetry-emitting,
//! stats-accounting front door; this module hides what holds the bytes:
//! slots, tombstones and the running byte total of every namespace.
//! [`MapBackend`] is **infallible and unsynchronized** — fault injection,
//! locking, stats, telemetry and change detection all live in the wrapper —
//! and iterates in sorted order (by key / namespace) everywhere. The
//! `san_contract` bin's capture pins the semantics; DESIGN.md §6e
//! describes them.
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
//! * [`MapBackend::insert`] returns `counter + 1` where `counter` is the
//!   live version, the tombstone version, or 0 for a never-written key.
//! * [`MapBackend::remove`] / [`MapBackend::remove_namespace`] keep
//!   the counter in a tombstone; live reads (`get`, `read_namespace`,
//!   `list_keys`, `list_namespaces`) never see tombstones.
//!
//! Change detection itself (skip a byte-identical rewrite) lives in
//! `SharedStore`, above the map; [`MapBackend::identical_live`] is only the
//! allocation-free probe it uses.

use crate::store::Versioned;
use crate::Value;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::ops::Bound;

/// The per-key version-counter state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum KeyVersion {
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
    pub(crate) fn live(self) -> u64 {
        match self {
            KeyVersion::Live(v) => v,
            KeyVersion::Absent | KeyVersion::Tombstone(_) => 0,
        }
    }
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
    /// Writes `value`, `len` bytes encoded, under `key`, returning the new
    /// version. The slot is looked up before its key is owned: overwriting
    /// a key that exists, live or tombstoned, allocates no key, and the
    /// total moves by the difference of the two lengths without either
    /// value being measured. A borrowed value overwrites a live one in
    /// place, reusing its allocations where the shapes match; an owned one
    /// is moved in.
    fn insert(&mut self, key: &str, value: Cow<'_, Value>, len: u64) -> u64 {
        self.live_bytes += len;
        if let Some(slot) = self.slots.get_mut(key) {
            self.live_bytes -= slot.len;
            slot.version += 1;
            match (&mut slot.value, value) {
                (Some(live), Cow::Borrowed(value)) => live.clone_from(value),
                (stored, value) => *stored = Some(value.into_owned()),
            }
            slot.len = len;
            return slot.version;
        }
        let slot = Slot {
            version: 1,
            value: Some(value.into_owned()),
            len,
        };
        self.slots.insert(key.to_owned(), slot);
        1
    }
}

/// Namespaces of ordered maps. Tombstones are slots whose value is `None`.
#[derive(Debug, Default)]
pub(crate) struct MapBackend {
    namespaces: BTreeMap<String, Namespace>,
}

impl MapBackend {
    fn slot(&self, namespace: &str, key: &str) -> Option<&Slot> {
        self.namespaces
            .get(namespace)
            .and_then(|ns| ns.slots.get(key))
    }

    /// The live value and version under `namespace/key`, if any.
    pub(crate) fn get(&self, namespace: &str, key: &str) -> Option<Versioned> {
        self.slot(namespace, key).and_then(|s| {
            s.value.as_ref().map(|v| Versioned {
                version: s.version,
                value: v.clone(),
            })
        })
    }

    /// The key's version-counter state (live, tombstoned, or absent).
    pub(crate) fn key_version(&self, namespace: &str, key: &str) -> KeyVersion {
        match self.slot(namespace, key) {
            None => KeyVersion::Absent,
            Some(Slot { version, value, .. }) => match value {
                Some(_) => KeyVersion::Live(*version),
                None => KeyVersion::Tombstone(*version),
            },
        }
    }

    /// If the *live* value under `namespace/key` encodes byte-identically
    /// to `value`, returns its version — the change-detection probe, which
    /// clones nothing.
    pub(crate) fn identical_live(&self, namespace: &str, key: &str, value: &Value) -> Option<u64> {
        self.slot(namespace, key).and_then(|s| {
            s.value
                .as_ref()
                .filter(|stored| crate::codec::codec_eq(stored, value))
                .map(|_| s.version)
        })
    }

    /// Unconditionally writes `value`, whose encoded length the caller has
    /// measured as `len`, bumping the key's version counter (tombstones
    /// included). Returns the new version.
    pub(crate) fn insert(
        &mut self,
        namespace: &str,
        key: &str,
        value: Cow<'_, Value>,
        len: u64,
    ) -> u64 {
        // The namespace, too, is looked up before its name is owned.
        if let Some(ns) = self.namespaces.get_mut(namespace) {
            return ns.insert(key, value, len);
        }
        let mut ns = Namespace::default();
        ns.insert(key, value, len);
        self.namespaces.insert(namespace.to_owned(), ns);
        1
    }

    /// Deletes a live key, leaving a version tombstone. Returns `false`
    /// (and changes nothing) if the key is not live.
    pub(crate) fn remove(&mut self, namespace: &str, key: &str) -> bool {
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

    /// Deletes every live key in the namespace, tombstoning each. Returns
    /// how many live keys were removed.
    pub(crate) fn remove_namespace(&mut self, namespace: &str) -> usize {
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

    /// All live `(key, versioned-value)` pairs in a namespace, key-sorted.
    pub(crate) fn read_namespace(&self, namespace: &str) -> Vec<(String, Versioned)> {
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

    /// Live keys in a namespace, sorted.
    pub(crate) fn list_keys(&self, namespace: &str) -> Vec<String> {
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

    /// Namespaces holding at least one live key, sorted.
    pub(crate) fn list_namespaces(&self) -> Vec<String> {
        self.namespaces
            .iter()
            .filter(|(_, ns)| ns.slots.values().any(|s| s.value.is_some()))
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// Total encoded bytes of live values in a namespace: a running total
    /// kept by every write and delete, never a walk over the rows.
    pub(crate) fn namespace_bytes(&self, namespace: &str) -> u64 {
        self.namespaces.get(namespace).map_or(0, |ns| ns.live_bytes)
    }

    /// Total encoded bytes of live values across every namespace equal to
    /// `prefix` or under `prefix/…`, from the same per-namespace totals. The
    /// ordered names are walked from `prefix` on: nothing is cloned and no
    /// namespace outside the prefix's range is visited.
    pub(crate) fn namespace_bytes_prefixed(&self, prefix: &str) -> u64 {
        self.namespaces
            .range::<str, _>((Bound::Included(prefix), Bound::Unbounded))
            .take_while(|(name, _)| name.starts_with(prefix))
            // `a-b` and `a0` sort between `a` and `a/b` or after it; neither
            // is under `a`.
            .filter(|(name, _)| matches!(name.as_bytes().get(prefix.len()), None | Some(b'/')))
            .map(|(_, ns)| ns.live_bytes)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn insert(b: &mut MapBackend, namespace: &str, key: &str, value: Value) -> u64 {
        let len = value.encoded_len() as u64;
        b.insert(namespace, key, Cow::Owned(value), len)
    }

    #[test]
    fn versions_survive_deletion_as_tombstones() {
        let mut b = MapBackend::default();
        assert_eq!(insert(&mut b, "ns", "k", Value::Int(1)), 1);
        assert!(b.remove("ns", "k"));
        assert_eq!(b.key_version("ns", "k"), KeyVersion::Tombstone(1));
        // Re-insert continues the counter: the stale-reader fix.
        assert_eq!(insert(&mut b, "ns", "k", Value::Int(1)), 2);
        assert_eq!(b.key_version("ns", "k"), KeyVersion::Live(2));
    }

    #[test]
    fn tombstoned_keys_are_invisible_to_live_reads() {
        let mut b = MapBackend::default();
        insert(&mut b, "ns", "a", Value::Int(1));
        insert(&mut b, "ns", "b", Value::Int(2));
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
        let mut b = MapBackend::default();
        insert(&mut b, "ns", "a", Value::Int(1));
        insert(&mut b, "ns", "b", Value::Int(2));
        b.remove("ns", "a"); // already a tombstone: not counted again
        assert_eq!(b.remove_namespace("ns"), 1);
        assert_eq!(b.key_version("ns", "a"), KeyVersion::Tombstone(1));
        assert_eq!(b.key_version("ns", "b"), KeyVersion::Tombstone(1));
        assert_eq!(b.remove_namespace("ns"), 0);
        // Counters still climb after the namespace wipe.
        assert_eq!(insert(&mut b, "ns", "b", Value::Int(9)), 2);
    }
}
