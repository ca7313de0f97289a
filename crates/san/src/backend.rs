//! The versioned slot map behind [`SharedStore`](crate::SharedStore).
//!
//! `SharedStore` is the fault-injecting, telemetry-emitting,
//! stats-accounting front door; this module hides what holds the bytes:
//! slots, tombstones and the running byte total of every namespace.
//! [`MapBackend`] is **infallible and unshared** — fault injection,
//! sharing, stats, telemetry and change detection all live in the wrapper —
//! and iterates in sorted order (by key / namespace) everywhere. A
//! namespace is found by hash and walked in name order: a hash table holds
//! them by name, and a sorted list beside it the same names. The
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
//!   the counter in a tombstone; live reads (`get`, `rows`, `list_keys`,
//!   `list_namespaces`) never see tombstones.
//!
//! Change detection (skip a byte-identical rewrite) is a decision of
//! `SharedStore`, above the map, which writes through [`MapBackend::put`]:
//! one search of the namespace and of its slots both compares and writes.

use crate::store::Versioned;
use crate::Value;
use dosgi_net::FxHashMap;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::rc::Rc;

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
    /// version — unless `skip_identical` and the live value encodes
    /// byte-identically to it, which is left as it is. One search finds the
    /// slot for both the comparison and the write, and it is made before
    /// the key is owned: overwriting a key that exists, live or tombstoned,
    /// allocates no key, and the total moves by the difference of the two
    /// lengths without either value being measured. A borrowed value
    /// overwrites a live one in place, reusing its allocations where the
    /// shapes match; an owned one is moved in.
    fn write(&mut self, key: &str, value: Cow<'_, Value>, len: u64, skip_identical: bool) -> Put {
        if let Some(slot) = self.slots.get_mut(key) {
            if skip_identical
                && slot
                    .value
                    .as_ref()
                    .is_some_and(|live| crate::codec::codec_eq(live, &value))
            {
                return Put::Skipped(slot.version);
            }
            self.live_bytes += len;
            self.live_bytes -= slot.len;
            slot.version += 1;
            match (&mut slot.value, value) {
                (Some(live), Cow::Borrowed(value)) => live.clone_from(value),
                (stored, value) => *stored = Some(value.into_owned()),
            }
            slot.len = len;
            return Put::Wrote(slot.version);
        }
        self.live_bytes += len;
        let slot = Slot {
            version: 1,
            value: Some(value.into_owned()),
            len,
        };
        self.slots.insert(key.to_owned(), slot);
        Put::Wrote(1)
    }
}

/// What a change-detecting [`MapBackend::put`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Put {
    /// The live value was byte-identical: nothing changed; its version.
    Skipped(u64),
    /// The value was written; the key's new version.
    Wrote(u64),
}

/// One live row of a namespace, as the map holds it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Row<'a> {
    pub(crate) key: &'a str,
    pub(crate) version: u64,
    pub(crate) value: &'a Value,
    /// The value's encoded length, measured when it was written.
    pub(crate) len: u64,
}

/// Namespaces of ordered maps. Tombstones are slots whose value is `None`.
/// A namespace, once written, is never dropped: its slots keep the
/// versions of the keys it held.
#[derive(Debug, Default)]
pub(crate) struct MapBackend {
    // Every namespace by its name.
    namespaces: FxHashMap<Rc<str>, Namespace>,
    // The keys of `namespaces`, sorted: the order of every walk.
    names: Vec<Rc<str>>,
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

    /// Writes `value`, whose encoded length the caller has measured as
    /// `len`, unless the live value under `namespace/key` encodes
    /// byte-identically to it — the change detection every store write
    /// makes — in one search of the namespace and one of its slots.
    pub(crate) fn put(
        &mut self,
        namespace: &str,
        key: &str,
        value: Cow<'_, Value>,
        len: u64,
    ) -> Put {
        self.write(namespace, key, value, len, true)
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
        match self.write(namespace, key, value, len, false) {
            Put::Wrote(version) | Put::Skipped(version) => version,
        }
    }

    fn write(
        &mut self,
        namespace: &str,
        key: &str,
        value: Cow<'_, Value>,
        len: u64,
        skip_identical: bool,
    ) -> Put {
        // The namespace, too, is looked up before its name is owned.
        if let Some(ns) = self.namespaces.get_mut(namespace) {
            return ns.write(key, value, len, skip_identical);
        }
        let mut ns = Namespace::default();
        let wrote = ns.write(key, value, len, skip_identical);
        let name: Rc<str> = namespace.into();
        let at = self.names.partition_point(|held| **held < *namespace);
        self.names.insert(at, Rc::clone(&name));
        self.namespaces.insert(name, ns);
        wrote
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

    /// The live rows of a namespace, key-sorted, borrowed.
    pub(crate) fn rows<'a>(&'a self, namespace: &str) -> impl Iterator<Item = Row<'a>> {
        self.namespaces
            .get(namespace)
            .into_iter()
            .flat_map(|ns| &ns.slots)
            .filter_map(|(key, s)| {
                s.value.as_ref().map(|value| Row {
                    key,
                    version: s.version,
                    value,
                    len: s.len,
                })
            })
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
        self.names
            .iter()
            .filter(|name| {
                self.namespaces[*name]
                    .slots
                    .values()
                    .any(|s| s.value.is_some())
            })
            .map(|name| name.to_string())
            .collect()
    }

    /// Total encoded bytes of live values in a namespace: a running total
    /// kept by every write and delete, never a walk over the rows.
    pub(crate) fn namespace_bytes(&self, namespace: &str) -> u64 {
        self.namespaces.get(namespace).map_or(0, |ns| ns.live_bytes)
    }

    /// Total encoded bytes of live values across every namespace equal to
    /// `prefix` or under `prefix/…`, from the same per-namespace totals. The
    /// sorted names are walked from `prefix` on: nothing is cloned and no
    /// namespace outside the prefix's range is visited.
    pub(crate) fn namespace_bytes_prefixed(&self, prefix: &str) -> u64 {
        let from = self.names.partition_point(|name| **name < *prefix);
        self.names[from..]
            .iter()
            .take_while(|name| name.starts_with(prefix))
            // `a-b` and `a0` sort between `a` and `a/b` or after it; neither
            // is under `a`.
            .filter(|name| matches!(name.as_bytes().get(prefix.len()), None | Some(b'/')))
            .map(|name| self.namespaces[name].live_bytes)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl MapBackend {
        /// If the *live* value under `namespace/key` encodes byte-identically
        /// to `value`, returns its version. A store write makes this
        /// comparison inside [`put`](Self::put), in the search that writes.
        pub(crate) fn identical_live(
            &self,
            namespace: &str,
            key: &str,
            value: &Value,
        ) -> Option<u64> {
            self.slot(namespace, key).and_then(|s| {
                s.value
                    .as_ref()
                    .filter(|stored| crate::codec::codec_eq(stored, value))
                    .map(|_| s.version)
            })
        }
    }

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
        assert_eq!(b.rows("ns").count(), 1);
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
