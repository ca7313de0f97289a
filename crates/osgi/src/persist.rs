//! Serialization of framework state to SAN values.
//!
//! The OSGi specification (quoted in §3.2 of the paper) requires that
//! *"the framework state shall be persistent across framework reboots.
//! Here state means the information associated with the life-cycle of the
//! bundles in the framework, namely which ones are installed and its
//! running state."* That is exactly what a snapshot captures.
//!
//! # On-SAN layout
//!
//! The persisted framework state is stored as **per-bundle rows** inside
//! the framework's namespace, so a dirty flush rewrites only the rows that
//! changed instead of re-encoding the whole framework. Each bundle keeps
//! its row as it last wrote it: [`bundle_row`] builds it where the manifest
//! is set, a restored bundle builds it at its first write, and a persist
//! rewrites the lifecycle fields in place and writes the row by reference:
//!
//! ```text
//! <namespace>/header        { next_bundle }
//! <namespace>/bundle/<id>   { id, manifest, state, autostart, state_version }
//! ```
//!
//! A restore reads the namespace once, through [`Rows::read`], which parses
//! each row where it lies and keeps no copy of it: the header's field,
//! and each bundle row's record, its manifest shared from a
//! [`KnownManifests`] when the row's manifest equals the known manifest's
//! row form, and parsed otherwise. [`Rows::assemble`] then orders the
//! records into a [`Snapshot`]. The tests' `snapshot`/`parse_snapshot`
//! keep the monolithic encoding alive as the equivalence oracle: assembling
//! the rows must produce a byte-identical snapshot value.

use crate::framework::Bundle;
use crate::{BundleId, BundleManifest, BundleState, KnownManifests, Version};
use dosgi_san::{Map, Value};
use std::fmt::{self, Write};
use std::sync::Arc;

/// Key of the header row (`next_bundle`).
pub const HEADER_KEY: &str = "header";

/// Key prefix of per-bundle rows.
pub const BUNDLE_KEY_PREFIX: &str = "bundle/";

/// One snapshot row of a framework: the header, or a bundle's. Rows order
/// as their keys sort (`bundle/10` < `bundle/2` < `header`), so a batch
/// written in row order is written in key order, header last.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Row {
    /// A bundle's row.
    Bundle(BundleId),
    /// The header row.
    Header,
}

impl Row {
    /// The row's key, written on the stack: naming a row allocates
    /// nothing.
    pub(crate) fn key(self) -> Key {
        use std::io::Write as _;
        let mut key = Key {
            bytes: [0; Key::CAPACITY],
            len: 0,
        };
        let mut out = &mut key.bytes[..];
        match self {
            Row::Header => out.write_all(HEADER_KEY.as_bytes()),
            Row::Bundle(id) => write!(out, "{BUNDLE_KEY_PREFIX}{}", id.0),
        }
        .expect("`bundle/` and a u64 fit");
        key.len = Key::CAPACITY - out.len();
        key
    }
}

impl Ord for Row {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().as_ref().cmp(other.key().as_ref())
    }
}

impl PartialOrd for Row {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A row key held on the stack.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Key {
    bytes: [u8; Key::CAPACITY],
    len: usize,
}

impl Key {
    /// `bundle/` and the twenty digits of the largest id.
    const CAPACITY: usize = 27;
}

impl AsRef<str> for Key {
    fn as_ref(&self) -> &str {
        std::str::from_utf8(&self.bytes[..self.len]).expect("written from text")
    }
}

/// Parses a `bundle/<id>` row key back into the bundle id.
pub fn parse_bundle_key(key: &str) -> Option<BundleId> {
    key.strip_prefix(BUNDLE_KEY_PREFIX)
        .and_then(|id| id.parse().ok())
        .map(BundleId)
}

/// One bundle's persisted record.
#[derive(Debug, Clone, PartialEq)]
pub struct BundleRecord {
    /// The bundle's id (preserved across restore).
    pub id: BundleId,
    /// The manifest: a known one the row's equals, or parsed from the row.
    pub manifest: Arc<BundleManifest>,
    /// The persisted lifecycle state (`ACTIVE` collapses transient states).
    pub state: BundleState,
    /// Whether the bundle is persistently started.
    pub autostart: bool,
    /// The bundle version that last owned the persisted data area — the
    /// compatibility anchor an in-place upgrade checks before adopting
    /// the state. Rows written before this field existed default to the
    /// manifest version.
    pub state_version: Version,
}

/// A parsed framework snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Next bundle id to allocate.
    pub next_bundle: u64,
    /// All installed bundles.
    pub bundles: Vec<BundleRecord>,
}

/// A framework namespace as a restore reads it, row by row: the header's
/// field, and each bundle row's record with the id its key names, both
/// parsed where the visitor lends the row, which is not copied. Any other
/// row is passed over.
pub struct Rows<'k> {
    known: &'k dyn KnownManifests,
    header: Option<Result<u64, String>>,
    /// The records read so far, or the first row that failed to parse.
    bundles: Result<Vec<BundleRecord>, String>,
}

impl<'k> Rows<'k> {
    /// Reads a namespace sharing each manifest `known` holds in the row's
    /// form (see [`KnownManifests`]).
    pub fn new(known: &'k dyn KnownManifests) -> Self {
        Rows {
            known,
            header: None,
            bundles: Ok(Vec::new()),
        }
    }

    /// Reads one row of the namespace.
    pub fn read(&mut self, key: &str, row: &Value) {
        if key == HEADER_KEY {
            self.header = Some(parse_header(row));
        } else if let Some(id) = parse_bundle_key(key) {
            let Ok(bundles) = &mut self.bundles else {
                return;
            };
            match parse_bundle_record(row, self.known) {
                Ok(record) if record.id == id => bundles.push(record),
                Ok(record) => {
                    let why = format!("row bundle/{} holds bundle id {}", id.0, record.id.0);
                    self.bundles = Err(why);
                }
                Err(why) => self.bundles = Err(why),
            }
        }
    }

    /// Reassembles the [`Snapshot`] the rows read hold. Returns
    /// `Ok(None)` when no header row was read, that is no framework state
    /// at all.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or malformed field.
    pub fn assemble(self) -> Result<Option<Snapshot>, String> {
        let Some(header) = self.header else {
            return Ok(None);
        };
        let next_bundle = header?;
        let mut bundles = self.bundles?;
        // Row keys sort lexicographically ("bundle/10" < "bundle/2"); the
        // snapshot contract is numeric id order.
        bundles.sort_unstable_by_key(|r| r.id);
        Ok(Some(Snapshot {
            next_bundle,
            bundles,
        }))
    }
}

fn parse_header(header: &Value) -> Result<u64, String> {
    let next_bundle = header
        .get("next_bundle")
        .and_then(Value::as_int)
        .ok_or("header missing next_bundle")?;
    Ok(next_bundle as u64)
}

/// Serializes the header row: the non-bundle framework state.
pub fn header_row(next_bundle: u64) -> Value {
    Value::map().with("next_bundle", next_bundle)
}

/// Serializes one bundle's row — the same map shape a bundle has inside
/// the tests' monolithic `snapshot`, so row and oracle encodings agree. The
/// framework builds one where a bundle's manifest is set, and keeps it.
pub fn bundle_row(b: &Bundle) -> Value {
    row_around(b, b.manifest.to_value())
}

/// `b`'s row around `manifest`, its manifest's row form: one map, built
/// from its entries in key order, whose `state` has room for every state
/// name, so that no later [`refresh_row`] grows it.
fn row_around(b: &Bundle, manifest: Value) -> Value {
    const LONGEST_STATE: usize = "UNINSTALLED".len();
    let mut state = String::with_capacity(LONGEST_STATE);
    state.push_str(b.state.as_str());
    Value::Map(Map::from_sorted(vec![
        ("autostart".into(), Value::Bool(b.autostart)),
        ("id".into(), Value::from(b.id.0)),
        ("manifest".into(), manifest),
        ("state".into(), Value::Str(state)),
        ("state_version".into(), b.state_version.to_string().into()),
    ]))
}

/// Brings `b`'s kept row up to its lifecycle fields — `state`, `autostart`
/// and `state_version` — rewriting each string in place, in the buffer it
/// already has, and leaving the manifest as it is: the row then encodes as
/// [`bundle_row`] would build it. A restored bundle has no row until its
/// first write, which builds [`bundle_row`]'s form around the row form
/// `known` holds of the bundle's manifest, or around a fresh one.
pub(crate) fn refresh_row(b: &mut Bundle, known: &dyn KnownManifests) {
    if b.row.is_null() {
        let form = known
            .known(b.manifest.symbolic_name.as_str())
            .filter(|(manifest, _)| Arc::ptr_eq(manifest, &b.manifest));
        b.row = match form {
            Some((_, form)) => row_around(b, form.clone()),
            None => bundle_row(b),
        };
        return;
    }
    let Value::Map(row) = &mut b.row else {
        unreachable!("a bundle row is built as a map");
    };
    write_str(row, "state", b.state.as_str());
    row.insert("autostart".into(), Value::Bool(b.autostart));
    write_str(row, "state_version", b.state_version);
}

fn write_str(row: &mut Map, key: &str, text: impl fmt::Display) {
    let Some(Value::Str(s)) = row.get_mut(key) else {
        unreachable!("a bundle row is built with a string {key}");
    };
    s.clear();
    write!(s, "{text}").expect("a String takes any text");
}

/// The manifest a bundle row holds: the one `known` holds under its
/// symbolic name when the row's manifest equals that one's row form — a
/// comparison of values, which allocates nothing — and a parse of it
/// otherwise.
fn manifest_of(row: &Value, known: &dyn KnownManifests) -> Result<Arc<BundleManifest>, String> {
    let shared = row
        .get("sn")
        .and_then(Value::as_str)
        .and_then(|sn| known.known(sn))
        .filter(|(_, form)| *form == row);
    match shared {
        Some((manifest, _)) => Ok(Arc::clone(manifest)),
        None => BundleManifest::from_value(row).map(Arc::new),
    }
}

fn parse_bundle_record(row: &Value, known: &dyn KnownManifests) -> Result<BundleRecord, String> {
    let id = row
        .get("id")
        .and_then(Value::as_int)
        .ok_or("bundle record missing id")? as u64;
    let manifest = manifest_of(
        row.get("manifest")
            .ok_or("bundle record missing manifest")?,
        known,
    )?;
    let state = BundleState::parse(
        row.get("state")
            .and_then(Value::as_str)
            .ok_or("bundle record missing state")?,
    )?;
    let state_version = match row.get("state_version").and_then(Value::as_str) {
        Some(s) => s
            .parse()
            .map_err(|_| format!("bad state_version {s:?} in bundle record"))?,
        None => manifest.version,
    };
    let autostart = row
        .get("autostart")
        .and_then(Value::as_bool)
        .unwrap_or(false);
    Ok(BundleRecord {
        id: BundleId(id),
        manifest,
        state,
        autostart,
        state_version,
    })
}

#[cfg(test)]
/// The tests, and the monolithic encoding the framework's tests hold the
/// per-bundle rows to.
pub mod tests {
    use super::*;
    use crate::{Framework, ManifestBuilder, Version};

    /// Serializes framework state into a single monolithic [`Value`]: the
    /// oracle the per-bundle rows are checked against.
    pub(crate) fn snapshot<'a>(
        next_bundle: u64,
        bundles: impl Iterator<Item = &'a Bundle>,
    ) -> Value {
        Value::map()
            .with("next_bundle", next_bundle)
            .with("bundles", Value::List(bundles.map(bundle_row).collect()))
    }

    /// Parses a snapshot produced by [`snapshot`].
    pub(crate) fn parse_snapshot(v: &Value) -> Result<Snapshot, String> {
        let next_bundle = v
            .get("next_bundle")
            .and_then(Value::as_int)
            .ok_or("snapshot missing next_bundle")? as u64;
        let bundles = v
            .get("bundles")
            .and_then(Value::as_list)
            .ok_or("snapshot missing bundles")?
            .iter()
            .map(|row| parse_bundle_record(row, &()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Snapshot {
            next_bundle,
            bundles,
        })
    }

    fn bundle_key(id: BundleId) -> String {
        Row::Bundle(id).key().as_ref().to_owned()
    }

    /// What a restore assembles of a namespace listing, knowing no manifest.
    fn assemble(pairs: &[(String, Value)]) -> Result<Option<Snapshot>, String> {
        let mut rows = Rows::new(&());
        for (key, row) in pairs {
            rows.read(key, row);
        }
        rows.assemble()
    }

    #[test]
    fn snapshot_round_trip_through_framework() {
        let mut fw = Framework::new("t");
        let m = ManifestBuilder::new("a.b", Version::new(1, 0, 0))
            .export_package("a.b.api", Version::new(1, 0, 0), ["X"])
            .build()
            .unwrap();
        let id = fw.install(m.clone(), None).unwrap();
        fw.start(id).unwrap();
        let v = snapshot(2, fw.bundles());
        let parsed = parse_snapshot(&v).unwrap();
        assert_eq!(parsed.next_bundle, 2);
        assert_eq!(parsed.bundles.len(), 1);
        assert_eq!(parsed.bundles[0].id, id);
        assert_eq!(*parsed.bundles[0].manifest, m);
        assert_eq!(parsed.bundles[0].state, BundleState::Active);
        assert!(parsed.bundles[0].autostart);
    }

    #[test]
    fn parse_rejects_malformed_snapshots() {
        assert!(parse_snapshot(&Value::Null).is_err());
        assert!(parse_snapshot(&Value::map().with("next_bundle", 1u64)).is_err());
        let bad_bundle = Value::map()
            .with("next_bundle", 1u64)
            .with("bundles", Value::List(vec![Value::map().with("id", 1u64)]));
        assert!(parse_snapshot(&bad_bundle).is_err());
    }

    #[test]
    fn binary_codec_round_trip() {
        let v = snapshot(7, std::iter::empty());
        let decoded = Value::decode(&v.encode()).unwrap();
        assert_eq!(parse_snapshot(&decoded).unwrap().next_bundle, 7);
    }

    #[test]
    fn bundle_keys_round_trip() {
        assert_eq!(bundle_key(BundleId(17)), "bundle/17");
        assert_eq!(
            bundle_key(BundleId(u64::MAX)),
            format!("bundle/{}", u64::MAX)
        );
        assert_eq!(Row::Header.key().as_ref(), HEADER_KEY);
        // Rows order as their keys.
        let mut rows = [
            Row::Header,
            Row::Bundle(BundleId(2)),
            Row::Bundle(BundleId(10)),
        ];
        rows.sort();
        assert_eq!(
            rows,
            [
                Row::Bundle(BundleId(10)),
                Row::Bundle(BundleId(2)),
                Row::Header
            ]
        );
        assert_eq!(parse_bundle_key("bundle/17"), Some(BundleId(17)));
        assert_eq!(parse_bundle_key("header"), None);
        assert_eq!(parse_bundle_key("bundle/x"), None);
        assert_eq!(parse_bundle_key("snapshot"), None);
    }

    #[test]
    fn assemble_matches_monolithic_snapshot() {
        let mut fw = Framework::new("t");
        let m = ManifestBuilder::new("a.b", Version::new(1, 0, 0))
            .build()
            .unwrap();
        let id = fw.install(m, None).unwrap();
        fw.start(id).unwrap();
        let rows: Vec<(String, Value)> = std::iter::once((HEADER_KEY.to_owned(), header_row(2)))
            .chain(fw.bundles().map(|b| (bundle_key(b.id), bundle_row(b))))
            .collect();
        let assembled = assemble(&rows).unwrap().unwrap();
        let oracle = parse_snapshot(&snapshot(2, fw.bundles())).unwrap();
        assert_eq!(assembled, oracle);
    }

    #[test]
    fn assemble_orders_bundles_numerically() {
        // Lexicographic row order would put bundle/10 before bundle/2.
        let record = |id: u64| {
            Value::map()
                .with("id", id)
                .with(
                    "manifest",
                    ManifestBuilder::new(&format!("b{id}"), Version::new(1, 0, 0))
                        .build()
                        .unwrap()
                        .to_value(),
                )
                .with("state", "INSTALLED")
                .with("autostart", false)
        };
        let rows = vec![
            ("bundle/10".to_owned(), record(10)),
            ("bundle/2".to_owned(), record(2)),
            (HEADER_KEY.to_owned(), header_row(11)),
        ];
        let s = assemble(&rows).unwrap().unwrap();
        let ids: Vec<u64> = s.bundles.iter().map(|b| b.id.0).collect();
        assert_eq!(ids, vec![2, 10]);
    }

    #[test]
    fn state_version_round_trips_and_defaults() {
        let mut fw = Framework::new("t");
        let m = ManifestBuilder::new("a.b", Version::new(1, 3, 0))
            .build()
            .unwrap();
        let id = fw.install(m, None).unwrap();
        let row = bundle_row(fw.bundles().next().unwrap());
        let rows = vec![
            (HEADER_KEY.to_owned(), header_row(2)),
            (bundle_key(id), row),
        ];
        let s = assemble(&rows).unwrap().unwrap();
        assert_eq!(s.bundles[0].state_version, Version::new(1, 3, 0));
        // Rows written before the field existed default to the manifest
        // version — old SAN state restores unchanged.
        let manifest = ManifestBuilder::new("a.b", Version::new(2, 0, 0))
            .build()
            .unwrap();
        let legacy_record = Value::map()
            .with("id", 1u64)
            .with("manifest", manifest.to_value())
            .with("state", "INSTALLED")
            .with("autostart", false);
        let rows = vec![
            (HEADER_KEY.to_owned(), header_row(2)),
            ("bundle/1".to_owned(), legacy_record.clone()),
        ];
        let s = assemble(&rows).unwrap().unwrap();
        assert_eq!(s.bundles[0].state_version, Version::new(2, 0, 0));
        // A malformed version is corrupt state, not silently defaulted.
        let rows = vec![
            (HEADER_KEY.to_owned(), header_row(2)),
            (
                "bundle/1".to_owned(),
                legacy_record.with("state_version", "not-a-version"),
            ),
        ];
        assert!(assemble(&rows).is_err());
    }

    #[test]
    fn assemble_empty_namespace_is_none() {
        assert_eq!(assemble(&[]).unwrap(), None);
        // Unrelated keys without a header are not framework state either.
        let rows = vec![("other".to_owned(), Value::Int(1))];
        assert_eq!(assemble(&rows).unwrap(), None);
    }

    #[test]
    fn assemble_rejects_malformed_rows() {
        let rows = vec![(HEADER_KEY.to_owned(), Value::Null)];
        assert!(assemble(&rows).is_err());
        let rows = vec![
            (HEADER_KEY.to_owned(), header_row(2)),
            ("bundle/1".to_owned(), Value::map().with("id", 1u64)),
        ];
        assert!(assemble(&rows).is_err());
        // A row whose key disagrees with the embedded id is corrupt.
        let mut fw = Framework::new("t");
        let m = ManifestBuilder::new("a.b", Version::new(1, 0, 0))
            .build()
            .unwrap();
        let id = fw.install(m, None).unwrap();
        let row = bundle_row(fw.bundles().next().unwrap());
        assert_eq!(id, BundleId(1));
        let rows = vec![
            (HEADER_KEY.to_owned(), header_row(2)),
            ("bundle/9".to_owned(), row),
        ];
        assert!(assemble(&rows).is_err());
    }
}
