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
//! The persisted framework state is stored as rows inside the framework's
//! namespace: a header, and two rows per bundle — its running state, and
//! which one it is — so that a lifecycle transition, which changes only
//! the first, writes only the first:
//!
//! ```text
//! <namespace>/header              { next_bundle }
//! <namespace>/bundle/<id>          { autostart, id, state, state_version }
//! <namespace>/bundle/<id>/manifest the manifest's row form (BundleManifest::to_value)
//! ```
//!
//! The **lifecycle row** `bundle/<id>` is rewritten by every transition. A
//! bundle keeps it as it last wrote it: `refresh_row` builds it from the
//! four fields at the bundle's first write, and from then on rewrites
//! them in place, and a persist hands the store a reference. The
//! **manifest row** `bundle/<id>/manifest` is written only where the
//! manifest is set or the SAN is new to the framework — `install`, a
//! revision swap and `attach_store` — built for that write from the
//! manifest and not kept. Either end of a hand-off therefore writes one
//! lifecycle row and no manifest.
//!
//! A bundle's manifest row follows its lifecycle row in key order
//! (`bundle/1` < `bundle/1/manifest` < `bundle/10`), and every batch is
//! written in key order, header last: a torn batch lands a prefix of it.
//! An uninstall deletes the lifecycle row first, then the manifest row.
//!
//! A restore reads the namespace once, through [`Rows::read`], which parses
//! each row where it lies and keeps no copy of it: the header's field, and
//! each lifecycle row paired with the manifest row that follows it into a
//! record — the manifest shared from a [`KnownManifests`] when the row
//! equals the known manifest's row form, and parsed otherwise.
//! [`Rows::assemble`] then orders the records into a [`Snapshot`]. The
//! tests' `snapshot`/`parse_snapshot` keep a monolithic encoding alive as
//! the equivalence oracle: assembling the rows must produce the same
//! snapshot.
//!
//! # A row pair that did not land whole
//!
//! * **A lifecycle row with no manifest row after it leaves its bundle
//!   uninstalled.** A bundle is its manifest: there is nothing to restore
//!   it from. Only an install's batch torn after its first row writes one,
//!   and that batch's header did not land either: the framework restores
//!   as it was before the install, and the next install is handed the
//!   torn row's id and overwrites the row. No restored bundle holds that
//!   id, so no id is reused — as a lifecycle row that did get its
//!   manifest row but not its header is counted past by the restore.
//! * **A manifest row with no lifecycle row before it is passed over**: an
//!   uninstall's deletes stopped between the two rows. The framework
//!   retries the delete; after a crash nothing does, and the row stays.
//! * **A revision swap** rewrites both rows of a bundle that has both, and
//!   writes `state_version` — the revision that owns the bundle's data —
//!   beside the revision its manifest row holds: every pair written whole
//!   names one revision twice. Torn after the lifecycle row, the pair names
//!   the new revision in `state_version` and the old one in the manifest
//!   row. The bundle restores as its manifest row's revision, that
//!   revision's `state_version` included — the framework before the swap —
//!   and the restore's write puts the lifecycle row back in line.

use crate::framework::Bundle;
use crate::{BundleId, BundleManifest, BundleState, KnownManifests, Version};
use dosgi_san::{Map, Value};
use std::fmt::{self, Write};
use std::sync::Arc;

/// Key of the header row (`next_bundle`).
pub const HEADER_KEY: &str = "header";

/// Key prefix of per-bundle rows.
pub const BUNDLE_KEY_PREFIX: &str = "bundle/";

/// What follows a lifecycle row's key in its manifest row's.
const MANIFEST_KEY_SUFFIX: &str = "/manifest";

/// One snapshot row of a framework: the header, or one of a bundle's two.
/// Rows order as their keys sort (`bundle/10` < `bundle/10/manifest` <
/// `bundle/2` < `header`), so a batch written in row order is written in
/// key order, each manifest row after its lifecycle row, header last.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Row {
    /// A bundle's lifecycle row.
    Bundle(BundleId),
    /// A bundle's manifest row.
    Manifest(BundleId),
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
            Row::Manifest(id) => write!(out, "{BUNDLE_KEY_PREFIX}{}{MANIFEST_KEY_SUFFIX}", id.0),
        }
        .expect("`bundle/`, a u64 and `/manifest` fit");
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
    /// `bundle/`, the twenty digits of the largest id and `/manifest`.
    const CAPACITY: usize = 36;
}

impl AsRef<str> for Key {
    fn as_ref(&self) -> &str {
        std::str::from_utf8(&self.bytes[..self.len]).expect("written from text")
    }
}

/// Parses a `bundle/<id>` lifecycle row key back into the bundle id.
pub fn parse_bundle_key(key: &str) -> Option<BundleId> {
    key.strip_prefix(BUNDLE_KEY_PREFIX)
        .and_then(|id| id.parse().ok())
        .map(BundleId)
}

/// One bundle's persisted record: its lifecycle row and its manifest row.
#[derive(Debug, Clone, PartialEq)]
pub struct BundleRecord {
    /// The bundle's id (preserved across restore).
    pub id: BundleId,
    /// The manifest: a known one the manifest row equals, or parsed from
    /// the row.
    pub manifest: Arc<BundleManifest>,
    /// The persisted lifecycle state (`ACTIVE` collapses transient states).
    pub state: BundleState,
    /// Whether the bundle is persistently started.
    pub autostart: bool,
    /// The bundle version that last owned the persisted data area — the
    /// compatibility anchor an in-place upgrade checks before adopting
    /// the state — as the lifecycle row names it. A lifecycle row written
    /// without it defaults to the manifest version. A restore takes the
    /// manifest's version, and rewrites a row that names another.
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

/// A lifecycle row's fields, as read, until the manifest row that follows
/// it completes the record.
struct Lifecycle {
    id: BundleId,
    state: BundleState,
    autostart: bool,
    /// `None` for a row written without it: the manifest's version.
    state_version: Option<Version>,
}

/// A framework namespace as a restore reads it, row by row, in key order:
/// the header's field, and each lifecycle row with the id its key names,
/// held until the manifest row that follows it completes the bundle's
/// record. Each row is parsed where the visitor lends it, and not copied.
/// Any other row is passed over, as is a manifest row that follows no
/// lifecycle row of its id, and a lifecycle row that no manifest row
/// follows leaves its bundle out (see the module docs).
pub struct Rows<'k> {
    known: &'k dyn KnownManifests,
    header: Option<Result<u64, String>>,
    /// The lifecycle row read last, while no manifest row has completed it.
    lifecycle: Option<Lifecycle>,
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
            lifecycle: None,
            bundles: Ok(Vec::new()),
        }
    }

    /// Reads one row of the namespace; rows are read in key order.
    pub fn read(&mut self, key: &str, row: &Value) {
        if key == HEADER_KEY {
            self.header = Some(parse_header(row));
            return;
        }
        let Ok(bundles) = &mut self.bundles else {
            return;
        };
        if let Some(id) = parse_bundle_key(key) {
            match parse_lifecycle(row) {
                Ok(lifecycle) if lifecycle.id == id => self.lifecycle = Some(lifecycle),
                Ok(lifecycle) => {
                    let why = format!("row bundle/{} holds bundle id {}", id.0, lifecycle.id.0);
                    self.bundles = Err(why);
                }
                Err(why) => self.bundles = Err(why),
            }
        } else if let Some(id) = key
            .strip_suffix(MANIFEST_KEY_SUFFIX)
            .and_then(parse_bundle_key)
        {
            let Some(lifecycle) = self.lifecycle.take_if(|l| l.id == id) else {
                return;
            };
            match manifest_of(row, self.known) {
                Ok(manifest) => bundles.push(BundleRecord {
                    id,
                    state: lifecycle.state,
                    autostart: lifecycle.autostart,
                    state_version: lifecycle.state_version.unwrap_or(manifest.version),
                    manifest,
                }),
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

/// Serializes one bundle's lifecycle row: one map, built from its four
/// entries in key order, whose `state` has room for every state name, so
/// that no later `refresh_row` grows it.
pub fn bundle_row(b: &Bundle) -> Value {
    const LONGEST_STATE: usize = "UNINSTALLED".len();
    let mut state = String::with_capacity(LONGEST_STATE);
    state.push_str(b.state.as_str());
    Value::Map(Map::from_sorted(vec![
        ("autostart".into(), Value::Bool(b.autostart)),
        ("id".into(), Value::from(b.id.0)),
        ("state".into(), Value::Str(state)),
        ("state_version".into(), b.state_version.to_string().into()),
    ]))
}

/// Brings `b`'s kept lifecycle row up to its fields — `state`, `autostart`
/// and `state_version` — rewriting each string in place, in the buffer it
/// already has: the row then encodes as [`bundle_row`] would build it. A
/// bundle has no row until its first write, which builds it.
pub(crate) fn refresh_row(b: &mut Bundle) {
    let Value::Map(row) = &mut b.row else {
        b.row = bundle_row(b);
        return;
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

/// The manifest a manifest row holds: the one `known` holds under its
/// symbolic name when the row equals that one's row form — a comparison
/// of values, which allocates nothing — and a parse of it otherwise.
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

fn parse_lifecycle(row: &Value) -> Result<Lifecycle, String> {
    let id = row
        .get("id")
        .and_then(Value::as_int)
        .ok_or("bundle record missing id")? as u64;
    let state = BundleState::parse(
        row.get("state")
            .and_then(Value::as_str)
            .ok_or("bundle record missing state")?,
    )?;
    let state_version = match row.get("state_version").and_then(Value::as_str) {
        Some(s) => Some(
            s.parse()
                .map_err(|_| format!("bad state_version {s:?} in bundle record"))?,
        ),
        None => None,
    };
    let autostart = row
        .get("autostart")
        .and_then(Value::as_bool)
        .unwrap_or(false);
    Ok(Lifecycle {
        id: BundleId(id),
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
    /// oracle the per-bundle rows are checked against. Each bundle is its
    /// lifecycle row with its manifest under `manifest`.
    pub(crate) fn snapshot<'a>(
        next_bundle: u64,
        bundles: impl Iterator<Item = &'a Bundle>,
    ) -> Value {
        let bundle = |b: &Bundle| bundle_row(b).with("manifest", b.manifest.to_value());
        Value::map()
            .with("next_bundle", next_bundle)
            .with("bundles", Value::List(bundles.map(bundle).collect()))
    }

    /// Parses a snapshot produced by [`snapshot`].
    pub(crate) fn parse_snapshot(v: &Value) -> Result<Snapshot, String> {
        let next_bundle = v
            .get("next_bundle")
            .and_then(Value::as_int)
            .ok_or("snapshot missing next_bundle")? as u64;
        let record = |row: &Value| -> Result<BundleRecord, String> {
            let lifecycle = parse_lifecycle(row)?;
            let manifest = row
                .get("manifest")
                .ok_or("bundle record missing manifest")?;
            let manifest = manifest_of(manifest, &())?;
            Ok(BundleRecord {
                id: lifecycle.id,
                state: lifecycle.state,
                autostart: lifecycle.autostart,
                state_version: lifecycle.state_version.unwrap_or(manifest.version),
                manifest,
            })
        };
        let bundles = v
            .get("bundles")
            .and_then(Value::as_list)
            .ok_or("snapshot missing bundles")?
            .iter()
            .map(record)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Snapshot {
            next_bundle,
            bundles,
        })
    }

    fn bundle_key(id: BundleId) -> String {
        Row::Bundle(id).key().as_ref().to_owned()
    }

    fn manifest_key(id: BundleId) -> String {
        Row::Manifest(id).key().as_ref().to_owned()
    }

    /// A bundle's two rows: its lifecycle row and its manifest row.
    fn pair(id: BundleId, lifecycle: Value, manifest: &BundleManifest) -> [(String, Value); 2] {
        [
            (bundle_key(id), lifecycle),
            (manifest_key(id), manifest.to_value()),
        ]
    }

    /// Every row `fw` persists, in key order.
    fn rows_of(fw: &Framework, next_bundle: u64) -> Vec<(String, Value)> {
        let mut rows: Vec<_> = fw
            .bundles()
            .flat_map(|b| pair(b.id, bundle_row(b), &b.manifest))
            .collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        rows.push((HEADER_KEY.to_owned(), header_row(next_bundle)));
        rows
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
        assert_eq!(
            manifest_key(BundleId(u64::MAX)),
            format!("bundle/{}/manifest", u64::MAX)
        );
        assert_eq!(Row::Header.key().as_ref(), HEADER_KEY);
        // Rows order as their keys: each manifest row after its lifecycle
        // row, header last.
        let mut rows = [
            Row::Header,
            Row::Manifest(BundleId(2)),
            Row::Bundle(BundleId(2)),
            Row::Manifest(BundleId(1)),
            Row::Bundle(BundleId(10)),
            Row::Bundle(BundleId(1)),
        ];
        rows.sort();
        assert_eq!(
            rows,
            [
                Row::Bundle(BundleId(1)),
                Row::Manifest(BundleId(1)),
                Row::Bundle(BundleId(10)),
                Row::Bundle(BundleId(2)),
                Row::Manifest(BundleId(2)),
                Row::Header
            ]
        );
        assert_eq!(parse_bundle_key("bundle/17"), Some(BundleId(17)));
        assert_eq!(parse_bundle_key("bundle/17/manifest"), None);
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
        let assembled = assemble(&rows_of(&fw, 2)).unwrap().unwrap();
        let oracle = parse_snapshot(&snapshot(2, fw.bundles())).unwrap();
        assert_eq!(assembled, oracle);
    }

    #[test]
    fn assemble_orders_bundles_numerically() {
        // Lexicographic row order would put bundle/10 before bundle/2.
        let rows = |id: u64| {
            let lifecycle = Value::map()
                .with("id", id)
                .with("state", "INSTALLED")
                .with("autostart", false);
            let manifest = ManifestBuilder::new(&format!("b{id}"), Version::new(1, 0, 0));
            pair(BundleId(id), lifecycle, &manifest.build().unwrap())
        };
        let mut listing: Vec<_> = rows(10).into_iter().chain(rows(2)).collect();
        listing.push((HEADER_KEY.to_owned(), header_row(11)));
        let s = assemble(&listing).unwrap().unwrap();
        let ids: Vec<u64> = s.bundles.iter().map(|b| b.id.0).collect();
        assert_eq!(ids, vec![2, 10]);
    }

    #[test]
    fn state_version_round_trips_and_defaults() {
        let mut fw = Framework::new("t");
        let m = ManifestBuilder::new("a.b", Version::new(1, 3, 0))
            .build()
            .unwrap();
        fw.install(m, None).unwrap();
        let s = assemble(&rows_of(&fw, 2)).unwrap().unwrap();
        assert_eq!(s.bundles[0].state_version, Version::new(1, 3, 0));
        // A lifecycle row written without the field defaults to the
        // manifest row's version.
        let manifest = ManifestBuilder::new("a.b", Version::new(2, 0, 0))
            .build()
            .unwrap();
        let lifecycle = Value::map()
            .with("id", 1u64)
            .with("state", "INSTALLED")
            .with("autostart", false);
        let rows = |lifecycle: Value| {
            let mut rows = pair(BundleId(1), lifecycle, &manifest).to_vec();
            rows.push((HEADER_KEY.to_owned(), header_row(2)));
            rows
        };
        let s = assemble(&rows(lifecycle.clone())).unwrap().unwrap();
        assert_eq!(s.bundles[0].state_version, Version::new(2, 0, 0));
        // A malformed version is corrupt state, not silently defaulted.
        let bad = lifecycle.with("state_version", "not-a-version");
        assert!(assemble(&rows(bad)).is_err());
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
        assert_eq!(id, BundleId(1));
        let b = fw.bundles().next().unwrap();
        let mut rows = pair(BundleId(9), bundle_row(b), &b.manifest).to_vec();
        rows.push((HEADER_KEY.to_owned(), header_row(2)));
        assert!(assemble(&rows).is_err());
        // So is a manifest row that does not parse.
        let mut rows = rows_of(&fw, 2);
        rows[1].1 = Value::map().with("sn", "a.b");
        assert!(assemble(&rows).is_err());
    }

    /// The rule for a pair that did not land whole: a lifecycle row that no
    /// manifest row follows leaves its bundle out — wherever it lies, and
    /// whatever row follows it — and a manifest row that follows no
    /// lifecycle row of its id is passed over, parsed or not. The bundles
    /// around either restore as their rows say.
    #[test]
    fn a_half_pair_restores_no_bundle() {
        let mut fw = Framework::new("t");
        for name in ["a", "b", "c"] {
            let m = ManifestBuilder::new(name, Version::new(1, 0, 0));
            fw.install(m.build().unwrap(), None).unwrap();
        }
        let whole = rows_of(&fw, 4);
        let ids = |rows: &[(String, Value)]| -> Vec<u64> {
            let s = assemble(rows).unwrap().unwrap();
            s.bundles.iter().map(|b| b.id.0).collect()
        };
        assert_eq!(ids(&whole), [1, 2, 3]);
        // Rows 2k and 2k + 1 are bundle k + 1's pair.
        for (at, left) in [(1, [2, 3]), (3, [1, 3]), (5, [1, 2])] {
            let mut rows = whole.clone();
            rows.remove(at);
            assert_eq!(ids(&rows), left, "without {}", whole[at].0);
            let mut rows = whole.clone();
            rows.remove(at - 1);
            assert_eq!(ids(&rows), left, "without {}", whole[at - 1].0);
            rows[at - 1].1 = Value::Null;
            assert_eq!(ids(&rows), left, "an unparsed half");
        }
        // Two halves of two pairs side by side: bundle 1's lifecycle row,
        // then bundle 2's manifest row. They are no pair.
        let mut rows = whole.clone();
        rows.drain(1..3);
        assert_eq!(ids(&rows), [3]);
    }
}
