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
//! its row as the SAN holds it: [`bundle_row`] builds it where the
//! manifest is set, a restore keeps the row it read, and a persist
//! rewrites the lifecycle fields in place and writes the row by reference:
//!
//! ```text
//! <namespace>/header        { next_bundle, start_level }
//! <namespace>/bundle/<id>   { id, manifest, state, autostart }
//! ```
//!
//! [`assemble`] reconstructs a [`Snapshot`] from a `read_namespace` listing.
//! The test-only `snapshot`/`parse_snapshot` keep the monolithic encoding
//! alive as the equivalence oracle: assembling the rows must produce a
//! byte-identical snapshot value.

use crate::framework::Bundle;
use crate::{BundleId, BundleManifest, BundleState, Version};
use dosgi_san::{Map, Value};
use std::fmt::{self, Write};

/// Key of the header row (`next_bundle` + `start_level`).
pub const HEADER_KEY: &str = "header";

/// Key prefix of per-bundle rows.
pub const BUNDLE_KEY_PREFIX: &str = "bundle/";

/// The row key of a bundle.
pub fn bundle_key(id: BundleId) -> String {
    format!("{BUNDLE_KEY_PREFIX}{}", id.0)
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
    /// The manifest.
    pub manifest: BundleManifest,
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
    /// Active start level at persist time.
    pub start_level: u32,
    /// All installed bundles.
    pub bundles: Vec<BundleRecord>,
}

/// Serializes the header row: the non-bundle framework state.
pub fn header_row(next_bundle: u64, start_level: u32) -> Value {
    Value::map()
        .with("next_bundle", next_bundle)
        .with("start_level", i64::from(start_level))
}

/// Serializes one bundle's row — the same map shape a bundle has inside
/// the monolithic `snapshot`, so row and oracle encodings agree. The
/// framework builds one where a bundle's manifest is set, and keeps it.
pub fn bundle_row(b: &Bundle) -> Value {
    Value::map()
        .with("id", b.id.0)
        .with("manifest", b.manifest.to_value())
        .with("state", b.state.as_str())
        .with("autostart", b.autostart)
        .with("state_version", b.state_version.to_string())
}

/// Rewrites the lifecycle fields of `b`'s kept row — `state`, `autostart`
/// and `state_version` — in place, each string into the buffer it already
/// has, leaving the manifest as it is: the row then encodes as
/// [`bundle_row`] would build it. A field a row read from the SAN lacks or
/// holds in another type is written whole.
pub(crate) fn refresh_row(b: &mut Bundle) {
    let Value::Map(row) = &mut b.row else {
        unreachable!("a bundle row is a map: built so, or parsed as one");
    };
    write_str(row, "state", b.state.as_str());
    row.insert("autostart".into(), Value::Bool(b.autostart));
    write_str(row, "state_version", b.state_version);
}

fn write_str(row: &mut Map, key: &'static str, text: impl fmt::Display) {
    match row.get_mut(key) {
        Some(Value::Str(s)) => {
            s.clear();
            write!(s, "{text}").expect("a String takes any text");
        }
        _ => {
            row.insert(key.into(), Value::Str(text.to_string()));
        }
    }
}

/// Serializes framework state into a single monolithic [`Value`].
#[cfg(test)]
pub(crate) fn snapshot<'a>(
    next_bundle: u64,
    start_level: u32,
    bundles: impl Iterator<Item = &'a Bundle>,
) -> Value {
    Value::map()
        .with("next_bundle", next_bundle)
        .with("start_level", i64::from(start_level))
        .with("bundles", Value::List(bundles.map(bundle_row).collect()))
}

fn parse_bundle_record(b: &Value) -> Result<BundleRecord, String> {
    let id = b
        .get("id")
        .and_then(Value::as_int)
        .ok_or("bundle record missing id")? as u64;
    let manifest =
        BundleManifest::from_value(b.get("manifest").ok_or("bundle record missing manifest")?)?;
    let state = BundleState::parse(
        b.get("state")
            .and_then(Value::as_str)
            .ok_or("bundle record missing state")?,
    )?;
    let state_version = match b.get("state_version").and_then(Value::as_str) {
        Some(s) => s
            .parse()
            .map_err(|_| format!("bad state_version {s:?} in bundle record"))?,
        None => manifest.version,
    };
    Ok(BundleRecord {
        id: BundleId(id),
        manifest,
        state,
        autostart: b.get("autostart").and_then(Value::as_bool).unwrap_or(false),
        state_version,
    })
}

/// Reassembles a [`Snapshot`] from a `read_namespace` listing of the
/// framework's namespace: the [`HEADER_KEY`] row plus one
/// [`bundle_key`] row per bundle. Returns `Ok(None)` when the namespace
/// holds no header row, that is no framework state at all.
///
/// # Errors
///
/// Returns a description of the first missing or malformed field.
pub fn assemble(pairs: &[(String, Value)]) -> Result<Option<Snapshot>, String> {
    let Some((_, header)) = pairs.iter().find(|(k, _)| k == HEADER_KEY) else {
        return Ok(None);
    };
    let next_bundle = header
        .get("next_bundle")
        .and_then(Value::as_int)
        .ok_or("header missing next_bundle")? as u64;
    let start_level = header
        .get("start_level")
        .and_then(Value::as_int)
        .ok_or("header missing start_level")?
        .try_into()
        .map_err(|_| "negative start_level")?;
    let mut bundles = pairs
        .iter()
        .filter(|(k, _)| parse_bundle_key(k).is_some())
        .map(|(k, v)| {
            let record = parse_bundle_record(v)?;
            if Some(record.id) != parse_bundle_key(k) {
                return Err(format!("row {k} holds bundle id {}", record.id.0));
            }
            Ok(record)
        })
        .collect::<Result<Vec<_>, String>>()?;
    // Row keys sort lexicographically ("bundle/10" < "bundle/2"); the
    // snapshot contract is numeric id order.
    bundles.sort_by_key(|r| r.id);
    Ok(Some(Snapshot {
        next_bundle,
        start_level,
        bundles,
    }))
}

/// Parses a snapshot produced by [`snapshot`].
///
/// # Errors
///
/// Returns a description of the first missing or malformed field.
#[cfg(test)]
pub(crate) fn parse_snapshot(v: &Value) -> Result<Snapshot, String> {
    let next_bundle = v
        .get("next_bundle")
        .and_then(Value::as_int)
        .ok_or("snapshot missing next_bundle")? as u64;
    let start_level = v
        .get("start_level")
        .and_then(Value::as_int)
        .ok_or("snapshot missing start_level")?
        .try_into()
        .map_err(|_| "negative start_level")?;
    let bundles = v
        .get("bundles")
        .and_then(Value::as_list)
        .ok_or("snapshot missing bundles")?
        .iter()
        .map(parse_bundle_record)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Snapshot {
        next_bundle,
        start_level,
        bundles,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Framework, ManifestBuilder, Version};

    #[test]
    fn snapshot_round_trip_through_framework() {
        let mut fw = Framework::new("t");
        let m = ManifestBuilder::new("a.b", Version::new(1, 0, 0))
            .export_package("a.b.api", Version::new(1, 0, 0), ["X"])
            .build()
            .unwrap();
        let id = fw.install(m.clone(), None).unwrap();
        fw.start(id).unwrap();
        let v = snapshot(2, 1, fw.bundles());
        let parsed = parse_snapshot(&v).unwrap();
        assert_eq!(parsed.next_bundle, 2);
        assert_eq!(parsed.start_level, 1);
        assert_eq!(parsed.bundles.len(), 1);
        assert_eq!(parsed.bundles[0].id, id);
        assert_eq!(parsed.bundles[0].manifest, m);
        assert_eq!(parsed.bundles[0].state, BundleState::Active);
        assert!(parsed.bundles[0].autostart);
    }

    #[test]
    fn parse_rejects_malformed_snapshots() {
        assert!(parse_snapshot(&Value::Null).is_err());
        assert!(parse_snapshot(&Value::map().with("next_bundle", 1u64)).is_err());
        let bad_bundle = Value::map()
            .with("next_bundle", 1u64)
            .with("start_level", 1i64)
            .with("bundles", Value::List(vec![Value::map().with("id", 1u64)]));
        assert!(parse_snapshot(&bad_bundle).is_err());
    }

    #[test]
    fn binary_codec_round_trip() {
        let v = snapshot(7, 3, std::iter::empty());
        let decoded = Value::decode(&v.encode()).unwrap();
        assert_eq!(parse_snapshot(&decoded).unwrap().next_bundle, 7);
    }

    #[test]
    fn bundle_keys_round_trip() {
        assert_eq!(bundle_key(BundleId(17)), "bundle/17");
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
        let rows: Vec<(String, Value)> = std::iter::once((HEADER_KEY.to_owned(), header_row(2, 1)))
            .chain(fw.bundles().map(|b| (bundle_key(b.id), bundle_row(b))))
            .collect();
        let assembled = assemble(&rows).unwrap().unwrap();
        let oracle = parse_snapshot(&snapshot(2, 1, fw.bundles())).unwrap();
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
            (HEADER_KEY.to_owned(), header_row(11, 1)),
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
            (HEADER_KEY.to_owned(), header_row(2, 1)),
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
            (HEADER_KEY.to_owned(), header_row(2, 1)),
            ("bundle/1".to_owned(), legacy_record.clone()),
        ];
        let s = assemble(&rows).unwrap().unwrap();
        assert_eq!(s.bundles[0].state_version, Version::new(2, 0, 0));
        // A malformed version is corrupt state, not silently defaulted.
        let rows = vec![
            (HEADER_KEY.to_owned(), header_row(2, 1)),
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
            (HEADER_KEY.to_owned(), header_row(2, 1)),
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
            (HEADER_KEY.to_owned(), header_row(2, 1)),
            ("bundle/9".to_owned(), row),
        ];
        assert!(assemble(&rows).is_err());
    }
}
