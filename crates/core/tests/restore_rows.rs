//! The restore rows as hostile input: every single-bit flip, and every
//! truncation, of the two rows a hand-off's adoption reads.
//!
//! The rows are the `migrate` workload's instance as its release leaves
//! them — a persist-on-stop counter, stopped — each encoded with
//! `san::codec`. A case that still decodes is stored in place of its row
//! and restored twice: through the repository, which shares a manifest the
//! row's equals, and by a restore that knows no manifest and parses every
//! one. The two agree: both refuse the rows, or both restore the same
//! bundles and leave the same rows on the SAN. A restore shares the
//! repository's manifest only where the row's manifest equals the one the
//! repository holds.
//!
//! Mutation-checked: sharing the repository's manifest by symbolic name
//! alone, without comparing the row's manifest with it, fails the table
//! (a flipped version or package name restores the repository's revision
//! where a parse restores the row's).

use dosgi_core::workloads;
use dosgi_osgi::{
    BundleId, BundleManifest, BundleState, Framework, FrameworkConfig, FrameworkMetrics,
    KnownManifests, Version,
};
use dosgi_san::{codec, SharedStore, Value};
use dosgi_telemetry::Phases;
use dosgi_vosgi::{BundleRepository, InstanceManager};
use std::sync::Arc;

const NS: &str = "instance/ctr";

/// The rows an adoption of the released `migrate` instance reads.
fn released_rows() -> Vec<(String, Value)> {
    let store = SharedStore::new();
    let mut mgr = InstanceManager::new(
        Framework::new("host"),
        workloads::standard_repository(),
        workloads::standard_factory(),
    );
    mgr.attach_store(store.clone());
    let id = mgr
        .create_instance(workloads::counter_instance("bank", "ctr"))
        .expect("a fresh manager");
    mgr.start_instance(id).expect("starts");
    mgr.stop_instance(id).expect("stops");
    mgr.destroy_instance(id, false).expect("leaves its state");
    store.read_namespace(NS).expect("no faults armed")
}

/// What a restore made of its rows.
struct Restored {
    /// Each bundle as it came back.
    shape: Vec<(BundleId, BundleManifest, BundleState, bool, Version)>,
    /// The manifest each bundle holds.
    manifests: Vec<Arc<BundleManifest>>,
    /// The rows the restore left on the SAN.
    san: Vec<(String, Value)>,
}

/// What a restore of `rows` through `known` makes of them; `None` when it
/// refuses them.
fn restore(rows: &[(String, Value)], known: &dyn KnownManifests) -> Option<Restored> {
    let store = SharedStore::new();
    store.put_many(NS, rows).expect("no faults armed");
    let factory = workloads::standard_factory();
    let (metrics, phases) = (FrameworkMetrics::default(), Phases::disabled());
    let config = FrameworkConfig::new(NS);
    let fw =
        Framework::restore_counted(config, store.clone(), NS, &factory, known, metrics, &phases)
            .ok()?;
    let shape = fw
        .bundles()
        .map(|b| {
            let manifest = (*b.manifest).clone();
            (b.id, manifest, b.state, b.autostart, b.state_version)
        })
        .collect();
    let manifests = fw.bundles().map(|b| Arc::clone(&b.manifest)).collect();
    let san = store.read_namespace(NS).expect("no faults armed");
    Some(Restored {
        shape,
        manifests,
        san,
    })
}

/// Checks one case: `rows` with row `at` replaced by what `bytes` decode to,
/// if they decode. Returns whether the case decoded.
fn check(
    rows: &[(String, Value)],
    at: usize,
    bytes: &[u8],
    repository: &BundleRepository,
    case: &str,
) -> bool {
    let Ok(value) = codec::decode(bytes) else {
        return false;
    };
    let mut hostile = rows.to_vec();
    hostile[at].1 = value;
    let shared = restore(&hostile, repository);
    let parsed = restore(&hostile, &());
    match (shared, parsed) {
        (None, None) => {}
        (Some(shared), Some(parsed)) => {
            assert_eq!(
                shared.shape, parsed.shape,
                "{case}: the restores' bundles differ"
            );
            assert_eq!(shared.san, parsed.san, "{case}: the restores' rows differ");
            for ((id, ..), manifest) in shared.shape.iter().zip(&shared.manifests) {
                let key = format!("bundle/{}", id.0);
                let row = &hostile.iter().find(|(k, _)| *k == key).expect("its row").1;
                let held = repository.known(manifest.symbolic_name.as_str());
                if let Some((held, form)) = held.filter(|(held, _)| Arc::ptr_eq(held, manifest)) {
                    assert_eq!(
                        row.get("manifest"),
                        Some(form),
                        "{case}: shared {} for a manifest that is not its row form",
                        held.symbolic_name
                    );
                }
            }
        }
        (shared, parsed) => panic!(
            "{case}: the shared restore restored: {}, the parse-only one: {}",
            shared.is_some(),
            parsed.is_some()
        ),
    }
    true
}

#[test]
fn every_bit_flip_and_truncation_of_the_restore_rows_restores_as_a_parse_does() {
    let rows = released_rows();
    let keys: Vec<&str> = rows.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        ["bundle/1", "header"],
        "the migrate instance's snapshot"
    );
    let repository = workloads::standard_repository();
    // The untouched rows share the repository's manifest.
    let restored = restore(&rows, &repository).expect("the rows restore");
    let held = repository
        .manifest(workloads::COUNTER_ON_STOP)
        .expect("catalogued");
    assert!(Arc::ptr_eq(&restored.manifests[0], held));
    let (mut cases, mut decoded) = (0, 0);
    for (at, (key, row)) in rows.iter().enumerate() {
        let bytes = codec::encode(row);
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            cases += 1;
            decoded += u32::from(check(
                &rows,
                at,
                &flipped,
                &repository,
                &format!("{key} bit {bit}"),
            ));
        }
        for len in 0..bytes.len() {
            cases += 1;
            decoded += u32::from(check(
                &rows,
                at,
                &bytes[..len],
                &repository,
                &format!("{key} cut at {len}"),
            ));
        }
    }
    assert!(decoded > cases / 4, "{decoded} of {cases} cases decoded");
}
