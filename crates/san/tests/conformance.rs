//! The backend conformance suite: golden fixtures and cross-backend
//! equivalence.
//!
//! Every registered [`BackendKind`] must render every builtin script to
//! the byte-identical committed fixture under `results/san_fixtures/`, and
//! arbitrary seeded op+fault streams must render identically across all
//! backends. Together these pin the store contract: a new backend that
//! passes this file observably *is* the SAN.
//!
//! Regenerate fixtures (after an intentional contract change) with
//! `SAN_FIXTURE_WRITE=1 cargo test -p dosgi-san --test conformance`.

use dosgi_san::conformance::{
    builtin_scripts, check_byte_totals, random_script, run_script, WRITE_ENV,
};
use dosgi_san::{BackendKind, LogBackend, LogConfig, SharedStore, Value};
use dosgi_testkit::{prop, unified_diff, Gen, PropConfig, TestRng};

/// Each builtin script renders to its committed fixture — on *every*
/// backend (the fixture file is backend-agnostic by contract).
#[test]
fn golden_fixtures_match_on_every_backend() {
    for script in builtin_scripts() {
        let reference = run_script(&script, BackendKind::Map);
        dosgi_testkit::assert_golden(&script.fixture_rel_path(), &reference, WRITE_ENV);
        for kind in BackendKind::all() {
            let rendered = run_script(&script, kind);
            assert!(
                rendered == reference,
                "backend `{kind}` diverges from the fixture contract on `{}`:\n{}",
                script.name,
                unified_diff(&reference, &rendered, &script.fixture_rel_path())
            );
        }
    }
}

/// Cross-backend equivalence: 200 seeded arbitrary op+fault streams must
/// produce identical observable results (per-op outcomes, final dump,
/// final stats) on every registered backend.
#[test]
fn prop_random_scripts_render_identically_on_all_backends() {
    let scripts = Gen::new(|rng: &mut TestRng| random_script(rng));
    prop::check_with(
        &PropConfig::with_cases(200),
        "prop_random_scripts_render_identically_on_all_backends",
        &scripts,
        |script| {
            let reference = run_script(script, BackendKind::Map);
            for kind in BackendKind::all() {
                let rendered = run_script(script, kind);
                if rendered != reference {
                    return Err(format!(
                        "backend `{kind}` diverges:\n{}",
                        unified_diff(&reference, &rendered, "map-backend rendering")
                    ));
                }
            }
            Ok(())
        },
    );
}

/// The equivalence holds under an aggressive log geometry too: a tiny
/// segment target and eager compaction must be invisible to observers.
#[test]
fn prop_tiny_log_geometry_is_observably_identical() {
    let scripts = Gen::new(|rng: &mut TestRng| random_script(rng));
    prop::check_with(
        &PropConfig::with_cases(60),
        "prop_tiny_log_geometry_is_observably_identical",
        &scripts,
        |script| {
            let reference = run_script(script, BackendKind::Map);
            let store =
                SharedStore::with_backend(Box::new(LogBackend::with_config(LogConfig::tiny())));
            // Re-render manually over the custom store: reuse run_script's
            // canonical rendering by comparing dumps + stats through a
            // fresh default-geometry run first (cheap sanity), then replay
            // ops onto the tiny-geometry store and compare final state.
            let default_log = run_script(script, BackendKind::Log);
            if default_log != reference {
                return Err("default log geometry diverged".to_owned());
            }
            for op in &script.ops {
                apply(&store, op);
            }
            let end = SharedStore::with_kind(BackendKind::Map);
            for op in &script.ops {
                apply(&end, op);
            }
            if store.dump() != end.dump() || store.stats() != end.stats() {
                return Err(format!(
                    "tiny geometry diverged: {:?} vs {:?}",
                    store.stats(),
                    end.stats()
                ));
            }
            Ok(())
        },
    );
}

/// The running totals are part of the contract, through compaction too: a
/// long seeded walk of `put` / `put_many` (duplicate keys in a batch) /
/// `cas` / `delete` / `delete_namespace` / identical rewrites / torn batches
/// over a log that compacts every few dozen writes, `namespace_bytes` and
/// `namespace_bytes_prefixed` of every prefix held to a recount after each
/// op. (`run_script` does the same for every script on every backend.)
#[test]
fn byte_totals_equal_a_recount_through_compaction() {
    for seed in 0..8 {
        let store = SharedStore::with_backend(Box::new(LogBackend::with_config(LogConfig::tiny())));
        let mut rng = TestRng::new(seed);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..12 {
            for op in &random_script(&mut rng).ops {
                apply(&store, op);
                seen.extend(store.list_namespaces());
                if let Err(e) = check_byte_totals(&store, &seen) {
                    panic!("seed {seed}, after {op:?}: {e}");
                }
            }
        }
        let compactions = store.backend_stats().compactions;
        assert!(compactions > 0, "seed {seed}: the walk never compacted");
    }
}

/// Minimal op applier for the tiny-geometry replay (results are compared
/// via dump+stats, so outcomes are intentionally discarded).
fn apply(store: &SharedStore, op: &dosgi_san::conformance::ScriptOp) {
    use dosgi_san::conformance::ScriptOp as Op;
    use dosgi_san::FaultPlan;
    match op {
        Op::Put {
            namespace,
            key,
            value,
        } => {
            let _ = store.put(namespace, key, value.clone());
        }
        Op::PutMany { namespace, entries } => {
            let _ = store.put_many(namespace, entries);
        }
        Op::Get { namespace, key } => {
            let _ = store.get_versioned(namespace, key);
        }
        Op::Cas {
            namespace,
            key,
            expected,
            value,
        } => {
            let _ = store.cas(namespace, key, *expected, value.clone());
        }
        Op::Delete { namespace, key } => {
            let _ = store.delete(namespace, key);
        }
        Op::DeleteNamespace { namespace } => {
            let _ = store.delete_namespace(namespace);
        }
        Op::ReadNamespace { namespace } => {
            let _ = store.read_namespace(namespace);
        }
        Op::Flaky {
            io_permille,
            torn_permille,
            seed,
        } => store.set_fault_plan(
            FaultPlan::flaky(f64::from(*io_permille) / 1000.0, *seed)
                .with_torn_writes(f64::from(*torn_permille) / 1000.0),
        ),
        Op::Brownout { from_ms, until_ms } => {
            store.set_fault_plan(FaultPlan::none().with_brownout(
                dosgi_net::SimTime::from_millis(*from_ms),
                dosgi_net::SimTime::from_millis(*until_ms),
            ))
        }
        Op::SetNow { ms } => store.set_now(dosgi_net::SimTime::from_millis(*ms)),
        Op::ClearFaults => store.clear_faults(),
        Op::ResetStats => store.reset_stats(),
    }
}

/// The log backend's maintenance machinery actually engages on the fixture
/// workloads (otherwise the "second backend" could be a map in disguise).
#[test]
fn log_backend_compacts_under_churn_without_observable_drift() {
    let store = SharedStore::with_backend(Box::new(LogBackend::with_config(LogConfig::tiny())));
    let oracle = SharedStore::new();
    for round in 0..50i64 {
        for k in 0..6 {
            let v = Value::map().with("round", round).with("k", k as i64);
            store.put("churn", &format!("k{k}"), v.clone()).unwrap();
            oracle.put("churn", &format!("k{k}"), v).unwrap();
        }
    }
    let bs = store.backend_stats();
    assert!(bs.compactions > 0, "tiny geometry must compact: {bs:?}");
    assert!(bs.sealed_segments > 0, "tiny geometry must seal: {bs:?}");
    assert_eq!(store.dump(), oracle.dump());
    assert_eq!(store.stats(), oracle.stats());
}
