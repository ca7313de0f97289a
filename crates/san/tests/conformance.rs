//! The store conformance suite: golden fixtures and seeded scripts.
//!
//! Every builtin script must render to the byte-identical committed
//! fixture under `results/san_fixtures/`, and arbitrary seeded op+fault
//! streams must keep the store's running byte totals equal to a recount
//! and render the same twice. Together these pin the store contract.
//!
//! Regenerate fixtures (after an intentional contract change) with
//! `SAN_FIXTURE_WRITE=1 cargo test -p dosgi-san --test conformance`.

use dosgi_san::conformance::{
    apply_op, builtin_scripts, check_byte_totals, random_script, run_script, WRITE_ENV,
};
use dosgi_san::SharedStore;
use dosgi_testkit::{prop, unified_diff, Gen, PropConfig, TestRng};

/// Each builtin script renders to its committed fixture. (There is one
/// store; the name dates from when a second backend shared the fixtures.)
#[test]
fn golden_fixtures_match_on_every_backend() {
    for script in builtin_scripts() {
        dosgi_testkit::assert_golden(&script.fixture_rel_path(), &run_script(&script), WRITE_ENV);
    }
}

/// 200 seeded arbitrary op+fault streams hold their byte totals to a
/// recount after every op (`run_script` panics otherwise) and render
/// deterministically: two runs of one script are equal.
#[test]
fn prop_random_scripts_hold_their_byte_totals_and_render_deterministically() {
    let scripts = Gen::new(|rng: &mut TestRng| random_script(rng));
    prop::check_with(
        &PropConfig::with_cases(200),
        "prop_random_scripts_hold_their_byte_totals_and_render_deterministically",
        &scripts,
        |script| {
            let (first, second) = (run_script(script), run_script(script));
            if first != second {
                return Err(format!(
                    "two runs differ:\n{}",
                    unified_diff(&first, &second, "first rendering")
                ));
            }
            Ok(())
        },
    );
}

/// The running totals are part of the contract over a long history too: a
/// seeded walk of `put` / `put_many` (duplicate keys in a batch) / `cas` /
/// `delete` / `delete_namespace` / identical rewrites / torn batches, twelve
/// scripts back to back on one store, `namespace_bytes` and
/// `namespace_bytes_prefixed` of every prefix held to a recount after each
/// op.
#[test]
fn byte_totals_equal_a_recount_through_a_seeded_walk() {
    for seed in 0..8 {
        let store = SharedStore::new();
        let mut rng = TestRng::new(seed);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..12 {
            for op in &random_script(&mut rng).ops {
                apply_op(&store, op);
                seen.extend(store.list_namespaces());
                if let Err(e) = check_byte_totals(&store, &seen) {
                    panic!("seed {seed}, after {op:?}: {e}");
                }
            }
        }
        assert!(!seen.is_empty(), "seed {seed}: the walk wrote nothing");
    }
}
