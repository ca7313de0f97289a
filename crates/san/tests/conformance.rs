//! The store's running byte totals, held to a recount over seeded op +
//! fault streams, and the store's determinism under them.
//!
//! The fixed scripts that pin the store contract (results, versions, stats,
//! fault interleaving) are the `san_contract` bin, whose stdout
//! `scripts/check.sh` holds byte for byte as `results/san_contract.txt`.

use dosgi_net::SimTime;
use dosgi_san::{FaultPlan, SharedStore, Value, Versioned};
use dosgi_testkit::{prop, PropConfig, TestRng};
use std::collections::BTreeSet;

/// Holds the store's running byte totals to a recount: `namespace_bytes`
/// of every live namespace and of each of `names` (a wiped namespace must
/// read 0), and `namespace_bytes_prefixed` of every `/`-prefix of those,
/// against sums over [`SharedStore::dump`].
fn check_byte_totals(store: &SharedStore, names: &BTreeSet<String>) -> Result<(), String> {
    let bytes = |rows: &[(String, Versioned)]| -> u64 {
        rows.iter().map(|(_, v)| v.value.encoded_len() as u64).sum()
    };
    let dump = store.dump();
    let recount: Vec<(&str, u64)> = dump.iter().map(|(ns, r)| (ns.as_str(), bytes(r))).collect();
    let sum = |keep: &dyn Fn(&str) -> bool| -> u64 {
        let kept = recount.iter().filter(|(ns, _)| keep(ns));
        kept.map(|(_, bytes)| bytes).sum()
    };
    for name in recount
        .iter()
        .map(|(ns, _)| *ns)
        .chain(names.iter().map(String::as_str))
    {
        if store.namespace_bytes(name) != sum(&|ns| ns == name) {
            return Err(format!("namespace_bytes({name}) is not the recount"));
        }
        for cut in name.match_indices('/').map(|(i, _)| i).chain([name.len()]) {
            let prefix = &name[..cut];
            let under = |ns: &str| {
                let rest = ns.strip_prefix(prefix);
                rest.is_some_and(|rest| rest.is_empty() || rest.starts_with('/'))
            };
            if store.namespace_bytes_prefixed(prefix) != sum(&under) {
                return Err(format!(
                    "namespace_bytes_prefixed({prefix}) is not the recount"
                ));
            }
        }
    }
    Ok(())
}

/// 10 to 60 random ops over a small key space — `put`, `put_many` with
/// duplicate keys, `get`, `cas`, `delete`, `delete_namespace`,
/// `read_namespace` — interleaved with fault-plan swaps (flaky I/O, torn
/// batches), clock advances and stat resets. Each outcome is rendered with
/// `Debug`, and the byte totals are held to a recount after every op.
fn walk(
    store: &SharedStore,
    rng: &mut TestRng,
    seen: &mut BTreeSet<String>,
) -> Result<String, String> {
    let namespaces = ["a", "b", "a/sub"];
    let keys = ["k0", "k1", "k2", "k3", "k4"];
    let value = |rng: &mut TestRng| match rng.u64_below(5) {
        0 => Value::Int(rng.u64_below(4) as i64),
        1 => Value::Str(format!("s{}", rng.u64_below(3))),
        2 => Value::Bytes(vec![rng.next_u64() as u8; rng.usize_in(0, 12)]),
        3 => Value::Float(f64::from_bits(0x3ff0_0000_0000_0000 + rng.u64_below(2))),
        _ => Value::List(vec![Value::Int(rng.u64_below(3) as i64)]),
    };
    let mut out = String::new();
    for _ in 0..rng.usize_in(10, 60) {
        let ns = namespaces[rng.usize_in(0, namespaces.len() - 1)];
        let key = keys[rng.usize_in(0, keys.len() - 1)];
        let outcome = match rng.u64_below(12) {
            0 | 1 => format!("{:?}", store.put(ns, key, value(rng))),
            2 => format!("{:?}", store.get_versioned(ns, key)),
            3 => format!("{:?}", store.delete(ns, key)),
            4 => {
                let expected = rng.u64_below(4);
                format!("{:?}", store.cas(ns, key, expected, value(rng)))
            }
            5 => format!("{:?}", store.delete_namespace(ns)),
            6 => format!("{:?}", store.read_namespace(ns)),
            7 => {
                let batch: Vec<(String, Value)> = (0..rng.usize_in(1, 6))
                    .map(|_| (keys[rng.usize_in(0, keys.len() - 1)].to_owned(), value(rng)))
                    .collect();
                format!("{:?}", store.put_many(ns, &batch))
            }
            8 => {
                let (io, torn) = (rng.u64_below(500), rng.u64_below(700));
                let plan = FaultPlan::flaky(io as f64 / 1000.0, rng.next_u64());
                store.set_fault_plan(plan.with_torn_writes(torn as f64 / 1000.0));
                "flaky".to_owned()
            }
            9 => {
                store.set_now(SimTime::from_millis(rng.u64_below(100)));
                "set_now".to_owned()
            }
            10 => {
                store.clear_faults();
                "clear_faults".to_owned()
            }
            _ => {
                store.reset_stats();
                "reset_stats".to_owned()
            }
        };
        seen.extend(store.list_namespaces());
        check_byte_totals(store, seen).map_err(|e| format!("after {outcome}: {e}"))?;
        out.push_str(&outcome);
        out.push('\n');
    }
    out.push_str(&format!("{:?}\n{:?}", store.dump(), store.stats()));
    Ok(out)
}

/// 200 seeded walks, each on a fresh store, hold their byte totals to a
/// recount after every op and render deterministically: two runs of one
/// seed give the same outcomes, store and stats.
#[test]
fn prop_random_scripts_hold_their_byte_totals_and_render_deterministically() {
    prop::check_with(
        &PropConfig::with_cases(200),
        "prop_random_scripts_hold_their_byte_totals_and_render_deterministically",
        &prop::u64s(0, u64::MAX),
        |&seed| {
            let run = || {
                walk(
                    &SharedStore::new(),
                    &mut TestRng::new(seed),
                    &mut BTreeSet::new(),
                )
            };
            let first = run()?;
            if first != run()? {
                return Err("two runs of one seed differ".to_owned());
            }
            Ok(())
        },
    );
}

/// One seed drives one walk: two fresh stores fed the same seed give the
/// same outcomes, store and stats.
#[test]
fn random_walk_is_seed_deterministic() {
    let run = || {
        walk(
            &SharedStore::new(),
            &mut TestRng::new(9),
            &mut BTreeSet::new(),
        )
    };
    let first = run().unwrap_or_else(|e| panic!("seed 9: {e}"));
    assert!(first.lines().count() > 10, "seed 9: the walk ran no ops");
    assert_eq!(first, run().unwrap_or_else(|e| panic!("seed 9: {e}")));
}

/// The running totals hold over a long history too: twelve walks back to
/// back on one store.
#[test]
fn byte_totals_equal_a_recount_through_a_seeded_walk() {
    for seed in 0..8 {
        let store = SharedStore::new();
        let mut rng = TestRng::new(seed);
        let mut seen = BTreeSet::new();
        for _ in 0..12 {
            if let Err(e) = walk(&store, &mut rng, &mut seen) {
                panic!("seed {seed}, {e}");
            }
        }
        assert!(!seen.is_empty(), "seed {seed}: the walk wrote nothing");
    }
}
