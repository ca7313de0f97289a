//! The store's running byte totals, held to a recount over seeded op +
//! fault streams, and the store's determinism under them; its sorted
//! namespace list, held to a tree.
//!
//! The fixed scripts that pin the store contract (results, versions, stats,
//! fault interleaving) are the `san_contract` bin, whose stdout
//! `scripts/check.sh` holds byte for byte as `results/san_contract.txt`.

use dosgi_net::SimTime;
use dosgi_san::{FaultPlan, SharedStore, Value, Versioned};
use dosgi_testkit::{prop, PropConfig, TestRng};
use std::collections::{BTreeMap, BTreeSet};

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

/// Namespaces that sort around one another: `a-b` and `a0` fall between
/// `a` and `a/b` or after it without being under `a`.
const NEIGHBOURS: [&str; 8] = ["a0", "a/b", "b", "a-b", "a", "a/b/c", "ab", "a/c"];

/// The sorted namespace list against a tree of what each namespace holds:
/// streams of puts, deletes and namespace wipes over [`NEIGHBOURS`], in
/// random order (so namespaces are created out of name order and
/// tombstoned), after every op. `list_namespaces` and `dump` must name the
/// namespaces with a live key, in name order, and
/// `namespace_bytes_prefixed` of each prefix must be the tree's sum over
/// the namespaces equal to it or under it. Mutation-checked: an insert
/// that appends its name instead of placing it, and a listing that keeps
/// a wiped namespace, each fail.
#[test]
fn prop_the_namespace_list_reads_as_a_tree() {
    let prefixes = ["", "a", "a-", "a/", "a/b", "a/b/c", "a0", "ab", "b", "c"];
    prop::check_with(
        &PropConfig::with_cases(300),
        "prop_the_namespace_list_reads_as_a_tree",
        &prop::u64s(0, u64::MAX),
        |&seed| {
            let store = SharedStore::new();
            let mut rng = TestRng::new(seed);
            // Namespace -> key -> the live value's encoded length.
            let mut tree: BTreeMap<&str, BTreeMap<&str, u64>> = BTreeMap::new();
            for _ in 0..rng.usize_in(1, 40) {
                let ns = NEIGHBOURS[rng.usize_in(0, NEIGHBOURS.len() - 1)];
                let key = ["k0", "k1", "k2"][rng.usize_in(0, 2)];
                let op = match rng.u64_below(5) {
                    0..=2 => {
                        let value = Value::Bytes(vec![7; rng.usize_in(0, 20)]);
                        let len = value.encoded_len() as u64;
                        store.put(ns, key, value).map_err(|e| format!("{e:?}"))?;
                        tree.entry(ns).or_default().insert(key, len);
                        format!("put {ns}/{key}")
                    }
                    3 => {
                        // A key that is not live answers `NotFound`.
                        let _ = store.delete(ns, key);
                        tree.get_mut(ns).map(|keys| keys.remove(key));
                        format!("delete {ns}/{key}")
                    }
                    _ => {
                        store.delete_namespace(ns).map_err(|e| format!("{e:?}"))?;
                        tree.remove(ns);
                        format!("delete_namespace {ns}")
                    }
                };
                let live: Vec<&str> = tree
                    .iter()
                    .filter(|(_, keys)| !keys.is_empty())
                    .map(|(ns, _)| *ns)
                    .collect();
                if store.list_namespaces() != live {
                    return Err(format!("after {op}: list_namespaces is not {live:?}"));
                }
                if !store.dump().iter().map(|(ns, _)| ns).eq(&live) {
                    return Err(format!("after {op}: dump does not walk {live:?}"));
                }
                for prefix in prefixes {
                    let under = |ns: &&str| {
                        let rest = ns.strip_prefix(prefix);
                        rest.is_some_and(|rest| rest.is_empty() || rest.starts_with('/'))
                    };
                    let sums = tree.iter().filter(|(ns, _)| under(ns));
                    let want: u64 = sums.flat_map(|(_, keys)| keys.values()).sum();
                    let got = store.namespace_bytes_prefixed(prefix);
                    if got != want {
                        return Err(format!(
                            "after {op}: namespace_bytes_prefixed({prefix:?}) is {got}, not {want}"
                        ));
                    }
                }
            }
            Ok(())
        },
    );
}
