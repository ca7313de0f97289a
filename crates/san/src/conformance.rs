//! Store conformance suite: deterministic op scripts → textual dumps.
//!
//! A [`Script`] is a pure-data sequence of store operations (including
//! fault-plan changes and clock advances). [`run_script`] executes it on a
//! fresh [`SharedStore`] and renders every observable effect — per-op
//! results, the final store dump with its version vector, and the final
//! [`StoreStats`](crate::StoreStats) — into one canonical string, holding
//! the store's running byte totals to a recount after every op.
//!
//! That string is the **store contract**:
//!
//! * The [`builtin_scripts`] renderings are committed as golden fixtures
//!   under `results/san_fixtures/` (one file per script) and compared
//!   byte-for-byte by `cargo test -p dosgi-san --test conformance`.
//!   `SAN_FIXTURE_WRITE=1` regenerates them, turning an intentional
//!   semantic change into a reviewed fixture diff.
//! * [`random_script`] generates seeded arbitrary scripts for the property
//!   test: any op+fault stream keeps its byte totals and renders the same
//!   twice.

use crate::fault::FaultPlan;
use crate::{SharedStore, StoreError, Value, Versioned};
use dosgi_net::SimTime;
use dosgi_testkit::TestRng;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Workspace-relative directory holding the committed fixtures.
pub const FIXTURE_DIR: &str = "results/san_fixtures";

/// Environment variable that switches golden comparison to regeneration.
pub const WRITE_ENV: &str = "SAN_FIXTURE_WRITE";

/// One store operation in a conformance script. Pure data: a script fully
/// determines the rendered outcome.
#[derive(Debug, Clone)]
pub enum ScriptOp {
    /// `SharedStore::put`.
    Put {
        /// Target namespace.
        namespace: String,
        /// Target key.
        key: String,
        /// Value to write.
        value: Value,
    },
    /// `SharedStore::put_many` (the batch path).
    PutMany {
        /// Target namespace.
        namespace: String,
        /// Batch entries in order.
        entries: Vec<(String, Value)>,
    },
    /// `SharedStore::get_versioned`.
    Get {
        /// Target namespace.
        namespace: String,
        /// Target key.
        key: String,
    },
    /// `SharedStore::cas`.
    Cas {
        /// Target namespace.
        namespace: String,
        /// Target key.
        key: String,
        /// Version the caller expects (0 = must be absent).
        expected: u64,
        /// Replacement value.
        value: Value,
    },
    /// `SharedStore::delete`.
    Delete {
        /// Target namespace.
        namespace: String,
        /// Target key.
        key: String,
    },
    /// `SharedStore::delete_namespace`.
    DeleteNamespace {
        /// Namespace to drop.
        namespace: String,
    },
    /// `SharedStore::read_namespace`, rendering every pair read.
    ReadNamespace {
        /// Namespace to read.
        namespace: String,
    },
    /// Installs a flaky/torn fault plan (seeded, deterministic).
    Flaky {
        /// Transient I/O error probability, in permille (0–1000).
        io_permille: u32,
        /// Torn-batch probability, in permille (0–1000).
        torn_permille: u32,
        /// Fault RNG seed.
        seed: u64,
    },
    /// Installs a single brown-out window `[from_ms, until_ms)`.
    Brownout {
        /// Window start, milliseconds of sim time.
        from_ms: u64,
        /// Window end (healed at this instant), milliseconds.
        until_ms: u64,
    },
    /// Advances the store's fault clock.
    SetNow {
        /// New clock reading, milliseconds of sim time.
        ms: u64,
    },
    /// Removes any fault plan.
    ClearFaults,
    /// Zeroes the I/O counters (scripts use it to scope the stats section
    /// to the phase under test).
    ResetStats,
}

/// A named, deterministic op sequence whose rendering is the conformance
/// contract.
#[derive(Debug, Clone)]
pub struct Script {
    /// Fixture base name (`results/san_fixtures/<name>.txt`).
    pub name: String,
    /// The operations, applied in order.
    pub ops: Vec<ScriptOp>,
}

impl Script {
    /// Workspace-relative path of this script's committed fixture.
    pub fn fixture_rel_path(&self) -> String {
        format!("{FIXTURE_DIR}/{}.txt", self.name)
    }
}

/// Renders a value compactly and deterministically (floats by bit pattern,
/// bytes as hex) for fixture output.
pub fn render_value(v: &Value) -> String {
    match v {
        Value::Null => "null".to_owned(),
        Value::Bool(b) => format!("bool({b})"),
        Value::Int(i) => format!("int({i})"),
        Value::Float(f) => format!("float(0x{:016x})", f.to_bits()),
        Value::Str(s) => format!("str({s:?})"),
        Value::Bytes(b) => {
            let hex: String = b.iter().map(|x| format!("{x:02x}")).collect();
            format!("bytes({hex})")
        }
        Value::List(l) => {
            let items: Vec<String> = l.iter().map(render_value).collect();
            format!("list[{}]", items.join(", "))
        }
        Value::Map(m) => {
            let items: Vec<String> = m
                .iter()
                .map(|(k, v)| format!("{k}={}", render_value(v)))
                .collect();
            format!("map{{{}}}", items.join(", "))
        }
    }
}

fn render_err(e: &StoreError) -> String {
    format!("err[{}: {e}]", e.kind())
}

/// Executes `script` on a fresh store and renders the full observable
/// surface.
pub fn run_script(script: &Script) -> String {
    let store = SharedStore::new();
    let mut out = String::new();
    let _ = writeln!(out, "# san conformance fixture: {}", script.name);
    let _ = writeln!(out, "# ops: {}", script.ops.len());
    let mut seen = BTreeSet::new();
    for (i, op) in script.ops.iter().enumerate() {
        let line = apply_op(&store, op);
        let _ = writeln!(out, "op {i:03} {line}");
        seen.extend(store.list_namespaces());
        if let Err(e) = check_byte_totals(&store, &seen) {
            panic!("after op {i:03} {line}: {e}");
        }
    }
    let _ = writeln!(out, "-- store --");
    for (ns, rows) in store.dump() {
        for (key, v) in rows {
            let _ = writeln!(out, "{ns}/{key} v={} {}", v.version, render_value(&v.value));
        }
    }
    let _ = writeln!(out, "-- stats --");
    let st = store.stats();
    let _ = writeln!(out, "reads={}", st.reads);
    let _ = writeln!(out, "writes={}", st.writes);
    let _ = writeln!(out, "bytes_written={}", st.bytes_written);
    let _ = writeln!(out, "bytes_read={}", st.bytes_read);
    let _ = writeln!(out, "faults={}", st.faults);
    let _ = writeln!(out, "writes_skipped={}", st.writes_skipped);
    let _ = writeln!(out, "bytes_skipped={}", st.bytes_skipped);
    out
}

/// Applies one op to `store` and renders its outcome as a fixture line.
pub fn apply_op(store: &SharedStore, op: &ScriptOp) -> String {
    match op {
        ScriptOp::Put {
            namespace,
            key,
            value,
        } => {
            let desc = format!("put {namespace}/{key} {}", render_value(value));
            match store.put(namespace, key, value.clone()) {
                Ok(v) => format!("{desc} -> v{v}"),
                Err(e) => format!("{desc} -> {}", render_err(&e)),
            }
        }
        ScriptOp::PutMany { namespace, entries } => {
            let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
            let desc = format!("put_many {namespace} [{}]", keys.join(","));
            match store.put_many(namespace, entries) {
                Ok(n) => format!("{desc} -> ok({n})"),
                Err(e) => format!("{desc} -> {}", render_err(&e)),
            }
        }
        ScriptOp::Get { namespace, key } => {
            let desc = format!("get {namespace}/{key}");
            match store.get_versioned(namespace, key) {
                Ok(Some(v)) => format!("{desc} -> {} @v{}", render_value(&v.value), v.version),
                Ok(None) => format!("{desc} -> none"),
                Err(e) => format!("{desc} -> {}", render_err(&e)),
            }
        }
        ScriptOp::Cas {
            namespace,
            key,
            expected,
            value,
        } => {
            let desc = format!(
                "cas {namespace}/{key} expect=v{expected} {}",
                render_value(value)
            );
            match store.cas(namespace, key, *expected, value.clone()) {
                Ok(v) => format!("{desc} -> v{v}"),
                Err(e) => format!("{desc} -> {}", render_err(&e)),
            }
        }
        ScriptOp::Delete { namespace, key } => {
            let desc = format!("delete {namespace}/{key}");
            match store.delete(namespace, key) {
                Ok(()) => format!("{desc} -> ok"),
                Err(e) => format!("{desc} -> {}", render_err(&e)),
            }
        }
        ScriptOp::DeleteNamespace { namespace } => {
            let desc = format!("delete_namespace {namespace}");
            match store.delete_namespace(namespace) {
                Ok(n) => format!("{desc} -> removed({n})"),
                Err(e) => format!("{desc} -> {}", render_err(&e)),
            }
        }
        ScriptOp::ReadNamespace { namespace } => {
            let desc = format!("read_namespace {namespace}");
            match store.read_namespace(namespace) {
                Ok(pairs) => {
                    let rendered: Vec<String> = pairs
                        .iter()
                        .map(|(k, v)| format!("{k}={}", render_value(v)))
                        .collect();
                    format!("{desc} -> [{}]", rendered.join(", "))
                }
                Err(e) => format!("{desc} -> {}", render_err(&e)),
            }
        }
        ScriptOp::Flaky {
            io_permille,
            torn_permille,
            seed,
        } => {
            store.set_fault_plan(
                FaultPlan::flaky(f64::from(*io_permille) / 1000.0, *seed)
                    .with_torn_writes(f64::from(*torn_permille) / 1000.0),
            );
            format!("flaky io={io_permille}o/oo torn={torn_permille}o/oo seed={seed} -> ok")
        }
        ScriptOp::Brownout { from_ms, until_ms } => {
            store.set_fault_plan(FaultPlan::none().with_brownout(
                SimTime::from_millis(*from_ms),
                SimTime::from_millis(*until_ms),
            ));
            format!("brownout [{from_ms}ms, {until_ms}ms) -> ok")
        }
        ScriptOp::SetNow { ms } => {
            store.set_now(SimTime::from_millis(*ms));
            format!("set_now {ms}ms -> ok")
        }
        ScriptOp::ClearFaults => {
            store.clear_faults();
            "clear_faults -> ok".to_owned()
        }
        ScriptOp::ResetStats => {
            store.reset_stats();
            "reset_stats -> ok".to_owned()
        }
    }
}

/// Holds the store's running byte totals to a recount: `namespace_bytes`
/// of every live namespace and of each of `names` (a wiped namespace must
/// read 0), and `namespace_bytes_prefixed` of every `/`-prefix of those,
/// against sums over [`SharedStore::dump`]. [`run_script`] holds the store
/// to it after every op.
///
/// # Errors
///
/// The first total that disagrees with the recount.
pub fn check_byte_totals(store: &SharedStore, names: &BTreeSet<String>) -> Result<(), String> {
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

fn put(ns: &str, key: &str, value: Value) -> ScriptOp {
    ScriptOp::Put {
        namespace: ns.into(),
        key: key.into(),
        value,
    }
}

fn get(ns: &str, key: &str) -> ScriptOp {
    ScriptOp::Get {
        namespace: ns.into(),
        key: key.into(),
    }
}

fn delete(ns: &str, key: &str) -> ScriptOp {
    ScriptOp::Delete {
        namespace: ns.into(),
        key: key.into(),
    }
}

fn cas(ns: &str, key: &str, expected: u64, value: Value) -> ScriptOp {
    ScriptOp::Cas {
        namespace: ns.into(),
        key: key.into(),
        expected,
        value,
    }
}

/// The committed fixture set. Each script pins one semantic family; the
/// union is the executable specification of the store contract.
pub fn builtin_scripts() -> Vec<Script> {
    vec![
        basic_crud(),
        versioning_tombstones(),
        change_detection(),
        faults(),
        batch_rows(),
    ]
}

/// Create/read/update/delete, namespace listing and the not-found surface.
fn basic_crud() -> Script {
    Script {
        name: "basic_crud".into(),
        ops: vec![
            get("fw/n0", "missing"),
            put("fw/n0", "bundle:log", Value::Str("ACTIVE".into())),
            put("fw/n0", "bundle:http", Value::Str("RESOLVED".into())),
            put("fw/n1", "bundle:log", Value::Str("INSTALLED".into())),
            get("fw/n0", "bundle:log"),
            put("fw/n0", "bundle:log", Value::Str("STOPPED".into())),
            get("fw/n0", "bundle:log"),
            ScriptOp::ReadNamespace {
                namespace: "fw/n0".into(),
            },
            delete("fw/n0", "bundle:http"),
            get("fw/n0", "bundle:http"),
            delete("fw/n0", "bundle:http"), // not found
            ScriptOp::DeleteNamespace {
                namespace: "fw/n1".into(),
            },
            ScriptOp::DeleteNamespace {
                namespace: "fw/n1".into(), // already empty
            },
            ScriptOp::ReadNamespace {
                namespace: "fw/n1".into(),
            },
            put(
                "inst/7/data",
                "rows",
                Value::List(vec![Value::Int(1), Value::Int(2), Value::Int(3)]),
            ),
            get("inst/7/data", "rows"),
        ],
    }
}

/// The version counter contract: monotonic per key, survives deletion
/// (tombstones), continues across namespace drops, and gates `cas`.
fn versioning_tombstones() -> Script {
    Script {
        name: "versioning_tombstones".into(),
        ops: vec![
            put("ns", "k", Value::Int(1)),
            put("ns", "k", Value::Int(2)),
            delete("ns", "k"),
            get("ns", "k"),
            // Identical re-put after delete MUST bump the version (the
            // stale-reader regression this suite pins).
            put("ns", "k", Value::Int(2)),
            get("ns", "k"),
            // cas sees a tombstoned key as absent but grants a version that
            // continues the counter.
            delete("ns", "k"),
            cas("ns", "k", 3, Value::Int(9)), // conflict: found=0
            cas("ns", "k", 0, Value::Int(9)), // create-if-absent -> v4
            cas("ns", "k", 4, Value::Int(10)),
            cas("ns", "k", 4, Value::Int(11)), // stale expect -> conflict
            // Namespace-wide deletes tombstone every key.
            put("area", "a", Value::Int(1)),
            put("area", "b", Value::Int(2)),
            put("area", "b", Value::Int(3)),
            ScriptOp::DeleteNamespace {
                namespace: "area".into(),
            },
            put("area", "a", Value::Int(1)), // was v1 -> now v2
            put("area", "b", Value::Int(3)), // was v2 -> now v3
            ScriptOp::ReadNamespace {
                namespace: "area".into(),
            },
        ],
    }
}

/// Byte-identity change detection: skipped writes, float bit-pattern
/// equality, and batch-local comparison for duplicate keys.
fn change_detection() -> Script {
    Script {
        name: "change_detection".into(),
        ops: vec![
            put("cfg", "k", Value::Str("same".into())),
            put("cfg", "k", Value::Str("same".into())), // identical: skip
            put("cfg", "k", Value::Str("new".into())),  // bump
            put("cfg", "f", Value::Float(0.0)),
            put("cfg", "f", Value::Float(-0.0)), // PartialEq-equal, bytes differ: write
            put("cfg", "n", Value::Float(f64::NAN)),
            put("cfg", "n", Value::Float(f64::NAN)), // bit-identical NaN: skip
            ScriptOp::PutMany {
                namespace: "cfg".into(),
                entries: vec![
                    ("k".into(), Value::Str("new".into())), // identical: skip
                    ("p".into(), Value::Int(1)),
                    ("p".into(), Value::Int(1)), // dup identical within batch: skip
                    ("q".into(), Value::Int(1)),
                    ("q".into(), Value::Int(2)), // dup changed within batch: bump twice
                ],
            },
            get("cfg", "p"),
            get("cfg", "q"),
        ],
    }
}

/// The injected-fault surface: deterministic flaky I/O, torn batches with
/// prefix persistence and idempotent rewrite, brown-out windows healing on
/// the clock.
fn faults() -> Script {
    let batch: Vec<(String, Value)> = (0..6)
        .map(|i| (format!("b{i}"), Value::Int(100 + i)))
        .collect();
    let mut ops = vec![ScriptOp::Flaky {
        io_permille: 350,
        torn_permille: 0,
        seed: 1101,
    }];
    // A run of puts under flaky I/O: the pass/fail pattern is pinned by the
    // fixture, so both the injector stream and its position in the store
    // (fault roll before change detection) are part of the contract.
    for i in 0..12 {
        ops.push(put("flaky", &format!("k{i}"), Value::Int(i)));
    }
    ops.extend([
        ScriptOp::ClearFaults,
        ScriptOp::ReadNamespace {
            namespace: "flaky".into(),
        },
        // Torn batch at rate 1.0: a strict prefix lands, rewrite recovers.
        ScriptOp::Flaky {
            io_permille: 0,
            torn_permille: 1000,
            seed: 7,
        },
        ScriptOp::PutMany {
            namespace: "torn".into(),
            entries: batch.clone(),
        },
        ScriptOp::ReadNamespace {
            namespace: "torn".into(),
        },
        ScriptOp::ClearFaults,
        ScriptOp::PutMany {
            namespace: "torn".into(),
            entries: batch,
        },
        ScriptOp::ReadNamespace {
            namespace: "torn".into(),
        },
        // Brown-out: everything fails inside the window, heals at its end.
        ScriptOp::Brownout {
            from_ms: 0,
            until_ms: 50,
        },
        put("torn", "b0", Value::Int(999)),
        get("torn", "b0"),
        ScriptOp::SetNow { ms: 50 },
        get("torn", "b0"),
        ScriptOp::ClearFaults,
    ]);
    Script {
        name: "faults".into(),
        ops,
    }
}

/// The PR 4 per-bundle row workload shape: ~24-row batches of a few hundred
/// bytes each, rewritten with mostly-identical content (a batch under
/// change detection is the persist hot path).
fn batch_rows() -> Script {
    let mut rng = TestRng::new(0x0B07_4005);
    let row = |rng: &mut TestRng, rev: i64| {
        let blob: Vec<u8> = (0..360).map(|_| rng.next_u64() as u8).collect();
        Value::map()
            .with("rev", rev)
            .with("blob", Value::Bytes(blob))
    };
    let rows: Vec<(String, Value)> = (0..24)
        .map(|i| (format!("bundle{i:02}"), row(&mut rng, 1)))
        .collect();
    // Second generation: 3 of 24 rows actually change.
    let mut rows2 = rows.clone();
    for &i in &[3usize, 11, 20] {
        rows2[i].1 = row(&mut rng, 2);
    }
    Script {
        name: "batch_rows".into(),
        ops: vec![
            ScriptOp::PutMany {
                namespace: "inst/3/rows".into(),
                entries: rows.clone(),
            },
            ScriptOp::ResetStats,
            ScriptOp::PutMany {
                namespace: "inst/3/rows".into(),
                entries: rows2,
            },
            get("inst/3/rows", "bundle03"),
            get("inst/3/rows", "bundle04"),
            ScriptOp::DeleteNamespace {
                namespace: "inst/3/rows".into(),
            },
            ScriptOp::PutMany {
                namespace: "inst/3/rows".into(),
                entries: rows,
            },
            get("inst/3/rows", "bundle00"),
        ],
    }
}

/// A seeded arbitrary script for the property test: random ops over a small
/// key space, interleaved with fault-plan swaps, clock advances and stat
/// resets. Same seed → same script.
pub fn random_script(rng: &mut TestRng) -> Script {
    let namespaces = ["a", "b", "a/sub"];
    let keys = ["k0", "k1", "k2", "k3", "k4"];
    let pick_value = |rng: &mut TestRng| -> Value {
        match rng.u64_below(5) {
            0 => Value::Int(rng.u64_below(4) as i64),
            1 => Value::Str(format!("s{}", rng.u64_below(3))),
            2 => Value::Bytes(vec![rng.next_u64() as u8; rng.usize_in(0, 12)]),
            3 => Value::Float(f64::from_bits(0x3ff0_0000_0000_0000 + rng.u64_below(2))),
            _ => Value::List(vec![Value::Int(rng.u64_below(3) as i64)]),
        }
    };
    let n_ops = rng.usize_in(10, 60);
    let mut ops = Vec::with_capacity(n_ops);
    for _ in 0..n_ops {
        let ns = namespaces[rng.usize_in(0, namespaces.len() - 1)];
        let key = keys[rng.usize_in(0, keys.len() - 1)];
        ops.push(match rng.u64_below(12) {
            0 | 1 => put(ns, key, pick_value(rng)),
            2 => get(ns, key),
            3 => delete(ns, key),
            4 => cas(ns, key, rng.u64_below(4), pick_value(rng)),
            5 => ScriptOp::DeleteNamespace {
                namespace: ns.into(),
            },
            6 => ScriptOp::ReadNamespace {
                namespace: ns.into(),
            },
            7 => {
                let n = rng.usize_in(1, 6);
                ScriptOp::PutMany {
                    namespace: ns.into(),
                    entries: (0..n)
                        .map(|_| {
                            (
                                keys[rng.usize_in(0, keys.len() - 1)].to_owned(),
                                pick_value(rng),
                            )
                        })
                        .collect(),
                }
            }
            8 => ScriptOp::Flaky {
                io_permille: rng.u64_below(500) as u32,
                torn_permille: rng.u64_below(700) as u32,
                seed: rng.next_u64(),
            },
            9 => ScriptOp::SetNow {
                ms: rng.u64_below(100),
            },
            10 => ScriptOp::ClearFaults,
            _ => ScriptOp::ResetStats,
        });
    }
    Script {
        name: "random".into(),
        ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_scripts_have_unique_names_and_fixture_paths() {
        let scripts = builtin_scripts();
        assert!(scripts.len() >= 5);
        let mut names: Vec<String> = scripts.iter().map(|s| s.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), scripts.len(), "duplicate fixture names");
        assert_eq!(
            scripts[0].fixture_rel_path(),
            "results/san_fixtures/basic_crud.txt"
        );
    }

    #[test]
    fn run_script_is_deterministic_per_backend() {
        for script in builtin_scripts() {
            assert_eq!(
                run_script(&script),
                run_script(&script),
                "script {} not deterministic",
                script.name
            );
        }
    }

    #[test]
    fn random_script_is_seed_deterministic() {
        let a = random_script(&mut TestRng::new(9));
        let b = random_script(&mut TestRng::new(9));
        assert_eq!(run_script(&a), run_script(&b));
    }

    #[test]
    fn render_value_disambiguates_float_bit_patterns() {
        assert_ne!(
            render_value(&Value::Float(0.0)),
            render_value(&Value::Float(-0.0))
        );
        assert_eq!(render_value(&Value::Int(5)), "int(5)");
        assert_eq!(render_value(&Value::Bytes(vec![0xab, 0x01])), "bytes(ab01)");
    }
}
