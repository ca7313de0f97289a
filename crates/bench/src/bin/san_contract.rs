//! The SAN store contract: five fixed op scripts, each run on a fresh
//! [`SharedStore`], with every observable effect printed — each op's result,
//! the final store with its versions, and the I/O counters.
//!
//! `scripts/check.sh` captures stdout as `results/san_contract.txt` and
//! holds it byte for byte like every other capture, so a change to the
//! store's semantics (results, versions, stats, where a fault roll falls)
//! shows as a reviewed diff there. The store's running byte totals are held
//! to a recount by `crates/san/tests/conformance.rs`.
//!
//! Run: `cargo run --release -p dosgi-bench --bin san_contract`.

use dosgi_net::SimTime;
use dosgi_san::{FaultPlan, SharedStore, StoreError, Value};
use dosgi_testkit::TestRng;
use std::fmt::Write as _;

/// One script's store and the rendered line of each op applied to it.
#[derive(Default)]
struct Script {
    store: SharedStore,
    lines: Vec<String>,
}

impl Script {
    fn outcome<T>(
        &mut self,
        desc: String,
        result: Result<T, StoreError>,
        ok: impl FnOnce(T) -> String,
    ) {
        let rendered = match result {
            Ok(v) => ok(v),
            Err(e) => format!("err[{}: {e}]", e.kind()),
        };
        self.lines.push(format!("{desc} -> {rendered}"));
    }

    fn put(&mut self, ns: &str, key: &str, value: Value) {
        let desc = format!("put {ns}/{key} {}", render(&value));
        let r = self.store.put(ns, key, value);
        self.outcome(desc, r, |v| format!("v{v}"));
    }

    fn put_many(&mut self, ns: &str, entries: &[(String, Value)]) {
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        let desc = format!("put_many {ns} [{}]", keys.join(","));
        let r = self.store.put_many(ns, entries);
        self.outcome(desc, r, |n| format!("ok({n})"));
    }

    fn get(&mut self, ns: &str, key: &str) {
        let r = self.store.get_versioned(ns, key);
        self.outcome(format!("get {ns}/{key}"), r, |v| match v {
            Some(v) => format!("{} @v{}", render(&v.value), v.version),
            None => "none".to_owned(),
        });
    }

    fn cas(&mut self, ns: &str, key: &str, expected: u64, value: Value) {
        let desc = format!("cas {ns}/{key} expect=v{expected} {}", render(&value));
        let r = self.store.cas(ns, key, expected, value);
        self.outcome(desc, r, |v| format!("v{v}"));
    }

    fn delete(&mut self, ns: &str, key: &str) {
        let r = self.store.delete(ns, key);
        self.outcome(format!("delete {ns}/{key}"), r, |()| "ok".to_owned());
    }

    fn delete_namespace(&mut self, ns: &str) {
        let r = self.store.delete_namespace(ns);
        self.outcome(format!("delete_namespace {ns}"), r, |n| {
            format!("removed({n})")
        });
    }

    fn read_namespace(&mut self, ns: &str) {
        let r = self.store.read_namespace(ns);
        self.outcome(format!("read_namespace {ns}"), r, |pairs| {
            let rows: Vec<String> = pairs
                .iter()
                .map(|(k, v)| format!("{k}={}", render(v)))
                .collect();
            format!("[{}]", rows.join(", "))
        });
    }

    /// Flaky I/O and torn batches, in permille, from a seeded injector.
    fn flaky(&mut self, io: u32, torn: u32, seed: u64) {
        let plan = FaultPlan::flaky(f64::from(io) / 1000.0, seed)
            .with_torn_writes(f64::from(torn) / 1000.0);
        self.store.set_fault_plan(plan);
        self.lines.push(format!(
            "flaky io={io}o/oo torn={torn}o/oo seed={seed} -> ok"
        ));
    }

    fn brownout(&mut self, from_ms: u64, until_ms: u64) {
        let (from, until) = (
            SimTime::from_millis(from_ms),
            SimTime::from_millis(until_ms),
        );
        self.store
            .set_fault_plan(FaultPlan::none().with_brownout(from, until));
        self.lines
            .push(format!("brownout [{from_ms}ms, {until_ms}ms) -> ok"));
    }

    fn set_now(&mut self, ms: u64) {
        self.store.set_now(SimTime::from_millis(ms));
        self.lines.push(format!("set_now {ms}ms -> ok"));
    }

    fn clear_faults(&mut self) {
        self.store.clear_faults();
        self.lines.push("clear_faults -> ok".to_owned());
    }

    /// Scopes the stats section to the phase after it.
    fn reset_stats(&mut self) {
        self.store.reset_stats();
        self.lines.push("reset_stats -> ok".to_owned());
    }

    fn render_into(&self, name: &str, out: &mut String) {
        let _ = writeln!(out, "# san conformance fixture: {name}");
        let _ = writeln!(out, "# ops: {}", self.lines.len());
        for (i, line) in self.lines.iter().enumerate() {
            let _ = writeln!(out, "op {i:03} {line}");
        }
        let _ = writeln!(out, "-- store --");
        for (ns, rows) in self.store.dump() {
            for (key, v) in rows {
                let _ = writeln!(out, "{ns}/{key} v={} {}", v.version, render(&v.value));
            }
        }
        let st = self.store.stats();
        let _ = writeln!(out, "-- stats --");
        for (name, n) in [
            ("reads", st.reads),
            ("writes", st.writes),
            ("bytes_written", st.bytes_written),
            ("bytes_read", st.bytes_read),
            ("faults", st.faults),
            ("writes_skipped", st.writes_skipped),
            ("bytes_skipped", st.bytes_skipped),
        ] {
            let _ = writeln!(out, "{name}={n}");
        }
    }
}

/// A value, compactly and exactly: floats by bit pattern, bytes as hex.
fn render(v: &Value) -> String {
    let join = |items: Vec<String>| items.join(", ");
    match v {
        Value::Null => "null".to_owned(),
        Value::Bool(b) => format!("bool({b})"),
        Value::Int(i) => format!("int({i})"),
        Value::Float(f) => format!("float(0x{:016x})", f.to_bits()),
        Value::Str(s) => format!("str({s:?})"),
        Value::Bytes(b) => format!(
            "bytes({})",
            b.iter().map(|x| format!("{x:02x}")).collect::<String>()
        ),
        Value::List(l) => format!("list[{}]", join(l.iter().map(render).collect())),
        Value::Map(m) => format!(
            "map{{{}}}",
            join(
                m.iter()
                    .map(|(k, v)| format!("{k}={}", render(v)))
                    .collect()
            )
        ),
    }
}

/// Create/read/update/delete, namespace listing and the not-found surface.
fn basic_crud(s: &mut Script) {
    s.get("fw/n0", "missing");
    s.put("fw/n0", "bundle:log", Value::from("ACTIVE"));
    s.put("fw/n0", "bundle:http", Value::from("RESOLVED"));
    s.put("fw/n1", "bundle:log", Value::from("INSTALLED"));
    s.get("fw/n0", "bundle:log");
    s.put("fw/n0", "bundle:log", Value::from("STOPPED"));
    s.get("fw/n0", "bundle:log");
    s.read_namespace("fw/n0");
    s.delete("fw/n0", "bundle:http");
    s.get("fw/n0", "bundle:http");
    s.delete("fw/n0", "bundle:http"); // not found
    s.delete_namespace("fw/n1");
    s.delete_namespace("fw/n1"); // already empty
    s.read_namespace("fw/n1");
    let rows = Value::List(vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
    s.put("inst/7/data", "rows", rows);
    s.get("inst/7/data", "rows");
}

/// The version counter: monotonic per key, survives deletion (tombstones),
/// continues across namespace drops, and gates `cas`.
fn versioning_tombstones(s: &mut Script) {
    s.put("ns", "k", Value::Int(1));
    s.put("ns", "k", Value::Int(2));
    s.delete("ns", "k");
    s.get("ns", "k");
    // An identical re-put after a delete bumps the version: a stale reader
    // cannot take the recreated key for the one it cached.
    s.put("ns", "k", Value::Int(2));
    s.get("ns", "k");
    // `cas` sees a tombstoned key as absent but grants a version that
    // continues the counter.
    s.delete("ns", "k");
    s.cas("ns", "k", 3, Value::Int(9)); // conflict: found=0
    s.cas("ns", "k", 0, Value::Int(9)); // create-if-absent -> v4
    s.cas("ns", "k", 4, Value::Int(10));
    s.cas("ns", "k", 4, Value::Int(11)); // stale expect -> conflict
                                         // A namespace-wide delete tombstones every key.
    s.put("area", "a", Value::Int(1));
    s.put("area", "b", Value::Int(2));
    s.put("area", "b", Value::Int(3));
    s.delete_namespace("area");
    s.put("area", "a", Value::Int(1)); // was v1 -> now v2
    s.put("area", "b", Value::Int(3)); // was v2 -> now v3
    s.read_namespace("area");
}

/// Byte-identity change detection: skipped writes, float bit-pattern
/// equality, and batch-local comparison for duplicate keys.
fn change_detection(s: &mut Script) {
    s.put("cfg", "k", Value::from("same"));
    s.put("cfg", "k", Value::from("same")); // identical: skip
    s.put("cfg", "k", Value::from("new")); // bump
    s.put("cfg", "f", Value::Float(0.0));
    s.put("cfg", "f", Value::Float(-0.0)); // PartialEq-equal, bytes differ: write
    s.put("cfg", "n", Value::Float(f64::NAN));
    s.put("cfg", "n", Value::Float(f64::NAN)); // bit-identical NaN: skip
    s.put_many(
        "cfg",
        &[
            ("k".into(), Value::from("new")), // identical: skip
            ("p".into(), Value::Int(1)),
            ("p".into(), Value::Int(1)), // duplicate, identical within the batch: skip
            ("q".into(), Value::Int(1)),
            ("q".into(), Value::Int(2)), // duplicate, changed within the batch: bump twice
        ],
    );
    s.get("cfg", "p");
    s.get("cfg", "q");
}

/// The injected faults: deterministic flaky I/O, a torn batch with its
/// prefix kept and an idempotent rewrite, a brown-out healing on the clock.
fn faults(s: &mut Script) {
    let batch: Vec<(String, Value)> = (0..6)
        .map(|i| (format!("b{i}"), Value::Int(100 + i)))
        .collect();
    // Which puts fail is pinned: both the injector's stream and where its
    // roll falls (before change detection) are part of the contract.
    s.flaky(350, 0, 1101);
    for i in 0..12 {
        s.put("flaky", &format!("k{i}"), Value::Int(i));
    }
    s.clear_faults();
    s.read_namespace("flaky");
    // Torn at rate 1: a strict prefix lands, and the rewrite recovers.
    s.flaky(0, 1000, 7);
    s.put_many("torn", &batch);
    s.read_namespace("torn");
    s.clear_faults();
    s.put_many("torn", &batch);
    s.read_namespace("torn");
    // Everything fails inside the window, and it heals at its end.
    s.brownout(0, 50);
    s.put("torn", "b0", Value::Int(999));
    s.get("torn", "b0");
    s.set_now(50);
    s.get("torn", "b0");
    s.clear_faults();
}

/// The persist shape: a 24-row batch of a few hundred bytes a row,
/// rewritten with 3 rows changed (a batch under change detection).
fn batch_rows(s: &mut Script) {
    let mut rng = TestRng::new(0x0B07_4005);
    let mut row = |rev: i64| {
        let blob: Vec<u8> = (0..360).map(|_| rng.next_u64() as u8).collect();
        Value::map()
            .with("rev", rev)
            .with("blob", Value::Bytes(blob))
    };
    let rows: Vec<(String, Value)> = (0..24).map(|i| (format!("bundle{i:02}"), row(1))).collect();
    let mut rows2 = rows.clone();
    for i in [3, 11, 20] {
        rows2[i].1 = row(2);
    }
    let ns = "inst/3/rows";
    s.put_many(ns, &rows);
    s.reset_stats();
    s.put_many(ns, &rows2);
    s.get(ns, "bundle03");
    s.get(ns, "bundle04");
    s.delete_namespace(ns);
    s.put_many(ns, &rows);
    s.get(ns, "bundle00");
}

/// Every script's rendering, in order: the capture.
fn contract() -> String {
    let scripts = [
        ("basic_crud", basic_crud as fn(&mut Script)),
        ("versioning_tombstones", versioning_tombstones),
        ("change_detection", change_detection),
        ("faults", faults),
        ("batch_rows", batch_rows),
    ];
    let mut out = String::new();
    for (name, script) in scripts {
        let mut s = Script::default();
        script(&mut s);
        s.render_into(name, &mut out);
    }
    out
}

fn main() {
    print!("{}", contract());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A capture is only a contract if a second run prints it again.
    #[test]
    fn the_contract_renders_identically_twice() {
        assert_eq!(contract(), contract());
    }

    #[test]
    fn render_value_disambiguates_float_bit_patterns() {
        assert_ne!(render(&Value::Float(0.0)), render(&Value::Float(-0.0)));
        assert_eq!(render(&Value::Int(5)), "int(5)");
        assert_eq!(render(&Value::Bytes(vec![0xab, 0x01])), "bytes(ab01)");
    }
}
