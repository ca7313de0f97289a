//! Schema check for telemetry snapshots: every `results/telemetry_*.json`
//! must parse as strict JSON and carry the current snapshot schema and
//! nothing else (an unknown top-level field is rejected by name) — a
//! `schema_version`, the producing run's `seed`, a non-empty `counters`
//! object (a snapshot with no counters means the instrumentation went
//! dark, which is a wiring bug, not an empty workload), coherent
//! histogram entries (`p50`/`p95`/`p99` are integers when `count > 0`,
//! null otherwise, ordered `p50 <= p95 <= p99`, clamped inside
//! `[min, max]`, and the sparse bucket counts sum exactly to `count`),
//! and a well-formed alert timeline: for each SLO, events in
//! non-decreasing `at_us` order, strictly alternating
//! `firing`/`resolved` starting with `firing` (a trailing still-open
//! `firing` is legal), every `window` either `fast` or `slow`.
//!
//! The E15 overload snapshot (`telemetry_e15.json`) additionally must
//! carry live admission-control counters — `ipvs.queued`, `ipvs.shed` and
//! `ipvs.deadline_missed` all present and non-zero (the overload sweep
//! queues, sheds and busts deadlines by construction; a zero means the
//! admission instrumentation went dark). The chaos snapshot
//! (`telemetry_chaos.json`) must show the ordered stream's bound: the
//! `gcs.antientropy.rebased` counter non-zero (the sweep restarts nodes,
//! and every rejoiner is re-based), the `gcs.order.retained` and
//! `gcs.order.low_water` gauges present, and `gcs.order.resequenced` absent
//! or zero (no ordered message was given a second position). The E16
//! (burn-rate alerting) snapshot must exist at all — that bin emits it by
//! contract.
//!
//! Run after the bins that emit snapshots (the chaos sweep at minimum);
//! `scripts/check.sh` wires it in. Exits non-zero listing every violation.

use dosgi_telemetry::snapshot::SCHEMA_VERSION;
use dosgi_testkit::{workspace_root, Json};

fn check_file(path: &std::path::Path) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("unreadable: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("invalid JSON: {e}"))?;
    let version = json
        .get("schema_version")
        .and_then(Json::as_u64)
        .ok_or("missing integer `schema_version`")?;
    if version != SCHEMA_VERSION {
        return Err(format!(
            "schema_version {version} != supported {SCHEMA_VERSION}"
        ));
    }
    const FIELDS: [&str; 7] = [
        "schema_version",
        "label",
        "seed",
        "counters",
        "gauges",
        "histograms",
        "alerts",
    ];
    let fields = json.as_obj().ok_or("not a JSON object")?;
    if let Some(unknown) = fields.keys().find(|k| !FIELDS.contains(&k.as_str())) {
        return Err(format!("unknown field `{unknown}`"));
    }
    json.get("seed")
        .and_then(Json::as_u64)
        .ok_or("missing integer `seed`")?;
    let counters = json
        .get("counters")
        .and_then(Json::as_obj)
        .ok_or("missing object `counters`")?;
    if counters.is_empty() {
        return Err("`counters` is empty — instrumentation recorded nothing".into());
    }
    let histograms = json
        .get("histograms")
        .and_then(Json::as_obj)
        .ok_or("missing object `histograms`")?;
    for (name, h) in histograms {
        check_histogram(name, h)?;
    }
    let alerts = json
        .get("alerts")
        .and_then(Json::as_arr)
        .ok_or("missing array `alerts`")?;
    check_alert_timeline(alerts)?;
    match path.file_name().and_then(|n| n.to_str()) {
        Some("telemetry_e15.json") => check_admission_counters(&json)?,
        Some("telemetry_chaos.json") => check_stream_bound_metrics(&json)?,
        _ => {}
    }
    Ok(())
}

/// The chaos snapshot must show rejoiners being re-based and the
/// sequencer's retained window being measured.
fn check_stream_bound_metrics(json: &Json) -> Result<(), String> {
    let rebased = json
        .get("counters")
        .and_then(|c| c.get("gcs.antientropy.rebased"))
        .and_then(Json::as_u64)
        .ok_or("chaos snapshot: missing integer counter `gcs.antientropy.rebased`")?;
    if rebased == 0 {
        return Err(
            "chaos snapshot: counter `gcs.antientropy.rebased` is zero — \
                    the sweep restarts nodes, every rejoiner must be re-based"
                .into(),
        );
    }
    let resequenced = json
        .get("counters")
        .and_then(|c| c.get("gcs.order.resequenced"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    if resequenced != 0 {
        return Err(format!(
            "chaos snapshot: `gcs.order.resequenced` is {resequenced} — a sequencer \
             gave an ordered message a second position in its stream"
        ));
    }
    for key in ["gcs.order.retained", "gcs.order.low_water"] {
        json.get("gauges")
            .and_then(|g| g.get(key))
            .and_then(Json::as_i64)
            .ok_or_else(|| format!("chaos snapshot: missing integer gauge `{key}`"))?;
    }
    Ok(())
}

/// The E15 overload snapshot must show the admission layer actually
/// working: queueing, shedding and deadline accounting all live.
fn check_admission_counters(json: &Json) -> Result<(), String> {
    for key in ["ipvs.queued", "ipvs.shed", "ipvs.deadline_missed"] {
        let v = json
            .get("counters")
            .and_then(|c| c.get(key))
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("e15 snapshot: missing integer counter `{key}`"))?;
        if v == 0 {
            return Err(format!(
                "e15 snapshot: counter `{key}` is zero — the overload sweep \
                 must exercise the admission path"
            ));
        }
    }
    Ok(())
}

/// Alert-timeline well-formedness: every event carries a `slo`
/// string, integer `at_us` and `burn_x100`, `state` in
/// {`firing`, `resolved`}, `window` in {`fast`, `slow`}; per SLO, the
/// events are in non-decreasing time order and strictly alternate
/// firing → resolved → firing…, starting with `firing`. A timeline may
/// end on `firing` (the alert was still open when the snapshot was
/// taken), but never on two of the same state in a row.
fn check_alert_timeline(alerts: &[Json]) -> Result<(), String> {
    let mut last: std::collections::BTreeMap<&str, (u64, bool)> = std::collections::BTreeMap::new();
    for (i, a) in alerts.iter().enumerate() {
        let slo = a
            .get("slo")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("alert[{i}]: missing string `slo`"))?;
        let at_us = a
            .get("at_us")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("alert[{i}]: missing integer `at_us`"))?;
        a.get("burn_x100")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("alert[{i}]: missing integer `burn_x100`"))?;
        let state = a
            .get("state")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("alert[{i}]: missing string `state`"))?;
        let firing = match state {
            "firing" => true,
            "resolved" => false,
            other => return Err(format!("alert[{i}]: bad state {other:?}")),
        };
        match a.get("window").and_then(Json::as_str) {
            Some("fast" | "slow") => {}
            other => return Err(format!("alert[{i}]: bad window {other:?}")),
        }
        match last.get(slo) {
            None => {
                if !firing {
                    return Err(format!(
                        "alert[{i}]: slo {slo:?} resolves before ever firing"
                    ));
                }
            }
            Some(&(prev_at, prev_firing)) => {
                if at_us < prev_at {
                    return Err(format!(
                        "alert[{i}]: slo {slo:?} goes back in time ({at_us} < {prev_at})"
                    ));
                }
                if firing == prev_firing {
                    return Err(format!(
                        "alert[{i}]: slo {slo:?} repeats state {state:?} without a transition"
                    ));
                }
            }
        }
        last.insert(slo, (at_us, firing));
    }
    Ok(())
}

/// A percentile field is either a u64 (count > 0) or null (empty).
fn percentile_field(h: &Json, name: &str, key: &str) -> Result<Option<u64>, String> {
    let field = h
        .get(key)
        .ok_or_else(|| format!("histogram {name:?}: missing `{key}`"))?;
    if field.is_null() {
        return Ok(None);
    }
    field
        .as_u64()
        .map(Some)
        .ok_or_else(|| format!("histogram {name:?}: `{key}` is neither integer nor null"))
}

/// Percentile coherence: present iff non-empty, ordered, within range.
fn check_histogram(name: &str, h: &Json) -> Result<(), String> {
    let count = h
        .get("count")
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("histogram {name:?}: missing integer `count`"))?;
    let min = percentile_field(h, name, "min")?;
    let max = percentile_field(h, name, "max")?;
    let p50 = percentile_field(h, name, "p50")?;
    let p95 = percentile_field(h, name, "p95")?;
    let p99 = percentile_field(h, name, "p99")?;
    if count == 0 {
        if p50.is_some() || p95.is_some() || p99.is_some() {
            return Err(format!(
                "histogram {name:?}: empty but carries percentile values"
            ));
        }
        return Ok(());
    }
    let (p50, p95, p99) = match (p50, p95, p99) {
        (Some(a), Some(b), Some(c)) => (a, b, c),
        _ => {
            return Err(format!(
                "histogram {name:?}: count {count} but a percentile is null"
            ))
        }
    };
    if !(p50 <= p95 && p95 <= p99) {
        return Err(format!(
            "histogram {name:?}: percentiles unordered (p50 {p50}, p95 {p95}, p99 {p99})"
        ));
    }
    let (min, max) = match (min, max) {
        (Some(lo), Some(hi)) => (lo, hi),
        _ => {
            return Err(format!(
                "histogram {name:?}: count {count} but min/max null"
            ))
        }
    };
    if p50 < min || p99 > max {
        return Err(format!(
            "histogram {name:?}: percentiles escape [{min}, {max}] (p50 {p50}, p99 {p99})"
        ));
    }
    // The sparse bucket list must account for every recorded sample.
    let buckets = h
        .get("buckets")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("histogram {name:?}: missing array `buckets`"))?;
    let mut sum: u64 = 0;
    let mut prev_idx: Option<u64> = None;
    for (i, b) in buckets.iter().enumerate() {
        let idx = b
            .idx(0)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("histogram {name:?}: bucket[{i}] has no integer index"))?;
        let n = b
            .idx(1)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("histogram {name:?}: bucket[{i}] has no integer count"))?;
        if n == 0 {
            return Err(format!(
                "histogram {name:?}: bucket[{i}] is empty but serialized (sparse form)"
            ));
        }
        if prev_idx.is_some_and(|p| idx <= p) {
            return Err(format!(
                "histogram {name:?}: bucket indices not strictly increasing at [{i}]"
            ));
        }
        prev_idx = Some(idx);
        sum += n;
    }
    if sum != count {
        return Err(format!(
            "histogram {name:?}: bucket counts sum to {sum}, `count` says {count}"
        ));
    }
    Ok(())
}

fn main() {
    let dir = workspace_root().join("results");
    let mut snapshots: Vec<std::path::PathBuf> = std::fs::read_dir(&dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| {
                    p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with("telemetry_") && n.ends_with(".json"))
                })
                .collect()
        })
        .unwrap_or_default();
    snapshots.sort();
    if snapshots.is_empty() {
        eprintln!(
            "no telemetry snapshots under {} — run the chaos sweep (or an \
             instrumented bench bin) first",
            dir.display()
        );
        std::process::exit(1);
    }
    let mut failed = false;
    // This bin emits its snapshot by contract; absence means the
    // experiment ran without its instrumentation (or didn't run).
    let required = dir.join("telemetry_e16.json");
    if !snapshots.contains(&required) {
        failed = true;
        println!("  BAD {}: required snapshot missing", required.display());
    }
    for path in &snapshots {
        match check_file(path) {
            Ok(()) => println!("  ok  {}", path.display()),
            Err(e) => {
                failed = true;
                println!("  BAD {}: {e}", path.display());
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("{} telemetry snapshot(s) schema-valid", snapshots.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(json: &str) -> Json {
        Json::parse(json).expect("test histogram parses")
    }

    #[test]
    fn valid_histogram_passes() {
        let h = hist(
            r#"{"count":3,"sum":30,"min":8,"max":16,"p50":8,"p95":16,"p99":16,
                "buckets":[[4,2],[5,1]]}"#,
        );
        assert!(check_histogram("ok", &h).is_ok());
    }

    #[test]
    fn bucket_sum_mismatch_is_caught() {
        // count says 3, buckets account for 4: a recompute bug upstream.
        let h = hist(
            r#"{"count":3,"sum":30,"min":8,"max":16,"p50":8,"p95":16,"p99":16,
                "buckets":[[4,3],[5,1]]}"#,
        );
        let err = check_histogram("bad", &h).unwrap_err();
        assert!(err.contains("sum to 4"), "{err}");
    }

    #[test]
    fn unordered_percentiles_are_caught() {
        let h = hist(
            r#"{"count":2,"sum":30,"min":8,"max":16,"p50":16,"p95":8,"p99":16,
                "buckets":[[4,1],[5,1]]}"#,
        );
        let err = check_histogram("bad", &h).unwrap_err();
        assert!(err.contains("unordered"), "{err}");
    }

    #[test]
    fn unsorted_bucket_indices_are_caught() {
        let h = hist(
            r#"{"count":2,"sum":30,"min":8,"max":16,"p50":8,"p95":16,"p99":16,
                "buckets":[[5,1],[4,1]]}"#,
        );
        let err = check_histogram("bad", &h).unwrap_err();
        assert!(err.contains("strictly increasing"), "{err}");
    }

    fn alerts(json: &str) -> Vec<Json> {
        Json::parse(json)
            .expect("test alerts parse")
            .as_arr()
            .expect("array")
            .to_vec()
    }

    #[test]
    fn well_formed_timeline_passes() {
        // One closed incident, one still open on a second SLO: legal.
        let a = alerts(
            r#"[
              {"slo":"a","at_us":10,"state":"firing","window":"fast","burn_x100":1200},
              {"slo":"b","at_us":15,"state":"firing","window":"slow","burn_x100":300},
              {"slo":"a","at_us":20,"state":"resolved","window":"fast","burn_x100":90}
            ]"#,
        );
        assert!(check_alert_timeline(&a).is_ok());
    }

    #[test]
    fn resolve_before_fire_is_caught() {
        let a =
            alerts(r#"[{"slo":"a","at_us":10,"state":"resolved","window":"fast","burn_x100":1}]"#);
        let err = check_alert_timeline(&a).unwrap_err();
        assert!(err.contains("before ever firing"), "{err}");
    }

    #[test]
    fn double_fire_without_resolve_is_caught() {
        let a = alerts(
            r#"[
              {"slo":"a","at_us":10,"state":"firing","window":"fast","burn_x100":1200},
              {"slo":"a","at_us":20,"state":"firing","window":"slow","burn_x100":1300}
            ]"#,
        );
        let err = check_alert_timeline(&a).unwrap_err();
        assert!(err.contains("without a transition"), "{err}");
    }

    #[test]
    fn time_regression_and_bad_enums_are_caught() {
        let back = alerts(
            r#"[
              {"slo":"a","at_us":20,"state":"firing","window":"fast","burn_x100":1},
              {"slo":"a","at_us":10,"state":"resolved","window":"fast","burn_x100":1}
            ]"#,
        );
        assert!(check_alert_timeline(&back)
            .unwrap_err()
            .contains("back in time"));
        let state =
            alerts(r#"[{"slo":"a","at_us":1,"state":"open","window":"fast","burn_x100":1}]"#);
        assert!(check_alert_timeline(&state)
            .unwrap_err()
            .contains("bad state"));
        let window =
            alerts(r#"[{"slo":"a","at_us":1,"state":"firing","window":"wide","burn_x100":1}]"#);
        assert!(check_alert_timeline(&window)
            .unwrap_err()
            .contains("bad window"));
    }

    #[test]
    fn hand_built_bad_snapshot_fails_and_good_passes() {
        let dir = std::env::temp_dir().join(format!("telemetry_check_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let write = |file: &str, version: u64, count: u64, rest: &str| {
            let path = dir.join(file);
            let text = format!(
                r#"{{"schema_version":{version},"label":"t","seed":1,
                "counters":{{"x":1}},"gauges":{{}},
                "histograms":{{"h":{{"count":{count},"sum":8,"min":8,"max":8,
                  "p50":8,"p95":8,"p99":8,"buckets":[[4,1]]}}}},
                {rest}"alerts":[]}}"#
            );
            std::fs::write(&path, text).unwrap();
            path
        };
        assert!(check_file(&write("telemetry_good.json", 4, 1, "")).is_ok());
        let bad = write("telemetry_bad.json", 4, 5, "");
        assert!(check_file(&bad).unwrap_err().contains("bucket counts"));
        // The retired v3 shape is rejected by its version, and by its
        // first span field when only the version number was bumped.
        let v3 = r#""spans":[],"open_spans":[],"dropped_spans":0,"#;
        let err = check_file(&write("telemetry_v3.json", 3, 1, v3)).unwrap_err();
        assert!(err.contains("schema_version 3"), "{err}");
        let err = check_file(&write("telemetry_v3_as_v4.json", 4, 1, v3)).unwrap_err();
        assert!(err.contains("unknown field `dropped_spans`"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
