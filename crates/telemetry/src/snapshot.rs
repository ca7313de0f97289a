//! Schema-versioned, byte-deterministic JSON snapshots.
//!
//! The format is hand-rolled compact JSON built from `format!` with
//! `{:?}` string escaping, a trailing newline, and files written under
//! `results/` at the workspace root. Every value is an integer or a
//! string and every map is a `BTreeMap`, so the same recorded state
//! always serializes to the same bytes.
//!
//! Schema (version 4): `counters`, `gauges`, `histograms` — each entry
//! carries the `p50`/`p95`/`p99` summary [`Histogram::percentile`] derives
//! from its log buckets — and the `alerts` timeline of SLO burn-rate
//! transitions recorded by [`crate::SloEngine`]. Spans are not part of a
//! snapshot; they live in the run's [`crate::TraceLog`].
//!
//! ```json
//! {
//!   "schema_version": 4,
//!   "label": "chaos",
//!   "seed": 7,
//!   "counters": {"gcs.view.installed": 12, ...},
//!   "gauges": {"core.cluster.nodes_running": 5, ...},
//!   "histograms": {
//!     "san.retry.backoff_us": {
//!       "count": 3, "sum": 9500, "min": 500, "max": 8000,
//!       "p50": 4096, "p95": 4096, "p99": 4096,
//!       "buckets": [[10, 2], [13, 1]]
//!     }
//!   },
//!   "alerts": [
//!     {"slo": "std-latency", "at_us": 8750000, "state": "firing",
//!      "window": "fast", "burn_x100": 4100}
//!   ]
//! }
//! ```

use crate::slo::AlertEvent;
use crate::Histogram;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Current snapshot schema version.
pub const SCHEMA_VERSION: u64 = 4;

/// A point-in-time copy of a telemetry registry, serializable to
/// deterministic JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Snapshot label; also names the output file `telemetry_<label>.json`.
    pub label: String,
    /// Seed of the run that produced this snapshot.
    pub seed: u64,
    /// Monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins gauges.
    pub gauges: BTreeMap<String, i64>,
    /// Log-bucketed histograms.
    pub histograms: BTreeMap<String, Histogram>,
    /// SLO alert transitions, oldest first.
    pub alerts: Vec<AlertEvent>,
}

fn opt_u64(v: Option<u64>) -> String {
    match v {
        Some(n) => n.to_string(),
        None => "null".to_owned(),
    }
}

impl Snapshot {
    /// Serialize to compact, byte-deterministic JSON (trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        let _ = write!(
            out,
            "{{\"schema_version\":{},\"label\":{:?},\"seed\":{}",
            self.schema_version, self.label, self.seed
        );
        out.push_str(",\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            let _ = write!(out, "{}{:?}:{}", if i > 0 { "," } else { "" }, k, v);
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            let _ = write!(out, "{}{:?}:{}", if i > 0 { "," } else { "" }, k, v);
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            let buckets: Vec<String> = h
                .nonzero_buckets()
                .iter()
                .map(|(b, c)| format!("[{b},{c}]"))
                .collect();
            let _ = write!(
                out,
                "{}{:?}:{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"buckets\":[{}]}}",
                if i > 0 { "," } else { "" },
                k,
                h.count(),
                h.sum(),
                opt_u64(h.min()),
                opt_u64(h.max()),
                opt_u64(h.percentile(50)),
                opt_u64(h.percentile(95)),
                opt_u64(h.percentile(99)),
                buckets.join(",")
            );
        }
        out.push_str("},\"alerts\":[");
        for (i, a) in self.alerts.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"slo\":{:?},\"at_us\":{},\"state\":{:?},\"window\":{:?},\"burn_x100\":{}}}",
                if i > 0 { "," } else { "" },
                a.slo,
                a.at_us,
                if a.firing { "firing" } else { "resolved" },
                a.window.as_str(),
                a.burn_x100
            );
        }
        out.push_str("]}\n");
        out
    }

    /// Write `telemetry_<label>.json` into `dir` (created if needed).
    pub fn write_to(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("telemetry_{}.json", self.label));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;

    fn sample() -> Snapshot {
        let t = Telemetry::new();
        t.incr("a.b.count");
        t.add("a.b.count", 2);
        t.gauge_set("a.b.level", -4);
        t.record("a.b.lat_us", 0);
        t.record("a.b.lat_us", 700);
        t.record_alert(AlertEvent {
            slo: "std-latency".to_owned(),
            at_us: 40,
            firing: true,
            window: crate::AlertWindow::Fast,
            burn_x100: 4100,
        });
        t.snapshot("unit", 42)
    }

    #[test]
    fn json_is_stable_across_identical_recordings() {
        assert_eq!(sample().to_json(), sample().to_json());
    }

    #[test]
    fn json_contains_required_fields() {
        let j = sample().to_json();
        assert!(j.starts_with("{\"schema_version\":4,"));
        assert!(j.contains("\"label\":\"unit\""));
        assert!(j.contains("\"seed\":42"));
        assert!(j.contains("\"a.b.count\":3"));
        assert!(j.contains("\"a.b.level\":-4"));
        // Samples 0 and 700: p50 = bucket [0,1) lower bound 0; p95/p99
        // fall in 700's bucket [512,1024), clamped to max 700.
        assert!(j.contains(
            "\"count\":2,\"sum\":700,\"min\":0,\"max\":700,\"p50\":0,\"p95\":512,\"p99\":512"
        ));
        assert!(j.ends_with(
            "},\"alerts\":[{\"slo\":\"std-latency\",\"at_us\":40,\"state\":\"firing\",\
             \"window\":\"fast\",\"burn_x100\":4100}]}\n"
        ));
    }

    #[test]
    fn write_to_names_file_after_label() {
        let dir = std::env::temp_dir().join(format!("dosgi-telemetry-test-{}", std::process::id()));
        let path = sample().write_to(&dir).expect("write snapshot");
        assert!(path.ends_with("telemetry_unit.json"));
        let bytes = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(bytes, sample().to_json());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
