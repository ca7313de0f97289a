//! # dosgi-bench — the experiment harness
//!
//! The paper (MW4SOC 2008) has **no quantitative evaluation section**: its
//! six figures are architecture/scenario diagrams and its claims are
//! qualitative. This crate turns every figure and every quantifiable claim
//! into a reproducible experiment (see `DESIGN.md` §6 and
//! `EXPERIMENTS.md` for the index):
//!
//! | binary | paper anchor |
//! |---|---|
//! | `e1_topology` | Fig. 1–4 deployment-design footprints |
//! | `e3_sharing` | Fig. 4 shared host bundles + explicit exports |
//! | `e4_isolation` | §2 isolation claims |
//! | `e5_migration_cost` | §3.2 "comparable to a normal startup" |
//! | `e6_failover` | §3.2 node-failure redeployment |
//! | `e7_vip_migration` | Fig. 5 unique-IP service localization |
//! | `e8_ipvs` | Fig. 6 shared-IP ipvs scaling + failover |
//! | `e9_replication` | §3.2 future work: context replication ablation |
//! | `e10_autonomic` | §3.3/§4 SLA enforcement + consolidation |
//!
//! Run any of them with `cargo run -p dosgi-bench --release --bin <name>`.
//! Wall-clock cost is measured in one place only, the stand-alone
//! `benchmark/` package.

use dosgi_telemetry::Telemetry;
use std::fmt::Display;
use std::path::Path;

/// `path` as the bins print it: relative to the workspace root, so a
/// captured stdout reads the same from a checkout at any path.
pub fn shown(path: &Path) -> std::path::Display<'_> {
    path.strip_prefix(dosgi_testkit::workspace_root())
        .unwrap_or(path)
        .display()
}

/// Snapshots `telemetry` as `results/telemetry_<label>.json` (under the
/// workspace root) and prints the path. Experiment bins treat snapshot I/O
/// as best-effort: a read-only checkout still runs the experiment.
pub fn write_telemetry_snapshot(telemetry: &Telemetry, label: &str, seed: u64) {
    let dir = dosgi_testkit::workspace_root().join("results");
    match std::fs::create_dir_all(&dir)
        .and_then(|()| telemetry.snapshot(label, seed).write_to(&dir))
    {
        Ok(path) => println!("\ntelemetry snapshot: {}", shown(&path)),
        Err(e) => eprintln!("could not write telemetry snapshot for {label}: {e}"),
    }
}

/// Prints a Markdown-style table: header row then aligned data rows.
pub fn print_table<H: Display, C: Display>(title: &str, headers: &[H], rows: &[Vec<C>]) {
    println!("\n## {title}\n");
    let headers: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    let rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| r.iter().map(|c| c.to_string()).collect())
        .collect();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in &rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut out = String::from("|");
        for (i, c) in cells.iter().enumerate() {
            out.push_str(&format!(" {:>width$} |", c, width = widths[i]));
        }
        out
    };
    println!("{}", line(&headers));
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    println!("{}", line(&sep));
    for row in &rows {
        println!("{}", line(row));
    }
}

/// A numeric override a bin reads from the environment: `default` when the
/// variable is unset (`raw` is `None`).
///
/// # Errors
///
/// The variable is set and is not a `u64`; the message names the variable
/// and the value. A mistyped override must stop the run, not turn into the
/// default and reproduce a different schedule.
pub fn override_u64(key: &str, raw: Option<&str>, default: u64) -> Result<u64, String> {
    match raw {
        None => Ok(default),
        Some(value) => value
            .parse()
            .map_err(|e| format!("{key}={value:?} is not a number ({e})")),
    }
}

/// Formats bytes human-readably (MiB with two decimals).
pub fn mib(bytes: u64) -> String {
    format!("{:.2} MiB", bytes as f64 / (1024.0 * 1024.0))
}

/// Formats a ratio as `x.yz×`.
pub fn ratio(a: f64, b: f64) -> String {
    if b == 0.0 {
        "∞".to_owned()
    } else {
        format!("{:.2}x", a / b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression: `CHAOS_SEED0=15l` used to replay seed 1 and print `ok`.
    #[test]
    fn unparsable_override_is_an_error_not_the_default() {
        assert_eq!(override_u64("CHAOS_SEED0", None, 1), Ok(1));
        assert_eq!(override_u64("CHAOS_SEED0", Some("15"), 1), Ok(15));
        for typo in ["15l", "1O", "", " 7", "-1"] {
            let e = override_u64("CHAOS_SEED0", Some(typo), 1).unwrap_err();
            assert!(
                e.contains("CHAOS_SEED0") && e.contains(&format!("{typo:?}")),
                "the error names the variable and the value: {e}"
            );
        }
    }

    #[test]
    fn helpers_format() {
        assert_eq!(mib(1 << 20), "1.00 MiB");
        assert_eq!(ratio(3.0, 2.0), "1.50x");
        assert_eq!(ratio(1.0, 0.0), "∞");
        // Table printing must not panic on ragged input.
        print_table("t", &["a", "b"], &[vec!["1".to_string(), "2".to_string()]]);
    }
}
