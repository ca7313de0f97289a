//! The benchmark of the dosgi reproduction: four workloads on the
//! deterministic `DosgiCluster` driver, nine end-to-end metrics, and a
//! per-layer ledger recorded from outside the program.
//!
//! `README.md` beside this crate says what an op is on each workload and
//! how a number is made; `BENCHMARK.json` at the repository root is the
//! contract the driver reads.

pub mod alloc;
pub mod cal;
pub mod harness;
pub mod probes;
pub mod stats;
pub mod trace;
pub mod workloads;

use harness::Outcome;
use std::fmt::Write as _;
use std::path::Path;
use workloads::{Failover, Migrate, ServeRead, ServeWrite, Workload};

// Installed in the library so that the binary and every test count the
// same way.
#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    ServeRead::NAME,
    ServeWrite::NAME,
    Migrate::NAME,
    Failover::NAME,
];

/// One reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The name in `BENCHMARK.json`.
    pub name: &'static str,
    /// As measured, unrounded.
    pub value: f64,
    /// The unit in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// How much work a run does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The workload's op count for a run of this many seconds.
    Seconds(u32),
    /// This many ops in the timed window (smoke runs and tests).
    Ops(u32),
}

/// Runs `workload` once: the end-to-end run, or with `trace` the traced
/// run, whose span file goes under `out_dir`.
///
/// # Errors
///
/// `InvalidInput` for a name not in [`WORKLOADS`]; otherwise whatever kept
/// the span file from being written.
pub fn run(
    workload: &str,
    seed: u64,
    size: Size,
    trace: bool,
    out_dir: &Path,
) -> std::io::Result<Outcome> {
    fn go<W: Workload>(
        seed: u64,
        size: Size,
        trace: bool,
        out_dir: &Path,
    ) -> std::io::Result<Outcome> {
        let ops = match size {
            Size::Seconds(s) => harness::window_ops::<W>(s),
            Size::Ops(n) => n,
        };
        if trace {
            harness::layers::<W>(seed, ops, out_dir)
        } else {
            Ok(harness::end_to_end::<W>(seed, ops))
        }
    }
    match workload {
        ServeRead::NAME => go::<ServeRead>(seed, size, trace, out_dir),
        ServeWrite::NAME => go::<ServeWrite>(seed, size, trace, out_dir),
        Migrate::NAME => go::<Migrate>(seed, size, trace, out_dir),
        Failover::NAME => go::<Failover>(seed, size, trace, out_dir),
        other => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("no workload named {other}"),
        )),
    }
}

/// The result line: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`. Values keep every digit.
pub fn result_line(outcome: &Outcome) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct, outcome.attempted, outcome.failed
    );
    for (i, m) in outcome.metrics.iter().enumerate() {
        let _ = write!(
            out,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.value,
            m.unit
        );
    }
    out.push_str("}}");
    out
}
