//! Seeded chaos sweep: generate nemesis schedules, apply each to a fresh
//! cluster, check the dependability invariants, and verify deterministic
//! replay (every schedule runs twice; the two reports must fingerprint
//! identically).
//!
//! Environment overrides (all optional):
//!
//! * `CHAOS_SEEDS`   — how many schedules to run (default 10)
//! * `CHAOS_SEED0`   — first seed (default 1; seeds are consecutive)
//! * `CHAOS_NODES`   — cluster size (default 5)
//! * `CHAOS_FAULTS`  — fault injections per schedule (default 6)
//!
//! An override that is set and is not a number is fatal — a mistyped
//! reproducer must not quietly replay the default schedule and print `ok`.
//!
//! Exit status is non-zero if any run violates an invariant or fails to
//! replay; the offending seed is printed so
//! `CHAOS_SEED0=<seed> CHAOS_SEEDS=1 cargo run --bin chaos` reproduces it
//! exactly.
//!
//! Every schedule also arms a **rolling upgrade wave** 10 s into the run
//! (`CHAOS_WAVE_AT_US` overrides; `CHAOS_WAVE_AT_US=0` disables): the
//! counter bundle is hot-swapped to 1.1.0 node by node while the nemesis
//! is firing, so crashes, partitions and SAN faults land mid-handoff. The
//! invariants must hold anyway, and the wave's outcome is part of the
//! fingerprint — so the passivity cross-checks below cover the upgrade
//! path too.
//!
//! Each schedule runs **three** times: with telemetry enabled (all seeds
//! share one registry), with telemetry disabled, and with the time-series
//! scraper and SLO engine switched on. All three fingerprints must be
//! equal, which verifies deterministic replay and instrumentation
//! passivity (metrics, causal tracing, *and* series scraping — the scraper
//! must never touch the fault-injector RNG stream) on every seed.
//! The sweep's aggregated metrics land in `results/telemetry_chaos.json`;
//! each seed's merged causal trace lands in
//! `results/trace_chaos_s<seed>.json` (Chrome trace-event format —
//! analyze with the `trace_check` bin, or load into Perfetto). The first
//! seed's trace is additionally replayed and byte-compared, pinning the
//! whole export path as deterministic.
//!
//! Every schedule ends on a healed, quiet tail, by which every member has
//! acknowledged the whole ordered stream: the instrumented run's
//! `gcs.order.retained` gauge — the sequencer's replay buffer — must read
//! [`RETAINED_AT_QUIESCENCE`], or the stream's memory bound has been lost.

use dosgi_bench::{override_u64, shown, write_telemetry_snapshot};
use dosgi_core::chaos::{run_nemesis_with_telemetry, ChaosOptions};
use dosgi_gcs::RETAINED_AT_QUIESCENCE;
use dosgi_telemetry::Telemetry;
use dosgi_testkit::nemesis::{NemesisConfig, NemesisPlan};
use dosgi_testkit::workspace_root;

fn env_u64(key: &str, default: u64) -> u64 {
    let raw = std::env::var_os(key).map(|v| v.to_string_lossy().into_owned());
    override_u64(key, raw.as_deref(), default).unwrap_or_else(|e| {
        eprintln!("chaos: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let seeds = env_u64("CHAOS_SEEDS", 10);
    let seed0 = env_u64("CHAOS_SEED0", 1);
    let nodes = env_u64("CHAOS_NODES", 5) as usize;
    let faults = env_u64("CHAOS_FAULTS", 6) as usize;
    let config = NemesisConfig {
        faults,
        ..NemesisConfig::default()
    };
    let wave_at_us = env_u64("CHAOS_WAVE_AT_US", 10_000_000);
    let opts = ChaosOptions {
        upgrade_wave_at_us: (wave_at_us > 0).then_some(wave_at_us),
        ..ChaosOptions::default()
    };

    println!("chaos sweep: {seeds} schedules, {nodes} nodes, {faults} faults each");
    let sweep_telemetry = Telemetry::new();
    let results_dir = workspace_root().join("results");
    let mut failed = false;
    for seed in seed0..seed0 + seeds {
        let plan = NemesisPlan::generate(seed, nodes, &config);
        // Instrumented run vs uninstrumented replay: equal fingerprints
        // prove both determinism and instrumentation passivity (the
        // uninstrumented run records no metrics *and* no trace).
        let a = run_nemesis_with_telemetry(&plan, &opts, sweep_telemetry.clone());
        let retained = sweep_telemetry.gauge("gcs.order.retained").unwrap_or(0);
        let b = run_nemesis_with_telemetry(&plan, &opts, Telemetry::disabled());
        let replayed = a.fingerprint == b.fingerprint;
        // Series-scraping passivity: enabling the time-series scraper and
        // SLO engine must not change a single fingerprint bit.
        let series = run_nemesis_with_telemetry(
            &plan,
            &ChaosOptions {
                series: true,
                ..opts.clone()
            },
            Telemetry::new(),
        );
        let series_passive = series.fingerprint == a.fingerprint;
        let trace_label = format!("chaos_s{seed}");
        let trace_path = match a.trace.write_to(&results_dir, &trace_label, seed) {
            Ok(p) => shown(&p).to_string(),
            Err(e) => {
                failed = true;
                format!("<unwritable: {e}>")
            }
        };
        // The first seed pins the trace export itself: a third run must
        // serialize its causal record byte-for-byte identically.
        let trace_replayed = if seed == seed0 {
            let c = run_nemesis_with_telemetry(&plan, &opts, Telemetry::new());
            a.trace.to_chrome_json(&trace_label, seed) == c.trace.to_chrome_json(&trace_label, seed)
        } else {
            true
        };
        let status = if !a.ok() {
            failed = true;
            "VIOLATION"
        } else if !replayed {
            failed = true;
            "NON-DETERMINISTIC"
        } else if !series_passive {
            failed = true;
            "SERIES-NOT-PASSIVE"
        } else if !trace_replayed {
            failed = true;
            "TRACE-NON-DETERMINISTIC"
        } else if retained > RETAINED_AT_QUIESCENCE as i64 {
            failed = true;
            "STREAM-UNBOUNDED"
        } else {
            "ok"
        };
        let (swapped, skipped) = a
            .wave
            .as_ref()
            .map(|w| (w.upgraded.len(), w.skipped_nodes.len()))
            .unwrap_or((0, 0));
        println!(
            "  seed {seed:>4}  steps {:>2}  acked {:>5}  spans {:>4}  \
             swapped {swapped}/{skipped} skip  fingerprint {:016x}  {status}",
            a.steps_applied,
            a.acked,
            a.trace.events.len(),
            a.fingerprint
        );
        for v in &a.violations {
            println!("      {v}");
        }
        if retained > RETAINED_AT_QUIESCENCE as i64 {
            println!(
                "      the sequencer still retains {retained} ordered messages at the \
                 quiet horizon (bound {RETAINED_AT_QUIESCENCE})"
            );
        }
        if !series_passive {
            println!("      enabling series scraping changed this seed's fingerprint");
        }
        if status != "ok" {
            println!(
                "      replay with: CHAOS_SEED0={seed} CHAOS_SEEDS=1 \
                 CHAOS_NODES={nodes} CHAOS_FAULTS={faults} \
                 cargo run --release -p dosgi-bench --bin chaos"
            );
            println!("      causal trace: {trace_path}");
        }
    }

    write_telemetry_snapshot(&sweep_telemetry, "chaos", seed0);
    if failed {
        std::process::exit(1);
    }
    println!(
        "all schedules held every invariant and replayed identically \
         (with and without telemetry, with and without series scraping); \
         causal traces under {}",
        shown(&results_dir.join("trace_chaos_s<seed>.json"))
    );
}
