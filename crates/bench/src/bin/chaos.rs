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
//! * `CHAOS_BACKEND` — primary SAN backend (`map` default, or `log`)
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
//! fingerprint — so the passivity and backend-conformance cross-checks
//! below cover the upgrade path too.
//!
//! Each schedule runs **five** times: on the primary backend with
//! telemetry enabled (all seeds share one registry), on the primary
//! backend with telemetry disabled, on the *other* registered SAN
//! backend (telemetry disabled), and — with the time-series scraper and
//! SLO engine switched on — once more on each backend. All five
//! fingerprints must be equal, which verifies deterministic replay,
//! instrumentation passivity (metrics, causal tracing, *and* series
//! scraping — the scraper must never touch the fault-injector RNG
//! stream), **and** storage-backend conformance on every seed — the
//! log-structured store must be observably indistinguishable from the
//! map store under the full fault gauntlet.
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

use dosgi_bench::{shown, write_telemetry_snapshot};
use dosgi_core::chaos::{run_nemesis_with_telemetry, ChaosOptions};
use dosgi_gcs::RETAINED_AT_QUIESCENCE;
use dosgi_san::BackendKind;
use dosgi_telemetry::Telemetry;
use dosgi_testkit::nemesis::{NemesisConfig, NemesisPlan};
use dosgi_testkit::workspace_root;

fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let seeds = env_u64("CHAOS_SEEDS", 10);
    let seed0 = env_u64("CHAOS_SEED0", 1);
    let nodes = env_u64("CHAOS_NODES", 5) as usize;
    let faults = env_u64("CHAOS_FAULTS", 6) as usize;
    let backend = match std::env::var("CHAOS_BACKEND") {
        Ok(name) => BackendKind::from_name(&name)
            .unwrap_or_else(|| panic!("CHAOS_BACKEND={name:?} is not a registered backend")),
        Err(_) => BackendKind::Map,
    };
    let config = NemesisConfig {
        faults,
        ..NemesisConfig::default()
    };
    let wave_at_us = env_u64("CHAOS_WAVE_AT_US", 10_000_000);
    let opts = ChaosOptions {
        backend,
        upgrade_wave_at_us: (wave_at_us > 0).then_some(wave_at_us),
        ..ChaosOptions::default()
    };
    // Every other registered backend cross-checks the primary on every
    // seed: conformant backends may not change a single fingerprint bit.
    let other_backends: Vec<BackendKind> = BackendKind::all()
        .into_iter()
        .filter(|k| *k != backend)
        .collect();

    println!(
        "chaos sweep: {seeds} schedules, {nodes} nodes, {faults} faults each, \
         backend {backend} (cross-checked against {})",
        other_backends
            .iter()
            .map(|k| k.name())
            .collect::<Vec<_>>()
            .join(",")
    );
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
        // Cross-backend conformance on this seed.
        let mut backend_mismatch: Option<BackendKind> = None;
        for &other in &other_backends {
            let x = run_nemesis_with_telemetry(
                &plan,
                &ChaosOptions {
                    backend: other,
                    ..opts.clone()
                },
                Telemetry::disabled(),
            );
            if x.fingerprint != a.fingerprint {
                backend_mismatch = Some(other);
                break;
            }
        }
        // Series-scraping passivity: enabling the time-series scraper and
        // SLO engine must not change a single fingerprint bit, on the
        // primary backend *or* on any other registered backend.
        let mut series_mismatch: Option<BackendKind> = None;
        for &kind in std::iter::once(&backend).chain(other_backends.iter()) {
            let s = run_nemesis_with_telemetry(
                &plan,
                &ChaosOptions {
                    backend: kind,
                    series: true,
                    ..opts.clone()
                },
                Telemetry::new(),
            );
            if s.fingerprint != a.fingerprint {
                series_mismatch = Some(kind);
                break;
            }
        }
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
        } else if backend_mismatch.is_some() {
            failed = true;
            "BACKEND-DIVERGENCE"
        } else if series_mismatch.is_some() {
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
        if let Some(other) = backend_mismatch {
            println!(
                "      backend `{other}` fingerprints differently from `{backend}` on this seed"
            );
        }
        if retained > RETAINED_AT_QUIESCENCE as i64 {
            println!(
                "      the sequencer still retains {retained} ordered messages at the \
                 quiet horizon (bound {RETAINED_AT_QUIESCENCE})"
            );
        }
        if let Some(kind) = series_mismatch {
            println!(
                "      enabling series scraping on backend `{kind}` changed this seed's fingerprint"
            );
        }
        if status != "ok" {
            println!(
                "      replay with: CHAOS_SEED0={seed} CHAOS_SEEDS=1 \
                 CHAOS_NODES={nodes} CHAOS_FAULTS={faults} CHAOS_BACKEND={} \
                 cargo run --release -p dosgi-bench --bin chaos",
                backend.name()
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
         (with and without telemetry, with and without series scraping, \
         across every storage backend); causal traces under {}",
        shown(&results_dir.join("trace_chaos_s<seed>.json"))
    );
}
