#!/usr/bin/env bash
# Seeded chaos sweep: nemesis schedules against the full stack, invariant
# checks, and byte-identical replay verification (each seed runs with
# telemetry on, with telemetry off and with series scraping on; the three
# fingerprints must match). Deterministic — a failure here is a real protocol
# bug, and the bin prints the exact CHAOS_SEED0=... one-liner that reproduces
# it plus, per failing seed, the path of the results/trace_chaos_s<seed>.json
# causal trace (every span the run recorded); the
# results/telemetry_chaos.json snapshot holds the sweep's counters, gauges,
# histograms and alert timeline. The bin's summary is kept as
# results/chaos_sweep.txt.
#
# Overrides: CHAOS_SEEDS (schedules, default 10), CHAOS_SEED0 (first seed),
# CHAOS_NODES (cluster size), CHAOS_FAULTS (faults per schedule),
# CHAOS_WAVE_AT_US (when the upgrade wave starts; 0 disables it). One that is
# set and is not a number stops the run.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> chaos sweep (release)"
if ! cargo run --offline --release -p dosgi-bench --bin chaos | tee results/chaos_sweep.txt; then
  echo "chaos sweep FAILED — reproducer + causal trace path above;" >&2
  echo "telemetry snapshot: results/telemetry_chaos.json" >&2
  exit 1
fi
