#!/usr/bin/env bash
# Seeded chaos sweep: nemesis schedules against the full stack, invariant
# checks, and byte-identical replay verification (each seed runs with
# telemetry on and off; the fingerprints must match). Deterministic — a
# failure here is a real protocol bug, and the bin prints the exact
# CHAOS_SEED0=... one-liner that reproduces it plus, per failing seed, the
# path of the results/trace_chaos_s<seed>.json causal trace (every span the
# run recorded); the results/telemetry_chaos.json snapshot holds the
# sweep's counters, gauges, histograms and alert timeline. The bin's
# summary is kept as results/chaos_sweep.txt.
#
# Every seed also replays on every other registered SAN backend and must
# fingerprint identically — storage conformance is part of the sweep.
#
# Overrides: CHAOS_SEEDS (schedules, default 10), CHAOS_SEED0 (first seed),
# CHAOS_NODES (cluster size), CHAOS_FAULTS (faults per schedule),
# CHAOS_BACKEND (primary SAN backend: `map` default, or `log`; the others
# cross-check it).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> chaos sweep (release)"
if ! cargo run --offline --release -p dosgi-bench --bin chaos | tee results/chaos_sweep.txt; then
  echo "chaos sweep FAILED — reproducer + causal trace path above;" >&2
  echo "telemetry snapshot: results/telemetry_chaos.json" >&2
  exit 1
fi
