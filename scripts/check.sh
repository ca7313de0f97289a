#!/usr/bin/env bash
# The repeatable CI entrypoint. The workspace is hermetic: every dependency
# is an in-tree path crate, so everything here must succeed with an empty
# cargo registry cache and no network. If any step ever needs the registry,
# that is a policy violation (see README.md "Hermetic build policy") and a
# bug in the change that introduced it.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> cargo test -q --offline"
cargo test -q --offline

echo "==> stand-alone benchmark package builds against the library API and passes its tests"
# benchmark/ is frozen between benchmark-defining PRs, so an API change that
# breaks it must fail here, before it fails the pipeline. It is a workspace
# of its own; sharing this one's target directory spares a second cold build.
CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PWD/target}" \
    cargo test -q --release --offline --manifest-path benchmark/Cargo.toml

echo "==> cargo clippy --offline -- -D warnings"
cargo clippy --offline --all-targets -- -D warnings

echo "==> cargo doc --offline, warnings denied (a deleted item must not leave a dangling doc link)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

echo "==> chaos sweep (seeded nemesis schedules + replay verification) -> results/chaos_sweep.txt"
scripts/chaos.sh

echo "==> experiment bins, stdout -> results/<bin>.txt"
# Every bin is deterministic (simulated time, seeded randomness, paths printed
# relative to the workspace root), so its capture is held to the committed one
# by the results/ check at the end like any other file a step writes.
# perf_guard's capture holds exact counts (SAN reads of a migrate round, the
# hand-off's two ends, e15 admission, flat failover rounds); it exits non-zero
# naming any row that is broken on its own terms. san_contract's capture is the
# SAN store contract: five fixed op scripts, every result, version and counter.
for bin in e1_topology e3_sharing e4_isolation e5_migration_cost e6_failover \
    e7_vip_migration e8_ipvs e9_replication e10_autonomic e11_fallible_san \
    e14_hot_swap e15_overload e16_slo perf_guard san_contract; do
  cargo run -q --offline --release -p dosgi-bench --bin "$bin" > "results/$bin.txt"
done

echo "==> telemetry snapshot schema check"
cargo run --offline --release -p dosgi-bench --bin telemetry_check

echo "==> causal trace check (zero happens-before violations over the sweep)"
cargo run --offline --release -p dosgi-bench --bin trace_check

echo "==> verifying zero registry dependencies"
if cargo metadata --format-version 1 --offline \
    | grep -o '"source":"[^"]*"' | grep -v '"source":""' | grep -q 'registry'; then
  echo "ERROR: registry dependency detected; this workspace must stay path-only" >&2
  cargo metadata --format-version 1 --offline \
    | grep -o '"name":"[^"]*","version":"[^"]*","id":"[^"]*registry[^"]*"' >&2 || true
  exit 1
fi

echo "==> committed results are reproduced byte for byte, and nothing new appears"
# The steps above rewrote results/. Every file they write is deterministic, so
# a fingerprint, trace or telemetry snapshot that moved fails here — and so
# does a step that leaves behind a file nobody committed.
git diff --exit-code -- results/
if git status --porcelain -- results/ | grep '^??'; then
  echo "ERROR: a step left the untracked files above under results/" >&2
  exit 1
fi

echo "==> non-test code lines (scripts/loc.sh)"
scripts/loc.sh

echo "All checks passed."
