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

echo "==> one thread: no lock, atomic, once-lock or Send/Sync bound in library code"
# The simulator drives every node from one thread (DESIGN §10), so shared
# library state is Rc/Cell/RefCell and nothing asks for Send or Sync. The
# search runs over the text of scripts/loc.sh's non-test lines under crates/
# (past each line's `<file>:<line>:` prefix). The one
# allowed site is perf_guard's global allocator, whose counter a `static`
# must hold: its two lines are named below, by text.
threaded='^[^:]*:[0-9]+:.*(\b(Mutex|RwLock|Condvar|OnceLock|Atomic[A-Z])|[^:]:[[:space:]]*(Send|Sync)\b|[+][[:space:]]*(Send|Sync)\b|\b(Send|Sync)[[:space:]]*[+]|\b(dyn|impl)[[:space:]]+(Send|Sync)\b)'
allowed='^crates/bench/src/bin/perf_guard\.rs:[0-9]+:(use std::sync::atomic::\{AtomicU64, Ordering\};|static ALLOCATIONS: AtomicU64 = AtomicU64::new\(0\);)$'
if scripts/loc.sh --lines | grep -E "$threaded" | grep -vE "$allowed"; then
  echo "ERROR: the lines above make library state thread-safe; the runtime is one thread" >&2
  exit 1
fi

echo "==> the library is what a runtime path calls: no test-only function in library code"
# A `#[cfg(test)]` function outside a test module is library surface that
# only tests reach: delete it, or move it into the test module beside its
# callers. The search runs over scripts/loc.sh's non-test lines, where such a
# function shows as a `#[cfg(test)]` line followed by a `fn` line. A gated
# field or statement (cluster.rs's fixed-tick reference) is not a `fn`.
cfg_test='^[^:]*:[0-9]+:[[:space:]]*#\[cfg\(test\)\][[:space:]]*$'
test_fn='^[^:]*:[0-9]+:(.*[^[:alnum:]_])?fn[[:space:]]'
if scripts/loc.sh --lines | grep -A1 -E "$cfg_test" | grep -B1 -E "$test_fn" | grep -v '^--$'; then
  echo "ERROR: the functions above are compiled for tests only: delete each, or move it into its test module" >&2
  exit 1
fi

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

echo "==> examples run to completion (their assertions hold; output discarded)"
for example in quickstart multi_tenant_sla failover_cluster load_balanced_web hot_update; do
  cargo run -q --offline --release -p dosgi-core --example "$example" > /dev/null
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
