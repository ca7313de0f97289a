#!/usr/bin/env bash
# The chaos sweep of a parent commit against the working tree, seed for seed:
# the check a refactor is held to, that it changes nothing a run can show.
#
#   scripts/sweep_diff.sh <parent-ref> [seeds=2000]
#
# The parent is unpacked (`git archive`) under target/sweep_diff/, and each
# side's `chaos` bin is built into its own CARGO_TARGET_DIR there: the parent
# from its unpacked source, the change from the working tree. The unpacked
# files take the time of unpacking, not the commit's (`tar -m`), so a build
# left by an earlier parent is never taken for this one's. Both sides then
# run `CHAOS_SEEDS=<seeds> CHAOS_SEED0=1`, each from an empty directory outside
# any cargo workspace (the bin writes its traces and telemetry snapshot under
# the workspace it is run from), so nothing is written under results/. What a
# side printed, its exit status and every file it wrote are kept in
# target/sweep_diff/<side>/. The script prints the seeds that did not read `ok`
# and exits non-zero if stdout, the exit status or any trace or telemetry file
# differs between the two sides. Bash, cargo and diff only; nothing fetched.
#
# A seed's three runs take a few milliseconds of wall clock; 2 000 seeds take a
# few minutes a side, and the two sides run at once.
set -euo pipefail

if [[ $# -lt 1 || $# -gt 2 ]]; then
    echo "usage: scripts/sweep_diff.sh <parent-ref> [seeds=2000]" >&2
    exit 2
fi
parent_ref="$1" seeds="${2:-2000}"

cd "$(dirname "$0")/.."
work="$PWD/target/sweep_diff"
rm -rf "$work/parent-src" "$work/parent" "$work/change"
mkdir -p "$work/parent-src"
git archive "$parent_ref" | tar -x -m -C "$work/parent-src"

# build <side> <source>: the side's chaos bin, built from <source>.
build() {
    (cd "$2" && CARGO_TARGET_DIR="$work/build-$1" \
        cargo build -q --offline --release -p dosgi-bench --bin chaos)
}
build parent "$work/parent-src"
build change "$PWD"

# sweep <side>: runs the side's bin in a scratch directory, then moves what
# it printed and wrote to target/sweep_diff/<side>/.
sweep() {
    local run status=0
    run="$(mktemp -d)"
    (cd "$run" && CHAOS_SEEDS="$seeds" CHAOS_SEED0=1 "$work/build-$1/release/chaos" \
        >stdout.txt 2>stderr.txt) || status=$?
    echo "$status" >"$run/status.txt"
    mv "$run" "$work/$1"
}
sweep parent &
sweep change &
wait

echo "seeds that did not read ok (change side):"
grep -v '  ok$' "$work/change/stdout.txt" | grep '^  seed' || echo "  none"
if diff -r "$work/parent" "$work/change" >"$work/diff.txt"; then
    echo "sweep_diff: $seeds seeds, stdout, exit status and every trace and telemetry file identical"
else
    echo "sweep_diff: the two sides differ ($(wc -l <"$work/diff.txt") diff lines in $work/diff.txt):" >&2
    head -n 40 "$work/diff.txt" >&2
    exit 1
fi
