#!/usr/bin/env bash
# Seed-for-seed pairs of benchmark runs, a parent commit against the working
# tree, by the rule every perf PR is held to: at least ten pairs, alternating
# which side runs first; a gain counts when the change wins nine tenths of the
# pairs and the medians lie further apart than the parent's own quartiles.
#
#   scripts/bench_pairs.sh [--record <pr>] <parent-ref> <workload> [first-seed=1] [pairs=10]
#
# The workload `all` runs every workload of BENCHMARK.json in its order, each
# as if named alone: a table (and a recorded row) per workload.
#
# The parent is unpacked (`git archive`) under target/bench_pairs/, each side
# is built by its own benchmark/run.sh into its own CARGO_TARGET_DIR there, and
# pair i runs both on seed first-seed + i. Bash and awk only, nothing fetched;
# it reads benchmark/ and BENCHMARK.json and edits neither. Per timed metric it
# prints both medians with their quartiles (Python's statistics.quantiles,
# n=4, as the driver computes them), the parent's quartile distance and the
# pairs the change won; per exact metric (a count or a modeled time, equal
# between two runs of one build on one seed) whether it is equal, lower or
# higher. What every run printed is kept beside the builds. Exits non-zero if
# any run reports a failed or incorrect op.
#
# With `--record <pr>` the same numbers are also appended, one row for this
# workload, to BENCH_HISTORY.json at the root: the trajectory file (PR, parent
# commit, seeds, per timed metric both medians and quartiles and the pairs won
# and lost, per exact metric both medians, and the median of the calibration
# kernel's p50 on each side, which says how busy the host was). It holds
# wall-clock numbers, so it lives outside results/, whose files are diffed
# byte for byte. One row per line, so that a row is appended, or back-filled
# by hand from a PR's own tables, without a JSON tool; a back-filled row says
# `null` where its table gave no quartile and carries the parent's quartile
# distance as `parent_iqr`.
set -euo pipefail

record=""
if [[ ${1:-} == --record ]]; then
    record="${2:?--record takes the PR number}"
    shift 2
fi
if [[ $# -lt 2 || $# -gt 4 ]]; then
    echo "usage: scripts/bench_pairs.sh [--record <pr>] <parent-ref> <workload|all> [first-seed=1] [pairs=10]" >&2
    exit 2
fi
parent_ref="$1" workload="$2" first_seed="${3:-1}" pairs="${4:-10}"

cd "$(dirname "$0")/.."
if [[ $workload == all ]]; then
    for w in $(awk '/^  "/ { listed = /"workloads"/ }
        listed && sub(/.*"name": *"/, "") { sub(/".*/, ""); print }' BENCHMARK.json); do
        scripts/bench_pairs.sh ${record:+--record "$record"} "$parent_ref" "$w" "$first_seed" "$pairs"
    done
    exit
fi
work="$PWD/target/bench_pairs"
rm -rf "$work/parent-src"
mkdir -p "$work/parent-src" "$work/out"
git archive "$parent_ref" | tar -x -C "$work/parent-src"

# side <parent|change> <seed>: one run; on stdout the calibration kernel's p50
# (from the run's heading), then its last line (the result).
side() {
    local root="$PWD" out
    [[ $1 == parent ]] && root="$work/parent-src"
    out="$(CARGO_TARGET_DIR="$work/$1" "$root/benchmark/run.sh" \
        --workload "$workload" --seed "$2" --trace 0)"
    echo "$out" >>"$work/out/${workload}_$1.txt"
    echo "$(sed -n '1s/.*calibration kernel.* p50 \([0-9.]*\) us.*/\1/p' <<<"$out") $(tail -n 1 <<<"$out")"
}

: >"$work/out/${workload}_parent.txt"
: >"$work/out/${workload}_change.txt"
results="$work/out/${workload}_pairs.txt"
: >"$results"
for ((i = 0; i < pairs; i++)); do
    seed=$((first_seed + i))
    order=(parent change)
    ((i % 2)) && order=(change parent)
    for s in "${order[@]}"; do
        result="$(side "$s" "$seed")"
        echo "$s $seed $result" >>"$results"
        echo "pair $((i + 1))/$pairs, seed $seed: $s done" >&2
    done
done

row="$work/out/${workload}_row.json"
awk -v workload="$workload" -v row="$row" -v pr="$record" -v first_seed="$first_seed" \
    -v parent="$(git rev-parse --short "$parent_ref")" '
# Which way is better, and which metrics are exact, from the "end_to_end"
# list of BENCHMARK.json.
FILENAME == ARGV[1] {
    if (/^  "/) listed = /"end_to_end"/
    if (!listed) next
    if (match($0, /"name": *"[^"]*"/)) { name = $0; sub(/.*"name": *"/, "", name); sub(/".*/, "", name) }
    if (match($0, /"unit": *"[^"]*"/)) { u = $0; sub(/.*"unit": *"/, "", u); sub(/".*/, "", u); unit[name] = u }
    if (match($0, /"better": *"[^"]*"/)) {
        b = $0; sub(/.*"better": *"/, "", b); sub(/".*/, "", b)
        better[name] = b; metrics[++n_metrics] = name
    }
    next
}
{
    side = $1; seed = $2; value[side, "cal", seed] = $3
    if ($0 !~ /"correct": true/ || $0 !~ /"failed": 0[,}]/) { bad = bad "  " side " on seed " seed "\n" }
    if (!(seed in seen)) { seen[seed] = 1; n_pairs++ }
    for (m = 1; m <= n_metrics; m++) {
        v = $0
        if (!sub(".*\"" metrics[m] "\": *\\{\"value\": *", "", v)) { bad = bad "  " side " on seed " seed " printed no " metrics[m] "\n"; continue }
        sub(/[,}].*/, "", v)
        value[side, metrics[m], seed] = v + 0
    }
}
function quartiles(side, metric,    n, i, j, t, x, p, k, s) {
    n = 0
    for (s in seen) x[++n] = value[side, metric, s]
    for (i = 2; i <= n; i++) { t = x[i]; for (j = i - 1; j >= 1 && x[j] > t; j--) x[j + 1] = x[j]; x[j + 1] = t }
    for (k = 1; k <= 3; k++) {
        p = k * (n + 1) / 4; i = int(p)
        if (i < 1) q[k] = x[1]; else if (i >= n) q[k] = x[n]; else q[k] = x[i] + (p - i) * (x[i + 1] - x[i])
    }
}
END {
    printf "%s: %d pairs, parent -> change\n", workload, n_pairs
    for (m = 1; m <= n_metrics; m++) {
        name = metrics[m]; lower = better[name] == "lower"
        below = above = 0
        for (s in seen) {
            d = value["change", name, s] - value["parent", name, s]
            below += d < 0; above += d > 0
        }
        won = lower ? below : above; lost = lower ? above : below
        quartiles("parent", name); p1 = q[1]; p2 = q[2]; p3 = q[3]
        quartiles("change", name)
        if (unit[name] ~ /^(s|us|1\/s|MiB)$/) {
            gap = q[2] - p2; if (lower) gap = -gap
            timed = timed sprintf("%s\"%s\": {\"parent\": [%.6g, %.6g, %.6g], \"change\": [%.6g, %.6g, %.6g], \"won\": %d, \"lost\": %d}", \
                timed == "" ? "" : ", ", name, p1, p2, p3, q[1], q[2], q[3], won, lost)
            printf "  %-17s %.6g [%.6g, %.6g] -> %.6g [%.6g, %.6g] %s; parent quartile distance %.3g; change better on %d, worse on %d of %d%s\n", \
                name, p2, p1, p3, q[2], q[1], q[3], unit[name], p3 - p1, won, lost, n_pairs, \
                (n_pairs >= 10 && won * 10 >= n_pairs * 9 && gap > p3 - p1) ? "  (a gain by the rule)" : ""
        } else {
            verdict = !(below + above) ? "equal on every pair" : !above ? "lower" : !below ? "higher" : "lower on some pairs, higher on others"
            printf "  %-17s exact: %s (medians %.6g -> %.6g %s)\n", name, verdict, p2, q[2], unit[name]
            exact = exact sprintf("%s\"%s\": [%.6g, %.6g]", exact == "" ? "" : ", ", name, p2, q[2])
        }
    }
    quartiles("parent", "cal"); p2 = q[2]; quartiles("change", "cal")
    printf("{\"pr\": %d, \"parent\": \"%s\", \"workload\": \"%s\", \"seeds\": [%d, %d], \"pairs\": %d, \"timed\": {%s}, \"exact\": {%s}, \"cal.kernel_us_p50\": [%.6g, %.6g]}\n", \
        pr, parent, workload, first_seed, first_seed + n_pairs - 1, n_pairs, timed, exact, p2, q[2]) >row
    if (bad != "") { printf "FAILED or incorrect ops:\n%s", bad; exit 1 }
}' BENCHMARK.json "$results"

# The trajectory file is a JSON array, one row per line: the new row goes
# before the closing bracket.
if [[ -n $record ]]; then
    history=BENCH_HISTORY.json
    [[ -s $history ]] || printf '[\n]\n' >"$history"
    sed -i '$d' "$history"
    sed -i '$s/}$/},/' "$history"
    cat "$row" >>"$history"
    echo ']' >>"$history"
    echo "recorded in $history" >&2
fi
