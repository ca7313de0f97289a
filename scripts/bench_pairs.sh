#!/usr/bin/env bash
# Seed-for-seed pairs of benchmark runs, a parent commit against the working
# tree, by the rule every perf PR is held to: at least ten pairs, alternating
# which side runs first; a gain counts when the change wins nine tenths of the
# pairs and the medians lie further apart than the parent's own quartiles.
#
#   scripts/bench_pairs.sh [--record <pr>] [--self] <parent-ref> <workload> [first-seed=1] [pairs=10]
#
# With `--self` the parent is built for both sides and nothing of the working
# tree is read: what the pairs then show is the layout-noise floor, the
# distance two builds of one commit read apart. A recorded row says
# `"self": true`.
#
# The workload `all` runs every workload of BENCHMARK.json in its order, each
# as if named alone: a table (and a recorded row) per workload.
#
# Once per invocation, after the pairs, each side's perf_guard bin is built
# and run, and each of its phase tables — a failover round's, a migrate op's,
# and a serve_read and a serve_write tick's calls and allocations per phase —
# is printed as one parent -> change table, the rows that moved marked (a
# table or row one side lacks reads `-` there). The counts are exact: one run
# a side says all there is.
#
# Each side is built in two slots, a and b: unpacked (the parent with `git
# archive`, the change from the working tree) with the time of unpacking
# rather than its own, so that no earlier build is reused, at the slot's
# source path target/bench_pairs/<slot>-src/, and built by its own
# benchmark/run.sh into the slot's CARGO_TARGET_DIR target/bench_pairs/<slot>/;
# between runs the four builds wait under target/bench_pairs/built/, and a run
# moves its build back into its slot, so a binary always runs from where it
# was built. Pair i runs both sides on seed first-seed + i, the first in slot
# a and the second in slot b, the order alternating: each side runs half its
# pairs in each slot, and a slot's layout bias, which read 2-9 % on every
# workload with one commit on both sides, cancels in the medians.
# Bash and awk only, nothing fetched;
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
# kernel's p50 on each side, which says how busy the host was). Each row also
# carries `phase_allocs`: the allocation column of the perf_guard phase table
# of its workload, parent and change per phase, so the trajectory shows which
# layer each change moved. The rows are appended
# once every workload's pairs and the phase tables are in. It holds
# wall-clock numbers, so it lives outside results/, whose files are diffed
# byte for byte. One row per line, so that a row is appended, or back-filled
# by hand from a PR's own tables, without a JSON tool; a back-filled row says
# `null` where its table gave no quartile and carries the parent's quartile
# distance as `parent_iqr`.
set -euo pipefail

record="" self=false
while [[ ${1:-} == --* ]]; do
    case $1 in
    --record) record="${2:?--record takes the PR number}"; shift 2 ;;
    --self) self=true; shift ;;
    *) echo "unknown option $1" >&2; exit 2 ;;
    esac
done
if [[ $# -lt 2 || $# -gt 4 ]]; then
    echo "usage: scripts/bench_pairs.sh [--record <pr>] [--self] <parent-ref> <workload|all> [first-seed=1] [pairs=10]" >&2
    exit 2
fi
parent_ref="$1" workload="$2" first_seed="${3:-1}" pairs="${4:-10}"

cd "$(dirname "$0")/.."
if [[ $workload == all ]]; then
    workloads=$(awk '/^  "/ { listed = /"workloads"/ }
        listed && sub(/.*"name": *"/, "") { sub(/".*/, ""); print }' BENCHMARK.json)
else
    workloads=$workload
fi
work="$PWD/target/bench_pairs"
rm -rf "$work"
mkdir -p "$work/built" "$work/out"

# unpack <side> <dir>: the side's files into <dir>. The change is the working
# tree's files, tracked or not (ignored ones left out).
unpack() {
    mkdir -p "$2"
    if [[ $1 == parent ]] || $self; then
        git archive "$parent_ref" | tar -x -m -C "$2"
    else
        git ls-files -z -co --exclude-standard | while IFS= read -r -d '' f; do
            if [[ -e $f ]]; then printf '%s\0' "$f"; fi
        done | tar --null -T - -cf - | tar -x -m -C "$2"
    fi
}

# in_slot <side> <slot> <command...>: runs <command> with the side's build of
# that slot moved into it, CARGO_TARGET_DIR naming the slot's target
# directory, and moves the build aside again after.
in_slot() {
    local side=$1 slot=$2 status=0
    shift 2
    mv "$work/built/$side-$slot-src" "$work/$slot-src"
    mv "$work/built/$side-$slot" "$work/$slot"
    (export CARGO_TARGET_DIR="$work/$slot" && "$@") || status=$?
    mv "$work/$slot-src" "$work/built/$side-$slot-src"
    mv "$work/$slot" "$work/built/$side-$slot"
    return "$status"
}

# build <slot>: the benchmark in the slot, as its run.sh builds it.
build() {
    (cd "$work/$1-src/benchmark" && cargo build -q --release --offline)
}

for s in parent change; do
    for slot in a b; do
        unpack "$s" "$work/built/$s-$slot-src"
        mkdir "$work/built/$s-$slot"
        echo "building $s in slot $slot" >&2
        in_slot "$s" "$slot" build "$slot"
    done
done

# side <parent|change> <slot> <seed>: one run of $workload; on stdout the
# calibration kernel's p50 (from the run's heading), then its last line (the
# result).
side() {
    local out
    out="$(in_slot "$1" "$2" "$work/$2-src/benchmark/run.sh" \
        --workload "$workload" --seed "$3" --trace 0)"
    echo "$out" >>"$work/out/${workload}_$1.txt"
    echo "$(sed -n '1s/.*calibration kernel.* p50 \([0-9.]*\) us.*/\1/p' <<<"$out") $(tail -n 1 <<<"$out")"
}

# Per workload: its pairs, its table and, with --record, its row. A run
# that reports a failed or incorrect op stops the script.
for workload in $workloads; do
    : >"$work/out/${workload}_parent.txt"
    : >"$work/out/${workload}_change.txt"
    results="$work/out/${workload}_pairs.txt"
    : >"$results"
    for ((i = 0; i < pairs; i++)); do
        seed=$((first_seed + i))
        order=(parent change)
        ((i % 2)) && order=(change parent)
        slots=(a b)
        for k in 0 1; do
            s=${order[k]}
            result="$(side "$s" "${slots[k]}" "$seed")"
            echo "$s $seed $result" >>"$results"
            echo "pair $((i + 1))/$pairs, seed $seed: $s done (slot ${slots[k]})" >&2
        done
    done

    row="$work/out/${workload}_row.json"
    awk -v workload="$workload" -v row="$row" -v pr="$record" -v self="$self" -v first_seed="$first_seed" \
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
        printf "%s: %d pairs, parent -> change%s\n", workload, n_pairs, self == "true" ? " (both sides the parent)" : ""
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
        printf("{\"pr\": %d, %s\"parent\": \"%s\", \"workload\": \"%s\", \"seeds\": [%d, %d], \"pairs\": %d, \"timed\": {%s}, \"exact\": {%s}, \"cal.kernel_us_p50\": [%.6g, %.6g]}\n", \
            pr, self == "true" ? "\"self\": true, " : "", parent, workload, first_seed, first_seed + n_pairs - 1, n_pairs, timed, exact, p2, q[2]) >row
        if (bad != "") { printf "FAILED or incorrect ops:\n%s", bad; exit 1 }
    }' BENCHMARK.json "$results"
done

# Both sides' perf_guard phase tables, row by row. perf_guard exits non-zero
# on a row broken on its own terms; its tables are printed either way. Each
# table's allocation column also goes to phase_allocs_<workload>.json, the
# `phase_allocs` member of that workload's recorded row.
perf_guard() {
    (cd "$work/a-src" && cargo run -q --offline --release -p dosgi-bench --bin perf_guard 2>/dev/null)
}
for s in parent change; do
    in_slot "$s" a perf_guard >"$work/out/perf_guard_$s.txt" || echo "perf_guard failed on the $s side" >&2
done
rm -f "$work"/out/phase_allocs_*.json
awk -v out="$work/out" '
FNR == 1 { side = FILENAME == ARGV[1] ? "parent" : "change"; table = "" }
/^## / {
    table = ""
    if (/^## perf_guard .*phases/) {
        table = $0; sub(/^## perf_guard /, "", table)
        if (!(table in known)) { known[table] = 1; tables[++n_tables] = table }
    }
    next
}
table != "" && /^\|/ {
    n = split($0, cell, "|")
    for (i = 2; i < n; i++) gsub(/^ +| +$/, "", cell[i])
    if (cell[2] == "phase") { head[table] = sprintf("| %-21s | %-27s | %-27s | moved |", "phase", cell[3], cell[4]); next }
    if (cell[2] ~ /^-+$/) next
    if (!((table, cell[2]) in listed)) { listed[table, cell[2]] = 1; rows[table, ++n_rows[table]] = cell[2] }
    calls[side, table, cell[2]] = cell[3]; allocs[side, table, cell[2]] = cell[4]
}
END {
    for (t = 1; t <= n_tables; t++) {
        table = tables[t]
        printf "\n%s, parent -> change\n\n%s\n", table, head[table]
        printf "| --------------------- | --------------------------- | --------------------------- | ----- |\n"
        for (i = 1; i <= n_rows[table]; i++) {
            r = rows[table, i]
            for (k = 1; k <= 2; k++) {
                what = k == 1 ? "calls" : "allocs"
                was = k == 1 ? calls["parent", table, r] : allocs["parent", table, r]
                now = k == 1 ? calls["change", table, r] : allocs["change", table, r]
                cellof[k] = (was == "" ? "-" : was) " -> " (now == "" ? "-" : now)
                moved[k] = was != now
            }
            printf "| %-21s | %-27s | %-27s | %-5s |\n", r, cellof[1], cellof[2], (moved[1] || moved[2]) ? "yes" : ""
            was = allocs["parent", table, r]; now = allocs["change", table, r]
            json = json sprintf("%s\"%s\": [%s, %s]", i == 1 ? "" : ", ", r, was == "" ? "null" : was + 0, now == "" ? "null" : now + 0)
        }
        # The table of a failover round goes with the failover row, a
        # migrate op'"'"'s with the migrate row and a serve tick'"'"'s with its
        # workload'"'"'s row.
        workload = table ~ /serve_read/ ? "serve_read" : table ~ /serve_write/ ? "serve_write" \
            : table ~ /failover/ ? "failover" : table ~ /migrate/ ? "migrate" : ""
        if (workload != "") printf "\"phase_allocs\": {%s}", json >(out "/phase_allocs_" workload ".json")
        json = ""
    }
}' "$work/out/perf_guard_parent.txt" "$work/out/perf_guard_change.txt"

# The trajectory file is a JSON array, one row per line: each new row goes
# before the closing bracket, with its workload's phase allocations, if any,
# as its last member.
if [[ -n $record ]]; then
    history=BENCH_HISTORY.json
    [[ -s $history ]] || printf '[\n]\n' >"$history"
    for workload in $workloads; do
        row="$work/out/${workload}_row.json"
        phases="$work/out/phase_allocs_${workload}.json"
        sed -i '$d' "$history"
        sed -i '$s/}$/},/' "$history"
        if [[ -s $phases ]]; then
            sed "s/}\$/, $(sed 's/[\/&]/\\&/g' "$phases")}/" "$row" >>"$history"
        else
            cat "$row" >>"$history"
        fi
        echo ']' >>"$history"
    done
    echo "recorded in $history" >&2
fi
