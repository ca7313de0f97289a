#!/usr/bin/env bash
# The noise study: two sets of ten end-to-end runs of the same build per
# workload, alternating A, B, A, B, ..., run i of either set on seed i.
# For every end-to-end metric it prints each set's median and quartiles
# (Python's statistics.quantiles(values, n=4), as the driver computes
# them), the quartile distance as a share of the median, how far set B's
# median is from set A's on the worse side, and whether all of that stays
# inside the bound BENCHMARK.json fixes. Run i of set A and run i of set B
# see the same inputs, so their exact metrics must be identical.
#
#   benchmark/noise.sh [workload ...]        (default: all four)
#
# It also fits each workload's calibration exponent on the 200 repetitions
# it has just run (slope of log raw time on log calibration reading) and
# prints it beside the one committed in src/workloads.rs.
#
# Takes about five minutes per workload. What each run printed is kept in
# benchmark/out/noise_<workload>_<A|B>.txt.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
workloads=("$@")
if [[ ${#workloads[@]} -eq 0 ]]; then
    workloads=(serve_read serve_write migrate failover)
fi
mkdir -p "$here/out"
for w in "${workloads[@]}"; do
    : >"$here/out/noise_${w}_A.txt"
    : >"$here/out/noise_${w}_B.txt"
    for seed in 1 2 3 4 5 6 7 8 9 10; do
        for set in A B; do
            "$here/run.sh" --workload "$w" --seed "$seed" --trace 0 \
                >>"$here/out/noise_${w}_${set}.txt"
        done
    done
done

python3 - "$here" "${workloads[@]}" <<'PY'
import json, math, re, statistics, sys

here, workloads = sys.argv[1], sys.argv[2:]
spec = json.load(open(f"{here}/../BENCHMARK.json"))
print("| workload | metric | bound | A median [q1, q3] | A spread | B median [q1, q3] | B spread | B worse by | inside |")
print("|---|---|---|---|---|---|---|---|---|")
ok = True
for w in workloads:
    lines = {s: open(f"{here}/out/noise_{w}_{s}.txt").read().splitlines() for s in "AB"}
    runs = {s: [json.loads(l) for l in lines[s] if l.startswith("{")] for s in "AB"}
    for s in "AB":
        assert len(runs[s]) == 10 and all(r["correct"] and r["failed"] == 0 for r in runs[s]), (w, s)
    for m in spec["end_to_end"]:
        name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
        cells, medians, spreads = [], [], []
        for s in "AB":
            v = [r["metrics"][name]["value"] for r in runs[s]]
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            medians.append(med)
            spreads.append((q3 - q1) / med)
            cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}] | {100 * spreads[-1]:.2f} %")
        worse = (medians[1] - medians[0]) / medians[0] * (1 if lower else -1)
        inside = worse <= bound and (name == "setup_s" or max(spreads) <= bound)
        ok &= inside
        print(f"| {w} | {name} | {100 * bound:g} % | {cells[0]} | {cells[1]} | {100 * worse:+.2f} % | {'yes' if inside else 'NO'} |")
    exact = [m["name"] for m in spec["end_to_end"] if m["unit"] not in ("s", "us", "1/s", "MiB")]
    for a, b in zip(runs["A"], runs["B"]):
        for name in exact:
            if a["metrics"][name] != b["metrics"][name]:
                ok = False
                print(f"exact metric {name} of {w} differs between two runs on one seed: {a['metrics'][name]} vs {b['metrics'][name]}")
    # The calibration exponent: least-squares slope of log(raw time of a
    # repetition) on log(its mean calibration reading), over both sets.
    reps = [re.match(r"rep \d+: raw_ms (\S+) kernel_us (\S+)", l) for s in "AB" for l in lines[s]]
    y = [math.log(float(m.group(1))) for m in reps if m]
    x = [math.log(float(m.group(2))) for m in reps if m]
    mx, my = sum(x) / len(x), sum(y) / len(y)
    sxx = sum((a - mx) ** 2 for a in x)
    slope = sum((a - mx) * (b - my) for a, b in zip(x, y)) / sxx
    spread = math.sqrt(sxx / len(x))
    print(f"calibration exponent of {w}, fitted on {len(x)} repetitions whose readings spread {100 * spread:.1f} %: {slope:.2f}")
print("every metric inside its bound" if ok else "NOT every metric inside its bound")
sys.exit(0 if ok else 1)
PY
