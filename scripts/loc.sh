#!/usr/bin/env bash
# Non-test code lines per crate and in total, by the rule CHANGES.md quotes:
# every `.rs` file under `crates/*/src` and `crates/*/benches`; blank lines,
# `//` comment lines and everything from a `#[cfg(test)]` `mod` to the end of
# the file are not counted.
set -euo pipefail
cd "$(dirname "$0")/.."

find crates -name '*.rs' \( -path 'crates/*/src/*' -o -path 'crates/*/benches/*' \) -print0 \
    | sort -z | xargs -0 awk '
    FNR == 1 { tests = 0; held = 0 }
    tests || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
    # `#[cfg(test)]` counts only when what it gates is not a test module.
    /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { held = 1; next }
    held && /^[[:space:]]*(pub )?mod / { tests = 1; next }
    { split(FILENAME, path, "/"); lines[path[2]] += 1 + held; total += 1 + held; held = 0 }
    END {
        for (crate in lines) printf "%-10s %6d\n", crate, lines[crate] | "sort"
        close("sort")
        printf "%-10s %6d\n", "total", total
    }'
