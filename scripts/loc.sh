#!/usr/bin/env bash
# Non-test code lines per crate and in total, by the rule CHANGES.md quotes:
# every `.rs` file under `crates/*/src` and `crates/*/benches`; blank lines,
# `//` comment lines and everything from a `#[cfg(test)]` `mod` (private,
# `pub`, `pub(crate)` or `pub(super)`) to the end of the file are not counted.
#
#   scripts/loc.sh                the working tree
#   scripts/loc.sh --since <ref>  `crate  before → after  (±n)` against <ref>,
#                                 whose crates/ is unpacked (`git archive`)
#                                 under target/loc/: nothing is left in .git,
#                                 nothing fetched, bash and awk only
#   scripts/loc.sh --lines        every counted line of the working tree, as
#                                 `<file>:<line>:<text>` (what check.sh's
#                                 gates search)
set -euo pipefail
cd "$(dirname "$0")/.."

# lines <root>: every counted line under <root>/crates, `<file>:<line>:<text>`,
# files in sorted order.
lines() {
    (cd "$1" && find crates -name '*.rs' \( -path 'crates/*/src/*' -o -path 'crates/*/benches/*' \) -print0 \
        | sort -z | xargs -0 awk '
    FNR == 1 { tests = 0; held = "" }
    tests || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
    # `#[cfg(test)]` counts only when what it gates is not a test module.
    /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { held = FILENAME ":" FNR ":" $0; next }
    held != "" && /^[[:space:]]*(pub(\((crate|super)\))? )?mod / { tests = 1; next }
    {
        if (held != "") print held
        held = ""
        print FILENAME ":" FNR ":" $0
    }')
}

# count <root>: `<crate> <lines>` for every crate under <root>/crates, sorted,
# then `total <lines>`.
count() {
    lines "$1" | awk -F: '
    { split($1, path, "/"); n[path[2]]++; total++ }
    END {
        for (crate in n) print crate, n[crate] | "sort"
        close("sort")
        print "total", total
    }'
}

if [[ $# -eq 0 ]]; then
    count . | awk '{ printf "%-10s %6d\n", $1, $2 }'
elif [[ $# -eq 1 && $1 == --lines ]]; then
    lines .
elif [[ $# -eq 2 && $1 == --since ]]; then
    before="$PWD/target/loc/before"
    rm -rf "$before"
    mkdir -p "$before"
    git archive "$2" crates | tar -x -C "$before"
    # A crate on one side only counts 0 on the other; `total` stays last.
    { count "$before" | sed 's/^/before /'; count . | sed 's/^/after /'; } | awk '
    { n[$1, $2] = $3; seen[$2] = 1 }
    function row(crate) {
        return sprintf("%-10s %6d → %6d  (%+d)", crate, n["before", crate], n["after", crate], n["after", crate] - n["before", crate])
    }
    END {
        for (crate in seen) if (crate != "total") print row(crate) | "sort"
        close("sort")
        print row("total")
    }'
else
    echo "usage: scripts/loc.sh [--since <ref> | --lines]" >&2
    exit 2
fi
