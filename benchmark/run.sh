#!/usr/bin/env bash
# Builds the benchmark offline and runs it.
#
#   benchmark/run.sh --workload <serve_read|serve_write|migrate|failover|all>
#                    [--seed N] [--seconds S] [--trace 0|1]
#
# Standard output is the program's: every metric by name and unit, then one
# JSON object per workload, the last line being the result the driver reads.
# The only files written are the span files of a traced run, under
# benchmark/out/. Run from anywhere; a relative CARGO_TARGET_DIR is taken
# relative to where you stand. Without one, benchmark/.cargo/config.toml
# shares the repository's own target directory.
set -euo pipefail

if [[ -n "${CARGO_TARGET_DIR:-}" && "${CARGO_TARGET_DIR}" != /* ]]; then
    export CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR"
fi
cd "$(dirname "${BASH_SOURCE[0]}")"
exec cargo run --release --offline --quiet -- --out out "$@"
