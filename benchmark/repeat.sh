#!/usr/bin/env bash
# Runs the full set twice on the same commit and prints, per workload and
# end-to-end metric, both medians, the relative difference and the bound
# from BENCHMARK.json. Exits non-zero if any pair differs by more than its
# bound, or if a metric that is a pure function of the inputs differs at all.
#
#   benchmark/repeat.sh [--seed N] [--quick]
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

"$here/run.sh" "$@"
cp "$here/out/results.json" "$here/out/results.first.json"
"$here/run.sh" "$@"

target="${CARGO_TARGET_DIR:-$here/target}"
"$target/release/pinsql-benchmark" compare \
    "$here/out/results.first.json" "$here/out/results.json" \
    --bounds "$here/../BENCHMARK.json"
