#!/usr/bin/env bash
# Builds the benchmark with real cargo (offline, against the in-directory
# stand-ins for the crates.io dependencies) and runs it.
#
#   benchmark/run.sh [--seed N] [--workload NAME] [--quick]
#       every workload (or the one named): untraced drives, then the traced
#       run; prints every metric and writes benchmark/out/results.json
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one pass of one workload, result as JSON on the last line of stdout
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# Build chatter goes to stderr: stdout's last line must be the result.
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2

# Keep freed memory in the process (glibc; ignored elsewhere). Every rep
# builds a fresh daemon and drops it; left alone, malloc hands those pages
# back to the kernel at each drop and faults them in again inside the next
# rep's timers, which costs a third of the inline drive and most of its
# run-to-run noise. A resident agent keeps its heap, so this is the state
# worth timing. Results do not depend on it. Constants, like the release
# profile: whatever the caller's environment says is overridden, so every
# commit is measured under the same allocator settings.
export MALLOC_TRIM_THRESHOLD_=17179869184
export MALLOC_MMAP_THRESHOLD_=33554432
export MALLOC_TOP_PAD_=67108864

# Cargo resolves a relative CARGO_TARGET_DIR against the directory it was
# called from, which is also where we are.
target="${CARGO_TARGET_DIR:-$here/target}"
exec "$target/release/pinsql-benchmark" \
    --out "$here/out" --rustc "$(rustc --version)" "$@"
