#!/usr/bin/env bash
# Full local gate: release build, every smoke, the whole test suite, and
# clippy with warnings promoted to errors. Run from the repo root.
#
# Usage: scripts/ci.sh [target]
#
# Targets (each is a fast loop for one layer; no target runs the full
# gate, which includes every smoke below plus `cargo test` and clippy):
#   robustness_smoke  end-to-end chaos run: perturbation + diagnosis
#   fleet_smoke       4-instance multiplexed ingest + diagnosis round-trip
#   scaling_smoke     shards 1/2/4 close bit-identical cases + the
#                     run_full row of the equivalence matrix
#   obs_smoke         chrome-trace export + zero-cost disabled observer
#   kernel_smoke      fast kernels vs scalar reference + dense-store
#                     throughput-ratio regression gate
#   snapshot_smoke    snapshot wire/property suites, checkpoint bytes and
#                     handoff order, the matrix's reshard and checkpoint
#                     -> resume rows, snapshot-size / restore-latency gate
#   daemon_smoke      resident daemon: control-wire hardening, report and
#                     epoch contracts, the matrix's daemon row,
#                     push-pause / restart gate
#   case_cut_smoke    incremental window cut: running-moment property
#                     suite + cut-assembly speedup regression gate
#   transport_smoke   cross-process ingest: PEVT wire hardening, TCP /
#                     region server / wire extremes, the matrix's two
#                     loopback rows, backpressure faults,
#                     throughput/latency sanity gate
#   equivalence       the whole execution-path x matrix-point table
#                     against the golden corpus (tests/equivalence.rs,
#                     one #[test] per path; release, ~7 min on 2 cores)
#   offline_smoke     the suites that need no registry, by real
#                     `cargo test --offline` from tests/offline (its own
#                     workspace over the stand-ins in benchmark/shims),
#                     the equivalence matrix and five crates' unit tests
#                     included, then bench_quick; skips the root build
#                     and is not part of `all`
#   bench_quick       `benchmark/run.sh --quick`: every workload of the
#                     end-to-end benchmark, short, through every drive;
#                     fails unless all four come back correct with no
#                     failed operation (its numbers mean nothing)
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
  sed -n '2,40p' "$0" | sed 's/^# \{0,1\}//' >&2
}

# End-to-end chaos: a tiny run that exercises perturbation + diagnosis
# together.
robustness_smoke() {
  cargo test -q -p pinsql-eval robustness_smoke
}

# Fleet engine: a 4-instance multiplexed ingest + diagnosis round-trip
# through the online path.
fleet_smoke() {
  cargo test -q -p pinsql-engine fleet_smoke
}

# One or more rows of the equivalence matrix (tests/equivalence.rs: one
# #[test] per execution path, each against the batch reference at every
# value of shards / fanout / kernel / cut / observer). Arguments are test
# name filters; none runs the whole table. Release: the golden corpus is
# tens of millions of events. --nocapture prints each path's wall time.
matrix() {
  cargo test -q --release --test equivalence -- --nocapture "$@"
}

equivalence() {
  matrix
}

# Sharded ingestion: shards 1/2/4 over the same small fleet must close
# bit-identical cases and diagnoses; then the same on the golden corpus.
scaling_smoke() {
  cargo test -q -p pinsql-engine scaling_smoke
  matrix run_full
}

# Observability: a recorded golden case must export a valid chrome-trace
# document, and the disabled observer must add no measurable cost to the
# ingest hot path.
obs_smoke() {
  cargo test -q --test obs_smoke
}

# Kernels: the fast kernels must stay bit-identical to the scalar
# reference (property suite), and the dense store's ingest advantage over
# the hashed reference store must not regress >20% against the committed
# summary. The gate compares the machine-neutral dense/hashed throughput
# ratio, so it holds on slow CI hosts too.
kernel_smoke() {
  cargo test -q --test kernel_props
  cargo run --release -q -p pinsql-bench --bin ingest_rate -- --check BENCH_ingest_loop.json
}

# Checkpoint/restore + live resharding: engine-crate unit tests, the
# wire-hardening and property suites, checkpoint-bytes / shipped-bytes /
# handoff-order checks, then the bench-bin gate that keeps snapshot
# bytes/instance and restore latency inside sane bounds.
snapshot_smoke() {
  cargo test -q -p pinsql-engine snapshot
  cargo test -q --test snapshot_wire
  cargo test -q --test snapshot_props
  cargo test -q --release --test crash_recovery
  matrix reshard_ resume_at_
  cargo run --release -q -p pinsql-bench --bin reshard -- --gate
}

# Resident fleet daemon: control/daemon unit tests, PCTL wire hardening,
# the report and epoch contracts, the matrix's daemon row (mid-stream
# config push + graceful restart, byte-identical to a cold start), then
# the bench-bin gate that keeps the config-push pause and restart
# recovery inside sane bounds.
daemon_smoke() {
  cargo test -q -p pinsql-engine control
  cargo test -q -p pinsql-engine daemon
  cargo test -q --test control_wire
  cargo test -q --release --test daemon
  matrix daemon_push_restart
  cargo run --release -q -p pinsql-bench --bin daemon -- --gate
}

# Incremental window cut: the running-moment property suite (cut rows
# bit-identical to the reference derivation under random/perturbed/
# evicting/restored streams) and the bench-bin gate that keeps the
# machine-neutral reference-over-incremental cut-assembly speedup from
# regressing >20% against the committed summary.
case_cut_smoke() {
  cargo test -q --test cut_props
  cargo run --release -q -p pinsql-bench --bin case_cut -- --gate BENCH_case_cut.json
}

# Cross-process ingest transport: engine wire/transport unit tests, the
# PEVT adversarial suite with its committed golden frame, the TCP smoke /
# region server / protocol-violation / wire-extreme suite, the matrix's
# two loopback rows (mid-stream reconnect included), the
# backpressure/fault-injection soak, then the bench-bin gate that keeps
# the credit/memory bounds and the p99 frame-latency ceiling honest.
transport_smoke() {
  cargo test -q -p pinsql-engine transport
  cargo test -q -p pinsql-engine wire
  cargo test -q --test event_wire
  cargo test -q --release --test transport
  matrix loopback
  cargo test -q --release --test backpressure
  cargo run --release -q -p pinsql-bench --bin transport -- --gate
}

# What builds and runs with an empty cargo registry (ROADMAP item 0):
# tests/offline is a workspace of its own whose [patch.crates-io] points
# at the stand-in crates under benchmark/shims, so this is real `cargo
# test`. It covers the integration suites that need neither proptest nor
# a working serde_json — the equivalence matrix and every other
# golden-corpus suite among them — plus the unit tests of crates/pinsql
# (the estimator's bit-identity oracle lives there), crates/collector,
# crates/engine, crates/timeseries and crates/dbsim (the wire codecs'
# oracles and the `second_of` pin live in the last three). Its dev
# profile is optimized with overflow checks and debug assertions left on
# (tests/offline/Cargo.toml says why), so one plain `cargo test` runs
# everything; --nocapture lets the matrix print its per-path wall times.
# ~12 min on 2 cores, ~8 of them the matrix; then bench_quick, ~2 min.
offline_smoke() {
  local skip=(
    # The stand-in PRNG draws a different stream than crates.io `StdRng`
    # for these two tests' fixed seeds, and their thresholds do not hold
    # on it (rank 8, wants <= 5; pressure 4.6 -> 2.3, wants < 0.5x). They
    # fail alike with and without any change to the code under test.
    --skip row_lock_pipeline
    --skip autoscale_relieves_cpu_pressure
    # Round-trip through serde_json, whose stand-in fails every call.
    --skip config::tests::delta_applies_only_present_fields
    --skip config::tests::epochs_are_ordered_and_display
    --skip config::tests::transport_policy_defaults_and_validation
    # Likewise: the FleetReport serde round trip (tests/daemon.rs). Its
    # sibling fleet_report_rollup_counts runs.
    --skip fleet_report_serde_round_trip
    # Likewise, in the unit tests of crates/timeseries (the two *Kind
    # label round trips in kernels.rs) and crates/dbsim (the boxed-metrics
    # JSON shape in telemetry.rs; the JSONL trace file in trace.rs, whose
    # empty_input_fails sibling needs no JSON and runs).
    --skip kernels::tests::cut_kind_defaults_and_labels
    --skip kernels::tests::kernel_kind_defaults_and_labels
    --skip telemetry::tests::boxed_metrics_serialize_transparently
    --skip trace::tests::jsonl_round_trip
    --skip trace::tests::truncated_input_fails
    --skip trace::tests::version_mismatch_fails
    # crates/dbsim, the stand-in PRNG again: the test wants "~1 arrival"
    # of a DDL offered at rate 1/s for one second and asserts on the
    # pile-up behind it; a Poisson(1) draw is empty with probability
    # 1/e, and at the test's fixed seed 4 this stream's is (9 of seeds
    # 0..20 are; every seed with an arrival passes). Fails alike on the
    # parent's sources.
    --skip ddl_blocks_everything_and_inflates_sessions
  )
  cargo test -q --offline --manifest-path tests/offline/Cargo.toml -- --nocapture "${skip[@]}"
  bench_quick
}

# The end-to-end benchmark as a smoke: all four workloads at a quarter of
# their size through the pipe, inline, traced, TCP, hollow and run_full
# drives, whose outcome keys must agree. run.sh exits non-zero when a
# pass is incorrect; the results file is checked as well, so a workload
# that went missing fails too.
bench_quick() {
  bash benchmark/run.sh --quick
  local ok
  ok=$(grep -o '"correct": true, "attempted": [0-9.]*, "failed": 0,' benchmark/out/results.json | wc -l)
  if [ "$ok" -ne 4 ]; then
    echo "bench_quick: $ok of 4 workloads correct with 0 failed (benchmark/out/results.json)" >&2
    exit 1
  fi
}

target="${1:-all}"

case "$target" in
  robustness_smoke|fleet_smoke|scaling_smoke|obs_smoke|kernel_smoke|snapshot_smoke|daemon_smoke|case_cut_smoke|transport_smoke|equivalence)
    cargo build --release
    "$target"
    exit 0
    ;;
  offline_smoke|bench_quick)
    "$target"
    exit 0
    ;;
  all) ;;
  -h|--help|help)
    usage
    exit 0
    ;;
  *)
    echo "unknown target: $target" >&2
    echo >&2
    usage
    exit 2
    ;;
esac

cargo build --release
# Fast-fail smokes first, cheapest layers before the heavy matrices.
robustness_smoke
fleet_smoke
scaling_smoke
obs_smoke
kernel_smoke
snapshot_smoke
daemon_smoke
case_cut_smoke
transport_smoke
# The whole suite, matrix included — optimized, like the build above:
# unoptimized, the golden-corpus suites take the better part of an hour.
cargo test -q --release
cargo clippy --workspace -- -D warnings
