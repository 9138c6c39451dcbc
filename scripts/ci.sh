#!/usr/bin/env bash
# Full local gate: release build, every smoke, the whole test suite, the
# end-to-end benchmark as a smoke, and clippy with warnings promoted to
# errors. Run from the repo root. Nothing here needs a registry or a
# network: the workspace depends on nothing outside the repository.
#
# Usage: scripts/ci.sh [target]
#
# Targets (each is a fast loop for one layer; no target runs the full
# gate, which is every smoke below plus `cargo test --workspace`,
# bench_quick and clippy). Tests build on the dev profile, which is
# optimized with overflow checks and debug assertions on (Cargo.toml):
#   robustness_smoke  end-to-end chaos run: perturbation + diagnosis
#   fleet_smoke       4-instance multiplexed ingest + diagnosis round-trip
#   scaling_smoke     shards 1/2/4 close bit-identical cases + the
#                     run_full row of the equivalence matrix
#   obs_smoke         chrome-trace export + zero-cost disabled observer
#   kernel_smoke      fast kernels vs scalar reference, the cell store vs
#                     its map-per-second oracle, the chunked record ring vs
#                     its VecDeque oracle, runs of N vs runs of one: bit
#                     for bit
#   snapshot_smoke    snapshot wire/property suites against the committed
#                     golden blob, restore refusing what the fold never
#                     stores, checkpoint bytes and handoff order, the
#                     matrix's reshard and checkpoint -> resume rows,
#                     snapshot-size / restore-latency gate
#   daemon_smoke      resident daemon: control-wire hardening, report and
#                     epoch contracts, the matrix's daemon row,
#                     push-pause / restart gate
#   case_cut_smoke    incremental window cut: running-moment rows bit-
#                     identical to the reference derivation
#   transport_smoke   cross-process ingest: the loopback pipe vs its
#                     byte-queue oracle, PEVT wire hardening, TCP framing /
#                     region server / credit deadlock / wire extremes and
#                     the event-time extremes sweep, the matrix's two
#                     loopback rows, backpressure faults
#   equivalence       the whole execution-path x matrix-point table
#                     against the golden corpus (tests/equivalence.rs,
#                     one #[test] per path; ~8 min on 2 cores)
#   bench_quick       `benchmark/run.sh --quick`: every workload of the
#                     end-to-end benchmark, short, through every drive;
#                     fails unless all four come back correct with no
#                     failed operation (its numbers mean nothing)
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
  sed -n '2,43p' "$0" | sed 's/^# \{0,1\}//' >&2
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
# name filters; none runs the whole table. --nocapture prints each path's
# wall time.
matrix() {
  cargo test -q --test equivalence -- --nocapture "$@"
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
# reference, the cell store to the map-per-second oracle in its test
# module and the chunked record ring to the VecDeque ring it replaced
# (seeded op-sequence sweeps), and the fold entered as runs of N to the
# fold entered as runs of one.
kernel_smoke() {
  cargo test -q --test kernel_props
  cargo test -q -p pinsql-collector cellstore
  cargo test -q -p pinsql-collector records::tests::chunked_ring_matches_the_deque_oracle
  cargo test -q --test cellstore_props
}

# Checkpoint/restore + live resharding: the collector's and the engine's
# PSNP unit tests (the collector's `checkpoint` filter includes the two
# restore refusals, checkpoint_rejects_a_sorted_flag_over_unsorted_records
# and checkpoint_rejects_a_cell_row_naming_a_slot_twice), the
# wire-hardening suite (committed golden blob, v2 only, reserved bytes)
# and the property suite, checkpoint-bytes / shipped-bytes /
# handoff-order checks, then the bench-bin gate that keeps snapshot
# bytes/instance and restore latency inside sane bounds.
snapshot_smoke() {
  cargo test -q -p pinsql-collector checkpoint
  cargo test -q -p pinsql-engine snapshot
  cargo test -q --test snapshot_wire
  cargo test -q --test snapshot_props
  cargo test -q --test crash_recovery
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
  cargo test -q --test daemon
  matrix daemon_push_restart
  cargo run --release -q -p pinsql-bench --bin daemon -- --gate
}

# Incremental window cut: the running-moment property suite (cut rows
# bit-identical to the reference derivation under random/perturbed/
# evicting/restored streams).
case_cut_smoke() {
  cargo test -q --test cut_props
}

# Cross-process ingest transport: engine wire/transport unit tests (with
# the seeded sweep of the frame-queue loopback pipe against the byte-queue
# oracle it replaced), the PEVT adversarial suite with its committed golden
# frame, the collector's three time-jump cases, the TCP smoke / TcpConn
# framing over 127.0.0.1 / region server / credit deadlock /
# protocol-violation / wire-extreme suite with the seeded event-time
# extremes sweep (direct, chunked and over the wire), the matrix's two
# loopback rows (mid-stream reconnect included) and the backpressure/
# fault-injection soak, which holds the credit and memory bounds.
transport_smoke() {
  cargo test -q -p pinsql-engine transport
  cargo test -q -p pinsql-engine wire
  cargo test -q --test event_wire
  cargo test -q -p pinsql-collector time_jump
  cargo test -q --test transport
  matrix loopback
  cargo test -q --test backpressure
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
  bench_quick)
    bench_quick
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
# The whole suite, every crate, matrix included — on the dev profile:
# optimized, overflow checks and debug assertions on.
cargo test -q --workspace
bench_quick
cargo clippy --workspace --all-targets -- -D warnings
