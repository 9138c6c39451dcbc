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
#   scaling_smoke     the run_full row of the equivalence matrix: shards
#                     1/2/4 and fanout close bit-identical cases
#   obs_smoke         chrome-trace export + zero-cost disabled observer
#   kernel_smoke      slice kernels vs serial loops, the rolling median/MAD
#                     vs its allocate-and-sort oracle, the cell store vs
#                     its map-per-second oracle, the chunked record ring vs
#                     its VecDeque oracle with case views held across
#                     evictions (chunked_ring_matches_the_deque_oracle),
#                     the history store's runs vs its dense-span oracle,
#                     the online feature detector vs its batch-scan
#                     oracle, the session estimator's record sweep vs its
#                     per-template oracle and each case's record owners vs
#                     the catalog lookup (sweep_matches_oracle_bit_for_bit,
#                     cellstore_props), runs of N vs runs of one: bit for
#                     bit; the simulator's one query lifecycle pinned by
#                     three known answers, every bit of each golden entry's
#                     open-loop output (raw_simulator_output_is_pinned),
#                     a closed-loop grid (closed_loop_known_answer_grid)
#                     and 256 seeded inputs through both drivers, queries
#                     in flight at the drain cap and unsaturated closed
#                     loops among them (known_answer_sweep)
#   snapshot_smoke    snapshot wire/property suites against the committed
#                     golden blob, restore refusing what the fold never
#                     stores (minute rows of another width or outside the
#                     cell ring included), checkpoint bytes and handoff
#                     order, the matrix's reshard and checkpoint -> resume
#                     rows
#   daemon_smoke      resident daemon: control-wire hardening, report and
#                     epoch contracts over PCTL frames, config push in
#                     place (it writes no snapshot; a push alone closes a
#                     cold start's cases), the matrix's daemon row
#   case_cut_smoke    window cut: minute rows bit-identical to the
#                     per-template per_minute oracle; the cases every
#                     experiment cuts online vs the batch oracle on the
#                     shapes the matrix never runs (eval_cases); the
#                     truth-free window selector (longest phenomenon, else
#                     the whole stream), a negative closing to the same
#                     window whatever was injected, and the negatives'
#                     false-positive guard (negative_cases)
#   transport_smoke   cross-process ingest: the loopback pipe vs its
#                     byte-queue oracle, PEVT wire hardening, TCP framing /
#                     region server / credit deadlock / wire extremes and
#                     the event-time extremes sweep, the matrix's two
#                     loopback rows, backpressure faults
#   equivalence       the whole execution-path x matrix-point table
#                     against the golden corpus (tests/equivalence.rs,
#                     one #[test] per path; ~40 s on 2 cores)
#   bench_quick       `benchmark/run.sh --quick`: every workload of the
#                     end-to-end benchmark, short, through every drive;
#                     fails unless all four come back correct with no
#                     failed operation (its numbers mean nothing)
#
# Every `cargo test` below that names a filter fails when the filter runs
# no test at all, so a deleted or renamed test cannot leave its smoke
# silently green.
set -euo pipefail
cd "$(dirname "$0")/.."

# Prints the header comment above: every line after the shebang up to
# the first that is not a comment.
usage() {
  awk 'NR > 1 { if (!/^#/) exit; sub(/^# ?/, ""); print }' "$0" >&2
}

# `cargo test -q ARGS`, echoed as it runs, failing when the tests pass but
# the "test result" lines of every target add up to zero passed.
tests() {
  local log passed
  log=$(mktemp)
  cargo test -q "$@" 2>&1 | tee "$log"
  passed=$(sed -n 's/^test result: [a-zA-Z]*\. \([0-9]*\) passed.*/\1/p' "$log" \
    | awk '{ n += $1 } END { print n + 0 }')
  rm -f "$log"
  if [ "$passed" -eq 0 ]; then
    echo "ci.sh: 'cargo test $*' ran no test; was one deleted or renamed?" >&2
    exit 1
  fi
}

# End-to-end chaos: a tiny run that exercises perturbation + diagnosis
# together.
robustness_smoke() {
  tests -p pinsql-eval robustness_smoke
}

# Fleet engine: a 4-instance multiplexed ingest + diagnosis round-trip
# through the online path.
fleet_smoke() {
  tests -p pinsql-engine fleet_smoke
}

# One or more rows of the equivalence matrix (tests/equivalence.rs: one
# #[test] per execution path, each against the batch reference at every
# value of shards / fanout / observer). Arguments are test name filters;
# none runs the whole table. --nocapture prints each path's wall time.
matrix() {
  tests --test equivalence -- --nocapture "$@"
}

equivalence() {
  matrix
}

# Sharded ingestion: shards 1/2/4 and fanout 1/4 over the golden corpus
# must close bit-identical cases and diagnoses.
scaling_smoke() {
  matrix run_full
}

# Observability: a recorded golden case must export a valid chrome-trace
# document, and the disabled observer must add no measurable cost to the
# ingest hot path.
obs_smoke() {
  tests --test obs_smoke
}

# Kernels: the slice kernels must agree with serial loops, the rolling
# median/MAD stay bit-identical to the allocate-and-sort oracle in its
# test module (seeded stream sweep), the cell store to the map-per-second
# oracle in its test module, the chunked record ring to the VecDeque ring
# it replaced — views cut from it held across later pushes, evictions and
# round trips included — and the history store's runs to the dense span
# they replaced (seeded op-sequence sweeps), the online feature detector
# to the batch scanner it replaced (seeded series sweep), the session
# estimator's record sweep to its per-template oracle, which finds each
# record's template by the catalog lookup rather than the case's owner
# table (seeded adversarial cases), and the fold entered as runs of N to
# the fold entered as runs of one, every record's owner checked against
# the catalog lookup. Then the simulator's known answers: both drivers of
# its one query lifecycle, bit for bit.
kernel_smoke() {
  tests --test kernel_props
  tests -p pinsql-timeseries rolling::tests::median_mad_kernels_are_bit_identical
  tests -p pinsql-collector cellstore
  tests -p pinsql-collector records::tests::chunked_ring_matches_the_deque_oracle
  tests -p pinsql-collector history::tests::runs_match_the_dense_oracle
  tests -p pinsql-detect online::tests::online_detector_matches_the_batch_scan_oracle
  tests -p pinsql session_estimate::sweep_tests
  tests --test cellstore_props
  tests -p pinsql-dbsim closedloop::tests::closed_loop_known_answer_grid
  tests -p pinsql-dbsim engine::sweep_tests::known_answer_sweep
  tests --test golden_corpus raw_simulator_output_is_pinned
}

# Checkpoint/restore + live resharding: the collector's and the engine's
# PSNP unit tests (the collector's `checkpoint` filter includes the six
# restore refusals, checkpoint_rejects_a_sorted_flag_over_unsorted_records,
# checkpoint_rejects_a_cell_row_naming_a_slot_twice,
# checkpoint_rejects_a_cell_count_the_fold_never_stores,
# checkpoint_rejects_a_history_span_past_the_end_of_time,
# checkpoint_rejects_a_minute_row_of_another_width and
# checkpoint_rejects_minute_rows_outside_the_cell_ring, and
# checkpoint_with_a_record_no_window_cell_counts_cuts_it_unowned; the engine's
# `snapshot` filter includes snapshot_rejects_a_negative_delta_s), the
# wire-hardening suite (committed golden blob, older versions refused,
# kernel tags and reserved bytes) and the property suite, checkpoint-bytes
# / shipped-bytes / handoff-order checks, then the matrix's reshard and
# resume rows.
snapshot_smoke() {
  tests -p pinsql-collector checkpoint
  tests -p pinsql-engine snapshot
  tests --test snapshot_wire
  tests --test snapshot_props
  tests --test crash_recovery
  matrix reshard_ resume_at_
}

# Resident fleet daemon: control/daemon unit tests (a config push applies
# in place), PCTL wire hardening, the report and epoch contracts, the
# matrix's daemon row (mid-stream config push + graceful restart,
# byte-identical to a cold start).
daemon_smoke() {
  tests -p pinsql-engine control
  tests -p pinsql-engine daemon
  tests --test control_wire
  tests --test daemon
  matrix daemon_push_restart
}

# Window cut: the property suite (minute rows bit-identical to the
# per-template per_minute oracle, and their normalized matrix to
# from_series over the oracle's rows, under random/perturbed/constant/
# evicting/restored streams), then the cases the experiments cut through
# the online engine against the batch oracle in tests/common, series and
# diagnoses bit for bit: perturbed telemetry, overlapping anomalies,
# negatives and look-backs other than the golden 600 s. Then the window
# selector, which reads nothing but the stream, and the negatives it
# hands the whole stream.
case_cut_smoke() {
  tests --test cut_props
  tests --test eval_cases
  tests -p pinsql-detect case::tests::select
  tests -p pinsql-engine negative_case_ignores_the_injected_window
  tests --test negative_cases
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
  tests -p pinsql-engine transport
  tests -p pinsql-engine wire
  tests --test event_wire
  tests -p pinsql-collector time_jump
  tests --test transport
  matrix loopback
  tests --test backpressure
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
