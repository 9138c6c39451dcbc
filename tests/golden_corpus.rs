//! Golden-diagnosis regression corpus.
//!
//! Sixteen seeded cases (four per anomaly kind, listed in
//! `common::MANIFEST`) are labelled by the batch oracle and diagnosed; the
//! rank-relevant output is snapshotted as JSON and compared byte-for-byte
//! against `tests/golden/<name>.json`. Each case is additionally diagnosed
//! at parallelism 1 and 4 and the two snapshots must be identical — the
//! determinism contract that keeps golden files meaningful on any machine.
//!
//! Each file is pinned by `pinsql_testkit::pin`: a missing snapshot is a
//! failure, like a differing one; set `PINSQL_BLESS=1` to (re)write all
//! of them after an intentional behaviour change. See
//! `tests/golden/README.md`.
//!
//! The same corpus also pins the online engine: `equivalence.rs` runs
//! every entry through every execution path and compares against the
//! same batch snapshots.

mod common;

use common::{batch_snapshot, golden, golden_dir, load_manifest};
use pinsql_testkit::pin;
use pinsql_timeseries::par::par_map;

#[test]
fn golden_corpus_matches_and_is_parallelism_stable() {
    let dir = golden_dir();
    let manifest = load_manifest();

    for entry in &manifest {
        let (serial, d) = batch_snapshot(entry, 1);
        let (parallel, _) = batch_snapshot(entry, 4);
        assert_eq!(
            serial, parallel,
            "{}: diagnosis differs between parallelism 1 and 4",
            entry.name
        );
        let serial_json = serial.to_json().render_pretty() + "\n";
        // Sanity independent of the stored snapshot: an injected anomaly
        // produces a non-empty ranking.
        assert!(!d.rsqls.is_empty(), "{}: empty R-SQL ranking", entry.name);
        assert!(!d.hsqls.is_empty(), "{}: empty H-SQL ranking", entry.name);

        pin(dir.join(format!("{}.json", entry.name)), serial_json.as_bytes());
    }
}

/// FNV-1a over the bit patterns of `words`.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().flat_map(u64::to_le_bytes).fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Known answer for the open-loop simulator: each entry's raw output —
/// every `QueryRecord` field, every `InstanceMetrics` series and every
/// probe sample, as bit patterns — folds to a pinned fingerprint. The
/// diagnosis snapshots above only see what survives labelling and
/// ranking; this sees every simulated bit.
#[test]
fn raw_simulator_output_is_pinned() {
    const PINNED: [(&str, u64); 16] = [
        ("business_spike_7000", 0xb7c5_b9ae_71d4_30b9),
        ("business_spike_7001", 0x7afe_a6bf_bc41_f435),
        ("business_spike_7002", 0x821f_f18d_4dd8_70d6),
        ("business_spike_7003", 0x899a_37c1_aee8_61f1),
        ("poor_sql_7100", 0xed9b_cee0_e68b_1fcf),
        ("poor_sql_7101", 0x675f_401b_5260_a397),
        ("poor_sql_7102", 0xbac3_282e_c9ac_8fe0),
        ("poor_sql_7103", 0xb24c_decb_71e1_a18e),
        ("mdl_lock_7200", 0xf503_12ff_7cca_d3d1),
        ("mdl_lock_7201", 0x2e9d_1769_db95_8cbb),
        ("mdl_lock_7202", 0x478f_fabb_fb7c_9844),
        ("mdl_lock_7203", 0x5c07_95f8_b86d_551f),
        ("row_lock_7300", 0xf66c_8305_35b6_9f95),
        ("row_lock_7301", 0x376d_551e_2b03_ffb4),
        ("row_lock_7302", 0x75f2_ccb3_05d0_af0d),
        ("row_lock_7303", 0x9b99_8cda_e661_bbb6),
    ];
    let manifest = load_manifest();
    // Across every core: the test above takes the entries one at a time,
    // and each waits on the other's simulation of the same entry.
    let got: Vec<(&str, u64)> = par_map(manifest.len(), 0, |i| {
        let entry = &manifest[i];
        let sim = golden(entry);
        let mut words = vec![sim.log.len() as u64];
        for r in &sim.log {
            let fields = [r.start_ms.to_bits(), r.response_ms.to_bits(), r.examined_rows];
            words.extend([r.spec.0 as u64].into_iter().chain(fields));
        }
        let m = &sim.metrics;
        words.push(m.start_second as u64);
        for series in [
            &m.active_session,
            &m.cpu_usage,
            &m.iops_usage,
            &m.row_lock_waits,
            &m.mdl_waits,
            &m.qps,
        ] {
            words.push(series.len() as u64);
            words.extend(series.iter().map(|v| v.to_bits()));
        }
        words.push(m.probes.samples.len() as u64);
        for p in &m.probes.samples {
            let fields = [p.active_sessions as u64, p.true_instant_ms.to_bits()];
            words.extend([p.second as u64].into_iter().chain(fields));
        }
        (entry.name, fnv(words))
    });
    assert_eq!(got, PINNED, "the simulator's raw output moved");
}
