use super::*;
use pinsql_testkit::sweep;
use pinsql_workload::rng::{RngExt, StdRng};

const ID: SqlId = SqlId(42);

fn bytes_of(store: impl FnOnce(&mut WireWriter)) -> Vec<u8> {
    let mut w = WireWriter::new();
    store(&mut w);
    w.into_bytes()
}

#[test]
fn record_and_window() {
    let mut store = HistoryStore::new();
    store.record(ID, 100, 5.0);
    store.record(ID, 101, 7.0);
    store.record(ID, 101, 1.0);
    store.record(ID, 104, 2.0);
    let w = store.window_filled(ID, 100, 105);
    assert_eq!(w, vec![5.0, 8.0, 0.0, 0.0, 2.0]);
}

#[test]
fn window_filled_pads_outside_range() {
    let mut store = HistoryStore::new();
    store.record(ID, 10, 3.0);
    let w = store.window_filled(ID, 8, 13);
    assert_eq!(w, vec![0.0, 0.0, 3.0, 0.0, 0.0]);
}

#[test]
fn unknown_template_is_all_zero() {
    let store = HistoryStore::new();
    let w = store.window_filled(SqlId(7), 0, 4);
    assert_eq!(w, vec![0.0; 4]);
    assert!(store.is_empty());
}

#[test]
fn backfill_before_start_prepends() {
    let mut store = HistoryStore::new();
    store.record(ID, 10, 1.0);
    store.record(ID, 8, 2.0);
    let w = store.window_filled(ID, 8, 11);
    assert_eq!(w, vec![2.0, 0.0, 1.0]);
}

#[test]
fn insert_replaces() {
    let mut store = HistoryStore::new();
    store.insert(HistorySeries { id: ID, start_minute: 0, executions: vec![1.0] });
    store.insert(HistorySeries { id: ID, start_minute: 0, executions: vec![9.0, 9.0] });
    assert_eq!(store.window_filled(ID, 0, 2), vec![9.0, 9.0]);
    assert_eq!(store.len(), 1);
}

#[test]
fn record_at_matches_record() {
    let mut by_id = HistoryStore::new();
    let mut by_index = HistoryStore::new();
    let idx = by_index.entry_index(ID);
    for (m, c) in [(10, 1.0), (8, 2.0), (12, 3.0), (10, 0.5)] {
        by_id.record(ID, m, c);
        by_index.record_at(idx, m, c);
    }
    assert_eq!(by_id.window_filled(ID, 8, 13), by_index.window_filled(ID, 8, 13));
    assert_eq!(by_index.entry_index(ID), idx, "entry index is stable");
    assert_eq!(by_id.len(), by_index.len());
    assert_eq!(by_id.span(ID), by_index.span(ID));
}

#[test]
fn degenerate_window() {
    let mut store = HistoryStore::new();
    store.record(ID, 5, 1.0);
    assert!(store.window_filled(ID, 10, 10).is_empty());
    assert!(store.window_filled(ID, 7, 3).is_empty());
}

/// Three look-back windows days apart hold their own minutes, not the
/// days between them; the span `PSNP` writes still covers all of it.
#[test]
fn lookback_days_hold_only_their_minutes() {
    let mut store = HistoryStore::new();
    let origin = 100_000;
    for d in [1, 3, 7] {
        for m in 0..5 {
            store.record(ID, origin - d * 1440 + m, 1.0 + m as f64);
        }
    }
    let runs = &store.series[0].runs;
    assert_eq!(
        runs.iter().map(|r| (r.start, r.values.len())).collect::<Vec<_>>(),
        [(origin - 7 * 1440, 5), (origin - 3 * 1440, 5), (origin - 1440, 5)]
    );
    assert_eq!(store.span(ID), Some((origin - 7 * 1440, 6 * 1440 + 5)));
    for d in [1, 3, 7] {
        let from = origin - d * 1440;
        assert_eq!(
            store.window_filled(ID, from - 1, from + 6),
            [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 0.0]
        );
    }
}

/// A series restored at the bottom of the clock is read past without
/// wrapping: the window offset of a minute far above the series used to
/// be computed by an unchecked subtraction.
#[test]
fn a_series_at_i64_min_reads_without_overflow() {
    let mut store = HistoryStore::new();
    store.insert(HistorySeries { id: ID, start_minute: i64::MIN, executions: vec![1.0, 2.0, 3.0] });
    assert_eq!(store.window_filled(ID, 0, 3), vec![0.0; 3]);
    assert_eq!(store.window_filled(ID, i64::MIN + 1, i64::MIN + 4), vec![2.0, 3.0, 0.0]);
    store.insert(HistorySeries { id: ID, start_minute: i64::MAX, executions: vec![7.0] });
    assert_eq!(store.window_filled(ID, i64::MAX - 2, i64::MAX), vec![0.0; 2]);
    store.record(ID, i64::MAX - 1, 1.0);
    assert_eq!(store.window_filled(ID, i64::MAX - 2, i64::MAX), vec![0.0, 1.0]);
    assert_eq!(store.span(ID), Some((i64::MAX - 1, 2)));
}

/// A restored span must end inside `i64`: its last minute may be
/// `i64::MAX`, one more is refused.
#[test]
fn restore_refuses_a_span_past_the_end_of_time() {
    for (start, len, ok) in [(i64::MAX, 1, true), (i64::MAX - 1, 2, true), (i64::MAX, 2, false)] {
        let mut store = HistoryStore::new();
        store.insert(HistorySeries { id: ID, start_minute: start, executions: vec![1.0; len] });
        let bytes = bytes_of(|w| store.write(w));
        match HistoryStore::read(&mut WireReader::new(&bytes)) {
            Ok(back) => {
                assert!(ok, "{len} minutes from {start} restored");
                assert_eq!(bytes_of(|w| back.write(w)), bytes);
            }
            Err(err) => {
                assert!(!ok, "{len} minutes from {start}: {err}");
                assert!(matches!(err, WireError::Mismatch { what: "history span", .. }), "{err}");
            }
        }
    }
}

/// The representation the runs replaced — one dense span per template —
/// with the same interface. Test-only: the sweep below holds the runs to
/// what this store answers and writes. The one change to the code it
/// preserves is the overflow fix: the window offsets saturate before they
/// clamp.
#[derive(Debug, Default)]
struct DenseStore {
    series: Vec<HistorySeries>,
    index: FxHashMap<SqlId, u32>,
}

impl DenseStore {
    fn insert(&mut self, series: HistorySeries) {
        if let Some(&i) = self.index.get(&series.id) {
            self.series[i as usize] = series;
        } else {
            self.index.insert(series.id, self.series.len() as u32);
            self.series.push(series);
        }
    }

    fn entry_index(&mut self, id: SqlId) -> u32 {
        if let Some(&i) = self.index.get(&id) {
            return i;
        }
        let i = self.series.len() as u32;
        self.index.insert(id, i);
        self.series.push(HistorySeries { id, start_minute: 0, executions: Vec::new() });
        i
    }

    fn record(&mut self, id: SqlId, minute: i64, count: f64) {
        let i = self.entry_index(id);
        self.record_at(i, minute, count);
    }

    fn record_at(&mut self, entry: u32, minute: i64, count: f64) {
        let entry = &mut self.series[entry as usize];
        let end = entry.start_minute.saturating_add(entry.executions.len() as i64);
        if minute.saturating_sub(end) > RESTART_GAP_MIN
            || entry.start_minute.saturating_sub(minute) > RESTART_GAP_MIN
        {
            entry.executions.clear();
        }
        if entry.executions.is_empty() {
            entry.start_minute = minute;
        } else if minute < entry.start_minute {
            let shift = (entry.start_minute - minute) as usize;
            let mut v = vec![0.0; shift];
            v.extend_from_slice(&entry.executions);
            entry.executions = v;
            entry.start_minute = minute;
        }
        let idx = (minute - entry.start_minute) as usize;
        if entry.executions.len() <= idx {
            entry.executions.resize(idx + 1, 0.0);
        }
        entry.executions[idx] += count;
    }

    fn window_filled(&self, id: SqlId, from_min: i64, to_min: i64) -> Vec<f64> {
        let n = to_min.saturating_sub(from_min).max(0) as usize;
        let mut out = vec![0.0; n];
        let Some(series) = self.index.get(&id).map(|&i| &self.series[i as usize]) else {
            return out;
        };
        let len = series.executions.len() as i64;
        if len == 0 || to_min <= from_min {
            return out;
        }
        let lo = from_min.saturating_sub(series.start_minute).clamp(0, len) as usize;
        let hi = to_min.saturating_sub(series.start_minute).clamp(0, len) as usize;
        if lo < hi {
            let offset = (series.start_minute.max(from_min) - from_min) as usize;
            out[offset..offset + hi - lo].copy_from_slice(&series.executions[lo..hi]);
        }
        out
    }

    fn write(&self, w: &mut WireWriter) {
        w.put_len(self.series.len());
        for series in &self.series {
            w.put_u64(series.id.0);
            w.put_i64(series.start_minute);
            w.put_len(series.executions.len());
            for &v in &series.executions {
                w.put_f64(v);
            }
        }
    }
}

/// The runs' shape: sorted, more than the join gap apart, none empty but
/// a lone one.
fn assert_run_shape(store: &HistoryStore, ctx: &str) {
    for series in &store.series {
        let runs = &series.runs;
        assert!(!runs.is_empty(), "{ctx}: {:?} has no run", series.id);
        for (i, pair) in runs.windows(2).enumerate() {
            assert!(!pair[0].values.is_empty(), "{ctx}: {:?} run {i} is empty", series.id);
            let gap = pair[1].start as i128 - pair[0].end();
            assert!(
                gap > JOIN_GAP_MIN as i128,
                "{ctx}: {:?} runs {i}, {} {gap} apart",
                series.id,
                i + 1
            );
        }
        assert!(
            runs.len() == 1 || !runs[runs.len() - 1].values.is_empty(),
            "{ctx}: empty last run"
        );
    }
}

/// How often the sweep met each shape, so it can show it reached them.
#[derive(Debug, Default)]
struct Tally {
    runs_opened: u64,
    runs_merged: u64,
    joins_across_a_gap: u64,
    backfills: u64,
    restarts: u64,
    near_the_ends: u64,
    inserts: u64,
    round_trips_then_records: u64,
    windows_across_runs: u64,
}

const IDS: [SqlId; 3] = [SqlId(1), SqlId(2), SqlId(3)];
const DAY: i64 = 1440;

/// A uniform draw from `lo..=hi`.
fn between(rng: &mut StdRng, lo: i64, hi: i64) -> i64 {
    lo.wrapping_add(rng.random_range(0..=hi.wrapping_sub(lo) as u64) as i64)
}

fn count(rng: &mut StdRng) -> f64 {
    match rng.random_range(0..16u32) {
        0 => 0.0,
        1 => -0.0,
        2 => -3.0,
        3 => 0.5,
        _ => rng.random_range(1..60u32) as f64,
    }
}

/// The minutes one op records around `at`, in the patterns the store
/// meets or must survive.
fn minutes(rng: &mut StdRng, at: i64, tally: &mut Tally) -> Vec<i64> {
    match rng.random_range(0..14u32) {
        // The minute feed: contiguous, a minute now and then twice.
        0..=4 => {
            let n = rng.random_range(1..24u64) as i64;
            let repeat = rng.random_range(0..4u32) == 0;
            (0..n).map(|i| at.saturating_add(if repeat { i / 2 } else { i })).collect()
        }
        // Sparse minutes, below, at and above the join gap, either way.
        5..=7 => {
            let back = rng.random_range(0..3u32) == 0;
            let mut m = at;
            (0..rng.random_range(1..6u32))
                .map(|_| {
                    let step = JOIN_GAP_MIN + between(rng, -2, 3);
                    m = if back { m.saturating_sub(step) } else { m.saturating_add(step) };
                    m
                })
                .collect()
        }
        // Three look-back days, 1, 3 then 7, five minutes each.
        8 => [1, 3, 7]
            .iter()
            .flat_map(|d| (0..5).map(move |m| at.saturating_sub(d * DAY).saturating_add(m)))
            .collect(),
        // Backfill: just before the last minute, or days before it.
        9 | 10 => {
            let back = match rng.random_range(0..2u32) {
                0 => between(rng, 1, 3 * JOIN_GAP_MIN),
                _ => between(rng, 1, 10 * DAY),
            };
            tally.backfills += 1;
            vec![at.saturating_sub(back)]
        }
        // Around the restart gap, or weeks away inside it.
        11 | 12 => {
            let jump = match rng.random_range(0..3u32) {
                0 => between(rng, 10 * DAY, 25 * DAY),
                _ => RESTART_GAP_MIN + between(rng, -2, 3),
            };
            let m = if rng.random_range(0..2u32) == 0 {
                at.saturating_add(jump)
            } else {
                at.saturating_sub(jump)
            };
            vec![m, m.saturating_add(1)]
        }
        // The ends of the clock.
        _ => {
            tally.near_the_ends += 1;
            let m = match rng.random_range(0..2u32) {
                0 => i64::MIN + between(rng, 0, 20),
                _ => i64::MAX - between(rng, 0, 20),
            };
            vec![m, m.saturating_add(1), m.saturating_sub(JOIN_GAP_MIN + 1)]
        }
    }
}

fn run_seed(seed: u64, rng: &mut StdRng, tally: &mut Tally) {
    let mut store = HistoryStore::new();
    let mut dense = DenseStore::default();
    // Where the seed lives on the clock: mid-range, or at an end of it.
    let home = match seed % 4 {
        0 | 1 => between(rng, -(1 << 40), 1 << 40),
        2 => i64::MIN + between(rng, 0, 3 * DAY),
        _ => i64::MAX - between(rng, 0, 3 * DAY),
    };
    let mut cursor = [home; 3];
    let mut restored = false;
    for op in 0..128 {
        let ctx = format!("op {op}");
        let k = rng.random_range(0..IDS.len());
        let id = IDS[k];
        match rng.random_range(0..20u32) {
            0 => {
                // Every minute of an inserted span is an `i64`.
                let executions: Vec<f64> =
                    (0..rng.random_range(0..12usize)).map(|_| count(rng)).collect();
                let latest = i64::MAX - executions.len().max(1) as i64 + 1;
                let start = cursor[k].saturating_add(between(rng, -40, 40)).min(latest);
                let series = HistorySeries { id, start_minute: start, executions };
                dense.insert(series.clone());
                store.insert(series);
                tally.inserts += 1;
            }
            1 => {
                let bytes = bytes_of(|w| store.write(w));
                assert_eq!(bytes, bytes_of(|w| dense.write(w)), "{ctx}: write");
                let mut r = WireReader::new(&bytes);
                store = HistoryStore::read(&mut r).expect("a written store reads back");
                r.finish("history").expect("read to the end");
                assert_eq!(bytes_of(|w| store.write(w)), bytes, "{ctx}: rewrite");
                restored = true;
            }
            2 => {
                let entry = store.entry_index(id);
                assert_eq!(entry, dense.entry_index(id), "{ctx}: entry index");
            }
            _ => {
                let by_index = rng.random_range(0..2u32) == 0;
                let entry = by_index.then(|| store.entry_index(id));
                if let Some(entry) = entry {
                    assert_eq!(entry, dense.entry_index(id), "{ctx}: entry index");
                }
                for m in minutes(rng, cursor[k], tally) {
                    let c = count(rng);
                    let before = store.index.get(&id).and_then(|&i| {
                        let s = &store.series[i as usize];
                        let held = !s.runs[0].values.is_empty();
                        held.then(|| (s.start() as i128, s.end(), s.runs.len()))
                    });
                    match entry {
                        Some(entry) => store.record_at(entry, m, c),
                        None => store.record(id, m, c),
                    }
                    dense.record(id, m, c);
                    let s = &store.series[store.index[&id] as usize];
                    if let Some((start, end, n_runs)) = before {
                        let m = m as i128;
                        let restart = RESTART_GAP_MIN as i128;
                        if m - end > restart || start - m > restart {
                            tally.restarts += 1;
                        } else if s.runs.len() > n_runs {
                            tally.runs_opened += 1;
                        } else if s.runs.len() < n_runs {
                            tally.runs_merged += 1;
                        } else if m > end || m < start - 1 {
                            tally.joins_across_a_gap += 1;
                        }
                    }
                    if restored {
                        tally.round_trips_then_records += 1;
                        restored = false;
                    }
                    cursor[k] = m;
                }
            }
        }
        assert_eq!(store.len(), dense.series.len(), "{ctx}: len");
        assert_run_shape(&store, &ctx);
        // Windows around the cursor and at the span's edges, some empty,
        // some reversed, some of a template never recorded.
        for _ in 0..4 {
            let id = [IDS[k], IDS[rng.random_range(0..IDS.len())], SqlId(99)]
                [rng.random_range(0..3usize)];
            let around = match (rng.random_range(0..3u32), store.span(id)) {
                (0, Some((start, _))) => start,
                (1, Some((start, len))) => start.saturating_add(len as i64),
                _ => cursor[k],
            };
            let from = around.saturating_add(between(rng, -30, 30));
            let to = from.saturating_add(between(rng, -3, 40));
            let got = store.window_filled(id, from, to);
            let want = dense.window_filled(id, from, to);
            let bits = |w: &[f64]| w.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "{ctx}: window_filled({id:?}, {from}, {to})");
            let overlapped = store.index.get(&id).map_or(0, |&i| {
                let (from, to) = (from as i128, to as i128);
                store.series[i as usize]
                    .runs
                    .iter()
                    .filter(|r| r.end() > from && (r.start as i128) < to)
                    .count()
            });
            if overlapped > 1 {
                tally.windows_across_runs += 1;
            }
        }
    }
    assert_eq!(bytes_of(|w| store.write(w)), bytes_of(|w| dense.write(w)), "end: write");
}

/// Seeded op sequences — the minute feed's appends, sparse minutes either
/// side of the join gap, three look-back days, backfills, restarts past
/// 30 days, the ends of `i64`, inserts and `write` → `read` round trips —
/// answer exactly as the dense store the runs replaced: every window bit
/// for bit, the template count and every written byte; and the runs keep
/// their shape. 256 sequences; a failure names seed and op.
#[test]
fn runs_match_the_dense_oracle() {
    let mut tally = Tally::default();
    sweep(0..256, |seed, rng| run_seed(seed, rng, &mut tally));
    let Tally {
        runs_opened,
        runs_merged,
        joins_across_a_gap,
        backfills,
        restarts,
        near_the_ends,
        inserts,
        round_trips_then_records,
        windows_across_runs,
    } = tally;
    for (shape, n) in [
        ("runs opened", runs_opened),
        ("runs merged", runs_merged),
        ("joins across a gap", joins_across_a_gap),
        ("backfills", backfills),
        ("restarts", restarts),
        ("records near the ends of i64", near_the_ends),
        ("inserts", inserts),
        ("round trips followed by records", round_trips_then_records),
        ("windows across runs", windows_across_runs),
    ] {
        assert!(n >= 20, "the sweep reached only {n} {shape}: {tally:?}");
    }
}
