//! Point-in-time health of one instance pipeline and its fleet roll-up.
//!
//! A [`HealthSnapshot`] is a plain read of counters and queue depths the
//! pipeline already maintains — taking one is cheap enough to do
//! mid-ingest (no locks, no scans over retained data) and never perturbs
//! state. The engine crate exposes `OnlineInstance::health_snapshot` and
//! folds shard snapshots into a [`FleetHealth`] on every fleet run.
//!
//! ## Hierarchical roll-ups
//!
//! [`FleetHealth`] keeps one snapshot per instance — fine for a bench
//! fleet, hopeless for production's millions of instances. The resident
//! daemon instead folds each instance snapshot into a constant-size
//! [`HealthRollup`] the moment it is read, then merges roll-ups up a
//! shard → region → fleet tree ([`FleetRollup`]): a shard worker ships
//! one roll-up per region it touches, a region is one merged roll-up,
//! and the control-plane server holds O(regions) state however many
//! instances report. The merge is exact (integer sums, max/min — no
//! averaging), associative, and commutative, so any merge order and any
//! grouping give the identical summary (`merge_props` pins this).

/// One instance's pipeline health. Counter fields are monotone over the
/// instance's lifetime; `*_resident` / `*_seconds` fields are current
/// queue depths bounded by the retention configuration (the `obs_health`
/// suite pins both invariants under chaos-perturbed telemetry).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HealthSnapshot {
    /// Events ingested (all variants).
    pub events_ingested: u64,
    /// Query records folded into cells.
    pub queries_ingested: u64,
    /// Records dropped for non-finite fields.
    pub malformed_dropped: u64,
    /// Events behind the retention horizon, dropped on arrival.
    pub late_dropped: u64,
    /// Per-second cell rows materialized since birth.
    pub cells_folded: u64,
    /// Cells, records, and metric samples evicted by retention.
    pub retention_evictions: u64,
    /// Complete minutes folded into the in-line history feed.
    pub history_minutes: u64,
    /// Cell rows currently resident (bounded by retention).
    pub cell_seconds: usize,
    /// Raw records currently retained (bounded by retention).
    pub records_resident: usize,
    /// Metric samples currently retained (bounded by retention).
    pub metric_seconds: usize,
    /// Templates the catalog tracks.
    pub templates_tracked: usize,
    /// Collector watermark (`i64::MIN` before any event).
    pub watermark: i64,
    /// Samples consumed by each metric detector.
    pub detector_samples: usize,
    /// Metric detectors currently inside an anomalous segment.
    pub open_segments: usize,
    /// Features closed by the detector bank so far.
    pub features_closed: usize,
    /// Transitions of the bank into an open anomaly (case opens).
    pub cases_opened: u64,
    /// True while any metric has an open anomalous segment.
    pub anomaly_open: bool,
}

/// Fleet-level health: per-instance snapshots (instance-id order) plus
/// exact totals.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetHealth {
    pub instances: Vec<HealthSnapshot>,
    pub events_total: u64,
    pub queries_total: u64,
    pub malformed_total: u64,
    pub late_total: u64,
    pub evictions_total: u64,
    pub cases_opened_total: u64,
    /// Highest per-instance records-resident depth at snapshot time.
    pub max_records_resident: usize,
    /// Highest per-instance cell-seconds depth at snapshot time.
    pub max_cell_seconds: usize,
}

impl FleetHealth {
    /// Rolls instance snapshots (taken at case close) into fleet totals.
    pub fn from_instances(instances: Vec<HealthSnapshot>) -> Self {
        let mut out = FleetHealth { instances, ..FleetHealth::default() };
        for h in &out.instances {
            out.events_total += h.events_ingested;
            out.queries_total += h.queries_ingested;
            out.malformed_total += h.malformed_dropped;
            out.late_total += h.late_dropped;
            out.evictions_total += h.retention_evictions;
            out.cases_opened_total += h.cases_opened;
            out.max_records_resident = out.max_records_resident.max(h.records_resident);
            out.max_cell_seconds = out.max_cell_seconds.max(h.cell_seconds);
        }
        out
    }
}

/// A constant-size, exactly-mergeable aggregate of [`HealthSnapshot`]s.
///
/// The identity element is `HealthRollup::default()` (zero instances);
/// [`merge`](Self::merge) is associative and commutative, so a tree of
/// merges — per-shard, per-region, fleet-wide — yields the same summary
/// as folding every snapshot directly. `watermark_min` tracks the
/// *laggiest* member (the fleet's effective progress); `max_*` fields are
/// high-water queue depths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthRollup {
    /// Snapshots folded in.
    pub instances: u64,
    pub events_total: u64,
    pub queries_total: u64,
    pub malformed_total: u64,
    pub late_total: u64,
    pub evictions_total: u64,
    pub cases_opened_total: u64,
    /// Detector segments currently open, summed.
    pub open_segments_total: u64,
    /// Instances with an anomaly currently open.
    pub anomalies_open: u64,
    /// Highest per-instance records-resident depth.
    pub max_records_resident: u64,
    /// Highest per-instance cell-seconds depth.
    pub max_cell_seconds: u64,
    /// Lowest member watermark — the laggiest instance's clock
    /// (`i64::MAX` for the empty roll-up, so it is the merge identity).
    pub watermark_min: i64,
}

impl Default for HealthRollup {
    fn default() -> Self {
        Self {
            instances: 0,
            events_total: 0,
            queries_total: 0,
            malformed_total: 0,
            late_total: 0,
            evictions_total: 0,
            cases_opened_total: 0,
            open_segments_total: 0,
            anomalies_open: 0,
            max_records_resident: 0,
            max_cell_seconds: 0,
            watermark_min: i64::MAX,
        }
    }
}

impl HealthRollup {
    /// Folds one instance snapshot into the roll-up.
    pub fn observe(&mut self, h: &HealthSnapshot) {
        self.instances += 1;
        self.events_total += h.events_ingested;
        self.queries_total += h.queries_ingested;
        self.malformed_total += h.malformed_dropped;
        self.late_total += h.late_dropped;
        self.evictions_total += h.retention_evictions;
        self.cases_opened_total += h.cases_opened;
        self.open_segments_total += h.open_segments as u64;
        self.anomalies_open += h.anomaly_open as u64;
        self.max_records_resident = self.max_records_resident.max(h.records_resident as u64);
        self.max_cell_seconds = self.max_cell_seconds.max(h.cell_seconds as u64);
        self.watermark_min = self.watermark_min.min(h.watermark);
    }

    /// A roll-up of exactly one snapshot.
    pub fn of(h: &HealthSnapshot) -> Self {
        let mut r = Self::default();
        r.observe(h);
        r
    }

    /// Exact merge: sums for counters, max for depths, min for the
    /// watermark. `default()` is the identity; the operation is
    /// associative and commutative.
    pub fn merge(&mut self, other: &Self) {
        self.instances += other.instances;
        self.events_total += other.events_total;
        self.queries_total += other.queries_total;
        self.malformed_total += other.malformed_total;
        self.late_total += other.late_total;
        self.evictions_total += other.evictions_total;
        self.cases_opened_total += other.cases_opened_total;
        self.open_segments_total += other.open_segments_total;
        self.anomalies_open += other.anomalies_open;
        self.max_records_resident = self.max_records_resident.max(other.max_records_resident);
        self.max_cell_seconds = self.max_cell_seconds.max(other.max_cell_seconds);
        self.watermark_min = self.watermark_min.min(other.watermark_min);
    }
}

/// One region's merged roll-up inside a [`FleetRollup`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionRollup {
    /// Region id (stable, dense, assigned by the fleet's region map).
    pub region: u32,
    pub rollup: HealthRollup,
}

/// The shard → region → fleet roll-up tree, flattened to its two
/// aggregate levels: one [`HealthRollup`] per region (sorted by region
/// id) plus the fleet total. Server-side state is O(regions) no matter
/// how many instances the agents watch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetRollup {
    /// Per-region roll-ups, ascending region id, empty regions omitted.
    pub regions: Vec<RegionRollup>,
    /// The merge of every region (= of every instance).
    pub total: HealthRollup,
}

impl FleetRollup {
    /// Builds the tree from instance snapshots and a region map
    /// (`region_of(i)` = region of instance `i`).
    pub fn from_assigned(
        instances: &[HealthSnapshot],
        mut region_of: impl FnMut(usize) -> u32,
    ) -> Self {
        let mut out = FleetRollup::default();
        for (i, h) in instances.iter().enumerate() {
            out.observe(region_of(i), h);
        }
        out
    }

    /// Folds one instance snapshot into its region and the total.
    pub fn observe(&mut self, region: u32, h: &HealthSnapshot) {
        self.region_mut(region).observe(h);
        self.total.observe(h);
    }

    /// Merges another tree in (region-wise + totals) — the fleet-level
    /// reduce over per-shard trees. Exact whatever the grouping: merging
    /// per-shard trees equals building one tree from all instances.
    pub fn merge(&mut self, other: &Self) {
        for r in &other.regions {
            self.region_mut(r.region).merge(&r.rollup);
        }
        self.total.merge(&other.total);
    }

    /// Instances folded in.
    pub fn instances(&self) -> u64 {
        self.total.instances
    }

    /// The tree invariant: the total equals the merge of the regions.
    pub fn is_consistent(&self) -> bool {
        let mut folded = HealthRollup::default();
        for r in &self.regions {
            folded.merge(&r.rollup);
        }
        folded == self.total && self.regions.windows(2).all(|w| w[0].region < w[1].region)
    }

    fn region_mut(&mut self, region: u32) -> &mut HealthRollup {
        let at = match self.regions.binary_search_by_key(&region, |r| r.region) {
            Ok(i) => i,
            Err(i) => {
                self.regions
                    .insert(i, RegionRollup { region, rollup: HealthRollup::default() });
                i
            }
        };
        &mut self.regions[at].rollup
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_rollup_totals() {
        let a = HealthSnapshot {
            events_ingested: 10,
            queries_ingested: 7,
            records_resident: 5,
            cell_seconds: 3,
            cases_opened: 1,
            ..HealthSnapshot::default()
        };
        let b = HealthSnapshot {
            events_ingested: 20,
            queries_ingested: 9,
            records_resident: 2,
            cell_seconds: 8,
            retention_evictions: 4,
            ..HealthSnapshot::default()
        };
        let fleet = FleetHealth::from_instances(vec![a, b]);
        assert_eq!(fleet.events_total, 30);
        assert_eq!(fleet.queries_total, 16);
        assert_eq!(fleet.evictions_total, 4);
        assert_eq!(fleet.cases_opened_total, 1);
        assert_eq!(fleet.max_records_resident, 5);
        assert_eq!(fleet.max_cell_seconds, 8);
        assert_eq!(fleet.instances.len(), 2);
    }

    fn snap(i: u64) -> HealthSnapshot {
        HealthSnapshot {
            events_ingested: 10 * i,
            queries_ingested: 3 * i,
            retention_evictions: i % 3,
            cases_opened: i % 2,
            open_segments: (i % 4) as usize,
            anomaly_open: i % 2 == 1,
            records_resident: (7 * i % 13) as usize,
            cell_seconds: (5 * i % 11) as usize,
            watermark: 100 - i as i64,
            ..HealthSnapshot::default()
        }
    }

    #[test]
    fn rollup_matches_direct_fold_and_merge_has_identity() {
        let snaps: Vec<HealthSnapshot> = (1..=9).map(snap).collect();

        // One shot vs. incremental observe.
        let mut direct = HealthRollup::default();
        for h in &snaps {
            direct.observe(h);
        }
        assert_eq!(direct.instances, 9);
        assert_eq!(direct.events_total, (1..=9u64).map(|i| 10 * i).sum::<u64>());
        assert_eq!(direct.watermark_min, 91);
        assert_eq!(direct.anomalies_open, 5);

        // Identity and singleton composition.
        let mut folded = HealthRollup::default();
        for h in &snaps {
            folded.merge(&HealthRollup::of(h));
        }
        assert_eq!(folded, direct);
        let mut with_identity = direct.clone();
        with_identity.merge(&HealthRollup::default());
        assert_eq!(with_identity, direct);
    }

    #[test]
    fn rollup_tree_is_grouping_independent_and_consistent() {
        let snaps: Vec<HealthSnapshot> = (1..=12).map(snap).collect();
        let region_of = |i: usize| (i % 3) as u32;

        // Built directly from all instances...
        let whole = FleetRollup::from_assigned(&snaps, region_of);
        assert!(whole.is_consistent());
        assert_eq!(whole.instances(), 12);
        assert_eq!(whole.regions.len(), 3);

        // ...vs. per-shard trees merged at the server (arbitrary split).
        let mut merged = FleetRollup::default();
        for chunk in [(0usize, 5usize), (5, 7), (7, 12)] {
            let mut shard = FleetRollup::default();
            for (i, snap) in snaps.iter().enumerate().take(chunk.1).skip(chunk.0) {
                shard.observe(region_of(i), snap);
            }
            merged.merge(&shard);
        }
        assert_eq!(merged, whole, "shard-grouped merge equals direct build");
    }
}
