//! Typed control wire between the fleet server and its resident agent.
//!
//! The daemon splits the engine into two halves: an **agent** that owns
//! the sharded ingestion workers, and a **server** control plane that
//! steers it. Everything the server says crosses this wire as a `PCTL`
//! frame, and everything the agent answers comes back as one — there is
//! no side channel, so the daemon suites exercise exactly the bytes a
//! remote deployment would.
//!
//! Frames follow the PSNP snapshot conventions
//! ([`crate::snapshot`]): little-endian, a fixed header
//! (`magic + version + message tag`) in front of one length-prefixed
//! body section, the tag duplicated in the header so a router can
//! dispatch without decoding the body, and a typed [`WireError`] for
//! every malformed input — decoding untrusted bytes **never panics**
//! (pinned by the `control_wire` suite: truncation at every offset,
//! header flips, trailing garbage, future versions).

use crate::fleet::FleetConfig;
use crate::wire::{
    get_opt_f64, get_opt_i64, get_opt_u64, put_opt_f64, put_opt_i64, put_opt_u64, WireFormat,
};
use pinsql::{ConfigEpoch, PinSqlDelta};
use pinsql_obs::{FleetRollup, HealthRollup, RegionRollup};
use pinsql_timeseries::{WireError, WireReader, WireWriter};

/// Frame marker: "PinSQL ConTroL".
pub const CONTROL_MAGIC: [u8; 4] = *b"PCTL";

/// Frame format version. Decoders accept `<=` this and reject newer
/// frames with [`WireError::FutureVersion`] instead of misparsing them.
pub const CONTROL_VERSION: u16 = 1;

/// The `PCTL` envelope identity under the shared [`WireFormat`] dialect.
/// Any version at or below [`CONTROL_VERSION`] decodes (the format has
/// never broken compatibility, so there is no floor).
const CONTROL_FORMAT: WireFormat = WireFormat {
    magic: CONTROL_MAGIC,
    version: CONTROL_VERSION,
    min_version: 0,
    version_what: "control version",
};

/// Where the agent's lifecycle state machine sits. Transitions:
/// `Starting → Running ⇄ Draining`, `Running/Draining → Restarting →
/// Running`, `Draining → Stopped`. Every [`ControlResp::Ack`] reports the
/// state the handled message left the agent in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DaemonState {
    /// Pipelines are being built; no events folded yet.
    Starting,
    /// Ingesting: `advance_to` folds stream prefixes at will.
    Running,
    /// Quiesced at the drain watermark; ingestion is paused until a
    /// restart or stop (config pushes are still accepted).
    Draining,
    /// Mid flight-restart: state serialized, pipelines being rebuilt.
    Restarting,
    /// Terminal; only [`ControlMsg::HealthQuery`] is still answered.
    Stopped,
}

impl DaemonState {
    fn tag(self) -> u8 {
        match self {
            DaemonState::Starting => 0,
            DaemonState::Running => 1,
            DaemonState::Draining => 2,
            DaemonState::Restarting => 3,
            DaemonState::Stopped => 4,
        }
    }

    fn decode(tag: u8) -> Result<Self, WireError> {
        Ok(match tag {
            0 => DaemonState::Starting,
            1 => DaemonState::Running,
            2 => DaemonState::Draining,
            3 => DaemonState::Restarting,
            4 => DaemonState::Stopped,
            t => return Err(WireError::BadTag { what: "daemon state", value: t as u64 }),
        })
    }
}

impl std::fmt::Display for DaemonState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DaemonState::Starting => "starting",
            DaemonState::Running => "running",
            DaemonState::Draining => "draining",
            DaemonState::Restarting => "restarting",
            DaemonState::Stopped => "stopped",
        })
    }
}

/// A sparse override of [`FleetConfig`] — what a config push carries.
///
/// Every field is optional; `None` keeps the running value. The fleet
/// knobs that are safe to retune live (shard/fanout layout, collection
/// look-back, region map) ride alongside the diagnoser's own
/// [`PinSqlDelta`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetDelta {
    /// Ingestion shard count (must be ≥ 1 when present).
    pub shards: Option<usize>,
    /// Across-instance worker threads (`0` = all cores).
    pub fanout: Option<usize>,
    /// Collection look-back δ_s (must be ≥ 0 when present).
    pub delta_s: Option<i64>,
    /// Health-rollup region count (must be ≥ 1 when present).
    pub regions: Option<usize>,
    /// Diagnoser threshold overrides.
    pub pinsql: PinSqlDelta,
}

impl FleetDelta {
    /// True when the delta overrides nothing.
    pub fn is_empty(&self) -> bool {
        *self == Self::default()
    }

    /// Applies every present override onto `cfg` in place.
    pub fn apply(&self, cfg: &mut FleetConfig) {
        if let Some(v) = self.shards {
            cfg.shards = v;
        }
        if let Some(v) = self.fanout {
            cfg.fanout = v;
        }
        if let Some(v) = self.delta_s {
            cfg.delta_s = v;
        }
        if let Some(v) = self.regions {
            cfg.regions = v;
        }
        self.pinsql.apply(&mut cfg.pinsql);
    }
}

/// Server → agent control messages.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlMsg {
    /// Apply `delta` at the current watermark under a new, strictly
    /// greater epoch. Stale or replayed epochs are rejected, so a push
    /// either moves the whole fleet or none of it.
    ConfigPush { epoch: ConfigEpoch, delta: FleetDelta },
    /// Fold everything strictly before `to_second` (event time), then
    /// pause ingestion at that watermark.
    Drain { to_second: i64 },
    /// Serialize every pipeline, tear the workers down, revalidate and
    /// restore — a crash drill at the current watermark.
    Restart,
    /// Drain the remaining stream tails and stop; the run report is
    /// collected out of band ([`crate::FleetDaemon::finish`]).
    Stop,
    /// Ask for the shard → region → fleet health rollup tree.
    HealthQuery,
}

impl ControlMsg {
    fn tag(&self) -> u8 {
        match self {
            ControlMsg::ConfigPush { .. } => 1,
            ControlMsg::Drain { .. } => 2,
            ControlMsg::Restart => 3,
            ControlMsg::Stop => 4,
            ControlMsg::HealthQuery => 5,
        }
    }

    /// Encodes one framed message.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = WireWriter::with_capacity(64);
        write_frame_header(&mut w, self.tag());
        w.put_section(|w| match self {
            ControlMsg::ConfigPush { epoch, delta } => {
                w.put_u64(epoch.0);
                write_delta(w, delta);
            }
            ControlMsg::Drain { to_second } => w.put_i64(*to_second),
            ControlMsg::Restart | ControlMsg::Stop | ControlMsg::HealthQuery => {}
        });
        w.into_bytes()
    }

    /// Decodes one framed message from untrusted bytes. Every malformed
    /// input maps to a typed [`WireError`]; this never panics.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(bytes);
        let tag = read_frame_header(&mut r)?;
        let mut body = r.get_section()?;
        let msg = match tag {
            1 => {
                let epoch = ConfigEpoch(body.get_u64()?);
                let delta = read_delta(&mut body)?;
                ControlMsg::ConfigPush { epoch, delta }
            }
            2 => ControlMsg::Drain { to_second: body.get_i64()? },
            3 => ControlMsg::Restart,
            4 => ControlMsg::Stop,
            5 => ControlMsg::HealthQuery,
            t => return Err(WireError::BadTag { what: "control message tag", value: t as u64 }),
        };
        body.finish("control message body")?;
        r.finish("control frame")?;
        Ok(msg)
    }
}

/// Agent → server responses.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlResp {
    /// The message was applied; the agent now runs `epoch` in `state`.
    Ack { epoch: ConfigEpoch, state: DaemonState },
    /// Answer to [`ControlMsg::HealthQuery`].
    Rollup { epoch: ConfigEpoch, rollup: FleetRollup },
    /// The message was refused (stale epoch, bad lifecycle state); the
    /// agent's config is untouched and still at `epoch`.
    Reject { epoch: ConfigEpoch, reason: String },
}

impl ControlResp {
    fn tag(&self) -> u8 {
        match self {
            ControlResp::Ack { .. } => 1,
            ControlResp::Rollup { .. } => 2,
            ControlResp::Reject { .. } => 3,
        }
    }

    /// Encodes one framed response.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = WireWriter::with_capacity(64);
        write_frame_header(&mut w, self.tag());
        w.put_section(|w| match self {
            ControlResp::Ack { epoch, state } => {
                w.put_u64(epoch.0);
                w.put_u8(state.tag());
            }
            ControlResp::Rollup { epoch, rollup } => {
                w.put_u64(epoch.0);
                write_rollup_tree(w, rollup);
            }
            ControlResp::Reject { epoch, reason } => {
                w.put_u64(epoch.0);
                w.put_str(reason);
            }
        });
        w.into_bytes()
    }

    /// Decodes one framed response from untrusted bytes; never panics.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(bytes);
        let tag = read_frame_header(&mut r)?;
        let mut body = r.get_section()?;
        let resp = match tag {
            1 => ControlResp::Ack {
                epoch: ConfigEpoch(body.get_u64()?),
                state: DaemonState::decode(body.get_u8()?)?,
            },
            2 => ControlResp::Rollup {
                epoch: ConfigEpoch(body.get_u64()?),
                rollup: read_rollup_tree(&mut body)?,
            },
            3 => ControlResp::Reject {
                epoch: ConfigEpoch(body.get_u64()?),
                reason: body.get_str()?.to_string(),
            },
            t => return Err(WireError::BadTag { what: "control response tag", value: t as u64 }),
        };
        body.finish("control response body")?;
        r.finish("control frame")?;
        Ok(resp)
    }
}

fn write_frame_header(w: &mut WireWriter, tag: u8) {
    CONTROL_FORMAT.write_frame_header(w, tag);
}

fn read_frame_header(r: &mut WireReader<'_>) -> Result<u8, WireError> {
    CONTROL_FORMAT.read_frame_header(r)
}

fn write_delta(w: &mut WireWriter, d: &FleetDelta) {
    put_opt_u64(w, d.shards.map(|v| v as u64));
    put_opt_u64(w, d.fanout.map(|v| v as u64));
    w.put_bool(false); // reserved: once the kernel's presence flag
    put_opt_i64(w, d.delta_s);
    put_opt_u64(w, d.regions.map(|v| v as u64));
    put_opt_f64(w, d.pinsql.tau);
    put_opt_u64(w, d.pinsql.kc.map(|v| v as u64));
    put_opt_f64(w, d.pinsql.tau_c);
    put_opt_f64(w, d.pinsql.tukey_k);
    put_opt_f64(w, d.pinsql.rsql_score_min);
    put_opt_u64(w, d.pinsql.parallelism.map(|v| v as u64));
    w.put_bool(false); // reserved: once the cut path's presence flag
}

/// A presence byte whose field is gone: `false`, as every frame that never
/// set the field wrote it; anything else is a `BadTag`.
fn check_reserved(r: &mut WireReader<'_>) -> Result<(), WireError> {
    match r.get_u8()? {
        0 => Ok(()),
        v => Err(WireError::BadTag { what: "reserved byte", value: v as u64 }),
    }
}

fn read_delta(r: &mut WireReader<'_>) -> Result<FleetDelta, WireError> {
    let shards = get_opt_u64(r)?.map(|v| v as usize);
    if shards == Some(0) {
        return Err(WireError::Mismatch {
            what: "delta shards",
            detail: "must be >= 1".into(),
        });
    }
    let fanout = get_opt_u64(r)?.map(|v| v as usize);
    check_reserved(r)?;
    let delta_s = get_opt_i64(r)?;
    let regions = get_opt_u64(r)?.map(|v| v as usize);
    if regions == Some(0) {
        return Err(WireError::Mismatch {
            what: "delta regions",
            detail: "must be >= 1".into(),
        });
    }
    let pinsql = PinSqlDelta {
        tau: get_opt_f64(r)?,
        kc: get_opt_u64(r)?.map(|v| v as usize),
        tau_c: get_opt_f64(r)?,
        tukey_k: get_opt_f64(r)?,
        rsql_score_min: get_opt_f64(r)?,
        parallelism: get_opt_u64(r)?.map(|v| v as usize),
    };
    check_reserved(r)?;
    Ok(FleetDelta { shards, fanout, delta_s, regions, pinsql })
}

fn write_rollup(w: &mut WireWriter, r: &HealthRollup) {
    w.put_u64(r.instances);
    w.put_u64(r.events_total);
    w.put_u64(r.queries_total);
    w.put_u64(r.malformed_total);
    w.put_u64(r.late_total);
    w.put_u64(r.evictions_total);
    w.put_u64(r.cases_opened_total);
    w.put_u64(r.open_segments_total);
    w.put_u64(r.anomalies_open);
    w.put_u64(r.max_records_resident);
    w.put_u64(r.max_cell_seconds);
    w.put_i64(r.watermark_min);
}

fn read_rollup(r: &mut WireReader<'_>) -> Result<HealthRollup, WireError> {
    Ok(HealthRollup {
        instances: r.get_u64()?,
        events_total: r.get_u64()?,
        queries_total: r.get_u64()?,
        malformed_total: r.get_u64()?,
        late_total: r.get_u64()?,
        evictions_total: r.get_u64()?,
        cases_opened_total: r.get_u64()?,
        open_segments_total: r.get_u64()?,
        anomalies_open: r.get_u64()?,
        max_records_resident: r.get_u64()?,
        max_cell_seconds: r.get_u64()?,
        watermark_min: r.get_i64()?,
    })
}

fn write_rollup_tree(w: &mut WireWriter, t: &FleetRollup) {
    w.put_len(t.regions.len());
    for region in &t.regions {
        w.put_u32(region.region);
        write_rollup(w, &region.rollup);
    }
    write_rollup(w, &t.total);
}

fn read_rollup_tree(r: &mut WireReader<'_>) -> Result<FleetRollup, WireError> {
    // 4 region-id bytes + 12 fixed-width counters.
    let n = r.get_len(4 + 12 * 8)?;
    let mut regions = Vec::with_capacity(n);
    for _ in 0..n {
        let region = r.get_u32()?;
        let rollup = read_rollup(r)?;
        if let Some(prev) = regions.last().map(|p: &RegionRollup| p.region) {
            if region <= prev {
                return Err(WireError::Mismatch {
                    what: "rollup regions",
                    detail: format!("region ids not strictly ascending ({prev} then {region})"),
                });
            }
        }
        regions.push(RegionRollup { region, rollup });
    }
    let tree = FleetRollup { regions, total: read_rollup(r)? };
    if !tree.is_consistent() {
        return Err(WireError::Mismatch {
            what: "rollup tree",
            detail: "total does not equal the merge of the regions".into(),
        });
    }
    Ok(tree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinsql_obs::HealthSnapshot;

    fn full_delta() -> FleetDelta {
        FleetDelta {
            shards: Some(4),
            fanout: Some(2),
            delta_s: Some(480),
            regions: Some(3),
            pinsql: PinSqlDelta {
                tau: Some(0.9),
                kc: Some(4),
                tau_c: Some(0.95),
                tukey_k: Some(2.5),
                rsql_score_min: Some(0.5),
                parallelism: Some(2),
            },
        }
    }

    fn sample_tree() -> FleetRollup {
        let mut t = FleetRollup::default();
        for i in 0..7u64 {
            let h = HealthSnapshot {
                events_ingested: 100 + i,
                queries_ingested: 50 + i,
                watermark: 400 + i as i64,
                cases_opened: u64::from(i % 2 == 0),
                anomaly_open: i == 3,
                ..HealthSnapshot::default()
            };
            t.observe((i % 3) as u32, &h);
        }
        t
    }

    #[test]
    fn messages_round_trip_exactly() {
        let msgs = [
            ControlMsg::ConfigPush { epoch: ConfigEpoch(3), delta: full_delta() },
            ControlMsg::ConfigPush {
                epoch: ConfigEpoch(1),
                delta: FleetDelta::default(),
            },
            ControlMsg::Drain { to_second: 780 },
            ControlMsg::Restart,
            ControlMsg::Stop,
            ControlMsg::HealthQuery,
        ];
        for msg in msgs {
            let bytes = msg.to_bytes();
            assert_eq!(ControlMsg::from_bytes(&bytes).unwrap(), msg);
        }
    }

    #[test]
    fn responses_round_trip_exactly() {
        let resps = [
            ControlResp::Ack { epoch: ConfigEpoch(2), state: DaemonState::Running },
            ControlResp::Rollup { epoch: ConfigEpoch(5), rollup: sample_tree() },
            ControlResp::Reject {
                epoch: ConfigEpoch(4),
                reason: "stale epoch 2 (running epoch 4)".into(),
            },
        ];
        for resp in resps {
            let bytes = resp.to_bytes();
            assert_eq!(ControlResp::from_bytes(&bytes).unwrap(), resp);
        }
    }

    #[test]
    fn delta_applies_onto_fleet_config() {
        let mut cfg = FleetConfig::default();
        full_delta().apply(&mut cfg);
        assert_eq!(cfg.shards, 4);
        assert_eq!(cfg.fanout, 2);
        assert_eq!(cfg.delta_s, 480);
        assert_eq!(cfg.regions, 3);
        assert_eq!(cfg.pinsql.tau, 0.9);
        assert_eq!(cfg.pinsql.parallelism, 2);

        let mut untouched = FleetConfig::default();
        FleetDelta::default().apply(&mut untouched);
        assert_eq!(untouched.shards, FleetConfig::default().shards);
        assert!(FleetDelta::default().is_empty());
        assert!(!full_delta().is_empty());
    }

    #[test]
    fn zero_shard_and_region_deltas_are_rejected() {
        let zero_shards =
            ControlMsg::ConfigPush {
                epoch: ConfigEpoch(1),
                delta: FleetDelta { shards: Some(0), ..FleetDelta::default() },
            }
            .to_bytes();
        assert!(matches!(
            ControlMsg::from_bytes(&zero_shards),
            Err(WireError::Mismatch { what: "delta shards", .. })
        ));
        let zero_regions =
            ControlMsg::ConfigPush {
                epoch: ConfigEpoch(1),
                delta: FleetDelta { regions: Some(0), ..FleetDelta::default() },
            }
            .to_bytes();
        assert!(matches!(
            ControlMsg::from_bytes(&zero_regions),
            Err(WireError::Mismatch { what: "delta regions", .. })
        ));
    }

    #[test]
    fn inconsistent_rollup_trees_are_rejected() {
        let mut tree = sample_tree();
        tree.total.events_total += 1;
        let bytes = ControlResp::Rollup { epoch: ConfigEpoch(1), rollup: tree }.to_bytes();
        assert!(matches!(
            ControlResp::from_bytes(&bytes),
            Err(WireError::Mismatch { what: "rollup tree", .. })
        ));
    }
}
