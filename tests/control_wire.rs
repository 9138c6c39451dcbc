//! Wire-format hardening for the PCTL control plane.
//!
//! Control frames cross a trust boundary — the agent decodes whatever the
//! server (or an attacker on the wire) sends, and vice versa. This suite
//! pins that every malformed shape yields a *typed* [`WireError`] — never
//! a panic, never a silently wrong message:
//!
//! * truncation at every byte offset of a representative message and
//!   response frame;
//! * wrong magic, future version, unknown frame tags;
//! * corrupted inner tags (presence flags, daemon state) and the two
//!   reserved presence bytes where the kernel and cut-path fields sat;
//! * semantic garbage (zero shard counts, non-UTF-8 reject reasons,
//!   inconsistent rollup trees, non-ascending region ids);
//! * trailing bytes both inside the body section and after the frame.

use pinsql::{ConfigEpoch, PinSqlDelta};
use pinsql_engine::{
    ControlMsg, ControlResp, DaemonState, FleetDelta, CONTROL_MAGIC, CONTROL_VERSION,
};
use pinsql_obs::{FleetRollup, HealthRollup, RegionRollup};
use pinsql_testkit::truncations;
use pinsql_timeseries::WireError;

/// A push with every knob present — exercises every optional-field branch
/// of the delta codec in one frame.
fn full_push_frame() -> Vec<u8> {
    ControlMsg::ConfigPush {
        epoch: ConfigEpoch(7),
        delta: FleetDelta {
            shards: Some(4),
            fanout: Some(2),
            delta_s: Some(480),
            regions: Some(3),
            pinsql: PinSqlDelta {
                tau: Some(0.7),
                kc: Some(6),
                tau_c: Some(0.9),
                tukey_k: Some(2.0),
                rsql_score_min: Some(0.4),
                parallelism: Some(2),
            },
        },
    }
    .to_bytes()
}

fn region(id: u32, events: u64) -> RegionRollup {
    RegionRollup {
        region: id,
        rollup: HealthRollup {
            instances: 2,
            events_total: events,
            queries_total: events / 2,
            cases_opened_total: 2,
            watermark_min: 600,
            ..HealthRollup::default()
        },
    }
}

/// A two-region tree whose total really is the merge of its regions.
fn consistent_tree() -> FleetRollup {
    let regions = vec![region(0, 1000), region(1, 2500)];
    let mut total = HealthRollup::default();
    for r in &regions {
        total.merge(&r.rollup);
    }
    FleetRollup { regions, total }
}

fn rollup_frame() -> Vec<u8> {
    ControlResp::Rollup { epoch: ConfigEpoch(7), rollup: consistent_tree() }.to_bytes()
}

#[test]
fn frames_round_trip_through_untrusted_decode() {
    let msg = ControlMsg::from_bytes(&full_push_frame()).expect("well-formed message");
    assert!(matches!(msg, ControlMsg::ConfigPush { epoch: ConfigEpoch(7), .. }));
    let resp = ControlResp::from_bytes(&rollup_frame()).expect("well-formed response");
    match resp {
        ControlResp::Rollup { epoch, rollup } => {
            assert_eq!(epoch, ConfigEpoch(7));
            assert_eq!(rollup.instances(), 4);
            assert!(rollup.is_consistent());
        }
        other => panic!("expected a rollup, got {other:?}"),
    }
}

#[test]
fn every_truncation_of_a_message_frame_is_a_typed_error() {
    truncations(&full_push_frame(), 1, |prefix| match ControlMsg::from_bytes(prefix) {
        Ok(msg) => panic!("decoded as {msg:?}"),
        Err(e) => assert!(matches!(e, WireError::Truncated { .. }), "unexpected error {e:?}"),
    });
}

#[test]
fn every_truncation_of_a_response_frame_is_a_typed_error() {
    truncations(&rollup_frame(), 1, |prefix| match ControlResp::from_bytes(prefix) {
        Ok(resp) => panic!("decoded as {resp:?}"),
        Err(e) => assert!(matches!(e, WireError::Truncated { .. }), "unexpected error {e:?}"),
    });
}

#[test]
fn corrupt_headers_yield_specific_typed_errors() {
    let bytes = full_push_frame();

    let mut wrong_magic = bytes.clone();
    wrong_magic[0] = b'Q';
    assert!(matches!(
        ControlMsg::from_bytes(&wrong_magic),
        Err(WireError::BadMagic { expected: CONTROL_MAGIC, .. })
    ));

    let mut future = bytes.clone();
    future[4] = 0xFF; // little-endian low byte: version 0xFF > 1
    assert!(matches!(
        ControlMsg::from_bytes(&future),
        Err(WireError::FutureVersion { supported: CONTROL_VERSION, .. })
    ));

    let mut bad_msg_tag = bytes.clone();
    bad_msg_tag[6] = 0xEE;
    assert!(matches!(
        ControlMsg::from_bytes(&bad_msg_tag),
        Err(WireError::BadTag { what: "control message tag", value: 0xEE })
    ));

    let mut bad_resp_tag = rollup_frame();
    bad_resp_tag[6] = 0xEE;
    assert!(matches!(
        ControlResp::from_bytes(&bad_resp_tag),
        Err(WireError::BadTag { what: "control response tag", value: 0xEE })
    ));
}

/// Frame layout: magic 0..4, version 4..6, tag 6, section length 7..15,
/// body from 15. The push body is epoch (8 bytes), then the delta's
/// presence-flagged fields in declaration order.
#[test]
fn corrupt_push_bodies_yield_specific_typed_errors() {
    let bytes = full_push_frame();

    // Byte 23 is the `shards` presence flag: a bool must be 0 or 1.
    let mut bad_flag = bytes.clone();
    bad_flag[23] = 7;
    assert!(matches!(
        ControlMsg::from_bytes(&bad_flag),
        Err(WireError::BadTag { what: "bool", value: 7 })
    ));

    // Bytes 24..32 are the shard count: zero shards is semantic garbage.
    let mut zero_shards = bytes.clone();
    zero_shards[24..32].fill(0);
    assert!(matches!(
        ControlMsg::from_bytes(&zero_shards),
        Err(WireError::Mismatch { what: "delta shards", .. })
    ));

    // Bytes 42..51 are the `delta_s` presence flag and value.
    let mut bad_delta_s_flag = bytes.clone();
    bad_delta_s_flag[42] = 2;
    assert!(matches!(
        ControlMsg::from_bytes(&bad_delta_s_flag),
        Err(WireError::BadTag { what: "bool", value: 2 })
    ));
}

/// Byte 41 (after shards and fanout at 9 bytes each) and the body's last
/// byte were the presence flags of the detector kernel and the window-cut
/// path. Both fields are gone; the bytes stay, `false`, so a frame that
/// never set them is unchanged, and any other value is a typed error.
#[test]
fn reserved_presence_bytes_refuse_anything_but_false() {
    let bytes = full_push_frame();
    let last = bytes.len() - 1;
    assert_eq!((bytes[41], bytes[last]), (0, 0));
    for at in [41, last] {
        for value in [1u8, 2, 0xFF] {
            let mut set = bytes.clone();
            set[at] = value;
            assert!(
                matches!(
                    ControlMsg::from_bytes(&set),
                    Err(WireError::BadTag { what: "reserved byte", value: v }) if v == value as u64
                ),
                "byte {at} = {value}"
            );
        }
    }

    // An empty push — the shape every frame that set neither field had —
    // is the same 35 bytes it always was: header, body length 20, the
    // epoch, and twelve absent fields.
    let empty = ControlMsg::ConfigPush { epoch: ConfigEpoch(9), delta: FleetDelta::default() };
    let mut expect = b"PCTL".to_vec();
    expect.extend_from_slice(&1u16.to_le_bytes());
    expect.push(1);
    expect.extend_from_slice(&20u64.to_le_bytes());
    expect.extend_from_slice(&9u64.to_le_bytes());
    expect.extend_from_slice(&[0; 12]);
    assert_eq!(empty.to_bytes(), expect);
}

#[test]
fn corrupt_response_bodies_yield_specific_typed_errors() {
    // Ack body: epoch 15..23, daemon-state tag at 23.
    let ack =
        ControlResp::Ack { epoch: ConfigEpoch(3), state: DaemonState::Running }.to_bytes();
    let mut bad_state = ack.clone();
    bad_state[23] = 9;
    assert!(matches!(
        ControlResp::from_bytes(&bad_state),
        Err(WireError::BadTag { what: "daemon state", value: 9 })
    ));

    // Reject body: epoch 15..23, reason length 23..31, reason bytes from
    // 31. 0xFF is never valid UTF-8.
    let reject = ControlResp::Reject { epoch: ConfigEpoch(3), reason: "stale epoch".into() }
        .to_bytes();
    let mut bad_utf8 = reject.clone();
    bad_utf8[31] = 0xFF;
    assert!(matches!(
        ControlResp::from_bytes(&bad_utf8),
        Err(WireError::Mismatch { what: "utf-8 string", .. })
    ));
}

/// Rollup trees are validated semantically on decode: region ids must
/// ascend strictly and the total must equal the merge of the regions.
/// The encoder writes whatever it is handed, so a hostile peer is modeled
/// by encoding invalid trees directly.
#[test]
fn invalid_rollup_trees_are_rejected_on_decode() {
    let mut descending = consistent_tree();
    descending.regions.swap(0, 1);
    let frame = ControlResp::Rollup { epoch: ConfigEpoch(1), rollup: descending }.to_bytes();
    assert!(matches!(
        ControlResp::from_bytes(&frame),
        Err(WireError::Mismatch { what: "rollup regions", .. })
    ));

    let mut inconsistent = consistent_tree();
    inconsistent.total.events_total += 1;
    let frame = ControlResp::Rollup { epoch: ConfigEpoch(1), rollup: inconsistent }.to_bytes();
    assert!(matches!(
        ControlResp::from_bytes(&frame),
        Err(WireError::Mismatch { what: "rollup tree", .. })
    ));
}

#[test]
fn trailing_bytes_inside_and_after_the_frame_are_typed_errors() {
    // Garbage after a complete frame: the outer reader must drain clean.
    let mut after_frame = ControlMsg::Restart.to_bytes();
    after_frame.extend_from_slice(b"???");
    assert!(matches!(
        ControlMsg::from_bytes(&after_frame),
        Err(WireError::TrailingBytes { what: "control frame", .. })
    ));

    // Garbage *inside* the body section (section length patched to cover
    // it): the body reader must drain clean too.
    let mut inside_body = ControlMsg::Drain { to_second: 600 }.to_bytes();
    inside_body.extend_from_slice(b"???");
    let len = u64::from_le_bytes(inside_body[7..15].try_into().unwrap()) + 3;
    inside_body[7..15].copy_from_slice(&len.to_le_bytes());
    assert!(matches!(
        ControlMsg::from_bytes(&inside_body),
        Err(WireError::TrailingBytes { what: "control message body", .. })
    ));

    let mut resp_body = ControlResp::Ack { epoch: ConfigEpoch(0), state: DaemonState::Stopped }
        .to_bytes();
    resp_body.extend_from_slice(b"???");
    let len = u64::from_le_bytes(resp_body[7..15].try_into().unwrap()) + 3;
    resp_body[7..15].copy_from_slice(&len.to_le_bytes());
    assert!(matches!(
        ControlResp::from_bytes(&resp_body),
        Err(WireError::TrailingBytes { what: "control response body", .. })
    ));
}
