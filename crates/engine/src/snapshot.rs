//! Serializable checkpoints of an [`OnlineInstance`]'s online state.
//!
//! A production fleet engine must survive process restarts and move
//! instances between ingestion shards without replaying days of telemetry.
//! Both needs reduce to the same primitive: serialize *all* of an
//! instance's mutable online state — the incremental aggregator's rings,
//! history feed, and counters plus the detector bank's rolling baselines
//! and open segments — restore it elsewhere, and continue **bit-identical**
//! to an instance that never stopped. Every `f64` travels as raw IEEE-754
//! bits (`to_bits`/`from_bits`); nothing is re-derived on restore, so
//! there is no float drift for the equivalence suites to forgive.
//!
//! ## Wire format
//!
//! A snapshot is a self-describing binary blob:
//!
//! ```text
//! magic    "PSNP"           4 bytes
//! version  u16              3, the only version read (a newer one is a
//!                           typed `FutureVersion`, an older one a
//!                           `BadTag`, never a panic)
//! kernel   u8               1 (anything else is a `BadTag`)
//! reserved u8               0 (anything else is a `BadTag`)
//! section instance meta     length-prefixed: delta_s (≥ 0, else a
//!                           `Mismatch`), events ingested, segment-open
//!                           flag, case open/close counters
//! section aggregator        `IncrementalAggregator::write_snapshot` body
//! section detector bank     `OnlineDetectorBank::write_snapshot` body
//! ```
//!
//! The kernel byte, and its twin opening the bank section, once told two
//! detector kernels apart; the second is now a test oracle, and both
//! bytes stayed with the one legal value. The reserved byte, and a second
//! one inside the aggregator body, used to name one of two cell-row
//! representations; one is left and the bytes stayed, as zeros. Version 3
//! dropped version 2's fourth section (running moments for a
//! template↔session score nothing read); a version-2 blob is refused.
//!
//! Malformed input of every shape — truncation at any byte, wrong magic,
//! future or previous version, bad tags, trailing garbage, a blob from a
//! different scenario — produces a [`WireError`], never a panic and never
//! a silently wrong instance. The `snapshot_wire` suite walks every
//! truncation point of a golden blob to pin this.

use crate::wire::WireFormat;
use pinsql_timeseries::{WireError, WireReader, WireWriter};

/// The four magic bytes opening every instance snapshot.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"PSNP";
/// The snapshot wire version this build writes and reads.
pub const SNAPSHOT_VERSION: u16 = 3;

/// The `PSNP` envelope identity under the shared [`WireFormat`] dialect.
const SNAPSHOT_FORMAT: WireFormat = WireFormat {
    magic: SNAPSHOT_MAGIC,
    version: SNAPSHOT_VERSION,
    min_version: SNAPSHOT_VERSION,
    version_what: "snapshot version",
};

/// Header length: magic + version + kernel tag + reserved byte.
const HEADER_LEN: usize = 8;

/// One instance's serialized online state.
///
/// Construction always validates the header ([`from_bytes`]
/// (Self::from_bytes) for untrusted bytes; `OnlineInstance::snapshot` for
/// live state). Body sections are validated on restore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstanceSnapshot {
    bytes: Vec<u8>,
}

impl InstanceSnapshot {
    /// Wraps untrusted bytes, validating magic, version, and header tags.
    ///
    /// Body sections are *not* decoded here — a snapshot can be routed
    /// (shipped to its new shard) without paying for a full decode.
    /// Restore validates everything else.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, WireError> {
        let mut r = WireReader::new(&bytes);
        SNAPSHOT_FORMAT.read_magic_version(&mut r)?;
        check_kernel(r.get_u8()?)?;
        check_reserved(r.get_u8()?)?;
        Ok(Self { bytes })
    }

    /// Wraps bytes the engine itself just encoded (header known good).
    pub(crate) fn from_trusted(bytes: Vec<u8>) -> Self {
        debug_assert!(bytes.len() >= HEADER_LEN && bytes[..4] == SNAPSHOT_MAGIC);
        Self { bytes }
    }

    /// The serialized blob.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Unwraps into the serialized blob.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Serialized size in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Never true — a valid snapshot always carries at least its header.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// The instance-level scalars carried alongside the aggregator and bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct InstanceMeta {
    pub delta_s: i64,
    pub events: u64,
    pub seg_open: bool,
    pub cases_opened: u64,
    pub cases_closed: u64,
}

/// Header byte 6: the one detector kernel's tag.
const KERNEL_TAG: u8 = 1;

fn check_kernel(byte: u8) -> Result<(), WireError> {
    match byte {
        KERNEL_TAG => Ok(()),
        t => Err(WireError::BadTag { what: "kernel kind", value: t as u64 }),
    }
}

/// Header byte 7 carries nothing and must say so.
fn check_reserved(byte: u8) -> Result<(), WireError> {
    match byte {
        0 => Ok(()),
        b => Err(WireError::BadTag { what: "reserved byte", value: b as u64 }),
    }
}

/// Writes the envelope header plus the instance-meta section; the caller
/// (instance.rs) appends the aggregator and bank sections.
pub(crate) fn write_header(w: &mut WireWriter, meta: InstanceMeta) {
    SNAPSHOT_FORMAT.write_magic_version(w);
    w.put_u8(KERNEL_TAG);
    w.put_u8(0);
    w.put_section(|w| {
        w.put_i64(meta.delta_s);
        w.put_u64(meta.events);
        w.put_bool(meta.seg_open);
        w.put_u64(meta.cases_opened);
        w.put_u64(meta.cases_closed);
    });
}

/// Reads the envelope header plus the instance-meta section. A negative
/// `delta_s` is a typed mismatch: window selection cannot look back a
/// negative span.
pub(crate) fn read_header(r: &mut WireReader<'_>) -> Result<InstanceMeta, WireError> {
    SNAPSHOT_FORMAT.read_magic_version(r)?;
    check_kernel(r.get_u8()?)?;
    check_reserved(r.get_u8()?)?;
    let mut meta_r = r.get_section()?;
    let meta = InstanceMeta {
        delta_s: meta_r.get_i64()?,
        events: meta_r.get_u64()?,
        seg_open: meta_r.get_bool()?,
        cases_opened: meta_r.get_u64()?,
        cases_closed: meta_r.get_u64()?,
    };
    meta_r.finish("instance meta")?;
    check_delta_s(meta.delta_s)?;
    Ok(meta)
}

/// A negative `delta_s` is a typed mismatch wherever one enters an
/// instance (a snapshot, a spawned or resumed daemon's config): window
/// selection cannot look back a negative span.
pub(crate) fn check_delta_s(delta_s: i64) -> Result<(), WireError> {
    match delta_s {
        ..0 => Err(WireError::Mismatch {
            what: "delta_s",
            detail: format!("{delta_s}s is a negative look-back"),
        }),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn golden_header() -> Vec<u8> {
        let mut w = WireWriter::new();
        write_header(
            &mut w,
            InstanceMeta {
                delta_s: 600,
                events: 12345,
                seg_open: true,
                cases_opened: 2,
                cases_closed: 1,
            },
        );
        w.into_bytes()
    }

    #[test]
    fn header_round_trips() {
        let bytes = golden_header();
        let mut r = WireReader::new(&bytes);
        let meta = read_header(&mut r).unwrap();
        r.finish("header").unwrap();
        assert_eq!(
            meta,
            InstanceMeta {
                delta_s: 600,
                events: 12345,
                seg_open: true,
                cases_opened: 2,
                cases_closed: 1
            }
        );
    }

    #[test]
    fn header_rejects_wrong_magic_and_future_version() {
        let bytes = golden_header();

        let mut wrong = bytes.clone();
        wrong[0] = b'Q';
        assert!(matches!(
            read_header(&mut WireReader::new(&wrong)),
            Err(WireError::BadMagic { expected: SNAPSHOT_MAGIC, .. })
        ));

        let mut future = bytes.clone();
        future[4] = 0xFF; // version little-endian low byte
        assert!(matches!(
            read_header(&mut WireReader::new(&future)),
            Err(WireError::FutureVersion { supported: SNAPSHOT_VERSION, .. })
        ));

        for value in [0u8, 2, 7] {
            let mut bad_kernel = bytes.clone();
            bad_kernel[6] = value;
            assert!(matches!(
                read_header(&mut WireReader::new(&bad_kernel)),
                Err(WireError::BadTag { what: "kernel kind", value: v }) if v == value as u64
            ));
        }

        for value in [1u8, 9, 0xFF] {
            let mut reserved = bytes.clone();
            reserved[7] = value;
            assert!(matches!(
                read_header(&mut WireReader::new(&reserved)),
                Err(WireError::BadTag { what: "reserved byte", value: v }) if v == value as u64
            ));
        }
    }

    #[test]
    fn header_rejects_previous_versions() {
        for old in 0..SNAPSHOT_VERSION {
            let mut bytes = golden_header();
            bytes[4..6].copy_from_slice(&old.to_le_bytes());
            assert!(matches!(
                read_header(&mut WireReader::new(&bytes)),
                Err(WireError::BadTag { what: "snapshot version", value: v }) if v == old as u64
            ));
        }
    }

    #[test]
    fn header_rejects_every_truncation() {
        let bytes = golden_header();
        pinsql_testkit::truncations(&bytes, 1, |prefix| {
            assert!(read_header(&mut WireReader::new(prefix)).is_err())
        });
    }

    #[test]
    fn from_bytes_validates_eagerly() {
        assert!(InstanceSnapshot::from_bytes(vec![]).is_err());
        assert!(InstanceSnapshot::from_bytes(b"JUNKJUNK".to_vec()).is_err());
        let snap = InstanceSnapshot::from_bytes(golden_header()).unwrap();
        assert!(!snap.is_empty());
        assert_eq!(snap.len(), snap.as_bytes().len());
    }
}
