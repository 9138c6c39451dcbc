//! Compact self-describing binary codec for checkpoint/restore.
//!
//! The fleet engine snapshots live per-instance state (aggregator rings,
//! detector segments) so instances can be handed between shards or revived
//! after a crash with *bit-identical* behavior. JSON cannot carry
//! that contract — resident state legitimately holds non-finite `f64`s and
//! JSON round-trips floats through decimal — so snapshots use this
//! hand-rolled little-endian format instead: every `f64` travels as its raw
//! IEEE-754 bits, every sequence is length-prefixed, and malformed input
//! surfaces as a typed [`WireError`], never a panic.
//!
//! The codec lives in `pinsql-timeseries` because it is the one crate both
//! `pinsql-collector` and `pinsql-detect` already depend on; the engine
//! layers an outer envelope (magic, version, kind tags, sections) on top of
//! these primitives in `pinsql_engine::snapshot`.

use std::fmt;

/// Typed decode failure. Encoding is infallible; every variant here is a
/// property of the *input buffer*, so callers can distinguish truncation
/// from version skew from corruption.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before a fixed-width read or a declared length.
    Truncated {
        /// Bytes the read needed.
        need: usize,
        /// Bytes remaining in the buffer.
        have: usize,
    },
    /// The leading magic bytes did not match the expected format marker.
    BadMagic { expected: [u8; 4], found: [u8; 4] },
    /// The buffer declares a format version newer than this build supports.
    FutureVersion { found: u16, supported: u16 },
    /// An enum tag byte (kernel kind, cellstore kind, section id, state
    /// tag...) held a value outside the known range.
    BadTag { what: &'static str, value: u64 },
    /// A declared length or invariant is inconsistent with the decoder's
    /// environment (e.g. a snapshot's template catalog does not match the
    /// scenario it is being restored into).
    Mismatch { what: &'static str, detail: String },
    /// A section or buffer decoded cleanly but left unread bytes behind.
    TrailingBytes { what: &'static str, extra: usize },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { need, have } => {
                write!(f, "truncated buffer: need {need} bytes, have {have}")
            }
            WireError::BadMagic { expected, found } => {
                write!(f, "bad magic: expected {expected:02x?}, found {found:02x?}")
            }
            WireError::FutureVersion { found, supported } => {
                write!(f, "future format version {found} (this build supports <= {supported})")
            }
            WireError::BadTag { what, value } => write!(f, "bad {what} tag: {value}"),
            WireError::Mismatch { what, detail } => write!(f, "{what} mismatch: {detail}"),
            WireError::TrailingBytes { what, extra } => {
                write!(f, "{what} left {extra} trailing bytes")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Little-endian append-only encoder over a growable byte buffer.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    pub fn new() -> Self {
        Self { buf: Vec::new() }
    }

    pub fn with_capacity(cap: usize) -> Self {
        Self { buf: Vec::with_capacity(cap) }
    }

    /// Consumes the writer and returns the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    #[inline]
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Encodes the raw IEEE-754 bits — exact for every value including
    /// NaN payloads, infinities, and signed zeros.
    #[inline]
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    #[inline]
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// `usize` sequence length as `u64` (portable across word sizes).
    #[inline]
    pub fn put_len(&mut self, n: usize) {
        self.put_u64(n as u64);
    }

    pub fn put_bytes_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends one fixed-width record whole — one capacity check for all
    /// `N` bytes where the per-field `put_*` calls pay one each. Records
    /// are assembled with [`set_u64`] and friends; the bytes on the wire
    /// are the ones the field-by-field calls would have written.
    #[inline]
    pub fn put_array<const N: usize>(&mut self, record: [u8; N]) {
        self.buf.extend_from_slice(&record);
    }

    /// Length-prefixed byte string.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_len(bytes.len());
        self.buf.extend_from_slice(bytes);
    }

    /// Length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }

    /// Writes a length-prefixed section: the closure fills the body, then
    /// the byte length is back-patched in front of it. Sections let a
    /// decoder verify framing (and skip or bound sub-decoders) without the
    /// encoder computing sizes up front.
    pub fn put_section(&mut self, f: impl FnOnce(&mut Self)) {
        let at = self.buf.len();
        self.put_u64(0);
        f(self);
        let len = (self.buf.len() - at - 8) as u64;
        self.buf[at..at + 8].copy_from_slice(&len.to_le_bytes());
    }
}

/// Little-endian cursor-based decoder over a borrowed byte slice.
#[derive(Debug, Clone)]
pub struct WireReader<'a> {
    /// The bytes not yet consumed: the cursor *is* the slice, so a read
    /// is one length comparison and a split.
    rest: &'a [u8],
}

impl<'a> WireReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Self { rest: buf }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rest.is_empty()
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        match self.rest.split_at_checked(n) {
            Some((head, rest)) => {
                self.rest = rest;
                Ok(head)
            }
            None => Err(WireError::Truncated { need: n, have: self.rest.len() }),
        }
    }

    /// Reads one fixed-width record whole: one bounds check for all `N`
    /// bytes, after which [`u64_at`] and friends pick the fields out of
    /// the array at constant offsets with nothing left to check. A record
    /// the buffer cannot hold is `Truncated { need: N, .. }` — the same
    /// variant the field-by-field reads give, with the record's size
    /// where they would name the first field that did not fit.
    #[inline]
    pub fn get_array<const N: usize>(&mut self) -> Result<&'a [u8; N], WireError> {
        match self.rest.split_first_chunk::<N>() {
            Some((record, rest)) => {
                self.rest = rest;
                Ok(record)
            }
            None => Err(WireError::Truncated { need: N, have: self.rest.len() }),
        }
    }

    #[inline]
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.get_array::<1>()?[0])
    }

    #[inline]
    pub fn get_u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(*self.get_array()?))
    }

    #[inline]
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(*self.get_array()?))
    }

    #[inline]
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(*self.get_array()?))
    }

    #[inline]
    pub fn get_i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(*self.get_array()?))
    }

    #[inline]
    pub fn get_f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    pub fn get_bool(&mut self) -> Result<bool, WireError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(WireError::BadTag { what: "bool", value: v as u64 }),
        }
    }

    /// Sequence length; rejects lengths that could not possibly fit in the
    /// remaining buffer so corrupt prefixes fail fast instead of driving a
    /// huge loop of `Truncated` reads (or an OOM `Vec::with_capacity`).
    pub fn get_len(&mut self, min_elem_bytes: usize) -> Result<usize, WireError> {
        let n = self.get_u64()?;
        let need = (n as u128) * (min_elem_bytes.max(1) as u128);
        if need > self.remaining() as u128 {
            return Err(WireError::Truncated {
                need: need.min(usize::MAX as u128) as usize,
                have: self.remaining(),
            });
        }
        Ok(n as usize)
    }

    pub fn get_bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.get_len(1)?;
        self.take(n)
    }

    pub fn get_str(&mut self) -> Result<&'a str, WireError> {
        let bytes = self.get_bytes()?;
        std::str::from_utf8(bytes)
            .map_err(|_| WireError::Mismatch { what: "utf-8 string", detail: "invalid encoding".into() })
    }

    /// Fixed-width magic marker.
    pub fn expect_magic(&mut self, expected: [u8; 4]) -> Result<(), WireError> {
        let found: [u8; 4] = *self.get_array()?;
        if found != expected {
            return Err(WireError::BadMagic { expected, found });
        }
        Ok(())
    }

    /// Reads a length-prefixed section and returns a sub-reader bounded to
    /// exactly that section's bytes; the parent cursor skips past it.
    pub fn get_section(&mut self) -> Result<WireReader<'a>, WireError> {
        let n = self.get_len(1)?;
        Ok(WireReader::new(self.take(n)?))
    }

    /// Asserts the reader consumed everything (call at end of a section or
    /// buffer to catch over-long input).
    #[inline]
    pub fn finish(&self, what: &'static str) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::TrailingBytes { what, extra: self.remaining() });
        }
        Ok(())
    }
}

/// The little-endian `u64` at byte `at` of a fixed-width record read by
/// [`WireReader::get_array`]. With a constant `at` into a `[u8; N]` the
/// range check folds away at compile time.
///
/// # Panics
/// Panics if `record` is shorter than `at + 8` — a wrong constant in the
/// caller, not a property of the input.
#[inline]
pub fn u64_at(record: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(*record[at..].first_chunk().expect("field inside the record"))
}

/// [`u64_at`] for a `u32` field.
#[inline]
pub fn u32_at(record: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(*record[at..].first_chunk().expect("field inside the record"))
}

/// [`u64_at`] for an `f64` field (raw IEEE-754 bits).
#[inline]
pub fn f64_at(record: &[u8], at: usize) -> f64 {
    f64::from_bits(u64_at(record, at))
}

/// Stores `v` little-endian at byte `at` of a fixed-width record bound
/// for [`WireWriter::put_array`]; panics like [`u64_at`].
#[inline]
pub fn set_u64(record: &mut [u8], at: usize, v: u64) {
    *record[at..].first_chunk_mut().expect("field inside the record") = v.to_le_bytes();
}

/// [`set_u64`] for a `u32` field.
#[inline]
pub fn set_u32(record: &mut [u8], at: usize, v: u32) {
    *record[at..].first_chunk_mut().expect("field inside the record") = v.to_le_bytes();
}

/// [`set_u64`] for an `f64` field (raw IEEE-754 bits).
#[inline]
pub fn set_f64(record: &mut [u8], at: usize, v: f64) {
    set_u64(record, at, v.to_bits());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_primitives_exactly() {
        let mut w = WireWriter::new();
        w.put_u8(7);
        w.put_u16(65535);
        w.put_u32(123456789);
        w.put_u64(u64::MAX);
        w.put_i64(i64::MIN);
        w.put_f64(f64::NEG_INFINITY);
        w.put_f64(-0.0);
        w.put_f64(f64::from_bits(0x7ff8_dead_beef_0001)); // NaN with payload
        w.put_bool(true);
        w.put_str("snapshot");
        let bytes = w.into_bytes();

        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u16().unwrap(), 65535);
        assert_eq!(r.get_u32().unwrap(), 123456789);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_i64().unwrap(), i64::MIN);
        assert_eq!(r.get_f64().unwrap(), f64::NEG_INFINITY);
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.get_f64().unwrap().to_bits(), 0x7ff8_dead_beef_0001);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_str().unwrap(), "snapshot");
        r.finish("test buffer").unwrap();
    }

    /// A fixed-width record is the bytes the per-field calls write, reads
    /// back through the `*_at` accessors, and a buffer too short for it
    /// is one typed `Truncated` naming the whole record — with the
    /// cursor left where it was.
    #[test]
    fn fixed_width_records_match_the_field_calls() {
        let mut row = [0u8; 28];
        set_u32(&mut row, 0, 0xDEAD_BEEF);
        set_u64(&mut row, 4, u64::MAX - 1);
        set_f64(&mut row, 12, -0.0);
        set_f64(&mut row, 20, f64::from_bits(0x7ff8_dead_beef_0001));
        let mut w = WireWriter::new();
        w.put_u8(9);
        w.put_array(row);
        let bytes = w.into_bytes();

        let mut fields = WireWriter::new();
        fields.put_u8(9);
        fields.put_u32(0xDEAD_BEEF);
        fields.put_u64(u64::MAX - 1);
        fields.put_f64(-0.0);
        fields.put_f64(f64::from_bits(0x7ff8_dead_beef_0001));
        assert_eq!(bytes, fields.into_bytes());

        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 9);
        let back: &[u8; 28] = r.get_array().unwrap();
        assert_eq!(u32_at(back, 0), 0xDEAD_BEEF);
        assert_eq!(u64_at(back, 4), u64::MAX - 1);
        assert_eq!(f64_at(back, 12).to_bits(), (-0.0f64).to_bits());
        assert_eq!(f64_at(back, 20).to_bits(), 0x7ff8_dead_beef_0001);
        r.finish("record").unwrap();

        pinsql_testkit::truncations(&bytes[1..], 1, |row| {
            let mut r = WireReader::new(row);
            let have = row.len();
            assert_eq!(r.get_array::<28>().map(|_| ()), Err(WireError::Truncated { need: 28, have }));
            assert_eq!(r.remaining(), have, "a failed read consumes nothing");
        });
    }

    #[test]
    fn sections_backpatch_and_bound() {
        let mut w = WireWriter::new();
        w.put_section(|w| {
            w.put_u32(42);
            w.put_str("inner");
        });
        w.put_u8(9);
        let bytes = w.into_bytes();

        let mut r = WireReader::new(&bytes);
        let mut sec = r.get_section().unwrap();
        assert_eq!(sec.get_u32().unwrap(), 42);
        assert_eq!(sec.get_str().unwrap(), "inner");
        sec.finish("section").unwrap();
        assert_eq!(r.get_u8().unwrap(), 9);
        r.finish("outer").unwrap();
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let mut w = WireWriter::new();
        w.put_section(|w| {
            w.put_f64(1.5);
            w.put_str("abc");
        });
        w.put_i64(-3);
        let bytes = w.into_bytes();
        pinsql_testkit::truncations(&bytes, 1, |prefix| {
            let mut r = WireReader::new(prefix);
            let res = (|| {
                let mut sec = r.get_section()?;
                sec.get_f64()?;
                sec.get_str()?;
                sec.finish("sec")?;
                r.get_i64()?;
                r.finish("buf")
            })();
            assert!(matches!(res, Err(WireError::Truncated { .. })), "{res:?}");
        });
    }

    #[test]
    fn bad_magic_and_tags_are_typed() {
        let mut r = WireReader::new(b"XNOPrest");
        assert_eq!(
            r.expect_magic(*b"PSNP"),
            Err(WireError::BadMagic { expected: *b"PSNP", found: *b"XNOP" })
        );
        let mut r = WireReader::new(&[3u8]);
        assert_eq!(r.get_bool(), Err(WireError::BadTag { what: "bool", value: 3 }));
    }

    #[test]
    fn absurd_length_prefix_fails_fast() {
        let mut w = WireWriter::new();
        w.put_u64(u64::MAX); // declared length far beyond the buffer
        w.put_u8(1);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert!(matches!(r.get_bytes(), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn trailing_bytes_are_reported() {
        let mut w = WireWriter::new();
        w.put_u32(1);
        w.put_u8(0xEE);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        r.get_u32().unwrap();
        assert_eq!(r.finish("blob"), Err(WireError::TrailingBytes { what: "blob", extra: 1 }));
    }
}
