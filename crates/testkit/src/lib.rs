//! The workspace's test kit: one seeded sweep, one table of awkward
//! `f64` bit patterns, the two walks every codec test runs, and the one
//! golden-file pin.
//!
//! - [`sweep`] runs a property once per seed on
//!   [`pinsql_workload::rng::rng_from_seed`], the workspace's one
//!   generator, and names the seed of any failure, a panic inside the
//!   code under test included.
//! - [`f64_pattern`] draws the bit patterns a codec is tempted to
//!   normalize, or 64 random bits.
//! - [`truncations`] hands a check every strict prefix of an encoding;
//!   [`mutations`] hands it the encoding with each byte set, in turn, to
//!   each of a list of values and then to one value the caller picks
//!   per byte. Each names the cut or the byte of a failure.
//! - [`pin`] compares bytes with a committed file, or rewrites the file
//!   under `PINSQL_BLESS=1`; it is the only reader of that variable.
//!
//! Failure names nest: a check that fails inside a walk inside a sweep
//! panics with `seed 3: byte 17 = 0x80: <the check's message>`. There is
//! no shrinker; re-run the test, the seed reproduces the case.
//!
//! The kit sits under `[dev-dependencies]` only and depends on nothing
//! but `pinsql-workload`, so every crate above `pinsql-workload` can use
//! it without a second copy of its own types.
#![forbid(unsafe_code)]

use pinsql_workload::rng::{rng_from_seed, RngExt, StdRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

/// Runs `case` once per seed, each with a fresh generator at that seed.
/// A failure, a panic inside the code under test included, panics again
/// with `seed N: ` in front of its message.
pub fn sweep(seeds: impl IntoIterator<Item = u64>, mut case: impl FnMut(u64, &mut StdRng)) {
    for seed in seeds {
        named(|| format!("seed {seed}"), || case(seed, &mut rng_from_seed(seed)));
    }
}

/// Runs `f`; if it panics, panics again with `what()` in front of the
/// message.
fn named(what: impl FnOnce() -> String, f: impl FnOnce()) {
    if let Err(panic) = catch_unwind(AssertUnwindSafe(f)) {
        let msg = match (panic.downcast_ref::<String>(), panic.downcast_ref::<&str>()) {
            (Some(s), _) => s.as_str(),
            (None, Some(s)) => s,
            (None, None) => "non-string panic",
        };
        panic!("{}: {msg}", what());
    }
}

/// The `f64` bit patterns a codec is tempted to normalize.
const PATTERNS: [u64; 13] = [
    0x0000_0000_0000_0000, // +0.0
    0x8000_0000_0000_0000, // -0.0
    0x7FF0_0000_0000_0000, // +inf
    0xFFF0_0000_0000_0000, // -inf
    0x7FF8_0000_0000_0000, // quiet NaN
    0x7FF0_0000_0000_0001, // signalling NaN, smallest payload
    0xFFFF_FFFF_FFFF_FFFF, // negative NaN, full payload
    0x0000_0000_0000_0001, // smallest subnormal
    0x800F_FFFF_FFFF_FFFF, // largest negative subnormal
    0x0010_0000_0000_0000, // smallest normal
    0x7FEF_FFFF_FFFF_FFFF, // f64::MAX
    0xFFEF_FFFF_FFFF_FFFF, // f64::MIN
    0x40F8_6A00_0000_0000, // 100_000.0, an ordinary timestamp
];

/// Half the time one of the patterns a codec is tempted to normalize
/// (signed zeros, infinities, NaNs with payloads, subnormals, the ends of
/// the finite range), otherwise 64 random bits.
pub fn f64_pattern(rng: &mut StdRng) -> f64 {
    f64::from_bits(match rng.random_range(0..2u32) {
        0 => PATTERNS[rng.random_range(0..PATTERNS.len())],
        _ => rng.random(),
    })
}

/// Calls `check` on `bytes[..cut]` for every `cut` in `0..bytes.len()`
/// that is a multiple of `stride` (1 for every prefix). A failure names
/// the cut.
pub fn truncations(bytes: &[u8], stride: usize, mut check: impl FnMut(&[u8])) {
    for cut in (0..bytes.len()).step_by(stride) {
        named(|| format!("cut at {cut} of {}", bytes.len()), || check(&bytes[..cut]));
    }
}

/// The values a binary codec's mutation walk writes: zero, the small
/// tags and flags, and the sign-bit and all-ones edges.
pub const BYTE_VALUES: [u8; 9] = [0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x7F, 0x80, 0xFF];

/// Calls `check` on a copy of `bytes` with one byte changed, for every
/// offset and every value in `values` followed by `extra(original)`: the
/// original byte with a bit flipped, say, or a fresh random byte. A
/// failure names the byte and the value.
pub fn mutations(
    bytes: &[u8],
    values: &[u8],
    mut extra: impl FnMut(u8) -> u8,
    mut check: impl FnMut(&[u8]),
) {
    let mut mutated = bytes.to_vec();
    for (at, &original) in bytes.iter().enumerate() {
        for value in values.iter().copied().chain([extra(original)]) {
            mutated[at] = value;
            named(|| format!("byte {at} = {value:#04x}"), || check(&mutated));
        }
        mutated[at] = original;
    }
}

/// Pins `bytes` to the committed file at `path`. Under `PINSQL_BLESS=1`
/// it writes the file instead. A missing file fails like a differing one,
/// so a fresh checkout never compares an encoder with itself. A failure
/// names the first differing byte and, for text, up to eight differing
/// lines.
pub fn pin(path: impl AsRef<Path>, bytes: &[u8]) {
    let path = path.as_ref();
    if std::env::var_os("PINSQL_BLESS").is_some() {
        std::fs::write(path, bytes).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        return;
    }
    let pinned = std::fs::read(path).unwrap_or_else(|e| {
        panic!("{}: {e}; bless it with PINSQL_BLESS=1 under the build to pin", path.display())
    });
    if pinned == bytes {
        return;
    }
    let at = pinned.iter().zip(bytes).position(|(a, b)| a != b);
    let at = at.unwrap_or(pinned.len().min(bytes.len()));
    // Not the bytes themselves: a PSNP blob is 800 KB.
    let mut msg = format!(
        "{}: {} bytes pinned, {} built, first difference at byte {at}",
        path.display(),
        pinned.len(),
        bytes.len()
    );
    if let (Ok(pinned), Ok(built)) = (std::str::from_utf8(&pinned), std::str::from_utf8(bytes)) {
        let lines = pinned.lines().zip(built.lines()).enumerate().filter(|(_, (p, b))| p != b);
        for (n, (p, b)) in lines.take(8) {
            msg += &format!("\n  line {}: pinned `{p}`, built `{b}`", n + 1);
        }
    }
    panic!("{msg}\nif the change is intentional, re-bless with PINSQL_BLESS=1 and review the diff");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn message(f: impl FnOnce()) -> String {
        let panic = catch_unwind(AssertUnwindSafe(f)).expect_err("the check fails");
        panic.downcast_ref::<String>().cloned().expect("a formatted message")
    }

    #[test]
    fn failures_name_the_seed_the_cut_and_the_byte() {
        let msg = message(|| {
            sweep(0..10, |seed, _| {
                truncations(&[1, 2, 3], 1, |prefix| assert!(seed < 4 || prefix.len() < 2, "short"))
            })
        });
        assert_eq!(msg, "seed 4: cut at 2 of 3: short");
        let flip = |b: u8| b ^ 0x10;
        let msg = message(|| mutations(&[7, 8], &BYTE_VALUES, flip, |m| assert_ne!(m, [7, 0x18])));
        assert!(msg.starts_with("byte 1 = 0x18: assertion `left != right` failed"), "{msg}");
    }

    #[test]
    fn walks_visit_every_prefix_and_every_value() {
        let mut cuts = Vec::new();
        truncations(&[9; 7], 3, |p| cuts.push(p.len()));
        assert_eq!(cuts, [0, 3, 6]);
        let mut seen = Vec::new();
        mutations(&[0x20, 0x30], &[0, 0xFF], |b| b ^ 0x10, |m| seen.push(m.to_vec()));
        let want: [[u8; 2]; 6] =
            [[0, 0x30], [0xFF, 0x30], [0x30, 0x30], [0x20, 0], [0x20, 0xFF], [0x20, 0x20]];
        assert_eq!(seen, want);
    }

    #[test]
    fn a_sweep_is_the_generator_at_each_seed() {
        let mut draws = Vec::new();
        sweep([3, 5], |seed, rng| draws.push((seed, rng.random::<u64>())));
        let want = [3, 5].map(|s| (s, rng_from_seed(s).random::<u64>()));
        assert_eq!(draws, want);
        let mut rng = rng_from_seed(0);
        let special = (0..1000).filter(|_| PATTERNS.contains(&f64_pattern(&mut rng).to_bits()));
        assert!((400..600).contains(&special.count()));
    }

    #[test]
    fn pin_names_the_first_difference_and_fails_on_a_missing_file() {
        let dir = std::env::temp_dir().join(format!("pinsql-testkit-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pinned.txt");
        std::fs::write(&path, "0 aa\n1 bb\n2 cc\n").unwrap();
        pin(&path, b"0 aa\n1 bb\n2 cc\n");
        let msg = message(|| pin(&path, b"0 aa\n1 bx\n2 cc\n"));
        assert!(msg.contains("first difference at byte 8"), "{msg}");
        assert!(msg.contains("line 2: pinned `1 bb`, built `1 bx`"), "{msg}");
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(message(|| pin(&path, b"")).contains("PINSQL_BLESS=1"));
    }
}
