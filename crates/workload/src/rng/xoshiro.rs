//! The workspace's one pseudo-random generator: xoshiro256** seeded
//! through splitmix64, with the draw API the crates call
//! ([`rngs::StdRng`], [`SeedableRng::seed_from_u64`], the core [`Rng`]
//! trait and [`RngExt::random`] / [`RngExt::random_range`] over
//! `f64`/`u64`/`u32`/`usize`).
//!
//! Moved here verbatim from `benchmark/shims/rand`, the stand-in the
//! benchmark has generated its workloads from since PR 11. **The stream
//! must not move**: every simulated workload, every `results/*.txt`
//! table, the golden corpus and three benchmark metrics bounded at 1 %
//! are functions of it. The known-answer test in [`super`] pins it.

use std::ops::{Range, RangeInclusive};

/// The core generator trait (`RngCore` before rand 0.10).
pub trait Rng {
    fn next_u64(&mut self) -> u64;
}

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

pub mod rngs {
    use super::{Rng, SeedableRng};

    /// xoshiro256** (Blackman & Vigna), state expanded from the seed with
    /// splitmix64 as its authors recommend.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            // splitmix64 is a bijection walked from distinct points, so
            // the state is never all zero (xoshiro's one forbidden state).
            Self { s: [next(), next(), next(), next()] }
        }
    }

    impl Rng for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let out = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            out
        }
    }
}

/// Types [`RngExt::random`] can draw.
pub trait Standard: Sized {
    fn draw<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn draw<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn draw<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for usize {
    fn draw<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 random mantissa bits.
    fn draw<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Ranges [`RngExt::random_range`] can sample a `T` from.
pub trait SampleRange<T> {
    fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

/// Unbiased draw from `[0, span)` (Lemire's multiply-and-reject);
/// `span == 0` stands for the full 2^64 range.
fn below<R: Rng + ?Sized>(rng: &mut R, span: u64) -> u64 {
    if span == 0 {
        return rng.next_u64();
    }
    let threshold = span.wrapping_neg() % span;
    loop {
        let m = u128::from(rng.next_u64()) * u128::from(span);
        if (m as u64) >= threshold {
            return (m >> 64) as u64;
        }
    }
}

macro_rules! int_ranges {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end - self.start) as u64;
                self.start + below(rng, span) as $t
            }
        }

        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "cannot sample empty range");
                // Wraps to 0 exactly when the range is the whole of u64.
                let span = ((hi - lo) as u64).wrapping_add(1);
                lo + below(rng, span) as $t
            }
        }
    )*};
}

int_ranges!(u64, u32, usize);

impl SampleRange<f64> for Range<f64> {
    fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        loop {
            let v = self.start + (self.end - self.start) * f64::draw(rng);
            // Rounding can land exactly on the excluded end.
            if v < self.end {
                return v;
            }
        }
    }
}

/// The user-facing draws, blanket-implemented for every [`Rng`].
pub trait RngExt: Rng {
    fn random<T: Standard>(&mut self) -> T {
        T::draw(self)
    }

    fn random_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample(self)
    }
}

impl<R: Rng + ?Sized> RngExt for R {}
