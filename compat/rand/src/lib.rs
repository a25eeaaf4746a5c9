//! Vendored, API-compatible subset of the `rand` 0.8 crate.
//!
//! The build environment has no network access to crates.io, so this shim
//! provides exactly the surface the workspace uses — [`rngs::StdRng`],
//! [`SeedableRng`], and [`Rng`]'s `gen`/`gen_range`/`gen_bool` — with a
//! deterministic xoshiro256++ core. The *sequences* differ from upstream
//! `rand` (which uses ChaCha12 for `StdRng`), but every consumer in this
//! workspace only requires reproducibility for a given seed, which this
//! shim guarantees on every platform.

use std::ops::{Range, RangeInclusive};

/// Low-level generator interface (subset of `rand_core::RngCore`).
pub trait RngCore {
    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Seedable construction (subset of `rand_core::SeedableRng`).
pub trait SeedableRng: Sized {
    /// Raw seed material type.
    type Seed;
    /// Constructs from full seed material.
    fn from_seed(seed: Self::Seed) -> Self;
    /// Constructs from a `u64`, whitening it over the full state.
    fn seed_from_u64(state: u64) -> Self;
}

/// SplitMix64 step — seeds the main generator's state words.
fn splitmix64(z: &mut u64) -> u64 {
    *z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut x = *z;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Named generators (subset of `rand::rngs`).
pub mod rngs {
    use super::{splitmix64, RngCore, SeedableRng};

    /// The standard RNG: deterministic, seedable, platform-independent.
    ///
    /// Implemented as xoshiro256++ (Blackman & Vigna). Not the same
    /// sequence as upstream `rand`'s ChaCha12-based `StdRng`, but equally
    /// deterministic for a given seed.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        #[inline]
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: Self::Seed) -> Self {
            let mut s = [0u64; 4];
            for (i, word) in s.iter_mut().enumerate() {
                let mut b = [0u8; 8];
                b.copy_from_slice(&seed[i * 8..i * 8 + 8]);
                *word = u64::from_le_bytes(b);
            }
            // All-zero state is the one forbidden xoshiro state.
            if s == [0, 0, 0, 0] {
                s = [0x9E37_79B9_7F4A_7C15, 1, 2, 3];
            }
            StdRng { s }
        }

        fn seed_from_u64(state: u64) -> Self {
            let mut z = state;
            StdRng {
                s: [
                    splitmix64(&mut z),
                    splitmix64(&mut z),
                    splitmix64(&mut z),
                    splitmix64(&mut z),
                ],
            }
        }
    }
}

/// Types that can be drawn uniformly from their full domain via `gen()`.
pub trait Standard: Sized {
    /// Draws one value.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            #[inline]
            fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for u128 {
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128
    }
}

impl Standard for bool {
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    /// Uniform in `[0, 1)` with 24 bits of precision.
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Unbiased draw in `[0, n)` by rejection sampling. `n` must be non-zero.
#[inline]
fn u64_below<R: RngCore + ?Sized>(rng: &mut R, n: u64) -> u64 {
    debug_assert!(n > 0);
    if n.is_power_of_two() {
        return rng.next_u64() & (n - 1);
    }
    let zone = u64::MAX - (u64::MAX % n);
    loop {
        let v = rng.next_u64();
        if v < zone {
            return v % n;
        }
    }
}

/// Range types accepted by [`Rng::gen_range`] (subset of
/// `rand::distributions::uniform::SampleRange`).
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_sample_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let width = (self.end as u64).wrapping_sub(self.start as u64);
                self.start.wrapping_add(u64_below(rng, width) as $t)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            #[inline]
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "cannot sample empty range");
                let width = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                if width == 0 {
                    // Full u64 domain.
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(u64_below(rng, width) as $t)
            }
        }
    )*};
}
impl_sample_range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for Range<f64> {
    #[inline]
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + f64::sample_standard(rng) * (self.end - self.start)
    }
}

/// User-facing generator interface (subset of `rand::Rng`).
pub trait Rng: RngCore {
    /// Draws a value uniformly from the type's full domain
    /// (`[0, 1)` for floats).
    #[inline]
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample_standard(self)
    }

    /// Draws a value uniformly from `range`.
    #[inline]
    fn gen_range<T, Rr: SampleRange<T>>(&mut self, range: Rr) -> T
    where
        Self: Sized,
    {
        range.sample_single(self)
    }

    /// Returns `true` with probability `p`.
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        f64::sample_standard(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn seeded_sequences_are_deterministic() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..64 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let va: Vec<u64> = (0..4).map(|_| a.gen()).collect();
        let vb: Vec<u64> = (0..4).map(|_| b.gen()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut r = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = r.gen_range(10u64..20);
            assert!((10..20).contains(&v));
            let w = r.gen_range(5u64..=5);
            assert_eq!(w, 5);
            let x: usize = r.gen_range(0..3usize);
            assert!(x < 3);
        }
    }

    #[test]
    fn gen_range_covers_the_range() {
        let mut r = StdRng::seed_from_u64(3);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[r.gen_range(0usize..8)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values reachable: {seen:?}");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = StdRng::seed_from_u64(11);
        let hits = (0..100_000).filter(|_| r.gen_bool(0.25)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.25).abs() < 0.01, "frac={frac}");
        let mut r2 = StdRng::seed_from_u64(12);
        assert!((0..100).all(|_| !r2.gen_bool(0.0)));
        assert!((0..100).all(|_| r2.gen_bool(1.0)));
    }

    #[test]
    fn f64_samples_in_unit_interval() {
        let mut r = StdRng::seed_from_u64(5);
        for _ in 0..10_000 {
            let v: f64 = r.gen();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn from_seed_accepts_raw_material() {
        let a = StdRng::from_seed([7u8; 32]);
        let b = StdRng::from_seed([7u8; 32]);
        let mut a = a;
        let mut b = b;
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        // The forbidden all-zero state is remapped, not UB.
        let mut z = StdRng::from_seed([0u8; 32]);
        assert_ne!(z.gen::<u64>(), z.gen::<u64>());
    }
}
