//! Offline stand-in for the `rand` 0.8 API surface the enld crates use:
//! `StdRng::seed_from_u64`, `Rng::{gen_range, gen_bool}`, and
//! `SliceRandom::{shuffle, choose}`.
//!
//! The generator is xoshiro256++ seeded through splitmix64. Streams are
//! deterministic per seed but differ from the published crate, so every
//! number the benchmark prints is relative to this shim.

use std::ops::{Range, RangeInclusive};

/// Source of raw 64-bit words.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;

    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Construction from a 64-bit seed.
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types `Rng::gen_range` can draw.
pub trait SampleUniform: Sized {
    /// Uniform in `[lo, hi)`; panics when the range is empty.
    fn sample_half_open<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self;
    /// Uniform in `[lo, hi]`; panics when `lo > hi`.
    fn sample_inclusive<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self;
}

/// Range shapes `Rng::gen_range` accepts.
pub trait SampleRange<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_half_open(self.start, self.end, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        T::sample_inclusive(lo, hi, rng)
    }
}

/// Uniform draw below `span` by widening multiply (bias < 2⁻⁶⁴·span).
fn below<R: RngCore + ?Sized>(span: u64, rng: &mut R) -> u64 {
    ((rng.next_u64() as u128 * span as u128) >> 64) as u64
}

macro_rules! uniform_int {
    ($($t:ty => $wide:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
                assert!(lo < hi, "gen_range: empty range");
                let span = (hi as $wide).wrapping_sub(lo as $wide) as u64;
                (lo as $wide).wrapping_add(below(span, rng) as $wide) as $t
            }

            fn sample_inclusive<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
                assert!(lo <= hi, "gen_range: empty range");
                let span = ((hi as $wide).wrapping_sub(lo as $wide) as u64).wrapping_add(1);
                if span == 0 {
                    // The full 64-bit domain.
                    return rng.next_u64() as $t;
                }
                (lo as $wide).wrapping_add(below(span, rng) as $wide) as $t
            }
        }
    )*};
}
uniform_int!(u8 => u64, u16 => u64, u32 => u64, u64 => u64, usize => u64,
             i8 => i64, i16 => i64, i32 => i64, i64 => i64, isize => i64);

macro_rules! uniform_float {
    ($($t:ty, $unit:ident);*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
                assert!(lo < hi, "gen_range: empty range");
                loop {
                    let v = lo + (hi - lo) * $unit(rng);
                    // Rounding can land exactly on `hi`; redraw.
                    if v < hi {
                        return v;
                    }
                }
            }

            fn sample_inclusive<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
                assert!(lo <= hi, "gen_range: empty range");
                (lo + (hi - lo) * $unit(rng)).min(hi)
            }
        }
    )*};
}

/// Uniform `f32` in `[0, 1)` with 24 random mantissa bits.
fn unit_f32<R: RngCore + ?Sized>(rng: &mut R) -> f32 {
    (rng.next_u32() >> 8) as f32 / (1u32 << 24) as f32
}

/// Uniform `f64` in `[0, 1)` with 53 random mantissa bits.
fn unit_f64<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}
uniform_float!(f32, unit_f32; f64, unit_f64);

/// User-facing sampling methods, implemented for every [`RngCore`].
pub trait Rng: RngCore {
    fn gen_range<T, S>(&mut self, range: S) -> T
    where
        T: SampleUniform,
        S: SampleRange<T>,
    {
        range.sample_single(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p out of [0, 1]");
        unit_f64(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++ (Blackman & Vigna), state filled by splitmix64.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut z = seed;
            let mut s = [0u64; 4];
            for word in &mut s {
                z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut x = z;
                x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                *word = x ^ (x >> 31);
            }
            Self { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
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

pub mod seq {
    use super::Rng;

    /// Slice helpers: Fisher–Yates shuffle and uniform choice.
    pub trait SliceRandom {
        type Item;

        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);

        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                self.swap(i, rng.gen_range(0..=i));
            }
        }

        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, RngCore, SeedableRng};

    /// Every integer/float range shape the enld crates pass to
    /// `gen_range` stays inside its bounds and reaches both ends of
    /// small integer ranges.
    #[test]
    fn gen_range_stays_in_range_for_every_shape_in_use() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut seen = [false; 4];
        for _ in 0..20_000 {
            let v = rng.gen_range(0usize..4);
            seen[v] = true;
            assert!((1..8usize).contains(&rng.gen_range(1..8usize)));
            assert!((10..=12usize).contains(&rng.gen_range(10usize..=12)));
            assert!(rng.gen_range(5usize..=5) == 5);
            assert!(rng.gen_range(0u32..2) < 2);
            assert!((1..1_000_000u64).contains(&rng.gen_range(1u64..1_000_000)));
            assert!((-1..5i64).contains(&rng.gen_range(-1i64..5)));
            let f = rng.gen_range(0.0f32..1.0);
            assert!((0.0..1.0).contains(&f));
            let tiny = rng.gen_range(1e-12f32..1.0);
            assert!((1e-12..1.0).contains(&tiny) && tiny > 0.0);
            let sym = rng.gen_range(-0.25f32..0.25);
            assert!((-0.25..0.25).contains(&sym));
            let tau = rng.gen_range(0.0f32..std::f32::consts::TAU);
            assert!((0.0..std::f32::consts::TAU).contains(&tau));
            let d = rng.gen_range(f64::EPSILON..1.0);
            assert!((f64::EPSILON..1.0).contains(&d));
            let e = rng.gen_range(0.0..2.0);
            assert!((0.0..2.0).contains(&e));
        }
        assert!(seen.iter().all(|&s| s), "a value of 0..4 was never drawn");
        assert!((0..u64::MAX).contains(&rng.gen_range(0..=u64::MAX - 1)));
    }

    #[test]
    fn streams_are_a_pure_function_of_the_seed() {
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..8).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
    }

    #[test]
    fn shuffle_permutes_and_choose_picks_a_member() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut v: Vec<u32> = (0..100).collect();
        v.shuffle(&mut rng);
        assert_ne!(v, (0..100).collect::<Vec<_>>());
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert!(v.contains(v.choose(&mut rng).unwrap()));
        assert!(<[u32]>::choose(&[], &mut rng).is_none());
    }

    #[test]
    fn gen_bool_tracks_its_probability() {
        let mut rng = StdRng::seed_from_u64(5);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "{hits}");
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }
}
