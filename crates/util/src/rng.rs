//! Seeded pseudo-random number generation.
//!
//! The generator is **xoshiro256++** (Blackman & Vigna), seeded through
//! **SplitMix64** so that every `u64` seed — including 0 — yields a
//! well-mixed state. The API mirrors the subset of `rand` the workspace
//! used (`seed_from_u64`, `gen_range`, `gen_bool`, `shuffle`), plus
//! Box–Muller Normal sampling, so call sites stay close to idiomatic.
//!
//! Determinism is the point: the same seed produces the same stream on
//! every platform and toolchain, which makes whole experiment tables
//! bit-reproducible.

use std::ops::{Range, RangeInclusive};

/// Advances a SplitMix64 state and returns the next output.
///
/// Also used by [`crate::check`] to derive independent per-case seeds.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded xoshiro256++ pseudo-random number generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator from a 64-bit seed (SplitMix64-expanded).
    pub fn seed_from_u64(seed: u64) -> Rng {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Returns the next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
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

    /// Returns a uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Samples uniformly from `range` (half-open or inclusive; see
    /// [`SampleRange`] for the supported element types).
    ///
    /// Panics on an empty range.
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        debug_assert!(
            (0.0..=1.0).contains(&p),
            "gen_bool probability {p} out of range"
        );
        self.next_f64() < p
    }

    /// Samples a Normal(`mean`, `std_dev`) variate via Box–Muller.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        // Box–Muller transform; u1 > 0 is guaranteed by the max().
        let u1 = self.next_f64().max(f64::MIN_POSITIVE);
        let u2 = self.next_f64();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        mean + std_dev * z
    }

    /// Shuffles `xs` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.gen_range(0..i + 1);
            xs.swap(i, j);
        }
    }
}

/// Ranges [`Rng::gen_range`] can sample from.
pub trait SampleRange<T> {
    /// Draws one uniform sample from the range.
    fn sample_from(self, rng: &mut Rng) -> T;
}

impl SampleRange<f64> for Range<f64> {
    fn sample_from(self, rng: &mut Rng) -> f64 {
        assert!(self.start < self.end, "empty f64 range {:?}", self);
        let v = self.start + rng.next_f64() * (self.end - self.start);
        // Guard against rounding up onto the excluded endpoint.
        if v < self.end {
            v
        } else {
            self.start
        }
    }
}

impl SampleRange<f64> for RangeInclusive<f64> {
    fn sample_from(self, rng: &mut Rng) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty f64 range {lo}..={hi}");
        lo + rng.next_f64() * (hi - lo)
    }
}

/// Uniform sample from `[0, n)` via Lemire's widening-multiply reduction
/// (bias < n / 2⁶⁴ — irrelevant at simulation scales).
fn below(rng: &mut Rng, n: u64) -> u64 {
    debug_assert!(n > 0);
    (((rng.next_u64() as u128) * (n as u128)) >> 64) as u64
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from(self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "empty integer range {:?}", self);
                let span = self.end.wrapping_sub(self.start) as u64;
                self.start.wrapping_add(below(rng, span) as $t)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from(self, rng: &mut Rng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty integer range {lo}..={hi}");
                let span = hi.wrapping_sub(lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(below(rng, span + 1) as $t)
            }
        }
    )*};
}

int_sample_range!(u32, u64, usize, i64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn zero_seed_is_well_mixed() {
        let mut r = Rng::seed_from_u64(0);
        let xs: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert!(xs.iter().all(|&x| x != 0));
    }

    #[test]
    fn f64_unit_interval() {
        let mut r = Rng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut r = Rng::seed_from_u64(3);
        for _ in 0..10_000 {
            let f = r.gen_range(-5.0..5.0);
            assert!((-5.0..5.0).contains(&f));
            let g = r.gen_range(2.0..=3.0);
            assert!((2.0..=3.0).contains(&g));
            let i = r.gen_range(10u32..20);
            assert!((10..20).contains(&i));
            let j = r.gen_range(0usize..=4);
            assert!(j <= 4);
        }
    }

    #[test]
    fn gen_range_is_roughly_uniform() {
        let mut r = Rng::seed_from_u64(11);
        let mut buckets = [0u32; 10];
        for _ in 0..100_000 {
            buckets[r.gen_range(0usize..10)] += 1;
        }
        for &b in &buckets {
            assert!(
                (9_000..11_000).contains(&b),
                "bucket count {b} outside 10% band"
            );
        }
    }

    #[test]
    #[should_panic(expected = "empty integer range")]
    fn empty_range_panics() {
        Rng::seed_from_u64(0).gen_range(5u32..5);
    }

    #[test]
    fn gen_bool_extremes_and_rate() {
        let mut r = Rng::seed_from_u64(9);
        assert!(!r.gen_bool(0.0));
        assert!(r.gen_bool(1.0));
        let hits = (0..100_000).filter(|_| r.gen_bool(0.25)).count();
        assert!((23_000..27_000).contains(&hits), "p=0.25 hit count {hits}");
    }

    #[test]
    fn normal_moments() {
        let mut r = Rng::seed_from_u64(13);
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal(10.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.05, "std {}", var.sqrt());
    }

    #[test]
    fn shuffle_permutes() {
        let mut r = Rng::seed_from_u64(17);
        let mut xs: Vec<u32> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
        assert_ne!(xs, (0..50).collect::<Vec<u32>>());
    }
}
