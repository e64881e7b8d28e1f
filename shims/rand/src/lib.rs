//! Offline shim for the subset of the `rand` 0.9 API this workspace uses.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors this minimal, API-compatible reimplementation. It provides:
//!
//! * [`Rng`] — `random`, `random_range`, `random_bool` (blanket-implemented
//!   for every [`RngCore`], including unsized ones, like the real crate);
//! * [`SeedableRng`] — `seed_from_u64`;
//! * [`rngs::StdRng`] — a deterministic xoshiro256++ generator (the real
//!   `StdRng` is explicitly *not* stable across versions, so downstream
//!   code may not rely on its exact stream — only on determinism, which
//!   this shim honours);
//! * [`seq::SliceRandom`] — `shuffle` / `choose`.
//!
//! Streams are deterministic: identical seeds give identical sequences on
//! every platform, which is what the reproduction's determinism tests and
//! the record/replay adversary require.

/// Low-level uniform bit source. Object-safe.
pub trait RngCore {
    /// Next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 uniformly random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// User-facing sampling interface, blanket-implemented for all bit sources.
pub trait Rng: RngCore {
    /// Sample a value of `T` from the standard (uniform) distribution.
    #[inline]
    fn random<T: StandardSample>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// Sample uniformly from a half-open or inclusive range.
    ///
    /// # Panics
    /// Panics if the range is empty.
    #[inline]
    fn random_range<T, RG: SampleRange<T>>(&mut self, range: RG) -> T {
        range.sample_single(self)
    }

    /// Bernoulli trial with success probability `p`.
    ///
    /// # Panics
    /// Panics unless `0.0 <= p <= 1.0`.
    #[inline]
    fn random_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "random_bool: p = {p}");
        // 53-bit uniform in [0, 1); exact for the p values tests use.
        f64_from_bits_53(self.next_u64()) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Uniform in [0, 1) with 53 bits of precision.
#[inline]
fn f64_from_bits_53(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Types samplable from the "standard" distribution (uniform over the
/// value domain; [0, 1) for floats).
pub trait StandardSample: Sized {
    /// Draw one value.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for u64 {
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl StandardSample for u32 {
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl StandardSample for usize {
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl StandardSample for bool {
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl StandardSample for f64 {
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        f64_from_bits_53(rng.next_u64())
    }
}

/// Ranges that can produce a single uniform sample.
pub trait SampleRange<T> {
    /// Draw one value from the range.
    ///
    /// # Panics
    /// Panics if the range is empty.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Unbiased integer in [0, bound) by Lemire's multiply-shift with
/// rejection: a draw `x` is accepted when the low half of `x · bound` is
/// at least `2^64 mod bound`. That remainder is below `bound`, so a low
/// half of `bound` or more is accepted without it, and the division that
/// computes it runs only on the rare draws below `bound` (Lemire 2019,
/// "Fast random integer generation in an interval"). The decisions, and
/// the words drawn, are those of computing the remainder first.
#[inline]
fn uniform_below<R: RngCore + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    if bound.is_power_of_two() {
        return rng.next_u64() & (bound - 1);
    }
    let mut m = (rng.next_u64() as u128) * (bound as u128);
    if (m as u64) < bound {
        let zone = bound.wrapping_neg() % bound; // = 2^64 mod bound
        while (m as u64) < zone {
            m = (rng.next_u64() as u128) * (bound as u128);
        }
    }
    (m >> 64) as u64
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            #[inline]
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range in random_range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                if span == 0 {
                    // Full-width range, e.g. 0..u64::MAX has span MAX; a
                    // wrapped span of 0 means the whole domain.
                    return rng.next_u64() as $t;
                }
                self.start.wrapping_add(uniform_below(rng, span) as $t)
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            #[inline]
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range in random_range");
                let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                if span == 0 {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(uniform_below(rng, span) as $t)
            }
        }
    )*};
}

impl_int_range!(u8, u16, u32, u64, usize);

impl SampleRange<f64> for core::ops::Range<f64> {
    #[inline]
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty range in random_range");
        let u = f64_from_bits_53(rng.next_u64());
        self.start + (self.end - self.start) * u
    }
}

/// Seedable generators.
pub trait SeedableRng: Sized {
    /// Construct deterministically from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// SplitMix64 — used to expand seeds into generator state.
#[inline]
fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

pub mod rngs {
    //! Concrete generators.

    use super::{splitmix64, RngCore, SeedableRng};

    /// Deterministic xoshiro256++ generator. Stands in for `rand`'s
    /// `StdRng`; like the real one, the exact stream is an implementation
    /// detail — only determinism is guaranteed.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl RngCore for StdRng {
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
        fn seed_from_u64(seed: u64) -> Self {
            let mut x = seed;
            let mut s = [0u64; 4];
            for w in &mut s {
                *w = splitmix64(&mut x);
            }
            // All-zero state would be a fixed point; the SplitMix expansion
            // cannot produce it, but keep the guard for safety.
            if s == [0; 4] {
                s[0] = 0x9e37_79b9_7f4a_7c15;
            }
            StdRng { s }
        }
    }
}

pub mod seq {
    //! Sequence-related helpers.

    use super::{Rng, RngCore};

    /// Slice extensions: uniform shuffling and element choice.
    pub trait SliceRandom {
        /// Element type.
        type Item;

        /// Fisher–Yates shuffle, uniform over permutations.
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);

        /// Uniformly random element, `None` when empty.
        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.random_range(0..i + 1);
                self.swap(i, j);
            }
        }

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.random_range(0..self.len())])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn determinism() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(a.random::<u64>(), c.random::<u64>());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v = rng.random_range(3u64..17);
            assert!((3..17).contains(&v));
            let u = rng.random_range(0usize..5);
            assert!(u < 5);
            let f = rng.random_range(-1.0..1.0);
            assert!((-1.0..1.0).contains(&f));
        }
        // Huge span must not panic or bias into a narrow window.
        let big = rng.random_range(0usize..usize::MAX);
        assert!(big < usize::MAX);
    }

    #[test]
    fn range_is_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[rng.random_range(0usize..8)] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "skewed bucket: {c}");
        }
    }

    #[test]
    fn bool_probability() {
        let mut rng = StdRng::seed_from_u64(3);
        let hits = (0..10_000).filter(|_| rng.random_bool(0.25)).count();
        assert!((2_200..2_800).contains(&hits), "p=0.25 gave {hits}/10000");
        assert!((0..100).all(|_| !rng.random_bool(0.0)));
        assert!((0..100).all(|_| rng.random_bool(1.0)));
    }

    #[test]
    fn shuffle_permutes() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut v: Vec<u32> = (0..100).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle left the identity permutation");
    }

    /// The multiply-shift with the remainder computed before every draw:
    /// the form `uniform_below` must agree with.
    fn uniform_below_by_division(rng: &mut StdRng, bound: u64) -> u64 {
        if bound.is_power_of_two() {
            return rng.random::<u64>() & (bound - 1);
        }
        let zone = bound.wrapping_neg() % bound;
        loop {
            let m = (rng.random::<u64>() as u128) * (bound as u128);
            if (m as u64) >= zone {
                return (m >> 64) as u64;
            }
        }
    }

    #[test]
    fn divisionless_draws_match_the_division_formula() {
        let bounds = (1..=1000).chain([(1 << 32) + 1, (1 << 63) + 1, u64::MAX]);
        for bound in bounds {
            let mut fast = StdRng::seed_from_u64(bound);
            let mut slow = fast.clone();
            for _ in 0..200 {
                assert_eq!(
                    super::uniform_below(&mut fast, bound),
                    uniform_below_by_division(&mut slow, bound),
                    "bound {bound}"
                );
            }
            // The same words were consumed.
            assert_eq!(fast, slow, "bound {bound}");
        }
    }

    #[test]
    fn works_through_unsized_refs() {
        // Mirrors call sites taking `&mut R` with `R: Rng + ?Sized`.
        fn draw<R: super::Rng + ?Sized>(rng: &mut R) -> u64 {
            rng.random_range(0..10u64)
        }
        let mut rng = StdRng::seed_from_u64(5);
        let r: &mut dyn super::RngCore = &mut rng;
        assert!(draw(r) < 10);
    }
}
