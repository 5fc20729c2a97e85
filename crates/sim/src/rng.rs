//! Seeded randomness for reproducible experiments.
//!
//! Every experiment run derives all of its stochastic inputs (latency
//! samples, viewer bandwidths, view choices, arrival jitter) from a single
//! `u64` seed, so figures can be regenerated bit-for-bit.

use std::ops::{Range, RangeInclusive};

/// A deterministic random source seeded from a `u64`.
///
/// A self-contained xoshiro256++ generator (seeded through splitmix64)
/// adding the handful of distributions the TeleCast workloads need
/// (uniform, exponential, Zipf, lognormal) without any external
/// dependency.
///
/// ```
/// use telecast_sim::SimRng;
///
/// let mut a = SimRng::seed_from_u64(7);
/// let mut b = SimRng::seed_from_u64(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    state: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        // Expand the seed through splitmix64, the recommended way to
        // initialise xoshiro state (never all-zero).
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        SimRng {
            state: [next(), next(), next(), next()],
        }
    }

    /// Derives an independent child generator; used to give each subsystem
    /// (latency, workload, arrivals) its own stream so adding draws to one
    /// does not perturb the others.
    pub fn fork(&mut self, label: u64) -> SimRng {
        let seed = self.next_u64() ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SimRng::seed_from_u64(seed)
    }

    /// Next raw 64 random bits (xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s = [s0, s1, s2, s3];
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        self.state = s;
        result
    }

    /// Uniform value in `[0, bound)` (widening-multiply reduction).
    fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "empty sampling bound");
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform sample from a range, e.g. `rng.range(0..6)`.
    pub fn range<T, R>(&mut self, range: R) -> T
    where
        T: SampleUniform,
        R: SampleRange<T>,
    {
        range.sample(self)
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p` of `true`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    pub fn chance(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        self.unit() < p
    }

    /// Exponential sample with the given mean (inverse-CDF method).
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive and finite.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean.is_finite() && mean > 0.0, "invalid mean: {mean}");
        let u: f64 = self.range(f64::MIN_POSITIVE..1.0);
        -mean * u.ln()
    }

    /// Standard normal sample (Box–Muller).
    pub fn standard_normal(&mut self) -> f64 {
        let u1: f64 = self.range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Lognormal sample parameterised by the mean of the *resulting*
    /// distribution and the σ of the underlying normal. Used for frame
    /// sizes around `bitrate / fps`.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive or `sigma` is negative.
    pub fn lognormal_with_mean(&mut self, mean: f64, sigma: f64) -> f64 {
        assert!(mean.is_finite() && mean > 0.0, "invalid mean: {mean}");
        assert!(sigma.is_finite() && sigma >= 0.0, "invalid sigma: {sigma}");
        // E[lognormal(µ,σ)] = exp(µ + σ²/2) ⇒ µ = ln(mean) − σ²/2.
        let mu = mean.ln() - sigma * sigma / 2.0;
        (mu + sigma * self.standard_normal()).exp()
    }

    /// Zipf-distributed rank in `0..n` with exponent `s` (rank 0 most
    /// popular), via inversion on the exact finite CDF. Used for view
    /// popularity.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s` is negative.
    pub fn zipf(&mut self, n: usize, s: f64) -> usize {
        assert!(n > 0, "zipf over empty support");
        assert!(s.is_finite() && s >= 0.0, "invalid exponent: {s}");
        let norm: f64 = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).sum();
        let mut target = self.unit() * norm;
        for k in 1..=n {
            target -= 1.0 / (k as f64).powf(s);
            if target <= 0.0 {
                return k - 1;
            }
        }
        n - 1
    }

    /// Uniformly chooses an element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            let i = self.range(0..items.len());
            Some(&items[i])
        }
    }
}

/// Types [`SimRng::range`] can sample uniformly.
pub trait SampleUniform: Copy {
    /// Uniform sample from `[lo, hi)`.
    fn sample_half_open(rng: &mut SimRng, lo: Self, hi: Self) -> Self;
    /// Uniform sample from `[lo, hi]`.
    fn sample_inclusive(rng: &mut SimRng, lo: Self, hi: Self) -> Self;
}

/// Range forms [`SimRng::range`] accepts (`lo..hi` and `lo..=hi`).
pub trait SampleRange<T> {
    /// Draws a uniform sample from the range.
    fn sample(self, rng: &mut SimRng) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample(self, rng: &mut SimRng) -> T {
        T::sample_half_open(rng, self.start, self.end)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample(self, rng: &mut SimRng) -> T {
        let (lo, hi) = self.into_inner();
        T::sample_inclusive(rng, lo, hi)
    }
}

macro_rules! sample_uniform_int {
    ($($t:ty),*) => {
        $(
            impl SampleUniform for $t {
                fn sample_half_open(rng: &mut SimRng, lo: Self, hi: Self) -> Self {
                    assert!(lo < hi, "empty sampling range {lo}..{hi}");
                    let span = (hi as i128 - lo as i128) as u64;
                    (lo as i128 + rng.below(span) as i128) as $t
                }

                fn sample_inclusive(rng: &mut SimRng, lo: Self, hi: Self) -> Self {
                    assert!(lo <= hi, "empty sampling range {lo}..={hi}");
                    let span = (hi as i128 - lo as i128) as u128;
                    if span == u128::from(u64::MAX) {
                        return (lo as i128 + rng.next_u64() as i128) as $t;
                    }
                    (lo as i128 + rng.below(span as u64 + 1) as i128) as $t
                }
            }
        )*
    };
}

sample_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    fn sample_half_open(rng: &mut SimRng, lo: Self, hi: Self) -> Self {
        assert!(lo < hi, "empty sampling range {lo}..{hi}");
        lo + rng.unit() * (hi - lo)
    }

    fn sample_inclusive(rng: &mut SimRng, lo: Self, hi: Self) -> Self {
        assert!(lo <= hi, "empty sampling range {lo}..={hi}");
        lo + rng.unit() * (hi - lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(1234);
        let mut b = SimRng::seed_from_u64(1234);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forks_are_independent_and_deterministic() {
        let mut root1 = SimRng::seed_from_u64(5);
        let mut root2 = SimRng::seed_from_u64(5);
        let mut fork1 = root1.fork(1);
        let mut fork2 = root2.fork(1);
        assert_eq!(fork1.next_u64(), fork2.next_u64());
        // A different label yields a different stream.
        let mut other = SimRng::seed_from_u64(5).fork(2);
        assert_ne!(fork1.next_u64(), other.next_u64());
    }

    #[test]
    fn range_stays_in_bounds() {
        let mut rng = SimRng::seed_from_u64(77);
        for _ in 0..2_000 {
            let v: u64 = rng.range(10..20u64);
            assert!((10..20).contains(&v));
            let w: i32 = rng.range(-5..5);
            assert!((-5..5).contains(&w));
            let x: usize = rng.range(0..=3usize);
            assert!(x <= 3);
            let f: f64 = rng.range(0.25..0.75);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = SimRng::seed_from_u64(9);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(2.0)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean {mean} too far from 2.0");
    }

    #[test]
    fn lognormal_mean_is_close() {
        let mut rng = SimRng::seed_from_u64(10);
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|_| rng.lognormal_with_mean(25_000.0, 0.2))
            .sum::<f64>()
            / n as f64;
        assert!(
            (mean - 25_000.0).abs() / 25_000.0 < 0.02,
            "mean {mean} too far from 25000"
        );
    }

    #[test]
    fn zipf_rank_zero_most_popular() {
        let mut rng = SimRng::seed_from_u64(11);
        let mut counts = [0usize; 8];
        for _ in 0..40_000 {
            counts[rng.zipf(8, 1.0)] += 1;
        }
        assert!(counts[0] > counts[1]);
        assert!(counts[1] > counts[3]);
        assert!(counts[3] > counts[7]);
    }

    #[test]
    fn zipf_uniform_when_exponent_zero() {
        let mut rng = SimRng::seed_from_u64(12);
        let mut counts = [0usize; 4];
        for _ in 0..40_000 {
            counts[rng.zipf(4, 0.0)] += 1;
        }
        for &c in &counts {
            assert!(
                (c as f64 - 10_000.0).abs() < 600.0,
                "not uniform: {counts:?}"
            );
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from_u64(13);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn choose_empty_is_none() {
        let mut rng = SimRng::seed_from_u64(15);
        let empty: [u8; 0] = [];
        assert_eq!(rng.choose(&empty), None);
        assert_eq!(rng.choose(&[42]), Some(&42));
    }
}
