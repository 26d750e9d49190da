//! Deterministic, splittable random streams.
//!
//! Every MITS experiment must be reproducible: the same seed must generate
//! the same synthetic media, the same interarrival times and the same
//! student behaviour on every run, or `EXPERIMENTS.md` could not record
//! stable numbers. [`SimRng`] wraps a counter-based generator (SplitMix64
//! seeded xoshiro-style core) so each subsystem can derive an independent
//! stream from a master seed without correlation.

use rand::RngCore;

/// A small, fast, deterministic PRNG (xoshiro256** core, SplitMix64 seeding).
///
/// Implemented by hand rather than relying on `rand::StdRng` so the bit
/// stream is pinned forever — `StdRng` documents that its algorithm may
/// change between `rand` versions, which would silently change every
/// experiment in this repository.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One SplitMix64 step as a pure function: mix `x` into a decorrelated
/// 64-bit value. This is the finalizer behind per-shard seed derivation
/// and per-student trace-sampling decisions — both need a stateless,
/// stable hash of `(base, index)` rather than a stream.
pub fn splitmix64_mix(x: u64) -> u64 {
    let mut state = x;
    splitmix64(&mut state)
}

impl SimRng {
    /// Create a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Derive an independent child stream labelled by `stream`.
    ///
    /// Children with different labels are statistically independent; the
    /// same (seed, label) pair always yields the same stream.
    pub fn split(&self, stream: u64) -> SimRng {
        // Mix the label into a fresh seed derived from our state.
        let mut sm = self.s[0] ^ self.s[2] ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Next raw 64-bit value (xoshiro256**).
    pub fn next_raw(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform float in [0, 1).
    pub fn f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_raw() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in [0, n). `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        // Multiply-shift rejection-free method (slight bias < 2^-64, fine
        // for simulation workloads).
        ((self.next_raw() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform integer in [lo, hi] inclusive.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi);
        lo + self.below(hi - lo + 1)
    }

    /// Bernoulli trial with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Bernoulli trial against a precomputed [`ChanceThreshold`]: the
    /// same decision, from the same single draw, as `chance(p)`.
    pub fn trial(&mut self, t: ChanceThreshold) -> bool {
        (self.next_raw() >> 11) < t.0
    }

    /// Exponentially distributed value with the given mean (for Poisson
    /// arrival processes — question arrivals at the facilitator, request
    /// interarrivals at the courseware server).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        let u = 1.0 - self.f64(); // in (0, 1], avoids ln(0)
        -mean * u.ln()
    }

    /// Normally distributed value (Box–Muller) — used for jittered media
    /// frame sizes.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        let u1 = 1.0 - self.f64();
        let u2 = self.f64();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        mean + std_dev * z
    }

    /// Pareto-distributed value (heavy-tailed document sizes).
    pub fn pareto(&mut self, scale: f64, shape: f64) -> f64 {
        debug_assert!(scale > 0.0 && shape > 0.0);
        let u = 1.0 - self.f64();
        scale / u.powf(1.0 / shape)
    }

    /// Fill a byte buffer with pseudo-random data (synthetic media payloads).
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        let mut chunks = buf.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_raw().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_raw().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }

    /// Choose a uniformly random element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose from empty slice");
        &items[self.below(items.len() as u64) as usize]
    }
}

/// A probability `p` as an integer threshold on the 53 random bits that
/// [`SimRng::f64`] scales into `[0, 1)`, for loops that draw many trials
/// at one `p` (a cell train's line-noise draws).
///
/// `f64()` is `u · 2⁻⁵³` for a 53-bit integer `u`, and the scaling is
/// exact, so `f64() < p` holds exactly when `u < p · 2⁵³`, that is when
/// `u < ceil(p · 2⁵³)`. A `p` that is NaN or ≤ 0 never hits (threshold
/// 0), and one ≥ 1 always does (threshold 2⁵³).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChanceThreshold(u64);

impl ChanceThreshold {
    /// The threshold for probability `p`.
    pub fn new(p: f64) -> Self {
        const ONE: u64 = 1 << 53;
        if p >= 1.0 {
            ChanceThreshold(ONE)
        } else if p > 0.0 {
            ChanceThreshold((p * ONE as f64).ceil() as u64)
        } else {
            ChanceThreshold(0)
        }
    }
}

/// `rand` compatibility so `SimRng` can drive `rand`-based samplers
/// (`proptest` strategies, `rand::seq` shuffles) when convenient.
impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        (self.next_raw() >> 32) as u32
    }
    fn next_u64(&mut self) -> u64 {
        self.next_raw()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        SimRng::fill_bytes(self, dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        SimRng::fill_bytes(self, dest);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_raw(), b.next_raw());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..100).filter(|_| a.next_raw() == b.next_raw()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn split_streams_are_independent_and_stable() {
        let root = SimRng::seed_from_u64(7);
        let mut c1 = root.split(1);
        let mut c1_again = root.split(1);
        let mut c2 = root.split(2);
        assert_eq!(c1.next_raw(), c1_again.next_raw(), "same label same stream");
        assert_ne!(c1.next_raw(), c2.next_raw(), "labels decorrelate");
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_is_in_range_and_roughly_uniform() {
        let mut r = SimRng::seed_from_u64(9);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[r.below(10) as usize] += 1;
        }
        for &c in &counts {
            // each bin expects 10 000; allow ±10 %
            assert!((9_000..11_000).contains(&c), "bin count {c} out of range");
        }
    }

    #[test]
    fn exponential_mean_converges() {
        let mut r = SimRng::seed_from_u64(11);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| r.exponential(5.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn normal_moments_converge() {
        let mut r = SimRng::seed_from_u64(13);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal(10.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut r = SimRng::seed_from_u64(17);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0), "filled something");
        // Same seed reproduces the same bytes.
        let mut r2 = SimRng::seed_from_u64(17);
        let mut buf2 = [0u8; 13];
        r2.fill_bytes(&mut buf2);
        assert_eq!(buf, buf2);
    }

    #[test]
    fn range_inclusive_bounds() {
        let mut r = SimRng::seed_from_u64(19);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..10_000 {
            let v = r.range(3, 5);
            assert!((3..=5).contains(&v));
            saw_lo |= v == 3;
            saw_hi |= v == 5;
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn pareto_exceeds_scale() {
        let mut r = SimRng::seed_from_u64(23);
        for _ in 0..1000 {
            assert!(r.pareto(2.0, 1.5) >= 2.0);
        }
    }
}
