//! Deterministic pseudo-random number generation.
//!
//! The simulator's randomness (timing jitter, bit-error sampling, measurement
//! noise) must be bit-stable across builds so that experiments are exactly
//! reproducible. We therefore implement the generators locally rather than
//! depend on an external crate's stream stability:
//!
//! * [`SplitMix64`] — a tiny 64-bit generator used for seeding.
//! * [`Xoshiro256StarStar`] — the main generator (Blackman & Vigna), with
//!   period 2²⁵⁶ − 1 and excellent statistical quality for simulation use.
//! * [`fnv1a`] — the 64-bit FNV-1a hash, used to derive per-name seed
//!   streams and to digest canonical JSON renderings.

use crate::json::{FromJson, Json, JsonError, ToJson};

/// SplitMix64: a fast 64-bit generator, mainly used to expand a single `u64`
/// seed into the 256-bit state of [`Xoshiro256StarStar`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Returns the next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The raw generator state (for checkpointing).
    pub const fn state(&self) -> u64 {
        self.state
    }

    /// Rebuilds a generator from a raw state word captured by
    /// [`SplitMix64::state`].
    pub const fn from_state(state: u64) -> Self {
        SplitMix64 { state }
    }
}

/// xoshiro256\*\* by David Blackman and Sebastiano Vigna (public domain
/// reference algorithm), the simulator's primary PRNG.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Creates a generator whose 256-bit state is expanded from `seed` with
    /// [`SplitMix64`], per the algorithm authors' recommendation.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        // An all-zero state would be a fixed point; SplitMix64 cannot produce
        // four consecutive zeros, but guard anyway for clarity.
        debug_assert!(s.iter().any(|&w| w != 0));
        Xoshiro256StarStar { s }
    }

    /// Returns the next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
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

    /// Returns the next 32-bit value (upper bits of the 64-bit output).
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform `f64` in `[0, 1)` using the top 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` via Lemire's multiply-shift rejection
    /// method (unbiased).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_bounded(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be non-zero");
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let low = m as u64;
            if low >= bound {
                return (m >> 64) as u64;
            }
            // Rejection zone: recompute threshold once.
            let threshold = bound.wrapping_neg() % bound;
            if low >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn next_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range {lo}..={hi}");
        if lo == 0 && hi == u64::MAX {
            return self.next_u64();
        }
        lo + self.next_bounded(hi - lo + 1)
    }

    /// Bernoulli trial: returns `true` with probability `p` (clamped to
    /// `[0, 1]`).
    pub fn next_bool(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.next_f64() < p
    }

    /// Standard-normal sample via the Marsaglia polar method.
    pub fn next_gaussian(&mut self) -> f64 {
        loop {
            let u = 2.0 * self.next_f64() - 1.0;
            let v = 2.0 * self.next_f64() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }

    /// Derives an independent child generator; useful for giving each
    /// component its own stream from one experiment seed.
    pub fn fork(&mut self) -> Self {
        Self::seed_from_u64(self.next_u64())
    }
}

/// Checkpoint encoding: the 256-bit state as an array of four words.
impl ToJson for Xoshiro256StarStar {
    fn to_json(&self) -> Json {
        self.s.to_json()
    }
}

/// Rejects the all-zero state, a fixed point of the recurrence.
impl FromJson for Xoshiro256StarStar {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let s = <[u64; 4]>::from_json(v)?;
        if s == [0; 4] {
            return Err(JsonError {
                msg: "all-zero xoshiro state is invalid".to_string(),
            });
        }
        Ok(Xoshiro256StarStar { s })
    }
}

/// 64-bit FNV-1a over a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_known_answers() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn splitmix_reference_vector() {
        // Reference outputs for seed 0 (from the public-domain reference C).
        let mut g = SplitMix64::new(0);
        assert_eq!(g.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(g.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(g.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn xoshiro_is_deterministic_and_seed_sensitive() {
        let mut a = Xoshiro256StarStar::seed_from_u64(42);
        let mut b = Xoshiro256StarStar::seed_from_u64(42);
        let mut c = Xoshiro256StarStar::seed_from_u64(43);
        let va: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn xoshiro_json_resumes_the_stream_and_rejects_the_zero_state() {
        let mut a = Xoshiro256StarStar::seed_from_u64(9);
        a.next_u64();
        let mut b = Xoshiro256StarStar::from_json_str(&a.to_json_string()).unwrap();
        assert_eq!(a.next_u64(), b.next_u64());
        assert!(Xoshiro256StarStar::from_json_str("[0,0,0,0]").is_err());
        assert!(Xoshiro256StarStar::from_json_str("[1,2,3]").is_err());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut g = Xoshiro256StarStar::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = g.next_f64();
            assert!((0.0..1.0).contains(&x), "{x} out of [0,1)");
        }
    }

    #[test]
    fn bounded_respects_bound_and_hits_all_small_values() {
        let mut g = Xoshiro256StarStar::seed_from_u64(1);
        let mut seen = [false; 5];
        for _ in 0..1_000 {
            let x = g.next_bounded(5);
            assert!(x < 5);
            seen[x as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "not all residues seen: {seen:?}");
    }

    #[test]
    fn range_inclusive_endpoints() {
        let mut g = Xoshiro256StarStar::seed_from_u64(9);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..2_000 {
            let x = g.next_range(10, 12);
            assert!((10..=12).contains(&x));
            lo_seen |= x == 10;
            hi_seen |= x == 12;
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn bool_probability_edges() {
        let mut g = Xoshiro256StarStar::seed_from_u64(3);
        assert!(!g.next_bool(0.0));
        assert!(g.next_bool(1.0));
        // p=0.5 should be roughly balanced.
        let heads = (0..10_000).filter(|_| g.next_bool(0.5)).count();
        assert!((4_500..5_500).contains(&heads), "heads={heads}");
    }

    #[test]
    fn gaussian_moments_are_sane() {
        let mut g = Xoshiro256StarStar::seed_from_u64(11);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| g.next_gaussian()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean={mean}");
        assert!((var - 1.0).abs() < 0.05, "var={var}");
    }

    #[test]
    fn fork_produces_distinct_streams() {
        let mut parent = Xoshiro256StarStar::seed_from_u64(5);
        let mut child = parent.fork();
        let a: Vec<u64> = (0..8).map(|_| parent.next_u64()).collect();
        let b: Vec<u64> = (0..8).map(|_| child.next_u64()).collect();
        assert_ne!(a, b);
    }
}
