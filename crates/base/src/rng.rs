//! Deterministic, snapshottable random number generation.
//!
//! The optimistic engine requires that rolling an LP back restores its
//! random stream exactly: a re-executed event must draw the same numbers it
//! drew the first time. [`Pcg32`] (PCG-XSH-RR 64/32) makes that cheap: its
//! 16 bytes are a 64-bit LCG position ([`Pcg32::state`]) and a stream
//! increment fixed at seeding, so the engine saves only the 8-byte position
//! before each event and rebuilds the generator on the LP's own stream
//! ([`Pcg32::at_state`]) when it undoes the event. It also has good
//! statistical quality.
//!
//! [`SplitMix64`] is used only for seeding: it decorrelates per-LP streams
//! derived from `(run_seed, lp_id)`.

/// SplitMix64 — seed scrambler (Steele et al., "Fast splittable
/// pseudorandom number generators").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    #[inline]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

const PCG_MULT: u64 = 6364136223846793005;

/// PCG-XSH-RR 64/32: 64-bit LCG state, 32-bit output with xorshift+rotate.
///
/// ```
/// use cagvt_base::rng::Pcg32;
///
/// let mut rng = Pcg32::new(42, 7);
/// let snapshot = rng; // Copy: 16 bytes
/// let a: Vec<u32> = (0..4).map(|_| rng.next_u32()).collect();
///
/// // Restoring the snapshot replays the identical stream — the property
/// // optimistic rollback depends on.
/// let mut replay = snapshot;
/// let b: Vec<u32> = (0..4).map(|_| replay.next_u32()).collect();
/// assert_eq!(a, b);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pcg32 {
    state: u64,
    /// Stream selector; always odd.
    inc: u64,
}

impl Pcg32 {
    /// Create a generator for `(seed, stream)`. Distinct streams are
    /// statistically independent; the cluster builder derives one stream per
    /// LP.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut sm = SplitMix64::new(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        let inc = (sm.next_u64() << 1) | 1;
        let mut rng = Pcg32 { state: sm.next_u64(), inc };
        // Standard PCG initialization: one step to mix the seed in.
        rng.state = rng.state.wrapping_add(inc);
        let _ = rng.next_u32();
        rng
    }

    /// The generator's position in its stream: the only part that moves
    /// as it draws.
    #[inline]
    pub fn state(&self) -> u64 {
        self.state
    }

    /// This generator's stream at position `state` (a value of
    /// [`Self::state`]), so `rng.at_state(rng.state()) == rng`.
    #[inline]
    pub fn at_state(&self, state: u64) -> Pcg32 {
        Pcg32 { state, inc: self.inc }
    }

    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        ((self.next_u32() as u64) << 32) | self.next_u32() as u64
    }

    /// Uniform in `[0, 1)` with 32 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        self.next_u32() as f64 * (1.0 / 4294967296.0)
    }

    /// Uniform integer in `[0, bound)` via Lemire's multiply-shift (slightly
    /// biased for huge bounds, irrelevant for model routing draws; the bias
    /// is < 2^-32).
    #[inline]
    pub fn next_bounded(&mut self, bound: u32) -> u32 {
        debug_assert!(bound > 0);
        ((self.next_u32() as u64 * bound as u64) >> 32) as u32
    }

    /// Exponential variate with the given mean (inverse-CDF method). Always
    /// finite and strictly positive.
    #[inline]
    pub fn next_exp(&mut self, mean: f64) -> f64 {
        // 1 - u in (0, 1]; ln of it is finite and <= 0.
        let u = 1.0 - self.next_f64();
        -mean * u.ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(43);
        assert_ne!(SplitMix64::new(42).next_u64(), c.next_u64());
    }

    #[test]
    fn pcg_streams_differ() {
        let mut a = Pcg32::new(7, 0);
        let mut b = Pcg32::new(7, 1);
        let same = (0..64).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(same < 4, "streams should be decorrelated, got {same} collisions");
    }

    #[test]
    fn pcg_clone_restores_stream() {
        let mut rng = Pcg32::new(123, 9);
        for _ in 0..10 {
            rng.next_u32();
        }
        let snapshot = rng;
        let run1: Vec<u32> = (0..32).map(|_| rng.next_u32()).collect();
        let mut restored = snapshot;
        let run2: Vec<u32> = (0..32).map(|_| restored.next_u32()).collect();
        assert_eq!(run1, run2, "snapshot/restore must replay the stream");
    }

    #[test]
    fn at_state_round_trips_the_position() {
        let start = Pcg32::new(31, 4);
        let mut rng = start;
        for _ in 0..5 {
            rng.next_u32();
        }
        assert_eq!(rng.at_state(rng.state()), rng);
        // Rebuilding an earlier position replays the stream from there.
        let mut back = rng.at_state(start.state());
        assert_eq!(back, start);
        let mut again = start;
        assert_eq!(back.next_u32(), again.next_u32());
        // Another stream at the same position is another generator.
        let other = Pcg32::new(31, 5);
        assert_ne!(other.at_state(rng.state()), rng);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Pcg32::new(1, 1);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn exp_is_positive_finite_with_roughly_right_mean() {
        let mut rng = Pcg32::new(2, 2);
        let n = 50_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = rng.next_exp(2.0);
            assert!(x.is_finite() && x > 0.0);
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "sample mean {mean}");
    }

    #[test]
    fn bounded_covers_range_without_overflow() {
        let mut rng = Pcg32::new(3, 3);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            let v = rng.next_bounded(8);
            assert!(v < 8);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
