//! Deterministic case-generation RNG (SplitMix64).

/// Derive a stable 64-bit seed from a test's fully qualified name (FNV-1a,
/// then one SplitMix64 scramble). Stable across runs and platforms, so a
/// reported failure reproduces exactly.
pub fn seed_for(test_path: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_path.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    splitmix(h)
}

#[inline]
fn splitmix(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The generation RNG handed to strategies.
#[derive(Clone, Copy, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    pub fn from_seed(seed: u64) -> Self {
        TestRng { state: seed }
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix(self.state)
    }

    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, bound)`; `bound` must be non-zero.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

/// Fail a property test: panic with the test name, the case number
/// (1-based) out of `cases`, the RNG seed that replays it, the case's
/// generated inputs and the message of the original panic.
pub fn fail(
    name: &str,
    case: u32,
    cases: u32,
    seed: u64,
    inputs: &str,
    payload: Box<dyn std::any::Any + Send>,
) -> ! {
    let message = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string panic payload>".to_string());
    panic!(
        "proptest {name}: case {case}/{cases} failed (rng seed {seed:#018x}; no shrinking in \
         this offline shim)\ninputs: {inputs}\n{message}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_stable_and_distinct() {
        assert_eq!(seed_for("a::b"), seed_for("a::b"));
        assert_ne!(seed_for("a::b"), seed_for("a::c"));
    }

    #[test]
    fn rng_is_deterministic_and_in_range() {
        let mut a = TestRng::from_seed(7);
        let mut b = TestRng::from_seed(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
            let f = a.next_f64();
            assert!((0.0..1.0).contains(&f));
            b.next_f64();
            let v = a.next_below(13);
            assert!(v < 13);
            b.next_below(13);
        }
    }
}
