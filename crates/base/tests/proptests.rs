//! Property tests for the foundation types.

use cagvt_base::rng::{Pcg32, SplitMix64};
use cagvt_base::stats::Welford;
use cagvt_base::time::{VirtualTime, WallNs};
use proptest::prelude::*;

proptest! {
    /// `to_ordered_bits` is a strictly monotone embedding of virtual time
    /// into `u64`.
    #[test]
    fn ordered_bits_monotone(a in 0.0f64..1e18, b in 0.0f64..1e18) {
        let (ta, tb) = (VirtualTime::new(a), VirtualTime::new(b));
        prop_assert_eq!(ta.cmp(&tb), ta.to_ordered_bits().cmp(&tb.to_ordered_bits()));
        prop_assert_eq!(VirtualTime::from_ordered_bits(ta.to_ordered_bits()), ta);
    }

    /// Exponential draws are finite, positive, and uniform draws live in
    /// [0, 1).
    #[test]
    fn pcg_distribution_ranges(seed in any::<u64>(), mean in 0.01f64..100.0) {
        let mut rng = Pcg32::new(seed, 7);
        for _ in 0..100 {
            let e = rng.next_exp(mean);
            prop_assert!(e.is_finite() && e > 0.0);
            let u = rng.next_f64();
            prop_assert!((0.0..1.0).contains(&u));
        }
    }

    /// bounded draws respect the bound and splitmix is a pure function of
    /// its seed.
    #[test]
    fn bounded_and_splitmix(seed in any::<u64>(), bound in 1u32..10_000) {
        let mut rng = Pcg32::new(seed, 3);
        for _ in 0..50 {
            prop_assert!(rng.next_bounded(bound) < bound);
        }
        let a = SplitMix64::new(seed).next_u64();
        let b = SplitMix64::new(seed).next_u64();
        prop_assert_eq!(a, b);
    }

    /// Welford matches the two-pass formulas on arbitrary data, and
    /// merging any split equals the whole.
    #[test]
    fn welford_matches_two_pass(xs in prop::collection::vec(-1e6f64..1e6, 1..200), split in any::<u16>()) {
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        prop_assert!((w.mean() - mean).abs() <= 1e-6 * (1.0 + mean.abs()));
        prop_assert!((w.variance() - var).abs() <= 1e-5 * (1.0 + var));

        let k = (split as usize) % xs.len();
        let (left, right) = xs.split_at(k);
        let mut a = Welford::new();
        let mut b = Welford::new();
        left.iter().for_each(|&x| a.push(x));
        right.iter().for_each(|&x| b.push(x));
        a.merge(&b);
        prop_assert_eq!(a.count(), w.count());
        prop_assert!((a.mean() - w.mean()).abs() <= 1e-6 * (1.0 + w.mean().abs()));
    }

    /// WallNs saturating subtraction never underflows and max/min agree
    /// with ordering.
    #[test]
    fn wall_ns_algebra(a in any::<u32>(), b in any::<u32>()) {
        let (wa, wb) = (WallNs(a as u64), WallNs(b as u64));
        // max = min + |a - b|, with |a - b| expressed via saturating subs.
        let abs_diff = wa.saturating_sub(wb) + wb.saturating_sub(wa);
        prop_assert_eq!(wa.max(wb), wa.min(wb) + abs_diff);
        prop_assert!(wa.max(wb) >= wa.min(wb));
        prop_assert_eq!((wa + wb).as_nanos(), a as u64 + b as u64);
    }
}
