//! Statistics accumulators used by the engine's instrumentation.
//!
//! The paper reports committed event rate, efficiency, rollback counts, and
//! an "LVT disparity" metric: the standard deviation of worker LVTs sampled
//! at each GVT round, averaged over rounds. [`Welford`] provides the
//! numerically stable single-pass mean/variance behind these; [`Horizon`]
//! reduces one round's worker LVTs to that disparity plus the horizon width.

/// Welford's online mean/variance accumulator.
#[derive(Clone, Copy, Debug, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    #[inline]
    pub fn count(&self) -> u64 {
        self.n
    }

    #[inline]
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (the paper's disparity metric is a population
    /// std-dev over the worker LVTs of one round).
    #[inline]
    pub fn variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    #[inline]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Merge another accumulator into this one (Chan et al. parallel
    /// combination). Used when aggregating per-worker accumulators into a
    /// run report.
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        *self = Welford { n, mean, m2 };
    }
}

/// Profile of one virtual-time-horizon snapshot, à la Kolakowska–Novotny
/// and Korniss (PAPERS.md): the finite values of a per-worker sample
/// reduced to their **width** `max − min`, **roughness** (population
/// std-dev — the paper's LVT disparity) and mean. Non-finite values (an
/// idle worker's `+∞` LVT) are skipped.
///
/// The one definition of these statistics: the report's per-round
/// Welfords, the per-epoch metrics and the trace horizon series all call
/// [`Horizon::of`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Horizon {
    /// Finite values in the snapshot.
    pub samples: u32,
    /// Mean of the finite values (0.0 when there are none).
    pub mean: f64,
    /// `max − min` of the finite values (0.0 when there are none).
    pub width: f64,
    /// Population standard deviation of the finite values.
    pub roughness: f64,
}

impl Horizon {
    pub fn of(values: impl IntoIterator<Item = f64>) -> Horizon {
        let mut w = Welford::new();
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        for x in values.into_iter().filter(|x| x.is_finite()) {
            w.push(x);
            min = min.min(x);
            max = max.max(x);
        }
        Horizon {
            samples: w.count() as u32,
            mean: w.mean(),
            width: if max >= min { max - min } else { 0.0 },
            roughness: w.std_dev(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive_mean_and_variance() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        assert!((w.variance() - 4.0).abs() < 1e-12);
        assert!((w.std_dev() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn welford_empty_is_zero() {
        let w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.std_dev(), 0.0);
    }

    #[test]
    fn welford_merge_equals_combined_stream() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64 * 0.37).sin() * 10.0 + 3.0).collect();
        let mut whole = Welford::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = Welford::new();
        let mut b = Welford::new();
        for (i, &x) in xs.iter().enumerate() {
            if i % 3 == 0 {
                a.push(x);
            } else {
                b.push(x);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn welford_merge_with_empty_sides() {
        let mut a = Welford::new();
        a.push(1.0);
        a.push(3.0);
        let empty = Welford::new();
        let mut b = a;
        b.merge(&empty);
        assert!((b.mean() - 2.0).abs() < 1e-12);
        let mut c = Welford::new();
        c.merge(&a);
        assert_eq!(c.count(), 2);
        assert!((c.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn horizon_uses_population_std_dev() {
        // mean 4, deviations [-2,0,0,2] -> variance 2 -> std ~1.414.
        let h = Horizon::of([2.0, 4.0, 4.0, 6.0]);
        assert_eq!(h.samples, 4);
        assert!((h.mean - 4.0).abs() < 1e-12);
        assert!((h.roughness - 2.0_f64.sqrt()).abs() < 1e-12);
        assert_eq!(h.width, 4.0);
    }

    #[test]
    fn horizon_of_nothing_finite_is_zero() {
        // All workers idle at infinite LVT: width collapses to 0 rather
        // than going negative or NaN.
        let h = Horizon::of([f64::INFINITY, f64::INFINITY, f64::NAN]);
        assert_eq!(h, Horizon::default());
        assert_eq!(Horizon::of([]), Horizon::default());
    }

    #[test]
    fn horizon_single_value_has_zero_width() {
        let h = Horizon::of([7.5]);
        assert_eq!((h.samples, h.mean, h.width, h.roughness), (1, 7.5, 0.0, 0.0));
    }

    #[test]
    fn horizon_skips_infinite_values_in_mixed_snapshots() {
        // {2, inf, 6, inf}: only the finite pair contributes, so the width
        // is 4 and the std-dev is that of {2, 6} = 2.
        let h = Horizon::of([2.0, f64::INFINITY, 6.0, f64::INFINITY]);
        assert_eq!(h.samples, 2);
        assert_eq!(h.width, 4.0);
        assert!((h.roughness - 2.0).abs() < 1e-12);
        assert!((h.mean - 4.0).abs() < 1e-12);
    }
}
