//! Time types: model virtual time and simulated wall-clock nanoseconds.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Virtual (model) time of the discrete event simulation.
///
/// A totally ordered wrapper around a finite, non-negative `f64`. `NaN` is
/// rejected at construction, which makes `Ord` sound. Use
/// [`VirtualTime::INFINITY`] as the "no event" sentinel (e.g. Mattern's
/// `min_red` starts at infinity).
///
/// ```
/// use cagvt_base::VirtualTime;
///
/// let a = VirtualTime::new(1.5);
/// let b = VirtualTime::new(2.0);
/// assert!(a < b && b < VirtualTime::INFINITY);
///
/// // The ordered-bits encoding lets virtual times live in atomics while
/// // preserving comparison order (used for min-reductions).
/// assert!(a.to_ordered_bits() < b.to_ordered_bits());
/// assert_eq!(VirtualTime::from_ordered_bits(a.to_ordered_bits()), a);
/// ```
#[derive(Clone, Copy, PartialEq, PartialOrd)]
pub struct VirtualTime(f64);

impl VirtualTime {
    pub const ZERO: VirtualTime = VirtualTime(0.0);
    pub const INFINITY: VirtualTime = VirtualTime(f64::INFINITY);

    /// Construct from a raw `f64`. `-0.0` becomes `0.0`, so zero has one
    /// bit pattern (one hash, one place in the ordered-bits order).
    ///
    /// # Panics
    /// Panics on `NaN` or negative values: virtual time is a forward-only
    /// axis and every ordering in the engine relies on totality.
    #[inline]
    pub fn new(t: f64) -> Self {
        assert!(!t.is_nan() && t >= 0.0, "invalid virtual time: {t}");
        VirtualTime(t + 0.0)
    }

    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0
    }

    #[inline]
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }

    #[inline]
    pub fn min(self, other: Self) -> Self {
        if other < self {
            other
        } else {
            self
        }
    }

    #[inline]
    pub fn max(self, other: Self) -> Self {
        if other > self {
            other
        } else {
            self
        }
    }

    /// Encode as a totally ordered `u64` so the value can live in an
    /// `AtomicU64` (used for shared LVT publication and atomic min-reduce).
    ///
    /// For non-negative finite floats and `+inf`, the IEEE-754 bit pattern
    /// interpreted as an unsigned integer is monotone in the float value, so
    /// `a <= b  <=>  a.to_bits() <= b.to_bits()`.
    #[inline]
    pub fn to_ordered_bits(self) -> u64 {
        self.0.to_bits()
    }

    /// Inverse of [`Self::to_ordered_bits`].
    #[inline]
    pub fn from_ordered_bits(bits: u64) -> Self {
        let t = f64::from_bits(bits);
        debug_assert!(!t.is_nan() && t >= 0.0);
        VirtualTime(t)
    }
}

impl Eq for VirtualTime {}

impl std::hash::Hash for VirtualTime {
    /// Hash of the ordered bit pattern; consistent with `Eq` because
    /// construction forbids `NaN` and negative values and turns `-0.0`, the
    /// one value with two representations, into `0.0`.
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.to_ordered_bits().hash(state);
    }
}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for VirtualTime {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Safe: construction forbids NaN.
        self.0.partial_cmp(&other.0).expect("VirtualTime is never NaN")
    }
}

impl Add<f64> for VirtualTime {
    type Output = VirtualTime;
    #[inline]
    fn add(self, rhs: f64) -> VirtualTime {
        VirtualTime::new(self.0 + rhs)
    }
}

impl fmt::Debug for VirtualTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vt({})", self.0)
    }
}

impl fmt::Display for VirtualTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Simulated wall-clock time in nanoseconds.
///
/// The virtual-cluster substrate charges every action (event processing,
/// message handling, lock waits, barrier waits) in `WallNs`; the scheduler
/// advances each actor's clock by the charges its step accrued. Committed
/// event *rates* reported by the harness are committed events divided by the
/// final `WallNs` horizon, in simulated seconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct WallNs(pub u64);

impl WallNs {
    pub const ZERO: WallNs = WallNs(0);

    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    #[inline]
    pub fn saturating_sub(self, other: Self) -> Self {
        WallNs(self.0.saturating_sub(other.0))
    }

    #[inline]
    pub fn min(self, other: Self) -> Self {
        WallNs(self.0.min(other.0))
    }

    #[inline]
    pub fn max(self, other: Self) -> Self {
        WallNs(self.0.max(other.0))
    }
}

impl Add for WallNs {
    type Output = WallNs;
    #[inline]
    fn add(self, rhs: WallNs) -> WallNs {
        WallNs(self.0 + rhs.0)
    }
}

impl AddAssign for WallNs {
    #[inline]
    fn add_assign(&mut self, rhs: WallNs) {
        self.0 += rhs.0;
    }
}

impl Sub for WallNs {
    type Output = WallNs;
    #[inline]
    fn sub(self, rhs: WallNs) -> WallNs {
        WallNs(self.0 - rhs.0)
    }
}

impl fmt::Debug for WallNs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl fmt::Display for WallNs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_time_orders_totally() {
        let a = VirtualTime::new(1.0);
        let b = VirtualTime::new(2.0);
        assert!(a < b);
        assert!(b < VirtualTime::INFINITY);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert_eq!(VirtualTime::ZERO.as_f64(), 0.0);
    }

    #[test]
    #[should_panic]
    fn virtual_time_rejects_nan() {
        let _ = VirtualTime::new(f64::NAN);
    }

    #[test]
    #[should_panic]
    fn virtual_time_rejects_negative() {
        let _ = VirtualTime::new(-1.0);
    }

    #[test]
    fn negative_zero_is_zero() {
        use std::hash::{BuildHasher, RandomState};
        let z = VirtualTime::new(-0.0);
        assert_eq!(z.to_ordered_bits(), VirtualTime::ZERO.to_ordered_bits());
        assert!(z.to_ordered_bits() < VirtualTime::INFINITY.to_ordered_bits());
        let hasher = RandomState::new();
        assert_eq!(hasher.hash_one(z), hasher.hash_one(VirtualTime::ZERO));
        assert_eq!(z.cmp(&VirtualTime::ZERO), std::cmp::Ordering::Equal);
        assert!(z < VirtualTime::new(f64::MIN_POSITIVE));
    }

    #[test]
    fn ordered_bits_roundtrip_and_monotone() {
        let ts = [0.0, 0.5, 1.0, 1.5, 100.25, 1e12, f64::INFINITY];
        for w in ts.windows(2) {
            let (a, b) = (VirtualTime::new(w[0]), VirtualTime::new(w[1]));
            assert!(a.to_ordered_bits() < b.to_ordered_bits());
            assert_eq!(VirtualTime::from_ordered_bits(a.to_ordered_bits()), a);
        }
        let inf = VirtualTime::INFINITY;
        assert_eq!(VirtualTime::from_ordered_bits(inf.to_ordered_bits()), inf);
    }

    #[test]
    fn wall_ns_arithmetic() {
        let a = WallNs(3_000);
        let b = WallNs(500);
        assert_eq!((a + b).as_nanos(), 3_500);
        assert_eq!((a - b).as_nanos(), 2_500);
        assert_eq!(b.saturating_sub(a), WallNs::ZERO);
        assert_eq!(WallNs(2_000_000).as_secs_f64(), 0.002);
        let mut c = a;
        c += b;
        assert_eq!(c.as_nanos(), 3_500);
        assert_eq!(a.min(b), b);
        assert_eq!(a.max(b), a);
    }

    #[test]
    fn wall_ns_display_units() {
        assert_eq!(format!("{}", WallNs(12)), "12ns");
        assert_eq!(format!("{}", WallNs(1_500)), "1.500us");
        assert_eq!(format!("{}", WallNs(2_000_000)), "2.000ms");
        assert_eq!(format!("{}", WallNs(1_500_000_000)), "1.500s");
    }
}
