//! The [`Strategy`] trait and its core combinators.

use crate::test_runner::TestRng;
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

/// A recipe for generating values of one type. Unlike real proptest there
/// is no value tree and no shrinking: `generate` draws one value.
pub trait Strategy {
    type Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Erase the concrete strategy type.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

pub type BoxedStrategy<V> = Box<dyn Strategy<Value = V>>;

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        (**self).generate(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        (**self).generate(rng)
    }
}

/// Always yields a clone of the wrapped value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// `prop_map` adapter.
pub struct Map<S, F> {
    pub(crate) inner: S,
    pub(crate) f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// Uniform choice among boxed strategies (`prop_oneof!`).
pub struct Union<V> {
    arms: Vec<BoxedStrategy<V>>,
}

impl<V> Union<V> {
    pub fn new(arms: Vec<BoxedStrategy<V>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        let idx = rng.next_below(self.arms.len() as u64) as usize;
        self.arms[idx].generate(rng)
    }
}

/// Types with a full-domain `any::<T>()` strategy.
pub trait Arbitrary {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arbitrary_ints {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
arbitrary_ints!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

pub struct Any<T>(PhantomData<T>);

pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! range_ints {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u128 - self.start as u128) as u64;
                self.start + rng.next_below(span) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as u128 - lo as u128) + 1;
                if span > u64::MAX as u128 {
                    // Full u64/usize domain.
                    rng.next_u64() as $t
                } else {
                    lo + rng.next_below(span as u64) as $t
                }
            }
        }
    )*};
}
range_ints!(u8, u16, u32, u64, usize);

macro_rules! range_signed {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.next_below(span) as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i128 - lo as i128) + 1;
                if span > u64::MAX as i128 {
                    rng.next_u64() as $t
                } else {
                    (lo as i128 + rng.next_below(span as u64) as i128) as $t
                }
            }
        }
    )*};
}
range_signed!(i8, i16, i32, i64, isize);

macro_rules! range_floats {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                // Rejection keeps the half-open bound exact despite
                // floating-point rounding at the top of the range.
                loop {
                    let v = self.start
                        + (rng.next_f64() as $t) * (self.end - self.start);
                    if v < self.end {
                        return v;
                    }
                }
            }
        }
    )*};
}
range_floats!(f32, f64);

macro_rules! tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}
tuple_strategy!(A);
tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);
tuple_strategy!(A, B, C, D, E);
tuple_strategy!(A, B, C, D, E, F);

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> TestRng {
        TestRng::from_seed(0xDEAD_BEEF)
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut r = rng();
        for _ in 0..1000 {
            let v = (3u32..17).generate(&mut r);
            assert!((3..17).contains(&v));
            let w = (5u16..=7).generate(&mut r);
            assert!((5..=7).contains(&w));
            let f = (-2.0f64..3.0).generate(&mut r);
            assert!((-2.0..3.0).contains(&f));
            let s = (-10i64..-2).generate(&mut r);
            assert!((-10..-2).contains(&s));
        }
    }

    #[test]
    fn map_union_and_tuples_compose() {
        let mut r = rng();
        let strat = crate::prop_oneof![Just(0u32), (1u32..5, 10u32..20).prop_map(|(a, b)| a + b),];
        let mut saw_zero = false;
        let mut saw_sum = false;
        for _ in 0..200 {
            match strat.generate(&mut r) {
                0 => saw_zero = true,
                v if (11u32..25).contains(&v) => saw_sum = true,
                v => panic!("impossible value {v}"),
            }
        }
        assert!(saw_zero && saw_sum, "both arms should be exercised");
    }

    #[test]
    fn full_domain_any_covers_extremes_eventually() {
        let mut r = rng();
        let mut top = 0u64;
        for _ in 0..64 {
            top = top.max(any::<u64>().generate(&mut r));
        }
        assert!(top > u64::MAX / 2, "full-domain draw looks truncated");
    }
}
