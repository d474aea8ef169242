//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the subset of proptest's API its tests actually use:
//!
//! * the [`proptest!`] macro with an optional `#![proptest_config(..)]`
//!   inner attribute;
//! * [`Strategy`] implemented for ranges, tuples, [`strategy::Just`],
//!   [`strategy::Union`] (via [`prop_oneof!`]), [`strategy::Map`]
//!   (via `prop_map`) and [`collection::vec`];
//! * `any::<T>()` for the primitive integers and `bool`;
//! * `prop_assert!` / `prop_assert_eq!` / `prop_assert_ne!`.
//!
//! Differences from real proptest, chosen for simplicity: no shrinking
//! (a failing case panics with its case index, RNG seed and generated
//! inputs instead of a minimized input) and no failure persistence. Case
//! generation is fully deterministic: the RNG seed is derived from the
//! test's module path and name, so a failure reproduces on every run until
//! the test changes. Every generated value must implement `Debug`.

pub mod collection;
pub mod strategy;
pub mod test_runner;

/// Mirror of real proptest's `prop` prelude alias: lets tests write
/// `prop::collection::vec(..)`.
pub mod prop {
    pub use crate::collection;
    pub use crate::strategy;
}

pub mod prelude {
    pub use crate::prop;
    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Per-block configuration accepted by `#![proptest_config(..)]`.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
    /// Accepted for source compatibility; this shim never shrinks.
    pub max_shrink_iters: u32,
    /// Accepted for source compatibility; this shim never rejects.
    pub max_global_rejects: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256, max_shrink_iters: 0, max_global_rejects: 1024 }
    }
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { config = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = ($cfg:expr); $(
        $(#[$attr:meta])*
        fn $name:ident($($pat:pat_param in $strat:expr),+ $(,)?) $body:block
    )*) => {
        $(
            $(#[$attr])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let seed = $crate::test_runner::seed_for(concat!(
                    module_path!(), "::", stringify!($name)
                ));
                let mut rng = $crate::test_runner::TestRng::from_seed(seed);
                for case in 0..config.cases {
                    let values = ($(
                        $crate::strategy::Strategy::generate(&($strat), &mut rng),
                    )+);
                    let inputs = format!("{:?}", values);
                    let ($($pat,)+) = values;
                    let outcome = ::std::panic::catch_unwind(
                        ::std::panic::AssertUnwindSafe(move || $body),
                    );
                    if let Err(payload) = outcome {
                        $crate::test_runner::fail(
                            stringify!($name),
                            case + 1,
                            config.cases,
                            seed,
                            &inputs,
                            payload,
                        );
                    }
                }
            }
        )*
    };
}

/// `prop_oneof![a, b, c]`: choose uniformly among the listed strategies.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $(Box::new($strat) as $crate::strategy::BoxedStrategy<_>),+
        ])
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 1, ..ProptestConfig::default() })]

        #[test]
        #[should_panic(expected = "inputs: (7, [true, true])")]
        fn a_failing_case_names_its_inputs(
            x in 7u32..8,
            flags in prop::collection::vec(Just(true), 2..3),
        ) {
            prop_assert!(x != 7 || flags.is_empty(), "x is seven");
        }
    }
}
