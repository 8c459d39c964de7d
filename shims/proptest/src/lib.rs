//! Offline, API-compatible subset of the
//! [`proptest`](https://docs.rs/proptest) property-testing framework.
//!
//! The build environment has no crates.io access, so this shim implements
//! the surface the workspace's property tests use: the [`proptest!`],
//! [`prop_oneof!`], [`prop_assert!`] and [`prop_assert_eq!`] macros, the
//! [`strategy::Strategy`] trait with `prop_map`, tuple/range strategies,
//! [`arbitrary`] `any::<T>()`, [`collection::vec`] and [`option::of`].
//!
//! Semantics differences from upstream: generation is purely random from a
//! fixed deterministic seed (no coverage-guided exploration) and failing
//! cases are reported without shrinking. Each `proptest!` test runs
//! [`NUM_CASES`] cases unless the block opens with upstream's
//! `#![proptest_config(ProptestConfig::with_cases(n))]`.

/// Number of cases each `proptest!` test executes by default.
pub const NUM_CASES: u32 = 128;

/// A failed property-test case.
#[derive(Debug)]
pub struct TestCaseError {
    message: String,
}

impl TestCaseError {
    /// Build an error carrying the failed assertion's message.
    pub fn fail(message: impl Into<String>) -> Self {
        TestCaseError { message: message.into() }
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

/// Deterministic random source for test-case generation.
pub mod test_runner {
    /// Per-block configuration (upstream's `ProptestConfig`); only the
    /// case count is supported.
    #[derive(Clone, Debug)]
    pub struct Config {
        /// Cases each test in the block executes.
        pub cases: u32,
    }

    impl Config {
        /// A configuration running `cases` cases per test.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: crate::NUM_CASES }
        }
    }

    /// SplitMix64-based generator; deterministic per construction.
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// The fixed-seed generator used by the [`crate::proptest!`] macro.
        pub fn deterministic() -> Self {
            TestRng { state: 0x9e37_79b9_7f4a_7c15 }
        }

        /// Next raw 64-bit word.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform draw in `[0, bound)`; `bound` must be non-zero.
        pub fn below(&mut self, bound: u64) -> u64 {
            ((self.next_u64() as u128 * bound as u128) >> 64) as u64
        }
    }
}

/// Core strategy trait and combinators.
pub mod strategy {
    use crate::test_runner::TestRng;

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Generate one value.
        fn new_value(&self, rng: &mut TestRng) -> Self::Value;

        /// Transform generated values with `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Erase the concrete strategy type.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy { inner: Box::new(self) }
        }
    }

    /// Output of [`Strategy::prop_map`].
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn new_value(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.new_value(rng))
        }
    }

    /// A type-erased strategy, as produced by [`Strategy::boxed`].
    pub struct BoxedStrategy<T> {
        inner: Box<dyn Strategy<Value = T>>,
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn new_value(&self, rng: &mut TestRng) -> T {
            self.inner.new_value(rng)
        }
    }

    /// Uniform choice between alternative strategies of one value type;
    /// built by [`crate::prop_oneof!`].
    pub struct Union<T> {
        options: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// Build a union over `options`; must be non-empty.
        pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one option");
            Union { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn new_value(&self, rng: &mut TestRng) -> T {
            let idx = rng.below(self.options.len() as u64) as usize;
            self.options[idx].new_value(rng)
        }
    }

    /// A strategy that always yields a clone of one value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn new_value(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let draw = ((rng.next_u64() as u128).wrapping_mul(span) >> 64) as i128;
                    (self.start as i128 + draw) as $t
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as i128 - lo as i128 + 1) as u128;
                    let draw = ((rng.next_u64() as u128).wrapping_mul(span) >> 64) as i128;
                    (lo as i128 + draw) as $t
                }
            }
        )*};
    }
    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! impl_tuple_strategy {
        ($(($($s:ident),+))*) => {$(
            #[allow(non_snake_case)]
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($s,)+) = self;
                    ($($s.new_value(rng),)+)
                }
            }
        )*};
    }
    impl_tuple_strategy! {
        (A, B)
        (A, B, C)
        (A, B, C, D)
        (A, B, C, D, E)
        (A, B, C, D, E, F)
    }
}

/// `any::<T>()` support.
pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Types with a canonical full-domain strategy.
    pub trait Arbitrary: Sized {
        /// Draw one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    let mut acc: u128 = 0;
                    for _ in 0..std::mem::size_of::<$t>().div_ceil(8) {
                        acc = (acc << 64) | rng.next_u64() as u128;
                    }
                    acc as $t
                }
            }
        )*};
    }
    impl_arbitrary_int!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    /// The strategy returned by [`any`].
    pub struct Any<T> {
        _marker: std::marker::PhantomData<fn() -> T>,
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn new_value(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The full-domain strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any { _marker: std::marker::PhantomData }
    }
}

/// Collection strategies.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// The strategy returned by [`vec`].
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn new_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            assert!(self.size.start < self.size.end, "empty vec size range");
            let span = (self.size.end - self.size.start) as u64;
            let len = self.size.start + rng.below(span) as usize;
            (0..len).map(|_| self.element.new_value(rng)).collect()
        }
    }

    /// Vectors of `element` with length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }
}

/// `Option` strategies.
pub mod option {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// The strategy returned by [`of`].
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn new_value(&self, rng: &mut TestRng) -> Option<S::Value> {
            // Match upstream's default: Some with probability 0.75.
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.inner.new_value(rng))
            }
        }
    }

    /// `Option<V>` values wrapping `inner`'s output.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }
}

/// The conventional glob-import module.
pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::TestCaseError;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Define property tests. Each `fn` runs [`NUM_CASES`] generated cases,
/// or the count of a leading `#![proptest_config(..)]`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@cases ($config).cases; $($rest)*);
    };
    (@cases $cases:expr; $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let mut rng = $crate::test_runner::TestRng::deterministic();
                let cases: u32 = $cases;
                for case in 0..cases {
                    $(let $arg = $crate::strategy::Strategy::new_value(&($strat), &mut rng);)+
                    let outcome = (move || -> ::core::result::Result<(), $crate::TestCaseError> {
                        $body
                        ::core::result::Result::Ok(())
                    })();
                    if let ::core::result::Result::Err(err) = outcome {
                        panic!(
                            "proptest `{}` failed at case {}/{}: {}",
                            stringify!($name),
                            case + 1,
                            cases,
                            err
                        );
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@cases $crate::NUM_CASES; $($rest)*);
    };
}

/// Uniform choice between strategies yielding one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($option:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($option)),+
        ])
    };
}

/// Assert within a `proptest!` body; failure fails just this case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Assert equality within a `proptest!` body; an optional format
/// message is appended to the failure.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        if !(*left == *right) {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} == {}`: {}\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                format_args!($($fmt)+),
                left,
                right
            )));
        }
    }};
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        if !(*left == *right) {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                left,
                right
            )));
        }
    }};
}

/// Assert inequality within a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        if *left == *right {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} != {}`\n  both: {:?}",
                stringify!($left),
                stringify!($right),
                left
            )));
        }
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(v in 10u32..20, w in 0u8..=4) {
            prop_assert!((10..20).contains(&v));
            prop_assert!(w <= 4);
        }

        #[test]
        fn oneof_and_map_compose(v in prop_oneof![0u32..5, 100u32..105].prop_map(|x| x * 2)) {
            prop_assert!(v < 10 || (200..210).contains(&v));
            prop_assert_eq!(v % 2, 0);
        }

        #[test]
        fn vec_sizes(items in crate::collection::vec(any::<bool>(), 1..9)) {
            prop_assert!(!items.is_empty() && items.len() < 9);
        }
    }

    static CONFIGURED_RUNS: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(7))]
        fn counts_its_cases(v in 0u8..3) {
            CONFIGURED_RUNS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            prop_assert!(v < 3);
        }
    }

    #[test]
    fn configured_case_count_is_honoured() {
        counts_its_cases();
        assert_eq!(CONFIGURED_RUNS.load(std::sync::atomic::Ordering::Relaxed), 7);
    }

    #[test]
    fn option_of_yields_both_variants() {
        let strat = crate::option::of(0u32..10);
        let mut rng = crate::test_runner::TestRng::deterministic();
        let draws: Vec<_> =
            (0..100).map(|_| crate::strategy::Strategy::new_value(&strat, &mut rng)).collect();
        assert!(draws.iter().any(|d| d.is_none()));
        assert!(draws.iter().any(|d| d.is_some()));
    }
}
