//! A dependency-free, offline drop-in for the subset of the `proptest` API
//! this workspace uses.
//!
//! The build environment has no access to crates.io, so the real `proptest`
//! cannot be vendored. This shim keeps the property tests meaningful: each
//! `proptest!` test body is run against many pseudo-random inputs drawn from
//! the same strategy expressions, deterministically seeded per test and per
//! case so failures are reproducible. What it deliberately does **not**
//! implement is input shrinking and persistent failure regressions — a
//! failing case is reported with its case number and seed instead.
//!
//! Supported surface:
//!
//! - `proptest! { ... }` with an optional `#![proptest_config(...)]` header;
//! - `prop_assert!`, `prop_assert_eq!`, `prop_oneof!`, `Just`;
//! - integer/float range strategies (`0u8..20`, `0.0f64..=1.0`, ...);
//! - tuple strategies up to arity 6, `Strategy::prop_map`, `any::<T>()`;
//! - `proptest::collection::vec` and `proptest::option::of`.

#![forbid(unsafe_code)]

use std::fmt;

/// Per-test configuration (case count only).
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of random cases each test runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` random cases per test.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // The real proptest default is 256; 64 keeps the heavier simulator
        // scripts quick while still exploring the space.
        Self { cases: 64 }
    }
}

/// A failed property assertion (carried out of the test body by
/// `prop_assert!`-family macros).
#[derive(Debug)]
pub struct TestCaseError(String);

impl TestCaseError {
    /// Creates a failure with the given message.
    pub fn fail(msg: impl Into<String>) -> Self {
        Self(msg.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Result type the generated test closures return.
pub type TestCaseResult = Result<(), TestCaseError>;

/// Deterministic generator state (splitmix64).
#[derive(Debug, Clone)]
pub struct TestRng(u64);

impl TestRng {
    /// Seeds the generator for one test case, mixing the test's identity
    /// with the case index so every test sees an independent stream.
    pub fn for_case(test_name: &str, case: u32) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_name.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        Self(h ^ (u64::from(case).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// A generator of test inputs.
pub trait Strategy {
    /// The generated value type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Type-erases the strategy (used by `prop_oneof!`).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A type-erased strategy.
pub type BoxedStrategy<V> = Box<dyn Strategy<Value = V>>;

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;

    fn generate(&self, rng: &mut TestRng) -> V {
        (**self).generate(rng)
    }
}

/// Always yields a clone of the wrapped value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// The `prop_map` adapter.
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Uniform choice between boxed strategies (`prop_oneof!`).
pub struct Union<V> {
    options: Vec<BoxedStrategy<V>>,
}

impl<V> Union<V> {
    /// Creates the union; `options` must be non-empty.
    pub fn new(options: Vec<BoxedStrategy<V>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
        Self { options }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;

    fn generate(&self, rng: &mut TestRng) -> V {
        let idx = rng.below(self.options.len() as u64) as usize;
        self.options[idx].generate(rng)
    }
}

macro_rules! int_range_strategies {
    ($($t:ty),+) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }

        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                if span == 0 {
                    // Full-width range: every value is admissible.
                    rng.next_u64() as $t
                } else {
                    lo.wrapping_add(rng.below(span) as $t)
                }
            }
        }
    )+};
}

int_range_strategies!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for std::ops::Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + (self.end - self.start) * rng.next_f64()
    }
}

impl Strategy for std::ops::RangeInclusive<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        // Include the endpoint by drawing over a slightly coarser lattice.
        lo + (hi - lo) * ((rng.next_u64() >> 11) as f64 / ((1u64 << 53) - 1) as f64)
    }
}

macro_rules! tuple_strategies {
    ($(($($s:ident . $idx:tt),+))+) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )+};
}

tuple_strategies! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
}

/// Types with a canonical whole-domain strategy (`any::<T>()`).
pub trait Arbitrary: Sized {
    /// The strategy `any` returns.
    type Strategy: Strategy<Value = Self>;

    /// The whole-domain strategy.
    fn arbitrary() -> Self::Strategy;
}

/// Full-domain generator for the primitive types below.
#[derive(Debug, Clone, Copy, Default)]
pub struct AnyPrimitive<T>(std::marker::PhantomData<T>);

macro_rules! arbitrary_ints {
    ($($t:ty),+) => {$(
        impl Strategy for AnyPrimitive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }

        impl Arbitrary for $t {
            type Strategy = AnyPrimitive<$t>;

            fn arbitrary() -> Self::Strategy {
                AnyPrimitive(std::marker::PhantomData)
            }
        }
    )+};
}

arbitrary_ints!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for AnyPrimitive<bool> {
    type Value = bool;

    fn generate(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for bool {
    type Strategy = AnyPrimitive<bool>;

    fn arbitrary() -> Self::Strategy {
        AnyPrimitive(std::marker::PhantomData)
    }
}

/// The whole-domain strategy for `T`.
pub fn any<T: Arbitrary>() -> T::Strategy {
    T::arbitrary()
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};

    /// Generates `Vec`s with length drawn from `len` and elements from
    /// `element`.
    pub fn vec<S: Strategy>(element: S, len: std::ops::Range<usize>) -> VecStrategy<S> {
        assert!(len.start < len.end, "empty length range");
        VecStrategy { element, len }
    }

    /// The strategy `vec` returns.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        len: std::ops::Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.len.end - self.len.start) as u64;
            let n = self.len.start + rng.below(span) as usize;
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Option strategies (`proptest::option::of`).
pub mod option {
    use super::{Strategy, TestRng};

    /// Generates `None` a quarter of the time, `Some` otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    /// The strategy `of` returns.
    #[derive(Debug, Clone)]
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }
}

/// Everything a `use proptest::prelude::*;` test file expects in scope.
pub mod prelude {
    pub use crate as prop;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Arbitrary,
        BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError, TestCaseResult,
    };
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)));
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Fails the current case unless the operands are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let left = $left;
        let right = $right;
        $crate::prop_assert!(
            left == right,
            "assertion failed: `{:?}` != `{:?}`",
            left,
            right
        );
    }};
}

/// Fails the current case if the operands are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let left = $left;
        let right = $right;
        $crate::prop_assert!(
            left != right,
            "assertion failed: `{:?}` == `{:?}`",
            left,
            right
        );
    }};
}

/// Uniform choice over strategy arms with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($arm)),+])
    };
}

/// Defines property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running the body across many generated cases.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr) ) => {};
    (
        ($cfg:expr)
        $(#[$meta:meta])+
        fn $name:ident ( $( $arg:pat in $strat:expr ),+ $(,)? ) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])+
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let test_name = concat!(module_path!(), "::", stringify!($name));
            for case in 0..config.cases {
                let mut __rng = $crate::TestRng::for_case(test_name, case);
                $(let $arg = $crate::Strategy::generate(&($strat), &mut __rng);)+
                let outcome: $crate::TestCaseResult = (|| {
                    $body
                    ::std::result::Result::Ok(())
                })();
                if let ::std::result::Result::Err(e) = outcome {
                    panic!(
                        "proptest case {}/{} of {} failed: {}",
                        case + 1,
                        config.cases,
                        stringify!($name),
                        e
                    );
                }
            }
        }
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn rng_is_deterministic_per_case() {
        let a: Vec<u64> = {
            let mut r = crate::TestRng::for_case("t", 3);
            (0..5).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = crate::TestRng::for_case("t", 3);
            (0..5).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<u64> = {
            let mut r = crate::TestRng::for_case("t", 4);
            (0..5).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn strategies_respect_bounds() {
        let mut rng = crate::TestRng::for_case("bounds", 0);
        for _ in 0..500 {
            let x = (3u8..7).generate(&mut rng);
            assert!((3..7).contains(&x));
            let f = (-1.5f64..2.5).generate(&mut rng);
            assert!((-1.5..2.5).contains(&f));
            let g = (0.0f64..=1.0).generate(&mut rng);
            assert!((0.0..=1.0).contains(&g));
            let v = crate::collection::vec(0usize..5, 2..6).generate(&mut rng);
            assert!((2..6).contains(&v.len()));
            assert!(v.iter().all(|&e| e < 5));
        }
    }

    #[test]
    fn oneof_and_map_cover_all_arms() {
        let strat = prop_oneof![Just(0usize), (1usize..3).prop_map(|v| v), Just(9usize),];
        let mut rng = crate::TestRng::for_case("arms", 0);
        let mut seen = [false; 10];
        for _ in 0..200 {
            seen[strat.generate(&mut rng)] = true;
        }
        assert!(seen[0] && (seen[1] || seen[2]) && seen[9]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_generates_and_runs(x in 0u64..100, v in prop::collection::vec(0.0f64..=1.0, 1..8)) {
            prop_assert!(x < 100);
            prop_assert!(!v.is_empty() && v.len() < 8);
            prop_assert_eq!(v.first().copied().unwrap_or(0.0) <= 1.0, true);
        }
    }
}
