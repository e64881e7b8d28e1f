//! Offline shim for the subset of the `proptest` API this workspace uses.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors this minimal, API-compatible property-testing harness:
//!
//! * the [`proptest!`] macro (with optional `#![proptest_config(...)]`),
//! * [`Strategy`] for integer ranges, tuples, [`collection::vec`], and
//!   [`any`], plus the `prop_map` / `prop_filter` / `prop_filter_map`
//!   combinators,
//! * [`prop_assert!`], [`prop_assert_eq!`], [`prop_assume!`],
//!   [`TestCaseError`] and [`ProptestConfig`].
//!
//! Unlike the real crate there is **no shrinking**: a failing case reports
//! its deterministic seed and generated inputs via `Debug`. Cases are
//! seeded from the test name, so runs are reproducible.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub mod prelude {
    //! Everything the `proptest!` macro and its callers need in scope.
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assume, proptest, ProptestConfig, Strategy,
        TestCaseError,
    };
}

/// Why a test case did not pass.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// A `prop_assert*` failed — the property is violated.
    Fail(String),
    /// A `prop_assume!` rejected the inputs — resample, don't fail.
    Reject(String),
}

impl TestCaseError {
    /// A failure with the given message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }

    /// An input rejection with the given reason.
    pub fn reject(msg: impl Into<String>) -> Self {
        TestCaseError::Reject(msg.into())
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TestCaseError::Fail(m) => write!(f, "assertion failed: {m}"),
            TestCaseError::Reject(m) => write!(f, "inputs rejected: {m}"),
        }
    }
}

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of successful cases required.
    pub cases: u32,
    /// Give up after this many consecutive rejections/filtered samples.
    pub max_global_rejects: u32,
}

impl ProptestConfig {
    /// Config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig {
            cases,
            ..Default::default()
        }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: 256,
            max_global_rejects: 65_536,
        }
    }
}

/// A value generator. `generate` returns `None` when a filter rejected the
/// sample (the harness retries with fresh randomness).
pub trait Strategy {
    /// Type of generated values.
    type Value: std::fmt::Debug;

    /// Generate one candidate value.
    fn generate(&self, rng: &mut StdRng) -> Option<Self::Value>;

    /// Map generated values.
    fn prop_map<U: std::fmt::Debug, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Keep only values satisfying `pred` (the name is for diagnostics).
    fn prop_filter<F: Fn(&Self::Value) -> bool>(
        self,
        _name: &'static str,
        pred: F,
    ) -> Filter<Self, F>
    where
        Self: Sized,
    {
        Filter { inner: self, pred }
    }

    /// Filter and map in one pass: `None` rejects the sample.
    fn prop_filter_map<U: std::fmt::Debug, F: Fn(Self::Value) -> Option<U>>(
        self,
        _name: &'static str,
        f: F,
    ) -> FilterMap<Self, F>
    where
        Self: Sized,
    {
        FilterMap { inner: self, f }
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U: std::fmt::Debug, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut StdRng) -> Option<U> {
        self.inner.generate(rng).map(&self.f)
    }
}

/// See [`Strategy::prop_filter`].
pub struct Filter<S, F> {
    inner: S,
    pred: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;
    fn generate(&self, rng: &mut StdRng) -> Option<S::Value> {
        self.inner.generate(rng).filter(|v| (self.pred)(v))
    }
}

/// See [`Strategy::prop_filter_map`].
pub struct FilterMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U: std::fmt::Debug, F: Fn(S::Value) -> Option<U>> Strategy for FilterMap<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut StdRng) -> Option<U> {
        self.inner.generate(rng).and_then(&self.f)
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> Option<$t> {
                Some(rng.random_range(self.clone()))
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize);

macro_rules! impl_tuple_strategy {
    ($(($($s:ident / $idx:tt),+)),+) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut StdRng) -> Option<Self::Value> {
                Some(($(self.$idx.generate(rng)?,)+))
            }
        }
    )+};
}

impl_tuple_strategy!(
    (A / 0, B / 1),
    (A / 0, B / 1, C / 2),
    (A / 0, B / 1, C / 2, D / 3),
    (A / 0, B / 1, C / 2, D / 3, E / 4),
    (A / 0, B / 1, C / 2, D / 3, E / 4, F / 5),
    (A / 0, B / 1, C / 2, D / 3, E / 4, F / 5, G / 6),
    (A / 0, B / 1, C / 2, D / 3, E / 4, F / 5, G / 6, H / 7)
);

/// Strategy producing any value of `T` (see [`Arbitrary`]).
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(std::marker::PhantomData)
}

/// Types with a canonical full-domain strategy.
pub trait Arbitrary: std::fmt::Debug + Sized {
    /// Draw one arbitrary value.
    fn arbitrary(rng: &mut StdRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut StdRng) -> bool {
        rng.random::<bool>()
    }
}

impl Arbitrary for u8 {
    fn arbitrary(rng: &mut StdRng) -> u8 {
        rng.random::<u64>() as u8
    }
}

impl Arbitrary for u64 {
    fn arbitrary(rng: &mut StdRng) -> u64 {
        rng.random::<u64>()
    }
}

/// See [`any`].
pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> Option<T> {
        Some(T::arbitrary(rng))
    }
}

pub mod collection {
    //! Collection strategies.

    use super::{StdRng, Strategy};
    use rand::Rng;

    /// `Vec` of values from `element`, with a length drawn from `len`.
    pub fn vec<S: Strategy>(element: S, len: core::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        len: core::ops::Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut StdRng) -> Option<Vec<S::Value>> {
            let n = rng.random_range(self.len.clone());
            let mut out = Vec::with_capacity(n);
            for _ in 0..n {
                // Give each element a few retries before rejecting the
                // whole vector, so filtered element strategies stay cheap.
                let mut produced = None;
                for _ in 0..16 {
                    if let Some(v) = self.element.generate(rng) {
                        produced = Some(v);
                        break;
                    }
                }
                out.push(produced?);
            }
            Some(out)
        }
    }
}

/// Deterministic per-test master seed (FNV-1a over the test path).
pub fn seed_for(test_path: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in test_path.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Run `cases` property cases. `body` receives a case RNG and returns
/// `Ok(())`, a rejection, or a failure. Panics (with the case seed) on
/// failure or when rejections exhaust the budget. Used by [`proptest!`];
/// not intended to be called directly.
pub fn run_cases(
    config: ProptestConfig,
    test_path: &str,
    mut body: impl FnMut(&mut StdRng) -> Result<(), TestCaseError>,
) {
    let master = seed_for(test_path);
    let mut passed = 0u32;
    let mut rejected = 0u32;
    let mut case_index = 0u64;
    while passed < config.cases {
        let case_seed = master ^ case_index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        case_index += 1;
        let mut rng = StdRng::seed_from_u64(case_seed);
        match body(&mut rng) {
            Ok(()) => passed += 1,
            Err(TestCaseError::Reject(_)) => {
                rejected += 1;
                if rejected > config.max_global_rejects {
                    panic!(
                        "{test_path}: gave up after {rejected} rejected samples \
                         ({passed}/{} cases passed)",
                        config.cases
                    );
                }
            }
            Err(TestCaseError::Fail(msg)) => {
                panic!(
                    "{test_path}: property failed on case {} (seed {case_seed:#x}):\n{msg}",
                    case_index - 1
                );
            }
        }
    }
}

/// Assert inside a property; returns `TestCaseError::Fail` instead of
/// panicking so the harness can report the case seed.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                "prop_assert!({}) failed at {}:{}",
                stringify!($cond), file!(), line!()
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                "prop_assert!({}) failed at {}:{}: {}",
                stringify!($cond), file!(), line!(), format!($($fmt)+)
            )));
        }
    };
}

/// Equality assertion inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if !(a == b) {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                "prop_assert_eq! failed at {}:{}: {:?} != {:?}",
                file!(), line!(), a, b
            )));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        if !(a == b) {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                "prop_assert_eq! failed at {}:{}: {:?} != {:?}: {}",
                file!(), line!(), a, b, format!($($fmt)+)
            )));
        }
    }};
}

/// Reject the current inputs (resample without failing).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::reject(format!(
                "prop_assume!({}) at {}:{}",
                stringify!($cond),
                file!(),
                line!()
            )));
        }
    };
}

/// Declare property tests. Supports the same surface syntax as the real
/// crate for the forms used in this workspace:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn my_property(x in 0u64..100, flag in any::<bool>()) {
///         prop_assert!(x < 100 || flag);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@munch ($cfg) $($rest)*);
    };
    (@munch ($cfg:expr)) => {};
    (@munch ($cfg:expr)
        #[test]
        fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        #[test]
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let test_path = concat!(module_path!(), "::", stringify!($name));
            $crate::run_cases(config, test_path, |__rng| {
                $(
                    let $arg = match $crate::Strategy::generate(&($strat), __rng) {
                        ::core::option::Option::Some(v) => v,
                        ::core::option::Option::None => {
                            return ::core::result::Result::Err(
                                $crate::TestCaseError::reject("strategy filter"),
                            )
                        }
                    };
                )+
                $body
                #[allow(unreachable_code)]
                ::core::result::Result::Ok(())
            });
        }
        $crate::proptest!(@munch ($cfg) $($rest)*);
    };
    (#[test] $($rest:tt)*) => {
        $crate::proptest!(@munch ($crate::ProptestConfig::default()) #[test] $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn helper(x: u64) -> Result<u64, TestCaseError> {
        prop_assert!(x < 1_000_000);
        Ok(x + 1)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_and_tuples((a, b) in (0u64..10, 0u8..4), c in 5usize..9) {
            prop_assert!(a < 10 && b < 4);
            prop_assert!((5..9).contains(&c));
        }

        #[test]
        fn filters_and_maps(x in (0u64..100).prop_filter("even", |v| v % 2 == 0)) {
            prop_assert_eq!(x % 2, 0);
        }

        #[test]
        fn filter_map_and_assume(x in (1u64..50).prop_filter_map("sq", |v| Some(v * v))) {
            prop_assume!(x != 4);
            prop_assert!(x >= 1 && x != 4, "x = {}", x);
        }

        #[test]
        fn vectors(v in crate::collection::vec((0u8..4, 0u64..12), 1..20)) {
            prop_assert!(!v.is_empty() && v.len() < 20);
        }

        #[test]
        fn question_mark_works(x in 0u64..10) {
            let y = helper(x)?;
            prop_assert_eq!(y, x + 1);
        }

        #[test]
        fn any_bool(flag in any::<bool>(), x in 0u64..2) {
            prop_assert_eq!(flag as u64 <= 1, x <= 1);
        }
    }

    #[test]
    fn failing_property_panics_with_seed() {
        let result = std::panic::catch_unwind(|| {
            crate::run_cases(ProptestConfig::with_cases(16), "demo", |rng| {
                use rand::Rng;
                let x: u64 = rng.random_range(0..100);
                prop_assert!(x < 101);
                prop_assert!(x >= 100, "forced failure x={}", x);
                Ok(())
            });
        });
        let err = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(err.contains("seed"), "missing seed in: {err}");
    }

    #[test]
    fn deterministic_seeds() {
        assert_eq!(crate::seed_for("a::b"), crate::seed_for("a::b"));
        assert_ne!(crate::seed_for("a::b"), crate::seed_for("a::c"));
    }
}
