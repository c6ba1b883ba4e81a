//! Minimal offline stand-in for the `proptest` crate.
//!
//! Provides the subset of the API this workspace's property tests use: the
//! [`proptest!`] macro, the [`prop_assert!`] family, [`prop_assume!`], the
//! [`Strategy`] trait with `prop_map`, tuple/range strategies, [`any`],
//! [`collection::vec`] and [`sample::select`].
//!
//! Properties really are exercised on hundreds of pseudo-random cases, but —
//! unlike real proptest — failing inputs are not shrunk; the failing case is
//! reported verbatim together with the seed. Runs are deterministic: the seed
//! is derived from the property name, and can be overridden with the
//! `PROPTEST_SEED` environment variable (`PROPTEST_CASES` overrides the case
//! count, default 256).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::marker::PhantomData;

/// Everything a property-test module usually imports.
pub mod prelude {
    pub use crate as prop;
    pub use crate::{any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
    pub use crate::{Arbitrary, ProptestConfig, Strategy};
}

/// How one generated test case ended, other than success.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TestCaseError {
    /// The case was rejected by [`prop_assume!`]; another case is drawn.
    Reject,
    /// An assertion failed; the property is falsified.
    Fail(String),
}

impl TestCaseError {
    /// Creates a failure with the given message.
    pub fn fail(message: impl Into<String>) -> Self {
        TestCaseError::Fail(message.into())
    }
}

/// Outcome of one generated test case.
pub type TestCaseResult = Result<(), TestCaseError>;

/// Deterministic pseudo-random generator driving value generation
/// (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator from a seed.
    pub fn from_seed(seed: u64) -> Self {
        TestRng { state: seed }
    }

    /// Returns the next pseudo-random 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Returns a value uniform in `0..bound` (`bound` must be non-zero).
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        // Multiply-shift bounded generation; the modulo bias is irrelevant for
        // test-case generation.
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }
}

/// A recipe for generating values of one type.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Derives a strategy producing `map(value)` for every generated `value`.
    fn prop_map<U, F>(self, map: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, map }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    map: F,
}

impl<S, F, U> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;

    fn generate(&self, rng: &mut TestRng) -> U {
        (self.map)(self.inner.generate(rng))
    }
}

/// Types with a canonical generation strategy, used by [`any`].
pub trait Arbitrary: Sized {
    /// Draws one arbitrary value, occasionally an edge case.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($ty:ty),* $(,)?) => {
        $(
            impl Arbitrary for $ty {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    // One draw in eight is an edge value, mirroring proptest's
                    // bias toward boundary cases.
                    if rng.below(8) == 0 {
                        const EDGES: [$ty; 4] = [0, 1, <$ty>::MAX, <$ty>::MAX / 2];
                        EDGES[rng.below(EDGES.len() as u64) as usize]
                    } else {
                        rng.next_u64() as $ty
                    }
                }
            }
        )*
    };
}

impl_arbitrary_int!(u8, u16, u32, u64, usize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.below(2) == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        // Uniform in [0, 1): enough for probabilities and weights.
        (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Strategy returned by [`any`].
pub struct Any<A> {
    marker: PhantomData<A>,
}

impl<A> fmt::Debug for Any<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Any")
    }
}

impl<A> Clone for Any<A> {
    fn clone(&self) -> Self {
        Any {
            marker: PhantomData,
        }
    }
}

impl<A: Arbitrary> Strategy for Any<A> {
    type Value = A;

    fn generate(&self, rng: &mut TestRng) -> A {
        A::arbitrary(rng)
    }
}

/// The canonical strategy for a type: arbitrary values with edge-case bias.
pub fn any<A: Arbitrary>() -> Any<A> {
    Any {
        marker: PhantomData,
    }
}

macro_rules! impl_strategy_for_range {
    ($($ty:ty),* $(,)?) => {
        $(
            impl Strategy for std::ops::Range<$ty> {
                type Value = $ty;

                fn generate(&self, rng: &mut TestRng) -> $ty {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end - self.start) as u64;
                    self.start + rng.below(span) as $ty
                }
            }

            impl Strategy for std::ops::RangeInclusive<$ty> {
                type Value = $ty;

                fn generate(&self, rng: &mut TestRng) -> $ty {
                    let (start, end) = (*self.start(), *self.end());
                    assert!(start <= end, "empty range strategy");
                    let span = (end - start) as u64;
                    if span == u64::MAX {
                        // Full 64-bit domain: below(span + 1) would overflow
                        // (and saturating would silently exclude MAX).
                        return rng.next_u64() as $ty;
                    }
                    start + rng.below(span + 1) as $ty
                }
            }
        )*
    };
}

impl_strategy_for_range!(u8, u16, u32, u64, usize);

macro_rules! impl_strategy_for_tuple {
    ($($name:ident : $index:tt),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$index.generate(rng),)+)
            }
        }
    };
}

impl_strategy_for_tuple!(A: 0);
impl_strategy_for_tuple!(A: 0, B: 1);
impl_strategy_for_tuple!(A: 0, B: 1, C: 2);
impl_strategy_for_tuple!(A: 0, B: 1, C: 2, D: 3);
impl_strategy_for_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);
impl_strategy_for_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);
impl_strategy_for_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6);

/// Per-block test configuration, set with `#![proptest_config(...)]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProptestConfig {
    /// Number of passing cases required per property.
    pub cases: u64,
}

impl ProptestConfig {
    /// A configuration requiring `cases` passing cases per property.
    pub fn with_cases(cases: u64) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// Collection strategies ([`vec`](collection::vec) and
/// [`hash_set`](collection::hash_set)).
pub mod collection {
    use super::{SizeRange, Strategy, TestRng};
    use std::collections::HashSet;
    use std::hash::Hash;

    /// Strategy returned by [`vec`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.max - self.size.min) as u64;
            let len = self.size.min + rng.below(span.saturating_add(1)) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Generates vectors whose elements come from `element` and whose length
    /// falls in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// Strategy returned by [`hash_set`].
    #[derive(Debug, Clone)]
    pub struct HashSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S> Strategy for HashSetStrategy<S>
    where
        S: Strategy,
        S::Value: Eq + Hash,
    {
        type Value = HashSet<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> HashSet<S::Value> {
            let span = (self.size.max - self.size.min) as u64;
            let target = self.size.min + rng.below(span.saturating_add(1)) as usize;
            let mut set = HashSet::with_capacity(target);
            // Duplicates (likely with edge-biased generators) are retried, up
            // to a cap so a narrow value space cannot loop forever.
            let mut attempts = 0usize;
            while set.len() < target && attempts < target.saturating_mul(100).max(100) {
                set.insert(self.element.generate(rng));
                attempts += 1;
            }
            set
        }
    }

    /// Generates hash sets whose elements come from `element` and whose size
    /// falls in `size` (best-effort when the value space is small).
    pub fn hash_set<S>(element: S, size: impl Into<SizeRange>) -> HashSetStrategy<S>
    where
        S: Strategy,
        S::Value: Eq + Hash,
    {
        HashSetStrategy {
            element,
            size: size.into(),
        }
    }
}

/// An inclusive range of collection sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SizeRange {
    min: usize,
    max: usize,
}

impl From<std::ops::Range<usize>> for SizeRange {
    fn from(range: std::ops::Range<usize>) -> Self {
        assert!(range.start < range.end, "empty size range");
        SizeRange {
            min: range.start,
            max: range.end - 1,
        }
    }
}

impl From<std::ops::RangeInclusive<usize>> for SizeRange {
    fn from(range: std::ops::RangeInclusive<usize>) -> Self {
        SizeRange {
            min: *range.start(),
            max: *range.end(),
        }
    }
}

impl From<usize> for SizeRange {
    fn from(exact: usize) -> Self {
        SizeRange {
            min: exact,
            max: exact,
        }
    }
}

/// Sampling strategies ([`select`](sample::select)).
pub mod sample {
    use super::{Strategy, TestRng};

    /// Strategy returned by [`select`].
    #[derive(Debug, Clone)]
    pub struct Select<T> {
        options: Vec<T>,
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            self.options[rng.below(self.options.len() as u64) as usize].clone()
        }
    }

    /// Picks uniformly among the given options.
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select requires at least one option");
        Select { options }
    }
}

/// Drives one property: draws cases from `strategy` until the configured
/// number of cases has passed, panicking on the first falsified case.
///
/// Used by the [`proptest!`] macro; not normally called directly.
pub fn run_cases<S>(name: &str, strategy: S, test: impl FnMut(S::Value) -> TestCaseResult)
where
    S: Strategy,
    S::Value: Clone + fmt::Debug,
{
    run_cases_config(name, ProptestConfig::default(), strategy, test);
}

/// [`run_cases`] with an explicit [`ProptestConfig`] (the `PROPTEST_CASES`
/// environment variable still takes precedence, for debugging).
pub fn run_cases_config<S>(
    name: &str,
    config: ProptestConfig,
    strategy: S,
    mut test: impl FnMut(S::Value) -> TestCaseResult,
) where
    S: Strategy,
    S::Value: Clone + fmt::Debug,
{
    let cases: u64 = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(config.cases);
    let seed: u64 = std::env::var("PROPTEST_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| {
            // Stable per-property seed so failures reproduce across runs.
            name.bytes().fold(0xCBF2_9CE4_8422_2325u64, |hash, byte| {
                (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3)
            })
        });
    let mut rng = TestRng::from_seed(seed);
    let mut passed = 0u64;
    let mut rejected = 0u64;
    while passed < cases {
        let value = strategy.generate(&mut rng);
        match test(value.clone()) {
            Ok(()) => passed += 1,
            Err(TestCaseError::Reject) => {
                rejected += 1;
                assert!(
                    rejected <= cases * 16,
                    "property `{name}`: too many prop_assume rejections \
                     ({rejected} rejects for {passed} passes)"
                );
            }
            Err(TestCaseError::Fail(message)) => panic!(
                "property `{name}` falsified after {passed} passing cases \
                 (seed {seed}, rerun with PROPTEST_SEED={seed}):\n  {message}\n  input: {value:?}"
            ),
        }
    }
}

/// Declares property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running the body over generated inputs.
#[macro_export]
macro_rules! proptest {
    (@with_config ($config:expr) $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block)+) => {
        $(
            $(#[$meta])*
            fn $name() {
                $crate::run_cases_config(
                    stringify!($name),
                    $config,
                    ($($strategy,)+),
                    |($($arg,)+)| {
                        $body
                        ::std::result::Result::Ok(())
                    },
                );
            }
        )+
    };
    (#![proptest_config($config:expr)] $($rest:tt)+) => {
        $crate::proptest! { @with_config ($config) $($rest)+ }
    };
    ($($rest:tt)+) => {
        $crate::proptest! { @with_config ($crate::ProptestConfig::default()) $($rest)+ }
    };
}

/// Fails the current test case unless the condition holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(
                concat!("assertion failed: ", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Fails the current test case unless the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        if !(left == right) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} == {}`\n  left: {left:?}\n  right: {right:?}",
                stringify!($left),
                stringify!($right),
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        if !(left == right) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "{}\n  left: {left:?}\n  right: {right:?}",
                format!($($fmt)+),
            )));
        }
    }};
}

/// Fails the current test case if the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        if left == right {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} != {}`\n  both: {left:?}",
                stringify!($left),
                stringify!($right),
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        if left == right {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "{}\n  both: {left:?}",
                format!($($fmt)+),
            )));
        }
    }};
}

/// Discards the current test case (drawing a fresh one) unless the condition
/// holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn addition_commutes(a in any::<u32>(), b in any::<u32>()) {
            prop_assert_eq!(u64::from(a) + u64::from(b), u64::from(b) + u64::from(a));
        }

        #[test]
        fn assume_filters_cases(n in 0u64..100) {
            prop_assume!(n % 2 == 0);
            prop_assert!(n % 2 == 0);
        }

        #[test]
        fn vec_lengths_respect_the_size_range(items in prop::collection::vec(any::<u8>(), 2..5)) {
            prop_assert!((2..5).contains(&items.len()));
        }

        #[test]
        fn select_picks_an_option(choice in prop::sample::select(vec![1u8, 2, 4, 8])) {
            prop_assert!([1u8, 2, 4, 8].contains(&choice));
        }

        #[test]
        fn prop_map_applies(tripled in (0u64..10).prop_map(|n| n * 3)) {
            prop_assert_eq!(tripled % 3, 0);
        }
    }

    #[test]
    #[should_panic(expected = "falsified")]
    fn failing_property_panics_with_input() {
        crate::run_cases("always_fails", (crate::any::<u8>(),), |(_n,)| {
            Err(crate::TestCaseError::fail("nope"))
        });
    }

    #[test]
    fn inclusive_ranges_reach_their_upper_bound() {
        let mut rng = crate::TestRng::from_seed(9);
        let narrow = 254u8..=255;
        let drawn: std::collections::HashSet<u8> =
            (0..200).map(|_| narrow.generate(&mut rng)).collect();
        assert!(drawn.contains(&254) && drawn.contains(&255), "{drawn:?}");

        // The full 64-bit domain takes a dedicated path; the top half of the
        // domain must be reachable (it was silently excluded before).
        let full = 0u64..=u64::MAX;
        assert!((0..200).any(|_| full.generate(&mut rng) > u64::MAX / 2));
    }

    #[test]
    fn runs_are_deterministic_for_a_fixed_name() {
        let collect = || {
            let mut seen = Vec::new();
            crate::run_cases("determinism_probe", (crate::any::<u64>(),), |(n,)| {
                seen.push(n);
                Ok(())
            });
            seen
        };
        assert_eq!(collect(), collect());
    }
}
