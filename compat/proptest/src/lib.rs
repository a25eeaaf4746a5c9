//! Vendored, API-compatible subset of the `proptest` crate.
//!
//! The build environment has no network access to crates.io, so this shim
//! implements the surface the workspace's property tests use: the
//! [`proptest!`] macro, range / tuple / `prop::collection::vec` / `any`
//! strategies, and the `prop_assert*` macros. Unlike upstream proptest it
//! does plain random testing — no shrinking — with a deterministic
//! per-test seed so failures reproduce exactly. The case count defaults to
//! 64 and can be raised with `PROPTEST_CASES`.

pub mod strategy {
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// A source of random values of one type.
    pub trait Strategy {
        /// The produced value type.
        type Value;
        /// Draws one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;
    }

    /// Strategy producing a fixed value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty strategy range");
                    let width = (self.end as u64).wrapping_sub(self.start as u64);
                    (self.start).wrapping_add(rng.below(width) as $t)
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty strategy range");
                    let width = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                    if width == 0 {
                        return rng.next_u64() as $t;
                    }
                    lo.wrapping_add(rng.below(width) as $t)
                }
            }
        )*};
    }
    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for Range<f64> {
        type Value = f64;
        fn sample(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty strategy range");
            self.start + rng.unit_f64() * (self.end - self.start)
        }
    }

    impl Strategy for Range<f32> {
        type Value = f32;
        fn sample(&self, rng: &mut TestRng) -> f32 {
            assert!(self.start < self.end, "empty strategy range");
            self.start + (rng.unit_f64() as f32) * (self.end - self.start)
        }
    }

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.sample(rng),)+)
                }
            }
        };
    }
    impl_tuple_strategy!(A);
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);
    impl_tuple_strategy!(A, B, C, D, E);
    impl_tuple_strategy!(A, B, C, D, E, F);
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical whole-domain strategy.
    pub trait Arbitrary: Sized {
        /// Draws one value from the full domain.
        fn arbitrary_sample(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary_sample(rng: &mut TestRng) -> Self {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary_sample(rng: &mut TestRng) -> Self {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary_sample(rng: &mut TestRng) -> Self {
            rng.unit_f64()
        }
    }

    /// Strategy over a type's full domain; see [`any`].
    #[derive(Debug, Clone, Copy)]
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary_sample(rng)
        }
    }

    /// The canonical strategy for `T`'s full domain.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// Strategy for `Vec<T>` with a length range; see [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let len = self.len.clone().sample(rng);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// Conversion into a length range, mirroring upstream's `SizeRange`:
    /// a plain `usize` means exactly that length.
    pub trait IntoLenRange {
        /// The equivalent half-open range.
        fn into_len_range(self) -> Range<usize>;
    }

    impl IntoLenRange for Range<usize> {
        fn into_len_range(self) -> Range<usize> {
            self
        }
    }

    impl IntoLenRange for usize {
        fn into_len_range(self) -> Range<usize> {
            self..self + 1
        }
    }

    /// Vectors of `element` with length drawn from `len` (a range or an
    /// exact `usize` length, as in the real crate).
    pub fn vec<S: Strategy>(element: S, len: impl IntoLenRange) -> VecStrategy<S> {
        VecStrategy {
            element,
            len: len.into_len_range(),
        }
    }
}

pub mod test_runner {
    /// Why a test case failed (shim: carried message only, no shrinking).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum TestCaseError {
        /// An assertion failed.
        Fail(String),
        /// The input was rejected (e.g. by `prop_assume!`).
        Reject(String),
    }

    impl TestCaseError {
        /// A failure with the given message.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError::Fail(msg.into())
        }
        /// A rejection with the given message.
        pub fn reject(msg: impl Into<String>) -> Self {
            TestCaseError::Reject(msg.into())
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                TestCaseError::Fail(m) => write!(f, "test case failed: {m}"),
                TestCaseError::Reject(m) => write!(f, "test case rejected: {m}"),
            }
        }
    }

    /// Outcome of one test case.
    pub type TestCaseResult = Result<(), TestCaseError>;

    /// Default number of cases per property (override: `PROPTEST_CASES`).
    pub const DEFAULT_CASES: u32 = 64;

    /// Resolved case count.
    pub fn cases() -> u32 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&n| n > 0)
            .unwrap_or(DEFAULT_CASES)
    }

    /// The shim's test RNG: SplitMix64, seeded from the test's name so
    /// every run of a given test replays the same cases.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Deterministic RNG for the named test.
        pub fn deterministic(name: &str) -> Self {
            // FNV-1a over the name, then run through the generator once.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            let mut rng = TestRng { state: h };
            rng.next_u64();
            rng
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = self.state;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        }

        /// Unbiased draw in `[0, n)`.
        pub fn below(&mut self, n: u64) -> u64 {
            debug_assert!(n > 0);
            if n.is_power_of_two() {
                return self.next_u64() & (n - 1);
            }
            let zone = u64::MAX - (u64::MAX % n);
            loop {
                let v = self.next_u64();
                if v < zone {
                    return v % n;
                }
            }
        }

        /// Uniform in `[0, 1)` with 53 bits of precision.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
}

/// Defines property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` that samples the strategies [`test_runner::cases`]
/// times and runs the body on each sample.
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)+) => {
        $(
            $(#[$meta])*
            fn $name() {
                let mut __proptest_rng =
                    $crate::test_runner::TestRng::deterministic(stringify!($name));
                for __proptest_case in 0..$crate::test_runner::cases() {
                    let _ = __proptest_case;
                    $(let $arg =
                        $crate::strategy::Strategy::sample(&($strat), &mut __proptest_rng);)+
                    // Allow `?` on TestCaseResult inside the body, as
                    // upstream proptest does.
                    let __proptest_outcome: $crate::test_runner::TestCaseResult =
                        (|| { $body Ok(()) })();
                    if let Err(e) = __proptest_outcome {
                        panic!("{e} (case {__proptest_case} of {})", stringify!($name));
                    }
                }
            }
        )+
    };
}

/// Asserts a condition inside a property (shim: delegates to `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property (shim: delegates to `assert_eq!`).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a property (shim: delegates to `assert_ne!`).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// One-import surface mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{TestCaseError, TestCaseResult};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};

    /// Mirrors upstream's `prop` module alias (`prop::collection::vec`).
    pub mod prop {
        pub use crate::collection;
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        /// The macro wires strategies to arguments and runs many cases.
        #[test]
        fn ranges_stay_in_bounds(a in 3u64..17, b in 0usize..4, f in 0.25f64..0.75) {
            prop_assert!((3..17).contains(&a));
            prop_assert!(b < 4);
            prop_assert!((0.25..0.75).contains(&f));
        }

        /// Vec + tuple + any composition.
        #[test]
        fn vec_of_tuples(xs in prop::collection::vec((0u64..10, any::<bool>()), 1..20)) {
            prop_assert!(!xs.is_empty() && xs.len() < 20);
            for (v, _flag) in xs {
                prop_assert!(v < 10);
            }
        }
    }

    #[test]
    fn deterministic_per_test_name() {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;
        let mut a = TestRng::deterministic("x");
        let mut b = TestRng::deterministic("x");
        let s = 0u64..1_000;
        let va: Vec<u64> = (0..32).map(|_| s.sample(&mut a)).collect();
        let vb: Vec<u64> = (0..32).map(|_| s.sample(&mut b)).collect();
        assert_eq!(va, vb);
        let mut c = TestRng::deterministic("y");
        let vc: Vec<u64> = (0..32).map(|_| s.sample(&mut c)).collect();
        assert_ne!(va, vc);
    }
}
