//! Offline stand-in for the subset of `proptest` this workspace uses.
//!
//! Provides the `proptest!` macro, `Strategy` combinators (`prop_map`,
//! `prop_flat_map`, tuples, ranges, `collection::vec`, `sample::select`,
//! `bool::ANY`, `Just`) and the `prop_assert*` macros, driven by a small
//! deterministic runner. Differences from upstream: no shrinking (a
//! failing case reports its seed and inputs instead) and no persistence
//! files. Case counts honour `ProptestConfig::with_cases` and the
//! `PROPTEST_CASES` environment variable.

pub mod test_runner {
    //! Runner configuration and the per-test execution loop.

    /// Configuration accepted by `#![proptest_config(..)]`.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        pub cases: u32,
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            let cases = std::env::var("PROPTEST_CASES")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(256);
            ProptestConfig { cases }
        }
    }

    /// Why a single case did not pass.
    #[derive(Clone, Debug)]
    pub enum TestCaseError {
        /// `prop_assume!` failed: resample, don't count the case.
        Reject,
        /// `prop_assert*` failed: the property is violated.
        Fail(String),
    }

    impl TestCaseError {
        pub fn fail(msg: String) -> Self {
            TestCaseError::Fail(msg)
        }
    }

    /// Deterministic xoshiro256**-style generator for strategy sampling.
    #[derive(Clone, Debug)]
    pub struct TestRng {
        s: [u64; 4],
    }

    impl TestRng {
        pub fn new(seed: u64) -> Self {
            // splitmix64 expansion so nearby seeds give unrelated streams
            let mut state = seed;
            let mut next = || {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            TestRng {
                s: [next(), next(), next(), next()],
            }
        }

        pub fn next_u64(&mut self) -> u64 {
            let [s0, s1, s2, s3] = self.s;
            let result = s1.wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = s1 << 17;
            let mut s = [s0, s1, s2, s3];
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            self.s = s;
            result
        }

        /// Uniform integer in `[0, bound)`.
        pub fn below(&mut self, bound: u64) -> u64 {
            assert!(bound > 0, "below(0)");
            self.next_u64() % bound
        }

        /// Uniform float in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    /// FNV-1a, for deriving per-test seeds from the test name.
    pub fn seed_for(name: &str, case: u64) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// Run `cases` sampled cases of `body`, panicking on the first failure.
    pub fn run<F>(config: &ProptestConfig, name: &str, mut body: F)
    where
        F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
    {
        let mut passed = 0u32;
        let mut attempts = 0u64;
        let max_attempts = (config.cases as u64).saturating_mul(20).max(100);
        while passed < config.cases {
            if attempts >= max_attempts {
                panic!(
                    "proptest `{name}`: gave up after {attempts} attempts \
                     ({passed}/{} cases passed; too many prop_assume! rejections)",
                    config.cases
                );
            }
            let seed = seed_for(name, attempts);
            let mut rng = TestRng::new(seed);
            attempts += 1;
            match body(&mut rng) {
                Ok(()) => passed += 1,
                Err(TestCaseError::Reject) => {}
                Err(TestCaseError::Fail(msg)) => {
                    panic!("proptest `{name}` failed at case {passed} (seed {seed:#x}):\n{msg}")
                }
            }
        }
    }
}

pub mod strategy {
    //! The `Strategy` trait and its combinators.

    use crate::test_runner::TestRng;

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        type Value;

        /// Sample one value (this shim does not shrink).
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { inner: self, f }
        }

        fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S: Strategy,
            F: Fn(Self::Value) -> S,
        {
            FlatMap { inner: self, f }
        }

        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(std::rc::Rc::new(self))
        }
    }

    /// Always yields a clone of the given value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;
        fn sample(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.sample(rng))
        }
    }

    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
        type Value = T::Value;
        fn sample(&self, rng: &mut TestRng) -> T::Value {
            (self.f)(self.inner.sample(rng)).sample(rng)
        }
    }

    /// Type-erased strategy (`.boxed()`).
    #[derive(Clone)]
    pub struct BoxedStrategy<T>(std::rc::Rc<dyn Strategy<Value = T>>);

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            self.0.sample(rng)
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn sample(&self, rng: &mut TestRng) -> S::Value {
            (**self).sample(rng)
        }
    }

    macro_rules! int_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let v = (rng.next_u64() as u128 % span) as i128;
                    (self.start as i128 + v) as $t
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as i128 - lo as i128) as u128 + 1;
                    let v = (rng.next_u64() as u128 % span) as i128;
                    (lo as i128 + v) as $t
                }
            }
        )*};
    }
    int_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! float_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    self.start + (self.end - self.start) * rng.unit_f64() as $t
                }
            }
        )*};
    }
    float_strategy!(f32, f64);

    macro_rules! tuple_strategy {
        ($(($($t:ident $idx:tt),+);)*) => {$(
            impl<$($t: Strategy),+> Strategy for ($($t,)+) {
                type Value = ($($t::Value,)+);
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.sample(rng),)+)
                }
            }
        )*};
    }
    tuple_strategy! {
        (A 0);
        (A 0, B 1);
        (A 0, B 1, C 2);
        (A 0, B 1, C 2, D 3);
        (A 0, B 1, C 2, D 3, E 4);
        (A 0, B 1, C 2, D 3, E 4, F 5);
        (A 0, B 1, C 2, D 3, E 4, F 5, G 6);
        (A 0, B 1, C 2, D 3, E 4, F 5, G 6, H 7);
        (A 0, B 1, C 2, D 3, E 4, F 5, G 6, H 7, I 8);
        (A 0, B 1, C 2, D 3, E 4, F 5, G 6, H 7, I 8, J 9);
    }
}

pub mod collection {
    //! `vec(element, size)` collection strategy.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Acceptable size arguments for [`vec()`].
    #[derive(Clone, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: *r.end() + 1,
            }
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let len = self.size.lo + rng.below(span.max(1)) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod sample {
    //! `select(..)`: pick uniformly from a fixed list.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    #[derive(Clone, Debug)]
    pub struct Select<T: Clone>(Vec<T>);

    pub fn select<T: Clone>(items: Vec<T>) -> Select<T> {
        assert!(!items.is_empty(), "select on an empty list");
        Select(items)
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            self.0[rng.below(self.0.len() as u64) as usize].clone()
        }
    }
}

pub mod bool {
    //! `bool::ANY`.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    #[derive(Clone, Copy, Debug)]
    pub struct Any;

    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;
        fn sample(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

pub mod prelude {
    //! One-stop import mirroring `proptest::prelude::*`.

    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// `prop_assert!(cond)` / `prop_assert!(cond, "fmt", ..)`.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return Err($crate::test_runner::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// `prop_assert_eq!(a, b)` / `prop_assert_eq!(a, b, "fmt", ..)`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (__pa, __pb) = (&$a, &$b);
        $crate::prop_assert!(
            *__pa == *__pb,
            "assertion failed: `(left == right)`\n  left: `{:?}`\n right: `{:?}`",
            __pa,
            __pb
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (__pa, __pb) = (&$a, &$b);
        if !(*__pa == *__pb) {
            return Err($crate::test_runner::TestCaseError::fail(format!(
                "{}\n  left: `{:?}`\n right: `{:?}`",
                format!($($fmt)*),
                __pa,
                __pb
            )));
        }
    }};
}

/// `prop_assert_ne!(a, b)`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (__pa, __pb) = (&$a, &$b);
        $crate::prop_assert!(
            *__pa != *__pb,
            "assertion failed: `(left != right)`\n  both: `{:?}`",
            __pa
        );
    }};
}

/// `prop_assume!(cond)`: silently resample when the precondition fails.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return Err($crate::test_runner::TestCaseError::Reject);
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        $crate::prop_assume!($cond)
    };
}

/// The `proptest! { .. }` test-definition macro.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { @cfg($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            @cfg($crate::test_runner::ProptestConfig::default())
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (@cfg($cfg:expr)) => {};
    (@cfg($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config = $cfg;
            $crate::test_runner::run(&__config, stringify!($name), |__rng| {
                $(let $pat = $crate::strategy::Strategy::sample(&$strat, __rng);)+
                $body
                Ok(())
            });
        }
        $crate::__proptest_items! { @cfg($cfg) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_and_tuples((a, b) in (0u32..10, 5usize..6), c in -3i64..=3) {
            prop_assert!(a < 10);
            prop_assert_eq!(b, 5);
            prop_assert!((-3..=3).contains(&c));
        }

        #[test]
        fn combinators_compose(v in crate::collection::vec(0u8..4, 1..20)) {
            prop_assert!(!v.is_empty() && v.len() < 20);
            prop_assert!(v.iter().all(|&x| x < 4));
        }

        #[test]
        fn flat_map_and_select(
            (n, d) in (2usize..30).prop_flat_map(|n| {
                let divs: Vec<usize> = (1..=n).filter(|d| n % d == 0).collect();
                (Just(n), crate::sample::select(divs))
            })
        ) {
            prop_assert_eq!(n % d, 0, "selected {} for {}", d, n);
        }

        #[test]
        fn assume_rejects_without_failing(x in 0u32..100) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0);
        }
    }

    #[test]
    fn deterministic_sampling() {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;
        let s = (0u64..1000, crate::bool::ANY);
        let a: Vec<_> = (0..10).map(|i| s.sample(&mut TestRng::new(i))).collect();
        let b: Vec<_> = (0..10).map(|i| s.sample(&mut TestRng::new(i))).collect();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failures_panic_with_seed() {
        crate::test_runner::run(&ProptestConfig::with_cases(8), "always_fails", |_rng| {
            Err(TestCaseError::fail("boom".into()))
        });
    }
}
