//! A minimal, dependency-free stand-in for the subset of the `proptest`
//! API this workspace uses, so property tests build and run with no
//! network access (the real crate cannot be fetched in offline CI).
//!
//! Semantics versus the real crate:
//!
//! * generation is driven by a deterministic per-test PRNG (seeded from
//!   the test's module path and name), so runs are reproducible;
//! * there is **no shrinking** — a failing case reports the case index
//!   and message only;
//! * `prop_oneof!` picks branches uniformly (weights unsupported);
//! * strategies are sampled directly (no `ValueTree` layer).
//!
//! The surface covered: `Strategy` (`prop_map`, `prop_recursive`,
//! `boxed`), `BoxedStrategy`, integer `Range` strategies, tuple
//! strategies, `prop::collection::vec`, `prop_oneof!`, the `proptest!`
//! macro with optional `#![proptest_config(...)]`, `ProptestConfig`,
//! `TestCaseError`, and the `prop_assert*` / `prop_assume!` macros.

pub mod collection;
pub mod strategy;
pub mod test_runner;

pub mod prelude {
    pub use crate as prop;
    pub use crate::strategy::{BoxedStrategy, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestCaseResult};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Declares property tests. Supports an optional leading
/// `#![proptest_config(expr)]` and any number of
/// `fn name(arg in strategy, ...) { body }` items (each carrying its own
/// `#[test]` attribute and doc comments, as with the real crate).
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_items! { ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($config:expr)) => {};
    (
        ($config:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::test_runner::ProptestConfig = $config;
            let __name = concat!(module_path!(), "::", stringify!($name));
            let mut __rng = $crate::test_runner::TestRng::for_test(__name);
            let mut __ran: u32 = 0;
            let mut __attempts: u32 = 0;
            let __attempt_cap = __config.cases.saturating_mul(16).max(256);
            while __ran < __config.cases {
                __attempts += 1;
                assert!(
                    __attempts <= __attempt_cap,
                    "proptest '{}': too many rejected cases ({} attempts)",
                    __name,
                    __attempts
                );
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut __rng);)+
                let __result: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| {
                        { $body }
                        #[allow(unreachable_code)]
                        ::std::result::Result::Ok(())
                    })();
                match __result {
                    ::std::result::Result::Ok(()) => __ran += 1,
                    ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(_)) => {}
                    ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(__msg)) => {
                        panic!("proptest '{}' failed at case {}: {}", __name, __ran, __msg)
                    }
                }
            }
        }
        $crate::__proptest_items! { ($config) $($rest)* }
    };
}

/// Picks uniformly among the given strategies (all must share a value
/// type). Branch weights from the real crate are not supported.
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![$($crate::strategy::Strategy::boxed($s)),+])
    };
}

/// Fails the current test case unless the condition holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// Fails the current test case unless the two values compare equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (__a, __b) = (&$a, &$b);
        $crate::prop_assert!(
            *__a == *__b,
            "assertion failed: {:?} != {:?}",
            __a,
            __b
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (__a, __b) = (&$a, &$b);
        $crate::prop_assert!(
            *__a == *__b,
            "assertion failed: {:?} != {:?}: {}",
            __a,
            __b,
            format!($($fmt)*)
        );
    }};
}

/// Fails the current test case if the two values compare equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (__a, __b) = (&$a, &$b);
        $crate::prop_assert!(*__a != *__b, "assertion failed: {:?} == {:?}", __a, __b);
    }};
}

/// Rejects (skips) the current test case unless the condition holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(
                concat!("assumption failed: ", stringify!($cond)).to_string(),
            ));
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        #[test]
        fn ranges_stay_in_bounds(a in -7i32..9, b in 1u64..40, c in 2usize..4) {
            prop_assert!((-7..9).contains(&a));
            prop_assert!((1..40).contains(&b));
            prop_assert!((2..4).contains(&c));
        }

        #[test]
        fn vec_lengths_respect_range(v in prop::collection::vec(0i32..10, 1..4)) {
            prop_assert!(!v.is_empty() && v.len() < 4);
            prop_assert!(v.iter().all(|&x| (0..10).contains(&x)));
        }

        #[test]
        fn map_and_oneof_compose(x in prop_oneof![
            (0i32..5, 0i32..5).prop_map(|(a, b)| a + b),
            (10i32..15).prop_map(|a| a),
        ]) {
            prop_assert!((0..10).contains(&x) || (10..15).contains(&x));
        }

        #[test]
        fn assume_rejects_without_failing(n in 0i32..10) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0);
        }
    }

    proptest! {
        #[test]
        fn default_config_runs(x in 0u32..1000) {
            prop_assert!(x < 1000, "value {} out of range", x);
        }
    }

    #[test]
    fn recursive_strategies_terminate_and_vary() {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;

        #[derive(Debug, Clone)]
        enum Tree {
            Leaf(i32),
            Node(Vec<Tree>),
        }
        fn depth(t: &Tree) -> u32 {
            match t {
                Tree::Leaf(v) => {
                    assert!((0..10).contains(v), "leaf {v} outside its strategy");
                    0
                }
                Tree::Node(c) => 1 + c.iter().map(depth).max().unwrap_or(0),
            }
        }
        let strat = (0i32..10)
            .prop_map(Tree::Leaf)
            .prop_recursive(2, 12, 3, |inner| {
                crate::collection::vec(inner, 1..4).prop_map(Tree::Node)
            });
        let mut rng = TestRng::for_test("recursive_strategies");
        let mut max_depth = 0;
        for _ in 0..64 {
            let t = strat.generate(&mut rng);
            max_depth = max_depth.max(depth(&t));
        }
        assert!(max_depth >= 1, "recursion never taken");
        assert!(max_depth <= 2, "depth bound violated");
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;
        let strat = (0u64..1_000_000, -500i32..500);
        let sample = |name: &str| {
            let mut rng = TestRng::for_test(name);
            (0..16)
                .map(|_| strat.generate(&mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(sample("a"), sample("a"));
        assert_ne!(sample("a"), sample("b"));
    }
}
