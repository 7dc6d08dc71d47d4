//! Offline stand-in for the `proptest` crate.
//!
//! Implements the subset this workspace uses: [`Strategy`](strategy::Strategy)
//! with `prop_map`, [`Just`](strategy::Just), `any::<T>()`, integer/float ranges as
//! strategies, tuple strategies, [`collection::vec`], `prop_oneof!`,
//! and the `proptest!`/`prop_assert*!`/`prop_assume!` macros.
//!
//! Differences from the real crate: no shrinking (a failing case prints
//! its generated inputs via the panic message of the failing assertion),
//! and case generation is seeded per-test from the test's name, so runs
//! are fully deterministic. Set `PROPTEST_CASES` to override the number
//! of cases per property (default 64).

pub mod collection;
pub mod strategy;
pub mod test_runner;

/// Everything a property test module needs.
pub mod prelude {
    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// One-of strategy selection: `prop_oneof![s1, s2, ...]` picks an arm
/// uniformly per generated case. All arms must share a `Value` type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
    };
}

/// Define deterministic property tests. Each `fn name(arg in strategy,
/// ...) { body }` item becomes a `#[test]` that runs the body over
/// generated cases.
#[macro_export]
macro_rules! proptest {
    ($( $(#[$meta:meta])* fn $name:ident( $($arg:ident in $strat:expr),* $(,)? ) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let mut rng = $crate::test_runner::TestRng::from_name(stringify!($name));
                let cases = $crate::test_runner::cases();
                for _case in 0..cases {
                    $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)*
                    let outcome = (|| -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                        { $body }
                        Ok(())
                    })();
                    match outcome {
                        Ok(()) => {}
                        Err($crate::test_runner::TestCaseError::Reject) => continue,
                    }
                }
            }
        )*
    };
}

/// Assert a condition inside a property test.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond);
    };
    ($cond:expr, $($fmt:tt)+) => {
        assert!($cond, $($fmt)+);
    };
}

/// Assert equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        assert_eq!($left, $right);
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        assert_eq!($left, $right, $($fmt)+);
    };
}

/// Assert inequality inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {
        assert_ne!($left, $right);
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        assert_ne!($left, $right, $($fmt)+);
    };
}

/// Skip the current generated case when an assumption does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject);
        }
    };
}
