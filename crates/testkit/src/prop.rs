//! A miniature property-testing harness.
//!
//! Shape-compatible with the slice of `proptest` the workspace uses: a
//! [`Strategy`] produces values from a seeded [`StdRng`]; the [`proptest!`]
//! macro runs each property over a fixed number of deterministic cases
//! (default 64, override with `ZARF_PROPTEST_CASES`) and, on failure,
//! prints every generated input before re-raising the panic. There is no
//! shrinking — cases are seeded from the property name, so a failure
//! reproduces exactly by re-running the test.

use std::marker::PhantomData;

use crate::rng::{RandValue, StdRng};

/// A generator of test inputs.
pub trait Strategy {
    /// The type of value produced.
    type Value;

    /// Draw one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// A strategy producing `f` of whatever `self` produces.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// [`Strategy::prop_map`] adapter.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;

    fn generate(&self, rng: &mut StdRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

// Integer ranges are strategies over their own element type.
macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

/// Whole-domain strategy; see [`any`].
pub struct Any<T>(PhantomData<T>);

/// A strategy over the entire domain of `T`.
pub fn any<T: RandValue>() -> Any<T> {
    Any(PhantomData)
}

impl<T: RandValue> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut StdRng) -> T {
        rng.gen()
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $i:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$i.generate(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
}

/// A type-erased strategy, the element type of [`Union`].
pub struct BoxedStrategy<T>(Box<dyn ObjStrategy<T>>);

trait ObjStrategy<T> {
    fn generate_obj(&self, rng: &mut StdRng) -> T;
}

impl<S: Strategy> ObjStrategy<S::Value> for S {
    fn generate_obj(&self, rng: &mut StdRng) -> S::Value {
        self.generate(rng)
    }
}

impl<T> BoxedStrategy<T> {
    /// Erase a concrete strategy.
    pub fn new<S: Strategy<Value = T> + 'static>(s: S) -> Self {
        BoxedStrategy(Box::new(s))
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut StdRng) -> T {
        self.0.generate_obj(rng)
    }
}

/// Uniform choice between alternatives; built by [`prop_oneof!`](crate::prop_oneof).
pub struct Union<T>(Vec<BoxedStrategy<T>>);

impl<T> Union<T> {
    /// A union of the given alternatives (must be non-empty).
    pub fn new(alternatives: Vec<BoxedStrategy<T>>) -> Self {
        assert!(
            !alternatives.is_empty(),
            "prop_oneof! needs at least one alternative"
        );
        Union(alternatives)
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;

    fn generate(&self, rng: &mut StdRng) -> T {
        let i = rng.gen_range(0..self.0.len());
        self.0[i].generate(rng)
    }
}

/// String strategies from a small regex-like pattern language.
///
/// Supported: literal characters, `\n`/`\t`/`\\` escapes, `\PC` (any
/// printable character), character classes `[a-z0-9 …]` with ranges and
/// escapes — each atom optionally followed by `*` (0–32 repetitions).
impl Strategy for &'static str {
    type Value = String;

    fn generate(&self, rng: &mut StdRng) -> String {
        let atoms = parse_pattern(self);
        let mut out = String::new();
        for (pool, starred) in &atoms {
            let reps = if *starred {
                rng.gen_range(0..=32usize)
            } else {
                1
            };
            for _ in 0..reps {
                out.push(pool[rng.gen_range(0..pool.len())]);
            }
        }
        out
    }
}

fn printable_pool() -> Vec<char> {
    let mut pool: Vec<char> = (0x20u8..0x7F).map(char::from).collect();
    pool.extend(['λ', 'é', '→', 'Ω', '字', '🦀']);
    pool
}

fn parse_pattern(pat: &str) -> Vec<(Vec<char>, bool)> {
    let mut atoms: Vec<(Vec<char>, bool)> = Vec::new();
    let mut chars = pat.chars().peekable();
    while let Some(c) = chars.next() {
        let pool = match c {
            '\\' => match chars.next() {
                Some('P') | Some('p') => {
                    chars.next(); // category letter, e.g. the C of \PC
                    printable_pool()
                }
                Some('n') => vec!['\n'],
                Some('t') => vec!['\t'],
                Some(other) => vec![other],
                None => panic!("pattern `{pat}`: trailing backslash"),
            },
            '[' => {
                let mut pool = Vec::new();
                loop {
                    match chars.next() {
                        Some(']') => break,
                        Some('\\') => match chars.next() {
                            Some('n') => pool.push('\n'),
                            Some('t') => pool.push('\t'),
                            Some(other) => pool.push(other),
                            None => panic!("pattern `{pat}`: trailing backslash"),
                        },
                        Some(lo) if chars.peek() == Some(&'-') => {
                            chars.next();
                            let hi = chars
                                .next()
                                .unwrap_or_else(|| panic!("pattern `{pat}`: open range"));
                            pool.extend(lo..=hi);
                        }
                        Some(ch) => pool.push(ch),
                        None => panic!("pattern `{pat}`: unterminated class"),
                    }
                }
                pool
            }
            other => vec![other],
        };
        let starred = chars.peek() == Some(&'*');
        if starred {
            chars.next();
        }
        assert!(!pool.is_empty(), "pattern `{pat}`: empty alternative");
        atoms.push((pool, starred));
    }
    atoms
}

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use super::{SizeRange, Strategy};
    use crate::rng::StdRng;

    /// A `Vec` whose length is drawn from `size` and whose elements come
    /// from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// Strategy returned by [`vec`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.lo..=self.size.hi);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Inclusive length bounds for collection strategies.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    /// Smallest permitted length.
    pub lo: usize,
    /// Largest permitted length.
    pub hi: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n }
    }
}

impl From<core::ops::Range<usize>> for SizeRange {
    fn from(r: core::ops::Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            lo: r.start,
            hi: r.end - 1,
        }
    }
}

impl From<core::ops::RangeInclusive<usize>> for SizeRange {
    fn from(r: core::ops::RangeInclusive<usize>) -> Self {
        SizeRange {
            lo: *r.start(),
            hi: *r.end(),
        }
    }
}

/// Number of cases each property runs (`ZARF_PROPTEST_CASES`, default 64).
pub fn cases() -> u64 {
    std::env::var("ZARF_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

/// Stable seed for a property, derived from its name (FNV-1a).
pub fn seed_of(name: &str) -> u64 {
    crate::fnv1a(name.as_bytes())
}

/// Per-case seed perturbation.
pub fn mix(case: u64) -> u64 {
    case.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Define property tests: each `fn name(arg in strategy, …) { body }`
/// becomes a `#[test]` running [`cases`] deterministic cases.
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])+ fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)+) => {
        $(
            $(#[$meta])+
            fn $name() {
                let base = $crate::prop::seed_of(stringify!($name));
                for case in 0..$crate::prop::cases() {
                    let mut rng = $crate::rng::StdRng::seed_from_u64(
                        base ^ $crate::prop::mix(case),
                    );
                    $(let $arg = $crate::prop::Strategy::generate(&($strat), &mut rng);)+
                    let inputs = ::std::format!(
                        concat!($("  ", stringify!($arg), " = {:?}\n"),+),
                        $(&$arg),+
                    );
                    let outcome = ::std::panic::catch_unwind(
                        ::std::panic::AssertUnwindSafe(move || $body),
                    );
                    if let Err(payload) = outcome {
                        eprintln!(
                            "[zarf-testkit] property `{}` failed on case {case}; inputs:\n{}",
                            stringify!($name),
                            inputs,
                        );
                        ::std::panic::resume_unwind(payload);
                    }
                }
            }
        )+
    };
}

/// Uniform choice between strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {
        $crate::prop::Union::new(::std::vec![$($crate::prop::BoxedStrategy::new($s)),+])
    };
}

/// Assertion inside a property (alias of `assert!`; no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { ::std::assert!($($t)*) };
}

/// Equality assertion inside a property (alias of `assert_eq!`).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { ::std::assert_eq!($($t)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::rng::StdRng;

    #[test]
    fn strategies_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(5);
        let s = prop::collection::vec((1u8..5, -3i32..=3), 2..6);
        for _ in 0..200 {
            let v = Strategy::generate(&s, &mut rng);
            assert!((2..6).contains(&v.len()));
            for (a, b) in v {
                assert!((1..5).contains(&a));
                assert!((-3..=3).contains(&b));
            }
        }
    }

    #[test]
    fn string_patterns_match_their_classes() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..100 {
            let s = Strategy::generate(&"[a-z0-9 =|;()\\n]*", &mut rng);
            assert!(s
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || " =|;()\n".contains(c)));
            let _any: String = Strategy::generate(&"\\PC*", &mut rng);
        }
    }

    #[test]
    fn union_draws_every_alternative() {
        let u = prop_oneof![0i32..1, 10i32..11, 20i32..21];
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = [false; 3];
        for _ in 0..100 {
            match Strategy::generate(&u, &mut rng) {
                0 => seen[0] = true,
                10 => seen[1] = true,
                20 => seen[2] = true,
                other => panic!("impossible draw {other}"),
            }
        }
        assert_eq!(seen, [true; 3]);
    }

    proptest! {
        /// The macro itself: bindings, prop_map, multiple args.
        #[test]
        fn macro_binds_and_maps(
            x in (0i32..50).prop_map(|n| n * 2),
            ys in prop::collection::vec(any::<u8>(), 0..4),
        ) {
            prop_assert!(x % 2 == 0 && x < 100);
            prop_assert!(ys.len() < 4);
            prop_assert_eq!(x / 2 * 2, x);
        }
    }
}
