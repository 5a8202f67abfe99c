//! # zarf-testkit — self-contained test & bench support
//!
//! The workspace must build and test **offline**: the container this repo
//! grows in has no route to a crates registry, so external dev-dependencies
//! (`rand`, `proptest`, `criterion`) can never be fetched. This crate
//! replaces the small API surface the workspace actually used with
//! dependency-free equivalents:
//!
//! * [`rng`] — a deterministic [SplitMix64](https://prng.di.unimi.it/splitmix64.c)
//!   generator with `rand`-shaped inherent methods (`seed_from_u64`,
//!   `gen_range`, `gen_bool`, `gen`). Streams are stable across runs and
//!   platforms, which is exactly what seeded differential tests want.
//! * [`prop`] — a miniature property-testing harness: a [`prop::Strategy`]
//!   trait with `prop_map`, tuple/range/`any` strategies, collection and
//!   string-pattern generators, a [`prop_oneof!`] union, and a
//!   [`proptest!`] macro that runs a fixed number of seeded cases and
//!   reports the generated inputs on failure. No shrinking — failures
//!   print the full inputs and the deterministic case seed instead.
//! * [`crit`] — a miniature Criterion-shaped bench harness (`Criterion`,
//!   `benchmark_group`, `iter`/`iter_batched`, [`criterion_group!`] /
//!   [`criterion_main!`]) that wall-clock-times each routine and prints
//!   one line per benchmark.
//! * [`json`] — a strict JSON syntax check, standing in for a JSON
//!   parser in tests that pin hand-built JSON emitters.
//! * [`replay`] — concrete witness replay: run a [`replay::WitnessSpec`]
//!   (entry item + argument recipes + scripted port feed) on the big-step
//!   reference interpreter and report every runtime fault the call
//!   constructs, via the evaluator's fault probe. This is how every
//!   counterexample the symbolic executor emits is validated.

pub mod crit;
pub mod json;
pub mod prop;
pub mod replay;
pub mod rng;

pub use json::is_json;
pub use replay::{replay_witness, ReplayOutcome, WArg, WitnessSpec};

/// FNV-1a (64-bit). Golden-bytes tests pin encodings with it: a hash
/// independent of the CRC-32 inside the formats they pin, so a pin does
/// not lean on what it checks.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01B3)
    })
}

/// Everything a property-test file needs: `use zarf_testkit::prelude::*;`.
pub mod prelude {
    pub use crate::prop::{any, BoxedStrategy, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};

    /// Mirrors `proptest::prelude::prop` so `prop::collection::vec(…)`
    /// keeps working unchanged.
    pub mod prop {
        pub use crate::prop::collection;
    }
}
