//! # zarf-core — the Zarf functional ISA
//!
//! This crate defines the *λ-execution layer* instruction set of the Zarf
//! architecture (McMahan et al., *An Architecture Supporting Formal and
//! Compositional Binary Analysis*, ASPLOS 2017) and two reference semantics
//! for it:
//!
//! * [`eval`] — the **big-step** semantics of the paper's Figure 3: a ternary
//!   relation between an environment, an expression, and the value that
//!   expression reduces to. This is the specification every other execution
//!   engine in the workspace (the small-step machine, the cycle-accurate
//!   hardware simulator in `zarf-hw`) is tested against.
//! * [`step`] — a **small-step** CEK-style abstract machine over the same
//!   syntax, useful for bounded execution, tracing, and interleaving.
//!
//! ## The instruction set
//!
//! Zarf's functional ISA is an untyped, lambda-lifted, administrative-normal-
//! form (ANF) lambda calculus. A [`Program`] is a list of
//! top-level declarations — [constructors](ast::ConDecl) (arity-only stubs
//! naming algebraic data types) and [functions](ast::FunDecl) — one of which
//! must be named `main`. A function body is built from exactly three
//! instructions:
//!
//! * `let x = f a₁ … aₙ in e` — apply a function, constructor, primitive, or
//!   closure-valued variable to arguments and bind the result. Partial
//!   application is permitted and produces a closure.
//! * `case a of | p₁ => e₁ … else e` — force a value to weak head-normal
//!   form and pattern-match it against integer literals or constructor
//!   patterns; the mandatory `else` branch makes every match total.
//! * `result a` — yield the function's value.
//!
//! There is no other control flow, no registers, no addressable memory, and
//! no mutation; the only effects are the `getint`/`putint` primitive I/O
//! functions (see [`io`]).
//!
//! ## Name spaces
//!
//! At the binary level every global is a *function identifier*: hardware
//! primitives occupy indices below [`prim::FIRST_USER_INDEX`]
//! (0x100) and user functions are numbered sequentially from `main` = 0x100
//! upward. This crate's [`machine`] module defines that indexed "machine
//! form"; the named surface form lives in [`ast`]. Lowering between the two
//! is implemented by the `zarf-asm` crate.
//!
//! ## Errors
//!
//! Malformed-but-executable conditions (division by zero, case on a partial
//! application, over-application of an integer) reduce to an instance of the
//! reserved *runtime error constructor* rather than trapping — see
//! [`value::Value::Error`]. Structurally malformed programs (unbound names,
//! wrong `main` signature) are rejected with a Rust-level
//! [`EvalError`] instead.
//!
//! ## Quick example
//!
//! ```
//! use zarf_core::ast::*;
//! use zarf_core::eval::Evaluator;
//! use zarf_core::io::NullPorts;
//!
//! // fun main = let x = add 2 40 in result x
//! let program = Program::new(vec![Decl::main(
//!     Expr::let_prim("x", "add", vec![Arg::lit(2), Arg::lit(40)],
//!         Expr::result(Arg::var("x"))),
//! )]).unwrap();
//! let mut ports = NullPorts;
//! let value = Evaluator::new(&program).run(&mut ports).unwrap();
//! assert_eq!(value.as_int(), Some(42));
//! ```

pub mod ast;
pub mod builder;
pub mod bytes;
pub mod crc;
pub mod env;
pub mod error;
pub mod eval;
pub mod io;
pub mod machine;
pub mod prim;
pub mod step;
pub mod value;

pub use ast::{Arg, Branch, Callee, ConDecl, Decl, Expr, FunDecl, Pattern, Program};
pub use bytes::{ByteError, ByteReader};
pub use crc::{crc32, Crc32};
pub use error::{EvalError, RuntimeError};
pub use eval::Evaluator;
pub use io::{IoPorts, NullPorts, VecPorts};
pub use value::Value;

/// A machine word on the Zarf λ-execution layer. All values, immediates, and
/// binary-encoding units are 32 bits wide.
pub type Word = u32;

/// Signed view of a machine word; integer values in the ISA are signed
/// 32-bit quantities.
pub type Int = i32;
