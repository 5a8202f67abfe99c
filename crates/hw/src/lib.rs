//! # zarf-hw — cycle-accurate simulator of the Zarf λ-execution layer
//!
//! The paper's prototype is an FPGA implementation of the functional ISA: a
//! 66-state control machine performing lazy graph reduction over a
//! garbage-collected heap, running at 50 MHz on a Xilinx Artix-7. This crate
//! is that hardware's software twin:
//!
//! * [`machine::Hw`] executes **binary images** (the word format of
//!   `zarf-asm`) with lazy evaluation, partial application, thunk update,
//!   and port-mapped I/O, charging cycles per micro-operation;
//! * [`heap::Heap`] is the semispace tracing collector with the paper's
//!   costs (N + 4 cycles per live object copied, 2 per reference check);
//! * [`cost::CostModel`] holds the per-micro-operation cycle charges,
//!   calibrated to the published aggregates (≤ 30 cycles for a 2-argument
//!   primitive apply-and-evaluate, exactly 1 cycle per branch head);
//! * [`stats::Stats`] gathers the dynamic counts behind the paper's §6 CPI
//!   table (per-class CPI, average `let` arity, branch-head fraction, GC
//!   share);
//! * [`resources`] is the analytic stand-in for FPGA synthesis, regenerating
//!   Table 1.
//!
//! ## Example
//!
//! ```
//! use zarf_asm::{assemble};
//! use zarf_hw::machine::Hw;
//! use zarf_core::io::NullPorts;
//!
//! let words = assemble("fun main =\n let x = mul 6 7 in\n result x").unwrap();
//! let mut hw = Hw::load(&words).unwrap();
//! let v = hw.run(&mut NullPorts).unwrap();
//! assert_eq!(hw.as_int(v), Some(42));
//! assert!(hw.stats().mutator_cycles() > 0);
//! ```

pub mod audit;
pub mod cost;
pub mod heap;
mod image;
pub mod machine;
pub mod obj;
pub mod resources;
pub mod snapshot;
pub mod stats;

pub use audit::{audit_heap, AuditError, AuditReport};
pub use cost::CostModel;
pub use heap::{GcReport, Heap};
pub use machine::{Hw, HwConfig, HwError, DEFAULT_HEAP_WORDS};
pub use obj::{AppTarget, HValue, HeapObj, HeapRef};
pub use resources::LambdaLayerModel;
pub use snapshot::{
    read_sections, verify_container, MachineSnapshot, SectionWriter, SnapshotError,
    FIRST_EMBEDDER_TAG,
};
pub use stats::{Class, ClassStats, Stats};
