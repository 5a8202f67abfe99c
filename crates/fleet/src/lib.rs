//! # zarf-fleet — a multi-session execution server for the λ-machine
//!
//! The λ-execution layer is a closed, deterministic step machine, which
//! makes one machine easy to reason about — and a *population* of machines
//! easy to multiplex, as binary-analysis platforms do when they run many
//! independent analyses as a service. This crate is that missing layer: it
//! runs arbitrarily many λ-machine **sessions** on a fixed pool of worker
//! threads while keeping every session's behaviour byte-identical to a
//! standalone run on a bare [`zarf_hw::Hw`].
//!
//! ## Architecture
//!
//! * [`Fleet`](fleet::Fleet) owns N `std::thread` workers and a sharded run
//!   queue of session ids. Scheduling is fuel-sliced cooperative
//!   round-robin: a worker pops a session, runs queued [`Op`]s until the
//!   session's fuel slice is spent, commits, and re-queues it. Idle workers
//!   steal from other shards.
//! * The simulator is deliberately **not** thread-safe (`Hw` is `!Send`),
//!   so sessions cross threads only as `ZSNP` snapshot bytes
//!   ([`Hw::hibernate`](zarf_hw::Hw::hibernate) /
//!   [`Hw::rehydrate`](zarf_hw::Hw::rehydrate)). The committed snapshot in
//!   the session slot is always the authoritative state; resident machines
//!   are a per-worker cache keyed by commit sequence number. Evicting a
//!   session is therefore just dropping its cache entry — resident memory
//!   is bounded while logical session count is not.
//! * Every op ends with a **boundary collection**, which normalizes heap
//!   layout and GC trigger points so an evicted-and-rehydrated session
//!   produces the same bytes as one that never left memory (the same trick
//!   the kernel's rollback recovery uses, and the moral equivalent of the
//!   paper's once-per-iteration `gc` call).
//! * Slices commit **exactly once**: work is taken under the slot lock, run
//!   unlocked, and committed atomically (snapshot + outputs + op cursor +
//!   sequence number). A chaos-injected
//!   [`SessionKill`](zarf_chaos::FaultKind::SessionKill) discards the
//!   uncommitted slice, so the retry replays from the last snapshot,
//!   byte-identically.
//! * [`wire`] defines the `ZFLT` length-prefixed, CRC-32-guarded binary
//!   protocol and [`server`] serves it from a single nonblocking
//!   readiness loop ([`poll`] holds the plumbing): every connection is a
//!   small state machine with growable read/write buffers, frames decode
//!   zero-copy out of the read buffer, clients may pipeline many
//!   requests (including batched injects) per round trip, and dispatch
//!   is fair-queued so one chatty connection cannot starve the rest. The
//!   in-process [`FleetHandle`](fleet::FleetHandle) API is the same
//!   surface without sockets.
//! * [`bench`] is the TCP load generator behind `zarf loadgen --connect`:
//!   bounded driver threads multiplex thousands of pipelined client
//!   connections and report a latency/throughput trajectory per
//!   session-count step.
//!
//! ## Example
//!
//! ```
//! use zarf_fleet::{Fleet, FleetConfig, Op};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let words = zarf_asm::assemble(
//!     "fun bump s n =\n let t = add s n in\n result t\nfun main = result 0",
//! )?;
//! let fleet = Fleet::start(FleetConfig::default())?;
//! let h = fleet.handle();
//! let sid = h.open_program(&words, None)?;
//! // `main` always lowers to item 0x100, so `bump` is 0x101; `Op::step`
//! // threads the session state through it.
//! h.inject(sid, Op::step(0x101, vec![5], vec![]))?;
//! h.inject(sid, Op::step(0x101, vec![7], vec![]))?;
//! h.wait_idle(sid, std::time::Duration::from_secs(10))?;
//! let poll = h.poll(sid)?;
//! assert_eq!(poll.words, vec![5, 12]); // running sum after each step
//! fleet.shutdown();
//! # Ok(())
//! # }
//! ```

use std::fmt;

pub mod bench;
pub mod fleet;
pub mod op;
pub mod poll;
pub mod repl;
pub mod server;
pub mod wire;

pub use bench::{run_loadgen, BenchReport, LoadgenConfig, StepReport};
pub use fleet::{
    Fleet, FleetConfig, FleetHandle, FleetStats, PollResult, SessionConfig, SessionStats,
};
pub use op::{run_standalone, Op, PortFeed};
pub use repl::{
    migrate_session, serve_repl, spawn_replicator, MigrateReport, ReplReceiverStats, ReplSink,
    ReplicatorConfig,
};
pub use server::{serve, serve_with, Client, ServeOptions};
pub use wire::{FrameBuffer, Framing, Request, Response, RetryPolicy, WireError, ZFLT};

/// Everything that can go wrong at the fleet API surface. All typed — the
/// fleet is part of the robustness ratchet, so no path panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// No session with that id (never opened, or already closed).
    UnknownSession(u64),
    /// The session hit an unrecoverable fault (snapshot capture or
    /// rehydration failed); the message names the cause. Its last
    /// committed snapshot is still retrievable.
    SessionPoisoned(String),
    /// A snapshot failed to decode, audit, capture, or restore.
    Snapshot(String),
    /// A program image failed to load.
    Load(String),
    /// Verified load was requested and the program failed static
    /// certification (a machine-fault-freedom certificate did not hold,
    /// or the analysis could not complete).
    Certification(String),
    /// The session was opened in verified mode and the op targets an item
    /// outside its certificate: not a function, wrong arity, or no finite
    /// allocation bound.
    UncertifiedOp {
        /// The op's target item.
        item: u32,
        /// Why the certificate does not cover it.
        reason: String,
    },
    /// The fleet is shutting down and accepts no new work.
    ShuttingDown,
    /// A wait bound elapsed before the session drained.
    WaitTimeout,
    /// A wire-protocol failure (client side or transport).
    Wire(WireError),
    /// The peer answered a request with a protocol error frame.
    Remote {
        /// Machine-readable error code (see [`wire`]).
        code: u32,
        /// Human-readable cause.
        message: String,
    },
    /// The snapshot store failed; the variant carries the store's own
    /// typed error (corrupt chunk, missing chunk, stalled, …).
    Store(zarf_store::StoreError),
    /// The fleet is shedding new work because its durable store has
    /// stalled (a failed or injected disk write) or its replication
    /// link is too far behind; committed state is still readable and
    /// existing outputs still drain.
    Overloaded(String),
    /// The session is frozen at a slice boundary for migration; new
    /// ops are rejected until the migration releases or closes it.
    SessionFrozen(u64),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::UnknownSession(id) => write!(f, "unknown session {id}"),
            FleetError::SessionPoisoned(msg) => write!(f, "session poisoned: {msg}"),
            FleetError::Snapshot(msg) => write!(f, "snapshot error: {msg}"),
            FleetError::Load(msg) => write!(f, "program load error: {msg}"),
            FleetError::Certification(msg) => write!(f, "certification failed: {msg}"),
            FleetError::UncertifiedOp { item, reason } => {
                write!(f, "op rejected: item {item:#x} is not certified ({reason})")
            }
            FleetError::ShuttingDown => f.write_str("fleet is shutting down"),
            FleetError::WaitTimeout => f.write_str("wait bound elapsed"),
            FleetError::Wire(e) => write!(f, "wire error: {e}"),
            FleetError::Remote { code, message } => {
                write!(f, "remote error {code}: {message}")
            }
            FleetError::Store(e) => write!(f, "store error: {e}"),
            FleetError::Overloaded(msg) => write!(f, "fleet overloaded: {msg}"),
            FleetError::SessionFrozen(id) => {
                write!(f, "session {id} is frozen for migration")
            }
        }
    }
}

impl std::error::Error for FleetError {}

impl From<WireError> for FleetError {
    fn from(e: WireError) -> Self {
        FleetError::Wire(e)
    }
}

impl From<zarf_store::StoreError> for FleetError {
    fn from(e: zarf_store::StoreError) -> Self {
        // A stalled store is a load-shedding condition, not a data error.
        match e {
            zarf_store::StoreError::Stalled { detail } => FleetError::Overloaded(detail),
            other => FleetError::Store(other),
        }
    }
}
