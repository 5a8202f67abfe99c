//! # zarf-trace — structured observability for the Zarf engines
//!
//! The paper's evaluation (§6) is computed from "a dynamic trace of
//! several million cycles"; this crate is that trace, made first-class.
//! Every execution engine (big-step evaluator, small-step machine,
//! cycle-accurate hardware simulator) and the kernel's channel emit
//! [`Event`]s into a [`TraceSink`]. Four sinks ship:
//!
//! * [`NullSink`] — drops everything (the default; emission sites are
//!   guarded so a disabled trace costs one branch and never constructs an
//!   event).
//! * [`LastN`] — a ring buffer of the most recent events, used by the
//!   differential tester to pinpoint where two engines first diverge.
//! * [`NdjsonSink`](ndjson::NdjsonSink) — newline-delimited JSON, one
//!   event per line, for offline analysis (`zarf trace`).
//! * [`MetricsSink`](metrics::MetricsSink) — aggregates histograms and
//!   per-class / per-function / per-coroutine cycle attribution
//!   (`zarf profile`, `SystemReport`).
//!
//! ## The trace is a refinement of `Stats`
//!
//! The hardware simulator already keeps aggregate counters (`Stats`,
//! `GcReport`). Events are emitted such that folding a trace reproduces
//! those aggregates *exactly* — per class, the count of [`Event::Instr`]
//! events equals the class instruction count and the sum of
//! [`Event::Cycles`] equals the class cycle total; GC pause events sum to
//! `gc_cycles`. Tests assert this equality, so the trace can never drift
//! into a second, contradicting truth.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;

pub mod folded;
pub mod metrics;
pub mod ndjson;

pub use folded::FoldedStacks;
pub use metrics::{Histogram, MetricsSink};
pub use ndjson::{json_str, push_json_str, NdjsonSink};

/// Instruction class of the functional ISA (mirrors the simulator's
/// accounting classes; branch heads are charged separately from the
/// `case` that walks them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstrClass {
    /// `let` — application.
    Let,
    /// `case` — scrutinee demand and dispatch.
    Case,
    /// `result` — return.
    Result,
    /// One branch-head comparison inside a `case`.
    BranchHead,
}

impl InstrClass {
    /// Stable index (used by per-class arrays).
    pub fn index(self) -> usize {
        match self {
            InstrClass::Let => 0,
            InstrClass::Case => 1,
            InstrClass::Result => 2,
            InstrClass::BranchHead => 3,
        }
    }

    /// All classes, in [`index`](Self::index) order.
    pub const ALL: [InstrClass; 4] = [
        InstrClass::Let,
        InstrClass::Case,
        InstrClass::Result,
        InstrClass::BranchHead,
    ];

    /// Lower-case name, as used in NDJSON.
    pub fn name(self) -> &'static str {
        match self {
            InstrClass::Let => "let",
            InstrClass::Case => "case",
            InstrClass::Result => "result",
            InstrClass::BranchHead => "branch-head",
        }
    }
}

/// Which engine produced an event stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Big-step reference evaluator (the specification).
    Big,
    /// Small-step CEK machine.
    Small,
    /// Cycle-accurate hardware simulator.
    Hw,
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Engine::Big => "big-step",
            Engine::Small => "small-step",
            Engine::Hw => "hw",
        })
    }
}

/// One observable step of execution.
///
/// Cycle-level events (`Instr`, `Cycles`, `Alloc`, `Gc*`) come from the
/// hardware simulator; semantic events (`Bind`, `Dispatch`, `Yield`) come
/// from the two reference engines, which share an eager evaluation order
/// and therefore produce comparable streams.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// An instruction was decoded (hardware retirement order).
    Instr {
        /// Word offset of the instruction in the binary image.
        pc: u64,
        /// Its accounting class.
        class: InstrClass,
    },
    /// Cycles charged since the previous `Cycles`/`Instr` boundary.
    ///
    /// Consecutive charges to the same (class, item) pair are coalesced;
    /// per class, these sum exactly to the aggregate `Stats` cycles.
    Cycles {
        /// Class the cycles were charged to.
        class: InstrClass,
        /// Item (function/constructor id) on top of the frame stack, if any.
        item: Option<u32>,
        /// Cycle count (always > 0).
        cycles: u64,
    },
    /// A heap allocation (mutator side, outside GC).
    Alloc {
        /// Words allocated for the object (header included).
        words: u64,
        /// Heap words in use after the allocation.
        heap_words: u64,
    },
    /// A collection began.
    GcStart {
        /// Heap words in use when the collector was invoked.
        heap_words: u64,
    },
    /// A collection finished.
    GcEnd {
        /// Modeled cycles the mutator was paused.
        pause_cycles: u64,
        /// Objects copied to to-space.
        objects_copied: u64,
        /// Words copied to to-space.
        words_copied: u64,
        /// Words reclaimed.
        words_reclaimed: u64,
    },
    /// A word entered the inter-layer channel.
    ChannelPush {
        /// Port the pushing side used.
        port: i64,
        /// The word.
        word: i64,
        /// Queue depth after the push.
        depth: usize,
    },
    /// A word left the inter-layer channel.
    ChannelPop {
        /// Port the popping side used.
        port: i64,
        /// The word.
        word: i64,
        /// Queue depth after the pop.
        depth: usize,
    },
    /// An external device read (`getint` outside the channel).
    IoRead {
        /// Port read from.
        port: i64,
        /// Value returned.
        value: i64,
    },
    /// An external device write (`putint` outside the channel).
    IoWrite {
        /// Port written to.
        port: i64,
        /// Value written.
        value: i64,
    },
    /// Control entered a registered coroutine (kernel accounting).
    CoroutineEnter {
        /// Item id of the coroutine's entry function.
        id: u32,
    },
    /// Control left a registered coroutine.
    CoroutineExit {
        /// Item id of the coroutine's entry function.
        id: u32,
    },
    /// A reference engine bound a `let` variable (eager order).
    Bind {
        /// Which engine.
        engine: Engine,
        /// Variable name.
        var: String,
        /// Rendered value (depth-capped).
        value: String,
    },
    /// A reference engine dispatched a `case`.
    Dispatch {
        /// Which engine.
        engine: Engine,
        /// Rendered scrutinee value.
        scrutinee: String,
        /// Taken branch: `lit k`, `con Name`, or `default`.
        branch: String,
    },
    /// A reference engine produced a function result.
    Yield {
        /// Which engine.
        engine: Engine,
        /// Rendered result value.
        value: String,
    },
    /// A planned fault fired (`zarf-chaos`).
    FaultInjected {
        /// Fault site short name (`alloc`, `chan_push`, `ecg`, `coroutine`).
        site: &'static str,
        /// Fault kind short name (`bit_flip`, `chan_drop`, …).
        kind: &'static str,
        /// Zero-based index of the faulted operation at its site.
        op: u64,
        /// Kind-specific parameter (bit index, XOR mask, delta, cycles).
        detail: i64,
    },
    /// The kernel watchdog detected a misbehaving coroutine.
    WatchdogDetect {
        /// Scheduler id of the coroutine.
        coroutine: u32,
        /// Scheduler iteration (200 Hz tick) of the detection.
        iteration: u64,
        /// Failure class: `crashed`, `overrun`, or `livelock`.
        cause: &'static str,
    },
    /// The kernel watchdog applied a recovery action.
    WatchdogRecover {
        /// Scheduler id of the coroutine.
        coroutine: u32,
        /// Scheduler iteration (200 Hz tick) of the recovery.
        iteration: u64,
        /// Action taken: `restart`, `degrade`, or `halt`.
        action: &'static str,
    },
    /// A bounded channel queue hit capacity.
    ChannelOverflow {
        /// Port the pushing side used.
        port: i64,
        /// Word that was evicted (`DropOldest`) or refused (`Block`/`Error`).
        dropped: i64,
        /// Queue depth when the overflow occurred.
        depth: usize,
    },
    /// Rollback recovery captured and accepted a checkpoint.
    CheckpointCapture {
        /// Scheduler iteration (200 Hz tick) the checkpoint covers.
        iteration: u64,
        /// Serialized size of the accepted snapshot.
        bytes: u64,
    },
    /// Rollback recovery restored the last good checkpoint.
    CheckpointRollback {
        /// Iteration at which the failure was detected.
        from_iteration: u64,
        /// Iteration execution resumes from (the checkpoint's).
        to_iteration: u64,
        /// Failure class that triggered the rollback: `crashed`,
        /// `overrun`, or `livelock`.
        cause: &'static str,
    },
    /// A captured checkpoint failed verification and was discarded.
    AuditFail {
        /// Scheduler iteration of the rejected capture.
        iteration: u64,
        /// Short error kind (`crc-mismatch`, `dangling-field`, …).
        error: &'static str,
    },
}

/// Consumer of trace events.
pub trait TraceSink {
    /// Observe one event. Sinks clone what they keep.
    fn event(&mut self, e: &Event);
}

/// Drops every event.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn event(&mut self, _e: &Event) {}
}

/// Ring buffer keeping the most recent `cap` events.
#[derive(Debug, Clone)]
pub struct LastN {
    cap: usize,
    buf: VecDeque<Event>,
    seen: u64,
}

impl LastN {
    /// A ring holding at most `cap` events.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "LastN needs a positive capacity");
        LastN {
            cap,
            buf: VecDeque::with_capacity(cap),
            seen: 0,
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.buf.iter()
    }

    /// Total events observed (≥ retained).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Drain the retained events, oldest first.
    pub fn into_events(self) -> Vec<Event> {
        self.buf.into()
    }
}

impl TraceSink for LastN {
    fn event(&mut self, e: &Event) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
        }
        self.buf.push_back(e.clone());
        self.seen += 1;
    }
}

/// Collect every event into a `Vec` (tests and golden traces).
#[derive(Debug, Default, Clone)]
pub struct VecSink(pub Vec<Event>);

impl TraceSink for VecSink {
    fn event(&mut self, e: &Event) {
        self.0.push(e.clone());
    }
}

/// One sink shared by several producers (e.g. the simulator and both
/// channel endpoints), with the concrete type still reachable afterwards.
pub struct SharedSink<S>(Rc<RefCell<S>>);

impl<S> SharedSink<S> {
    /// Wrap a sink for sharing.
    pub fn new(sink: S) -> Self {
        SharedSink(Rc::new(RefCell::new(sink)))
    }

    /// Run `f` on the inner sink.
    pub fn with<R>(&self, f: impl FnOnce(&S) -> R) -> R {
        f(&self.0.borrow())
    }

    /// Recover the inner sink if this is the last handle.
    pub fn try_into_inner(self) -> Result<S, Self> {
        Rc::try_unwrap(self.0)
            .map(RefCell::into_inner)
            .map_err(SharedSink)
    }
}

impl<S> Clone for SharedSink<S> {
    fn clone(&self) -> Self {
        SharedSink(Rc::clone(&self.0))
    }
}

impl<S: fmt::Debug> fmt::Debug for SharedSink<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SharedSink({:?})", self.0.borrow())
    }
}

impl<S: TraceSink> TraceSink for SharedSink<S> {
    fn event(&mut self, e: &Event) {
        self.0.borrow_mut().event(e);
    }
}

/// The optional sink slot embedded in every engine.
///
/// `emit` takes a closure so that when tracing is disabled the event —
/// including any string rendering — is never constructed: the disabled
/// cost is a single branch on an `Option` discriminant.
#[derive(Default)]
pub struct SinkHandle(Option<Box<dyn TraceSink>>);

impl SinkHandle {
    /// The disabled handle.
    pub fn none() -> Self {
        SinkHandle(None)
    }

    /// Whether a sink is installed.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Install a sink (replacing any previous one).
    pub fn set(&mut self, sink: Box<dyn TraceSink>) {
        self.0 = Some(sink);
    }

    /// Remove and return the sink.
    pub fn take(&mut self) -> Option<Box<dyn TraceSink>> {
        self.0.take()
    }

    /// Emit `make()` if a sink is installed.
    #[inline]
    pub fn emit(&mut self, make: impl FnOnce() -> Event) {
        if let Some(sink) = &mut self.0 {
            sink.event(&make());
        }
    }
}

impl fmt::Debug for SinkHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SinkHandle({})",
            if self.0.is_some() { "on" } else { "off" }
        )
    }
}

/// Index of the first event where two streams differ, with the differing
/// pair (`None` on one side means that stream ended first). Returns
/// `None` when the streams are identical.
#[allow(clippy::type_complexity)]
pub fn first_divergence<'a>(
    a: &'a [Event],
    b: &'a [Event],
) -> Option<(usize, Option<&'a Event>, Option<&'a Event>)> {
    let n = a.len().max(b.len());
    (0..n).find_map(|i| match (a.get(i), b.get(i)) {
        (Some(x), Some(y)) if x == y => None,
        (x, y) => Some((i, x, y)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bind(var: &str, value: &str) -> Event {
        Event::Bind {
            engine: Engine::Big,
            var: var.into(),
            value: value.into(),
        }
    }

    #[test]
    fn last_n_keeps_only_the_tail() {
        let mut s = LastN::new(3);
        for i in 0..5 {
            s.event(&bind(&format!("v{i}"), "0"));
        }
        assert_eq!(s.seen(), 5);
        let names: Vec<_> = s
            .events()
            .map(|e| match e {
                Event::Bind { var, .. } => var.clone(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(names, ["v2", "v3", "v4"]);
    }

    #[test]
    fn shared_sink_aggregates_across_clones() {
        let shared = SharedSink::new(VecSink::default());
        let mut a = shared.clone();
        let mut b = shared.clone();
        a.event(&bind("x", "1"));
        b.event(&bind("y", "2"));
        assert_eq!(shared.with(|s| s.0.len()), 2);
        drop(a);
        drop(b);
        let inner = shared.try_into_inner().map_err(|_| "still shared").unwrap();
        assert_eq!(inner.0.len(), 2);
    }

    #[test]
    fn disabled_handle_never_builds_events() {
        let mut h = SinkHandle::none();
        let mut built = false;
        h.emit(|| {
            built = true;
            bind("x", "1")
        });
        assert!(!built && !h.enabled());
        h.set(Box::new(VecSink::default()));
        h.emit(|| {
            built = true;
            bind("x", "1")
        });
        assert!(built && h.enabled());
    }

    #[test]
    fn divergence_points_at_first_difference() {
        let a = vec![bind("a", "1"), bind("b", "2"), bind("c", "3")];
        let mut b = a.clone();
        assert_eq!(first_divergence(&a, &b), None);
        b[1] = bind("b", "99");
        let (i, x, y) = first_divergence(&a, &b).unwrap();
        assert_eq!(i, 1);
        assert_eq!(x, Some(&a[1]));
        assert_eq!(y, Some(&b[1]));
        let shorter = &a[..2];
        let (i, x, y) = first_divergence(&a, shorter).unwrap();
        assert_eq!((i, x, y), (2, Some(&a[2]), None));
    }
}
