//! The cycle-accurate λ-execution-layer machine.
//!
//! [`Hw`] interprets the *binary word format* directly — the same image the
//! FPGA prototype's loader streams in — using lazy graph reduction:
//!
//! * a `let` allocates an application object and continues (no control
//!   transfer, matching §3.3: "let does not immediately change the control
//!   flow or force evaluation");
//! * a `case` **forces** its scrutinee to weak head-normal form, entering
//!   function bodies, combining partial applications, evaluating primitives,
//!   and writing indirections back into thunks along the way;
//! * a `result` pops the frame and forces the yielded value for whatever
//!   demanded it.
//!
//! The hardware's four control groups map onto the interpreter as: *load*
//! ([`Hw::load`]), *function application* (the `Apply`/`PrimArgs`
//! continuations and partial-application handling), *function evaluation*
//! (instruction execution and forcing), and *garbage collection*
//! ([`crate::heap`]). Cycles are charged per micro-operation from the
//! [`CostModel`] and attributed to instruction classes per [`crate::stats`].
//!
//! Update frames are squeezed (an enclosing thunk becomes an indirection to
//! the inner one), so tail-recursive Zarf loops run in constant continuation
//! depth — the property that lets the microkernel loop indefinitely on real
//! hardware.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use zarf_asm::encode::{
    self, unpack_let_head, unpack_operand_word, unpack_pattern_skip, word_tag, TAG_CASE, TAG_ELSE,
    TAG_LET, TAG_PAT_CON, TAG_PAT_LIT, TAG_RESULT,
};
use zarf_asm::{DecodeError, EncodeError};
use zarf_chaos::{ChaosHandle, FaultKind, FaultSite};
use zarf_core::error::{IoError, RuntimeError};
use zarf_core::io::IoPorts;
use zarf_core::machine::{MProgram, Operand, Source};
use zarf_core::prim::{PrimOp, ERROR_CON_INDEX, FIRST_USER_INDEX};
use zarf_core::value::{ClosureTarget, Value, V};
use zarf_core::{Int, Word};
use zarf_trace::{Event, InstrClass, SinkHandle, TraceSink};

use crate::cost::CostModel;
use crate::heap::{DanglingRef, GcReport, Heap};
use crate::image::{Image, ItemMeta, IMAGES};
use crate::obj::{AppTarget, HValue, HeapObj, HeapRef};
use crate::stats::{Class, Stats};

/// Default semispace size: 64 Ki words (256 KiB), a plausible embedded SRAM.
pub const DEFAULT_HEAP_WORDS: usize = 64 * 1024;

/// Execution failures of the hardware model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HwError {
    /// The binary image failed validation at load time.
    Load(DecodeError),
    /// A machine program could not be encoded for loading.
    Encode(EncodeError),
    /// Allocation failed even after collection.
    OutOfMemory {
        /// Words the allocation needed.
        needed: usize,
        /// Semispace capacity.
        capacity: usize,
    },
    /// The port device failed.
    Io(IoError),
    /// The configured cycle budget was exhausted.
    CycleLimit(u64),
    /// A thunk demanded its own value (a black hole): the program loops.
    InfiniteLoop,
    /// `call_by_name` with an unknown symbol.
    UnknownName(String),
    /// `call` with an identifier that is not a loaded item.
    UnknownItem(u32),
    /// A reference pointed outside the heap — a memory fault (only
    /// reachable after corruption, e.g. an injected bit flip).
    DanglingRef(usize),
    /// A machine invariant did not hold at runtime: corrupted state that
    /// validation cannot rule out once memory faults are in the model.
    BadState(&'static str),
}

impl fmt::Display for HwError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HwError::Load(e) => write!(f, "load failed: {e}"),
            HwError::Encode(e) => write!(f, "encode failed: {e}"),
            HwError::OutOfMemory { needed, capacity } => {
                write!(
                    f,
                    "out of memory: need {needed} words, semispace holds {capacity}"
                )
            }
            HwError::Io(e) => write!(f, "I/O failure: {e}"),
            HwError::CycleLimit(n) => write!(f, "cycle limit of {n} exhausted"),
            HwError::InfiniteLoop => write!(f, "black hole entered: infinite loop"),
            HwError::UnknownName(n) => write!(f, "no item named `{n}`"),
            HwError::UnknownItem(id) => write!(f, "no item with identifier {id:#x}"),
            HwError::DanglingRef(r) => write!(f, "dangling heap reference {r:#x}"),
            HwError::BadState(what) => write!(f, "machine state corrupted: {what}"),
        }
    }
}

impl std::error::Error for HwError {}

impl From<IoError> for HwError {
    fn from(e: IoError) -> Self {
        HwError::Io(e)
    }
}

impl From<DanglingRef> for HwError {
    fn from(e: DanglingRef) -> Self {
        HwError::DanglingRef(e.0)
    }
}

/// Pending cycle run not yet emitted as an [`Event::Cycles`].
///
/// Consecutive charges to the same `(class, item)` pair coalesce into one
/// event, flushed whenever the attribution changes, an instruction retires,
/// a collection starts, a coroutine boundary is crossed, or the run ends.
/// The per-class event sums therefore reproduce [`Stats`] exactly: the
/// trace is a refinement of the aggregate counters.
#[derive(Debug)]
struct TraceCursor {
    class: Class,
    item: Option<u32>,
    cycles: u64,
}

impl Default for TraceCursor {
    fn default() -> Self {
        TraceCursor {
            class: Class::Let,
            item: None,
            cycles: 0,
        }
    }
}

/// The trace-event name of a cycle-accounting class.
fn trace_class(c: Class) -> InstrClass {
    match c {
        Class::Let => InstrClass::Let,
        Class::Case => InstrClass::Case,
        Class::Result => InstrClass::Result,
        Class::BranchHead => InstrClass::BranchHead,
    }
}

/// A suspended function activation.
#[derive(Debug)]
struct Frame {
    /// The item being executed (for the profiler).
    item: u32,
    args: Vec<HValue>,
    locals: Vec<HValue>,
    pc: usize,
}

/// A continuation on the evaluation stack.
#[derive(Debug)]
enum Cont {
    /// Write the WHNF into this thunk when it arrives.
    Update(HeapRef),
    /// Apply the WHNF to these further arguments (over-application).
    Apply(Vec<HValue>),
    /// Resume the pattern scan of the `case` whose frame is on top; its
    /// `pc` already points at the first pattern word.
    CaseDispatch,
    /// Discard the WHNF and resume instruction execution (used by the
    /// eager-mode ablation, which forces every `let` immediately).
    ResumeExec,
    /// Collect primitive operands: force `pending` (stored reversed) one at
    /// a time, accumulating `ints`, then execute `op`.
    PrimArgs {
        op: PrimOp,
        pending: Vec<HValue>,
        ints: Vec<Int>,
    },
}

/// Machine control state between steps.
#[derive(Debug, Clone, Copy)]
enum State {
    /// Execute the instruction at the top frame's `pc`.
    Exec,
    /// Reduce a value to weak head-normal form.
    Force(HValue),
    /// Deliver a WHNF to the innermost continuation.
    Return(HValue),
}

/// Configuration for a hardware instance.
#[derive(Debug, Clone)]
pub struct HwConfig {
    /// Semispace size in words.
    pub heap_words: usize,
    /// Abort after this many total cycles (`None` = unlimited).
    pub cycle_limit: Option<u64>,
    /// Collect automatically when an allocation does not fit. The paper's
    /// deployment disables this and calls the `gc` hardware function once
    /// per kernel iteration; tests enable it.
    pub gc_auto: bool,
    /// Ablation: force every `let`'s application immediately (eager
    /// evaluation) instead of building a thunk for later demand. The real
    /// hardware is lazy; this measures what that choice buys.
    pub eager: bool,
    /// Attribute cycles to the function whose frame is active, building a
    /// per-item profile readable via [`Hw::profile`].
    pub profile: bool,
    /// The cycle-cost model.
    pub cost: CostModel,
}

impl Default for HwConfig {
    fn default() -> Self {
        HwConfig {
            heap_words: DEFAULT_HEAP_WORDS,
            cycle_limit: None,
            gc_auto: true,
            eager: false,
            profile: false,
            cost: CostModel::default(),
        }
    }
}

/// The λ-execution layer hardware simulator.
#[derive(Debug)]
pub struct Hw {
    /// The validated code, item table and symbols, shared with every
    /// machine loaded from the same image.
    image: Arc<Image>,
    /// `image.code`, held directly so instruction fetch skips a pointer.
    code: Arc<[Word]>,
    heap: Heap,
    cost: CostModel,
    stats: Stats,
    cycle_limit: Option<u64>,
    gc_auto: bool,
    eager: bool,
    profiling: bool,
    profile: HashMap<u32, u64>,

    /// Values the host wants kept alive across calls (kernel state, etc.).
    roots: Vec<HValue>,

    frames: Vec<Frame>,
    conts: Vec<Cont>,
    class: Class,

    sink: SinkHandle,
    cursor: TraceCursor,
    /// Item id → coroutine id: frames of these items delimit coroutines in
    /// the event stream (see [`Hw::mark_coroutine`]).
    coroutines: HashMap<u32, u32>,
    /// Deterministic fault injection (see [`Hw::set_chaos`]).
    chaos: Option<ChaosHandle>,
}

impl Hw {
    /// Load a binary image with the default configuration.
    pub fn load(words: &[Word]) -> Result<Self, HwError> {
        Self::load_with(words, HwConfig::default())
    }

    /// Load a binary image with an explicit configuration.
    ///
    /// The image is fully validated (structure, operand ranges, skip-field
    /// consistency) before execution is permitted — rejecting malformed
    /// binaries is part of the architecture's contract. Validation runs
    /// once per process per distinct image: a later load of exactly the
    /// same words shares the validated image.
    pub fn load_with(words: &[Word], config: HwConfig) -> Result<Self, HwError> {
        Self::load_symbols(words, &[], config)
    }

    /// [`Hw::load_with`] retaining `(identifier, name)` symbols.
    pub(crate) fn load_symbols(
        words: &[Word],
        symbols: &[(u32, String)],
        config: HwConfig,
    ) -> Result<Self, HwError> {
        let image = IMAGES.resolve(words, symbols)?;
        let stats = Stats {
            load_cycles: config.cost.load_per_word * words.len() as u64,
            ..Stats::default()
        };

        Ok(Hw {
            code: Arc::clone(&image.code),
            image,
            heap: Heap::new(config.heap_words),
            cost: config.cost,
            stats,
            cycle_limit: config.cycle_limit,
            gc_auto: config.gc_auto,
            eager: config.eager,
            profiling: config.profile,
            profile: HashMap::new(),
            roots: Vec::new(),
            frames: Vec::new(),
            conts: Vec::new(),
            class: Class::Let,
            sink: SinkHandle::none(),
            cursor: TraceCursor::default(),
            coroutines: HashMap::new(),
            chaos: None,
        })
    }

    /// Encode a machine program and load it, retaining item symbols so
    /// [`Hw::call_by_name`] works.
    pub fn from_machine(m: &MProgram) -> Result<Self, HwError> {
        Self::from_machine_with(m, HwConfig::default())
    }

    /// [`Hw::from_machine`] with an explicit configuration.
    pub fn from_machine_with(m: &MProgram, config: HwConfig) -> Result<Self, HwError> {
        let words = encode::encode(m).map_err(HwError::Encode)?;
        let symbols: Vec<(u32, String)> = m
            .items()
            .iter()
            .enumerate()
            .filter_map(|(i, item)| item.name.clone().map(|n| (m.id_of(i), n)))
            .collect();
        Self::load_symbols(&words, &symbols, config)
    }

    /// Execution statistics so far.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Reset statistics (keeping load cycles at zero). Pending, not-yet-
    /// emitted trace cycles are discarded so the trace restarts with the
    /// counters.
    pub fn reset_stats(&mut self) {
        self.stats = Stats::default();
        self.profile.clear();
        self.cursor = TraceCursor::default();
    }

    /// The per-function cycle profile (requires [`HwConfig::profile`]):
    /// `(identifier, symbol-if-retained, cycles)`, hottest first. Cycles
    /// charged while no frame is active (top-level forcing) are not
    /// attributed.
    pub fn profile(&self) -> Vec<(u32, Option<String>, u64)> {
        let mut rows: Vec<(u32, Option<String>, u64)> = self
            .profile
            .iter()
            .map(|(&id, &cycles)| (id, self.item(id).and_then(|m| m.name.clone()), cycles))
            .collect();
        rows.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));
        rows
    }

    /// The loaded binary image, exactly as validated by [`Hw::load_with`].
    pub(crate) fn code_words(&self) -> &[Word] {
        &self.code
    }

    /// Retained symbols as `(identifier, name)` pairs, identifier-sorted
    /// so snapshot bytes are deterministic.
    pub(crate) fn name_table(&self) -> &[(u32, String)] {
        &self.image.symbols
    }

    /// True when no call is in flight: the frame and continuation stacks
    /// are empty, so the machine state is exactly heap + roots + counters.
    /// Snapshots are only defined at quiescent points.
    pub fn is_quiescent(&self) -> bool {
        self.frames.is_empty() && self.conts.is_empty()
    }

    /// The host root slots (snapshot capture walks these).
    pub(crate) fn host_roots(&self) -> &[HValue] {
        &self.roots
    }

    /// The instruction class cycles are currently attributed to. Part of
    /// the trace-visible state: the first `charge` after restore must
    /// coalesce under the same class as it would have uninterrupted.
    pub(crate) fn accounting_class(&self) -> Class {
        self.class
    }

    /// Swap in previously captured machine state: heap, host roots,
    /// statistics, and attribution class. Frames and continuations are
    /// cleared (snapshots are quiescent by construction) and the trace
    /// cursor is reset — at a quiescent point it holds no pending cycles.
    pub(crate) fn restore_parts(
        &mut self,
        heap: Heap,
        roots: Vec<HValue>,
        stats: Stats,
        class: Class,
    ) {
        self.heap = heap;
        self.roots = roots;
        self.stats = stats;
        self.class = class;
        self.frames.clear();
        self.conts.clear();
        self.cursor = TraceCursor::default();
    }

    /// `(arity, is_constructor)` for a program item, `None` if the
    /// identifier names no item. The auditor uses this to check
    /// constructor saturation and application targets.
    pub fn item_shape(&self, id: u32) -> Option<(usize, bool)> {
        self.item(id).map(|m| (m.arity, m.is_con))
    }

    /// Structurally audit the live heap against the host roots: tags,
    /// pointer bounds, constructor arity, word accounting. Garbage is
    /// permitted (the live heap is audited non-strictly; compacted
    /// snapshot heaps are audited strictly at capture and restore).
    pub fn audit(&self) -> Result<crate::audit::AuditReport, crate::audit::AuditError> {
        crate::audit::audit_heap(&self.heap, &self.roots, &|id| self.item_shape(id), false)
    }

    /// The heap (for occupancy inspection).
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// The identifier of the item named `name`, if symbols were retained.
    pub fn id_of(&self, name: &str) -> Option<u32> {
        self.image.names.get(name).copied()
    }

    /// Protect a value from garbage collection across host calls; returns a
    /// root slot index for [`Hw::root`] / [`Hw::set_root`].
    pub fn push_root(&mut self, v: HValue) -> usize {
        self.roots.push(v);
        self.roots.len() - 1
    }

    /// Read a protected root (it may have moved during collection).
    pub fn root(&self, slot: usize) -> HValue {
        self.roots[slot]
    }

    /// Replace a protected root.
    pub fn set_root(&mut self, slot: usize, v: HValue) {
        self.roots[slot] = v;
    }

    /// Number of host root slots currently protected.
    pub fn root_count(&self) -> usize {
        self.roots.len()
    }

    /// Serialize the whole machine to `ZSNP` snapshot bytes (the machine
    /// must be quiescent). The inverse of [`Hw::rehydrate`]; the fleet uses
    /// this pair to evict sessions to bounded storage and move them across
    /// worker threads.
    pub fn hibernate(&self) -> Result<Vec<u8>, crate::snapshot::SnapshotError> {
        crate::snapshot::MachineSnapshot::capture(self)?.to_bytes()
    }

    /// Rebuild a machine from [`Hw::hibernate`] bytes. `config` supplies
    /// the non-snapshotted knobs (cycle limit, GC policy, cost model); the
    /// heap capacity always comes from the snapshot.
    pub fn rehydrate(bytes: &[u8], config: HwConfig) -> Result<Hw, crate::snapshot::SnapshotError> {
        crate::snapshot::MachineSnapshot::from_bytes(bytes)?.into_hw(config)
    }

    /// Run `main` to completion, returning its weak head-normal form.
    pub fn run(&mut self, ports: &mut dyn IoPorts) -> Result<HValue, HwError> {
        self.call(FIRST_USER_INDEX, vec![], ports)
    }

    /// Apply the named item to arguments and run to WHNF.
    pub fn call_by_name(
        &mut self,
        name: &str,
        args: Vec<HValue>,
        ports: &mut dyn IoPorts,
    ) -> Result<HValue, HwError> {
        let id = self
            .id_of(name)
            .ok_or_else(|| HwError::UnknownName(name.to_string()))?;
        self.call(id, args, ports)
    }

    /// Apply item `id` to arguments and run to WHNF.
    pub fn call(
        &mut self,
        id: u32,
        args: Vec<HValue>,
        ports: &mut dyn IoPorts,
    ) -> Result<HValue, HwError> {
        if id >= FIRST_USER_INDEX
            && (id - FIRST_USER_INDEX) as usize >= self.image.items.len()
            && PrimOp::from_index(id).is_none()
        {
            return Err(HwError::UnknownItem(id));
        }
        debug_assert!(self.frames.is_empty() && self.conts.is_empty());
        let app = self.alloc_gc(HeapObj::App {
            target: AppTarget::Global(id),
            args,
        })?;
        let result = self.run_machine(State::Force(HValue::Ref(app)), ports);
        if result.is_err() {
            // Leave the machine in a clean state for post-mortem calls.
            self.frames.clear();
            self.conts.clear();
        }
        result
    }

    /// [`Hw::call`] under a relative cycle budget: the call may spend at
    /// most `budget` cycles beyond those already consumed, failing with
    /// [`HwError::CycleLimit`] otherwise. A tighter configured absolute
    /// limit still applies. The kernel watchdog uses this to give each
    /// coroutine a fuel budget derived from the WCET bound.
    pub fn call_with_budget(
        &mut self,
        id: u32,
        args: Vec<HValue>,
        ports: &mut dyn IoPorts,
        budget: u64,
    ) -> Result<HValue, HwError> {
        let saved = self.cycle_limit;
        let deadline = self.stats.total_cycles().saturating_add(budget);
        self.cycle_limit = Some(saved.map_or(deadline, |l| l.min(deadline)));
        let result = self.call(id, args, ports);
        self.cycle_limit = saved;
        result
    }

    /// Reduce `v` to weak head-normal form from the host — the demand a
    /// `case` would make — cleaning up machine state on error like
    /// [`Hw::call`]. Hosts use this to force constructor fields they are
    /// about to consume (e.g. the output word of a `Pair state out`).
    pub fn force_value(&mut self, v: HValue, ports: &mut dyn IoPorts) -> Result<HValue, HwError> {
        let result = self.run_machine(State::Force(v), ports);
        if result.is_err() {
            self.frames.clear();
            self.conts.clear();
        }
        result
    }

    /// Manually trigger a collection (the `gc` hardware function does the
    /// same from inside a program). Fails only on a memory fault (a
    /// dangling reference reachable from the roots).
    pub fn collect_garbage(&mut self) -> Result<GcReport, HwError> {
        self.do_gc(&mut [])
    }

    /// Install (or clear) a deterministic fault-injection handle. The
    /// machine consults it at every allocation; faults that fire surface
    /// as [`Event::FaultInjected`] plus their architectural effect
    /// (allocation failure, forced collection, or a flipped bit in the
    /// freshly written cell).
    pub fn set_chaos(&mut self, chaos: Option<ChaosHandle>) {
        self.chaos = chaos;
    }

    // -- observability ------------------------------------------------------

    /// Install a trace sink. The machine emits retirement, cycle, heap, GC,
    /// I/O, and coroutine events; when no sink is installed every emission
    /// site is a single branch on a `None`.
    pub fn set_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.sink.set(sink);
        self.cursor = TraceCursor::default();
    }

    /// Remove and return the installed sink, flushing any pending cycles.
    pub fn take_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        self.flush_cycles();
        self.sink.take()
    }

    /// Declare that frames of item `item` delimit coroutine `coroutine`:
    /// entering such a frame emits [`Event::CoroutineEnter`], popping it
    /// emits [`Event::CoroutineExit`]. The kernel marks its step functions
    /// so a metrics sink can attribute cycles per coroutine.
    pub fn mark_coroutine(&mut self, item: u32, coroutine: u32) {
        self.coroutines.insert(item, coroutine);
    }

    /// The retained symbol of item `id` (inverse of [`Hw::id_of`]).
    pub fn symbol(&self, id: u32) -> Option<String> {
        self.item(id).and_then(|m| m.name.clone())
    }

    /// [`Hw::mark_coroutine`] by symbol name (requires retained symbols).
    pub fn mark_coroutine_by_name(&mut self, name: &str, coroutine: u32) -> bool {
        match self.id_of(name) {
            Some(id) => {
                self.mark_coroutine(id, coroutine);
                true
            }
            None => false,
        }
    }

    // -- cycle accounting ---------------------------------------------------

    fn charge(&mut self, cycles: u64) {
        self.stats.class_mut(self.class).cycles += cycles;
        let item = self.frames.last().map(|f| f.item);
        if self.profiling {
            if let Some(id) = item {
                *self.profile.entry(id).or_insert(0) += cycles;
            }
        }
        if self.sink.enabled() {
            if (self.cursor.class, self.cursor.item) != (self.class, item) {
                self.flush_cycles();
                self.cursor.class = self.class;
                self.cursor.item = item;
            }
            self.cursor.cycles += cycles;
        }
    }

    /// Emit any coalesced-but-unflushed cycle charges to the trace sink.
    ///
    /// Checkpoint capture flushes first so the event stream is cut at a
    /// deterministic point: a machine restored from the snapshot starts
    /// with an empty cycle cursor, and so must the uninterrupted run at
    /// the same boundary, or the two streams would coalesce differently.
    pub fn flush_trace(&mut self) {
        self.flush_cycles();
    }

    /// Emit the pending cycle run, if any.
    fn flush_cycles(&mut self) {
        if self.cursor.cycles > 0 {
            let (class, item, cycles) = (self.cursor.class, self.cursor.item, self.cursor.cycles);
            self.cursor.cycles = 0;
            self.sink.emit(|| Event::Cycles {
                class: trace_class(class),
                item,
                cycles,
            });
        }
    }

    fn begin_instr(&mut self, class: Class, pc: usize) {
        self.class = class;
        self.stats.class_mut(class).count += 1;
        if self.sink.enabled() {
            self.flush_cycles();
            self.sink.emit(|| Event::Instr {
                pc: pc as u64,
                class: trace_class(class),
            });
        }
    }

    // -- memory -------------------------------------------------------------

    /// Allocate with automatic collection on exhaustion. The object's own
    /// payload is treated as roots so it survives the collection.
    ///
    /// When a chaos handle is installed this is the `Alloc` fault site:
    /// the plan can fail the allocation outright, force an adversarial
    /// collection first, or flip a bit in the freshly written cell.
    fn alloc_gc(&mut self, mut obj: HeapObj) -> Result<HeapRef, HwError> {
        let words = obj.words();
        let mut force_gc = false;
        let mut flip_bit = None;
        if let Some(chaos) = &self.chaos {
            if let Some(kind) = chaos.next(FaultSite::Alloc) {
                let op = chaos.ops(FaultSite::Alloc) - 1;
                self.flush_cycles();
                self.sink.emit(|| Event::FaultInjected {
                    site: FaultSite::Alloc.name(),
                    kind: kind.name(),
                    op,
                    detail: kind.detail(),
                });
                match kind {
                    FaultKind::AllocFail => {
                        return Err(HwError::OutOfMemory {
                            needed: words,
                            capacity: self.heap.capacity_words(),
                        });
                    }
                    FaultKind::ForceGc => force_gc = true,
                    FaultKind::BitFlip { bit } => flip_bit = Some(bit),
                    _ => {}
                }
            }
        }
        let full = self.heap.words_used() + words > self.heap.capacity_words();
        if (full && self.gc_auto) || force_gc {
            // Root the payload through the collection.
            let mut extra: Vec<HValue> = Vec::new();
            match &obj {
                HeapObj::App { target, args } => {
                    if let AppTarget::Value(v) = target {
                        extra.push(*v);
                    }
                    extra.extend(args.iter().copied());
                }
                HeapObj::Con { fields, .. } => extra.extend(fields.iter().copied()),
                HeapObj::Ind(v) => extra.push(*v),
                _ => {}
            }
            self.do_gc(&mut extra)?;
            // Scatter the relocated payload back into the object.
            let mut it = extra.into_iter();
            match &mut obj {
                HeapObj::App { target, args } => {
                    if let AppTarget::Value(v) = target {
                        *v = it
                            .next()
                            .ok_or(HwError::BadState("gc root scatter mismatch"))?;
                    }
                    for a in args.iter_mut() {
                        *a = it
                            .next()
                            .ok_or(HwError::BadState("gc root scatter mismatch"))?;
                    }
                }
                HeapObj::Con { fields, .. } => {
                    for f in fields.iter_mut() {
                        *f = it
                            .next()
                            .ok_or(HwError::BadState("gc root scatter mismatch"))?;
                    }
                }
                HeapObj::Ind(v) => {
                    *v = it
                        .next()
                        .ok_or(HwError::BadState("gc root scatter mismatch"))?
                }
                _ => {}
            }
        }
        self.charge(self.cost.alloc);
        self.stats.allocations += 1;
        self.stats.words_allocated += obj.words() as u64;
        let words = obj.words();
        let r = self.heap.alloc(obj).ok_or(HwError::OutOfMemory {
            needed: words,
            capacity: self.heap.capacity_words(),
        })?;
        let heap_words = self.heap.words_used() as u64;
        self.sink.emit(|| Event::Alloc {
            words: words as u64,
            heap_words,
        });
        if let Some(bit) = flip_bit {
            self.flip_cell_bit(r, bit);
        }
        Ok(r)
    }

    /// Apply an injected single-bit fault to the freshly allocated cell
    /// `r`: the first value-carrying field is flipped (integer payload or
    /// reference word); payload-free cells flip their identifier instead.
    fn flip_cell_bit(&mut self, r: HeapRef, bit: u8) {
        fn flip_val(v: &mut HValue, bit: u8) {
            match v {
                HValue::Int(n) => *n ^= 1 << (bit % 31),
                // Keep the flip inside a plausible address range so low
                // bits alias another live object (silent corruption) and
                // high bits dangle (a detectable memory fault).
                HValue::Ref(p) => *p ^= 1 << (bit % 20),
            }
        }
        let Ok(obj) = self.heap.get_mut(r) else {
            return;
        };
        match obj {
            HeapObj::App { target, args } => {
                if let Some(a) = args.first_mut() {
                    flip_val(a, bit);
                } else {
                    match target {
                        AppTarget::Value(v) => flip_val(v, bit),
                        AppTarget::Global(id) => *id ^= 1 << (bit % 8),
                    }
                }
            }
            HeapObj::Con { id, fields } => {
                if let Some(f) = fields.first_mut() {
                    flip_val(f, bit);
                } else {
                    *id ^= 1 << (bit % 8);
                }
            }
            HeapObj::Ind(v) => flip_val(v, bit),
            HeapObj::BlackHole | HeapObj::Forwarded(_) => {}
        }
    }

    /// Collect, treating machine state + host roots (+ `extra`) as roots.
    /// Fails only on a memory fault (dangling reference) reached while
    /// tracing; the heap is unusable afterwards and the caller surfaces
    /// the error.
    fn do_gc(&mut self, extra: &mut [HValue]) -> Result<GcReport, HwError> {
        // Gather every live value slot into one vector.
        let mut roots: Vec<HValue> = Vec::new();
        roots.extend(self.roots.iter().copied());
        for f in &self.frames {
            roots.extend(f.args.iter().copied());
            roots.extend(f.locals.iter().copied());
        }
        for c in &self.conts {
            match c {
                Cont::Update(t) => roots.push(HValue::Ref(*t)),
                Cont::Apply(args) => roots.extend(args.iter().copied()),
                Cont::PrimArgs { pending, .. } => roots.extend(pending.iter().copied()),
                Cont::CaseDispatch | Cont::ResumeExec => {}
            }
        }
        roots.extend(extra.iter().copied());

        self.stats.peak_live_words = self
            .stats
            .peak_live_words
            .max(self.heap.words_used() as u64);

        if self.sink.enabled() {
            self.flush_cycles();
            let heap_words = self.heap.words_used() as u64;
            self.sink.emit(|| Event::GcStart { heap_words });
        }
        let report = self.heap.collect(&mut roots, &self.cost)?;
        self.stats.gc_cycles += report.cycles;
        self.stats.gc_runs += 1;
        self.stats.gc_objects_copied += report.objects_copied;
        self.stats.gc_words_copied += report.words_copied;
        self.sink.emit(|| Event::GcEnd {
            pause_cycles: report.cycles,
            objects_copied: report.objects_copied,
            words_copied: report.words_copied,
            words_reclaimed: report.words_reclaimed,
        });

        // Scatter the (possibly moved) roots back.
        let mut it = roots.into_iter();
        for r in self.roots.iter_mut() {
            *r = it
                .next()
                .ok_or(HwError::BadState("gc root scatter mismatch"))?;
        }
        for f in self.frames.iter_mut() {
            for a in f.args.iter_mut() {
                *a = it
                    .next()
                    .ok_or(HwError::BadState("gc root scatter mismatch"))?;
            }
            for l in f.locals.iter_mut() {
                *l = it
                    .next()
                    .ok_or(HwError::BadState("gc root scatter mismatch"))?;
            }
        }
        for c in self.conts.iter_mut() {
            match c {
                Cont::Update(t) => {
                    *t = match it
                        .next()
                        .ok_or(HwError::BadState("gc root scatter mismatch"))?
                    {
                        HValue::Ref(r) => r,
                        HValue::Int(_) => {
                            return Err(HwError::BadState("update target became an integer"))
                        }
                    }
                }
                Cont::Apply(args) => {
                    for a in args.iter_mut() {
                        *a = it
                            .next()
                            .ok_or(HwError::BadState("gc root scatter mismatch"))?;
                    }
                }
                Cont::PrimArgs { pending, .. } => {
                    for p in pending.iter_mut() {
                        *p = it
                            .next()
                            .ok_or(HwError::BadState("gc root scatter mismatch"))?;
                    }
                }
                Cont::CaseDispatch | Cont::ResumeExec => {}
            }
        }
        for e in extra.iter_mut() {
            *e = it
                .next()
                .ok_or(HwError::BadState("gc root scatter mismatch"))?;
        }
        debug_assert!(it.next().is_none());
        Ok(report)
    }

    fn error_value(&mut self, e: RuntimeError) -> Result<HValue, HwError> {
        let r = self.alloc_gc(HeapObj::Con {
            id: ERROR_CON_INDEX,
            fields: vec![HValue::Int(e.code())],
        })?;
        Ok(HValue::Ref(r))
    }

    fn is_error(&self, v: HValue) -> bool {
        self.as_error(v).is_some()
    }

    /// View a WHNF value as the runtime error it carries, if it is the
    /// reserved error constructor (following indirections). Hosts use this
    /// to distinguish a crashed computation from a healthy result without
    /// deep-forcing.
    pub fn as_error(&self, v: HValue) -> Option<RuntimeError> {
        match v {
            HValue::Int(_) => None,
            HValue::Ref(r) => match self.heap.get(r) {
                Ok(HeapObj::Con { id, fields }) if *id == ERROR_CON_INDEX => {
                    let code = fields
                        .first()
                        .and_then(|f| self.as_int(*f))
                        .unwrap_or(RuntimeError::Propagated.code());
                    Some(RuntimeError::from_code(code).unwrap_or(RuntimeError::Propagated))
                }
                Ok(HeapObj::Ind(inner)) => self.as_error(*inner),
                _ => None,
            },
        }
    }

    // -- operand resolution ---------------------------------------------------

    fn resolve(&mut self, op: Operand) -> Result<HValue, HwError> {
        match op.source {
            Source::Imm => Ok(HValue::Int(op.index)),
            Source::Local => {
                let frame = self.top_frame()?;
                frame
                    .locals
                    .get(op.index as usize)
                    .copied()
                    .ok_or(HwError::BadState("local operand out of range"))
            }
            Source::Arg => {
                let frame = self.top_frame()?;
                frame
                    .args
                    .get(op.index as usize)
                    .copied()
                    .ok_or(HwError::BadState("argument operand out of range"))
            }
            Source::Global => {
                // A bare global in operand position denotes the (empty)
                // application of that global — allocate its closure.
                let id = op.index as u32;
                let r = self.alloc_gc(HeapObj::App {
                    target: AppTarget::Global(id),
                    args: vec![],
                })?;
                Ok(HValue::Ref(r))
            }
        }
    }

    fn item(&self, id: u32) -> Option<&ItemMeta> {
        id.checked_sub(FIRST_USER_INDEX)
            .and_then(|i| self.image.items.get(i as usize))
    }

    /// Emit [`Event::CoroutineExit`] if the popped frame's item is marked.
    fn emit_coroutine_exit(&mut self, item: u32) {
        if let Some(&cid) = self.coroutines.get(&item) {
            self.flush_cycles();
            self.sink.emit(|| Event::CoroutineExit { id: cid });
        }
    }

    /// Push an `Update` continuation, squeezing a directly-enclosing update
    /// frame into an indirection (constant-space tail recursion).
    fn push_update(&mut self, r: HeapRef) -> Result<(), HwError> {
        if let Some(Cont::Update(t)) = self.conts.last() {
            let t = *t;
            *self.heap.get_mut(t)? = HeapObj::Ind(HValue::Ref(r));
            self.conts.pop();
        }
        self.conts.push(Cont::Update(r));
        Ok(())
    }

    fn top_frame(&self) -> Result<&Frame, HwError> {
        self.frames
            .last()
            .ok_or(HwError::BadState("no active frame"))
    }

    fn top_frame_mut(&mut self) -> Result<&mut Frame, HwError> {
        self.frames
            .last_mut()
            .ok_or(HwError::BadState("no active frame"))
    }

    fn pop_frame(&mut self) -> Result<Frame, HwError> {
        self.frames
            .pop()
            .ok_or(HwError::BadState("no active frame"))
    }

    fn code_word(&self, pc: usize) -> Result<Word, HwError> {
        self.code
            .get(pc)
            .copied()
            .ok_or(HwError::BadState("program counter out of range"))
    }

    // -- main loop ------------------------------------------------------------

    fn run_machine(
        &mut self,
        mut state: State,
        ports: &mut dyn IoPorts,
    ) -> Result<HValue, HwError> {
        loop {
            if let Some(limit) = self.cycle_limit {
                if self.stats.total_cycles() > limit {
                    self.flush_cycles();
                    return Err(HwError::CycleLimit(limit));
                }
            }
            state = match state {
                State::Exec => self.step_exec()?,
                State::Force(v) => self.step_force(v)?,
                State::Return(v) => match self.step_return(v, ports)? {
                    Some(next) => next,
                    None => {
                        self.flush_cycles();
                        return Ok(v);
                    }
                },
            };
        }
    }

    fn step_exec(&mut self) -> Result<State, HwError> {
        let pc = self.top_frame()?.pc;
        let w = self.code_word(pc)?;
        match word_tag(w) {
            TAG_LET => {
                self.begin_instr(Class::Let, pc);
                self.charge(self.cost.let_base);
                let (nargs, callee) =
                    unpack_let_head(w).ok_or(HwError::BadState("malformed let head"))?;
                self.stats.let_args += nargs as u64;
                let mut args = Vec::with_capacity(nargs);
                for i in 0..nargs {
                    self.charge(self.cost.let_per_arg);
                    let aw = self.code_word(pc + 1 + i)?;
                    let op =
                        unpack_operand_word(aw).ok_or(HwError::BadState("malformed operand"))?;
                    args.push(self.resolve(op)?);
                }
                let target = match callee.source {
                    Source::Global => AppTarget::Global(callee.index as u32),
                    _ => AppTarget::Value(self.resolve(callee)?),
                };
                let r = self.alloc_gc(HeapObj::App { target, args })?;
                let frame = self.top_frame_mut()?;
                frame.locals.push(HValue::Ref(r));
                frame.pc = pc + 1 + nargs;
                if self.eager {
                    // Ablation: demand the application now. The local slot
                    // keeps the reference; the thunk updates in place.
                    self.conts.push(Cont::ResumeExec);
                    return Ok(State::Force(HValue::Ref(r)));
                }
                Ok(State::Exec)
            }
            TAG_CASE => {
                self.begin_instr(Class::Case, pc);
                self.charge(self.cost.case_base);
                let op = unpack_operand_word(w).ok_or(HwError::BadState("malformed operand"))?;
                let scrutinee = self.resolve(op)?;
                self.top_frame_mut()?.pc = pc + 1;
                self.conts.push(Cont::CaseDispatch);
                Ok(State::Force(scrutinee))
            }
            TAG_RESULT => {
                self.begin_instr(Class::Result, pc);
                self.charge(self.cost.result_base);
                let op = unpack_operand_word(w).ok_or(HwError::BadState("malformed operand"))?;
                let v = self.resolve(op)?;
                let frame = self.pop_frame()?;
                self.emit_coroutine_exit(frame.item);
                Ok(State::Force(v))
            }
            _ => Err(HwError::BadState("unknown instruction tag")),
        }
    }

    fn step_force(&mut self, v: HValue) -> Result<State, HwError> {
        let r = match v {
            HValue::Int(_) => return Ok(State::Return(v)),
            HValue::Ref(r) => r,
        };
        match self.heap.get(r)? {
            HeapObj::Con { .. } => Ok(State::Return(v)),
            HeapObj::Ind(inner) => {
                let inner = *inner;
                self.charge(self.cost.ref_check);
                Ok(State::Force(inner))
            }
            HeapObj::BlackHole => Err(HwError::InfiniteLoop),
            HeapObj::Forwarded(_) => Err(HwError::BadState("forwarding pointer outside GC")),
            HeapObj::App { target, args } => {
                let target = *target;
                let args = args.clone();
                match target {
                    AppTarget::Value(tv) => {
                        self.charge(self.cost.ref_check);
                        self.push_update(r)?;
                        self.conts.push(Cont::Apply(args));
                        *self.heap.get_mut(r)? = HeapObj::BlackHole;
                        Ok(State::Force(tv))
                    }
                    AppTarget::Global(id) => self.force_global(r, id, args),
                }
            }
        }
    }

    fn force_global(
        &mut self,
        r: HeapRef,
        id: u32,
        mut args: Vec<HValue>,
    ) -> Result<State, HwError> {
        if let Some(op) = PrimOp::from_index(id) {
            let arity = op.arity();
            if args.len() < arity {
                self.charge(self.cost.pap_check);
                return Ok(State::Return(HValue::Ref(r)));
            }
            self.push_update(r)?;
            *self.heap.get_mut(r)? = HeapObj::BlackHole;
            if args.len() > arity {
                let rest = args.split_off(arity);
                self.conts.push(Cont::Apply(rest));
            }
            let first = args[0];
            let mut pending: Vec<HValue> = args[1..].to_vec();
            pending.reverse();
            self.conts.push(Cont::PrimArgs {
                op,
                pending,
                ints: Vec::new(),
            });
            return Ok(State::Force(first));
        }

        if id == ERROR_CON_INDEX {
            // The error constructor: applying it produces an error value.
            let code = args
                .first()
                .and_then(|v| match v {
                    HValue::Int(n) => Some(*n),
                    _ => None,
                })
                .unwrap_or(RuntimeError::Propagated.code());
            *self.heap.get_mut(r)? = HeapObj::Con {
                id: ERROR_CON_INDEX,
                fields: vec![HValue::Int(code)],
            };
            return Ok(State::Return(HValue::Ref(r)));
        }

        let (is_con, arity, locals, body_off) = {
            let m = self.item(id).ok_or(HwError::UnknownItem(id))?;
            (m.is_con, m.arity, m.locals, m.body_off)
        };
        if is_con {
            match args.len().cmp(&arity) {
                std::cmp::Ordering::Less => {
                    self.charge(self.cost.pap_check);
                    Ok(State::Return(HValue::Ref(r)))
                }
                std::cmp::Ordering::Equal => {
                    self.charge(self.cost.update);
                    *self.heap.get_mut(r)? = HeapObj::Con { id, fields: args };
                    Ok(State::Return(HValue::Ref(r)))
                }
                std::cmp::Ordering::Greater => {
                    // The error allocation may collect; keep the thunk
                    // reachable and re-read its (possibly moved) location.
                    let slot = self.push_root(HValue::Ref(r));
                    let e = self.error_value(RuntimeError::ConOverApplied)?;
                    let r = match self.roots.swap_remove(slot) {
                        HValue::Ref(r) => r,
                        HValue::Int(_) => {
                            return Err(HwError::BadState("rooted thunk became an integer"))
                        }
                    };
                    self.charge(self.cost.update);
                    *self.heap.get_mut(r)? = HeapObj::Ind(e);
                    Ok(State::Return(e))
                }
            }
        } else {
            if args.len() < arity {
                self.charge(self.cost.pap_check);
                return Ok(State::Return(HValue::Ref(r)));
            }
            self.push_update(r)?;
            *self.heap.get_mut(r)? = HeapObj::BlackHole;
            if args.len() > arity {
                let rest = args.split_off(arity);
                self.conts.push(Cont::Apply(rest));
            }
            self.charge(self.cost.enter_fun);
            if let Some(&cid) = self.coroutines.get(&id) {
                self.flush_cycles();
                self.sink.emit(|| Event::CoroutineEnter { id: cid });
            }
            self.frames.push(Frame {
                item: id,
                args,
                locals: Vec::with_capacity(locals),
                pc: body_off,
            });
            Ok(State::Exec)
        }
    }

    /// Deliver a WHNF to the innermost continuation. `Ok(None)` means the
    /// continuation stack is empty — `v` is the final answer.
    fn step_return(
        &mut self,
        v: HValue,
        ports: &mut dyn IoPorts,
    ) -> Result<Option<State>, HwError> {
        let cont = match self.conts.pop() {
            Some(c) => c,
            None => {
                debug_assert!(self.frames.is_empty(), "value with live frames");
                return Ok(None);
            }
        };
        match cont {
            Cont::Update(t) => {
                self.charge(self.cost.update);
                *self.heap.get_mut(t)? = HeapObj::Ind(v);
                Ok(Some(State::Return(v)))
            }
            Cont::Apply(more) => {
                if self.is_error(v) {
                    return Ok(Some(State::Return(v)));
                }
                match v {
                    HValue::Int(_) => {
                        let e = self.error_value(RuntimeError::ApplyToInt)?;
                        Ok(Some(State::Return(e)))
                    }
                    HValue::Ref(r) => match self.heap.get(r)? {
                        HeapObj::Con { .. } => {
                            let e = self.error_value(RuntimeError::ApplyToCon)?;
                            Ok(Some(State::Return(e)))
                        }
                        HeapObj::App { target, args } => {
                            // A PAP: extend it with the new arguments.
                            let target = *target;
                            let mut all = args.clone();
                            all.extend(more);
                            self.charge(self.cost.pap_extend);
                            let nr = self.alloc_gc(HeapObj::App { target, args: all })?;
                            Ok(Some(State::Force(HValue::Ref(nr))))
                        }
                        _ => Err(HwError::BadState("apply to a non-WHNF value")),
                    },
                }
            }
            Cont::CaseDispatch => self.case_dispatch(v).map(Some),
            Cont::ResumeExec => Ok(Some(State::Exec)),
            Cont::PrimArgs {
                op,
                mut pending,
                mut ints,
            } => {
                if self.is_error(v) {
                    return Ok(Some(State::Return(v)));
                }
                let n = match v {
                    HValue::Int(n) => n,
                    HValue::Ref(_) => {
                        let e = self.error_value(RuntimeError::PrimOnNonInt)?;
                        return Ok(Some(State::Return(e)));
                    }
                };
                self.charge(self.cost.prim_fetch);
                ints.push(n);
                if let Some(next) = pending.pop() {
                    self.conts.push(Cont::PrimArgs { op, pending, ints });
                    return Ok(Some(State::Force(next)));
                }
                // Saturated: execute.
                self.charge(self.cost.prim_op);
                let result = match op {
                    PrimOp::GetInt => {
                        self.charge(self.cost.io_port);
                        let n = ports.getint(ints[0])?;
                        self.sink.emit(|| Event::IoRead {
                            port: ints[0] as i64,
                            value: n as i64,
                        });
                        HValue::Int(n)
                    }
                    PrimOp::PutInt => {
                        self.charge(self.cost.io_port);
                        let n = ports.putint(ints[0], ints[1])?;
                        self.sink.emit(|| Event::IoWrite {
                            port: ints[0] as i64,
                            value: ints[1] as i64,
                        });
                        HValue::Int(n)
                    }
                    PrimOp::Gc => {
                        let report = self.do_gc(&mut [])?;
                        HValue::Int(report.words_reclaimed as Int)
                    }
                    _ => match op.eval_pure(&ints) {
                        Ok(n) => HValue::Int(n),
                        Err(e) => self.error_value(e)?,
                    },
                };
                Ok(Some(State::Return(result)))
            }
        }
    }

    /// Scan the pattern words of the suspended `case` against the WHNF
    /// scrutinee. Each branch head costs exactly one cycle.
    fn case_dispatch(&mut self, v: HValue) -> Result<State, HwError> {
        // Error scrutinee: the whole function yields the error.
        if self.is_error(v) {
            let frame = self.pop_frame()?;
            self.emit_coroutine_exit(frame.item);
            return Ok(State::Force(v));
        }
        enum Scrut {
            Int(Int),
            Con(u32, Vec<HValue>),
            Closure,
        }
        let scrut = match v {
            HValue::Int(n) => Scrut::Int(n),
            HValue::Ref(r) => match self.heap.get(r)? {
                HeapObj::Con { id, fields } => Scrut::Con(*id, fields.clone()),
                HeapObj::App { .. } => Scrut::Closure,
                _ => return Err(HwError::BadState("case scrutinee is not in WHNF")),
            },
        };
        if let Scrut::Closure = scrut {
            let e = self.error_value(RuntimeError::CaseOnClosure)?;
            let frame = self.pop_frame()?;
            self.emit_coroutine_exit(frame.item);
            return Ok(State::Force(e));
        }

        self.class = Class::Case;
        let mut pc = self.top_frame()?.pc;
        loop {
            let w = self.code_word(pc)?;
            match word_tag(w) {
                TAG_ELSE => {
                    pc += 1;
                    break;
                }
                TAG_PAT_LIT => {
                    self.begin_instr(Class::BranchHead, pc);
                    self.charge(self.cost.branch_head);
                    self.class = Class::Case;
                    let value = self.code_word(pc + 1)? as Int;
                    if let Scrut::Int(n) = scrut {
                        if n == value {
                            pc += 2;
                            break;
                        }
                    }
                    pc += 2 + unpack_pattern_skip(w);
                }
                TAG_PAT_CON => {
                    self.begin_instr(Class::BranchHead, pc);
                    self.charge(self.cost.branch_head);
                    self.class = Class::Case;
                    let want = self.code_word(pc + 1)?;
                    if let Scrut::Con(id, ref fields) = scrut {
                        if id == want {
                            // Bind the fields into consecutive local slots.
                            let fields = fields.clone();
                            let nf = fields.len() as u64;
                            let frame = self.top_frame_mut()?;
                            frame.locals.extend(fields);
                            self.charge(self.cost.bind_field * nf);
                            pc += 2;
                            break;
                        }
                    }
                    pc += 2 + unpack_pattern_skip(w);
                }
                _ => return Err(HwError::BadState("unknown pattern tag")),
            }
        }
        self.top_frame_mut()?.pc = pc;
        Ok(State::Exec)
    }

    // -- value extraction -----------------------------------------------------

    /// Read field `i` of a weak-head-normal constructor value (following
    /// indirections). Hosts use this to deconstruct results — e.g. pull the
    /// new state out of a `Pair state out` — without deep-forcing.
    pub fn con_field(&self, v: HValue, i: usize) -> Option<HValue> {
        match v {
            HValue::Int(_) => None,
            HValue::Ref(r) => match self.heap.get(r) {
                Ok(HeapObj::Con { fields, .. }) => fields.get(i).copied(),
                Ok(HeapObj::Ind(inner)) => self.con_field(*inner, i),
                _ => None,
            },
        }
    }

    /// View a WHNF value as an integer, if it is one.
    pub fn as_int(&self, v: HValue) -> Option<Int> {
        match v {
            HValue::Int(n) => Some(n),
            HValue::Ref(r) => match self.heap.get(r) {
                Ok(HeapObj::Ind(inner)) => self.as_int(*inner),
                _ => None,
            },
        }
    }

    /// Deep-force a value and convert it into the reference semantics'
    /// [`Value`] type for differential comparison. Fields of constructors
    /// are forced recursively; partial applications convert to closures
    /// with their applied arguments.
    pub fn deep_value(&mut self, v: HValue, ports: &mut dyn IoPorts) -> Result<V, HwError> {
        let w = self.run_machine(State::Force(v), ports)?;
        match w {
            HValue::Int(n) => Ok(Value::int(n)),
            HValue::Ref(r) => match self.heap.get(r)?.clone() {
                HeapObj::Con { id, fields } => {
                    if id == ERROR_CON_INDEX {
                        let code = fields
                            .first()
                            .and_then(|f| self.as_int(*f))
                            .unwrap_or(RuntimeError::Propagated.code());
                        return Ok(Value::error(
                            RuntimeError::from_code(code).unwrap_or(RuntimeError::Propagated),
                        ));
                    }
                    let out = self.deep_fields(&fields, ports)?;
                    Ok(Value::con(self.item_name(id), out))
                }
                HeapObj::App { target, args } => {
                    let t = match target {
                        AppTarget::Global(id) => match PrimOp::from_index(id) {
                            Some(p) => ClosureTarget::Prim(p),
                            None => {
                                let name = self.item_name(id);
                                if self.item(id).map(|m| m.is_con).unwrap_or(false) {
                                    ClosureTarget::Con(name)
                                } else {
                                    ClosureTarget::Fn(name)
                                }
                            }
                        },
                        AppTarget::Value(_) => {
                            return Err(HwError::BadState("WHNF app without a global target"))
                        }
                    };
                    let out = self.deep_fields(&args, ports)?;
                    Ok(Value::closure(t, out))
                }
                HeapObj::Ind(inner) => self.deep_value(inner, ports),
                _ => Err(HwError::BadState("deep_value on a non-WHNF object")),
            },
        }
    }

    /// Deep-force a payload vector, keeping the not-yet-forced slots rooted
    /// so a collection triggered mid-way cannot invalidate them.
    fn deep_fields(
        &mut self,
        fields: &[HValue],
        ports: &mut dyn IoPorts,
    ) -> Result<Vec<V>, HwError> {
        let base = self.roots.len();
        self.roots.extend_from_slice(fields);
        let mut out = Vec::with_capacity(fields.len());
        for i in 0..fields.len() {
            let f = self.roots[base + i];
            match self.deep_value(f, ports) {
                Ok(v) => out.push(v),
                Err(e) => {
                    self.roots.truncate(base);
                    return Err(e);
                }
            }
        }
        self.roots.truncate(base);
        Ok(out)
    }

    fn item_name(&self, id: u32) -> std::rc::Rc<str> {
        match self.item(id).and_then(|m| m.name.clone()) {
            Some(n) => n.as_str().into(),
            None => format!("g_{id:x}").as_str().into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zarf_asm::{lower, parse};
    use zarf_core::io::{NullPorts, VecPorts};

    fn hw(src: &str) -> Hw {
        Hw::from_machine(&lower(&parse(src).unwrap()).unwrap()).unwrap()
    }

    fn run_int(src: &str) -> Int {
        let mut h = hw(src);
        let v = h.run(&mut NullPorts).unwrap();
        h.as_int(v).expect("integer result")
    }

    #[test]
    fn arithmetic() {
        assert_eq!(run_int("fun main =\n let a = add 20 22 in\n result a"), 42);
    }

    #[test]
    fn laziness_unused_lets_never_evaluate() {
        // An unused division by zero must not fault a lazy machine.
        let src = "fun main =\n let bad = div 1 0 in\n let ok = add 1 2 in\n result ok";
        assert_eq!(run_int(src), 3);
    }

    #[test]
    fn case_forces_and_dispatches() {
        let src = r#"
fun main =
  let x = add 1 2 in
  case x of
  | 3 => result 30
  | 4 => result 40
  else result 0
"#;
        assert_eq!(run_int(src), 30);
    }

    #[test]
    fn constructor_match_binds_fields() {
        let src = r#"
con Pair a b
fun main =
  let p = Pair 6 7 in
  case p of
  | Pair a b =>
    let m = mul a b in
    result m
  else result 0
"#;
        assert_eq!(run_int(src), 42);
    }

    #[test]
    fn recursion_map_sum() {
        let src = r#"
con Nil
con Cons head tail
fun map f list =
  case list of
  | Nil =>
    let e = Nil in
    result e
  | Cons x rest =>
    let x' = f x in
    let rest' = map f rest in
    let l = Cons x' rest' in
    result l
  else
    let e = Nil in
    result e
fun double n =
  let m = mul n 2 in
  result m
fun sum l =
  case l of
  | Nil => result 0
  | Cons h t =>
    let s = sum t in
    let r = add h s in
    result r
  else result -1
fun main =
  let nil = Nil in
  let l3 = Cons 3 nil in
  let l2 = Cons 2 l3 in
  let l1 = Cons 1 l2 in
  let d = double in
  let m = map d l1 in
  let s = sum m in
  result s
"#;
        assert_eq!(run_int(src), 12);
    }

    #[test]
    fn partial_application_and_over_application() {
        let src = r#"
fun addclo x =
  let c = add x in
  result c
fun main =
  let r = addclo 40 2 in
  result r
"#;
        assert_eq!(run_int(src), 42);
    }

    #[test]
    fn io_ordering_through_data_dependencies() {
        let src = r#"
fun main =
  let a = getint 0 in
  let b = add a 1 in
  let c = putint 1 b in
  result c
"#;
        let mut h = hw(src);
        let mut ports = VecPorts::new();
        ports.push_input(0, [41]);
        let v = h.run(&mut ports).unwrap();
        assert_eq!(h.as_int(v), Some(42));
        assert_eq!(ports.output(1), &[42]);
    }

    #[test]
    fn division_by_zero_produces_error_value() {
        let src = "fun main =\n let x = div 1 0 in\n result x";
        let mut h = hw(src);
        let v = h.run(&mut NullPorts).unwrap();
        let dv = h.deep_value(v, &mut NullPorts).unwrap();
        assert_eq!(&*dv, &Value::Error(RuntimeError::DivideByZero));
    }

    #[test]
    fn tail_recursion_runs_in_constant_space() {
        // count down from 200_000 — would overflow any per-call stack or
        // continuation growth.
        let src = r#"
fun count n =
  case n of
  | 0 => result 0
  else
    let m = sub n 1 in
    let r = count m in
    result r
fun main =
  let r = count 200000 in
  result r
"#;
        let mut h = Hw::from_machine_with(
            &lower(&parse(src).unwrap()).unwrap(),
            HwConfig {
                heap_words: 8 * 1024,
                ..HwConfig::default()
            },
        )
        .unwrap();
        let v = h.run(&mut NullPorts).unwrap();
        assert_eq!(h.as_int(v), Some(0));
        // Auto-GC must have run to keep 200k thunks inside 8k words.
        assert!(h.stats().gc_runs > 0);
    }

    #[test]
    fn infinite_loop_detected_as_black_hole() {
        // x demands itself: let x = add x 1 — lowering cannot express this
        // (no name is in scope before binding), so build a knot through a
        // function with its own argument... Simplest: a CAF that demands
        // itself via a global cycle.
        let src = r#"
fun loop =
  let x = loop in
  case x of
  | 0 => result 0
  else result 1
fun main =
  let l = loop in
  case l of
  | 0 => result 0
  else result 1
"#;
        let mut h = hw(src);
        let err = h.run(&mut NullPorts).unwrap_err();
        // Either the black hole is hit (self-demand through the thunk) or
        // the machine loops allocating; a cycle limit would also be fine.
        assert!(matches!(
            err,
            HwError::InfiniteLoop | HwError::OutOfMemory { .. }
        ));
    }

    #[test]
    fn cycle_limit_enforced() {
        let src = r#"
fun spin n =
  let m = add n 1 in
  let r = spin m in
  result r
fun main =
  let r = spin 0 in
  result r
"#;
        let mut h = Hw::from_machine_with(
            &lower(&parse(src).unwrap()).unwrap(),
            HwConfig {
                cycle_limit: Some(10_000),
                ..HwConfig::default()
            },
        )
        .unwrap();
        let err = h.run(&mut NullPorts).unwrap_err();
        assert_eq!(err, HwError::CycleLimit(10_000));
    }

    #[test]
    fn out_of_memory_without_auto_gc() {
        let src = r#"
fun spin n =
  let m = add n 1 in
  let r = spin m in
  result r
fun main =
  let r = spin 0 in
  result r
"#;
        let mut h = Hw::from_machine_with(
            &lower(&parse(src).unwrap()).unwrap(),
            HwConfig {
                heap_words: 256,
                gc_auto: false,
                ..HwConfig::default()
            },
        )
        .unwrap();
        let err = h.run(&mut NullPorts).unwrap_err();
        assert!(matches!(err, HwError::OutOfMemory { .. }));
    }

    #[test]
    fn gc_prim_reclaims_garbage() {
        let src = r#"
fun main =
  let g1 = add 1 2 in
  let g2 = add 3 4 in
  case g1 of
  | 3 =>
    let freed = gc 0 in
    case freed of
    | 0 => result -1
    else result freed
  else result -2
"#;
        let mut h = hw(src);
        let v = h.run(&mut NullPorts).unwrap();
        // g2 was never demanded and is garbage at gc time; some words are
        // reclaimed (exact count depends on transient objects).
        let freed = h.as_int(v).unwrap();
        assert!(freed > 0, "expected reclaimed words, got {freed}");
        assert_eq!(h.stats().gc_runs, 1);
    }

    #[test]
    fn stats_count_instruction_classes() {
        let src = r#"
fun main =
  let a = add 1 2 in
  case a of
  | 2 => result 0
  | 3 => result 1
  else result 2
"#;
        let mut h = hw(src);
        h.run(&mut NullPorts).unwrap();
        let s = h.stats();
        assert_eq!(s.lets.count, 1);
        assert_eq!(s.cases.count, 1);
        assert_eq!(s.results.count, 1);
        assert_eq!(s.branch_heads.count, 2); // checked | 2 then | 3
        assert_eq!(s.branch_heads.cycles, 2); // exactly 1 cycle each
        assert_eq!(s.let_args, 2);
        assert!(s.mutator_cycles() > 4);
    }

    #[test]
    fn call_persists_state_across_invocations() {
        let src = r#"
con Pair a b
fun step state input =
  let sum = add state input in
  let out = mul sum 2 in
  let p = Pair sum out in
  result p
fun main = result 0
"#;
        let mut h = hw(src);
        let mut ports = NullPorts;
        let mut state = HValue::Int(0);
        let slot = h.push_root(state);
        let mut outputs = Vec::new();
        for input in [1, 2, 3] {
            let p = h
                .call_by_name("step", vec![state, HValue::Int(input)], &mut ports)
                .unwrap();
            // Deconstruct the pair on the host side via deep_value.
            let dv = h.deep_value(p, &mut ports).unwrap();
            let (_, fields) = dv.as_con().unwrap();
            let new_state = fields[0].as_int().unwrap();
            outputs.push(fields[1].as_int().unwrap());
            state = HValue::Int(new_state);
            h.set_root(slot, state);
        }
        assert_eq!(outputs, vec![2, 6, 12]);
    }

    #[test]
    fn deep_value_agrees_with_reference_evaluator() {
        let src = r#"
con Nil
con Cons head tail
fun upto n =
  case n of
  | 0 =>
    let e = Nil in
    result e
  else
    let m = sub n 1 in
    let rest = upto m in
    let l = Cons n rest in
    result l
fun main =
  let l = upto 5 in
  result l
"#;
        let program = parse(src).unwrap();
        let expected = zarf_core::Evaluator::new(&program)
            .run(&mut NullPorts)
            .unwrap();
        let mut h = hw(src);
        let v = h.run(&mut NullPorts).unwrap();
        let got = h.deep_value(v, &mut NullPorts).unwrap();
        assert_eq!(got, expected);
    }

    #[test]
    fn malformed_binary_rejected_at_load() {
        let err = Hw::load(&[0x1234, 0]).unwrap_err();
        assert!(matches!(err, HwError::Load(DecodeError::BadMagic(_))));
    }

    #[test]
    fn closure_passed_and_applied_through_variable() {
        let src = r#"
fun apply f x =
  let r = f x in
  result r
fun triple n =
  let m = mul n 3 in
  result m
fun main =
  let t = triple in
  let r = apply t 14 in
  result r
"#;
        assert_eq!(run_int(src), 42);
    }
}
