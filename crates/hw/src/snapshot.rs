//! Crash-consistent machine snapshots.
//!
//! A [`MachineSnapshot`] is a GC-style compacting copy of everything the
//! λ-machine needs to resume at a quiescent point: the validated binary
//! image, the retained symbol table, the live heap (compacted exactly the
//! way [`Heap::collect`](crate::Heap) would lay it out), the host roots,
//! and the cycle accounting. Restoring one yields a machine that is
//! *trace-equivalent going forward* — the event stream it produces from
//! the resume point is byte-identical to what the uninterrupted machine
//! would have produced.
//!
//! The byte format is deliberately dumb: a magic/version header followed
//! by tagged sections, each independently CRC-32 checksummed. Sections
//! with tags below [`FIRST_EMBEDDER_TAG`] belong to the machine layer;
//! embedders (the kernel) append their own sections above it in the same
//! container. Every decode path returns a typed [`SnapshotError`] — a
//! corrupt snapshot is an *expected input*, never a panic.
//!
//! Trust comes from the auditor, not the checksum: a snapshot heap is
//! strictly audited (see [`crate::audit`]) both when captured and before
//! it is allowed to overwrite a live machine.

use std::fmt;

use zarf_core::{crc32, ByteError, ByteReader, Word};

use crate::audit::{audit_objects, AuditError};
use crate::heap::Heap;
use crate::machine::{Hw, HwConfig, HwError};
use crate::obj::{AppTarget, HValue, HeapObj, HeapRef};
use crate::stats::{Class, ClassStats, Stats};

/// First four bytes of every snapshot container.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"ZSNP";
/// Current container format version.
pub const SNAPSHOT_VERSION: u32 = 1;
/// Section tags at or above this value belong to the embedder (the
/// kernel); the machine layer ignores them when decoding.
pub const FIRST_EMBEDDER_TAG: u32 = 16;

/// Machine-layer section tags.
const TAG_CODE: u32 = 1;
const TAG_NAMES: u32 = 2;
const TAG_HEAP: u32 = 3;
const TAG_ROOTS: u32 = 4;
const TAG_STATS: u32 = 5;
const TAG_CONTROL: u32 = 6;

/// Why a snapshot could not be captured, decoded, or restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Capture requires quiescence: no call may be in flight.
    MachineBusy,
    /// Capture followed a reference that points outside the heap.
    Dangling(HeapRef),
    /// Capture found a GC forwarding pointer in a supposedly stable heap.
    ForwardedLive(HeapRef),
    /// The byte stream ended before the structure it promised.
    Truncated,
    /// The container does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The container's version is not [`SNAPSHOT_VERSION`].
    BadVersion(u32),
    /// A section tag this decoder does not recognise.
    UnknownSection(u32),
    /// The same section tag appeared twice.
    DuplicateSection(u32),
    /// A required section is absent.
    MissingSection(u32),
    /// A section's payload does not match its checksum.
    CrcMismatch {
        /// Tag of the damaged section.
        section: u32,
    },
    /// A section's payload decoded to something structurally impossible.
    Malformed(&'static str),
    /// The decoded heap failed its structural audit.
    Audit(AuditError),
    /// The embedded binary image failed re-validation at restore.
    Load(String),
    /// In-place restore was asked to overwrite a machine running a
    /// different binary image.
    CodeMismatch,
}

impl SnapshotError {
    /// Stable short name, used in trace events and CLI output.
    pub fn kind(&self) -> &'static str {
        match self {
            SnapshotError::MachineBusy => "machine-busy",
            SnapshotError::Dangling(_) => "dangling",
            SnapshotError::ForwardedLive(_) => "forwarded",
            SnapshotError::Truncated => "truncated",
            SnapshotError::BadMagic => "bad-magic",
            SnapshotError::BadVersion(_) => "bad-version",
            SnapshotError::UnknownSection(_) => "unknown-section",
            SnapshotError::DuplicateSection(_) => "duplicate-section",
            SnapshotError::MissingSection(_) => "missing-section",
            SnapshotError::CrcMismatch { .. } => "crc-mismatch",
            SnapshotError::Malformed(_) => "malformed",
            SnapshotError::Audit(e) => e.kind(),
            SnapshotError::Load(_) => "load",
            SnapshotError::CodeMismatch => "code-mismatch",
        }
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::MachineBusy => write!(f, "machine has a call in flight"),
            SnapshotError::Dangling(r) => write!(f, "dangling reference {r:#x}"),
            SnapshotError::ForwardedLive(r) => {
                write!(f, "forwarding pointer at {r:#x} outside GC")
            }
            SnapshotError::Truncated => write!(f, "byte stream truncated"),
            SnapshotError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            SnapshotError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::UnknownSection(t) => write!(f, "unknown section tag {t}"),
            SnapshotError::DuplicateSection(t) => write!(f, "duplicate section tag {t}"),
            SnapshotError::MissingSection(t) => write!(f, "missing section tag {t}"),
            SnapshotError::CrcMismatch { section } => {
                write!(f, "checksum mismatch in section {section}")
            }
            SnapshotError::Malformed(what) => write!(f, "malformed snapshot: {what}"),
            SnapshotError::Audit(e) => write!(f, "snapshot heap failed audit: {e}"),
            SnapshotError::Load(e) => write!(f, "embedded image rejected: {e}"),
            SnapshotError::CodeMismatch => {
                write!(f, "snapshot was captured from a different binary image")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<ByteError> for SnapshotError {
    fn from(e: ByteError) -> Self {
        match e {
            ByteError::Truncated => SnapshotError::Truncated,
            ByteError::Trailing => SnapshotError::Malformed("trailing bytes"),
            ByteError::Invalid(what) => SnapshotError::Malformed(what),
        }
    }
}

impl From<AuditError> for SnapshotError {
    fn from(e: AuditError) -> Self {
        SnapshotError::Audit(e)
    }
}

/// Incremental builder for a snapshot container: header, then one call to
/// [`SectionWriter::section`] per section, then [`SectionWriter::finish`].
#[derive(Debug)]
pub struct SectionWriter {
    buf: Vec<u8>,
    count: u32,
}

impl SectionWriter {
    /// Start a container: magic, version, and a count patched by `finish`.
    pub fn new() -> Self {
        let mut buf = Vec::new();
        buf.extend_from_slice(&SNAPSHOT_MAGIC);
        buf.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        SectionWriter { buf, count: 0 }
    }

    /// Append one section: tag, length, payload, CRC-32 of the payload
    /// ([`zarf_core::crc32`], the checksum every byte format shares).
    pub fn section(&mut self, tag: u32, payload: &[u8]) {
        self.buf.extend_from_slice(&tag.to_le_bytes());
        self.buf
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(payload);
        self.buf.extend_from_slice(&crc32(payload).to_le_bytes());
        self.count += 1;
    }

    /// Seal the container and return its bytes.
    pub fn finish(mut self) -> Vec<u8> {
        self.buf[8..12].copy_from_slice(&self.count.to_le_bytes());
        self.buf
    }
}

impl Default for SectionWriter {
    fn default() -> Self {
        Self::new()
    }
}

/// Split a container into `(tag, payload)` sections, verifying the magic,
/// version, per-section checksums, and that no bytes trail the last
/// section. Duplicate tags are rejected; unknown tags are the *caller's*
/// concern (the kernel stores its sections next to the machine's).
pub fn read_sections(bytes: &[u8]) -> Result<Vec<(u32, &[u8])>, SnapshotError> {
    let mut r = ByteReader::new(bytes);
    if r.take(4)? != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = r.u32()?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::BadVersion(version));
    }
    let count = r.u32()?;
    let mut sections = Vec::new();
    for _ in 0..count {
        let tag = r.u32()?;
        let len = r.u32()? as usize;
        let payload = r.take(len)?;
        let crc = r.u32()?;
        if crc32(payload) != crc {
            return Err(SnapshotError::CrcMismatch { section: tag });
        }
        if sections.iter().any(|&(t, _)| t == tag) {
            return Err(SnapshotError::DuplicateSection(tag));
        }
        sections.push((tag, payload));
    }
    r.finish()?;
    Ok(sections)
}

/// Cheap structural check of a `ZSNP` container: magic, version, section
/// framing, per-section CRCs, no trailing bytes. The transport seam for
/// snapshot movers (durable stores, fleet-to-fleet sync): verify bytes on
/// arrival without paying for a full decode.
pub fn verify_container(bytes: &[u8]) -> Result<(), SnapshotError> {
    read_sections(bytes).map(|_| ())
}

/// Encoded width of one [`HValue`]: a tag byte and a 32-bit word.
const HVALUE_BYTES: usize = 5;

fn put_hvalue(buf: &mut Vec<u8>, v: HValue) -> Result<(), SnapshotError> {
    match v {
        HValue::Int(n) => {
            buf.push(0);
            buf.extend_from_slice(&n.to_le_bytes());
        }
        HValue::Ref(r) => {
            let r = u32::try_from(r).map_err(|_| SnapshotError::Malformed("reference width"))?;
            buf.push(1);
            buf.extend_from_slice(&r.to_le_bytes());
        }
    }
    Ok(())
}

fn get_hvalue(r: &mut ByteReader<'_>) -> Result<HValue, SnapshotError> {
    match r.u8()? {
        0 => Ok(HValue::Int(r.i32()?)),
        1 => Ok(HValue::Ref(r.u32()? as HeapRef)),
        _ => Err(SnapshotError::Malformed("value tag")),
    }
}

fn put_obj(buf: &mut Vec<u8>, obj: &HeapObj) -> Result<(), SnapshotError> {
    let put_list = |buf: &mut Vec<u8>, vs: &[HValue]| -> Result<(), SnapshotError> {
        let n = u32::try_from(vs.len()).map_err(|_| SnapshotError::Malformed("payload width"))?;
        buf.extend_from_slice(&n.to_le_bytes());
        for &v in vs {
            put_hvalue(buf, v)?;
        }
        Ok(())
    };
    match obj {
        HeapObj::App {
            target: AppTarget::Global(id),
            args,
        } => {
            buf.push(0);
            buf.extend_from_slice(&id.to_le_bytes());
            put_list(buf, args)?;
        }
        HeapObj::App {
            target: AppTarget::Value(v),
            args,
        } => {
            buf.push(1);
            put_hvalue(buf, *v)?;
            put_list(buf, args)?;
        }
        HeapObj::Con { id, fields } => {
            buf.push(2);
            buf.extend_from_slice(&id.to_le_bytes());
            put_list(buf, fields)?;
        }
        HeapObj::Ind(v) => {
            buf.push(3);
            put_hvalue(buf, *v)?;
        }
        HeapObj::BlackHole => buf.push(4),
        HeapObj::Forwarded(_) => return Err(SnapshotError::Malformed("forwarded object")),
    }
    Ok(())
}

fn get_obj(r: &mut ByteReader<'_>) -> Result<HeapObj, SnapshotError> {
    let get_list = |r: &mut ByteReader<'_>| -> Result<Vec<HValue>, SnapshotError> {
        let n = r.count(HVALUE_BYTES)?;
        let mut vs = Vec::with_capacity(n);
        for _ in 0..n {
            vs.push(get_hvalue(r)?);
        }
        Ok(vs)
    };
    match r.u8()? {
        0 => {
            let id = r.u32()?;
            let args = get_list(r)?;
            Ok(HeapObj::App {
                target: AppTarget::Global(id),
                args,
            })
        }
        1 => {
            let v = get_hvalue(r)?;
            let args = get_list(r)?;
            Ok(HeapObj::App {
                target: AppTarget::Value(v),
                args,
            })
        }
        2 => {
            let id = r.u32()?;
            let fields = get_list(r)?;
            Ok(HeapObj::Con { id, fields })
        }
        3 => Ok(HeapObj::Ind(get_hvalue(r)?)),
        4 => Ok(HeapObj::BlackHole),
        _ => Err(SnapshotError::Malformed("object tag")),
    }
}

fn class_code(c: Class) -> u8 {
    match c {
        Class::Let => 0,
        Class::Case => 1,
        Class::Result => 2,
        Class::BranchHead => 3,
    }
}

fn class_from(code: u8) -> Result<Class, SnapshotError> {
    match code {
        0 => Ok(Class::Let),
        1 => Ok(Class::Case),
        2 => Ok(Class::Result),
        3 => Ok(Class::BranchHead),
        _ => Err(SnapshotError::Malformed("class code")),
    }
}

/// Copy a value into the snapshot heap, replicating the traversal order
/// of [`Heap::collect`] exactly — indirections are short-circuited, so a
/// capture taken right after a collection reproduces the live heap's
/// layout index for index.
///
/// `fwd` is indexed by source reference (one slot per source object).
fn evacuate(
    v: HValue,
    src: &[HeapObj],
    fwd: &mut [Option<HValue>],
    out: &mut Vec<HeapObj>,
) -> Result<HValue, SnapshotError> {
    let HValue::Ref(r) = v else { return Ok(v) };
    let obj = src.get(r).ok_or(SnapshotError::Dangling(r))?;
    if let Some(Some(dest)) = fwd.get(r) {
        return Ok(*dest);
    }
    let dest = match obj {
        HeapObj::Forwarded(_) => return Err(SnapshotError::ForwardedLive(r)),
        HeapObj::Ind(inner) => evacuate(*inner, src, fwd, out)?,
        _ => {
            out.push(obj.clone());
            HValue::Ref(out.len() - 1)
        }
    };
    if let Some(slot) = fwd.get_mut(r) {
        *slot = Some(dest);
    }
    Ok(dest)
}

/// A self-contained, restorable copy of a quiescent λ-machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineSnapshot {
    /// The validated binary image.
    pub code: Vec<Word>,
    /// Retained symbols, identifier-sorted.
    pub names: Vec<(u32, String)>,
    /// Semispace capacity of the captured machine, in words.
    pub heap_capacity: usize,
    /// The compacted live heap.
    pub objects: Vec<HeapObj>,
    /// Host root slots, rewritten into the compacted heap.
    pub roots: Vec<HValue>,
    /// Cycle accounting at the capture point.
    pub stats: Stats,
    /// Instruction class cycles were being attributed to.
    pub class: Class,
}

impl MachineSnapshot {
    /// Capture a quiescent machine. The live heap is compacted with a
    /// non-destructive copy of the collector's traversal, then strictly
    /// audited — a snapshot that cannot pass its own audit is refused at
    /// birth rather than discovered dead at rollback.
    pub fn capture(hw: &Hw) -> Result<Self, SnapshotError> {
        if !hw.is_quiescent() {
            return Err(SnapshotError::MachineBusy);
        }
        let src = hw.heap().objects();
        let mut fwd: Vec<Option<HValue>> = vec![None; src.len()];
        let mut objects: Vec<HeapObj> = Vec::new();
        let mut roots = Vec::with_capacity(hw.host_roots().len());
        for &r in hw.host_roots() {
            roots.push(evacuate(r, src, &mut fwd, &mut objects)?);
        }
        // Breadth-first scan, same as the collector: rewrite each copied
        // object's children in place, evacuating as we go.
        let mut scan = 0;
        while scan < objects.len() {
            let mut obj = std::mem::replace(&mut objects[scan], HeapObj::BlackHole);
            match &mut obj {
                HeapObj::App { target, args } => {
                    if let AppTarget::Value(v) = target {
                        *v = evacuate(*v, src, &mut fwd, &mut objects)?;
                    }
                    for a in args.iter_mut() {
                        *a = evacuate(*a, src, &mut fwd, &mut objects)?;
                    }
                }
                HeapObj::Con { fields, .. } => {
                    for fv in fields.iter_mut() {
                        *fv = evacuate(*fv, src, &mut fwd, &mut objects)?;
                    }
                }
                // Indirections are never copied (short-circuited above);
                // black holes have no children; forwarding pointers were
                // already rejected during evacuation.
                HeapObj::Ind(_) | HeapObj::BlackHole | HeapObj::Forwarded(_) => {}
            }
            objects[scan] = obj;
            scan += 1;
        }

        let snapshot = MachineSnapshot {
            code: hw.code_words().to_vec(),
            names: hw.name_table().to_vec(),
            heap_capacity: hw.heap().capacity_words(),
            objects,
            roots,
            stats: hw.stats().clone(),
            class: hw.accounting_class(),
        };
        snapshot.audit(&|id| hw.item_shape(id))?;
        Ok(snapshot)
    }

    /// Strictly audit the snapshot heap: structure, bounds, arity, and
    /// full reachability (a compacted heap *is* the live set).
    pub fn audit(
        &self,
        item_shape: &dyn Fn(u32) -> Option<(usize, bool)>,
    ) -> Result<crate::audit::AuditReport, SnapshotError> {
        audit_objects(&self.objects, None, &self.roots, item_shape, true)
            .map_err(SnapshotError::Audit)
    }

    /// Audit against the snapshot's *own* embedded code image, rescanning
    /// its item headers for constructor/function shapes. This is how a
    /// snapshot decoded from untrusted bytes is vetted without a machine.
    pub fn audit_self_contained(&self) -> Result<crate::audit::AuditReport, SnapshotError> {
        let shapes = scan_item_shapes(&self.code)?;
        self.audit(&|id| {
            id.checked_sub(zarf_core::prim::FIRST_USER_INDEX)
                .and_then(|i| shapes.get(i as usize).copied())
        })
    }

    /// Serialize into a fresh single-snapshot container.
    pub fn to_bytes(&self) -> Result<Vec<u8>, SnapshotError> {
        let mut w = SectionWriter::new();
        self.write_sections(&mut w)?;
        Ok(w.finish())
    }

    /// Append this snapshot's sections to a container under construction
    /// (the kernel adds its own sections to the same writer).
    pub fn write_sections(&self, w: &mut SectionWriter) -> Result<(), SnapshotError> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(self.code.len() as u32).to_le_bytes());
        for &word in &self.code {
            buf.extend_from_slice(&word.to_le_bytes());
        }
        w.section(TAG_CODE, &buf);

        buf.clear();
        buf.extend_from_slice(&(self.names.len() as u32).to_le_bytes());
        for (id, name) in &self.names {
            buf.extend_from_slice(&id.to_le_bytes());
            buf.extend_from_slice(&(name.len() as u32).to_le_bytes());
            buf.extend_from_slice(name.as_bytes());
        }
        w.section(TAG_NAMES, &buf);

        buf.clear();
        buf.extend_from_slice(&(self.objects.len() as u32).to_le_bytes());
        for obj in &self.objects {
            put_obj(&mut buf, obj)?;
        }
        w.section(TAG_HEAP, &buf);

        buf.clear();
        buf.extend_from_slice(&(self.roots.len() as u32).to_le_bytes());
        for &r in &self.roots {
            put_hvalue(&mut buf, r)?;
        }
        w.section(TAG_ROOTS, &buf);

        buf.clear();
        for n in stats_words(&self.stats) {
            buf.extend_from_slice(&n.to_le_bytes());
        }
        w.section(TAG_STATS, &buf);

        buf.clear();
        buf.extend_from_slice(&(self.heap_capacity as u64).to_le_bytes());
        buf.push(class_code(self.class));
        w.section(TAG_CONTROL, &buf);
        Ok(())
    }

    /// Decode a single-snapshot container produced by
    /// [`MachineSnapshot::to_bytes`]. Unknown machine-layer tags are an
    /// error; embedder tags (≥ [`FIRST_EMBEDDER_TAG`]) are ignored.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        Self::from_sections(&read_sections(bytes)?)
    }

    /// Decode from already-split container sections.
    pub fn from_sections(sections: &[(u32, &[u8])]) -> Result<Self, SnapshotError> {
        let mut code = None;
        let mut names = None;
        let mut objects = None;
        let mut roots = None;
        let mut stats = None;
        let mut control = None;
        for &(tag, payload) in sections {
            match tag {
                TAG_CODE => {
                    let mut r = ByteReader::new(payload);
                    let n = r.count(4)?;
                    let mut words = Vec::with_capacity(n);
                    for _ in 0..n {
                        words.push(r.u32()?);
                    }
                    r.finish()?;
                    code = Some(words);
                }
                TAG_NAMES => {
                    let mut r = ByteReader::new(payload);
                    // Each row is at least an id and a length.
                    let n = r.count(8)?;
                    let mut rows = Vec::with_capacity(n);
                    for _ in 0..n {
                        let id = r.u32()?;
                        let len = r.u32()? as usize;
                        let name = std::str::from_utf8(r.take(len)?)
                            .map_err(|_| SnapshotError::Malformed("name encoding"))?;
                        rows.push((id, name.to_string()));
                    }
                    r.finish()?;
                    names = Some(rows);
                }
                TAG_HEAP => {
                    let mut r = ByteReader::new(payload);
                    // The smallest object is a lone tag byte.
                    let n = r.count(1)?;
                    let mut objs = Vec::with_capacity(n);
                    for _ in 0..n {
                        objs.push(get_obj(&mut r)?);
                    }
                    r.finish()?;
                    objects = Some(objs);
                }
                TAG_ROOTS => {
                    let mut r = ByteReader::new(payload);
                    let n = r.count(HVALUE_BYTES)?;
                    let mut vs = Vec::with_capacity(n);
                    for _ in 0..n {
                        vs.push(get_hvalue(&mut r)?);
                    }
                    r.finish()?;
                    roots = Some(vs);
                }
                TAG_STATS => {
                    let mut r = ByteReader::new(payload);
                    let mut words = [0u64; STATS_WORDS];
                    for w in words.iter_mut() {
                        *w = r.u64()?;
                    }
                    r.finish()?;
                    stats = Some(stats_from_words(&words));
                }
                TAG_CONTROL => {
                    let mut r = ByteReader::new(payload);
                    let capacity = r.u64()? as usize;
                    let class = class_from(r.u8()?)?;
                    r.finish()?;
                    control = Some((capacity, class));
                }
                t if t >= FIRST_EMBEDDER_TAG => {}
                t => return Err(SnapshotError::UnknownSection(t)),
            }
        }
        let (heap_capacity, class) = control.ok_or(SnapshotError::MissingSection(TAG_CONTROL))?;
        Ok(MachineSnapshot {
            code: code.ok_or(SnapshotError::MissingSection(TAG_CODE))?,
            names: names.ok_or(SnapshotError::MissingSection(TAG_NAMES))?,
            heap_capacity,
            objects: objects.ok_or(SnapshotError::MissingSection(TAG_HEAP))?,
            roots: roots.ok_or(SnapshotError::MissingSection(TAG_ROOTS))?,
            stats: stats.ok_or(SnapshotError::MissingSection(TAG_STATS))?,
            class,
        })
    }

    /// Overwrite a live machine's mutable state with this snapshot. The
    /// machine must be running the same binary image; the snapshot heap
    /// is strictly audited first, so a corrupt checkpoint can never
    /// replace a healthy machine.
    pub fn restore_into(&self, hw: &mut Hw) -> Result<(), SnapshotError> {
        self.vet_for(hw)?;
        let heap = Heap::from_parts(self.heap_capacity, self.objects.clone());
        hw.restore_parts(heap, self.roots.clone(), self.stats.clone(), self.class);
        Ok(())
    }

    /// The checks [`MachineSnapshot::restore_into`] runs before touching
    /// `hw`: same image, and a strict audit against its item table.
    fn vet_for(&self, hw: &Hw) -> Result<(), SnapshotError> {
        if hw.code_words() != self.code.as_slice() {
            return Err(SnapshotError::CodeMismatch);
        }
        self.audit(&|id| hw.item_shape(id))?;
        Ok(())
    }

    /// Build a fresh machine from the snapshot alone: reload the embedded
    /// image with its symbols, then restore. `config`'s heap size is
    /// overridden by the snapshot's capacity.
    pub fn to_hw(&self, config: HwConfig) -> Result<Hw, SnapshotError> {
        self.clone().into_hw(config)
    }

    /// [`MachineSnapshot::to_hw`], moving the heap into the machine
    /// instead of copying it. The image is re-validated unless this
    /// process already validated exactly these words; the heap is
    /// strictly audited either way.
    pub(crate) fn into_hw(self, mut config: HwConfig) -> Result<Hw, SnapshotError> {
        config.heap_words = self.heap_capacity;
        let mut hw = Hw::load_symbols(&self.code, &self.names, config)
            .map_err(|e: HwError| SnapshotError::Load(e.to_string()))?;
        self.vet_for(&hw)?;
        let heap = Heap::from_parts(self.heap_capacity, self.objects);
        hw.restore_parts(heap, self.roots, self.stats, self.class);
        Ok(hw)
    }
}

const STATS_WORDS: usize = 17;

fn stats_words(s: &Stats) -> [u64; STATS_WORDS] {
    [
        s.lets.count,
        s.lets.cycles,
        s.cases.count,
        s.cases.cycles,
        s.results.count,
        s.results.cycles,
        s.branch_heads.count,
        s.branch_heads.cycles,
        s.let_args,
        s.gc_cycles,
        s.gc_runs,
        s.gc_objects_copied,
        s.gc_words_copied,
        s.load_cycles,
        s.allocations,
        s.words_allocated,
        s.peak_live_words,
    ]
}

fn stats_from_words(w: &[u64; STATS_WORDS]) -> Stats {
    Stats {
        lets: ClassStats {
            count: w[0],
            cycles: w[1],
        },
        cases: ClassStats {
            count: w[2],
            cycles: w[3],
        },
        results: ClassStats {
            count: w[4],
            cycles: w[5],
        },
        branch_heads: ClassStats {
            count: w[6],
            cycles: w[7],
        },
        let_args: w[8],
        gc_cycles: w[9],
        gc_runs: w[10],
        gc_objects_copied: w[11],
        gc_words_copied: w[12],
        load_cycles: w[13],
        allocations: w[14],
        words_allocated: w[15],
        peak_live_words: w[16],
    }
}

/// Re-derive `(arity, is_constructor)` per item by scanning the image's
/// item headers — the same scan [`Hw::load_with`] performs, made total.
fn scan_item_shapes(words: &[Word]) -> Result<Vec<(usize, bool)>, SnapshotError> {
    let count = *words
        .get(1)
        .ok_or(SnapshotError::Malformed("image header"))? as usize;
    if count > words.len() {
        return Err(SnapshotError::Malformed("image item count"));
    }
    let mut shapes = Vec::with_capacity(count);
    let mut pos = 2usize;
    for _ in 0..count {
        let fp = *words
            .get(pos)
            .ok_or(SnapshotError::Malformed("item header"))?;
        let body_len = *words
            .get(pos + 1)
            .ok_or(SnapshotError::Malformed("item header"))? as usize;
        shapes.push((((fp >> 16) & 0xFF) as usize, fp >> 31 == 1));
        pos = pos
            .checked_add(2)
            .and_then(|p| p.checked_add(body_len))
            .ok_or(SnapshotError::Malformed("item body length"))?;
    }
    Ok(shapes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use zarf_asm::{lower, parse};
    use zarf_core::io::NullPorts;

    fn machine_with_state(src: &str) -> Hw {
        let mut hw = Hw::from_machine(&lower(&parse(src).unwrap()).unwrap()).unwrap();
        let v = hw.run(&mut NullPorts).unwrap();
        hw.push_root(v);
        hw
    }

    const LIST_SRC: &str = r#"
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
  let l = upto 6 in
  result l
"#;

    #[test]
    fn capture_round_trips_through_bytes() {
        let hw = machine_with_state(LIST_SRC);
        let snap = MachineSnapshot::capture(&hw).unwrap();
        assert!(!snap.objects.is_empty());
        let bytes = snap.to_bytes().unwrap();
        let back = MachineSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(snap, back);
        back.audit_self_contained().unwrap();
    }

    #[test]
    fn restored_machine_reads_the_same_value() {
        let mut hw = machine_with_state(LIST_SRC);
        let snap = MachineSnapshot::capture(&hw).unwrap();
        let want = format!("{:?}", hw.deep_value(hw.root(0), &mut NullPorts).unwrap());
        let bytes = snap.to_bytes().unwrap();
        let mut restored = MachineSnapshot::from_bytes(&bytes)
            .unwrap()
            .to_hw(HwConfig::default())
            .unwrap();
        let root = restored.root(0);
        let got = format!("{:?}", restored.deep_value(root, &mut NullPorts).unwrap());
        assert_eq!(want, got);
        // Restored accounting matches the original exactly.
        assert_eq!(hw.stats(), restored.stats());
    }

    #[test]
    fn capture_compacts_garbage_away() {
        let mut hw = machine_with_state(LIST_SRC);
        // The run left thunk garbage behind; compare against a real GC.
        let before = hw.heap().object_count();
        let snap = MachineSnapshot::capture(&hw).unwrap();
        hw.collect_garbage().unwrap();
        assert_eq!(snap.objects.len(), hw.heap().object_count());
        assert!(snap.objects.len() <= before);
        // Post-GC capture is layout-identical to the live heap.
        let again = MachineSnapshot::capture(&hw).unwrap();
        assert_eq!(again.objects, hw.heap().objects());
    }

    #[test]
    fn fresh_machines_are_quiescent_and_capturable() {
        let src = "fun main =\n let a = add 1 2 in\n result a";
        let hw = Hw::from_machine(&lower(&parse(src).unwrap()).unwrap()).unwrap();
        assert!(hw.is_quiescent());
        assert!(MachineSnapshot::capture(&hw).is_ok());
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let hw = machine_with_state(LIST_SRC);
        let bytes = MachineSnapshot::capture(&hw).unwrap().to_bytes().unwrap();
        // Flip each bit of the container in turn: decode+audit must fail
        // or (for bits in lengths/header) produce a structural error —
        // never silently accept.
        let mut undetected = 0usize;
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[byte] ^= 1 << bit;
                let verdict = MachineSnapshot::from_bytes(&corrupt)
                    .and_then(|s| s.audit_self_contained().map(|_| s));
                if verdict.is_ok() {
                    undetected += 1;
                }
            }
        }
        assert_eq!(undetected, 0, "corruptions slipped past CRC + audit");
    }

    #[test]
    fn truncation_and_magic_damage_are_typed_errors() {
        let hw = machine_with_state(LIST_SRC);
        let bytes = MachineSnapshot::capture(&hw).unwrap().to_bytes().unwrap();
        assert_eq!(
            MachineSnapshot::from_bytes(&bytes[..bytes.len() - 1]),
            Err(SnapshotError::Truncated)
        );
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(
            MachineSnapshot::from_bytes(&bad),
            Err(SnapshotError::BadMagic)
        );
        let mut extra = bytes.clone();
        extra.push(0);
        assert_eq!(
            MachineSnapshot::from_bytes(&extra),
            Err(SnapshotError::Malformed("trailing bytes"))
        );
    }

    #[test]
    fn restore_refuses_a_different_image() {
        let hw = machine_with_state(LIST_SRC);
        let snap = MachineSnapshot::capture(&hw).unwrap();
        let other_src = "fun main =\n let a = add 1 2 in\n result a";
        let mut other = Hw::from_machine(&lower(&parse(other_src).unwrap()).unwrap()).unwrap();
        assert_eq!(
            snap.restore_into(&mut other),
            Err(SnapshotError::CodeMismatch)
        );
    }
}
