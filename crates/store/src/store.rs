//! The store itself: open/recover, write-through commits, verified
//! reads, checkpointing, and the offline `fsck`/`gc` sweeps.
//!
//! ## Write path (one `put_session`)
//!
//! 1. Chunk the snapshot; append records for chunks the store has
//!    never seen (dedup is a map lookup on the content hash).
//! 2. fsync the segment, then append one commit record to the
//!    journal, then fsync the journal — chunks always reach disk
//!    before the metadata that references them.
//! 3. Every `checkpoint_every` commits, fold the journal into the
//!    manifest: write `store.zman.tmp`, fsync, rename over
//!    `store.zman`, fsync the directory, truncate the journal.
//!
//! A crash between any two steps leaves a consistent *prefix*: the
//! torn tail of a segment or journal is the crash boundary and is
//! truncated on the next open; a torn manifest swap leaves the old
//! manifest in place and a `.tmp` that open deletes.
//!
//! ## Fault injection
//!
//! Every guarded write and fsync is one event on the store's I/O
//! coordinate space (`FaultSite::Store`). `TornWrite` lands half the
//! bytes and stalls the store; `BitRot` flips one bit silently;
//! `MissingChunk` silently drops a chunk write; `FsyncFail` stalls at
//! a sync point. A stalled store rejects mutations with
//! [`StoreError::Stalled`] until reopened — reads keep working.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

use zarf_chaos::{FaultKind, FaultPlan, FaultSite, InjectedFault};
use zarf_trace::json_str;

use crate::chunk;
use crate::hash::{content_hash, ChunkId};
use crate::manifest::{
    decode_manifest, encode_journal_record, encode_manifest, scan_journal, JournalRecord, Manifest,
    SessionRecord,
};
use crate::segment::{
    encode_header, encode_record, parse_segment_name, read_record, scan_segment, segment_name,
    ChunkLoc, SegmentScan, RECORD_OVERHEAD,
};
use crate::tier::TierCache;
use crate::StoreError;

const MANIFEST_FILE: &str = "store.zman";
const MANIFEST_TMP: &str = "store.zman.tmp";
const JOURNAL_FILE: &str = "store.jrnl";

/// Tuning and fault-injection knobs for a [`Store`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Byte budget for the resident (uncompressed) chunk tier.
    pub resident_bytes: usize,
    /// Byte budget for the compressed in-memory chunk tier.
    pub compressed_bytes: usize,
    /// Roll to a new segment file once the active one exceeds this.
    pub segment_bytes: u64,
    /// Call `fsync` at the durability points. Disabling trades
    /// power-loss durability for speed; process-crash consistency is
    /// unaffected (the page cache survives a SIGKILL).
    pub fsync: bool,
    /// Fold the journal into the manifest every this many mutations.
    pub checkpoint_every: u64,
    /// Disk-fault plan consulted on the store I/O coordinate space.
    pub chaos: Option<FaultPlan>,
}

impl Default for StoreConfig {
    fn default() -> StoreConfig {
        StoreConfig {
            resident_bytes: 8 << 20,
            compressed_bytes: 32 << 20,
            segment_bytes: 64 << 20,
            fsync: true,
            checkpoint_every: 64,
            chaos: None,
        }
    }
}

/// The session-identity fields the fleet hands the store at each commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionMeta {
    pub id: u64,
    pub commit_seq: u64,
    pub ops_done: u64,
    pub heap_words: u64,
    pub op_budget: u64,
    pub fuel_slice: u64,
    pub verified: bool,
}

/// Observable store state, surfaced by `zarf serve` stats and tests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreStats {
    pub sessions: u64,
    pub chunks: u64,
    pub chunk_bytes: u64,
    pub resident_bytes: u64,
    pub compressed_bytes: u64,
    pub commits: u64,
    pub alias_commits: u64,
    pub delta_commits: u64,
    pub delta_chunked_bytes: u64,
    pub checkpoints: u64,
    pub dedup_hits: u64,
    pub disk_reads: u64,
    pub resident_hits: u64,
    pub compressed_hits: u64,
    pub io_events: u64,
    pub injected_faults: u64,
    pub journal_replayed: u64,
    pub recovered_sessions: u64,
    pub stalled: bool,
}

impl StoreStats {
    /// One-line JSON, matching the repo's other report formats.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"sessions\":{},\"chunks\":{},\"chunk_bytes\":{},",
                "\"resident_bytes\":{},\"compressed_bytes\":{},",
                "\"commits\":{},\"alias_commits\":{},\"delta_commits\":{},",
                "\"delta_chunked_bytes\":{},",
                "\"checkpoints\":{},\"dedup_hits\":{},",
                "\"disk_reads\":{},\"resident_hits\":{},\"compressed_hits\":{},",
                "\"io_events\":{},\"injected_faults\":{},",
                "\"journal_replayed\":{},\"recovered_sessions\":{},\"stalled\":{}}}"
            ),
            self.sessions,
            self.chunks,
            self.chunk_bytes,
            self.resident_bytes,
            self.compressed_bytes,
            self.commits,
            self.alias_commits,
            self.delta_commits,
            self.delta_chunked_bytes,
            self.checkpoints,
            self.dedup_hits,
            self.disk_reads,
            self.resident_hits,
            self.compressed_hits,
            self.io_events,
            self.injected_faults,
            self.journal_replayed,
            self.recovered_sessions,
            self.stalled,
        )
    }
}

/// Fault-injection and stall state shared by every guarded I/O call.
struct IoCtl {
    chaos: Option<FaultPlan>,
    io_events: u64,
    injected: Vec<InjectedFault>,
    stalled: Option<String>,
}

impl IoCtl {
    /// Count one I/O event and return the fault scheduled for it.
    fn draw(&mut self) -> (u64, Option<FaultKind>) {
        let ev = self.io_events;
        self.io_events += 1;
        let kind = self.chaos.as_ref().and_then(|p| p.at(FaultSite::Store, ev));
        (ev, kind)
    }

    fn fire(&mut self, ev: u64, kind: FaultKind) {
        self.injected.push(InjectedFault {
            site: FaultSite::Store,
            op: ev,
            kind,
        });
    }

    /// Enter the stalled state and build the error that reports it.
    fn stall(&mut self, detail: String) -> StoreError {
        if self.stalled.is_none() {
            self.stalled = Some(detail.clone());
        }
        StoreError::Stalled { detail }
    }
}

/// Write `bytes`, applying any fault scheduled at this I/O event.
/// Returns whether the bytes were (nominally) written — `false` only
/// for an injected `MissingChunk` on a skippable (chunk) write.
fn guarded_write(
    ctl: &mut IoCtl,
    file: &mut File,
    bytes: &[u8],
    skippable: bool,
    op: &'static str,
) -> Result<bool, StoreError> {
    let (ev, fault) = ctl.draw();
    match fault {
        Some(k @ FaultKind::TornWrite) => {
            ctl.fire(ev, k);
            let _ = file.write_all(&bytes[..bytes.len() / 2]);
            let _ = file.flush();
            Err(ctl.stall(format!("torn write injected during {op} (io event {ev})")))
        }
        Some(k @ FaultKind::BitRot { bit }) if !bytes.is_empty() => {
            ctl.fire(ev, k);
            let mut rotted = bytes.to_vec();
            let at = (ev as usize).wrapping_mul(1031) % rotted.len();
            rotted[at] ^= 1 << (bit % 8);
            file.write_all(&rotted)
                .map_err(|e| ctl.stall(format!("{op}: {e}")))?;
            Ok(true)
        }
        Some(k @ FaultKind::MissingChunk) if skippable => {
            ctl.fire(ev, k);
            Ok(false)
        }
        _ => {
            file.write_all(bytes)
                .map_err(|e| ctl.stall(format!("{op}: {e}")))?;
            Ok(true)
        }
    }
}

/// fsync `file`, applying any fault scheduled at this I/O event.
fn guarded_fsync(ctl: &mut IoCtl, file: &File, op: &'static str) -> Result<(), StoreError> {
    let (ev, fault) = ctl.draw();
    match fault {
        Some(k @ FaultKind::FsyncFail) => {
            ctl.fire(ev, k);
            Err(ctl.stall(format!(
                "fsync failure injected during {op} (io event {ev})"
            )))
        }
        _ => file.sync_all().map_err(|e| ctl.stall(format!("{op}: {e}"))),
    }
}

fn io_err(op: &'static str, e: &std::io::Error) -> StoreError {
    StoreError::Io {
        op,
        detail: e.to_string(),
    }
}

struct Counters {
    commits: u64,
    alias_commits: u64,
    delta_commits: u64,
    delta_chunked_bytes: u64,
    checkpoints: u64,
    dedup_hits: u64,
    disk_reads: u64,
    journal_replayed: u64,
    recovered_sessions: u64,
}

struct Inner {
    dir: PathBuf,
    cfg: StoreConfig,
    ctl: IoCtl,
    manifest: Manifest,
    chunks: HashMap<ChunkId, ChunkLoc>,
    chunk_bytes: u64,
    cache: TierCache,
    seg_index: u32,
    seg_file: Option<File>,
    seg_len: u64,
    journal: Option<File>,
    commits_since_ckpt: u64,
    stats: Counters,
}

/// A crash-consistent, content-addressed snapshot store rooted at one
/// data directory. `Send + Sync`: the fleet shares it across workers
/// behind an `Arc`.
pub struct Store {
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Configs embedding a Store must stay Debug without dumping the
        // chunk index; the stats line is what an operator wants anyway.
        f.debug_struct("Store")
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

/// Recover a poisoned lock: the store's invariants are re-established
/// by recovery, never left half-mutated by an unwinding holder — and
/// the crate is written panic-free regardless.
fn lock(m: &Mutex<Inner>) -> MutexGuard<'_, Inner> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Everything on disk, decoded and verified — shared by open, fsck
/// and gc so all three agree on what "recovered state" means.
struct OfflineState {
    manifest: Manifest,
    manifest_error: Option<String>,
    journal_records: u64,
    journal_valid_len: u64,
    journal_torn: bool,
    journal_damage: Option<String>,
    segments: Vec<(u32, SegmentScan)>,
    payloads: HashMap<ChunkId, Vec<u8>>,
}

fn load_offline(dir: &Path) -> Result<OfflineState, StoreError> {
    let mut manifest = Manifest::default();
    let mut manifest_error = None;
    match fs::read(dir.join(MANIFEST_FILE)) {
        Ok(bytes) => match decode_manifest(&bytes) {
            Ok(m) => manifest = m,
            Err(e) => manifest_error = Some(e.to_string()),
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(io_err("read manifest", &e)),
    }
    let mut journal_records = 0;
    let mut journal_valid_len = 0;
    let mut journal_torn = false;
    let mut journal_damage = None;
    match fs::read(dir.join(JOURNAL_FILE)) {
        Ok(bytes) => {
            let scan = scan_journal(&bytes);
            journal_records = scan.records.len() as u64;
            journal_valid_len = scan.valid_len;
            journal_torn = scan.torn;
            journal_damage = scan
                .damage
                .map(|(off, why)| format!("{why} (offset {off})"));
            for rec in &scan.records {
                manifest.apply(rec);
            }
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(io_err("read journal", &e)),
    }
    let mut indices = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| io_err("read data dir", &e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err("read data dir", &e))?;
        if let Some(idx) = entry.file_name().to_str().and_then(parse_segment_name) {
            indices.push(idx);
        }
    }
    indices.sort_unstable();
    let mut segments = Vec::new();
    let mut payloads = HashMap::new();
    for idx in indices {
        let bytes =
            fs::read(dir.join(segment_name(idx))).map_err(|e| io_err("read segment", &e))?;
        let scan = scan_segment(&bytes, idx);
        for (id, loc, _) in &scan.chunks {
            let payload =
                &bytes[loc.offset as usize + 24..loc.offset as usize + 24 + loc.len as usize];
            payloads.entry(*id).or_insert_with(|| payload.to_vec());
        }
        segments.push((idx, scan));
    }
    Ok(OfflineState {
        manifest,
        manifest_error,
        journal_records,
        journal_valid_len,
        journal_torn,
        journal_damage,
        segments,
        payloads,
    })
}

impl Store {
    /// Open (and if necessary recover) the store rooted at `dir`,
    /// creating the directory on first use.
    ///
    /// Recovery deletes an orphaned `store.zman.tmp` (a manifest swap
    /// that never completed), replays the journal over the manifest,
    /// truncates torn tails back to the last verified record, and
    /// indexes every verified chunk. A structurally corrupt manifest
    /// is a typed error — nothing is guessed.
    pub fn open(dir: impl AsRef<Path>, cfg: StoreConfig) -> Result<Store, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir).map_err(|e| io_err("create data dir", &e))?;
        match fs::remove_file(dir.join(MANIFEST_TMP)) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(io_err("remove stale manifest tmp", &e)),
        }
        let state = load_offline(&dir)?;
        if let Some(detail) = state.manifest_error {
            return Err(StoreError::ManifestCorrupt { detail });
        }

        // Index every verified chunk; first record for an id wins (a
        // duplicate holds identical bytes — that is what content
        // addressing means).
        let mut chunks = HashMap::new();
        let mut chunk_bytes = 0u64;
        let mut max_seg = 0u32;
        let mut active_usable = true;
        for (idx, scan) in &state.segments {
            for (id, loc, len) in &scan.chunks {
                if !chunks.contains_key(id) {
                    chunk_bytes += *len as u64 + RECORD_OVERHEAD as u64;
                    chunks.insert(*id, *loc);
                }
            }
            if *idx >= max_seg {
                max_seg = *idx;
                active_usable = scan.damage.is_none();
                if let Some(torn) = scan.torn_at {
                    // Truncate the crash boundary so future appends are
                    // contiguous with the verified prefix.
                    let f = OpenOptions::new()
                        .write(true)
                        .open(dir.join(segment_name(*idx)))
                        .map_err(|e| io_err("open segment for truncation", &e))?;
                    f.set_len(torn.max(scan.valid_len))
                        .map_err(|e| io_err("truncate torn segment", &e))?;
                }
            }
        }
        // Appends continue in the highest clean segment; a damaged one
        // is left as evidence and a fresh segment is started after it.
        let seg_index = if state.segments.is_empty() {
            1
        } else if active_usable {
            max_seg
        } else {
            max_seg + 1
        };

        // Resolve journal damage by folding the verified prefix into a
        // fresh manifest checkpoint, then truncate back to the last
        // verified record either way.
        let journal_path = dir.join(JOURNAL_FILE);
        if state.journal_damage.is_some() {
            let tmp = dir.join(MANIFEST_TMP);
            let bytes = encode_manifest(&state.manifest);
            fs::write(&tmp, &bytes).map_err(|e| io_err("write recovery manifest", &e))?;
            fs::rename(&tmp, dir.join(MANIFEST_FILE))
                .map_err(|e| io_err("install recovery manifest", &e))?;
            fs::write(&journal_path, b"").map_err(|e| io_err("reset damaged journal", &e))?;
        } else if state.journal_torn {
            let f = OpenOptions::new()
                .write(true)
                .open(&journal_path)
                .map_err(|e| io_err("open journal for truncation", &e))?;
            f.set_len(state.journal_valid_len)
                .map_err(|e| io_err("truncate torn journal", &e))?;
        }
        let journal = OpenOptions::new()
            .append(true)
            .create(true)
            .open(&journal_path)
            .map_err(|e| io_err("open journal", &e))?;

        let recovered_sessions = state.manifest.sessions.len() as u64;
        let inner = Inner {
            cfg: cfg.clone(),
            ctl: IoCtl {
                chaos: cfg.chaos,
                io_events: 0,
                injected: Vec::new(),
                stalled: None,
            },
            manifest: state.manifest,
            chunks,
            chunk_bytes,
            cache: TierCache::new(cfg.resident_bytes, cfg.compressed_bytes),
            seg_index,
            seg_file: None,
            seg_len: 0,
            journal: Some(journal),
            commits_since_ckpt: 0,
            stats: Counters {
                commits: 0,
                alias_commits: 0,
                delta_commits: 0,
                delta_chunked_bytes: 0,
                checkpoints: 0,
                dedup_hits: 0,
                disk_reads: 0,
                journal_replayed: state.journal_records,
                recovered_sessions,
            },
            dir,
        };
        Ok(Store {
            inner: Mutex::new(inner),
        })
    }

    /// Persist one committed session state. Chunks reach disk before
    /// the journal record that references them; the call returns only
    /// after the commit is durable (under `fsync: true`).
    ///
    /// Commits are incremental against the session's previous manifest
    /// entry. Byte-identical snapshots journal an *alias* of the
    /// previous chunk list without touching the chunker or the segment
    /// files; otherwise only the dirtied window between the longest
    /// reusable chunk prefix and suffix is re-chunked, so a mostly
    /// idle session re-checkpoints in O(delta), not O(snapshot). The
    /// manifest format is unchanged — every record still carries its
    /// complete ordered chunk list, so reads, `fsck`, and `gc` are
    /// oblivious to how a record was produced.
    pub fn put_session(&self, meta: &SessionMeta, snapshot: &[u8]) -> Result<(), StoreError> {
        let mut g = lock(&self.inner);
        let inner = &mut *g;
        if let Some(detail) = inner.ctl.stalled.clone() {
            return Err(StoreError::Stalled { detail });
        }
        let snap_hash = content_hash(snapshot);
        let prev = inner.manifest.sessions.get(&meta.id).cloned();
        if let Some(prev) = &prev {
            if prev.snap_hash == snap_hash && prev.snap_len == snapshot.len() as u64 {
                let record =
                    session_record(meta, snapshot.len() as u64, snap_hash, prev.chunks.clone());
                append_journal(inner, &JournalRecord::Commit(record))?;
                inner.stats.commits += 1;
                inner.stats.alias_commits += 1;
                return Ok(());
            }
        }
        let (mut chunk_ids, dirty, suffix) =
            match prev.as_ref().and_then(|p| delta_plan(inner, p, snapshot)) {
                Some(plan) => {
                    inner.stats.delta_commits += 1;
                    inner.stats.delta_chunked_bytes += (plan.dirty.end - plan.dirty.start) as u64;
                    (plan.prefix, plan.dirty, plan.suffix)
                }
                None => (Vec::new(), 0..snapshot.len(), Vec::new()),
            };
        let window = &snapshot[dirty];
        let mut wrote_chunk = false;
        for range in chunk::split(window) {
            let payload = &window[range];
            let id = content_hash(payload);
            chunk_ids.push(id);
            if inner.chunks.contains_key(&id) {
                inner.stats.dedup_hits += 1;
                continue;
            }
            if write_chunk(inner, id, payload)? {
                wrote_chunk = true;
            }
        }
        chunk_ids.extend(suffix);
        if wrote_chunk && inner.cfg.fsync {
            if let Some(f) = inner.seg_file.as_ref() {
                guarded_fsync(&mut inner.ctl, f, "segment fsync")?;
            }
        }
        let record = session_record(meta, snapshot.len() as u64, snap_hash, chunk_ids);
        append_journal(inner, &JournalRecord::Commit(record))?;
        inner.stats.commits += 1;
        Ok(())
    }

    /// Whether the store holds (an index entry for) this chunk — the
    /// receiver side of chunk-sync negotiation advertises with this.
    pub fn has_chunk(&self, id: ChunkId) -> bool {
        lock(&self.inner).chunks.contains_key(&id)
    }

    /// One chunk's verified bytes (cache tiers first, then the CRC- and
    /// content-hash-checked disk read) — the sender side of chunk sync.
    pub fn get_chunk_bytes(&self, id: ChunkId) -> Result<Vec<u8>, StoreError> {
        let mut g = lock(&self.inner);
        get_chunk(&mut g, id)
    }

    /// Append one raw chunk (content-addressed), returning its id. An
    /// already-present chunk is a dedup hit with no I/O. The chunk is
    /// unreferenced until a session record adopts it — [`gc`] collects
    /// orphans — which is exactly the replication receiver's staging
    /// discipline: chunks land first, the record only after they all
    /// verify.
    pub fn put_chunk(&self, payload: &[u8]) -> Result<ChunkId, StoreError> {
        let mut g = lock(&self.inner);
        let inner = &mut *g;
        if let Some(detail) = inner.ctl.stalled.clone() {
            return Err(StoreError::Stalled { detail });
        }
        let id = content_hash(payload);
        if inner.chunks.contains_key(&id) {
            inner.stats.dedup_hits += 1;
            return Ok(id);
        }
        let wrote = write_chunk(inner, id, payload)?;
        if wrote && inner.cfg.fsync {
            if let Some(f) = inner.seg_file.as_ref() {
                guarded_fsync(&mut inner.ctl, f, "segment fsync")?;
            }
        }
        Ok(id)
    }

    /// Install a session record whose chunks are already present — the
    /// receiving end of replication and migration. The record is
    /// admitted only after the full end-to-end check: every chunk it
    /// names is fetched and verified, and the reassembly must match the
    /// record's length and whole-snapshot hash. On success the commit
    /// is journaled exactly like a local [`Store::put_session`]; on any
    /// failure the store is untouched and the error names the damage.
    pub fn adopt_session(&self, rec: &SessionRecord) -> Result<(), StoreError> {
        let mut g = lock(&self.inner);
        let inner = &mut *g;
        if let Some(detail) = inner.ctl.stalled.clone() {
            return Err(StoreError::Stalled { detail });
        }
        let mut assembled = Vec::with_capacity((rec.snap_len as usize).min(64 << 20));
        for chunk_id in &rec.chunks {
            let bytes = get_chunk(inner, *chunk_id)?;
            assembled.extend_from_slice(&bytes);
        }
        if assembled.len() as u64 != rec.snap_len {
            return Err(StoreError::SnapshotMismatch {
                session: rec.id,
                detail: format!(
                    "adopted chunks reassemble to {} bytes, record says {}",
                    assembled.len(),
                    rec.snap_len
                ),
            });
        }
        if content_hash(&assembled) != rec.snap_hash {
            return Err(StoreError::SnapshotMismatch {
                session: rec.id,
                detail: "adopted snapshot content hash mismatch".to_string(),
            });
        }
        append_journal(inner, &JournalRecord::Commit(rec.clone()))?;
        inner.stats.commits += 1;
        Ok(())
    }

    /// Read one session's snapshot back, verifying every chunk and the
    /// whole-snapshot hash. Misses the cache only as far as it must.
    pub fn get_snapshot(&self, id: u64) -> Result<Vec<u8>, StoreError> {
        let mut g = lock(&self.inner);
        let inner = &mut *g;
        let rec = inner
            .manifest
            .sessions
            .get(&id)
            .cloned()
            .ok_or(StoreError::UnknownSession(id))?;
        let mut out = Vec::with_capacity((rec.snap_len as usize).min(64 << 20));
        for chunk_id in &rec.chunks {
            let bytes = get_chunk(inner, *chunk_id)?;
            out.extend_from_slice(&bytes);
        }
        if out.len() as u64 != rec.snap_len {
            return Err(StoreError::SnapshotMismatch {
                session: id,
                detail: format!(
                    "reassembled {} bytes, manifest says {}",
                    out.len(),
                    rec.snap_len
                ),
            });
        }
        if content_hash(&out) != rec.snap_hash {
            return Err(StoreError::SnapshotMismatch {
                session: id,
                detail: "whole-snapshot content hash mismatch".to_string(),
            });
        }
        Ok(out)
    }

    /// Forget a session (its chunks stay until [`gc`] collects them).
    pub fn remove_session(&self, id: u64) -> Result<(), StoreError> {
        let mut g = lock(&self.inner);
        let inner = &mut *g;
        if let Some(detail) = inner.ctl.stalled.clone() {
            return Err(StoreError::Stalled { detail });
        }
        append_journal(inner, &JournalRecord::Close { id })
    }

    /// Every live session's record, in id order.
    pub fn sessions(&self) -> Vec<SessionRecord> {
        lock(&self.inner)
            .manifest
            .sessions
            .values()
            .cloned()
            .collect()
    }

    /// One session's record.
    pub fn session(&self, id: u64) -> Option<SessionRecord> {
        lock(&self.inner).manifest.sessions.get(&id).cloned()
    }

    /// The lowest session id a fleet may issue without colliding with
    /// any id this store has ever recorded (including closed ones).
    pub fn next_session_floor(&self) -> u64 {
        lock(&self.inner).manifest.max_id + 1
    }

    /// Why the store is refusing mutations, if it is.
    pub fn stalled(&self) -> Option<String> {
        lock(&self.inner).ctl.stalled.clone()
    }

    /// Force a manifest checkpoint now (graceful-shutdown durability).
    pub fn flush(&self) -> Result<(), StoreError> {
        let mut g = lock(&self.inner);
        let inner = &mut *g;
        if let Some(detail) = inner.ctl.stalled.clone() {
            return Err(StoreError::Stalled { detail });
        }
        checkpoint(inner)
    }

    /// Faults that actually fired on this store's I/O event space.
    pub fn injected(&self) -> Vec<InjectedFault> {
        lock(&self.inner).ctl.injected.clone()
    }

    /// Observable counters and tier occupancy.
    pub fn stats(&self) -> StoreStats {
        let g = lock(&self.inner);
        StoreStats {
            sessions: g.manifest.sessions.len() as u64,
            chunks: g.chunks.len() as u64,
            chunk_bytes: g.chunk_bytes,
            resident_bytes: g.cache.resident_bytes() as u64,
            compressed_bytes: g.cache.compressed_bytes() as u64,
            commits: g.stats.commits,
            alias_commits: g.stats.alias_commits,
            delta_commits: g.stats.delta_commits,
            delta_chunked_bytes: g.stats.delta_chunked_bytes,
            checkpoints: g.stats.checkpoints,
            dedup_hits: g.stats.dedup_hits,
            disk_reads: g.stats.disk_reads,
            resident_hits: g.cache.stats.resident_hits,
            compressed_hits: g.cache.stats.compressed_hits,
            io_events: g.ctl.io_events,
            injected_faults: g.ctl.injected.len() as u64,
            journal_replayed: g.stats.journal_replayed,
            recovered_sessions: g.stats.recovered_sessions,
            stalled: g.ctl.stalled.is_some(),
        }
    }
}

impl Drop for Store {
    /// Best-effort checkpoint on graceful drop, so a clean shutdown
    /// restarts without journal replay. A stalled store writes nothing.
    fn drop(&mut self) {
        let mut g = lock(&self.inner);
        let inner = &mut *g;
        if inner.ctl.stalled.is_none() && inner.commits_since_ckpt > 0 {
            let _ = checkpoint(inner);
        }
    }
}

fn session_record(
    meta: &SessionMeta,
    snap_len: u64,
    snap_hash: ChunkId,
    chunks: Vec<ChunkId>,
) -> SessionRecord {
    SessionRecord {
        id: meta.id,
        commit_seq: meta.commit_seq,
        ops_done: meta.ops_done,
        heap_words: meta.heap_words,
        op_budget: meta.op_budget,
        fuel_slice: meta.fuel_slice,
        verified: meta.verified,
        snap_len,
        snap_hash,
        chunks,
    }
}

/// Append one chunk record to the active segment and index it. Returns
/// whether the bytes were (nominally) written — `false` only for an
/// injected lost write.
fn write_chunk(inner: &mut Inner, id: ChunkId, payload: &[u8]) -> Result<bool, StoreError> {
    ensure_segment(inner)?;
    let rec = encode_record(id, payload);
    let loc = ChunkLoc {
        segment: inner.seg_index,
        offset: inner.seg_len,
        len: payload.len() as u32,
    };
    let file = match inner.seg_file.as_mut() {
        Some(f) => f,
        None => {
            return Err(StoreError::Io {
                op: "segment append",
                detail: "no active segment".to_string(),
            })
        }
    };
    let written = guarded_write(&mut inner.ctl, file, &rec, true, "chunk write")?;
    if written {
        inner.seg_len += rec.len() as u64;
        inner.chunk_bytes += rec.len() as u64;
    }
    // Index and cache even an injected lost write: that is exactly the
    // shape of a lost write in the wild — the writer believes it
    // happened, and only a later read (or restart) discovers the truth
    // as a typed error.
    inner.chunks.insert(id, loc);
    inner.cache.insert(id, payload.to_vec());
    if inner.seg_len >= inner.cfg.segment_bytes {
        inner.seg_index += 1;
        inner.seg_file = None;
        inner.seg_len = 0;
    }
    Ok(written)
}

/// How a new snapshot maps onto its predecessor's chunk list: the
/// longest prefix and suffix of previous chunks whose content hashes
/// match the new bytes in place are reused verbatim, and only the
/// window between them is handed back to the chunker. Reuse is decided
/// purely by content address — hashing the candidate span against the
/// recorded chunk id — never by trusting offsets, so a reused chunk is
/// correct by the same argument that makes dedup correct.
struct DeltaPlan {
    /// Previous chunks covering `[0, dirty.start)` of the new snapshot.
    prefix: Vec<ChunkId>,
    /// The dirtied byte window to re-chunk.
    dirty: std::ops::Range<usize>,
    /// Previous chunks covering `[dirty.end, len)` of the new snapshot.
    suffix: Vec<ChunkId>,
}

fn delta_plan(inner: &Inner, prev: &SessionRecord, snapshot: &[u8]) -> Option<DeltaPlan> {
    let new_len = snapshot.len();
    let mut prefix = Vec::new();
    let mut p = 0usize;
    for id in &prev.chunks {
        // An unindexed chunk (e.g. a lost write) just ends the reusable
        // region; the rest of the snapshot is re-chunked normally.
        let Some(len) = inner.chunks.get(id).map(|l| l.len as usize) else {
            break;
        };
        if len == 0 || p + len > new_len || content_hash(&snapshot[p..p + len]) != *id {
            break;
        }
        prefix.push(*id);
        p += len;
    }
    let mut suffix_rev = Vec::new();
    let mut q = new_len;
    for id in prev.chunks.iter().skip(prefix.len()).rev() {
        let Some(len) = inner.chunks.get(id).map(|l| l.len as usize) else {
            break;
        };
        if len == 0 || q < p + len || content_hash(&snapshot[q - len..q]) != *id {
            break;
        }
        suffix_rev.push(*id);
        q -= len;
    }
    if prefix.is_empty() && suffix_rev.is_empty() {
        return None;
    }
    suffix_rev.reverse();
    Some(DeltaPlan {
        prefix,
        dirty: p..q,
        suffix: suffix_rev,
    })
}

/// Open (creating if needed) the active segment for appending.
fn ensure_segment(inner: &mut Inner) -> Result<(), StoreError> {
    if inner.seg_file.is_some() {
        return Ok(());
    }
    let path = inner.dir.join(segment_name(inner.seg_index));
    let exists = path.exists();
    let mut file = OpenOptions::new()
        .append(true)
        .create(true)
        .open(&path)
        .map_err(|e| io_err("open segment", &e))?;
    if exists {
        inner.seg_len = file
            .metadata()
            .map_err(|e| io_err("stat segment", &e))?
            .len();
    }
    if inner.seg_len == 0 {
        let header = encode_header();
        if guarded_write(&mut inner.ctl, &mut file, &header, false, "segment header")? {
            inner.seg_len = header.len() as u64;
        }
    }
    inner.seg_file = Some(file);
    Ok(())
}

/// Append one journal record (fsynced), apply it to the in-memory
/// manifest, and checkpoint if the cadence says so.
fn append_journal(inner: &mut Inner, rec: &JournalRecord) -> Result<(), StoreError> {
    let bytes = encode_journal_record(rec);
    let file = match inner.journal.as_mut() {
        Some(f) => f,
        None => {
            return Err(StoreError::Io {
                op: "journal append",
                detail: "journal not open".to_string(),
            })
        }
    };
    guarded_write(&mut inner.ctl, file, &bytes, false, "journal append")?;
    if inner.cfg.fsync {
        if let Some(f) = inner.journal.as_ref() {
            guarded_fsync(&mut inner.ctl, f, "journal fsync")?;
        }
    }
    inner.manifest.apply(rec);
    inner.commits_since_ckpt += 1;
    if inner.commits_since_ckpt >= inner.cfg.checkpoint_every {
        checkpoint(inner)?;
    }
    Ok(())
}

/// Atomically replace the manifest with the current in-memory state,
/// then truncate the journal it subsumes.
fn checkpoint(inner: &mut Inner) -> Result<(), StoreError> {
    let bytes = encode_manifest(&inner.manifest);
    let tmp = inner.dir.join(MANIFEST_TMP);
    let mut file = File::create(&tmp).map_err(|e| {
        let detail = format!("create manifest tmp: {e}");
        inner.ctl.stall(detail)
    })?;
    guarded_write(&mut inner.ctl, &mut file, &bytes, false, "manifest write")?;
    if inner.cfg.fsync {
        guarded_fsync(&mut inner.ctl, &file, "manifest fsync")?;
    }
    drop(file);
    fs::rename(&tmp, inner.dir.join(MANIFEST_FILE)).map_err(|e| {
        let detail = format!("manifest rename: {e}");
        inner.ctl.stall(detail)
    })?;
    if inner.cfg.fsync {
        if let Ok(d) = File::open(&inner.dir) {
            guarded_fsync(&mut inner.ctl, &d, "dir fsync")?;
        }
    }
    if let Some(journal) = inner.journal.as_ref() {
        journal.set_len(0).map_err(|e| {
            let detail = format!("journal truncate: {e}");
            inner.ctl.stall(detail)
        })?;
    }
    inner.commits_since_ckpt = 0;
    inner.stats.checkpoints += 1;
    Ok(())
}

/// Fetch one chunk's bytes: cache tiers first, then the verified disk
/// read. Every disk byte is CRC- and content-hash-checked on the way
/// in; every failure names the chunk.
fn get_chunk(inner: &mut Inner, id: ChunkId) -> Result<Vec<u8>, StoreError> {
    if let Some(bytes) = inner.cache.get(id) {
        return Ok(bytes);
    }
    let loc = inner
        .chunks
        .get(&id)
        .copied()
        .ok_or(StoreError::MissingChunk { chunk: id })?;
    let path = inner.dir.join(segment_name(loc.segment));
    let mut file = match File::open(&path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(StoreError::MissingChunk { chunk: id })
        }
        Err(e) => return Err(io_err("open segment", &e)),
    };
    file.seek(SeekFrom::Start(loc.offset))
        .map_err(|e| io_err("seek segment", &e))?;
    let mut buf = vec![0u8; RECORD_OVERHEAD + loc.len as usize];
    file.read_exact(&mut buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            StoreError::ChunkCorrupt {
                chunk: id,
                detail: "record extends past end of segment".to_string(),
            }
        } else {
            io_err("read segment", &e)
        }
    })?;
    match read_record(&buf, loc.segment, 0) {
        Ok(Some((rid, _, payload))) if rid == id => {
            let bytes = payload.to_vec();
            inner.stats.disk_reads += 1;
            inner.cache.insert(id, bytes.clone());
            Ok(bytes)
        }
        Ok(Some((rid, _, _))) => Err(StoreError::ChunkCorrupt {
            chunk: id,
            detail: format!(
                "record at segment {} offset {} holds {rid}",
                loc.segment, loc.offset
            ),
        }),
        Ok(None) => Err(StoreError::ChunkCorrupt {
            chunk: id,
            detail: "record truncated".to_string(),
        }),
        Err(reason) => Err(StoreError::ChunkCorrupt {
            chunk: id,
            detail: reason,
        }),
    }
}

/// What [`fsck`] found. `clean()` tolerates torn tails (the benign
/// crash boundary) and unreferenced chunks (garbage, not damage).
#[derive(Debug, Default)]
pub struct FsckReport {
    pub segments: u32,
    pub records: u64,
    pub record_bytes: u64,
    pub torn_segments: u32,
    /// `(segment index, byte offset, reason)` of each damage site.
    pub damaged_segments: Vec<(u32, u64, String)>,
    pub manifest_error: Option<String>,
    pub journal_damage: Option<String>,
    pub journal_records: u64,
    pub sessions: u64,
    /// `(session id, reason)` for each session that cannot be read
    /// back byte-identically.
    pub bad_sessions: Vec<(u64, String)>,
    pub unreferenced_chunks: u64,
    pub unreferenced_bytes: u64,
}

impl FsckReport {
    /// True when every session is fully readable and nothing on disk
    /// is damaged (torn tails and collectable garbage permitted).
    pub fn clean(&self) -> bool {
        self.damaged_segments.is_empty()
            && self.manifest_error.is_none()
            && self.journal_damage.is_none()
            && self.bad_sessions.is_empty()
    }

    /// One-line JSON for CI artifacts and the CLI.
    pub fn to_json(&self) -> String {
        let damaged: Vec<String> = self
            .damaged_segments
            .iter()
            .map(|(seg, off, why)| {
                format!(
                    "{{\"segment\":{seg},\"offset\":{off},\"reason\":{}}}",
                    json_str(why)
                )
            })
            .collect();
        let bad: Vec<String> = self
            .bad_sessions
            .iter()
            .map(|(id, why)| format!("{{\"session\":{id},\"reason\":{}}}", json_str(why)))
            .collect();
        format!(
            concat!(
                "{{\"clean\":{},\"segments\":{},\"records\":{},\"record_bytes\":{},",
                "\"torn_segments\":{},\"damaged_segments\":[{}],",
                "\"manifest_error\":{},\"journal_damage\":{},\"journal_records\":{},",
                "\"sessions\":{},\"bad_sessions\":[{}],",
                "\"unreferenced_chunks\":{},\"unreferenced_bytes\":{}}}"
            ),
            self.clean(),
            self.segments,
            self.records,
            self.record_bytes,
            self.torn_segments,
            damaged.join(","),
            json_opt(&self.manifest_error),
            json_opt(&self.journal_damage),
            self.journal_records,
            self.sessions,
            bad.join(","),
            self.unreferenced_chunks,
            self.unreferenced_bytes,
        )
    }
}

fn json_opt(v: &Option<String>) -> String {
    match v {
        Some(s) => json_str(s),
        None => "null".to_string(),
    }
}

/// Offline integrity sweep: walk every record of every segment, decode
/// the manifest and journal, and prove every session reassembles to
/// its recorded length and hash. Read-only; safe on a damaged store.
pub fn fsck(dir: impl AsRef<Path>) -> Result<FsckReport, StoreError> {
    let state = load_offline(dir.as_ref())?;
    let mut report = FsckReport {
        manifest_error: state.manifest_error,
        journal_damage: state.journal_damage,
        journal_records: state.journal_records,
        sessions: state.manifest.sessions.len() as u64,
        ..FsckReport::default()
    };
    for (idx, scan) in &state.segments {
        report.segments += 1;
        report.records += scan.chunks.len() as u64;
        report.record_bytes += scan
            .chunks
            .iter()
            .map(|(_, _, len)| *len as u64 + RECORD_OVERHEAD as u64)
            .sum::<u64>();
        if scan.torn_at.is_some() {
            report.torn_segments += 1;
        }
        if let Some((off, why)) = &scan.damage {
            report.damaged_segments.push((*idx, *off, why.clone()));
        }
    }
    let mut referenced = std::collections::HashSet::new();
    for session in state.manifest.sessions.values() {
        let mut assembled = Vec::new();
        let mut problem = None;
        for chunk in &session.chunks {
            referenced.insert(*chunk);
            match state.payloads.get(chunk) {
                Some(p) => assembled.extend_from_slice(p),
                None => {
                    problem = Some(format!("missing chunk {chunk}"));
                    break;
                }
            }
        }
        if problem.is_none() {
            if assembled.len() as u64 != session.snap_len {
                problem = Some(format!(
                    "reassembled {} bytes, manifest says {}",
                    assembled.len(),
                    session.snap_len
                ));
            } else if content_hash(&assembled) != session.snap_hash {
                problem = Some("whole-snapshot content hash mismatch".to_string());
            }
        }
        if let Some(why) = problem {
            report.bad_sessions.push((session.id, why));
        }
    }
    for (id, payload) in &state.payloads {
        if !referenced.contains(id) {
            report.unreferenced_chunks += 1;
            report.unreferenced_bytes += payload.len() as u64 + RECORD_OVERHEAD as u64;
        }
    }
    Ok(report)
}

/// What [`gc`] did.
#[derive(Debug, Default)]
pub struct GcReport {
    pub live_chunks: u64,
    pub live_bytes: u64,
    pub dropped_chunks: u64,
    pub reclaimed_bytes: u64,
    pub segments_before: u32,
    pub segments_after: u32,
}

impl GcReport {
    /// One-line JSON for CI artifacts and the CLI.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"live_chunks\":{},\"live_bytes\":{},\"dropped_chunks\":{},",
                "\"reclaimed_bytes\":{},\"segments_before\":{},\"segments_after\":{}}}"
            ),
            self.live_chunks,
            self.live_bytes,
            self.dropped_chunks,
            self.reclaimed_bytes,
            self.segments_before,
            self.segments_after,
        )
    }
}

/// Offline unreferenced-chunk collection: rewrite every *referenced*
/// chunk into a fresh segment, checkpoint the manifest, and delete the
/// old segments. Refuses to run (typed error) if any referenced chunk
/// is unreadable or the metadata is damaged — gc must never turn a
/// recoverable store into an unrecoverable one. Run [`fsck`] first.
pub fn gc(dir: impl AsRef<Path>) -> Result<GcReport, StoreError> {
    let dir = dir.as_ref();
    let state = load_offline(dir)?;
    if let Some(detail) = state.manifest_error {
        return Err(StoreError::ManifestCorrupt { detail });
    }
    if let Some(detail) = state.journal_damage {
        return Err(StoreError::ManifestCorrupt {
            detail: format!("journal damaged ({detail}); refusing to collect"),
        });
    }
    let mut report = GcReport {
        segments_before: state.segments.len() as u32,
        segments_after: 1,
        ..GcReport::default()
    };
    let mut live = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for session in state.manifest.sessions.values() {
        for chunk in &session.chunks {
            if seen.insert(*chunk) {
                match state.payloads.get(chunk) {
                    Some(p) => live.push((*chunk, p.clone())),
                    None => return Err(StoreError::MissingChunk { chunk: *chunk }),
                }
            }
        }
    }
    for (id, payload) in &state.payloads {
        if !seen.contains(id) {
            report.dropped_chunks += 1;
            report.reclaimed_bytes += payload.len() as u64 + RECORD_OVERHEAD as u64;
        }
    }
    let new_index = state.segments.iter().map(|(i, _)| *i).max().unwrap_or(0) + 1;
    let new_path = dir.join(segment_name(new_index));
    let mut out = encode_header().to_vec();
    for (id, payload) in &live {
        out.extend_from_slice(&encode_record(*id, payload));
        report.live_chunks += 1;
        report.live_bytes += payload.len() as u64 + RECORD_OVERHEAD as u64;
    }
    let mut f = File::create(&new_path).map_err(|e| io_err("create gc segment", &e))?;
    f.write_all(&out)
        .map_err(|e| io_err("write gc segment", &e))?;
    f.sync_all().map_err(|e| io_err("sync gc segment", &e))?;
    drop(f);
    // Checkpoint the (unchanged) manifest so the journal can go, then
    // retire every pre-gc segment. Chunk locations are rediscovered by
    // scan on the next open, so the manifest needs no location data.
    let tmp = dir.join(MANIFEST_TMP);
    let bytes = encode_manifest(&state.manifest);
    fs::write(&tmp, &bytes).map_err(|e| io_err("write gc manifest", &e))?;
    fs::rename(&tmp, dir.join(MANIFEST_FILE)).map_err(|e| io_err("install gc manifest", &e))?;
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    match fs::remove_file(dir.join(JOURNAL_FILE)) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(io_err("remove journal", &e)),
    }
    for (idx, _) in &state.segments {
        fs::remove_file(dir.join(segment_name(*idx)))
            .map_err(|e| io_err("remove old segment", &e))?;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use zarf_chaos::FaultPlan;

    /// Self-cleaning temp dir (the repo has no tempfile dependency).
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(name: &str) -> TempDir {
            let path =
                std::env::temp_dir().join(format!("zarf_store_test_{}_{name}", std::process::id()));
            let _ = fs::remove_dir_all(&path);
            TempDir(path)
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn meta(id: u64, seq: u64) -> SessionMeta {
        SessionMeta {
            id,
            commit_seq: seq,
            ops_done: seq * 4,
            heap_words: 4096,
            op_budget: 0,
            fuel_slice: 500,
            verified: false,
        }
    }

    /// Deterministic mixed-entropy bytes: runs (compressible) plus
    /// LCG words (not), so both cache tiers and the chunker get real
    /// work.
    fn snapshot(seed: u64, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        let mut s = seed;
        while out.len() < len {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if s.is_multiple_of(3) {
                let run = 64.min(len - out.len());
                out.extend(std::iter::repeat_n((s >> 8) as u8, run));
            } else {
                out.extend_from_slice(&s.to_le_bytes());
            }
        }
        out.truncate(len);
        out
    }

    fn small_cfg() -> StoreConfig {
        StoreConfig {
            resident_bytes: 64 << 10,
            compressed_bytes: 64 << 10,
            segment_bytes: 256 << 10,
            checkpoint_every: 1000, // keep commits in the journal
            ..StoreConfig::default()
        }
    }

    #[test]
    fn round_trip_and_dedup_across_commits() {
        let dir = TempDir::new("round_trip");
        let store = Store::open(dir.path(), small_cfg()).expect("open");
        let snap_a = snapshot(1, 80 << 10);
        store.put_session(&meta(1, 1), &snap_a).expect("put 1");
        assert_eq!(store.get_snapshot(1).expect("get 1"), snap_a);

        // Next commit shares most content: nearly every chunk dedups.
        let mut snap_b = snap_a.clone();
        let end = snap_b.len() - 1;
        snap_b[end] ^= 0xFF;
        store.put_session(&meta(1, 2), &snap_b).expect("put 2");
        assert_eq!(store.get_snapshot(1).expect("get 2"), snap_b);
        let stats = store.stats();
        // Shared content is reused either by the delta planner (chunk
        // prefix/suffix reuse) or by plain dedup — never re-stored.
        assert!(
            stats.delta_commits > 0 || stats.dedup_hits > 0,
            "shared chunks must be reused: {stats:?}"
        );
        assert_eq!(stats.sessions, 1);
    }

    #[test]
    fn abrupt_drop_recovers_via_journal_replay() {
        let dir = TempDir::new("journal_replay");
        let snaps: Vec<Vec<u8>> = (0..3).map(|i| snapshot(10 + i, 40 << 10)).collect();
        {
            let store = Store::open(dir.path(), small_cfg()).expect("open");
            for (i, s) in snaps.iter().enumerate() {
                store.put_session(&meta(i as u64 + 1, 1), s).expect("put");
            }
            // Simulate a crash: no Drop, no checkpoint.
            std::mem::forget(store);
        }
        let store = Store::open(dir.path(), small_cfg()).expect("reopen");
        let stats = store.stats();
        assert_eq!(stats.recovered_sessions, 3);
        assert!(stats.journal_replayed >= 3, "{stats:?}");
        for (i, s) in snaps.iter().enumerate() {
            assert_eq!(&store.get_snapshot(i as u64 + 1).expect("get"), s);
        }
    }

    #[test]
    fn graceful_drop_checkpoints_into_manifest() {
        let dir = TempDir::new("checkpoint");
        let snap = snapshot(77, 30 << 10);
        {
            let store = Store::open(dir.path(), small_cfg()).expect("open");
            store.put_session(&meta(9, 3), &snap).expect("put");
        } // Drop checkpoints.
        let store = Store::open(dir.path(), small_cfg()).expect("reopen");
        let stats = store.stats();
        assert_eq!(stats.journal_replayed, 0, "journal folded away: {stats:?}");
        assert_eq!(store.get_snapshot(9).expect("get"), snap);
        let rec = store.session(9).expect("record");
        assert_eq!(rec.commit_seq, 3);
        assert_eq!(rec.ops_done, 12);
    }

    #[test]
    fn close_removes_session_but_floor_never_regresses() {
        let dir = TempDir::new("close_floor");
        {
            let store = Store::open(dir.path(), small_cfg()).expect("open");
            store
                .put_session(&meta(5, 1), &snapshot(5, 8 << 10))
                .expect("put 5");
            store
                .put_session(&meta(9, 1), &snapshot(9, 8 << 10))
                .expect("put 9");
            store.remove_session(9).expect("close 9");
            std::mem::forget(store);
        }
        let store = Store::open(dir.path(), small_cfg()).expect("reopen");
        let ids: Vec<u64> = store.sessions().iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![5]);
        assert_eq!(
            store.next_session_floor(),
            10,
            "closed ids are never reissued"
        );
        assert_eq!(
            store.get_snapshot(9).expect_err("gone").kind(),
            "unknown_session"
        );
    }

    #[test]
    fn torn_write_stalls_store_and_recovery_keeps_committed_prefix() {
        let dir = TempDir::new("torn");
        // Let a few commits through, then tear a write mid-stream.
        let cfg = StoreConfig {
            chaos: Some(FaultPlan::new().torn_write_at(9)),
            ..small_cfg()
        };
        let store = Store::open(dir.path(), cfg).expect("open");
        let mut committed = Vec::new();
        let mut stalled = false;
        for i in 0..6u64 {
            let snap = snapshot(100 + i, 24 << 10);
            match store.put_session(&meta(i + 1, 1), &snap) {
                Ok(()) => {
                    assert!(!stalled, "no commit may succeed after a stall");
                    committed.push((i + 1, snap));
                }
                Err(e) => {
                    assert_eq!(e.kind(), "stalled", "unexpected error: {e}");
                    stalled = true;
                }
            }
        }
        assert!(stalled, "the torn write must surface");
        assert!(store.stalled().is_some());
        assert!(
            !committed.is_empty(),
            "some commits should precede the fault"
        );
        std::mem::forget(store);

        let store = Store::open(dir.path(), small_cfg()).expect("reopen");
        assert_eq!(store.sessions().len(), committed.len());
        for (id, snap) in &committed {
            assert_eq!(&store.get_snapshot(*id).expect("recovered"), snap);
        }
    }

    #[test]
    fn bit_rot_is_detected_as_typed_error_after_restart() {
        let dir = TempDir::new("bit_rot");
        // Event 0 is the segment header; event 1 is the first chunk.
        let cfg = StoreConfig {
            chaos: Some(FaultPlan::new().bit_rot_at(1, 3)),
            ..small_cfg()
        };
        let snap = snapshot(42, 3 << 10); // single chunk
        {
            let store = Store::open(dir.path(), cfg).expect("open");
            store
                .put_session(&meta(1, 1), &snap)
                .expect("rot is silent at write time");
            // The live cache still holds the good bytes.
            assert_eq!(store.get_snapshot(1).expect("cache"), snap);
            std::mem::forget(store);
        }
        let store = Store::open(dir.path(), small_cfg()).expect("reopen");
        let err = store.get_snapshot(1).expect_err("rot must be detected");
        assert!(
            matches!(err.kind(), "missing_chunk" | "chunk_corrupt"),
            "wrong error: {err}"
        );
        let report = fsck(dir.path()).expect("fsck");
        assert!(
            !report.clean(),
            "fsck must flag the rot: {}",
            report.to_json()
        );
    }

    #[test]
    fn lost_chunk_write_is_detected_after_restart() {
        let dir = TempDir::new("missing");
        let cfg = StoreConfig {
            chaos: Some(FaultPlan::new().missing_chunk_at(1)),
            ..small_cfg()
        };
        let snap = snapshot(43, 3 << 10);
        {
            let store = Store::open(dir.path(), cfg).expect("open");
            store
                .put_session(&meta(1, 1), &snap)
                .expect("loss is silent at write time");
            std::mem::forget(store);
        }
        let store = Store::open(dir.path(), small_cfg()).expect("reopen");
        let err = store.get_snapshot(1).expect_err("loss must be detected");
        assert!(
            matches!(err.kind(), "missing_chunk" | "chunk_corrupt"),
            "wrong error: {err}"
        );
    }

    #[test]
    fn fsync_failure_stalls_mutations_but_not_reads() {
        let dir = TempDir::new("fsync");
        let cfg = StoreConfig {
            // Put #1 is events 0–4 (header, chunk, segment fsync,
            // journal append, journal fsync); put #2's segment fsync
            // is event 6.
            chaos: Some(FaultPlan::new().fsync_fail_at(6)),
            ..small_cfg()
        };
        let store = Store::open(dir.path(), cfg).expect("open");
        let snap = snapshot(7, 3 << 10);
        store
            .put_session(&meta(1, 1), &snap)
            .expect("first put clean");
        let err = store
            .put_session(&meta(2, 1), &snapshot(8, 3 << 10))
            .expect_err("fsync fault");
        assert_eq!(err.kind(), "stalled");
        // Reads keep serving while stalled.
        assert_eq!(store.get_snapshot(1).expect("read through stall"), snap);
        let err = store.put_session(&meta(3, 1), &snap).expect_err("sticky");
        assert_eq!(err.kind(), "stalled");
    }

    #[test]
    fn fsck_is_clean_and_gc_reclaims_closed_sessions() {
        let dir = TempDir::new("gc");
        let keep = snapshot(1, 20 << 10);
        {
            let store = Store::open(dir.path(), small_cfg()).expect("open");
            store.put_session(&meta(1, 1), &keep).expect("put keep");
            store
                .put_session(&meta(2, 1), &snapshot(2, 20 << 10))
                .expect("put drop");
            store.remove_session(2).expect("close");
        }
        let report = fsck(dir.path()).expect("fsck");
        assert!(report.clean(), "healthy store: {}", report.to_json());
        assert!(
            report.unreferenced_chunks > 0,
            "closed session leaves garbage"
        );

        let gc_report = gc(dir.path()).expect("gc");
        assert!(gc_report.dropped_chunks > 0);
        assert!(gc_report.reclaimed_bytes > 0);

        let report = fsck(dir.path()).expect("fsck after gc");
        assert!(report.clean(), "gc output: {}", report.to_json());
        assert_eq!(report.unreferenced_chunks, 0);

        let store = Store::open(dir.path(), small_cfg()).expect("reopen after gc");
        assert_eq!(store.get_snapshot(1).expect("survivor"), keep);
        assert_eq!(store.next_session_floor(), 3);
    }

    #[test]
    fn identical_commit_is_an_alias_with_no_chunking_io() {
        let dir = TempDir::new("alias");
        let store = Store::open(dir.path(), small_cfg()).expect("open");
        let snap = snapshot(21, 120 << 10);
        store.put_session(&meta(1, 1), &snap).expect("put 1");
        let before = store.stats();
        // An idle session re-checkpoints the same bytes: the commit
        // must journal an alias without touching the chunker or the
        // segment files.
        store.put_session(&meta(1, 2), &snap).expect("put 2");
        let after = store.stats();
        assert_eq!(after.alias_commits, 1);
        assert_eq!(after.chunks, before.chunks, "no new chunks");
        assert_eq!(
            after.dedup_hits, before.dedup_hits,
            "no chunk lookups at all"
        );
        assert!(
            after.io_events - before.io_events <= 2,
            "an alias is one journal append (+ fsync), got {} io events",
            after.io_events - before.io_events
        );
        assert_eq!(store.get_snapshot(1).expect("get"), snap);
        let rec = store.session(1).expect("rec");
        assert_eq!(rec.commit_seq, 2);
        assert_eq!(rec.ops_done, 8);
    }

    #[test]
    fn small_edit_re_chunks_only_the_dirty_window() {
        let dir = TempDir::new("delta");
        let store = Store::open(dir.path(), small_cfg()).expect("open");
        let snap = snapshot(31, 256 << 10);
        store.put_session(&meta(1, 1), &snap).expect("put 1");
        let mut edited = snap.clone();
        let mid = edited.len() / 2;
        edited[mid] ^= 0x5A;
        store.put_session(&meta(1, 2), &edited).expect("put 2");
        let stats = store.stats();
        assert_eq!(stats.delta_commits, 1, "{stats:?}");
        assert!(
            stats.delta_chunked_bytes > 0
                && (stats.delta_chunked_bytes as usize) < edited.len() / 2,
            "a one-byte edit must not re-chunk half the snapshot: {stats:?}"
        );
        assert_eq!(store.get_snapshot(1).expect("get"), edited);
        // Appends are the common tally-session shape: the whole old
        // snapshot is the reusable prefix.
        let mut grown = edited.clone();
        grown.extend_from_slice(&snapshot(32, 8 << 10));
        store.put_session(&meta(1, 3), &grown).expect("put 3");
        assert_eq!(store.stats().delta_commits, 2);
        assert_eq!(store.get_snapshot(1).expect("get grown"), grown);
    }

    #[test]
    fn gc_preserves_delta_chain_chunks_and_floor_never_regresses() {
        let dir = TempDir::new("delta_gc");
        let base = snapshot(41, 96 << 10);
        let mut edited = base.clone();
        edited[100] ^= 1;
        {
            let store = Store::open(dir.path(), small_cfg()).expect("open");
            store.put_session(&meta(1, 1), &base).expect("put base");
            store.put_session(&meta(1, 2), &edited).expect("put delta");
            store.put_session(&meta(1, 3), &edited).expect("put alias");
            store
                .put_session(&meta(2, 1), &snapshot(42, 32 << 10))
                .expect("put other");
            store.remove_session(2).expect("close 2");
        }
        // gc must keep every chunk the live delta-chain record
        // references (reused prefix/suffix chunks included) while
        // reclaiming the closed session.
        let report = gc(dir.path()).expect("gc");
        assert!(report.dropped_chunks > 0, "closed session reclaimed");
        let store = Store::open(dir.path(), small_cfg()).expect("reopen");
        assert_eq!(
            store.get_snapshot(1).expect("delta chain survives gc"),
            edited
        );
        assert_eq!(
            store.next_session_floor(),
            3,
            "ids never reused after remove + gc + reopen"
        );
        // And deltas keep working against the gc-rewritten segments.
        let mut again = edited.clone();
        let last = again.len() - 1;
        again[last] ^= 0xF0;
        store
            .put_session(&meta(1, 4), &again)
            .expect("post-gc delta");
        assert_eq!(store.get_snapshot(1).expect("get"), again);
        assert_eq!(store.stats().delta_commits, 1);
        let report = fsck(dir.path()).expect("fsck");
        assert!(report.clean(), "post-gc store: {}", report.to_json());
    }

    #[test]
    fn chunk_sync_ships_only_missing_chunks_and_adopt_verifies_end_to_end() {
        let src_dir = TempDir::new("sync_src");
        let dst_dir = TempDir::new("sync_dst");
        let src = Store::open(src_dir.path(), small_cfg()).expect("open src");
        let dst = Store::open(dst_dir.path(), small_cfg()).expect("open dst");
        let base = snapshot(51, 1 << 20);
        src.put_session(&meta(7, 1), &base).expect("put base");
        // Warm the receiver with the prior commit, as replication would.
        let rec1 = src.session(7).expect("rec1");
        for id in &rec1.chunks {
            dst.put_chunk(&src.get_chunk_bytes(*id).expect("read"))
                .expect("ship");
        }
        dst.adopt_session(&rec1).expect("adopt seq 1");
        assert_eq!(dst.get_snapshot(7).expect("dst read"), base);
        // Dirty a small window and sync again: only the missing chunks
        // cross the wire.
        let mut edited = base.clone();
        edited[1000] ^= 0xAA;
        src.put_session(&meta(7, 2), &edited).expect("put edit");
        let rec2 = src.session(7).expect("rec2");
        let mut shipped = 0usize;
        for id in &rec2.chunks {
            if !dst.has_chunk(*id) {
                let bytes = src.get_chunk_bytes(*id).expect("read");
                shipped += bytes.len();
                dst.put_chunk(&bytes).expect("ship");
            }
        }
        assert!(shipped > 0);
        assert!(
            shipped < base.len() / 10,
            "warm sync must ship under 10%: {shipped} of {}",
            base.len()
        );
        dst.adopt_session(&rec2).expect("adopt seq 2");
        assert_eq!(dst.get_snapshot(7).expect("dst read 2"), edited);
        // A record naming a chunk the receiver never got is refused.
        let mut bogus = rec2.clone();
        bogus.id = 99;
        bogus.chunks.push(content_hash(b"never shipped"));
        bogus.snap_len += 13;
        let err = dst.adopt_session(&bogus).expect_err("missing chunk");
        assert_eq!(err.kind(), "missing_chunk");
        assert!(dst.session(99).is_none());
        // A record lying about its hash is refused before journaling.
        let mut liar = rec2.clone();
        liar.id = 98;
        liar.snap_hash = content_hash(b"wrong");
        let err = dst.adopt_session(&liar).expect_err("hash mismatch");
        assert_eq!(err.kind(), "snapshot_mismatch");
        assert!(dst.session(98).is_none());
    }

    #[test]
    fn torn_manifest_swap_leaves_previous_manifest_authoritative() {
        let dir = TempDir::new("manifest_swap");
        let snap = snapshot(3, 12 << 10);
        {
            let store = Store::open(dir.path(), small_cfg()).expect("open");
            store.put_session(&meta(1, 1), &snap).expect("put");
        } // checkpointed manifest now exists
          // Simulate a crash mid-swap: a half-written tmp next to the
          // real manifest.
        fs::write(dir.path().join("store.zman.tmp"), b"ZMANgarbage").expect("plant tmp");
        let store = Store::open(dir.path(), small_cfg()).expect("reopen");
        assert_eq!(store.get_snapshot(1).expect("recovered"), snap);
        assert!(
            !dir.path().join("store.zman.tmp").exists(),
            "tmp cleaned up"
        );
    }

    #[test]
    fn fsck_report_escapes_control_characters() {
        let report = FsckReport {
            damaged_segments: vec![(3, 64, "bad\nrecord".into())],
            manifest_error: Some("tab\there \"quoted\"".into()),
            bad_sessions: vec![(9, "bell\u{7}".into())],
            ..FsckReport::default()
        };
        let json = report.to_json();
        assert!(zarf_testkit::is_json(&json), "{json}");
        assert!(json.contains(r#""reason":"bad\nrecord""#), "{json}");
        assert!(json.contains(r#""manifest_error":"tab\there \"quoted\"""#));
        assert!(json.contains(r#""reason":"bell\u0007""#), "{json}");
    }
}
