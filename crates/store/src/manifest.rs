//! Manifest checkpoint and commit journal codecs — pure byte-level
//! encode/decode, no I/O, so every crash shape is testable on slices.
//!
//! Durable session metadata lives in two files:
//!
//! * **`store.zman`** — the checkpoint: every live session's record
//!   plus the id high-water mark, one CRC over the whole body,
//!   replaced atomically (write `store.zman.tmp`, fsync, rename).
//! * **`store.jrnl`** — the commit journal: one self-delimiting,
//!   CRC-guarded record appended per commit or close since the last
//!   checkpoint. Replay is idempotent (commits are keyed by
//!   `(id, commit_seq)` and applied only forward), so a checkpoint
//!   that crashed *after* the rename but *before* the journal
//!   truncation merely replays records that are already folded in.
//!
//! Recovery = decode checkpoint, replay journal prefix. A torn journal
//! tail is the expected crash boundary and is ignored; damage earlier
//! in the journal stops the replay at the last consistent prefix and
//! is reported, never skipped over.
//!
//! ```text
//! store.zman:  "ZMAN" | version u32 | body len u32 | body | crc32(body)
//!   body: max_id u64 | count u32 | session record...
//! store.jrnl record: "ZJRN" | body len u32 | body | crc32(body)
//!   body: type u8 (1=commit, 2=close) | ...
//! session record: id u64 | commit_seq u64 | ops_done u64 |
//!   heap_words u64 | op_budget u64 | fuel_slice u64 | verified u8 |
//!   snap_len u64 | snap_hash [16] | chunk count u32 | chunk ids [16]...
//! ```

use std::collections::BTreeMap;

use zarf_core::crc32;

use crate::hash::ChunkId;
use crate::StoreError;

pub const MANIFEST_MAGIC: [u8; 4] = *b"ZMAN";
pub const MANIFEST_VERSION: u32 = 1;
pub const JOURNAL_MAGIC: [u8; 4] = *b"ZJRN";
/// Ceiling on a decoded journal/manifest body, so a rotted length
/// field cannot drive an absurd allocation.
pub const MAX_BODY: u32 = 1 << 26;

/// Everything the store must remember about one committed session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionRecord {
    pub id: u64,
    pub commit_seq: u64,
    pub ops_done: u64,
    pub heap_words: u64,
    pub op_budget: u64,
    pub fuel_slice: u64,
    pub verified: bool,
    /// Total snapshot length — the concatenation of chunks must equal it.
    pub snap_len: u64,
    /// Content hash of the whole snapshot: the end-to-end read check.
    pub snap_hash: ChunkId,
    /// Ordered chunk ids whose concatenation is the snapshot.
    pub chunks: Vec<ChunkId>,
}

/// In-memory image of the durable manifest.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Manifest {
    /// Highest session id ever issued — recovery seeds id allocation
    /// *above* this so a recovered fleet never reuses an id.
    pub max_id: u64,
    pub sessions: BTreeMap<u64, SessionRecord>,
}

impl Manifest {
    /// Fold one journal record in. Idempotent: replaying an
    /// already-applied record is a no-op.
    pub fn apply(&mut self, rec: &JournalRecord) {
        match rec {
            JournalRecord::Commit(s) => {
                self.max_id = self.max_id.max(s.id);
                match self.sessions.get(&s.id) {
                    Some(old) if old.commit_seq >= s.commit_seq => {}
                    _ => {
                        self.sessions.insert(s.id, s.clone());
                    }
                }
            }
            JournalRecord::Close { id } => {
                self.max_id = self.max_id.max(*id);
                self.sessions.remove(id);
            }
        }
    }
}

/// One durable event appended to `store.jrnl`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalRecord {
    Commit(SessionRecord),
    Close { id: u64 },
}

fn put_session(out: &mut Vec<u8>, s: &SessionRecord) {
    out.extend_from_slice(&s.id.to_le_bytes());
    out.extend_from_slice(&s.commit_seq.to_le_bytes());
    out.extend_from_slice(&s.ops_done.to_le_bytes());
    out.extend_from_slice(&s.heap_words.to_le_bytes());
    out.extend_from_slice(&s.op_budget.to_le_bytes());
    out.extend_from_slice(&s.fuel_slice.to_le_bytes());
    out.push(s.verified as u8);
    out.extend_from_slice(&s.snap_len.to_le_bytes());
    out.extend_from_slice(&s.snap_hash.0);
    out.extend_from_slice(&(s.chunks.len() as u32).to_le_bytes());
    for c in &s.chunks {
        out.extend_from_slice(&c.0);
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn bytes(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| StoreError::ManifestCorrupt {
                detail: "truncated record body".to_string(),
            })?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.bytes(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, StoreError> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, StoreError> {
        let b = self.bytes(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn chunk_id(&mut self) -> Result<ChunkId, StoreError> {
        let b = self.bytes(16)?;
        let mut id = [0u8; 16];
        id.copy_from_slice(b);
        Ok(ChunkId(id))
    }

    fn session(&mut self) -> Result<SessionRecord, StoreError> {
        let id = self.u64()?;
        let commit_seq = self.u64()?;
        let ops_done = self.u64()?;
        let heap_words = self.u64()?;
        let op_budget = self.u64()?;
        let fuel_slice = self.u64()?;
        let verified = self.u8()? != 0;
        let snap_len = self.u64()?;
        let snap_hash = self.chunk_id()?;
        let count = self.u32()?;
        // A chunk id is 16 bytes, so `count` can never describe more
        // bytes than remain — reject before allocating.
        if count as usize > (self.buf.len() - self.pos) / 16 {
            return Err(StoreError::ManifestCorrupt {
                detail: format!("implausible chunk count {count}"),
            });
        }
        let mut chunks = Vec::with_capacity(count as usize);
        for _ in 0..count {
            chunks.push(self.chunk_id()?);
        }
        Ok(SessionRecord {
            id,
            commit_seq,
            ops_done,
            heap_words,
            op_budget,
            fuel_slice,
            verified,
            snap_len,
            snap_hash,
            chunks,
        })
    }
}

/// Serialise the whole manifest to the `store.zman` checkpoint format.
pub fn encode_manifest(m: &Manifest) -> Vec<u8> {
    let mut body = Vec::new();
    body.extend_from_slice(&m.max_id.to_le_bytes());
    body.extend_from_slice(&(m.sessions.len() as u32).to_le_bytes());
    for s in m.sessions.values() {
        put_session(&mut body, s);
    }
    let mut out = Vec::with_capacity(body.len() + 16);
    out.extend_from_slice(&MANIFEST_MAGIC);
    out.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&body);
    out.extend_from_slice(&crc32(&body).to_le_bytes());
    out
}

/// Decode a `store.zman` checkpoint. Any structural problem is a
/// typed [`StoreError::ManifestCorrupt`] — a manifest is either fully
/// valid or rejected whole.
pub fn decode_manifest(bytes: &[u8]) -> Result<Manifest, StoreError> {
    let corrupt = |detail: &str| StoreError::ManifestCorrupt {
        detail: detail.to_string(),
    };
    if bytes.len() < 12 {
        return Err(corrupt("truncated header"));
    }
    if bytes[..4] != MANIFEST_MAGIC {
        return Err(corrupt("bad magic"));
    }
    if u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]) != MANIFEST_VERSION {
        return Err(corrupt("unsupported version"));
    }
    let body_len = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    if body_len > MAX_BODY {
        return Err(corrupt("implausible body length"));
    }
    let body_end = 12 + body_len as usize;
    let body = bytes
        .get(12..body_end)
        .ok_or_else(|| corrupt("truncated body"))?;
    let crc_bytes = bytes
        .get(body_end..body_end + 4)
        .ok_or_else(|| corrupt("truncated checksum"))?;
    if bytes.len() != body_end + 4 {
        return Err(corrupt("trailing bytes"));
    }
    let crc = u32::from_le_bytes([crc_bytes[0], crc_bytes[1], crc_bytes[2], crc_bytes[3]]);
    if crc32(body) != crc {
        return Err(corrupt("body CRC mismatch"));
    }
    let mut r = Reader { buf: body, pos: 0 };
    let max_id = r.u64()?;
    let count = r.u32()?;
    let mut m = Manifest {
        max_id,
        sessions: BTreeMap::new(),
    };
    for _ in 0..count {
        let s = r.session()?;
        if m.sessions.insert(s.id, s).is_some() {
            return Err(corrupt("duplicate session id"));
        }
    }
    if r.pos != body.len() {
        return Err(corrupt("trailing bytes in body"));
    }
    Ok(m)
}

/// Encode one journal record, framed and CRC-guarded.
pub fn encode_journal_record(rec: &JournalRecord) -> Vec<u8> {
    let mut body = Vec::new();
    match rec {
        JournalRecord::Commit(s) => {
            body.push(1);
            put_session(&mut body, s);
        }
        JournalRecord::Close { id } => {
            body.push(2);
            body.extend_from_slice(&id.to_le_bytes());
        }
    }
    let mut out = Vec::with_capacity(body.len() + 12);
    out.extend_from_slice(&JOURNAL_MAGIC);
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&body);
    out.extend_from_slice(&crc32(&body).to_le_bytes());
    out
}

/// Result of walking the commit journal.
#[derive(Debug, Default)]
pub struct JournalScan {
    /// Verified records in append order.
    pub records: Vec<JournalRecord>,
    /// Bytes covered by verified records.
    pub valid_len: u64,
    /// True when the file ends inside a record — the benign crash shape.
    pub torn: bool,
    /// First structural damage (offset, reason); the scan stops there.
    pub damage: Option<(u64, String)>,
}

/// Walk the journal, verifying every record. Stops at a torn tail
/// (benign) or at damage (reported); either way the returned prefix is
/// fully verified.
pub fn scan_journal(bytes: &[u8]) -> JournalScan {
    let mut scan = JournalScan::default();
    let mut at = 0usize;
    while at < bytes.len() {
        let header = match bytes.get(at..at + 8) {
            Some(h) => h,
            None => {
                scan.torn = true;
                return scan;
            }
        };
        if header[..4] != JOURNAL_MAGIC {
            scan.damage = Some((at as u64, "bad journal record magic".to_string()));
            return scan;
        }
        let body_len = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
        if body_len > MAX_BODY {
            scan.damage = Some((at as u64, "implausible journal body length".to_string()));
            return scan;
        }
        let body_end = at + 8 + body_len as usize;
        let body = match bytes.get(at + 8..body_end) {
            Some(b) => b,
            None => {
                scan.torn = true;
                return scan;
            }
        };
        let crc_bytes = match bytes.get(body_end..body_end + 4) {
            Some(c) => c,
            None => {
                scan.torn = true;
                return scan;
            }
        };
        let crc = u32::from_le_bytes([crc_bytes[0], crc_bytes[1], crc_bytes[2], crc_bytes[3]]);
        if crc32(body) != crc {
            scan.damage = Some((at as u64, "journal record CRC mismatch".to_string()));
            return scan;
        }
        let mut r = Reader { buf: body, pos: 0 };
        let rec = match r.u8() {
            Ok(1) => r.session().map(JournalRecord::Commit),
            Ok(2) => r.u64().map(|id| JournalRecord::Close { id }),
            _ => Err(StoreError::ManifestCorrupt {
                detail: "unknown journal record type".to_string(),
            }),
        };
        match rec {
            Ok(rec) if r.pos == body.len() => scan.records.push(rec),
            _ => {
                scan.damage = Some((at as u64, "malformed journal record body".to_string()));
                return scan;
            }
        }
        at = body_end + 4;
        scan.valid_len = at as u64;
    }
    scan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::content_hash;

    fn record(id: u64, seq: u64) -> SessionRecord {
        let payload = vec![id as u8; 64];
        SessionRecord {
            id,
            commit_seq: seq,
            ops_done: seq * 3,
            heap_words: 4096,
            op_budget: 1 << 20,
            fuel_slice: 64,
            verified: id.is_multiple_of(2),
            snap_len: payload.len() as u64,
            snap_hash: content_hash(&payload),
            chunks: vec![content_hash(&payload), content_hash(b"tail")],
        }
    }

    fn manifest_with(ids: &[u64]) -> Manifest {
        let mut m = Manifest::default();
        for &id in ids {
            m.apply(&JournalRecord::Commit(record(id, 1)));
        }
        m
    }

    #[test]
    fn manifest_round_trips() {
        for m in [
            Manifest::default(),
            manifest_with(&[1]),
            manifest_with(&[1, 2, 9]),
        ] {
            assert_eq!(decode_manifest(&encode_manifest(&m)), Ok(m));
        }
    }

    #[test]
    fn every_manifest_corruption_is_typed_never_wrong() {
        let good = encode_manifest(&manifest_with(&[1, 2, 3]));
        let decoded = decode_manifest(&good).unwrap();
        for cut in 0..good.len() {
            match decode_manifest(&good[..cut]) {
                Err(StoreError::ManifestCorrupt { .. }) => {}
                other => panic!("truncation at {cut}: {other:?}"),
            }
        }
        for i in 0..good.len() {
            for bit in [0, 3, 7] {
                let mut m = good.clone();
                m[i] ^= 1 << bit;
                match decode_manifest(&m) {
                    Ok(d) => assert_eq!(d, decoded, "flip at {i}.{bit} changed the decode"),
                    Err(StoreError::ManifestCorrupt { .. }) => {}
                    Err(e) => panic!("flip at {i}.{bit}: unexpected error {e:?}"),
                }
            }
        }
    }

    #[test]
    fn journal_replay_is_idempotent_and_ordered() {
        let mut journal = Vec::new();
        let records = [
            JournalRecord::Commit(record(1, 1)),
            JournalRecord::Commit(record(2, 1)),
            JournalRecord::Commit(record(1, 2)),
            JournalRecord::Close { id: 2 },
        ];
        for r in &records {
            journal.extend_from_slice(&encode_journal_record(r));
        }
        let scan = scan_journal(&journal);
        assert_eq!(scan.records.len(), 4);
        assert!(!scan.torn && scan.damage.is_none());
        assert_eq!(scan.valid_len, journal.len() as u64);

        let mut m = Manifest::default();
        for r in &scan.records {
            m.apply(r);
        }
        // Replaying the whole journal again must change nothing.
        let once = m.clone();
        for r in &scan.records {
            m.apply(r);
        }
        assert_eq!(m, once);
        assert_eq!(m.sessions.len(), 1);
        assert_eq!(m.sessions[&1].commit_seq, 2);
        assert_eq!(m.max_id, 2, "closed ids still hold the high-water mark");
        // A stale commit arriving after a newer one is ignored.
        m.apply(&JournalRecord::Commit(record(1, 1)));
        assert_eq!(m.sessions[&1].commit_seq, 2);
    }

    #[test]
    fn torn_journal_tail_yields_the_verified_prefix() {
        let mut journal = Vec::new();
        journal.extend_from_slice(&encode_journal_record(&JournalRecord::Commit(record(1, 1))));
        let first = journal.len();
        journal.extend_from_slice(&encode_journal_record(&JournalRecord::Commit(record(1, 2))));
        for cut in 0..journal.len() {
            let scan = scan_journal(&journal[..cut]);
            assert!(scan.damage.is_none(), "cut at {cut}");
            if cut < first {
                assert!(scan.records.is_empty(), "cut at {cut}");
                assert!(scan.torn || cut == 0);
            } else {
                assert_eq!(scan.records.len(), 1, "cut at {cut}");
                assert!(scan.torn || cut == first);
            }
        }
    }

    #[test]
    fn mid_journal_damage_stops_replay_and_is_reported() {
        let mut journal = Vec::new();
        journal.extend_from_slice(&encode_journal_record(&JournalRecord::Commit(record(1, 1))));
        let first = journal.len();
        journal.extend_from_slice(&encode_journal_record(&JournalRecord::Close { id: 1 }));
        journal[first + 10] ^= 0x40; // rot inside the second record body
        let scan = scan_journal(&journal);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.damage.as_ref().map(|d| d.0), Some(first as u64));
        assert_eq!(scan.valid_len, first as u64);
    }
}
