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
//!   heap_words u64 | op_budget u64 | fuel_slice u64 | verified u8 (0|1) |
//!   snap_len u64 | snap_hash [16] | chunk count u32 | chunk ids [16]...
//! ```

use std::collections::BTreeMap;

use zarf_core::{crc32, ByteError, ByteReader};

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

impl SessionRecord {
    /// Append the record's durable encoding (the `session record` row of
    /// the layout above). This is the one codec for session records: the
    /// manifest, the journal and the `ZREP` replication link all use it.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.id.to_le_bytes());
        out.extend_from_slice(&self.commit_seq.to_le_bytes());
        out.extend_from_slice(&self.ops_done.to_le_bytes());
        out.extend_from_slice(&self.heap_words.to_le_bytes());
        out.extend_from_slice(&self.op_budget.to_le_bytes());
        out.extend_from_slice(&self.fuel_slice.to_le_bytes());
        out.push(self.verified as u8);
        out.extend_from_slice(&self.snap_len.to_le_bytes());
        out.extend_from_slice(&self.snap_hash.0);
        out.extend_from_slice(&(self.chunks.len() as u32).to_le_bytes());
        for c in &self.chunks {
            out.extend_from_slice(&c.0);
        }
    }

    /// Decode one record written by [`SessionRecord::encode_into`]. The
    /// `verified` byte must be 0 or 1, and a chunk count the remaining
    /// bytes cannot hold is refused before allocating.
    pub fn read(r: &mut ByteReader<'_>) -> Result<SessionRecord, ByteError> {
        let id = r.u64()?;
        let commit_seq = r.u64()?;
        let ops_done = r.u64()?;
        let heap_words = r.u64()?;
        let op_budget = r.u64()?;
        let fuel_slice = r.u64()?;
        let verified = r.flag("verified flag")?;
        let snap_len = r.u64()?;
        let snap_hash = ChunkId(r.array()?);
        let count = r.count(16)?;
        let mut chunks = Vec::with_capacity(count);
        for _ in 0..count {
            chunks.push(ChunkId(r.array()?));
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

    /// [`SessionRecord::read`] over a buffer that must hold exactly one
    /// record.
    pub fn decode(buf: &[u8]) -> Result<SessionRecord, ByteError> {
        let mut r = ByteReader::new(buf);
        let rec = SessionRecord::read(&mut r)?;
        r.finish()?;
        Ok(rec)
    }
}

/// A record that fails to decode is a corrupt manifest or journal.
impl From<ByteError> for StoreError {
    fn from(e: ByteError) -> Self {
        let detail = match e {
            ByteError::Truncated => "truncated record body",
            ByteError::Trailing => "trailing bytes in body",
            ByteError::Invalid(what) => what,
        };
        StoreError::ManifestCorrupt {
            detail: detail.to_string(),
        }
    }
}

/// Serialise the whole manifest to the `store.zman` checkpoint format.
pub fn encode_manifest(m: &Manifest) -> Vec<u8> {
    let mut body = Vec::new();
    body.extend_from_slice(&m.max_id.to_le_bytes());
    body.extend_from_slice(&(m.sessions.len() as u32).to_le_bytes());
    for s in m.sessions.values() {
        s.encode_into(&mut body);
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
    let mut r = ByteReader::new(bytes);
    let (Ok(magic), Ok(version), Ok(body_len)) = (r.array::<4>(), r.u32(), r.u32()) else {
        return Err(corrupt("truncated header"));
    };
    if magic != MANIFEST_MAGIC {
        return Err(corrupt("bad magic"));
    }
    if version != MANIFEST_VERSION {
        return Err(corrupt("unsupported version"));
    }
    if body_len > MAX_BODY {
        return Err(corrupt("implausible body length"));
    }
    let body = r
        .take(body_len as usize)
        .map_err(|_| corrupt("truncated body"))?;
    let crc = r.u32().map_err(|_| corrupt("truncated checksum"))?;
    r.finish().map_err(|_| corrupt("trailing bytes"))?;
    if crc32(body) != crc {
        return Err(corrupt("body CRC mismatch"));
    }
    let mut r = ByteReader::new(body);
    let max_id = r.u64()?;
    let count = r.u32()?;
    let mut m = Manifest {
        max_id,
        sessions: BTreeMap::new(),
    };
    for _ in 0..count {
        let s = SessionRecord::read(&mut r)?;
        if m.sessions.insert(s.id, s).is_some() {
            return Err(corrupt("duplicate session id"));
        }
    }
    r.finish()?;
    Ok(m)
}

/// Encode one journal record, framed and CRC-guarded.
pub fn encode_journal_record(rec: &JournalRecord) -> Vec<u8> {
    let mut body = Vec::new();
    match rec {
        JournalRecord::Commit(s) => {
            body.push(1);
            s.encode_into(&mut body);
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

/// Decode one journal record body (the bytes between its length and
/// its CRC); the whole body must be consumed.
fn decode_journal_body(body: &[u8]) -> Result<JournalRecord, StoreError> {
    let mut r = ByteReader::new(body);
    let rec = match r.u8()? {
        1 => JournalRecord::Commit(SessionRecord::read(&mut r)?),
        2 => JournalRecord::Close { id: r.u64()? },
        _ => {
            return Err(StoreError::ManifestCorrupt {
                detail: "unknown journal record type".to_string(),
            })
        }
    };
    r.finish()?;
    Ok(rec)
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
    let mut r = ByteReader::new(bytes);
    while r.remaining() > 0 {
        let at = bytes.len() - r.remaining();
        let (Ok(magic), Ok(body_len)) = (r.array::<4>(), r.u32()) else {
            scan.torn = true;
            return scan;
        };
        if magic != JOURNAL_MAGIC {
            scan.damage = Some((at as u64, "bad journal record magic".to_string()));
            return scan;
        }
        if body_len > MAX_BODY {
            scan.damage = Some((at as u64, "implausible journal body length".to_string()));
            return scan;
        }
        let (Ok(body), Ok(crc)) = (r.take(body_len as usize), r.u32()) else {
            scan.torn = true;
            return scan;
        };
        if crc32(body) != crc {
            scan.damage = Some((at as u64, "journal record CRC mismatch".to_string()));
            return scan;
        }
        match decode_journal_body(body) {
            Ok(rec) => scan.records.push(rec),
            Err(_) => {
                scan.damage = Some((at as u64, "malformed journal record body".to_string()));
                return scan;
            }
        }
        scan.valid_len = (bytes.len() - r.remaining()) as u64;
    }
    scan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::content_hash;
    use zarf_testkit::fnv1a;

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
    fn encoded_bytes_are_pinned() {
        // Recorded before the record codec was shared with `ZREP`: the
        // durable layout must not move by a byte.
        let pinned = [
            (
                encode_manifest(&manifest_with(&[1, 2, 9])),
                (355, 0xC5C0_C7D2_CE52_0CF9),
            ),
            (
                encode_journal_record(&JournalRecord::Commit(record(1, 2))),
                (122, 0x0C78_7170_46BB_1061),
            ),
            (
                encode_journal_record(&JournalRecord::Close { id: 2 }),
                (21, 0xABF3_A27A_AF7C_76BC),
            ),
        ];
        for (bytes, want) in pinned {
            assert_eq!((bytes.len(), fnv1a(&bytes)), want);
        }
    }

    /// Overwrite the `verified` byte of the first session record and
    /// re-seal the CRC over `body`, so only the record codec can object.
    fn with_verified_byte(mut bytes: Vec<u8>, at: usize, body_start: usize, v: u8) -> Vec<u8> {
        bytes[at] = v;
        let body_end = bytes.len() - 4;
        let crc = crc32(&bytes[body_start..body_end]);
        bytes[body_end..].copy_from_slice(&crc.to_le_bytes());
        bytes
    }

    #[test]
    fn verified_byte_must_be_zero_or_one() {
        // `verified` sits after six u64 fields of the record.
        const VERIFIED: usize = 48;
        let manifest = encode_manifest(&manifest_with(&[1]));
        let at = 12 + 8 + 4 + VERIFIED; // header, max_id, count
        let journal = encode_journal_record(&JournalRecord::Commit(record(1, 1)));
        let jat = 8 + 1 + VERIFIED; // header, record type
        let corrupt = |r: Result<_, StoreError>| match r {
            Err(StoreError::ManifestCorrupt { detail }) => detail == "verified flag",
            _ => false,
        };
        // The offsets are right: 1 flips the record to verified.
        let m = decode_manifest(&with_verified_byte(manifest.clone(), at, 12, 1)).unwrap();
        assert!(m.sessions[&1].verified);
        let j = with_verified_byte(journal.clone(), jat, 8, 1);
        match decode_journal_body(&j[8..j.len() - 4]) {
            Ok(JournalRecord::Commit(s)) => assert!(s.verified),
            other => panic!("{other:?}"),
        }
        for v in [2u8, 0x80, 0xFF] {
            let m = with_verified_byte(manifest.clone(), at, 12, v);
            assert!(
                corrupt(decode_manifest(&m).map(|_| ())),
                "manifest byte {v}"
            );
            let j = with_verified_byte(journal.clone(), jat, 8, v);
            assert!(corrupt(decode_journal_body(&j[8..j.len() - 4]).map(|_| ())));
            let scan = scan_journal(&j);
            assert!(scan.records.is_empty(), "journal byte {v}");
            assert_eq!(scan.damage.map(|d| d.0), Some(0));
        }
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
