//! `ZREP` — chunk-sync replication and migration over the snapshot store.
//!
//! The durable store already makes one fleet crash-recoverable: every
//! slice commit is a content-addressed manifest record whose chunks
//! reassemble the committed snapshot byte-identically. This module
//! moves those records between *machines* with the same end-to-end
//! discipline:
//!
//! * **Replication** ([`spawn_replicator`] / [`ReplSink`]): a primary
//!   fleet notes every committed slice in a [`ReplSink`]; a pump thread
//!   drains the dirty set and ships each session's latest record to a
//!   standby running [`serve_repl`], sending only the chunks the
//!   standby does not already hold. Ack lag is bounded: when the
//!   standby falls more than `lag_cap` commits behind, the primary
//!   sheds new injects with `ERR_OVERLOADED` instead of silently
//!   widening the failover loss window. On primary death the standby's
//!   store *is* a recoverable fleet directory — promotion is just
//!   `Fleet::start` (or `zarf serve`) over it, and every acknowledged
//!   session resumes byte-identical to a standalone run.
//! * **Migration** ([`migrate_session`]): move one live session between
//!   serving fleets with exactly-once cutover. The source quiesces the
//!   session at a slice boundary (new ops are shed typed), the
//!   destination receives only the chunks it is missing, verifies the
//!   reassembled snapshot end-to-end (length, whole-snapshot hash, and
//!   a structural `ZSNP` audit), and only after its acknowledgement
//!   does the source release the session. Any failure resumes the
//!   session on the source — it is never lost in the middle.
//!
//! ## Frame layout
//!
//! `ZREP` frames mirror `ZFLT` exactly — magic, version byte, u32 LE
//! payload length, payload, CRC-32 of the payload — so every transport
//! guarantee (single-bit-flip rejection, truncation rejection, exact
//! consume) carries over. Messages:
//!
//! | opcode | message     | body                                        |
//! |--------|-------------|---------------------------------------------|
//! | 1      | `Hello`     | —                                           |
//! | 2      | `HelloAck`  | count, then (session u64, commit_seq u64)…  |
//! | 3      | `Offer`     | encoded session record                      |
//! | 4      | `Need`      | already u8, count, then chunk ids ×16 bytes |
//! | 5      | `Chunk`     | id 16 bytes, length-prefixed payload        |
//! | 6      | `Commit`    | session u64, commit_seq u64                 |
//! | 7      | `CommitAck` | session u64, commit_seq u64                 |
//! | 8      | `Close`     | session u64                                 |
//! | 9      | `CloseAck`  | session u64                                 |
//! | 10     | `Err`       | code u32, message string                    |
//!
//! The receiver is idempotent by construction: chunks are
//! content-addressed (a duplicate write is a no-op), an `Offer` the
//! receiver already holds answers `already`, and a `Commit` for a
//! record already adopted at that sequence re-acks instead of failing —
//! so duplicated or replayed frames after a reconnect converge on the
//! same store state. The `FaultSite::Repl` chaos axis (link drop,
//! stall, reorder, truncated stream, duplicated delivery) exercises
//! exactly these paths.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use zarf_chaos::{FaultKind, FaultPlan, FaultSite};
use zarf_core::ByteReader;
use zarf_hw::verify_container;
use zarf_store::{content_hash, ChunkId, SessionRecord, Store};

use crate::wire::{
    put_bytes, put_string, put_u32, put_u64, read_bytes, read_string, Framing, RetryPolicy,
    WireError,
};
use crate::{FleetError, Request, Response};

/// `ZREP` frame magic.
pub const REPL_MAGIC: [u8; 4] = *b"ZREP";
/// `ZREP` protocol version.
pub const REPL_VERSION: u8 = 1;

/// Error code carried by [`ReplMsg::Err`]: the receiver's store failed.
pub const REPL_ERR_STORE: u32 = 1;
/// Error code: a message violated the protocol (bad sequence, unknown
/// commit, …).
pub const REPL_ERR_PROTOCOL: u32 = 2;
/// Error code: a chunk's bytes did not hash to its claimed id.
pub const REPL_ERR_HASH: u32 = 3;

/// The replication link's framing: the `ZFLT` layout under its own
/// magic and version.
pub const ZREP: Framing = Framing {
    magic: REPL_MAGIC,
    version: REPL_VERSION,
};

// -- message codec ------------------------------------------------------------

const OP_HELLO: u8 = 1;
const OP_HELLO_ACK: u8 = 2;
const OP_OFFER: u8 = 3;
const OP_NEED: u8 = 4;
const OP_CHUNK: u8 = 5;
const OP_COMMIT: u8 = 6;
const OP_COMMIT_ACK: u8 = 7;
const OP_CLOSE: u8 = 8;
const OP_CLOSE_ACK: u8 = 9;
const OP_ERR: u8 = 10;

/// The `ZREP` replication messages. The pump speaks request/response
/// except for [`ReplMsg::Chunk`], which is pipelined with no reply —
/// the following `Commit`'s ack covers the whole batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplMsg {
    /// Link open; the receiver answers [`ReplMsg::HelloAck`].
    Hello,
    /// What the receiver already holds: `(session, commit_seq)` for
    /// every committed record. Seeds the sender's acked map so a
    /// reconnect never reships acknowledged state.
    HelloAck {
        /// Held sessions and their commit sequence numbers.
        acked: Vec<(u64, u64)>,
    },
    /// A session record the sender wants durable on the receiver.
    Offer {
        /// The record (complete ordered chunk list).
        rec: SessionRecord,
    },
    /// The receiver's delta plan for an offer.
    Need {
        /// The receiver already holds this session at (or past) the
        /// offered commit; nothing to ship.
        already: bool,
        /// Chunk ids the receiver is missing (deduplicated).
        chunks: Vec<ChunkId>,
    },
    /// One content-addressed chunk. Pipelined: no reply.
    Chunk {
        /// The claimed content address (re-verified on arrival).
        id: ChunkId,
        /// The chunk payload.
        bytes: Vec<u8>,
    },
    /// All chunks for an offer have been sent; adopt the record.
    Commit {
        /// The session.
        session: u64,
        /// The commit sequence being adopted.
        commit_seq: u64,
    },
    /// The record is durable and end-to-end verified on the receiver.
    CommitAck {
        /// The session.
        session: u64,
        /// The acknowledged commit sequence.
        commit_seq: u64,
    },
    /// The session closed on the primary; drop it on the standby.
    Close {
        /// The session.
        session: u64,
    },
    /// The close is durable on the receiver.
    CloseAck {
        /// The session.
        session: u64,
    },
    /// The receiver rejected a message (`REPL_ERR_*`).
    Err {
        /// Machine-readable code.
        code: u32,
        /// Human-readable cause.
        message: String,
    },
}

impl ReplMsg {
    /// Serialize to a payload (opcode + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            ReplMsg::Hello => out.push(OP_HELLO),
            ReplMsg::HelloAck { acked } => {
                out.push(OP_HELLO_ACK);
                put_u32(&mut out, acked.len() as u32);
                for &(session, seq) in acked {
                    put_u64(&mut out, session);
                    put_u64(&mut out, seq);
                }
            }
            ReplMsg::Offer { rec } => {
                out.push(OP_OFFER);
                rec.encode_into(&mut out);
            }
            ReplMsg::Need { already, chunks } => {
                out.push(OP_NEED);
                out.push(*already as u8);
                put_u32(&mut out, chunks.len() as u32);
                for c in chunks {
                    out.extend_from_slice(&c.0);
                }
            }
            ReplMsg::Chunk { id, bytes } => {
                out.push(OP_CHUNK);
                out.extend_from_slice(&id.0);
                put_bytes(&mut out, bytes);
            }
            ReplMsg::Commit {
                session,
                commit_seq,
            } => {
                out.push(OP_COMMIT);
                put_u64(&mut out, *session);
                put_u64(&mut out, *commit_seq);
            }
            ReplMsg::CommitAck {
                session,
                commit_seq,
            } => {
                out.push(OP_COMMIT_ACK);
                put_u64(&mut out, *session);
                put_u64(&mut out, *commit_seq);
            }
            ReplMsg::Close { session } => {
                out.push(OP_CLOSE);
                put_u64(&mut out, *session);
            }
            ReplMsg::CloseAck { session } => {
                out.push(OP_CLOSE_ACK);
                put_u64(&mut out, *session);
            }
            ReplMsg::Err { code, message } => {
                out.push(OP_ERR);
                put_u32(&mut out, *code);
                put_string(&mut out, message);
            }
        }
        out
    }

    /// Deserialize from a payload; the whole payload must be consumed.
    pub fn decode(payload: &[u8]) -> Result<ReplMsg, WireError> {
        let mut r = ByteReader::new(payload);
        let msg = match r.u8()? {
            OP_HELLO => ReplMsg::Hello,
            OP_HELLO_ACK => {
                let n = r.count(16)?;
                let mut acked = Vec::with_capacity(n);
                for _ in 0..n {
                    acked.push((r.u64()?, r.u64()?));
                }
                ReplMsg::HelloAck { acked }
            }
            OP_OFFER => ReplMsg::Offer {
                rec: SessionRecord::read(&mut r)?,
            },
            OP_NEED => {
                let already = r.flag("already flag")?;
                let n = r.count(16)?;
                let mut chunks = Vec::with_capacity(n);
                for _ in 0..n {
                    chunks.push(ChunkId(r.array()?));
                }
                ReplMsg::Need { already, chunks }
            }
            OP_CHUNK => ReplMsg::Chunk {
                id: ChunkId(r.array()?),
                bytes: read_bytes(&mut r)?,
            },
            OP_COMMIT => ReplMsg::Commit {
                session: r.u64()?,
                commit_seq: r.u64()?,
            },
            OP_COMMIT_ACK => ReplMsg::CommitAck {
                session: r.u64()?,
                commit_seq: r.u64()?,
            },
            OP_CLOSE => ReplMsg::Close { session: r.u64()? },
            OP_CLOSE_ACK => ReplMsg::CloseAck { session: r.u64()? },
            OP_ERR => ReplMsg::Err {
                code: r.u32()?,
                message: read_string(&mut r)?,
            },
            op => return Err(WireError::UnknownOpcode(op)),
        };
        r.finish()?;
        Ok(msg)
    }
}

// -- the sink: what the fleet notes, what the pump drains ---------------------

/// Work the pump owes the standby.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplWork {
    /// Ship the session's latest committed record.
    Commit(u64),
    /// Propagate a session close.
    Close(u64),
}

#[derive(Debug, Default)]
struct SinkState {
    /// Sessions with a committed record the standby has not acked.
    dirty: BTreeSet<u64>,
    /// Session closes not yet propagated.
    closed: VecDeque<u64>,
    /// Latest committed sequence per session.
    latest: BTreeMap<u64, u64>,
    /// Latest sequence the standby acknowledged per session.
    acked: BTreeMap<u64, u64>,
    shutdown: bool,
}

impl SinkState {
    /// Commits the standby has not acknowledged: Σ (latest − acked)
    /// plus the unpropagated-close backlog. A dead link keeps growing
    /// this even with few sessions, which is what trips load shedding.
    fn lag(&self) -> u64 {
        let commits: u64 = self
            .latest
            .iter()
            .map(|(id, &seq)| seq.saturating_sub(self.acked.get(id).copied().unwrap_or(0)))
            .sum();
        commits + self.closed.len() as u64
    }
}

/// The coordination point between a primary fleet and its replication
/// pump. The fleet's commit path calls [`ReplSink::note_commit`] (cheap:
/// a map insert under one mutex); the pump drains coalesced work with
/// [`ReplSink::next_work`]. Only the *latest* record per session ships —
/// intermediate commits superseded before the pump got to them are
/// skipped, which is what keeps a slow link from unbounded queueing.
#[derive(Debug)]
pub struct ReplSink {
    state: Mutex<SinkState>,
    work: Condvar,
    /// Unacknowledged-commit ceiling before injects are shed.
    lag_cap: u64,
}

impl ReplSink {
    /// A sink shedding injects once the standby is more than `lag_cap`
    /// commits behind (0 is treated as 1: fully synchronous).
    pub fn new(lag_cap: u64) -> Arc<ReplSink> {
        Arc::new(ReplSink {
            state: Mutex::new(SinkState::default()),
            work: Condvar::new(),
            lag_cap: lag_cap.max(1),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SinkState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A slice commit landed durably on the primary.
    pub fn note_commit(&self, session: u64, commit_seq: u64) {
        let mut s = self.lock();
        let e = s.latest.entry(session).or_insert(commit_seq);
        *e = (*e).max(commit_seq);
        s.dirty.insert(session);
        drop(s);
        self.work.notify_all();
    }

    /// A session closed on the primary.
    pub fn note_close(&self, session: u64) {
        let mut s = self.lock();
        s.dirty.remove(&session);
        s.latest.remove(&session);
        s.acked.remove(&session);
        s.closed.push_back(session);
        drop(s);
        self.work.notify_all();
    }

    /// The standby acknowledged a commit end-to-end.
    pub fn note_acked(&self, session: u64, commit_seq: u64) {
        let mut s = self.lock();
        let e = s.acked.entry(session).or_insert(commit_seq);
        *e = (*e).max(commit_seq);
    }

    /// Re-queue a session whose ship attempt failed (the pump calls
    /// this before reconnecting so nothing is lost across link faults).
    pub fn mark_dirty(&self, session: u64) {
        let mut s = self.lock();
        if s.latest.contains_key(&session) {
            s.dirty.insert(session);
        }
        drop(s);
        self.work.notify_all();
    }

    /// Everything the standby has acknowledged, per session. A failover
    /// proof compares the promoted standby against exactly this map.
    pub fn acked(&self) -> BTreeMap<u64, u64> {
        self.lock().acked.clone()
    }

    /// `Some(detail)` when unacknowledged replication lag exceeds the
    /// cap — the primary's inject paths shed with that detail.
    pub fn overloaded(&self) -> Option<String> {
        let s = self.lock();
        let lag = s.lag();
        (lag > self.lag_cap).then(|| {
            format!(
                "replication lag {lag} commit(s) exceeds cap {}",
                self.lag_cap
            )
        })
    }

    /// Stop the pump (it exits after its current exchange).
    pub fn shutdown(&self) {
        self.lock().shutdown = true;
        self.work.notify_all();
    }

    /// True once [`ReplSink::shutdown`] was called.
    pub fn is_shutdown(&self) -> bool {
        self.lock().shutdown
    }

    /// Next unit of work, blocking up to `timeout`. Closes drain before
    /// commits (a close supersedes any pending commit for the session);
    /// `None` means no work arrived in time or the sink shut down.
    pub fn next_work(&self, timeout: Duration) -> Option<ReplWork> {
        let mut s = self.lock();
        loop {
            if let Some(id) = s.closed.pop_front() {
                return Some(ReplWork::Close(id));
            }
            if let Some(&id) = s.dirty.iter().next() {
                s.dirty.remove(&id);
                return Some(ReplWork::Commit(id));
            }
            if s.shutdown {
                return None;
            }
            let (guard, wait) = self
                .work
                .wait_timeout(s, timeout)
                .unwrap_or_else(|e| e.into_inner());
            s = guard;
            if wait.timed_out() {
                // One last drain so a notify racing the timeout wins.
                if let Some(id) = s.closed.pop_front() {
                    return Some(ReplWork::Close(id));
                }
                if let Some(&id) = s.dirty.iter().next() {
                    s.dirty.remove(&id);
                    return Some(ReplWork::Commit(id));
                }
                return None;
            }
        }
    }
}

// -- the pump: primary side ---------------------------------------------------

/// Configuration for [`spawn_replicator`].
#[derive(Debug, Clone, Default)]
pub struct ReplicatorConfig {
    /// The standby's `ZREP` listen address.
    pub target: String,
    /// Socket deadlines and reconnect backoff.
    pub policy: RetryPolicy,
    /// Deterministic link-fault plan; consulted at
    /// (`FaultSite::Repl`, frame index) for every frame the pump sends,
    /// where the frame index is the pump's own monotone send counter.
    pub chaos: Option<FaultPlan>,
}

/// A sender-side link wrapper that injects `FaultSite::Repl` faults on
/// the frames it sends.
struct ChaosLink<'a> {
    stream: TcpStream,
    chaos: Option<&'a FaultPlan>,
    /// The pump's monotone send counter (persists across reconnects so
    /// a plan's later coordinates stay reachable).
    frames_sent: &'a mut u64,
    /// A frame held back by a `Reorder` fault, sent after the next one.
    held: Option<Vec<u8>>,
}

impl ChaosLink<'_> {
    fn raw_send(&mut self, frame: &[u8]) -> Result<(), WireError> {
        self.stream
            .write_all(frame)
            .map_err(|e| WireError::Io(e.to_string()))
    }

    fn send(&mut self, msg: &ReplMsg) -> Result<(), WireError> {
        let frame = ZREP.encode(&msg.encode());
        let fault = self
            .chaos
            .and_then(|p| p.at(FaultSite::Repl, *self.frames_sent));
        *self.frames_sent += 1;
        match fault {
            None => {
                self.raw_send(&frame)?;
                if let Some(held) = self.held.take() {
                    self.raw_send(&held)?;
                }
                Ok(())
            }
            Some(FaultKind::LinkDrop) => {
                let _ = self.stream.shutdown(std::net::Shutdown::Both);
                Err(WireError::Io("chaos: link drop".into()))
            }
            Some(FaultKind::ReplStall) => {
                std::thread::sleep(Duration::from_millis(40));
                self.raw_send(&frame)
            }
            Some(FaultKind::TruncatedStream) => {
                let cut = frame.len() / 2;
                let _ = self.stream.write_all(&frame[..cut]);
                let _ = self.stream.shutdown(std::net::Shutdown::Both);
                Err(WireError::Io("chaos: truncated stream".into()))
            }
            Some(FaultKind::DupDeliver) => {
                self.raw_send(&frame)?;
                self.raw_send(&frame)
            }
            Some(FaultKind::Reorder) => {
                // Hold this frame; it goes out after the next send. The
                // receiver's idempotence (or the exchange's timeout +
                // reconnect) absorbs the inversion.
                if let Some(prev) = self.held.replace(frame) {
                    self.raw_send(&prev)?;
                }
                Ok(())
            }
            // Foreign-site kinds in a mixed plan are ignored.
            Some(_) => self.raw_send(&frame),
        }
    }

    fn recv(&mut self) -> Result<ReplMsg, WireError> {
        let payload = ZREP.read(&mut self.stream)?;
        ReplMsg::decode(&payload)
    }

    /// Request/response exchange.
    fn call(&mut self, msg: &ReplMsg) -> Result<ReplMsg, WireError> {
        self.send(msg)?;
        self.recv()
    }
}

/// Ship one session's latest record over an established link. Returns
/// the acknowledged commit sequence.
fn ship_commit(link: &mut ChaosLink<'_>, store: &Store, id: u64) -> Result<Option<u64>, WireError> {
    // The record is read at ship time, so coalesced commits ship once.
    let Some(rec) = store.sessions().into_iter().find(|r| r.id == id) else {
        return Ok(None); // closed since noted; the close will follow
    };
    let seq = rec.commit_seq;
    let need = match link.call(&ReplMsg::Offer { rec: rec.clone() })? {
        ReplMsg::Need { already: true, .. } => {
            return Ok(Some(seq));
        }
        ReplMsg::Need {
            already: false,
            chunks,
        } => chunks,
        ReplMsg::Err { code, message } => {
            return Err(WireError::Io(format!(
                "standby rejected offer ({code}): {message}"
            )))
        }
        other => return Err(WireError::Malformed(msg_name(&other))),
    };
    for chunk in need {
        let bytes = store
            .get_chunk_bytes(chunk)
            .map_err(|e| WireError::Io(format!("read chunk for standby: {e}")))?;
        link.send(&ReplMsg::Chunk { id: chunk, bytes })?;
    }
    match link.call(&ReplMsg::Commit {
        session: id,
        commit_seq: seq,
    })? {
        ReplMsg::CommitAck {
            session,
            commit_seq,
        } if session == id && commit_seq == seq => Ok(Some(seq)),
        ReplMsg::Err { code, message } => Err(WireError::Io(format!(
            "standby rejected commit ({code}): {message}"
        ))),
        other => Err(WireError::Malformed(msg_name(&other))),
    }
}

fn msg_name(m: &ReplMsg) -> &'static str {
    match m {
        ReplMsg::Hello => "unexpected Hello",
        ReplMsg::HelloAck { .. } => "unexpected HelloAck",
        ReplMsg::Offer { .. } => "unexpected Offer",
        ReplMsg::Need { .. } => "unexpected Need",
        ReplMsg::Chunk { .. } => "unexpected Chunk",
        ReplMsg::Commit { .. } => "unexpected Commit",
        ReplMsg::CommitAck { .. } => "unexpected CommitAck",
        ReplMsg::Close { .. } => "unexpected Close",
        ReplMsg::CloseAck { .. } => "unexpected CloseAck",
        ReplMsg::Err { .. } => "unexpected Err",
    }
}

/// Start the replication pump: a thread that drains `sink` and ships
/// every noted commit and close to `cfg.target`, reconnecting with the
/// policy's bounded exponential backoff on any link fault. Each
/// acknowledged commit is noted back into the sink (releasing lag) and
/// logged as `repl-ack session=<id> seq=<n>` on stderr, which is what a
/// failover harness keys on. The thread exits after
/// [`ReplSink::shutdown`].
pub fn spawn_replicator(
    store: Arc<Store>,
    sink: Arc<ReplSink>,
    cfg: ReplicatorConfig,
) -> Result<std::thread::JoinHandle<()>, FleetError> {
    std::thread::Builder::new()
        .name("zarf-repl-pump".into())
        .spawn(move || {
            let mut frames_sent = 0u64;
            let mut attempt = 0u32;
            'reconnect: loop {
                if sink.is_shutdown() {
                    return;
                }
                if attempt > 0 {
                    std::thread::sleep(cfg.policy.backoff(attempt.min(20)));
                }
                attempt = attempt.saturating_add(1);
                let stream = match TcpStream::connect(&cfg.target) {
                    Ok(s) => s,
                    Err(_) => continue 'reconnect,
                };
                let _ = stream.set_read_timeout(Some(cfg.policy.op_deadline));
                let _ = stream.set_write_timeout(Some(cfg.policy.op_deadline));
                let _ = stream.set_nodelay(true);
                let mut link = ChaosLink {
                    stream,
                    chaos: cfg.chaos.as_ref(),
                    frames_sent: &mut frames_sent,
                    held: None,
                };
                // Seed the acked map from what the standby already has,
                // so a reconnect never reships acknowledged state.
                match link.call(&ReplMsg::Hello) {
                    Ok(ReplMsg::HelloAck { acked }) => {
                        for (id, seq) in acked {
                            sink.note_acked(id, seq);
                        }
                    }
                    _ => continue 'reconnect,
                }
                attempt = 0;
                loop {
                    let Some(work) = sink.next_work(Duration::from_millis(50)) else {
                        if sink.is_shutdown() {
                            return;
                        }
                        continue;
                    };
                    match work {
                        ReplWork::Commit(id) => match ship_commit(&mut link, &store, id) {
                            Ok(Some(seq)) => {
                                sink.note_acked(id, seq);
                                eprintln!("zarf-repl: repl-ack session={id} seq={seq}");
                            }
                            Ok(None) => {}
                            Err(_) => {
                                sink.mark_dirty(id);
                                continue 'reconnect;
                            }
                        },
                        ReplWork::Close(id) => {
                            match link.call(&ReplMsg::Close { session: id }) {
                                Ok(ReplMsg::CloseAck { session }) if session == id => {
                                    eprintln!("zarf-repl: repl-close session={id}");
                                }
                                _ => {
                                    // Requeue the close, reconnect.
                                    sink.note_close(id);
                                    continue 'reconnect;
                                }
                            }
                        }
                    }
                }
            }
        })
        .map_err(|e| FleetError::Load(format!("spawn replication pump: {e}")))
}

// -- the receiver: standby side -----------------------------------------------

/// What a standby receiver processed over its lifetime.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplReceiverStats {
    /// Records adopted and end-to-end verified.
    pub commits: u64,
    /// Chunks written into the standby store.
    pub chunks: u64,
    /// Chunk payload bytes received (the wire cost of replication).
    pub bytes: u64,
    /// Session closes propagated.
    pub closes: u64,
    /// Messages rejected with a typed `Err` frame.
    pub rejects: u64,
}

/// The commit sequence the standby store holds for a session, if any.
fn held_seq(store: &Store, session: u64) -> Option<u64> {
    store
        .sessions()
        .into_iter()
        .find(|r| r.id == session)
        .map(|r| r.commit_seq)
}

/// Serve the `ZREP` protocol on `listener`, writing every verified
/// record into `store`, until `stop` is set. Connections are handled
/// one at a time (a standby has one primary); a damaged stream drops
/// the connection and the next accept resyncs via `Hello`.
///
/// Every chunk is re-hashed on arrival and every committed record is
/// reassembled, length- and hash-verified by the store's adoption path,
/// and structurally audited as a `ZSNP` container before it is acked —
/// the standby never acknowledges bytes it could not serve.
pub fn serve_repl(
    listener: TcpListener,
    store: Arc<Store>,
    stop: Arc<AtomicBool>,
) -> Result<ReplReceiverStats, FleetError> {
    listener
        .set_nonblocking(true)
        .map_err(|e| FleetError::Wire(WireError::Io(e.to_string())))?;
    let mut stats = ReplReceiverStats::default();
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
                let _ = stream.set_nodelay(true);
                serve_repl_conn(stream, &store, &stop, &mut stats);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => return Err(FleetError::Wire(WireError::Io(e.to_string()))),
        }
    }
    Ok(stats)
}

fn serve_repl_conn(
    mut stream: TcpStream,
    store: &Store,
    stop: &AtomicBool,
    stats: &mut ReplReceiverStats,
) {
    // Records offered but not yet committed on this connection.
    let mut pending: HashMap<u64, SessionRecord> = HashMap::new();
    let reply = |stream: &mut TcpStream, msg: &ReplMsg| -> bool {
        ZREP.write(stream, &msg.encode()).is_ok()
    };
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        // Idle probe: a read-timeout here just re-checks `stop`; once a
        // frame has started arriving, a stall mid-frame is damage and
        // drops the link (there is no resync point mid-stream).
        match stream.peek(&mut [0u8; 1]) {
            Ok(0) => return, // EOF
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return,
        }
        let msg = match ZREP.read(&mut stream) {
            Ok(payload) => match ReplMsg::decode(&payload) {
                Ok(m) => m,
                Err(_) => {
                    // Structural damage past the CRC: tell the peer and
                    // drop the link (no resync point mid-stream).
                    stats.rejects += 1;
                    let _ = reply(
                        &mut stream,
                        &ReplMsg::Err {
                            code: REPL_ERR_PROTOCOL,
                            message: "undecodable message".into(),
                        },
                    );
                    return;
                }
            },
            Err(_) => return, // EOF or damaged stream: back to accept
        };
        match msg {
            ReplMsg::Hello => {
                let acked = store
                    .sessions()
                    .into_iter()
                    .map(|r| (r.id, r.commit_seq))
                    .collect();
                if !reply(&mut stream, &ReplMsg::HelloAck { acked }) {
                    return;
                }
            }
            ReplMsg::Offer { rec } => {
                if held_seq(store, rec.id).is_some_and(|have| have >= rec.commit_seq) {
                    if !reply(
                        &mut stream,
                        &ReplMsg::Need {
                            already: true,
                            chunks: vec![],
                        },
                    ) {
                        return;
                    }
                    continue;
                }
                let mut seen = BTreeSet::new();
                let missing: Vec<ChunkId> = rec
                    .chunks
                    .iter()
                    .copied()
                    .filter(|c| seen.insert(c.0) && !store.has_chunk(*c))
                    .collect();
                pending.insert(rec.id, rec);
                if !reply(
                    &mut stream,
                    &ReplMsg::Need {
                        already: false,
                        chunks: missing,
                    },
                ) {
                    return;
                }
            }
            ReplMsg::Chunk { id, bytes } => {
                // Re-hash before the store sees it: a chunk that does
                // not match its claimed address is rejected typed.
                if content_hash(&bytes) != id {
                    stats.rejects += 1;
                    let _ = reply(
                        &mut stream,
                        &ReplMsg::Err {
                            code: REPL_ERR_HASH,
                            message: format!("chunk {} does not hash to its id", id.to_hex()),
                        },
                    );
                    return;
                }
                match store.put_chunk(&bytes) {
                    Ok(_) => {
                        stats.chunks += 1;
                        stats.bytes += bytes.len() as u64;
                    }
                    Err(e) => {
                        stats.rejects += 1;
                        let _ = reply(
                            &mut stream,
                            &ReplMsg::Err {
                                code: REPL_ERR_STORE,
                                message: format!("store chunk: {e}"),
                            },
                        );
                        return;
                    }
                }
            }
            ReplMsg::Commit {
                session,
                commit_seq,
            } => {
                let outcome = match pending.remove(&session) {
                    Some(rec) if rec.commit_seq == commit_seq => store
                        .adopt_session(&rec)
                        .map_err(|e| format!("adopt: {e}"))
                        .and_then(|()| {
                            // Structural audit on top of the store's
                            // length + whole-snapshot-hash checks.
                            let bytes = store
                                .get_snapshot(session)
                                .map_err(|e| format!("read back: {e}"))?;
                            verify_container(&bytes).map_err(|e| format!("audit: {e}"))?;
                            Ok(())
                        }),
                    Some(rec) => Err(format!(
                        "commit seq {commit_seq} does not match offered {}",
                        rec.commit_seq
                    )),
                    // Duplicate commit after a reconnect: re-ack if the
                    // store already holds that state (idempotence).
                    None if held_seq(store, session).is_some_and(|have| have >= commit_seq) => {
                        Ok(())
                    }
                    None => Err("commit without an offer".into()),
                };
                match outcome {
                    Ok(()) => {
                        stats.commits += 1;
                        if !reply(
                            &mut stream,
                            &ReplMsg::CommitAck {
                                session,
                                commit_seq,
                            },
                        ) {
                            return;
                        }
                    }
                    Err(message) => {
                        stats.rejects += 1;
                        let _ = reply(
                            &mut stream,
                            &ReplMsg::Err {
                                code: REPL_ERR_STORE,
                                message,
                            },
                        );
                        return;
                    }
                }
            }
            ReplMsg::Close { session } => {
                // Best-effort: an unknown session is already "closed".
                let _ = store.remove_session(session);
                pending.remove(&session);
                stats.closes += 1;
                if !reply(&mut stream, &ReplMsg::CloseAck { session }) {
                    return;
                }
            }
            other => {
                stats.rejects += 1;
                let _ = reply(
                    &mut stream,
                    &ReplMsg::Err {
                        code: REPL_ERR_PROTOCOL,
                        message: msg_name(&other).into(),
                    },
                );
                return;
            }
        }
    }
}

// -- migration ----------------------------------------------------------------

/// What a completed migration moved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrateReport {
    /// The migrated session.
    pub session: u64,
    /// The commit sequence it moved at.
    pub commit_seq: u64,
    /// The destination already held the state (warm standby); no
    /// chunks crossed the wire.
    pub already: bool,
    /// Chunks shipped source → destination.
    pub chunks_shipped: u64,
    /// Chunk payload bytes shipped (the wire cost; compare against
    /// `snap_len` for the delta ratio).
    pub bytes_shipped: u64,
    /// The full snapshot length, for the delta ratio.
    pub snap_len: u64,
}

/// Move one session from the serving fleet at `from` to the serving
/// fleet at `to`, with exactly-once cutover:
///
/// 1. `Quiesce` freezes the session on the source at a slice boundary
///    (new injects are shed with `ERR_FROZEN` while queued ops drain).
/// 2. The source's manifest record is fetched and offered to the
///    destination's `ZREP` endpoint, which answers with the chunk ids
///    it is missing — a warm destination (prior commit already
///    replicated) typically needs under 10% of the snapshot.
/// 3. Missing chunks are streamed source → destination; the
///    destination reassembles, verifies length + whole-snapshot hash +
///    structural `ZSNP` audit, and only then acks the commit.
/// 4. Only after that ack does `Release { resume: false }` retire the
///    session on the source. Any earlier failure releases with
///    `resume: true` instead — the session thaws and keeps serving on
///    the source, never lost in between.
///
/// `to` is the destination fleet's *replication* listener (the address
/// `zarf serve --repl-listen` prints), not its `ZFLT` address.
pub fn migrate_session(
    from: &str,
    to: &str,
    session: u64,
    policy: &RetryPolicy,
) -> Result<MigrateReport, FleetError> {
    let mut src = crate::server::Client::connect_with(from, *policy)?;
    let commit_seq = match src.call(&Request::Quiesce { session })? {
        Response::Quiesced {
            session: s,
            commit_seq,
        } if s == session => commit_seq,
        other => {
            return Err(FleetError::Wire(WireError::Io(format!(
                "unexpected quiesce reply: {other:?}"
            ))))
        }
    };
    // From here on, any failure must thaw the session on the source.
    let result = (|| -> Result<MigrateReport, FleetError> {
        let record = match src.call(&Request::SessionManifest { session })? {
            Response::ManifestData { session: s, record } if s == session => record,
            other => {
                return Err(FleetError::Wire(WireError::Io(format!(
                    "unexpected manifest reply: {other:?}"
                ))))
            }
        };
        let rec = SessionRecord::decode(&record).map_err(WireError::from)?;
        if rec.commit_seq != commit_seq {
            return Err(FleetError::Wire(WireError::Io(format!(
                "manifest seq {} behind quiesced seq {commit_seq}",
                rec.commit_seq
            ))));
        }
        let mut dst =
            TcpStream::connect(to).map_err(|e| FleetError::Wire(WireError::Io(e.to_string())))?;
        let _ = dst.set_read_timeout(Some(policy.op_deadline));
        let _ = dst.set_write_timeout(Some(policy.op_deadline));
        let _ = dst.set_nodelay(true);
        let call = |dst: &mut TcpStream, msg: &ReplMsg| -> Result<ReplMsg, FleetError> {
            ZREP.write(dst, &msg.encode())?;
            let payload = ZREP.read(dst)?;
            Ok(ReplMsg::decode(&payload)?)
        };
        match call(&mut dst, &ReplMsg::Hello)? {
            ReplMsg::HelloAck { .. } => {}
            other => {
                return Err(FleetError::Wire(WireError::Io(format!(
                    "unexpected hello reply: {}",
                    msg_name(&other)
                ))))
            }
        }
        let snap_len = rec.snap_len;
        let (already, need) = match call(&mut dst, &ReplMsg::Offer { rec: rec.clone() })? {
            ReplMsg::Need { already, chunks } => (already, chunks),
            ReplMsg::Err { code, message } => {
                return Err(FleetError::Remote { code, message });
            }
            other => {
                return Err(FleetError::Wire(WireError::Io(format!(
                    "unexpected offer reply: {}",
                    msg_name(&other)
                ))))
            }
        };
        let mut chunks_shipped = 0u64;
        let mut bytes_shipped = 0u64;
        if !already {
            for chunk in need {
                let bytes = match src.call(&Request::FetchChunk { id: chunk.0 })? {
                    Response::ChunkData { bytes } => bytes,
                    other => {
                        return Err(FleetError::Wire(WireError::Io(format!(
                            "unexpected chunk reply: {other:?}"
                        ))))
                    }
                };
                ZREP.write(
                    &mut dst,
                    &ReplMsg::Chunk {
                        id: chunk,
                        bytes: bytes.clone(),
                    }
                    .encode(),
                )?;
                chunks_shipped += 1;
                bytes_shipped += bytes.len() as u64;
            }
            match call(
                &mut dst,
                &ReplMsg::Commit {
                    session,
                    commit_seq,
                },
            )? {
                ReplMsg::CommitAck {
                    session: s,
                    commit_seq: q,
                } if s == session && q == commit_seq => {}
                ReplMsg::Err { code, message } => {
                    return Err(FleetError::Remote { code, message });
                }
                other => {
                    return Err(FleetError::Wire(WireError::Io(format!(
                        "unexpected commit reply: {}",
                        msg_name(&other)
                    ))))
                }
            }
        }
        Ok(MigrateReport {
            session,
            commit_seq,
            already,
            chunks_shipped,
            bytes_shipped,
            snap_len,
        })
    })();
    match result {
        Ok(report) => {
            // Cutover: the destination verified and acked; retire the
            // source copy. Only now can the session serve elsewhere.
            src.call(&Request::Release {
                session,
                resume: false,
            })?;
            Ok(report)
        }
        Err(e) => {
            // Thaw the session on the source; best-effort (the source
            // may be gone, in which case it stays authoritative anyway
            // once restarted — the destination never acked).
            let _ = src.call(&Request::Release {
                session,
                resume: true,
            });
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zarf_testkit::fnv1a;

    fn sample_record() -> SessionRecord {
        SessionRecord {
            id: 7,
            commit_seq: 12,
            ops_done: 40,
            heap_words: 65536,
            op_budget: 1000,
            fuel_slice: 9000,
            verified: true,
            snap_len: 4096,
            snap_hash: ChunkId([1; 16]),
            chunks: vec![ChunkId([2; 16]), ChunkId([3; 16]), ChunkId([2; 16])],
        }
    }

    fn sample_msgs() -> Vec<ReplMsg> {
        vec![
            ReplMsg::Hello,
            ReplMsg::HelloAck {
                acked: vec![(1, 5), (9, 0)],
            },
            ReplMsg::Offer {
                rec: sample_record(),
            },
            ReplMsg::Need {
                already: false,
                chunks: vec![ChunkId([4; 16])],
            },
            ReplMsg::Need {
                already: true,
                chunks: vec![],
            },
            ReplMsg::Chunk {
                id: ChunkId([5; 16]),
                bytes: vec![0, 1, 2, 255],
            },
            ReplMsg::Commit {
                session: 7,
                commit_seq: 12,
            },
            ReplMsg::CommitAck {
                session: 7,
                commit_seq: 12,
            },
            ReplMsg::Close { session: 7 },
            ReplMsg::CloseAck { session: 7 },
            ReplMsg::Err {
                code: REPL_ERR_HASH,
                message: "bad chunk".into(),
            },
        ]
    }

    #[test]
    fn frame_and_record_bytes_are_pinned() {
        // Recorded before ZREP shared the ZFLT frame codec and the
        // store's record codec: one frame per message kind, then the
        // bare record, every byte where it was.
        let mut record = Vec::new();
        sample_record().encode_into(&mut record);
        let pins: Vec<(usize, u64)> = sample_msgs()
            .iter()
            .map(|m| ZREP.encode(&m.encode()))
            .chain([record])
            .map(|f| (f.len(), fnv1a(&f)))
            .collect();
        assert_eq!(
            pins,
            [
                (14, 0xA654_D20D_2583_A715),
                (50, 0x43D0_10FE_E7E7_BD9C),
                (139, 0x770B_E4B3_2C9E_1AF4),
                (35, 0x1C5F_9481_6373_420C),
                (19, 0x4D80_3A59_FED9_EB83),
                (38, 0xBDFF_F5CD_7B84_0FC6),
                (30, 0xB8D6_F854_A073_D8B0),
                (30, 0xA117_6581_9B4E_8AE6),
                (22, 0xFF7E_C3CB_DD95_69CA),
                (22, 0x85F7_1C1B_6D54_7BE0),
                (31, 0xBE1B_13F4_4844_663A),
                (125, 0xFA1C_3823_7A9D_17D9),
            ]
        );
    }

    #[test]
    fn a_verified_byte_other_than_zero_or_one_is_refused() {
        let mut record = Vec::new();
        sample_record().encode_into(&mut record);
        // `verified` sits after six u64 fields.
        record[48] = 2;
        assert_eq!(
            SessionRecord::decode(&record).map_err(WireError::from),
            Err(WireError::Malformed("verified flag"))
        );
        let mut offer = vec![OP_OFFER];
        offer.extend_from_slice(&record);
        assert_eq!(
            ReplMsg::decode(&offer),
            Err(WireError::Malformed("verified flag"))
        );
    }

    #[test]
    fn messages_round_trip_through_frames() {
        for msg in sample_msgs() {
            let payload = msg.encode();
            let frame = ZREP.encode(&payload);
            let back = ZREP.decode(&frame).unwrap();
            assert_eq!(ReplMsg::decode(back).unwrap(), msg);
        }
    }

    #[test]
    fn records_round_trip_exactly() {
        let rec = sample_record();
        let mut bytes = Vec::new();
        rec.encode_into(&mut bytes);
        assert_eq!(SessionRecord::decode(&bytes).unwrap(), rec);
        // Exact consume: a trailing byte is rejected.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(SessionRecord::decode(&padded).is_err());
        // And a truncated record is rejected.
        assert!(SessionRecord::decode(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn every_single_bit_flip_is_rejected_on_a_sample_frame() {
        let frame = ZREP.encode(
            &ReplMsg::Commit {
                session: 3,
                commit_seq: 9,
            }
            .encode(),
        );
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut dam = frame.clone();
                dam[byte] ^= 1 << bit;
                let verdict = ZREP
                    .decode(&dam)
                    .and_then(|p| ReplMsg::decode(p).map(|_| ()));
                assert!(
                    verdict.is_err(),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn zrep_frames_are_not_zflt_frames() {
        let frame = ZREP.encode(&ReplMsg::Hello.encode());
        assert_eq!(
            crate::wire::ZFLT.decode(&frame),
            Err(WireError::BadMagic),
            "a ZREP frame must never decode as ZFLT"
        );
    }

    #[test]
    fn sink_tracks_lag_and_sheds_past_the_cap() {
        let sink = ReplSink::new(2);
        assert!(sink.overloaded().is_none());
        sink.note_commit(1, 1);
        sink.note_commit(1, 2);
        sink.note_commit(2, 1);
        // Lag 3 > cap 2.
        assert!(sink.overloaded().is_some());
        sink.note_acked(1, 2);
        // Lag 1 <= cap.
        assert!(sink.overloaded().is_none());
        // Acks never regress.
        sink.note_acked(1, 1);
        assert_eq!(sink.acked().get(&1), Some(&2));
    }

    #[test]
    fn sink_coalesces_commits_and_orders_closes_first() {
        let sink = ReplSink::new(64);
        sink.note_commit(5, 1);
        sink.note_commit(5, 2);
        sink.note_commit(5, 3);
        // Three commits, one unit of work (the latest record ships).
        assert_eq!(sink.next_work(Duration::ZERO), Some(ReplWork::Commit(5)));
        assert_eq!(sink.next_work(Duration::ZERO), None);
        sink.note_commit(6, 1);
        sink.note_close(6);
        // The close superseded the commit entirely.
        assert_eq!(sink.next_work(Duration::ZERO), Some(ReplWork::Close(6)));
        assert_eq!(sink.next_work(Duration::ZERO), None);
        sink.shutdown();
        assert!(sink.is_shutdown());
        assert_eq!(sink.next_work(Duration::from_millis(10)), None);
    }

    #[test]
    fn mark_dirty_requeues_only_live_sessions() {
        let sink = ReplSink::new(64);
        sink.note_commit(3, 1);
        assert_eq!(sink.next_work(Duration::ZERO), Some(ReplWork::Commit(3)));
        // A failed ship requeues.
        sink.mark_dirty(3);
        assert_eq!(sink.next_work(Duration::ZERO), Some(ReplWork::Commit(3)));
        // A closed session does not.
        sink.note_close(3);
        assert_eq!(sink.next_work(Duration::ZERO), Some(ReplWork::Close(3)));
        sink.mark_dirty(3);
        assert_eq!(sink.next_work(Duration::ZERO), None);
    }
}
