//! Nonblocking TCP frontier for the fleet: a single readiness loop owns
//! every connection, `std::net` only.
//!
//! The previous frontier spawned a blocking thread per connection, which
//! caps concurrency at OS thread limits and needed a throwaway
//! self-connection to unblock its acceptor on shutdown. This one puts the
//! listener and every accepted stream into nonblocking mode and drives
//! them all from one loop:
//!
//! * **Accept** — drain the listener (bounded per pass so a connect storm
//!   cannot starve established connections).
//! * **Read** — pull bytes into each connection's [`FrameBuffer`] and
//!   decode complete `ZFLT` frames in place; payloads are borrowed from
//!   the read buffer, never copied into a per-frame allocation. Decoded
//!   requests queue in a per-connection inbox; a full inbox stops the
//!   socket read, so TCP flow control backpressures a client that
//!   pipelines faster than the fleet drains.
//! * **Dispatch** — round-robin over connections with a per-connection
//!   budget per pass, so one chatty pipelined client cannot starve the
//!   rest. Responses are queued on a per-connection [`WriteBuf`].
//! * **Flush** — opportunistic nonblocking writes of whatever each
//!   socket will take.
//!
//! Clients may pipeline: many request frames can be in flight before any
//! response is read, and responses to one connection's requests are
//! written in request order. Shutdown is cooperative — a `Shutdown`
//! frame or an external stop flag ([`ServeOptions::stop`]) flips a flag
//! the loop checks every pass; no self-connection.
//!
//! Chaos: a frontier [`FaultPlan`] (see [`ServeOptions::chaos`]) is
//! consulted once per queued response, indexed by a global response-write
//! counter. `ConnKill` drops the connection instead of responding;
//! `PartialWrite` sends half the response frame and then drops it. Both
//! damage only the transport — the sessions behind the frontier must
//! stay byte-identical to standalone runs, which `tests/fleet.rs` pins.

use std::collections::VecDeque;
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use zarf_chaos::{FaultKind, FaultPlan, FaultSite};

use crate::fleet::FleetHandle;
use crate::poll::{would_block, IdleBackoff, WriteBuf};
use crate::wire::{
    FrameBuffer, Request, Response, RetryPolicy, WireError, ERR_CERTIFICATION, ERR_FROZEN,
    ERR_INTERNAL, ERR_LOAD, ERR_OVERLOADED, ERR_POISONED, ERR_SHUTDOWN, ERR_SNAPSHOT,
    ERR_UNKNOWN_SESSION, MAX_FRAME_PAYLOAD, ZFLT,
};
use crate::FleetError;

/// How long a `Quiesce` request waits for the session's queued ops to
/// drain before reporting a timeout (the session is unfrozen again).
const QUIESCE_WAIT: Duration = Duration::from_secs(30);

fn error_response(e: FleetError) -> Response {
    let code = match &e {
        FleetError::UnknownSession(_) => ERR_UNKNOWN_SESSION,
        FleetError::SessionPoisoned(_) => ERR_POISONED,
        FleetError::Snapshot(_) => ERR_SNAPSHOT,
        FleetError::Load(_) => ERR_LOAD,
        FleetError::Certification(_) | FleetError::UncertifiedOp { .. } => ERR_CERTIFICATION,
        FleetError::ShuttingDown => ERR_SHUTDOWN,
        // Load shedding while the durable store is stalled: transient by
        // design, so it gets its own code a client can retry on.
        FleetError::Overloaded(_) => ERR_OVERLOADED,
        FleetError::SessionFrozen(_) => ERR_FROZEN,
        _ => ERR_INTERNAL,
    };
    Response::Error {
        code,
        message: e.to_string(),
    }
}

/// Answer one decoded request against the fleet. Shared by the TCP server
/// and any in-process protocol testing; `Shutdown` is handled by the
/// caller (it terminates the serve loop, not the fleet).
pub fn dispatch(handle: &FleetHandle, req: &Request) -> Response {
    let outcome =
        match req {
            Request::LoadProgram { config, program } => handle
                .open_program(program, Some(config.clone()))
                .map(|session| Response::Opened { session }),
            Request::Restore { config, snapshot } => handle
                .open_snapshot(snapshot, Some(config.clone()))
                .map(|session| Response::Opened { session }),
            Request::Inject { session, op } => handle.inject(*session, op.clone()).and_then(|()| {
                let stats = handle.session_stats(*session)?;
                Ok(Response::Accepted {
                    session: *session,
                    pending: stats.pending as u64,
                })
            }),
            Request::InjectBatch { session, ops } => handle
                .inject_batch(*session, ops.clone())
                .map(|pending| Response::AcceptedBatch {
                    session: *session,
                    accepted: ops.len() as u64,
                    pending: pending as u64,
                }),
            Request::Poll { session } => handle.poll(*session).map(|p| Response::Output {
                session: *session,
                ops_done: p.ops_done,
                pending: p.pending as u64,
                words: p.words,
            }),
            Request::Snapshot { session } => {
                handle
                    .snapshot(*session)
                    .map(|bytes| Response::SnapshotData {
                        session: *session,
                        bytes,
                    })
            }
            Request::Stats { session } => {
                if *session == 0 {
                    Ok(Response::StatsData {
                        pairs: handle.stats().pairs(),
                    })
                } else {
                    handle.session_stats(*session).map(|s| Response::StatsData {
                        pairs: vec![
                            ("ops_done".into(), s.ops_done),
                            ("pending".into(), s.pending as u64),
                            ("slices".into(), s.slices),
                            ("kills".into(), s.kills),
                            ("evictions".into(), s.evictions),
                            ("rehydrations".into(), s.rehydrations),
                            ("commit_seq".into(), s.commit_seq),
                            ("snapshot_bytes".into(), s.snapshot_bytes as u64),
                            ("total_cycles".into(), s.total_cycles),
                            ("poisoned".into(), u64::from(s.poisoned.is_some())),
                        ],
                    })
                }
            }
            Request::Close { session } => handle
                .close(*session)
                .map(|()| Response::Closed { session: *session }),
            Request::Quiesce { session } => {
                handle
                    .quiesce(*session, QUIESCE_WAIT)
                    .map(|commit_seq| Response::Quiesced {
                        session: *session,
                        commit_seq,
                    })
            }
            Request::SessionManifest { session } => handle
                .store()
                .ok_or_else(|| {
                    FleetError::Snapshot("fleet has no durable store to migrate from".into())
                })
                .and_then(|store| {
                    store
                        .sessions()
                        .into_iter()
                        .find(|rec| rec.id == *session)
                        .ok_or(FleetError::UnknownSession(*session))
                })
                .map(|rec| {
                    let mut record = Vec::new();
                    rec.encode_into(&mut record);
                    Response::ManifestData {
                        session: *session,
                        record,
                    }
                }),
            Request::FetchChunk { id } => handle
                .store()
                .ok_or_else(|| {
                    FleetError::Snapshot("fleet has no durable store to migrate from".into())
                })
                .and_then(|store| {
                    store
                        .get_chunk_bytes(zarf_store::ChunkId(*id))
                        .map_err(FleetError::from)
                })
                .map(|bytes| Response::ChunkData { bytes }),
            Request::Release { session, resume } => {
                handle
                    .release(*session, *resume)
                    .map(|()| Response::Released {
                        session: *session,
                        resumed: *resume,
                    })
            }
            Request::Shutdown => Ok(Response::Bye),
        };
    outcome.unwrap_or_else(error_response)
}

/// Knobs for [`serve_with`]. `Default` is a plain production frontier:
/// no fault injection, shutdown only via a `Shutdown` frame.
#[derive(Debug, Clone, Default)]
pub struct ServeOptions {
    /// Frontier fault plan. Coordinates are `(FaultSite::Fleet, n)` where
    /// `n` is the frontier's `n`-th queued response over its lifetime —
    /// a different coordinate space from scheduler plans (session slice
    /// index), so keep frontier and scheduler chaos in separate plans.
    pub chaos: Option<FaultPlan>,
    /// External stop flag, checked once per loop pass. Setting it makes
    /// the loop stop accepting, drain queued work, and return.
    pub stop: Option<Arc<AtomicBool>>,
    /// Per-connection cap on accepted frame payload bytes (default: the
    /// protocol-wide [`MAX_FRAME_PAYLOAD`]). A frame declaring more gets
    /// a typed `Error` response and a clean close, and the receive
    /// buffer provably never grows past `max_frame + FRAME_OVERHEAD`.
    pub max_frame: Option<usize>,
}

/// New connections accepted per loop pass; bounds accept-storm latency
/// impact on established connections.
const ACCEPT_BUDGET: usize = 64;

/// Bytes pulled from a socket per read attempt.
const READ_CHUNK: usize = 16 * 1024;

/// Decoded-but-undispatched requests held per connection before the loop
/// stops reading its socket (TCP flow control then backpressures the
/// client).
const INBOX_CAP: usize = 1024;

/// Requests dispatched per connection per loop pass — the fairness
/// quantum for pipelined clients.
const DISPATCH_BUDGET: usize = 32;

/// How long a shutting-down frontier keeps flushing responses to clients
/// that are slow to read before it gives up and closes on them.
const SHUTDOWN_DRAIN: Duration = Duration::from_secs(2);

/// Per-connection state machine for the readiness loop.
struct Conn {
    stream: TcpStream,
    rd: FrameBuffer,
    wr: WriteBuf,
    inbox: VecDeque<Request>,
    /// Client half-closed its write side; keep dispatching and flushing.
    eof: bool,
    /// Transport is gone or poisoned; drop at end of pass.
    dead: bool,
    /// Close the connection once `wr` drains (Bye sent, or a chaos
    /// partial-write truncation queued).
    close_after_flush: bool,
}

impl Conn {
    fn new(stream: TcpStream, max_frame: usize) -> Conn {
        Conn {
            stream,
            rd: FrameBuffer::with_max_payload(max_frame),
            wr: WriteBuf::new(),
            inbox: VecDeque::new(),
            eof: false,
            dead: false,
            close_after_flush: false,
        }
    }

    /// Nothing left to do for this connection.
    fn drained(&self) -> bool {
        self.inbox.is_empty() && self.wr.is_empty()
    }
}

/// Encode and queue one response on a connection, consulting the frontier
/// fault plan at this write event's coordinate.
fn queue_response(conn: &mut Conn, resp: &Response, chaos: &FaultPlan, write_events: &mut u64) {
    let idx = *write_events;
    *write_events += 1;
    let frame = ZFLT.encode(&resp.encode());
    match chaos.at(FaultSite::Fleet, idx) {
        Some(FaultKind::ConnKill) => conn.dead = true,
        Some(FaultKind::PartialWrite) => {
            conn.wr.queue(&frame[..frame.len() / 2]);
            conn.close_after_flush = true;
        }
        // Scheduler fault kinds in a frontier plan have no meaning here.
        _ => conn.wr.queue(&frame),
    }
}

/// Decode as many buffered frames as the inbox cap allows. Frame-level
/// damage (bad magic/version/CRC) kills the connection — the stream
/// cannot be resynchronized. A frame declaring more than the
/// per-connection cap gets a typed `Error` response and a clean close
/// (flush then FIN), since the header itself was well-formed and the
/// peer can act on the reason. A well-framed payload that fails
/// `Request::decode` gets an `Error` response and the connection lives.
fn drain_frames(conn: &mut Conn, chaos: &FaultPlan, write_events: &mut u64, progress: &mut bool) {
    while !conn.dead && !conn.close_after_flush && conn.inbox.len() < INBOX_CAP {
        let decoded = match conn.rd.next_frame() {
            Ok(Some(payload)) => Request::decode(payload),
            Ok(None) => break,
            Err(WireError::Oversize(n)) => {
                *progress = true;
                let resp = Response::Error {
                    code: ERR_INTERNAL,
                    message: format!(
                        "frame payload of {n} bytes exceeds this connection's cap of {} bytes",
                        conn.rd.max_payload()
                    ),
                };
                queue_response(conn, &resp, chaos, write_events);
                conn.close_after_flush = true;
                break;
            }
            Err(_) => {
                conn.dead = true;
                break;
            }
        };
        *progress = true;
        match decoded {
            Ok(req) => conn.inbox.push_back(req),
            Err(e) => {
                let resp = Response::Error {
                    code: ERR_INTERNAL,
                    message: e.to_string(),
                };
                queue_response(conn, &resp, chaos, write_events);
            }
        }
    }
}

/// Serve `ZFLT` over a listener until a client sends `Shutdown`. Blocking;
/// returns once queued responses are flushed. The fleet itself is left
/// running — the caller owns its lifecycle.
pub fn serve(listener: TcpListener, handle: FleetHandle) -> Result<(), FleetError> {
    serve_with(listener, handle, ServeOptions::default())
}

/// [`serve`] with explicit options: an external stop flag and/or a
/// frontier fault plan.
pub fn serve_with(
    listener: TcpListener,
    handle: FleetHandle,
    opts: ServeOptions,
) -> Result<(), FleetError> {
    listener
        .set_nonblocking(true)
        .map_err(|e| FleetError::Wire(WireError::Io(e.to_string())))?;
    let chaos = opts.chaos.unwrap_or_default();
    let max_frame = opts.max_frame.unwrap_or(MAX_FRAME_PAYLOAD);
    let mut conns: Vec<Conn> = Vec::new();
    let mut backoff = IdleBackoff::new();
    let mut write_events: u64 = 0;
    let mut cursor: usize = 0;
    let mut shutting_down = false;
    let mut drain_deadline: Option<Instant> = None;

    loop {
        let mut progress = false;

        if let Some(stop) = &opts.stop {
            if stop.load(Ordering::SeqCst) {
                shutting_down = true;
            }
        }

        // Accept phase.
        if !shutting_down {
            for _ in 0..ACCEPT_BUDGET {
                match listener.accept() {
                    Ok((stream, _addr)) => {
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        let _unused = stream.set_nodelay(true);
                        conns.push(Conn::new(stream, max_frame));
                        progress = true;
                    }
                    Err(ref e) if would_block(e) => break,
                    Err(_) => break,
                }
            }
        }

        // Read + decode phase.
        for conn in conns.iter_mut() {
            loop {
                drain_frames(conn, &chaos, &mut write_events, &mut progress);
                if conn.dead || conn.eof || conn.close_after_flush {
                    break;
                }
                if conn.inbox.len() >= INBOX_CAP {
                    break; // backpressure: leave bytes in the socket
                }
                match conn.rd.fill_from(&mut conn.stream, READ_CHUNK) {
                    Ok(0) => {
                        conn.eof = true;
                        progress = true;
                    }
                    Ok(_) => progress = true,
                    Err(ref e) if would_block(e) => break,
                    Err(_) => {
                        conn.dead = true;
                        break;
                    }
                }
            }
        }

        // Dispatch phase: rotate the starting connection each pass and
        // cap requests per connection, so pipelined floods share fairly.
        if !conns.is_empty() {
            cursor %= conns.len();
            for i in 0..conns.len() {
                let idx = (cursor + i) % conns.len();
                let conn = &mut conns[idx];
                if conn.dead {
                    continue;
                }
                for _ in 0..DISPATCH_BUDGET {
                    let Some(req) = conn.inbox.pop_front() else {
                        break;
                    };
                    progress = true;
                    let resp = dispatch(&handle, &req);
                    let is_shutdown = matches!(req, Request::Shutdown);
                    queue_response(conn, &resp, &chaos, &mut write_events);
                    if is_shutdown {
                        conn.close_after_flush = true;
                        shutting_down = true;
                        break;
                    }
                }
            }
            cursor = cursor.wrapping_add(1);
        }

        // Flush phase.
        for conn in conns.iter_mut() {
            if conn.dead {
                continue;
            }
            match conn.wr.try_flush(&mut conn.stream) {
                Ok(0) => {}
                Ok(_) => progress = true,
                Err(_) => {
                    conn.dead = true;
                    continue;
                }
            }
            if conn.close_after_flush && conn.wr.is_empty() {
                conn.dead = true;
            }
        }

        // Reap: dropping a Conn closes its stream.
        conns.retain(|c| !(c.dead || c.eof && c.drained()));

        if shutting_down {
            let deadline = *drain_deadline.get_or_insert_with(|| Instant::now() + SHUTDOWN_DRAIN);
            if conns.iter().all(Conn::drained) || Instant::now() >= deadline {
                break;
            }
        }

        if progress {
            backoff.progress();
        } else {
            backoff.idle();
        }
    }
    Ok(())
}

/// A minimal blocking `ZFLT` client with a per-operation deadline: every
/// blocking send/receive is bounded by the connect policy's
/// `op_deadline`, so a stalled server fails the call with a typed
/// [`WireError::Io`] instead of hanging the calling thread forever.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connect to a serving fleet under [`RetryPolicy::default`]:
    /// transient connect failures are retried with bounded exponential
    /// backoff, and the socket gets a 10 s per-op deadline.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Client, WireError> {
        Client::connect_with(addr, RetryPolicy::default())
    }

    /// [`Client::connect`] with an explicit policy. Makes up to
    /// `policy.max_attempts` connection attempts, sleeping
    /// `policy.backoff(n)` between them, and installs
    /// `policy.op_deadline` as the socket read/write timeout (a zero
    /// deadline means block forever).
    pub fn connect_with<A: ToSocketAddrs>(
        addr: A,
        policy: RetryPolicy,
    ) -> Result<Client, WireError> {
        let attempts = policy.max_attempts.max(1);
        let mut last = String::from("no connection attempt made");
        for attempt in 1..=attempts {
            match TcpStream::connect(&addr) {
                Ok(stream) => {
                    let deadline =
                        (policy.op_deadline > Duration::ZERO).then_some(policy.op_deadline);
                    stream
                        .set_read_timeout(deadline)
                        .and_then(|()| stream.set_write_timeout(deadline))
                        .map_err(|e| WireError::Io(e.to_string()))?;
                    return Ok(Client { stream });
                }
                Err(e) => {
                    last = e.to_string();
                    if attempt < attempts {
                        std::thread::sleep(policy.backoff(attempt));
                    }
                }
            }
        }
        Err(WireError::Io(format!(
            "connect failed after {attempts} attempts: {last}"
        )))
    }

    /// Send one request frame without waiting for the response. Pairs
    /// with [`Client::recv`] for pipelining: the server answers each
    /// connection's requests in order, so `n` sends followed by `n`
    /// recvs see matching responses.
    pub fn send(&mut self, req: &Request) -> Result<(), WireError> {
        ZFLT.write(&mut self.stream, &req.encode())
    }

    /// Block for the next response frame.
    pub fn recv(&mut self) -> Result<Response, WireError> {
        let payload = ZFLT.read(&mut self.stream)?;
        Response::decode(&payload)
    }

    /// Send one request and wait for its response frame.
    pub fn request(&mut self, req: &Request) -> Result<Response, WireError> {
        self.send(req)?;
        self.recv()
    }

    /// Like [`Client::request`], but protocol `Error` frames become
    /// [`FleetError::Remote`].
    pub fn call(&mut self, req: &Request) -> Result<Response, FleetError> {
        match self.request(req)? {
            Response::Error { code, message } => Err(FleetError::Remote { code, message }),
            resp => Ok(resp),
        }
    }
}
