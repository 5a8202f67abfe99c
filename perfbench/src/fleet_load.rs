//! `kernel_batch` and `kernel_live`: fleets of ICD kernel sessions
//! (`session_image`) driven in closed-loop rounds by one generator thread.
//!
//! * **batch** — 32 unverified sessions in process. A round queues 100
//!   `session_step` ops per session with `FleetHandle::inject_batch`
//!   (a stored-trace upload), waits until every op has committed, and
//!   polls the outputs. About one slice per session per round, so the
//!   engine dominates.
//! * **live** — 128 sessions opened *verified* over loopback TCP
//!   (`serve_with` in process, two `Client` connections). A round sends
//!   one sample `Inject` frame per session, waits until all have
//!   committed, and polls every session over the wire. The population is
//!   larger than the resident cache, so nearly every op is its own slice:
//!   rehydrate, execute, hibernate and store commit per step.
//!
//! Both fleets run two workers over a durable store (fsync off, a fresh
//! directory per set-up). Every session's output words and final
//! snapshot are checked against `run_standalone` over its feed. The
//! traced run also replays a seeded sample of sessions' op streams on one
//! thread through the public calls a slice makes, and checks that the
//! replay reproduces the fleet's outputs.

use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use zarf_core::{Int, VecPorts};
use zarf_fleet::op::{RES_ERROR_BASE, RES_FUEL, RES_MACHINE_FAULT, RES_OOM, RES_OPAQUE};
use zarf_fleet::{
    run_standalone, serve_with, Client, Fleet, FleetConfig, FleetError, FleetHandle, Op, Request,
    Response, ServeOptions, SessionConfig,
};
use zarf_hw::{HValue, Hw, HwConfig, HwError};
use zarf_icd::EcgGen;
use zarf_kernel::KernelSessionImage;
use zarf_store::{SessionMeta, Store, StoreConfig};
use zarf_trace::{MetricsSink, SharedSink};

use crate::clock::{Host, Window};
use crate::gen::{self, step_op, Rng};
use crate::spans::Spans;
use crate::stats::{median, sum, tail};
use crate::{peak_rss_mb, Args, Layers, Report};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Batch,
    Live,
}

struct Params {
    sessions: usize,
    steps_per_round: usize,
    verified: bool,
    tcp: bool,
    /// Set-ups per run; the median is `setup_s` and the last one is kept.
    setups: usize,
    /// Sessions and rounds the traced run replays.
    replay_sessions: usize,
    replay_rounds: usize,
    /// Rounds every run completes, however slow the host; the peak RSS is
    /// read after them, so it covers the same work on every run.
    min_rounds: usize,
}

impl Params {
    fn of(mode: Mode) -> Params {
        match mode {
            Mode::Batch => Params {
                sessions: 32,
                steps_per_round: 100,
                verified: false,
                tcp: false,
                setups: 60,
                replay_sessions: 4,
                replay_rounds: 4,
                min_rounds: 40,
            },
            Mode::Live => Params {
                sessions: 128,
                steps_per_round: 1,
                verified: true,
                tcp: true,
                setups: 5,
                replay_sessions: 8,
                replay_rounds: 64,
                min_rounds: 150,
            },
        }
    }
}

const WORKERS: usize = 2;
const CONNS: usize = 2;
const WAIT_LIMIT: Duration = Duration::from_secs(60);
/// How often the generator checks whether a round has committed.
const WAIT_POLL: Duration = Duration::from_micros(200);

/// One session as the generator sees it.
struct Sess {
    id: u64,
    conn: usize,
    ecg: EcgGen,
    /// Every sample fed so far (the oracle's input).
    samples: Vec<i32>,
    /// Every output word polled so far, boot op included.
    outputs: Vec<Int>,
    /// The boot op's output words.
    boot_outputs: Vec<Int>,
    /// Output words per measured round (kept only for replayed sessions).
    round_outputs: Vec<Vec<Int>>,
}

/// The in-process server thread and its stop flag.
type Server = (JoinHandle<Result<(), FleetError>>, Arc<AtomicBool>);

/// A fleet set up and ready to measure.
struct Rig {
    fleet: Option<Fleet>,
    handle: FleetHandle,
    dir: PathBuf,
    server: Option<Server>,
    clients: Vec<Client>,
    sessions: Vec<Sess>,
    /// Ops injected into this fleet so far.
    injected: u64,
    /// Frames the generator sent plus received since the counter reset.
    frames: u64,
}

impl Rig {
    /// Stop the server and the fleet, and delete the store directory.
    fn teardown(&mut self) {
        self.clients.clear();
        if let Some((thread, stop)) = self.server.take() {
            stop.store(true, Ordering::SeqCst);
            let _ = thread.join();
        }
        if let Some(fleet) = self.fleet.take() {
            fleet.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Drop for Rig {
    fn drop(&mut self) {
        self.teardown();
    }
}

fn scratch_dir(args: &Args, tag: &str, n: usize) -> PathBuf {
    let dir = args.out_dir.join(format!(
        "{tag}-{}-{}-{n}",
        args.workload,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open_store(dir: &Path) -> Result<Arc<Store>, String> {
    let cfg = StoreConfig {
        fsync: false,
        ..StoreConfig::default()
    };
    Store::open(dir, cfg)
        .map(Arc::new)
        .map_err(|e| format!("store open: {e}"))
}

/// Heap size a verified open gives the session: the certificate's worst
/// per-op allocation bound, twice over, as `FleetHandle::open_program`
/// sizes it.
fn verified_heap_words(
    img: &KernelSessionImage,
    spans: &mut Spans,
    layers: &mut Layers,
) -> Result<usize, String> {
    let program = zarf_asm::decode(&img.words).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let shapes = spans.span("verify::analyze_shapes", None, 0, || {
        zarf_verify::analyze_shapes(&program, zarf_verify::EntryModel::Service)
    });
    layers.set("verify.shapes_ms", t.elapsed().as_secs_f64() * 1e3);
    let shapes = shapes.map_err(|e| e.to_string())?;
    layers.set("verify.absint_iterations", shapes.iterations as f64);
    let t = Instant::now();
    let alloc = spans
        .span("verify::analyze_alloc", None, 0, || {
            zarf_verify::analyze_alloc(&program)
        })
        .map_err(|e| e.to_string())?;
    layers.set("verify.alloc_ms", t.elapsed().as_secs_f64() * 1e3);
    let arity_of = |id: u32| program.lookup(id).map(|it| it.arity).unwrap_or(0);
    let base = SessionConfig::default().heap_words;
    Ok(match alloc.max_finite_per_call(arity_of) {
        Some(q) => base.max((q as usize).saturating_mul(2)),
        None => base,
    })
}

/// Block until the fleet has committed `target` ops. Polls the fleet's
/// op counter rather than calling `wait_all_idle` (see README.md).
fn wait_committed(handle: &FleetHandle, target: u64) -> Result<(), String> {
    let deadline = Instant::now() + WAIT_LIMIT;
    while handle.stats().ops_done < target {
        if Instant::now() >= deadline {
            return Err(format!(
                "fleet committed {} of {target} ops in {WAIT_LIMIT:?}",
                handle.stats().ops_done
            ));
        }
        std::thread::sleep(WAIT_POLL);
    }
    Ok(())
}

fn expect_ok(resp: Response, what: &str) -> Result<Response, String> {
    match resp {
        Response::Error { code, message } => Err(format!("{what}: error {code}: {message}")),
        r => Ok(r),
    }
}

/// Queue one op per session (`ops[i]` for session `i`) and wait until
/// every op has committed, then drain every session's output.
fn round(
    rig: &mut Rig,
    ops: Vec<Vec<Op>>,
    spans: &mut Spans,
    parent: Option<usize>,
) -> Result<Vec<Vec<Int>>, String> {
    let n_ops: u64 = ops.iter().map(|o| o.len() as u64).sum();
    let mut out = vec![Vec::new(); rig.sessions.len()];
    if rig.clients.is_empty() {
        for (s, batch) in rig.sessions.iter().zip(ops) {
            spans
                .span("FleetHandle::inject_batch", parent, s.id, || {
                    rig.handle.inject_batch(s.id, batch)
                })
                .map_err(|e| format!("inject: {e}"))?;
        }
        rig.injected += n_ops;
        spans.span("wait_committed", parent, 0, || {
            wait_committed(&rig.handle, rig.injected)
        })?;
        for (s, words) in rig.sessions.iter().zip(out.iter_mut()) {
            let p = spans
                .span("FleetHandle::poll", parent, s.id, || rig.handle.poll(s.id))
                .map_err(|e| format!("poll: {e}"))?;
            *words = p.words;
        }
        return Ok(out);
    }
    // Over the wire: pipeline every request on its session's connection,
    // then read the responses in order.
    let mut per_conn = vec![0usize; rig.clients.len()];
    for (s, batch) in rig.sessions.iter().zip(ops) {
        for op in batch {
            let req = Request::Inject { session: s.id, op };
            let client = &mut rig.clients[s.conn];
            spans
                .span("Client::send", parent, s.id, || client.send(&req))
                .map_err(|e| format!("send inject: {e}"))?;
            per_conn[s.conn] += 1;
        }
    }
    for (c, client) in rig.clients.iter_mut().enumerate() {
        for _ in 0..per_conn[c] {
            let resp = spans
                .span("Client::recv", parent, c as u64, || client.recv())
                .map_err(|e| format!("recv accepted: {e}"))?;
            if !matches!(expect_ok(resp, "inject")?, Response::Accepted { .. }) {
                return Err("inject: unexpected response".into());
            }
        }
    }
    rig.frames += 2 * n_ops;
    rig.injected += n_ops;
    spans.span("wait_committed", parent, 0, || {
        wait_committed(&rig.handle, rig.injected)
    })?;
    for s in &rig.sessions {
        let client = &mut rig.clients[s.conn];
        let req = Request::Poll { session: s.id };
        spans
            .span("Client::send", parent, s.id, || client.send(&req))
            .map_err(|e| format!("send poll: {e}"))?;
    }
    // Responses come back in request order on each connection.
    let order: Vec<Vec<usize>> = (0..rig.clients.len())
        .map(|c| {
            (0..rig.sessions.len())
                .filter(|&i| rig.sessions[i].conn == c)
                .collect()
        })
        .collect();
    for (c, client) in rig.clients.iter_mut().enumerate() {
        for &i in &order[c] {
            let resp = spans
                .span("Client::recv", parent, c as u64, || client.recv())
                .map_err(|e| format!("recv output: {e}"))?;
            match expect_ok(resp, "poll")? {
                Response::Output { session, words, .. } if session == rig.sessions[i].id => {
                    out[i] = words;
                }
                _ => return Err("poll: unexpected response".into()),
            }
        }
    }
    rig.frames += 2 * rig.sessions.len() as u64;
    Ok(out)
}

/// Build the image, start store, fleet (and server), open and boot every
/// session.
fn setup(
    args: &Args,
    params: &Params,
    n: usize,
    cfg: &SessionConfig,
    spans: &mut Spans,
    open_ms: &mut Vec<f64>,
    build_ms: &mut Vec<f64>,
) -> Result<(Rig, KernelSessionImage), String> {
    let t = Instant::now();
    let img = spans.span(
        "asm::session_image",
        None,
        n as u64,
        zarf_kernel::session_image,
    );
    build_ms.push(t.elapsed().as_secs_f64() * 1e3);
    let dir = scratch_dir(args, "store", n);
    let store = open_store(&dir)?;
    let fleet = Fleet::start(FleetConfig {
        workers: WORKERS,
        session: cfg.clone(),
        store: Some(store),
        ..FleetConfig::default()
    })
    .map_err(|e| format!("fleet start: {e}"))?;
    let handle = fleet.handle();
    let mut rig = Rig {
        fleet: Some(fleet),
        handle: handle.clone(),
        dir,
        server: None,
        clients: Vec::new(),
        sessions: Vec::new(),
        injected: 0,
        frames: 0,
    };
    if params.tcp {
        let listener =
            TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind loopback: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let stop = Arc::new(AtomicBool::new(false));
        let opts = ServeOptions {
            stop: Some(stop.clone()),
            ..ServeOptions::default()
        };
        let h = handle.clone();
        let thread = std::thread::spawn(move || serve_with(listener, h, opts));
        rig.server = Some((thread, stop));
        for _ in 0..CONNS {
            rig.clients
                .push(Client::connect(addr).map_err(|e| format!("connect: {e}"))?);
        }
    }
    let population = gen::population(args.seed, params.sessions);
    for (i, patient) in population.iter().enumerate() {
        let t = Instant::now();
        let id = if params.tcp {
            let req = Request::LoadProgram {
                config: cfg.clone(),
                program: img.words.clone(),
            };
            let client = &mut rig.clients[i % CONNS];
            let resp = spans
                .span("Client::request(LoadProgram)", None, i as u64, || {
                    client.request(&req)
                })
                .map_err(|e| format!("load program: {e}"))?;
            match expect_ok(resp, "load program")? {
                Response::Opened { session } => session,
                _ => return Err("load program: unexpected response".into()),
            }
        } else {
            spans
                .span("FleetHandle::open_program", None, i as u64, || {
                    handle.open_program(&img.words, Some(cfg.clone()))
                })
                .map_err(|e| format!("open: {e}"))?
        };
        open_ms.push(t.elapsed().as_secs_f64() * 1e3);
        rig.sessions.push(Sess {
            id,
            conn: i % CONNS,
            ecg: patient.ecg(),
            samples: Vec::new(),
            outputs: Vec::new(),
            boot_outputs: Vec::new(),
            round_outputs: Vec::new(),
        });
    }
    let boots = (0..rig.sessions.len())
        .map(|_| vec![Op::step(img.boot, vec![], vec![])])
        .collect();
    let outs = round(&mut rig, boots, spans, None)?;
    for (s, words) in rig.sessions.iter_mut().zip(outs) {
        s.outputs.extend_from_slice(&words);
        s.boot_outputs = words;
    }
    Ok((rig, img))
}

pub fn run(args: &Args, spans: &mut Spans, mode: Mode) -> Result<Report, String> {
    let params = Params::of(mode);
    let mut report = Report::default();
    let mut layers = Layers::default();

    let mut cfg = SessionConfig {
        verified: params.verified,
        ..SessionConfig::default()
    };
    if params.verified {
        let img = zarf_kernel::session_image();
        cfg.heap_words = verified_heap_words(&img, spans, &mut layers)?;
    }

    // The fleet's threads spread over every vCPU: a sampler on each.
    let host = Host::on_all_cpus();
    // Set up several times; the median is the set-up time, the last rig
    // is measured.
    let mut setups = Vec::with_capacity(params.setups);
    let mut open_ms = Vec::new();
    let mut build_ms = Vec::new();
    let mut kept = None;
    for n in 0..params.setups {
        // Dropping a rig tears it down.
        drop(kept.take());
        let w = host.open();
        kept = Some(setup(
            args,
            &params,
            n,
            &cfg,
            spans,
            &mut open_ms,
            &mut build_ms,
        )?);
        setups.push(host.close(w));
    }
    let (mut rig, img) = kept.ok_or("no set-up ran")?;

    let mut pick = Rng::new(args.seed ^ 0x5E55);
    let mut replayed: Vec<usize> = Vec::new();
    while replayed.len() < params.replay_sessions.min(params.sessions) {
        let i = pick.int(0, params.sessions as i64 - 1) as usize;
        if !replayed.contains(&i) {
            replayed.push(i);
        }
    }

    // Measure: the untraced phase, then (traced run only) the traced one.
    spans.set_recording(false);
    let mut rounds: [Vec<Window>; 2] = [Vec::new(), Vec::new()];
    let mut steps: [u64; 2] = [0, 0];
    let mut frames: [u64; 2] = [0, 0];
    let mut fleet_at_phase = None;
    let mut peak = 0.0;
    let t0 = Instant::now();
    let mut r = 0usize;
    loop {
        let elapsed = t0.elapsed().as_secs_f64();
        if elapsed >= args.seconds
            && r >= params.min_rounds.max(params.replay_rounds)
            && (!spans.enabled() || !rounds[1].is_empty())
        {
            break;
        }
        let phase = usize::from(spans.enabled() && elapsed >= args.seconds / 2.0);
        if phase == 1 && fleet_at_phase.is_none() {
            fleet_at_phase = Some(rig.handle.stats());
        }
        spans.set_recording(phase == 1);
        let ops: Vec<Vec<Op>> = rig
            .sessions
            .iter_mut()
            .map(|s| {
                (0..params.steps_per_round)
                    .map(|_| {
                        let x = s.ecg.next_sample();
                        s.samples.push(x);
                        step_op(img.step, s.samples.len() - 1, x)
                    })
                    .collect()
            })
            .collect();
        let frames_before = rig.frames;
        let rs = spans.open("round", None, r as u64);
        let w = host.open();
        let outs = round(&mut rig, ops, spans, Some(rs))?;
        rounds[phase].push(host.close(w));
        spans.close(rs);
        steps[phase] += (params.sessions * params.steps_per_round) as u64;
        frames[phase] += rig.frames - frames_before;
        for (i, words) in outs.into_iter().enumerate() {
            let s = &mut rig.sessions[i];
            if replayed.contains(&i) && r < params.replay_rounds {
                s.round_outputs.push(words.clone());
            }
            s.outputs.extend(words);
        }
        r += 1;
        if r == params.min_rounds {
            peak = peak_rss_mb();
        }
    }
    spans.set_recording(spans.enabled());
    let fleet_end = rig.handle.stats();
    let setup_p50 = median(&host.scaled(&setups));
    let round_p50 = median(&host.scaled(&rounds[0]));
    host.log_rounds(&rounds[0]);
    drop(host);

    if spans.enabled() && params.tcp {
        let mut rtt_us = Vec::new();
        let id = rig.sessions[0].id;
        for k in 0..200 {
            let client = &mut rig.clients[0];
            let t = Instant::now();
            let resp = spans
                .span("Client::request(Stats)", None, k, || {
                    client.request(&Request::Stats { session: id })
                })
                .map_err(|e| format!("stats: {e}"))?;
            rtt_us.push(t.elapsed().as_secs_f64() * 1e6);
            expect_ok(resp, "stats")?;
        }
        layers.set("fleet.wire.rtt_us_p50", median(&rtt_us));
    }

    // Final snapshots, then stop the fleet before the oracle runs.
    let mut finals = Vec::with_capacity(rig.sessions.len());
    for s in &rig.sessions {
        finals.push(
            rig.handle
                .snapshot(s.id)
                .map_err(|e| format!("snapshot: {e}"))?,
        );
    }
    rig.teardown();
    check_against_oracle(&rig.sessions, &finals, &img, &cfg, &params, &mut report);

    let round_s: [Vec<f64>; 2] = rounds
        .each_ref()
        .map(|r| r.iter().map(Window::wall_s).collect());
    let all_rounds: Vec<f64> = round_s.iter().flatten().copied().collect();
    // Committed steps per CPU second of the median round, unscaled.
    let steps_per_round = (params.sessions * params.steps_per_round) as f64;
    let rate = |ph: usize| {
        let cpu: Vec<f64> = rounds[ph].iter().map(|w| w.cpu_s).collect();
        steps_per_round / median(&cpu).max(1e-9)
    };
    report.e2e("setup_s", setup_p50, "s");
    report.e2e("steps_per_cpu_s", steps_per_round / round_p50, "1/s");
    report.e2e("round_cpu_ms_p50", round_p50 * 1e3, "ms");
    report.e2e("peak_rss_mb", peak, "MB");

    if spans.enabled() {
        let start = fleet_at_phase.ok_or("traced phase never started")?;
        let slices = (fleet_end.slices - start.slices) as f64;
        layers.set("fleet.slices", slices);
        layers.set(
            "fleet.ops_per_slice",
            (fleet_end.ops_done - start.ops_done) as f64 / slices.max(1.0),
        );
        layers.set(
            "fleet.rehydrate_ratio",
            (fleet_end.rehydrations - start.rehydrations) as f64 / slices.max(1.0),
        );
        layers.set("fleet.open_ms_p50", median(&open_ms));
        let round_ms: Vec<f64> = all_rounds.iter().map(|s| s * 1e3).collect();
        layers.set("fleet.round_ms_p90", tail(&round_ms, 90.0).unwrap_or(0.0));
        layers.set("bench.round_wall_ms_p50", median(&round_s[0]) * 1e3);
        layers.set("fleet.rounds", round_ms.len() as f64);
        layers.set(
            "fleet.wire.frames_per_step",
            frames[1] as f64 / steps[1].max(1) as f64,
        );
        layers.set("asm.image_build_ms", median(&build_ms));
        layers.set(
            "bench.trace_overhead_pct",
            100.0 * (rate(0) - rate(1)) / rate(0),
        );
        let replay = replay(
            args,
            &rig.sessions,
            &replayed,
            &img,
            &cfg,
            &params,
            spans,
            &mut report,
        )?;
        // Worker time per step in the untraced phase, less the time the
        // replay spent per step inside the calls a slice makes.
        let worker_us_per_step = WORKERS as f64 * sum(&round_s[0]) * 1e6 / steps[0].max(1) as f64;
        layers.set(
            "fleet.overhead_us_per_step",
            worker_us_per_step - replay.slice_calls_us_per_step,
        );
        for (name, v) in replay.layers.0 {
            layers.set(name, v);
        }
    }
    report.finish_layers(layers);
    Ok(report)
}

/// Every session's output words and final snapshot must equal a bare
/// standalone run over the same feed.
fn check_against_oracle(
    sessions: &[Sess],
    finals: &[Vec<u8>],
    img: &KernelSessionImage,
    cfg: &SessionConfig,
    params: &Params,
    report: &mut Report,
) {
    let verdicts: Vec<(u64, u64, String)> = std::thread::scope(|scope| {
        let chunks: Vec<Vec<usize>> = (0..WORKERS)
            .map(|w| (w..sessions.len()).step_by(WORKERS).collect())
            .collect();
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|idx| {
                scope.spawn(move || {
                    idx.into_iter()
                        .map(|i| oracle_one(&sessions[i], &finals[i], img, cfg))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_default())
            .collect()
    });
    let mut checked = 0u64;
    for (total, bad, what) in verdicts {
        checked += total;
        report.check_many(total, bad, || what);
    }
    let want = sessions.len() as u64 * (1 + sessions[0].samples.len() as u64);
    report.check(checked == want && sessions.len() == params.sessions, || {
        format!("oracle checked {checked} ops, want {want}")
    });
}

/// Check one session: (ops checked, ops failed, description).
fn oracle_one(
    s: &Sess,
    final_snapshot: &[u8],
    img: &KernelSessionImage,
    cfg: &SessionConfig,
) -> (u64, u64, String) {
    let mut ops = Vec::with_capacity(s.samples.len() + 1);
    ops.push(Op::step(img.boot, vec![], vec![]));
    ops.extend(
        s.samples
            .iter()
            .enumerate()
            .map(|(k, &x)| step_op(img.step, k, x)),
    );
    let total = ops.len() as u64;
    match run_standalone(&img.words, cfg, &ops) {
        Ok((words, snapshot)) => {
            if words == s.outputs && snapshot == final_snapshot {
                (total, 0, String::new())
            } else {
                let prefix = words
                    .iter()
                    .zip(&s.outputs)
                    .take_while(|(a, b)| a == b)
                    .count();
                (
                    total,
                    total,
                    format!(
                        "session {}: outputs equal for {prefix} of {} words, snapshot {}",
                        s.id,
                        words.len(),
                        if snapshot == final_snapshot {
                            "equal"
                        } else {
                            "differs"
                        }
                    ),
                )
            }
        }
        Err(e) => (
            total,
            total,
            format!("session {}: oracle failed: {e}", s.id),
        ),
    }
}

struct ReplayResult {
    layers: Layers,
    slice_calls_us_per_step: f64,
}

/// Exact engine counters accumulated over the replay's bare machine.
#[derive(Default)]
struct Counts {
    cycles: u64,
    instructions: u64,
    gc_cycles: u64,
}

/// One op as `zarf_fleet::op::apply_op` runs it, with the execute and the
/// boundary collection timed apart.
#[allow(clippy::too_many_arguments)]
fn exec_op(
    hw: &mut Hw,
    op: &Op,
    budget: u64,
    out: &mut Vec<Int>,
    spans: &mut Spans,
    names: (&'static str, &'static str),
    id: u64,
    times: (&mut Vec<f64>, &mut Vec<f64>),
) -> Result<(), String> {
    let Op::Step { item, args, inputs } = op else {
        return Err("replay expects step ops".into());
    };
    let mut ports = VecPorts::new();
    for feed in inputs {
        ports.push_input(feed.port, feed.words.iter().copied());
    }
    if hw.root_count() == 0 {
        hw.push_root(HValue::Int(0));
    }
    let mut call_args = vec![hw.root(0)];
    call_args.extend(args.iter().map(|&n| HValue::Int(n)));
    let t = Instant::now();
    let result = spans.span(names.0, None, id, || {
        hw.call_with_budget(*item, call_args, &mut ports, budget)
    });
    times.0.push(t.elapsed().as_secs_f64() * 1e6);
    let port_list: Vec<Int> = ports.output_ports().collect();
    for port in port_list {
        let words = ports.output(port);
        out.push(port);
        out.push(words.len() as Int);
        out.extend_from_slice(words);
    }
    let code = match result {
        Ok(v) => {
            hw.set_root(0, v);
            if let Some(e) = hw.as_error(v) {
                RES_ERROR_BASE.saturating_add(e.code())
            } else if let Some(n) = hw.as_int(v) {
                n
            } else {
                RES_OPAQUE
            }
        }
        Err(HwError::CycleLimit(_)) => RES_FUEL,
        Err(HwError::OutOfMemory { .. }) => RES_OOM,
        Err(_) => RES_MACHINE_FAULT,
    };
    out.push(code);
    let t = Instant::now();
    spans
        .span(names.1, None, id, || hw.collect_garbage())
        .map_err(|e| format!("boundary collection: {e}"))?;
    times.1.push(t.elapsed().as_secs_f64() * 1e6);
    Ok(())
}

/// Replay the sampled sessions' first rounds slice by slice through the
/// public calls a fleet slice makes: `Store::get_snapshot`,
/// `Hw::rehydrate`, execute and boundary GC (once with the fleet's
/// `SharedSink<MetricsSink>` installed, once on a bare copy),
/// `Hw::hibernate`, `Store::put_session`, and on the live workload the
/// `Request`/`Response` codecs. The outputs must equal the fleet's.
#[allow(clippy::too_many_arguments)]
fn replay(
    args: &Args,
    sessions: &[Sess],
    replayed: &[usize],
    img: &KernelSessionImage,
    cfg: &SessionConfig,
    params: &Params,
    spans: &mut Spans,
    report: &mut Report,
) -> Result<ReplayResult, String> {
    let dir = scratch_dir(args, "replay", 0);
    let store = open_store(&dir)?;
    let hw_cfg = HwConfig {
        heap_words: cfg.heap_words,
        ..HwConfig::default()
    };
    let mut exec_sink = Vec::new();
    let mut gc_sink = Vec::new();
    let mut exec_bare = Vec::new();
    let mut gc_bare = Vec::new();
    let mut get_us = Vec::new();
    let mut put_us = Vec::new();
    let mut rehydrate_us = Vec::new();
    let mut hibernate_us = Vec::new();
    let mut enc_us = Vec::new();
    let mut dec_us = Vec::new();
    let mut snapshot_bytes = Vec::new();
    let mut counts = Counts::default();
    let mut steps = 0u64;
    let mut puts = 0u64;

    for &i in replayed {
        let s = &sessions[i];
        let rid = s.id;
        let mut commit_seq = 0u64;
        let mut ops_done = 0u64;
        let meta = |commit_seq: u64, ops_done: u64| SessionMeta {
            id: rid,
            commit_seq,
            ops_done,
            heap_words: cfg.heap_words as u64,
            op_budget: cfg.op_budget,
            fuel_slice: cfg.fuel_slice,
            verified: cfg.verified,
        };
        let boot = Hw::load_with(&img.words, hw_cfg.clone())
            .map_err(|e| format!("replay load: {e}"))?
            .hibernate()
            .map_err(|e| format!("replay hibernate: {e}"))?;
        store
            .put_session(&meta(0, 0), &boot)
            .map_err(|e| format!("replay put: {e}"))?;
        puts += 1;
        // Slice 0 is the boot op; slice r+1 is measured round r.
        let mut slices: Vec<Vec<Op>> = vec![vec![Op::step(img.boot, vec![], vec![])]];
        for r in 0..params.replay_rounds.min(s.round_outputs.len()) {
            let base = r * params.steps_per_round;
            slices.push(
                (base..base + params.steps_per_round)
                    .map(|k| step_op(img.step, k, s.samples[k]))
                    .collect(),
            );
        }
        for (slice_no, ops) in slices.iter().enumerate() {
            let sl = spans.open("replay_slice", None, rid);
            let t = Instant::now();
            let bytes = spans
                .span("Store::get_snapshot", Some(sl), rid, || {
                    store.get_snapshot(rid)
                })
                .map_err(|e| format!("replay get: {e}"))?;
            get_us.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            let mut fleet_hw = spans
                .span("Hw::rehydrate", Some(sl), rid, || {
                    Hw::rehydrate(&bytes, hw_cfg.clone())
                })
                .map_err(|e| format!("replay rehydrate: {e}"))?;
            rehydrate_us.push(t.elapsed().as_secs_f64() * 1e6);
            let mut bare = Hw::rehydrate(&bytes, hw_cfg.clone())
                .map_err(|e| format!("replay rehydrate: {e}"))?;
            let sink = SharedSink::new(MetricsSink::new());
            fleet_hw.set_sink(Box::new(sink.clone()));
            let mut out_fleet = Vec::new();
            let mut out_bare = Vec::new();
            for op in ops {
                if params.tcp {
                    let req = Request::Inject {
                        session: rid,
                        op: op.clone(),
                    };
                    let t = Instant::now();
                    let bytes = spans.span("Request::encode", Some(sl), rid, || req.encode());
                    enc_us.push(t.elapsed().as_secs_f64() * 1e6);
                    let t = Instant::now();
                    let back =
                        spans.span("Request::decode", Some(sl), rid, || Request::decode(&bytes));
                    dec_us.push(t.elapsed().as_secs_f64() * 1e6);
                    report.check(back.as_ref() == Ok(&req), || {
                        "request codec round trip".into()
                    });
                }
                exec_op(
                    &mut fleet_hw,
                    op,
                    cfg.op_budget,
                    &mut out_fleet,
                    spans,
                    ("Hw::call_with_budget+sink", "Hw::collect_garbage+sink"),
                    rid,
                    (&mut exec_sink, &mut gc_sink),
                )?;
                let before = bare.stats().clone();
                exec_op(
                    &mut bare,
                    op,
                    cfg.op_budget,
                    &mut out_bare,
                    spans,
                    ("Hw::call_with_budget", "Hw::collect_garbage"),
                    rid,
                    (&mut exec_bare, &mut gc_bare),
                )?;
                let after = bare.stats();
                counts.cycles += after.total_cycles() - before.total_cycles();
                counts.instructions += after.instructions() - before.instructions();
                counts.gc_cycles += after.gc_cycles - before.gc_cycles;
                steps += 1;
            }
            drop(fleet_hw.take_sink());
            let t = Instant::now();
            let snap = spans
                .span("Hw::hibernate", Some(sl), rid, || fleet_hw.hibernate())
                .map_err(|e| format!("replay hibernate: {e}"))?;
            hibernate_us.push(t.elapsed().as_secs_f64() * 1e6);
            snapshot_bytes.push(snap.len() as f64);
            let bare_snap = bare.hibernate().map_err(|e| e.to_string())?;
            report.check(bare_snap == snap, || {
                format!("replay session {rid}: sink changed the snapshot")
            });
            report.check(out_bare == out_fleet, || {
                format!("replay session {rid}: sink changed the outputs")
            });
            if params.tcp {
                let resp = Response::Output {
                    session: rid,
                    ops_done,
                    pending: 0,
                    words: out_fleet.clone(),
                };
                let t = Instant::now();
                let bytes = spans.span("Response::encode", Some(sl), rid, || resp.encode());
                enc_us.push(t.elapsed().as_secs_f64() * 1e6);
                let t = Instant::now();
                let back = spans.span("Response::decode", Some(sl), rid, || {
                    Response::decode(&bytes)
                });
                dec_us.push(t.elapsed().as_secs_f64() * 1e6);
                report.check(back.as_ref() == Ok(&resp), || {
                    "response codec round trip".into()
                });
            }
            commit_seq += 1;
            ops_done += ops.len() as u64;
            let t = Instant::now();
            spans
                .span("Store::put_session", Some(sl), rid, || {
                    store.put_session(&meta(commit_seq, ops_done), &snap)
                })
                .map_err(|e| format!("replay put: {e}"))?;
            put_us.push(t.elapsed().as_secs_f64() * 1e6);
            puts += 1;
            spans.close(sl);
            // Slice 0 (boot) is compared with the boot outputs polled at
            // set-up; the rest with the fleet's round outputs.
            let want: &[Int] = if slice_no == 0 {
                &s.boot_outputs
            } else {
                &s.round_outputs[slice_no - 1]
            };
            report.check(out_fleet == want, || {
                format!("replay session {rid} slice {slice_no}: outputs differ from the fleet's")
            });
        }
    }
    store.flush().map_err(|e| format!("replay flush: {e}"))?;
    let disk_bytes: u64 = std::fs::read_dir(&dir)
        .map_err(|e| e.to_string())?
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum();
    let dedup_hits = store.stats().dedup_hits;
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);

    let mut layers = Layers::default();
    layers.set("hw.execute_us_p50", median(&exec_bare));
    layers.set("hw.execute_us_p90", tail(&exec_bare, 90.0).unwrap_or(0.0));
    layers.set("hw.gc_us_p50", median(&gc_bare));
    layers.set("hw.hibernate_us_p50", median(&hibernate_us));
    layers.set("hw.rehydrate_us_p50", median(&rehydrate_us));
    layers.set("hw.sim_cycles", counts.cycles as f64);
    layers.set("hw.instructions", counts.instructions as f64);
    layers.set("hw.gc_cycles", counts.gc_cycles as f64);
    layers.set(
        "hw.host_ns_per_sim_cycle",
        (sum(&exec_bare) + sum(&gc_bare)) * 1e3 / counts.cycles.max(1) as f64,
    );
    layers.set(
        "hw.snapshot_bytes",
        sum(&snapshot_bytes) / snapshot_bytes.len().max(1) as f64,
    );
    layers.set(
        "trace.sink_execute_ratio",
        sum(&exec_sink) / sum(&exec_bare).max(1e-9),
    );
    layers.set("store.put_us_p50", median(&put_us));
    layers.set("store.get_us_p50", median(&get_us));
    layers.set(
        "store.bytes_per_commit",
        disk_bytes as f64 / puts.max(1) as f64,
    );
    layers.set("store.dedup_hits", dedup_hits as f64);
    if params.tcp {
        layers.set("fleet.wire.encode_us_p50", median(&enc_us));
        layers.set("fleet.wire.decode_us_p50", median(&dec_us));
    }
    layers.set("bench.replay_steps", steps as f64);
    // The slice's public calls are leaf spans, so their self time is the
    // whole call.
    let slice_calls_us: f64 = [
        "Store::get_snapshot",
        "Hw::rehydrate",
        "Hw::call_with_budget+sink",
        "Hw::collect_garbage+sink",
        "Hw::hibernate",
        "Store::put_session",
        "Request::encode",
        "Request::decode",
        "Response::encode",
        "Response::decode",
    ]
    .iter()
    .map(|name| sum(&spans.self_ns(name)) / 1e3)
    .sum();
    Ok(ReplayResult {
        layers,
        slice_calls_us_per_step: slice_calls_us / steps.max(1) as f64,
    })
}
