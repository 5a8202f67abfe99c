//! `icd_trace`: the paper's two-layer system (`System::run`: λ engine,
//! GC, imperative monitor, channel) over a seeded patient population.
//!
//! A round boots one patient's `System` and runs its whole ECG trace; the
//! population is cycled until the run's time is up, and always at least
//! once. Every pace log is checked against the `IcdSpec` stream.
//!
//! No fleet, snapshot, store or sink is involved.

use std::time::Instant;

use zarf_core::VecPorts;
use zarf_hw::{HValue, Hw, HwConfig};
use zarf_kernel::program::{PORT_CHANNEL_STATUS, PORT_ECG, PORT_PACE, PORT_TIMER};
use zarf_kernel::system::System;

use crate::clock::{Host, Window};
use crate::gen;
use crate::spans::Spans;
use crate::stats::{median, sum, tail};
use crate::{peak_rss_mb, Args, Layers, Report};

const PATIENTS: usize = 8;
const PATIENT_SECONDS: usize = 120;
const SAMPLE_HZ: usize = 200;
/// Samples of patient 0 stepped through the session shell in the traced
/// run, to time one kernel iteration's execute and GC from outside.
const REPLAY_STEPS: usize = 2_000;
/// Systems booted before the first round, for the set-up time.
const SETUP_BOOTS: usize = 1_000;

/// Exact counts over the first pass of the population.
#[derive(Default)]
struct PassCounts {
    cycles: u64,
    instructions: u64,
    gc_cycles: u64,
    cpu_cycles: u64,
    iterations: u64,
}

pub fn run(args: &Args, spans: &mut Spans) -> Result<Report, String> {
    let population = gen::population(args.seed, PATIENTS);
    let samples: Vec<Vec<i32>> = population
        .iter()
        .map(|p| p.ecg().take(PATIENT_SECONDS * SAMPLE_HZ))
        .collect();
    let expected: Vec<Vec<i32>> = samples.iter().map(|s| gen::spec_words(s)).collect();
    for (i, p) in population.iter().enumerate() {
        eprintln!(
            "perfbench: patient {i}: VT onset {:.1} s, noise {}",
            p.vt_onset_s, p.config.noise
        );
    }

    let mut report = Report::default();
    let mut layers = Layers::default();
    // Single-threaded: pinned to one vCPU, with the sampler beside it.
    let host = Host::on_this_thread_cpu();
    // Set-up is booting a patient's system.
    let mut boots = Vec::with_capacity(SETUP_BOOTS);
    for p in 0..SETUP_BOOTS {
        let ecg = samples[p % PATIENTS].clone();
        let w = host.open();
        let sys = spans
            .span("System::new", None, p as u64, || System::new(ecg))
            .map_err(|e| format!("boot: {e}"))?;
        boots.push(host.close(w));
        drop(sys);
    }
    // Per phase (0 untraced, 1 traced): each round's `System::run`, and
    // the iterations they ran.
    let mut runs: [Vec<Window>; 2] = [Vec::new(), Vec::new()];
    let mut steps: [u64; 2] = [0, 0];
    let mut cycles_all = 0u64;
    let mut first = PassCounts::default();

    // A traced run spends its first half untraced, so the two halves
    // give the tracing overhead. Runs and phases hold whole passes over
    // the population, so every patient weighs the same.
    spans.set_recording(false);
    let t0 = Instant::now();
    let mut round = 0usize;
    let mut phase = 0;
    loop {
        let p = round % PATIENTS;
        let elapsed = t0.elapsed().as_secs_f64();
        if p == 0 {
            if round > 0 && elapsed >= args.seconds && (!spans.enabled() || !runs[1].is_empty()) {
                break;
            }
            phase = usize::from(spans.enabled() && elapsed >= args.seconds / 2.0);
            spans.set_recording(phase == 1);
        }
        let ecg = samples[p].clone();
        let rs = spans.open("round", None, round as u64);
        let mut sys = spans
            .span("System::new", Some(rs), p as u64, || System::new(ecg))
            .map_err(|e| format!("boot: {e}"))?;
        let w = host.open();
        let rep = spans
            .span("System::run", Some(rs), p as u64, || sys.run())
            .map_err(|e| format!("run: {e}"))?;
        runs[phase].push(host.close(w));
        spans.close(rs);

        let n = rep.iterations;
        steps[phase] += n as u64;
        let s = &rep.lambda_stats;
        cycles_all += s.total_cycles();
        if round < PATIENTS {
            first.cycles += s.total_cycles();
            first.instructions += s.instructions();
            first.gc_cycles += s.gc_cycles;
            first.cpu_cycles += rep.cpu_cycles;
            first.iterations += n as u64;
        }
        // Entry i of the pace log is the word computed at iteration i-1.
        let want = &expected[p];
        let got = rep.pace_log.get(1..).unwrap_or(&[]);
        let bad = (0..n.saturating_sub(1))
            .filter(|&i| got.get(i) != want.get(i))
            .count() as u64
            + u64::from(rep.pace_log.len() != n);
        report.check_many(n as u64, bad, || {
            format!("patient {p}: {bad} pace words differ from IcdSpec")
        });
        round += 1;
    }
    spans.set_recording(spans.enabled());
    let peak = peak_rss_mb();

    let all_run: Vec<f64> = runs.iter().flatten().map(Window::wall_s).collect();
    let run_wall_ms: Vec<f64> = runs[0].iter().map(|w| w.wall_s() * 1e3).collect();
    // Iterations per CPU second over the phase, unscaled.
    let rate = |ph: usize| steps[ph] as f64 / runs[ph].iter().map(|w| w.cpu_s).sum::<f64>();
    let scaled = host.scaled(&runs[0]);
    host.log_rounds(&runs[0]);
    report.e2e("setup_s", median(&host.scaled(&boots)), "s");
    report.e2e("steps_per_cpu_s", steps[0] as f64 / sum(&scaled), "1/s");
    report.e2e("round_cpu_ms_p50", median(&scaled) * 1e3, "ms");
    report.e2e("peak_rss_mb", peak, "MB");
    drop(host);

    if spans.enabled() {
        let kernel_run_ms: Vec<f64> = spans
            .durations_ns("System::run")
            .iter()
            .map(|ns| ns / 1e6)
            .collect();
        layers.set("kernel.trace_ms_p50", median(&kernel_run_ms));
        layers.set("bench.round_wall_ms_p50", median(&run_wall_ms));
        layers.set(
            "kernel.lambda_cycles_per_iter",
            first.cycles as f64 / first.iterations as f64,
        );
        layers.set(
            "imperative.cpu_cycles_per_iter",
            first.cpu_cycles as f64 / first.iterations as f64,
        );
        layers.set("hw.sim_cycles", first.cycles as f64);
        layers.set("hw.instructions", first.instructions as f64);
        layers.set("hw.gc_cycles", first.gc_cycles as f64);
        layers.set(
            "hw.host_ns_per_sim_cycle",
            sum(&all_run) * 1e9 / cycles_all as f64,
        );
        layers.set(
            "bench.trace_overhead_pct",
            100.0 * (rate(0) - rate(1)) / rate(0),
        );

        let mut build_ms = Vec::new();
        for _ in 0..5 {
            let t = Instant::now();
            let m = spans.span("asm::kernel_machine", None, 0, zarf_kernel::kernel_machine);
            build_ms.push(t.elapsed().as_secs_f64() * 1e3);
            std::hint::black_box(m);
        }
        layers.set("asm.image_build_ms", median(&build_ms));

        replay_iterations(&samples[0], &expected[0], spans, &mut report, &mut layers)?;
    }
    report.finish_layers(layers);
    Ok(report)
}

/// Step the kernel's session shell (the same four coroutines one
/// `System` iteration runs) over patient 0's first samples on a bare
/// `Hw`, timing `Hw::call` and `Hw::collect_garbage` per iteration. The
/// pace output is checked against the specification like a system run.
fn replay_iterations(
    samples: &[i32],
    expected: &[i32],
    spans: &mut Spans,
    report: &mut Report,
    layers: &mut Layers,
) -> Result<(), String> {
    let img = zarf_kernel::session_image();
    let mut hw = Hw::load_with(&img.words, HwConfig::default()).map_err(|e| e.to_string())?;
    let mut ports = VecPorts::new();
    let boot = hw
        .call(img.boot, vec![HValue::Int(0)], &mut ports)
        .map_err(|e| e.to_string())?;
    hw.push_root(boot);
    let mut exec_us = Vec::with_capacity(REPLAY_STEPS);
    let mut gc_us = Vec::with_capacity(REPLAY_STEPS);
    let n = REPLAY_STEPS.min(samples.len());
    for (k, &x) in samples[..n].iter().enumerate() {
        ports.push_input(PORT_TIMER, [k as i32]);
        ports.push_input(PORT_ECG, [x]);
        ports.push_input(PORT_CHANNEL_STATUS, [0]);
        let state = hw.root(0);
        let t = Instant::now();
        let v = spans
            .span("Hw::call", None, k as u64, || {
                hw.call(img.step, vec![state], &mut ports)
            })
            .map_err(|e| e.to_string())?;
        exec_us.push(t.elapsed().as_secs_f64() * 1e6);
        hw.set_root(0, v);
        let t = Instant::now();
        spans
            .span("Hw::collect_garbage", None, k as u64, || {
                hw.collect_garbage()
            })
            .map_err(|e| e.to_string())?;
        gc_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let pace = ports.output(PORT_PACE);
    let got = pace.get(1..).unwrap_or(&[]);
    let bad = (0..n - 1)
        .filter(|&i| got.get(i) != expected.get(i))
        .count() as u64;
    report.check_many(n as u64, bad, || {
        format!("session-shell replay: {bad} pace words differ from IcdSpec")
    });
    layers.set("hw.execute_us_p50", median(&exec_us));
    layers.set("hw.execute_us_p90", tail(&exec_us, 90.0).unwrap_or(0.0));
    layers.set("hw.gc_us_p50", median(&gc_us));
    layers.set("bench.replay_steps", n as f64);
    Ok(())
}
