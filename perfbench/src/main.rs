//! `perfbench` — the Zarf workspace benchmark.
//!
//! ```text
//! perfbench --workload <icd_trace|kernel_batch|kernel_live|certify>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload builds its inputs from the seed, sets the system up
//! (timed as `setup_s`), drives it for `--seconds`, checks every output
//! against an independent oracle, and prints one JSON object as the last
//! line of standard output. With `--trace 0` it carries the end-to-end
//! metrics, timed in CPU time scaled by the host's speed (see `clock.rs`);
//! with `--trace 1` the per-layer metrics, taken from spans the benchmark
//! records around each public call it makes (see `README.md`).

mod certify;
mod clock;
mod fleet_load;
mod gen;
mod icd_trace;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

/// Metric values, in the order they are printed.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Descriptions of the first failed checks.
    pub errors: Vec<String>,
    pub end_to_end: Vec<(&'static str, f64, &'static str)>,
    pub per_layer: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.end_to_end.push((name, value, unit));
    }

    /// Record `total` checked outcomes of which `bad` failed.
    pub fn check_many(&mut self, total: u64, bad: u64, what: impl FnOnce() -> String) {
        self.attempted += total;
        self.failed += bad;
        if bad > 0 && self.errors.len() < 8 {
            self.errors.push(what());
        }
    }

    /// Emit the per-layer metrics in [`PER_LAYER`] order; layers the
    /// workload never called report 0.
    pub fn finish_layers(&mut self, layers: Layers) {
        for (name, unit) in PER_LAYER {
            let v = layers.0.get(name).copied().unwrap_or(0.0);
            self.per_layer.push((name, v, unit));
        }
        for name in layers.0.keys() {
            assert!(
                PER_LAYER.iter().any(|(n, _)| n == name),
                "unlisted per-layer metric {name}"
            );
        }
    }

    /// Record one checked outcome.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(what());
            }
        }
    }
}

/// Per-layer values by metric name, filled in by a workload.
#[derive(Default)]
pub struct Layers(pub std::collections::HashMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }
}

/// Per-layer metrics every workload reports, with their units. A workload
/// that makes no call into a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("hw.execute_us_p50", "us"),
    ("hw.execute_us_p90", "us"),
    ("hw.host_ns_per_sim_cycle", "ns"),
    ("hw.sim_cycles", "count"),
    ("hw.instructions", "count"),
    ("hw.gc_us_p50", "us"),
    ("hw.gc_cycles", "count"),
    ("hw.hibernate_us_p50", "us"),
    ("hw.rehydrate_us_p50", "us"),
    ("hw.snapshot_bytes", "B"),
    ("trace.sink_execute_ratio", "ratio"),
    ("store.put_us_p50", "us"),
    ("store.get_us_p50", "us"),
    ("store.bytes_per_commit", "B"),
    ("store.dedup_hits", "count"),
    ("fleet.slices", "count"),
    ("fleet.ops_per_slice", "count"),
    ("fleet.rehydrate_ratio", "ratio"),
    ("fleet.overhead_us_per_step", "us"),
    ("fleet.open_ms_p50", "ms"),
    ("fleet.round_ms_p90", "ms"),
    ("fleet.rounds", "count"),
    ("fleet.wire.frames_per_step", "count"),
    ("fleet.wire.encode_us_p50", "us"),
    ("fleet.wire.decode_us_p50", "us"),
    ("fleet.wire.rtt_us_p50", "us"),
    ("kernel.lambda_cycles_per_iter", "cycles"),
    ("kernel.trace_ms_p50", "ms"),
    ("imperative.cpu_cycles_per_iter", "cycles"),
    ("verify.shapes_ms", "ms"),
    ("verify.alloc_ms", "ms"),
    ("verify.wcet_ms", "ms"),
    ("verify.timing_ms", "ms"),
    ("verify.lint_ms", "ms"),
    ("verify.risc_ms", "ms"),
    ("verify.absint_iterations", "count"),
    ("verify.risc_steady_cycles", "cycles"),
    ("symex.decide_ms", "ms"),
    ("symex.paths", "count"),
    ("symex.summary_hits", "count"),
    ("symex.undecided", "count"),
    ("asm.image_build_ms", "ms"),
    ("bench.round_wall_ms_p50", "ms"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.replay_steps", "count"),
];

/// End-to-end metrics every workload reports.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("steps_per_cpu_s", "1/s"),
    ("round_cpu_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Directory for spans and scratch stores.
    pub out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .cloned()
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = get("--workload")?;
    let seed = get("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = get("--seconds")?
        .parse::<f64>()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    let out_dir = std::env::var_os("PERFBENCH_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".bench_build/perfbench-run"));
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        out_dir,
    })
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_metrics(list: &[(&'static str, f64, &'static str)]) -> String {
    list.iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
        })
        .collect::<Vec<_>>()
        .join(",")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut spans = spans::Spans::new(args.trace);
    let result = match args.workload.as_str() {
        "icd_trace" => icd_trace::run(&args, &mut spans),
        "kernel_batch" => fleet_load::run(&args, &mut spans, fleet_load::Mode::Batch),
        "kernel_live" => fleet_load::run(&args, &mut spans, fleet_load::Mode::Live),
        "certify" => certify::run(&args, &mut spans),
        other => Err(format!("unknown workload `{other}`")),
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        let path = args
            .out_dir
            .join(format!("spans-{}-{}.ndjson", args.workload, args.seed));
        match spans.write(&path) {
            Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write spans: {e}"),
        }
    }
    for e in &report.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let expected: Vec<&str> = if args.trace {
        PER_LAYER.iter().map(|(n, _)| *n).collect()
    } else {
        END_TO_END.iter().map(|(n, _)| *n).collect()
    };
    let metrics = if args.trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    let got: Vec<&str> = metrics.iter().map(|(n, _, _)| *n).collect();
    if got != expected {
        eprintln!("perfbench: internal error: metrics {got:?} != {expected:?}");
        return ExitCode::FAILURE;
    }
    // Human-readable summary on stderr; the result is the last stdout line.
    for (name, value, unit) in metrics {
        eprintln!("  {name:<32} {value:>16.4} {unit}");
    }
    eprintln!(
        "  failed_ratio {}/{} = {}",
        report.failed,
        report.attempted,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    let correct = report.failed == 0 && report.attempted > 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.attempted.max(1),
        report.failed,
        json_metrics(metrics)
    );
    ExitCode::SUCCESS
}
