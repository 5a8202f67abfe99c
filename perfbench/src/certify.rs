//! `certify`: one `zarf vet` pass over the fixed shipped corpus per round.
//!
//! The λ images `@icd`, `@kernel` and `@session` are vetted under both
//! entry models with symbolic execution (integrity round trip, shape and
//! allocation analyses, WCET of `main`, lints, `zarf_symex::decide` over
//! the warning queries); `@monitor` and `@chanmon` go through
//! `risc::certify`; `kernel_timing` bounds the kernel iteration. Every
//! verdict is compared with the known answer. The corpus is fixed; the
//! seed is only recorded.

use std::time::Instant;

use zarf_core::machine::MProgram;
use zarf_hw::CostModel;
use zarf_imperative::Instr;
use zarf_symex::SymexBudget;
use zarf_verify::risc::RiscSpec;
use zarf_verify::{analyze_alloc, analyze_shapes, kernel_timing, lint, EntryModel, Wcet};

use crate::clock::{Host, Window};
use crate::spans::Spans;
use crate::stats::{median, sum};
use crate::{peak_rss_mb, Args, Layers, Report};

/// Known symex outcome of one λ image under one model: witnesses and
/// discharged warnings (undecided is always 0).
struct Known {
    image: &'static str,
    model: EntryModel,
    witnesses: usize,
    discharged: usize,
}

const KNOWN: &[Known] = &[
    Known {
        image: "@icd",
        model: EntryModel::Standalone,
        witnesses: 0,
        discharged: 0,
    },
    Known {
        image: "@icd",
        model: EntryModel::Service,
        witnesses: 1,
        discharged: 0,
    },
    Known {
        image: "@kernel",
        model: EntryModel::Standalone,
        witnesses: 0,
        discharged: 0,
    },
    Known {
        image: "@kernel",
        model: EntryModel::Service,
        witnesses: 4,
        discharged: 1,
    },
    Known {
        image: "@session",
        model: EntryModel::Standalone,
        witnesses: 0,
        discharged: 0,
    },
    Known {
        image: "@session",
        model: EntryModel::Service,
        witnesses: 4,
        discharged: 1,
    },
];

/// Steady per-iteration bound of the certified ICD monitor, in cycles.
const MONITOR_STEADY: u64 = 1110;
/// `kernel_timing`: loop WCET and per-iteration GC bound, in cycles.
const KERNEL_LOOP_WCET: u64 = 2951;
const KERNEL_GC_BOUND: u64 = 2621;
/// Vet requests per pass: six λ image/model pairs, two RISC images, timing.
const REQUESTS_PER_PASS: usize = KNOWN.len() + 3;
/// Corpus builds in the set-up; their median is `setup_s`.
const SETUP_BUILDS: usize = 400;

struct Corpus {
    lambda: Vec<(&'static str, MProgram)>,
    risc: Vec<(&'static str, Vec<Instr>, RiscSpec)>,
}

fn build_corpus() -> Corpus {
    use zarf_imperative::{CHANNEL_PORT, CHANNEL_STATUS_PORT};
    use zarf_kernel::baseline::{baseline_program, BASELINE_MEM_WORDS};
    use zarf_kernel::devices::{PORT_CMD, PORT_CMD_STATUS, PORT_RESP};
    use zarf_kernel::program::{PORT_BOOT, PORT_ECG, PORT_PACE, PORT_TIMER};

    let monitor_spec =
        RiscSpec::new(BASELINE_MEM_WORDS).with_ports([PORT_BOOT, PORT_TIMER, PORT_PACE, PORT_ECG]);
    let chanmon_spec = RiscSpec::new(64).with_ports([
        CHANNEL_STATUS_PORT,
        CHANNEL_PORT,
        PORT_CMD_STATUS,
        PORT_CMD,
        PORT_RESP,
    ]);
    Corpus {
        lambda: vec![
            ("@icd", zarf_icd::icd_machine()),
            ("@kernel", zarf_kernel::kernel_machine()),
            ("@session", zarf_kernel::session_machine()),
        ],
        risc: vec![
            ("@monitor", baseline_program(), monitor_spec),
            (
                "@chanmon",
                zarf_kernel::monitor::monitor_program(),
                chanmon_spec,
            ),
        ],
    }
}

/// Exact counts of one pass.
#[derive(Default, PartialEq, Debug)]
struct PassCounts {
    absint_iterations: u64,
    risc_steady: u64,
    paths: u64,
    summary_hits: u64,
    undecided: u64,
}

/// One vet pass over the corpus, checking every verdict.
fn pass(
    corpus: &Corpus,
    spans: &mut Spans,
    round: u64,
    report: &mut Report,
) -> Result<PassCounts, String> {
    let mut counts = PassCounts::default();
    let cost = CostModel::default();
    let rs = spans.open("pass", None, round);
    for k in KNOWN {
        let (_, m) = corpus
            .lambda
            .iter()
            .find(|(name, _)| *name == k.image)
            .ok_or("corpus image missing")?;
        let words = spans
            .span("asm::encode", Some(rs), round, || zarf_asm::encode(m))
            .map_err(|e| format!("{}: encode: {e}", k.image))?;
        let decoded = spans.span("asm::decode", Some(rs), round, || zarf_asm::decode(&words));
        report.check(decoded.is_ok(), || format!("{}: re-decode failed", k.image));

        let shapes = spans
            .span("verify::analyze_shapes", Some(rs), round, || {
                analyze_shapes(m, k.model)
            })
            .map_err(|e| format!("{}: shapes: {e}", k.image))?;
        counts.absint_iterations += shapes.iterations;
        report.check(
            shapes.case_fault_free() && shapes.arity_fault_free(),
            || {
                format!(
                    "{} {:?}: lost its fault-freedom certificates",
                    k.image, k.model
                )
            },
        );
        let queries = zarf_verify::warning_queries(m, &shapes);
        let sx = spans.span("symex::decide", Some(rs), round, || {
            zarf_symex::decide(m, &shapes, &queries, SymexBudget::default())
        });
        counts.paths += sx.stats.paths;
        counts.summary_hits += sx.stats.summary_hits;
        counts.undecided += sx.undecided() as u64;
        report.check(
            sx.witnesses() == k.witnesses && sx.discharged() == k.discharged && sx.undecided() == 0,
            || {
                format!(
                    "{} {:?}: symex witnesses/discharged/undecided {}/{}/{}, want {}/{}/0",
                    k.image,
                    k.model,
                    sx.witnesses(),
                    sx.discharged(),
                    sx.undecided(),
                    k.witnesses,
                    k.discharged
                )
            },
        );

        let alloc = spans
            .span("verify::analyze_alloc", Some(rs), round, || {
                analyze_alloc(m)
            })
            .map_err(|e| format!("{}: alloc: {e}", k.image))?;
        counts.absint_iterations += alloc.iterations;
        let wcet = spans.span("verify::wcet", Some(rs), round, || {
            Wcet::new(m, &cost).analyze(0x100)
        });
        std::hint::black_box(wcet.ok());
        let lints = spans.span("verify::lint", Some(rs), round, || {
            zarf_asm::lift(m).map(|p| lint(&p))
        });
        report.check(lints.is_ok(), || format!("{}: lift failed", k.image));
    }
    for (name, prog, spec) in &corpus.risc {
        let rep = spans
            .span("verify::risc::certify", Some(rs), round, || {
                zarf_verify::risc::certify(prog, spec)
            })
            .map_err(|e| format!("{name}: risc certify: {e}"))?;
        counts.absint_iterations += rep.iterations;
        report.check(rep.certified(), || format!("{name}: not certified"));
        if *name == "@monitor" {
            counts.risc_steady = rep.wcet.steady.unwrap_or(0);
            report.check(rep.wcet.steady == Some(MONITOR_STEADY), || {
                format!(
                    "@monitor steady bound {:?}, want {MONITOR_STEADY}",
                    rep.wcet.steady
                )
            });
        }
    }
    let timing = spans
        .span("verify::kernel_timing", Some(rs), round, || {
            kernel_timing(&cost)
        })
        .map_err(|e| format!("kernel_timing: {e}"))?;
    report.check(
        timing.loop_wcet == KERNEL_LOOP_WCET && timing.gc_bound == KERNEL_GC_BOUND,
        || {
            format!(
                "kernel_timing {} + {}, want {KERNEL_LOOP_WCET} + {KERNEL_GC_BOUND}",
                timing.loop_wcet, timing.gc_bound
            )
        },
    );
    spans.close(rs);
    Ok(counts)
}

pub fn run(args: &Args, spans: &mut Spans) -> Result<Report, String> {
    eprintln!(
        "perfbench: certify corpus is fixed; seed {} recorded",
        args.seed
    );
    let mut report = Report::default();
    let mut layers = Layers::default();

    // Single-threaded: pinned to one vCPU, with the sampler beside it.
    let host = Host::on_this_thread_cpu();
    let mut builds = Vec::with_capacity(SETUP_BUILDS);
    let mut corpus = None;
    for _ in 0..SETUP_BUILDS {
        let w = host.open();
        corpus = Some(spans.span("asm::build_corpus", None, 0, build_corpus));
        builds.push(host.close(w));
    }
    let corpus = corpus.ok_or("no corpus")?;

    spans.set_recording(false);
    let mut passes: [Vec<Window>; 2] = [Vec::new(), Vec::new()];
    let mut first: Option<PassCounts> = None;
    let mut peak = 0.0;
    let t0 = Instant::now();
    let mut round = 0u64;
    while round == 0
        || t0.elapsed().as_secs_f64() < args.seconds
        || (spans.enabled() && passes[1].is_empty())
    {
        let phase =
            usize::from(spans.enabled() && t0.elapsed().as_secs_f64() >= args.seconds / 2.0);
        spans.set_recording(phase == 1);
        let w = host.open();
        let counts = pass(&corpus, spans, round, &mut report)?;
        passes[phase].push(host.close(w));
        match &first {
            None => {
                // Read after one pass, so every run covers the same work.
                peak = peak_rss_mb();
                first = Some(counts);
            }
            Some(f) => report.check(*f == counts, || {
                format!("pass {round} counts {counts:?} differ from pass 0 {f:?}")
            }),
        }
        round += 1;
    }
    spans.set_recording(spans.enabled());
    let first = first.ok_or("no pass ran")?;

    // Vet requests per CPU second of the median pass, scaled.
    let rate = |ph: usize| REQUESTS_PER_PASS as f64 / median(&host.scaled(&passes[ph])).max(1e-9);
    let pass_p50 = median(&host.scaled(&passes[0]));
    host.log_rounds(&passes[0]);
    report.e2e("setup_s", median(&host.scaled(&builds)), "s");
    report.e2e("steps_per_cpu_s", rate(0), "1/s");
    report.e2e("round_cpu_ms_p50", pass_p50 * 1e3, "ms");
    report.e2e("peak_rss_mb", peak, "MB");
    let pass_s: [Vec<f64>; 2] = passes
        .each_ref()
        .map(|p| p.iter().map(Window::wall_s).collect());

    if spans.enabled() {
        let traced = pass_s[1].len().max(1) as f64;
        let per_pass_ms = |name: &str| sum(&spans.durations_ns(name)) / 1e6 / traced;
        layers.set("verify.shapes_ms", per_pass_ms("verify::analyze_shapes"));
        layers.set("verify.alloc_ms", per_pass_ms("verify::analyze_alloc"));
        layers.set("verify.wcet_ms", per_pass_ms("verify::wcet"));
        layers.set("verify.timing_ms", per_pass_ms("verify::kernel_timing"));
        layers.set("verify.lint_ms", per_pass_ms("verify::lint"));
        layers.set("verify.risc_ms", per_pass_ms("verify::risc::certify"));
        layers.set("symex.decide_ms", per_pass_ms("symex::decide"));
        layers.set("verify.absint_iterations", first.absint_iterations as f64);
        layers.set("bench.round_wall_ms_p50", median(&pass_s[0]) * 1e3);
        layers.set("verify.risc_steady_cycles", first.risc_steady as f64);
        layers.set("symex.paths", first.paths as f64);
        layers.set("symex.summary_hits", first.summary_hits as f64);
        layers.set("symex.undecided", first.undecided as f64);
        let build_ms: Vec<f64> = spans
            .durations_ns("asm::build_corpus")
            .iter()
            .map(|ns| ns / 1e6)
            .collect();
        layers.set("asm.image_build_ms", median(&build_ms));
        layers.set(
            "bench.trace_overhead_pct",
            100.0 * (rate(0) - rate(1)) / rate(0),
        );
    }
    report.finish_layers(layers);
    Ok(report)
}
