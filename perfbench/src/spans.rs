//! In-memory span recorder for the traced run.
//!
//! Every span is recorded by the benchmark itself, around one public call
//! it makes into a crate (`System::run`, `FleetHandle::inject_batch`,
//! `Hw::rehydrate`, `Store::put_session`, …): name, start and end in
//! nanoseconds since the recorder was created, the parent span's index,
//! and the session or round the call belongs to. Spans stay in memory and
//! are written as NDJSON once the run ends, so recording costs two clock
//! reads and a vector push. A disabled recorder still runs the closure
//! but records nothing.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Session id, round number or patient index, depending on the span.
    pub id: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Spans {
    enabled: bool,
    /// Recording is paused during a traced run's untraced phase.
    recording: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            recording: enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether this is a traced run (recording may still be paused).
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Pause or resume recording; no effect on an untraced run.
    pub fn set_recording(&mut self, on: bool) {
        self.recording = self.enabled && on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its index (meaningless when disabled).
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, id: u64) -> usize {
        if !self.recording {
            return usize::MAX;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            id,
        });
        self.spans.len() - 1
    }

    /// Close span `idx`, returning its duration in nanoseconds.
    pub fn close(&mut self, idx: usize) -> u64 {
        if idx == usize::MAX {
            return 0;
        }
        let end = self.now_ns();
        let s = &mut self.spans[idx];
        s.end_ns = end;
        s.ns()
    }

    /// Run `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        id: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let idx = self.open(name, parent, id);
        let r = f();
        self.close(idx);
        r
    }

    /// Self time of every span named `name`, in nanoseconds: its duration
    /// minus the part of it that its direct children cover.
    pub fn self_ns(&self, name: &str) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| s.ns().saturating_sub(child_ns[i]) as f64)
            .collect()
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64)
            .collect()
    }

    /// Write the spans as NDJSON to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"idx\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.id
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut sp = Spans::new(true);
        sp.spans = vec![
            Span {
                name: "slice",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                id: 1,
            },
            Span {
                name: "exec",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
                id: 1,
            },
            Span {
                name: "gc",
                start_ns: 50,
                end_ns: 60,
                parent: Some(0),
                id: 1,
            },
        ];
        assert_eq!(sp.self_ns("slice"), vec![60.0]);
        assert_eq!(sp.self_ns("exec"), vec![30.0]);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut sp = Spans::new(false);
        let v = sp.span("x", None, 0, || 7);
        assert_eq!(v, 7);
        assert!(sp.durations_ns("x").is_empty());
    }
}
