//! Aggregating sink: histograms and cycle attribution.

use std::collections::BTreeMap;
use std::fmt;

use crate::{Event, InstrClass, TraceSink};

/// Power-of-two-bucket histogram over `u64` samples.
///
/// Bucket `i` holds values `v` with `bit_len(v) == i`, i.e. bucket 0 is
/// exactly `0`, bucket 1 is `1`, bucket 2 is `2..=3`, bucket 3 is
/// `4..=7`, … — the classic latency-histogram shape, which is what GC
/// pauses and heap occupancy want.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; 65],
    n: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [0; 65],
            n: 0,
            sum: 0,
            min: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        let bucket = (u64::BITS - v.leading_zeros()) as usize;
        self.counts[bucket] += 1;
        if self.n == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.n += 1;
        self.sum += v;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum as f64 / self.n as f64
        }
    }

    /// Fold another histogram into this one, as if every sample recorded
    /// into `other` had been recorded here. Used by the fleet to aggregate
    /// per-session histograms into fleet-wide ones.
    pub fn merge(&mut self, other: &Histogram) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        for (c, oc) in self.counts.iter_mut().zip(other.counts.iter()) {
            *c += oc;
        }
        self.n += other.n;
        self.sum += other.sum;
    }

    /// Upper bound of the bucket holding the `q`-quantile sample
    /// (`0.0 ..= 1.0`), or 0 when empty. Bucketed, so the answer is exact
    /// to within a factor of two — good enough for p50/p99 summaries.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let hi = match i {
                    0 => 0,
                    64 => u64::MAX,
                    _ => (1u64 << i) - 1,
                };
                return hi.min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Non-empty buckets as `(lo, hi, count)` inclusive value ranges.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let (lo, hi) = match i {
                    0 => (0, 0),
                    64 => (1u64 << 63, u64::MAX),
                    _ => (1u64 << (i - 1), (1u64 << i) - 1),
                };
                (lo, hi, c)
            })
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.n == 0 {
            return writeln!(f, "  (no samples)");
        }
        let widest = self.counts.iter().copied().max().unwrap_or(1).max(1);
        for (lo, hi, c) in self.buckets() {
            let bar = "#".repeat(((c * 40).div_ceil(widest)) as usize);
            writeln!(f, "  {lo:>12} ..= {hi:<12} {c:>8}  {bar}")?;
        }
        writeln!(
            f,
            "  n={} sum={} min={} max={} mean={:.1}",
            self.n,
            self.sum,
            self.min,
            self.max,
            self.mean()
        )
    }
}

/// Everything the metrics sink aggregates from a trace.
///
/// The invariants tested against the simulator's own `Stats`:
/// per-class `instr_counts` / `class_cycles` match the aggregate class
/// counters exactly, `gc_pauses.sum()` equals `gc_cycles`, and the
/// per-item and per-coroutine maps each partition the mutator cycles.
#[derive(Debug, Default, Clone)]
pub struct MetricsSink {
    /// Instruction retirements per class (`Instr` events).
    pub instr_counts: [u64; 4],
    /// Cycles charged per class (`Cycles` events).
    pub class_cycles: [u64; 4],
    /// Mutator cycles attributed to each item (function/constructor) id;
    /// cycles charged with no frame on the stack land in `None`.
    pub item_cycles: BTreeMap<Option<u32>, u64>,
    /// Mutator cycles attributed to each registered coroutine; cycles
    /// outside any registered coroutine land in `None` (kernel glue).
    pub coroutine_cycles: BTreeMap<Option<u32>, u64>,
    /// GC pause distribution (one sample per collection, in cycles).
    pub gc_pauses: Histogram,
    /// Heap occupancy after each allocation, in words.
    pub heap_occupancy: Histogram,
    /// Total objects copied by all collections.
    pub gc_objects_copied: u64,
    /// Total words copied by all collections.
    pub gc_words_copied: u64,
    /// Total words reclaimed by all collections.
    pub gc_words_reclaimed: u64,
    /// Heap allocations observed.
    pub allocations: u64,
    /// Words allocated by the mutator.
    pub words_allocated: u64,
    /// Channel pushes / pops observed.
    pub channel_pushes: u64,
    /// Channel pops observed.
    pub channel_pops: u64,
    /// Deepest channel occupancy seen.
    pub channel_peak_depth: usize,
    /// External device reads / writes.
    pub io_reads: u64,
    /// External device writes.
    pub io_writes: u64,
    /// Planned faults that fired (`FaultInjected` events).
    pub faults_injected: u64,
    /// Watchdog detections of misbehaving coroutines.
    pub watchdog_detections: u64,
    /// Watchdog recovery actions applied.
    pub watchdog_recoveries: u64,
    /// Bounded-channel overflow incidents.
    pub channel_overflows: u64,
    /// Checkpoints captured and accepted by rollback recovery.
    pub checkpoints_captured: u64,
    /// Rollbacks to a checkpoint performed.
    pub rollbacks: u64,
    /// Checkpoints rejected by verification (CRC or audit).
    pub audit_failures: u64,
    /// Currently active registered coroutines (innermost last).
    stack: Vec<u32>,
}

impl MetricsSink {
    /// An empty sink.
    pub fn new() -> Self {
        MetricsSink::default()
    }

    /// Total instructions retired.
    pub fn instructions(&self) -> u64 {
        self.instr_counts.iter().sum()
    }

    /// Total non-GC cycles.
    pub fn mutator_cycles(&self) -> u64 {
        self.class_cycles.iter().sum()
    }

    /// Total GC pause cycles.
    pub fn gc_cycles(&self) -> u64 {
        self.gc_pauses.sum()
    }

    /// Collections observed.
    pub fn gc_runs(&self) -> u64 {
        self.gc_pauses.count()
    }

    /// Count and cycles for one class.
    pub fn class(&self, class: InstrClass) -> (u64, u64) {
        (
            self.instr_counts[class.index()],
            self.class_cycles[class.index()],
        )
    }

    /// Fold another sink's aggregates into this one, as if both had
    /// observed one combined trace. Attribution maps add per key,
    /// histograms merge, peak depths take the max. The coroutine stack is
    /// transient per-run state and is not merged.
    pub fn merge(&mut self, other: &MetricsSink) {
        for (a, b) in self.instr_counts.iter_mut().zip(other.instr_counts.iter()) {
            *a += b;
        }
        for (a, b) in self.class_cycles.iter_mut().zip(other.class_cycles.iter()) {
            *a += b;
        }
        for (k, v) in &other.item_cycles {
            *self.item_cycles.entry(*k).or_insert(0) += v;
        }
        for (k, v) in &other.coroutine_cycles {
            *self.coroutine_cycles.entry(*k).or_insert(0) += v;
        }
        self.gc_pauses.merge(&other.gc_pauses);
        self.heap_occupancy.merge(&other.heap_occupancy);
        self.gc_objects_copied += other.gc_objects_copied;
        self.gc_words_copied += other.gc_words_copied;
        self.gc_words_reclaimed += other.gc_words_reclaimed;
        self.allocations += other.allocations;
        self.words_allocated += other.words_allocated;
        self.channel_pushes += other.channel_pushes;
        self.channel_pops += other.channel_pops;
        self.channel_peak_depth = self.channel_peak_depth.max(other.channel_peak_depth);
        self.io_reads += other.io_reads;
        self.io_writes += other.io_writes;
        self.faults_injected += other.faults_injected;
        self.watchdog_detections += other.watchdog_detections;
        self.watchdog_recoveries += other.watchdog_recoveries;
        self.channel_overflows += other.channel_overflows;
        self.checkpoints_captured += other.checkpoints_captured;
        self.rollbacks += other.rollbacks;
        self.audit_failures += other.audit_failures;
    }
}

impl TraceSink for MetricsSink {
    fn event(&mut self, e: &Event) {
        match e {
            Event::Instr { class, .. } => self.instr_counts[class.index()] += 1,
            Event::Cycles {
                class,
                item,
                cycles,
            } => {
                self.class_cycles[class.index()] += cycles;
                *self.item_cycles.entry(*item).or_insert(0) += cycles;
                *self
                    .coroutine_cycles
                    .entry(self.stack.last().copied())
                    .or_insert(0) += cycles;
            }
            Event::Alloc { words, heap_words } => {
                self.allocations += 1;
                self.words_allocated += words;
                self.heap_occupancy.record(*heap_words);
            }
            Event::GcStart { .. } => {}
            Event::GcEnd {
                pause_cycles,
                objects_copied,
                words_copied,
                words_reclaimed,
            } => {
                self.gc_pauses.record(*pause_cycles);
                self.gc_objects_copied += objects_copied;
                self.gc_words_copied += words_copied;
                self.gc_words_reclaimed += words_reclaimed;
            }
            Event::ChannelPush { depth, .. } => {
                self.channel_pushes += 1;
                self.channel_peak_depth = self.channel_peak_depth.max(*depth);
            }
            Event::ChannelPop { .. } => self.channel_pops += 1,
            Event::IoRead { .. } => self.io_reads += 1,
            Event::IoWrite { .. } => self.io_writes += 1,
            Event::CoroutineEnter { id } => self.stack.push(*id),
            Event::CoroutineExit { id } => {
                if self.stack.last() == Some(id) {
                    self.stack.pop();
                }
            }
            Event::FaultInjected { .. } => self.faults_injected += 1,
            Event::WatchdogDetect { .. } => self.watchdog_detections += 1,
            Event::WatchdogRecover { .. } => self.watchdog_recoveries += 1,
            Event::ChannelOverflow { .. } => self.channel_overflows += 1,
            Event::CheckpointCapture { .. } => self.checkpoints_captured += 1,
            Event::CheckpointRollback { .. } => self.rollbacks += 1,
            Event::AuditFail { .. } => self.audit_failures += 1,
            Event::Bind { .. } | Event::Dispatch { .. } | Event::Yield { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_moments() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 1, 3, 4, 7, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 1016);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1000);
        let buckets: Vec<_> = h.buckets().collect();
        assert!(buckets.contains(&(0, 0, 1)), "zero bucket: {buckets:?}");
        assert!(buckets.contains(&(1, 1, 2)), "ones bucket: {buckets:?}");
        assert!(buckets.contains(&(2, 3, 1)), "2..=3 bucket: {buckets:?}");
        assert!(buckets.contains(&(4, 7, 2)), "4..=7 bucket: {buckets:?}");
        assert!(
            buckets.contains(&(512, 1023, 1)),
            "512..=1023 bucket: {buckets:?}"
        );
        assert!(!h.to_string().is_empty());
    }

    #[test]
    fn cycles_partition_across_attributions() {
        let mut m = MetricsSink::new();
        let ev = |class, item, cycles| Event::Cycles {
            class,
            item,
            cycles,
        };
        m.event(&Event::CoroutineEnter { id: 7 });
        m.event(&ev(InstrClass::Let, Some(0x100), 10));
        m.event(&Event::CoroutineExit { id: 7 });
        m.event(&ev(InstrClass::Case, Some(0x101), 5));
        m.event(&ev(InstrClass::Let, None, 2));
        assert_eq!(m.mutator_cycles(), 17);
        assert_eq!(m.class(InstrClass::Let), (0, 12));
        assert_eq!(m.item_cycles.values().sum::<u64>(), 17);
        assert_eq!(m.coroutine_cycles[&Some(7)], 10);
        assert_eq!(m.coroutine_cycles[&None], 7);
    }

    #[test]
    fn histogram_merge_matches_combined_recording() {
        let xs = [0u64, 1, 7, 64, 900];
        let ys = [3u64, 3, 4096];
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut combined = Histogram::new();
        for &v in &xs {
            a.record(v);
            combined.record(v);
        }
        for &v in &ys {
            b.record(v);
            combined.record(v);
        }
        a.merge(&b);
        assert_eq!(a, combined);
        // Merging an empty histogram is the identity, both ways.
        let mut empty = Histogram::new();
        empty.merge(&combined);
        assert_eq!(empty, combined);
        combined.merge(&Histogram::new());
        assert_eq!(a, combined);
    }

    #[test]
    fn histogram_quantiles_are_bucket_bounds() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        for v in [1u64, 1, 1, 1, 1, 1, 1, 1, 1, 1000] {
            h.record(v);
        }
        // Nine of ten samples are 1, so p50 sits in the ones bucket and
        // p99 in the 512..=1023 bucket (clamped to the observed max).
        assert_eq!(h.quantile(0.5), 1);
        assert_eq!(h.quantile(0.99), 1000);
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(1.0), 1000);
        let mut single = Histogram::new();
        single.record(42);
        // Single sample: every quantile is exactly it.
        assert_eq!(single.quantile(0.5), 42);
    }

    #[test]
    fn metrics_merge_adds_counters_and_maps() {
        let mut a = MetricsSink::new();
        let mut b = MetricsSink::new();
        a.event(&Event::Cycles {
            class: InstrClass::Let,
            item: Some(1),
            cycles: 10,
        });
        a.event(&Event::Alloc {
            words: 4,
            heap_words: 100,
        });
        b.event(&Event::Cycles {
            class: InstrClass::Let,
            item: Some(1),
            cycles: 5,
        });
        b.event(&Event::Cycles {
            class: InstrClass::Case,
            item: Some(2),
            cycles: 3,
        });
        b.event(&Event::ChannelPush {
            port: 0,
            word: 9,
            depth: 4,
        });
        a.merge(&b);
        assert_eq!(a.mutator_cycles(), 18);
        assert_eq!(a.item_cycles[&Some(1)], 15);
        assert_eq!(a.item_cycles[&Some(2)], 3);
        assert_eq!(a.allocations, 1);
        assert_eq!(a.channel_pushes, 1);
        assert_eq!(a.channel_peak_depth, 4);
    }

    #[test]
    fn gc_pauses_sum_to_gc_cycles() {
        let mut m = MetricsSink::new();
        for pause in [100u64, 250] {
            m.event(&Event::GcStart { heap_words: 500 });
            m.event(&Event::GcEnd {
                pause_cycles: pause,
                objects_copied: 3,
                words_copied: 12,
                words_reclaimed: 88,
            });
        }
        assert_eq!(m.gc_cycles(), 350);
        assert_eq!(m.gc_runs(), 2);
        assert_eq!(m.gc_objects_copied, 6);
        assert_eq!(m.gc_words_reclaimed, 176);
    }
}
