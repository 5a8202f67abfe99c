//! The clock the end-to-end timings read: CPU time, scaled by the speed
//! of the host at the time.
//!
//! The benchmark runs on a virtual machine with a few vCPUs on a shared
//! host, and the host's speed drifts with its other tenants' load.
//!
//! * Wall time also counts the spells in which the hypervisor runs other
//!   guests on this machine's vCPUs (steal) and in which the guest runs
//!   other processes. CPU time counts only the time this process's
//!   threads ran: Linux guests built with paravirtual time accounting
//!   leave steal out of it.
//! * CPU time still moves with what the host shares out: hyperthread
//!   siblings, caches, clock speed. So a [`Host`] keeps a sampler thread
//!   on each vCPU the workload uses, timing units of fixed reference work
//!   at a fixed duty cycle all through the run, and a timing is scaled by
//!   the median unit timed on those vCPUs during the same window (see
//!   [`Host::scaled`]). The reference is this file's own code, so no
//!   change to the program under test can move it.
//!
//! Waits inside the program (a worker parked on an empty queue, a
//! server's idle sleep) are not CPU time, so a change that only shortens
//! waits shows in the wall-clock per-layer figures, not here.

use std::ffi::{c_long, c_ulong};
use std::os::unix::thread::JoinHandleExt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::stats::median;

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn pthread_getcpuclockid(thread: c_ulong, clock: *mut i32) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` and `CLOCK_THREAD_CPUTIME_ID` on Linux.
const PROCESS_CPUTIME: i32 = 2;
const THREAD_CPUTIME: i32 = 3;

fn read_clock(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable timespec for the call to fill in.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU time, user and system, of every thread of this process so far.
fn process_cpu_s() -> f64 {
    read_clock(PROCESS_CPUTIME)
}

/// Words of a `cpu_set_t` (1024 CPUs).
const CPU_SET_WORDS: usize = 16;

/// The CPUs the calling thread may run on.
fn allowed_cpus() -> Vec<usize> {
    let mut set = [0u64; CPU_SET_WORDS];
    // SAFETY: `set` is a live, writable buffer of the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&set), set.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..CPU_SET_WORDS * 64)
        .filter(|&c| set[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Pin the calling thread to `cpu`; false if the kernel refused.
fn pin_to(cpu: usize) -> bool {
    let mut one = [0u64; CPU_SET_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of the size passed.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) == 0 }
}

/// Words of the reference machine's memory (64 KiB).
const REF_MEMORY_WORDS: usize = 1 << 14;
/// Instructions the reference machine runs per unit of reference work.
const REF_STEPS: u32 = 500_000;
/// Share of its vCPU's time a sampler spends on reference work.
const REF_DUTY: f64 = 0.05;
/// CPU seconds one unit of reference work is scaled to.
const REF_NOMINAL_S: f64 = 1e-3;
/// Fewest units a window is scaled by; a shorter window is widened.
const MIN_UNITS: usize = 16;
/// Most samplers a host starts: the fleets run two workers beside the
/// generator and the server, so a larger machine needs no more.
const MAX_SAMPLERS: usize = 4;

/// The reference machine's program: (opcode, a, b, c) over 8 registers.
const REF_PROGRAM: [(u8, u8, u8, u8); 16] = [
    (0, 1, 2, 3),
    (1, 2, 3, 4),
    (2, 3, 1, 5),
    (3, 4, 5, 6),
    (4, 5, 6, 7),
    (5, 6, 7, 0),
    (0, 7, 0, 1),
    (6, 1, 2, 0),
    (1, 3, 4, 2),
    (2, 0, 5, 3),
    (7, 2, 6, 4),
    (3, 5, 1, 6),
    (4, 6, 3, 7),
    (6, 7, 4, 1),
    (5, 0, 2, 5),
    (7, 4, 0, 2),
];

/// One unit of reference work: a small register machine (fetch,
/// dispatch, register and memory operations, data-dependent branches),
/// the same kind of work as the λ engine's interpreter loop.
fn reference_unit(memory: &mut [u32]) -> u32 {
    let mask = memory.len() - 1;
    let mut r = [1u32, 2, 3, 4, 5, 6, 7, 8];
    let mut pc = 0usize;
    for _ in 0..REF_STEPS {
        let (op, a, b, c) = REF_PROGRAM[pc];
        let (a, b, c) = (a as usize, b as usize, c as usize);
        match op {
            0 => r[a] = r[b].wrapping_add(r[c]),
            1 => r[a] = r[b] ^ r[c].rotate_left(5),
            2 => r[a] = memory[r[b] as usize & mask],
            3 => memory[r[b] as usize & mask] = r[c],
            4 => r[a] = r[b].wrapping_mul(r[c] | 1),
            5 => r[a] = r[b] >> (r[c] & 7),
            6 => {
                if r[b] & 1 == 0 {
                    pc = (pc + (r[c] as usize & 3)) & 15;
                }
            }
            _ => r[a] = r[b].wrapping_sub(r[c]),
        }
        pc = (pc + 1) & 15;
    }
    r.iter().fold(0, |x, y| x ^ y)
}

/// Timed units: (seconds since the host's start at which the unit ended,
/// its CPU seconds).
type Units = Arc<Mutex<Vec<(f64, f64)>>>;

/// Time reference units on `cpu` at [`REF_DUTY`] until `stop` is set.
fn sample(cpu: Option<usize>, start: Instant, stop: Arc<AtomicBool>, units: Units) {
    if let Some(c) = cpu {
        if !pin_to(c) {
            eprintln!("perfbench: could not pin a sampler to CPU {c}");
        }
    }
    let mut memory: Vec<u32> = (0..REF_MEMORY_WORDS as u32)
        .map(|i| i.wrapping_mul(0x9E37_79B9))
        .collect();
    // Warm the code and memory before the first sample.
    std::hint::black_box(reference_unit(&mut memory));
    while !stop.load(Ordering::Relaxed) {
        let t = read_clock(THREAD_CPUTIME);
        std::hint::black_box(reference_unit(&mut memory));
        let d = read_clock(THREAD_CPUTIME) - t;
        let at = start.elapsed().as_secs_f64();
        units
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push((at, d));
        std::thread::sleep(Duration::from_secs_f64(d * (1.0 / REF_DUTY - 1.0)));
    }
}

/// A measured window: its wall-clock span (seconds since the host's
/// start) and the CPU seconds the workload spent in it.
#[derive(Clone, Copy)]
pub struct Window {
    pub from: f64,
    pub to: f64,
    pub cpu_s: f64,
}

impl Window {
    pub fn wall_s(&self) -> f64 {
        self.to - self.from
    }
}

/// An open window; see [`Host::open`].
pub struct Open {
    from: f64,
    cpu: f64,
}

/// Samplers on the workload's vCPUs, and the clock that reads the
/// workload's CPU time apart from theirs.
pub struct Host {
    start: Instant,
    stop: Arc<AtomicBool>,
    units: Units,
    samplers: Vec<JoinHandle<()>>,
    /// CPU-time clocks of the sampler threads.
    clocks: Vec<i32>,
}

impl Host {
    /// Start a sampler on every CPU this thread may run on, up to
    /// [`MAX_SAMPLERS`]: for a workload whose threads spread over them.
    pub fn on_all_cpus() -> Host {
        let cpus = allowed_cpus();
        if cpus.is_empty() {
            return Host::start(vec![None]);
        }
        Host::start(cpus.into_iter().take(MAX_SAMPLERS).map(Some).collect())
    }

    /// Pin the calling thread to the last CPU it may run on and start one
    /// sampler there: for a single-threaded workload, so that its rounds
    /// and the reference units share one vCPU (each vCPU of a shared
    /// host drifts on its own).
    pub fn on_this_thread_cpu() -> Host {
        match allowed_cpus().last() {
            Some(&cpu) if pin_to(cpu) => Host::start(vec![Some(cpu)]),
            _ => {
                eprintln!("perfbench: could not pin to one CPU; sampling unpinned");
                Host::start(vec![None])
            }
        }
    }

    fn start(cpus: Vec<Option<usize>>) -> Host {
        let start = Instant::now();
        let stop = Arc::new(AtomicBool::new(false));
        let units: Units = Arc::default();
        let samplers: Vec<JoinHandle<()>> = cpus
            .into_iter()
            .map(|cpu| {
                let (stop, units) = (stop.clone(), units.clone());
                std::thread::spawn(move || sample(cpu, start, stop, units))
            })
            .collect();
        let clocks = samplers
            .iter()
            .map(|h| {
                let mut id = 0;
                // SAFETY: the thread is alive until `Host` joins it, and
                // `id` is a live, writable clockid_t.
                let rc = unsafe { pthread_getcpuclockid(h.as_pthread_t(), &mut id) };
                assert_eq!(rc, 0, "pthread_getcpuclockid failed");
                id
            })
            .collect();
        Host {
            start,
            stop,
            units,
            samplers,
            clocks,
        }
    }

    fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// CPU seconds of this process so far, less the samplers'.
    fn workload_cpu_s(&self) -> f64 {
        process_cpu_s() - self.clocks.iter().map(|&c| read_clock(c)).sum::<f64>()
    }

    /// Start timing a window.
    pub fn open(&self) -> Open {
        Open {
            from: self.now(),
            cpu: self.workload_cpu_s(),
        }
    }

    /// Stop timing a window.
    pub fn close(&self, open: Open) -> Window {
        Window {
            cpu_s: self.workload_cpu_s() - open.cpu,
            to: self.now(),
            from: open.from,
        }
    }

    /// Each window's CPU seconds scaled to the nominal host speed:
    /// CPU seconds × [`REF_NOMINAL_S`] ÷ the median CPU time of the units
    /// that ended during the window, widened on both sides until it holds
    /// at least [`MIN_UNITS`] of them.
    pub fn scaled(&self, windows: &[Window]) -> Vec<f64> {
        let mut units = self.units.lock().unwrap_or_else(|e| e.into_inner()).clone();
        units.sort_by(|a, b| a.0.total_cmp(&b.0));
        let want = MIN_UNITS.min(units.len()).max(1);
        windows
            .iter()
            .map(|w| {
                let mut lo = units.partition_point(|u| u.0 < w.from);
                let mut hi = units.partition_point(|u| u.0 <= w.to);
                while hi - lo < want {
                    lo = lo.saturating_sub(1);
                    hi = (hi + 1).min(units.len());
                }
                let inside: Vec<f64> = units[lo..hi].iter().map(|u| u.1).collect();
                w.cpu_s * REF_NOMINAL_S / median(&inside)
            })
            .collect()
    }

    /// Print the median window in wall, CPU and scaled CPU time, and the
    /// median reference unit, on standard error.
    pub fn log_rounds(&self, windows: &[Window]) {
        let units: Vec<f64> = self
            .units
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|u| u.1)
            .collect();
        let wall: Vec<f64> = windows.iter().map(Window::wall_s).collect();
        let cpu: Vec<f64> = windows.iter().map(|w| w.cpu_s).collect();
        eprintln!(
            "perfbench: round p50 {:.3} ms wall, {:.3} ms CPU, {:.3} ms scaled; \
             reference unit {:.4} ms CPU over {} samples",
            median(&wall) * 1e3,
            median(&cpu) * 1e3,
            median(&self.scaled(windows)) * 1e3,
            median(&units) * 1e3,
            units.len()
        );
    }
}

impl Drop for Host {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for h in self.samplers.drain(..) {
            let _ = h.join();
        }
    }
}
