//! Seeded input generation: the program under test only ever sees what
//! these functions return.
//!
//! A *patient* is a rhythm script (sinus rate, VT onset, ramp length, VT
//! rate and duration, recovery rate) plus ECG amplitude and a noise seed,
//! all drawn from the workload seed. The same seed always yields the same
//! population, sample for sample.

use zarf_fleet::{Op, PortFeed};
use zarf_icd::{EcgConfig, EcgGen, IcdSpec, Rhythm};
use zarf_kernel::program::{PORT_CHANNEL_STATUS, PORT_ECG, PORT_TIMER};

/// SplitMix64: small, fast, and fully determined by its seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EED_F00D_CAFE_BABE)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[lo, hi]`.
    pub fn int(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }

    /// An independent stream for item `i` of a population.
    pub fn fork(&mut self, i: u64) -> Rng {
        Rng::new(self.next_u64() ^ i.wrapping_mul(0xA24B_AED4_963E_E407))
    }
}

/// One seeded patient.
#[derive(Debug, Clone)]
pub struct Patient {
    pub script: Vec<Rhythm>,
    pub config: EcgConfig,
    /// Seconds of sinus rhythm before the VT ramp begins.
    pub vt_onset_s: f64,
}

impl Patient {
    /// Draw a patient: sinus 60–95 bpm, VT onset after 10–50 s, a 2–6 s
    /// ramp to 175–220 bpm held for 15–40 s, then recovery at 65–95 bpm.
    pub fn draw(rng: &mut Rng) -> Patient {
        let sinus = rng.uniform(60.0, 95.0);
        let onset = rng.uniform(10.0, 50.0);
        let ramp = rng.uniform(2.0, 6.0);
        let vt = rng.uniform(175.0, 220.0);
        let vt_len = rng.uniform(15.0, 40.0);
        let recovery = rng.uniform(65.0, 95.0);
        let script = vec![
            Rhythm::Steady {
                bpm: sinus,
                seconds: onset,
            },
            Rhythm::Ramp {
                from_bpm: sinus,
                to_bpm: vt,
                seconds: ramp,
            },
            Rhythm::Steady {
                bpm: vt,
                seconds: vt_len,
            },
            Rhythm::Steady {
                bpm: recovery,
                seconds: 1.0e6,
            },
        ];
        let config = EcgConfig {
            amplitude: rng.int(1500, 2500) as i32,
            noise: rng.int(0, 40) as i32,
            seed: rng.next_u64(),
        };
        Patient {
            script,
            config,
            vt_onset_s: onset,
        }
    }

    /// A live sample source for this patient.
    pub fn ecg(&self) -> EcgGen {
        EcgGen::new(self.config.clone(), self.script.clone())
    }
}

/// A population of `n` patients from `seed`.
pub fn population(seed: u64, n: usize) -> Vec<Patient> {
    let mut rng = Rng::new(seed);
    (0..n)
        .map(|i| Patient::draw(&mut rng.fork(i as u64)))
        .collect()
}

/// The ICD reference: the packed output word the specification emits for
/// every sample.
pub fn spec_words(samples: &[i32]) -> Vec<i32> {
    let mut spec = IcdSpec::new();
    samples.iter().map(|&x| spec.step(x).word()).collect()
}

/// The `session_step` op for the `k`-th sample of a session: the timer
/// tick, the ECG sample, and an idle channel.
pub fn step_op(step_item: u32, k: usize, sample: i32) -> Op {
    Op::step(
        step_item,
        vec![],
        vec![
            PortFeed {
                port: PORT_TIMER,
                words: vec![k as i32],
            },
            PortFeed {
                port: PORT_ECG,
                words: vec![sample],
            },
            PortFeed {
                port: PORT_CHANNEL_STATUS,
                words: vec![0],
            },
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_population() {
        let a: Vec<i32> = population(7, 3)[2].ecg().take(500);
        let b: Vec<i32> = population(7, 3)[2].ecg().take(500);
        let c: Vec<i32> = population(8, 3)[2].ecg().take(500);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
