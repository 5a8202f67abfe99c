//! Crash-consistent system checkpoints.
//!
//! A [`SystemCheckpoint`] bundles everything the supervised kernel loop
//! needs to resume trace-equivalently after a rollback: the machine
//! snapshot (heap, roots, stats, accounting class) plus three kernel
//! sections appended to the same container — the loop registers, the
//! heart-device state, and the channel FIFOs.
//!
//! The kernel sections use embedder tags starting at
//! [`zarf_hw::FIRST_EMBEDDER_TAG`], which the machine-layer decoder
//! skips; both layers decode the same byte container independently.
//! Everything is covered by the container's per-section CRC-32.
//!
//! Deliberately *not* captured: the chaos handle and its per-site
//! counters (faults are external-world events and must not re-fire
//! after a rollback), trace sinks, the watchdog's detection and budget
//! history, and the monitor console (the imperative core only runs
//! after the supervised loop completes, so mid-loop its state is the
//! initial one).

use zarf_core::{ByteReader, Int};
use zarf_hw::{read_sections, MachineSnapshot, SectionWriter, SnapshotError, FIRST_EMBEDDER_TAG};

use crate::devices::HeartState;

/// Kernel section: supervised-loop registers.
const TAG_LOOP: u32 = FIRST_EMBEDDER_TAG;
/// Kernel section: [`HeartState`].
const TAG_HEART: u32 = FIRST_EMBEDDER_TAG + 1;
/// Kernel section: channel FIFO contents and overflow count.
const TAG_CHANNEL: u32 = FIRST_EMBEDDER_TAG + 2;

/// A full supervised-system checkpoint; see the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemCheckpoint {
    /// The λ-machine: code image, names, compacted heap, roots, stats.
    pub machine: MachineSnapshot,
    /// Iteration the checkpoint was taken at (resume point).
    pub iteration: u64,
    /// The loop's `prev` register (last channel word).
    pub prev: Int,
    /// The diagnostic coroutine's accumulated cycle debt.
    pub acc: Int,
    /// Whether the diagnostic coroutine was still enabled.
    pub diag_enabled: bool,
    /// Heart-device state (unconsumed ECG, timer, log lengths).
    pub heart: HeartState,
    /// Channel FIFO, λ-side to imperative-side, front first.
    pub chan_a_to_b: Vec<Int>,
    /// Channel FIFO, imperative-side to λ-side, front first.
    pub chan_b_to_a: Vec<Int>,
    /// Channel overflow incidents so far.
    pub chan_overflows: u64,
}

fn get_int_list(r: &mut ByteReader<'_>) -> Result<Vec<Int>, SnapshotError> {
    let n = r.count(4)?;
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push(r.i32()?);
    }
    Ok(v)
}

fn put_int_list(buf: &mut Vec<u8>, xs: &[Int]) {
    buf.extend_from_slice(&(xs.len() as u32).to_le_bytes());
    for &x in xs {
        buf.extend_from_slice(&x.to_le_bytes());
    }
}

impl SystemCheckpoint {
    /// Serialize into one section container: machine sections first,
    /// then the kernel sections.
    pub fn to_bytes(&self) -> Result<Vec<u8>, SnapshotError> {
        let mut w = SectionWriter::new();
        self.machine.write_sections(&mut w)?;

        let mut lp = Vec::new();
        lp.extend_from_slice(&self.iteration.to_le_bytes());
        lp.extend_from_slice(&self.prev.to_le_bytes());
        lp.extend_from_slice(&self.acc.to_le_bytes());
        lp.push(self.diag_enabled as u8);
        w.section(TAG_LOOP, &lp);

        let mut ht = Vec::new();
        ht.extend_from_slice(&self.heart.tick.to_le_bytes());
        match self.heart.boot {
            Some(b) => {
                ht.push(1);
                ht.extend_from_slice(&b.to_le_bytes());
            }
            None => ht.push(0),
        }
        ht.extend_from_slice(&self.heart.last_served.to_le_bytes());
        ht.extend_from_slice(&(self.heart.pace_len as u64).to_le_bytes());
        ht.extend_from_slice(&(self.heart.debug_len as u64).to_le_bytes());
        ht.extend_from_slice(&(self.heart.served_len as u64).to_le_bytes());
        put_int_list(&mut ht, &self.heart.ecg);
        w.section(TAG_HEART, &ht);

        let mut ch = Vec::new();
        ch.extend_from_slice(&self.chan_overflows.to_le_bytes());
        put_int_list(&mut ch, &self.chan_a_to_b);
        put_int_list(&mut ch, &self.chan_b_to_a);
        w.section(TAG_CHANNEL, &ch);

        Ok(w.finish())
    }

    /// Decode a container produced by [`SystemCheckpoint::to_bytes`].
    ///
    /// Container framing and per-section CRCs are verified by the
    /// machine layer's [`read_sections`]; this does *not* audit the
    /// heap — callers decide when to run the (strict) audit.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let sections = read_sections(bytes)?;
        let machine = MachineSnapshot::from_sections(&sections)?;

        let mut lp = None;
        let mut ht = None;
        let mut ch = None;
        for &(tag, payload) in &sections {
            match tag {
                TAG_LOOP => lp = Some(payload),
                TAG_HEART => ht = Some(payload),
                TAG_CHANNEL => ch = Some(payload),
                t if t >= FIRST_EMBEDDER_TAG => return Err(SnapshotError::UnknownSection(t)),
                _ => {}
            }
        }

        let mut r = ByteReader::new(lp.ok_or(SnapshotError::MissingSection(TAG_LOOP))?);
        let iteration = r.u64()?;
        let prev = r.i32()?;
        let acc = r.i32()?;
        let diag_enabled = r.flag("diag flag")?;
        r.finish()?;

        let mut r = ByteReader::new(ht.ok_or(SnapshotError::MissingSection(TAG_HEART))?);
        let tick = r.i32()?;
        let boot = if r.flag("boot flag")? {
            Some(r.i32()?)
        } else {
            None
        };
        let last_served = r.i32()?;
        let pace_len = r.u64()? as usize;
        let debug_len = r.u64()? as usize;
        let served_len = r.u64()? as usize;
        let ecg = get_int_list(&mut r)?;
        r.finish()?;
        let heart = HeartState {
            ecg,
            tick,
            boot,
            last_served,
            pace_len,
            debug_len,
            served_len,
        };

        let mut r = ByteReader::new(ch.ok_or(SnapshotError::MissingSection(TAG_CHANNEL))?);
        let chan_overflows = r.u64()?;
        let chan_a_to_b = get_int_list(&mut r)?;
        let chan_b_to_a = get_int_list(&mut r)?;
        r.finish()?;

        Ok(SystemCheckpoint {
            machine,
            iteration,
            prev,
            acc,
            diag_enabled,
            heart,
            chan_a_to_b,
            chan_b_to_a,
            chan_overflows,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zarf_asm::{lower, parse};
    use zarf_hw::Hw;

    fn checkpoint() -> SystemCheckpoint {
        let src = "fun main =\n let a = add 1 2 in\n result a";
        let hw = Hw::from_machine(&lower(&parse(src).unwrap()).unwrap()).unwrap();
        SystemCheckpoint {
            machine: MachineSnapshot::capture(&hw).unwrap(),
            iteration: 12,
            prev: -3,
            acc: 900,
            diag_enabled: true,
            heart: HeartState {
                ecg: vec![5, -6, 7],
                tick: 41,
                boot: None,
                last_served: -6,
                pace_len: 9,
                debug_len: 2,
                served_len: 10,
            },
            chan_a_to_b: vec![100, 200],
            chan_b_to_a: vec![],
            chan_overflows: 1,
        }
    }

    #[test]
    fn checkpoint_round_trips_through_bytes() {
        let ckpt = checkpoint();
        let bytes = ckpt.to_bytes().unwrap();
        let back = SystemCheckpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back, ckpt);
    }

    #[test]
    fn boot_word_presence_round_trips() {
        let mut ckpt = checkpoint();
        ckpt.heart.boot = Some(77);
        let back = SystemCheckpoint::from_bytes(&ckpt.to_bytes().unwrap()).unwrap();
        assert_eq!(back.heart.boot, Some(77));
    }

    #[test]
    fn missing_kernel_section_is_a_typed_error() {
        // A bare machine snapshot is not a system checkpoint.
        let ckpt = checkpoint();
        let bytes = ckpt.machine.to_bytes().unwrap();
        assert_eq!(
            SystemCheckpoint::from_bytes(&bytes),
            Err(SnapshotError::MissingSection(TAG_LOOP))
        );
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let bytes = checkpoint().to_bytes().unwrap();
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut dam = bytes.clone();
                dam[byte] ^= 1 << bit;
                let verdict = SystemCheckpoint::from_bytes(&dam)
                    .and_then(|c| c.machine.audit_self_contained());
                assert!(
                    verdict.is_err(),
                    "flip byte {byte} bit {bit} went undetected"
                );
            }
        }
    }
}
