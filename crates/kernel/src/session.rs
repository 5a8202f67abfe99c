//! The microkernel as a fleet-embeddable session program.
//!
//! The kernel's deployed form ([`crate::program::kernel_source`]) is a
//! self-driving loop: `kernel_run` pulls its iteration count off the boot
//! port and tail-recurses until done. A fleet session needs the opposite
//! shape — an *externally stepped* machine that performs exactly one
//! scheduler iteration per request and parks its state between requests so
//! it can be evicted to a `ZSNP` snapshot at any quiescent point.
//!
//! This module wraps the unchanged kernel coroutines (`io_step`,
//! `icd_step`, `chan_step`, `diag_step`) in a session-shaped shell:
//!
//! * `KSess st acc prev` — one constructor holding the loop-carried
//!   registers (ICD state, diagnostic accumulator, previous output word);
//! * `session_boot _` — builds the initial `KSess` (the dummy argument
//!   exists because the fleet's step protocol always applies the current
//!   session state);
//! * `session_step s` — one full scheduler iteration: I/O, ICD, channel,
//!   diagnostics, returning the next `KSess`.
//!
//! The kernel's once-per-iteration `gc` call is deliberately absent: the
//! fleet performs a boundary collection after every op, which serves the
//! same real-time role and — more importantly — normalizes heap layout so
//! an evicted-and-rehydrated session stays byte-identical to one that
//! never left memory.

use zarf_core::machine::MProgram;
use zarf_core::Word;

use crate::program::kernel_source;

/// The session shell appended to the kernel source.
fn session_shell() -> &'static str {
    r#"
; --- fleet session shell -----------------------------------------------------

; Loop-carried registers: ICD state, diagnostic accumulator, previous output.
con KSess st acc prev

; Build the initial session state. The argument is a protocol dummy: the
; fleet's step protocol always applies the current state, and at open time
; that is the integer 0.
fun session_boot z =
  let st = init_state in
  let s = KSess st 0 0 in
  result s

; One scheduler iteration: timer wait + pacing + ECG read (io_step), the
; verified ICD step, channel forwarding, untrusted diagnostics. No gc call
; here — the fleet collects at the op boundary.
fun session_step s =
  case s of
  | KSess st acc prev =>
    let x = io_step prev in
    let pr = icd_step st x in
    case pr of
    | Pair st' out =>
      let c = chan_step out in
      case c of else
      let acc' = diag_step acc in
      case acc' of else
      let s' = KSess st' acc' out in
      result s'
    else result -1
  else result -1
"#
}

/// The kernel-session program source: ICD + coroutines + session shell
/// (no `main` is required by the fleet, but the kernel's is retained).
pub fn session_source() -> String {
    let mut src = kernel_source();
    src.push_str(session_shell());
    src
}

/// The session program in machine form.
///
/// # Panics
///
/// Panics if generation produced invalid assembly (covered by tests).
pub fn session_machine() -> MProgram {
    let p = zarf_asm::parse(&session_source()).expect("generated session assembly is valid");
    zarf_asm::lower(&p).expect("generated session assembly lowers")
}

/// An encoded kernel-session program plus the item identifiers a fleet
/// client needs to drive it. Raw binaries carry no symbols, so the ids are
/// resolved here, against the machine program, before encoding.
#[derive(Debug, Clone)]
pub struct KernelSessionImage {
    /// The encoded program, ready for `LoadProgram`.
    pub words: Vec<Word>,
    /// Item id of `session_boot` (step it once to initialise the state).
    pub boot: u32,
    /// Item id of `session_step` (one scheduler iteration per step).
    pub step: u32,
}

/// Encode the kernel-session program and resolve its entry points.
///
/// # Panics
///
/// Panics if generation produced invalid assembly (covered by tests).
pub fn session_image() -> KernelSessionImage {
    let m = session_machine();
    let id_by_name = |name: &str| -> u32 {
        m.items()
            .iter()
            .position(|it| it.name.as_deref() == Some(name))
            .map(|i| m.id_of(i))
            .expect("session shell defines its entry points")
    };
    let boot = id_by_name("session_boot");
    let step = id_by_name("session_step");
    let words = zarf_asm::encode(&m).expect("generated session assembly encodes");
    KernelSessionImage { words, boot, step }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{PORT_CHANNEL, PORT_CHANNEL_STATUS, PORT_ECG, PORT_PACE, PORT_TIMER};
    use zarf_core::io::VecPorts;
    use zarf_hw::{Hw, HwConfig};

    #[test]
    fn session_program_parses_and_resolves_entry_points() {
        let img = session_image();
        assert_ne!(img.boot, img.step);
        assert!(
            img.words.len() < 8 * 1024,
            "binary is {} words",
            img.words.len()
        );
    }

    #[test]
    fn stepped_session_matches_kernel_run() {
        // Drive the session shell for `n` iterations by explicit stepping
        // and compare the pacing-port output stream against the kernel's
        // own self-driving `kernel_run` loop.
        let n = 16i32;
        let ecg: Vec<i32> = (0..n).map(|i| ((i * 37) % 200) - 100).collect();

        // Reference: kernel_run over the same samples.
        let mut ports = VecPorts::new();
        ports.push_input(crate::program::PORT_BOOT, [n]);
        ports.push_input(PORT_TIMER, 0..n);
        ports.push_input(PORT_ECG, ecg.iter().copied());
        ports.push_input(PORT_CHANNEL_STATUS, (0..n).map(|_| 0));
        let mut hw = Hw::from_machine(&crate::program::kernel_machine()).unwrap();
        hw.run(&mut ports).unwrap();
        let reference: Vec<i32> = ports.output(PORT_PACE).to_vec();
        let reference_chan: Vec<i32> = ports.output(PORT_CHANNEL).to_vec();

        // Session shell, stepped externally.
        let img = session_image();
        let mut hw = Hw::load_with(&img.words, HwConfig::default()).unwrap();
        let mut ports = VecPorts::new();
        let state = {
            let v = hw
                .call(img.boot, vec![zarf_hw::HValue::Int(0)], &mut ports)
                .unwrap();
            hw.push_root(v);
            0
        };
        for (i, &sample) in ecg.iter().enumerate() {
            ports.push_input(PORT_TIMER, [i as i32]);
            ports.push_input(PORT_ECG, [sample]);
            ports.push_input(PORT_CHANNEL_STATUS, [0]);
            let s = hw.root(state);
            let v = hw.call(img.step, vec![s], &mut ports).unwrap();
            hw.set_root(state, v);
            hw.collect_garbage().unwrap();
        }
        assert_eq!(ports.output(PORT_PACE), &reference[..]);
        assert_eq!(ports.output(PORT_CHANNEL), &reference_chan[..]);
    }

    /// FNV-1a (64-bit): a hash independent of the CRC-32 inside the
    /// snapshot format, so the pin below does not lean on what it checks.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01B3)
        })
    }

    /// Boot a session, then run `steps` scheduler iterations, each
    /// followed by the fleet's boundary GC and a hibernate → rehydrate
    /// round trip; return the final `ZSNP` bytes.
    fn stepped_snapshot(mut hw: Hw, img: &KernelSessionImage, steps: i32) -> Vec<u8> {
        let mut ports = VecPorts::new();
        let v = hw
            .call(img.boot, vec![zarf_hw::HValue::Int(0)], &mut ports)
            .unwrap();
        let state = hw.push_root(v);
        for i in 0..steps {
            ports.push_input(PORT_TIMER, [i]);
            ports.push_input(PORT_ECG, [((i * 53) % 240) - 120]);
            ports.push_input(PORT_CHANNEL_STATUS, [0]);
            let s = hw.root(state);
            let v = hw.call(img.step, vec![s], &mut ports).unwrap();
            hw.set_root(state, v);
            hw.collect_garbage().unwrap();
            let bytes = hw.hibernate().unwrap();
            hw = Hw::rehydrate(&bytes, HwConfig::default()).unwrap();
        }
        hw.hibernate().unwrap()
    }

    #[test]
    fn snapshot_bytes_are_pinned() {
        // Recorded with the bit-at-a-time CRC codec: the snapshot path
        // may get faster but must reproduce these bytes exactly, with
        // symbols (the names section filled) or without.
        let img = session_image();
        let plain = stepped_snapshot(
            Hw::load_with(&img.words, HwConfig::default()).unwrap(),
            &img,
            24,
        );
        let named = stepped_snapshot(Hw::from_machine(&session_machine()).unwrap(), &img, 24);
        assert_eq!((plain.len(), fnv1a(&plain)), (5341, 0xDD26_D6B6_2035_0123));
        assert_eq!((named.len(), fnv1a(&named)), (5871, 0xC350_A561_29DD_EDAA));
    }
}
