//! CRC-32 (IEEE 802.3 polynomial, reflected): the one checksum behind
//! every byte format in the workspace — `ZSNP` snapshot sections, `ZFLT`
//! and `ZREP` frames, and the snapshot store's segment records, journal
//! and manifest.
//!
//! Table-driven, slicing-by-8: eight 256-entry tables, built at compile
//! time, fold eight input bytes per step. The result is bit-identical to
//! the classic bit-at-a-time loop (the tests keep that loop as the
//! reference), so it detects every single-bit error by construction.
//! Speed matters here: a bitwise CRC over the code section was most of
//! the cost of hibernating a kernel session.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic byte table; `TABLES[k][b]` is the CRC
/// register contribution of byte `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = (c >> 1) ^ (POLY & (c & 1).wrapping_neg());
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// An incremental CRC-32: feeding the bytes in any number of pieces
/// gives the same value as [`crc32`] over their concatenation.
#[derive(Debug, Clone, Copy)]
pub struct Crc32(u32);

impl Crc32 {
    /// A fresh checksum (of the empty input).
    pub const fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    /// Fold `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &TABLES;
        let mut crc = self.0;
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][c[4] as usize]
                ^ t[2][c[5] as usize]
                ^ t[1][c[6] as usize]
                ^ t[0][c[7] as usize];
        }
        for &b in chunks.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        self.0 = crc;
    }

    /// The checksum of everything fed so far.
    pub fn finish(self) -> u32 {
        !self.0
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// CRC-32 of `bytes` in one call.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bit-at-a-time definition, kept only as the reference.
    fn bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (POLY & mask);
            }
        }
        !crc
    }

    /// SplitMix64, so the test needs no dependencies.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn matches_the_reference_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(bitwise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn equals_the_bitwise_reference_at_every_short_length() {
        let data: Vec<u8> = (0..64u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..=64 {
            assert_eq!(crc32(&data[..len]), bitwise(&data[..len]), "length {len}");
        }
    }

    #[test]
    fn equals_the_bitwise_reference_on_random_misaligned_buffers() {
        let mut state = 0x5EED_C0DE_u64;
        for _ in 0..200 {
            let len = (next(&mut state) % 3000) as usize + 9;
            let buf: Vec<u8> = (0..len).map(|_| next(&mut state) as u8).collect();
            // Start anywhere in the first word so the 8-byte strides fall
            // at every alignment, and end anywhere.
            let start = (next(&mut state) % 8) as usize;
            let end = len - (next(&mut state) % 8) as usize;
            let slice = &buf[start..end];
            assert_eq!(crc32(slice), bitwise(slice), "len {len} start {start}");
        }
    }

    #[test]
    fn incremental_pieces_equal_one_call() {
        let data: Vec<u8> = (0..257u32).map(|i| (i * 91) as u8).collect();
        for split in [0, 1, 7, 8, 9, 100, 257] {
            let mut c = Crc32::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finish(), crc32(&data), "split at {split}");
        }
    }
}
