//! Content addressing for the chunk store: a 128-bit keyed hash built
//! from two independent SipHash-2-4 lanes. Per-record damage detection
//! uses [`zarf_core::crc32`], the same CRC-32 the ZSNP container uses.
//!
//! The two checks serve different purposes and both run on every read:
//!
//! * **CRC-32** guards the *record* — it catches bit rot and torn bytes
//!   in the exact bytes that went to disk, cheaply.
//! * **The 128-bit content hash** *is the chunk's identity* — dedup
//!   trusts it completely (two chunks with equal hashes are stored
//!   once), so it must make accidental collisions negligible. Two
//!   independent 64-bit SipHash lanes under fixed distinct keys give
//!   128 bits of state; for non-adversarial corruption that is far
//!   beyond what any fleet will ever write.
//!
//! Nothing here is cryptographic and nothing claims test-vector
//! compatibility with reference SipHash; the only contracts are
//! determinism across platforms (all arithmetic is explicit
//! little-endian and wrapping) and uniform dispersion.

/// A 128-bit content address: the identity of a chunk in the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChunkId(pub [u8; 16]);

impl ChunkId {
    /// Render as 32 lowercase hex digits (the form `fsck` prints).
    pub fn to_hex(self) -> String {
        let mut s = String::with_capacity(32);
        for b in self.0 {
            let hi = b >> 4;
            let lo = b & 0xf;
            for n in [hi, lo] {
                s.push(char::from_digit(n as u32, 16).unwrap_or('?'));
            }
        }
        s
    }

    /// Parse the output of [`ChunkId::to_hex`]; `None` on malformed input.
    pub fn from_hex(s: &str) -> Option<ChunkId> {
        let s = s.as_bytes();
        if s.len() != 32 {
            return None;
        }
        let mut out = [0u8; 16];
        for (i, pair) in s.chunks_exact(2).enumerate() {
            let hi = (pair[0] as char).to_digit(16)?;
            let lo = (pair[1] as char).to_digit(16)?;
            out[i] = ((hi << 4) | lo) as u8;
        }
        Some(ChunkId(out))
    }
}

impl std::fmt::Display for ChunkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// Hash `bytes` to its 128-bit content address.
pub fn content_hash(bytes: &[u8]) -> ChunkId {
    let a = siphash24(0x5a61_7266_5374_6f72, 0x6543_6875_6e6b_4861, bytes);
    let b = siphash24(0x7368_5f6c_616e_655f, 0x3262_6974_7321_9e37, bytes);
    let mut out = [0u8; 16];
    out[..8].copy_from_slice(&a.to_le_bytes());
    out[8..].copy_from_slice(&b.to_le_bytes());
    ChunkId(out)
}

/// One SipHash-2-4 lane under a fixed 128-bit key.
fn siphash24(k0: u64, k1: u64, bytes: &[u8]) -> u64 {
    let mut v0 = k0 ^ 0x736f_6d65_7073_6575;
    let mut v1 = k1 ^ 0x646f_7261_6e64_6f6d;
    let mut v2 = k0 ^ 0x6c79_6765_6e65_7261;
    let mut v3 = k1 ^ 0x7465_6462_7974_6573;

    let round = |v0: &mut u64, v1: &mut u64, v2: &mut u64, v3: &mut u64| {
        *v0 = v0.wrapping_add(*v1);
        *v1 = v1.rotate_left(13) ^ *v0;
        *v0 = v0.rotate_left(32);
        *v2 = v2.wrapping_add(*v3);
        *v3 = v3.rotate_left(16) ^ *v2;
        *v0 = v0.wrapping_add(*v3);
        *v3 = v3.rotate_left(21) ^ *v0;
        *v2 = v2.wrapping_add(*v1);
        *v1 = v1.rotate_left(17) ^ *v2;
        *v2 = v2.rotate_left(32);
    };

    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let mut m = [0u8; 8];
        m.copy_from_slice(chunk);
        let m = u64::from_le_bytes(m);
        v3 ^= m;
        round(&mut v0, &mut v1, &mut v2, &mut v3);
        round(&mut v0, &mut v1, &mut v2, &mut v3);
        v0 ^= m;
    }
    let rest = chunks.remainder();
    let mut last = (bytes.len() as u64 & 0xff) << 56;
    for (i, &b) in rest.iter().enumerate() {
        last |= (b as u64) << (8 * i);
    }
    v3 ^= last;
    round(&mut v0, &mut v1, &mut v2, &mut v3);
    round(&mut v0, &mut v1, &mut v2, &mut v3);
    v0 ^= last;
    v2 ^= 0xff;
    for _ in 0..4 {
        round(&mut v0, &mut v1, &mut v2, &mut v3);
    }
    v0 ^ v1 ^ v2 ^ v3
}

/// SplitMix64 step — used only to derive the Gear table deterministically.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_hash_is_deterministic_and_length_sensitive() {
        let a = content_hash(b"hello");
        assert_eq!(a, content_hash(b"hello"));
        assert_ne!(a, content_hash(b"hello "));
        assert_ne!(a, content_hash(b"hellp"));
        assert_ne!(content_hash(b""), content_hash(&[0]));
        assert_ne!(content_hash(&[0]), content_hash(&[0, 0]));
    }

    #[test]
    fn content_hash_lanes_are_independent() {
        // If both halves ever agreed for distinct inputs the two lanes
        // would be keyed identically — a construction bug.
        let h = content_hash(b"lane check");
        assert_ne!(h.0[..8], h.0[8..]);
    }

    #[test]
    fn single_bit_flips_change_the_hash() {
        let base = vec![0xA5u8; 256];
        let h0 = content_hash(&base);
        for byte in (0..base.len()).step_by(17) {
            for bit in 0..8 {
                let mut m = base.clone();
                m[byte] ^= 1 << bit;
                assert_ne!(h0, content_hash(&m), "flip at {byte}.{bit}");
            }
        }
    }

    #[test]
    fn hex_round_trips() {
        let h = content_hash(b"round trip");
        let s = h.to_hex();
        assert_eq!(s.len(), 32);
        assert_eq!(ChunkId::from_hex(&s), Some(h));
        assert_eq!(ChunkId::from_hex("xyz"), None);
        assert_eq!(ChunkId::from_hex(&s[..30]), None);
    }
}
