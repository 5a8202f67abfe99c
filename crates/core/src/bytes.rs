//! Bounded little-endian byte reader: the one decoding cursor behind
//! every byte format in the workspace — `ZSNP` snapshot sections and the
//! kernel's checkpoint sections, `ZFLT` and `ZREP` messages, and the
//! snapshot store's manifest and journal records.
//!
//! Every read is bounds-checked and returns a typed [`ByteError`]; a
//! format maps those onto its own error type through `From`, so a
//! corrupt or hostile buffer is an expected input, never a panic.
//! [`ByteReader::count`] refuses a length prefix that the remaining bytes
//! cannot hold before the caller allocates for it, and
//! [`ByteReader::finish`] insists the buffer was consumed exactly.

/// Why a read failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByteError {
    /// The buffer ended before the field being read, or a count promised
    /// more elements than the remaining bytes can hold.
    Truncated,
    /// [`ByteReader::finish`] found bytes left over.
    Trailing,
    /// A field held a value its format forbids; names the field.
    Invalid(&'static str),
}

/// Cursor over a byte slice; see the module docs.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader positioned at the start of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` bytes, borrowed from the buffer.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], ByteError> {
        let end = self.pos.checked_add(n).ok_or(ByteError::Truncated)?;
        let s = self.buf.get(self.pos..end).ok_or(ByteError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    /// The next `N` bytes, copied out.
    #[inline]
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], ByteError> {
        self.take(N)?.try_into().map_err(|_| ByteError::Truncated)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, ByteError> {
        Ok(self.array::<1>()?[0])
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, ByteError> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `i32`.
    #[inline]
    pub fn i32(&mut self) -> Result<i32, ByteError> {
        self.array().map(i32::from_le_bytes)
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, ByteError> {
        self.array().map(u64::from_le_bytes)
    }

    /// A boolean byte: 0 or 1, anything else is [`ByteError::Invalid`]
    /// naming `what`.
    #[inline]
    pub fn flag(&mut self, what: &'static str) -> Result<bool, ByteError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(ByteError::Invalid(what)),
        }
    }

    /// A `u32` count of elements at least `elem_width` bytes wide each,
    /// refused as [`ByteError::Truncated`] when the remaining bytes cannot
    /// hold that many — so a flipped or hostile length never drives an
    /// allocation.
    #[inline]
    pub fn count(&mut self, elem_width: usize) -> Result<usize, ByteError> {
        let n = self.u32()? as usize;
        match n.checked_mul(elem_width) {
            Some(need) if need <= self.remaining() => Ok(n),
            _ => Err(ByteError::Truncated),
        }
    }

    /// End of decoding: every byte must have been read.
    #[inline]
    pub fn finish(self) -> Result<(), ByteError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ByteError::Trailing)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_little_endian_fields_in_order() {
        let mut buf = vec![7u8];
        buf.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        buf.extend_from_slice(&(-5i32).to_le_bytes());
        buf.extend_from_slice(&0x0102_0304_0506_0708u64.to_le_bytes());
        buf.extend_from_slice(&[1, 0, 9, 9]);
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(r.i32(), Ok(-5));
        assert_eq!(r.u64(), Ok(0x0102_0304_0506_0708));
        assert_eq!(r.flag("a"), Ok(true));
        assert_eq!(r.flag("b"), Ok(false));
        assert_eq!(r.array::<2>(), Ok([9, 9]));
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn every_truncation_of_a_u64_is_truncated() {
        let bytes = u64::MAX.to_le_bytes();
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert_eq!(r.u64(), Err(ByteError::Truncated), "cut at {cut}");
        }
        assert_eq!(ByteReader::new(&bytes).u64(), Ok(u64::MAX));
    }

    #[test]
    fn a_failed_read_consumes_nothing() {
        let mut r = ByteReader::new(&[1, 2, 3]);
        assert_eq!(r.u32(), Err(ByteError::Truncated));
        assert_eq!(r.take(usize::MAX), Err(ByteError::Truncated));
        assert_eq!(r.remaining(), 3);
        assert_eq!(r.take(3), Ok(&[1u8, 2, 3][..]));
    }

    #[test]
    fn hostile_counts_are_refused_before_allocation() {
        // A count of u32::MAX elements against four remaining bytes: the
        // reader must refuse it from the prefix alone.
        let mut buf = u32::MAX.to_le_bytes().to_vec();
        buf.extend_from_slice(&[0; 4]);
        assert_eq!(ByteReader::new(&buf).count(1), Err(ByteError::Truncated));
        // Overflowing `n * width` is refused, not wrapped.
        assert_eq!(
            ByteReader::new(&buf).count(usize::MAX),
            Err(ByteError::Truncated)
        );
        // A count that exactly fits is accepted; one more is not.
        let mut fits = 2u32.to_le_bytes().to_vec();
        fits.extend_from_slice(&[0; 8]);
        assert_eq!(ByteReader::new(&fits).count(4), Ok(2));
        assert_eq!(ByteReader::new(&fits).count(5), Err(ByteError::Truncated));
        // Zero elements need no bytes at all.
        assert_eq!(ByteReader::new(&0u32.to_le_bytes()).count(16), Ok(0));
    }

    #[test]
    fn trailing_bytes_are_refused() {
        let mut r = ByteReader::new(&[1, 2]);
        assert_eq!(r.u8(), Ok(1));
        assert_eq!(r.clone().finish(), Err(ByteError::Trailing));
        assert_eq!(r.u8(), Ok(2));
        assert_eq!(r.finish(), Ok(()));
        assert_eq!(ByteReader::new(&[]).finish(), Ok(()));
    }

    #[test]
    fn flags_other_than_zero_or_one_are_invalid() {
        for b in 2..=255u8 {
            assert_eq!(
                ByteReader::new(&[b]).flag("verified flag"),
                Err(ByteError::Invalid("verified flag"))
            );
        }
    }
}
