//! [`ByteReader`]: the one bounded cursor every binary decoder reads
//! through — the `REXSTATE1` container and its tensor entries
//! ([`checkpoint`](crate::checkpoint)) and the `TrainState` sections
//! built on them.
//!
//! Every read checks the bytes it needs against the bytes that remain,
//! so no declared length or count can drive an allocation beyond a small
//! multiple of the input's own size. Truncation is `UnexpectedEof`; bad structure (an
//! over-long or non-UTF-8 string, trailing bytes) is `InvalidData`.
//! Checkpoint lineage tells a `truncated` generation from a `corrupt`
//! one by that kind.

use std::io;

/// An `InvalidData` error carrying `msg`.
pub fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// A little-endian cursor over a byte slice that never panics and never
/// over-allocates, whatever the bytes claim.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        ByteReader { bytes, pos: 0 }
    }

    /// Bytes read so far.
    pub fn position(&self) -> usize {
        self.pos
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// The next `n` bytes.
    ///
    /// # Errors
    ///
    /// `UnexpectedEof` when fewer than `n` remain.
    pub fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if n > self.remaining() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!(
                    "truncated: {n} bytes needed at offset {}, {} remain",
                    self.pos,
                    self.remaining()
                ),
            ));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn array<const N: usize>(&mut self) -> io::Result<[u8; N]> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    /// One byte.
    ///
    /// # Errors
    ///
    /// `UnexpectedEof` at the end of the input.
    pub fn u8(&mut self) -> io::Result<u8> {
        Ok(self.array::<1>()?[0])
    }

    /// A little-endian `u32`.
    ///
    /// # Errors
    ///
    /// `UnexpectedEof` when fewer than 4 bytes remain.
    pub fn u32(&mut self) -> io::Result<u32> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    ///
    /// # Errors
    ///
    /// `UnexpectedEof` when fewer than 8 bytes remain.
    pub fn u64(&mut self) -> io::Result<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// A little-endian `u64` length or dimension, as a `usize`.
    ///
    /// # Errors
    ///
    /// `UnexpectedEof` when fewer than 8 bytes remain; `InvalidData` when
    /// the value exceeds the address space.
    pub fn len_u64(&mut self) -> io::Result<usize> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| invalid(format!("length {v} exceeds the address space")))
    }

    /// A `u32`-length-prefixed UTF-8 string of at most `max_len` bytes.
    ///
    /// # Errors
    ///
    /// `InvalidData` for a longer or non-UTF-8 string; `UnexpectedEof`
    /// when the input ends first.
    pub fn string(&mut self, max_len: usize) -> io::Result<String> {
        let len = self.u32()? as usize;
        if len > max_len {
            return Err(invalid(format!(
                "string of {len} bytes exceeds the {max_len}-byte cap"
            )));
        }
        String::from_utf8(self.take(len)?.to_vec()).map_err(|_| invalid("string is not UTF-8"))
    }

    /// An empty `Vec` with room for `count` items of at least
    /// `min_item_bytes` encoded bytes each — capped by what the remaining
    /// input could hold, so a corrupt count cannot reserve memory.
    pub fn vec_for<T>(&self, count: usize, min_item_bytes: usize) -> Vec<T> {
        Vec::with_capacity(count.min(self.remaining() / min_item_bytes.max(1)))
    }

    /// Everything not yet read.
    pub fn rest(&mut self) -> &'a [u8] {
        let out = &self.bytes[self.pos..];
        self.pos = self.bytes.len();
        out
    }

    /// Succeeds only when the whole input was read.
    ///
    /// # Errors
    ///
    /// `InvalidData` naming the count of trailing bytes.
    pub fn finish(&self) -> io::Result<()> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(invalid(format!("{n} trailing bytes after the last field"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_little_endian_fields_in_order() {
        let mut bytes = vec![7u8];
        bytes.extend_from_slice(&0x0102_0304u32.to_le_bytes());
        bytes.extend_from_slice(&9u64.to_le_bytes());
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(b"ok");
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0x0102_0304);
        assert_eq!(r.len_u64().unwrap(), 9);
        assert_eq!(r.string(16).unwrap(), "ok");
        assert_eq!(r.position(), bytes.len());
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_eof_and_structure_is_invalid_data() {
        use io::ErrorKind::{InvalidData, UnexpectedEof};
        // a declared length past the end is truncation; past the cap or
        // non-UTF-8 is bad structure
        let mut long = 5u32.to_le_bytes().to_vec();
        long.extend_from_slice(b"abc");
        let mut not_utf8 = 1u32.to_le_bytes().to_vec();
        not_utf8.push(0xff);
        let cases = [
            (ByteReader::new(&[1, 2, 3]).u32().map(drop), UnexpectedEof),
            (
                ByteReader::new(&[]).take(usize::MAX).map(drop),
                UnexpectedEof,
            ),
            (ByteReader::new(&long).string(8).map(drop), UnexpectedEof),
            (ByteReader::new(&long).string(4).map(drop), InvalidData),
            (ByteReader::new(&not_utf8).string(8).map(drop), InvalidData),
            (ByteReader::new(&[0]).finish(), InvalidData),
        ];
        for (i, (result, kind)) in cases.into_iter().enumerate() {
            assert_eq!(result.unwrap_err().kind(), kind, "case {i}");
        }
    }

    #[test]
    fn capacity_is_bounded_by_the_remaining_input() {
        let r = ByteReader::new(&[0u8; 64]);
        assert_eq!(r.vec_for::<u64>(usize::MAX, 8).capacity(), 8);
        assert_eq!(r.vec_for::<u64>(3, 8).capacity(), 3);
        assert_eq!(r.vec_for::<u8>(1 << 40, 0).capacity(), 64);
    }
}
