//! Little-endian binary encoding: the one writer and the one
//! bounds-checked reader behind the snapshot codec (`.cxkmodel` models and
//! `.cxkds` datasets) and the shard wire protocol.
//!
//! Integers are little-endian, `f64`s travel as their raw IEEE bits, and
//! a variable-length section is a `u32` count followed by its elements.
//! The reader never panics and never sizes an allocation from a count it
//! has not checked:
//!
//! * [`ByteReader::count`] rejects a declared count unless that many
//!   elements of at least `min_encoded` bytes each fit in the bytes left;
//! * [`ByteReader::vec_for`] reserves room for a counted vector, but never
//!   more memory than the bytes left, whatever the count.

use std::fmt;

/// Appends `v`, little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v`, little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v`'s IEEE bits, little-endian, so it reads back bit-exactly.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// What a [`ByteReader`] found wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByteErrorKind {
    /// Fewer bytes are left than the read needs.
    UnexpectedEnd,
    /// A boolean byte other than 0 or 1.
    BadBool(u8),
    /// A count whose elements cannot fit in the bytes left.
    CountExceedsInput(usize),
}

impl fmt::Display for ByteErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ByteErrorKind::UnexpectedEnd => write!(f, "unexpected end of input"),
            ByteErrorKind::BadBool(byte) => write!(f, "bad boolean byte {byte}"),
            ByteErrorKind::CountExceedsInput(count) => {
                write!(f, "count {count} exceeds the bytes left")
            }
        }
    }
}

/// A rejected read: what was wrong and the byte offset where.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ByteError {
    /// Offset of the read (of the byte after a count) in the input.
    pub offset: usize,
    /// What was wrong.
    pub kind: ByteErrorKind,
}

impl fmt::Display for ByteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.kind, self.offset)
    }
}

impl std::error::Error for ByteError {}

/// A bounds-checked cursor over little-endian input.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Starts reading at the beginning of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Bytes read so far: the offset of the next read.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Bytes not read yet.
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Whether every byte has been read (decoders should end here).
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.bytes.len()
    }

    /// The next `n` bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], ByteError> {
        match self.bytes.get(self.pos..self.pos.saturating_add(n)) {
            Some(slice) => {
                self.pos += n;
                Ok(slice)
            }
            None => Err(ByteError {
                offset: self.pos,
                kind: ByteErrorKind::UnexpectedEnd,
            }),
        }
    }

    /// The next `N` bytes, as an array.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], ByteError> {
        let mut out = [0; N];
        out.copy_from_slice(self.bytes(N)?);
        Ok(out)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, ByteError> {
        self.array::<1>().map(|[b]| b)
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, ByteError> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, ByteError> {
        self.array().map(u64::from_le_bytes)
    }

    /// An `f64` from its little-endian IEEE bits.
    pub fn f64(&mut self) -> Result<f64, ByteError> {
        self.u64().map(f64::from_bits)
    }

    /// A boolean byte: 0 or 1.
    pub fn bool(&mut self) -> Result<bool, ByteError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(ByteError {
                offset: self.pos - 1,
                kind: ByteErrorKind::BadBool(other),
            }),
        }
    }

    /// A `u32` count of elements encoded in at least `min_encoded` bytes
    /// each, rejected unless `count × min_encoded` fits in the bytes left.
    pub fn count(&mut self, min_encoded: usize) -> Result<usize, ByteError> {
        let count = self.u32()? as usize;
        if count.saturating_mul(min_encoded) > self.remaining() {
            return Err(ByteError {
                offset: self.pos,
                kind: ByteErrorKind::CountExceedsInput(count),
            });
        }
        Ok(count)
    }

    /// An empty vector with room for `count` elements, but never for more
    /// memory than the bytes left: a count decides how far a vector grows
    /// only as its elements are actually read.
    pub fn vec_for<T>(&self, count: usize) -> Vec<T> {
        let fits = self.remaining() / std::mem::size_of::<T>().max(1);
        Vec::with_capacity(count.min(fits))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_and_reader_round_trip() {
        let mut out = vec![7, 1];
        put_u32(&mut out, 0xDEAD_BEEF);
        put_u64(&mut out, u64::MAX - 1);
        put_f64(&mut out, -0.0);
        put_f64(&mut out, f64::NAN);
        out.extend_from_slice(b"tail");
        let mut r = ByteReader::new(&out);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.bool(), Ok(true));
        assert_eq!(r.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(r.u64(), Ok(u64::MAX - 1));
        assert_eq!(r.f64().map(f64::to_bits), Ok((-0.0f64).to_bits()));
        assert_eq!(r.f64().map(f64::to_bits), Ok(f64::NAN.to_bits()));
        assert_eq!(r.offset(), 2 + 4 + 8 + 8 + 8);
        assert_eq!(r.bytes(4), Ok(&b"tail"[..]));
        assert!(r.is_exhausted());
    }

    #[test]
    fn wire_reader_bounds() {
        let mut r = ByteReader::new(&[1, 0, 0, 0, 9]);
        assert_eq!(r.u32(), Ok(1));
        assert!(!r.is_exhausted());
        assert_eq!(r.u8(), Ok(9));
        assert!(r.is_exhausted());
        let end = ByteError {
            offset: 5,
            kind: ByteErrorKind::UnexpectedEnd,
        };
        assert_eq!(r.u8(), Err(end));
        assert_eq!(r.u64(), Err(end));
        assert_eq!(r.bytes(1), Err(end));
        assert_eq!(r.bytes(usize::MAX), Err(end));
        // A failed read consumes nothing.
        let mut r = ByteReader::new(&[1, 2, 3]);
        assert_eq!(r.u32().unwrap_err().offset, 0);
        assert_eq!(r.offset(), 0);
        assert_eq!(
            ByteReader::new(&[2]).bool().unwrap_err().to_string(),
            "bad boolean byte 2 at byte 0"
        );
    }

    #[test]
    fn counts_are_checked_against_the_bytes_left() {
        let mut input = Vec::new();
        put_u32(&mut input, 3);
        input.extend_from_slice(&[0; 12]);
        assert_eq!(ByteReader::new(&input).count(4), Ok(3));
        let e = ByteReader::new(&input).count(5).unwrap_err();
        assert_eq!((e.offset, e.kind), (4, ByteErrorKind::CountExceedsInput(3)));

        let mut hostile = Vec::new();
        put_u32(&mut hostile, u32::MAX);
        hostile.extend_from_slice(&[0; 64]);
        let mut r = ByteReader::new(&hostile);
        assert_eq!(
            r.count(1).unwrap_err().kind,
            ByteErrorKind::CountExceedsInput(u32::MAX as usize)
        );
        // Whatever the count, a vector reserves at most the bytes left.
        assert_eq!(r.remaining(), 64);
        assert!(r.vec_for::<u64>(u32::MAX as usize).capacity() <= 8);
        assert!(r.vec_for::<[u8; 0]>(3).capacity() >= 3);
        assert!(r.vec_for::<u32>(5).capacity() >= 5);
    }
}
