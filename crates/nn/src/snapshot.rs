//! Byte-exact state serialization for checkpoint/resume.
//!
//! Long analog-training runs checkpoint mid-flight and must resume
//! **bit-identically**: the checkpoint has to carry every piece of
//! mutable state — conductances, RNG streams, counters, the virtual
//! clock — as exact bit patterns, because a single rounded float would
//! fork the stochastic pulse streams and diverge the rest of the run.
//!
//! This module is the (std-only) wire format those checkpoints share:
//! a flat little-endian byte stream written by [`StateWriter`] and
//! consumed by [`StateReader`]. Floats travel as raw bit patterns
//! (`to_bits`/`from_bits`), so a round trip can never perturb a value.
//! There is no schema in the stream beyond what callers write; each
//! saveable type writes a short tag (see [`StateWriter::tag`]) so a
//! mismatched restore fails with a typed [`SnapshotError`] instead of
//! reading garbage.
//!
//! # Example
//!
//! ```
//! use enw_nn::snapshot::{StateReader, StateWriter};
//!
//! let mut w = StateWriter::new();
//! w.tag(b"DEMO");
//! w.u64(42);
//! w.f32_slice(&[1.5, -0.25]);
//! let bytes = w.into_bytes();
//!
//! let mut r = StateReader::new(&bytes);
//! r.expect_tag(b"DEMO").unwrap();
//! assert_eq!(r.u64().unwrap(), 42);
//! let mut buf = [0.0f32; 2];
//! r.f32_slice(&mut buf).unwrap();
//! assert_eq!(buf, [1.5, -0.25]);
//! assert!(r.finish().is_ok());
//! ```

use std::fmt;

/// Why a checkpoint restore failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The stream ended before the requested value.
    Truncated {
        /// Bytes the read needed.
        needed: usize,
        /// Bytes left in the stream.
        remaining: usize,
    },
    /// A section tag did not match the expected type.
    TagMismatch {
        /// Tag the caller expected.
        expected: [u8; 4],
        /// Tag found in the stream.
        found: [u8; 4],
    },
    /// A recorded dimension disagrees with the restoring object.
    ShapeMismatch {
        /// What dimension disagreed.
        what: &'static str,
        /// Value recorded in the checkpoint.
        recorded: u64,
        /// Value the restoring object expects.
        expected: u64,
    },
    /// A recorded value is not valid for the restoring object: an index
    /// out of range, or an index repeated where a permutation is expected.
    InvalidValue {
        /// What value was invalid.
        what: &'static str,
        /// Value recorded in the checkpoint.
        recorded: u64,
    },
    /// Bytes were left over after a restore consumed its state.
    TrailingBytes {
        /// Number of unconsumed bytes.
        remaining: usize,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated { needed, remaining } => {
                write!(f, "checkpoint truncated: needed {needed} bytes, {remaining} remain")
            }
            SnapshotError::TagMismatch { expected, found } => write!(
                f,
                "checkpoint section tag mismatch: expected {:?}, found {:?}",
                String::from_utf8_lossy(expected),
                String::from_utf8_lossy(found)
            ),
            SnapshotError::ShapeMismatch { what, recorded, expected } => {
                write!(f, "checkpoint {what} mismatch: recorded {recorded}, expected {expected}")
            }
            SnapshotError::InvalidValue { what, recorded } => {
                write!(f, "checkpoint has an invalid {what}: recorded {recorded}")
            }
            SnapshotError::TrailingBytes { remaining } => {
                write!(f, "checkpoint has {remaining} trailing bytes")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Appends checkpoint state to a growable byte buffer (little-endian,
/// floats as raw bits).
#[derive(Debug, Default)]
pub struct StateWriter {
    buf: Vec<u8>,
}

impl StateWriter {
    /// An empty writer.
    pub fn new() -> StateWriter {
        StateWriter::default()
    }

    /// Consumes the writer, returning the serialized bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes a 4-byte section tag (e.g. `b"TILE"`).
    pub fn tag(&mut self, tag: &[u8; 4]) {
        self.buf.extend_from_slice(tag);
    }

    /// Writes a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a single byte (0 or 1) for a flag.
    pub fn flag(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Writes an `f32` as its raw bit pattern.
    pub fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }

    /// Writes a length-prefixed `f32` slice, each element as raw bits.
    pub fn f32_slice(&mut self, vs: &[f32]) {
        self.u64(vs.len() as u64);
        for v in vs {
            self.f32(*v);
        }
    }
}

/// Reads checkpoint state back out of a byte slice, validating length
/// and section tags as it goes.
#[derive(Debug)]
pub struct StateReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> StateReader<'a> {
    /// A reader positioned at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> StateReader<'a> {
        StateReader { buf: bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated { needed: n, remaining: self.remaining() });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], SnapshotError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// Reads a 4-byte section tag and checks it.
    pub fn expect_tag(&mut self, expected: &[u8; 4]) -> Result<(), SnapshotError> {
        let found = self.take_array::<4>()?;
        if &found != expected {
            return Err(SnapshotError::TagMismatch { expected: *expected, found });
        }
        Ok(())
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    /// Reads a flag byte (any non-zero byte is `true`).
    pub fn flag(&mut self) -> Result<bool, SnapshotError> {
        let [b] = self.take_array::<1>()?;
        Ok(b != 0)
    }

    /// Reads an `f32` from its raw bit pattern.
    pub fn f32(&mut self) -> Result<f32, SnapshotError> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// Reads a length-prefixed `f32` slice into `out`, whose length must
    /// match the recorded length exactly.
    pub fn f32_slice(&mut self, out: &mut [f32]) -> Result<(), SnapshotError> {
        let n = self.u64()?;
        if n != out.len() as u64 {
            return Err(SnapshotError::ShapeMismatch {
                what: "f32 slice length",
                recorded: n,
                expected: out.len() as u64,
            });
        }
        for v in out.iter_mut() {
            *v = self.f32()?;
        }
        Ok(())
    }

    /// Checks that the whole stream was consumed.
    pub fn finish(&self) -> Result<(), SnapshotError> {
        if self.remaining() != 0 {
            return Err(SnapshotError::TrailingBytes { remaining: self.remaining() });
        }
        Ok(())
    }
}

/// Checks a recorded dimension against the restoring object's.
pub fn check_dim(what: &'static str, recorded: u64, expected: u64) -> Result<(), SnapshotError> {
    if recorded != expected {
        return Err(SnapshotError::ShapeMismatch { what, recorded, expected });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_preserves_bits() {
        let values = [0.0f32, -0.0, 1.5, f32::MIN_POSITIVE, f32::NAN, f32::INFINITY];
        let mut w = StateWriter::new();
        w.tag(b"TEST");
        w.u64(u64::MAX);
        w.u32(7);
        w.flag(true);
        w.flag(false);
        w.f32_slice(&values);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        r.expect_tag(b"TEST").unwrap();
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.u32().unwrap(), 7);
        assert!(r.flag().unwrap());
        assert!(!r.flag().unwrap());
        let mut out = [0.0f32; 6];
        r.f32_slice(&mut out).unwrap();
        for (a, b) in values.iter().zip(&out) {
            assert_eq!(a.to_bits(), b.to_bits(), "bit pattern must survive the round trip");
        }
        r.finish().unwrap();
    }

    #[test]
    fn truncated_stream_is_detected() {
        let mut w = StateWriter::new();
        w.u64(9);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes[..5]);
        assert!(matches!(r.u64(), Err(SnapshotError::Truncated { .. })));
    }

    #[test]
    fn tag_mismatch_is_detected() {
        let mut w = StateWriter::new();
        w.tag(b"AAAA");
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        let err = r.expect_tag(b"BBBB").unwrap_err();
        assert!(matches!(err, SnapshotError::TagMismatch { .. }), "{err}");
    }

    #[test]
    fn slice_length_mismatch_is_detected() {
        let mut w = StateWriter::new();
        w.f32_slice(&[1.0, 2.0]);
        let bytes = w.into_bytes();
        let mut out = [0.0f32; 3];
        let mut r = StateReader::new(&bytes);
        assert!(matches!(r.f32_slice(&mut out), Err(SnapshotError::ShapeMismatch { .. })));
    }

    #[test]
    fn trailing_bytes_are_detected() {
        let mut w = StateWriter::new();
        w.u32(1);
        w.u32(2);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        r.u32().unwrap();
        assert_eq!(r.finish(), Err(SnapshotError::TrailingBytes { remaining: 4 }));
    }
}
