//! Little-endian primitive encoding: the [`Writer`]/[`Reader`] pair every
//! message type is built from.
//!
//! Integers are little-endian; `f64` travels as its IEEE-754 bit pattern
//! (so NaN payloads and signed zeros round-trip exactly); strings and
//! sequences are `u32` length prefixes followed by their elements, with
//! the length checked against a caller-supplied bound *before* anything
//! is allocated.

use crate::WireError;

/// Longest string field the protocol accepts (host names, predictor
/// names, error messages).
pub const MAX_STRING: usize = 1024;

/// An append-only payload builder.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps an existing buffer, appending to whatever it already holds —
    /// the reusable-scratch path: take a caller's buffer, extend it, hand
    /// it back via [`Writer::finish`] without any fresh allocation.
    pub fn with_buf(buf: Vec<u8>) -> Self {
        Self { buf }
    }

    /// The encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Cuts the buffer back to its first `len` bytes — how a server
    /// withdraws a partly encoded reply it has to refuse.
    pub fn truncate(&mut self, len: usize) {
        self.buf.truncate(len);
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (little-endian).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a boolean as a single 0/1 byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        debug_assert!(s.len() <= MAX_STRING, "string exceeds protocol bound");
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends an optional `f64` as a presence byte plus the value.
    pub fn put_opt_f64(&mut self, v: Option<f64>) {
        match v {
            None => self.put_bool(false),
            Some(x) => {
                self.put_bool(true);
                self.put_f64(x);
            }
        }
    }

    /// Appends a length-prefixed opaque byte string (WAL chunks).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_u32(bytes.len() as u32);
        self.buf.extend_from_slice(bytes);
    }
}

/// A bounds-checked payload cursor.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a payload for decoding.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails with [`WireError::TrailingBytes`] unless the payload was
    /// consumed exactly.
    pub fn expect_end(&self) -> Result<(), WireError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(WireError::TrailingBytes(n)),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn take_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn take_f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Reads a 0/1 boolean byte, rejecting anything else.
    pub fn take_bool(&mut self) -> Result<bool, WireError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(WireError::BadBool(b)),
        }
    }

    /// Reads a length-prefixed sequence count, enforcing `max` before any
    /// allocation happens.
    pub fn take_len(&mut self, what: &'static str, max: usize) -> Result<usize, WireError> {
        let len = self.take_u32()? as usize;
        if len > max {
            return Err(WireError::LengthOutOfBounds { what, len, max });
        }
        Ok(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn take_str(&mut self) -> Result<String, WireError> {
        let len = self.take_len("string", MAX_STRING)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)
    }

    /// Reads an optional `f64` written by [`Writer::put_opt_f64`].
    pub fn take_opt_f64(&mut self) -> Result<Option<f64>, WireError> {
        if self.take_bool()? {
            Ok(Some(self.take_f64()?))
        } else {
            Ok(None)
        }
    }

    /// Reads a length-prefixed opaque byte string, enforcing `max`
    /// before any allocation happens.
    pub fn take_bytes(&mut self, what: &'static str, max: usize) -> Result<Vec<u8>, WireError> {
        let len = self.take_len(what, max)?;
        Ok(self.take(len)?.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX);
        w.put_f64(-0.0);
        w.put_f64(f64::NAN);
        w.put_bool(true);
        w.put_str("kongo");
        w.put_opt_f64(None);
        w.put_opt_f64(Some(0.25));
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.take_u8().unwrap(), 7);
        assert_eq!(r.take_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.take_u64().unwrap(), u64::MAX);
        assert_eq!(r.take_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.take_f64().unwrap().is_nan());
        assert!(r.take_bool().unwrap());
        assert_eq!(r.take_str().unwrap(), "kongo");
        assert_eq!(r.take_opt_f64().unwrap(), None);
        assert_eq!(r.take_opt_f64().unwrap(), Some(0.25));
        r.expect_end().unwrap();
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = Writer::new();
        w.put_u64(42);
        let bytes = w.finish();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(matches!(r.take_u64(), Err(WireError::Truncated)));
        }
    }

    #[test]
    fn bad_bool_and_bad_utf8_rejected() {
        let mut r = Reader::new(&[2]);
        assert!(matches!(r.take_bool(), Err(WireError::BadBool(2))));
        let mut w = Writer::new();
        w.put_u32(2);
        let mut bytes = w.finish();
        bytes.extend_from_slice(&[0xFF, 0xFE]);
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.take_str(), Err(WireError::BadUtf8)));
    }

    #[test]
    fn oversized_length_prefix_rejected_before_allocation() {
        let mut w = Writer::new();
        w.put_u32(u32::MAX); // claims a 4 GiB string
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            r.take_str(),
            Err(WireError::LengthOutOfBounds { .. })
        ));
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut w = Writer::new();
        w.put_u8(1);
        w.put_u8(2);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        r.take_u8().unwrap();
        assert!(matches!(r.expect_end(), Err(WireError::TrailingBytes(1))));
    }
}
