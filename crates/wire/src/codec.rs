//! Byte-level primitives: the LEB128 varint writer and the strict,
//! bounds-checked reader every higher layer decodes through.

use crate::error::WireError;

/// The decoder's recursion cap. Plans from the optimizer are at most a
/// few dozen levels deep (≤ 64 relations plus predicate nesting); the
/// cap exists so hostile bytes cannot drive the decoder into stack
/// overflow — an abort, not a catchable error. 128 comfortably fits a
/// default 2 MiB thread stack even in debug builds.
pub const MAX_DEPTH: usize = 128;

/// An append-only output buffer with the wire format's primitive
/// encodings.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    #[must_use]
    pub fn new() -> Writer {
        Writer::default()
    }

    /// The bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Surrender the encoded bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// A single raw byte.
    pub fn put_u8(&mut self, b: u8) {
        self.buf.push(b);
    }

    /// Raw bytes with **no** length prefix (magic values).
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Unsigned LEB128 varint (minimal encoding by construction).
    pub fn put_u64(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Signed integer as a zigzag varint.
    pub fn put_i64(&mut self, v: i64) {
        #[allow(clippy::cast_sign_loss)]
        self.put_u64(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Length-prefixed byte string.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_u64(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
    }

    /// Length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }
}

/// A strict cursor over untrusted input: every read is bounds-checked,
/// varints must be minimal, and recursion depth is metered. All
/// failures are typed [`WireError`]s — the reader never panics.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`, positioned at its start.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader {
            buf,
            pos: 0,
            depth: 0,
        }
    }

    /// Current byte offset.
    #[must_use]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Enter one level of nesting; fails with [`WireError::TooDeep`]
    /// at [`MAX_DEPTH`]. Pair with [`Reader::leave`].
    pub fn enter(&mut self) -> Result<(), WireError> {
        if self.depth >= MAX_DEPTH {
            return Err(WireError::TooDeep { limit: MAX_DEPTH });
        }
        self.depth += 1;
        Ok(())
    }

    /// Leave one level of nesting.
    pub fn leave(&mut self) {
        self.depth = self.depth.saturating_sub(1);
    }

    /// Require that every byte was consumed.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes {
                remaining: self.remaining(),
            })
        }
    }

    /// One raw byte.
    pub fn take_u8(&mut self) -> Result<u8, WireError> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or(WireError::UnexpectedEof { at: self.pos })?;
        self.pos += 1;
        Ok(b)
    }

    /// `n` raw bytes with no length prefix (magic values).
    pub fn take_raw(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEof { at: self.buf.len() });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Unsigned LEB128 varint; rejects encodings longer than 10 bytes,
    /// 64-bit overflow, and non-minimal (overlong) forms.
    pub fn take_u64(&mut self) -> Result<u64, WireError> {
        let start = self.pos;
        let mut v: u64 = 0;
        for i in 0..10 {
            let byte = self.take_u8()?;
            let payload = u64::from(byte & 0x7f);
            // The 10th byte may only carry the last single bit.
            if i == 9 && payload > 1 {
                return Err(WireError::VarintOverflow { at: start });
            }
            v |= payload << (7 * i);
            if byte & 0x80 == 0 {
                if i > 0 && payload == 0 {
                    return Err(WireError::NonCanonicalVarint { at: start });
                }
                return Ok(v);
            }
        }
        Err(WireError::VarintOverflow { at: start })
    }

    /// Signed zigzag varint.
    pub fn take_i64(&mut self) -> Result<i64, WireError> {
        let z = self.take_u64()?;
        #[allow(clippy::cast_possible_wrap)]
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    /// Length-prefixed byte string; the declared length is validated
    /// against the remaining input before anything is sliced, so a
    /// hostile length cannot trigger a huge allocation.
    pub fn take_bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.take_u64()?;
        let len = usize::try_from(len).map_err(|_| WireError::UnexpectedEof { at: self.pos })?;
        if len > self.remaining() {
            return Err(WireError::UnexpectedEof { at: self.buf.len() });
        }
        self.take_raw(len)
    }

    /// Length-prefixed UTF-8 string.
    pub fn take_str(&mut self) -> Result<&'a str, WireError> {
        let at = self.pos;
        let bytes = self.take_bytes()?;
        std::str::from_utf8(bytes).map_err(|_| WireError::BadUtf8 { at })
    }

    /// A collection count about to be decoded, validated against a
    /// minimum per-element byte width so a hostile count cannot force
    /// a huge reservation.
    pub fn take_count(&mut self, min_bytes_per_item: usize) -> Result<usize, WireError> {
        let n = self.take_u64()?;
        let n = usize::try_from(n).map_err(|_| WireError::UnexpectedEof { at: self.pos })?;
        if n.saturating_mul(min_bytes_per_item.max(1)) > self.remaining() {
            return Err(WireError::UnexpectedEof { at: self.buf.len() });
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip_and_minimality() {
        let mut w = Writer::new();
        let samples = [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX];
        for &v in &samples {
            w.put_u64(v);
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        for &v in &samples {
            assert_eq!(r.take_u64().unwrap(), v);
        }
        r.finish().unwrap();
        // Overlong encoding of 1: [0x81, 0x00].
        let mut r = Reader::new(&[0x81, 0x00]);
        assert!(matches!(
            r.take_u64(),
            Err(WireError::NonCanonicalVarint { .. })
        ));
        // Eleven continuation bytes: overflow.
        let mut r = Reader::new(&[0x80u8; 11]);
        assert!(matches!(
            r.take_u64(),
            Err(WireError::VarintOverflow { .. })
        ));
        // A 10th byte carrying more than one bit: overflow.
        let mut bomb = vec![0xffu8; 9];
        bomb.push(0x02);
        let mut r = Reader::new(&bomb);
        assert!(matches!(
            r.take_u64(),
            Err(WireError::VarintOverflow { .. })
        ));
    }

    #[test]
    fn zigzag_roundtrip() {
        let mut w = Writer::new();
        let samples = [0i64, -1, 1, i64::MIN, i64::MAX, -123_456];
        for &v in &samples {
            w.put_i64(v);
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        for &v in &samples {
            assert_eq!(r.take_i64().unwrap(), v);
        }
    }

    #[test]
    fn hostile_lengths_are_rejected_before_allocation() {
        // Claims u64::MAX bytes follow; only 2 actually do.
        let mut w = Writer::new();
        w.put_u64(u64::MAX);
        w.put_raw(&[1, 2]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            r.take_bytes(),
            Err(WireError::UnexpectedEof { .. })
        ));
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            r.take_count(1),
            Err(WireError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn bad_utf8_is_typed() {
        let mut w = Writer::new();
        w.put_bytes(&[0xff, 0xfe]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.take_str(), Err(WireError::BadUtf8 { .. })));
    }

    #[test]
    fn depth_guard_trips() {
        let mut r = Reader::new(&[]);
        for _ in 0..MAX_DEPTH {
            r.enter().unwrap();
        }
        assert!(matches!(r.enter(), Err(WireError::TooDeep { .. })));
        r.leave();
        r.enter().unwrap();
    }

    #[test]
    fn finish_flags_leftovers() {
        let mut r = Reader::new(&[1, 2]);
        let _ = r.take_u8().unwrap();
        assert!(matches!(
            r.finish(),
            Err(WireError::TrailingBytes { remaining: 1 })
        ));
    }
}
