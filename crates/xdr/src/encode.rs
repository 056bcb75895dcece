//! XDR stream encoder.

use crate::padded_len;

/// Append-only encoder producing a canonical XDR byte stream.
///
/// Every `put_*` method appends a whole number of 4-byte XDR units, so the
/// buffer length is always a multiple of four.
#[derive(Debug, Default, Clone)]
pub struct XdrEncoder {
    buf: Vec<u8>,
}

impl XdrEncoder {
    /// New empty encoder.
    pub fn new() -> Self {
        XdrEncoder { buf: Vec::new() }
    }

    /// New encoder with `cap` bytes of preallocated capacity (useful when
    /// the caller can estimate the migration-image size, avoiding
    /// reallocation during the Encode-and-Copy phase).
    pub fn with_capacity(cap: usize) -> Self {
        XdrEncoder {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Forget the bytes written so far, keeping the allocation: a scratch
    /// encoder reused across many small encodings.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Consume the encoder, returning the stream.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Borrow the bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// 4-byte big-endian signed integer.
    pub fn put_i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// 4-byte big-endian unsigned integer.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// 8-byte big-endian signed integer (XDR hyper).
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// 8-byte big-endian unsigned integer (XDR unsigned hyper).
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// IEEE-754 single, big-endian.
    pub fn put_f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_bits().to_be_bytes());
    }

    /// IEEE-754 double, big-endian.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_be_bytes());
    }

    /// XDR boolean: an int constrained to 0/1.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u32(v as u32);
    }

    /// Make room for `additional` more bytes without reallocating.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// The allocated room past the bytes written so far, which the next
    /// `put_*` calls fill from its start (a caller faulting in the pages
    /// a long run is about to write).
    pub fn spare_capacity_mut(&mut self) -> &mut [std::mem::MaybeUninit<u8>] {
        self.buf.spare_capacity_mut()
    }

    /// Append `n` zero bytes — `n` a whole number of 4-byte XDR units —
    /// and hand them back for the caller to fill in place (a translation
    /// kernel writing a run of scalars without a length check each).
    pub fn put_zeroed(&mut self, n: usize) -> &mut [u8] {
        debug_assert_eq!(n % 4, 0, "XDR items are whole 4-byte units");
        let at = self.buf.len();
        self.buf.resize(at + n, 0);
        &mut self.buf[at..]
    }

    /// Fixed-length opaque data, zero-padded to a 4-byte boundary.
    /// The length is *not* written; the peer must know it.
    pub fn put_opaque_fixed(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
        self.pad_from(data.len());
    }

    /// Variable-length opaque data: 4-byte length, bytes, padding.
    pub fn put_opaque_var(&mut self, data: &[u8]) {
        self.put_u32(data.len() as u32);
        self.put_opaque_fixed(data);
    }

    /// XDR string: variable-length opaque holding UTF-8.
    pub fn put_string(&mut self, s: &str) {
        self.put_opaque_var(s.as_bytes());
    }

    /// Variable-length array of i32 (length prefix + elements).
    pub fn put_i32_array(&mut self, v: &[i32]) {
        self.put_u32(v.len() as u32);
        for x in v {
            self.put_i32(*x);
        }
    }

    /// Variable-length array of f64 (length prefix + elements).
    pub fn put_f64_array(&mut self, v: &[f64]) {
        self.put_u32(v.len() as u32);
        for x in v {
            self.put_f64(*x);
        }
    }

    fn pad_from(&mut self, raw_len: usize) {
        for _ in raw_len..padded_len(raw_len) {
            self.buf.push(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_put_keeps_alignment() {
        let mut e = XdrEncoder::new();
        e.put_i32(1);
        assert_eq!(e.len() % 4, 0);
        e.put_opaque_var(&[1]);
        assert_eq!(e.len() % 4, 0);
        e.put_opaque_fixed(&[1, 2, 3, 4, 5, 6]);
        assert_eq!(e.len() % 4, 0);
        e.put_string("ab");
        assert_eq!(e.len() % 4, 0);
    }

    #[test]
    fn with_capacity_preallocates() {
        let e = XdrEncoder::with_capacity(1024);
        assert!(e.is_empty());
        assert!(e.buf.capacity() >= 1024);
    }

    #[test]
    fn opaque_fixed_has_no_length_prefix() {
        let mut e = XdrEncoder::new();
        e.put_opaque_fixed(&[0xAA, 0xBB]);
        assert_eq!(e.into_bytes(), vec![0xAA, 0xBB, 0, 0]);
    }
}
