//! XDR stream decoder.

use crate::{padded_len, XdrError};

/// Maximum accepted variable-length item, a sanity bound against corrupt
/// streams (1 GiB — far above any migration image in the evaluation).
const MAX_VAR_LEN: u32 = 1 << 30;

/// Sequential decoder over an XDR byte stream.
#[derive(Debug, Clone)]
pub struct XdrDecoder<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> XdrDecoder<'a> {
    /// Decode from the start of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        XdrDecoder { data, pos: 0 }
    }

    /// Current byte offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Whether the whole stream has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], XdrError> {
        if self.remaining() < n {
            return Err(XdrError::UnexpectedEof {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// 4-byte big-endian signed integer.
    pub fn get_i32(&mut self) -> Result<i32, XdrError> {
        Ok(i32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// 4-byte big-endian unsigned integer.
    pub fn get_u32(&mut self) -> Result<u32, XdrError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// 8-byte big-endian signed integer (XDR hyper).
    pub fn get_i64(&mut self) -> Result<i64, XdrError> {
        Ok(i64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// 8-byte big-endian unsigned integer.
    pub fn get_u64(&mut self) -> Result<u64, XdrError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// IEEE-754 single.
    pub fn get_f32(&mut self) -> Result<f32, XdrError> {
        Ok(f32::from_bits(self.get_u32()?))
    }

    /// IEEE-754 double.
    pub fn get_f64(&mut self) -> Result<f64, XdrError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// XDR boolean; rejects values other than 0/1.
    pub fn get_bool(&mut self) -> Result<bool, XdrError> {
        match self.get_u32()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(XdrError::InvalidBool(v)),
        }
    }

    /// Fixed-length opaque data of known length `n` (plus padding).
    pub fn get_opaque_fixed(&mut self, n: usize) -> Result<Vec<u8>, XdrError> {
        self.get_opaque_fixed_ref(n).map(<[u8]>::to_vec)
    }

    /// Borrowing variant of [`XdrDecoder::get_opaque_fixed`]; avoids the
    /// copy when the caller only needs a view (hot path in block restore).
    pub fn get_opaque_fixed_ref(&mut self, n: usize) -> Result<&'a [u8], XdrError> {
        let total = padded_len(n);
        let raw = self.take(total)?;
        if raw[n..].iter().any(|&b| b != 0) {
            return Err(XdrError::NonZeroPadding);
        }
        Ok(&raw[..n])
    }

    /// Variable-length opaque data: reads the length prefix.
    pub fn get_opaque_var(&mut self) -> Result<Vec<u8>, XdrError> {
        self.get_opaque_var_ref().map(<[u8]>::to_vec)
    }

    /// Borrowing variant of [`XdrDecoder::get_opaque_var`]: the section
    /// stays where it arrived (a migration image's exec-state section).
    pub fn get_opaque_var_ref(&mut self) -> Result<&'a [u8], XdrError> {
        let n = self.get_u32()?;
        if n > MAX_VAR_LEN {
            return Err(XdrError::LengthTooLarge(n));
        }
        self.get_opaque_fixed_ref(n as usize)
    }

    /// Take every remaining byte as a raw view, leaving the decoder
    /// empty. Used for tail sections whose length is implied by the
    /// enclosing frame rather than a prefix.
    pub fn take_rest(&mut self) -> &'a [u8] {
        let s = &self.data[self.pos..];
        self.pos = self.data.len();
        s
    }

    /// XDR string (UTF-8 validated).
    pub fn get_string(&mut self) -> Result<String, XdrError> {
        let bytes = self.get_opaque_var()?;
        String::from_utf8(bytes).map_err(|_| XdrError::InvalidUtf8)
    }

    /// Variable-length array of i32.
    pub fn get_i32_array(&mut self) -> Result<Vec<i32>, XdrError> {
        let n = self.get_u32()?;
        if n > MAX_VAR_LEN / 4 {
            return Err(XdrError::LengthTooLarge(n));
        }
        let mut v = Vec::with_capacity(n as usize);
        for _ in 0..n {
            v.push(self.get_i32()?);
        }
        Ok(v)
    }

    /// Variable-length array of f64.
    pub fn get_f64_array(&mut self) -> Result<Vec<f64>, XdrError> {
        let n = self.get_u32()?;
        if n > MAX_VAR_LEN / 8 {
            return Err(XdrError::LengthTooLarge(n));
        }
        let mut v = Vec::with_capacity(n as usize);
        for _ in 0..n {
            v.push(self.get_f64()?);
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::XdrEncoder;

    #[test]
    fn eof_reports_counts() {
        let mut d = XdrDecoder::new(&[0, 0]);
        assert_eq!(
            d.get_i32(),
            Err(XdrError::UnexpectedEof {
                needed: 4,
                remaining: 2
            })
        );
    }

    #[test]
    fn bad_bool_rejected() {
        let mut e = XdrEncoder::new();
        e.put_u32(2);
        let b = e.into_bytes();
        assert_eq!(
            XdrDecoder::new(&b).get_bool(),
            Err(XdrError::InvalidBool(2))
        );
    }

    #[test]
    fn nonzero_padding_rejected() {
        // length=1, byte, then bad padding
        let raw = [0, 0, 0, 1, 0xAB, 1, 0, 0];
        let mut d = XdrDecoder::new(&raw);
        assert_eq!(d.get_opaque_var(), Err(XdrError::NonZeroPadding));
    }

    #[test]
    fn insane_length_rejected() {
        let mut e = XdrEncoder::new();
        e.put_u32(u32::MAX);
        let b = e.into_bytes();
        assert!(matches!(
            XdrDecoder::new(&b).get_opaque_var(),
            Err(XdrError::LengthTooLarge(_))
        ));
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut e = XdrEncoder::new();
        e.put_opaque_var(&[0xFF, 0xFE]);
        let b = e.into_bytes();
        assert_eq!(XdrDecoder::new(&b).get_string(), Err(XdrError::InvalidUtf8));
    }

    #[test]
    fn position_tracks_consumption() {
        let mut e = XdrEncoder::new();
        e.put_i32(1);
        e.put_i64(2);
        let b = e.into_bytes();
        let mut d = XdrDecoder::new(&b);
        assert_eq!(d.position(), 0);
        d.get_i32().unwrap();
        assert_eq!(d.position(), 4);
        d.get_i64().unwrap();
        assert_eq!(d.position(), 12);
        assert!(d.is_empty());
    }

    #[test]
    fn opaque_ref_view_matches_copy() {
        let mut e = XdrEncoder::new();
        e.put_opaque_fixed(&[1, 2, 3, 4, 5]);
        let b = e.into_bytes();
        let mut d1 = XdrDecoder::new(&b);
        let mut d2 = XdrDecoder::new(&b);
        assert_eq!(
            d1.get_opaque_fixed(5).unwrap(),
            d2.get_opaque_fixed_ref(5).unwrap()
        );
    }
}
