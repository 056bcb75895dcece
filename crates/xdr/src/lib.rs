//! # hpm-xdr — External Data Representation codec
//!
//! The second software layer of the paper's stack (§4): "XDR routines are
//! used to translate primitive data values such as char, int, float of a
//! specific architecture into a machine-independent format."
//!
//! This is a self-contained implementation of the XDR wire format
//! (RFC 1832 subset): all quantities are big-endian and every item is
//! padded to a multiple of four bytes. The MSRM library (`hpm-core`)
//! builds its migration-image stream on top of these primitives, exactly
//! as the paper's prototype sat on Sun's XDR library.
//!
//! ```
//! use hpm_xdr::{XdrEncoder, XdrDecoder};
//!
//! let mut enc = XdrEncoder::new();
//! enc.put_i32(-7);
//! enc.put_f64(2.5);
//! enc.put_string("hello");
//! let bytes = enc.into_bytes();
//!
//! let mut dec = XdrDecoder::new(&bytes);
//! assert_eq!(dec.get_i32().unwrap(), -7);
//! assert_eq!(dec.get_f64().unwrap(), 2.5);
//! assert_eq!(dec.get_string().unwrap(), "hello");
//! assert!(dec.is_empty());
//! ```

#![forbid(unsafe_code)]

pub mod chunk;
pub mod compress;
mod decode;
pub mod delta;
mod digest;
mod encode;
mod error;
pub mod journal;

pub use chunk::{
    crc32, frame_chunk, frame_chunk_v3, frame_control, peek_chunk_header, unframe_chunk_any,
    unframe_control, view_chunk, ChunkFrame, ChunkHeader, ChunkView, Control,
    CHUNK_FLAG_COMPRESSED, CHUNK_FLAG_LAST, CHUNK_MAGIC, CONTROL_MAGIC,
};
pub use compress::{
    compress, compress_with_dict, decompress, decompress_with_dict, get_varint_u64, put_varint_u64,
};
pub use decode::XdrDecoder;
pub use delta::{frame_delta, unframe_delta, DeltaHeader, DELTA_FLAG_FULL_FALLBACK, DELTA_MAGIC};
pub use digest::digest64;
pub use encode::XdrEncoder;
pub use error::XdrError;
pub use journal::{
    image_id, image_id_from_digest, records_digest, ChunkRecord, RestoreJournal, RestorePhase,
};

/// Round a byte count up to the XDR 4-byte boundary.
pub fn padded_len(n: usize) -> usize {
    (n + 3) & !3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padded_len_values() {
        assert_eq!(padded_len(0), 0);
        assert_eq!(padded_len(1), 4);
        assert_eq!(padded_len(4), 4);
        assert_eq!(padded_len(5), 8);
        assert_eq!(padded_len(8), 8);
    }

    /// Golden vectors from RFC 1832 §3: the canonical encodings.
    #[test]
    fn rfc1832_golden_int() {
        let mut e = XdrEncoder::new();
        e.put_i32(-2);
        assert_eq!(e.into_bytes(), vec![0xFF, 0xFF, 0xFF, 0xFE]);
    }

    #[test]
    fn rfc1832_golden_hyper() {
        let mut e = XdrEncoder::new();
        e.put_i64(-1);
        assert_eq!(e.into_bytes(), vec![0xFF; 8]);
    }

    #[test]
    fn rfc1832_golden_string() {
        // "sillyprog" from the RFC's example: length 9 + 3 pad bytes.
        let mut e = XdrEncoder::new();
        e.put_string("sillyprog");
        let b = e.into_bytes();
        assert_eq!(b.len(), 16);
        assert_eq!(&b[0..4], &[0, 0, 0, 9]);
        assert_eq!(&b[4..13], b"sillyprog");
        assert_eq!(&b[13..16], &[0, 0, 0]);
    }

    #[test]
    fn float_is_ieee_big_endian() {
        let mut e = XdrEncoder::new();
        e.put_f32(1.0);
        assert_eq!(e.into_bytes(), vec![0x3F, 0x80, 0x00, 0x00]);
    }

    #[test]
    fn double_is_ieee_big_endian() {
        let mut e = XdrEncoder::new();
        e.put_f64(1.0);
        assert_eq!(e.into_bytes(), vec![0x3F, 0xF0, 0, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn full_roundtrip_mixed() {
        let mut e = XdrEncoder::new();
        e.put_bool(true);
        e.put_i32(i32::MIN);
        e.put_u32(u32::MAX);
        e.put_i64(i64::MIN);
        e.put_u64(u64::MAX);
        e.put_f32(-0.0);
        e.put_f64(f64::MIN_POSITIVE);
        e.put_opaque_var(&[1, 2, 3]);
        e.put_opaque_fixed(&[9, 8, 7, 6, 5]);
        e.put_string("μ unicode ok");
        let bytes = e.into_bytes();
        assert_eq!(bytes.len() % 4, 0);

        let mut d = XdrDecoder::new(&bytes);
        assert!(d.get_bool().unwrap());
        assert_eq!(d.get_i32().unwrap(), i32::MIN);
        assert_eq!(d.get_u32().unwrap(), u32::MAX);
        assert_eq!(d.get_i64().unwrap(), i64::MIN);
        assert_eq!(d.get_u64().unwrap(), u64::MAX);
        assert_eq!(d.get_f32().unwrap().to_bits(), (-0.0f32).to_bits());
        assert_eq!(d.get_f64().unwrap(), f64::MIN_POSITIVE);
        assert_eq!(d.get_opaque_var().unwrap(), vec![1, 2, 3]);
        assert_eq!(d.get_opaque_fixed(5).unwrap(), vec![9, 8, 7, 6, 5]);
        assert_eq!(d.get_string().unwrap(), "μ unicode ok");
        assert!(d.is_empty());
    }

    #[test]
    fn nan_payload_preserved() {
        let weird = f64::from_bits(0x7FF8_0000_DEAD_BEEF);
        let mut e = XdrEncoder::new();
        e.put_f64(weird);
        let bytes = e.into_bytes();
        let mut d = XdrDecoder::new(&bytes);
        assert_eq!(d.get_f64().unwrap().to_bits(), weird.to_bits());
    }
}

#[cfg(test)]
mod roundtrip_tests {
    use super::*;

    /// Deterministic splitmix64 — replaces the external RNG for the
    /// seed-driven roundtrip sweeps below.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    #[test]
    fn i32_roundtrip() {
        let mut s = 1u64;
        let mut cases: Vec<i32> = vec![0, 1, -1, i32::MIN, i32::MAX];
        cases.extend((0..200).map(|_| next(&mut s) as i32));
        for v in cases {
            let mut e = XdrEncoder::new();
            e.put_i32(v);
            let b = e.into_bytes();
            assert_eq!(b.len(), 4);
            assert_eq!(XdrDecoder::new(&b).get_i32().unwrap(), v);
        }
    }

    #[test]
    fn u64_roundtrip() {
        let mut s = 2u64;
        let mut cases: Vec<u64> = vec![0, 1, u64::MAX];
        cases.extend((0..200).map(|_| next(&mut s)));
        for v in cases {
            let mut e = XdrEncoder::new();
            e.put_u64(v);
            assert_eq!(XdrDecoder::new(&e.into_bytes()).get_u64().unwrap(), v);
        }
    }

    #[test]
    fn f64_bits_roundtrip() {
        let mut s = 3u64;
        let mut cases: Vec<u64> = vec![
            0,
            f64::NAN.to_bits(),
            f64::INFINITY.to_bits(),
            f64::NEG_INFINITY.to_bits(),
            (-0.0f64).to_bits(),
            0x7FF8_0000_DEAD_BEEF, // NaN with payload
        ];
        cases.extend((0..200).map(|_| next(&mut s)));
        for bits in cases {
            let v = f64::from_bits(bits);
            let mut e = XdrEncoder::new();
            e.put_f64(v);
            let got = XdrDecoder::new(&e.into_bytes()).get_f64().unwrap();
            assert_eq!(got.to_bits(), bits);
        }
    }

    #[test]
    fn opaque_var_roundtrip() {
        let mut s = 4u64;
        for len in 0..200 {
            let data: Vec<u8> = (0..len).map(|_| next(&mut s) as u8).collect();
            let mut e = XdrEncoder::new();
            e.put_opaque_var(&data);
            let b = e.into_bytes();
            assert_eq!(b.len() % 4, 0);
            assert_eq!(XdrDecoder::new(&b).get_opaque_var().unwrap(), data);
        }
    }

    #[test]
    fn string_roundtrip() {
        let cases = [
            "",
            "a",
            "hello world",
            "μ unicode — ok ✓",
            "line\nbreak\tand\0nul",
            "0123456789012345678901234567890123456789",
        ];
        for s in cases {
            let mut e = XdrEncoder::new();
            e.put_string(s);
            assert_eq!(XdrDecoder::new(&e.into_bytes()).get_string().unwrap(), s);
        }
    }

    #[test]
    fn mixed_sequence_roundtrip() {
        let mut s = 5u64;
        for n in 0..30 {
            let items: Vec<(i32, u64, f32)> = (0..n)
                .map(|_| {
                    (
                        next(&mut s) as i32,
                        next(&mut s),
                        f32::from_bits(next(&mut s) as u32),
                    )
                })
                .collect();
            let mut e = XdrEncoder::new();
            for (a, b, c) in &items {
                e.put_i32(*a);
                e.put_u64(*b);
                e.put_f32(*c);
            }
            let bytes = e.into_bytes();
            let mut d = XdrDecoder::new(&bytes);
            for (a, b, c) in &items {
                assert_eq!(d.get_i32().unwrap(), *a);
                assert_eq!(d.get_u64().unwrap(), *b);
                assert_eq!(d.get_f32().unwrap().to_bits(), c.to_bits());
            }
            assert!(d.is_empty());
        }
    }

    #[test]
    fn i32_array_roundtrip() {
        let mut s = 6u64;
        for len in 0..64 {
            let v: Vec<i32> = (0..len).map(|_| next(&mut s) as i32).collect();
            let mut e = XdrEncoder::new();
            e.put_i32_array(&v);
            assert_eq!(XdrDecoder::new(&e.into_bytes()).get_i32_array().unwrap(), v);
        }
    }

    #[test]
    fn f64_array_roundtrip() {
        let mut s = 7u64;
        for len in 0..64 {
            let v: Vec<f64> = (0..len).map(|_| f64::from_bits(next(&mut s))).collect();
            let mut e = XdrEncoder::new();
            e.put_f64_array(&v);
            let got = XdrDecoder::new(&e.into_bytes()).get_f64_array().unwrap();
            assert_eq!(got.len(), v.len());
            for (a, b) in got.iter().zip(&v) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn truncated_input_errors_not_panics() {
        let mut s = 8u64;
        for cut in 0..8 {
            let mut e = XdrEncoder::new();
            e.put_u64(next(&mut s));
            let b = e.into_bytes();
            let mut d = XdrDecoder::new(&b[..cut]);
            assert!(d.get_u64().is_err());
        }
    }
}
