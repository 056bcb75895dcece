//! Delta-image wire format.
//!
//! A delta image carries the difference between two migration images of
//! the same process: the retained *base* (shipped earlier, e.g. by a
//! previous pre-copy round) and the *current* state. The frame is a
//! fixed header followed by a dictionary-LZ token stream (see
//! [`crate::compress::compress_with_dict`]) whose dictionary is the base
//! image's bytes, so the receiver reconstructs the current image
//! byte-exactly and feeds it through the normal restore path.
//!
//! ## Frame layout
//!
//! ```text
//! u32  DELTA_MAGIC ("HPMG")
//! u32  flags (bit 0: FULL_FALLBACK — ops carry a complete image)
//! u32  round
//! u64  base_image_id        id of the base the ops diff against
//! u64  base_digest          manifest digest the receiver's base must match
//! u64  manifest_digest      manifest digest of the state this frame carries
//! u64  raw_len              byte length of the reconstructed image
//! u64  payload_digest       content digest of the reconstructed image
//! u32  dirty / fresh / tombstone block counts (diagnostic)
//! opaque<> ops              dict-LZ tokens (or the raw image when
//!                           FULL_FALLBACK is set)
//! u32  CRC-32 over everything above
//! ```
//!
//! The trailing CRC makes refusal *loud*: a corrupted frame errors at
//! unframing instead of surfacing later as a digest mismatch deep in the
//! restore path. Base-identity checks (image id, manifest digest) are
//! the receiver's job — see `hpm_core::delta::apply_delta`.

use crate::chunk::crc32;
use crate::{XdrDecoder, XdrEncoder, XdrError};

/// Magic number opening every delta frame: `"HPMG"`.
pub const DELTA_MAGIC: u32 = 0x4850_4D47;

/// Flag bit: the ops field carries a complete migration image (no base
/// required) — the sender fell back, or this is the initial full round.
pub const DELTA_FLAG_FULL_FALLBACK: u32 = 0x0000_0001;

/// Header of a delta frame. On a `full_fallback` frame the base fields
/// describe the state being *installed* (the receiver retains them for
/// the next round); on a delta frame they name the base the receiver
/// must already hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaHeader {
    /// Image id of the required base (`full_fallback`: of the carried
    /// image itself).
    pub base_image_id: u64,
    /// Manifest digest the receiver's retained base must match
    /// (`full_fallback`: digest of the carried state's manifest).
    pub base_digest: u64,
    /// Manifest digest of the state this frame carries; the receiver
    /// retains it alongside the reconstructed image.
    pub manifest_digest: u64,
    /// The ops field is a complete image, not a diff.
    pub full_fallback: bool,
    /// Pre-copy round number (0 = initial full image).
    pub round: u32,
    /// Length in bytes of the reconstructed image.
    pub raw_len: u64,
    /// Content digest of the reconstructed image bytes.
    pub payload_digest: u64,
    /// Blocks whose digest changed since the base (diagnostic).
    pub dirty_blocks: u32,
    /// Blocks new since the base (diagnostic).
    pub fresh_blocks: u32,
    /// Blocks freed since the base (diagnostic).
    pub tombstones: u32,
}

/// Frame a delta header plus its ops bytes, with a trailing CRC-32.
pub fn frame_delta(header: &DeltaHeader, ops: &[u8]) -> Vec<u8> {
    let mut enc = XdrEncoder::with_capacity(80 + ops.len());
    enc.put_u32(DELTA_MAGIC);
    let flags = if header.full_fallback {
        DELTA_FLAG_FULL_FALLBACK
    } else {
        0
    };
    enc.put_u32(flags);
    enc.put_u32(header.round);
    enc.put_u64(header.base_image_id);
    enc.put_u64(header.base_digest);
    enc.put_u64(header.manifest_digest);
    enc.put_u64(header.raw_len);
    enc.put_u64(header.payload_digest);
    enc.put_u32(header.dirty_blocks);
    enc.put_u32(header.fresh_blocks);
    enc.put_u32(header.tombstones);
    enc.put_opaque_var(ops);
    let mut bytes = enc.into_bytes();
    let crc = crc32(&bytes);
    bytes.extend_from_slice(&crc.to_be_bytes());
    bytes
}

/// Split a delta frame back into its header and ops bytes, validating
/// the magic and the trailing CRC.
pub fn unframe_delta(frame: &[u8]) -> Result<(DeltaHeader, Vec<u8>), XdrError> {
    if frame.len() < 4 {
        return Err(XdrError::UnexpectedEof {
            needed: 4,
            remaining: frame.len(),
        });
    }
    let (body, crc_bytes) = frame.split_at(frame.len() - 4);
    let declared = u32::from_be_bytes(crc_bytes.try_into().expect("split_at(4)"));
    let actual = crc32(body);
    if declared != actual {
        return Err(XdrError::CrcMismatch {
            expected: declared,
            actual,
        });
    }
    let mut dec = XdrDecoder::new(body);
    let magic = dec.get_u32()?;
    if magic != DELTA_MAGIC {
        return Err(XdrError::BadMagic(magic));
    }
    let flags = dec.get_u32()?;
    let round = dec.get_u32()?;
    let base_image_id = dec.get_u64()?;
    let base_digest = dec.get_u64()?;
    let manifest_digest = dec.get_u64()?;
    let raw_len = dec.get_u64()?;
    let payload_digest = dec.get_u64()?;
    let dirty_blocks = dec.get_u32()?;
    let fresh_blocks = dec.get_u32()?;
    let tombstones = dec.get_u32()?;
    let ops = dec.get_opaque_var()?;
    Ok((
        DeltaHeader {
            base_image_id,
            base_digest,
            manifest_digest,
            full_fallback: flags & DELTA_FLAG_FULL_FALLBACK != 0,
            round,
            raw_len,
            payload_digest,
            dirty_blocks,
            fresh_blocks,
            tombstones,
        },
        ops,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> DeltaHeader {
        DeltaHeader {
            base_image_id: 0xDEAD_BEEF_0123_4567,
            base_digest: 0x1111_2222_3333_4444,
            manifest_digest: 0x5555_6666_7777_8888,
            full_fallback: false,
            round: 3,
            raw_len: 12_345,
            payload_digest: 0x9999_AAAA_BBBB_CCCC,
            dirty_blocks: 17,
            fresh_blocks: 2,
            tombstones: 1,
        }
    }

    #[test]
    fn frame_roundtrip() {
        let frame = frame_delta(&header(), b"OPS-BYTES");
        let (h, ops) = unframe_delta(&frame).unwrap();
        assert_eq!(h, header());
        assert_eq!(ops, b"OPS-BYTES");
    }

    #[test]
    fn full_fallback_flag_survives() {
        let h = DeltaHeader {
            full_fallback: true,
            ..header()
        };
        let frame = frame_delta(&h, b"WHOLE-IMAGE");
        let (back, _) = unframe_delta(&frame).unwrap();
        assert!(back.full_fallback);
    }

    #[test]
    fn corruption_is_crc_caught() {
        let frame = frame_delta(&header(), &[0xAB; 256]);
        for at in [0usize, 4, 20, 100, 200] {
            let mut bad = frame.clone();
            bad[at] ^= 0xFF;
            assert!(
                matches!(unframe_delta(&bad), Err(XdrError::CrcMismatch { .. }))
                    || unframe_delta(&bad).is_err(),
                "flip at {at} accepted"
            );
        }
    }

    #[test]
    fn wrong_magic_rejected() {
        // Rebuild a frame with a wrong magic but a *valid* CRC, so the
        // magic check itself is what rejects it.
        let mut enc = XdrEncoder::new();
        enc.put_u32(0x4850_4D49); // "HPMI"
        let mut bytes = enc.into_bytes();
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_be_bytes());
        assert!(matches!(
            unframe_delta(&bytes),
            Err(XdrError::BadMagic(_)) | Err(XdrError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn truncation_rejected() {
        let frame = frame_delta(&header(), b"0123456789");
        for cut in 0..frame.len() {
            assert!(unframe_delta(&frame[..cut]).is_err(), "cut {cut} accepted");
        }
    }
}
