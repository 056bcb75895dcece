//! Chunk framing for streamed migration images.
//!
//! The pipelined migration path ships the XDR image stream in framed
//! chunks so transfer can start while collection is still traversing the
//! MSR graph. Each chunk on the wire is itself a tiny XDR document.
//! Two frame versions coexist, both CRC-protected:
//!
//! ```text
//! v2 (stored)
//! u32 magic  = 0x4850_4D44 ("HPMD")
//! u32 seq    = 0, 1, 2, ...
//! u32 flags  = bit 0 on final chunk
//! u32 crc    = CRC-32 of the payload
//! opaque_var payload (4-byte aligned)
//!
//! v3 (compressed)
//! u32 magic   = 0x4850_4D45 ("HPME")
//! u32 seq     = 0, 1, 2, ...
//! u32 flags   = bit 0 final chunk, bit 1 payload is compressed
//! u32 raw_len = payload size before compression
//! u32 crc     = CRC-32 of the *wire* payload (post-compression)
//! opaque_var wire payload (4-byte aligned)
//! ```
//!
//! A v3 sender compresses each chunk with [`crate::compress()`] and falls
//! back to a stored block (bit 1 clear, wire payload = raw payload)
//! whenever compression would not shrink the chunk — incompressible
//! data never expands beyond the fixed 4-byte `raw_len` overhead. The
//! CRC always covers the bytes actually on the wire, so the transport
//! can verify integrity *before* spending decompression work, and a
//! corrupt compressed chunk is caught exactly like a corrupt stored one.
//!
//! [`unframe_chunk_any`] decodes both versions — receiver-side
//! auto-detection by magic is the negotiation mechanism, so a v3 sender
//! interoperates with a v2 peer simply by being configured down, and a
//! receiver understands whatever arrives. The CRC-less v1 frame
//! ("HPMC", `0x4850_4D43`) is refused as [`XdrError::BadMagic`]: it was
//! the one frame a receiver would accept with no integrity check, and
//! no sender emits it. The CRC is reported, not verified, here — the
//! transport layer decides how to react to a mismatch (the framing layer
//! has no notion of retransmission).
//!
//! The reverse direction of an ARQ link carries tiny control frames
//! ([`frame_control`] / [`unframe_control`]): cumulative ACKs and
//! per-sequence NACKs.
//!
//! The framing is deliberately orthogonal to the image grammar: the
//! concatenation of the chunk payloads, in sequence order, is the exact
//! monolithic image, byte for byte.

use crate::compress::{compress, decompress};
use crate::{XdrDecoder, XdrEncoder, XdrError};

/// Magic number opening every v2 (CRC-carrying) chunk frame: "HPMD".
pub const CHUNK_MAGIC_V2: u32 = 0x4850_4D44;

/// Magic number opening every v3 (compression-capable) chunk frame: "HPME".
pub const CHUNK_MAGIC_V3: u32 = 0x4850_4D45;

/// Magic number opening every ARQ control frame: "HPMA".
pub const CONTROL_MAGIC: u32 = 0x4850_4D41;

/// Flag bit marking the final chunk of a stream.
pub const CHUNK_FLAG_LAST: u32 = 1;

/// Flag bit (v3 only) marking a chunk whose wire payload is compressed.
pub const CHUNK_FLAG_COMPRESSED: u32 = 2;

/// Bytes folded into the CRC register per step.
const CRC_LANES: usize = 16;

/// `CRC_TABLES[0]` is the byte-at-a-time table; `CRC_TABLES[k][b]` is the
/// register after byte `b` and then `k` zero bytes.
static CRC_TABLES: [[u32; 256]; CRC_LANES] = crc32_tables();

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) of `data` — the integrity
/// check of v2 and v3 chunk frames, the delta frame and the journal.
/// Sliced: a block of sixteen bytes is folded in at once through
/// one table per lane, so the lookups of a block are independent of each
/// other and only their XOR is carried into the next block.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut blocks = data.chunks_exact(CRC_LANES);
    for block in &mut blocks {
        let mut block: [u8; CRC_LANES] = block.try_into().expect("an exact chunk");
        for (b, c) in block.iter_mut().zip(crc.to_le_bytes()) {
            *b ^= c;
        }
        crc = 0;
        for (k, &b) in block.iter().enumerate() {
            crc ^= CRC_TABLES[CRC_LANES - 1 - k][b as usize];
        }
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

const fn crc32_tables() -> [[u32; 256]; CRC_LANES] {
    let mut t = [[0u32; 256]; CRC_LANES];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < CRC_LANES {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Frame one chunk with the v2 layout: the payload's CRC-32 travels
/// between the flags word and the payload.
pub fn frame_chunk_v2(seq: u32, last: bool, payload: &[u8]) -> Vec<u8> {
    let mut enc = XdrEncoder::with_capacity(20 + payload.len());
    enc.put_u32(CHUNK_MAGIC_V2);
    enc.put_u32(seq);
    enc.put_u32(if last { CHUNK_FLAG_LAST } else { 0 });
    enc.put_u32(crc32(payload));
    enc.put_opaque_var(payload);
    enc.into_bytes()
}

/// Frame one chunk with the v3 layout, compressing the payload when
/// that shrinks it and storing it raw otherwise. Returns the frame and
/// the number of wire-payload bytes actually shipped (compressed size
/// for compressed chunks, raw size for stored ones) so senders can
/// account raw-vs-wire volume without re-parsing their own frames.
pub fn frame_chunk_v3(seq: u32, last: bool, payload: &[u8]) -> (Vec<u8>, usize) {
    let comp = compress(payload);
    let (wire, compressed): (&[u8], bool) = if comp.len() < payload.len() {
        (&comp, true)
    } else {
        (payload, false)
    };
    let mut flags = if last { CHUNK_FLAG_LAST } else { 0 };
    if compressed {
        flags |= CHUNK_FLAG_COMPRESSED;
    }
    let mut enc = XdrEncoder::with_capacity(24 + wire.len());
    enc.put_u32(CHUNK_MAGIC_V3);
    enc.put_u32(seq);
    enc.put_u32(flags);
    enc.put_u32(payload.len() as u32);
    enc.put_u32(crc32(wire));
    enc.put_opaque_var(wire);
    (enc.into_bytes(), wire.len())
}

/// One decoded chunk frame, any version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkFrame {
    /// Sequence number.
    pub seq: u32,
    /// Final-chunk flag.
    pub last: bool,
    /// The wire payload as it arrived (possibly corrupted in transit;
    /// still compressed for compressed v3 frames). Verification against
    /// `crc` is the receiver's job, *before* decompression.
    pub payload: Vec<u8>,
    /// The CRC-32 the sender stamped over the wire payload.
    pub crc: u32,
    /// Whether `payload` is compressed (v3 frames with bit 1 set).
    pub compressed: bool,
    /// Pre-compression payload size carried by v3 frames; `None` for
    /// v2 frames, whose payload is always stored.
    pub raw_len: Option<u32>,
}

impl ChunkFrame {
    /// Whether the wire payload matches the stamped CRC. On mismatch
    /// returns the computed CRC.
    pub fn verify_crc(&self) -> Result<(), u32> {
        let computed = crc32(&self.payload);
        if computed == self.crc {
            Ok(())
        } else {
            Err(computed)
        }
    }

    /// The decoded (post-decompression) payload. For stored frames this
    /// is the wire payload as-is; for compressed v3 frames the token
    /// stream is expanded and checked against the declared `raw_len`.
    pub fn into_payload(self) -> Result<Vec<u8>, XdrError> {
        if !self.compressed {
            return Ok(self.payload);
        }
        let raw_len = self.raw_len.unwrap_or(0) as usize;
        decompress(&self.payload, raw_len)
    }
}

/// Unframe a chunk of any version. Rejects bad magic (the retired v1
/// magic included), unknown flag bits, and trailing bytes after the
/// payload — a frame is a complete message, never a prefix of one. The
/// CRC is returned unverified so the transport can distinguish "corrupt
/// payload" (known sequence number, retransmittable) from "unparseable
/// frame", and the payload stays compressed so verification precedes
/// decompression.
pub fn unframe_chunk_any(frame: &[u8]) -> Result<ChunkFrame, XdrError> {
    let mut dec = XdrDecoder::new(frame);
    let magic = dec.get_u32()?;
    if magic != CHUNK_MAGIC_V2 && magic != CHUNK_MAGIC_V3 {
        return Err(XdrError::BadMagic(magic));
    }
    let seq = dec.get_u32()?;
    let flags = dec.get_u32()?;
    let known = if magic == CHUNK_MAGIC_V3 {
        CHUNK_FLAG_LAST | CHUNK_FLAG_COMPRESSED
    } else {
        CHUNK_FLAG_LAST
    };
    if flags & !known != 0 {
        return Err(XdrError::BadMagic(flags));
    }
    let raw_len = if magic == CHUNK_MAGIC_V3 {
        Some(dec.get_u32()?)
    } else {
        None
    };
    let crc = dec.get_u32()?;
    let payload = dec.get_opaque_var()?;
    if !dec.is_empty() {
        return Err(XdrError::LengthTooLarge(dec.remaining() as u32));
    }
    Ok(ChunkFrame {
        seq,
        last: flags & CHUNK_FLAG_LAST != 0,
        payload,
        crc,
        compressed: flags & CHUNK_FLAG_COMPRESSED != 0,
        raw_len,
    })
}

/// An ARQ control message, sent on the reverse direction of the link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Cumulative acknowledgement: every sequence below `next` arrived.
    Ack {
        /// The lowest sequence number the receiver still needs.
        next: u32,
    },
    /// Negative acknowledgement: `seq` is missing or arrived corrupt.
    Nack {
        /// The sequence number to retransmit.
        seq: u32,
    },
    /// Resume handshake: a rebuilt destination re-attaches to the sender.
    ///
    /// The receiver claims it already holds every chunk below `next` of the
    /// image identified by `image_id`, and proves it with `digest` — the
    /// journal digest over those chunk records. The sender validates the
    /// digest against its own send ledger before fast-forwarding; on any
    /// mismatch the resume is rejected and the transfer restarts cleanly.
    Resume {
        /// Identity of the image being resumed (digest of the image prefix).
        image_id: u64,
        /// The first chunk index the receiver is missing.
        next: u32,
        /// Journal digest over chunk records `0..next`.
        digest: u64,
    },
}

/// Frame one control message (12 bytes on the wire; 28 for `Resume`).
pub fn frame_control(ctrl: Control) -> Vec<u8> {
    let mut enc = XdrEncoder::with_capacity(28);
    enc.put_u32(CONTROL_MAGIC);
    match ctrl {
        Control::Ack { next } => {
            enc.put_u32(0);
            enc.put_u32(next);
        }
        Control::Nack { seq } => {
            enc.put_u32(1);
            enc.put_u32(seq);
        }
        Control::Resume {
            image_id,
            next,
            digest,
        } => {
            enc.put_u32(2);
            enc.put_u32(next);
            enc.put_u64(image_id);
            enc.put_u64(digest);
        }
    }
    enc.into_bytes()
}

/// Unframe one control message.
pub fn unframe_control(frame: &[u8]) -> Result<Control, XdrError> {
    let mut dec = XdrDecoder::new(frame);
    let magic = dec.get_u32()?;
    if magic != CONTROL_MAGIC {
        return Err(XdrError::BadMagic(magic));
    }
    let kind = dec.get_u32()?;
    let seq = dec.get_u32()?;
    let ctrl = match kind {
        0 => Control::Ack { next: seq },
        1 => Control::Nack { seq },
        2 => Control::Resume {
            next: seq,
            image_id: dec.get_u64()?,
            digest: dec.get_u64()?,
        },
        other => return Err(XdrError::BadMagic(other)),
    };
    if !dec.is_empty() {
        return Err(XdrError::LengthTooLarge(dec.remaining() as u32));
    }
    Ok(ctrl)
}

/// The fixed words of a framed chunk, read where the frame lies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkHeader {
    /// Sequence number.
    pub seq: u32,
    /// The flags word ([`CHUNK_FLAG_LAST`], [`CHUNK_FLAG_COMPRESSED`]).
    pub flags: u32,
    /// Length of the wire payload, before padding.
    pub payload_len: usize,
    /// The CRC-32 the sender stamped over the wire payload.
    pub crc: u32,
}

/// Read a framed chunk's header without copying its payload.
///
/// Returns `None` for an unknown magic, or when the frame is not exactly
/// as long as its declared version and payload length make it. The flags
/// and the padding are not validated: [`unframe_chunk_any`] does that.
pub fn peek_chunk_header(frame: &[u8]) -> Option<ChunkHeader> {
    let mut dec = XdrDecoder::new(frame);
    let magic = dec.get_u32().ok()?;
    let seq = dec.get_u32().ok()?;
    let flags = dec.get_u32().ok()?;
    match magic {
        CHUNK_MAGIC_V2 => {}
        CHUNK_MAGIC_V3 => {
            let _raw_len = dec.get_u32().ok()?;
        }
        _ => return None,
    }
    let crc = dec.get_u32().ok()?;
    let payload_len = dec.get_u32().ok()? as usize;
    let rest = dec.remaining();
    (payload_len <= rest && rest == crate::padded_len(payload_len)).then_some(ChunkHeader {
        seq,
        flags,
        payload_len,
        crc,
    })
}

/// Read the CRC a framed chunk was stamped with, without copying its payload.
pub fn frame_stamped_crc(frame: &[u8]) -> Option<u32> {
    peek_chunk_header(frame).map(|h| h.crc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_flag_roundtrips() {
        let frame = frame_chunk_v2(3, true, &[]);
        let f = unframe_chunk_any(&frame).unwrap();
        assert_eq!(f.seq, 3);
        assert!(f.last);
        assert!(f.payload.is_empty());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut frame = frame_chunk_v2(0, false, &[1, 2, 3, 4]);
        frame[0] ^= 0xFF;
        assert!(matches!(
            unframe_chunk_any(&frame),
            Err(XdrError::BadMagic(_))
        ));
    }

    #[test]
    fn unknown_flags_rejected() {
        let mut frame = frame_chunk_v2(0, false, &[]);
        frame[11] = 0x80; // flags word, low byte
        assert!(unframe_chunk_any(&frame).is_err());
        // The compressed bit belongs to v3 alone.
        frame[11] = CHUNK_FLAG_COMPRESSED as u8;
        assert!(unframe_chunk_any(&frame).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut frame = frame_chunk_v2(0, true, &[1, 2, 3, 4]);
        frame.extend_from_slice(&[0, 0, 0, 0]);
        assert!(unframe_chunk_any(&frame).is_err());
    }

    #[test]
    fn crc32_known_vectors() {
        // The classic IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn v2_roundtrip_carries_verified_crc() {
        let payload = vec![7u8; 33];
        let frame = frame_chunk_v2(5, false, &payload);
        assert_eq!(frame.len() % 4, 0);
        let f = unframe_chunk_any(&frame).unwrap();
        assert_eq!(f.seq, 5);
        assert!(!f.last);
        assert_eq!(f.payload, payload);
        assert_eq!(f.crc, crc32(&payload));
        assert!(f.verify_crc().is_ok());
    }

    #[test]
    fn v2_corrupt_payload_fails_verification_with_computed_crc() {
        let mut frame = frame_chunk_v2(0, true, &[1, 2, 3, 4, 5, 6, 7, 8]);
        let payload_start = frame.len() - 8;
        frame[payload_start] ^= 0x40;
        let f = unframe_chunk_any(&frame).unwrap();
        let computed = f.verify_crc().unwrap_err();
        assert_ne!(computed, f.crc);
        assert_eq!(computed, crc32(&f.payload));
    }

    #[test]
    fn truncated_v2_frame_rejected() {
        let frame = frame_chunk_v2(0, true, &[9; 40]);
        for cut in [0, 4, 8, 12, 16, frame.len() - 1] {
            assert!(unframe_chunk_any(&frame[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn control_frames_roundtrip() {
        for ctrl in [Control::Ack { next: 17 }, Control::Nack { seq: 3 }] {
            let frame = frame_control(ctrl);
            assert_eq!(frame.len(), 12);
            assert_eq!(unframe_control(&frame).unwrap(), ctrl);
        }
        let resume = Control::Resume {
            image_id: 0xDEAD_BEEF_CAFE_F00D,
            next: 41,
            digest: 0x0123_4567_89AB_CDEF,
        };
        let frame = frame_control(resume);
        assert_eq!(frame.len(), 28);
        assert_eq!(unframe_control(&frame).unwrap(), resume);
    }

    #[test]
    fn truncated_resume_frame_rejected() {
        let frame = frame_control(Control::Resume {
            image_id: 7,
            next: 2,
            digest: 9,
        });
        for cut in [12, 16, 20, frame.len() - 1] {
            assert!(unframe_control(&frame[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn frame_stamped_crc_matches_parsed_crc() {
        let payload = vec![7u8; 96];
        let v2 = frame_chunk_v2(4, false, &payload);
        assert_eq!(
            frame_stamped_crc(&v2),
            Some(unframe_chunk_any(&v2).unwrap().crc)
        );
        let (v3, _) = frame_chunk_v3(5, true, &payload);
        assert_eq!(
            frame_stamped_crc(&v3),
            Some(unframe_chunk_any(&v3).unwrap().crc)
        );
        assert_eq!(frame_stamped_crc(&v2[..8]), None);
        let not_a_chunk = frame_control(Control::Ack { next: 6 });
        assert_eq!(frame_stamped_crc(&not_a_chunk), None);
    }

    #[test]
    fn peeked_header_agrees_with_the_full_parse() {
        let payload: Vec<u8> = (0..97u8).collect();
        let v2 = frame_chunk_v2(4, true, &payload);
        let (v3, wire_len) = frame_chunk_v3(5, false, &[3u8; 700]);
        for (frame, wire) in [(&v2, payload.len()), (&v3, wire_len)] {
            let parsed = unframe_chunk_any(frame).unwrap();
            let header = peek_chunk_header(frame).unwrap();
            assert_eq!(header.seq, parsed.seq);
            assert_eq!(header.crc, parsed.crc);
            assert_eq!(header.payload_len, wire);
            assert_eq!(header.flags & CHUNK_FLAG_LAST != 0, parsed.last);
            assert_eq!(header.flags & CHUNK_FLAG_COMPRESSED != 0, parsed.compressed);
            // A frame is exactly as long as its header says: no prefix of
            // one and nothing with bytes after it has a header to peek.
            for cut in 0..frame.len() {
                assert_eq!(peek_chunk_header(&frame[..cut]), None, "cut {cut}");
            }
            let mut longer = frame.clone();
            longer.extend_from_slice(&[0; 4]);
            assert_eq!(peek_chunk_header(&longer), None);
        }
    }

    #[test]
    fn control_rejects_bad_magic_kind_and_trailing_bytes() {
        let mut bad_magic = frame_control(Control::Ack { next: 0 });
        bad_magic[0] ^= 0xFF;
        assert!(unframe_control(&bad_magic).is_err());
        let mut bad_kind = frame_control(Control::Ack { next: 0 });
        bad_kind[7] = 9;
        assert!(unframe_control(&bad_kind).is_err());
        let mut trailing = frame_control(Control::Nack { seq: 1 });
        trailing.extend_from_slice(&[0; 4]);
        assert!(unframe_control(&trailing).is_err());
        // Control frames are not chunks and vice versa.
        assert!(unframe_chunk_any(&frame_control(Control::Ack { next: 0 })).is_err());
    }

    #[test]
    fn v3_compressible_payload_shrinks_and_roundtrips() {
        let payload = vec![0u8; 4096];
        let (frame, wire_len) = frame_chunk_v3(11, false, &payload);
        assert!(wire_len < payload.len(), "zeros must compress");
        assert!(frame.len() < 64, "frame is {} bytes", frame.len());
        assert_eq!(frame.len() % 4, 0);
        let f = unframe_chunk_any(&frame).unwrap();
        assert_eq!(f.seq, 11);
        assert!(!f.last);
        assert!(f.compressed);
        assert_eq!(f.raw_len, Some(4096));
        assert!(f.verify_crc().is_ok());
        assert_eq!(f.into_payload().unwrap(), payload);
    }

    #[test]
    fn v3_incompressible_payload_is_stored_not_expanded() {
        // splitmix64 noise does not compress.
        let mut s = 42u64;
        let payload: Vec<u8> = (0..512)
            .map(|_| {
                s = s.wrapping_add(0x9e3779b97f4a7c15);
                let mut z = s;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
                (z ^ (z >> 27)) as u8
            })
            .collect();
        let (frame, wire_len) = frame_chunk_v3(0, true, &payload);
        assert_eq!(wire_len, payload.len(), "stored fallback ships raw bytes");
        // v3 overhead over v2 is exactly the 4-byte raw_len word.
        assert_eq!(frame.len(), frame_chunk_v2(0, true, &payload).len() + 4);
        let f = unframe_chunk_any(&frame).unwrap();
        assert!(!f.compressed);
        assert!(f.last);
        assert_eq!(f.raw_len, Some(payload.len() as u32));
        assert!(f.verify_crc().is_ok());
        assert_eq!(f.into_payload().unwrap(), payload);
    }

    #[test]
    fn v3_crc_covers_the_compressed_bytes() {
        let payload = vec![7u8; 1024];
        let (mut frame, wire_len) = frame_chunk_v3(3, false, &payload);
        assert!(wire_len < payload.len());
        // Flip one bit inside the compressed wire payload.
        let payload_start = 24; // magic+seq+flags+raw_len+crc+opaque len
        frame[payload_start] ^= 0x01;
        let f = unframe_chunk_any(&frame).unwrap();
        let computed = f.verify_crc().unwrap_err();
        assert_eq!(computed, crc32(&f.payload));
        assert_ne!(computed, f.crc);
    }

    #[test]
    fn v3_empty_payload_roundtrips() {
        let (frame, wire_len) = frame_chunk_v3(5, true, &[]);
        assert_eq!(wire_len, 0);
        let f = unframe_chunk_any(&frame).unwrap();
        assert!(f.last);
        assert!(!f.compressed);
        assert_eq!(f.into_payload().unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn truncated_v3_frame_rejected() {
        let (frame, _) = frame_chunk_v3(0, true, &[9; 40]);
        for cut in [0, 4, 8, 12, 16, 20, frame.len() - 1] {
            assert!(unframe_chunk_any(&frame[..cut]).is_err(), "cut at {cut}");
        }
    }
}
