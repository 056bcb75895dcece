//! Chunk framing for streamed migration images.
//!
//! The pipelined migration path ships the XDR image stream in framed
//! chunks so transfer can start while collection is still traversing the
//! MSR graph. Each chunk on the wire is itself a tiny XDR document, and
//! every stream uses the one frame:
//!
//! ```text
//! u32 magic   = 0x4850_4D46 ("HPMF")
//! u32 seq     = 0, 1, 2, ...
//! u32 flags   = bit 0 final chunk, bit 1 payload is compressed
//! u32 raw_len = payload size before compression
//! opaque_var wire payload (4-byte aligned)
//! u32 crc     = CRC-32 of every byte above
//! ```
//!
//! A compressing sender runs each chunk through [`crate::compress()`] and
//! falls back to a stored block (bit 1 clear, wire payload = raw payload)
//! whenever compression would not shrink the chunk; a storing sender
//! never compresses. The trailing CRC covers the header as well as the
//! bytes actually on the wire — the rule HPMG delta frames and the
//! restore journal follow — so a damaged `seq`, `flags` or `raw_len`
//! fails the check exactly like a damaged payload byte, and the transport
//! verifies integrity *before* spending decompression work.
//!
//! [`view_chunk`] reads the one frame where it lies, and
//! [`unframe_chunk_any`] copies its payload out. Three retired magics are
//! refused as [`XdrError::BadMagic`]: `HPMC` (`0x4850_4D43`, v1), which
//! carried no CRC, and `HPMD` (v2) and `HPME` (v3), whose CRCs left the
//! header unprotected. The CRC is reported, not verified, there — the
//! transport layer decides how to react to a mismatch (it ends the
//! connection).
//!
//! The reverse direction of a link carries one control frame
//! ([`frame_control`] / [`unframe_control`]): the resume handshake. The
//! retired acknowledgement kinds, cumulative ACK (0) and NACK (1), are
//! refused as [`XdrError::RetiredControl`], by name.
//!
//! The framing is deliberately orthogonal to the image grammar: the
//! concatenation of the chunk payloads, in sequence order, is the exact
//! monolithic image, byte for byte.

use crate::compress::{compress_into, decompress};
use crate::{XdrDecoder, XdrEncoder, XdrError};

/// Magic number opening every chunk frame: "HPMF".
pub const CHUNK_MAGIC: u32 = 0x4850_4D46;

/// Magic number opening every control frame: "HPMA".
pub const CONTROL_MAGIC: u32 = 0x4850_4D41;

/// Flag bit marking the final chunk of a stream.
pub const CHUNK_FLAG_LAST: u32 = 1;

/// Flag bit marking a chunk whose wire payload is compressed.
pub const CHUNK_FLAG_COMPRESSED: u32 = 2;

/// Bytes folded into the CRC register per step.
const CRC_LANES: usize = 16;

/// `CRC_TABLES[0]` is the byte-at-a-time table; `CRC_TABLES[k][b]` is the
/// register after byte `b` and then `k` zero bytes.
static CRC_TABLES: [[u32; 256]; CRC_LANES] = crc32_tables();

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) of `data` — the integrity
/// check of the chunk frame, the delta frame and the journal.
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

/// Frame one chunk. With `try_compress` the payload travels compressed
/// when that shrinks it and stored otherwise; without, always stored.
/// Returns the frame, the number of wire-payload bytes it carries
/// (compressed size for compressed chunks, raw size for stored ones) and
/// the CRC it was stamped with, so senders account raw-vs-wire volume and
/// keep their ledger without re-parsing their own frames.
pub fn frame_chunk(
    seq: u32,
    last: bool,
    payload: &[u8],
    try_compress: bool,
) -> (Vec<u8>, usize, u32) {
    // The coder writes its tokens straight after the header and the
    // length word, at `AT`; a stream no smaller than the payload is cut
    // off and the payload stored in its place. The reservation holds a
    // stored frame and a literal token's header more.
    const AT: usize = 20;
    let mut frame = Vec::with_capacity(AT + crate::padded_len(payload.len()) + 16);
    let mut flags = if last { CHUNK_FLAG_LAST } else { 0 };
    for word in [CHUNK_MAGIC, seq, flags, payload.len() as u32, 0] {
        frame.extend_from_slice(&word.to_be_bytes());
    }
    if try_compress {
        compress_into(payload, &mut frame);
    }
    if frame.len() > AT && frame.len() - AT < payload.len() {
        flags |= CHUNK_FLAG_COMPRESSED;
        frame[8..12].copy_from_slice(&flags.to_be_bytes());
    } else {
        frame.truncate(AT);
        frame.extend_from_slice(payload);
    }
    let wire_len = frame.len() - AT;
    frame[16..AT].copy_from_slice(&(wire_len as u32).to_be_bytes());
    frame.resize(AT + crate::padded_len(wire_len), 0);
    let crc = crc32(&frame);
    frame.extend_from_slice(&crc.to_be_bytes());
    if flags & CHUNK_FLAG_COMPRESSED != 0 {
        // The frame waits in the pipe and the destination's journal:
        // give back the stored frame's reservation it did not fill.
        frame.shrink_to_fit();
    }
    (frame, wire_len, crc)
}

/// [`frame_chunk`], compressed: the frame and its wire-payload length.
pub fn frame_chunk_v3(seq: u32, last: bool, payload: &[u8]) -> (Vec<u8>, usize) {
    let (frame, wire_len, _) = frame_chunk(seq, last, payload, true);
    (frame, wire_len)
}

/// One decoded chunk frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkFrame {
    /// Sequence number.
    pub seq: u32,
    /// Final-chunk flag.
    pub last: bool,
    /// The wire payload as it arrived (possibly corrupted in transit;
    /// still compressed for compressed frames). Verification against
    /// `crc` is the receiver's job, *before* decompression.
    pub payload: Vec<u8>,
    /// The CRC-32 the sender stamped over the header and wire payload.
    pub crc: u32,
    /// Whether `payload` is compressed.
    pub compressed: bool,
    /// Payload size before compression; a stored payload's own size.
    pub raw_len: u32,
    /// The CRC-32 of the frame as it arrived, everything before `crc`.
    arrived_crc: u32,
}

impl ChunkFrame {
    /// Whether the frame arrived as it was stamped, header and wire
    /// payload alike. On mismatch returns the CRC of what arrived.
    pub fn verify_crc(&self) -> Result<(), u32> {
        if self.arrived_crc == self.crc {
            Ok(())
        } else {
            Err(self.arrived_crc)
        }
    }

    /// The decoded (post-decompression) payload, exactly `raw_len` bytes:
    /// a compressed frame's token stream is expanded and checked against
    /// it, and a stored frame whose payload is any other size is refused
    /// as [`XdrError::LengthTooLarge`].
    pub fn into_payload(self) -> Result<Vec<u8>, XdrError> {
        if self.compressed {
            decompress(&self.payload, self.raw_len as usize)
        } else if self.payload.len() == self.raw_len as usize {
            Ok(self.payload)
        } else {
            Err(XdrError::LengthTooLarge(self.raw_len))
        }
    }
}

/// One chunk frame read where it lies: what [`unframe_chunk_any`]
/// answers, with the wire payload borrowed from the frame rather than
/// copied out of it. The receiver and the journal read frames this way,
/// so a payload byte is copied only when it is expanded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkView<'a> {
    /// Sequence number.
    pub seq: u32,
    /// Final-chunk flag.
    pub last: bool,
    /// The wire payload as it arrived, inside the frame.
    pub payload: &'a [u8],
    /// The CRC-32 the sender stamped over the header and wire payload.
    pub crc: u32,
    /// Whether `payload` is compressed.
    pub compressed: bool,
    /// Payload size before compression; a stored payload's own size.
    pub raw_len: u32,
    /// The CRC-32 of the frame as it arrived, everything before `crc`.
    arrived_crc: u32,
}

impl ChunkView<'_> {
    /// Whether the frame arrived as it was stamped, header and wire
    /// payload alike. On mismatch returns the CRC of what arrived.
    pub fn verify_crc(&self) -> Result<(), u32> {
        if self.arrived_crc == self.crc {
            Ok(())
        } else {
            Err(self.arrived_crc)
        }
    }

    /// The decoded payload, exactly `raw_len` bytes, refused as
    /// [`ChunkFrame::into_payload`] refuses.
    pub fn expand(&self) -> Result<Vec<u8>, XdrError> {
        if self.compressed {
            decompress(self.payload, self.raw_len as usize)
        } else if self.payload.len() == self.raw_len as usize {
            Ok(self.payload.to_vec())
        } else {
            Err(XdrError::LengthTooLarge(self.raw_len))
        }
    }
}

/// Read a chunk frame in place. Refuses everything [`peek_chunk_header`]
/// refuses, and an intact frame whose flags set a bit no sender sets; on
/// a damaged frame any word may be the damage, which
/// [`ChunkView::verify_crc`] then reports. The CRC is returned unverified
/// so the transport can name a "damaged frame" apart from an
/// "unparseable frame", and the payload stays compressed so verification
/// precedes decompression.
pub fn view_chunk(frame: &[u8]) -> Result<ChunkView<'_>, XdrError> {
    let h = peek_chunk_header(frame)?;
    let arrived_crc = crc32(&frame[..frame.len() - 4]);
    if arrived_crc == h.crc && h.flags & !(CHUNK_FLAG_LAST | CHUNK_FLAG_COMPRESSED) != 0 {
        return Err(XdrError::BadMagic(h.flags));
    }
    Ok(ChunkView {
        seq: h.seq,
        last: h.flags & CHUNK_FLAG_LAST != 0,
        payload: &frame[h.payload_at..h.payload_at + h.payload_len],
        crc: h.crc,
        compressed: h.flags & CHUNK_FLAG_COMPRESSED != 0,
        raw_len: h.raw_len,
        arrived_crc,
    })
}

/// Unframe a chunk: [`view_chunk`], with the wire payload copied out of
/// the frame.
pub fn unframe_chunk_any(frame: &[u8]) -> Result<ChunkFrame, XdrError> {
    let v = view_chunk(frame)?;
    Ok(ChunkFrame {
        seq: v.seq,
        last: v.last,
        payload: v.payload.to_vec(),
        crc: v.crc,
        compressed: v.compressed,
        raw_len: v.raw_len,
        arrived_crc: v.arrived_crc,
    })
}

/// A control message, sent on the reverse direction of the link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
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

/// Control kinds no sender writes any more, by their wire number.
const RETIRED_CONTROL: [&str; 2] = ["ack", "nack"];

/// Frame one control message (28 bytes on the wire).
pub fn frame_control(ctrl: Control) -> Vec<u8> {
    let Control::Resume {
        image_id,
        next,
        digest,
    } = ctrl;
    let mut enc = XdrEncoder::with_capacity(28);
    enc.put_u32(CONTROL_MAGIC);
    enc.put_u32(2);
    enc.put_u32(next);
    enc.put_u64(image_id);
    enc.put_u64(digest);
    enc.into_bytes()
}

/// Unframe one control message. A retired kind is refused by name.
pub fn unframe_control(frame: &[u8]) -> Result<Control, XdrError> {
    let mut dec = XdrDecoder::new(frame);
    let magic = dec.get_u32()?;
    if magic != CONTROL_MAGIC {
        return Err(XdrError::BadMagic(magic));
    }
    let kind = dec.get_u32()?;
    if let Some(name) = RETIRED_CONTROL.get(kind as usize) {
        return Err(XdrError::RetiredControl(name));
    }
    if kind != 2 {
        return Err(XdrError::BadMagic(kind));
    }
    let ctrl = Control::Resume {
        next: dec.get_u32()?,
        image_id: dec.get_u64()?,
        digest: dec.get_u64()?,
    };
    if !dec.is_empty() {
        return Err(XdrError::LengthTooLarge(dec.remaining() as u32));
    }
    Ok(ctrl)
}

/// The words of a framed chunk, read where the frame lies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkHeader {
    /// Sequence number.
    pub seq: u32,
    /// The flags word ([`CHUNK_FLAG_LAST`], [`CHUNK_FLAG_COMPRESSED`]).
    pub flags: u32,
    /// Payload size before compression.
    pub raw_len: u32,
    /// Offset of the wire payload within the frame.
    pub payload_at: usize,
    /// Length of the wire payload, before padding.
    pub payload_len: usize,
    /// The CRC-32 the sender stamped over every byte before it.
    pub crc: u32,
}

/// Read a framed chunk's header without copying its payload — the one
/// reader behind [`view_chunk`] and the fault injector.
///
/// Refuses any magic but [`CHUNK_MAGIC`], non-zero padding, and a frame
/// that is not exactly as long as its payload length makes it: a frame
/// is a complete message, never a prefix of one. Neither the flags nor
/// the CRC is checked.
pub fn peek_chunk_header(frame: &[u8]) -> Result<ChunkHeader, XdrError> {
    let mut dec = XdrDecoder::new(frame);
    let magic = dec.get_u32()?;
    if magic != CHUNK_MAGIC {
        return Err(XdrError::BadMagic(magic));
    }
    let seq = dec.get_u32()?;
    let flags = dec.get_u32()?;
    let raw_len = dec.get_u32()?;
    // The payload follows its length word.
    let payload_at = dec.position() + 4;
    let payload_len = dec.get_opaque_var_ref()?.len();
    let crc = dec.get_u32()?;
    if !dec.is_empty() {
        return Err(XdrError::LengthTooLarge(dec.remaining() as u32));
    }
    Ok(ChunkHeader {
        seq,
        flags,
        raw_len,
        payload_at,
        payload_len,
        crc,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stored(seq: u32, last: bool, payload: &[u8]) -> Vec<u8> {
        frame_chunk(seq, last, payload, false).0
    }

    /// `frame` with header word `word` replaced and the CRC re-stamped —
    /// what a sender that means it would put on the wire.
    fn restamped(frame: &[u8], word: usize, value: u32) -> Vec<u8> {
        let mut f = frame.to_vec();
        f[word * 4..word * 4 + 4].copy_from_slice(&value.to_be_bytes());
        let end = f.len() - 4;
        let crc = crc32(&f[..end]);
        f[end..].copy_from_slice(&crc.to_be_bytes());
        f
    }

    #[test]
    fn last_flag_roundtrips() {
        let frame = stored(3, true, &[]);
        let f = unframe_chunk_any(&frame).unwrap();
        assert_eq!(f.seq, 3);
        assert!(f.last);
        assert!(f.payload.is_empty());
    }

    #[test]
    fn retired_and_foreign_magics_are_refused_by_name() {
        for magic in [0x4850_4D43, 0x4850_4D44, 0x4850_4D45, CONTROL_MAGIC] {
            let frame = restamped(&stored(0, false, &[1, 2, 3, 4]), 0, magic);
            assert_eq!(unframe_chunk_any(&frame), Err(XdrError::BadMagic(magic)));
        }
    }

    #[test]
    fn unknown_flags_are_refused_when_stamped_and_damage_when_not() {
        let frame = stored(0, false, &[]);
        let stamped = restamped(&frame, 2, 0x80);
        assert_eq!(unframe_chunk_any(&stamped), Err(XdrError::BadMagic(0x80)));
        // The same word damaged in flight: the frame is handed back, and
        // its CRC says what happened.
        let mut damaged = frame;
        damaged[11] = 0x80;
        assert!(unframe_chunk_any(&damaged).unwrap().verify_crc().is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut frame = stored(0, true, &[1, 2, 3, 4]);
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
    fn stored_roundtrip_carries_the_stamped_crc() {
        let payload = vec![7u8; 33];
        let (frame, wire_len, crc) = frame_chunk(5, false, &payload, false);
        assert_eq!(frame.len(), 24 + 36);
        assert_eq!(wire_len, payload.len());
        let f = unframe_chunk_any(&frame).unwrap();
        assert_eq!((f.seq, f.last, f.compressed), (5, false, false));
        assert_eq!(f.raw_len, 33);
        assert_eq!(f.crc, crc);
        assert_eq!(crc, crc32(&frame[..frame.len() - 4]));
        assert!(f.verify_crc().is_ok());
        assert_eq!(f.into_payload().unwrap(), payload);
    }

    /// Every byte between the magic and the length word, and every
    /// payload byte, is under the CRC: one flipped bit anywhere there
    /// leaves a frame that parses and fails its check.
    #[test]
    fn crc_covers_every_header_word_and_the_payload() {
        let (compressed, _) = frame_chunk_v3(3, false, &[7u8; 1024]);
        let plain = stored(3, false, &[1, 2, 3, 4, 5, 6, 7, 8]);
        for frame in [compressed, plain] {
            let h = peek_chunk_header(&frame).unwrap();
            let payload = h.payload_at..h.payload_at + h.payload_len;
            for at in (4..16).chain(payload) {
                let mut bad = frame.clone();
                bad[at] ^= 0x01;
                let f = unframe_chunk_any(&bad).unwrap_or_else(|e| panic!("byte {at}: {e}"));
                assert!(f.verify_crc().is_err(), "byte {at}");
            }
        }
    }

    #[test]
    fn truncated_frames_rejected() {
        let (compressed, _) = frame_chunk_v3(0, true, &[9; 40]);
        for frame in [stored(0, true, &[9; 40]), compressed] {
            for cut in 0..frame.len() {
                assert!(unframe_chunk_any(&frame[..cut]).is_err(), "cut at {cut}");
            }
        }
    }

    #[test]
    fn stored_raw_len_must_match_the_payload() {
        let frame = stored(1, false, &[1, 2, 3, 4]);
        for raw_len in [0, 3, 5, u32::MAX] {
            let f = unframe_chunk_any(&restamped(&frame, 3, raw_len)).unwrap();
            assert!(f.verify_crc().is_ok());
            assert_eq!(f.into_payload(), Err(XdrError::LengthTooLarge(raw_len)));
        }
    }

    #[test]
    fn control_frames_roundtrip() {
        let resume = Control::Resume {
            image_id: 0xDEAD_BEEF_CAFE_F00D,
            next: 41,
            digest: 0x0123_4567_89AB_CDEF,
        };
        let frame = frame_control(resume);
        assert_eq!(frame.len(), 28);
        assert_eq!(unframe_control(&frame).unwrap(), resume);
    }

    /// The acknowledgement kinds no sender writes any more are refused by
    /// name, whatever follows the kind word.
    #[test]
    fn retired_ack_and_nack_kinds_are_refused_by_name() {
        for (kind, name) in [(0u32, "ack"), (1, "nack")] {
            let mut enc = XdrEncoder::new();
            for word in [CONTROL_MAGIC, kind, 17] {
                enc.put_u32(word);
            }
            let err = unframe_control(&enc.into_bytes()).unwrap_err();
            assert_eq!(err, XdrError::RetiredControl(name));
            assert!(err.to_string().contains(name), "{err}");
        }
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
    fn peeked_header_agrees_with_the_full_parse() {
        let payload: Vec<u8> = (0..97u8).collect();
        let (plain, plain_len, _) = frame_chunk(4, true, &payload, false);
        let (packed, packed_len) = frame_chunk_v3(5, false, &[3u8; 700]);
        for (frame, wire, raw) in [(&plain, plain_len, 97), (&packed, packed_len, 700)] {
            let parsed = unframe_chunk_any(frame).unwrap();
            let header = peek_chunk_header(frame).unwrap();
            assert_eq!(header.seq, parsed.seq);
            assert_eq!(header.crc, parsed.crc);
            assert_eq!(header.raw_len, raw);
            assert_eq!(header.payload_len, wire);
            let at = header.payload_at;
            assert_eq!(&frame[at..at + wire], &parsed.payload[..]);
            assert_eq!(header.flags & CHUNK_FLAG_LAST != 0, parsed.last);
            assert_eq!(header.flags & CHUNK_FLAG_COMPRESSED != 0, parsed.compressed);
            // A frame is exactly as long as its header says: no prefix of
            // one and nothing with bytes after it has a header to peek.
            for cut in 0..frame.len() {
                assert!(peek_chunk_header(&frame[..cut]).is_err(), "cut {cut}");
            }
            let mut longer = frame.clone();
            longer.extend_from_slice(&[0; 4]);
            assert!(peek_chunk_header(&longer).is_err());
        }
    }

    #[test]
    fn control_rejects_bad_magic_kind_and_trailing_bytes() {
        let resume = Control::Resume {
            image_id: 1,
            next: 0,
            digest: 2,
        };
        let mut bad_magic = frame_control(resume);
        bad_magic[0] ^= 0xFF;
        assert!(unframe_control(&bad_magic).is_err());
        let mut bad_kind = frame_control(resume);
        bad_kind[7] = 9;
        assert_eq!(unframe_control(&bad_kind), Err(XdrError::BadMagic(9)));
        let mut trailing = frame_control(resume);
        trailing.extend_from_slice(&[0; 4]);
        assert!(unframe_control(&trailing).is_err());
        // Control frames are not chunks and vice versa.
        assert!(unframe_chunk_any(&frame_control(resume)).is_err());
    }

    #[test]
    fn compressible_payload_shrinks_and_roundtrips() {
        let payload = vec![0u8; 4096];
        let (frame, wire_len) = frame_chunk_v3(11, false, &payload);
        assert!(wire_len < payload.len(), "zeros must compress");
        assert!(frame.len() < 64, "frame is {} bytes", frame.len());
        assert_eq!(frame.len() % 4, 0);
        assert_eq!(frame.capacity(), frame.len(), "holds what it carries");
        let f = unframe_chunk_any(&frame).unwrap();
        assert_eq!(f.seq, 11);
        assert!(!f.last);
        assert!(f.compressed);
        assert_eq!(f.raw_len, 4096);
        assert!(f.verify_crc().is_ok());
        assert_eq!(f.into_payload().unwrap(), payload);
    }

    #[test]
    fn incompressible_payload_is_stored_not_expanded() {
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
        // A compressing sender that falls back writes the stored frame.
        assert_eq!(frame, stored(0, true, &payload));
        let f = unframe_chunk_any(&frame).unwrap();
        assert!(!f.compressed);
        assert!(f.last);
        assert_eq!(f.raw_len, payload.len() as u32);
        assert!(f.verify_crc().is_ok());
        assert_eq!(f.into_payload().unwrap(), payload);
    }

    #[test]
    fn empty_payload_roundtrips() {
        let (frame, wire_len) = frame_chunk_v3(5, true, &[]);
        assert_eq!(wire_len, 0);
        assert_eq!(frame.len(), 24);
        let f = unframe_chunk_any(&frame).unwrap();
        assert!(f.last);
        assert!(!f.compressed);
        assert_eq!(f.into_payload().unwrap(), Vec::<u8>::new());
    }
}
