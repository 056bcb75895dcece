//! # Restore journal — the destination's record of a partially-received image
//!
//! The destination side of a migration appends one [`ChunkRecord`] to a
//! [`RestoreJournal`] for every chunk that survived CRC verification,
//! together with the frame it arrived in, moved in as it came off the
//! link. If the destination process dies mid-restore, the journal is all
//! that is needed to rebuild it: the frames are expanded again and
//! replayed locally through the normal restore path (never a splice into
//! partially-restored state), and a [`crate::Control::Resume`] handshake
//! tells the sender to restart the wire transfer at
//! [`RestoreJournal::next_chunk`] instead of chunk 0.
//!
//! The journal lives in memory beside the destination and has no byte
//! format of its own. Keeping the frame costs no copy on the receiving
//! path, and a compressed chunk is journaled at its wire size.
//!
//! ## Integrity model
//!
//! Three independent checks guard against resuming onto a corrupt base:
//!
//! 1. **Append contiguity** ([`RestoreJournal::append`]): a record is
//!    accepted only as the next chunk, so the journal is always a
//!    hole-free prefix of the stream.
//! 2. **The handshake digest** ([`RestoreJournal::digest`]): a chained hash
//!    over every record (index, lengths, CRC, phase). The sender recomputes
//!    the same digest from its own send ledger; any disagreement — a tampered
//!    journal, a divergent stream — rejects the resume rather than splicing.
//!    The digest covers the records only, not the frames.
//! 3. **Replay** ([`RestoreJournal::payload`]): each frame's CRC is checked
//!    again, and its sequence number and length against its record, before
//!    it is expanded. A frame damaged after it was journaled is refused by
//!    name and never restored.

use crate::chunk::view_chunk;
use crate::error::XdrError;

/// The restore phase a chunk was consumed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RestorePhase {
    /// Chunk 0: the image prefix (header + executable state).
    Prefix,
    /// Memory-image payload chunks.
    Payload,
    /// The empty LAST frame closing the stream.
    Terminator,
}

impl RestorePhase {
    /// Derive the phase from a chunk's stream position, the same way on both
    /// ends of the link.
    pub fn for_chunk(index: u32, last: bool) -> Self {
        if last {
            RestorePhase::Terminator
        } else if index == 0 {
            RestorePhase::Prefix
        } else {
            RestorePhase::Payload
        }
    }

    fn code(self) -> u32 {
        match self {
            RestorePhase::Prefix => 0,
            RestorePhase::Payload => 1,
            RestorePhase::Terminator => 2,
        }
    }
}

impl std::fmt::Display for RestorePhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestorePhase::Prefix => write!(f, "prefix"),
            RestorePhase::Payload => write!(f, "payload"),
            RestorePhase::Terminator => write!(f, "terminator"),
        }
    }
}

/// One CRC-verified chunk, as recorded by both ends of the link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChunkRecord {
    /// Stream position (chunk sequence number) of the chunk.
    pub index: u32,
    /// Decoded payload length in bytes.
    pub raw_len: u32,
    /// Wire payload length in bytes (differs from `raw_len` when compressed).
    pub wire_len: u32,
    /// The CRC-32 the frame was stamped with, over its header and wire
    /// payload.
    pub crc: u32,
    /// The restore phase the chunk belongs to.
    pub phase: RestorePhase,
}

fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Chained digest over a run of chunk records.
///
/// Order-sensitive and covering every field, so two ledgers agree iff they
/// describe the identical chunk stream.
pub fn records_digest(records: &[ChunkRecord]) -> u64 {
    let mut acc = 0x48504D4A_5245534Du64; // "HPMJ RESM"
    for r in records {
        acc = mix64(acc ^ ((r.index as u64) << 32 | r.raw_len as u64));
        acc = mix64(acc ^ ((r.wire_len as u64) << 32 | r.crc as u64));
        acc = mix64(acc ^ r.phase.code() as u64);
    }
    acc
}

/// Identity of an image stream: [`digest64`](crate::digest64) of the
/// framed image prefix bytes, mixed with their length. Both ends derive it
/// from the prefix they sent / received, so a resume can never attach a
/// destination to the wrong source image.
pub fn image_id(prefix: &[u8]) -> u64 {
    image_id_from_digest(crate::digest64(prefix), prefix.len())
}

/// [`image_id`] of `len` bytes whose [`digest64`](crate::digest64) is
/// already known: a caller that has hashed the bytes need not walk them a
/// second time.
pub fn image_id_from_digest(digest: u64, len: usize) -> u64 {
    mix64(digest ^ (len as u64))
}

/// The destination's record of every CRC-verified chunk.
///
/// Records and frames are kept aligned: `frames[i]` is the frame that
/// carried `records[i]`, as it arrived. The journal is contiguous by
/// construction — [`RestoreJournal::append`] only accepts the next index —
/// so `records.len()` is always the first missing chunk.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RestoreJournal {
    image_id: u64,
    records: Vec<ChunkRecord>,
    frames: Vec<Vec<u8>>,
}

impl RestoreJournal {
    /// Open an empty journal for the image identified by `image_id`.
    pub fn new(image_id: u64) -> Self {
        RestoreJournal {
            image_id,
            records: Vec::new(),
            frames: Vec::new(),
        }
    }

    /// The image this journal belongs to.
    pub fn image_id(&self) -> u64 {
        self.image_id
    }

    /// Record one verified chunk and the frame that carried it.
    /// `record.index` must be exactly the next chunk (journals have no
    /// holes). The caller has verified the frame; [`RestoreJournal::payload`]
    /// verifies it again before it is replayed.
    pub fn append(&mut self, record: ChunkRecord, frame: Vec<u8>) -> Result<(), XdrError> {
        if record.index as usize != self.records.len() {
            return Err(XdrError::BadMagic(record.index));
        }
        self.records.push(record);
        self.frames.push(frame);
        Ok(())
    }

    /// The first chunk index not yet journaled.
    pub fn next_chunk(&self) -> u32 {
        self.records.len() as u32
    }

    /// All journaled records, in stream order.
    pub fn records(&self) -> &[ChunkRecord] {
        &self.records
    }

    /// The decoded payload of journaled chunk `chunk`, expanded from its
    /// frame. The frame must still parse, its CRC must still verify
    /// ([`XdrError::CrcMismatch`] otherwise), and its sequence number and
    /// `raw_len` must be its record's; a frame that fails any check is
    /// refused, never expanded. Panics if `chunk` is not journaled.
    pub fn payload(&self, chunk: u32) -> Result<Vec<u8>, XdrError> {
        let (record, frame) = (&self.records[chunk as usize], &self.frames[chunk as usize]);
        let view = view_chunk(frame)?;
        view.verify_crc().map_err(|actual| XdrError::CrcMismatch {
            expected: view.crc,
            actual,
        })?;
        if view.seq != record.index {
            return Err(XdrError::BadMagic(view.seq));
        }
        if view.raw_len != record.raw_len {
            return Err(XdrError::LengthTooLarge(view.raw_len));
        }
        view.expand()
    }

    /// Total decoded bytes held — exactly the bytes a resume avoids
    /// re-sending.
    pub fn raw_bytes(&self) -> u64 {
        self.records.iter().map(|r| r.raw_len as u64).sum()
    }

    /// Total wire bytes the journaled chunks cost to transfer.
    pub fn wire_bytes(&self) -> u64 {
        self.records.iter().map(|r| r.wire_len as u64).sum()
    }

    /// True once the stream terminator has been journaled.
    pub fn is_complete(&self) -> bool {
        self.records
            .last()
            .is_some_and(|r| r.phase == RestorePhase::Terminator)
    }

    /// The handshake digest over everything journaled so far.
    pub fn digest(&self) -> u64 {
        records_digest(&self.records)
    }

    /// Deterministic fault injection: corrupt the CRC of record `index` so
    /// the journal's digest no longer matches the sender's ledger. Models
    /// an attacker (or bit rot) altering a journaled record; the resume
    /// handshake must reject it. No-op when the journal is shorter than
    /// `index`.
    pub fn tamper_record(&mut self, index: usize) {
        if let Some(r) = self.records.get_mut(index) {
            r.crc ^= 0x8000_0001;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::frame_chunk;

    /// The payload of chunk `i` of [`sample`]: compressible when `i` is
    /// even, so the journal holds compressed and stored frames.
    fn payload_of(i: u32) -> Vec<u8> {
        match i % 2 {
            0 => vec![i as u8; 64 + i as usize],
            _ => (0..(i as usize + 1) * 3)
                .map(|k| (k * 37 + 11) as u8)
                .collect(),
        }
    }

    /// Chunk `index` framed as a sender frames it, and its record.
    fn framed(index: u32, payload: &[u8]) -> (ChunkRecord, Vec<u8>) {
        let (frame, wire_len, crc) = frame_chunk(index, false, payload, true);
        let record = ChunkRecord {
            index,
            raw_len: payload.len() as u32,
            wire_len: wire_len as u32,
            crc,
            phase: RestorePhase::for_chunk(index, false),
        };
        (record, frame)
    }

    fn sample() -> RestoreJournal {
        let mut j = RestoreJournal::new(image_id(b"prefix-bytes"));
        for i in 0..5u32 {
            let (record, frame) = framed(i, &payload_of(i));
            j.append(record, frame).unwrap();
        }
        j
    }

    #[test]
    fn append_enforces_contiguity() {
        let mut j = RestoreJournal::new(1);
        let (rec, frame) = framed(1, &[0; 8]);
        assert!(j.append(rec, frame).is_err(), "hole rejected");
        let (rec0, frame0) = framed(0, &[0; 8]);
        assert!(j.append(rec0, frame0).is_ok());
        assert_eq!(j.next_chunk(), 1);
    }

    /// A journal of frames, compressed and stored, replays each chunk's
    /// payload byte for byte.
    #[test]
    fn a_journal_of_frames_replays_byte_identical_payloads() {
        let j = sample();
        for i in 0..j.next_chunk() {
            assert_eq!(j.payload(i), Ok(payload_of(i)), "chunk {i}");
        }
        let compressed = (j.records().iter()).filter(|r| r.wire_len < r.raw_len);
        assert_eq!(compressed.count(), 3, "chunks 0, 2 and 4 travel compressed");
        assert_eq!(
            j.raw_bytes(),
            (0..5).map(|i| payload_of(i).len() as u64).sum()
        );
    }

    /// A journaled frame damaged in any byte after it was appended is
    /// refused on replay, never expanded; damage to the wire payload is a
    /// CRC refusal by name. A frame that does not belong to its record is
    /// refused too.
    #[test]
    fn a_frame_damaged_after_append_is_refused_never_restored() {
        let j = sample();
        for i in [0u32, 1] {
            let frame = &j.frames[i as usize];
            let body = 20..20 + j.records[i as usize].wire_len as usize;
            for at in 0..frame.len() {
                let mut damaged = j.clone();
                damaged.frames[i as usize][at] ^= 0x10;
                let got = damaged.payload(i);
                assert!(got.is_err(), "chunk {i} byte {at} replayed: {got:?}");
                if body.contains(&at) {
                    assert!(
                        matches!(got, Err(XdrError::CrcMismatch { .. })),
                        "chunk {i} byte {at}: {got:?}"
                    );
                }
            }
        }
        let mut swapped = j.clone();
        swapped.frames.swap(1, 3);
        assert_eq!(swapped.payload(1), Err(XdrError::BadMagic(3)));
    }

    #[test]
    fn digest_is_order_and_field_sensitive() {
        let j = sample();
        let base = j.digest();
        let mut tampered = j.clone();
        tampered.tamper_record(2);
        assert_ne!(tampered.digest(), base);
        // A prefix of the records digests differently from the whole.
        assert_ne!(records_digest(&j.records()[..3]), base);
        // Empty journals of different images share the empty digest but not
        // the image id.
        assert_eq!(
            RestoreJournal::new(1).digest(),
            RestoreJournal::new(2).digest()
        );
    }

    #[test]
    fn completeness_follows_the_terminator() {
        let mut j = sample();
        assert!(!j.is_complete());
        let n = j.next_chunk();
        let (frame, _, crc) = frame_chunk(n, true, &[], true);
        let record = ChunkRecord {
            index: n,
            raw_len: 0,
            wire_len: 0,
            crc,
            phase: RestorePhase::Terminator,
        };
        j.append(record, frame).unwrap();
        assert!(j.is_complete());
        assert_eq!(j.payload(n), Ok(Vec::new()));
    }

    #[test]
    fn image_id_depends_on_prefix_bytes() {
        assert_ne!(image_id(b"a"), image_id(b"b"));
        assert_ne!(image_id(b""), image_id(b"\0"));
        assert_eq!(image_id(b"same"), image_id(b"same"));
    }

    #[test]
    fn phase_derivation_matches_stream_position() {
        assert_eq!(RestorePhase::for_chunk(0, false), RestorePhase::Prefix);
        assert_eq!(RestorePhase::for_chunk(3, false), RestorePhase::Payload);
        assert_eq!(RestorePhase::for_chunk(9, true), RestorePhase::Terminator);
        assert_eq!(RestorePhase::Prefix.to_string(), "prefix");
    }
}
