//! # Restore journal — the destination's record of a partially-received image
//!
//! The destination side of a migration appends one [`ChunkRecord`] to a
//! [`RestoreJournal`] for every chunk that survived CRC verification,
//! together with the decoded payload bytes. If the destination process dies
//! mid-restore, the journal is all that is needed to rebuild it: the decoded
//! payloads are replayed locally through the normal restore path (never a
//! splice into partially-restored state), and a [`crate::Control::Resume`]
//! handshake tells the sender to restart the wire transfer at
//! [`RestoreJournal::next_chunk`] instead of chunk 0.
//!
//! The journal lives in memory beside the destination and has no byte
//! format of its own.
//!
//! ## Integrity model
//!
//! Two independent checks guard against resuming onto a corrupt base:
//!
//! 1. **Append contiguity and length** ([`RestoreJournal::append`]): a
//!    record is accepted only as the next chunk, with a payload of its
//!    record's `raw_len`, so the journal is always a hole-free prefix of
//!    the stream.
//! 2. **The handshake digest** ([`RestoreJournal::digest`]): a chained hash
//!    over every record (index, lengths, CRC, phase). The sender recomputes
//!    the same digest from its own send ledger; any disagreement — a tampered
//!    journal, a divergent stream — rejects the resume rather than splicing.

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
/// Records and decoded payloads are kept aligned: `payloads[i]` is the raw
/// (post-decompression) bytes of `records[i]`. The journal is contiguous by
/// construction — [`RestoreJournal::append`] only accepts the next index —
/// so `records.len()` is always the first missing chunk.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RestoreJournal {
    image_id: u64,
    records: Vec<ChunkRecord>,
    payloads: Vec<Vec<u8>>,
}

impl RestoreJournal {
    /// Open an empty journal for the image identified by `image_id`.
    pub fn new(image_id: u64) -> Self {
        RestoreJournal {
            image_id,
            records: Vec::new(),
            payloads: Vec::new(),
        }
    }

    /// The image this journal belongs to.
    pub fn image_id(&self) -> u64 {
        self.image_id
    }

    /// Record one verified chunk. `record.index` must be exactly the next
    /// chunk (journals have no holes) and `payload` must match
    /// `record.raw_len`.
    pub fn append(&mut self, record: ChunkRecord, payload: Vec<u8>) -> Result<(), XdrError> {
        if record.index as usize != self.records.len() {
            return Err(XdrError::BadMagic(record.index));
        }
        if payload.len() != record.raw_len as usize {
            return Err(XdrError::LengthTooLarge(record.raw_len));
        }
        self.records.push(record);
        self.payloads.push(payload);
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

    /// Decoded payload bytes of the journaled chunks, in stream order.
    pub fn payloads(&self) -> &[Vec<u8>] {
        &self.payloads
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
    use crate::chunk::crc32;

    fn sample() -> RestoreJournal {
        let mut j = RestoreJournal::new(image_id(b"prefix-bytes"));
        for i in 0..5u32 {
            let payload = vec![i as u8; (i as usize + 1) * 3];
            j.append(
                ChunkRecord {
                    index: i,
                    raw_len: payload.len() as u32,
                    wire_len: payload.len() as u32 + 24,
                    crc: crc32(&payload),
                    phase: RestorePhase::for_chunk(i, false),
                },
                payload,
            )
            .unwrap();
        }
        j
    }

    #[test]
    fn append_enforces_contiguity_and_lengths() {
        let mut j = RestoreJournal::new(1);
        let rec = ChunkRecord {
            index: 1,
            raw_len: 2,
            wire_len: 2,
            crc: 0,
            phase: RestorePhase::Payload,
        };
        assert!(j.append(rec, vec![0, 0]).is_err(), "hole rejected");
        let rec0 = ChunkRecord { index: 0, ..rec };
        assert!(j.append(rec0, vec![0]).is_err(), "length mismatch rejected");
        assert!(j.append(rec0, vec![0, 0]).is_ok());
        assert_eq!(j.next_chunk(), 1);
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
        j.append(
            ChunkRecord {
                index: n,
                raw_len: 0,
                wire_len: 0,
                crc: 0,
                phase: RestorePhase::Terminator,
            },
            Vec::new(),
        )
        .unwrap();
        assert!(j.is_complete());
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
