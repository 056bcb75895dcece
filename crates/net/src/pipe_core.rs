//! The chunk stream's protocol, with no I/O: a [`SenderCore`] that frames
//! each chunk once and keeps the send ledger, and a [`ReceiverCore`] that
//! releases a frame only when its CRC verifies and its sequence number is
//! the next one. Neither holds a link, a channel, a clock, a thread, a
//! lock or a log track, so the same code runs under the threaded
//! endpoints ([`crate::ReliableChunkSender`] /
//! [`crate::ReliableChunkReceiver`]) and under the exhaustive search of
//! `tests/model_gate.rs`, which feeds it real frame bytes.
//!
//! The link is the paper's: an ordered pipe that can break (PAPER.md,
//! "TCP or a file"). It delivers frames in order and exactly once, or it
//! delivers a damaged frame, or it ends. So there is nothing to heal:
//! every frame the receiver cannot take — a bad CRC, a gap, a repeat, a
//! frame that does not parse — ends the connection with a named error,
//! and the degradation ladder above decides what happens next (resume
//! from the destination's journal, or on the source). On a clean link
//! the protocol costs nothing beyond the frame itself.
//!
//! Both cores derive `Clone + Eq + Hash`: their state is protocol state
//! only, so two model states that differ only in a counter are one state.

use crate::channel::NetError;
use hpm_xdr::{
    frame_chunk, records_digest, view_chunk, ChunkRecord, Control, RestoreJournal, RestorePhase,
};

/// The former ARQ tuning of both endpoints. The pipe has no window, no
/// retries and no backoff, so it carries nothing; the endpoints still
/// take one so the benchmark's calls keep compiling.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct ArqConfig;

/// The sender's verdict on a destination's resume request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResumeDecision {
    /// The journal digest matched the send ledger: the transfer restarts
    /// at `next` and every earlier chunk is skipped.
    Accepted {
        /// First chunk that will actually cross the wire.
        next: u32,
        /// Decoded payload bytes the resume avoids re-sending.
        bytes_saved_raw: u64,
        /// Wire payload bytes the resume avoids re-sending.
        bytes_saved_wire: u64,
    },
    /// The request failed validation; the caller must fall back to a
    /// clean full restart — never splice onto an unverified base.
    Rejected(ResumeReject),
}

/// Why a resume request was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResumeReject {
    /// The journal describes a different image than this stream carries.
    ImageMismatch,
    /// The journal claims more chunks than the sender ever shipped.
    BadRange,
    /// The journal digest disagrees with the sender's send ledger
    /// (tampering or divergence).
    DigestMismatch,
}

/// The sending half of the protocol: sequence numbers, the send ledger
/// and the resume check.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct SenderCore {
    next_seq: u32,
    /// One record per chunk framed, mirroring what a journaling receiver
    /// records. Resume digests validate against it.
    records: Vec<ChunkRecord>,
}

impl SenderCore {
    /// Sequence number the next chunk will carry.
    pub fn chunks_sent(&self) -> u32 {
        self.next_seq
    }

    /// The send ledger, in sequence order.
    pub fn records(&self) -> &[ChunkRecord] {
        &self.records
    }

    /// Event: a chunk is offered. Frames it once — through the block
    /// coder, stored when that is not smaller — records it in the ledger,
    /// and returns the frame to ship.
    pub fn offer(&mut self, payload: &[u8], last: bool) -> Vec<u8> {
        let seq = self.next_seq;
        let (frame, wire_len, crc) = frame_chunk(seq, last, payload, true);
        self.next_seq += 1;
        self.records.push(ChunkRecord {
            index: seq,
            raw_len: payload.len() as u32,
            wire_len: wire_len as u32,
            crc,
            phase: RestorePhase::for_chunk(seq, last),
        });
        frame
    }

    /// Event: a destination's resume request, checked against `ledger` as
    /// [`crate::ReliableChunkSender::accept_resume`] describes.
    pub fn on_resume(
        &mut self,
        request: Control,
        image_id: u64,
        ledger: &[ChunkRecord],
    ) -> Result<ResumeDecision, NetError> {
        assert_eq!(
            self.next_seq, 0,
            "resume handshake only precedes a stream, never splices into one"
        );
        let Control::Resume {
            image_id: claimed_id,
            next,
            digest,
        } = request;
        let reject = |reason| Ok(ResumeDecision::Rejected(reason));
        let skipped = match ledger.get(..next as usize) {
            _ if claimed_id != image_id => return reject(ResumeReject::ImageMismatch),
            None => return reject(ResumeReject::BadRange),
            Some(s) if records_digest(s) != digest => return reject(ResumeReject::DigestMismatch),
            Some(s) => s,
        };
        self.records = skipped.to_vec();
        self.next_seq = next;
        Ok(ResumeDecision::Accepted {
            next,
            bytes_saved_raw: skipped.iter().map(|r| r.raw_len as u64).sum(),
            bytes_saved_wire: skipped.iter().map(|r| r.wire_len as u64).sum(),
        })
    }
}

/// Why the receiver core refused a frame. Every refusal ends the
/// connection, as the [`NetError`] it converts into.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Refused {
    /// The frame failed its CRC. `seq` is the word as it arrived; it may
    /// be the damage.
    Corrupt { seq: u32, next: u32 },
    /// A verified frame other than the next in sequence: a repeat below
    /// `next`, or a gap above it.
    OutOfSequence { seq: u32, next: u32 },
    /// The frame does not parse, or its verified payload does not expand
    /// to its `raw_len`.
    Malformed(NetError),
}

impl From<Refused> for NetError {
    fn from(refused: Refused) -> NetError {
        let (chunk, reason) = match refused {
            Refused::Malformed(e) => return e,
            Refused::Corrupt { seq, next } => {
                (next, format!("frame failed its CRC (sequence word {seq})"))
            }
            Refused::OutOfSequence { seq, next } if seq < next => {
                (next, format!("repeat of chunk {seq}"))
            }
            Refused::OutOfSequence { seq, next } => (next, format!("gap: chunk {seq} arrived")),
        };
        NetError::ChunkFraming { chunk, reason }
    }
}

/// The receiving half of the protocol: CRC verdicts and in-order release.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct ReceiverCore {
    /// The one sequence number the next frame may carry.
    next: u32,
}

impl ReceiverCore {
    /// Chunks released so far (on a resumed stream, the resume point
    /// included).
    pub fn next(&self) -> u32 {
        self.next
    }

    /// Event: a resuming stream starts. The stream begins at
    /// `journal.next_chunk()`, and the returned request asks the sender,
    /// with the journal digest, to resume there; the journaled chunks are
    /// replayed locally by the caller, never over the wire.
    pub fn resume(&mut self, journal: &RestoreJournal) -> Control {
        self.next = journal.next_chunk();
        Control::Resume {
            image_id: journal.image_id(),
            next: self.next,
            digest: journal.digest(),
        }
    }

    /// Event: frame bytes arrived. The frame is released — its journal
    /// record and decoded payload, in that order the caller's — only when
    /// it parses, its CRC (over header and wire bytes) verifies, its
    /// sequence number is `next` and its payload expands to exactly
    /// `raw_len` bytes. Anything else is refused, and the refusal ends
    /// the connection. The frame is read where it lies: the only copy of
    /// its payload is the expansion the caller receives.
    pub fn on_frame(&mut self, raw: &[u8]) -> Result<(ChunkRecord, Vec<u8>), Refused> {
        let next = self.next;
        let malformed = |reason: String| {
            Refused::Malformed(NetError::ChunkFraming {
                chunk: next,
                reason,
            })
        };
        let parsed = view_chunk(raw).map_err(|e| malformed(e.to_string()))?;
        let seq = parsed.seq;
        if parsed.verify_crc().is_err() {
            return Err(Refused::Corrupt { seq, next });
        }
        if seq != next {
            return Err(Refused::OutOfSequence { seq, next });
        }
        let record = ChunkRecord {
            index: seq,
            raw_len: parsed.raw_len,
            wire_len: parsed.payload.len() as u32,
            crc: parsed.crc,
            phase: RestorePhase::for_chunk(seq, parsed.last),
        };
        // The CRC has passed, so a payload that does not expand to its
        // `raw_len` was framed wrong at the source.
        let payload = parsed
            .expand()
            .map_err(|e| malformed(format!("payload failed to expand: {e}")))?;
        self.next += 1;
        Ok((record, payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stored(seq: u32, payload: &[u8]) -> Vec<u8> {
        frame_chunk(seq, false, payload, false).0
    }

    /// The sender frames each chunk once, as the receiver releases it:
    /// both ledgers agree record for record, and a payload the coder
    /// shrinks travels compressed while one it cannot travels stored.
    #[test]
    fn frames_the_sender_offers_are_released_in_order() {
        let mut tx = SenderCore::default();
        let mut rx = ReceiverCore::default();
        for i in 0..5u8 {
            let chunk: Vec<u8> = match i % 2 {
                0 => vec![i; 24],
                _ => vec![i],
            };
            let frame = tx.offer(&chunk, i == 4);
            let (record, payload) = rx.on_frame(&frame).unwrap();
            assert_eq!(payload, chunk);
            assert_eq!(record, tx.records()[i as usize]);
            let compressed = view_chunk(&frame).unwrap().compressed;
            assert_eq!(compressed, record.wire_len < record.raw_len, "chunk {i}");
            assert_eq!(compressed, i % 2 == 0, "chunk {i}");
        }
        assert_eq!((tx.chunks_sent(), rx.next()), (5, 5));
    }

    /// A damaged `seq`, `flags` or `raw_len` word, a damaged payload byte
    /// and a damaged CRC are all one verdict: the frame failed its CRC,
    /// nothing is released, and the refusal names the chunk awaited.
    #[test]
    fn any_damaged_word_is_a_crc_refusal_naming_the_awaited_chunk() {
        let intact = stored(1, &[1; 8]);
        for at in [7, 11, 15, 20, intact.len() - 1] {
            let mut rx = ReceiverCore::default();
            rx.on_frame(&stored(0, &[0; 8])).unwrap();
            let mut damaged = intact.clone();
            damaged[at] ^= 1;
            let seq = u32::from_be_bytes(damaged[4..8].try_into().unwrap());
            let refused = rx.on_frame(&damaged).unwrap_err();
            assert_eq!(refused, Refused::Corrupt { seq, next: 1 }, "byte {at}");
            assert_eq!(rx.next(), 1, "byte {at}: nothing released");
            match NetError::from(refused) {
                NetError::ChunkFraming { chunk: 1, reason } => assert!(reason.contains("CRC")),
                other => panic!("byte {at}: {other:?}"),
            }
        }
    }

    /// A verified frame out of sequence ends the connection: a repeat and
    /// a gap are each named.
    #[test]
    fn a_repeat_and_a_gap_are_refused_by_name() {
        for (seq, name) in [(0, "repeat of chunk 0"), (2, "gap: chunk 2 arrived")] {
            let mut rx = ReceiverCore::default();
            rx.on_frame(&stored(0, &[0; 4])).unwrap();
            let refused = rx.on_frame(&stored(seq, &[9; 4])).unwrap_err();
            assert_eq!(refused, Refused::OutOfSequence { seq, next: 1 });
            match NetError::from(refused) {
                NetError::ChunkFraming { chunk: 1, reason } => assert_eq!(reason, name),
                other => panic!("{other:?}"),
            }
        }
    }
}
