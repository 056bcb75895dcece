//! The ARQ protocol itself, with no I/O: a stop-and-wait-free sliding
//! window — cumulative ACKs plus targeted NACKs, bounded
//! exponential-backoff retransmission — as a [`SenderCore`] and a
//! [`ReceiverCore`] that each take one event and return the actions it
//! calls for. Neither holds a link, a channel, a clock, a thread, a lock
//! or a log track, so the same code runs under the threaded endpoints
//! ([`crate::ReliableChunkSender`] / [`crate::ReliableChunkReceiver`])
//! and under `hpm-model`'s exhaustive search, which feeds it real frame
//! bytes. On a clean link the protocol costs one ack per frame.
//!
//! The forward (data) path may be lossy — typically a
//! [`FaultyEndpoint`](crate::FaultyEndpoint) — while the reverse
//! (control) path is clean, so acknowledgements are reliable and FIFO:
//!
//! - The sender assigns sequence numbers, keeps every unacknowledged
//!   frame in a bounded replay window, and blocks when the window fills.
//! - The receiver tracks the highest contiguous sequence (`next`) and
//!   buffers out-of-order frames within one window. Duplicates and
//!   reordering inside the window are absorbed (counted, not errored). A
//!   damaged frame — any header word or payload byte — fails its CRC and
//!   is healed like a dropped one. Every valid arrival is answered with a
//!   cumulative `Ack { next }`; the first time a gap names a missing
//!   sequence, a `Nack { seq }` asks for exactly that frame.
//! - When the control path goes silent while frames are outstanding, the
//!   sender retransmits the oldest unacknowledged frame under
//!   exponential backoff. Each frame has a bounded retransmit budget;
//!   exhausting it surfaces [`NetError::RetriesExhausted`] so the caller
//!   can fall back instead of hanging.
//!
//! Both cores derive `Clone + Eq + Hash`: their state is protocol state
//! only. Counters, histograms and log events are kept by whoever drives a
//! core, read off the actions it returns — so two model states that
//! differ only in a counter are one state. Every event returns a list of
//! actions, applied in order; a `Fail` action is always the last one.

use crate::channel::NetError;
use hpm_xdr::{
    frame_chunk, records_digest, unframe_chunk_any, unframe_control, ChunkRecord, Control,
    RestoreJournal, RestorePhase,
};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::Duration;

/// Tuning knobs shared by both ARQ endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArqConfig {
    /// Replay/accept window in frames.
    pub window: u32,
    /// Retransmissions allowed per frame before giving up.
    pub max_retries: u32,
    /// First backoff step; doubles per consecutive silent round.
    pub base_backoff: Duration,
}

impl Default for ArqConfig {
    fn default() -> Self {
        ArqConfig {
            window: 32,
            max_retries: 8,
            base_backoff: Duration::from_millis(4),
        }
    }
}

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

/// What the sender core asks its driver to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SenderAction {
    /// Put chunk `seq`'s frame on the wire — the same bytes on every
    /// copy: its first copy when `retry` is 0, otherwise its `retry`-th
    /// retransmission.
    Send {
        seq: u32,
        retry: u32,
        frame: Vec<u8>,
    },
    /// A silent round: the modeled wait charged before the retransmission
    /// (or the failure) that follows.
    Backoff(Duration),
    /// A cumulative ack up to `next` retired `pruned` chunks from the
    /// replay window.
    Acked { next: u32, pruned: u32 },
    /// A NACK was processed (stale or not).
    Nacked,
    /// The stream is dead.
    Fail(NetError),
}

/// What the sender does next, decided by the intact-deliveries ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wait {
    /// Nothing to wait for: the window has room (or, draining, is empty).
    Ready,
    /// A control frame is owed — every intact copy earns one ack and
    /// fewer have been processed — so block for it.
    Control,
    /// The ledger balances with the window occupied: the outstanding
    /// copies are gone, so take the timeout now.
    Timeout,
}

/// One shipped, not yet acknowledged frame.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Unacked {
    seq: u32,
    frame: Vec<u8>,
    /// Retransmissions so far (0 = only the original send).
    retries: u32,
}

/// The sending half of the protocol: sequence numbers, the bounded
/// replay window, the send ledger, ack/nack handling, retransmission
/// budgets and the resume check.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SenderCore {
    cfg: ArqConfig,
    next_seq: u32,
    window: VecDeque<Unacked>,
    /// One record per distinct chunk shipped, mirroring what a
    /// journaling receiver records. Resume digests validate against it.
    records: Vec<ChunkRecord>,
    /// Every chunk below this was confirmed received.
    acked_next: u32,
    /// Acks processed: the side of the ledger intact deliveries balance.
    acks: u64,
}

impl SenderCore {
    /// A fresh stream at sequence 0.
    pub fn new(cfg: ArqConfig) -> Self {
        SenderCore {
            cfg,
            next_seq: 0,
            window: VecDeque::new(),
            records: Vec::new(),
            acked_next: 0,
            acks: 0,
        }
    }

    /// Sequence number the next chunk will carry.
    pub fn chunks_sent(&self) -> u32 {
        self.next_seq
    }

    /// Cumulative acknowledgement high-water mark.
    pub fn acked_chunks(&self) -> u32 {
        self.acked_next
    }

    /// Frames in the replay window (shipped, not yet acked).
    pub fn window_len(&self) -> usize {
        self.window.len()
    }

    /// The send ledger, in sequence order.
    pub fn records(&self) -> &[ChunkRecord] {
        &self.records
    }

    /// Event: a chunk is offered. Frames it — through the block coder
    /// when `compress` and that shrinks it — once: the frame is kept, so
    /// retransmissions resend the same bytes. Records it in the ledger and
    /// the window, and sends its first copy.
    pub fn offer(&mut self, payload: &[u8], last: bool, compress: bool) -> Vec<SenderAction> {
        let seq = self.next_seq;
        let (frame, wire_len, crc) = frame_chunk(seq, last, payload, compress);
        self.next_seq += 1;
        self.records.push(ChunkRecord {
            index: seq,
            raw_len: payload.len() as u32,
            wire_len: wire_len as u32,
            crc,
            phase: RestorePhase::for_chunk(seq, last),
        });
        self.window.push_back(Unacked {
            seq,
            frame: frame.clone(),
            retries: 0,
        });
        vec![SenderAction::Send {
            seq,
            retry: 0,
            frame,
        }]
    }

    /// The ledger's decision. `intact` is the number of frame copies the
    /// link delivered undamaged; `draining` means no chunk will be
    /// offered any more, so only an empty window is `Ready`.
    pub fn wait(&self, intact: u64, draining: bool) -> Wait {
        let room = !draining && self.window.len() < self.cfg.window as usize;
        if self.window.is_empty() || room {
            Wait::Ready
        } else if intact > self.acks {
            Wait::Control
        } else {
            Wait::Timeout
        }
    }

    /// Event: control bytes arrived on the reverse path.
    pub fn on_control(&mut self, raw: &[u8]) -> Vec<SenderAction> {
        let ctrl = match unframe_control(raw) {
            Ok(ctrl) => ctrl,
            Err(e) => return vec![self.framing(format!("bad control frame: {e}"))],
        };
        match ctrl {
            Control::Ack { next } => {
                self.acks += 1;
                self.acked_next = self.acked_next.max(next);
                let pruned = self.window.iter().take_while(|w| w.seq < next).count();
                self.window.drain(..pruned);
                vec![SenderAction::Acked {
                    next,
                    pruned: pruned as u32,
                }]
            }
            Control::Nack { seq } => {
                // Stale NACKs (frame already acked and pruned) are ignored.
                let at = self.window.iter().position(|w| w.seq == seq);
                let mut out = vec![SenderAction::Nacked];
                out.extend(at.map(|i| self.retransmit(i)));
                out
            }
            // The handshake is only legal before the stream starts (see
            // `on_resume`); mid-stream it means the peers have lost
            // protocol agreement.
            Control::Resume { .. } => {
                vec![self.framing("unexpected resume handshake mid-stream".into())]
            }
        }
    }

    /// Event: the ledger balanced with the window occupied. The base
    /// frame is retransmitted, its backoff doubling per retry it has
    /// already burned.
    pub fn on_timeout(&mut self) -> Vec<SenderAction> {
        let Some(base) = self.window.front() else {
            return Vec::new();
        };
        let wait = self.cfg.base_backoff * 2u32.saturating_pow(base.retries.min(10));
        vec![SenderAction::Backoff(wait), self.retransmit(0)]
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
        } = request
        else {
            return Err(NetError::ChunkFraming {
                chunk: 0,
                reason: format!("expected a resume handshake, got {request:?}"),
            });
        };
        let reject = |reason| Ok(ResumeDecision::Rejected(reason));
        let skipped = match ledger.get(..next as usize) {
            _ if claimed_id != image_id => return reject(ResumeReject::ImageMismatch),
            None => return reject(ResumeReject::BadRange),
            Some(s) if records_digest(s) != digest => return reject(ResumeReject::DigestMismatch),
            Some(s) => s,
        };
        self.records = skipped.to_vec();
        self.next_seq = next;
        self.acked_next = next;
        Ok(ResumeDecision::Accepted {
            next,
            bytes_saved_raw: skipped.iter().map(|r| r.raw_len as u64).sum(),
            bytes_saved_wire: skipped.iter().map(|r| r.wire_len as u64).sum(),
        })
    }

    /// Retransmit window entry `at`, or fail once its budget is spent.
    fn retransmit(&mut self, at: usize) -> SenderAction {
        let entry = &mut self.window[at];
        let retry = entry.retries + 1;
        if retry > self.cfg.max_retries {
            return SenderAction::Fail(NetError::RetriesExhausted {
                chunk: entry.seq,
                attempts: retry,
                acked: self.acked_next,
            });
        }
        entry.retries = retry;
        SenderAction::Send {
            seq: entry.seq,
            retry,
            frame: entry.frame.clone(),
        }
    }

    fn framing(&self, reason: String) -> SenderAction {
        let chunk = self.window.front().map_or(self.next_seq, |w| w.seq);
        SenderAction::Fail(NetError::ChunkFraming { chunk, reason })
    }
}

/// What the receiver core asks its driver to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReceiverAction {
    /// A frame failed its CRC: counted, then left for the gap-NACK or
    /// the sender's timeout to heal, exactly like a dropped one. `seq` is
    /// the word as it arrived; it may be the damage.
    Corrupt { seq: u32 },
    /// A copy of chunk `seq`, below `next`: absorbed and re-acked.
    Duplicate { seq: u32 },
    /// Verified chunk `seq` arrived inside the window: `in_order` when it
    /// was `next` (so it and the buffer behind it are released), `copy`
    /// when it was already buffered, `late` when a higher sequence had
    /// arrived first.
    Arrived {
        seq: u32,
        in_order: bool,
        copy: bool,
        late: bool,
    },
    /// Hand `payload` to the restorer, after journaling `record`.
    Release {
        record: ChunkRecord,
        payload: Vec<u8>,
    },
    /// Put a control frame on the reverse path.
    Send(Control),
    /// The stream is dead.
    Fail(NetError),
}

/// The receiving half of the protocol: CRC verdicts, in-order release,
/// the out-of-order buffer, cumulative acks and one NACK per gap.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ReceiverCore {
    window: u32,
    /// Next expected (highest contiguous + 1) sequence.
    next: u32,
    /// Verified chunks, journal record and payload, waiting for the gap
    /// below them to fill.
    ooo: BTreeMap<u32, (ChunkRecord, Vec<u8>)>,
    /// Sequences already NACKed — each missing frame is asked for once;
    /// after that the sender's timeout path owns recovery.
    nacked: BTreeSet<u32>,
}

impl ReceiverCore {
    /// A receiver expecting the stream to begin at sequence 0.
    pub fn new(cfg: ArqConfig) -> Self {
        ReceiverCore {
            window: cfg.window,
            next: 0,
            ooo: BTreeMap::new(),
            nacked: BTreeSet::new(),
        }
    }

    /// Highest contiguous sequence released so far.
    pub fn next(&self) -> u32 {
        self.next
    }

    /// Event: a resuming stream starts. The stream begins at
    /// `journal.next_chunk()` and the sender is asked, with the journal
    /// digest, to resume there; the journaled chunks are replayed locally
    /// by the caller, never over the wire.
    pub fn resume(&mut self, journal: &RestoreJournal) -> Vec<ReceiverAction> {
        self.next = journal.next_chunk();
        vec![ReceiverAction::Send(Control::Resume {
            image_id: journal.image_id(),
            next: self.next,
            digest: journal.digest(),
        })]
    }

    /// Event: frame bytes arrived. Duplicates and in-window reordering
    /// are absorbed; a damaged frame — any header word or payload byte —
    /// is counted and otherwise ignored; a frame beyond the window or one
    /// that does not parse is a hard error. Every verified arrival is
    /// acked, and a buffered frame above a missing one names the gap once.
    pub fn on_frame(&mut self, raw: &[u8]) -> Vec<ReceiverAction> {
        let parsed = match unframe_chunk_any(raw) {
            Ok(parsed) => parsed,
            Err(e) => return vec![self.fail(self.next, e.to_string())],
        };
        let seq = parsed.seq;
        if parsed.verify_crc().is_err() {
            // NACKing immediately would put the clean retransmission at a
            // wall-clock-dependent wire position and make the reorder
            // counter irreproducible.
            return vec![ReceiverAction::Corrupt { seq }];
        }
        if seq < self.next {
            // Re-ack so a sender that missed the original ack prunes.
            let ack = Control::Ack { next: self.next };
            return vec![ReceiverAction::Duplicate { seq }, ReceiverAction::Send(ack)];
        }
        if seq >= self.next + self.window {
            let reason = format!(
                "sequence {seq} outside the receive window (next {}, window {})",
                self.next, self.window
            );
            return vec![self.fail(seq, reason)];
        }
        // The CRC (over header and wire bytes) has passed, so a payload
        // that does not expand to its `raw_len` was framed wrong at the
        // source — a hard error, not retransmittable corruption.
        let record = ChunkRecord {
            index: seq,
            raw_len: parsed.raw_len,
            wire_len: parsed.payload.len() as u32,
            crc: parsed.crc,
            phase: RestorePhase::for_chunk(seq, parsed.last),
        };
        // Decoded, the payload is exactly `raw_len` bytes, or refused.
        let payload = match parsed.into_payload() {
            Ok(payload) => payload,
            Err(e) => return vec![self.fail(seq, format!("payload failed to expand: {e}"))],
        };
        let in_order = seq == self.next;
        let copy = !in_order && self.ooo.contains_key(&seq);
        // Every higher sequence that arrived earlier is still buffered:
        // nothing above a gap is released before the gap fills.
        let late = self.ooo.range(seq + 1..).next().is_some();
        let mut out = vec![ReceiverAction::Arrived {
            seq,
            in_order,
            copy,
            late,
        }];
        if in_order {
            let mut held = Some((record, payload));
            while let Some((record, payload)) = held {
                out.push(ReceiverAction::Release { record, payload });
                self.next += 1;
                held = self.ooo.remove(&self.next);
            }
        } else {
            self.ooo.entry(seq).or_insert((record, payload));
        }
        out.push(ReceiverAction::Send(Control::Ack { next: self.next }));
        if !self.ooo.is_empty() && self.nacked.insert(self.next) {
            out.push(ReceiverAction::Send(Control::Nack { seq: self.next }));
        }
        out
    }

    fn fail(&self, chunk: u32, reason: String) -> ReceiverAction {
        ReceiverAction::Fail(NetError::ChunkFraming { chunk, reason })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A peer that never answers: the sender core is fed offers, and a
    /// timeout whenever its ledger (no intact delivery ever) says so. The
    /// window bound holds at every step and the base frame exhausts its
    /// budget — pure window discipline, no link and no clock.
    #[test]
    fn window_never_exceeds_config_against_a_stalling_receiver() {
        let cfg = ArqConfig {
            window: 4,
            max_retries: 2,
            base_backoff: Duration::from_millis(1),
        };
        let mut core = SenderCore::new(cfg);
        let mut log = Vec::new();
        'offer: for i in 0..8u8 {
            log.extend(core.offer(&[i; 16], false, false));
            while core.wait(0, false) != Wait::Ready {
                assert_eq!(core.window_len(), 4, "full, never over-full");
                assert_eq!(core.wait(0, false), Wait::Timeout, "no control is owed");
                log.extend(core.on_timeout());
                if matches!(log.last(), Some(SenderAction::Fail(_))) {
                    break 'offer;
                }
            }
        }
        let count = |f: fn(&SenderAction) -> bool| log.iter().filter(|a| f(a)).count();
        // Wire copies: 4 fresh frames + 2 base retransmissions.
        assert_eq!(count(|a| matches!(a, SenderAction::Send { .. })), 6);
        let retransmits = count(|a| matches!(a, SenderAction::Send { retry: 1.., .. }));
        assert_eq!(retransmits, cfg.max_retries as usize);
        let timeouts = count(|a| matches!(a, SenderAction::Backoff(_)));
        assert_eq!(timeouts, cfg.max_retries as usize + 1);
        let exhausted = NetError::RetriesExhausted {
            chunk: 0,
            attempts: cfg.max_retries + 1,
            acked: 0,
        };
        assert_eq!(log.last(), Some(&SenderAction::Fail(exhausted)));
        // No fifth chunk was created while the window was full.
        assert_eq!(core.chunks_sent(), cfg.window);
    }

    /// A damaged `seq`, `flags` or `raw_len` word is a CRC catch: counted
    /// as corrupt, no release and no ack; the retransmission of the same
    /// frame is then accepted and released with the offered bytes.
    #[test]
    fn a_damaged_header_word_is_corrupt_then_the_retransmission_is_accepted() {
        let (intact, _, crc) = frame_chunk(1, false, &[1; 8], false);
        // The low bit of `seq`, of `flags` (the LAST bit) and of `raw_len`.
        for at in [7, 11, 15] {
            let mut rx = ReceiverCore::new(ArqConfig::default());
            rx.on_frame(&frame_chunk(0, false, &[0; 8], false).0);
            let mut damaged = intact.clone();
            damaged[at] ^= 1;
            let seq = u32::from_be_bytes(damaged[4..8].try_into().unwrap());
            assert_eq!(rx.on_frame(&damaged), [ReceiverAction::Corrupt { seq }]);
            assert_eq!(rx.next(), 1, "byte {at}: nothing released");
            let record = ChunkRecord {
                index: 1,
                raw_len: 8,
                wire_len: 8,
                crc,
                phase: RestorePhase::Payload,
            };
            let accepted = [
                ReceiverAction::Arrived {
                    seq: 1,
                    in_order: true,
                    copy: false,
                    late: false,
                },
                ReceiverAction::Release {
                    record,
                    payload: vec![1; 8],
                },
                ReceiverAction::Send(Control::Ack { next: 2 }),
            ];
            assert_eq!(rx.on_frame(&intact), accepted, "byte {at}");
        }
    }
}
