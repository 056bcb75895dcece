//! The chunk stream — the one way a payload crosses a link in pieces, so
//! the destination can start restoring while the source still collects.
//! Each chunk travels once, in the one chunk frame (`hpm_xdr::chunk`:
//! sequence number, flags, `raw_len` and payload under a trailing
//! CRC-32), compressed when the block coder shrinks it and stored
//! otherwise, over an ordered pipe that can break. The protocol is
//! [`SenderCore`] and [`ReceiverCore`], which `tests/model_gate.rs`
//! explores exhaustively; the endpoints here are the loops that drive the cores
//! over a link: they move bytes between a core and the link, keep the
//! counters and write the log events. Each endpoint is the only owner of
//! what it did: the sender counts its messages on its channel end and its
//! payload from its own send ledger, and a resuming receiver replays its
//! own journal before it reads the pipe.

use crate::channel::{Channel, NetError, TransferSnapshot};
use crate::fault::FaultyEndpoint;
use crate::pipe_core::{ArqConfig, ReceiverCore, Refused, ResumeDecision, SenderCore};
use hpm_obs::Track;
use hpm_xdr::{frame_control, unframe_control, ChunkRecord, RestoreJournal, RestorePhase};
use std::time::{Duration, Instant};

/// Ignored: every chunk frame tries the block coder and keeps the stored
/// form when that is not smaller. The values remain so that callers of
/// [`ReliableChunkSender::with_codec`] keep compiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireCodec {
    /// Ignored.
    #[default]
    V2,
    /// Ignored.
    V3,
}

/// Sender-side counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ArqSenderStats {
    /// Data frames the link accepted, terminator included.
    pub frames_sent: u64,
    /// Always 0: the pipe never sends a frame twice. Kept for the
    /// benchmark's `net.arq_retransmits` until it is re-cut.
    pub retransmits: u64,
}

/// Sending half of the chunk stream: a [`SenderCore`] driven over a
/// [`FaultyEndpoint`] (a clean one for a plain [`Channel`]). It is the
/// only owner of what it sent: its channel end counts the messages, and
/// its send ledger the payload.
pub struct ReliableChunkSender {
    link: FaultyEndpoint,
    core: SenderCore,
    /// Ledger records a resume adopted rather than framed.
    adopted: usize,
    track: Track,
    sends: Vec<(Duration, u64)>,
}

impl ReliableChunkSender {
    /// A fresh stream over `link`, starting at sequence 0. The
    /// [`ArqConfig`] carries nothing.
    pub fn new(link: impl Into<FaultyEndpoint>, _cfg: ArqConfig) -> Self {
        ReliableChunkSender {
            link: link.into(),
            core: SenderCore::default(),
            adopted: 0,
            track: Track::off(),
            sends: Vec::new(),
        }
    }

    /// Record protocol events on `track` (`chunk.sent`, `resume.*`).
    pub fn with_track(mut self, track: Track) -> Self {
        self.track = track;
        self
    }

    /// Ignored: see [`WireCodec`].
    pub fn with_codec(self, _codec: WireCodec) -> Self {
        self
    }

    /// Counters so far.
    pub fn stats(&self) -> ArqSenderStats {
        let frames_sent = self.sends.len() as u64;
        ArqSenderStats {
            frames_sent,
            retransmits: 0,
        }
    }

    /// Sequence number the next chunk will carry.
    pub fn chunks_sent(&self) -> u32 {
        self.core.chunks_sent()
    }

    /// The send ledger: one [`ChunkRecord`] per chunk framed, in sequence
    /// order. A later resume validates its journal digest against a
    /// prefix of this ledger.
    pub fn records(&self) -> &[ChunkRecord] {
        self.core.records()
    }

    /// For each frame the link took, in order: the time framing it (coder
    /// and CRC included) and handing it over took, and its bytes.
    pub fn sends(&self) -> &[(Duration, u64)] {
        &self.sends
    }

    /// What this end sent: its channel end's messages, and the payload
    /// of every chunk it framed itself — a frame the link then refused
    /// included, the prefix a resume adopted not.
    pub fn transfer(&self) -> TransferSnapshot {
        let framed = &self.core.records()[self.adopted..];
        TransferSnapshot {
            raw_payload_bytes: framed.iter().map(|r| r.raw_len as u64).sum(),
            wire_payload_bytes: framed.iter().map(|r| r.wire_len as u64).sum(),
            chunks_compressed: framed.iter().filter(|r| r.wire_len < r.raw_len).count() as u64,
            ..self.link.sent()
        }
    }

    /// Recover the link (e.g. to read injector stats after the stream).
    pub fn into_link(self) -> FaultyEndpoint {
        self.link
    }

    /// Take the destination's `Resume` handshake and validate it against
    /// `ledger`, the send ledger of the interrupted stream.
    ///
    /// The destination queues the handshake when it is built
    /// ([`ReliableChunkReceiver::new_resuming`]), before the source runs,
    /// so nothing here waits: a handshake that is not queued is
    /// [`NetError::MissingHandshake`].
    ///
    /// Must be called on a fresh sender (nothing shipped yet). On
    /// acceptance the stream fast-forwards: `next_seq` starts at the
    /// first chunk the destination is missing and the skipped prefix of
    /// `ledger` is adopted as this stream's own ledger. On rejection the
    /// sender is left untouched (still at sequence 0) so the caller can
    /// fall back to a clean full restart.
    pub fn accept_resume(
        &mut self,
        image_id: u64,
        ledger: &[ChunkRecord],
    ) -> Result<ResumeDecision, NetError> {
        let raw = self
            .link
            .try_recv_control()
            .ok_or(NetError::MissingHandshake)?;
        let request = unframe_control(&raw).map_err(|e| NetError::ChunkFraming {
            chunk: 0,
            reason: format!("bad resume handshake frame: {e}"),
        })?;
        let decision = self.core.on_resume(request, image_id, ledger)?;
        match decision {
            ResumeDecision::Accepted {
                next,
                bytes_saved_raw,
                ..
            } => {
                self.adopted = next as usize;
                let args = [("next", next as u64), ("bytes_saved", bytes_saved_raw)];
                self.track.event("resume.accepted", &args);
            }
            ResumeDecision::Rejected(why) => {
                let hpm_xdr::Control::Resume { next, .. } = request;
                let args = [("claimed_next", next as u64), ("reason", why as u64)];
                self.track.event("resume.rejected", &args);
            }
        }
        Ok(decision)
    }

    /// Frame and ship one payload chunk.
    pub fn send(&mut self, payload: &[u8]) -> Result<(), NetError> {
        self.ship(payload, false)
    }

    /// Terminate the stream with an empty LAST frame. Returns the total
    /// number of frames sent, terminator included.
    pub fn finish(&mut self) -> Result<u32, NetError> {
        self.ship(&[], true)?;
        Ok(self.core.chunks_sent())
    }

    fn ship(&mut self, payload: &[u8], last: bool) -> Result<(), NetError> {
        let t0 = Instant::now();
        let frame = self.core.offer(payload, last);
        let (chunk, bytes) = (self.core.chunks_sent() as u64 - 1, frame.len() as u64);
        self.link.send_frame(frame)?;
        self.sends.push((t0.elapsed(), bytes));
        self.track.event("chunk.sent", &[("chunk", chunk)]);
        Ok(())
    }
}

/// Receiver-side counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ArqReceiverSnapshot {
    /// Frames whose CRC failed (each one ended its connection).
    pub corrupt_caught: u64,
    /// Frames that arrived below the stream's starting sequence — on a
    /// resumed stream, already-verified chunks the sender wastefully
    /// re-sent. A correct resume keeps this at zero.
    pub replays_below_start: u64,
}

/// Receiving half of the chunk stream: a [`ReceiverCore`] driven over the
/// destination's channel end. A resuming receiver is also the
/// destination's replay of its journal.
pub struct ReliableChunkReceiver {
    ch: Channel,
    core: ReceiverCore,
    /// The sequence this stream started at (0, or the resume point).
    start: u32,
    /// Journaled chunks below `start` already handed out again.
    replayed: u32,
    done: bool,
    counters: ArqReceiverSnapshot,
    /// Durable journal this receiver appends every accepted chunk to.
    journal: Option<RestoreJournal>,
    /// Injected crash fault: die just before consuming this sequence.
    crash_at: Option<u32>,
    track: Track,
    waits: Vec<(Instant, Instant)>,
}

impl ReliableChunkReceiver {
    /// Wrap `ch`; the stream is expected to begin at sequence 0. The
    /// [`ArqConfig`] carries nothing.
    pub fn new(ch: Channel, _cfg: ArqConfig) -> Self {
        ReliableChunkReceiver {
            ch,
            core: ReceiverCore::default(),
            start: 0,
            replayed: 0,
            done: false,
            counters: ArqReceiverSnapshot::default(),
            journal: None,
            crash_at: None,
            track: Track::off(),
            waits: Vec::new(),
        }
    }

    /// Re-attach a rebuilt destination to an interrupted stream: the
    /// stream starts at `journal.next_chunk()` and the sender is asked to
    /// resume there via a [`hpm_xdr::Control::Resume`] handshake carrying
    /// the journal digest. The journaled chunks are replayed here, never
    /// over the wire: [`recv_chunk`](Self::recv_chunk) returns their
    /// payloads, in order, before its first pipe read, with no wait stamp,
    /// no `chunk.recv` event and no second journal append. The receiver
    /// journals the live chunks after them, as
    /// [`with_journal`](Self::with_journal) does.
    pub fn new_resuming(ch: Channel, journal: RestoreJournal) -> Result<Self, NetError> {
        let mut rx = ReliableChunkReceiver::new(ch, ArqConfig);
        let request = rx.core.resume(&journal);
        rx.start = rx.core.next();
        rx.ch.send(frame_control(request))?;
        Ok(rx.with_journal(journal))
    }

    /// Record every accepted chunk (and the frame it arrived in) in
    /// `journal`. The append happens at accept time — after CRC
    /// verification, in sequence — so the journal is always a
    /// contiguous, verified prefix of the stream.
    pub fn with_journal(mut self, journal: RestoreJournal) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Hand the journal back, as the receiver's process left it; it
    /// outlives the receiver, whatever ended the stream.
    pub fn into_journal(self) -> Option<RestoreJournal> {
        self.journal
    }

    /// Inject a destination crash: the receiver dies (with
    /// [`NetError::PeerCrashed`]) just before consuming sequence `seq`,
    /// leaving exactly `seq` chunks in its journal.
    pub fn with_crash_at(mut self, seq: Option<u32>) -> Self {
        self.crash_at = seq;
        self
    }

    /// Record protocol events on `track` (`chunk.recv`, `crc.fail`).
    pub fn with_track(mut self, track: Track) -> Self {
        self.track = track;
        self
    }

    /// Counters so far.
    pub fn counters(&self) -> ArqReceiverSnapshot {
        self.counters
    }

    /// Chunks received so far, in sequence.
    pub fn chunks_received(&self) -> u32 {
        self.core.next()
    }

    /// What this end sent: the resume handshake, if it resumed.
    pub fn transfer(&self) -> TransferSnapshot {
        self.ch.stats()
    }

    /// For each frame read off the pipe, in order: when the read was called
    /// and returned. Only that waits; the CRC check, decode and journal
    /// append after it are work.
    pub fn waits(&self) -> &[(Instant, Instant)] {
        &self.waits
    }

    /// Whether the LAST frame has been consumed.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Receive the next payload chunk; `Ok(None)` once the stream is
    /// complete. A resuming receiver first hands out its journal's
    /// payloads ([`new_resuming`](Self::new_resuming)). A frame the core
    /// refuses, a closed link and the injected crash each end the
    /// connection with a named error.
    pub fn recv_chunk(&mut self) -> Result<Option<Vec<u8>>, NetError> {
        if self.done {
            return Ok(None);
        }
        if self.replayed < self.start {
            // A journaled chunk: expanded again from its frame, not read
            // off the pipe. A frame damaged since it was journaled ends
            // the stream by name.
            let journal = self
                .journal
                .as_ref()
                .expect("a resuming receiver holds its journal");
            let chunk = self.replayed;
            let payload = journal.payload(chunk).map_err(|e| NetError::ChunkFraming {
                chunk,
                reason: format!("journaled frame refused: {e}"),
            })?;
            self.replayed += 1;
            return Ok(Some(payload));
        }
        let asked = Instant::now();
        let raw = self.ch.recv()?;
        self.waits.push((asked, Instant::now()));
        let (record, payload) = self.core.on_frame(&raw).map_err(|r| self.refused(r))?;
        let chunk = record.index;
        if self.crash_at == Some(chunk) {
            // The crash fires before consumption, so a destination that
            // "dies at chunk k" leaves exactly chunks `0..k` in its
            // journal — the invariant the resume handshake relies on.
            self.track
                .event("crash.injected", &[("chunk", chunk as u64)]);
            return Err(NetError::PeerCrashed { chunk });
        }
        // The journal keeps the verified frame itself, moved in.
        if let Some(Err(e)) = (self.journal.as_mut()).map(|j| j.append(record, raw)) {
            let reason = format!("journal append failed: {e}");
            return Err(NetError::ChunkFraming { chunk, reason });
        }
        let next = self.core.next() as u64;
        self.track
            .event("chunk.recv", &[("chunk", chunk as u64), ("next", next)]);
        // An empty terminator ends the stream without a chunk.
        self.done = record.phase == RestorePhase::Terminator;
        Ok(Some(payload).filter(|p| !(self.done && p.is_empty())))
    }

    /// Count a refusal and name the error it ends the connection with.
    fn refused(&mut self, refused: Refused) -> NetError {
        match refused {
            Refused::Corrupt { seq, .. } => {
                self.counters.corrupt_caught += 1;
                self.track.event("crc.fail", &[("chunk", seq as u64)]);
            }
            Refused::OutOfSequence { seq, .. } if seq < self.start => {
                // A chunk this destination already held before the stream
                // began: a resume that re-sends verified data.
                self.counters.replays_below_start += 1;
                self.track
                    .event("replay.below_start", &[("chunk", seq as u64)]);
            }
            _ => {}
        }
        refused.into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::channel_pair;
    use crate::fault::{FaultPlan, FaultyEndpoint};
    use crate::model::NetworkModel;
    use crate::pipe_core::ResumeReject;
    use hpm_xdr::{frame_chunk, records_digest};

    fn payloads(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| vec![(i % 251) as u8; 5 + i % 60]).collect()
    }

    /// Ship `data` through a sender on this thread and a receiver on
    /// another; the receiver's result and counters.
    fn pump(
        plan: FaultPlan,
        data: &[Vec<u8>],
    ) -> (Result<Vec<Vec<u8>>, NetError>, ArqReceiverSnapshot) {
        let (src, dst) = channel_pair(NetworkModel::instant());
        let handle = std::thread::spawn(move || {
            let mut rx = ReliableChunkReceiver::new(dst, ArqConfig);
            let mut got = Vec::new();
            let out = loop {
                match rx.recv_chunk() {
                    Ok(Some(p)) => got.push(p),
                    Ok(None) => break Ok(got),
                    Err(e) => break Err(e),
                }
            };
            (out, rx.counters())
        });
        let link = FaultyEndpoint::new(src, plan);
        let mut tx = ReliableChunkSender::new(link, ArqConfig);
        let _ = data
            .iter()
            .try_for_each(|p| tx.send(p))
            .and_then(|()| tx.finish());
        drop(tx); // the pipe closes
        handle.join().expect("receiver panicked")
    }

    #[test]
    fn clean_link_delivers_every_chunk_once_and_nothing_else() {
        let data = payloads(40);
        let (src, dst) = channel_pair(NetworkModel::instant());
        let mut tx = ReliableChunkSender::new(src, ArqConfig);
        data.iter().try_for_each(|p| tx.send(p)).unwrap();
        assert_eq!(tx.finish().unwrap(), 41);
        assert_eq!(tx.stats().frames_sent, 41);
        assert_eq!(tx.stats().retransmits, 0);
        let mut rx = ReliableChunkReceiver::new(dst, ArqConfig);
        for p in &data {
            assert_eq!(rx.recv_chunk().unwrap().as_ref(), Some(p));
        }
        assert_eq!(rx.recv_chunk().unwrap(), None);
        // End of stream is latched: asking again is not an error.
        assert!(rx.is_done());
        assert_eq!(rx.recv_chunk().unwrap(), None);
        assert_eq!(rx.chunks_received(), 41);
        // One message per frame: nothing flows back.
        assert_eq!(tx.transfer().messages_sent, 41);
        assert_eq!(rx.transfer(), TransferSnapshot::default());
        assert!(tx.into_link().try_recv_control().is_none());
    }

    /// A corrupted frame ends the connection naming the chunk; the chunks
    /// before it were delivered, the damaged one never. The damaged frame
    /// is compressed (`payloads` repeat one byte), so the CRC is checked
    /// before the coder runs.
    #[test]
    fn a_corrupt_frame_ends_the_connection_at_its_chunk() {
        let plan = FaultPlan {
            seed: 11,
            corrupt_at: Some(5),
            ..FaultPlan::none()
        };
        let (got, snap) = pump(plan, &payloads(12));
        match got {
            Err(NetError::ChunkFraming { chunk: 5, .. }) => {}
            other => panic!("{other:?}"),
        }
        assert!(snap.corrupt_caught <= 1, "{snap:?}");
    }

    #[test]
    fn a_disconnect_ends_the_connection_after_the_frames_before_it() {
        let plan = FaultPlan {
            disconnect_at: Some(3),
            ..FaultPlan::none()
        };
        let (src, dst) = channel_pair(NetworkModel::instant());
        let mut tx = ReliableChunkSender::new(FaultyEndpoint::new(src, plan), ArqConfig);
        let sent = payloads(6).iter().try_for_each(|p| tx.send(p));
        assert_eq!(sent, Err(NetError::Disconnected));
        assert_eq!(tx.stats().frames_sent, 3);
        drop(tx);
        let mut rx = ReliableChunkReceiver::new(dst, ArqConfig);
        for _ in 0..3 {
            assert!(rx.recv_chunk().unwrap().is_some());
        }
        assert_eq!(rx.recv_chunk(), Err(NetError::Disconnected));
    }

    #[test]
    fn journaling_receiver_mirrors_the_send_ledger() {
        let (src, dst) = channel_pair(NetworkModel::instant());
        let data = payloads(20);
        let journal = RestoreJournal::new(77);
        let mut tx = ReliableChunkSender::new(src, ArqConfig);
        data.iter().try_for_each(|p| tx.send(p)).unwrap();
        tx.finish().unwrap();
        let mut rx = ReliableChunkReceiver::new(dst, ArqConfig).with_journal(journal);
        while rx.recv_chunk().unwrap().is_some() {}
        let j = rx.into_journal().unwrap();
        assert!(j.is_complete());
        assert_eq!(j.records(), tx.records());
        assert_eq!(j.digest(), records_digest(tx.records()));
        assert_eq!(
            j.raw_bytes(),
            data.iter().map(|p| p.len() as u64).sum::<u64>()
        );
    }

    /// Only the pipe read is a wait: a frame already queued is charged
    /// almost none, however long its CRC check, decode and journal append
    /// take, and a read that has to wait for its frame is charged that.
    #[test]
    fn a_wait_is_the_pipe_read_and_not_the_decode() {
        let (src, dst) = channel_pair(NetworkModel::instant());
        let mut tx = ReliableChunkSender::new(src, ArqConfig);
        // Compressible, so the receiver expands it before journaling it.
        let payload: Vec<u8> = (0..1u32 << 22).map(|i| (i / 64 % 7) as u8).collect();
        tx.send(&payload).unwrap();
        let journal = RestoreJournal::new(5);
        let mut rx = ReliableChunkReceiver::new(dst, ArqConfig).with_journal(journal);
        let t0 = Instant::now();
        let got = rx.recv_chunk().unwrap();
        let call = t0.elapsed();
        assert_eq!(got, Some(payload));
        let (asked, arrived) = rx.waits()[0];
        let wait = arrived - asked;
        assert!(
            wait * 10 < call,
            "a queued frame waited {wait:?} of a {call:?} read"
        );

        let late = Duration::from_millis(20);
        let sender = std::thread::spawn(move || {
            std::thread::sleep(late);
            tx.finish().unwrap();
        });
        assert_eq!(rx.recv_chunk().unwrap(), None);
        sender.join().unwrap();
        let (asked, arrived) = rx.waits()[1];
        assert!(arrived - asked >= late / 2, "{:?}", arrived - asked);
    }

    #[test]
    fn crash_at_chunk_k_resumes_without_replaying_verified_chunks() {
        let data = payloads(30);
        let k = 12u32;
        // Attempt 1: the destination dies just before consuming chunk k.
        let (src, dst) = channel_pair(NetworkModel::instant());
        let mut tx = ReliableChunkSender::new(src, ArqConfig);
        data.iter().try_for_each(|p| tx.send(p)).unwrap();
        tx.finish().unwrap();
        let mut rx = ReliableChunkReceiver::new(dst, ArqConfig)
            .with_journal(RestoreJournal::new(9))
            .with_crash_at(Some(k));
        let err = loop {
            if let Err(e) = rx.recv_chunk() {
                break e;
            }
        };
        assert_eq!(err, NetError::PeerCrashed { chunk: k });
        let ledger = tx.records().to_vec();
        // The journal outlives the destination that wrote it.
        let recovered = rx.into_journal().unwrap();
        assert_eq!(recovered.next_chunk(), k);
        // Attempt 2: rebuilt destination re-attaches over a fresh link.
        let (src2, dst2) = channel_pair(NetworkModel::instant());
        let mut rx = ReliableChunkReceiver::new_resuming(dst2, recovered).unwrap();
        let mut tx2 = ReliableChunkSender::new(src2, ArqConfig);
        let ResumeDecision::Accepted {
            next,
            bytes_saved_raw,
            ..
        } = tx2.accept_resume(9, &ledger).unwrap()
        else {
            panic!("valid journal must be accepted");
        };
        assert_eq!(next, k);
        let saved: u64 = data[..k as usize].iter().map(|p| p.len() as u64).sum();
        assert_eq!(bytes_saved_raw, saved);
        data[k as usize..]
            .iter()
            .try_for_each(|p| tx2.send(p))
            .unwrap();
        assert_eq!(tx2.finish().unwrap(), data.len() as u32 + 1);
        // The journaled chunks come back from the receiver itself, then
        // the resumed ones off the pipe: the whole stream, once.
        let mut got = Vec::new();
        while let Some(p) = rx.recv_chunk().unwrap() {
            got.push(p);
        }
        assert_eq!(got, data);
        assert_eq!(rx.waits().len(), data.len() - k as usize + 1);
        assert_eq!(rx.counters().replays_below_start, 0);
        assert_eq!(rx.into_journal().unwrap().records(), tx2.records());
    }

    /// The journal a destination that died at chunk k leaves of `data`'s
    /// stream (all of it, terminator included, when k is past its end),
    /// and the send ledger of that stream.
    fn journal_of(data: &[Vec<u8>], k: u32) -> (RestoreJournal, Vec<ChunkRecord>) {
        let (src, dst) = channel_pair(NetworkModel::instant());
        let mut tx = ReliableChunkSender::new(src, ArqConfig);
        data.iter().try_for_each(|p| tx.send(p)).unwrap();
        tx.finish().unwrap();
        let mut rx = ReliableChunkReceiver::new(dst, ArqConfig)
            .with_journal(RestoreJournal::new(9))
            .with_crash_at(Some(k));
        while let Ok(Some(_)) = rx.recv_chunk() {}
        (rx.into_journal().unwrap(), tx.records().to_vec())
    }

    /// A receiver resuming over a k-chunk journal hands out the k
    /// journaled payloads before it reads the pipe, then the live ones.
    /// The replay is not a pipe read: no wait stamp, no `chunk.recv`
    /// event, and nothing journaled twice.
    #[test]
    fn a_resuming_receiver_replays_its_journal_before_the_pipe() {
        let data = payloads(9);
        let k = 4u32;
        let (journal, ledger) = journal_of(&data, k);
        let log = hpm_obs::EventLog::new(hpm_obs::Level::Protocol);
        let (src, dst) = channel_pair(NetworkModel::instant());
        let mut rx = ReliableChunkReceiver::new_resuming(dst, journal)
            .unwrap()
            .with_track(log.track("rx"));
        for p in &data[..k as usize] {
            assert_eq!(rx.recv_chunk().unwrap().as_ref(), Some(p));
        }
        assert!(rx.waits().is_empty(), "a replayed chunk waited on the pipe");
        assert!(log.dump().events_of("chunk.recv").is_empty());

        let mut tx = ReliableChunkSender::new(src, ArqConfig);
        let accepted = tx.accept_resume(9, &ledger).unwrap();
        assert!(matches!(accepted, ResumeDecision::Accepted { next: 4, .. }));
        data[k as usize..]
            .iter()
            .try_for_each(|p| tx.send(p))
            .unwrap();
        tx.finish().unwrap();
        for p in &data[k as usize..] {
            assert_eq!(rx.recv_chunk().unwrap().as_ref(), Some(p));
        }
        assert_eq!(rx.recv_chunk().unwrap(), None);
        let live = data.len() - k as usize + 1;
        assert_eq!(rx.waits().len(), live);
        assert_eq!(log.dump().events_of("chunk.recv").len(), live);
        // The journal grew by the live chunks alone.
        let journal = rx.into_journal().unwrap();
        assert_eq!(journal.next_chunk(), data.len() as u32 + 1);
        assert_eq!(journal.records(), &ledger[..]);
    }

    /// Replay moves nothing in the journal; a pipe that then closes ends
    /// the stream as it would have without the replay.
    #[test]
    fn a_replay_leaves_the_journal_where_it_was() {
        let data = payloads(6);
        let (journal, _) = journal_of(&data, 3);
        let (src, dst) = channel_pair(NetworkModel::instant());
        let mut rx = ReliableChunkReceiver::new_resuming(dst, journal.clone()).unwrap();
        drop(src);
        for p in &data[..3] {
            assert_eq!(rx.recv_chunk().unwrap().as_ref(), Some(p));
        }
        assert_eq!(rx.recv_chunk(), Err(NetError::Disconnected));
        assert_eq!(rx.into_journal(), Some(journal));
    }

    /// A journal that ends in the terminator replays every payload it
    /// holds, the terminator's empty one included, and only then reads
    /// the pipe: journaled chunks first, then whatever is live.
    #[test]
    fn a_complete_journal_replays_its_terminator_then_reads_the_pipe() {
        let data = payloads(3);
        let (journal, _) = journal_of(&data, u32::MAX);
        assert!(journal.is_complete());
        let (src, dst) = channel_pair(NetworkModel::instant());
        let mut rx = ReliableChunkReceiver::new_resuming(dst, journal).unwrap();
        for p in data.iter().chain([&vec![]]) {
            assert_eq!(rx.recv_chunk().unwrap().as_ref(), Some(p));
        }
        assert!(rx.waits().is_empty());
        src.send(frame_chunk(4, true, &[8], false).0).unwrap();
        assert_eq!(rx.recv_chunk().unwrap(), Some(vec![8]));
        assert_eq!(rx.recv_chunk().unwrap(), None);
    }

    /// A resumed sender counts the payload of the frames it framed after
    /// the resume point, not of the prefix it adopted; the destination's
    /// end sent the handshake and nothing else.
    #[test]
    fn a_resumed_sender_counts_only_what_it_framed() {
        let data = payloads(10);
        let k = 6u32;
        let (journal, ledger) = journal_of(&data, k);
        let (src, dst) = channel_pair(NetworkModel::instant());
        let rx = ReliableChunkReceiver::new_resuming(dst, journal).unwrap();
        let mut tx = ReliableChunkSender::new(src, ArqConfig);
        tx.accept_resume(9, &ledger).unwrap();
        data[k as usize..]
            .iter()
            .try_for_each(|p| tx.send(p))
            .unwrap();
        tx.finish().unwrap();
        let framed = &ledger[k as usize..];
        let sent = tx.transfer();
        let raw: u64 = data[k as usize..].iter().map(|p| p.len() as u64).sum();
        assert_eq!(sent.raw_payload_bytes, raw);
        let wire: u64 = framed.iter().map(|r| r.wire_len as u64).sum();
        assert_eq!(sent.wire_payload_bytes, wire);
        let compressed = framed.iter().filter(|r| r.wire_len < r.raw_len).count();
        assert_eq!(sent.chunks_compressed, compressed as u64);
        assert_eq!(sent.messages_sent, framed.len() as u64);
        let frames: u64 = tx.sends().iter().map(|&(_, b)| b).sum();
        assert_eq!(sent.bytes_sent, frames);
        let handshake = rx.transfer();
        assert_eq!((handshake.messages_sent, handshake.bytes_sent), (1, 28));
        assert_eq!(handshake.raw_payload_bytes, 0);
    }

    /// A sender that re-sends a chunk the journal already holds is
    /// refused by the resumed receiver, and the replay is counted.
    #[test]
    fn a_replay_below_the_resume_start_is_refused_and_counted() {
        let mut journal = RestoreJournal::new(3);
        let (frame, wire_len, crc) = frame_chunk(0, false, &[1; 8], false);
        let record = ChunkRecord {
            index: 0,
            raw_len: 8,
            wire_len: wire_len as u32,
            crc,
            phase: RestorePhase::Prefix,
        };
        journal.append(record, frame.clone()).unwrap();
        let (a, b) = channel_pair(NetworkModel::instant());
        let mut rx = ReliableChunkReceiver::new_resuming(b, journal).unwrap();
        a.send(frame).unwrap();
        // The journaled chunk is replayed; the re-sent one is refused.
        assert_eq!(rx.recv_chunk().unwrap(), Some(vec![1; 8]));
        let err = rx.recv_chunk().unwrap_err();
        assert!(
            matches!(err, NetError::ChunkFraming { chunk: 1, .. }),
            "{err:?}"
        );
        assert_eq!(rx.counters().replays_below_start, 1);
    }

    #[test]
    fn tampered_or_mismatched_resume_requests_are_rejected() {
        // A genuine ledger and a journal of its first five chunks.
        let data = payloads(8);
        let (src, dst) = channel_pair(NetworkModel::instant());
        let mut tx = ReliableChunkSender::new(src, ArqConfig);
        data.iter().try_for_each(|p| tx.send(p)).unwrap();
        let mut rx = ReliableChunkReceiver::new(dst, ArqConfig)
            .with_journal(RestoreJournal::new(42))
            .with_crash_at(Some(5));
        while rx.recv_chunk().is_ok() {}
        let ledger = tx.records().to_vec();
        let good = rx.into_journal().unwrap();
        assert_eq!(good.next_chunk(), 5);

        // The handshake control frame is queued by `new_resuming`, so the
        // sender side can validate it on the same thread.
        let decide = |journal: &RestoreJournal, image_id: u64| {
            let (src2, dst2) = channel_pair(NetworkModel::instant());
            let _rx = ReliableChunkReceiver::new_resuming(dst2, journal.clone()).unwrap();
            let mut tx2 = ReliableChunkSender::new(src2, ArqConfig);
            tx2.accept_resume(image_id, &ledger).unwrap()
        };
        let mut tampered = good.clone();
        tampered.tamper_record(1);
        assert_eq!(
            decide(&tampered, 42),
            ResumeDecision::Rejected(ResumeReject::DigestMismatch)
        );
        assert_eq!(
            decide(&good, 43),
            ResumeDecision::Rejected(ResumeReject::ImageMismatch)
        );
        assert!(matches!(
            decide(&good, 42),
            ResumeDecision::Accepted { next: 5, .. }
        ));
    }

    #[test]
    fn last_frame_with_payload_is_delivered_then_done() {
        let (a, b) = channel_pair(NetworkModel::instant());
        a.send(frame_chunk(0, true, &[9, 9, 9, 9], false).0)
            .unwrap();
        let mut rx = ReliableChunkReceiver::new(b, ArqConfig);
        assert_eq!(rx.recv_chunk().unwrap(), Some(vec![9, 9, 9, 9]));
        assert!(rx.is_done());
        assert_eq!(rx.recv_chunk().unwrap(), None);
    }

    #[test]
    fn garbage_frame_and_vanished_sender_are_named_errors() {
        let (a, b) = channel_pair(NetworkModel::instant());
        a.send(frame_chunk(0, false, &[1, 2, 3, 4], false).0)
            .unwrap();
        a.send(vec![0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 0]).unwrap();
        let mut rx = ReliableChunkReceiver::new(b, ArqConfig);
        assert_eq!(rx.recv_chunk().unwrap(), Some(vec![1, 2, 3, 4]));
        match rx.recv_chunk() {
            Err(NetError::ChunkFraming { chunk, .. }) => assert_eq!(chunk, 1),
            other => panic!("expected ChunkFraming, got {other:?}"),
        }
        drop(a);
        assert_eq!(rx.recv_chunk().unwrap_err(), NetError::Disconnected);
    }

    /// Compressible, incompressible, tiny and empty chunks through one
    /// clean stream: payloads come back byte-identical, a chunk the coder
    /// cannot shrink goes out stored (never expanded), and the transfer
    /// counters say which was which.
    #[test]
    fn every_frame_accounts_compressed_and_stored_chunks() {
        // splitmix-style noise defeats both the RLE and match finders.
        let mut s = 0x1234_5678_9abc_def0u64;
        let noise: Vec<u8> = (0..4096)
            .map(|_| {
                s = s.wrapping_add(0x9e3779b97f4a7c15);
                let mut z = s;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
                (z ^ (z >> 31)) as u8
            })
            .collect();
        let chunks = vec![
            vec![7u8; 8 * 1024],
            noise.clone(),
            vec![],
            b"short".to_vec(),
        ];
        let (src, dst) = channel_pair(NetworkModel::instant());
        let mut tx = ReliableChunkSender::new(src, ArqConfig);
        chunks.iter().try_for_each(|c| tx.send(c)).unwrap();
        tx.finish().unwrap();
        let mut rx = ReliableChunkReceiver::new(dst, ArqConfig);
        for c in &chunks {
            assert_eq!(rx.recv_chunk().unwrap().as_ref(), Some(c));
        }
        assert_eq!(rx.recv_chunk().unwrap(), None);
        let snap = tx.transfer();
        assert_eq!(snap.chunks_compressed, 1, "only the run of sevens shrinks");
        assert_eq!(snap.raw_payload_bytes, 8 * 1024 + 4096 + 5);
        // Stored fallback: everything but the compressed chunk is
        // carried at exactly its raw size.
        let stored = noise.len() as u64 + 5;
        assert!(snap.wire_payload_bytes > stored);
        assert!(snap.wire_payload_bytes < stored + 8 * 1024 / 10);
    }
}
