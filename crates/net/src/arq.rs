//! The chunk stream — the one way a payload crosses a link in pieces, so
//! the destination can start restoring while the source still collects.
//! Each chunk travels in the one chunk frame (`hpm_xdr::chunk`: sequence
//! number, flags, `raw_len` and payload under a trailing CRC-32), stored
//! or compressed as the [`WireCodec`] says, and is carried by the ARQ of
//! [`SenderCore`] and [`ReceiverCore`], which `hpm-model` explores
//! exhaustively. The endpoints here are the loops that drive the cores
//! over a link: they move bytes between a core and the link, apply its
//! actions, keep the counters and write the log events.
//!
//! Backoff waits are charged against the modeled clock
//! ([`ArqSenderStats::modeled_backoff_nanos`]); the real wait only has to
//! be long enough that an in-flight in-process ack (microseconds) cannot
//! be mistaken for loss.

use crate::arq_core::{
    ArqConfig, ReceiverAction, ReceiverCore, ResumeDecision, SenderAction, SenderCore, Wait,
};
use crate::channel::{Channel, NetError};
use crate::fault::FrameLink;
use hpm_obs::Track;
use hpm_xdr::{frame_control, unframe_control, ChunkRecord, Control, RestoreJournal, RestorePhase};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Liveness backstop for every blocking control read: a correct peer
/// answers in microseconds; true silence this long means it is wedged,
/// and the retransmission path takes over.
const BACKSTOP: Duration = Duration::from_secs(5);

/// How a sender's payloads travel in the one chunk frame. Receivers need
/// no configuration: each frame's flags say whether it is compressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireCodec {
    /// Stored: every payload as it is.
    #[default]
    V2,
    /// Compressed: every payload through the block coder, stored still
    /// whenever the coder cannot shrink it.
    V3,
}

/// Deterministic sender-side protocol counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ArqSenderStats {
    /// Data frames shipped, retransmissions included.
    pub frames_sent: u64,
    /// Retransmissions (NACK-triggered plus timeout-triggered).
    pub retransmits: u64,
    /// Silent rounds that triggered a timeout retransmission.
    pub timeouts: u64,
    /// Cumulative ACK frames processed.
    pub acks_processed: u64,
    /// NACK frames processed.
    pub nacks_processed: u64,
    /// Modeled nanoseconds spent in backoff waits.
    pub modeled_backoff_nanos: u64,
}

/// Sending half of the ARQ stream: a [`SenderCore`] driven over a
/// [`FrameLink`], so tests can run it over a clean [`Channel`] and the
/// driver over a [`FaultyEndpoint`](crate::FaultyEndpoint).
pub struct ReliableChunkSender<L: FrameLink> {
    link: L,
    core: SenderCore,
    codec: WireCodec,
    /// Frame copies accepted by the link (for lossless links this *is*
    /// the intact-delivery count the ack ledger balances against).
    wire_sends: u64,
    stats: ArqSenderStats,
    track: Track,
}

impl<L: FrameLink> ReliableChunkSender<L> {
    /// A fresh stream over `link`, starting at sequence 0.
    pub fn new(link: L, cfg: ArqConfig) -> Self {
        ReliableChunkSender {
            link,
            core: SenderCore::new(cfg),
            codec: WireCodec::default(),
            wire_sends: 0,
            stats: ArqSenderStats::default(),
            track: Track::off(),
        }
    }

    /// Record protocol events on `track` (`chunk.sent`, `chunk.retried`,
    /// `ack`, `retries.exhausted`, `resume.*`).
    pub fn with_track(mut self, track: Track) -> Self {
        self.track = track;
        self
    }

    /// Choose whether this stream compresses (default: stored); a frame
    /// is compressed once, and its retransmissions resend the same bytes.
    pub fn with_codec(mut self, codec: WireCodec) -> Self {
        self.codec = codec;
        self
    }

    /// Protocol counters so far.
    pub fn stats(&self) -> ArqSenderStats {
        self.stats
    }

    /// Sequence number the next chunk will carry.
    pub fn chunks_sent(&self) -> u32 {
        self.core.chunks_sent()
    }

    /// Cumulative acknowledgement high-water mark: every chunk below this
    /// was confirmed received (and journaled, on a journaling receiver).
    pub fn acked_chunks(&self) -> u32 {
        self.core.acked_chunks()
    }

    /// Frames currently in the replay window (shipped, not yet acked).
    /// Bounded by `cfg.window` at every observable point: `send` blocks
    /// rather than letting the window grow — an invariant the `hpm-model`
    /// protocol checker proves exhaustively on the same core.
    pub fn window_len(&self) -> usize {
        self.core.window_len()
    }

    /// The send ledger: one [`ChunkRecord`] per distinct chunk shipped,
    /// in sequence order. A later resume validates its journal digest
    /// against a prefix of this ledger.
    pub fn records(&self) -> &[ChunkRecord] {
        self.core.records()
    }

    /// Recover the link (e.g. to read injector stats after the stream).
    pub fn into_link(self) -> L {
        self.link
    }

    /// Block for the destination's `Resume` handshake and validate it
    /// against `ledger`, the send ledger of the interrupted stream.
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
        let raw = self.link.recv_control_timeout(BACKSTOP)?;
        let request = unframe_control(&raw).map_err(|e| NetError::ChunkFraming {
            chunk: 0,
            reason: format!("bad resume handshake frame: {e}"),
        })?;
        let decision = self.core.on_resume(request, image_id, ledger)?;
        if let ResumeDecision::Accepted {
            next,
            bytes_saved_raw,
            ..
        } = decision
        {
            let args = [("next", next as u64), ("bytes_saved", bytes_saved_raw)];
            self.track.event("resume.accepted", &args);
        }
        if let (ResumeDecision::Rejected(why), Control::Resume { next, .. }) = (decision, request) {
            let args = [("claimed_next", next as u64), ("reason", why as u64)];
            self.track.event("resume.rejected", &args);
        }
        Ok(decision)
    }

    /// Frame, window, and ship one payload chunk; blocks while the
    /// replay window is full.
    pub fn send(&mut self, payload: &[u8]) -> Result<(), NetError> {
        self.ship(payload, false)
    }

    /// Terminate the stream with an empty LAST frame and wait until the
    /// peer has acknowledged everything. Returns the total number of
    /// distinct frames sent, terminator included.
    pub fn finish(&mut self) -> Result<u32, NetError> {
        self.ship(&[], true)?;
        // Held (reordered) frames are flushed only here: a flush at a
        // wall-clock-dependent moment would change the wire order between
        // runs. A held mid-stream frame is recovered by the
        // NACK/retransmission path; only a held terminator needs this.
        self.link.flush()?;
        self.settle(true)?;
        Ok(self.core.chunks_sent())
    }

    fn ship(&mut self, payload: &[u8], last: bool) -> Result<(), NetError> {
        let actions = self.core.offer(payload, last, self.codec == WireCodec::V3);
        if let (Some(s), Some(r)) = (self.link.transfer_stats(), self.core.records().last()) {
            s.observe_chunk_out(r.raw_len as u64, r.wire_len as u64, r.wire_len < r.raw_len);
        }
        self.apply(actions, "")?;
        self.settle(false)
    }

    /// Wait until the core is [`Wait::Ready`]: process exactly one control
    /// frame whenever the intact-deliveries ledger says one is owed, and
    /// take the timeout (retransmitting the window base at once, with the
    /// policy backoff charged to the **modeled** clock only) whenever it
    /// balances.
    ///
    /// "Silent" is decided by that deterministic ledger, not a wall-clock
    /// guess: every frame copy the link delivered intact earns exactly one
    /// ACK, so while `intact deliveries > acks processed` a control frame
    /// is guaranteed to arrive. Together with the one-control-per-wait
    /// discipline — control frames are never drained opportunistically,
    /// which would process a race-dependent number of them and move
    /// retransmissions to wall-clock-dependent wire positions — every
    /// sender decision is a pure function of protocol history: the wire
    /// order, the fault decisions keyed on it, and all recovery counters
    /// reproduce exactly across runs, however the threads are scheduled.
    fn settle(&mut self, draining: bool) -> Result<(), NetError> {
        loop {
            let intact = self.link.intact_deliveries().unwrap_or(self.wire_sends);
            let (actions, cause) = match self.core.wait(intact, draining) {
                Wait::Ready => return Ok(()),
                Wait::Control => match self.link.recv_control_timeout(BACKSTOP) {
                    Ok(raw) => (self.core.on_control(&raw), "cause_nack"),
                    // A wedged peer: the retransmission path takes over.
                    Err(NetError::Timeout) => (self.core.on_timeout(), "cause_timeout"),
                    Err(e) => return Err(e),
                },
                Wait::Timeout => (self.core.on_timeout(), "cause_timeout"),
            };
            self.apply(actions, cause)?;
        }
    }

    /// Carry out the core's actions: ship frames, keep the counters and
    /// write the events. `cause` names what triggered a retransmission.
    fn apply(&mut self, actions: Vec<SenderAction>, cause: &'static str) -> Result<(), NetError> {
        for action in actions {
            match action {
                SenderAction::Send {
                    seq,
                    retry: 0,
                    frame,
                } => {
                    self.link.send_frame(frame)?;
                    self.stats.frames_sent += 1;
                    self.wire_sends += 1;
                    let window = self.core.window_len() as u64;
                    self.track
                        .event("chunk.sent", &[("chunk", seq as u64), ("window", window)]);
                }
                SenderAction::Send { seq, retry, frame } => {
                    self.stats.retransmits += 1;
                    self.track.event(
                        "chunk.retried",
                        &[("chunk", seq as u64), ("retry", retry as u64), (cause, 1)],
                    );
                    // Counted before the attempt: whether a late
                    // retransmission lands depends on when the peer hung
                    // up, and the counters must not inherit that race.
                    self.stats.frames_sent += 1;
                    // A `Disconnected` here is not yet fatal: the peer may
                    // have completed the stream (healed by a duplicate or a
                    // held frame) and hung up with its final ACKs still
                    // queued — the control drain decides whether the
                    // window actually empties.
                    match self.link.send_frame(frame) {
                        Ok(()) => self.wire_sends += 1,
                        Err(NetError::Disconnected) => {}
                        Err(e) => return Err(e),
                    }
                }
                SenderAction::Backoff(wait) => {
                    self.stats.timeouts += 1;
                    self.stats.modeled_backoff_nanos += wait.as_nanos() as u64;
                }
                SenderAction::Acked { next, pruned } => {
                    self.stats.acks_processed += 1;
                    self.track
                        .event("ack", &[("next", next as u64), ("pruned", pruned as u64)]);
                }
                SenderAction::Nacked => self.stats.nacks_processed += 1,
                SenderAction::Fail(e) => {
                    if let NetError::RetriesExhausted {
                        chunk, attempts, ..
                    } = e
                    {
                        self.track.event(
                            "retries.exhausted",
                            &[("chunk", chunk as u64), ("attempts", attempts as u64)],
                        );
                    }
                    return Err(e);
                }
            }
        }
        Ok(())
    }
}

/// Live receiver-side counters, shared out through an [`Arc`] because
/// the receiver itself disappears into a `Box<dyn ChunkSource>` in the
/// migration driver.
#[derive(Debug, Default)]
pub struct ArqReceiverCounters(Mutex<ArqReceiverSnapshot>);

/// A detached copy of [`ArqReceiverCounters`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ArqReceiverSnapshot {
    /// Frames whose payload failed its CRC check.
    pub corrupt_caught: u64,
    /// Extra valid copies absorbed (beyond the first per sequence).
    pub dups_absorbed: u64,
    /// Frames accepted after a higher sequence had already arrived.
    pub reorders_absorbed: u64,
    /// Cumulative ACK frames sent.
    pub acks_sent: u64,
    /// NACK frames sent (deduplicated per missing sequence).
    pub nacks_sent: u64,
    /// Frames that arrived below the stream's starting sequence — on a
    /// resumed stream, already-verified chunks the sender wastefully
    /// re-sent. A correct resume keeps this at zero.
    pub replays_below_start: u64,
}

impl ArqReceiverCounters {
    /// Point-in-time copy.
    pub fn snapshot(&self) -> ArqReceiverSnapshot {
        *self.0.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn bump(&self, field: fn(&mut ArqReceiverSnapshot) -> &mut u64) {
        *field(&mut self.0.lock().unwrap_or_else(|p| p.into_inner())) += 1;
    }
}

/// Receiving half of the ARQ stream: a [`ReceiverCore`] driven over the
/// destination's channel end.
pub struct ReliableChunkReceiver {
    ch: Channel,
    core: ReceiverCore,
    /// The sequence this stream started at (0, or the resume point).
    start: u32,
    /// Contiguous frames ready to hand to the caller.
    ready: VecDeque<(bool, Vec<u8>)>,
    done: bool,
    counters: Arc<ArqReceiverCounters>,
    /// Durable journal this receiver appends every accepted chunk to.
    journal: Option<Arc<Mutex<RestoreJournal>>>,
    /// Injected crash fault: die just before consuming this sequence.
    crash_at: Option<u32>,
    track: Track,
}

impl ReliableChunkReceiver {
    /// Wrap `ch`; the stream is expected to begin at sequence 0.
    pub fn new(ch: Channel, cfg: ArqConfig) -> Self {
        ReliableChunkReceiver {
            ch,
            core: ReceiverCore::new(cfg),
            start: 0,
            ready: VecDeque::new(),
            done: false,
            counters: Arc::new(ArqReceiverCounters::default()),
            journal: None,
            crash_at: None,
            track: Track::off(),
        }
    }

    /// Re-attach a rebuilt destination to an interrupted stream: the
    /// stream starts at `journal.next_chunk()` and the sender is asked to
    /// resume there via a [`Control::Resume`] handshake carrying the
    /// journal digest. The journaled chunks themselves are replayed
    /// locally by the caller, never over the wire.
    pub fn new_resuming(
        ch: Channel,
        cfg: ArqConfig,
        journal: &RestoreJournal,
    ) -> Result<Self, NetError> {
        let mut rx = ReliableChunkReceiver::new(ch, cfg);
        let actions = rx.core.resume(journal);
        rx.start = rx.core.next();
        rx.apply(actions)?;
        Ok(rx)
    }

    /// Record every accepted chunk (and its decoded payload) in
    /// `journal`. The append happens at accept time — after CRC
    /// verification and in-order delivery — so the journal is always a
    /// contiguous, verified prefix of the stream.
    pub fn with_journal(mut self, journal: Arc<Mutex<RestoreJournal>>) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Inject a destination crash: the receiver dies (with
    /// [`NetError::PeerCrashed`]) just before consuming sequence `seq`,
    /// leaving exactly `seq` chunks in its journal.
    pub fn with_crash_at(mut self, seq: Option<u32>) -> Self {
        self.crash_at = seq;
        self
    }

    /// Record protocol events on `track` (`chunk.recv`, `crc.fail`,
    /// `dup`, `reorder`, `nack.sent`).
    pub fn with_track(mut self, track: Track) -> Self {
        self.track = track;
        self
    }

    /// Handle to the live counters; survives the receiver being boxed.
    pub fn counters(&self) -> Arc<ArqReceiverCounters> {
        Arc::clone(&self.counters)
    }

    /// Highest contiguous sequence received so far.
    pub fn chunks_received(&self) -> u32 {
        self.core.next()
    }

    /// Whether the LAST frame has been consumed.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Receive the next payload chunk; `Ok(None)` once the stream is
    /// complete. Duplicates and in-window reordering are absorbed;
    /// corruption is healed like a drop; a frame beyond the window or an
    /// unparseable frame is a hard error.
    pub fn recv_chunk(&mut self) -> Result<Option<Vec<u8>>, NetError> {
        loop {
            if let Some((last, payload)) = self.ready.pop_front() {
                // An empty terminator ends the stream without a chunk.
                self.done = last;
                return Ok(Some(payload).filter(|p| !(last && p.is_empty())));
            }
            if self.done {
                return Ok(None);
            }
            let raw = self.ch.recv()?;
            let actions = self.core.on_frame(&raw);
            self.apply(actions)?;
        }
    }

    /// Carry out the core's actions in order: count, journal, queue for
    /// the caller, and send controls. An arrival's `chunk.recv` event
    /// lands after its releases and before its ack.
    fn apply(&mut self, actions: Vec<ReceiverAction>) -> Result<(), NetError> {
        let mut arrived = None;
        for action in actions {
            match action {
                ReceiverAction::Corrupt { seq } => {
                    self.counters.bump(|c| &mut c.corrupt_caught);
                    self.track.event("crc.fail", &[("chunk", seq as u64)]);
                }
                ReceiverAction::Duplicate { seq } => {
                    self.counters.bump(|c| &mut c.dups_absorbed);
                    if seq < self.start {
                        // A chunk this destination already held before the
                        // stream began: a resume that re-sends verified data.
                        self.counters.bump(|c| &mut c.replays_below_start);
                        self.track
                            .event("replay.below_start", &[("chunk", seq as u64)]);
                    }
                    self.track.event("dup", &[("chunk", seq as u64)]);
                }
                ReceiverAction::Arrived {
                    seq,
                    in_order,
                    copy,
                    late,
                } => {
                    if copy {
                        self.counters.bump(|c| &mut c.dups_absorbed);
                    } else if late {
                        self.counters.bump(|c| &mut c.reorders_absorbed);
                        if in_order {
                            self.track.event("reorder", &[("chunk", seq as u64)]);
                        }
                    }
                    arrived = Some(seq);
                }
                ReceiverAction::Release { record, payload } => self.release(record, payload)?,
                ReceiverAction::Send(ctrl) => {
                    if let Some(seq) = arrived.take() {
                        let next = self.core.next() as u64;
                        self.track
                            .event("chunk.recv", &[("chunk", seq as u64), ("next", next)]);
                    }
                    self.ch.send(frame_control(ctrl))?;
                    match ctrl {
                        Control::Ack { .. } => self.counters.bump(|c| &mut c.acks_sent),
                        Control::Nack { seq } => {
                            self.counters.bump(|c| &mut c.nacks_sent);
                            self.track.event("nack.sent", &[("chunk", seq as u64)]);
                        }
                        Control::Resume { .. } => {}
                    }
                }
                ReceiverAction::Fail(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Consume one in-order verified chunk: journal it, then queue it for
    /// the caller. The injected crash fires *before* consumption, so a
    /// destination that "dies at chunk k" leaves exactly chunks `0..k` in
    /// its journal — the invariant the resume handshake relies on.
    fn release(&mut self, record: ChunkRecord, payload: Vec<u8>) -> Result<(), NetError> {
        let chunk = record.index;
        if self.crash_at == Some(chunk) {
            self.track
                .event("crash.injected", &[("chunk", chunk as u64)]);
            return Err(NetError::PeerCrashed { chunk });
        }
        let journal = self.journal.as_ref();
        let guard = journal.map(|j| j.lock().unwrap_or_else(|p| p.into_inner()));
        if let Some(Err(e)) = guard.map(|mut j| j.append(record, payload.clone())) {
            let reason = format!("journal append failed: {e}");
            return Err(NetError::ChunkFraming { chunk, reason });
        }
        let last = record.phase == RestorePhase::Terminator;
        self.ready.push_back((last, payload));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arq_core::ResumeReject;
    use crate::channel::{channel_pair, TransferSnapshot};
    use crate::fault::{FaultPlan, FaultyEndpoint};
    use crate::model::NetworkModel;
    use hpm_xdr::{frame_chunk, records_digest};

    fn cfg() -> ArqConfig {
        ArqConfig {
            window: 8,
            max_retries: 4,
            base_backoff: Duration::from_millis(2),
        }
    }

    /// Everything a pumped transfer produces: received payloads, sender
    /// stats, receiver snapshot, fault stats, channel accounting.
    type PumpOutcome = (
        Vec<Vec<u8>>,
        ArqSenderStats,
        ArqReceiverSnapshot,
        crate::fault::FaultStats,
        TransferSnapshot,
    );

    /// Drive `payloads` through sender and receiver on two threads.
    fn pump(
        codec: WireCodec,
        plan: FaultPlan,
        payloads: Vec<Vec<u8>>,
    ) -> Result<PumpOutcome, NetError> {
        let (src, dst) = channel_pair(NetworkModel::instant());
        let link = FaultyEndpoint::new(src, plan);
        let handle = std::thread::spawn(move || -> Result<_, NetError> {
            let mut rx = ReliableChunkReceiver::new(dst, cfg());
            let counters = rx.counters();
            let mut got = Vec::new();
            while let Some(p) = rx.recv_chunk()? {
                got.push(p);
            }
            Ok((got, counters.snapshot()))
        });
        let mut tx = ReliableChunkSender::new(link, cfg()).with_codec(codec);
        let sent = payloads.iter().try_for_each(|p| tx.send(p));
        let sent = sent.and_then(|()| tx.finish());
        let stats = tx.stats();
        let link = tx.into_link();
        let (fstats, transfer) = (link.stats(), link.channel().stats().snapshot());
        drop(link); // unblocks the receiver if the stream died
        let rx_result = handle.join().expect("receiver panicked");
        sent?;
        let (got, snap) = rx_result?;
        Ok((got, stats, snap, fstats, transfer))
    }

    fn payloads(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| vec![(i % 251) as u8; 5 + i % 60]).collect()
    }

    #[test]
    fn clean_link_is_lossless_with_zero_recovery_traffic() {
        let data = payloads(40);
        let (got, stats, snap, fstats, _) =
            pump(WireCodec::V2, FaultPlan::none(), data.clone()).unwrap();
        assert_eq!(got, data);
        assert_eq!(stats.retransmits, 0);
        assert_eq!(stats.timeouts, 0);
        assert_eq!(snap.corrupt_caught, 0);
        assert_eq!(snap.dups_absorbed, 0);
        assert_eq!(snap.reorders_absorbed, 0);
        assert_eq!(fstats.faults_injected(), 0);
        // Every frame (terminator included) is acked at least once.
        assert!(snap.acks_sent >= 41);
    }

    #[test]
    fn drops_are_recovered_by_retransmission() {
        let plan = FaultPlan {
            seed: 7,
            drop_per_mille: 150,
            ..FaultPlan::none()
        };
        let data = payloads(60);
        let (got, stats, _, fstats, _) = pump(WireCodec::V2, plan, data.clone()).unwrap();
        assert_eq!(got, data);
        assert!(fstats.dropped > 0, "plan injected no drops");
        assert!(stats.retransmits >= fstats.dropped);
    }

    #[test]
    fn corruption_is_caught_and_healed() {
        let plan = FaultPlan {
            seed: 11,
            corrupt_per_mille: 200,
            ..FaultPlan::none()
        };
        let data = payloads(60);
        let (got, _, snap, fstats, _) = pump(WireCodec::V2, plan, data.clone()).unwrap();
        assert_eq!(got, data);
        assert!(fstats.corrupted > 0);
        assert_eq!(snap.corrupt_caught, fstats.corrupted);
    }

    #[test]
    fn duplicates_and_reordering_are_absorbed() {
        let plan = FaultPlan {
            seed: 13,
            duplicate_per_mille: 200,
            reorder_per_mille: 200,
            ..FaultPlan::none()
        };
        let data = payloads(60);
        let (got, _, snap, fstats, _) = pump(WireCodec::V2, plan, data.clone()).unwrap();
        assert_eq!(got, data);
        assert!(fstats.duplicated > 0);
        assert!(fstats.reordered > 0);
        assert!(snap.dups_absorbed > 0);
    }

    #[test]
    fn mixed_fault_storm_still_delivers_exactly() {
        for seed in [3u64, 17, 99, 12345] {
            let plan = FaultPlan {
                seed,
                drop_per_mille: 80,
                corrupt_per_mille: 80,
                duplicate_per_mille: 80,
                reorder_per_mille: 80,
                delay_per_mille: 80,
                disconnect_at: None,
                ..FaultPlan::none()
            };
            let data = payloads(80);
            let (got, ..) = pump(WireCodec::V2, plan, data.clone()).unwrap();
            assert_eq!(got, data, "seed {seed}");
        }
    }

    #[test]
    fn recovery_counters_are_reproducible() {
        let storm = FaultPlan {
            seed: 0xC0DEC,
            drop_per_mille: 60,
            corrupt_per_mille: 60,
            duplicate_per_mille: 60,
            reorder_per_mille: 60,
            delay_per_mille: 60,
            ..FaultPlan::none()
        };
        let bytes = |t: &TransferSnapshot| {
            (
                t.raw_payload_bytes,
                t.wire_payload_bytes,
                t.chunks_compressed,
            )
        };
        let data = payloads(50);
        for (codec, plan) in [
            (WireCodec::V2, FaultPlan::from_seed(0xFEED_FACE)),
            (WireCodec::V3, storm),
        ] {
            let runs: Vec<_> = (0..3)
                .map(|_| pump(codec, plan, data.clone()))
                .collect::<Result<_, _>>()
                .map_err(|e| format!("{e}"))
                .unwrap();
            let (_, s0, r0, f0, t0) = &runs[0];
            for (got, s, r, f, t) in &runs {
                assert_eq!(got, &data, "{codec:?}");
                assert_eq!(s, s0, "{codec:?}: sender stats must be reproducible");
                assert_eq!(r, r0, "{codec:?}: receiver counters must be reproducible");
                assert_eq!(f, f0, "{codec:?}: fault stats must be reproducible");
                assert_eq!(bytes(t), bytes(t0), "{codec:?}: payload accounting");
            }
        }
    }

    #[test]
    fn v3_codec_survives_a_fault_storm_and_shrinks_the_wire() {
        let plan = FaultPlan {
            seed: 21,
            drop_per_mille: 80,
            corrupt_per_mille: 80,
            duplicate_per_mille: 80,
            reorder_per_mille: 80,
            ..FaultPlan::none()
        };
        // Runs of one byte compress well; the ARQ must deliver the
        // expanded payloads exactly despite drops/corruption of the
        // compressed frames.
        let data: Vec<Vec<u8>> = (0..60).map(|i| vec![(i % 251) as u8; 400]).collect();
        let (got, _, _, fstats, t) = pump(WireCodec::V3, plan, data.clone()).unwrap();
        assert_eq!(got, data);
        assert!(fstats.faults_injected() > 0, "storm injected nothing");
        assert_eq!(t.raw_payload_bytes, 60 * 400);
        assert!(t.wire_payload_bytes < t.raw_payload_bytes);
        assert_eq!(t.chunks_compressed, 60);
    }

    #[test]
    fn journaling_receiver_mirrors_the_send_ledger() {
        let (src, dst) = channel_pair(NetworkModel::instant());
        let data = payloads(20);
        let journal = Arc::new(Mutex::new(RestoreJournal::new(77)));
        let journal_rx = Arc::clone(&journal);
        let h = std::thread::spawn(move || {
            let mut rx = ReliableChunkReceiver::new(dst, cfg()).with_journal(journal_rx);
            while rx.recv_chunk().unwrap().is_some() {}
        });
        let mut tx = ReliableChunkSender::new(src, cfg());
        for p in &data {
            tx.send(p).unwrap();
        }
        tx.finish().unwrap();
        h.join().unwrap();
        let j = journal.lock().unwrap();
        assert!(j.is_complete());
        assert_eq!(j.records(), tx.records());
        assert_eq!(j.digest(), records_digest(tx.records()));
        assert_eq!(
            j.raw_bytes(),
            data.iter().map(|p| p.len() as u64).sum::<u64>()
        );
    }

    #[test]
    fn crash_at_chunk_k_resumes_without_replaying_verified_chunks() {
        let data = payloads(30);
        let k = 12u32;
        // Attempt 1: the destination dies just before consuming chunk k.
        let (src, dst) = channel_pair(NetworkModel::instant());
        let journal = Arc::new(Mutex::new(RestoreJournal::new(9)));
        let journal_rx = Arc::clone(&journal);
        let h = std::thread::spawn(move || {
            let mut rx = ReliableChunkReceiver::new(dst, cfg())
                .with_journal(journal_rx)
                .with_crash_at(Some(k));
            loop {
                match rx.recv_chunk() {
                    Ok(Some(_)) => {}
                    Ok(None) => return Ok(()),
                    Err(e) => return Err(e),
                }
            }
        });
        let mut tx = ReliableChunkSender::new(src, cfg());
        let mut send_err = None;
        for p in &data {
            if let Err(e) = tx.send(p) {
                send_err = Some(e);
                break;
            }
        }
        if send_err.is_none() {
            send_err = tx.finish().err();
        }
        assert_eq!(
            h.join().unwrap().unwrap_err(),
            NetError::PeerCrashed { chunk: k }
        );
        assert!(send_err.is_some(), "sender must fail once the peer is gone");
        let ledger = tx.records().to_vec();
        // The journal outlives the destination that wrote it.
        let recovered = journal.lock().unwrap_or_else(|p| p.into_inner()).clone();
        assert_eq!(recovered.next_chunk(), k);
        // Attempt 2: rebuilt destination re-attaches over a fresh link.
        let (src2, dst2) = channel_pair(NetworkModel::instant());
        let expect_tail: Vec<Vec<u8>> = data[k as usize..].to_vec();
        let h2 = std::thread::spawn(move || {
            let mut rx = ReliableChunkReceiver::new_resuming(dst2, cfg(), &recovered).unwrap();
            let counters = rx.counters();
            let mut got = Vec::new();
            while let Some(p) = rx.recv_chunk().unwrap() {
                got.push(p);
            }
            (got, counters.snapshot())
        });
        let mut tx2 = ReliableChunkSender::new(src2, cfg());
        let ResumeDecision::Accepted {
            next,
            bytes_saved_raw,
            ..
        } = tx2.accept_resume(9, &ledger).unwrap()
        else {
            panic!("valid journal must be accepted");
        };
        assert_eq!(next, k);
        assert_eq!(
            bytes_saved_raw,
            data[..k as usize]
                .iter()
                .map(|p| p.len() as u64)
                .sum::<u64>()
        );
        for p in &data[k as usize..] {
            tx2.send(p).unwrap();
        }
        assert_eq!(tx2.finish().unwrap(), data.len() as u32 + 1);
        let (got, snap) = h2.join().unwrap();
        assert_eq!(got, expect_tail);
        assert_eq!(snap.replays_below_start, 0, "no verified chunk re-sent");
        assert_eq!(tx2.acked_chunks(), data.len() as u32 + 1);
    }

    #[test]
    fn tampered_or_mismatched_resume_requests_are_rejected() {
        // Build a genuine ledger + journal with a quick clean run.
        let (src, dst) = channel_pair(NetworkModel::instant());
        let data = payloads(8);
        let journal = Arc::new(Mutex::new(RestoreJournal::new(42)));
        let journal_rx = Arc::clone(&journal);
        let h = std::thread::spawn(move || {
            let mut rx = ReliableChunkReceiver::new(dst, cfg())
                .with_journal(journal_rx)
                .with_crash_at(Some(5));
            while rx.recv_chunk().is_ok_and(|c| c.is_some()) {}
        });
        let mut tx = ReliableChunkSender::new(src, cfg());
        for p in &data {
            if tx.send(p).is_err() {
                break;
            }
        }
        let _ = tx.finish();
        h.join().unwrap();
        let ledger = tx.records().to_vec();
        let good = journal.lock().unwrap_or_else(|p| p.into_inner()).clone();
        assert_eq!(good.next_chunk(), 5);

        // The handshake control frame is queued by `new_resuming`, so the
        // sender side can validate it on the same thread.
        let reject = |journal: &RestoreJournal, image_id: u64| {
            let (src2, dst2) = channel_pair(NetworkModel::instant());
            let _rx = ReliableChunkReceiver::new_resuming(dst2, cfg(), journal).unwrap();
            let mut tx2 = ReliableChunkSender::new(src2, cfg());
            tx2.accept_resume(image_id, &ledger).unwrap()
        };
        let mut tampered = good.clone();
        tampered.tamper_record(1);
        assert_eq!(
            reject(&tampered, 42),
            ResumeDecision::Rejected(ResumeReject::DigestMismatch)
        );
        assert_eq!(
            reject(&good, 43),
            ResumeDecision::Rejected(ResumeReject::ImageMismatch)
        );
        // A valid journal still passes, and a rejected sender stays fresh.
        assert!(matches!(
            reject(&good, 42),
            ResumeDecision::Accepted { next: 5, .. }
        ));
    }

    #[test]
    fn retries_exhausted_carries_the_ack_high_water_mark() {
        let plan = FaultPlan {
            disconnect_at: Some(5),
            ..FaultPlan::none()
        };
        let t0 = std::time::Instant::now();
        let err = pump(WireCodec::V2, plan, payloads(30)).unwrap_err();
        // A dead link exhausts retries, not patience: 4 retries at a 2 ms
        // base is well under a second.
        assert!(t0.elapsed() < Duration::from_secs(30));
        let NetError::RetriesExhausted { chunk, acked, .. } = err else {
            panic!("got {err:?}");
        };
        // Everything below the severed chunk was delivered and acked.
        assert_eq!(acked, 5);
        assert_eq!(chunk, 5);
    }

    #[test]
    fn arq_works_over_a_plain_channel_too() {
        let (src, dst) = channel_pair(NetworkModel::instant());
        let data = payloads(10);
        let sent = data.clone();
        let h = std::thread::spawn(move || {
            let mut rx = ReliableChunkReceiver::new(dst, ArqConfig::default());
            let mut got = Vec::new();
            while let Some(p) = rx.recv_chunk().unwrap() {
                got.push(p);
            }
            // End of stream is latched: asking again is not an error.
            assert!(rx.is_done());
            assert_eq!(rx.recv_chunk().unwrap(), None);
            assert_eq!(rx.chunks_received(), 11);
            got
        });
        let mut tx = ReliableChunkSender::new(src, ArqConfig::default());
        for p in &sent {
            tx.send(p).unwrap();
        }
        let frames = tx.finish().unwrap();
        assert_eq!(frames, 11);
        assert_eq!(h.join().unwrap(), data);
    }

    #[test]
    fn last_frame_with_payload_is_delivered_then_done() {
        let (a, b) = channel_pair(NetworkModel::instant());
        a.send(frame_chunk(0, true, &[9, 9, 9, 9], false).0)
            .unwrap();
        let mut rx = ReliableChunkReceiver::new(b, cfg());
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
        let mut rx = ReliableChunkReceiver::new(b, cfg());
        assert_eq!(rx.recv_chunk().unwrap(), Some(vec![1, 2, 3, 4]));
        match rx.recv_chunk() {
            Err(NetError::ChunkFraming { chunk, .. }) => assert_eq!(chunk, 1),
            other => panic!("expected ChunkFraming, got {other:?}"),
        }
        drop(a);
        assert_eq!(rx.recv_chunk().unwrap_err(), NetError::Disconnected);
    }

    /// Compressible, incompressible, tiny and empty chunks through one
    /// clean compressed stream: payloads come back byte-identical, a chunk the
    /// coder cannot shrink goes out stored (never expanded), and the
    /// transfer counters say which was which.
    #[test]
    fn v3_codec_accounts_compressed_and_stored_chunks() {
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
        let expect = chunks.clone();
        let h = std::thread::spawn(move || {
            let mut rx = ReliableChunkReceiver::new(dst, cfg());
            for c in &expect {
                assert_eq!(rx.recv_chunk().unwrap().as_ref(), Some(c));
            }
            assert_eq!(rx.recv_chunk().unwrap(), None);
        });
        let mut tx = ReliableChunkSender::new(src, cfg()).with_codec(WireCodec::V3);
        for c in &chunks {
            tx.send(c).unwrap();
        }
        tx.finish().unwrap();
        h.join().expect("receiver failed");
        let snap = tx.into_link().stats().snapshot();
        assert_eq!(snap.chunks_compressed, 1, "only the run of sevens shrinks");
        assert_eq!(snap.raw_payload_bytes, 8 * 1024 + 4096 + 5);
        // Stored fallback: everything but the compressed chunk is
        // carried at exactly its raw size.
        let stored = noise.len() as u64 + 5;
        assert!(snap.wire_payload_bytes > stored);
        assert!(snap.wire_payload_bytes < stored + 8 * 1024 / 10);
    }

    /// A link that damages one header word of one fresh frame — word
    /// `word` (1 `seq`, 2 `flags`, 3 `raw_len`) of chunk `victim`'s first
    /// copy, XORed with `mask` — and reports that delivery as not intact.
    /// Everything else crosses untouched.
    struct HeaderDamage {
        ch: Channel,
        victim: u32,
        word: usize,
        mask: u32,
        damaged: bool,
        intact: u64,
    }

    impl FrameLink for HeaderDamage {
        fn send_frame(&mut self, mut frame: Vec<u8>) -> Result<(), NetError> {
            let seq = u32::from_be_bytes(frame[4..8].try_into().unwrap());
            if seq == self.victim && !self.damaged {
                self.damaged = true;
                let at = self.word * 4;
                let value = u32::from_be_bytes(frame[at..at + 4].try_into().unwrap());
                frame[at..at + 4].copy_from_slice(&(value ^ self.mask).to_be_bytes());
            } else {
                self.intact += 1;
            }
            self.ch.send(frame)
        }

        fn recv_control_timeout(&mut self, timeout: Duration) -> Result<Vec<u8>, NetError> {
            self.ch.recv_timeout(timeout)
        }

        fn intact_deliveries(&self) -> Option<u64> {
            Some(self.intact)
        }
    }

    /// Damage to a header word is damage like any other: a CRC catch,
    /// healed by retransmission, and the stream delivers exactly what was
    /// sent. Unprotected, chunk 4's `seq` re-aimed at 6 — a slot inside
    /// the window not yet filled — is buffered as chunk 6 and the genuine
    /// 6 absorbed as its duplicate; an unknown flag bit, or a compressed
    /// chunk's `raw_len` off by one, ends the stream blaming the sender.
    #[test]
    fn a_damaged_header_word_fails_the_crc_and_is_healed() {
        // Runs of one byte: every chunk travels compressed.
        let data: Vec<Vec<u8>> = (0..12u8).map(|i| vec![i; 64]).collect();
        for (word, mask) in [(1, 4 ^ 6), (2, 0x8000_0000), (3, 1)] {
            let (src, dst) = channel_pair(NetworkModel::instant());
            let receiver = std::thread::spawn(move || {
                let mut rx = ReliableChunkReceiver::new(dst, cfg());
                let counters = rx.counters();
                let mut got = Vec::new();
                while let Some(p) = rx.recv_chunk()? {
                    got.push(p);
                }
                Ok::<_, NetError>((got, counters.snapshot()))
            });
            let link = HeaderDamage {
                ch: src,
                victim: 4,
                word,
                mask,
                damaged: false,
                intact: 0,
            };
            let mut tx = ReliableChunkSender::new(link, cfg()).with_codec(WireCodec::V3);
            let sent = data
                .iter()
                .try_for_each(|p| tx.send(p))
                .and_then(|()| tx.finish());
            let stats = tx.stats();
            drop(tx);
            let (got, snap) = receiver
                .join()
                .expect("receiver panicked")
                .unwrap_or_else(|e| panic!("word {word}: {e}"));
            sent.unwrap_or_else(|e| panic!("word {word}: {e}"));
            assert!(got == data, "word {word}: the stream delivered other bytes");
            assert_eq!(snap.corrupt_caught, 1, "word {word}");
            assert!(stats.retransmits >= 1, "word {word}");
        }
    }
}
