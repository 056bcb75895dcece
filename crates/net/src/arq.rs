//! The chunk stream — the one way a payload crosses a link in pieces, so
//! the destination can start restoring while the source still collects.
//! Each chunk travels in the one chunk frame (`hpm_xdr::chunk`: sequence
//! number, flags, `raw_len` and payload under a trailing CRC-32), stored
//! or compressed as the [`WireCodec`] says, and is carried by a
//! stop-and-wait-free ARQ: a sliding replay window on the sender,
//! cumulative ACKs plus targeted NACKs from the receiver, and bounded
//! exponential-backoff retransmission. On a clean link that is one ack
//! per frame and nothing else. A damaged frame — any header word or
//! payload byte — fails its CRC and is healed like a dropped one.
//!
//! The forward (data) path may be lossy — typically a
//! [`FaultyEndpoint`](crate::FaultyEndpoint) — while the reverse
//! (control) path is the clean in-process channel, so acknowledgements
//! are reliable and FIFO. The protocol:
//!
//! - The sender assigns sequence numbers, keeps every unacknowledged
//!   frame in a bounded replay window, and blocks when the window fills.
//! - The receiver tracks the highest contiguous sequence (`next`) and
//!   buffers out-of-order frames within one window. Duplicates and
//!   reordering inside the window are absorbed silently (counted, not
//!   errored). Every valid arrival is answered with a cumulative
//!   `Ack { next }`; the first time a gap or corrupt frame names a
//!   missing sequence, a `Nack { seq }` asks for exactly that frame.
//! - When the control path goes silent while frames are outstanding, the
//!   sender retransmits the oldest unacknowledged frame under
//!   exponential backoff. Each frame has a bounded retransmit budget;
//!   exhausting it surfaces [`NetError::RetriesExhausted`] so the caller
//!   can fall back instead of hanging.
//!
//! Backoff waits are charged against the modeled clock
//! ([`ArqSenderStats::modeled_backoff_nanos`]); the real wait only has to
//! be long enough that an in-flight in-process ack (microseconds) cannot
//! be mistaken for loss.

use crate::channel::{Channel, NetError};
use crate::fault::FrameLink;
use hpm_obs::{Histogram, HistogramSnapshot, Track};
use hpm_xdr::{
    frame_chunk, frame_control, records_digest, unframe_chunk_any, unframe_control, ChunkRecord,
    Control, RestoreJournal, RestorePhase,
};
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

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

/// Tuning knobs shared by both ARQ endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    /// Per-chunk retransmission-count distribution, observed as each
    /// chunk retires from the replay window (acked) or exhausts its
    /// budget. Deterministic for a given seed, like every field above.
    pub retry_hist: HistogramSnapshot,
}

struct WindowEntry {
    seq: u32,
    frame: Vec<u8>,
    /// Retransmissions so far (0 = only the original send).
    retries: u32,
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

impl std::fmt::Display for ResumeReject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeReject::ImageMismatch => write!(f, "image id mismatch"),
            ResumeReject::BadRange => write!(f, "journal longer than the send ledger"),
            ResumeReject::DigestMismatch => write!(f, "journal digest mismatch"),
        }
    }
}

/// Sending half of the ARQ stream. Generic over [`FrameLink`] so tests
/// can run it over a clean [`Channel`] and the driver over a
/// [`FaultyEndpoint`](crate::FaultyEndpoint).
pub struct ReliableChunkSender<L: FrameLink> {
    link: L,
    cfg: ArqConfig,
    codec: WireCodec,
    next_seq: u32,
    window: VecDeque<WindowEntry>,
    /// Frame copies accepted by the link (for lossless links this *is*
    /// the intact-delivery count the ack ledger balances against).
    wire_sends: u64,
    stats: ArqSenderStats,
    /// Live retry-count distribution, snapshotted into
    /// [`ArqSenderStats::retry_hist`] on [`Self::stats`].
    retry_hist: Histogram,
    /// Send ledger: one record per distinct chunk shipped, mirroring what
    /// a journaling receiver records. Resume digests validate against it.
    records: Vec<ChunkRecord>,
    /// Cumulative acknowledgement high-water mark: every chunk below this
    /// was confirmed received.
    acked_next: u32,
    track: Track,
}

impl<L: FrameLink> ReliableChunkSender<L> {
    /// A fresh stream over `link`, starting at sequence 0.
    pub fn new(link: L, cfg: ArqConfig) -> Self {
        ReliableChunkSender {
            link,
            cfg,
            codec: WireCodec::default(),
            next_seq: 0,
            window: VecDeque::new(),
            wire_sends: 0,
            stats: ArqSenderStats::default(),
            retry_hist: Histogram::new(),
            records: Vec::new(),
            acked_next: 0,
            track: Track::off(),
        }
    }

    /// Record protocol events on `track` (`chunk.sent`, `chunk.retried`,
    /// `ack`, `nack`, `retries.exhausted`).
    pub fn with_track(mut self, track: Track) -> Self {
        self.track = track;
        self
    }

    /// Choose whether this stream compresses (default: stored). The
    /// compressed frame is built once and kept in the replay window, so
    /// retransmissions resend the same wire bytes without recompressing.
    pub fn with_codec(mut self, codec: WireCodec) -> Self {
        self.codec = codec;
        self
    }

    /// Protocol counters so far.
    pub fn stats(&self) -> ArqSenderStats {
        let mut s = self.stats;
        s.retry_hist = self.retry_hist.snapshot();
        s
    }

    /// Sequence number the next chunk will carry.
    pub fn chunks_sent(&self) -> u32 {
        self.next_seq
    }

    /// Cumulative acknowledgement high-water mark: every chunk below this
    /// was confirmed received (and journaled, on a journaling receiver).
    pub fn acked_chunks(&self) -> u32 {
        self.acked_next
    }

    /// Frames currently in the replay window (shipped, not yet acked).
    /// Bounded by `cfg.window` at every observable point: `ship` blocks
    /// in `await_progress` rather than letting the window grow — an
    /// invariant the `hpm-model` protocol checker proves exhaustively
    /// and `window_never_exceeds_config_against_a_stalling_receiver`
    /// exercises at runtime.
    pub fn window_len(&self) -> usize {
        self.window.len()
    }

    /// The send ledger: one [`ChunkRecord`] per distinct chunk shipped,
    /// in sequence order. A later resume validates its journal digest
    /// against a prefix of this ledger.
    pub fn records(&self) -> &[ChunkRecord] {
        &self.records
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
        const BACKSTOP: Duration = Duration::from_secs(5);
        assert_eq!(
            self.next_seq, 0,
            "resume handshake only precedes a stream, never splices into one"
        );
        let raw = self.link.recv_control_timeout(BACKSTOP)?;
        let ctrl = unframe_control(&raw).map_err(|e| NetError::ChunkFraming {
            chunk: 0,
            reason: format!("bad resume handshake frame: {e}"),
        })?;
        let Control::Resume {
            image_id: claimed_id,
            next,
            digest,
        } = ctrl
        else {
            return Err(NetError::ChunkFraming {
                chunk: 0,
                reason: format!("expected a resume handshake, got {ctrl:?}"),
            });
        };
        let reject = if claimed_id != image_id {
            Some(ResumeReject::ImageMismatch)
        } else if next as usize > ledger.len() {
            Some(ResumeReject::BadRange)
        } else if records_digest(&ledger[..next as usize]) != digest {
            Some(ResumeReject::DigestMismatch)
        } else {
            None
        };
        if let Some(reason) = reject {
            self.track.event(
                "resume.rejected",
                &[("claimed_next", next as u64), ("reason", reason as u64)],
            );
            return Ok(ResumeDecision::Rejected(reason));
        }
        let skipped = &ledger[..next as usize];
        let bytes_saved_raw = skipped.iter().map(|r| r.raw_len as u64).sum();
        let bytes_saved_wire = skipped.iter().map(|r| r.wire_len as u64).sum();
        self.records = skipped.to_vec();
        self.next_seq = next;
        self.acked_next = next;
        self.track.event(
            "resume.accepted",
            &[("next", next as u64), ("bytes_saved", bytes_saved_raw)],
        );
        Ok(ResumeDecision::Accepted {
            next,
            bytes_saved_raw,
            bytes_saved_wire,
        })
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
        self.link.flush()?;
        while !self.window.is_empty() {
            self.await_progress()?;
        }
        Ok(self.next_seq)
    }

    fn ship(&mut self, payload: &[u8], last: bool) -> Result<(), NetError> {
        let (seq, raw_len) = (self.next_seq, payload.len());
        let (frame, wire_len, crc) = frame_chunk(seq, last, payload, self.codec == WireCodec::V3);
        if let Some(s) = self.link.transfer_stats() {
            s.observe_chunk_out(raw_len as u64, wire_len as u64, wire_len < raw_len);
        }
        self.next_seq += 1;
        self.records.push(ChunkRecord {
            index: seq,
            raw_len: raw_len as u32,
            wire_len: wire_len as u32,
            crc,
            phase: RestorePhase::for_chunk(seq, last),
        });
        self.link.send_frame(frame.clone())?;
        self.stats.frames_sent += 1;
        self.wire_sends += 1;
        self.window.push_back(WindowEntry {
            seq,
            frame,
            retries: 0,
        });
        self.track.event(
            "chunk.sent",
            &[("chunk", seq as u64), ("window", self.window.len() as u64)],
        );
        // Control frames are processed ONLY inside `await_progress`,
        // exactly one per call — never drained opportunistically here.
        // An opportunistic drain would process a race-dependent number
        // of acks/nacks, moving retransmissions to wall-clock-dependent
        // wire positions and destroying run-to-run reproducibility of
        // the recovery counters.
        while self.window.len() >= self.cfg.window as usize {
            self.await_progress()?;
        }
        Ok(())
    }

    fn handle_control(&mut self, raw: &[u8]) -> Result<(), NetError> {
        let ctrl = unframe_control(raw).map_err(|e| NetError::ChunkFraming {
            chunk: self.window.front().map(|w| w.seq).unwrap_or(self.next_seq),
            reason: format!("bad control frame: {e}"),
        })?;
        match ctrl {
            Control::Ack { next } => {
                self.stats.acks_processed += 1;
                self.acked_next = self.acked_next.max(next);
                let mut pruned = 0u64;
                while self.window.front().is_some_and(|w| w.seq < next) {
                    let entry = self.window.pop_front().expect("front checked");
                    // The chunk retires: its retry count is final.
                    self.retry_hist.observe(entry.retries as u64);
                    pruned += 1;
                }
                self.track
                    .event("ack", &[("next", next as u64), ("pruned", pruned)]);
            }
            Control::Nack { seq } => {
                self.stats.nacks_processed += 1;
                // Stale NACKs (frame already acked and pruned) are ignored.
                if let Some(entry) = self.window.iter_mut().find(|w| w.seq == seq) {
                    entry.retries += 1;
                    let retries = entry.retries;
                    if retries > self.cfg.max_retries {
                        self.retry_hist.observe(retries as u64);
                        self.track.event(
                            "retries.exhausted",
                            &[("chunk", seq as u64), ("attempts", retries as u64)],
                        );
                        return Err(NetError::RetriesExhausted {
                            chunk: seq,
                            attempts: retries,
                            acked: self.acked_next,
                        });
                    }
                    let frame = entry.frame.clone();
                    self.stats.retransmits += 1;
                    self.track.event(
                        "chunk.retried",
                        &[
                            ("chunk", seq as u64),
                            ("retry", retries as u64),
                            ("cause_nack", 1),
                        ],
                    );
                    self.retransmit_frame(frame)?;
                }
            }
            Control::Resume { .. } => {
                // The handshake is only legal before the stream starts
                // (see `accept_resume`); mid-stream it means the peers
                // have lost protocol agreement.
                return Err(NetError::ChunkFraming {
                    chunk: self.window.front().map(|w| w.seq).unwrap_or(self.next_seq),
                    reason: "unexpected resume handshake mid-stream".into(),
                });
            }
        }
        Ok(())
    }

    /// Ship a retransmission. A `Disconnected` here is not yet fatal:
    /// the peer may have completed the stream (healed by a duplicate or
    /// a held frame) and hung up with its final ACKs still queued — the
    /// control drain decides whether the window actually empties.
    fn retransmit_frame(&mut self, frame: Vec<u8>) -> Result<(), NetError> {
        // Counted before the attempt: whether a late retransmission
        // lands depends on when the peer hung up, and the counters must
        // not inherit that race.
        self.stats.frames_sent += 1;
        match self.link.send_frame(frame) {
            Ok(()) => {
                self.wire_sends += 1;
                Ok(())
            }
            Err(NetError::Disconnected) => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Process exactly one control frame, or retransmit the window base
    /// when the link has provably gone silent.
    ///
    /// "Silent" is decided by a deterministic ledger, not a wall-clock
    /// guess: every frame copy the link delivered intact earns exactly
    /// one ACK from the peer, so while `intact deliveries > acks
    /// processed` a control frame is guaranteed to arrive and we block
    /// for it. Once the ledger balances with the window still occupied,
    /// nothing more will ever come — the outstanding copies were lost —
    /// and the base frame is retransmitted immediately, with the policy
    /// backoff charged to the **modeled** clock only.
    ///
    /// Together with the one-control-per-call discipline (no
    /// opportunistic draining anywhere), this makes every sender
    /// decision a pure function of protocol history: the wire order,
    /// the fault decisions keyed on it, and all recovery counters
    /// reproduce exactly across runs, no matter how the threads are
    /// scheduled. A real timed wait would fire or not depending on
    /// scheduler noise.
    ///
    /// Held (reordered) frames are deliberately *not* flushed here: a
    /// flush at a wall-clock-dependent moment would change the wire
    /// order between runs. A held mid-stream frame is recovered by the
    /// NACK/retransmission path; only a held terminator needs the
    /// explicit flush in [`Self::finish`].
    fn await_progress(&mut self) -> Result<(), NetError> {
        // Liveness backstop for the guaranteed-arrival wait: a correct
        // peer answers in microseconds; true silence this long means it
        // is wedged, and the retransmission path takes over.
        const BACKSTOP: Duration = Duration::from_secs(5);
        loop {
            let (base_seq, base_retries) = match self.window.front() {
                Some(w) => (w.seq, w.retries),
                None => return Ok(()),
            };
            let intact = self.link.intact_deliveries().unwrap_or(self.wire_sends);
            if intact > self.stats.acks_processed {
                match self.link.recv_control_timeout(BACKSTOP) {
                    Ok(raw) => {
                        self.handle_control(&raw)?;
                        return Ok(());
                    }
                    Err(NetError::Timeout) => {} // wedged peer: fall through
                    Err(e) => return Err(e),
                }
            }
            // The ack ledger balances and the window is still occupied:
            // the outstanding copies are gone. Backoff doubles per retry
            // already burned on the base frame.
            let wait = self.cfg.base_backoff * 2u32.saturating_pow(base_retries.min(10));
            self.stats.timeouts += 1;
            self.stats.modeled_backoff_nanos += wait.as_nanos() as u64;
            let retries = base_retries + 1;
            if retries > self.cfg.max_retries {
                self.retry_hist.observe(retries as u64);
                self.track.event(
                    "retries.exhausted",
                    &[("chunk", base_seq as u64), ("attempts", retries as u64)],
                );
                return Err(NetError::RetriesExhausted {
                    chunk: base_seq,
                    attempts: retries,
                    acked: self.acked_next,
                });
            }
            let front = self.window.front_mut().expect("window nonempty");
            front.retries = retries;
            let frame = front.frame.clone();
            self.stats.retransmits += 1;
            self.track.event(
                "chunk.retried",
                &[
                    ("chunk", base_seq as u64),
                    ("retry", retries as u64),
                    ("cause_timeout", 1),
                ],
            );
            self.retransmit_frame(frame)?;
        }
    }
}

/// Live receiver-side counters, shared out through an [`Arc`] because
/// the receiver itself disappears into a `Box<dyn ChunkSource>` in the
/// migration driver.
#[derive(Debug, Default)]
pub struct ArqReceiverCounters {
    corrupt_caught: AtomicU64,
    dups_absorbed: AtomicU64,
    reorders_absorbed: AtomicU64,
    acks_sent: AtomicU64,
    nacks_sent: AtomicU64,
    replays_below_start: AtomicU64,
}

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
        ArqReceiverSnapshot {
            corrupt_caught: self.corrupt_caught.load(Ordering::Relaxed),
            dups_absorbed: self.dups_absorbed.load(Ordering::Relaxed),
            reorders_absorbed: self.reorders_absorbed.load(Ordering::Relaxed),
            acks_sent: self.acks_sent.load(Ordering::Relaxed),
            nacks_sent: self.nacks_sent.load(Ordering::Relaxed),
            replays_below_start: self.replays_below_start.load(Ordering::Relaxed),
        }
    }

    fn bump(field: &AtomicU64) {
        field.fetch_add(1, Ordering::Relaxed);
    }
}

/// A verified frame held by the receiver, with the metadata a journal
/// record needs.
struct RxChunk {
    last: bool,
    payload: Vec<u8>,
    wire_len: u32,
    crc: u32,
}

/// Receiving half of the ARQ stream.
pub struct ReliableChunkReceiver {
    ch: Channel,
    window: u32,
    /// Next expected (highest contiguous + 1) sequence.
    next: u32,
    /// The sequence this stream started at (0, or the resume point).
    start: u32,
    /// Highest sequence seen in any valid arrival, for reorder counting.
    max_seen: Option<u32>,
    /// Valid frames waiting for the gap below them to fill.
    ooo: BTreeMap<u32, RxChunk>,
    /// Contiguous frames ready to hand to the caller.
    ready: VecDeque<(bool, Vec<u8>)>,
    /// Sequences already NACKed — each missing frame is asked for once;
    /// after that the sender's timeout path owns recovery.
    nacked: HashSet<u32>,
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
            window: cfg.window,
            next: 0,
            start: 0,
            max_seen: None,
            ooo: BTreeMap::new(),
            ready: VecDeque::new(),
            nacked: HashSet::new(),
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
        rx.next = journal.next_chunk();
        rx.start = rx.next;
        rx.ch.send(frame_control(Control::Resume {
            image_id: journal.image_id(),
            next: rx.next,
            digest: journal.digest(),
        }))?;
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
        self.next
    }

    /// Whether the LAST frame has been consumed.
    pub fn is_done(&self) -> bool {
        self.done
    }

    fn send_control(&self, ctrl: Control) -> Result<(), NetError> {
        self.ch.send(frame_control(ctrl))
    }

    /// Receive the next payload chunk; `Ok(None)` once the stream is
    /// complete. Duplicates and in-window reordering are absorbed;
    /// corruption triggers a NACK; a frame beyond the window or an
    /// unparseable frame is a hard error.
    pub fn recv_chunk(&mut self) -> Result<Option<Vec<u8>>, NetError> {
        loop {
            if let Some((last, payload)) = self.ready.pop_front() {
                if last {
                    self.done = true;
                    if payload.is_empty() {
                        return Ok(None);
                    }
                    return Ok(Some(payload));
                }
                return Ok(Some(payload));
            }
            if self.done {
                return Ok(None);
            }
            let raw = self.ch.recv()?;
            let parsed = unframe_chunk_any(&raw).map_err(|e| NetError::ChunkFraming {
                chunk: self.next,
                reason: e.to_string(),
            })?;
            let seq = parsed.seq;
            if parsed.verify_crc().is_err() {
                // A damaged frame is treated exactly like a dropped one:
                // counted, then left for the gap-NACK (fired when a
                // higher frame lands) or the sender's timeout to heal.
                // NACKing immediately would put the clean retransmission
                // at a wall-clock-dependent wire position and make the
                // reorder counter irreproducible.
                ArqReceiverCounters::bump(&self.counters.corrupt_caught);
                self.track.event("crc.fail", &[("chunk", seq as u64)]);
                continue;
            }
            if seq < self.next {
                ArqReceiverCounters::bump(&self.counters.dups_absorbed);
                if seq < self.start {
                    // A chunk this destination already held before the
                    // stream began: a resume that re-sends verified data.
                    ArqReceiverCounters::bump(&self.counters.replays_below_start);
                    self.track
                        .event("replay.below_start", &[("chunk", seq as u64)]);
                }
                self.track.event("dup", &[("chunk", seq as u64)]);
                // Re-ack so a sender that missed the original ack prunes.
                self.send_control(Control::Ack { next: self.next })?;
                ArqReceiverCounters::bump(&self.counters.acks_sent);
                continue;
            }
            if seq >= self.next + self.window {
                return Err(NetError::ChunkFraming {
                    chunk: seq,
                    reason: format!(
                        "sequence {seq} outside the receive window (next {}, window {})",
                        self.next, self.window
                    ),
                });
            }
            let late = self.max_seen.is_some_and(|m| m > seq);
            // The CRC (over header and wire bytes) has passed, so a
            // payload that does not expand to its `raw_len` was framed
            // wrong at the source — a hard error, not retransmittable
            // corruption.
            let last = parsed.last;
            let wire_len = parsed.payload.len() as u32;
            let crc = parsed.crc;
            let payload = parsed.into_payload().map_err(|e| NetError::ChunkFraming {
                chunk: seq,
                reason: format!("payload failed to expand: {e}"),
            })?;
            let chunk = RxChunk {
                last,
                payload,
                wire_len,
                crc,
            };
            if seq == self.next {
                if late {
                    ArqReceiverCounters::bump(&self.counters.reorders_absorbed);
                    self.track.event("reorder", &[("chunk", seq as u64)]);
                }
                self.accept(chunk)?;
                while let Some(c) = self.ooo.remove(&self.next) {
                    self.accept(c)?;
                }
            } else {
                match self.ooo.entry(seq) {
                    std::collections::btree_map::Entry::Occupied(_) => {
                        ArqReceiverCounters::bump(&self.counters.dups_absorbed);
                    }
                    std::collections::btree_map::Entry::Vacant(v) => {
                        if late {
                            ArqReceiverCounters::bump(&self.counters.reorders_absorbed);
                        }
                        v.insert(chunk);
                    }
                }
            }
            self.track.event(
                "chunk.recv",
                &[("chunk", seq as u64), ("next", self.next as u64)],
            );
            self.max_seen = Some(self.max_seen.map_or(seq, |m| m.max(seq)));
            self.send_control(Control::Ack { next: self.next })?;
            ArqReceiverCounters::bump(&self.counters.acks_sent);
            // A buffered frame above a missing one: name the gap once.
            if !self.ooo.is_empty() && self.nacked.insert(self.next) {
                self.send_control(Control::Nack { seq: self.next })?;
                ArqReceiverCounters::bump(&self.counters.nacks_sent);
                self.track
                    .event("nack.sent", &[("chunk", self.next as u64)]);
            }
        }
    }

    /// Consume one in-order verified chunk: journal it, then queue it for
    /// the caller. The injected crash fires *before* consumption, so a
    /// destination that "dies at chunk k" leaves exactly chunks `0..k` in
    /// its journal — the invariant the resume handshake relies on.
    fn accept(&mut self, chunk: RxChunk) -> Result<(), NetError> {
        if self.crash_at == Some(self.next) {
            self.track
                .event("crash.injected", &[("chunk", self.next as u64)]);
            return Err(NetError::PeerCrashed { chunk: self.next });
        }
        if let Some(journal) = &self.journal {
            let record = ChunkRecord {
                index: self.next,
                raw_len: chunk.payload.len() as u32,
                wire_len: chunk.wire_len,
                crc: chunk.crc,
                phase: RestorePhase::for_chunk(self.next, chunk.last),
            };
            let mut guard = journal.lock().unwrap_or_else(|p| p.into_inner());
            guard
                .append(record, chunk.payload.clone())
                .map_err(|e| NetError::ChunkFraming {
                    chunk: self.next,
                    reason: format!("journal append failed: {e}"),
                })?;
        }
        self.ready.push_back((chunk.last, chunk.payload));
        self.next += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{channel_pair, TransferSnapshot};
    use crate::fault::{FaultPlan, FaultyEndpoint};
    use crate::model::NetworkModel;

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
    fn disconnect_exhausts_retries_not_patience() {
        let plan = FaultPlan {
            disconnect_at: Some(5),
            ..FaultPlan::none()
        };
        let t0 = std::time::Instant::now();
        let err = pump(WireCodec::V2, plan, payloads(30)).unwrap_err();
        assert!(
            matches!(err, NetError::RetriesExhausted { .. }),
            "got {err:?}"
        );
        // Bounded: 4 retries at 2ms base is well under a second.
        assert!(t0.elapsed() < Duration::from_secs(30));
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
        // The journal survives death as durable bytes.
        let stored = journal.lock().unwrap_or_else(|p| p.into_inner()).encode();
        let recovered = RestoreJournal::decode(&stored).unwrap();
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
        let err = pump(WireCodec::V2, plan, payloads(30)).unwrap_err();
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

    /// A link whose peer never answers: every frame is accepted and
    /// silently discarded, no control ever arrives. `intact_deliveries`
    /// reports zero, so the sender's determinism ledger concludes every
    /// copy was lost and takes the modeled-timeout path immediately —
    /// the test observes pure window discipline with no wall-clock
    /// waits.
    struct StallingLink {
        frames_accepted: u32,
    }

    impl FrameLink for StallingLink {
        fn send_frame(&mut self, _frame: Vec<u8>) -> Result<(), NetError> {
            self.frames_accepted += 1;
            Ok(())
        }

        fn try_recv_control(&mut self) -> Option<Vec<u8>> {
            None
        }

        fn recv_control_timeout(&mut self, _timeout: Duration) -> Result<Vec<u8>, NetError> {
            Err(NetError::Timeout)
        }

        fn intact_deliveries(&self) -> Option<u64> {
            Some(0)
        }
    }

    #[test]
    fn window_never_exceeds_config_against_a_stalling_receiver() {
        let cfg = ArqConfig {
            window: 4,
            max_retries: 2,
            base_backoff: Duration::from_millis(1),
        };
        let mut tx = ReliableChunkSender::new(StallingLink { frames_accepted: 0 }, cfg);
        let mut result = Ok(());
        for i in 0..8u8 {
            result = tx.send(&[i; 16]);
            // The bound holds at every observable point: `ship` blocks
            // in `await_progress` rather than letting the window grow.
            assert!(
                tx.window_len() <= cfg.window as usize,
                "window grew to {} after send {i} (config window {})",
                tx.window_len(),
                cfg.window
            );
            if result.is_err() {
                break;
            }
        }
        // Filling the window forces the sender to block for progress;
        // against total silence that ends in RetriesExhausted — the
        // sender fails cleanly, it never overruns the window.
        let err = result.expect_err("a stalling receiver must exhaust retries");
        let NetError::RetriesExhausted {
            chunk,
            attempts,
            acked,
        } = err
        else {
            panic!("expected RetriesExhausted, got {err:?}");
        };
        assert_eq!(chunk, 0, "the window base is the frame that exhausts");
        assert_eq!(attempts, cfg.max_retries + 1);
        assert_eq!(acked, 0);
        assert_eq!(
            tx.window_len(),
            cfg.window as usize,
            "the window is exactly full, never over-full"
        );
        // Only the window's worth of distinct chunks ever shipped: the
        // fifth chunk was never created while the window was full.
        assert_eq!(tx.chunks_sent(), cfg.window);
        let stats = tx.stats();
        assert_eq!(stats.timeouts, cfg.max_retries as u64 + 1);
        assert_eq!(stats.retransmits, cfg.max_retries as u64);
        // Wire copies: 4 fresh frames + 2 base retransmissions.
        assert_eq!(tx.into_link().frames_accepted, 6);
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

        fn try_recv_control(&mut self) -> Option<Vec<u8>> {
            self.ch.try_recv()
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
