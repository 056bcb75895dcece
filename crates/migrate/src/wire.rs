//! One transfer attempt: bytes leave a producer on the source, cross the
//! modeled link, and reach a consumer on the destination — one thread per
//! machine.
//!
//! [`attempt`] is the only place a thread is spawned. The producer (the
//! collection DFS, or a finished frame cut into chunks) runs on the
//! calling thread, the source's, and frames and sends each chunk it
//! pushes itself, through the chunk sender behind the fault injector,
//! fresh or resuming from a journal; the consumer (a streaming resume, or
//! a buffer reassembling the frame) runs on the one destination thread
//! over the chunk receiver, which it borrows and which, on a resumed
//! attempt, hands out the journaled chunks before it reads the pipe.
//! Each end counts what it sent and nothing else — the sender its frames
//! and their payload, the receiver the resume handshake — and the
//! attempt's transfer is their sum. The degradation ladder's
//! two streamed rungs and the pre-copy rounds are calls of this
//! function, and [`ship_frame`] is its whole-frame form. Nothing waits on
//! the wall clock for the link: each stage stamps what it did to every
//! frame, and the report computes the downtime from the stamps
//! ([`critical_path`](crate::report::critical_path)).
//!
//! What every stage does is a function of the stream and the fault plan,
//! never of thread timing, so a seed's log and counters reproduce byte
//! for byte: the link is an ordered pipe, nothing the source does waits
//! on the destination, the destination's end of the pipe outlives the
//! destination thread (the receiver is only lent to it, so a source never
//! learns mid-attempt that the destination died), and a source whose pipe
//! broke takes every further chunk and drops it, so the collector always
//! runs to the end of its DFS or to its injected crash.

use crate::report::{FrameStamp, RecoveryStats};
use crate::MigError;
use hpm_core::{ChunkSource, CoreError};
use hpm_net::{
    channel_pair, ArqConfig, FaultPlan, FaultyEndpoint, NetError, NetworkModel,
    ReliableChunkReceiver, ReliableChunkSender, ResumeDecision, TransferSnapshot,
};
use hpm_obs::Track;
use hpm_xdr::{ChunkRecord, RestoreJournal};
use std::time::{Duration, Instant};

/// How one attempt's chunk stream is framed, faulted and instrumented.
#[derive(Clone)]
pub(crate) struct Lane {
    /// Payload bytes per chunk.
    pub chunk_bytes: usize,
    /// What the deterministic fault injector does to this attempt.
    pub plan: FaultPlan,
    /// Log track of the sending end (single-writer, like all of them).
    pub tx_track: Track,
    /// Log track of the receiving end.
    pub rx_track: Track,
    /// Log track of the fault injector.
    pub fault_track: Track,
    /// The destination's chunk journal, which the attempt hands back
    /// ([`Attempt::journal`]); `None` when nothing resumes from it (a
    /// pre-copy round's whole frame).
    pub journal: Option<RestoreJournal>,
    /// When this attempt resumes an interrupted stream from `journal`:
    /// that stream's image id and send ledger.
    pub resume: Option<(u64, Vec<ChunkRecord>)>,
}

/// The sink a producer pushes its chunks into. It borrows each chunk and
/// frames it before it returns.
pub(crate) type Sink<'a> = &'a mut dyn FnMut(&[u8]) -> Result<(), CoreError>;

/// What one attempt produced, whether or not it succeeded.
pub(crate) struct Attempt<S, D> {
    /// The producer's result, when it ran to completion.
    pub produced: Option<S>,
    /// Wall time the producer ran for, less its framing and sending.
    pub produce_time: Duration,
    /// The consumer's result, when it ran to completion.
    pub consumed: Option<D>,
    /// What the source's sending end got done.
    pub wire: WireDone,
    /// What the link carried: the source end's sends (`wire.sent`) plus
    /// the destination end's, the resume handshake.
    pub transfer: TransferSnapshot,
    /// What the pipe faults did.
    pub recovery: RecoveryStats,
    /// Already-verified chunks a resumed stream re-delivered anyway.
    pub wire_replays: u64,
    /// The injected source crash fired mid-production.
    pub src_crashed: bool,
    /// The failure that killed the attempt, if any.
    pub error: Option<MigError>,
    /// When collection began: the origin of `frames`.
    pub start: Instant,
    /// Each frame's stamps, in stream order (complete on success).
    pub frames: Vec<FrameStamp>,
    /// The lane's journal, holding every chunk the destination verified.
    pub journal: Option<RestoreJournal>,
}

/// What the source's sending end hands back. Its statistics survive
/// failure.
#[derive(Default)]
pub(crate) struct WireDone {
    /// The sender's own failure (before triage against the other stages).
    error: Option<NetError>,
    /// What the source's end sent: its messages, and the payload of the
    /// chunks it framed.
    pub sent: TransferSnapshot,
    /// Send ledger: one [`ChunkRecord`] per framed chunk, in sequence
    /// order. A later resume handshake validates against it.
    pub records: Vec<ChunkRecord>,
    faults: hpm_net::FaultStats,
    /// The sender refused the resume handshake (digest/range/id).
    pub rejected: bool,
    /// Wire bytes the resume handshake avoided re-sending.
    pub bytes_saved_wire: u64,
    /// The sender's time and bytes per frame shipped.
    sends: Vec<(Duration, u64)>,
}

/// The chunk receiver, lent to the destination thread, as the restorer's
/// [`ChunkSource`], mapping transport failures into the stream layer.
pub(crate) struct NetChunkSource<'r>(&'r mut ReliableChunkReceiver);

impl NetChunkSource<'_> {
    /// The next payload chunk, `None` at the end of the stream.
    pub fn recv(&mut self) -> Result<Option<Vec<u8>>, NetError> {
        self.0.recv_chunk()
    }
}

impl ChunkSource for NetChunkSource<'_> {
    fn next_chunk(&mut self) -> Result<Option<Vec<u8>>, CoreError> {
        self.recv().map_err(|e| CoreError::Source(e.to_string()))
    }
}

/// Run one transfer attempt over `link`: `produce` on this (the source's)
/// thread, pushing into a sink that frames and sends each chunk, and
/// `consume` on a destination thread over the receiving end (which, when
/// the lane resumes, hands out the journaled chunks first). The scope
/// joins the destination on every path, so no exit leaks a blocked
/// thread or discards its error; the outcome carries whatever each stage
/// got done plus the root cause of a failure: the producer's own (a
/// collection error or the injected source crash), else the
/// destination's, which says why the stream ended, else the sender's.
pub(crate) fn attempt<S, D: Send>(
    link: NetworkModel,
    lane: Lane,
    produce: impl FnOnce(Sink<'_>) -> Result<S, MigError>,
    consume: impl FnOnce(NetChunkSource<'_>) -> Result<D, MigError> + Send,
) -> Result<Attempt<S, D>, MigError> {
    let Lane {
        plan,
        tx_track,
        rx_track,
        fault_track,
        journal,
        resume,
        ..
    } = lane;
    let (src_end, dst_end) = channel_pair(link);
    let rx = match (journal, resume.is_some()) {
        (Some(journal), true) => ReliableChunkReceiver::new_resuming(dst_end, journal)?,
        (Some(journal), false) => {
            ReliableChunkReceiver::new(dst_end, ArqConfig).with_journal(journal)
        }
        (None, _) => ReliableChunkReceiver::new(dst_end, ArqConfig),
    };
    let mut rx = rx.with_track(rx_track).with_crash_at(plan.dst_crash_at);
    // The journaled chunks it replays before its first pipe read.
    let replayed = rx.chunks_received() as usize;
    let lent = &mut rx;

    let endpoint = FaultyEndpoint::new(src_end, plan).with_track(fault_track);
    let mut tx = ReliableChunkSender::new(endpoint, ArqConfig).with_track(tx_track);
    let mut wire = WireDone::default();
    let mut skip = 0;
    if let Some((image_id, ledger)) = resume {
        match tx.accept_resume(image_id, &ledger) {
            Ok(ResumeDecision::Accepted {
                next,
                bytes_saved_wire,
                ..
            }) => {
                // Chunks below `next` are already CRC-verified and
                // journaled on the destination; the handshake promised
                // not to re-send them.
                skip = next as usize;
                wire.bytes_saved_wire = bytes_saved_wire;
            }
            Ok(ResumeDecision::Rejected(_)) => wire.rejected = true,
            Err(e) => wire.error = Some(e),
        }
    }
    // Until the pipe breaks; a refused handshake ships nothing at all.
    let mut live = wire.error.is_none() && !wire.rejected;
    // The injected source crash is counted in pushed chunks.
    let (src_crash_at, mut src_crashed) = (plan.src_crash_at, false);
    // p_i of the critical path: when chunk i was pushed, on the
    // producer's clock, which leaves out the framing of earlier chunks.
    let (mut pushed, mut framing) = (Vec::new(), Duration::ZERO);

    let (produced, consumed, start) = std::thread::scope(|s| {
        let destination = s.spawn(move || consume(NetChunkSource(lent)));
        // Owned by the scope, so a panicking producer closes the pipe
        // before the scope joins the destination.
        let mut tx = tx;
        let start = Instant::now();
        let mut sink = |chunk: &[u8]| {
            let i = pushed.len();
            if src_crash_at == Some(i as u32) {
                src_crashed = true;
                return Err(CoreError::Source("source crashed mid-collect".into()));
            }
            pushed.push(start.elapsed() - framing);
            if live && i >= skip {
                let t0 = Instant::now();
                let sent = tx.send(chunk);
                framing += t0.elapsed();
                wire.error = sent.err();
                live = wire.error.is_none();
            }
            Ok(())
        };
        let produced = produce(&mut sink);
        // The terminator's p_n: production ended.
        pushed.push(start.elapsed() - framing);
        // A producer that failed — the injected crash, or a collector
        // that refused — never sends its terminator.
        if live && produced.is_ok() {
            wire.error = tx.finish().err();
        }
        wire.records = tx.records().to_vec();
        wire.sends = tx.sends().to_vec();
        wire.sent = tx.transfer();
        // Closing the pipe: the destination reads what is queued, then
        // `Disconnected`.
        wire.faults = tx.into_link().stats();
        let consumed = destination
            .join()
            .map_err(|_| MigError::Protocol("destination thread panicked".into()))?;
        Ok::<_, MigError>((produced, consumed, start))
    })?;

    let error = (produced.as_ref().err().cloned())
        .or_else(|| consumed.as_ref().err().cloned())
        .or_else(|| wire.error.clone().map(MigError::from));
    // The destination's waits and counters, read after the join.
    let (receiver, waits) = (rx.counters(), rx.waits());
    let mut transfer = wire.sent;
    transfer += rx.transfer();
    let since = |t: Instant| t.saturating_duration_since(start);
    let sent = (pushed.iter().skip(replayed).zip(&wire.sends).zip(waits)).map(
        |((&pushed, &(sending, bytes)), &(asked, arrived))| FrameStamp {
            pushed,
            sending,
            wire_bytes: Some(bytes),
            asked: since(asked),
            arrived: since(arrived),
        },
    );
    // Replayed chunks were in hand when the attempt began.
    let frames = std::iter::repeat_n(FrameStamp::default(), replayed)
        .chain(sent)
        .collect();
    Ok(Attempt {
        produced: produced.ok(),
        produce_time: pushed[pushed.len() - 1], // p_n
        consumed: consumed.ok(),
        recovery: RecoveryStats::from_parts(receiver, wire.faults),
        wire_replays: receiver.replays_below_start,
        src_crashed,
        error,
        wire,
        transfer,
        start,
        frames,
        journal: rx.into_journal(),
    })
}

/// What the link carried, summed over every frame shipped through it.
#[derive(Default)]
pub(crate) struct Carried {
    /// Channel accounting.
    pub transfer: TransferSnapshot,
    /// What the pipe faults did (all zero for single messages).
    pub recovery: RecoveryStats,
}

/// The whole-frame form of an attempt: ship one finished frame
/// source→destination and return it as received, adding the trip's cost
/// to `carried`. Without a lane it is a single message on the channel —
/// no thread, no copy, both ends recording on the caller's `track`; with
/// one, the frame crosses as a chunk stream cut at the lane's
/// `chunk_bytes`, and a connection that ends early is redialled once,
/// its faults spent, to carry the whole frame again (there is no journal
/// to resume a frame from).
pub(crate) fn ship_frame(
    frame: Vec<u8>,
    link: NetworkModel,
    lane: Option<Lane>,
    track: &Track,
    carried: &mut Carried,
) -> Result<Vec<u8>, MigError> {
    let Some(lane) = lane else {
        let (src_end, dst_end) = channel_pair(link);
        let src_end = src_end.with_track(track.clone());
        let dst_end = dst_end.with_track(track.clone());
        src_end.send(frame)?;
        let bytes = dst_end.recv()?;
        carried.transfer += src_end.stats();
        return Ok(bytes);
    };
    let (len, cut) = (frame.len(), lane.chunk_bytes.max(1));
    let mut ship = |lane| {
        let out = attempt(
            link,
            lane,
            |sink| frame.chunks(cut).try_for_each(|c| Ok(sink(c)?)),
            |mut rx| {
                let mut bytes = Vec::with_capacity(len);
                while let Some(chunk) = rx.recv()? {
                    bytes.extend_from_slice(&chunk);
                }
                Ok(bytes)
            },
        )?;
        carried.transfer += out.transfer;
        carried.recovery += out.recovery;
        match (out.error, out.consumed) {
            (None, Some(bytes)) => Ok(bytes),
            (e, _) => {
                Err(e.unwrap_or_else(|| MigError::Protocol("frame vanished in transit".into())))
            }
        }
    };
    let redial = Lane {
        plan: lane.plan.resume_plan(),
        ..lane.clone()
    };
    // Only a pipe that failed is worth a second connection.
    match ship(lane) {
        Err(MigError::Net(_)) => ship(redial),
        out => out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CHUNKS: usize = 10;

    fn lane(plan: FaultPlan) -> Lane {
        Lane {
            chunk_bytes: 16,
            plan,
            tx_track: Track::off(),
            rx_track: Track::off(),
            fault_track: Track::off(),
            journal: Some(RestoreJournal::new(1)),
            resume: None,
        }
    }

    /// Push `CHUNKS` distinct chunks, counting every push the sink took,
    /// and read the stream back on the destination.
    fn run(lane: Lane) -> Attempt<usize, Vec<Vec<u8>>> {
        attempt(
            NetworkModel::instant(),
            lane,
            |sink| {
                let mut pushed = 0;
                for i in 0..CHUNKS {
                    sink(&vec![i as u8; 16 + i])?;
                    pushed += 1;
                }
                Ok(pushed)
            },
            |mut rx| {
                let mut got = Vec::new();
                while let Some(chunk) = rx.recv()? {
                    got.push(chunk);
                }
                Ok(got)
            },
        )
        .expect("the attempt ran")
    }

    /// A broken pipe stops the frames, not the producer: it pushes every
    /// chunk of the clean run, exactly k frames cross, and the
    /// destination reads them and then `Disconnected`.
    #[test]
    fn a_broken_pipe_takes_every_chunk_but_sends_only_the_frames_before_it() {
        let k = 3;
        let out = run(lane(FaultPlan {
            disconnect_at: Some(k),
            ..FaultPlan::none()
        }));
        assert_eq!(out.produced, Some(CHUNKS));
        assert_eq!(out.wire.sends.len(), k as usize);
        assert_eq!(out.wire.sent.messages_sent, k as u64);
        assert_eq!(out.wire.error, Some(NetError::Disconnected));
        assert_eq!(out.error, Some(NetError::Disconnected.into()));
        assert!(out.consumed.is_none());
        assert_eq!(out.journal.unwrap().next_chunk(), k);
    }

    /// A destination that dies at chunk k is invisible to the source: no
    /// send fails, and every frame, terminator included, is shipped.
    #[test]
    fn a_destination_crash_never_fails_a_send() {
        let k = 4;
        let out = run(lane(FaultPlan {
            dst_crash_at: Some(k),
            ..FaultPlan::none()
        }));
        assert_eq!(out.produced, Some(CHUNKS));
        assert_eq!(out.wire.error, None);
        assert_eq!(out.wire.sends.len(), CHUNKS + 1);
        assert!(out.wire.records.last().unwrap().phase == hpm_xdr::RestorePhase::Terminator);
        assert_eq!(out.error, Some(NetError::PeerCrashed { chunk: k }.into()));
        assert_eq!(out.journal.unwrap().next_chunk(), k);
    }

    /// A source that crashes after k chunks never sends the terminator:
    /// the destination reads the k frames, then `Disconnected`.
    #[test]
    fn a_source_crash_sends_no_terminator() {
        let k = 5;
        let out = run(lane(FaultPlan {
            src_crash_at: Some(k),
            ..FaultPlan::none()
        }));
        assert!(out.src_crashed);
        assert_eq!(out.produced, None);
        assert_eq!(out.wire.error, None);
        assert_eq!(out.wire.sends.len(), k as usize);
        assert_eq!(out.wire.records.len(), k as usize);
        assert!(out
            .wire
            .records
            .iter()
            .all(|r| r.phase != hpm_xdr::RestorePhase::Terminator));
        let crashed = MigError::from(CoreError::Source("source crashed mid-collect".into()));
        assert_eq!(out.error, Some(crashed));
        assert_eq!(out.journal.unwrap().next_chunk(), k);
    }

    /// A resumed attempt whose handshake is accepted: each end reports
    /// what it sent — the destination its one handshake, the source its
    /// frames — and the two sum to what the attempt carried. The
    /// destination reads the journaled chunks, then the live ones.
    #[test]
    fn a_resumed_attempt_counts_each_end_on_its_own() {
        let k = 4;
        let first = run(lane(FaultPlan {
            dst_crash_at: Some(k),
            ..FaultPlan::none()
        }));
        let out = run(Lane {
            journal: first.journal,
            resume: Some((1, first.wire.records)),
            ..lane(FaultPlan::none())
        });
        assert_eq!(out.error, None);
        let want: Vec<Vec<u8>> = (0..CHUNKS).map(|i| vec![i as u8; 16 + i]).collect();
        assert_eq!(out.consumed, Some(want));
        assert!(out.wire.bytes_saved_wire > 0);

        let control = hpm_xdr::Control::Resume {
            image_id: 1,
            next: k,
            digest: 0,
        };
        assert_eq!(hpm_xdr::frame_control(control).len(), 28);
        let source = out.wire.sent;
        assert_eq!(source.messages_sent, out.wire.sends.len() as u64);
        assert_eq!(source.messages_sent, (CHUNKS + 1) as u64 - k as u64);
        let frame_bytes: u64 = out.wire.sends.iter().map(|&(_, b)| b).sum();
        assert_eq!(source.bytes_sent, frame_bytes);
        // The destination's end sent the handshake and nothing else.
        let both = out.transfer;
        let handshake = (
            both.messages_sent - source.messages_sent,
            both.bytes_sent - source.bytes_sent,
        );
        assert_eq!(handshake, (1, 28));
        let link = NetworkModel::instant().tx_time(28).as_nanos() as u64;
        assert_eq!(both.modeled_tx_nanos, source.modeled_tx_nanos + link);
        let payload = |t: TransferSnapshot| {
            (
                t.raw_payload_bytes,
                t.wire_payload_bytes,
                t.chunks_compressed,
            )
        };
        assert_eq!(payload(both), payload(source));
    }

    /// A resuming source whose destination never queued the handshake is
    /// refused by name as soon as it looks, and ships nothing.
    #[test]
    fn a_missing_handshake_is_a_named_error_at_once() {
        let t0 = Instant::now();
        let out = run(Lane {
            journal: None,
            resume: Some((1, Vec::new())),
            ..lane(FaultPlan::none())
        });
        assert!(t0.elapsed() < Duration::from_secs(2), "{:?}", t0.elapsed());
        assert_eq!(out.wire.error, Some(NetError::MissingHandshake));
        assert!(out.wire.sends.is_empty());
        assert_eq!(out.produced, Some(CHUNKS));
        // The destination saw the pipe close with nothing on it.
        assert_eq!(out.error, Some(NetError::Disconnected.into()));
    }
}
