//! One transfer attempt: bytes leave a producer, cross the modeled link
//! on a wire thread, and reach a consumer.
//!
//! [`attempt`] is the only place threads are spawned. The producer (the
//! collection DFS, or a finished frame cut into chunks) runs on the
//! calling thread and pushes chunks into a sink; the wire thread frames
//! and sends them through the chunk sender behind the fault injector,
//! fresh or resuming from a journal; the consumer (a streaming
//! resume, or a buffer reassembling the frame) runs on a destination
//! thread over the chunk receiver. The degradation ladder's two streamed
//! rungs and the pre-copy rounds are calls of this function, and
//! [`ship_frame`] is its whole-frame form. Nothing waits on the wall
//! clock for the link: each stage stamps what it did to every frame, and
//! the report computes the downtime from the stamps
//! ([`critical_path`](crate::report::critical_path)).
//!
//! What every stage does is a function of the stream and the fault plan,
//! never of thread timing, so a seed's log and counters reproduce byte
//! for byte: the link is an ordered pipe, nothing the sender does waits
//! on the destination, the destination's end of the pipe stays open
//! until every thread has joined (a source never learns mid-attempt that
//! the destination died), and a wire thread whose pipe broke still takes
//! every chunk the producer pushes, so the collector always runs to the
//! end of its DFS or to its injected crash.

use crate::report::{FrameStamp, RecoveryStats};
use crate::MigError;
use hpm_core::{ChunkSource, CoreError};
use hpm_net::{
    channel_pair, ArqConfig, Channel, FaultPlan, FaultyEndpoint, NetError, NetworkModel,
    ReliableChunkReceiver, ReliableChunkSender, ResumeDecision, TransferSnapshot,
};
use hpm_obs::Track;
use hpm_xdr::{ChunkRecord, RestoreJournal};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
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
    /// The destination's chunk journal; `None` when nothing resumes from
    /// it (a pre-copy round's whole frame).
    pub journal: Option<Arc<Mutex<RestoreJournal>>>,
    /// When this attempt resumes an interrupted stream from `journal`:
    /// that stream's image id and send ledger.
    pub resume: Option<(u64, Vec<ChunkRecord>)>,
}

/// The sink a producer pushes its chunks into.
pub(crate) type Sink<'a> = &'a mut dyn FnMut(Vec<u8>) -> Result<(), CoreError>;

/// What one attempt produced, whether or not it succeeded.
pub(crate) struct Attempt<S, D> {
    /// The producer's result, when it ran to completion.
    pub produced: Option<S>,
    /// Wall time the producer ran for.
    pub produce_time: Duration,
    /// The consumer's result, when it ran to completion.
    pub consumed: Option<D>,
    /// What the wire thread got done.
    pub wire: WireDone,
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
}

/// What the wire thread hands back. Its statistics survive failure.
#[derive(Default)]
pub(crate) struct WireDone {
    /// The sender's own failure (before triage against the other stages).
    error: Option<NetError>,
    /// Channel accounting of the attempt.
    pub transfer: TransferSnapshot,
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

/// The chunk receiver as the restorer's [`ChunkSource`], mapping
/// transport failures into the stream layer. [`attempt`] holds a second
/// handle, so the destination's end of the pipe outlives the consumer.
#[derive(Clone)]
pub(crate) struct NetChunkSource(Arc<Mutex<ReliableChunkReceiver>>);

impl NetChunkSource {
    fn lock(&self) -> MutexGuard<'_, ReliableChunkReceiver> {
        self.0.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The next payload chunk, `None` at the end of the stream.
    pub fn recv(&self) -> Result<Option<Vec<u8>>, NetError> {
        self.lock().recv_chunk()
    }
}

impl ChunkSource for NetChunkSource {
    fn next_chunk(&mut self) -> Result<Option<Vec<u8>>, CoreError> {
        self.recv().map_err(|e| CoreError::Source(e.to_string()))
    }
}

/// A journal lock that survives a peer thread's panic: every journal
/// update leaves it a valid, contiguous prefix.
pub(crate) fn lock_journal(journal: &Mutex<RestoreJournal>) -> MutexGuard<'_, RestoreJournal> {
    journal.lock().unwrap_or_else(|p| p.into_inner())
}

/// The wire stage: optionally the resume handshake, then push each chunk
/// through the sender over the faulty pipe, then the terminator. Once
/// the pipe is done with — completed, broken, or refused by the
/// handshake — it is closed, and the rest of what the producer pushes is
/// taken and dropped.
fn wire_thread(
    src_end: Channel,
    chunk_rx: mpsc::Receiver<Vec<u8>>,
    lane: Lane,
    src_crashed: &AtomicBool,
) -> WireDone {
    let endpoint = FaultyEndpoint::new(src_end, lane.plan).with_track(lane.fault_track);
    let mut tx = ReliableChunkSender::new(endpoint, ArqConfig).with_track(lane.tx_track);
    let mut done = WireDone::default();
    let mut skip = 0;
    if let Some((image_id, ledger)) = &lane.resume {
        match tx.accept_resume(*image_id, ledger) {
            Ok(ResumeDecision::Accepted {
                next,
                bytes_saved_wire,
                ..
            }) => {
                skip = next as usize;
                done.bytes_saved_wire = bytes_saved_wire;
            }
            Ok(ResumeDecision::Rejected(_)) => done.rejected = true,
            Err(e) => done.error = Some(e),
        }
    }
    let mut chunks = chunk_rx.iter();
    // A rejected handshake ships nothing at all, and a crashed source
    // never sends its terminator.
    if done.error.is_none() && !done.rejected {
        // Chunks below `skip` are already CRC-verified and journaled on
        // the destination; the handshake promised not to re-send them.
        let mut sent = chunks
            .by_ref()
            .skip(skip)
            .try_for_each(|chunk| tx.send(&chunk));
        if sent.is_ok() && !src_crashed.load(Ordering::SeqCst) {
            sent = tx.finish().map(drop);
        }
        done.error = sent.err();
    }
    done.records = tx.records().to_vec();
    done.sends = tx.sends().to_vec();
    let endpoint = tx.into_link();
    done.faults = endpoint.stats();
    done.transfer = endpoint.channel().stats().snapshot();
    // Closing the pipe: the destination reads what is queued, then
    // `Disconnected`.
    drop(endpoint);
    chunks.for_each(drop);
    done
}

/// Run one transfer attempt over `link`: `produce` on this thread pushing
/// into the sink, the wire thread, and `consume` on a destination thread
/// over the receiving end (handed the journaled chunks to replay first
/// when the lane resumes). The scope joins every thread on every path, so
/// no exit leaks a blocked thread or discards its error; the outcome
/// carries whatever each stage got done plus the root cause of a failure:
/// the producer's own (a collection error or the injected source crash),
/// else the destination's, which says why the stream ended, else the
/// wire's.
pub(crate) fn attempt<S, D: Send>(
    link: NetworkModel,
    lane: Lane,
    produce: impl FnOnce(Sink<'_>) -> Result<S, MigError>,
    consume: impl FnOnce(NetChunkSource, Vec<Vec<u8>>) -> Result<D, MigError> + Send,
) -> Result<Attempt<S, D>, MigError> {
    let (src_end, dst_end) = channel_pair(link);
    let mut replay = Vec::new();
    let mut rx = match (&lane.journal, &lane.resume) {
        (Some(journal), Some(_)) => {
            let guard = lock_journal(journal);
            replay = guard.payloads().to_vec();
            ReliableChunkReceiver::new_resuming(dst_end, &guard)?
        }
        _ => ReliableChunkReceiver::new(dst_end, ArqConfig),
    }
    .with_track(lane.rx_track.clone())
    .with_crash_at(lane.plan.dst_crash_at);
    if let Some(journal) = &lane.journal {
        rx = rx.with_journal(Arc::clone(journal));
    }
    let rx_counters = rx.counters();
    let rx = NetChunkSource(Arc::new(Mutex::new(rx)));
    // The injected source crash is counted in pushed chunks.
    let src_crash_at = lane.plan.src_crash_at;
    let (chunk_tx, chunk_rx) = mpsc::channel::<Vec<u8>>();
    let src_crashed = AtomicBool::new(false);
    let replayed = replay.len();
    // p_i of the critical path: when chunk i was pushed.
    let mut pushed = Vec::new();

    std::thread::scope(|s| {
        let wire = s.spawn(|| wire_thread(src_end, chunk_rx, lane, &src_crashed));
        let destination = s.spawn({
            let rx = rx.clone();
            move || consume(rx, replay)
        });

        let start = Instant::now();
        let mut sink = |chunk: Vec<u8>| {
            if src_crash_at == Some(pushed.len() as u32) {
                src_crashed.store(true, Ordering::SeqCst);
                return Err(CoreError::Source("source crashed mid-collect".into()));
            }
            chunk_tx
                .send(chunk)
                .map_err(|_| CoreError::Source("chunk sink disconnected".into()))?;
            pushed.push(start.elapsed());
            Ok(())
        };
        let produced = produce(&mut sink);
        let produce_time = start.elapsed();
        // The terminator's p_n: production ended.
        pushed.push(produce_time);
        drop(chunk_tx); // end of stream: the wire thread sends LAST

        let consumed = destination
            .join()
            .map_err(|_| MigError::Protocol("destination thread panicked".into()))?;
        let wire = wire
            .join()
            .map_err(|_| MigError::Protocol("wire thread panicked".into()))?;
        let error = (produced.as_ref().err().cloned())
            .or_else(|| consumed.as_ref().err().cloned())
            .or_else(|| wire.error.clone().map(MigError::from));
        let receiver = rx_counters.snapshot();
        let waits = rx.lock().waits().to_vec();
        let since = |t: Instant| t.saturating_duration_since(start);
        let live = (pushed.iter().skip(replayed).zip(&wire.sends).zip(waits)).map(
            |((&pushed, &(sending, bytes)), (asked, arrived))| FrameStamp {
                pushed,
                sending,
                wire_bytes: Some(bytes),
                asked: since(asked),
                arrived: since(arrived),
            },
        );
        // Replayed chunks were in hand when the attempt began.
        let frames = std::iter::repeat_n(FrameStamp::default(), replayed)
            .chain(live)
            .collect();
        Ok(Attempt {
            produced: produced.ok(),
            produce_time,
            consumed: consumed.ok(),
            recovery: RecoveryStats::from_parts(receiver, wire.faults),
            wire_replays: receiver.replays_below_start,
            src_crashed: src_crashed.load(Ordering::SeqCst),
            error,
            wire,
            start,
            frames,
        })
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
        carried.transfer += src_end.stats().snapshot();
        return Ok(bytes);
    };
    let (len, cut) = (frame.len(), lane.chunk_bytes.max(1));
    let mut ship = |lane| {
        let out = attempt(
            link,
            lane,
            |sink| frame.chunks(cut).try_for_each(|c| Ok(sink(c.to_vec())?)),
            |rx, _| {
                let mut bytes = Vec::with_capacity(len);
                while let Some(chunk) = rx.recv()? {
                    bytes.extend_from_slice(&chunk);
                }
                Ok(bytes)
            },
        )?;
        carried.transfer += out.wire.transfer;
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
