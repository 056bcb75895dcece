//! Iterative pre-copy migration: ship deltas while the program runs,
//! freeze only for the last one.
//!
//! The classic stop-and-copy drivers in [`crate::driver`] freeze the
//! source for the *entire* collect → ship → restore pipeline. Pre-copy
//! shrinks the freeze window: round 0 ships a full image while keeping
//! the logical clock running, then each later round resumes the program
//! for a slice of polls, re-digests its live blocks
//! ([`hpm_core::block_digests`]), and ships only the delta against the
//! previously shipped state ([`hpm_core::collect_delta`]). When the
//! dirty fraction converges below a threshold — or the round cap hits —
//! the final delta ships *frozen* and the destination resumes. Only
//! that last leg counts as freeze time.
//!
//! The destination applies every frame through
//! [`hpm_core::apply_delta`], reconstructing each round's image
//! byte-exactly (verified by content digest) and retaining it as the
//! next round's dictionary. A receiver whose base does not match the
//! delta's demanded identity refuses loudly
//! ([`hpm_core::CoreError::DeltaBaseMismatch`]) and the sender falls
//! back to a full image — the degradation ladder's bottom rung is
//! always the plain stop-and-copy frame.
//!
//! Frames travel either over a plain modeled channel or chunked through
//! the ARQ stack over a faulty link ([`run_migrating_precopy_faulty`]),
//! so the pre-copy protocol composes with the same loss/corruption
//! recovery the resilient driver uses.

use std::time::{Duration, Instant};

use hpm_arch::Architecture;
use hpm_core::delta::{
    apply_delta, block_digests, collect_delta, diff_manifest, full_image_frame, BaseImageManifest,
};
use hpm_core::image::unframe_image;
use hpm_core::CoreError;
use hpm_net::{
    channel_pair, ArqConfig, FaultPlan, FaultStats, FaultyEndpoint, NetError, NetworkModel,
    ReliableChunkReceiver, ReliableChunkSender, TransferSnapshot, WireCodec,
};
use hpm_xdr::journal::image_id;

use crate::ctx::{Flow, MigCtx, MigratableProgram};
use crate::driver::{resume_from_image, run_to_migration, MigratedSource, WIRE_CHUNK_BYTES};
use crate::exec::ExecutionState;
use crate::process::{Process, Trigger};
use crate::MigError;

/// How a resumed program left [`resume_to_migration`].
#[derive(Debug)]
pub enum ResumeFlow {
    /// The trigger fired: the process froze at a migration point again.
    Frozen(MigratedSource),
    /// The program ran to completion before the trigger fired.
    Completed(Vec<(String, String)>, Process),
}

/// Resume a program from a migration image with a live trigger armed:
/// the pre-copy building block. Unlike [`resume_from_image`], the
/// resumed process may migrate *again* — that is the expected outcome of
/// every intermediate round.
///
/// The trigger should be [`Trigger::AtLeastPollCount`], never the exact
/// [`Trigger::AtPollCount`]: restore-mode polls are inert (outer frames
/// still un-restored), so an exact count can be consumed by an inert
/// poll and lost, and the round would never freeze.
pub fn resume_to_migration<P: MigratableProgram>(
    program: &mut P,
    arch: Architecture,
    image: &[u8],
    trigger: Trigger,
) -> Result<ResumeFlow, MigError> {
    let (header, exec_bytes, payload) = unframe_image(image)?;
    if header.program != program.name() {
        return Err(MigError::Protocol(format!(
            "image is for program '{}', not '{}'",
            header.program,
            program.name()
        )));
    }
    let exec = ExecutionState::decode(exec_bytes)?;
    let mut proc = Process::new(program.name(), arch);
    proc.space.reserve_heap_bytes(header.registered_bytes);
    proc.set_trigger(trigger);
    program.setup(&mut proc)?;
    proc.msrlt.reset_stats();
    let mut ctx = MigCtx::new_resume(&mut proc, exec, payload);
    match program.run(&mut ctx)? {
        Flow::Done => {
            ctx.restore_totals().ok_or_else(|| {
                MigError::Protocol("program finished without restoring all frames".into())
            })?;
            let results = program.results(&mut proc)?;
            Ok(ResumeFlow::Completed(results, proc))
        }
        Flow::Migrate => {
            let pending = ctx.into_pending_frames()?;
            Ok(ResumeFlow::Frozen(MigratedSource { proc, pending }))
        }
    }
}

/// Tuning knobs for a pre-copy migration.
#[derive(Debug, Clone, Copy)]
pub struct PrecopyConfig {
    /// Polls the program runs between rounds (the resume trigger is
    /// `AtLeastPollCount(round_polls)` relative to each round's start).
    pub round_polls: u64,
    /// Hard cap on delta rounds; hitting it forces the freeze.
    pub max_rounds: u32,
    /// Freeze when the dirty fraction (changed blocks / live blocks)
    /// drops to or below this.
    pub dirty_threshold: f64,
    /// Chunk size on the ARQ path (ignored on the plain channel).
    pub chunk_bytes: usize,
    /// Test hook: corrupt the receiver's retained base image just before
    /// applying this round's delta, forcing the digest refusal and the
    /// full-image fallback. `None` in production.
    pub tamper_base_at_round: Option<u32>,
}

impl Default for PrecopyConfig {
    fn default() -> Self {
        PrecopyConfig {
            round_polls: 2_000,
            max_rounds: 8,
            dirty_threshold: 0.05,
            chunk_bytes: WIRE_CHUNK_BYTES,
            tamper_base_at_round: None,
        }
    }
}

/// Measurements from one pre-copy migration.
#[derive(Debug, Clone, Default)]
pub struct PrecopyStats {
    /// Delta rounds shipped (excluding round 0's full image).
    pub rounds: u32,
    /// Wire bytes of every shipped frame, round 0 first. A round that
    /// fell back includes both the refused delta and the full frame.
    pub bytes_per_round: Vec<u64>,
    /// Bytes of the round-0 full image frame (the stop-and-copy cost).
    pub full_bytes: u64,
    /// Bytes shipped while frozen (the final round's frames).
    pub freeze_bytes: u64,
    /// Wall time of the freeze leg: final delta collection through the
    /// destination's completed restore.
    pub freeze_time: Duration,
    /// The dirty fraction dropped below threshold (vs. round-cap hit).
    pub converged: bool,
    /// Full-image fallbacks triggered by receiver refusals.
    pub fallbacks: u32,
    /// Dirty / fresh / tombstoned block counts of the final delta.
    pub dirty_blocks: u64,
    /// Blocks new since the previous round at freeze.
    pub fresh_blocks: u64,
    /// Blocks freed since the previous round at freeze.
    pub tombstones: u64,
    /// The program completed on the source before converging — nothing
    /// migrated (results are still the program's real answers).
    pub completed_on_source: bool,
    /// Every round's reconstructed image matched the source's bytes.
    pub identity_ok: bool,
    /// Total wire bytes across all rounds.
    pub wire_bytes: u64,
}

/// A completed pre-copy migration: stats, the destination's (or, when
/// the program finished early, the source's) results, and the freeze
/// round's transfer snapshot.
#[derive(Debug)]
pub struct PrecopyRun {
    /// Per-round measurements.
    pub stats: PrecopyStats,
    /// The program's final answers.
    pub results: Vec<(String, String)>,
    /// Channel accounting for the last shipped frame.
    pub transfer: Option<TransferSnapshot>,
    /// Fault-injection counters summed over all rounds (ARQ path only).
    pub faults: Option<FaultStats>,
}

/// Frame transport for one pre-copy run: plain modeled channel, or
/// chunked ARQ over an injected-fault link.
enum Wire {
    Plain(NetworkModel),
    Arq {
        link: NetworkModel,
        plan: FaultPlan,
        arq: ArqConfig,
        chunk_bytes: usize,
        faults: FaultStats,
    },
}

impl Wire {
    /// Ship one frame source→destination, returning the received bytes
    /// and the channel snapshot for the trip.
    fn ship(&mut self, frame: &[u8]) -> Result<(Vec<u8>, TransferSnapshot), MigError> {
        match self {
            Wire::Plain(link) => {
                let (src_end, dst_end) = channel_pair(*link);
                src_end.send(frame.to_vec())?;
                let got = dst_end.recv()?;
                Ok((got, src_end.stats().snapshot()))
            }
            Wire::Arq {
                link,
                plan,
                arq,
                chunk_bytes,
                faults,
            } => {
                let (src_end, dst_end) = channel_pair(*link);
                let endpoint = FaultyEndpoint::new(src_end, *plan);
                let mut rx = ReliableChunkReceiver::new(dst_end, *arq);
                let chunks: Vec<Vec<u8>> = frame
                    .chunks((*chunk_bytes).max(1))
                    .map(|c| c.to_vec())
                    .collect();
                let arq_cfg = *arq;
                let (got, snapshot, round_faults) =
                    std::thread::scope(|s| -> Result<_, MigError> {
                        let wire = s.spawn(move || {
                            let mut tx = ReliableChunkSender::new(endpoint, arq_cfg)
                                .with_codec(WireCodec::V3);
                            let mut err = None;
                            for c in &chunks {
                                if let Err(e) = tx.send(c) {
                                    err = Some(e);
                                    break;
                                }
                            }
                            if err.is_none() {
                                if let Err(e) = tx.finish() {
                                    err = Some(e);
                                }
                            }
                            let endpoint = tx.into_link();
                            let faults = endpoint.stats();
                            let transfer = endpoint.channel().stats().snapshot();
                            // Dropping the endpoint severs the link and
                            // unblocks a stalled receiver.
                            (err, faults, transfer)
                        });
                        let mut buf = Vec::with_capacity(frame.len());
                        let mut rx_err = None;
                        loop {
                            match rx.recv_chunk() {
                                Ok(Some(c)) => buf.extend_from_slice(&c),
                                Ok(None) => break,
                                Err(e) => {
                                    rx_err = Some(e);
                                    break;
                                }
                            }
                        }
                        // On clean completion `rx` must outlive the
                        // sender: `finish()` still flushes reorder-held
                        // frames and drains final acks after the
                        // receiver has consumed LAST, and dropping the
                        // endpoint under it turns that housekeeping into
                        // a hard `Disconnected`. A failed receiver is
                        // the opposite case: drop now so a sender stuck
                        // on a full window fails fast instead of burning
                        // its retry budget against a dead peer.
                        if rx_err.is_some() {
                            drop(rx);
                        }
                        let (tx_err, round_faults, transfer) = wire
                            .join()
                            .map_err(|_| MigError::Net("pre-copy wire thread panicked".into()))?;
                        // Triage: exhausted retries are the root cause
                        // even though the receiver also sees the link
                        // die; otherwise a receiver failure explains the
                        // sender's `Disconnected`, not the reverse.
                        if let Some(e @ NetError::RetriesExhausted { .. }) = &tx_err {
                            return Err(MigError::Net(format!("pre-copy send: {e}")));
                        }
                        if let Some(e) = rx_err {
                            return Err(MigError::Net(format!("pre-copy recv: {e}")));
                        }
                        if let Some(e) = tx_err {
                            return Err(MigError::Net(format!("pre-copy send: {e}")));
                        }
                        Ok((buf, transfer, round_faults))
                    })?;
                merge_faults(faults, &round_faults);
                Ok((got, snapshot))
            }
        }
    }
}

/// Pre-copy migration over a clean modeled link.
///
/// Runs `make()`'s program on `src_arch` until `base_trigger` fires,
/// ships a full image, then iterates delta rounds per `cfg` until the
/// dirty set converges (or the round cap hits), ships the final delta
/// frozen, and resumes the program on `dst_arch` from the destination's
/// reconstructed image.
pub fn run_migrating_precopy<P: MigratableProgram>(
    make: impl Fn() -> P,
    src_arch: Architecture,
    dst_arch: Architecture,
    link: NetworkModel,
    base_trigger: Trigger,
    cfg: PrecopyConfig,
) -> Result<PrecopyRun, MigError> {
    precopy_inner(
        make,
        src_arch,
        dst_arch,
        Wire::Plain(link),
        base_trigger,
        cfg,
    )
}

/// [`run_migrating_precopy`] with every frame chunked through the ARQ
/// stack over a fault-injected link — the pre-copy soak's entry point.
/// The fault plan must describe a live link (no permanent disconnect).
#[allow(clippy::too_many_arguments)]
pub fn run_migrating_precopy_faulty<P: MigratableProgram>(
    make: impl Fn() -> P,
    src_arch: Architecture,
    dst_arch: Architecture,
    link: NetworkModel,
    base_trigger: Trigger,
    cfg: PrecopyConfig,
    plan: FaultPlan,
    arq: ArqConfig,
) -> Result<PrecopyRun, MigError> {
    let wire = Wire::Arq {
        link,
        plan,
        arq,
        chunk_bytes: cfg.chunk_bytes,
        faults: FaultStats::default(),
    };
    precopy_inner(make, src_arch, dst_arch, wire, base_trigger, cfg)
}

fn precopy_inner<P: MigratableProgram>(
    make: impl Fn() -> P,
    src_arch: Architecture,
    dst_arch: Architecture,
    mut wire: Wire,
    base_trigger: Trigger,
    cfg: PrecopyConfig,
) -> Result<PrecopyRun, MigError> {
    let mut stats = PrecopyStats {
        identity_ok: true,
        ..PrecopyStats::default()
    };
    let mut last_transfer;

    // --- round 0: run to the base trigger, ship the full image ---
    let mut src_prog = make();
    let mut frozen = run_to_migration(&mut src_prog, src_arch.clone(), base_trigger)?;
    let mut cur_image = frozen.to_image()?;
    let digests = block_digests(&mut frozen.proc.space, &mut frozen.proc.msrlt)?;
    let mut manifest = BaseImageManifest::new(image_id(&cur_image), digests);
    stats.full_bytes = cur_image.len() as u64;

    let frame0 = full_image_frame(&cur_image, &manifest, 0);
    let (got, snap) = wire.ship(&frame0)?;
    stats.bytes_per_round.push(frame0.len() as u64);
    stats.wire_bytes += frame0.len() as u64;
    last_transfer = Some(snap);
    let (_, mut retained) = apply_delta(None, &got).map_err(MigError::from)?;
    stats.identity_ok &= retained.image == cur_image;
    drop(src_prog);

    // --- delta rounds ---
    let mut round: u32 = 1;
    loop {
        let mut prog = make();
        let flow = resume_to_migration(
            &mut prog,
            src_arch.clone(),
            &cur_image,
            Trigger::AtLeastPollCount(cfg.round_polls),
        )?;
        let mut frozen = match flow {
            ResumeFlow::Completed(results, _proc) => {
                // The program outran the migration: report the source's
                // answers; nothing moved, nothing froze.
                stats.completed_on_source = true;
                let faults = wire_faults(&wire);
                return Ok(PrecopyRun {
                    stats,
                    results,
                    transfer: last_transfer,
                    faults,
                });
            }
            ResumeFlow::Frozen(f) => f,
        };
        let new_image = frozen.to_image()?;
        let new_digests = block_digests(&mut frozen.proc.space, &mut frozen.proc.msrlt)?;
        let dirty = diff_manifest(&manifest, &new_digests);
        let converged = dirty.dirty_fraction() <= cfg.dirty_threshold;
        let is_final = converged || round >= cfg.max_rounds;

        // The freeze clock starts at the final delta's collection; for
        // intermediate rounds the program would be running again already.
        let t0 = Instant::now();
        let (delta, next_manifest) =
            collect_delta(&manifest, &cur_image, new_digests, &new_image, round);
        let frame = delta.to_frame();
        let mut round_bytes = frame.len() as u64;

        if let Some(r) = cfg.tamper_base_at_round {
            if r == round && !retained.image.is_empty() {
                // Rot the retained base: the payload digest must catch
                // the divergence and refuse the delta.
                let mid = retained.image.len() / 2;
                retained.image[mid] ^= 0xFF;
            }
        }

        let (got, snap) = wire.ship(&frame)?;
        last_transfer = Some(snap);
        match apply_delta(Some(&retained), &got) {
            Ok((_, new_base)) => retained = new_base,
            Err(CoreError::DeltaBaseMismatch { .. }) => {
                // Bottom rung of the ladder: the receiver refused, so
                // ship the plain full image for this round's state.
                stats.fallbacks += 1;
                let full = full_image_frame(&new_image, &next_manifest, round);
                round_bytes += full.len() as u64;
                let (got, snap) = wire.ship(&full)?;
                last_transfer = Some(snap);
                let (_, new_base) = apply_delta(None, &got).map_err(MigError::from)?;
                retained = new_base;
            }
            Err(e) => return Err(e.into()),
        }
        stats.identity_ok &= retained.image == new_image;
        stats.bytes_per_round.push(round_bytes);
        stats.wire_bytes += round_bytes;
        stats.rounds = round;
        cur_image = new_image;
        manifest = next_manifest;

        if is_final {
            stats.converged = converged;
            stats.freeze_bytes = round_bytes;
            stats.dirty_blocks = dirty.dirty.len() as u64;
            stats.fresh_blocks = dirty.fresh.len() as u64;
            stats.tombstones = dirty.tombstones.len() as u64;
            // --- destination resumes from its reconstructed image ---
            let mut dst_prog = make();
            let (results, _proc, _rstats, _rtime) =
                resume_from_image(&mut dst_prog, dst_arch, &retained.image)?;
            stats.freeze_time = t0.elapsed();
            let faults = wire_faults(&wire);
            return Ok(PrecopyRun {
                stats,
                results,
                transfer: last_transfer,
                faults,
            });
        }
        round += 1;
    }
}

/// Accumulate one round's fault counters into the run total.
fn merge_faults(total: &mut FaultStats, round: &FaultStats) {
    total.delivered += round.delivered;
    total.dropped += round.dropped;
    total.corrupted += round.corrupted;
    total.duplicated += round.duplicated;
    total.reordered += round.reordered;
    total.delayed += round.delayed;
    total.modeled_delay_nanos += round.modeled_delay_nanos;
    total.blackholed += round.blackholed;
    total.disconnected |= round.disconnected;
}

fn wire_faults(wire: &Wire) -> Option<FaultStats> {
    match wire {
        Wire::Plain(_) => None,
        Wire::Arq { faults, .. } => Some(*faults),
    }
}
