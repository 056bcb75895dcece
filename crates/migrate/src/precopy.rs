//! Iterative pre-copy: ship deltas while the program runs, freeze only
//! for the last one.
//!
//! A stop-and-copy migration freezes the source for the *entire* collect
//! → ship → restore sequence. With a [`PrecopyConfig`] in the policy,
//! [`migrate`](crate::migrate) shrinks the freeze window instead: round 0
//! ships a full image while keeping the logical clock running, then each
//! later round resumes the program for a slice of polls, re-digests its
//! live blocks ([`hpm_core::block_digests`]), and ships only the delta
//! against the previously shipped state ([`hpm_core::collect_delta`]).
//! When the dirty fraction converges below a threshold — or the round cap
//! hits — the final delta ships *frozen* and the destination resumes.
//! Only that last leg counts as freeze time.
//!
//! The destination applies every frame through
//! [`hpm_core::apply_delta`], reconstructing each round's image
//! byte-exactly (verified by content digest) and retaining it as the
//! next round's dictionary. A receiver whose base does not match the
//! delta's demanded identity refuses loudly
//! ([`hpm_core::CoreError::DeltaBaseMismatch`]) and the sender falls
//! back to a full image — the bottom rung is always the plain
//! stop-and-copy frame.
//!
//! The rounds are a loop around the same whole-frame transfer attempt
//! (`wire::ship_frame`) every other migration uses, so each
//! frame crosses as the policy's [`Transport`](crate::Transport) says:
//! one message, a chunk stream, or a chunk stream under ARQ over a faulty
//! link (which must stay alive across every round — a frame that cannot
//! be delivered fails the migration).

use std::time::{Duration, Instant};

use hpm_core::delta::{
    apply_delta, block_digests, collect_delta, diff_manifest, full_image_frame, BaseImageManifest,
};
use hpm_core::{CoreError, RegistryAuditStats};
use hpm_obs::Track;
use hpm_xdr::journal::image_id;

use crate::ctx::MigratableProgram;
use crate::driver::{resume, MigratedSource, ResumeFlow};
use crate::engine::{collect_whole, Engine};
use crate::process::Trigger;
use crate::report::{MigrationReport, MigrationRun, ResumeStats};
use crate::wire::{ship_frame, Carried};
use crate::MigError;

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
    /// Wall time of the freeze leg: from the instant the final round
    /// froze — its collection, digests and diff included — through the
    /// destination's completed run.
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
    /// migrated (results are still the program's real answers, and the
    /// report's restore figures are those of the source's own last
    /// between-round resume).
    pub completed_on_source: bool,
    /// Every round's reconstructed image matched the source's bytes.
    pub identity_ok: bool,
    /// Total wire bytes across all rounds.
    pub wire_bytes: u64,
}

/// Run the pre-copy rounds of one migration: `frozen` is the source at
/// its first freeze (the policy's trigger), already audited.
pub(crate) fn rounds<P: MigratableProgram, F: Fn() -> P>(
    engine: &Engine<'_, F>,
    mut frozen: MigratedSource,
    audit: RegistryAuditStats,
    cfg: PrecopyConfig,
) -> Result<MigrationRun, MigError> {
    let track = &engine.driver;
    let mut stats = PrecopyStats {
        identity_ok: true,
        ..PrecopyStats::default()
    };
    let mut shipped = Carried::default();
    let mut ship = |frame| ship_frame(frame, engine.link, engine.frame_lane(), track, &mut shipped);

    // --- round 0: ship the full image of the first freeze ---
    let (prefix, mut chain_depth) = engine.begin_collect(&frozen);
    let (mut cur_image, mut collected) = collect_whole(&mut frozen, &prefix, track)?;
    let digests = block_digests(&mut frozen.proc.space, &mut frozen.proc.msrlt)?;
    let mut manifest = BaseImageManifest::new(image_id(&cur_image), digests);
    stats.full_bytes = cur_image.len() as u64;
    let frame0 = full_image_frame(&cur_image, &manifest, 0);
    stats.bytes_per_round.push(frame0.len() as u64);
    stats.wire_bytes += frame0.len() as u64;
    let (_, mut retained) = apply_delta(None, &ship(frame0)?)?;
    stats.identity_ok &= retained.image == cur_image;

    // --- delta rounds ---
    let mut round = 0u32;
    let (src, dst) = loop {
        round += 1;
        // The source "keeps running": rebuilt from the image it just
        // shipped, with the round's poll budget as its trigger.
        let between_rounds = Trigger::AtLeastPollCount(cfg.round_polls);
        let mut frozen = match resume(
            &mut (engine.make)(),
            engine.src_arch.clone(),
            &cur_image,
            None,
            Some(between_rounds),
            &Track::off(),
        )? {
            ResumeFlow::Frozen(f) => f,
            ResumeFlow::Completed(done) => {
                // The program outran the migration: report the
                // source's answers; nothing moved, nothing froze.
                stats.completed_on_source = true;
                break (None, done);
            }
        };
        // The freeze clock starts where a final round freezes; for
        // intermediate rounds the program would be running again.
        let frozen_at = Instant::now();
        let (prefix, depth) = frozen.image_prefix();
        chain_depth = depth;
        let (new_image, new_collected) = collect_whole(&mut frozen, &prefix, track)?;
        collected = new_collected;
        let new_digests = block_digests(&mut frozen.proc.space, &mut frozen.proc.msrlt)?;
        let dirty = diff_manifest(&manifest, &new_digests);
        let converged = dirty.dirty_fraction() <= cfg.dirty_threshold;
        let is_final = converged || round >= cfg.max_rounds;

        let (delta, next_manifest) =
            collect_delta(&manifest, &cur_image, new_digests, &new_image, round);
        let frame = delta.to_frame();
        let mut round_bytes = frame.len() as u64;
        if cfg.tamper_base_at_round == Some(round) {
            // Rot a stripe of the retained base, so that whichever
            // parts the delta copies, the payload digest must catch the
            // divergence and refuse it.
            retained
                .image
                .iter_mut()
                .step_by(64)
                .for_each(|b| *b ^= 0xFF);
        }
        match apply_delta(Some(&retained), &ship(frame)?) {
            Ok((_, new_base)) => retained = new_base,
            Err(CoreError::DeltaBaseMismatch { .. }) => {
                // Bottom rung of the ladder: the receiver refused, so
                // ship the plain full image for this round's state.
                stats.fallbacks += 1;
                let full = full_image_frame(&new_image, &next_manifest, round);
                round_bytes += full.len() as u64;
                retained = apply_delta(None, &ship(full)?)?.1;
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
            // The destination resumes from its reconstructed image.
            let dst = engine.resume_on(&engine.dst_arch, &retained.image)?;
            stats.freeze_time = frozen_at.elapsed();
            engine.end_phases(&shipped.transfer, &dst);
            break (Some(frozen.proc), dst);
        }
    };

    // `src` is the process that froze for the final round; when the
    // program completed on the source, that run stands in for both ends.
    let ladder = ResumeStats {
        rung: 1,
        ..ResumeStats::default()
    };
    let report = MigrationReport::new(
        src.as_ref().unwrap_or(&dst.proc),
        chain_depth,
        audit,
        collected,
        shipped.transfer,
        &dst,
        engine.transport_stats(None, shipped.recovery, ladder),
        Some(stats),
    );
    Ok(engine.finish(report, dst.results))
}
