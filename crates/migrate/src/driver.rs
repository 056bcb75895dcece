//! The two ends of a migration as building blocks: run a process until
//! it freezes at a poll-point ([`run_to_migration`]), collect the frozen
//! process ([`MigratedSource`]), and resume a program from an image on a
//! fresh process ([`resume_from_image`], [`resume_to_migration`]).
//! [`migrate`](crate::migrate) composes them with a transport; the
//! benchmarks call them directly.

use crate::ctx::{
    collect_onto, collect_pending, collect_pending_streamed, pending_exec_state, Flow, MigCtx,
    MigratableProgram, PendingFrame, RestoreTotals,
};
use crate::exec::ExecutionState;
use crate::process::{Process, Trigger};
use crate::MigError;
use hpm_arch::Architecture;
use hpm_core::image::{frame_image_prefix, unframe_image, ImageHeader};
use hpm_core::{
    audit_registry, ChunkPayload, ChunkSource, CollectStats, RegistryAuditStats, RegistryFinding,
    RestoreStats, IMAGE_VERSION,
};
use hpm_obs::Track;
use std::time::Duration;

/// A source process stopped at its migration point, ready to collect.
///
/// Benchmarks use this to measure collection repeatedly over one frozen
/// process image (collection does not modify the process).
#[derive(Debug)]
pub struct MigratedSource {
    /// The frozen source process.
    pub proc: Process,
    /// The recorded unwind frames, innermost first.
    pub pending: Vec<PendingFrame>,
}

/// A program that ran to completion, with what its process measured.
#[derive(Debug)]
pub struct CompletedRun {
    /// The program's result digest.
    pub results: Vec<(String, String)>,
    /// The process it finished on.
    pub proc: Process,
    /// What restoration cost (all zero for a run that never resumed).
    pub restore: RestoreTotals,
}

/// How a run under a live trigger ended.
#[derive(Debug)]
pub enum ResumeFlow {
    /// The trigger fired: the process froze at a migration point.
    Frozen(MigratedSource),
    /// The program ran to completion before the trigger fired.
    Completed(CompletedRun),
}

/// What a run left behind once its [`MigCtx`] released the process.
enum Ran {
    Frozen(Vec<PendingFrame>),
    Done(Option<RestoreTotals>),
}

fn run_under<P: MigratableProgram>(program: &mut P, mut ctx: MigCtx<'_>) -> Result<Ran, MigError> {
    Ok(match program.run(&mut ctx)? {
        Flow::Migrate => Ran::Frozen(ctx.into_pending_frames()?),
        Flow::Done => Ran::Done(ctx.restore_totals()),
    })
}

fn settle<P: MigratableProgram>(
    program: &mut P,
    mut proc: Process,
    ran: Ran,
) -> Result<ResumeFlow, MigError> {
    match ran {
        Ran::Frozen(pending) => Ok(ResumeFlow::Frozen(MigratedSource { proc, pending })),
        Ran::Done(restore) => {
            let results = program.results(&mut proc)?;
            Ok(ResumeFlow::Completed(CompletedRun {
                results,
                proc,
                restore: restore.unwrap_or_default(),
            }))
        }
    }
}

/// Start `program` on a fresh process and run it until `trigger` fires
/// or it completes.
pub(crate) fn launch<P: MigratableProgram>(
    program: &mut P,
    arch: Architecture,
    trigger: Trigger,
) -> Result<ResumeFlow, MigError> {
    let mut proc = Process::new(program.name(), arch);
    proc.set_trigger(trigger);
    program.setup(&mut proc)?;
    let ran = run_under(program, MigCtx::new_run(&mut proc))?;
    settle(program, proc, ran)
}

/// Run a program to completion with no migration; returns its results.
pub fn run_straight<P: MigratableProgram>(
    program: &mut P,
    arch: Architecture,
) -> Result<(Vec<(String, String)>, Process), MigError> {
    match launch(program, arch, Trigger::Never)? {
        ResumeFlow::Completed(run) => Ok((run.results, run.proc)),
        ResumeFlow::Frozen(_) => Err(MigError::Protocol(
            "program migrated with Trigger::Never".into(),
        )),
    }
}

/// Run a program until its trigger fires, returning the frozen process
/// and the pending frames (without collecting yet).
pub fn run_to_migration<P: MigratableProgram>(
    program: &mut P,
    arch: Architecture,
    trigger: Trigger,
) -> Result<MigratedSource, MigError> {
    match launch(program, arch, trigger)? {
        ResumeFlow::Frozen(src) => Ok(src),
        ResumeFlow::Completed(_) => Err(MigError::Protocol(
            "trigger never fired; program completed on the source".into(),
        )),
    }
}

/// The one destination-resume routine: rebuild `program` on a fresh
/// process of `arch` from a migration image and run it on.
///
/// `image` holds the header, the execution state and as much of the
/// memory-state payload as has arrived — all of it when `more` is `None`
/// — and restoration reads that in place as chunk 0 of the stream `more`
/// continues, so the innermost frame restores while outer ones are still
/// in flight. With a `trigger` the resumed process may
/// freeze again ([`ResumeFlow::Frozen`]); callers that arm none take
/// [`ResumeFlow::completed`], which makes a second migration a protocol
/// error. Restoration is recorded on `track`.
pub(crate) fn resume<P: MigratableProgram>(
    program: &mut P,
    arch: Architecture,
    image: &[u8],
    more: Option<Box<dyn ChunkSource + Send + '_>>,
    trigger: Option<Trigger>,
    track: &Track,
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
    let heap = heap_reservation(&header, exec.heap_high_water, &arch, payload.len());
    let mut proc = Process::new(program.name(), arch);
    proc.space.reserve_heap_bytes(heap);
    if let Some(t) = trigger {
        proc.set_trigger(t);
    }
    program.setup(&mut proc)?;
    proc.msrlt.reset_stats();
    let mut ctx = MigCtx::new_resume(&mut proc, exec, ChunkPayload::new(payload, more))?;
    ctx.track = track.clone();
    let ran = run_under(program, ctx)?;
    if matches!(ran, Ran::Done(None)) {
        return Err(MigError::Protocol(
            "program finished without restoring all frames".into(),
        ));
    }
    settle(program, proc, ran)
}

/// A restored heap's native bytes, alignment gaps included, are at most
/// this many times the payload bytes that announce and fill its blocks:
/// every leaf takes at least one 4-byte XDR unit on the wire and at most
/// 8 native bytes (a pointer or `long` on LP64, or a `char` padded to
/// the next 8-aligned field), and a block's alignment gap is smaller
/// than its record's own 8-byte header.
const NATIVE_PER_PAYLOAD_BYTE: u64 = 2;

/// How many heap bytes the destination reserves before restoring.
///
/// The header's `registered_bytes` is the sender's native size of its
/// live blocks. Doubled when the destination's pointers are wider, and
/// with a 7-byte alignment gap (no scalar aligns to more than 8) before
/// each of the sender's `heap_blocks`, it covers the restored heap, so
/// restoring never regrows it. Both figures are only the sender's word,
/// so the reservation never exceeds what the payload that has arrived
/// can fill. A streamed payload has not arrived yet: it reserves
/// nothing, and the heap grows as its blocks come. A sender with no heap
/// blocks reserves nothing either: its registered bytes are all stack
/// and globals.
fn heap_reservation(
    header: &ImageHeader,
    heap_blocks: u32,
    arch: &Architecture,
    payload: usize,
) -> u64 {
    if heap_blocks == 0 {
        return 0;
    }
    let widen = if arch.pointer_size > u64::from(header.source_pointer_size) {
        2
    } else {
        1
    };
    let claimed = header
        .registered_bytes
        .saturating_mul(widen)
        .saturating_add(7 * u64::from(heap_blocks));
    claimed.min(NATIVE_PER_PAYLOAD_BYTE.saturating_mul(payload as u64))
}

/// What [`resume_from_image`] yields: results, the completed process,
/// restoration stats, and restoration wall time.
pub type ResumeOutcome = (Vec<(String, String)>, Process, RestoreStats, Duration);

/// Resume a program from a migration image on a fresh process.
///
/// Returns the completed program's results plus restoration measurements.
pub fn resume_from_image<P: MigratableProgram>(
    program: &mut P,
    arch: Architecture,
    image: &[u8],
) -> Result<ResumeOutcome, MigError> {
    let run = resume(program, arch, image, None, None, &Track::off())?.completed()?;
    Ok((run.results, run.proc, run.restore.stats, run.restore.time))
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
    resume(program, arch, image, None, Some(trigger), &Track::off())
}

impl ResumeFlow {
    /// The completed run of a resume that had no trigger to freeze on.
    pub(crate) fn completed(self) -> Result<CompletedRun, MigError> {
        match self {
            ResumeFlow::Completed(run) => Ok(run),
            ResumeFlow::Frozen(_) => {
                Err(MigError::Protocol("resumed program migrated again".into()))
            }
        }
    }
}

/// The migration-image header for a frozen process.
fn image_header(proc: &Process) -> ImageHeader {
    ImageHeader {
        version: IMAGE_VERSION,
        source_arch: proc.space.arch().name.to_string(),
        source_pointer_size: proc.space.arch().pointer_size as u32,
        program: proc.program().to_string(),
        registered_bytes: proc.msrlt.registered_bytes(),
    }
}

impl MigratedSource {
    /// The image prefix (header + execution state) this frozen process
    /// ships ahead of its payload — computable before collection runs,
    /// which is what lets a streamed transport send it first — and the
    /// depth of the call chain it records.
    pub(crate) fn image_prefix(&self) -> (Vec<u8>, usize) {
        let exec = pending_exec_state(&self.proc, &self.pending);
        let prefix = frame_image_prefix(&image_header(&self.proc), &exec.encode());
        (prefix, exec.depth())
    }

    /// Collect the memory-state payload once (repeatable).
    pub fn collect(&mut self) -> Result<(Vec<u8>, ExecutionState, CollectStats), MigError> {
        collect_pending(&mut self.proc, &self.pending)
    }

    /// Audit the whole of the frozen process's MSRLT snapshot without
    /// collecting, reachable blocks or not, reporting every finding:
    /// `hpm-lint`'s runtime-registry pass. No migration runs it: the
    /// collector makes the same per-block check on each block it
    /// reaches, and refuses the first finding.
    pub fn preflight_audit(
        &mut self,
    ) -> Result<(Vec<RegistryFinding>, RegistryAuditStats), MigError> {
        Ok(audit_registry(&mut self.proc.space, &mut self.proc.msrlt)?)
    }

    /// Frame a complete migration image from a fresh collection.
    pub fn to_image(&mut self) -> Result<Vec<u8>, MigError> {
        let (prefix, _) = self.image_prefix();
        Ok(collect_onto(&mut self.proc, &self.pending, &Track::off(), &prefix)?.0)
    }

    /// The same migration image as [`MigratedSource::to_image`], but as
    /// a streamed transport would ship it: the image prefix (header +
    /// exec state) as chunk 0, then the payload in `chunk_bytes`-sized
    /// chunks. Concatenating the chunks reproduces `to_image`
    /// byte-for-byte.
    pub fn to_chunks(
        &mut self,
        chunk_bytes: usize,
    ) -> Result<(Vec<Vec<u8>>, CollectStats), MigError> {
        let mut chunks = vec![self.image_prefix().0];
        let stats = collect_pending_streamed(
            &mut self.proc,
            &self.pending,
            chunk_bytes,
            &Track::off(),
            Box::new(|c| {
                chunks.push(c.to_vec());
                Ok(())
            }),
        )?;
        Ok((chunks, stats))
    }
}
