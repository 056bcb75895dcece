//! The migration context: what the inserted poll-point macros expand to.
//!
//! An annotated function follows this shape (compare the paper's §2):
//!
//! ```text
//! fn foo(ctx, args…) -> Flow {
//!     let f = ctx.enter("foo");
//!     let x = ctx.local(f, "x", ty, 1);           // declare ALL locals first
//!     if let Some(pp) = ctx.resume_point() {
//!         // jump to the recorded poll-point; the innermost frame
//!         // restores its live data here and resumes computing
//!         ctx.restore_frame(&[x, …])?;
//!         … continue from pp …
//!     }
//!     …
//!     if ctx.poll() {                              // a poll-point
//!         ctx.save_frame(PP_1, &[x, …])?;          // collect live data
//!         return Ok(Flow::Migrate);                // unwind (no leave)
//!     }
//!     …
//!     ctx.leave(f)?;
//!     Ok(Flow::Done)
//! }
//! ```
//!
//! Callers propagate `Flow::Migrate` upward, contributing their own
//! `save_frame` at the call-site poll-point — the paper's "process
//! migration can occur in a nested function call".
//!
//! A resuming context reads one input, the image's memory-state payload
//! as a [`ChunkPayload`] — already whole, or still arriving. Each
//! `restore_frame` opens a [`Restorer`] over it for that frame's section
//! and hands it on, positioned after what it read, to the next frame's,
//! together with the image's type table ([`ImageTypes`]), so the table is
//! built once per image.

use crate::exec::{ExecutionState, FrameState};
use crate::process::Process;
use crate::MigError;
use hpm_core::{
    ChunkPayload, ChunkSink, CollectStats, Collector, CoreError, ImageTypes, RestoreStats, Restorer,
};
use hpm_memory::FrameId;
use hpm_obs::Track;
use hpm_types::TypeId;
use std::time::{Duration, Instant};

/// Outcome of an annotated function: ran to completion, or is unwinding
/// for migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// The function completed normally.
    Done,
    /// A migration request fired; the stack is unwinding.
    Migrate,
}

/// The shape of a program in migratable format.
pub trait MigratableProgram {
    /// Program name (must match between source and destination).
    fn name(&self) -> &'static str;
    /// Register types and global variables — runs identically on both
    /// machines, so both sides assign identical logical ids.
    fn setup(&mut self, proc: &mut Process) -> Result<(), MigError>;
    /// Execute (or resume) the program.
    fn run(&mut self, ctx: &mut MigCtx<'_>) -> Result<Flow, MigError>;
    /// Extract a result digest after a completed run, used to verify that
    /// migrated and unmigrated executions agree.
    fn results(&self, proc: &mut Process) -> Result<Vec<(String, String)>, MigError>;
}

impl<T: MigratableProgram + ?Sized> MigratableProgram for Box<T> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn setup(&mut self, proc: &mut Process) -> Result<(), MigError> {
        (**self).setup(proc)
    }
    fn run(&mut self, ctx: &mut MigCtx<'_>) -> Result<Flow, MigError> {
        (**self).run(ctx)
    }
    fn results(&self, proc: &mut Process) -> Result<Vec<(String, String)>, MigError> {
        (**self).results(proc)
    }
}

/// A frame recorded while unwinding toward migration.
#[derive(Debug, Clone)]
pub struct PendingFrame {
    /// Function name.
    pub function: String,
    /// Poll-point at which the frame stopped.
    pub poll_point: u32,
    /// Live-variable block addresses, in save order.
    pub live: Vec<u64>,
}

struct ResumeState<'p> {
    /// Outermost-first recorded frames.
    frames: Vec<FrameState>,
    /// The memory-state payload, positioned after the frames restored so
    /// far; each `restore_frame` session reads on from there.
    payload: ChunkPayload<'p>,
    /// The image's type table, as the sessions so far have left it.
    types: ImageTypes,
    /// Index of the shallowest frame already restored; `frames.len()`
    /// when none is. Restoration consumes frames innermost-first.
    restored_down_to: usize,
    /// Frames entered so far along the re-entry path.
    entered: usize,
    /// Accumulated restoration statistics.
    stats: RestoreStats,
    /// Wall time spent inside `restore_frame`.
    restore_time: Duration,
}

enum Mode<'p> {
    Run,
    Unwind(Vec<PendingFrame>),
    Resume(Box<ResumeState<'p>>),
}

/// The migration context threaded through annotated code.
pub struct MigCtx<'p> {
    proc: &'p mut Process,
    mode: Mode<'p>,
    func_stack: Vec<String>,
    /// Set when the final `restore_frame` completes.
    finished_restore: Option<RestoreTotals>,
    /// Log track of the resuming side: every `restore_frame` is a
    /// `restore` span on it, around what the [`Restorer`] records (see
    /// [`Restorer::with_track`]). Inert unless the driver sets it.
    pub(crate) track: Track,
}

impl<'p> MigCtx<'p> {
    /// Context for a fresh (source-side) run.
    pub fn new_run(proc: &'p mut Process) -> Self {
        MigCtx {
            proc,
            mode: Mode::Run,
            func_stack: Vec::new(),
            finished_restore: None,
            track: Track::off(),
        }
    }

    /// Context for a destination-side resume.
    ///
    /// Reserves the source's heap-index high-water mark so blocks
    /// allocated by resumed execution never collide with ids still
    /// referenced by un-restored outer-frame sections. `payload` is the
    /// image's memory-state section: read in place where it lies in the
    /// image (see [`unframe_image`](hpm_core::image::unframe_image)), and
    /// pulled on demand where it is still arriving, so the innermost
    /// frame restores — and resumed computation starts — while outer
    /// frames are still in flight.
    pub fn new_resume(
        proc: &'p mut Process,
        exec: ExecutionState,
        payload: ChunkPayload<'p>,
    ) -> Result<Self, MigError> {
        proc.msrlt.try_reserve_heap_indices(exec.heap_high_water)?;
        let mut ctx = Self::new_run(proc);
        ctx.mode = Mode::Resume(Box::new(ResumeState {
            restored_down_to: exec.frames.len(),
            frames: exec.frames,
            payload,
            types: ImageTypes::default(),
            entered: 0,
            stats: RestoreStats::default(),
            restore_time: Duration::ZERO,
        }));
        Ok(ctx)
    }

    /// The underlying process (workload computation goes through this).
    pub fn proc(&mut self) -> &mut Process {
        self.proc
    }

    /// Enter a function: frame push on both structures, plus re-entry
    /// validation when resuming.
    pub fn enter(&mut self, name: &str) -> Result<FrameId, MigError> {
        let f = self.proc.enter_function(name);
        self.func_stack.push(name.to_string());
        if let Mode::Resume(r) = &mut self.mode {
            if r.entered < r.frames.len() {
                let expect = &r.frames[r.entered];
                if expect.function != name {
                    return Err(MigError::Protocol(format!(
                        "re-entry expected function '{}', got '{name}'",
                        expect.function
                    )));
                }
                r.entered += 1;
            }
        }
        Ok(f)
    }

    /// Declare a local variable in the current frame.
    pub fn local(
        &mut self,
        frame: FrameId,
        name: &str,
        ty: TypeId,
        count: u64,
    ) -> Result<u64, MigError> {
        self.proc.declare_local(frame, name, ty, count)
    }

    /// Leave a function normally.
    pub fn leave(&mut self, frame: FrameId) -> Result<(), MigError> {
        self.func_stack.pop();
        self.proc.exit_function(frame)
    }

    /// The poll-point check. Returns `true` exactly once per migration:
    /// the caller must then `save_frame` and return [`Flow::Migrate`].
    #[inline]
    pub fn poll(&mut self) -> bool {
        match self.mode {
            Mode::Run => {
                if self.proc.poll() {
                    self.mode = Mode::Unwind(Vec::new());
                    true
                } else {
                    false
                }
            }
            // While unwinding or resuming, poll-points are inert.
            _ => {
                // Still count the poll for overhead accounting.
                let _ = self.proc.poll();
                false
            }
        }
    }

    /// Record this frame's resume point and live data while unwinding.
    ///
    /// Also pops the function-name stack: `save_frame` is the frame's
    /// exit on the unwind path (where `leave` is deliberately *not*
    /// called, so the frame's blocks stay alive for collection).
    pub fn save_frame(&mut self, poll_point: u32, live: &[u64]) -> Result<(), MigError> {
        match &mut self.mode {
            Mode::Unwind(frames) => {
                let function = self
                    .func_stack
                    .pop()
                    .ok_or_else(|| MigError::Protocol("save_frame outside any function".into()))?;
                frames.push(PendingFrame {
                    function,
                    poll_point,
                    live: live.to_vec(),
                });
                Ok(())
            }
            _ => Err(MigError::Protocol("save_frame while not unwinding".into())),
        }
    }

    /// If this frame is on the recorded call chain and not yet restored,
    /// the poll-point it must resume from.
    pub fn resume_point(&self) -> Option<u32> {
        match &self.mode {
            Mode::Resume(r) => {
                let depth = self.func_stack.len();
                if depth >= 1 && depth <= r.frames.len() && depth - 1 < r.restored_down_to {
                    Some(r.frames[depth - 1].poll_point)
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    /// Restore this frame's live data (paper: `Restore_variable` /
    /// `Restore_pointer` "operated at the same locations").
    ///
    /// Must be called innermost-frame-first — i.e. by the frame whose
    /// depth matches the next pending stream section — with the same
    /// variables, in the same order, as the matching `save_frame`.
    pub fn restore_frame(&mut self, live: &[u64]) -> Result<(), MigError> {
        let depth = self.func_stack.len();
        let Mode::Resume(r) = &mut self.mode else {
            return Err(MigError::Protocol(
                "restore_frame while not resuming".into(),
            ));
        };
        if depth != r.restored_down_to {
            return Err(MigError::Protocol(format!(
                "restore_frame at depth {depth}, but next pending frame is {}",
                r.restored_down_to
            )));
        }
        let frame = &r.frames[depth - 1];
        if frame.live_count as usize != live.len() {
            return Err(MigError::Protocol(format!(
                "frame '{}' saved {} variables but restores {}",
                frame.function,
                frame.live_count,
                live.len()
            )));
        }
        let function = frame.function.clone();
        let is_final = r.restored_down_to == 1;
        let t0 = Instant::now();
        self.track.begin(
            "restore",
            &[("frame_depth", depth as u64), ("live", live.len() as u64)],
        );
        let payload = std::mem::take(&mut r.payload);
        let mut restorer = Restorer::over(&mut self.proc.space, &mut self.proc.msrlt, payload)
            .with_types(std::mem::take(&mut r.types))
            .with_track(self.track.clone());
        for &addr in live {
            restorer.restore_variable(addr).map_err(|e| match &e {
                CoreError::TruncatedChunk { .. } => {
                    MigError::Protocol(format!("restoring frame '{function}' (depth {depth}): {e}"))
                }
                _ => MigError::from(e),
            })?;
        }
        let (stats, payload, types) = restorer.into_input();
        (r.payload, r.types) = (payload, types);
        // The final frame must drain the stream exactly: leftover
        // payload means the call sequences diverged — surface it with
        // the offending frame and chunk.
        if is_final {
            r.payload.expect_end().map_err(|e| match &e {
                CoreError::TrailingBytes { .. } => {
                    MigError::Protocol(format!("after final restore_frame ('{function}'): {e}"))
                }
                _ => MigError::from(e),
            })?;
        }
        self.track.end("restore", &[("bytes", stats.bytes_in)]);
        r.stats += stats;
        r.restore_time += t0.elapsed();
        r.restored_down_to -= 1;
        if r.restored_down_to == 0 {
            // Preserve totals for the engine.
            self.finished_restore = Some(RestoreTotals {
                stats: r.stats,
                time: r.restore_time,
                done_at: Some(Instant::now()),
            });
            self.mode = Mode::Run;
        }
        Ok(())
    }

    /// Whether the *current* frame is the next one that must call
    /// [`MigCtx::restore_frame`] (its stream section is at the front).
    pub fn frame_is_next_to_restore(&self) -> bool {
        match &self.mode {
            Mode::Resume(r) => {
                r.restored_down_to >= 1 && self.func_stack.len() == r.restored_down_to
            }
            _ => false,
        }
    }

    /// After a migration unwind: the recorded frames, innermost first.
    pub fn into_pending_frames(self) -> Result<Vec<PendingFrame>, MigError> {
        match self.mode {
            Mode::Unwind(frames) => Ok(frames),
            _ => Err(MigError::Protocol(
                "program did not unwind for migration".into(),
            )),
        }
    }

    /// Restoration totals once every frame has been restored.
    pub fn restore_totals(&self) -> Option<RestoreTotals> {
        self.finished_restore
    }
}

/// What restoring a whole call chain cost, frame by frame summed.
#[derive(Debug, Clone, Copy, Default)]
pub struct RestoreTotals {
    /// Restoration counters.
    pub stats: RestoreStats,
    /// Wall time inside `restore_frame`. A streamed migration's report
    /// subtracts the pipe waits inside it (see
    /// [`MigrationReport::restore_time`](crate::MigrationReport::restore_time)).
    pub time: Duration,
    /// Instant the final `restore_frame` completed — a streamed
    /// migration's end-to-end endpoint (resumed computation continues
    /// after it). `None` for a run that never resumed.
    pub done_at: Option<Instant>,
}

/// Collect the recorded frames into a memory-state payload plus the
/// execution state (outermost-first), using one MSRM collection session.
pub fn collect_pending(
    proc: &mut Process,
    pending: &[PendingFrame],
) -> Result<(Vec<u8>, ExecutionState, CollectStats), MigError> {
    let exec = pending_exec_state(proc, pending);
    let (payload, stats) = collect_onto(proc, pending, &Track::off(), &[])?;
    Ok((payload, exec, stats))
}

/// One whole-buffer collection session whose output starts with `prefix`:
/// given an image prefix, the result is the framed image, built in place.
/// The collector records on `track` (see [`Collector::with_track`]).
pub(crate) fn collect_onto(
    proc: &mut Process,
    pending: &[PendingFrame],
    track: &Track,
    prefix: &[u8],
) -> Result<(Vec<u8>, CollectStats), MigError> {
    let collector = Collector::new(&mut proc.space, &mut proc.msrlt)
        .with_track(track.clone())
        .with_prefix(prefix);
    Ok(save_pending(collector, pending)?.finish()?)
}

/// Save every live variable of the recorded frames, innermost first.
fn save_pending<'a>(
    mut collector: Collector<'a>,
    pending: &[PendingFrame],
) -> Result<Collector<'a>, MigError> {
    for frame in pending {
        for &addr in &frame.live {
            collector.save_variable(addr)?;
        }
    }
    Ok(collector)
}

/// The execution state the recorded frames will ship — computable before
/// collection runs, which is what lets a streamed transport send the
/// image prefix while `Save_pointer` is still traversing.
pub fn pending_exec_state(proc: &Process, pending: &[PendingFrame]) -> ExecutionState {
    ExecutionState {
        frames: pending
            .iter()
            .rev()
            .map(|p| FrameState {
                function: p.function.clone(),
                poll_point: p.poll_point,
                live_count: p.live.len() as u32,
            })
            .collect(),
        heap_high_water: proc.msrlt.heap_len(),
    }
}

/// [`collect_pending`]'s payload, but leaving through `sink` in
/// `chunk_bytes`-sized chunks as the DFS produces it instead of
/// accumulating in memory. Concatenating the chunks yields exactly the
/// whole-buffer payload. Every flushed chunk leaves a `chunk.flush` event
/// on `track`.
pub fn collect_pending_streamed<'a>(
    proc: &'a mut Process,
    pending: &[PendingFrame],
    chunk_bytes: usize,
    track: &Track,
    sink: ChunkSink<'a>,
) -> Result<CollectStats, MigError> {
    let collector = Collector::new(&mut proc.space, &mut proc.msrlt)
        .with_track(track.clone())
        .with_sink(chunk_bytes, sink);
    Ok(save_pending(collector, pending)?.finish()?.1)
}
