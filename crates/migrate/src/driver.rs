//! Single-pair migration driver: run, migrate, resume, report.
//!
//! Produces the paper's headline measurement triplet — **Collect**, **Tx**,
//! **Restore** (Table 1: "We define process migration time as the total of
//! data collection (Collect), transmission (Tx), and restoration (Restore)
//! time") — plus every §4.2 instrumentation counter.

use crate::ctx::{
    collect_onto, collect_pending, collect_pending_streamed, collect_pending_streamed_flight,
    pending_exec_state, MigCtx, MigratableProgram, PendingFrame,
};
use crate::exec::ExecutionState;
use crate::process::{Process, Trigger};
use crate::{Flow, MigError};
use hpm_arch::Architecture;
use hpm_core::image::{frame_image_prefix, unframe_image, ImageHeader};
use hpm_core::{
    audit_registry, ChunkPayload, ChunkSource, CollectStats, CoreError, MsrltStats,
    RegistryAuditStats, RegistryFinding, ReplaySource, RestoreStats, IMAGE_VERSION,
};
use hpm_net::{
    channel_pair, ArqConfig, ArqReceiverSnapshot, ArqSenderStats, ChunkReceiver, ChunkSender,
    FaultPlan, FaultStats, FaultyEndpoint, NetError, NetworkModel, ReliableChunkReceiver,
    ReliableChunkSender, ResumeDecision, TransferSnapshot, WireCodec,
};
use hpm_obs::{
    render_groups, snapshot, FlightDump, FlightRecorder, FlightTrack, Histogram, HistogramSnapshot,
    StatField, StatGroup, TraceLog, Tracer,
};
use hpm_xdr::{image_id, ChunkRecord, RestoreJournal};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Everything measured about one migration.
#[derive(Debug, Clone)]
pub struct MigrationReport {
    /// Total migration image size in bytes (header + exec + memory).
    pub image_bytes: u64,
    /// Memory-state payload bytes (the ΣDᵢ quantity of §4.2).
    pub memory_bytes: u64,
    /// Wall time of the data-collection phase.
    pub collect_time: Duration,
    /// Modeled transmission time over the chosen link.
    pub tx_time: Duration,
    /// Wall time of the restoration phase (sum over `restore_frame`s).
    pub restore_time: Duration,
    /// Collection counters.
    pub collect_stats: CollectStats,
    /// Source MSRLT counters during collection (searches, steps, time).
    pub src_msrlt: MsrltStats,
    /// Restoration counters.
    pub restore_stats: RestoreStats,
    /// Destination MSRLT counters during restoration + resumed run.
    pub dst_msrlt: MsrltStats,
    /// Poll-points executed on the source before migration.
    pub src_polls: u64,
    /// Call-chain depth at the migration point.
    pub chain_depth: usize,
    /// Wire-level transfer accounting (the `Tx` column comes from here).
    pub transfer: TransferSnapshot,
    /// Full event trace of the migration, when one was requested via
    /// [`run_migrating_traced`]; `None` for untraced runs.
    pub trace: Option<TraceLog>,
    /// Pipeline measurements, for runs through
    /// [`run_migrating_pipelined`]; `None` for monolithic runs.
    pub pipeline: Option<PipelineStats>,
    /// Fault-recovery measurements, for runs through
    /// [`run_migrating_resilient`]; `None` otherwise.
    pub recovery: Option<RecoveryStats>,
    /// Pre-flight registry-audit counters, for drivers that audit the
    /// MSRLT snapshot before collecting; `None` for paths that skip it.
    pub registry_audit: Option<RegistryAuditStats>,
    /// How far down the degradation ladder this run went and what the
    /// resume machinery saved, for runs through
    /// [`run_migrating_resilient`]; `None` otherwise.
    pub resume: Option<ResumeStats>,
    /// Flight-recorder dump captured when the run hit a fallback path;
    /// `None` for clean runs (the recorder stays bounded and unread).
    pub flight: Option<FlightDump>,
}

impl MigrationReport {
    /// Total migration time: Collect + Tx + Restore (Table 1's metric).
    pub fn migration_time(&self) -> Duration {
        self.collect_time + self.tx_time + self.restore_time
    }

    /// Modeled transmission time in nanoseconds, from the wire accounting.
    pub fn modeled_tx_nanos(&self) -> u64 {
        self.transfer.modeled_tx_nanos
    }

    /// Every counter group in the report, in render order.
    pub fn stat_groups(&self) -> Vec<(String, Vec<StatField>)> {
        let mut groups = vec![
            snapshot(&self.collect_stats),
            ("msrlt.src".to_string(), self.src_msrlt.fields()),
            snapshot(&self.transfer),
            snapshot(&self.restore_stats),
            ("msrlt.dst".to_string(), self.dst_msrlt.fields()),
        ];
        if let Some(p) = &self.pipeline {
            groups.push(snapshot(p));
        }
        if let Some(r) = &self.recovery {
            groups.push(snapshot(r));
        }
        if let Some(r) = &self.resume {
            groups.push(snapshot(r));
        }
        if let Some(a) = &self.registry_audit {
            groups.push(snapshot(a));
        }
        groups
    }

    /// Human-readable rendering of every counter group (one aligned
    /// table, shared with `paper_tables` output).
    pub fn render(&self) -> String {
        render_groups(&self.stat_groups())
    }
}

/// Result of a migrated run.
#[derive(Debug, Clone)]
pub struct MigrationRun {
    /// Measurements.
    pub report: MigrationReport,
    /// Result digest produced by the destination process.
    pub results: Vec<(String, String)>,
}

/// Shared tail of every driver: attach each of the report's StatGroups
/// to the trace log when a tracer ran, then wrap up the run. The four
/// drivers all finish through here instead of hand-rolling attachment.
fn report_migration(
    tracer: &Tracer,
    mut report: MigrationReport,
    results: Vec<(String, String)>,
) -> MigrationRun {
    if tracer.enabled() {
        let mut log = tracer.take_log();
        for (group, fields) in report.stat_groups() {
            log.attach_stats(group, fields);
        }
        report.trace = Some(log);
    }
    MigrationRun { report, results }
}

/// The migration-image header for a frozen process (shared by every
/// driver and by [`MigratedSource`]).
fn image_header(proc: &Process) -> ImageHeader {
    ImageHeader {
        version: IMAGE_VERSION,
        source_arch: proc.space.arch().name.to_string(),
        source_pointer_size: proc.space.arch().pointer_size as u32,
        program: proc.program().to_string(),
        registered_bytes: proc.msrlt.registered_bytes(),
    }
}

/// Collect the recorded frames straight into a framed migration image.
/// The collector's encoder starts from the image prefix, so the payload
/// is never copied into place behind its header.
pub(crate) fn collect_framed(
    proc: &mut Process,
    pending: &[PendingFrame],
    tracer: &Tracer,
) -> Result<(Vec<u8>, ExecutionState, CollectStats), MigError> {
    let exec = pending_exec_state(proc, pending);
    let prefix = frame_image_prefix(&image_header(proc), &exec.encode());
    let (image, stats) = collect_onto(proc, pending, tracer, &prefix)?;
    Ok((image, exec, stats))
}

/// Shared driver preamble: run `prog` on `proc` until its trigger fires,
/// returning the frozen process and the recorded unwind frames.
fn run_to_parts<'p, P: MigratableProgram>(
    prog: &mut P,
    proc: &'p mut Process,
) -> Result<(&'p mut Process, Vec<PendingFrame>), MigError> {
    let mut ctx = MigCtx::new_run(proc);
    let flow = prog.run(&mut ctx)?;
    if flow == Flow::Done {
        return Err(MigError::Protocol(
            "trigger never fired; program completed on the source".into(),
        ));
    }
    ctx.into_parts()
}

/// Best-effort persistence of a flight dump for CI forensics: when
/// `HPM_FLIGHT_DUMP` names a path, the dump's JSONL is written there.
/// Failures are swallowed — the dump is diagnostic, never load-bearing.
fn persist_flight_dump(dump: &FlightDump) {
    if let Ok(path) = std::env::var("HPM_FLIGHT_DUMP") {
        if !path.is_empty() {
            let _ = std::fs::write(path, dump.to_jsonl());
        }
    }
}

/// Run a program to completion with no migration; returns its results.
pub fn run_straight<P: MigratableProgram>(
    program: &mut P,
    arch: Architecture,
) -> Result<(Vec<(String, String)>, Process), MigError> {
    let mut proc = Process::new(program.name(), arch);
    program.setup(&mut proc)?;
    let mut ctx = MigCtx::new_run(&mut proc);
    match program.run(&mut ctx)? {
        Flow::Done => {}
        Flow::Migrate => {
            return Err(MigError::Protocol(
                "program migrated with Trigger::Never".into(),
            ))
        }
    }
    let results = program.results(&mut proc)?;
    Ok((results, proc))
}

/// A source process stopped at its migration point, ready to collect.
///
/// Benchmarks use this to measure collection repeatedly over one frozen
/// process image (collection does not modify the process).
#[derive(Debug)]
pub struct MigratedSource {
    /// The frozen source process.
    pub proc: Process,
    /// The recorded unwind frames, innermost first.
    pub pending: Vec<crate::ctx::PendingFrame>,
}

/// Run a program until its trigger fires, returning the frozen process
/// and the pending frames (without collecting yet).
pub fn run_to_migration<P: MigratableProgram>(
    program: &mut P,
    arch: Architecture,
    trigger: Trigger,
) -> Result<MigratedSource, MigError> {
    let mut proc = Process::new(program.name(), arch);
    proc.set_trigger(trigger);
    program.setup(&mut proc)?;
    let mut ctx = MigCtx::new_run(&mut proc);
    let flow = program.run(&mut ctx)?;
    if flow == Flow::Done {
        return Err(MigError::Protocol("trigger never fired".into()));
    }
    let pending = ctx.into_pending_frames()?;
    Ok(MigratedSource { proc, pending })
}

impl MigratedSource {
    /// Collect the memory-state payload once (repeatable).
    pub fn collect(&mut self) -> Result<(Vec<u8>, ExecutionState, CollectStats), MigError> {
        collect_pending(&mut self.proc, &self.pending)
    }

    /// Audit the frozen process's MSRLT snapshot without collecting —
    /// the same pre-flight check the migrating drivers run, exposed for
    /// benchmarks and `hpm-lint`'s runtime-registry pass.
    pub fn preflight_audit(
        &mut self,
    ) -> Result<(Vec<RegistryFinding>, RegistryAuditStats), MigError> {
        preflight_audit(&mut self.proc)
    }

    /// Frame a complete migration image from a fresh collection.
    pub fn to_image(&mut self) -> Result<Vec<u8>, MigError> {
        let (image, ..) = collect_framed(&mut self.proc, &self.pending, &Tracer::disabled())?;
        Ok(image)
    }

    /// The same migration image as [`MigratedSource::to_image`], but as
    /// the pipelined path would ship it: the image prefix (header + exec
    /// state) as chunk 0, then the payload in `chunk_bytes`-sized chunks.
    /// Concatenating the chunks reproduces `to_image` byte-for-byte.
    pub fn to_chunks(
        &mut self,
        chunk_bytes: usize,
    ) -> Result<(Vec<Vec<u8>>, CollectStats), MigError> {
        let header = image_header(&self.proc);
        let mut chunks: Vec<Vec<u8>> = Vec::new();
        let exec = pending_exec_state(&self.proc, &self.pending);
        chunks.push(frame_image_prefix(&header, &exec.encode()));
        let (exec2, stats) = collect_pending_streamed(
            &mut self.proc,
            &self.pending,
            chunk_bytes,
            &Tracer::disabled(),
            Box::new(|c| {
                chunks.push(c);
                Ok(())
            }),
        )?;
        debug_assert_eq!(exec, exec2);
        Ok((chunks, stats))
    }
}

/// Run the registry audit over a process's MSRLT snapshot, surfacing
/// the findings instead of failing. Audit lookups run *before* the
/// per-migration stat reset, so they never pollute `msrlt.src` counters.
pub fn preflight_audit(
    proc: &mut Process,
) -> Result<(Vec<RegistryFinding>, RegistryAuditStats), MigError> {
    Ok(audit_registry(&mut proc.space, &mut proc.msrlt)?)
}

/// Pre-flight gate used by the migrating drivers: audit the registry and
/// refuse to collect (with [`MigError::Preflight`]) if it is incoherent.
fn require_clean_registry(proc: &mut Process) -> Result<RegistryAuditStats, MigError> {
    let (findings, stats) = preflight_audit(proc)?;
    if findings.is_empty() {
        Ok(stats)
    } else {
        let msg = findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n");
        Err(MigError::Preflight(msg))
    }
}

/// Collect a migration image from a process that has unwound for
/// migration. Returns (image bytes, collect wall time, stats, exec,
/// pre-flight audit stats).
pub fn collect_image(
    ctx: MigCtx<'_>,
) -> Result<
    (
        Vec<u8>,
        Duration,
        CollectStats,
        ExecutionState,
        RegistryAuditStats,
    ),
    MigError,
> {
    collect_image_traced(ctx, &Tracer::disabled())
}

/// [`collect_image`] with the collection DFS traced (`msrlt.search`
/// spans, `collect.block` instants) on `tracer`.
pub fn collect_image_traced(
    ctx: MigCtx<'_>,
    tracer: &Tracer,
) -> Result<
    (
        Vec<u8>,
        Duration,
        CollectStats,
        ExecutionState,
        RegistryAuditStats,
    ),
    MigError,
> {
    let (proc, pending) = ctx.into_parts()?;
    let audit = require_clean_registry(proc)?;
    proc.msrlt.reset_stats();
    let t0 = Instant::now();
    let (image, exec, stats) = collect_framed(proc, &pending, tracer)?;
    let collect_time = t0.elapsed();
    Ok((image, collect_time, stats, exec, audit))
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
    resume_from_image_traced(program, arch, image, &Tracer::disabled())
}

/// [`resume_from_image`] with restoration traced: each `restore_frame`
/// emits a `restore` span carrying nested block/alloc events.
pub fn resume_from_image_traced<P: MigratableProgram>(
    program: &mut P,
    arch: Architecture,
    image: &[u8],
    tracer: &Tracer,
) -> Result<ResumeOutcome, MigError> {
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
    program.setup(&mut proc)?;
    proc.msrlt.reset_stats();
    let mut ctx = MigCtx::new_resume(&mut proc, exec, payload);
    ctx.set_tracer(tracer.clone());
    match program.run(&mut ctx)? {
        Flow::Done => {}
        Flow::Migrate => return Err(MigError::Protocol("resumed program migrated again".into())),
    }
    let (rstats, rtime) = ctx.restore_totals().ok_or_else(|| {
        MigError::Protocol("program finished without restoring all frames".into())
    })?;
    let results = program.results(&mut proc)?;
    Ok((results, proc, rstats, rtime))
}

/// Full migration experiment: run on `src_arch`, migrate at `trigger`
/// over `link`, resume on `dst_arch`, return results + report.
///
/// `make` constructs a fresh program value for each side (the two sides
/// are separate processes running the same executable).
pub fn run_migrating<P: MigratableProgram>(
    make: impl Fn() -> P,
    src_arch: Architecture,
    dst_arch: Architecture,
    link: NetworkModel,
    trigger: Trigger,
) -> Result<MigrationRun, MigError> {
    run_migrating_traced(make, src_arch, dst_arch, link, trigger, &Tracer::disabled())
}

/// [`run_migrating`] with a [`Tracer`] attached to every phase.
///
/// With an enabled tracer, the run emits nested phase spans — `collect`
/// (containing `msrlt.search` spans and `collect.block` instants), `tx`
/// (containing the channel's `net.send`/`net.recv` spans), and `restore`
/// per frame (containing `restore.block`/`restore.alloc` instants) — and
/// the report carries the drained [`TraceLog`] with every counter group
/// attached, ready for [`hpm_obs::chrome_trace_json`].
pub fn run_migrating_traced<P: MigratableProgram>(
    make: impl Fn() -> P,
    src_arch: Architecture,
    dst_arch: Architecture,
    link: NetworkModel,
    trigger: Trigger,
    tracer: &Tracer,
) -> Result<MigrationRun, MigError> {
    let recorder = FlightRecorder::new();
    run_migrating_recorded(make, src_arch, dst_arch, link, trigger, tracer, &recorder)
        .inspect_err(|_| persist_flight_dump(&recorder.dump()))
}

/// [`run_migrating_traced`] with a caller-supplied [`FlightRecorder`], so
/// the caller can inspect (or dump) the recorded events even when the run
/// fails — the post-mortem entry point the fault soak uses.
pub fn run_migrating_recorded<P: MigratableProgram>(
    make: impl Fn() -> P,
    src_arch: Architecture,
    dst_arch: Architecture,
    link: NetworkModel,
    trigger: Trigger,
    tracer: &Tracer,
    recorder: &FlightRecorder,
) -> Result<MigrationRun, MigError> {
    let driver_track = recorder.track("driver");
    // --- source side ---
    let mut src_prog = make();
    let mut src = Process::new(src_prog.name(), src_arch);
    src.set_trigger(trigger);
    src_prog.setup(&mut src)?;
    let mut ctx = MigCtx::new_run(&mut src);
    let flow = src_prog.run(&mut ctx)?;
    if flow == Flow::Done {
        return Err(MigError::Protocol(
            "trigger never fired; program completed on the source".into(),
        ));
    }
    tracer.begin("collect");
    let (image, collect_time, collect_stats, exec, registry_audit) =
        collect_image_traced(ctx, tracer)?;
    tracer.end_args("collect", &[("image_bytes", image.len() as f64)]);
    driver_track.event(
        "phase.collect",
        &[
            ("image_bytes", image.len() as u64),
            ("blocks", collect_stats.blocks_saved),
        ],
    );
    let src_msrlt = src.msrlt.stats();
    driver_track.event("msrlt.evictions", &[("count", src_msrlt.cache_evictions)]);
    let src_polls = src.poll_count();
    let chain_depth = exec.depth();
    let memory_bytes = collect_stats.bytes_out;

    // --- the wire: ship the image through a modeled channel so the Tx
    // column comes from the same accounting the cluster path uses ---
    tracer.begin("tx");
    let (src_end, dst_end) = channel_pair(link);
    let src_end = src_end.with_tracer(tracer.clone());
    let dst_end = dst_end.with_tracer(tracer.clone());
    src_end.send(image)?;
    let image = dst_end.recv()?;
    let transfer = src_end.stats().snapshot();
    let tx_time = transfer.modeled_tx_time();
    tracer.end_args("tx", &[("modeled_ns", transfer.modeled_tx_nanos as f64)]);
    driver_track.event("phase.tx", &[("bytes", transfer.bytes_sent)]);

    // --- destination side ---
    let mut dst_prog = make();
    let (results, dst, restore_stats, restore_time) =
        resume_from_image_traced(&mut dst_prog, dst_arch, &image, tracer)?;
    let dst_msrlt = dst.msrlt.stats();
    driver_track.event(
        "phase.restore",
        &[
            ("bytes_in", restore_stats.bytes_in),
            ("blocks", restore_stats.blocks_restored),
        ],
    );

    let report = MigrationReport {
        image_bytes: image.len() as u64,
        memory_bytes,
        collect_time,
        tx_time,
        restore_time,
        collect_stats,
        src_msrlt,
        restore_stats,
        dst_msrlt,
        src_polls,
        chain_depth,
        transfer,
        trace: None,
        pipeline: None,
        recovery: None,
        registry_audit: Some(registry_audit),
        resume: None,
        flight: None,
    };
    Ok(report_migration(tracer, report, results))
}

/// Payload bytes per wire frame of a pre-copy round (its default `chunk_bytes`).
pub const WIRE_CHUNK_BYTES: usize = 32 * 1024;

/// Tunables for the pipelined migration path.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Payload bytes per chunk — the collector's flush watermark.
    pub chunk_bytes: usize,
    /// Pace the wire in real time: each chunk's modeled transmission
    /// time is slept before delivery, so the destination experiences the
    /// link and wall-clock overlap becomes observable.
    pub pace: bool,
    /// Scale on the per-chunk pacing sleep (`0.01` runs a 10 Mb/s
    /// experiment 100× faster while preserving relative timing).
    pub pace_scale: f64,
    /// Frame codec for the chunk stream (default v2/stored; pass
    /// [`WireCodec::V3`] to compress each chunk on the wire).
    pub codec: WireCodec,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            chunk_bytes: 32 * 1024,
            pace: true,
            pace_scale: 1.0,
            codec: WireCodec::default(),
        }
    }
}

impl PipelineConfig {
    /// This configuration with v3 (compressed) framing.
    pub fn compressed(mut self) -> Self {
        self.codec = WireCodec::V3;
        self
    }
}

/// Measurements specific to a pipelined (chunk-streamed) migration.
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelineStats {
    /// Frames on the wire: image prefix + payload chunks + terminator.
    pub chunks: u64,
    /// Configured payload bytes per chunk.
    pub chunk_bytes: u64,
    /// Wall time of the collection DFS (source thread busy time).
    pub collect_time: Duration,
    /// Modeled transmission time over the link.
    pub tx_time: Duration,
    /// Wall time inside `restore_frame`, stall included.
    pub restore_time: Duration,
    /// Portion of `restore_time` spent blocked waiting for chunks.
    pub restore_stall: Duration,
    /// Wall time from the start of collection until the final
    /// `restore_frame` completed on the destination.
    pub e2e_time: Duration,
    /// Per-chunk encode latency (nanoseconds between successive chunks
    /// leaving the collector), as a log-bucketed distribution.
    pub encode_lat: HistogramSnapshot,
    /// Per-chunk decode latency (nanoseconds the restorer spent between
    /// finishing one chunk and requesting the next).
    pub decode_lat: HistogramSnapshot,
}

impl PipelineStats {
    /// Restoration time actually spent decoding (stall excluded).
    pub fn restore_busy(&self) -> Duration {
        self.restore_time.saturating_sub(self.restore_stall)
    }

    /// What the monolithic path would cost: Collect + Tx + Restore run
    /// strictly one after another (Table 1's sum).
    pub fn serial_time(&self) -> Duration {
        self.collect_time + self.tx_time + self.restore_busy()
    }

    /// How much of the serial sum the pipeline hid by overlapping:
    /// `1 − e2e/serial`, clamped at 0. Only meaningful for paced runs
    /// (unpaced runs hide the whole modeled Tx trivially).
    pub fn overlap_ratio(&self) -> f64 {
        let serial = self.serial_time().as_secs_f64();
        if serial <= 0.0 {
            return 0.0;
        }
        (1.0 - self.e2e_time.as_secs_f64() / serial).max(0.0)
    }
}

impl StatGroup for PipelineStats {
    fn group(&self) -> &'static str {
        "pipeline"
    }

    fn fields(&self) -> Vec<StatField> {
        vec![
            StatField::count("chunks", self.chunks),
            StatField::bytes("chunk_bytes", self.chunk_bytes),
            StatField::duration("collect_time", self.collect_time),
            StatField::duration("tx_time", self.tx_time),
            StatField::duration("restore_time", self.restore_time),
            StatField::duration("restore_stall", self.restore_stall),
            StatField::duration("e2e_time", self.e2e_time),
            StatField::ratio("overlap_ratio", self.overlap_ratio()),
            StatField::duration("encode_p50", Duration::from_nanos(self.encode_lat.p50())),
            StatField::duration("encode_p99", Duration::from_nanos(self.encode_lat.p99())),
            StatField::duration("decode_p50", Duration::from_nanos(self.decode_lat.p50())),
            StatField::duration("decode_p99", Duration::from_nanos(self.decode_lat.p99())),
        ]
    }

    fn merge_from(&mut self, other: &Self) {
        self.chunks += other.chunks;
        self.chunk_bytes = self.chunk_bytes.max(other.chunk_bytes);
        self.collect_time += other.collect_time;
        self.tx_time += other.tx_time;
        self.restore_time += other.restore_time;
        self.restore_stall += other.restore_stall;
        self.e2e_time += other.e2e_time;
        self.encode_lat.merge(&other.encode_lat);
        self.decode_lat.merge(&other.decode_lat);
    }
}

/// Adapter: a net-layer [`ChunkReceiver`] as the restorer's
/// [`ChunkSource`], mapping transport failures into the stream layer.
/// The gap between returning one chunk and being asked for the next is
/// the restorer's per-chunk decode latency — observed into `decode_lat`.
struct NetChunkSource {
    rx: ChunkReceiver,
    decode_lat: Arc<Histogram>,
    last_return: Option<Instant>,
}

impl ChunkSource for NetChunkSource {
    fn next_chunk(&mut self) -> Result<Option<Vec<u8>>, CoreError> {
        if let Some(t) = self.last_return.take() {
            self.decode_lat.observe(t.elapsed().as_nanos() as u64);
        }
        let r = self
            .rx
            .recv_chunk()
            .map_err(|e| CoreError::Source(e.to_string()));
        self.last_return = Some(Instant::now());
        r
    }
}

/// What the destination thread hands back to the driver.
struct DstOutcome {
    results: Vec<(String, String)>,
    restore_stats: RestoreStats,
    restore_time: Duration,
    restore_stall: Duration,
    msrlt: MsrltStats,
    done_at: Option<Instant>,
}

/// [`run_migrating`], pipelined: collection, transmission, and
/// restoration overlap instead of running strictly in sequence.
///
/// Three stages run concurrently — the source thread flushes the DFS
/// stream in [`PipelineConfig::chunk_bytes`]-sized chunks as it
/// traverses, a wire thread paces each chunk by its modeled transmission
/// time, and the destination thread restores frame *k* while chunk *k+1*
/// is still in flight. The image prefix (header + execution state)
/// travels as chunk 0, before any payload exists, so the destination
/// re-enters the call chain while the source is still collecting.
///
/// The report carries the usual Collect/Tx/Restore triplet plus
/// [`PipelineStats`], whose `overlap_ratio` compares the pipelined
/// end-to-end wall time against the serial sum.
pub fn run_migrating_pipelined<P: MigratableProgram + Send>(
    make: impl Fn() -> P,
    src_arch: Architecture,
    dst_arch: Architecture,
    link: NetworkModel,
    trigger: Trigger,
    config: PipelineConfig,
) -> Result<MigrationRun, MigError> {
    let recorder = FlightRecorder::new();
    run_migrating_pipelined_recorded(make, src_arch, dst_arch, link, trigger, config, &recorder)
        .inspect_err(|_| persist_flight_dump(&recorder.dump()))
}

/// [`run_migrating_pipelined`] with a caller-supplied [`FlightRecorder`]:
/// the collector's flushes, both wire ends, and the restorer each log to
/// their own single-writer track, and per-chunk encode/decode latency is
/// observed into the report's [`PipelineStats`] histograms.
pub fn run_migrating_pipelined_recorded<P: MigratableProgram + Send>(
    make: impl Fn() -> P,
    src_arch: Architecture,
    dst_arch: Architecture,
    link: NetworkModel,
    trigger: Trigger,
    config: PipelineConfig,
    recorder: &FlightRecorder,
) -> Result<MigrationRun, MigError> {
    let driver_track = recorder.track("driver");
    let collect_track = recorder.track("collect");
    let tx_track = recorder.track("net.tx");
    let rx_track = recorder.track("net.rx");
    let restore_track = recorder.track("restore");
    let encode_lat = Arc::new(Histogram::new());
    let decode_lat = Arc::new(Histogram::new());

    // --- source side: run to the migration point ---
    let mut src_prog = make();
    let mut src = Process::new(src_prog.name(), src_arch);
    src.set_trigger(trigger);
    src_prog.setup(&mut src)?;
    let (proc, pending) = run_to_parts(&mut src_prog, &mut src)?;
    let registry_audit = require_clean_registry(proc)?;
    proc.msrlt.reset_stats();

    let header = image_header(proc);
    let exec = pending_exec_state(proc, &pending);
    let chain_depth = exec.depth();
    let prefix = frame_image_prefix(&header, &exec.encode());
    let prefix_len = prefix.len() as u64;
    driver_track.event(
        "phase.collect",
        &[
            ("prefix_bytes", prefix_len),
            ("chain_depth", exec.depth() as u64),
        ],
    );

    let (src_end, dst_end) = channel_pair(link);
    let mut dst_prog = make();
    let (chunk_tx, chunk_rx) = std::sync::mpsc::channel::<Vec<u8>>();

    let t_start = Instant::now();
    let (collect_time, collect_stats, wire_frames, transfer, dst_out) =
        std::thread::scope(|s| -> Result<_, MigError> {
            // Wire stage: pace each chunk by its modeled transmission
            // time, then frame and forward it.
            let wire = s.spawn(move || -> Result<(u32, TransferSnapshot), NetError> {
                let mut sender = ChunkSender::new(&src_end)
                    .with_codec(config.codec)
                    .with_flight(tx_track);
                while let Ok(chunk) = chunk_rx.recv() {
                    if config.pace {
                        let d = link.tx_time(chunk.len() as u64).mul_f64(config.pace_scale);
                        if !d.is_zero() {
                            std::thread::sleep(d);
                        }
                    }
                    sender.send(&chunk)?;
                }
                let frames = sender.finish()?;
                Ok((frames, src_end.stats().snapshot()))
            });

            // Destination stage: parse the prefix, then resume over the
            // still-arriving chunk stream.
            let dst_decode_lat = Arc::clone(&decode_lat);
            let dst = s.spawn(move || -> Result<DstOutcome, MigError> {
                let mut rx = ChunkReceiver::new(dst_end).with_flight(rx_track);
                let first = rx
                    .recv_chunk()
                    .map_err(MigError::from)?
                    .ok_or_else(|| MigError::Protocol("empty migration stream".into()))?;
                let (header, exec_bytes, leftover) = unframe_image(&first)?;
                if header.program != dst_prog.name() {
                    return Err(MigError::Protocol(format!(
                        "image is for program '{}', not '{}'",
                        header.program,
                        dst_prog.name()
                    )));
                }
                let exec = ExecutionState::decode(exec_bytes)?;
                let mut proc = Process::new(dst_prog.name(), dst_arch);
                proc.space.reserve_heap_bytes(header.registered_bytes);
                dst_prog.setup(&mut proc)?;
                proc.msrlt.reset_stats();
                let chunks = ChunkPayload::with_initial(
                    Box::new(NetChunkSource {
                        rx,
                        decode_lat: dst_decode_lat,
                        last_return: None,
                    }),
                    leftover.to_vec(),
                );
                let mut ctx = MigCtx::new_resume_streaming(&mut proc, exec, chunks);
                ctx.set_flight(restore_track);
                match dst_prog.run(&mut ctx)? {
                    Flow::Done => {}
                    Flow::Migrate => {
                        return Err(MigError::Protocol("resumed program migrated again".into()))
                    }
                }
                let (restore_stats, restore_time) = ctx.restore_totals().ok_or_else(|| {
                    MigError::Protocol("program finished without restoring all frames".into())
                })?;
                let restore_stall = ctx.restore_stall();
                let done_at = ctx.restore_completed_at();
                let results = dst_prog.results(&mut proc)?;
                Ok(DstOutcome {
                    results,
                    restore_stats,
                    restore_time,
                    restore_stall,
                    msrlt: proc.msrlt.stats(),
                    done_at,
                })
            });

            // Source stage (this thread): prefix first, then the
            // collection DFS flushing through the sink. A failed prefix
            // send is folded into the sink-disconnect shape so it flows
            // through the same triage as a mid-collection disconnect.
            let mut collect_time = Duration::ZERO;
            let collect_res = if chunk_tx.send(prefix).is_err() {
                Err(MigError::from(CoreError::Source(
                    "chunk sink disconnected".into(),
                )))
            } else {
                let enc = Arc::clone(&encode_lat);
                let t_collect = Instant::now();
                // Per-chunk encode latency: the gap between successive
                // chunks leaving the collector is the time the DFS spent
                // filling (encoding) the chunk that just flushed.
                let mut last_flush = Instant::now();
                let r = collect_pending_streamed_flight(
                    proc,
                    &pending,
                    config.chunk_bytes,
                    &Tracer::disabled(),
                    Box::new(|c| {
                        enc.observe(last_flush.elapsed().as_nanos() as u64);
                        last_flush = Instant::now();
                        chunk_tx
                            .send(c)
                            .map_err(|_| CoreError::Source("chunk sink disconnected".into()))
                    }),
                    Some(collect_track),
                );
                collect_time = t_collect.elapsed();
                r
            };
            drop(chunk_tx); // end of stream: the wire thread sends LAST

            // Join BOTH workers on every path — before any early return —
            // so no exit leaks a blocked thread or discards its error.
            let dst_res = dst
                .join()
                .map_err(|_| MigError::Protocol("destination thread panicked".into()))?;
            let wire_res = wire
                .join()
                .map_err(|_| MigError::Protocol("wire thread panicked".into()))?;

            // Error priority: a collection failure that is not a mere
            // sink disconnect is the root cause; otherwise the receiving
            // side's error explains why the sink vanished, and only then
            // does a wire-thread failure get the blame.
            let sink_gone = matches!(
                &collect_res,
                Err(MigError::Core(m)) if m.contains("chunk sink disconnected")
            );
            if let Err(e) = &collect_res {
                if !sink_gone {
                    return Err(e.clone());
                }
            }
            let dst_out = dst_res?;
            let (wire_frames, transfer) = wire_res.map_err(MigError::from)?;
            let (_, collect_stats) = collect_res?;
            Ok((collect_time, collect_stats, wire_frames, transfer, dst_out))
        })?;

    let e2e_time = dst_out
        .done_at
        .map(|t| t.saturating_duration_since(t_start))
        .unwrap_or_default();
    let tx_time = transfer.modeled_tx_time();
    driver_track.event("phase.tx", &[("bytes", transfer.bytes_sent)]);
    driver_track.event(
        "phase.restore",
        &[
            ("bytes_in", dst_out.restore_stats.bytes_in),
            ("blocks", dst_out.restore_stats.blocks_restored),
        ],
    );
    let pipeline = PipelineStats {
        chunks: wire_frames as u64,
        chunk_bytes: config.chunk_bytes as u64,
        collect_time,
        tx_time,
        restore_time: dst_out.restore_time,
        restore_stall: dst_out.restore_stall,
        e2e_time,
        encode_lat: encode_lat.snapshot(),
        decode_lat: decode_lat.snapshot(),
    };
    let report = MigrationReport {
        image_bytes: prefix_len + collect_stats.bytes_out,
        memory_bytes: collect_stats.bytes_out,
        collect_time,
        tx_time,
        restore_time: dst_out.restore_time,
        collect_stats,
        src_msrlt: src.msrlt.stats(),
        restore_stats: dst_out.restore_stats,
        dst_msrlt: dst_out.msrlt,
        src_polls: src.poll_count(),
        chain_depth,
        transfer,
        trace: None,
        pipeline: Some(pipeline),
        recovery: None,
        registry_audit: Some(registry_audit),
        resume: None,
        flight: None,
    };
    Ok(report_migration(
        &Tracer::disabled(),
        report,
        dst_out.results,
    ))
}

/// What to do when the migration stream cannot be repaired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackPolicy {
    /// Discard the partial destination and resume execution on the
    /// source from the annotation poll point (whose state collection
    /// never touched).
    SourceResume,
    /// Surface the transport error to the caller.
    Fail,
}

/// Recovery tuning for [`run_migrating_resilient`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Retransmissions allowed per chunk before the stream is declared dead.
    pub max_retries: u32,
    /// First retransmission backoff; doubles per silent round.
    pub backoff: Duration,
    /// What to do once retries are exhausted.
    pub fallback: FallbackPolicy,
    /// Whether the destination may resume from its chunk journal (rung 2
    /// of the degradation ladder). When `false` a dead stream goes
    /// straight from ARQ retries to the [`FallbackPolicy`].
    pub resume: bool,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_retries: 8,
            backoff: Duration::from_millis(4),
            fallback: FallbackPolicy::SourceResume,
            resume: true,
        }
    }
}

/// Why rung 2 (resume-from-journal) of the degradation ladder was not the
/// rung that completed the migration, surfaced in
/// [`ResumeStats::skip`] so operators can tell a policy choice from a
/// corrupt journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung2Skip {
    /// [`RecoveryPolicy::resume`] was `false`; never attempted.
    PolicyDisabled,
    /// The *source* died mid-collect; a destination journal cannot help
    /// because there is nothing left to send.
    SourceCrashed,
    /// The destination left no usable journal (it died before verifying
    /// a single chunk, or the journal failed its own CRC on decode).
    NoJournal,
    /// The sender rejected the resume handshake: the journal digest did
    /// not match the send ledger, so splicing would risk a corrupt
    /// image. Rolled back to a clean full restart.
    DigestMismatch,
    /// Rung 2 was attempted but the resumed transfer itself failed.
    TransferFailed,
}

impl std::fmt::Display for Rung2Skip {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rung2Skip::PolicyDisabled => write!(f, "policy-disabled"),
            Rung2Skip::SourceCrashed => write!(f, "source-crashed"),
            Rung2Skip::NoJournal => write!(f, "no-journal"),
            Rung2Skip::DigestMismatch => write!(f, "digest-mismatch"),
            Rung2Skip::TransferFailed => write!(f, "transfer-failed"),
        }
    }
}

/// How far down the degradation ladder a resilient migration went and
/// what the resume machinery saved.
///
/// Like [`RecoveryStats`], every field is a deterministic function of the
/// [`FaultPlan`] and the chunk stream, so rerunning a seed reproduces the
/// struct bit for bit (the crash soak asserts this).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResumeStats {
    /// Ladder rung that completed the migration: 1 = ARQ retries alone,
    /// 2 = resume-from-journal, 3 = fallback policy (source resume).
    pub rung: u8,
    /// CRC-verified chunks the destination journal held at the crash.
    pub journal_chunks: u64,
    /// Journal chunks replayed into the fresh destination (rung 2 only).
    pub chunks_replayed: u64,
    /// Wire bytes the resume handshake avoided re-sending.
    pub bytes_saved: u64,
    /// Chunks actually re-transferred after the resume point.
    pub chunks_retransferred: u64,
    /// Wire bytes actually re-transferred after the resume point.
    pub bytes_retransferred: u64,
    /// Already-verified chunks the wire re-delivered anyway. A correct
    /// resume keeps this at zero.
    pub wire_replays: u64,
    /// Whether rung 2 was attempted at all.
    pub rung2_attempted: bool,
    /// Why rung 2 did not complete the migration (`None` when it did,
    /// or when rung 1 succeeded outright).
    pub skip: Option<Rung2Skip>,
}

impl StatGroup for ResumeStats {
    fn group(&self) -> &'static str {
        "resume"
    }

    fn fields(&self) -> Vec<StatField> {
        vec![
            StatField::count("rung", self.rung as u64),
            StatField::count("journal_chunks", self.journal_chunks),
            StatField::count("chunks_replayed", self.chunks_replayed),
            StatField::count("bytes_saved", self.bytes_saved),
            StatField::count("chunks_retransferred", self.chunks_retransferred),
            StatField::count("bytes_retransferred", self.bytes_retransferred),
            StatField::count("wire_replays", self.wire_replays),
            StatField::count("rung2_attempted", self.rung2_attempted as u64),
            StatField::count(
                "skip",
                match self.skip {
                    None => 0,
                    Some(Rung2Skip::PolicyDisabled) => 1,
                    Some(Rung2Skip::SourceCrashed) => 2,
                    Some(Rung2Skip::NoJournal) => 3,
                    Some(Rung2Skip::DigestMismatch) => 4,
                    Some(Rung2Skip::TransferFailed) => 5,
                },
            ),
        ]
    }

    fn merge_from(&mut self, other: &Self) {
        self.rung = self.rung.max(other.rung);
        self.journal_chunks += other.journal_chunks;
        self.chunks_replayed += other.chunks_replayed;
        self.bytes_saved += other.bytes_saved;
        self.chunks_retransferred += other.chunks_retransferred;
        self.bytes_retransferred += other.bytes_retransferred;
        self.wire_replays += other.wire_replays;
        self.rung2_attempted |= other.rung2_attempted;
        self.skip = self.skip.or(other.skip);
    }
}

/// What the recovery machinery did during one resilient migration.
///
/// Every field is a deterministic function of the [`FaultPlan`] and the
/// chunk stream — no wall-clock quantity lives here — so rerunning a
/// seed reproduces the struct exactly (the soak sweep asserts this).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Whether the migration fell back to resuming on the source.
    pub fallback_taken: bool,
    /// Chunk retransmissions (NACK- plus timeout-triggered).
    pub retransmits: u64,
    /// Silent rounds that triggered a timeout retransmission.
    pub timeouts: u64,
    /// Frames whose payload failed its CRC-32 on arrival.
    pub corrupt_caught: u64,
    /// Extra valid copies the destination absorbed silently.
    pub dups_absorbed: u64,
    /// Frames the destination accepted out of order and re-sequenced.
    pub reorders_absorbed: u64,
    /// Cumulative ACK frames the destination sent.
    pub acks_sent: u64,
    /// NACK frames the destination sent.
    pub nacks_sent: u64,
    /// Fault events the injector reports (soak bookkeeping).
    pub faults_injected: u64,
    /// Modeled time charged to retransmission backoff.
    pub modeled_backoff_nanos: u64,
    /// Modeled time charged to injected link delays.
    pub modeled_delay_nanos: u64,
    /// Distribution of per-chunk retransmission counts (observed when a
    /// chunk leaves the send window, or when retries are exhausted).
    /// Seed-deterministic like every other field here.
    pub retry_hist: HistogramSnapshot,
}

impl RecoveryStats {
    /// Modeled recovery overhead vs a clean run: backoff plus injected
    /// delay. Wire-byte overhead (retransmits, acks) is visible in the
    /// transfer accounting instead.
    pub fn recovery_overhead(&self) -> Duration {
        Duration::from_nanos(self.modeled_backoff_nanos + self.modeled_delay_nanos)
    }

    fn from_parts(
        sender: ArqSenderStats,
        receiver: hpm_net::ArqReceiverSnapshot,
        faults: FaultStats,
        fallback_taken: bool,
    ) -> Self {
        RecoveryStats {
            fallback_taken,
            retransmits: sender.retransmits,
            timeouts: sender.timeouts,
            corrupt_caught: receiver.corrupt_caught,
            dups_absorbed: receiver.dups_absorbed,
            reorders_absorbed: receiver.reorders_absorbed,
            acks_sent: receiver.acks_sent,
            nacks_sent: receiver.nacks_sent,
            faults_injected: faults.faults_injected(),
            modeled_backoff_nanos: sender.modeled_backoff_nanos,
            modeled_delay_nanos: faults.modeled_delay_nanos,
            retry_hist: sender.retry_hist,
        }
    }
}

impl StatGroup for RecoveryStats {
    fn group(&self) -> &'static str {
        "recovery"
    }

    fn fields(&self) -> Vec<StatField> {
        vec![
            StatField::count("fallback_taken", self.fallback_taken as u64),
            StatField::count("retransmits", self.retransmits),
            StatField::count("timeouts", self.timeouts),
            StatField::count("corrupt_caught", self.corrupt_caught),
            StatField::count("dups_absorbed", self.dups_absorbed),
            StatField::count("reorders_absorbed", self.reorders_absorbed),
            StatField::count("acks_sent", self.acks_sent),
            StatField::count("nacks_sent", self.nacks_sent),
            StatField::count("faults_injected", self.faults_injected),
            StatField::duration("recovery_overhead", self.recovery_overhead()),
            StatField::count("retry_p50", self.retry_hist.p50()),
            StatField::count("retry_p99", self.retry_hist.p99()),
            StatField::count("retry_max", self.retry_hist.max),
        ]
    }

    fn merge_from(&mut self, other: &Self) {
        self.fallback_taken |= other.fallback_taken;
        self.retransmits += other.retransmits;
        self.timeouts += other.timeouts;
        self.corrupt_caught += other.corrupt_caught;
        self.dups_absorbed += other.dups_absorbed;
        self.reorders_absorbed += other.reorders_absorbed;
        self.acks_sent += other.acks_sent;
        self.nacks_sent += other.nacks_sent;
        self.faults_injected += other.faults_injected;
        self.modeled_backoff_nanos += other.modeled_backoff_nanos;
        self.modeled_delay_nanos += other.modeled_delay_nanos;
        self.retry_hist.merge(&other.retry_hist);
    }
}

/// Adapter: the ARQ receiver as the restorer's [`ChunkSource`], with the
/// same per-chunk decode-latency accounting as [`NetChunkSource`].
struct ReliableNetChunkSource {
    rx: ReliableChunkReceiver,
    decode_lat: Arc<Histogram>,
    last_return: Option<Instant>,
}

impl ChunkSource for ReliableNetChunkSource {
    fn next_chunk(&mut self) -> Result<Option<Vec<u8>>, CoreError> {
        if let Some(t) = self.last_return.take() {
            self.decode_lat.observe(t.elapsed().as_nanos() as u64);
        }
        let r = self
            .rx
            .recv_chunk()
            .map_err(|e| CoreError::Source(e.to_string()));
        self.last_return = Some(Instant::now());
        r
    }
}

/// What one resilient migration attempt produced.
struct AttemptOutcome {
    collect_time: Duration,
    collect_stats: Option<CollectStats>,
    wire_frames: u32,
    sender_stats: ArqSenderStats,
    fault_stats: FaultStats,
    transfer: TransferSnapshot,
    receiver: ArqReceiverSnapshot,
    /// Send ledger: one [`ChunkRecord`] per framed chunk, in sequence
    /// order. A later resume handshake validates against it.
    records: Vec<ChunkRecord>,
    /// Wire bytes the resume handshake avoided re-sending (resume
    /// attempts only; zero for a fresh stream).
    bytes_saved_wire: u64,
    dst: Option<DstOutcome>,
    /// The injected source crash fired mid-collect.
    src_crashed: bool,
    /// The sender refused the resume handshake (digest/range/id).
    resume_rejected: bool,
    /// The failure that killed the attempt, if any.
    error: Option<MigError>,
}

/// Flight tracks for one resilient attempt. Tracks are single-writer,
/// so a rung-2 resume passes `.resume`-suffixed names instead of
/// re-using rung 1's.
struct AttemptTracks {
    collect: FlightTrack,
    arq_tx: FlightTrack,
    arq_rx: FlightTrack,
    fault: FlightTrack,
    restore: FlightTrack,
}

/// One transfer attempt of the resilient driver: an ARQ sender on a wire
/// thread (behind the fault-injected endpoint), a journaling ARQ
/// receiver feeding a streaming restore on a destination thread, and the
/// collection DFS on the calling thread.
///
/// Two modes share this body:
///
/// * **Fresh** (`resume_ledger == None`): the receiver starts at chunk 0
///   and journals every CRC-verified chunk into `journal`.
/// * **Resume** (`resume_ledger == Some(..)`): the receiver re-attaches
///   from `journal` — replaying the journaled prefix through the normal
///   restore path of a *fresh* process, never splicing into a half-built
///   one — and opens with a `ResumeRequest` handshake; the sender
///   validates the journal digest against `resume_ledger` and
///   fast-forwards past the verified chunks, or rejects and ships
///   nothing so both sides unwind to a clean restart.
#[allow(clippy::too_many_arguments)]
fn resilient_attempt<P: MigratableProgram + Send>(
    mut dst_prog: P,
    proc: &mut Process,
    pending: &[PendingFrame],
    prefix: Vec<u8>,
    dst_arch: Architecture,
    link: NetworkModel,
    config: PipelineConfig,
    arq: ArqConfig,
    plan: FaultPlan,
    journal: Arc<Mutex<RestoreJournal>>,
    resume_ledger: Option<Vec<ChunkRecord>>,
    encode_lat: &Arc<Histogram>,
    decode_lat: &Arc<Histogram>,
    tracks: AttemptTracks,
) -> Result<AttemptOutcome, MigError> {
    let img_id = image_id(&prefix);
    let (src_end, dst_end) = channel_pair(link);
    let endpoint = FaultyEndpoint::new(src_end, plan).with_flight(tracks.fault);
    let resuming = resume_ledger.is_some();
    let (rx, replay) = if resuming {
        let guard = journal.lock().unwrap_or_else(|p| p.into_inner());
        let rx =
            ReliableChunkReceiver::new_resuming(dst_end, arq, &guard).map_err(MigError::from)?;
        (rx, guard.payloads().to_vec())
    } else {
        (ReliableChunkReceiver::new(dst_end, arq), Vec::new())
    };
    let mut rx = rx
        .with_flight(tracks.arq_rx)
        .with_journal(Arc::clone(&journal))
        .with_crash_at(plan.dst_crash_at);
    let rx_counters = rx.counters();
    let (chunk_tx, chunk_rx) = std::sync::mpsc::channel::<Vec<u8>>();
    let src_crashed = Arc::new(AtomicBool::new(false));
    let arq_tx_track = tracks.arq_tx;
    let collect_track = tracks.collect;
    let restore_track = tracks.restore;

    std::thread::scope(|s| -> Result<AttemptOutcome, MigError> {
        // Wire stage: optionally the resume handshake, then pace and push
        // each chunk through the ARQ sender. Stats survive failure.
        let wire_src_crashed = Arc::clone(&src_crashed);
        let wire = s.spawn(move || {
            let mut tx = ReliableChunkSender::new(endpoint, arq)
                .with_codec(config.codec)
                .with_flight(arq_tx_track);
            let mut err = None;
            let mut rejected = false;
            let mut skip = 0u32;
            let mut bytes_saved_wire = 0u64;
            if let Some(ledger) = &resume_ledger {
                match tx.accept_resume(img_id, ledger) {
                    Ok(ResumeDecision::Accepted {
                        next,
                        bytes_saved_wire: saved,
                        ..
                    }) => {
                        skip = next;
                        bytes_saved_wire = saved;
                    }
                    Ok(ResumeDecision::Rejected(_)) => rejected = true,
                    Err(e) => err = Some(e),
                }
            }
            if err.is_none() && !rejected {
                let mut idx = 0u32;
                while let Ok(chunk) = chunk_rx.recv() {
                    let i = idx;
                    idx += 1;
                    if i < skip {
                        // Already CRC-verified and journaled on the
                        // destination; the handshake promised not to
                        // re-send it.
                        continue;
                    }
                    if config.pace {
                        let d = link.tx_time(chunk.len() as u64).mul_f64(config.pace_scale);
                        if !d.is_zero() {
                            std::thread::sleep(d);
                        }
                    }
                    if let Err(e) = tx.send(&chunk) {
                        err = Some(e);
                        break;
                    }
                }
            }
            let mut frames = tx.chunks_sent();
            // A crashed source never sends its terminator — and a
            // rejected handshake ships nothing at all.
            if err.is_none() && !rejected && !wire_src_crashed.load(Ordering::SeqCst) {
                match tx.finish() {
                    Ok(n) => frames = n,
                    Err(e) => err = Some(e),
                }
            }
            let stats = tx.stats();
            let records = tx.records().to_vec();
            let endpoint = tx.into_link();
            let faults = endpoint.stats();
            let transfer = endpoint.channel().stats().snapshot();
            // Dropping the endpoint here severs the link and unblocks a
            // stalled destination with `Disconnected`.
            (
                err,
                frames,
                stats,
                records,
                faults,
                transfer,
                rejected,
                bytes_saved_wire,
            )
        });

        // Destination stage: identical to the pipelined path but fed by
        // the ARQ receiver — behind the journal replay when resuming.
        let dst_decode_lat = Arc::clone(decode_lat);
        let dst = s.spawn(move || -> Result<DstOutcome, MigError> {
            let mut replay = replay;
            let first = if replay.is_empty() {
                rx.recv_chunk()
                    .map_err(MigError::from)?
                    .ok_or_else(|| MigError::Protocol("empty migration stream".into()))?
            } else {
                replay.remove(0)
            };
            let (header, exec_bytes, leftover) = unframe_image(&first)?;
            if header.program != dst_prog.name() {
                return Err(MigError::Protocol(format!(
                    "image is for program '{}', not '{}'",
                    header.program,
                    dst_prog.name()
                )));
            }
            let exec = ExecutionState::decode(exec_bytes)?;
            let mut proc = Process::new(dst_prog.name(), dst_arch);
            proc.space.reserve_heap_bytes(header.registered_bytes);
            dst_prog.setup(&mut proc)?;
            proc.msrlt.reset_stats();
            let live = Box::new(ReliableNetChunkSource {
                rx,
                decode_lat: dst_decode_lat,
                last_return: None,
            });
            let source: Box<dyn ChunkSource + Send> = if replay.is_empty() {
                live
            } else {
                Box::new(ReplaySource::new(replay, live))
            };
            let chunks = ChunkPayload::with_initial(source, leftover.to_vec());
            let mut ctx = MigCtx::new_resume_streaming(&mut proc, exec, chunks);
            ctx.set_flight(restore_track);
            match dst_prog.run(&mut ctx)? {
                Flow::Done => {}
                Flow::Migrate => {
                    return Err(MigError::Protocol("resumed program migrated again".into()))
                }
            }
            let (restore_stats, restore_time) = ctx.restore_totals().ok_or_else(|| {
                MigError::Protocol("program finished without restoring all frames".into())
            })?;
            let restore_stall = ctx.restore_stall();
            let done_at = ctx.restore_completed_at();
            let results = dst_prog.results(&mut proc)?;
            Ok(DstOutcome {
                results,
                restore_stats,
                restore_time,
                restore_stall,
                msrlt: proc.msrlt.stats(),
                done_at,
            })
        });

        // Source stage (this thread): prefix, then the collection DFS —
        // with the injected source crash counted in flushed chunks (the
        // prefix is flush 0).
        let mut collect_time = Duration::ZERO;
        let src_crash_at = plan.src_crash_at;
        let collect_res = if src_crash_at == Some(0) {
            src_crashed.store(true, Ordering::SeqCst);
            Err(MigError::from(CoreError::Source(
                "source crashed mid-collect".into(),
            )))
        } else if chunk_tx.send(prefix).is_err() {
            Err(MigError::from(CoreError::Source(
                "chunk sink disconnected".into(),
            )))
        } else {
            let enc = Arc::clone(encode_lat);
            let crash_flag = &src_crashed;
            let mut flushed = 0u32;
            let t_collect = Instant::now();
            let mut last_flush = Instant::now();
            let r = collect_pending_streamed_flight(
                proc,
                pending,
                config.chunk_bytes,
                &Tracer::disabled(),
                Box::new(|c| {
                    flushed += 1;
                    if src_crash_at == Some(flushed) {
                        crash_flag.store(true, Ordering::SeqCst);
                        return Err(CoreError::Source("source crashed mid-collect".into()));
                    }
                    enc.observe(last_flush.elapsed().as_nanos() as u64);
                    last_flush = Instant::now();
                    chunk_tx
                        .send(c)
                        .map_err(|_| CoreError::Source("chunk sink disconnected".into()))
                }),
                Some(collect_track),
            );
            collect_time = t_collect.elapsed();
            r
        };
        drop(chunk_tx);

        // Join every worker on every path; no exit leaks a thread.
        let dst_res = dst
            .join()
            .map_err(|_| MigError::Protocol("destination thread panicked".into()))?;
        let (wire_err, wire_frames, sender_stats, records, fault_stats, transfer, rejected, saved) =
            wire.join()
                .map_err(|_| MigError::Protocol("wire thread panicked".into()))?;

        // Triage mirrors the pipelined path: collect (unless the sink
        // merely vanished) > destination > wire.
        let sink_gone = matches!(
            &collect_res,
            Err(MigError::Core(m)) if m.contains("chunk sink disconnected")
        );
        let error = match &collect_res {
            Err(e) if !sink_gone => Some(e.clone()),
            _ => match (&dst_res, &wire_err) {
                // Exhausted retries are the root cause even though the
                // destination also observes the link going dead.
                (_, Some(e @ NetError::RetriesExhausted { .. })) => Some(MigError::from(e.clone())),
                (Err(e), _) => Some(e.clone()),
                (Ok(_), Some(e)) => Some(MigError::from(e.clone())),
                (Ok(_), None) => None,
            },
        };
        Ok(AttemptOutcome {
            collect_time,
            collect_stats: collect_res.ok().map(|(_, s)| s),
            wire_frames,
            sender_stats,
            fault_stats,
            transfer,
            receiver: rx_counters.snapshot(),
            records,
            bytes_saved_wire: saved,
            dst: dst_res.ok(),
            src_crashed: src_crashed.load(Ordering::SeqCst),
            resume_rejected: rejected,
            error,
        })
    })
}

/// [`run_migrating_pipelined`] over a lossy link: chunks carry CRC-32,
/// an ack/nack protocol retransmits damaged or dropped frames under
/// `policy`, and — when the stream cannot be repaired — the partial
/// destination is discarded and the program resumes **on the source**
/// from its annotation poll point, which collection never mutated.
///
/// `plan` drives the deterministic fault injector; pass
/// [`FaultPlan::none`] for a clean (but still CRC- and ack-protected)
/// run. The report's [`RecoveryStats`] group records what the machinery
/// did; all of its fields are reproducible from the plan's seed.
#[allow(clippy::too_many_arguments)]
pub fn run_migrating_resilient<P: MigratableProgram + Send>(
    make: impl Fn() -> P,
    src_arch: Architecture,
    dst_arch: Architecture,
    link: NetworkModel,
    trigger: Trigger,
    config: PipelineConfig,
    plan: FaultPlan,
    policy: RecoveryPolicy,
) -> Result<MigrationRun, MigError> {
    let recorder = FlightRecorder::new();
    run_migrating_resilient_recorded(
        make, src_arch, dst_arch, link, trigger, config, plan, policy, &recorder,
    )
    .inspect_err(|_| persist_flight_dump(&recorder.dump()))
}

/// [`run_migrating_resilient`] with a caller-supplied [`FlightRecorder`].
///
/// Every recovery component logs to its own track (`arq.tx`, `arq.rx`,
/// `fault`, `collect`, `restore`, `driver`), and when the attempt dies
/// the driver notes the failure and — on a source-resume fallback —
/// attaches the full [`FlightDump`] to the report, so the failing seed
/// itself names the exact chunk, attempt, and phase.
#[allow(clippy::too_many_arguments)]
pub fn run_migrating_resilient_recorded<P: MigratableProgram + Send>(
    make: impl Fn() -> P,
    src_arch: Architecture,
    dst_arch: Architecture,
    link: NetworkModel,
    trigger: Trigger,
    config: PipelineConfig,
    plan: FaultPlan,
    policy: RecoveryPolicy,
    recorder: &FlightRecorder,
) -> Result<MigrationRun, MigError> {
    let driver_track = recorder.track("driver");
    let collect_track = recorder.track("collect");
    let arq_tx_track = recorder.track("arq.tx");
    let arq_rx_track = recorder.track("arq.rx");
    let fault_track = recorder.track("fault");
    let restore_track = recorder.track("restore");
    let encode_lat = Arc::new(Histogram::new());
    let decode_lat = Arc::new(Histogram::new());

    // --- source side: run to the migration point ---
    let mut src_prog = make();
    let mut src = Process::new(src_prog.name(), src_arch.clone());
    src.set_trigger(trigger);
    src_prog.setup(&mut src)?;
    let (proc, pending) = run_to_parts(&mut src_prog, &mut src)?;
    let registry_audit = require_clean_registry(proc)?;
    proc.msrlt.reset_stats();

    let header = image_header(proc);
    let exec = pending_exec_state(proc, &pending);
    let chain_depth = exec.depth();
    let prefix = frame_image_prefix(&header, &exec.encode());
    let prefix_len = prefix.len() as u64;
    driver_track.event(
        "phase.collect",
        &[
            ("prefix_bytes", prefix_len),
            ("chain_depth", chain_depth as u64),
        ],
    );

    let arq = ArqConfig {
        window: 32,
        max_retries: policy.max_retries,
        base_backoff: policy.backoff,
    };
    let journal = Arc::new(Mutex::new(RestoreJournal::new(image_id(&prefix))));

    let t_start = Instant::now();
    // --- rung 1: ARQ retransmission alone ---
    let mut attempt = resilient_attempt(
        make(),
        proc,
        &pending,
        prefix.clone(),
        dst_arch.clone(),
        link,
        config,
        arq,
        plan,
        Arc::clone(&journal),
        None,
        &encode_lat,
        &decode_lat,
        AttemptTracks {
            collect: collect_track,
            arq_tx: arq_tx_track,
            arq_rx: arq_rx_track,
            fault: fault_track,
            restore: restore_track,
        },
    )?;

    let mut recovery_base = RecoveryStats::from_parts(
        attempt.sender_stats,
        attempt.receiver,
        attempt.fault_stats,
        false,
    );
    let journal_chunks = journal
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .next_chunk() as u64;
    let mut resume_stats = ResumeStats {
        rung: 1,
        journal_chunks,
        ..ResumeStats::default()
    };

    if attempt.error.is_some() {
        // Note the failure on the driver track; the dump (frozen later,
        // after the ladder has run) is complete and — per-track —
        // deterministic for a given fault-plan seed.
        let note = attempt
            .error
            .as_ref()
            .map(|e| e.to_string())
            .unwrap_or_default();
        driver_track.event_note("attempt.failed", &[], &note);

        // --- rung 2: resume from the destination's chunk journal ---
        // The journal is round-tripped through its durable encoding: a
        // recreated destination only has bytes on disk, and a journal
        // that fails its own CRC is treated as absent.
        let mut rung2_journal = None;
        if !policy.resume {
            resume_stats.skip = Some(Rung2Skip::PolicyDisabled);
        } else if attempt.src_crashed {
            // Nothing left to send: the resume handshake needs a live
            // source holding the ledger.
            resume_stats.skip = Some(Rung2Skip::SourceCrashed);
        } else {
            let encoded = journal.lock().unwrap_or_else(|p| p.into_inner()).encode();
            match RestoreJournal::decode(&encoded) {
                Ok(mut j) if j.next_chunk() > 0 => {
                    if plan.tamper_journal {
                        j.tamper_record(0);
                    }
                    rung2_journal = Some(j);
                }
                _ => resume_stats.skip = Some(Rung2Skip::NoJournal),
            }
        }
        if let Some(note) = &resume_stats.skip {
            driver_track.event_note("resume.skipped", &[], &note.to_string());
        }

        if let Some(j) = rung2_journal {
            resume_stats.rung2_attempted = true;
            let next = j.next_chunk();
            driver_track.event("resume.attempt", &[("next_chunk", next as u64)]);
            let resume_journal = Arc::new(Mutex::new(j));
            let retry = resilient_attempt(
                make(),
                proc,
                &pending,
                prefix.clone(),
                dst_arch.clone(),
                link,
                config,
                arq,
                plan.resume_plan(),
                Arc::clone(&resume_journal),
                Some(attempt.records.clone()),
                &encode_lat,
                &decode_lat,
                AttemptTracks {
                    collect: recorder.track("collect.resume"),
                    arq_tx: recorder.track("arq.tx.resume"),
                    arq_rx: recorder.track("arq.rx.resume"),
                    fault: recorder.track("fault.resume"),
                    restore: recorder.track("restore.resume"),
                },
            )?;
            recovery_base.merge_from(&RecoveryStats::from_parts(
                retry.sender_stats,
                retry.receiver,
                retry.fault_stats,
                false,
            ));
            if retry.resume_rejected {
                // The sender refused to splice onto an unverifiable
                // base; both sides rolled back cleanly. Rung 3 restarts
                // from scratch.
                resume_stats.skip = Some(Rung2Skip::DigestMismatch);
                driver_track.event_note(
                    "resume.rejected",
                    &[],
                    "journal digest mismatch: rolled back to a clean restart",
                );
            } else if let Some(e) = &retry.error {
                resume_stats.skip = Some(Rung2Skip::TransferFailed);
                driver_track.event_note("resume.failed", &[], &e.to_string());
            } else {
                resume_stats.rung = 2;
                resume_stats.chunks_replayed = next as u64;
                resume_stats.bytes_saved = retry.bytes_saved_wire;
                resume_stats.chunks_retransferred = retry.wire_frames.saturating_sub(next) as u64;
                resume_stats.bytes_retransferred = retry.transfer.bytes_sent;
                resume_stats.wire_replays = retry.receiver.replays_below_start;
                driver_track.event(
                    "resume.completed",
                    &[
                        ("chunks_replayed", resume_stats.chunks_replayed),
                        ("bytes_saved", resume_stats.bytes_saved),
                    ],
                );
                // Adopt the rung-2 outcome, folding rung 1's wire
                // traffic and collect time in so Tx and Collect stay
                // honest about the total cost.
                let first_transfer = attempt.transfer;
                let first_collect = attempt.collect_time;
                attempt = retry;
                attempt.transfer.merge_from(&first_transfer);
                attempt.collect_time += first_collect;
            }
        }
    }

    if let Some(err) = attempt.error {
        // --- rung 3: discard the destination, resume on the source ---
        // Freeze the recorder state: every worker has joined, so the
        // dump is complete and — per-track — deterministic for a given
        // fault-plan seed.
        resume_stats.rung = 3;
        driver_track.event_note("fallback.reached", &[], &err.to_string());
        let dump = recorder.dump();
        match policy.fallback {
            FallbackPolicy::Fail => {
                persist_flight_dump(&dump);
                return Err(err);
            }
            FallbackPolicy::SourceResume => {
                persist_flight_dump(&dump);
                // The source process was never mutated by collection:
                // collect locally and resume on the source architecture,
                // discarding whatever the destination half-built.
                let t_collect = Instant::now();
                let (image, _, collect_stats) =
                    collect_framed(&mut src, &pending, &Tracer::disabled())?;
                let collect_time = t_collect.elapsed();
                let mut resumed = make();
                let (results, local, restore_stats, restore_time) =
                    resume_from_image(&mut resumed, src_arch, &image)?;
                let report = MigrationReport {
                    image_bytes: image.len() as u64,
                    memory_bytes: collect_stats.bytes_out,
                    collect_time,
                    // The aborted attempt's wire traffic is the honest Tx
                    // cost of the failure; the local resume ships nothing.
                    tx_time: attempt.transfer.modeled_tx_time(),
                    restore_time,
                    collect_stats,
                    src_msrlt: src.msrlt.stats(),
                    restore_stats,
                    dst_msrlt: local.msrlt.stats(),
                    src_polls: src.poll_count(),
                    chain_depth,
                    transfer: attempt.transfer,
                    trace: None,
                    pipeline: None,
                    recovery: Some(RecoveryStats {
                        fallback_taken: true,
                        ..recovery_base
                    }),
                    registry_audit: Some(registry_audit),
                    resume: Some(resume_stats),
                    flight: Some(dump),
                };
                return Ok(MigrationRun { report, results });
            }
        }
    }

    let dst_out = attempt
        .dst
        .ok_or_else(|| MigError::Protocol("attempt succeeded without a destination".into()))?;
    let collect_stats = attempt
        .collect_stats
        .ok_or_else(|| MigError::Protocol("attempt succeeded without collection stats".into()))?;
    let e2e_time = dst_out
        .done_at
        .map(|t| t.saturating_duration_since(t_start))
        .unwrap_or_default();
    let tx_time = attempt.transfer.modeled_tx_time();
    driver_track.event("phase.tx", &[("bytes", attempt.transfer.bytes_sent)]);
    driver_track.event(
        "phase.restore",
        &[
            ("bytes_in", dst_out.restore_stats.bytes_in),
            ("blocks", dst_out.restore_stats.blocks_restored),
        ],
    );
    let pipeline = PipelineStats {
        chunks: attempt.wire_frames as u64,
        chunk_bytes: config.chunk_bytes as u64,
        collect_time: attempt.collect_time,
        tx_time,
        restore_time: dst_out.restore_time,
        restore_stall: dst_out.restore_stall,
        e2e_time,
        encode_lat: encode_lat.snapshot(),
        decode_lat: decode_lat.snapshot(),
    };
    let report = MigrationReport {
        image_bytes: prefix_len + collect_stats.bytes_out,
        memory_bytes: collect_stats.bytes_out,
        collect_time: attempt.collect_time,
        tx_time,
        restore_time: dst_out.restore_time,
        collect_stats,
        src_msrlt: src.msrlt.stats(),
        restore_stats: dst_out.restore_stats,
        dst_msrlt: dst_out.msrlt,
        src_polls: src.poll_count(),
        chain_depth,
        transfer: attempt.transfer,
        trace: None,
        pipeline: Some(pipeline),
        recovery: Some(recovery_base),
        registry_audit: Some(registry_audit),
        resume: Some(resume_stats),
        flight: None,
    };
    Ok(report_migration(
        &Tracer::disabled(),
        report,
        dst_out.results,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::Flow;
    use hpm_arch::Architecture;
    use hpm_types::TypeId;

    /// A minimal migratable program: sum 0..limit with one local, one
    /// global accumulator, polling every iteration.
    struct Summer {
        limit: i64,
        result: Option<i64>,
    }

    const PP_LOOP: u32 = 1;

    impl Summer {
        fn new(limit: i64) -> Self {
            Summer {
                limit,
                result: None,
            }
        }

        fn int(proc: &mut Process) -> TypeId {
            proc.space.types_mut().int()
        }

        fn acc_addr(proc: &mut Process) -> u64 {
            proc.space
                .block_infos()
                .into_iter()
                .find(|b| b.name.as_deref() == Some("acc"))
                .unwrap()
                .addr
        }
    }

    impl MigratableProgram for Summer {
        fn name(&self) -> &'static str {
            "summer"
        }

        fn setup(&mut self, proc: &mut Process) -> Result<(), MigError> {
            let int = Self::int(proc);
            proc.define_global("acc", int, 1)?;
            Ok(())
        }

        fn run(&mut self, ctx: &mut MigCtx<'_>) -> Result<Flow, MigError> {
            let int = Self::int(ctx.proc());
            let acc = Self::acc_addr(ctx.proc());
            let f = ctx.enter("main")?;
            let i = ctx.local(f, "i", int, 1)?;
            let live = [i, acc];
            let mut iv;
            if ctx.resume_point() == Some(PP_LOOP) {
                ctx.restore_frame(&live)?;
                iv = ctx.proc().space.load_int(i)?;
            } else {
                iv = 0;
            }
            while iv < self.limit {
                ctx.proc().space.store_int(i, iv)?;
                if ctx.poll() {
                    ctx.save_frame(PP_LOOP, &live)?;
                    return Ok(Flow::Migrate);
                }
                let a = ctx.proc().space.load_int(acc)?;
                // acc is a C int: keep the sum 32-bit-safe.
                ctx.proc().space.store_int(acc, a + iv % 3)?;
                iv += 1;
            }
            self.result = Some(ctx.proc().space.load_int(acc)?);
            ctx.leave(f)?;
            Ok(Flow::Done)
        }

        fn results(&self, _proc: &mut Process) -> Result<Vec<(String, String)>, MigError> {
            Ok(vec![("sum".into(), self.result.unwrap_or(-1).to_string())])
        }
    }

    fn expected_sum(limit: i64) -> String {
        (0..limit).map(|i| i % 3).sum::<i64>().to_string()
    }

    #[test]
    fn straight_summer() {
        let mut p = Summer::new(100);
        let (r, _) = run_straight(&mut p, Architecture::dec5000()).unwrap();
        assert_eq!(r[0].1, expected_sum(100));
    }

    #[test]
    fn migrated_summer_every_point() {
        for at in [1u64, 37, 99] {
            let run = run_migrating(
                || Summer::new(100),
                Architecture::dec5000(),
                Architecture::sparc20(),
                hpm_net::NetworkModel::instant(),
                Trigger::AtPollCount(at),
            )
            .unwrap();
            assert_eq!(run.results[0].1, expected_sum(100), "trigger at {at}");
            assert_eq!(run.report.chain_depth, 1);
        }
    }

    #[test]
    fn pipelined_summer_matches_straight() {
        let cfg = PipelineConfig {
            chunk_bytes: 64,
            pace: false,
            pace_scale: 0.0,
            codec: WireCodec::default(),
        };
        let run = run_migrating_pipelined(
            || Summer::new(500),
            Architecture::dec5000(),
            Architecture::sparc20(),
            hpm_net::NetworkModel::ethernet_10(),
            Trigger::AtPollCount(250),
            cfg,
        )
        .unwrap();
        assert_eq!(run.results[0].1, expected_sum(500));
        let p = run.report.pipeline.expect("pipelined run carries stats");
        // Prefix + at least one payload chunk + terminator.
        assert!(p.chunks >= 3, "got {} chunks", p.chunks);
        assert_eq!(p.chunk_bytes, 64);
        assert!(run.report.image_bytes > 0);
        assert!(
            run.report.transfer.bytes_sent > run.report.memory_bytes,
            "framing overhead must be accounted"
        );
    }

    #[test]
    fn trigger_never_fires_is_an_error_for_run_migrating() {
        // Limit reached before the trigger: the driver reports it.
        let r = run_migrating(
            || Summer::new(5),
            Architecture::dec5000(),
            Architecture::sparc20(),
            hpm_net::NetworkModel::instant(),
            Trigger::AtPollCount(1000),
        );
        assert!(matches!(r, Err(MigError::Protocol(_))));
    }

    #[test]
    fn run_to_migration_freezes_state() {
        let mut p = Summer::new(100);
        let mut src =
            run_to_migration(&mut p, Architecture::dec5000(), Trigger::AtPollCount(50)).unwrap();
        assert_eq!(src.pending.len(), 1);
        assert_eq!(src.pending[0].function, "main");
        assert_eq!(src.pending[0].poll_point, PP_LOOP);
        // Collection is repeatable.
        let (p1, e1, _) = src.collect().unwrap();
        let (p2, e2, _) = src.collect().unwrap();
        assert_eq!(p1, p2);
        assert_eq!(e1, e2);
        assert_eq!(e1.frames[0].live_count, 2);
    }

    #[test]
    fn resume_from_corrupt_image_fails() {
        let mut p = Summer::new(100);
        let mut src =
            run_to_migration(&mut p, Architecture::dec5000(), Trigger::AtPollCount(50)).unwrap();
        let image = src.to_image().unwrap();
        let mut dst = Summer::new(100);
        assert!(resume_from_image(&mut dst, Architecture::sparc20(), &image[..8]).is_err());
    }

    #[test]
    fn cluster_runs_summer() {
        use crate::cluster::TwoMachineCluster;
        let cluster = TwoMachineCluster::paper_heterogeneous();
        // Large limit so the request (delivered immediately) lands while
        // the loop is still running.
        let report = cluster.run(|| Summer::new(2_000_000), 0).unwrap();
        assert_eq!(report.results[0].1, expected_sum(2_000_000));
        assert!(report.image_bytes > 0);
        assert!(report.src_polls >= 1);
    }

    fn quick_cfg() -> PipelineConfig {
        PipelineConfig {
            chunk_bytes: 64,
            pace: false,
            pace_scale: 0.0,
            codec: WireCodec::default(),
        }
    }

    fn quick_policy() -> RecoveryPolicy {
        RecoveryPolicy {
            max_retries: 6,
            backoff: Duration::from_millis(1),
            fallback: FallbackPolicy::SourceResume,
            resume: true,
        }
    }

    #[test]
    fn resilient_zero_fault_matches_pipelined() {
        let pipelined = run_migrating_pipelined(
            || Summer::new(500),
            Architecture::dec5000(),
            Architecture::sparc20(),
            hpm_net::NetworkModel::ethernet_10(),
            Trigger::AtPollCount(250),
            quick_cfg(),
        )
        .unwrap();
        let resilient = run_migrating_resilient(
            || Summer::new(500),
            Architecture::dec5000(),
            Architecture::sparc20(),
            hpm_net::NetworkModel::ethernet_10(),
            Trigger::AtPollCount(250),
            quick_cfg(),
            FaultPlan::none(),
            quick_policy(),
        )
        .unwrap();
        assert_eq!(resilient.results, pipelined.results);
        assert_eq!(resilient.report.image_bytes, pipelined.report.image_bytes);
        assert_eq!(resilient.report.memory_bytes, pipelined.report.memory_bytes);
        let r = resilient.report.recovery.expect("resilient carries stats");
        assert!(!r.fallback_taken);
        assert_eq!(r.retransmits, 0);
        assert_eq!(r.corrupt_caught, 0);
        assert_eq!(r.faults_injected, 0);
        assert!(r.acks_sent > 0, "receiver must have acknowledged");
        assert!(resilient.report.pipeline.is_some());
    }

    #[test]
    fn resilient_heals_a_faulty_link() {
        let plan = FaultPlan {
            seed: 0xFA_57_11,
            drop_per_mille: 150,
            corrupt_per_mille: 150,
            duplicate_per_mille: 150,
            reorder_per_mille: 100,
            delay_per_mille: 100,
            disconnect_at: None,
            ..FaultPlan::none()
        };
        let run = run_migrating_resilient(
            || Summer::new(500),
            Architecture::dec5000(),
            Architecture::sparc20(),
            hpm_net::NetworkModel::ethernet_10(),
            Trigger::AtPollCount(250),
            quick_cfg(),
            plan,
            quick_policy(),
        )
        .unwrap();
        assert_eq!(run.results[0].1, expected_sum(500));
        let r = run.report.recovery.unwrap();
        assert!(!r.fallback_taken, "a lossy-but-alive link must heal");
        assert!(r.faults_injected > 0, "plan injected nothing: {r:?}");
    }

    #[test]
    fn resilient_falls_back_to_source_on_a_dead_link() {
        let plan = FaultPlan {
            disconnect_at: Some(1), // everything after the prefix chunk
            ..FaultPlan::none()
        };
        // Rung 2 would heal a dead link from the journal, so disable it:
        // this test pins rung-3 (source resume) behavior.
        let policy = RecoveryPolicy {
            resume: false,
            ..quick_policy()
        };
        let run = run_migrating_resilient(
            || Summer::new(500),
            Architecture::dec5000(),
            Architecture::sparc20(),
            hpm_net::NetworkModel::ethernet_10(),
            Trigger::AtPollCount(250),
            quick_cfg(),
            plan,
            policy,
        )
        .unwrap();
        // The answer is still right — computed on the source.
        assert_eq!(run.results[0].1, expected_sum(500));
        let r = run.report.recovery.unwrap();
        assert!(r.fallback_taken);
        assert!(r.retransmits > 0, "the sender must have tried: {r:?}");
        assert!(run.report.pipeline.is_none(), "no pipeline stats survive");
        let resume = run.report.resume.unwrap();
        assert_eq!(resume.rung, 3);
        assert!(!resume.rung2_attempted);
        assert_eq!(resume.skip, Some(Rung2Skip::PolicyDisabled));
    }

    #[test]
    fn resilient_resumes_a_dead_link_from_the_journal() {
        let plan = FaultPlan {
            disconnect_at: Some(2), // the prefix and one payload chunk land
            ..FaultPlan::none()
        };
        let run = run_migrating_resilient(
            || Summer::new(500),
            Architecture::dec5000(),
            Architecture::sparc20(),
            hpm_net::NetworkModel::ethernet_10(),
            Trigger::AtPollCount(250),
            quick_cfg(),
            plan,
            quick_policy(),
        )
        .unwrap();
        // The answer is right — and it was computed on the destination,
        // resumed from the journal instead of falling back.
        assert_eq!(run.results[0].1, expected_sum(500));
        let r = run.report.recovery.unwrap();
        assert!(!r.fallback_taken, "rung 2 must heal a dead link: {r:?}");
        assert!(run.report.pipeline.is_some(), "pipeline stats survive");
        let resume = run.report.resume.unwrap();
        assert_eq!(resume.rung, 2);
        assert!(resume.rung2_attempted);
        assert_eq!(resume.skip, None);
        assert!(resume.journal_chunks > 0);
        assert_eq!(resume.chunks_replayed, resume.journal_chunks);
        assert!(resume.bytes_saved > 0, "{resume:?}");
        assert_eq!(
            resume.wire_replays, 0,
            "a correct resume re-receives nothing: {resume:?}"
        );
    }

    #[test]
    fn resilient_fail_policy_surfaces_the_transport_error() {
        let plan = FaultPlan {
            disconnect_at: Some(1),
            ..FaultPlan::none()
        };
        let policy = RecoveryPolicy {
            fallback: FallbackPolicy::Fail,
            resume: false,
            ..quick_policy()
        };
        let err = run_migrating_resilient(
            || Summer::new(500),
            Architecture::dec5000(),
            Architecture::sparc20(),
            hpm_net::NetworkModel::ethernet_10(),
            Trigger::AtPollCount(250),
            quick_cfg(),
            plan,
            policy,
        )
        .unwrap_err();
        match err {
            MigError::Net(m) => assert!(m.contains("retries exhausted"), "{m}"),
            other => panic!("expected the wire's error, got {other:?}"),
        }
    }

    #[test]
    fn resilient_recovery_stats_are_reproducible() {
        let plan = FaultPlan::from_seed(0x1CEB00DA);
        let go = || {
            run_migrating_resilient(
                || Summer::new(500),
                Architecture::dec5000(),
                Architecture::sparc20(),
                hpm_net::NetworkModel::ethernet_10(),
                Trigger::AtPollCount(250),
                quick_cfg(),
                plan,
                quick_policy(),
            )
            .unwrap()
        };
        let first = go();
        assert_eq!(first.results[0].1, expected_sum(500));
        for _ in 0..2 {
            let again = go();
            assert_eq!(again.results, first.results);
            assert_eq!(again.report.recovery, first.report.recovery);
        }
    }

    /// A program whose destination side dies as soon as it tries to
    /// resume: the chunk stream is abandoned mid-flight while the source
    /// is still collecting.
    struct PoisonedResume {
        limit: i64,
    }

    impl MigratableProgram for PoisonedResume {
        fn name(&self) -> &'static str {
            "poisoned"
        }

        fn setup(&mut self, proc: &mut Process) -> Result<(), MigError> {
            let int = proc.space.types_mut().int();
            proc.define_global("acc", int, 1)?;
            Ok(())
        }

        fn run(&mut self, ctx: &mut MigCtx<'_>) -> Result<Flow, MigError> {
            let int = ctx.proc().space.types_mut().int();
            let acc = Summer::acc_addr(ctx.proc());
            let f = ctx.enter("main")?;
            let i = ctx.local(f, "i", int, 1)?;
            let live = [i, acc];
            if ctx.resume_point().is_some() {
                return Err(MigError::Protocol("poisoned resume".into()));
            }
            let mut iv = 0;
            while iv < self.limit {
                ctx.proc().space.store_int(i, iv)?;
                if ctx.poll() {
                    ctx.save_frame(PP_LOOP, &live)?;
                    return Ok(Flow::Migrate);
                }
                iv += 1;
            }
            ctx.leave(f)?;
            Ok(Flow::Done)
        }

        fn results(&self, _proc: &mut Process) -> Result<Vec<(String, String)>, MigError> {
            Ok(vec![])
        }
    }

    /// Satellite 6: a destination that dies mid-stream must not hang the
    /// pipelined driver — all three stage threads join and the poison
    /// error surfaces.
    #[test]
    fn poisoned_chunk_does_not_hang_the_pipelined_driver() {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let r = run_migrating_pipelined(
                || PoisonedResume { limit: 50_000 },
                Architecture::dec5000(),
                Architecture::sparc20(),
                hpm_net::NetworkModel::ethernet_10(),
                Trigger::AtPollCount(25_000),
                PipelineConfig {
                    chunk_bytes: 128,
                    pace: false,
                    pace_scale: 0.0,
                    codec: WireCodec::default(),
                },
            );
            let _ = done_tx.send(r);
        });
        let r = done_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("pipelined driver hung on a poisoned destination");
        match r {
            Err(MigError::Protocol(m)) => assert!(m.contains("poisoned"), "{m}"),
            other => panic!("expected the poison to surface, got {other:?}"),
        }
    }

    /// The resilient driver holds the same no-hang property — and then
    /// salvages the run on the source.
    #[test]
    fn poisoned_chunk_does_not_hang_the_resilient_driver() {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let r = run_migrating_resilient(
                || PoisonedResume { limit: 50_000 },
                Architecture::dec5000(),
                Architecture::sparc20(),
                hpm_net::NetworkModel::ethernet_10(),
                Trigger::AtPollCount(25_000),
                PipelineConfig {
                    chunk_bytes: 128,
                    pace: false,
                    pace_scale: 0.0,
                    codec: WireCodec::default(),
                },
                FaultPlan::none(),
                quick_policy(),
            );
            let _ = done_tx.send(r);
        });
        let r = done_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("resilient driver hung on a poisoned destination");
        // SourceResume salvages the run: the poisoned program also
        // refuses to resume locally, so the fallback surfaces ITS error
        // rather than hanging or fabricating results.
        match r {
            Err(MigError::Protocol(m)) => assert!(m.contains("poisoned"), "{m}"),
            other => panic!("expected the poison to surface, got {other:?}"),
        }
    }
}
