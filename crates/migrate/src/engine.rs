//! The migration engine: one sequence — freeze at a poll-point, Collect,
//! Tx, Restore, resume (§2, Table 1) — driven by one policy value.
//!
//! [`migrate`] runs the source to its migration point, audits its
//! registry, and then either stops and copies or iterates pre-copy rounds
//! ([`crate::precopy`]); both move their bytes through the same transfer
//! attempt (the private `wire` module) under the policy's [`Transport`], resume the
//! destination through the same routine ([`crate::driver`]) and finish in
//! the same report constructor.
//!
//! | [`Transport`] | single shot | a pre-copy round's frame |
//! |---|---|---|
//! | `Whole` | image collected into one buffer, one message, resume from the buffer | one message |
//! | `Reliable` | collector → wire thread → streaming resume, overlapped, every chunk CRC- and ack-protected, with the ladder: ARQ retries → resume from the destination's journal → resume on the source | cut into chunks through the same wire thread |

use crate::ctx::{collect_onto, collect_pending_streamed, MigratableProgram};
use crate::driver::{resume, run_to_migration, CompletedRun, MigratedSource};
use crate::precopy::{self, PrecopyConfig};
use crate::process::Trigger;
use crate::report::{
    Collected, MigrationReport, MigrationRun, PipelineStats, RecoveryStats, ResumeStats, Rung2Skip,
    TransportStats,
};
use crate::wire::{attempt, lock_journal, ship_frame, Attempt, Carried, Lane, NetChunkSource};
use crate::MigError;
use hpm_arch::Architecture;
use hpm_core::{ChunkSource, CollectStats, RegistryAuditStats, ReplaySource};
use hpm_net::{ArqConfig, FaultPlan, NetworkModel, TransferSnapshot, WireCodec};
use hpm_obs::{EventLog, Level, StatGroup, Track};
use hpm_xdr::{image_id, ChunkRecord, RestoreJournal};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Tunables of a chunk-streamed transport.
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
    /// Whether the chunk stream travels stored (the default) or
    /// compressed ([`WireCodec::V3`]), in the one chunk frame.
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
    /// This configuration with compressed chunks.
    pub fn compressed(mut self) -> Self {
        self.codec = WireCodec::V3;
        self
    }
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

/// Recovery tuning for [`Transport::Reliable`].
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

/// How the bytes of a migration cross the link.
#[derive(Debug, Clone, Copy)]
pub enum Transport {
    /// The image is collected into one buffer and shipped as one message:
    /// Collect, Tx and Restore run strictly one after another, on the
    /// calling thread.
    Whole,
    /// Collection, transmission and restoration overlap: the collector
    /// flushes the DFS stream in `chunk_bytes`-sized chunks as it
    /// traverses, a wire thread paces and frames each chunk, and the
    /// destination restores frame *k* while chunk *k+1* is in flight. The
    /// image prefix travels as chunk 0, before any payload exists, so the
    /// destination re-enters the call chain while the source still
    /// collects. Chunks carry CRC-32, an ack/nack protocol retransmits
    /// damaged or dropped frames under the [`RecoveryPolicy`], and a
    /// stream that cannot be repaired goes down the degradation ladder.
    /// The [`FaultPlan`] drives the deterministic fault injector;
    /// [`FaultPlan::none`] is a clean (but still CRC- and ack-protected)
    /// run.
    Reliable(PipelineConfig, FaultPlan, RecoveryPolicy),
}

/// The policy of one migration: everything [`migrate`] is told beyond
/// *what* runs *where*.
#[derive(Clone, Copy)]
pub struct Migration<'a> {
    /// How bytes cross the link.
    pub transport: Transport,
    /// Iterate pre-copy rounds before the freeze instead of stopping and
    /// copying; every round's frame crosses under `transport`.
    pub precopy: Option<PrecopyConfig>,
    /// The migration's one event log. Each component writes its own
    /// single-writer track — `driver` (the engine's thread: the phase
    /// events and, under [`Transport::Whole`], everything else too),
    /// `collect`, `restore`, `arq.tx` / `arq.rx` / `fault`, with a
    /// `.resume` suffix on a rung-2 attempt — at the log's
    /// [`Level`]: protocol events, plus at [`Level::Detail`] the spans
    /// `collect` ∋ `msrlt.search`, `tx` ∋ `net.send` and the per-block
    /// events. The caller can dump it even when the run fails, and the
    /// report carries its dump with every counter group attached. `None`
    /// records protocol events into a log of the engine's own, which
    /// reaches the report only on a source-resume fallback.
    pub log: Option<&'a EventLog>,
}

impl Migration<'static> {
    /// Stop-and-copy over `transport`, recording privately.
    pub fn new(transport: Transport) -> Self {
        Migration {
            transport,
            precopy: None,
            log: None,
        }
    }
}

/// Best-effort persistence of a log dump for CI forensics: when
/// `HPM_FLIGHT_DUMP` names a path, the dump's JSONL is written there.
/// Failures are swallowed — the dump is diagnostic, never load-bearing.
fn persist_flight_dump(log: &EventLog) {
    if let Ok(path) = std::env::var("HPM_FLIGHT_DUMP") {
        if !path.is_empty() {
            let _ = std::fs::write(path, log.dump().to_jsonl());
        }
    }
}

/// Full migration experiment: run on `src_arch`, migrate at `trigger`
/// over `link` as `policy` says, resume on `dst_arch`, return results +
/// report.
///
/// `make` constructs a fresh program value for each side (the two sides
/// are separate processes running the same executable). A run that fails
/// writes its log dump where `HPM_FLIGHT_DUMP` points.
pub fn migrate<P: MigratableProgram + Send>(
    make: impl Fn() -> P,
    src_arch: Architecture,
    dst_arch: Architecture,
    link: NetworkModel,
    trigger: Trigger,
    policy: &Migration<'_>,
) -> Result<MigrationRun, MigError> {
    engage(
        make,
        src_arch,
        dst_arch,
        link,
        trigger,
        policy,
        |engine, src, prefix, config, plan, policy| {
            engine.stream(src, prefix, config, plan, policy)
        },
    )
}

/// [`migrate`] with the paper's own policy: stop, copy the whole image
/// as one message, resume — all on the calling thread, so the program
/// need not be `Send`.
pub fn run_migrating<P: MigratableProgram>(
    make: impl Fn() -> P,
    src_arch: Architecture,
    dst_arch: Architecture,
    link: NetworkModel,
    trigger: Trigger,
) -> Result<MigrationRun, MigError> {
    let policy = Migration::new(Transport::Whole);
    engage(
        make,
        src_arch,
        dst_arch,
        link,
        trigger,
        &policy,
        |_, _, _, _, _, _| unreachable!("`Transport::Whole` has no streamed leg"),
    )
}

/// [`migrate`] over [`Transport::Reliable`].
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
    let policy = Migration::new(Transport::Reliable(config, plan, policy));
    migrate(make, src_arch, dst_arch, link, trigger, &policy)
}

/// The streamed leg of a stop-and-copy migration ([`Engine::stream`]). It
/// is the only code that hands a program value to another thread, so it
/// is passed in by the entry point that can promise `P: Send`.
type StreamLeg<F> = for<'e> fn(
    &Engine<'e, F>,
    &mut MigratedSource,
    &[u8],
    PipelineConfig,
    FaultPlan,
    RecoveryPolicy,
) -> Result<Delivered, MigError>;

/// Set up the engine for one migration and run it.
fn engage<P: MigratableProgram, F: Fn() -> P>(
    make: F,
    src_arch: Architecture,
    dst_arch: Architecture,
    link: NetworkModel,
    trigger: Trigger,
    policy: &Migration<'_>,
    stream: StreamLeg<F>,
) -> Result<MigrationRun, MigError> {
    let own;
    let log = match policy.log {
        Some(log) => log,
        None => {
            own = EventLog::new(Level::Protocol);
            &own
        }
    };
    let engine = Engine {
        make: &make,
        src_arch,
        dst_arch,
        link,
        policy,
        log,
        driver: log.track("driver"),
        stream,
    };
    engine
        .run(trigger)
        .inspect_err(|_| persist_flight_dump(log))
}

/// Everything fixed for the duration of one [`migrate`] call.
pub(crate) struct Engine<'a, F> {
    pub make: &'a F,
    pub src_arch: Architecture,
    pub dst_arch: Architecture,
    pub link: NetworkModel,
    pub policy: &'a Migration<'a>,
    log: &'a EventLog,
    /// The engine thread's own track.
    pub driver: Track,
    stream: StreamLeg<F>,
}

/// What the transport leg of a stop-and-copy migration hands the report.
struct Delivered {
    collected: Collected,
    transfer: TransferSnapshot,
    /// The run that produced the answers.
    dst: CompletedRun,
    transport: TransportStats,
}

type StreamAttempt = Attempt<CollectStats, CompletedRun>;

impl<P: MigratableProgram, F: Fn() -> P> Engine<'_, F> {
    fn run(&self, trigger: Trigger) -> Result<MigrationRun, MigError> {
        let mut src = run_to_migration(&mut (self.make)(), self.src_arch.clone(), trigger)?;
        let audit = src.require_clean_registry()?;
        src.proc.msrlt.reset_stats();
        match self.policy.precopy {
            Some(cfg) => precopy::rounds(self, src, audit, cfg),
            None => self.stop_and_copy(src, audit),
        }
    }

    fn stop_and_copy(
        &self,
        mut src: MigratedSource,
        audit: RegistryAuditStats,
    ) -> Result<MigrationRun, MigError> {
        let track = &self.driver;
        let (prefix, chain_depth) = self.begin_collect(&src);
        let delivered = match self.policy.transport {
            Transport::Whole => {
                track.begin("collect", &[]);
                let (image, collected) = collect_whole(&mut src, &prefix, track)?;
                track.end("collect", &[("image_bytes", image.len() as u64)]);
                track.begin("tx", &[]);
                let mut carried = Carried::default();
                let image = ship_frame(image, self.link, None, track, &mut carried)?;
                let modeled_ns = carried.transfer.modeled_tx_nanos;
                track.end("tx", &[("modeled_ns", modeled_ns)]);
                let dst = self.resume_on(&self.dst_arch, &image)?;
                self.end_phases(&carried.transfer, &dst);
                Delivered {
                    collected,
                    transfer: carried.transfer,
                    dst,
                    transport: TransportStats::Whole,
                }
            }
            Transport::Reliable(config, plan, policy) => {
                (self.stream)(self, &mut src, &prefix, config, plan, policy)?
            }
        };
        let report = MigrationReport::new(
            &src.proc,
            chain_depth,
            audit,
            delivered.collected,
            delivered.transfer,
            &delivered.dst,
            delivered.transport,
            None,
        );
        Ok(self.finish(report, delivered.dst.results))
    }

    /// Wrap up the run, attaching the log's dump to the report when the
    /// caller supplied the log (see [`MigrationRun::finish`]).
    pub(crate) fn finish(
        &self,
        report: MigrationReport,
        results: Vec<(String, String)>,
    ) -> MigrationRun {
        MigrationRun::finish(self.log, self.policy.log.is_some(), report, results)
    }

    /// The image prefix and call-chain depth of a freshly frozen source,
    /// noted on the driver track: the one place `phase.collect` is emitted.
    pub(crate) fn begin_collect(&self, src: &MigratedSource) -> (Vec<u8>, usize) {
        let (prefix, chain_depth) = src.image_prefix();
        self.driver.event(
            "phase.collect",
            &[
                ("prefix_bytes", prefix.len() as u64),
                ("chain_depth", chain_depth as u64),
            ],
        );
        (prefix, chain_depth)
    }

    /// The closing phase events of a migration that reached its
    /// destination (a source-resume fallback emits none).
    pub(crate) fn end_phases(&self, transfer: &TransferSnapshot, dst: &CompletedRun) {
        self.driver
            .event("phase.tx", &[("bytes", transfer.bytes_sent)]);
        self.driver.event(
            "phase.restore",
            &[
                ("bytes_in", dst.restore.stats.bytes_in),
                ("blocks", dst.restore.stats.blocks_restored),
            ],
        );
    }

    /// Resume a fresh program value from a complete image on `arch`,
    /// on the engine's own thread and track.
    pub(crate) fn resume_on(
        &self,
        arch: &Architecture,
        image: &[u8],
    ) -> Result<CompletedRun, MigError> {
        let mut program = (self.make)();
        resume(&mut program, arch.clone(), image, None, None, &self.driver)?.completed()
    }

    /// The lane one attempt runs in under [`Transport::Reliable`].
    fn lane(
        &self,
        config: PipelineConfig,
        plan: FaultPlan,
        policy: RecoveryPolicy,
        journal: Option<Arc<Mutex<RestoreJournal>>>,
        resume: Option<(u64, Vec<ChunkRecord>)>,
    ) -> Lane {
        // Tracks are single-writer, so a rung-2 resume gets its own.
        let resuming = resume.is_some();
        let (tx, rx, fault) = match resuming {
            false => ("arq.tx", "arq.rx", "fault"),
            true => ("arq.tx.resume", "arq.rx.resume", "fault.resume"),
        };
        Lane {
            config,
            arq: ArqConfig {
                window: 32,
                max_retries: policy.max_retries,
                base_backoff: policy.backoff,
            },
            plan: if resuming { plan.resume_plan() } else { plan },
            tx_track: self.log.track(tx),
            rx_track: self.log.track(rx),
            fault_track: self.log.track(fault),
            journal,
            resume,
        }
    }

    /// The lane a finished frame (a pre-copy round's) crosses in; `None`
    /// under [`Transport::Whole`], where it is a single message.
    pub(crate) fn frame_lane(&self) -> Option<Lane> {
        match self.policy.transport {
            Transport::Whole => None,
            Transport::Reliable(config, plan, policy) => {
                Some(self.lane(config, plan, policy, None, None))
            }
        }
    }

    /// The report's transport statistics for the policy's transport.
    pub(crate) fn transport_stats(
        &self,
        pipeline: Option<PipelineStats>,
        recovery: RecoveryStats,
        resume: ResumeStats,
    ) -> TransportStats {
        match self.policy.transport {
            Transport::Whole => TransportStats::Whole,
            Transport::Reliable(..) => TransportStats::Reliable {
                pipeline,
                recovery,
                resume,
            },
        }
    }
}

impl<P: MigratableProgram + Send, F: Fn() -> P> Engine<'_, F> {
    /// One streamed attempt: the collection DFS as the producer (image
    /// prefix first), a streaming resume as the consumer — behind the
    /// journal replay when the lane resumes, through the normal restore
    /// path of a *fresh* process, never splicing into a half-built one.
    fn stream_attempt(
        &self,
        src: &mut MigratedSource,
        prefix: &[u8],
        lane: Lane,
    ) -> Result<StreamAttempt, MigError> {
        let (collect_track, restore_track) = match lane.resume {
            None => ("collect", "restore"),
            Some(_) => ("collect.resume", "restore.resume"),
        };
        let collect_track = self.log.track(collect_track);
        let restore_track = self.log.track(restore_track);
        let chunk_bytes = lane.config.chunk_bytes;
        let mut dst_prog = (self.make)();
        let dst_arch = self.dst_arch.clone();
        attempt(
            self.link,
            lane,
            |sink| {
                sink(prefix.to_vec())?;
                collect_pending_streamed(
                    &mut src.proc,
                    &src.pending,
                    chunk_bytes,
                    &collect_track,
                    Box::new(sink),
                )
            },
            move |mut rx, mut replay| {
                let first = match replay.is_empty() {
                    false => replay.remove(0),
                    true => rx
                        .recv_chunk()?
                        .ok_or_else(|| MigError::Protocol("empty migration stream".into()))?,
                };
                let live = Box::new(NetChunkSource(rx));
                let more: Box<dyn ChunkSource + Send> = match replay.is_empty() {
                    true => live,
                    false => Box::new(ReplaySource::new(replay, live)),
                };
                resume(
                    &mut dst_prog,
                    dst_arch,
                    &first,
                    Some(more),
                    None,
                    &restore_track,
                )?
                .completed()
            },
        )
    }

    /// The streamed leg of a stop-and-copy migration, with the
    /// degradation ladder as a loop around [`Engine::stream_attempt`]:
    /// rung 1 is a fresh stream healed by ARQ retries alone; when it dies
    /// and the policy allows, rung 2 resumes it from the destination's
    /// chunk journal; when that cannot complete either, rung 3 applies
    /// the [`FallbackPolicy`].
    fn stream(
        &self,
        src: &mut MigratedSource,
        prefix: &[u8],
        config: PipelineConfig,
        plan: FaultPlan,
        policy: RecoveryPolicy,
    ) -> Result<Delivered, MigError> {
        // The destination's chunk journal exists for rung 2 to read; a
        // policy without rung 2 keeps none, so the receiver holds no
        // second copy of the image.
        let journal = policy
            .resume
            .then(|| Arc::new(Mutex::new(RestoreJournal::new(image_id(prefix)))));
        let mut recovery = RecoveryStats::default();
        let mut ladder = ResumeStats {
            rung: 1,
            ..ResumeStats::default()
        };
        // Rung 1's outcome once it has failed, and rung 2's input once
        // the ladder has decided to climb down to it.
        let mut failed: Option<StreamAttempt> = None;
        let mut resume_from: Option<(RestoreJournal, Vec<ChunkRecord>)> = None;
        let t_start = Instant::now();
        let delivered = loop {
            let replayed = resume_from.as_ref().map_or(0, |(j, _)| j.next_chunk());
            let (lane_journal, resume) = match resume_from.take() {
                Some((j, ledger)) => (
                    Some(Arc::new(Mutex::new(j))),
                    Some((image_id(prefix), ledger)),
                ),
                None => (journal.clone(), None),
            };
            let lane = self.lane(config, plan, policy, lane_journal, resume);
            let mut out = self.stream_attempt(src, prefix, lane)?;
            recovery.merge_from(&out.recovery);
            if let (None, Some(journal)) = (&failed, &journal) {
                ladder.journal_chunks = lock_journal(journal).next_chunk() as u64;
            }
            match (out.error.clone(), failed.take()) {
                (None, None) => break Some(out),
                (None, Some(first)) => {
                    ladder.rung = 2;
                    ladder.chunks_replayed = replayed as u64;
                    ladder.bytes_saved = out.wire.bytes_saved_wire;
                    ladder.chunks_retransferred = out.wire.frames.saturating_sub(replayed) as u64;
                    ladder.bytes_retransferred = out.wire.transfer.bytes_sent;
                    ladder.wire_replays = out.wire_replays;
                    self.driver.event(
                        "resume.completed",
                        &[
                            ("chunks_replayed", ladder.chunks_replayed),
                            ("bytes_saved", ladder.bytes_saved),
                        ],
                    );
                    // Fold rung 1's wire traffic and collect time in so
                    // Tx and Collect stay honest about the total cost.
                    out.wire.transfer.merge_from(&first.wire.transfer);
                    out.produce_time += first.produce_time;
                    break Some(out);
                }
                (Some(err), None) => {
                    // Every worker has joined, so the log — dumped once the
                    // ladder has run — is complete and, per track,
                    // deterministic for a fault-plan seed.
                    self.driver
                        .event_note("attempt.failed", &[], &err.to_string());
                    match rung2_journal(journal.as_deref(), plan, out.src_crashed) {
                        Ok(j) => {
                            ladder.rung2_attempted = true;
                            let next = j.next_chunk() as u64;
                            self.driver.event("resume.attempt", &[("next_chunk", next)]);
                            resume_from = Some((j, std::mem::take(&mut out.wire.records)));
                            failed = Some(out);
                        }
                        Err(skip) => {
                            ladder.skip = Some(skip);
                            self.driver
                                .event_note("resume.skipped", &[], &skip.to_string());
                            failed = Some(out);
                            break None;
                        }
                    }
                }
                (Some(err), Some(first)) => {
                    if out.wire.rejected {
                        // The sender refused to splice onto an
                        // unverifiable base; both sides rolled back
                        // cleanly. Rung 3 restarts from scratch.
                        ladder.skip = Some(Rung2Skip::DigestMismatch);
                        self.driver.event_note(
                            "resume.rejected",
                            &[],
                            "journal digest mismatch: rolled back to a clean restart",
                        );
                    } else {
                        ladder.skip = Some(Rung2Skip::TransferFailed);
                        self.driver
                            .event_note("resume.failed", &[], &err.to_string());
                    }
                    failed = Some(first);
                    break None;
                }
            }
        };
        let prefix_bytes = prefix.len() as u64;
        let Some(out) = delivered else {
            let first = failed.expect("the ladder only gives up after a failed attempt");
            return self.fall_back(src, prefix, first, policy.fallback, recovery, ladder);
        };
        let dst = out
            .consumed
            .ok_or_else(|| MigError::Protocol("attempt succeeded without a destination".into()))?;
        let stats = out.produced.ok_or_else(|| {
            MigError::Protocol("attempt succeeded without collection stats".into())
        })?;
        let pipeline = PipelineStats {
            chunks: out.wire.frames as u64,
            chunk_bytes: config.chunk_bytes as u64,
            collect_time: out.produce_time,
            tx_time: out.wire.transfer.modeled_tx_time(),
            restore_time: dst.restore.time,
            restore_stall: dst.restore.stall,
            e2e_time: dst
                .restore
                .done_at
                .map(|t| t.saturating_duration_since(t_start))
                .unwrap_or_default(),
        };
        self.end_phases(&out.wire.transfer, &dst);
        Ok(Delivered {
            collected: Collected {
                time: out.produce_time,
                stats,
                prefix_bytes,
            },
            transfer: out.wire.transfer,
            dst,
            transport: self.transport_stats(Some(pipeline), recovery, ladder),
        })
    }

    /// Rung 3: apply the [`FallbackPolicy`] to a stream nothing repaired.
    fn fall_back(
        &self,
        src: &mut MigratedSource,
        prefix: &[u8],
        first: StreamAttempt,
        fallback: FallbackPolicy,
        mut recovery: RecoveryStats,
        mut ladder: ResumeStats,
    ) -> Result<Delivered, MigError> {
        let err = first
            .error
            .expect("the ladder only gives up after a failed attempt");
        ladder.rung = 3;
        self.driver
            .event_note("fallback.reached", &[], &err.to_string());
        if fallback == FallbackPolicy::Fail {
            return Err(err);
        }
        persist_flight_dump(self.log);
        // The source process was never mutated by collection: collect
        // locally and resume on the source architecture, discarding
        // whatever the destination half-built.
        let (image, collected) = collect_whole(src, prefix, &self.driver)?;
        recovery.fallback_taken = true;
        Ok(Delivered {
            collected,
            // The aborted attempt's wire traffic is the honest Tx cost of
            // the failure; the local resume ships nothing.
            transfer: first.wire.transfer,
            dst: self.resume_on(&self.src_arch, &image)?,
            transport: self.transport_stats(None, recovery, ladder),
        })
    }
}

/// One whole-buffer collection of a frozen source into a framed image:
/// the collector's encoder starts from `prefix`, so the payload is never
/// copied into place behind its header.
pub(crate) fn collect_whole(
    src: &mut MigratedSource,
    prefix: &[u8],
    track: &Track,
) -> Result<(Vec<u8>, Collected), MigError> {
    let t0 = Instant::now();
    let (image, stats) = collect_onto(&mut src.proc, &src.pending, track, prefix)?;
    let collected = Collected {
        time: t0.elapsed(),
        stats,
        prefix_bytes: prefix.len() as u64,
    };
    Ok((image, collected))
}

/// Rung 2's way in: the destination's journal as a recreated destination
/// would find it, or why there is none to resume from.
///
/// The journal is round-tripped through its durable encoding: a recreated
/// destination only has bytes on disk, and a journal that fails its own
/// CRC is treated as absent.
fn rung2_journal(
    journal: Option<&Mutex<RestoreJournal>>,
    plan: FaultPlan,
    src_crashed: bool,
) -> Result<RestoreJournal, Rung2Skip> {
    // No journal was kept: the policy has no rung 2.
    let journal = journal.ok_or(Rung2Skip::PolicyDisabled)?;
    if src_crashed {
        // Nothing left to send: the resume handshake needs a live source
        // holding the ledger.
        return Err(Rung2Skip::SourceCrashed);
    }
    let encoded = lock_journal(journal).encode();
    match RestoreJournal::decode(&encoded) {
        Ok(mut j) if j.next_chunk() > 0 => {
            if plan.tamper_journal {
                j.tamper_record(0);
            }
            Ok(j)
        }
        _ => Err(Rung2Skip::NoJournal),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{resume_from_image, run_straight};
    use crate::testprog::{Summer, PP_LOOP};
    use std::sync::atomic::{AtomicBool, Ordering};

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

    /// `Summer::new(500)`, frozen at poll 250, dec5000 → sparc20 over
    /// 10 Mb/s under `transport`.
    fn summer_500(transport: Transport) -> Result<MigrationRun, MigError> {
        migrate(
            || Summer::new(500),
            Architecture::dec5000(),
            Architecture::sparc20(),
            NetworkModel::ethernet_10(),
            Trigger::AtPollCount(250),
            &Migration::new(transport),
        )
    }

    fn reliable(plan: FaultPlan, policy: RecoveryPolicy) -> Result<MigrationRun, MigError> {
        summer_500(Transport::Reliable(quick_cfg(), plan, policy))
    }

    #[test]
    fn straight_summer() {
        let mut p = Summer::new(100);
        let (r, _) = run_straight(&mut p, Architecture::dec5000()).unwrap();
        assert_eq!(r[0].1, Summer::expected(100));
    }

    #[test]
    fn migrated_summer_every_point() {
        for at in [1u64, 37, 99] {
            let run = run_migrating(
                || Summer::new(100),
                Architecture::dec5000(),
                Architecture::sparc20(),
                NetworkModel::instant(),
                Trigger::AtPollCount(at),
            )
            .unwrap();
            assert_eq!(run.results[0].1, Summer::expected(100), "trigger at {at}");
            assert_eq!(run.report.chain_depth, 1);
        }
    }

    #[test]
    fn trigger_never_fires_is_an_error_for_run_migrating() {
        // Limit reached before the trigger: the engine reports it.
        let r = run_migrating(
            || Summer::new(5),
            Architecture::dec5000(),
            Architecture::sparc20(),
            NetworkModel::instant(),
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

    /// The asynchronous request path (§2: "a scheduler … sends a
    /// migration request to a process"): the scheduler — a second thread
    /// — raises the flag while the source is mid-loop, and the source
    /// observes it at its very next poll-point. The rendezvous at
    /// iteration 400 forces that interleaving; the destination re-runs
    /// the iteration, where the spent rendezvous is a no-op.
    fn externally_requested(transport: Transport) {
        let flag = Arc::new(AtomicBool::new(false));
        let (at_400_tx, at_400_rx) = std::sync::mpsc::channel::<()>();
        let (raised_tx, raised_rx) = std::sync::mpsc::channel::<()>();
        let rendezvous = Mutex::new(Some((at_400_tx, raised_rx)));
        let hook: Arc<dyn Fn() + Send + Sync> = Arc::new(move || {
            if let Some((at_400, raised)) = rendezvous.lock().unwrap().take() {
                at_400.send(()).unwrap();
                raised.recv().unwrap();
            }
        });
        let run = std::thread::scope(|s| {
            let request = Arc::clone(&flag);
            s.spawn(move || {
                at_400_rx.recv().unwrap();
                request.store(true, Ordering::Relaxed);
                raised_tx.send(()).unwrap();
            });
            migrate(
                || Summer {
                    before_poll: Some((400, Arc::clone(&hook))),
                    ..Summer::new(1_000)
                },
                Architecture::dec5000(),
                Architecture::sparc20(),
                NetworkModel::ethernet_10(),
                Trigger::External(flag),
                &Migration::new(transport),
            )
        })
        .unwrap();
        assert_eq!(run.results[0].1, Summer::expected(1_000));
        assert_eq!(
            run.report.src_polls, 401,
            "froze at the poll after the request"
        );
        assert!(run.report.image_bytes > 0);
    }

    #[test]
    fn external_request_from_a_second_thread_migrates_whole() {
        externally_requested(Transport::Whole);
    }

    #[test]
    fn external_request_from_a_second_thread_migrates_streamed() {
        externally_requested(Transport::Reliable(
            quick_cfg(),
            FaultPlan::none(),
            RecoveryPolicy::default(),
        ));
    }

    #[test]
    fn clean_reliable_summer_matches_whole_with_no_recovery_traffic() {
        let whole = summer_500(Transport::Whole).unwrap();
        let run = reliable(FaultPlan::none(), RecoveryPolicy::default()).unwrap();
        assert_eq!(run.results[0].1, Summer::expected(500));
        assert_eq!(run.results, whole.results);
        assert_eq!(run.report.image_bytes, whole.report.image_bytes);
        assert_eq!(run.report.memory_bytes, whole.report.memory_bytes);
        let p = run.report.pipeline().expect("streamed run carries stats");
        // Prefix + at least one payload chunk + terminator.
        assert!(p.chunks >= 3, "got {} chunks", p.chunks);
        assert_eq!(p.chunk_bytes, 64);
        assert!(
            run.report.transfer.bytes_sent > run.report.memory_bytes,
            "framing overhead must be accounted"
        );
        let r = run.report.recovery().expect("reliable carries stats");
        assert!(!r.fallback_taken);
        assert_eq!(r.retransmits, 0);
        assert_eq!(r.corrupt_caught, 0);
        assert_eq!(r.faults_injected, 0);
        assert!(r.acks_sent > 0, "receiver must have acknowledged");
        assert_eq!(run.report.resume().unwrap().rung, 1);
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
        let run = reliable(plan, quick_policy()).unwrap();
        assert_eq!(run.results[0].1, Summer::expected(500));
        let r = run.report.recovery().unwrap();
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
        let run = reliable(plan, policy).unwrap();
        // The answer is still right — computed on the source.
        assert_eq!(run.results[0].1, Summer::expected(500));
        let r = run.report.recovery().unwrap();
        assert!(r.fallback_taken);
        assert!(r.retransmits > 0, "the sender must have tried: {r:?}");
        assert!(run.report.pipeline().is_none(), "no pipeline stats survive");
        let resume = run.report.resume().unwrap();
        assert_eq!(resume.rung, 3);
        assert!(!resume.rung2_attempted);
        assert_eq!(resume.skip, Some(Rung2Skip::PolicyDisabled));
        // A policy without rung 2 journals nothing on the destination.
        assert_eq!(resume.journal_chunks, 0);
    }

    #[test]
    fn resilient_resumes_a_dead_link_from_the_journal() {
        let plan = FaultPlan {
            disconnect_at: Some(2), // the prefix and one payload chunk land
            ..FaultPlan::none()
        };
        let run = reliable(plan, quick_policy()).unwrap();
        // The answer is right — and it was computed on the destination,
        // resumed from the journal instead of falling back.
        assert_eq!(run.results[0].1, Summer::expected(500));
        let r = run.report.recovery().unwrap();
        assert!(!r.fallback_taken, "rung 2 must heal a dead link: {r:?}");
        assert!(run.report.pipeline().is_some(), "pipeline stats survive");
        let resume = run.report.resume().unwrap();
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
        match reliable(plan, policy).unwrap_err() {
            MigError::Net(m) => assert!(m.contains("retries exhausted"), "{m}"),
            other => panic!("expected the wire's error, got {other:?}"),
        }
    }

    #[test]
    fn resilient_recovery_stats_are_reproducible() {
        let go = || reliable(FaultPlan::from_seed(0x1CEB00DA), quick_policy()).unwrap();
        let first = go();
        assert_eq!(first.results[0].1, Summer::expected(500));
        for _ in 0..2 {
            let again = go();
            assert_eq!(again.results, first.results);
            assert_eq!(again.report.recovery(), first.report.recovery());
        }
    }

    /// A destination that dies mid-stream must not hang the engine: every
    /// stage thread joins and the poison error surfaces. `SourceResume`
    /// then tries to salvage the run — and the poisoned program also
    /// refuses to resume locally, so the fallback surfaces ITS error
    /// rather than hanging or fabricating results.
    #[test]
    fn poisoned_chunk_does_not_hang_the_engine() {
        let cfg = PipelineConfig {
            chunk_bytes: 128,
            ..quick_cfg()
        };
        let transport = Transport::Reliable(cfg, FaultPlan::none(), quick_policy());
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let r = migrate(
                || Summer {
                    poisoned_resume: true,
                    ..Summer::new(50_000)
                },
                Architecture::dec5000(),
                Architecture::sparc20(),
                NetworkModel::ethernet_10(),
                Trigger::AtPollCount(25_000),
                &Migration::new(transport),
            );
            let _ = done_tx.send(r);
        });
        let r = done_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("engine hung on a poisoned destination");
        match r {
            Err(MigError::Protocol(m)) => assert!(m.contains("poisoned"), "{m}"),
            other => panic!("expected the poison to surface, got {other:?}"),
        }
    }
}
