//! The migration engine: one sequence — freeze at a poll-point, Collect,
//! Tx, Restore, resume (§2, Table 1) — driven by one policy value.
//!
//! [`migrate`] runs the source to its migration point and then either
//! stops and copies or iterates pre-copy rounds ([`crate::precopy`]); both
//! move their bytes through the same transfer
//! attempt (the private `wire` module) under the policy's [`Transport`], resume the
//! destination through the same routine ([`crate::driver`]) and finish in
//! the same report constructor.
//!
//! | [`Transport`] | single shot | a pre-copy round's frame |
//! |---|---|---|
//! | `Whole` | image collected into one buffer, one message, resume from the buffer | one message |
//! | `Reliable` | the collector frames and sends its own chunks → streaming resume on the destination thread, overlapped, every chunk CRC-checked and compressed when that is smaller, with the ladder: one connection → resume from the destination's journal on a fresh one → resume on the source | cut into chunks and sent from the calling thread, redialled once |

use crate::ctx::{collect_onto, collect_pending_streamed, MigratableProgram};
use crate::driver::{resume, run_to_migration, CompletedRun, MigratedSource};
use crate::precopy::{self, PrecopyConfig};
use crate::process::Trigger;
use crate::report::{
    critical_path, Collected, MigrationReport, MigrationRun, PipelineStats, RecoveryStats,
    ResumeStats, Rung2Skip, TransportStats,
};
use crate::wire::{attempt, ship_frame, Attempt, Carried, Lane};
use crate::MigError;
use hpm_arch::Architecture;
use hpm_core::CollectStats;
use hpm_net::{FaultPlan, NetworkModel, TransferSnapshot, WireCodec};
use hpm_obs::{EventLog, Level, Track};
use hpm_xdr::{image_id, ChunkRecord, RestoreJournal};
use std::time::{Duration, Instant};

/// The chunk-streamed transport's one setting, its chunk size. The other
/// fields are ignored; they remain so that callers building this struct
/// as a literal keep compiling. Write
/// `PipelineConfig { chunk_bytes, ..PipelineConfig::default() }`.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// The collector's flush watermark: a floor on a chunk's payload, not
    /// its size. A scalar run crosses it a `BULK_SLICE` (1 MiB) at a time,
    /// so an array's chunks are about 1 MiB; DESIGN §7b "Slices and chunk
    /// cuts" says why the slice stays that long.
    pub chunk_bytes: usize,
    /// Ignored: nothing waits on the wall clock for the link. The
    /// overlap is computed from the stamps every attempt takes
    /// ([`PipelineStats::critical_path`]).
    pub pace: bool,
    /// Ignored, as `pace` is.
    pub pace_scale: f64,
    /// Ignored: every chunk frame tries the block coder and keeps the
    /// stored form when that is not smaller.
    pub codec: WireCodec,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            chunk_bytes: 32 * 1024,
            pace: false,
            pace_scale: 1.0,
            codec: WireCodec::default(),
        }
    }
}

/// The former retry budget of rung 1. Rung 1 is one connection that
/// ends on the first bad frame, so there is nothing to tune: the ladder
/// has no settings. [`run_migrating_resilient`] still takes one so the
/// benchmark's call keeps compiling.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryPolicy;

/// How the bytes of a migration cross the link.
#[derive(Debug, Clone, Copy)]
pub enum Transport {
    /// The image is collected into one buffer and shipped as one message:
    /// Collect, Tx and Restore run strictly one after another, on the
    /// calling thread.
    Whole,
    /// Collection, transmission and restoration overlap, one thread per
    /// machine: the collector flushes the DFS stream in
    /// `chunk_bytes`-sized chunks as it traverses and frames and sends
    /// each one itself, and the destination, on a thread of its own,
    /// restores frame *k* while chunk *k+1* is in flight. The
    /// image prefix travels as chunk 0, before any payload exists, so the
    /// destination re-enters the call chain while the source still
    /// collects. Each chunk travels once over an ordered pipe that can
    /// break, under a CRC-32; the first frame the destination cannot take
    /// ends the connection, and the stream goes down the degradation
    /// ladder. The [`FaultPlan`] drives the deterministic fault injector;
    /// [`FaultPlan::none`] is a clean (but still CRC-checked) run. The
    /// report's [`PipelineStats::critical_path`] is the downtime with the
    /// three stages overlapped over the modelled link.
    Reliable(PipelineConfig, FaultPlan),
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
    /// `collect`, `arq.tx` and `fault` (the source's thread), `restore`
    /// and `arq.rx` (the destination's), with a
    /// `.resume` suffix on a rung-2 attempt — at the log's
    /// [`Level`]: protocol events, plus at [`Level::Detail`] the spans
    /// `collect` ∋ `msrlt.search`, `tx` ∋ `net.send` and the per-block
    /// events. The caller can dump it even when the run fails, and the
    /// report carries its dump (events only: the counters are the
    /// report's fields). `None`
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
    };
    engine
        .run(trigger)
        .inspect_err(|_| persist_flight_dump(log))
}

/// [`migrate`] with the paper's own policy: stop, copy the whole image
/// as one message, resume.
pub fn run_migrating<P: MigratableProgram + Send>(
    make: impl Fn() -> P,
    src_arch: Architecture,
    dst_arch: Architecture,
    link: NetworkModel,
    trigger: Trigger,
) -> Result<MigrationRun, MigError> {
    migrate(
        make,
        src_arch,
        dst_arch,
        link,
        trigger,
        &Migration::new(Transport::Whole),
    )
}

/// [`migrate`] over [`Transport::Reliable`]. The [`RecoveryPolicy`]
/// carries nothing.
#[allow(clippy::too_many_arguments)]
pub fn run_migrating_resilient<P: MigratableProgram + Send>(
    make: impl Fn() -> P,
    src_arch: Architecture,
    dst_arch: Architecture,
    link: NetworkModel,
    trigger: Trigger,
    config: PipelineConfig,
    plan: FaultPlan,
    _policy: RecoveryPolicy,
) -> Result<MigrationRun, MigError> {
    let policy = Migration::new(Transport::Reliable(config, plan));
    migrate(make, src_arch, dst_arch, link, trigger, &policy)
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

impl<P: MigratableProgram + Send, F: Fn() -> P> Engine<'_, F> {
    fn run(&self, trigger: Trigger) -> Result<MigrationRun, MigError> {
        let mut src = run_to_migration(&mut (self.make)(), self.src_arch.clone(), trigger)?;
        src.proc.msrlt.reset_stats();
        match self.policy.precopy {
            Some(cfg) => precopy::rounds(self, src, cfg),
            None => self.stop_and_copy(src),
        }
    }

    fn stop_and_copy(&self, mut src: MigratedSource) -> Result<MigrationRun, MigError> {
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
            Transport::Reliable(config, plan) => self.stream(&mut src, &prefix, config, plan)?,
        };
        let report = MigrationReport::new(
            &src.proc,
            chain_depth,
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
        journal: Option<RestoreJournal>,
        resume: Option<(u64, Vec<ChunkRecord>)>,
    ) -> Lane {
        // Tracks are single-writer, so a rung-2 resume gets its own.
        let resuming = resume.is_some();
        let (tx, rx, fault) = match resuming {
            false => ("arq.tx", "arq.rx", "fault"),
            true => ("arq.tx.resume", "arq.rx.resume", "fault.resume"),
        };
        Lane {
            chunk_bytes: config.chunk_bytes,
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
            Transport::Reliable(config, plan) => Some(self.lane(config, plan, None, None)),
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

    /// One streamed attempt: the collection DFS as the producer (image
    /// prefix first), a streaming resume as the consumer. When the lane
    /// resumes, the receiver hands out the journaled chunks before the
    /// live ones, so the whole stream prefix is replayed, byte for byte,
    /// through the normal restore path of a *fresh* process: restored
    /// state never splices a stale partial image onto a new transfer. A
    /// collector that refused the registry ends the migration here, on
    /// any rung: every rung collects the same frozen source.
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
        let chunk_bytes = lane.chunk_bytes;
        let mut dst_prog = (self.make)();
        let dst_arch = self.dst_arch.clone();
        let out = attempt(
            self.link,
            lane,
            |sink| {
                sink(prefix)?;
                collect_pending_streamed(
                    &mut src.proc,
                    &src.pending,
                    chunk_bytes,
                    &collect_track,
                    Box::new(sink),
                )
            },
            move |mut rx| {
                let first = (rx.recv()?)
                    .ok_or_else(|| MigError::Protocol("empty migration stream".into()))?;
                let more = Some(Box::new(rx) as _);
                resume(&mut dst_prog, dst_arch, &first, more, None, &restore_track)?.completed()
            },
        )?;
        match out.error {
            Some(MigError::Preflight(m)) => Err(MigError::Preflight(m)),
            _ => Ok(out),
        }
    }

    /// The streamed leg of a stop-and-copy migration: the degradation
    /// ladder, one rung after another. Rung 1 is one connection, which
    /// ends on the first frame the destination cannot take; when it dies,
    /// rung 2 resumes the stream from the destination's chunk journal on a
    /// fresh connection; when that cannot complete either, rung 3 resumes
    /// on the source.
    fn stream(
        &self,
        src: &mut MigratedSource,
        prefix: &[u8],
        config: PipelineConfig,
        plan: FaultPlan,
    ) -> Result<Delivered, MigError> {
        // Rung 1: a fresh stream, journaled on the destination.
        let id = image_id(prefix);
        let lane = self.lane(config, plan, Some(RestoreJournal::new(id)), None);
        let mut first = self.stream_attempt(src, prefix, lane)?;
        let mut recovery = first.recovery;
        let journal = first.journal.take();
        let mut ladder = ResumeStats {
            rung: 1,
            journal_chunks: journal.as_ref().map_or(0, |j| j.next_chunk() as u64),
            ..ResumeStats::default()
        };
        let Some(err) = first.error.take() else {
            return self.delivered(first, prefix, recovery, ladder);
        };
        // Every worker has joined, so the log — dumped once the ladder
        // has run — is complete and, per track, deterministic for a
        // fault-plan seed.
        self.driver
            .event_note("attempt.failed", &[], &err.to_string());

        // Rung 2: a fresh destination replays the journal, and
        // the source re-ships only the chunks it lacks.
        let resumed = match rung2_journal(journal, plan, first.src_crashed) {
            Ok(resumed) => resumed,
            Err(skip) => {
                ladder.skip = Some(skip);
                self.driver
                    .event_note("resume.skipped", &[], &skip.to_string());
                return self.fall_back(src, prefix, first.transfer, err, recovery, ladder);
            }
        };
        let replayed = resumed.next_chunk();
        self.driver
            .event("resume.attempt", &[("next_chunk", replayed as u64)]);
        let ledger = std::mem::take(&mut first.wire.records);
        let lane = self.lane(config, plan, Some(resumed), Some((id, ledger)));
        let mut out = self.stream_attempt(src, prefix, lane)?;
        recovery += out.recovery;
        if let Some(resume_err) = &out.error {
            if out.wire.rejected {
                // The sender refused to splice onto an unverifiable base;
                // both sides rolled back cleanly. Rung 3 restarts from
                // scratch.
                ladder.skip = Some(Rung2Skip::DigestMismatch);
                self.driver.event_note(
                    "resume.rejected",
                    &[],
                    "journal digest mismatch: rolled back to a clean restart",
                );
            } else {
                ladder.skip = Some(Rung2Skip::TransferFailed);
                self.driver
                    .event_note("resume.failed", &[], &resume_err.to_string());
            }
            return self.fall_back(src, prefix, first.transfer, err, recovery, ladder);
        }
        ladder.rung = 2;
        ladder.bytes_saved = out.wire.bytes_saved_wire;
        ladder.chunks_retransferred = out.frames.len().saturating_sub(replayed as usize) as u64;
        // The source's frames alone: the handshake flowed the other way.
        ladder.bytes_retransferred = out.wire.sent.bytes_sent;
        ladder.wire_replays = out.wire_replays;
        self.driver.event(
            "resume.completed",
            &[
                ("chunks_replayed", ladder.chunks_replayed()),
                ("bytes_saved", ladder.bytes_saved),
            ],
        );
        // Fold rung 1's wire traffic and collect time in so Tx and
        // Collect stay honest about the total cost.
        out.transfer += first.transfer;
        out.produce_time += first.produce_time;
        self.delivered(out, prefix, recovery, ladder)
    }

    /// What the attempt that completed the ladder on the destination
    /// hands the report: its critical path, and its restore time less the
    /// destination's waits on the pipe.
    fn delivered(
        &self,
        out: StreamAttempt,
        prefix: &[u8],
        recovery: RecoveryStats,
        ladder: ResumeStats,
    ) -> Result<Delivered, MigError> {
        let mut dst = out
            .consumed
            .ok_or_else(|| MigError::Protocol("attempt succeeded without a destination".into()))?;
        let stats = out.produced.ok_or_else(|| {
            MigError::Protocol("attempt succeeded without collection stats".into())
        })?;
        let frames = &out.frames;
        debug_assert_eq!(frames.len(), out.wire.records.len(), "one stamp per frame");
        let done = (dst.restore.done_at).map_or(Duration::ZERO, |t| t - out.start);
        let pipeline = PipelineStats {
            chunks: frames.len() as u64,
            critical_path: critical_path(self.link, frames, done),
        };
        // Every pipe wait after the prefix's falls inside `restore_frame`.
        let waited = frames.iter().skip(1).map(|f| f.arrived - f.asked).sum();
        dst.restore.time = dst.restore.time.saturating_sub(waited);
        self.end_phases(&out.transfer, &dst);
        Ok(Delivered {
            collected: Collected {
                time: out.produce_time,
                stats,
                prefix_bytes: prefix.len() as u64,
            },
            transfer: out.transfer,
            dst,
            transport: self.transport_stats(Some(pipeline), recovery, ladder),
        })
    }

    /// Rung 3: no rung repaired the stream, so the run resumes on the
    /// source. `transfer` is rung 1's wire traffic and `err` what killed
    /// it.
    fn fall_back(
        &self,
        src: &mut MigratedSource,
        prefix: &[u8],
        transfer: TransferSnapshot,
        err: MigError,
        recovery: RecoveryStats,
        mut ladder: ResumeStats,
    ) -> Result<Delivered, MigError> {
        ladder.rung = 3;
        self.driver
            .event_note("fallback.reached", &[], &err.to_string());
        persist_flight_dump(self.log);
        // The source process was never mutated by collection: collect
        // locally and resume on the source architecture, discarding
        // whatever the destination half-built.
        let (image, collected) = collect_whole(src, prefix, &self.driver)?;
        Ok(Delivered {
            collected,
            // The aborted attempt's wire traffic is the honest Tx cost of
            // the failure; the local resume ships nothing.
            transfer,
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
fn rung2_journal(
    journal: Option<RestoreJournal>,
    plan: FaultPlan,
    src_crashed: bool,
) -> Result<RestoreJournal, Rung2Skip> {
    if src_crashed {
        // Nothing left to send: the resume handshake needs a live source
        // holding the ledger.
        return Err(Rung2Skip::SourceCrashed);
    }
    let Some(mut resumed) = journal.filter(|j| j.next_chunk() > 0) else {
        return Err(Rung2Skip::NoJournal);
    };
    if plan.tamper_journal {
        resumed.tamper_record(0);
    }
    Ok(resumed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{resume_from_image, run_straight};
    use crate::testprog::{Summer, PP_LOOP};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    fn quick_cfg() -> PipelineConfig {
        PipelineConfig {
            chunk_bytes: 64,
            ..PipelineConfig::default()
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

    fn reliable(plan: FaultPlan) -> Result<MigrationRun, MigError> {
        summer_500(Transport::Reliable(quick_cfg(), plan))
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
        externally_requested(Transport::Reliable(quick_cfg(), FaultPlan::none()));
    }

    #[test]
    fn clean_reliable_summer_matches_whole_with_no_recovery_traffic() {
        let whole = summer_500(Transport::Whole).unwrap();
        let run = reliable(FaultPlan::none()).unwrap();
        assert_eq!(run.results[0].1, Summer::expected(500));
        assert_eq!(run.results, whole.results);
        assert_eq!(run.report.image_bytes, whole.report.image_bytes);
        assert_eq!(run.report.memory_bytes, whole.report.memory_bytes);
        let p = run.report.pipeline().expect("streamed run carries stats");
        // Prefix + at least one payload chunk + terminator.
        assert!(p.chunks >= 3, "got {} chunks", p.chunks);
        assert!(
            run.report.transfer.bytes_sent > run.report.memory_bytes,
            "framing overhead must be accounted"
        );
        let r = run.report.recovery().expect("reliable carries stats");
        assert_eq!(*r, RecoveryStats::default());
        assert_eq!(run.report.resume().unwrap().rung, 1);
        // One message per frame: nothing flows back on a clean stream.
        assert_eq!(run.report.transfer.messages_sent, p.chunks);
    }

    /// The critical path's stamps live in the attempt, not in the event
    /// log: a run that records nothing still reports the path, and it
    /// covers at least the modelled Tx of every frame.
    #[test]
    fn an_unlogged_stream_still_reports_its_critical_path() {
        let log = EventLog::new(Level::Off);
        let policy = Migration {
            log: Some(&log),
            ..Migration::new(Transport::Reliable(quick_cfg(), FaultPlan::none()))
        };
        let (src, dst) = (Architecture::dec5000(), Architecture::sparc20());
        let link = NetworkModel::ethernet_10();
        let trigger = Trigger::AtPollCount(250);
        let run = migrate(|| Summer::new(500), src, dst, link, trigger, &policy).unwrap();
        assert!(run.report.log.is_none());
        let p = run.report.pipeline().expect("streamed run carries stats");
        assert!(p.critical_path >= run.report.tx_time, "{p:?}");
    }

    /// A frame damaged in the pipe ends rung 1 at that frame; rung 2
    /// resumes from the journal of the frames before it.
    #[test]
    fn resilient_resumes_past_a_corrupt_frame() {
        let plan = FaultPlan {
            seed: 0xFA_57_11,
            corrupt_at: Some(1),
            ..FaultPlan::none()
        };
        let run = reliable(plan).unwrap();
        assert_eq!(run.results[0].1, Summer::expected(500));
        let r = run.report.recovery().unwrap();
        assert_eq!(r.faults_injected, 1, "{r:?}");
        let resume = run.report.resume().unwrap();
        assert_eq!((resume.rung, resume.journal_chunks), (2, 1), "{resume:?}");
    }

    #[test]
    fn resilient_falls_back_to_source_on_a_dead_link() {
        let plan = FaultPlan {
            // Not even the prefix chunk lands, so the destination
            // verifies nothing and rung 2 has no journal to resume from:
            // this test pins rung 3 (source resume).
            disconnect_at: Some(0),
            ..FaultPlan::none()
        };
        let run = reliable(plan).unwrap();
        // The answer is still right — computed on the source.
        assert_eq!(run.results[0].1, Summer::expected(500));
        let r = run.report.recovery().unwrap();
        assert_eq!(r.faults_injected, 1, "the pipe broke: {r:?}");
        assert!(run.report.pipeline().is_none(), "no pipeline stats survive");
        let resume = run.report.resume().unwrap();
        assert_eq!(resume.rung, 3);
        assert_eq!(resume.skip, Some(Rung2Skip::NoJournal));
        assert_eq!(resume.journal_chunks, 0);
        let dump = run.report.log.as_ref().expect("rung 3 attaches the log");
        let skipped = dump.events_of("resume.skipped");
        assert_eq!(skipped.len(), 1);
        assert_eq!(skipped[0].1.note.as_deref(), Some("no-journal"));
    }

    #[test]
    fn resilient_resumes_a_dead_link_from_the_journal() {
        let plan = FaultPlan {
            disconnect_at: Some(2), // the prefix and one payload chunk land
            ..FaultPlan::none()
        };
        let run = reliable(plan).unwrap();
        // The answer is right — and it was computed on the destination,
        // resumed from the journal instead of falling back.
        assert_eq!(run.results[0].1, Summer::expected(500));
        assert!(run.report.pipeline().is_some(), "pipeline stats survive");
        let resume = run.report.resume().unwrap();
        assert_eq!(resume.rung, 2, "rung 2 must heal a dead link: {resume:?}");
        assert_eq!(resume.skip, None);
        assert!(resume.journal_chunks > 0);
        assert!(resume.bytes_saved > 0, "{resume:?}");
        assert_eq!(
            resume.wire_replays, 0,
            "a correct resume re-receives nothing: {resume:?}"
        );
    }

    #[test]
    fn resilient_recovery_stats_are_reproducible() {
        let go = || reliable(FaultPlan::from_seed(0x1CEB00DA)).unwrap();
        let first = go();
        assert_eq!(first.results[0].1, Summer::expected(500));
        for _ in 0..2 {
            let again = go();
            assert_eq!(again.results, first.results);
            assert_eq!(again.report.recovery(), first.report.recovery());
        }
    }

    /// A destination that dies mid-stream must not hang the engine: every
    /// stage thread joins and the poison error surfaces. Rung 3 then
    /// tries to salvage the run — and the poisoned program also
    /// refuses to resume locally, so the fallback surfaces ITS error
    /// rather than hanging or fabricating results.
    #[test]
    fn poisoned_chunk_does_not_hang_the_engine() {
        let cfg = PipelineConfig {
            chunk_bytes: 128,
            ..quick_cfg()
        };
        let transport = Transport::Reliable(cfg, FaultPlan::none());
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
