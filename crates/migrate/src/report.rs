//! What one migration measured: the paper's **Collect / Tx / Restore**
//! triplet (Table 1: "We define process migration time as the total of
//! data collection (Collect), transmission (Tx), and restoration (Restore)
//! time"), every §4.2 instrumentation counter, and the transport's own
//! statistics in one enum that mirrors [`Transport`](crate::Transport).

use crate::driver::CompletedRun;
use crate::precopy::PrecopyStats;
use crate::process::Process;
use hpm_core::{CollectStats, MsrltStats, RestoreStats};
use hpm_net::{ArqReceiverSnapshot, FaultStats, NetworkModel, TransferSnapshot};
use hpm_obs::{EventLog, Level, LogDump};
use std::time::Duration;

/// Everything measured about one migration.
#[derive(Debug, Clone)]
pub struct MigrationReport {
    /// Total migration image size in bytes (header + exec + memory).
    pub image_bytes: u64,
    /// Memory-state payload bytes (the ΣDᵢ quantity of §4.2).
    pub memory_bytes: u64,
    /// Wall time of the data-collection phase. On a streamed migration
    /// it leaves out the source's framing and sending of each chunk,
    /// which the critical path charges to the link stage.
    pub collect_time: Duration,
    /// Modeled transmission time over the chosen link.
    pub tx_time: Duration,
    /// Wall time of the restoration phase (sum over `restore_frame`s).
    /// Under [`Transport::Reliable`](crate::Transport::Reliable) it is the
    /// destination's busy time: the waits on the pipe inside
    /// `restore_frame` are left out, so [`Self::migration_time`] is Table
    /// 1's serial sum on both transports.
    pub restore_time: Duration,
    /// Collection counters.
    pub collect_stats: CollectStats,
    /// Source MSRLT counters during collection (searches, steps, time).
    pub src_msrlt: MsrltStats,
    /// Restoration counters.
    pub restore_stats: RestoreStats,
    /// Destination MSRLT counters during restoration + resumed run.
    pub dst_msrlt: MsrltStats,
    /// Poll-points the frozen source process executed before migration.
    pub src_polls: u64,
    /// Call-chain depth at the migration point.
    pub chain_depth: usize,
    /// Wire-level transfer accounting (the `Tx` column comes from here):
    /// what both ends of every connection sent, summed; under pre-copy,
    /// over every round's frames.
    pub transfer: TransferSnapshot,
    /// What the chosen transport measured beyond `transfer`.
    pub transport: TransportStats,
    /// The dump of the migration's event log, when the policy supplied
    /// the log or the run fell back to the source; `None` otherwise. It
    /// holds events only: every counter is a field of this report.
    pub log: Option<LogDump>,
    /// Per-round measurements, when the policy asked for pre-copy; the
    /// collect / restore figures above then describe the frozen leg.
    pub precopy: Option<PrecopyStats>,
}

/// Transport-specific measurements, one variant per
/// [`Transport`](crate::Transport), so the statistics a report carries
/// cannot disagree with the path the migration took.
// One value per migration, held inline in its report: boxing the
// streamed variant would buy nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum TransportStats {
    /// One buffer over the channel: `transfer` says it all.
    Whole,
    /// A chunk stream with the degradation ladder behind it.
    Reliable {
        /// The streamed destination's critical path; `None` when
        /// pre-copy rounds shipped whole frames instead, or when the run
        /// fell back to the source and discarded its destination.
        pipeline: Option<PipelineStats>,
        /// What the recovery machinery did, summed over every attempt.
        recovery: RecoveryStats,
        /// How far down the degradation ladder the run went.
        resume: ResumeStats,
    },
}

impl MigrationReport {
    /// The one place a report is assembled. `src` is the frozen source
    /// process, `dst` the run that produced the answers (the destination,
    /// or the source's own resumed run on a fallback).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        src: &Process,
        chain_depth: usize,
        collected: Collected,
        transfer: TransferSnapshot,
        dst: &CompletedRun,
        transport: TransportStats,
        precopy: Option<PrecopyStats>,
    ) -> Self {
        MigrationReport {
            image_bytes: collected.prefix_bytes + collected.stats.bytes_out,
            memory_bytes: collected.stats.bytes_out,
            collect_time: collected.time,
            tx_time: transfer.modeled_tx_time(),
            restore_time: dst.restore.time,
            collect_stats: collected.stats,
            src_msrlt: src.msrlt.stats(),
            restore_stats: dst.restore.stats,
            dst_msrlt: dst.proc.msrlt.stats(),
            src_polls: src.poll_count(),
            chain_depth,
            transfer,
            transport,
            log: None,
            precopy,
        }
    }

    /// Total migration time: Collect + Tx + Restore (Table 1's metric).
    pub fn migration_time(&self) -> Duration {
        self.collect_time + self.tx_time + self.restore_time
    }

    /// The critical path, when a streamed destination completed.
    pub fn pipeline(&self) -> Option<&PipelineStats> {
        match &self.transport {
            TransportStats::Reliable { pipeline, .. } => pipeline.as_ref(),
            TransportStats::Whole => None,
        }
    }

    /// Fault-recovery measurements of a [`TransportStats::Reliable`] run.
    pub fn recovery(&self) -> Option<&RecoveryStats> {
        match &self.transport {
            TransportStats::Reliable { recovery, .. } => Some(recovery),
            _ => None,
        }
    }

    /// Ladder measurements of a [`TransportStats::Reliable`] run.
    pub fn resume(&self) -> Option<&ResumeStats> {
        match &self.transport {
            TransportStats::Reliable { resume, .. } => Some(resume),
            _ => None,
        }
    }
}

/// What one collection pass over the frozen source produced.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Collected {
    /// Wall time of the collection DFS.
    pub time: Duration,
    /// Its counters.
    pub stats: CollectStats,
    /// Size of the image prefix (header + execution state) framed ahead
    /// of the payload.
    pub prefix_bytes: u64,
}

/// Result of a migrated run.
#[derive(Debug, Clone)]
pub struct MigrationRun {
    /// Measurements.
    pub report: MigrationReport,
    /// Result digest produced by the process that finished the program.
    pub results: Vec<(String, String)>,
}

impl MigrationRun {
    /// Wrap up a run: when the caller `asked` for the log (supplied it)
    /// or the run fell back to the source, dump it into the report.
    pub(crate) fn finish(
        log: &EventLog,
        asked: bool,
        mut report: MigrationReport,
        results: Vec<(String, String)>,
    ) -> Self {
        let fell_back = report.resume().is_some_and(ResumeStats::fallback_taken);
        if log.level() != Level::Off && (asked || fell_back) {
            report.log = Some(log.dump());
        }
        MigrationRun { report, results }
    }
}

/// Measurements specific to a chunk-streamed migration.
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelineStats {
    /// Frames on the wire: image prefix + payload chunks + terminator.
    pub chunks: u64,
    /// Downtime with collect, transmit (over the migration's link) and
    /// restore overlapped: the critical path through the stamps of the
    /// attempt that completed (DESIGN §4a), to its final `restore_frame`.
    pub critical_path: Duration,
}

/// One frame's stamps in a streamed attempt, from the start of
/// collection. A chunk replayed from the destination's journal is all
/// zeros: it was in hand when the attempt began.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct FrameStamp {
    /// p_i: when the producer pushed it (the terminator: production's
    /// end), on the producer's clock, which leaves out the source's
    /// framing of earlier frames.
    pub pushed: Duration,
    /// c_i: the source's time framing it (coder, CRC) and pushing it.
    pub sending: Duration,
    /// D_i: the bytes the channel charged; `None` for a replayed chunk.
    pub wire_bytes: Option<u64>,
    /// q_i: when the destination's pipe read for it was called.
    pub asked: Duration,
    /// a_i: when that read returned it.
    pub arrived: Duration,
}

/// A streamed attempt's downtime over `link`, from its stamps. Frame i
/// has crossed the link at T_i = max(p_i, T_{i−1}) + c_i + tx(D_i), and
/// the destination is done with it at R_i = max(T_i, R_{i−1}) + busy_i,
/// where busy_i = q_{i+1} − a_i is all it did between taking frame i and
/// asking for the next (CRC check, decode, journal append, restore); the
/// last frame's runs to `done`, the end of the final `restore_frame`.
/// R_{−1} = q_0, and the result is R_n.
pub(crate) fn critical_path(link: NetworkModel, frames: &[FrameStamp], done: Duration) -> Duration {
    let (mut t, mut r) = (Duration::ZERO, frames.first().map_or(done, |f| f.asked));
    for (i, f) in frames.iter().enumerate() {
        t = t.max(f.pushed) + f.sending + f.wire_bytes.map_or(Duration::ZERO, |d| link.tx_time(d));
        let next = frames.get(i + 1).map_or(done, |n| n.asked);
        r = r.max(t) + next.saturating_sub(f.arrived);
    }
    r
}

/// Why rung 2 (resume-from-journal) of the degradation ladder was not the
/// rung that completed the migration, surfaced in
/// [`ResumeStats::skip`] so operators can tell a dead source or an empty
/// journal from a refused or failed resume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung2Skip {
    /// The *source* died mid-collect; a destination journal cannot help
    /// because there is nothing left to send.
    SourceCrashed,
    /// The destination verified no chunk, so there is nothing to resume
    /// from.
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
            Rung2Skip::SourceCrashed => write!(f, "source-crashed"),
            Rung2Skip::NoJournal => write!(f, "no-journal"),
            Rung2Skip::DigestMismatch => write!(f, "digest-mismatch"),
            Rung2Skip::TransferFailed => write!(f, "transfer-failed"),
        }
    }
}

/// How far down the degradation ladder a reliable migration went and
/// what the resume machinery saved.
///
/// Like [`RecoveryStats`], every field is a deterministic function of the
/// fault plan and the chunk stream, so rerunning a seed reproduces the
/// struct bit for bit (the crash soak asserts this).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResumeStats {
    /// Ladder rung that completed the migration: 1 = the first
    /// connection, 2 = resume-from-journal on a fresh one, 3 = resume on
    /// the source.
    pub rung: u8,
    /// CRC-verified chunks the destination journal held at the crash.
    pub journal_chunks: u64,
    /// Wire bytes the resume handshake avoided re-sending.
    pub bytes_saved: u64,
    /// Chunks actually re-transferred after the resume point.
    pub chunks_retransferred: u64,
    /// Wire bytes the resumed source sent after the resume point (its
    /// frames; the destination's handshake is not re-transferred data).
    pub bytes_retransferred: u64,
    /// Already-verified chunks the wire re-delivered anyway. A correct
    /// resume keeps this at zero.
    pub wire_replays: u64,
    /// Why rung 2 did not complete the migration (`None` when it did,
    /// or when rung 1 succeeded outright).
    pub skip: Option<Rung2Skip>,
}

impl ResumeStats {
    /// Whether the migration fell back to resuming on the source.
    pub fn fallback_taken(&self) -> bool {
        self.rung == 3
    }

    /// Whether rung 2 was attempted at all: it completed the migration,
    /// or its handshake was refused, or its transfer failed.
    pub fn rung2_attempted(&self) -> bool {
        self.rung == 2
            || matches!(
                self.skip,
                Some(Rung2Skip::DigestMismatch | Rung2Skip::TransferFailed)
            )
    }

    /// Journal chunks replayed into the fresh destination: the whole
    /// journal on rung 2, none otherwise.
    pub fn chunks_replayed(&self) -> u64 {
        match self.rung {
            2 => self.journal_chunks,
            _ => 0,
        }
    }
}

/// What the pipe faults did during one reliable migration.
///
/// Every field is a deterministic function of the fault plan and the
/// chunk stream — no wall-clock quantity lives here — so rerunning a
/// seed reproduces the struct exactly (the soak sweep asserts this).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Frames whose CRC failed on arrival (each ended its connection).
    pub corrupt_caught: u64,
    /// Fault events the injector reports (soak bookkeeping).
    pub faults_injected: u64,
}

impl RecoveryStats {
    /// One attempt's share, from the two components that counted it.
    pub(crate) fn from_parts(receiver: ArqReceiverSnapshot, faults: FaultStats) -> Self {
        RecoveryStats {
            corrupt_caught: receiver.corrupt_caught,
            faults_injected: faults.faults_injected(),
        }
    }
}

/// Accumulate another attempt's share.
impl std::ops::AddAssign for RecoveryStats {
    fn add_assign(&mut self, other: Self) {
        self.corrupt_caught += other.corrupt_caught;
        self.faults_injected += other.faults_injected;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic stream of `n` frames: monotone stamps, the
    /// destination asking for each frame before or after it lands.
    fn frames(n: usize, seed: u64) -> (Vec<FrameStamp>, Duration) {
        let mut x = seed | 1;
        let mut next = |cap: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            Duration::from_micros(x % cap)
        };
        let (mut pushed, mut at) = (Duration::ZERO, Duration::ZERO);
        let frames = (0..n)
            .map(|_| {
                pushed += next(2_000);
                let asked = at + next(500);
                at = asked + next(3_000);
                FrameStamp {
                    pushed,
                    sending: next(300),
                    wire_bytes: Some(next(40_000).as_micros() as u64),
                    asked,
                    arrived: at,
                }
            })
            .collect();
        (frames, at + next(1_000))
    }

    /// The Table 1 sum of the same stamps: production's end, then every
    /// frame across the link, then all of the destination's busy time.
    fn serial(link: NetworkModel, frames: &[FrameStamp], done: Duration) -> Duration {
        let wire: Duration = (frames.iter())
            .map(|f| f.sending + f.wire_bytes.map_or(Duration::ZERO, |d| link.tx_time(d)))
            .sum();
        frames.last().unwrap().pushed + wire + busy(frames, done)
    }

    fn busy(frames: &[FrameStamp], done: Duration) -> Duration {
        let asked = frames.iter().skip(1).map(|f| f.asked).chain([done]);
        let gaps = frames.iter().zip(asked).map(|(f, next)| next - f.arrived);
        frames[0].asked + gaps.sum::<Duration>()
    }

    #[test]
    fn one_frame_costs_the_serial_sum() {
        let link = NetworkModel::ethernet_10();
        let (mut one, _) = frames(1, 7);
        one[0].asked = Duration::ZERO;
        let done = one[0].arrived + Duration::from_millis(3);
        assert_eq!(critical_path(link, &one, done), serial(link, &one, done));
    }

    #[test]
    fn the_path_lies_between_each_stage_alone_and_the_serial_sum() {
        for seed in 1..200 {
            let (fs, done) = frames(1 + seed as usize % 24, seed);
            for link in [NetworkModel::ethernet_10(), NetworkModel::ethernet_100()] {
                let path = critical_path(link, &fs, done);
                let tx = |f: &FrameStamp| f.sending + link.tx_time(f.wire_bytes.unwrap());
                let wire: Duration = fs.iter().map(tx).sum();
                let last = fs.last().unwrap();
                let floor = wire.max(busy(&fs, done)).max(last.pushed + tx(last));
                assert!(floor <= path, "seed {seed}: {path:?} under {floor:?}");
                assert!(path <= serial(link, &fs, done), "seed {seed}: {path:?}");
            }
        }
    }

    #[test]
    fn a_faster_link_never_lengthens_the_path() {
        let links = [
            NetworkModel::ethernet_10(),
            NetworkModel::ethernet_100(),
            NetworkModel::gigabit(),
            NetworkModel::instant(),
        ];
        for seed in 1..100 {
            let (fs, done) = frames(12, seed);
            let paths = links.map(|link| critical_path(link, &fs, done));
            assert!(paths.is_sorted_by(|a, b| a >= b), "seed {seed}: {paths:?}");
        }
    }

    #[test]
    fn replayed_chunks_cross_no_link() {
        let (live, done) = frames(6, 11);
        let mut resumed = vec![FrameStamp::default(); 4];
        resumed.extend_from_slice(&live);
        // In hand at the start, the replayed chunks add no Tx: the path
        // is the live frames' over any link.
        for link in [NetworkModel::ethernet_10(), NetworkModel::gigabit()] {
            let path = critical_path(link, &resumed, done);
            assert_eq!(path, critical_path(link, &live, done));
            let in_hand = critical_path(link, &resumed[..4], done);
            assert_eq!(in_hand, done, "a fully replayed stream is restore alone");
        }
    }

    #[test]
    fn ladder_facts_follow_the_rung_and_the_skip() {
        let at = |rung, skip| ResumeStats {
            rung,
            journal_chunks: 5,
            skip,
            ..ResumeStats::default()
        };
        let cases = [
            (at(1, None), false, false, 0),
            (at(2, None), false, true, 5),
            (at(3, Some(Rung2Skip::SourceCrashed)), true, false, 0),
            (at(3, Some(Rung2Skip::NoJournal)), true, false, 0),
            (at(3, Some(Rung2Skip::DigestMismatch)), true, true, 0),
            (at(3, Some(Rung2Skip::TransferFailed)), true, true, 0),
        ];
        for (stats, fell_back, attempted, replayed) in cases {
            assert_eq!(stats.fallback_taken(), fell_back, "{stats:?}");
            assert_eq!(stats.rung2_attempted(), attempted, "{stats:?}");
            assert_eq!(stats.chunks_replayed(), replayed, "{stats:?}");
        }
    }
}
