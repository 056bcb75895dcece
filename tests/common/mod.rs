//! The seeded soak harness the ladder soak (`tests/fault_recovery.rs`)
//! and the crash soak (`tests/crash_recovery.rs`) share: sweep a plan
//! generator's seeds through the resilient driver and check every run
//! against the degradation ladder's contract.

use hpm::arch::Architecture;
use hpm::migrate::{
    migrate, run_straight, MigratableProgram, Migration, PipelineConfig, RecoveryStats,
    ResumeStats, Rung2Skip, Transport, Trigger,
};
use hpm::net::{FaultPlan, NetworkModel, TransferSnapshot};
use hpm::workloads::diff_results;
use hpm_obs::{EventLog, Level};
use std::time::Duration;

/// Small chunks so every plan sees plenty of frames to land in.
pub fn soak_cfg() -> PipelineConfig {
    PipelineConfig {
        chunk_bytes: 256,
        ..PipelineConfig::default()
    }
}

/// Which plans a soak draws, and how often it reruns one.
pub struct Sweep {
    /// Seed count.
    pub seeds: u64,
    /// The i-th plan of the sweep for a workload label.
    pub plan: fn(&str, u64) -> FaultPlan,
    /// Rerun every n-th seed to check it reproduces.
    pub rerun_every: u64,
}

/// What one run leaves behind for a rerun to reproduce.
type Outcome = (
    Vec<(String, String)>,
    ResumeStats,
    RecoveryStats,
    TransferSnapshot,
    String,
);

/// One resilient migration under `plan`, recording its protocol events;
/// panics on driver error (the driver must terminate cleanly whatever
/// dies, and wherever it dies).
fn run_one<P: MigratableProgram + Send>(
    make: impl Fn() -> P,
    src: Architecture,
    dst: Architecture,
    trigger: u64,
    plan: FaultPlan,
    cfg: PipelineConfig,
) -> Outcome {
    let log = EventLog::new(Level::Protocol);
    let run = migrate(
        make,
        src,
        dst,
        NetworkModel::ethernet_10(),
        Trigger::AtPollCount(trigger),
        &Migration {
            log: Some(&log),
            ..Migration::new(Transport::Reliable(cfg, plan))
        },
    )
    .unwrap_or_else(|e| panic!("{plan:?}: driver failed: {e}"));
    let resume = *run.report.resume().expect("resilient runs carry stats");
    let recovery = *run.report.recovery().expect("resilient runs carry stats");
    let jsonl = log.dump().to_jsonl();
    (run.results, resume, recovery, run.report.transfer, jsonl)
}

/// Sweep `sweep`'s plans over one workload inside a watchdog: the whole
/// sweep must finish in bounded time; every answer must match the
/// unmigrated run; no verified chunk may cross the wire twice; every rung
/// past the first must say why it was reached, a tampered journal being
/// refused; every `rerun_every`-th seed must reproduce its answers,
/// [`ResumeStats`], [`RecoveryStats`], wire accounting and event log byte
/// for byte; and the sweep must reach both the journal resume and the
/// source. Returns each seed's plan and stats, in seed order.
pub fn soak<P, F>(
    label: &'static str,
    make: F,
    src: Architecture,
    dst: Architecture,
    trigger: u64,
    cfg: PipelineConfig,
    sweep: Sweep,
) -> Vec<(FaultPlan, ResumeStats, RecoveryStats, TransferSnapshot)>
where
    P: MigratableProgram + Send,
    F: Fn() -> P + Send + 'static,
{
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let (expect, _) = run_straight(&mut make(), src.clone()).unwrap();
        let mut runs = Vec::new();
        for i in 0..sweep.seeds {
            let plan = (sweep.plan)(label, i);
            let seed = plan.seed;
            let out = run_one(&make, src.clone(), dst.clone(), trigger, plan, cfg);
            let (results, resume, recovery, transfer, _) = &out;
            assert!(
                diff_results(&expect, results).is_none(),
                "{label} seed {seed:#x}: WRONG ANSWER (rung={})",
                resume.rung
            );
            assert_eq!(
                resume.wire_replays, 0,
                "{label} seed {seed:#x}: a verified chunk crossed the wire twice: {resume:?}"
            );
            match resume.rung {
                1 => assert_eq!(resume.skip, None, "{label} seed {seed:#x}"),
                2 => {
                    assert_eq!(resume.skip, None, "{label} seed {seed:#x}");
                    assert!(resume.journal_chunks > 0, "{label} seed {seed:#x}");
                    assert!(resume.bytes_saved > 0, "{label} seed {seed:#x}");
                }
                3 => {
                    assert!(
                        resume.skip.is_some(),
                        "{label} seed {seed:#x}: rung 3 without a skip reason"
                    );
                    if plan.tamper_journal && resume.rung2_attempted() {
                        assert_eq!(
                            resume.skip,
                            Some(Rung2Skip::DigestMismatch),
                            "{label} seed {seed:#x}: tampered journal must be refused"
                        );
                    }
                }
                r => panic!("{label} seed {seed:#x}: impossible rung {r}"),
            }
            if i % sweep.rerun_every == 0 {
                let again = run_one(&make, src.clone(), dst.clone(), trigger, plan, cfg);
                assert!(
                    again == out,
                    "{label} seed {seed:#x}: rerun differs: {:?} vs {:?}",
                    (&again.1, &again.2),
                    (&out.1, &out.2)
                );
            }
            runs.push((plan, *resume, *recovery, *transfer));
        }
        // The seed stream must actually exercise the ladder: both the
        // resume rung and the fallback rung are reached.
        let reached = |rung| runs.iter().filter(|r| r.1.rung == rung).count();
        assert!(reached(2) > 0, "{label}: no plan resumed from the journal");
        assert!(reached(3) > 0, "{label}: no plan fell back to the source");
        done_tx.send(runs).unwrap();
    });
    let runs = match done_rx.recv_timeout(Duration::from_secs(300)) {
        Ok(runs) => runs,
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!("{label}: soak did not terminate in bounded time")
        }
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
            panic!("{label}: soak worker panicked (see output above)")
        }
    };
    let rungs = [1, 2, 3].map(|rung| runs.iter().filter(|r| r.1.rung == rung).count());
    println!("{label}: {} plans, rungs 1/2/3 = {rungs:?}", runs.len());
    runs
}
