//! The degradation ladder's seeded soak: hundreds of point-fault plans
//! against the resilient migration driver, across three paper workloads,
//! over a stream whose frames each travel stored or compressed.
//!
//! Even seeds draw pipe faults ([`FaultPlan::from_seed`]: one damaged
//! frame, or a broken pipe); odd seeds draw process faults
//! ([`FaultPlan::crash_from_seed`]: a destination killed mid-restore, a
//! source killed mid-collect, a tampered journal). The contract under
//! test: every run restores the answers of an unmigrated run, whichever
//! rung finished it — the first connection, a resume from the
//! destination's journal that re-receives no verified chunk, or a clean
//! resume on the source — never a wrong answer, never a hang; a tampered
//! journal is refused; rerunning a seed reproduces its `ResumeStats`,
//! its [`RecoveryStats`] and its event log byte for byte; and both frame
//! kinds cross under the faults.
//! The harness is `tests/common`, shared with the crash soak.

mod common;

use common::{soak_cfg, Sweep};
use hpm::arch::Architecture;
use hpm::migrate::{
    run_migrating, run_migrating_resilient, MigratableProgram, PipelineConfig, RecoveryPolicy,
    RecoveryStats, Trigger,
};
use hpm::net::{FaultPlan, NetworkModel};
use hpm::workloads::{BitonicSort, Linpack, TestPointer};

/// `test_pointer`'s whole image is a few hundred bytes — two or three
/// of [`soak_cfg`]'s chunks: cut it small enough that a plan still has
/// frames to land in.
fn tiny_image_cfg() -> PipelineConfig {
    PipelineConfig {
        chunk_bytes: 64,
        ..soak_cfg()
    }
}

/// The seed's plan: pipe faults on even seeds, process faults on odd.
fn plan_for(label: &str, i: u64) -> FaultPlan {
    let seed = 0x50AC_0000_0000_0000 | (label.len() as u64) << 32 | i;
    match i % 2 {
        0 => FaultPlan::from_seed(seed),
        _ => FaultPlan::crash_from_seed(seed),
    }
}

/// 100 plans over one workload, every tenth rerun; most of the pipe
/// faults drawn must land inside the stream, and the frames that crossed
/// must include both compressed and stored ones.
fn soak<P, F>(
    label: &'static str,
    make: F,
    src: Architecture,
    dst: Architecture,
    trigger: u64,
    cfg: PipelineConfig,
) where
    P: MigratableProgram + Send,
    F: Fn() -> P + Send + 'static,
{
    let sweep = Sweep {
        seeds: 100,
        plan: plan_for,
        rerun_every: 10,
    };
    let runs = common::soak(label, make, src, dst, trigger, cfg, sweep);
    let compressed: u64 = runs.iter().map(|r| r.3.chunks_compressed).sum();
    let frames: u64 = runs.iter().map(|r| r.3.messages_sent).sum();
    assert!(
        0 < compressed && compressed < frames,
        "{label}: {compressed} of {frames} frames crossed compressed"
    );
    let pipe = runs.iter().step_by(2);
    let fired = pipe
        .clone()
        .filter(|(_, resume, recovery, _)| recovery.faults_injected > 0 || resume.rung > 1)
        .count();
    assert!(
        fired > pipe.len() / 2,
        "{label}: only {fired}/{} pipe-fault plans fired",
        pipe.len()
    );
    println!(
        "{label}: {fired}/{} pipe-fault plans fired; {compressed} of {frames} frames compressed",
        pipe.len()
    );
}

#[test]
fn soak_test_pointer() {
    soak(
        "test_pointer",
        TestPointer::new,
        Architecture::dec5000(),
        Architecture::sparc20(),
        8,
        tiny_image_cfg(),
    );
}

#[test]
fn soak_linpack() {
    soak(
        "linpack",
        || Linpack::truncated(120, 4),
        Architecture::ultra5(),
        Architecture::dec5000(),
        2,
        soak_cfg(),
    );
}

#[test]
fn soak_bitonic() {
    let n = 512u64;
    soak(
        "bitonic",
        move || BitonicSort::new(n),
        Architecture::ultra5(),
        Architecture::sparc20(),
        n,
        soak_cfg(),
    );
}

/// With no faults injected, the resilient driver is the paper's
/// stop-and-copy plus chunking and a CRC per frame: same results, same
/// image bytes, and nothing on the wire but the frames.
#[test]
fn zero_fault_resilient_run_matches_pipelined() {
    let whole = run_migrating(
        TestPointer::new,
        Architecture::dec5000(),
        Architecture::sparc20(),
        NetworkModel::ethernet_10(),
        Trigger::AtPollCount(8),
    )
    .unwrap();
    let resilient = run_migrating_resilient(
        TestPointer::new,
        Architecture::dec5000(),
        Architecture::sparc20(),
        NetworkModel::ethernet_10(),
        Trigger::AtPollCount(8),
        soak_cfg(),
        FaultPlan::none(),
        RecoveryPolicy,
    )
    .unwrap();
    assert_eq!(resilient.results, whole.results);
    assert_eq!(resilient.report.image_bytes, whole.report.image_bytes);
    assert_eq!(resilient.report.memory_bytes, whole.report.memory_bytes);
    assert_eq!(resilient.report.resume().unwrap().rung, 1);
    let r = resilient.report.recovery().unwrap();
    assert_eq!(*r, RecoveryStats::default());
    let frames = resilient.report.pipeline().unwrap().chunks;
    assert_eq!(resilient.report.transfer.messages_sent, frames);
}
