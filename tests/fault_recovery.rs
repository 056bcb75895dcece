//! Seeded fault-injection soak: hundreds of [`FaultPlan`]s against the
//! resilient migration driver, across three paper workloads — each plan
//! run over both the stored (v2) and compressed (v3) wire.
//!
//! The contract under test is the robustness tentpole's acceptance bar:
//! every run either restores on the destination byte-identically (the
//! results match an unmigrated run) or falls back to a clean resume on
//! the source — **never** a wrong answer, never a hang. Rerunning any
//! seed reproduces the exact same [`RecoveryStats`].

use hpm::arch::Architecture;
use hpm::migrate::{
    run_migrating, run_migrating_resilient, run_straight, FallbackPolicy, MigratableProgram,
    PipelineConfig, RecoveryPolicy, RecoveryStats, Trigger,
};
use hpm::net::{FaultPlan, NetworkModel};
use hpm::workloads::{diff_results, BitonicSort, Linpack, TestPointer};
use std::time::Duration;

/// Small chunks so every plan sees plenty of frames to hurt.
fn soak_cfg() -> PipelineConfig {
    PipelineConfig {
        chunk_bytes: 256,
        pace: false,
        pace_scale: 0.0,
        ..PipelineConfig::default()
    }
}

/// `test_pointer`'s whole image is a few hundred bytes — two or three
/// of [`soak_cfg`]'s chunks: cut it small enough that a plan still has
/// frames to hurt.
fn tiny_image_cfg() -> PipelineConfig {
    PipelineConfig {
        chunk_bytes: 64,
        ..soak_cfg()
    }
}

/// Tight retry budget and backoff so dead-link plans fail over quickly.
fn soak_policy() -> RecoveryPolicy {
    RecoveryPolicy {
        max_retries: 4,
        backoff: Duration::from_millis(2),
        fallback: FallbackPolicy::SourceResume,
        resume: true,
    }
}

/// One resilient migration under `plan`; panics on driver error (the
/// driver must always terminate cleanly, whatever the plan does).
fn run_one<P: MigratableProgram + Send>(
    make: impl Fn() -> P,
    src: Architecture,
    dst: Architecture,
    trigger: u64,
    plan: FaultPlan,
    cfg: PipelineConfig,
) -> (Vec<(String, String)>, RecoveryStats) {
    let run = run_migrating_resilient(
        make,
        src,
        dst,
        NetworkModel::ethernet_10(),
        Trigger::AtPollCount(trigger),
        cfg,
        plan,
        soak_policy(),
    )
    .unwrap_or_else(|e| panic!("seed {:#x}: driver failed: {e}", plan.seed));
    let stats = *run.report.recovery().expect("resilient runs carry stats");
    (run.results, stats)
}

/// Sweep `seeds` plans over one workload inside a watchdog: the whole
/// sweep must finish in bounded time (no plan may hang the driver), every
/// answer must match the unmigrated run, and every ~25th seed is rerun to
/// prove its `RecoveryStats` reproduce exactly.
fn soak<P, F>(
    label: &'static str,
    make: F,
    src: Architecture,
    dst: Architecture,
    trigger: u64,
    seeds: u64,
    cfg: PipelineConfig,
) where
    P: MigratableProgram + Send,
    F: Fn() -> P + Send + 'static,
{
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut p = make();
        let (expect, _) = run_straight(&mut p, src.clone()).unwrap();
        let mut faulty_runs = 0u64;
        let mut fallbacks = 0u64;
        for i in 0..seeds {
            let plan = FaultPlan::from_seed(0x50AC_0000_0000_0000 | (label.len() as u64) << 32 | i);
            let (results, stats) = run_one(&make, src.clone(), dst.clone(), trigger, plan, cfg);
            assert!(
                diff_results(&expect, &results).is_none(),
                "{label} seed {:#x}: WRONG ANSWER (fallback={})",
                plan.seed,
                stats.fallback_taken
            );
            faulty_runs += (stats.faults_injected > 0) as u64;
            fallbacks += stats.fallback_taken as u64;
            if i % 25 == 0 {
                let (results2, stats2) =
                    run_one(&make, src.clone(), dst.clone(), trigger, plan, cfg);
                assert_eq!(
                    results2, results,
                    "{label} seed {:#x}: results drifted",
                    plan.seed
                );
                assert_eq!(
                    stats2, stats,
                    "{label} seed {:#x}: RecoveryStats not reproducible",
                    plan.seed
                );
            }
        }
        // The seed stream must actually exercise the machinery: most
        // plans inject something, and the 1-in-8 disconnect plans force
        // the source-resume path.
        assert!(
            faulty_runs > seeds / 2,
            "{label}: only {faulty_runs}/{seeds} plans injected faults"
        );
        assert!(
            fallbacks > 0,
            "{label}: no plan ever forced the source-resume fallback"
        );
        done_tx.send((faulty_runs, fallbacks)).unwrap();
    });
    let (faulty, fallbacks) = done_rx
        .recv_timeout(Duration::from_secs(300))
        .unwrap_or_else(|_| panic!("{label}: soak did not terminate in bounded time"));
    println!("{label}: {seeds} plans, {faulty} faulty, {fallbacks} fallbacks");
}

#[test]
fn soak_test_pointer() {
    soak(
        "test_pointer",
        TestPointer::new,
        Architecture::dec5000(),
        Architecture::sparc20(),
        8,
        100,
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
        100,
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
        100,
        soak_cfg(),
    );
}

// ---------------------------------------------------------------------
// The same 300 plans rerun over the compressed (v3) wire: identical
// labels keep the seed stream identical, so every fault that hurt a
// stored frame now lands on a compressed one — CRC checks, NACKs, and
// retransmits all run against token streams instead of raw payload.
// ---------------------------------------------------------------------

#[test]
fn soak_test_pointer_compressed() {
    soak(
        "test_pointer",
        TestPointer::new,
        Architecture::dec5000(),
        Architecture::sparc20(),
        8,
        100,
        tiny_image_cfg().compressed(),
    );
}

#[test]
fn soak_linpack_compressed() {
    soak(
        "linpack",
        || Linpack::truncated(120, 4),
        Architecture::ultra5(),
        Architecture::dec5000(),
        2,
        100,
        soak_cfg().compressed(),
    );
}

#[test]
fn soak_bitonic_compressed() {
    let n = 512u64;
    soak(
        "bitonic",
        move || BitonicSort::new(n),
        Architecture::ultra5(),
        Architecture::sparc20(),
        n,
        100,
        soak_cfg().compressed(),
    );
}

/// With no faults injected, the resilient driver is the paper's
/// stop-and-copy plus chunking and CRC/ack machinery: same results, same
/// image bytes, no recovery actions beyond routine acknowledgements.
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
        soak_policy(),
    )
    .unwrap();
    assert_eq!(resilient.results, whole.results);
    assert_eq!(resilient.report.image_bytes, whole.report.image_bytes);
    assert_eq!(resilient.report.memory_bytes, whole.report.memory_bytes);
    let r = resilient.report.recovery().unwrap();
    assert!(!r.fallback_taken);
    assert_eq!(r.retransmits, 0);
    assert_eq!(r.nacks_sent, 0);
    assert_eq!(r.faults_injected, 0);
}
