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
    run_migrating, run_migrating_resilient, run_straight, MigratableProgram, PipelineConfig,
    RecoveryPolicy, RecoveryStats, Trigger,
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
    }
}

/// One resilient migration under `plan`; panics on driver error (the
/// driver must always terminate cleanly, whatever the plan does). Returns
/// the answers, the recovery counters and whether the run fell back to
/// the source.
fn run_one<P: MigratableProgram + Send>(
    make: impl Fn() -> P,
    src: Architecture,
    dst: Architecture,
    trigger: u64,
    plan: FaultPlan,
    cfg: PipelineConfig,
) -> (Vec<(String, String)>, RecoveryStats, bool) {
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
    let fell_back = run.report.resume().is_some_and(|r| r.fallback_taken());
    (run.results, stats, fell_back)
}

/// Sweep `seeds` plans over one workload inside a watchdog: the whole
/// sweep must finish in bounded time (no plan may hang the driver), every
/// answer must match the unmigrated run, and every ~25th seed is rerun to
/// prove its `RecoveryStats` and ladder outcome reproduce exactly.
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
            let (results, stats, fell_back) =
                run_one(&make, src.clone(), dst.clone(), trigger, plan, cfg);
            assert!(
                diff_results(&expect, &results).is_none(),
                "{label} seed {:#x}: WRONG ANSWER (fallback={fell_back})",
                plan.seed,
            );
            faulty_runs += (stats.faults_injected > 0) as u64;
            fallbacks += fell_back as u64;
            if i % 25 == 0 {
                let (results2, stats2, fell_back2) =
                    run_one(&make, src.clone(), dst.clone(), trigger, plan, cfg);
                assert_eq!(
                    results2, results,
                    "{label} seed {:#x}: results drifted",
                    plan.seed
                );
                assert_eq!(
                    (stats2, fell_back2),
                    (stats, fell_back),
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

/// test_pointer through the resilient driver on the §4.1 testbed, 64-byte
/// chunks, six retries 1 ms apart: answer checked, healed on the
/// destination (no source fallback), recovery counters out.
fn heals(plan: FaultPlan, expect: &[(String, String)]) -> RecoveryStats {
    let run = run_migrating_resilient(
        TestPointer::new,
        Architecture::dec5000(),
        Architecture::sparc20(),
        NetworkModel::ethernet_10(),
        Trigger::AtPollCount(8),
        tiny_image_cfg(),
        plan,
        RecoveryPolicy {
            max_retries: 6,
            backoff: Duration::from_millis(1),
        },
    )
    .unwrap_or_else(|e| panic!("seed {:#x}: driver failed: {e}", plan.seed));
    assert!(
        diff_results(expect, &run.results).is_none(),
        "seed {:#x}: wrong answer",
        plan.seed
    );
    let resume = run.report.resume().expect("resilient runs carry stats");
    assert!(
        !resume.fallback_taken(),
        "seed {:#x}: fell back to the source",
        plan.seed
    );
    *run.report.recovery().expect("resilient runs carry stats")
}

fn test_pointer_answers() -> Vec<(String, String)> {
    run_straight(&mut TestPointer::new(), Architecture::dec5000())
        .unwrap()
        .0
}

/// Three fixed full `FaultPlan::from_seed` schedules, two lossy and one
/// that severs the link mid-stream: each heals on the destination, the
/// severed one through a journal resume, with no source fallback.
#[test]
fn fixed_soak_seeds_heal_without_fallback() {
    let expect = test_pointer_answers();
    let mut severed = 0;
    for seed in [
        0x50AC_0000_0000_0001,
        0x50AC_0000_0000_0008,
        0x50AC_0000_0000_0018,
    ] {
        let plan = FaultPlan::from_seed(seed);
        severed += plan.disconnect_at.is_some() as u32;
        heals(plan, &expect);
    }
    assert_eq!(severed, 1, "one seed must cut the link");
}

/// Uniform drop, corrupt and duplicate rates from 0 to 120 ‰ (reorder and
/// delay at half the rate), eight seeds each: ARQ absorbs every one of
/// them without falling back to the source.
#[test]
fn uniform_fault_rates_never_fall_back() {
    let expect = test_pointer_answers();
    let mut injected = 0;
    for rate in [0u16, 15, 30, 60, 120] {
        for i in 0..8 {
            let plan = FaultPlan {
                seed: 0xFA17_0000_0000_0000 | (rate as u64) << 32 | i,
                drop_per_mille: rate,
                corrupt_per_mille: rate,
                duplicate_per_mille: rate,
                reorder_per_mille: rate / 2,
                delay_per_mille: rate / 2,
                disconnect_at: None,
                ..FaultPlan::none()
            };
            injected += heals(plan, &expect).faults_injected;
        }
    }
    assert!(injected > 0, "the sweep injected no fault");
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
    assert_eq!(resilient.report.resume().unwrap().rung, 1);
    let r = resilient.report.recovery().unwrap();
    assert_eq!(r.retransmits, 0);
    assert_eq!(r.nacks_sent, 0);
    assert_eq!(r.faults_injected, 0);
}
