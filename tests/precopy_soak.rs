//! Pre-copy fault soak: 100 seeded fault plans over the delta rounds.
//!
//! Each seed derives a pipe-fault plan (one damaged frame, or a broken
//! pipe, per connection — never a process crash: the pre-copy protocol
//! needs both ends alive every round) and drives a full iterative
//! migration through the chunk stream, where every round's connection
//! that the fault ends is redialled once. Every answer is diffed against
//! the unmigrated run, per-round byte identity must hold, and periodic
//! seeds are re-run to prove the stats reproduce exactly.

use std::time::Duration;

use hpm_arch::Architecture;
use hpm_migrate::{
    migrate, run_straight, Migration, MigrationRun, PipelineConfig, PrecopyConfig, PrecopyStats,
    Transport, Trigger,
};
use hpm_net::{FaultPlan, NetworkModel};
use hpm_workloads::{diff_results, BitonicSort};

const N: u64 = 1_200;
const SEEDS: u64 = 100;

/// A live-link plan: the seed's pipe faults. Process crashes and
/// journal tampering belong to the ladder soak, not the pre-copy rounds.
fn live_plan(seed: u64) -> FaultPlan {
    FaultPlan::from_seed(seed)
}

/// Tuned so the freeze genuinely happens: the workload polls N times in
/// total, so the trigger (N/4 = 300) plus the round budget (3 × 200)
/// must stay inside it or every seed degenerates to completed-on-source.
fn precopy_cfg() -> PrecopyConfig {
    PrecopyConfig {
        round_polls: 200,
        max_rounds: 3,
        dirty_threshold: 0.02,
        ..PrecopyConfig::default()
    }
}

fn stats(run: &MigrationRun) -> &PrecopyStats {
    run.report
        .precopy
        .as_ref()
        .expect("a pre-copy policy reports per-round stats")
}

fn run_one(seed: u64) -> MigrationRun {
    migrate(
        || BitonicSort::new(N),
        Architecture::dec5000(),
        Architecture::x86_64_sim(),
        NetworkModel::ethernet_10(),
        Trigger::AtPollCount(N / 4),
        &Migration {
            precopy: Some(precopy_cfg()),
            ..Migration::new(Transport::Reliable(
                PipelineConfig {
                    // Small against the image and its per-round deltas,
                    // so every round has frames for a plan to hurt.
                    chunk_bytes: 1024,
                    ..PipelineConfig::default()
                },
                live_plan(seed),
            ))
        },
    )
    .unwrap_or_else(|e| panic!("seed {seed:#x}: pre-copy driver failed: {e}"))
}

#[test]
fn soak_precopy_bitonic_over_faulty_links() {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let (expect, _) = run_straight(&mut BitonicSort::new(N), Architecture::dec5000()).unwrap();
        let mut faulty_runs = 0u64;
        let mut total_faults = 0u64;
        for i in 0..SEEDS {
            let seed = 0x40E7_0000_0000_0000 | i;
            let run = run_one(seed);
            assert!(
                diff_results(&expect, &run.results).is_none(),
                "seed {seed:#x}: WRONG ANSWER after pre-copy under faults"
            );
            assert!(
                stats(&run).identity_ok,
                "seed {seed:#x}: a round's reconstructed image diverged"
            );
            assert!(
                !stats(&run).completed_on_source,
                "seed {seed:#x}: no freeze happened — the soak is not \
                 exercising the delta rounds"
            );
            assert_eq!(
                stats(&run).fallbacks,
                0,
                "seed {seed:#x}: a redialled round must arrive whole; a \
                 digest refusal here means corruption leaked through"
            );
            let faults = run
                .report
                .recovery()
                .expect("the chunk stream reports fault counters");
            faulty_runs += (faults.faults_injected > 0) as u64;
            total_faults += faults.faults_injected;
            if i % 25 == 0 {
                let rerun = run_one(seed);
                assert_eq!(
                    rerun.results, run.results,
                    "seed {seed:#x}: results drifted between identical runs"
                );
                assert_eq!(
                    stats(&rerun).bytes_per_round,
                    stats(&run).bytes_per_round,
                    "seed {seed:#x}: wire bytes not reproducible"
                );
            }
        }
        assert!(
            faulty_runs > SEEDS / 2,
            "only {faulty_runs}/{SEEDS} plans injected faults — weak sweep"
        );
        done_tx.send((faulty_runs, total_faults)).unwrap();
    });
    let (faulty, injected) = done_rx
        .recv_timeout(Duration::from_secs(480))
        .unwrap_or_else(|_| panic!("pre-copy soak did not terminate in bounded time"));
    println!("precopy soak: {SEEDS} plans, {faulty} faulty, {injected} fault events");
}
