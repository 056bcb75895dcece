//! Composition of the one migration engine: every transport × pre-copy
//! cell of the policy, on the paper's three workloads and three
//! architecture pairs, must compute the unmigrated answers from the same
//! image. Seeded — no wall clock is read.
//!
//! "The same image" is checked from outside the engine: the image and
//! payload sizes, the collection counters and the restoration counters
//! (blocks, scalars, every pointer tag, bytes consumed) of every cell
//! equal those of the whole-buffer cell and the size of the reference
//! image frozen by hand; under pre-copy the engine itself compares the
//! destination's reconstructed image with the source's byte for byte
//! every round (`identity_ok`).

use hpm_arch::Architecture;
use hpm_core::CollectStats;
use hpm_migrate::{
    migrate, run_migrating, run_straight, run_to_migration, MigratableProgram, Migration,
    MigrationRun, PipelineConfig, PrecopyConfig, Transport, Trigger,
};
use hpm_net::{FaultPlan, NetworkModel};
use hpm_workloads::{diff_results, BitonicSort, Linpack, TestPointer};

const BITONIC_N: u64 = 1_200;

fn pairs() -> [(Architecture, Architecture); 3] {
    [
        (Architecture::dec5000(), Architecture::sparc20()),
        (Architecture::ultra5(), Architecture::ultra5()),
        (Architecture::x86_64_sim(), Architecture::sparc20()),
    ]
}

fn wire() -> PipelineConfig {
    PipelineConfig {
        chunk_bytes: 512,
        ..PipelineConfig::default()
    }
}

/// The transports of the sweep.
fn transports() -> [(&'static str, Transport); 2] {
    [
        ("whole", Transport::Whole),
        ("reliable", Transport::Reliable(wire(), FaultPlan::none())),
    ]
}

/// Sized so a polling-in-`main` workload really freezes a second time:
/// trigger + `max_rounds` × `round_polls` stays inside bitonic's N polls.
fn precopy() -> PrecopyConfig {
    PrecopyConfig {
        round_polls: 200,
        max_rounds: 3,
        dirty_threshold: 0.02,
        tamper_base_at_round: None,
    }
}

/// What every cell of one (workload, pair) row must agree on (how many
/// chunks the collector flushed is the one counter that is the wire's).
fn fingerprint(run: &MigrationRun) -> impl PartialEq + std::fmt::Debug {
    let r = &run.report;
    let collected = CollectStats {
        chunks_flushed: 0,
        ..r.collect_stats
    };
    (
        r.image_bytes,
        r.memory_bytes,
        r.chain_depth,
        collected,
        r.restore_stats,
    )
}

/// Sweep one workload over every pair and policy cell.
/// `freezes_again`: the workload polls in its outermost frame, so
/// pre-copy rounds genuinely run (the others complete on the source
/// after round 0 — still a valid outcome, still checked).
fn sweep<P: MigratableProgram + Send>(
    label: &str,
    make: impl Fn() -> P + Copy,
    trigger: Trigger,
    freezes_again: bool,
) {
    for (src, dst) in pairs() {
        let row = format!("{label} {}->{}", src.name, dst.name);
        let (expect, _) = run_straight(&mut make(), src.clone()).expect("straight run");
        let reference = run_to_migration(&mut make(), src.clone(), trigger.clone())
            .and_then(|mut frozen| frozen.to_image())
            .expect("reference image");

        let go = |transport, precopy| {
            let policy = Migration {
                precopy,
                ..Migration::new(transport)
            };
            let link = NetworkModel::ethernet_100();
            migrate(
                make,
                src.clone(),
                dst.clone(),
                link,
                trigger.clone(),
                &policy,
            )
        };

        // --- stop and copy: every transport restores from one image ---
        let plain = run_migrating(
            make,
            src.clone(),
            dst.clone(),
            NetworkModel::ethernet_100(),
            trigger.clone(),
        )
        .expect("run_migrating");
        let mut whole = None;
        for (name, transport) in transports() {
            let cell = format!("{row} [{name}]");
            let run = go(transport, None).unwrap_or_else(|e| panic!("{cell}: {e}"));
            assert!(
                diff_results(&expect, &run.results).is_none(),
                "{cell}: answers"
            );
            assert_eq!(run.report.image_bytes, reference.len() as u64, "{cell}");
            assert_eq!(
                run.report.restore_stats.bytes_in, run.report.memory_bytes,
                "{cell}: the destination consumed exactly the payload"
            );
            if matches!(transport, Transport::Whole) {
                // The policy form of `run_migrating` *is* `run_migrating`.
                assert_eq!(
                    run.report.transfer.bytes_sent,
                    plain.report.transfer.bytes_sent
                );
                assert_eq!(run.report.transfer.messages_sent, 1, "{cell}");
                assert_eq!(fingerprint(&run), fingerprint(&plain), "{cell}");
                assert!(run.report.pipeline().is_none() && run.report.recovery().is_none());
            } else {
                assert_eq!(
                    run.report.transfer.raw_payload_bytes, run.report.image_bytes,
                    "{cell}: the chunk stream carried the image, nothing else"
                );
                assert!(run.report.pipeline().is_some(), "{cell}");
                assert!(run.report.recovery().is_some(), "{cell}");
                assert_eq!(run.report.resume().map(|r| r.rung), Some(1), "{cell}");
            }
            let whole = whole.get_or_insert_with(|| fingerprint(&run));
            assert_eq!(
                &fingerprint(&run),
                &*whole,
                "{cell}: image diverged from [whole]"
            );
        }

        // --- pre-copy: the same rounds over every transport ---
        let mut first = None;
        for (name, transport) in transports() {
            let cell = format!("{row} [{name} + precopy]");
            let run = go(transport, Some(precopy())).unwrap_or_else(|e| panic!("{cell}: {e}"));
            assert!(
                diff_results(&expect, &run.results).is_none(),
                "{cell}: answers"
            );
            let stats = run.report.precopy.as_ref().expect("pre-copy stats");
            assert!(stats.identity_ok, "{cell}: a round's image diverged");
            assert_eq!(stats.fallbacks, 0, "{cell}");
            assert_eq!(stats.completed_on_source, !freezes_again, "{cell}");
            assert_eq!(stats.full_bytes, reference.len() as u64, "{cell}");
            if freezes_again {
                assert!(stats.rounds >= 1 && stats.freeze_bytes > 0, "{cell}");
            }
            assert!(
                run.report.pipeline().is_none(),
                "{cell}: rounds ship whole frames"
            );
            // The frames are a function of the program, not of the wire.
            let (frames, results) =
                first.get_or_insert_with(|| (stats.bytes_per_round.clone(), run.results.clone()));
            assert_eq!(&stats.bytes_per_round, frames, "{cell}: frame sizes");
            assert_eq!(&run.results, results, "{cell}");
        }
    }
}

#[test]
fn test_pointer_composes() {
    sweep(
        "test_pointer",
        TestPointer::new,
        Trigger::AtPollCount(8),
        false,
    );
}

#[test]
fn bitonic_composes() {
    let trigger = Trigger::AtPollCount(BITONIC_N / 4);
    sweep("bitonic", || BitonicSort::new(BITONIC_N), trigger, true);
}

#[test]
fn linpack_composes() {
    sweep(
        "linpack",
        || Linpack::truncated(60, 4),
        Trigger::AtPollCount(2),
        false,
    );
}

/// Pre-copy + chunked over a pipe that damages a frame, or breaks: every
/// round's connection takes the fault and is redialled once, its faults
/// spent, so each frame still arrives whole. The rounds' frames cross
/// as both kinds, compressed and stored, each as the coder decides.
#[test]
fn precopy_over_a_lossy_reliable_link_under_both_codecs() {
    let (src, dst) = (Architecture::dec5000(), Architecture::x86_64_sim());
    let (expect, _) = run_straight(&mut BitonicSort::new(BITONIC_N), src.clone()).unwrap();
    let damaged = FaultPlan {
        seed: 0x0E61_0001,
        corrupt_at: Some(2),
        ..FaultPlan::none()
    };
    let broken = FaultPlan {
        disconnect_at: Some(1),
        ..FaultPlan::none()
    };
    for plan in [damaged, broken] {
        let go = || {
            let transport = Transport::Reliable(wire(), plan);
            migrate(
                || BitonicSort::new(BITONIC_N),
                src.clone(),
                dst.clone(),
                NetworkModel::ethernet_10(),
                Trigger::AtPollCount(BITONIC_N / 4),
                &Migration {
                    precopy: Some(precopy()),
                    ..Migration::new(transport)
                },
            )
            .unwrap_or_else(|e| panic!("{plan:?}: {e}"))
        };
        let run = go();
        assert!(
            diff_results(&expect, &run.results).is_none(),
            "{plan:?}: answers"
        );
        let stats = run.report.precopy.as_ref().expect("pre-copy stats");
        assert!(stats.identity_ok && !stats.completed_on_source, "{plan:?}");
        assert_eq!(
            stats.fallbacks, 0,
            "{plan:?}: no damaged frame may reach a delta"
        );
        let recovery = run.report.recovery().expect("reliable runs carry stats");
        assert!(
            recovery.faults_injected > 0,
            "{plan:?}: the plan injected nothing: {recovery:?}"
        );
        let t = &run.report.transfer;
        assert!(
            0 < t.chunks_compressed && t.chunks_compressed < t.messages_sent,
            "{plan:?}: {} of {} frames compressed",
            t.chunks_compressed,
            t.messages_sent
        );
        // Seeded: a rerun reproduces the rounds and the recovery exactly.
        let again = go();
        let again_stats = again.report.precopy.as_ref().unwrap();
        assert_eq!(again_stats.bytes_per_round, stats.bytes_per_round);
        assert_eq!(again.report.recovery(), run.report.recovery());
        assert_eq!(again.results, run.results);
    }
}
