//! End-to-end pre-copy delta migration: correctness of the iterative
//! rounds, the convergence freeze, the digest-refusal fallback ladder,
//! and composition with the faulty-link ARQ stack.

use hpm_arch::Architecture;
use hpm_migrate::{
    migrate, run_straight, Migration, MigrationRun, PipelineConfig, PrecopyConfig, PrecopyStats,
    RecoveryPolicy, Transport, Trigger,
};
use hpm_net::{FaultPlan, NetworkModel};
use hpm_workloads::{diff_results, BitonicSort, TestPointer};

// Pre-copy rounds need a workload whose poll-points live in the
// *outermost* frame: after a mid-run resume, polls in inner frames are
// inert until every outer frame has restored, so a program like
// `TestPointer` (polling only inside `build_tree`) can never freeze a
// second time. `BitonicSort` polls in `main` — the canonical iterative
// pre-copy workload.
fn bitonic_cfg() -> PrecopyConfig {
    PrecopyConfig {
        round_polls: 300,
        max_rounds: 3,
        dirty_threshold: 0.01,
        ..PrecopyConfig::default()
    }
}

const N: u64 = 2_000;

fn stats(run: &MigrationRun) -> &PrecopyStats {
    run.report
        .precopy
        .as_ref()
        .expect("a pre-copy policy reports per-round stats")
}

#[test]
fn precopy_bitonic_matches_straight_run_heterogeneous() {
    let (expected, _) =
        run_straight(&mut BitonicSort::new(N), Architecture::dec5000()).expect("straight run");
    for (src, dst) in [
        (Architecture::dec5000(), Architecture::x86_64_sim()),
        (Architecture::sparc20(), Architecture::ultra5()),
        (Architecture::x86_64_sim(), Architecture::dec5000()),
    ] {
        let run = migrate(
            || BitonicSort::new(N),
            src.clone(),
            dst.clone(),
            NetworkModel::ethernet_100(),
            Trigger::AtPollCount(N / 4),
            &Migration {
                precopy: Some(bitonic_cfg()),
                ..Migration::new(Transport::Whole)
            },
        )
        .expect("pre-copy migration");
        assert!(
            diff_results(&expected, &run.results).is_none(),
            "{} -> {}: answers diverged",
            src.name,
            dst.name
        );
        assert!(stats(&run).identity_ok, "per-round byte identity violated");
        assert_eq!(stats(&run).fallbacks, 0, "unexpected full-image fallback");
        assert!(!stats(&run).completed_on_source);
        assert!(stats(&run).rounds >= 1);
        assert_eq!(
            stats(&run).bytes_per_round.len() as u32,
            stats(&run).rounds + 1,
            "one entry per shipped round (round 0 included)"
        );
    }
}

#[test]
fn precopy_bitonic_converges_with_small_freeze() {
    let n = 4_000;
    let (expected, _) =
        run_straight(&mut BitonicSort::new(n), Architecture::ultra5()).expect("straight run");
    // Bitonic inserts for its whole life, so the freeze comes from the
    // round cap — the round budget must stay inside the n total polls
    // or the run silently completes on the source and `freeze_bytes`
    // is a vacuous 0.
    let run = migrate(
        || BitonicSort::new(n),
        Architecture::ultra5(),
        Architecture::sparc20(),
        NetworkModel::ethernet_100(),
        Trigger::AtPollCount(n / 4),
        &Migration {
            precopy: Some(PrecopyConfig {
                round_polls: 150,
                max_rounds: 4,
                dirty_threshold: 0.05,
                ..PrecopyConfig::default()
            }),
            ..Migration::new(Transport::Whole)
        },
    )
    .expect("pre-copy migration");
    assert!(
        diff_results(&expected, &run.results).is_none(),
        "answers diverged"
    );
    assert!(stats(&run).identity_ok);
    assert_eq!(stats(&run).fallbacks, 0);
    assert!(
        !stats(&run).completed_on_source,
        "no freeze happened — the convergence claim below would be vacuous"
    );
    assert!(stats(&run).freeze_bytes > 0);
    // The whole point of pre-copy: the frozen leg ships far less than
    // the full image round 0 shipped.
    assert!(
        stats(&run).freeze_bytes * 4 <= stats(&run).full_bytes,
        "freeze shipped {} of a {}-byte image",
        stats(&run).freeze_bytes,
        stats(&run).full_bytes
    );
}

#[test]
fn tampered_base_forces_clean_full_image_fallback() {
    let (expected, _) =
        run_straight(&mut BitonicSort::new(N), Architecture::dec5000()).expect("straight run");
    let run = migrate(
        || BitonicSort::new(N),
        Architecture::dec5000(),
        Architecture::ultra5(),
        NetworkModel::ethernet_100(),
        Trigger::AtPollCount(N / 4),
        &Migration {
            precopy: Some(PrecopyConfig {
                tamper_base_at_round: Some(1),
                ..bitonic_cfg()
            }),
            ..Migration::new(Transport::Whole)
        },
    )
    .expect("pre-copy migration survives a rotten base");
    assert_eq!(
        stats(&run).fallbacks,
        1,
        "the rotten base must refuse exactly once"
    );
    assert!(
        stats(&run).identity_ok,
        "fallback must restore byte identity"
    );
    assert!(
        diff_results(&expected, &run.results).is_none(),
        "answers diverged after fallback"
    );
}

#[test]
fn program_outrunning_the_rounds_reports_source_results() {
    let (expected, _) =
        run_straight(&mut TestPointer::new(), Architecture::dec5000()).expect("straight run");
    let run = migrate(
        TestPointer::new,
        Architecture::dec5000(),
        Architecture::ultra5(),
        NetworkModel::ethernet_100(),
        Trigger::AtPollCount(8),
        &Migration {
            precopy: Some(PrecopyConfig {
                round_polls: 1_000_000,
                ..PrecopyConfig::default()
            }),
            ..Migration::new(Transport::Whole)
        },
    )
    .expect("pre-copy with an unreachable round trigger");
    assert!(stats(&run).completed_on_source);
    assert!(diff_results(&expected, &run.results).is_none());
    assert_eq!(stats(&run).rounds, 0, "no delta round completed");
}

#[test]
fn precopy_over_faulty_arq_link_roundtrips() {
    let (expected, _) =
        run_straight(&mut BitonicSort::new(N), Architecture::sparc20()).expect("straight run");
    let mut plan = FaultPlan::from_seed(0x9E37_79B9);
    // Pre-copy needs a live link across every round: no permanent
    // disconnects, no process crashes.
    plan.disconnect_at = None;
    plan.dst_crash_at = None;
    plan.src_crash_at = None;
    let run = migrate(
        || BitonicSort::new(N),
        Architecture::sparc20(),
        Architecture::x86_64_sim(),
        NetworkModel::ethernet_10(),
        Trigger::AtPollCount(N / 4),
        &Migration {
            precopy: Some(bitonic_cfg()),
            ..Migration::new(Transport::Reliable(
                PipelineConfig {
                    chunk_bytes: 4096,
                    pace: false,
                    ..PipelineConfig::default().compressed()
                },
                plan,
                RecoveryPolicy::default(),
            ))
        },
    )
    .expect("pre-copy over faulty link");
    assert!(
        diff_results(&expected, &run.results).is_none(),
        "answers diverged"
    );
    assert!(stats(&run).identity_ok);
    let faults = run
        .report
        .recovery()
        .expect("ARQ path reports fault counters");
    assert!(
        faults.faults_injected > 0,
        "seed injected nothing — weak test"
    );
}
