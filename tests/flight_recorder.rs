//! Event-log post-mortem acceptance: a forced migration failure must produce a
//! deterministic post-mortem naming the exact chunk, attempt count, and
//! phase — byte-identical across reruns of the same fault-plan seed —
//! and the success paths must carry their telemetry without perturbing
//! results.

use hpm_arch::Architecture;
use hpm_migrate::{
    migrate, run_straight, FallbackPolicy, MigError, Migration, PipelineConfig, RecoveryPolicy,
    Transport, Trigger,
};
use hpm_net::{FaultPlan, NetworkModel};
use hpm_obs::{EventLog, Level, LogDump};
use hpm_workloads::{diff_results, TestPointer};
use std::time::Duration;

/// A plan that injects nothing except a dead forward path after the
/// first distinct chunk — every retry is doomed, so the sender must
/// exhaust its budget deterministically (ARQ runs on the modeled clock).
fn dead_link_plan() -> FaultPlan {
    FaultPlan {
        seed: 0xF11_6487,
        drop_per_mille: 0,
        corrupt_per_mille: 0,
        duplicate_per_mille: 0,
        reorder_per_mille: 0,
        delay_per_mille: 0,
        disconnect_at: Some(1),
        ..FaultPlan::none()
    }
}

/// Chunks larger than the whole TestPointer image: the collector never
/// blocks on the wire thread, so collection always runs to completion
/// and its track is a pure function of the workload.
fn big_chunk_cfg() -> PipelineConfig {
    PipelineConfig {
        chunk_bytes: 65536,
        pace: false,
        pace_scale: 0.0,
        ..PipelineConfig::default()
    }
}

fn run_doomed(log: &EventLog) -> MigError {
    migrate(
        TestPointer::new,
        Architecture::dec5000(),
        Architecture::sparc20(),
        NetworkModel::ethernet_10(),
        Trigger::AtPollCount(8),
        &Migration {
            log: Some(log),
            ..Migration::new(Transport::Reliable(
                big_chunk_cfg(),
                dead_link_plan(),
                RecoveryPolicy {
                    max_retries: 3,
                    backoff: Duration::from_millis(1),
                    fallback: FallbackPolicy::Fail,
                    // This test asserts rung-3 behavior; keep rung 2 out of play.
                    resume: false,
                },
            ))
        },
    )
    .expect_err("a dead link with Fail policy must error")
}

fn assert_dump_names_the_failure(dump: &LogDump) {
    // The exact chunk and attempt count, from the ARQ sender track.
    let exhausted = dump.events_of("retries.exhausted");
    assert_eq!(exhausted.len(), 1, "exactly one exhaustion event");
    let (track, ev) = exhausted[0];
    assert_eq!(track, "arq.tx");
    let arg = |k: &str| {
        ev.args
            .iter()
            .find(|(n, _)| *n == k)
            .unwrap_or_else(|| panic!("retries.exhausted missing arg {k}"))
            .1
    };
    assert_eq!(arg("chunk"), 1, "the black-holed chunk is named");
    assert_eq!(arg("attempts"), 4, "max_retries=3 means 4 attempts");
    // The phase the failure happened in, from the driver track: collection
    // completed (big chunks mean the collector never blocks on the wire),
    // then the attempt died in transit.
    assert!(
        !dump.events_of("phase.collect").is_empty(),
        "driver track records the collect phase"
    );
    let failed = dump.events_of("attempt.failed");
    assert_eq!(failed.len(), 1);
    assert_eq!(failed[0].0, "driver");
    let note = failed[0].1.note.as_deref().unwrap_or("");
    assert!(
        note.contains("retries exhausted"),
        "failure note carries the error: {note}"
    );
}

#[test]
fn forced_failure_dump_is_deterministic_and_names_the_chunk() {
    let log_a = EventLog::new(Level::Protocol);
    let err_a = run_doomed(&log_a);
    let dump_a = log_a.dump();

    let log_b = EventLog::new(Level::Protocol);
    let err_b = run_doomed(&log_b);
    let dump_b = log_b.dump();

    match &err_a {
        MigError::Net(m) => assert!(m.contains("retries exhausted"), "{m}"),
        other => panic!("expected Net error, got {other}"),
    }
    assert_eq!(err_a, err_b, "the failure itself is reproducible");

    assert_dump_names_the_failure(&dump_a);
    assert_eq!(
        dump_a.to_jsonl(),
        dump_b.to_jsonl(),
        "log dump must be byte-identical across reruns of one seed"
    );
}

#[test]
fn source_resume_fallback_attaches_the_dump_to_the_report() {
    let log = EventLog::new(Level::Protocol);
    let run = migrate(
        TestPointer::new,
        Architecture::dec5000(),
        Architecture::sparc20(),
        NetworkModel::ethernet_10(),
        Trigger::AtPollCount(8),
        &Migration {
            log: Some(&log),
            ..Migration::new(Transport::Reliable(
                big_chunk_cfg(),
                dead_link_plan(),
                RecoveryPolicy {
                    max_retries: 3,
                    backoff: Duration::from_millis(1),
                    fallback: FallbackPolicy::SourceResume,
                    // This test asserts rung-3 behavior; keep rung 2 out of play.
                    resume: false,
                },
            ))
        },
    )
    .expect("SourceResume turns the dead link into a local resume");

    let mut p = TestPointer::new();
    let (expect, _) = run_straight(&mut p, Architecture::dec5000()).unwrap();
    assert!(
        diff_results(&expect, &run.results).is_none(),
        "fallback still computes the right answer"
    );
    let recovery = run.report.recovery().expect("resilient runs carry stats");
    assert!(recovery.fallback_taken);
    let dump = run.report.log.as_ref().expect("fallback attaches dump");
    assert_dump_names_the_failure(dump);
}

#[test]
fn disabled_recorder_stays_silent_and_changes_nothing() {
    let log = EventLog::new(Level::Off);
    let err = run_doomed(&log);
    match err {
        MigError::Net(m) => assert!(m.contains("retries exhausted"), "{m}"),
        other => panic!("expected Net error, got {other}"),
    }
    let dump = log.dump();
    assert!(
        dump.tracks.iter().all(|t| t.events.is_empty()),
        "a disabled log records nothing"
    );
}
