//! `HPM_FLIGHT_DUMP` is the CI hook: when a driver errors or falls back
//! to the source with the variable set, the flight dump is written there
//! as JSONL so the workflow can upload it as an artifact. This lives in
//! its own test binary because environment variables are process-global.

use hpm_arch::Architecture;
use hpm_migrate::{run_migrating_resilient, PipelineConfig, RecoveryPolicy, Rung2Skip, Trigger};
use hpm_net::{FaultPlan, NetworkModel};
use hpm_workloads::TestPointer;

#[test]
fn driver_error_writes_the_dump_where_ci_expects_it() {
    let mut path = std::env::temp_dir();
    path.push(format!("hpm_flight_dump_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    std::env::set_var("HPM_FLIGHT_DUMP", &path);

    // A link dead from the first chunk: the destination verifies
    // nothing, so rung 2 has no journal and the run falls back.
    let run = run_migrating_resilient(
        TestPointer::new,
        Architecture::dec5000(),
        Architecture::sparc20(),
        NetworkModel::ethernet_10(),
        Trigger::AtPollCount(8),
        PipelineConfig {
            chunk_bytes: 65536,
            ..PipelineConfig::default()
        },
        FaultPlan {
            seed: 0xDEAD11,
            disconnect_at: Some(0),
            ..FaultPlan::none()
        },
        RecoveryPolicy,
    )
    .expect("a dead link resumes on the source");
    let resume = run.report.resume().expect("resilient runs carry stats");
    assert_eq!(resume.rung, 3, "{resume:?}");
    assert_eq!(resume.skip, Some(Rung2Skip::NoJournal));

    let body = std::fs::read_to_string(&path).expect("dump file written on driver error");
    std::env::remove_var("HPM_FLIGHT_DUMP");
    assert!(
        body.contains("\"kind\":\"fault.injected\",\"chunk\":0,\"note\":\"disconnect\""),
        "dump names the broken pipe:\n{body}"
    );
    for event in ["attempt.failed", "fallback.reached"] {
        let line = body
            .lines()
            .find(|l| l.contains(&format!("\"kind\":\"{event}\"")))
            .unwrap_or_else(|| panic!("dump carries {event}:\n{body}"));
        assert!(
            line.contains("peer disconnected"),
            "{event} carries the transport error: {line}"
        );
    }
    assert!(
        body.contains("\"track\":\"fault\"") && body.contains("\"track\":\"driver\""),
        "dump carries the per-component tracks:\n{body}"
    );
    for line in body.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "JSONL: every line is one object: {line}"
        );
    }
    let _ = std::fs::remove_file(&path);
}
