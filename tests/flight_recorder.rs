//! Event-log post-mortem acceptance: a forced migration failure must produce a
//! deterministic post-mortem naming the exact chunk, the fault and the
//! phase — byte-identical across reruns of the same fault plan — and the
//! success paths must carry their telemetry without perturbing results.

use hpm_arch::Architecture;
use hpm_migrate::{
    migrate, run_straight, Migration, MigrationRun, PipelineConfig, Rung2Skip, Transport, Trigger,
};
use hpm_net::{FaultPlan, NetworkModel};
use hpm_obs::{EventLog, Level, LogDump};
use hpm_workloads::{diff_results, TestPointer};

/// A plan that injects nothing except a pipe that breaks at the very
/// first frame: the destination verifies nothing, so there is no journal
/// for rung 2 and the run ends on the source (rung 3).
fn dead_link_plan() -> FaultPlan {
    FaultPlan {
        seed: 0xF11_6487,
        disconnect_at: Some(0),
        ..FaultPlan::none()
    }
}

/// Chunks larger than the whole TestPointer image: the payload is one
/// chunk behind the prefix.
fn big_chunk_cfg() -> PipelineConfig {
    PipelineConfig {
        chunk_bytes: 65536,
        ..PipelineConfig::default()
    }
}

fn run_doomed(log: &EventLog) -> MigrationRun {
    migrate(
        TestPointer::new,
        Architecture::dec5000(),
        Architecture::sparc20(),
        NetworkModel::ethernet_10(),
        Trigger::AtPollCount(8),
        &Migration {
            log: Some(log),
            ..Migration::new(Transport::Reliable(big_chunk_cfg(), dead_link_plan()))
        },
    )
    .expect("a dead link resumes on the source")
}

/// The note of the one `name` event on the driver track.
fn driver_note<'d>(dump: &'d LogDump, name: &str) -> &'d str {
    let events = dump.events_of(name);
    assert_eq!(events.len(), 1, "exactly one {name} event");
    assert_eq!(events[0].0, "driver");
    events[0].1.note.as_deref().unwrap_or("")
}

fn assert_dump_names_the_failure(dump: &LogDump) {
    // The exact chunk and the fault, from the injector's track.
    let injected = dump.events_of("fault.injected");
    assert_eq!(injected.len(), 1, "exactly one injected fault");
    let (track, ev) = injected[0];
    assert_eq!(track, "fault");
    assert_eq!(ev.args, [("chunk", 0)], "the frame the pipe broke at");
    assert_eq!(ev.note.as_deref(), Some("disconnect"));
    // The phase the failure happened in, from the driver track: collection
    // completed (a broken pipe never stops the collector), then the
    // attempt died in transit, rung 2 had nothing to resume from, and the
    // run fell back to the source — each step noting why.
    assert!(
        !dump.events_of("phase.collect").is_empty(),
        "driver track records the collect phase"
    );
    for name in ["attempt.failed", "fallback.reached"] {
        let note = driver_note(dump, name);
        assert!(
            note.starts_with("net: peer disconnected"),
            "{name} carries the transport error: {note}"
        );
    }
    assert_eq!(
        driver_note(dump, "resume.skipped"),
        Rung2Skip::NoJournal.to_string()
    );
}

#[test]
fn forced_failure_dump_is_deterministic_and_names_the_chunk() {
    let log_a = EventLog::new(Level::Protocol);
    let run_a = run_doomed(&log_a);
    let dump_a = log_a.dump();

    let log_b = EventLog::new(Level::Protocol);
    let run_b = run_doomed(&log_b);
    let dump_b = log_b.dump();

    let resume = run_a.report.resume().expect("resilient runs carry stats");
    assert_eq!(resume.rung, 3, "{resume:?}");
    assert_eq!(resume.skip, Some(Rung2Skip::NoJournal));
    assert_eq!(run_a.report.resume(), run_b.report.resume());
    assert_eq!(run_a.report.recovery(), run_b.report.recovery());

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
    let run = run_doomed(&log);
    let mut p = TestPointer::new();
    let (expect, _) = run_straight(&mut p, Architecture::dec5000()).unwrap();
    assert!(
        diff_results(&expect, &run.results).is_none(),
        "fallback still computes the right answer"
    );
    let dump = run.report.log.as_ref().expect("fallback attaches dump");
    assert_dump_names_the_failure(dump);
}

#[test]
fn disabled_recorder_stays_silent_and_changes_nothing() {
    let log = EventLog::new(Level::Off);
    let run = run_doomed(&log);
    let recorded = run_doomed(&EventLog::new(Level::Protocol));
    assert_eq!(run.results, recorded.results);
    assert_eq!(run.report.resume(), recorded.report.resume());
    assert_eq!(run.report.recovery(), recorded.report.recovery());
    assert!(run.report.log.is_none(), "an off log attaches no dump");
    let dump = log.dump();
    assert!(
        dump.tracks.iter().all(|t| t.events.is_empty()),
        "a disabled log records nothing"
    );
}
