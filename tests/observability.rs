//! Cross-phase observability invariants.
//!
//! The collection and restoration sides of a migration walk the same MSR
//! graph, so their counters must agree exactly; the trace of a
//! deterministic workload must be identical (modulo timestamps) across
//! runs; and the Chrome trace-event export must be well-formed JSON.

use hpm_arch::Architecture;
use hpm_migrate::{run_migrating, Migration, MigrationRun, Transport, Trigger};
use hpm_net::NetworkModel;
use hpm_obs::{chrome_trace_json, EventLog, Level};
use hpm_workloads::{BitonicSort, Linpack, TestPointer};

fn migrate<P, F>(make: F, at: u64) -> MigrationRun
where
    P: hpm_migrate::MigratableProgram + Send,
    F: Fn() -> P,
{
    run_migrating(
        make,
        Architecture::dec5000(),
        Architecture::sparc20(),
        NetworkModel::ethernet_10(),
        Trigger::AtPollCount(at),
    )
    .expect("migration succeeds")
}

/// What collection wrote, restoration must read: same block count, same
/// pointer-tag breakdown, same payload bytes.
fn assert_collect_restore_parity(run: &MigrationRun, label: &str) {
    let c = &run.report.collect_stats;
    let r = &run.report.restore_stats;
    assert_eq!(c.blocks_saved, r.blocks_restored, "{label}: block count");
    assert_eq!(c.ptr_null, r.ptr_null, "{label}: TAG_PTR_NULL parity");
    assert_eq!(c.ptr_ref, r.ptr_ref, "{label}: TAG_PTR_REF parity");
    assert_eq!(c.ptr_new, r.ptr_new, "{label}: TAG_PTR_NEW parity");
    assert_eq!(c.bytes_out, r.bytes_in, "{label}: payload bytes");
    // The wire saw exactly one message: the framed image.
    assert_eq!(run.report.transfer.messages_sent, 1, "{label}");
    assert_eq!(
        run.report.transfer.bytes_sent, run.report.image_bytes,
        "{label}"
    );
}

#[test]
fn test_pointer_collect_restore_parity() {
    let run = migrate(TestPointer::new, 8);
    assert_collect_restore_parity(&run, "test_pointer");
    // The pointer workload exercises every stream tag.
    assert!(run.report.collect_stats.ptr_null > 0);
    assert!(run.report.collect_stats.ptr_ref > 0);
    assert!(run.report.collect_stats.ptr_new > 0);
}

#[test]
fn linpack_collect_restore_parity() {
    let run = migrate(|| Linpack::full(120), 60);
    assert_collect_restore_parity(&run, "linpack");
}

#[test]
fn bitonic_collect_restore_parity() {
    let run = migrate(|| BitonicSort::new(2_000), 1_000);
    assert_collect_restore_parity(&run, "bitonic");
}

fn traced_run() -> MigrationRun {
    let log = EventLog::new(Level::Detail);
    hpm_migrate::migrate(
        TestPointer::new,
        Architecture::dec5000(),
        Architecture::sparc20(),
        NetworkModel::ethernet_10(),
        Trigger::AtPollCount(8),
        &Migration {
            log: Some(&log),
            ..Migration::new(Transport::Whole)
        },
    )
    .expect("traced migration succeeds")
}

#[test]
fn traced_run_has_nested_phase_spans() {
    let run = traced_run();
    let log = run.report.log.expect("log attached");
    assert_eq!(log.dropped(), 0, "small workload must fit the ring buffer");
    // The collect phase contains MSRLT address searches; restoration ran.
    assert!(
        log.has_nested("collect", "msrlt.search"),
        "collect ∋ msrlt.search"
    );
    assert!(log.has_nested("tx", "net.send"), "tx ∋ net.send");
    assert!(log
        .spans()
        .iter()
        .any(|s| s.name == "restore" && s.end_ns != u64::MAX));
}

/// The dump is the event log and nothing else: every JSONL line is a
/// track's header or an event of the track whose header came last, and
/// the lines add up to the tracks and their events. The counters live in
/// the report's typed fields.
#[test]
fn jsonl_dump_is_track_headers_and_their_events_only() {
    let log = traced_run().report.log.expect("log attached");
    let text = log.to_jsonl();
    let mut track: Option<String> = None;
    for line in text.lines() {
        let (name, rest) = line
            .strip_prefix("{\"track\":\"")
            .and_then(|rest| rest.split_once('"'))
            .unwrap_or_else(|| panic!("not a track line: {line}"));
        if rest.starts_with(",\"events\":") {
            track = Some(name.to_string());
        } else {
            assert!(
                rest.starts_with(",\"seq\":"),
                "neither header nor event: {line}"
            );
            assert_eq!(
                Some(name),
                track.as_deref(),
                "event outside its track: {line}"
            );
        }
    }
    assert_eq!(text.lines().count(), log.tracks.len() + log.len());
}

#[test]
fn identical_runs_trace_identically() {
    let a = traced_run().report.log.unwrap();
    let b = traced_run().report.log.unwrap();
    assert_eq!(a.shape(), b.shape(), "trace shape must be deterministic");
    let names = |d: &hpm_obs::LogDump| d.tracks.iter().map(|t| t.name).collect::<Vec<_>>();
    assert_eq!(names(&a), names(&b));
}

#[test]
fn untraced_run_attaches_no_trace() {
    let run = migrate(TestPointer::new, 8);
    assert!(run.report.log.is_none());
}

/// Minimal string-aware JSON well-formedness check: brackets and braces
/// balance outside string literals, and the document is non-trivial.
fn assert_balanced_json(s: &str) {
    let (mut depth, mut in_str, mut esc) = (0i64, false, false);
    for c in s.chars() {
        if in_str {
            if esc {
                esc = false;
            } else if c == '\\' {
                esc = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' | '[' => depth += 1,
            '}' | ']' => {
                depth -= 1;
                assert!(depth >= 0, "unbalanced close");
            }
            _ => {}
        }
    }
    assert!(!in_str, "unterminated string");
    assert_eq!(depth, 0, "unbalanced JSON");
    assert!(s.len() > 2);
}

#[test]
fn chrome_export_is_wellformed_and_complete() {
    let run = traced_run();
    let log = run.report.log.unwrap();
    let json = chrome_trace_json(&log);
    assert_balanced_json(&json);
    for needle in [
        "\"traceEvents\"",
        "\"collect\"",
        "\"msrlt.search\"",
        "\"restore\"",
        "\"net.send\"",
    ] {
        assert!(json.contains(needle), "export missing {needle}");
    }
}
