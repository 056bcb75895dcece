//! Model-checker gate: the exhaustive protocol suite must hold with
//! zero violations and the seeded double release must be *caught*, with
//! a replayable counterexample.

use hpm_lint::LintCode;
use hpm_model::{
    explore_proto, parse_trace, proto_trace_to_jsonl, replay_trace, report_to_lint, run_all,
    ProtoScenario, TraceFile,
};

#[test]
fn full_suite_has_zero_violations_and_catches_the_seeded_race() {
    let reports = run_all();
    assert_eq!(reports.len(), 4, "3 holding + 1 seeded protocol scenario");
    assert_eq!(
        reports.iter().filter(|r| r.expected_catch).count(),
        1,
        "the suite keeps one detection-power row"
    );
    let total: u32 = reports.iter().map(|r| r.violations()).sum();
    let detail: Vec<String> = reports
        .iter()
        .map(|r| format!("{}: {}", r.scenario, r.detail))
        .collect();
    assert_eq!(total, 0, "model-check violations: {detail:#?}");
    for r in &reports {
        assert!(!r.budget_exhausted, "{} exhausted its budget", r.scenario);
        assert!(
            r.states > 0 && r.interleavings > 0,
            "{} explored nothing",
            r.scenario
        );
        if r.expected_catch {
            assert!(r.caught, "{} seeded race was not caught", r.scenario);
            assert!(
                r.trace_jsonl.is_some(),
                "{} caught without a counterexample trace",
                r.scenario
            );
        }
    }
}

/// The `hpm-model` binary exits on [`hpm_model::ModelCheckReport::passes`]:
/// an exhausted search budget fails it as a violation does, because a
/// partial exploration proves nothing.
#[test]
fn an_exhausted_budget_fails_the_gate() {
    let mut reports = run_all();
    assert!(reports.iter().all(|r| r.passes()), "{reports:#?}");
    reports[0].budget_exhausted = true;
    assert!(!reports[0].passes(), "an incomplete search passed the gate");
}

#[test]
fn schedule_trace_is_refused_by_name_not_replayed() {
    // Witnesses of the deleted interleaving explorer may still be lying
    // around: both entry points must name the kind instead of panicking.
    let header =
        "{\"scenario\":\"claim_race_racy\",\"kind\":\"schedule\",\"code\":\"HPM045\",\"message\":\"m\"}\n\
         {\"schedule\":[0,1]}\n";
    let err = parse_trace(header).unwrap_err();
    assert!(err.contains("\"schedule\""), "{err}");
    let tf = TraceFile {
        scenario: "claim_race_racy".into(),
        kind: "schedule".into(),
        code: "HPM045".into(),
        message: "m".into(),
        events: Vec::new(),
    };
    let err = replay_trace(&tf).unwrap_err();
    assert!(err.contains("\"schedule\""), "{err}");
}

#[test]
fn protocol_checker_detects_a_seeded_double_release() {
    let sc = ProtoScenario::seeded_double_release();
    let outcome = explore_proto(&sc);
    let v = outcome
        .violation
        .expect("seeded dup-guard removal must be caught");
    assert_eq!(v.code, LintCode::ModelDoubleRelease);
    assert!(!v.trace.is_empty(), "violation must carry an event path");
    // The recorded event path replays to the same violation.
    let replayed = hpm_model::replay_proto(&sc, &v.trace).expect("event path replays");
    let (code, _msg) = replayed.expect("replay ends in the violation");
    assert_eq!(code, LintCode::ModelDoubleRelease);
    // So does its JSONL witness, through `hpm-model --replay`'s path.
    let tf = parse_trace(&proto_trace_to_jsonl(sc.name, &v)).expect("trace parses");
    let out = replay_trace(&tf).expect("trace replays");
    assert!(out.reproduced, "replay must reproduce the recorded HPM042");
}

#[test]
fn passing_suite_folds_into_an_empty_lint_report() {
    let reports = run_all();
    let lint = report_to_lint(&reports);
    assert!(
        lint.diagnostics().is_empty(),
        "clean suite must produce no diagnostics: {:?}",
        lint.diagnostics()
    );
}

#[test]
fn failing_report_maps_to_its_hpm_code() {
    let mut reports = run_all();
    reports[0]
        .findings
        .push((LintCode::ModelWindowOverflow, "synthetic".into()));
    let lint = report_to_lint(&reports);
    assert!(lint.has_code(LintCode::ModelWindowOverflow));
    assert_eq!(lint.diagnostics().len(), 1);
    assert_eq!(lint.diagnostics()[0].code.code(), "HPM041");

    // A wrong delivery folds the same way, as an error.
    reports[0].findings[0].0 = LintCode::ModelWrongDelivery;
    let lint = report_to_lint(&reports);
    assert_eq!(lint.diagnostics()[0].code.code(), "HPM048");
    assert_eq!(lint.diagnostics()[0].severity, hpm_lint::Severity::Error);
}
