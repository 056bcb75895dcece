//! # hpm-model — exhaustive protocol model checking
//!
//! The wire protocol — the chunk stream's sender and receiver plus the
//! resume handshake — must be correct under *every* sequence of pipe
//! faults and destination deaths, not just the seeded schedules the
//! fault injector happens to draw. Seeded testing can only sample that
//! space; [`proto`] exhausts it by BFS with state dedup over the product
//! of the *production* protocol cores (`hpm_net::{SenderCore,
//! ReceiverCore}`, the code the threaded endpoints run) and the real
//! frame bytes in an ordered pipe that can deliver, damage or break.
//!
//! Findings map to the stable `HPM040`, `HPM042`–`HPM044`, `HPM047` and
//! `HPM048` diagnostics in [`hpm_lint`], and counterexamples serialize to
//! replayable JSONL ([`trace`]); `hpm-model --replay <file>` re-executes
//! a witness. The suite runs in CI (the `hpm-model` binary and
//! `tests/model_gate.rs`), which fails on any violation and on any
//! exhausted search budget, and one deliberately broken
//! scenario — the production receiver wrapped so it never checks a
//! frame's CRC — must be caught every run, proving the checker can still
//! see a damaged frame reach the restorer.

pub mod proto;
pub mod trace;

pub use proto::{explore_proto, replay_proto, ProtoOutcome, ProtoScenario, ProtoViolation};
pub use trace::{parse_trace, proto_trace_to_jsonl, TraceFile};

use hpm_lint::{Diagnostic, LintCode, Report};

/// Outcome of model-checking one scenario, in bench/CI-ready form.
#[derive(Debug, Clone)]
pub struct ModelCheckReport {
    /// Scenario name.
    pub scenario: String,
    /// Always `"protocol"` (the product-state BFS).
    pub kind: &'static str,
    /// Distinct product states visited.
    pub states: u64,
    /// Transitions explored.
    pub interleavings: u64,
    /// Work avoided: deduplicated transitions.
    pub reductions: u64,
    /// This scenario carries a seeded bug the checker *must* catch.
    pub expected_catch: bool,
    /// The seeded bug was caught (always false for unseeded scenarios).
    pub caught: bool,
    /// Unexpected problems: real violations, or a missed seeded catch.
    /// Zero-tolerance in the gate ([`ModelCheckReport::passes`]).
    pub findings: Vec<(LintCode, String)>,
    /// The search budget stopped exploration early (HPM047, warning).
    pub budget_exhausted: bool,
    /// Counterexample trace (JSONL), present for any violation found —
    /// including the expected catch.
    pub trace_jsonl: Option<String>,
    /// One-line human summary.
    pub detail: String,
}

impl ModelCheckReport {
    /// Violation count for the zero-tolerance gate.
    pub fn violations(&self) -> u32 {
        self.findings.len() as u32
    }

    /// The gate: no violation, and the search ran to completion. An
    /// exhausted budget explored only a prefix of the state space, which
    /// is not a proof.
    pub fn passes(&self) -> bool {
        self.violations() == 0 && !self.budget_exhausted
    }
}

/// The scenarios [`run_all`] explores and [`replay_trace`] can
/// replay: the three that must hold, then the seeded skipped CRC the
/// checker must catch as HPM048 (the suite's detection-power row).
fn suite() -> Vec<ProtoScenario> {
    let mut scenarios = ProtoScenario::all();
    scenarios.push(ProtoScenario::seeded_skipped_crc());
    scenarios
}

/// The full model-check suite: every scenario through the
/// product-state BFS.
pub fn run_all() -> Vec<ModelCheckReport> {
    suite()
        .into_iter()
        .map(|sc| {
            let outcome = explore_proto(&sc);
            let mut report = ModelCheckReport {
                scenario: sc.name.to_string(),
                kind: "protocol",
                states: outcome.states,
                interleavings: outcome.transitions,
                reductions: outcome.deduped,
                expected_catch: sc.skip_crc,
                caught: false,
                findings: Vec::new(),
                budget_exhausted: outcome.budget_exhausted,
                trace_jsonl: None,
                detail: String::new(),
            };
            match (&outcome.violation, sc.skip_crc) {
                (Some(v), true) if v.code == LintCode::ModelWrongDelivery => {
                    report.trace_jsonl = Some(proto_trace_to_jsonl(sc.name, v));
                    report.caught = true;
                    report.detail = format!(
                        "seeded bug caught as {} after {} transitions",
                        v.code.code(),
                        outcome.transitions
                    );
                }
                (Some(v), _) => {
                    report.trace_jsonl = Some(proto_trace_to_jsonl(sc.name, v));
                    report
                        .findings
                        .push((v.code, format!("{} (after {:?})", v.message, v.trace)));
                    report.detail = "protocol violation found".into();
                }
                (None, true) => {
                    report.findings.push((
                        LintCode::ModelWrongDelivery,
                        format!(
                            "seeded bug NOT caught in {} transitions — the checker has \
                             lost the ability to see this bug class",
                            outcome.transitions
                        ),
                    ));
                    report.detail = "seeded bug missed".into();
                }
                (None, false) => {
                    report.detail = format!(
                        "{} states, {} transitions; success{} reachable, degradation \
                         terminal{} reachable",
                        outcome.states,
                        outcome.transitions,
                        if outcome.success_reachable {
                            ""
                        } else {
                            " NOT"
                        },
                        if outcome.failed_reachable { "" } else { " NOT" },
                    );
                }
            }
            report
        })
        .collect()
}

/// Fold model-check results into an `hpm-lint` [`Report`]: one
/// diagnostic per finding (errors) plus HPM047 warnings for exhausted
/// budgets. The unit is the scenario name.
pub fn report_to_lint(reports: &[ModelCheckReport]) -> Report {
    let mut rep = Report::new();
    for r in reports {
        for (code, message) in &r.findings {
            rep.push(Diagnostic::new(*code, &r.scenario, None, message.clone()));
        }
        if r.budget_exhausted {
            rep.push(Diagnostic::new(
                LintCode::ModelBudgetExhausted,
                &r.scenario,
                None,
                format!(
                    "search budget exhausted after {} states / {} interleavings — \
                     the verdict covers only the explored prefix",
                    r.states, r.interleavings
                ),
            ));
        }
    }
    rep.finish();
    rep
}

/// Result of replaying a recorded counterexample trace.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// The violation reproduced with the code recorded in the trace.
    pub reproduced: bool,
    /// Code the replay actually hit, if any.
    pub code: Option<String>,
    /// Message the replay actually produced, if any.
    pub message: Option<String>,
}

/// Re-execute a parsed trace against its scenario and report whether
/// the recorded violation reproduces. Only `"protocol"` traces replay;
/// any other kind is an `Err` naming it.
pub fn replay_trace(tf: &TraceFile) -> Result<ReplayOutcome, String> {
    if tf.kind != "protocol" {
        return Err(format!("unknown trace kind {:?}", tf.kind));
    }
    let sc = suite()
        .into_iter()
        .find(|s| s.name == tf.scenario)
        .ok_or_else(|| format!("unknown protocol scenario {:?}", tf.scenario))?;
    let hit = replay_proto(&sc, &tf.events)?;
    Ok(match hit {
        Some((code, message)) => ReplayOutcome {
            reproduced: code.code() == tf.code,
            code: Some(code.code().to_string()),
            message: Some(message),
        },
        None => ReplayOutcome {
            reproduced: false,
            code: None,
            message: None,
        },
    })
}
