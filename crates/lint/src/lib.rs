//! `hpm-lint` — whole-program migration-safety analyzer.
//!
//! The paper's pre-compiler answers a yes/no question per program: can
//! this run migrate? This crate grows that screen into an analyzer that
//! answers *why not*, *where*, and *what it costs*, with stable codes
//! (`HPM001`–`HPM035`) so a CI gate can diff findings across revisions.
//! Three pass families:
//!
//! 1. **Source passes** over mini-C units ([`source`], [`escape`],
//!    [`reach`]): every pre-compiler screen re-surfaced as a coded
//!    diagnostic, plus interprocedural pointer-escape analysis
//!    (stack addresses leaking past their frame) and per-poll-point
//!    reachability (blocks collected but unreachable from any MSR root —
//!    dead-block elision candidates).
//! 2. **Portability passes** over TI tables ([`portability`]): every
//!    type audited against every ordered pair of architecture presets
//!    for wire-format divergence, scalar narrowing, pointer-width
//!    truncation, padding-dependent offsets, and by-value cycles.
//! 3. **Registry passes** over live MSRLT snapshots ([`registry`]): the
//!    `hpm-core` registry audit's findings, on a frozen process whether
//!    or not a migration would reach them, carried into the same report
//!    and deny gate as the static passes.
//!
//! All passes funnel into one [`Report`]: deterministic order, human and
//! JSONL renderers, and a severity-threshold deny gate for CI.

#![forbid(unsafe_code)]

pub mod diag;
pub mod escape;
pub mod portability;
pub mod reach;
pub mod registry;
pub mod source;

pub use diag::{Diagnostic, LintCode, Report, Severity};
pub use escape::{solve_summaries, FnSummary};
pub use portability::{audit_table, audit_table_for};
pub use registry::{code_for, registry_report};
pub use source::lint_front_end;

use hpm_annotate::sema::TypeEnv;

/// Run every static pass over one mini-C unit and return the merged,
/// finished report.
///
/// Front-end findings come first; if the unit parses, the escape,
/// reachability, and (via the unit's own TI table) portability passes
/// run too. A unit that fails to parse still yields a useful report —
/// the front-end diagnostics — rather than an error.
pub fn lint_source(unit: &str, src: &str) -> Report {
    let (mut report, program) = source::lint_front_end(unit, src);
    if let Some(program) = program {
        report.merge(escape::analyze(&program, unit));
        report.merge(reach::analyze(&program, unit));
        // The unit's TI table, exactly as the pre-compiler would emit
        // it. Build failures (unknown struct tags, …) are already
        // reported by the front end's name check; stay silent here.
        if let Ok(env) = TypeEnv::build(&program) {
            report.merge(portability::audit_table(&env.table, unit));
        }
    }
    report.finish();
    report
}

/// Counters from one analyzer run (`hpm-lint --stats` prints them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LintStats {
    /// Units analyzed.
    pub units: u64,
    /// Info-level findings.
    pub info: u64,
    /// Warning-level findings.
    pub warnings: u64,
    /// Error-level findings.
    pub errors: u64,
    /// Analyzer wall-time.
    pub wall: std::time::Duration,
}

impl LintStats {
    /// Fold one unit's finished report into the counters.
    pub fn absorb(&mut self, report: &Report) {
        self.units += 1;
        self.info += report.count(Severity::Info) as u64;
        self.warnings += report.count(Severity::Warning) as u64;
        self.errors += report.count(Severity::Error) as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_unit_lints_clean() {
        let r = lint_source(
            "clean.c",
            "int main() {\n\
               int i;\n\
               int s;\n\
               s = 0;\n\
               for (i = 0; i < 10; i++) { s = s + i; }\n\
               print(s);\n\
               return 0;\n\
             }",
        );
        assert!(!r.denies(Severity::Warning), "{r:?}");
    }

    #[test]
    fn all_pass_families_reach_the_merged_report() {
        // One unit tripping a front-end code (ptr→int cast), an escape
        // code (local address into a global), and a reach code (dead
        // aggregate at a loop poll-point).
        let r = lint_source(
            "multi.c",
            "int *g;\n\
             int main() {\n\
               int x;\n\
               int junk[16];\n\
               int i;\n\
               g = &x;\n\
               x = (int) g;\n\
               for (i = 0; i < 4; i++) { print(i); }\n\
               return 0;\n\
             }",
        );
        assert!(r.has_code(LintCode::PointerToInt), "{r:?}");
        assert!(r.has_code(LintCode::EscapingStackAddress), "{r:?}");
        assert!(r.has_code(LintCode::DeadBlockAtPoll), "{r:?}");
    }

    #[test]
    fn unparsable_unit_still_reports() {
        let r = lint_source("bad.c", "int main( { return 0 }");
        assert!(r.has_code(LintCode::FrontEnd), "{r:?}");
        assert!(r.denies(Severity::Error));
    }

    #[test]
    fn stats_absorb_each_report() {
        let r = lint_source("bad.c", "int main( { return 0 }");
        let mut a = LintStats::default();
        a.absorb(&r);
        a.absorb(&r);
        assert_eq!(a.units, 2);
        assert_eq!(a.errors, 2);
    }
}
