//! Runtime-registry findings as diagnostics.
//!
//! The registry audit itself lives in `hpm-core::audit`, beside the
//! per-block check the collector makes on every block a migration ships,
//! so the two cannot disagree about what a finding is; this module gives
//! each [`RegistryFinding`] a stable `HPM03x` code so registry health
//! flows through the same report, deny gate, and JSONL stream as every
//! static pass.

use crate::diag::{Diagnostic, LintCode, Report};
use hpm_core::RegistryFinding;

/// The stable code for one registry finding.
pub fn code_for(finding: &RegistryFinding) -> LintCode {
    match finding {
        RegistryFinding::DanglingEdge { .. } => LintCode::RegistryDanglingEdge,
        RegistryFinding::UnknownBlock { .. } => LintCode::RegistryUnknownBlock,
        RegistryFinding::FrameNesting { .. } => LintCode::RegistryFrameNesting,
        RegistryFinding::SizeMismatch { .. } => LintCode::RegistrySizeMismatch,
        RegistryFinding::ByteAccounting { .. } => LintCode::RegistryByteAccounting,
    }
}

/// Convert a registry audit's findings into a report for `unit` (a
/// workload or snapshot label).
pub fn registry_report(findings: &[RegistryFinding], unit: &str) -> Report {
    let mut report = Report::new();
    for f in findings {
        report.push(Diagnostic::new(code_for(f), unit, None, f.to_string()));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpm_core::LogicalId;

    #[test]
    fn each_variant_maps_to_its_code() {
        let id = LogicalId { group: 1, index: 0 };
        let cases = vec![
            (
                RegistryFinding::DanglingEdge {
                    from: id,
                    offset: 8,
                    raw: 0xdead,
                },
                LintCode::RegistryDanglingEdge,
            ),
            (
                RegistryFinding::UnknownBlock { id, addr: 0x10 },
                LintCode::RegistryUnknownBlock,
            ),
            (
                RegistryFinding::FrameNesting { id, live_depth: 0 },
                LintCode::RegistryFrameNesting,
            ),
            (
                RegistryFinding::SizeMismatch {
                    id,
                    recorded: 8,
                    expected: 16,
                },
                LintCode::RegistrySizeMismatch,
            ),
            (
                RegistryFinding::ByteAccounting {
                    recorded: 1,
                    actual: 2,
                },
                LintCode::RegistryByteAccounting,
            ),
        ];
        let findings: Vec<RegistryFinding> = cases.iter().map(|(f, _)| f.clone()).collect();
        let mut r = registry_report(&findings, "snap");
        r.finish();
        assert_eq!(r.diagnostics().len(), cases.len());
        for (f, code) in &cases {
            assert_eq!(code_for(f), *code);
            assert!(r.has_code(*code));
        }
        // Every registry finding is an error: an incoherent registry
        // must gate.
        assert!(r.denies(crate::diag::Severity::Error));
    }
}
