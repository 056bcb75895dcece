//! The diagnostics engine: stable lint codes, severities, source spans,
//! and deterministic report rendering.
//!
//! Every finding any pass produces is a [`Diagnostic`] carrying a
//! [`LintCode`]. Codes are *stable*: once assigned, a code's meaning
//! never changes, so CI gates and suppression lists survive analyzer
//! upgrades. Codes are grouped by pass family:
//!
//! * `HPM001`–`HPM012` — source-level findings from the mini-C front end
//!   and the interprocedural escape/reachability passes;
//! * `HPM020`–`HPM024` — static portability findings from auditing the
//!   TI table against every architecture profile pair;
//! * `HPM030`, `HPM031`, `HPM033`–`HPM035` — runtime-registry findings
//!   from auditing a live MSRLT snapshot;
//!
//! Retired codes are never reused. `HPM032` named overlapping registry
//! entries, which the space's one address index makes a size mismatch
//! (`HPM034`) or an unknown block (`HPM031`). `HPM040`–`HPM049` named the
//! findings of the protocol model checker, which is now a test
//! (`tests/model_gate.rs`) that names its own breaches.

use hpm_annotate::ast::Span;

/// Stable lint codes. The numeric value after `HPM` never changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LintCode {
    /// `union` type: the live variant is unknowable at migration time.
    Union,
    /// `goto`: resume points would not dominate their uses.
    Goto,
    /// `switch`: fall-through labels complicate resume points.
    Switch,
    /// Variadic function: unknown live data at call sites.
    Varargs,
    /// Function pointer: code addresses are not portable.
    FunctionPointer,
    /// Pointer value cast to an integer type.
    PointerToInt,
    /// Integer value cast to a pointer type.
    IntToPointer,
    /// Cast between pointers whose pointee types have different shapes.
    IncompatiblePointerCast,
    /// The unit failed to lex, parse, or resolve names/types.
    FrontEnd,
    /// A stack address escapes its frame (into a global, through a
    /// pointer store, or via a callee that leaks its parameter): after
    /// the frame pops, the MSRLT no longer registers the target, so a
    /// later migration would collect a pointer it cannot translate.
    EscapingStackAddress,
    /// A function returns the address of one of its own locals.
    ReturnsLocalAddress,
    /// A block is collected at a poll-point (conservatively always-live)
    /// but is unreachable from every MSR root there: a dead-block
    /// elision candidate.
    DeadBlockAtPoll,
    /// A pointer-bearing type migrates to a machine with narrower
    /// pointers. Informational: the MSRLT ships logical ids, never raw
    /// addresses, so no value is truncated.
    PointerWidthTruncation,
    /// A scalar leaf is wider on the source than on the destination;
    /// large values would truncate in conversion.
    ScalarWidthNarrows,
    /// A struct contains itself by value: layout and plan compilation
    /// recurse without a cycle guard and would never terminate.
    ValueCycle,
    /// A struct's field offsets differ between the two machines.
    /// Informational: the wire format is leaf-ordered, not
    /// offset-ordered, so padding differences are translated away.
    PaddingDependentOffsets,
    /// The machine-independent leaf sequence of a type differs between
    /// two architectures — the wire formats would disagree.
    WireLeafDivergence,
    /// A registered pointer slot holds an address the MSRLT cannot
    /// translate.
    RegistryDanglingEdge,
    /// An MSRLT entry refers to memory the address space does not hold.
    RegistryUnknownBlock,
    /// A frame-group entry outlives the frame nesting that created it.
    RegistryFrameNesting,
    /// An entry's recorded size disagrees with its type's layout.
    RegistrySizeMismatch,
    /// The MSRLT's byte accounting disagrees with its live entries.
    RegistryByteAccounting,
}

impl LintCode {
    /// The stable `HPMxxx` code string.
    pub fn code(self) -> &'static str {
        match self {
            LintCode::Union => "HPM001",
            LintCode::Goto => "HPM002",
            LintCode::Switch => "HPM003",
            LintCode::Varargs => "HPM004",
            LintCode::FunctionPointer => "HPM005",
            LintCode::PointerToInt => "HPM006",
            LintCode::IntToPointer => "HPM007",
            LintCode::IncompatiblePointerCast => "HPM008",
            LintCode::FrontEnd => "HPM009",
            LintCode::EscapingStackAddress => "HPM010",
            LintCode::ReturnsLocalAddress => "HPM011",
            LintCode::DeadBlockAtPoll => "HPM012",
            LintCode::PointerWidthTruncation => "HPM020",
            LintCode::ScalarWidthNarrows => "HPM021",
            LintCode::ValueCycle => "HPM022",
            LintCode::PaddingDependentOffsets => "HPM023",
            LintCode::WireLeafDivergence => "HPM024",
            LintCode::RegistryDanglingEdge => "HPM030",
            LintCode::RegistryUnknownBlock => "HPM031",
            LintCode::RegistryFrameNesting => "HPM033",
            LintCode::RegistrySizeMismatch => "HPM034",
            LintCode::RegistryByteAccounting => "HPM035",
        }
    }

    /// Fixed severity of the code.
    pub fn severity(self) -> Severity {
        match self {
            LintCode::Union
            | LintCode::Goto
            | LintCode::Switch
            | LintCode::Varargs
            | LintCode::FunctionPointer
            | LintCode::PointerToInt
            | LintCode::IntToPointer
            | LintCode::FrontEnd
            | LintCode::ReturnsLocalAddress
            | LintCode::ValueCycle
            | LintCode::WireLeafDivergence
            | LintCode::RegistryDanglingEdge
            | LintCode::RegistryUnknownBlock
            | LintCode::RegistryFrameNesting
            | LintCode::RegistrySizeMismatch
            | LintCode::RegistryByteAccounting => Severity::Error,
            LintCode::IncompatiblePointerCast
            | LintCode::EscapingStackAddress
            | LintCode::ScalarWidthNarrows => Severity::Warning,
            LintCode::DeadBlockAtPoll
            | LintCode::PointerWidthTruncation
            | LintCode::PaddingDependentOffsets => Severity::Info,
        }
    }

    /// Parse a `HPMxxx` string back into a code (for corpus expectation
    /// directives).
    pub fn parse(s: &str) -> Option<LintCode> {
        LintCode::ALL.iter().copied().find(|c| c.code() == s)
    }

    /// Every code, in code order.
    pub const ALL: [LintCode; 22] = [
        LintCode::Union,
        LintCode::Goto,
        LintCode::Switch,
        LintCode::Varargs,
        LintCode::FunctionPointer,
        LintCode::PointerToInt,
        LintCode::IntToPointer,
        LintCode::IncompatiblePointerCast,
        LintCode::FrontEnd,
        LintCode::EscapingStackAddress,
        LintCode::ReturnsLocalAddress,
        LintCode::DeadBlockAtPoll,
        LintCode::PointerWidthTruncation,
        LintCode::ScalarWidthNarrows,
        LintCode::ValueCycle,
        LintCode::PaddingDependentOffsets,
        LintCode::WireLeafDivergence,
        LintCode::RegistryDanglingEdge,
        LintCode::RegistryUnknownBlock,
        LintCode::RegistryFrameNesting,
        LintCode::RegistrySizeMismatch,
        LintCode::RegistryByteAccounting,
    ];
}

impl std::fmt::Display for LintCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.code())
    }
}

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Severity {
    /// Worth knowing; never gates.
    Info,
    /// Suspicious; gates under `--deny`.
    Warning,
    /// A migration would fail or corrupt data.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code.
    pub code: LintCode,
    /// Severity (always `code.severity()`).
    pub severity: Severity,
    /// The unit the finding is about: a source file name, a workload
    /// name, or a registry snapshot label.
    pub unit: String,
    /// Source position, for source-level findings.
    pub span: Option<Span>,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// Construct a diagnostic; severity comes from the code.
    pub fn new(code: LintCode, unit: &str, span: Option<Span>, message: String) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            unit: unit.to_string(),
            span,
            message,
        }
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.span {
            Some(s) => write!(
                f,
                "{}:{}: {} [{}] {}",
                self.unit, s, self.severity, self.code, self.message
            ),
            None => write!(
                f,
                "{}: {} [{}] {}",
                self.unit, self.severity, self.code, self.message
            ),
        }
    }
}

/// A deduplicated, deterministically ordered set of diagnostics.
#[derive(Debug, Clone, Default)]
pub struct Report {
    diags: Vec<Diagnostic>,
}

impl Report {
    /// Empty report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Add one diagnostic.
    pub fn push(&mut self, d: Diagnostic) {
        self.diags.push(d);
    }

    /// Absorb another report.
    pub fn merge(&mut self, other: Report) {
        self.diags.extend(other.diags);
    }

    /// Sort by (unit, line, col, code) and drop exact duplicates. Every
    /// renderer calls this first, so output order is independent of pass
    /// scheduling.
    pub fn finish(&mut self) {
        self.diags.sort_by(|a, b| {
            let ka = (&a.unit, a.span.map(|s| (s.line, s.col)), a.code, &a.message);
            let kb = (&b.unit, b.span.map(|s| (s.line, s.col)), b.code, &b.message);
            ka.cmp(&kb)
        });
        self.diags.dedup();
    }

    /// All diagnostics (call [`Report::finish`] first for stable order).
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diags
    }

    /// Number of findings at severity `s`.
    pub fn count(&self, s: Severity) -> usize {
        self.diags.iter().filter(|d| d.severity == s).count()
    }

    /// Whether any finding is at or above `threshold` (the `--deny`
    /// gate).
    pub fn denies(&self, threshold: Severity) -> bool {
        self.diags.iter().any(|d| d.severity >= threshold)
    }

    /// Whether a specific code was reported.
    pub fn has_code(&self, code: LintCode) -> bool {
        self.diags.iter().any(|d| d.code == code)
    }

    /// Human-readable rendering, one finding per line plus a summary.
    pub fn render_human(&mut self) -> String {
        self.finish();
        let mut out = String::new();
        for d in &self.diags {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} error(s), {} warning(s), {} info\n",
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info),
        ));
        out
    }

    /// JSONL rendering: one JSON object per finding, in stable order.
    pub fn render_jsonl(&mut self) -> String {
        self.finish();
        let mut out = String::new();
        for d in &self.diags {
            out.push_str(&format!(
                "{{\"code\":\"{}\",\"severity\":\"{}\",\"unit\":\"{}\"",
                d.code,
                d.severity,
                json_escape(&d.unit)
            ));
            if let Some(s) = d.span {
                out.push_str(&format!(",\"line\":{},\"col\":{}", s.line, s.col));
            }
            out.push_str(&format!(",\"message\":\"{}\"}}\n", json_escape(&d.message)));
        }
        out
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for c in LintCode::ALL {
            assert!(seen.insert(c.code()), "duplicate code {c}");
            assert_eq!(LintCode::parse(c.code()), Some(c));
        }
        assert_eq!(LintCode::parse("HPM999"), None);
    }

    #[test]
    fn report_orders_and_dedupes() {
        let mut r = Report::new();
        let d = Diagnostic::new(LintCode::Goto, "b.c", Some(Span::new(2, 1)), "goto".into());
        r.push(d.clone());
        r.push(Diagnostic::new(
            LintCode::Union,
            "a.c",
            Some(Span::new(1, 1)),
            "union".into(),
        ));
        r.push(d);
        r.finish();
        assert_eq!(r.diagnostics().len(), 2);
        assert_eq!(r.diagnostics()[0].unit, "a.c");
    }

    #[test]
    fn deny_thresholds() {
        let mut r = Report::new();
        r.push(Diagnostic::new(
            LintCode::DeadBlockAtPoll,
            "a.c",
            None,
            "dead".into(),
        ));
        assert!(!r.denies(Severity::Warning));
        assert!(r.denies(Severity::Info));
        r.push(Diagnostic::new(
            LintCode::EscapingStackAddress,
            "a.c",
            None,
            "escape".into(),
        ));
        assert!(r.denies(Severity::Warning));
        assert!(!r.denies(Severity::Error));
    }

    #[test]
    fn jsonl_escapes_and_renders() {
        let mut r = Report::new();
        r.push(Diagnostic::new(
            LintCode::FrontEnd,
            "weird\"name.c",
            Some(Span::new(3, 7)),
            "bad\nline".into(),
        ));
        let j = r.render_jsonl();
        assert!(j.contains("\"code\":\"HPM009\""));
        assert!(j.contains("weird\\\"name.c"));
        assert!(j.contains("bad\\nline"));
        assert!(j.contains("\"line\":3,\"col\":7"));
    }
}
