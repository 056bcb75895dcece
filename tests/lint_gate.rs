//! The CI lint gate, as a test: the seeded-unsafe corpus must trip
//! exactly its expected codes, the three paper workloads must audit
//! clean, and the analyzer's output must be deterministic.

use hpm_arch::Architecture;
use hpm_lint::{audit_table, lint_source, registry_report, LintCode, Severity};
use hpm_migrate::{run_to_migration, MigratedSource, Trigger};
use hpm_workloads::{BitonicSort, Linpack, TestPointer};
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("crates/lint/corpus")
}

fn corpus_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("corpus directory exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "c"))
        .collect();
    files.sort();
    files
}

fn expected_codes(src: &str) -> Vec<LintCode> {
    src.lines()
        .filter_map(|l| l.trim().strip_prefix("// expect:"))
        .map(|rest| LintCode::parse(rest.trim()).expect("directive names a known code"))
        .collect()
}

/// Every corpus program trips exactly its expected lint codes: each
/// declared code fires, and nothing at deny severity fires undeclared.
#[test]
fn corpus_programs_trip_their_expected_codes() {
    let files = corpus_files();
    assert!(files.len() >= 14, "corpus shrank: {} files", files.len());
    let mut saw_clean_control = false;
    for path in files {
        let unit = path.file_name().unwrap().to_string_lossy().into_owned();
        let src = std::fs::read_to_string(&path).unwrap();
        let expected = expected_codes(&src);
        let report = lint_source(&unit, &src);
        for code in &expected {
            assert!(
                report.has_code(*code),
                "{unit}: expected {} did not fire\n{report:?}",
                code.code()
            );
        }
        for d in report.diagnostics() {
            assert!(
                d.severity < Severity::Warning || expected.contains(&d.code),
                "{unit}: unexpected {} ({})",
                d.code.code(),
                d.message
            );
        }
        if expected.is_empty() {
            saw_clean_control = true;
            assert!(!report.denies(Severity::Warning), "{unit}: {report:?}");
        }
    }
    assert!(saw_clean_control, "corpus lost its clean control file");
}

fn audit_clean(label: &str, src: &mut MigratedSource) {
    let (findings, _stats) = src.preflight_audit().expect("registry audit runs");
    let mut report = registry_report(&findings, label);
    report.merge(audit_table(src.proc.space.types(), label));
    report.finish();
    assert!(
        !report.denies(Severity::Warning),
        "{label} must lint clean:\n{}",
        report.render_human()
    );
}

/// The three paper workloads, frozen at their migration points, carry
/// no deny-level registry or portability findings.
#[test]
fn paper_workloads_lint_clean() {
    let mut tp = TestPointer::new();
    let mut src =
        run_to_migration(&mut tp, Architecture::ultra5(), Trigger::AtPollCount(8)).unwrap();
    audit_clean("test_pointer", &mut src);

    let mut lp = Linpack::truncated(600, 4);
    let mut src =
        run_to_migration(&mut lp, Architecture::ultra5(), Trigger::AtPollCount(2)).unwrap();
    audit_clean("linpack_600", &mut src);

    let n = 20_000;
    let mut bt = BitonicSort::new(n);
    let mut src =
        run_to_migration(&mut bt, Architecture::ultra5(), Trigger::AtPollCount(n)).unwrap();
    audit_clean("bitonic_20000", &mut src);
}

/// Two runs over the corpus produce byte-identical JSONL — the property
/// that makes findings diffable across CI runs.
#[test]
fn analyzer_output_is_deterministic() {
    let run = || {
        let mut out = String::new();
        for path in corpus_files() {
            let unit = path.file_name().unwrap().to_string_lossy().into_owned();
            let src = std::fs::read_to_string(&path).unwrap();
            out.push_str(&lint_source(&unit, &src).render_jsonl());
        }
        out
    };
    let a = run();
    let b = run();
    assert!(!a.is_empty());
    assert_eq!(a, b);
}

/// Every stable code — all of them below the retired model-checker band,
/// HPM001–HPM035 — has a live exerciser the gate can see: source and portability codes fire
/// from at least one corpus file, registry codes from the audit-variant
/// mapping the registry audit uses on a live registry. A new code
/// added to the table without a corpus file (or a new corpus file whose
/// seeded bug stops firing) fails here, not in production.
#[test]
fn every_stable_code_below_the_model_band_is_exercised() {
    use hpm_core::{LogicalId, RegistryFinding};
    use std::collections::BTreeSet;

    let mut exercised: BTreeSet<LintCode> = BTreeSet::new();
    // Corpus: both the declared expectations and everything the
    // analyzer actually reports (info-level codes ride undeclared).
    for path in corpus_files() {
        let unit = path.file_name().unwrap().to_string_lossy().into_owned();
        let src = std::fs::read_to_string(&path).unwrap();
        exercised.extend(expected_codes(&src));
        exercised.extend(
            lint_source(&unit, &src)
                .diagnostics()
                .iter()
                .map(|d| d.code),
        );
    }
    // Registry codes: one synthetic finding per audit variant, through
    // the same mapping `preflight_audit` findings take.
    let id = LogicalId { group: 1, index: 0 };
    let findings = vec![
        RegistryFinding::DanglingEdge {
            from: id,
            offset: 8,
            raw: 0xdead,
        },
        RegistryFinding::UnknownBlock { id, addr: 0x10 },
        RegistryFinding::FrameNesting { id, live_depth: 0 },
        RegistryFinding::SizeMismatch {
            id,
            recorded: 8,
            expected: 16,
        },
        RegistryFinding::ByteAccounting {
            recorded: 1,
            actual: 2,
        },
    ];
    exercised.extend(
        registry_report(&findings, "synthetic")
            .diagnostics()
            .iter()
            .map(|d| d.code),
    );

    // HPM024 (WireLeafDivergence) is deliberately unreachable: the leaf
    // sequence of a type is structural, identical on every architecture
    // preset, so no source program can trip the defensive check. Pin
    // that — if it ever *does* fire from the corpus, this list must
    // shrink and a corpus file must take over.
    let defensively_unreachable = [LintCode::WireLeafDivergence];
    for code in &defensively_unreachable {
        assert!(
            !exercised.contains(code),
            "{} became reachable; give it a corpus file and drop the exemption",
            code.code()
        );
    }

    for code in LintCode::ALL {
        if defensively_unreachable.contains(&code) {
            continue;
        }
        assert!(
            exercised.contains(&code),
            "{} is in the stable table but nothing exercises it",
            code.code()
        );
    }
}

/// The stable-code table itself: codes are unique, parse round-trips,
/// and severities match the documented scheme.
#[test]
fn lint_code_table_is_stable() {
    for code in LintCode::ALL {
        assert_eq!(LintCode::parse(code.code()), Some(code));
    }
    // Spot-pin the documented severity split so a refactor cannot
    // silently demote an error.
    assert_eq!(LintCode::Union.severity(), Severity::Error);
    assert_eq!(LintCode::EscapingStackAddress.severity(), Severity::Warning);
    assert_eq!(LintCode::DeadBlockAtPoll.severity(), Severity::Info);
    assert_eq!(LintCode::PointerWidthTruncation.severity(), Severity::Info);
    assert_eq!(LintCode::RegistryDanglingEdge.severity(), Severity::Error);
    // Retired codes stay retired: HPM032 (overlapping registry entries)
    // and HPM040–HPM049 (the model-checker band) are assigned to no code
    // and none of their strings parses.
    assert_eq!(LintCode::ALL.len(), 22);
    assert!(LintCode::ALL.iter().all(|c| c.code() < "HPM040"));
    for n in std::iter::once(32).chain(40..50) {
        assert_eq!(LintCode::parse(&format!("HPM0{n}")), None);
    }
}
