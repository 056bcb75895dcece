//! `hpm-lint` — lint mini-C units for migration safety.
//!
//! ```text
//! hpm-lint [--deny] [--stats] [--jsonl PATH] [--corpus DIR] [FILE...]
//! ```
//!
//! Plain files are linted and reported (human-readable on stdout, JSONL
//! to `--jsonl` if given). With `--deny`, any finding at warning
//! severity or above exits 1 — the CI gate mode. `--stats` prints the
//! run's [`LintStats`] after the findings.
//!
//! `--corpus DIR` runs expectation mode over a directory of seeded
//! programs: each `.c` file declares the codes it must trip with
//! `// expect: HPMxxx` comment directives (one code per directive; a
//! file with no directives must lint clean at the deny threshold). Any
//! mismatch — an expected code that did not fire, or a deny-level code
//! that was not expected — exits 2. This is how the analyzer's own
//! findings are pinned across revisions.

use hpm_lint::{lint_source, LintCode, LintStats, Report, Severity};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    deny: bool,
    jsonl: Option<PathBuf>,
    corpus: Option<PathBuf>,
    files: Vec<PathBuf>,
    stats: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        deny: false,
        jsonl: None,
        corpus: None,
        files: Vec::new(),
        stats: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--deny" => args.deny = true,
            "--stats" => args.stats = true,
            "--jsonl" => {
                let p = it.next().ok_or("--jsonl needs a path")?;
                args.jsonl = Some(PathBuf::from(p));
            }
            "--corpus" => {
                let p = it.next().ok_or("--corpus needs a directory")?;
                args.corpus = Some(PathBuf::from(p));
            }
            "--help" | "-h" => {
                println!(
                    "usage: hpm-lint [--deny] [--stats] [--jsonl PATH] [--corpus DIR] [FILE...]"
                );
                std::process::exit(0);
            }
            other if other.starts_with('-') => return Err(format!("unknown flag {other}")),
            other => args.files.push(PathBuf::from(other)),
        }
    }
    if args.corpus.is_none() && args.files.is_empty() {
        return Err("no inputs: pass FILEs and/or --corpus DIR".into());
    }
    Ok(args)
}

fn unit_name(path: &Path) -> String {
    path.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.display().to_string())
}

/// `// expect: HPMxxx` directives in a corpus file.
fn expected_codes(src: &str) -> Result<Vec<LintCode>, String> {
    let mut codes = Vec::new();
    for (i, line) in src.lines().enumerate() {
        if let Some(rest) = line.trim().strip_prefix("// expect:") {
            let name = rest.trim();
            let code = LintCode::parse(name)
                .ok_or_else(|| format!("line {}: unknown lint code {name}", i + 1))?;
            if !codes.contains(&code) {
                codes.push(code);
            }
        }
    }
    Ok(codes)
}

fn lint_files(files: &[PathBuf], stats: &mut LintStats) -> Result<Report, String> {
    let mut merged = Report::new();
    for path in files {
        let src = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let report = lint_source(&unit_name(path), &src);
        stats.absorb(&report);
        merged.merge(report);
    }
    merged.finish();
    Ok(merged)
}

/// Expectation mode: every corpus file must trip exactly its declared
/// codes (at deny severity) and nothing else. Returns mismatch lines.
fn check_corpus(dir: &Path, stats: &mut LintStats) -> Result<(Report, Vec<String>), String> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "c"))
        .collect();
    entries.sort();
    if entries.is_empty() {
        return Err(format!("{}: no .c files", dir.display()));
    }
    let mut merged = Report::new();
    let mut mismatches = Vec::new();
    for path in &entries {
        let unit = unit_name(path);
        let src = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let expected = expected_codes(&src).map_err(|e| format!("{unit}: {e}"))?;
        let report = lint_source(&unit, &src);
        stats.absorb(&report);
        for code in &expected {
            if !report.has_code(*code) {
                mismatches.push(format!("{unit}: expected {} did not fire", code.code()));
            }
        }
        for d in report.diagnostics() {
            if d.severity >= Severity::Warning && !expected.contains(&d.code) {
                mismatches.push(format!(
                    "{unit}: unexpected {} ({})",
                    d.code.code(),
                    d.message
                ));
            }
        }
        merged.merge(report);
    }
    merged.finish();
    Ok((merged, mismatches))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hpm-lint: {e}");
            return ExitCode::from(2);
        }
    };

    let start = Instant::now();
    let mut stats = LintStats::default();
    let mut report = Report::new();
    let mut file_report = Report::new();
    let mut corpus_mismatches = Vec::new();

    if !args.files.is_empty() {
        match lint_files(&args.files, &mut stats) {
            Ok(r) => {
                file_report.merge(r.clone());
                file_report.finish();
                report.merge(r);
            }
            Err(e) => {
                eprintln!("hpm-lint: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if let Some(dir) = &args.corpus {
        match check_corpus(dir, &mut stats) {
            Ok((r, m)) => {
                report.merge(r);
                corpus_mismatches = m;
            }
            Err(e) => {
                eprintln!("hpm-lint: {e}");
                return ExitCode::from(2);
            }
        }
    }
    report.finish();
    stats.wall = start.elapsed();

    print!("{}", report.render_human());
    if let Some(path) = &args.jsonl {
        if let Err(e) = std::fs::write(path, report.render_jsonl()) {
            eprintln!("hpm-lint: {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if args.stats {
        let LintStats {
            units,
            info,
            warnings,
            errors,
            wall,
        } = stats;
        println!("lint.units     {units}");
        println!("lint.info      {info}");
        println!("lint.warnings  {warnings}");
        println!("lint.errors    {errors}");
        println!("lint.wall      {:.4}s", wall.as_secs_f64());
    }

    if !corpus_mismatches.is_empty() {
        for m in &corpus_mismatches {
            eprintln!("hpm-lint: corpus: {m}");
        }
        eprintln!(
            "hpm-lint: corpus FAILED: {} expectation mismatch(es)",
            corpus_mismatches.len()
        );
        return ExitCode::from(2);
    }
    if args.corpus.is_some() {
        println!("hpm-lint: corpus OK");
    }

    // A corpus's expected findings don't deny — expectation mismatches
    // (exit 2 above) are that gate. Plain files always gate.
    if args.deny && file_report.denies(Severity::Warning) {
        eprintln!(
            "hpm-lint: deny: {} warning(s), {} error(s)",
            file_report.count(Severity::Warning),
            file_report.count(Severity::Error)
        );
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
