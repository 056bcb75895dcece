//! Regenerate every table and figure of the paper's evaluation (§4).
//!
//! ```text
//! cargo run --release -p hpm-bench --bin paper_tables -- all
//! cargo run --release -p hpm-bench --bin paper_tables -- table1
//! cargo run --release -p hpm-bench --bin paper_tables -- fig2a fig2b
//! ```
//!
//! Subcommands: `validation`, `table1`, `fig2a`, `fig2b`, `complexity`,
//! `overhead`, `pipeline`, `all` — plus `bench-diff` (below). Each prints
//! the table `hpm_bench` declares under that name; the column headers are
//! the keys `--json-out` writes. Any other argument is a usage error
//! (exit 2), so a gate line naming a table that no longer exists fails
//! instead of passing silently.
//!
//! Timed cells (`table1`, `fig2a`, `fig2b`, `overhead`) are one warm-up
//! and ten repetitions through `hpm_bench::harness::sample`, printed in
//! seconds as `floor ±spread` (fastest repetition, interquartile range).
//! An `overhead` row whose floor is no further from its baseline's than
//! the two spreads together prints `unresolved`. `validation` and
//! `pipeline` relay single-run spans from the migration's own report.
//!
//! `bench-diff <old.json> <new.json>` compares two `BENCH_<rev>.json`
//! artifacts: every declared metric both carry is delta'd, and a gated
//! counter growing beyond `--threshold <pct>` (default 5), or a gated
//! column, row or section missing from the new side, exits 1.
//! `bench-diff --against-latest <new.json>` takes the old side from the
//! last `bench_history.json` entry; a missing or unparsable index is
//! exit 2.
//!
//! `--trace-out <path>` additionally runs one fully-traced TestPointer
//! migration and writes a Chrome trace-event JSON file (load it at
//! `ui.perfetto.dev` or `chrome://tracing`).
//!
//! `--json-out <path>` writes the benchmark artifact: the deterministic
//! counters of the paper workloads (`hpm_bench::ARTIFACT`), no wall
//! clock, so two runs at one commit write the same bytes. If `<path>` is
//! a directory, the file is named `BENCH_<rev>.json` after the current
//! git revision.

use hpm_bench::table::Table;
use hpm_bench::*;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // bench-diff is a regular CLI subcommand with positional file
    // arguments, so it bypasses the table-name dispatch entirely.
    if args.first().map(String::as_str) == Some("bench-diff") {
        bench_diff_cmd(&args[1..]);
        return;
    }
    let trace_out: Option<String> = take_value(&mut args, "--trace-out", "a path");
    let json_out: Option<String> = take_value(&mut args, "--json-out", "a path");
    // Every table subcommand, in print order.
    let tables: [(&str, &dyn Fn()); 7] = [
        (VALIDATION.name, &|| show(&VALIDATION)),
        (TABLE1.name, &|| show(&TABLE1)),
        (FIG2A.name, &|| show(&FIG2A)),
        (FIG2B.name, &|| show(&FIG2B)),
        (COMPLEXITY.name, &|| show(&COMPLEXITY)),
        (OVERHEAD.name, &|| show(&OVERHEAD)),
        (PIPELINE.name, &|| show(&PIPELINE)),
    ];
    // A typo must not pass as "nothing to do": CI's smoke line is a
    // subcommand of this binary.
    let known = |a: &String| a == "all" || tables.iter().any(|(name, _)| name == a);
    if let Some(bad) = args.iter().find(|a| !known(a)) {
        let names: Vec<&str> = tables.iter().map(|(name, _)| *name).collect();
        eprintln!(
            "paper_tables: unknown table or flag '{bad}' (tables: {}, all)",
            names.join(", ")
        );
        std::process::exit(2);
    }
    let everything = (args.is_empty() && trace_out.is_none() && json_out.is_none())
        || args.iter().any(|a| a == "all");
    for (name, run) in tables {
        if everything || args.iter().any(|a| a == name) {
            run();
        }
    }
    if let Some(path) = trace_out {
        trace(&path);
    }
    if let Some(path) = json_out {
        json(&path);
    }
}

/// Remove `flag` from the arguments; whether it was there.
fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    let at = args.iter().position(|a| a == flag);
    at.map(|i| args.remove(i)).is_some()
}

/// Remove `flag` and the value after it; exit 2 if the value is missing
/// or is not `what`.
fn take_value<T: std::str::FromStr>(args: &mut Vec<String>, flag: &str, what: &str) -> Option<T> {
    let i = args.iter().position(|a| a == flag)?;
    args.remove(i);
    let value = (i < args.len()).then(|| args.remove(i));
    let parsed = value.and_then(|v| v.parse().ok());
    if parsed.is_none() {
        eprintln!("{flag} requires {what}");
        std::process::exit(2);
    }
    parsed
}

/// Run a table's rows and print it.
fn show<R>(table: &Table<R>) {
    print!("{}", table.text(&(table.rows)()));
}

fn read_bench(path: &str) -> diff::Json {
    let body = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("bench-diff: cannot read {path}: {e}");
        std::process::exit(2);
    });
    diff::parse_json(&body).unwrap_or_else(|e| {
        eprintln!("bench-diff: cannot parse {path}: {e}");
        std::process::exit(2);
    })
}

fn bench_diff_cmd(args: &[String]) {
    let mut args: Vec<String> = args.to_vec();
    let threshold = take_value(&mut args, "--threshold", "a percentage").unwrap_or(5.0f64);
    let against_latest = take_flag(&mut args, "--against-latest");
    let (old_path, new_path) = if against_latest {
        let [new_path] = &args[..] else {
            eprintln!("usage: paper_tables bench-diff --against-latest <new.json>");
            std::process::exit(2);
        };
        let new_name = std::path::Path::new(new_path)
            .file_name()
            .map(|n| n.to_string_lossy().to_string())
            .unwrap_or_default();
        let history = std::fs::read_to_string("bench_history.json")
            .map_err(|e| format!("cannot read bench_history.json: {e}"))
            .and_then(|body| diff::parse_history(&body))
            .unwrap_or_else(|e| {
                eprintln!("bench-diff: {e}");
                std::process::exit(2);
            });
        let newest_first = history.into_iter().rev().map(|(_, file)| file);
        let old = newest_first
            .into_iter()
            .find(|f| *f != new_name && *f != *new_path)
            .unwrap_or_else(|| {
                eprintln!("bench-diff: no prior BENCH_*.json found to compare against");
                std::process::exit(2);
            });
        (old, new_path.clone())
    } else {
        let [old_path, new_path] = &args[..] else {
            eprintln!("usage: paper_tables bench-diff [--threshold <pct>] <old.json> <new.json>");
            std::process::exit(2);
        };
        (old_path.clone(), new_path.clone())
    };
    let old = read_bench(&old_path);
    let new = read_bench(&new_path);
    let report = diff::bench_diff(&old, &new, threshold);
    print!("{}", diff::render_diff(&report));
    if !report.violations.is_empty() {
        std::process::exit(1);
    }
}

fn short_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn json(path: &str) {
    let rev = short_rev();
    let p = std::path::Path::new(path);
    let target = if p.is_dir() {
        p.join(format!("BENCH_{rev}.json"))
    } else {
        p.to_path_buf()
    };
    let body = bench_json(&rev);
    if let Err(e) = std::fs::write(&target, &body) {
        eprintln!("cannot write {}: {e}", target.display());
        std::process::exit(1);
    }
    println!("wrote {}", target.display());
}

fn trace(path: &str) {
    println!("\n=== Migration trace — test_pointer, DEC 5000/120 → SPARC 20, 10 Mb/s ===");
    let run = traced_test_pointer_run();
    println!("{}", run.report.render());
    let log = run.report.log.as_ref().expect("the run was given a log");
    let json = hpm_obs::chrome_trace_json(log);
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    }
    println!(
        "wrote {path}: {} events across {} tracks (open in ui.perfetto.dev)",
        log.len(),
        log.tracks.len()
    );
}
