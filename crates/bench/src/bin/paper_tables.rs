//! Regenerate every table and figure of the paper's evaluation (§4).
//!
//! ```text
//! cargo run --release -p hpm-bench --bin paper_tables -- all
//! cargo run --release -p hpm-bench --bin paper_tables -- table1
//! cargo run --release -p hpm-bench --bin paper_tables -- fig2a fig2b
//! ```
//!
//! Subcommands: `validation`, `table1`, `fig2a`, `fig2b`, `complexity`,
//! `overhead`, `translate`, `wire`, `delta`, `pipeline`,
//! `faults`, `resume`, `telemetry`, `lint`, `modelcheck`, `all` — plus
//! `bench-diff` (below). Each prints the table `hpm_bench` declares under
//! that name; the column headers are the keys `--json-out` writes.
//!
//! Timed cells (`table1`, `fig2a`, `fig2b`, `overhead`, the two
//! collection columns of `translate`) are one warm-up and ten
//! repetitions through `hpm_bench::harness::sample`, printed in seconds
//! as `floor ±spread` (fastest repetition, interquartile range). An
//! `overhead` row whose floor is no further from its baseline's than the
//! two spreads together prints `unresolved`. `validation`, `delta`, `pipeline` and
//! `telemetry` relay single-run spans from the migration's own report.
//!
//! `delta` is the incremental-migration gate: iterative pre-copy
//! bitonic is driven over **all 16 architecture preset pairs** plus one
//! deliberately tampered-base row, and it **always** exits 1 if any
//! delta-restored image is not bit-identical per round, any row fails
//! to freeze, the freeze leg ships more than 25% of the full image on a
//! clean row, or the tampered base does not fall back to a full image
//! exactly once.
//!
//! `modelcheck` is the model-checking gate: it exhausts the
//! ARQ × resume product machine under the full fault alphabet, prints
//! per-scenario exploration counters, and **always** exits 1 on any
//! HPM04x violation, a missed seeded bug, or an exhausted search
//! budget. On failure, set `HPM_MODEL_TRACE_DIR` to persist the
//! counterexample JSONL traces (CI uploads them as artifacts); replay
//! one with `hpm-model --replay <trace>`.
//!
//! `resume` is the resumable-restore gate: each paper workload is
//! crashed at 25/50/75% of its chunk stream and resumed from the
//! destination's chunk journal; it **always** exits 1 if any crash
//! fails to resume on rung 2, any resume replays an already-verified
//! chunk over the wire, or linpack's wire bytes saved fall below the
//! journaled share of the stream.
//!
//! `wire` is the wire-optimisation gate: per paper workload it prints
//! the compression ratio, and **always** exits 1 if the compressed run
//! diverges from the stored run or compression fails to shrink
//! linpack's image — CI's perf-smoke line alongside `translate`.
//!
//! `telemetry` prints the percentile wire telemetry: per-chunk modelled
//! wire latency percentiles, retransmits and the ARQ retry-count
//! distribution for the three paper workloads under seeded faults.
//!
//! `bench-diff <old.json> <new.json>` compares two `BENCH_<rev>.json`
//! artifacts: every declared metric both carry is delta'd, and a
//! regression beyond `--threshold <pct>` (default 5) in a gated counter
//! or rate, any growth of a zero-tolerance counter, a flag decaying to
//! `false`, or a gated column, row or section missing from the new side
//! exits 1. `bench-diff --against-latest <new.json>` takes the old side
//! from the last `bench_history.json` entry; a missing or unparsable
//! index is exit 2.
//!
//! `translate` is the collection-performance gate: it prints the search
//! counts and both collection times for the three paper workloads (plus
//! linpack on the little-endian preset), and **always** exits 1 if any
//! row's bulk and per-element collections differ by a byte — CI's
//! perf-smoke line.
//!
//! `lint` runs the analyzer's registry and portability audits over the
//! three paper workloads frozen at their migration points. With
//! `--deny`, any warning- or error-level finding exits 1 — the CI lint
//! gate for workloads.
//!
//! `faults` sweeps seeded fault plans through the resilient driver:
//! a recovery-overhead-vs-fault-rate table plus a replay of the CI soak
//! seeds. `--seed-count <n>` sets how many seeds each rate bucket sweeps
//! (default 8).
//!
//! `--trace-out <path>` additionally runs one fully-traced TestPointer
//! migration and writes a Chrome trace-event JSON file (load it at
//! `ui.perfetto.dev` or `chrome://tracing`).
//!
//! `--json-out <path>` writes the benchmark artifact: the deterministic
//! counters of nine tables (`hpm_bench::ARTIFACT`), no wall clock, so
//! two runs at one commit write the same bytes. If `<path>` is a
//! directory, the file is named `BENCH_<rev>.json` after the current git
//! revision.

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
    let deny = take_flag(&mut args, "--deny");
    let seed_count =
        take_value(&mut args, "--seed-count", "a number").unwrap_or(DEFAULT_SEED_COUNT);
    // Every table subcommand, in print order.
    let tables: [(&str, &dyn Fn()); 15] = [
        (VALIDATION.name, &|| drop(show(&VALIDATION))),
        (TABLE1.name, &|| drop(show(&TABLE1))),
        (FIG2A.name, &|| drop(show(&FIG2A))),
        (FIG2B.name, &|| drop(show(&FIG2B))),
        (COMPLEXITY.name, &|| drop(show(&COMPLEXITY))),
        (OVERHEAD.name, &|| drop(show(&OVERHEAD))),
        (TRANSLATE.name, &|| {
            let rows = translate_rows(true);
            print!("{}", TRANSLATE.text(&rows));
            enforce(TRANSLATE.name, translate_gate(&rows));
        }),
        (WIRE.name, &|| enforce(WIRE.name, wire_gate(&show(&WIRE)))),
        (DELTA.name, &|| {
            enforce(DELTA.name, delta_gate(&show(&DELTA)))
        }),
        (PIPELINE.name, &|| drop(show(&PIPELINE))),
        (FAULT_RATES.name, &|| {
            print!("{}", FAULT_RATES.text(&fault_rate_rows(seed_count)));
            show(&FAULT_SEEDS);
        }),
        (RESUME.name, &|| {
            enforce(RESUME.name, resume_gate(&show(&RESUME)))
        }),
        (TELEMETRY.name, &|| drop(show(&TELEMETRY))),
        (LINT.name, &|| {
            let rows = show(&LINT);
            if deny && rows.iter().any(|r| !r.clean()) {
                eprintln!(
                    "paper_tables lint: deny: workload findings at warning severity or above"
                );
                std::process::exit(1);
            }
        }),
        (MODELCHECK.name, &modelcheck),
    ];
    // A typo must not pass as "nothing to do": CI's gate lines are
    // subcommands of this binary.
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
fn show<R>(table: &Table<R>) -> Vec<R> {
    let rows = (table.rows)();
    print!("{}", table.text(&rows));
    rows
}

/// Exit 1 on a table's gate violations.
fn enforce(table: &str, violations: Vec<String>) {
    for v in &violations {
        eprintln!("paper_tables {table}: gate: {v}");
    }
    if !violations.is_empty() {
        std::process::exit(1);
    }
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
        let newest_first = history.entries.into_iter().rev().map(|(_, file)| file);
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

fn modelcheck() {
    let rows = show(&MODELCHECK);
    let violations = modelcheck_gate(&rows);
    if !violations.is_empty() {
        // Persist the counterexample traces so CI can upload them as
        // artifacts; the rerun only happens on the failure path.
        if let Ok(dir) = std::env::var("HPM_MODEL_TRACE_DIR") {
            for r in hpm_model::run_all() {
                let Some(trace) = &r.trace_jsonl else {
                    continue;
                };
                if r.violations() == 0 {
                    continue; // the expected catch is a pass, not a finding
                }
                let path = format!("{dir}/{}.jsonl", r.scenario);
                match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, trace)) {
                    Ok(()) => eprintln!("paper_tables modelcheck: trace written to {path}"),
                    Err(e) => eprintln!("paper_tables modelcheck: cannot write {path}: {e}"),
                }
            }
        }
    }
    enforce(MODELCHECK.name, violations);
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
