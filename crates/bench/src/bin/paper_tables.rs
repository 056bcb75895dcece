//! Regenerate every table and figure of the paper's evaluation (§4).
//!
//! ```text
//! cargo run --release -p hpm-bench --bin paper_tables -- all
//! cargo run --release -p hpm-bench --bin paper_tables -- table1
//! cargo run --release -p hpm-bench --bin paper_tables -- fig2a fig2b
//! ```
//!
//! Subcommands: `validation`, `table1`, `fig2a`, `fig2b`, `complexity`,
//! `overhead`, `pipeline`, `all`. Each prints the table `hpm_bench`
//! declares under that name. Any other argument is a usage error (exit
//! 2), so a CI line naming a table or flag that no longer exists fails
//! instead of passing silently.
//!
//! Timed cells (`table1`, `fig2a`, `fig2b`, `overhead`) are one warm-up
//! and ten repetitions through `hpm_bench::harness::sample`, printed in
//! seconds as `floor ±spread` (fastest repetition, interquartile range).
//! An `overhead` row whose floor is no further from its baseline's than
//! the two spreads together prints `unresolved`. `validation` and
//! `pipeline` relay single-run spans from the migration's own report.
//!
//! `--trace-out <path>` additionally runs one fully-traced TestPointer
//! migration, prints its Collect / Tx / Restore and writes a Chrome
//! trace-event JSON file (load it at `ui.perfetto.dev` or
//! `chrome://tracing`).

use hpm_bench::table::Table;
use hpm_bench::*;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let trace_out = take_path(&mut args, "--trace-out");
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
    let everything = (args.is_empty() && trace_out.is_none()) || args.iter().any(|a| a == "all");
    for (name, run) in tables {
        if everything || args.iter().any(|a| a == name) {
            run();
        }
    }
    if let Some(path) = trace_out {
        trace(&path);
    }
}

/// Remove `flag` and the path after it; exit 2 if the path is missing.
fn take_path(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    args.remove(i);
    if i == args.len() {
        eprintln!("{flag} requires a path");
        std::process::exit(2);
    }
    Some(args.remove(i))
}

/// Run a table's rows and print it.
fn show<R>(table: &Table<R>) {
    print!("{}", table.text(&(table.rows)()));
}

fn trace(path: &str) {
    println!("\n=== Migration trace — test_pointer, DEC 5000/120 → SPARC 20, 10 Mb/s ===");
    let report = traced_test_pointer_run().report;
    println!(
        "Collect {:.6} s   Tx {:.6} s   Restore {:.6} s",
        report.collect_time.as_secs_f64(),
        report.tx_time.as_secs_f64(),
        report.restore_time.as_secs_f64()
    );
    let log = report.log.as_ref().expect("the run was given a log");
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
