//! `paper_tables` argument check: CI's smoke line is a subcommand of the
//! binary, so a name it does not know must fail loudly (exit 2, naming
//! the argument and the valid tables) instead of printing nothing and
//! passing — while a known name still runs its table and exits 0.

use std::process::Command;

fn paper_tables(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_paper_tables"))
        .args(args)
        .output()
        .expect("spawn paper_tables")
}

#[test]
fn unknown_table_name_is_a_usage_error_and_a_known_one_runs() {
    for args in [&["no-such-table"][..], &["validation", "--jsn-out"]] {
        let out = paper_tables(args);
        let bad = args[args.len() - 1];
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(&format!("'{bad}'")), "{args:?}: {stderr}");
        assert!(stderr.contains("validation") && stderr.contains("pipeline"));
        assert!(out.stdout.is_empty(), "{args:?}: no table may run");
    }

    let out = paper_tables(&["validation"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("test_pointer"));
}

/// The extension gates are assertions in the integration tests now, and
/// so are the paper workloads' counters the benchmark artifact carried; a
/// CI line still calling one of their tables, the artifact's writer or
/// its diff, or a flag only they read, must fail rather than run nothing.
#[test]
fn retired_tables_and_flags_are_usage_errors() {
    for bad in [
        "translate",
        "wire",
        "delta",
        "resume",
        "faults",
        "telemetry",
        "lint",
        "modelcheck",
        "--deny",
        "--seed-count",
        "bench-diff",
        "--json-out",
        "--threshold",
        "--against-latest",
    ] {
        let out = paper_tables(&[bad]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bad}: {stderr}");
        assert!(stderr.contains(&format!("'{bad}'")), "{bad}: {stderr}");
        assert!(out.stdout.is_empty(), "{bad}: no table may run");
    }
}

/// The one flag left: a path writes the trace and exits 0; no path is a
/// usage error.
#[test]
fn trace_out_writes_its_path_and_requires_one() {
    let path = std::env::temp_dir().join(format!("paper_tables_trace_{}.json", std::process::id()));
    let out = paper_tables(&["--trace-out", path.to_str().expect("utf-8 temp path")]);
    let trace = std::fs::read_to_string(&path);
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(trace.expect("trace written").contains("traceEvents"));

    let out = paper_tables(&["--trace-out"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--trace-out"), "{stderr}");
    assert!(out.stdout.is_empty(), "no table may run");
}
