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

/// The extension gates are assertions in the integration tests now; a
/// CI line still calling one of their tables, or a flag only they read,
/// must fail rather than run nothing.
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
    ] {
        let out = paper_tables(&[bad]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bad}: {stderr}");
        assert!(stderr.contains(&format!("'{bad}'")), "{bad}: {stderr}");
        assert!(out.stdout.is_empty(), "{bad}: no table may run");
    }
}
