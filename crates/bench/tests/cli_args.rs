//! `paper_tables` argument check: CI's gate lines are subcommands of the
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
    for args in [
        &["no-such-table"][..],
        &["lint", "--deyn"],
        &["wire", "lnt"],
    ] {
        let out = paper_tables(args);
        let bad = args[args.len() - 1];
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(&format!("'{bad}'")), "{args:?}: {stderr}");
        assert!(stderr.contains("lint") && stderr.contains("modelcheck"));
        assert!(out.stdout.is_empty(), "{args:?}: no table may run");
    }

    let out = paper_tables(&["lint", "--deny"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("test_pointer"));
}
