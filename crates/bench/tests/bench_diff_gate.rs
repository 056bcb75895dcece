//! End-to-end gate check for `paper_tables bench-diff`: the actual
//! binary must exit nonzero when a gated deterministic counter regresses
//! beyond the threshold, and zero when the artifacts are equivalent.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

const BASELINE: &str = r#"{
  "revision": "aaaaaaa",
  "workloads": [
    {"name": "test_pointer", "payload_bytes": 1064, "collect_ns": 30000,
     "restore_ns": 40000, "searches": 32, "search_steps": 95,
     "cache_hit_rate": 0.34}
  ],
  "faults": [
    {"rate_per_mille": 30, "fallbacks": 0, "retransmits": 7}
  ],
  "lint": [
    {"name": "test_pointer", "warnings": 0, "errors": 0, "wall_ns": 90000}
  ]
}"#;

fn scratch(name: &str, body: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("hpm_bench_diff_{}_{}", std::process::id(), name));
    fs::write(&p, body).expect("write scratch bench artifact");
    p
}

fn run_diff(old: &PathBuf, new: &PathBuf) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_paper_tables"))
        .args(["bench-diff"])
        .arg(old)
        .arg(new)
        .output()
        .expect("spawn paper_tables bench-diff")
}

#[test]
fn bench_diff_exits_nonzero_on_regressed_input() {
    let old = scratch("old_reg", BASELINE);
    // Double the search steps and sprout a lint warning: both gated.
    let regressed = BASELINE
        .replace("\"search_steps\": 95", "\"search_steps\": 190")
        .replace("\"warnings\": 0", "\"warnings\": 2")
        .replace("\"aaaaaaa\"", "\"bbbbbbb\"");
    let new = scratch("new_reg", &regressed);
    let out = run_diff(&old, &new);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(1),
        "regressed artifact must exit 1; stdout:\n{stdout}"
    );
    assert!(
        stdout.contains("REGRESSION"),
        "report should name the regression; got:\n{stdout}"
    );
    assert!(
        stdout.contains("search_steps") && stdout.contains("warnings"),
        "both regressed counters should be reported; got:\n{stdout}"
    );
    let _ = fs::remove_file(old);
    let _ = fs::remove_file(new);
}

#[test]
fn bench_diff_passes_on_equivalent_input_despite_wallclock_noise() {
    let old = scratch("old_ok", BASELINE);
    // Artifacts up to 11aca28 carried wall clocks that shift wildly
    // between runs; no table declares those keys, so the gate ignores them.
    let noisy = BASELINE
        .replace("\"collect_ns\": 30000", "\"collect_ns\": 90000")
        .replace("\"wall_ns\": 90000", "\"wall_ns\": 500000")
        .replace("\"aaaaaaa\"", "\"ccccccc\"");
    let new = scratch("new_ok", &noisy);
    let out = run_diff(&old, &new);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "wall-clock-only drift must pass the gate; stdout:\n{stdout}"
    );
    assert!(stdout.contains("gate: PASS"), "got:\n{stdout}");
    let _ = fs::remove_file(old);
    let _ = fs::remove_file(new);
}

#[test]
fn bench_diff_rejects_unparseable_input_with_usage_exit() {
    let old = scratch("old_bad", BASELINE);
    let new = scratch("new_bad", "{not json");
    let out = run_diff(&old, &new);
    assert_eq!(
        out.status.code(),
        Some(2),
        "parse failure is a usage error, not a gate verdict"
    );
    let _ = fs::remove_file(old);
    let _ = fs::remove_file(new);
}
