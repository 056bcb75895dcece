//! End-to-end gate check for `paper_tables bench-diff`: the actual
//! binary must exit nonzero when a gated deterministic counter regresses
//! beyond the threshold, and zero when the artifacts are equivalent.

use std::fs;
use std::process::Command;

const BASELINE: &str = r#"{
  "revision": "aaaaaaa",
  "workloads": [
    {"name": "test_pointer", "payload_bytes": 572, "collect_ns": 30000,
     "restore_ns": 40000, "tx_ns": 261511, "searches": 32},
    {"name": "bitonic_20000", "payload_bytes": 400108, "collect_ns": 90000,
     "tx_ns": 35773333, "searches": 20005}
  ]
}"#;

/// `bench-diff BASELINE <new>`: the exit code and stdout.
fn diff_against_baseline(case: &str, new: &str) -> (Option<i32>, String) {
    let dir = std::env::temp_dir();
    let path = |side: &str| {
        dir.join(format!(
            "hpm_bench_diff_{}_{case}_{side}",
            std::process::id()
        ))
    };
    let (old_path, new_path) = (path("old"), path("new"));
    fs::write(&old_path, BASELINE).expect("write scratch bench artifact");
    fs::write(&new_path, new).expect("write scratch bench artifact");
    let out = Command::new(env!("CARGO_BIN_EXE_paper_tables"))
        .arg("bench-diff")
        .args([&old_path, &new_path])
        .output()
        .expect("spawn paper_tables bench-diff");
    let _ = fs::remove_file(old_path);
    let _ = fs::remove_file(new_path);
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    (out.status.code(), stdout)
}

#[test]
fn bench_diff_exits_nonzero_on_regressed_input() {
    // Double test_pointer's searches and grow bitonic's payload by a
    // tenth: both gated.
    let regressed = BASELINE
        .replace("\"searches\": 32", "\"searches\": 64")
        .replace("\"payload_bytes\": 400108", "\"payload_bytes\": 440119")
        .replace("\"aaaaaaa\"", "\"bbbbbbb\"");
    let (code, stdout) = diff_against_baseline("regressed", &regressed);
    assert_eq!(
        code,
        Some(1),
        "regressed artifact must exit 1; stdout:\n{stdout}"
    );
    assert!(
        stdout.contains("REGRESSION: workloads/test_pointer: searches")
            && stdout.contains("REGRESSION: workloads/bitonic_20000: payload_bytes"),
        "both regressed counters should be reported; got:\n{stdout}"
    );
}

#[test]
fn bench_diff_passes_on_equivalent_input_despite_wallclock_noise() {
    // Artifacts up to 11aca28 carried wall clocks that shift wildly
    // between runs; no table declares those keys, so the gate ignores them.
    let noisy = BASELINE
        .replace("\"collect_ns\": 30000", "\"collect_ns\": 500000")
        .replace("\"restore_ns\": 40000", "\"restore_ns\": 7000")
        .replace("\"aaaaaaa\"", "\"ccccccc\"");
    let (code, stdout) = diff_against_baseline("noisy", &noisy);
    assert_eq!(
        code,
        Some(0),
        "wall-clock-only drift must pass the gate; stdout:\n{stdout}"
    );
    assert!(stdout.contains("gate: PASS"), "got:\n{stdout}");
}

#[test]
fn bench_diff_rejects_unparseable_input_with_usage_exit() {
    let (code, _) = diff_against_baseline("bad", "{not json");
    assert_eq!(
        code,
        Some(2),
        "parse failure is a usage error, not a gate verdict"
    );
}
