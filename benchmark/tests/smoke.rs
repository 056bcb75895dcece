//! Smoke test: every workload at `--quick` size through the real binary.
//!
//! One test per workload, so no two tests write the same span file.

use hpm_benchmark::metrics::{name_is_well_formed, END_TO_END, PER_LAYER};
use hpm_benchmark::repeat::metric_in;
use hpm_benchmark::workloads::WORKLOADS;
use std::process::Command;

/// Run the benchmark binary; (exit success, standard output).
fn bench(workload: &str, seed: u64, trace: u8, extra: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_hpm-benchmark"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", &trace.to_string(), "--quick"])
        .args(extra)
        .output()
        .expect("spawn hpm-benchmark");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("utf-8 output"),
    )
}

/// The result line of a run that must pass.
fn result_line(workload: &str, seed: u64, trace: u8) -> String {
    let (ok, stdout) = bench(workload, seed, trace, &[]);
    assert!(ok, "{workload} --trace {trace} failed:\n{stdout}");
    let line = stdout.lines().last().expect("a result line").to_string();
    assert!(line.contains("\"correct\": true"), "{line}");
    assert!(line.contains("\"failed\": 0"), "{line}");
    line
}

/// `line` holds exactly the metrics `expected` (name, unit), once each.
fn assert_metrics(line: &str, expected: &[(&str, &str)]) {
    assert_eq!(
        line.matches("{\"value\": ").count(),
        expected.len(),
        "metric count in {line}"
    );
    for (name, unit) in expected {
        assert!(name_is_well_formed(name), "{name}");
        assert_eq!(
            line.matches(&format!("\"{name}\": {{\"value\": ")).count(),
            1,
            "{name} in {line}"
        );
        let value = metric_in(line, name).expect(name);
        assert!(value.is_finite(), "{name} = {value}");
        let tail = &line[line.find(&format!("\"{name}\": ")).unwrap()..];
        let entry = &tail[..tail.find('}').unwrap()];
        assert!(
            entry.ends_with(&format!("\"unit\": \"{unit}\"")),
            "{name}: {entry}"
        );
    }
}

/// Everything the smoke test asks of one workload.
fn smoke(workload: &str, has_graph: bool, staged: bool) {
    let end_to_end: Vec<_> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    let per_layer: Vec<_> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();

    // Every metric exactly once, with its unit.
    let e1 = result_line(workload, 1, 0);
    let l1 = result_line(workload, 1, 1);
    assert_metrics(&e1, &end_to_end);
    assert_metrics(&l1, &per_layer);

    // The same seed gives the same bytes and the same counts.
    let e1_again = result_line(workload, 1, 0);
    let l1_again = result_line(workload, 1, 1);
    assert_eq!(
        metric_in(&e1, "wire_bytes"),
        metric_in(&e1_again, "wire_bytes")
    );
    for m in PER_LAYER.iter().filter(|m| m.exact) {
        assert_eq!(
            metric_in(&l1, m.name),
            metric_in(&l1_again, m.name),
            "{workload}: {} is fixed by the seed",
            m.name
        );
    }

    // Another seed gives another graph. (`bulk_numeric` and `tiny_image`
    // have no generated graph: their block counts are fixed.)
    if has_graph {
        let l2 = result_line(workload, 2, 1);
        assert_ne!(
            metric_in(&l1, "core.collect_blocks"),
            metric_in(&l2, "core.collect_blocks"),
            "{workload}: seed 2 collects as many blocks as seed 1"
        );
    }

    // One corrupted byte on the link fails the run. Only a staged workload
    // has a link the benchmark can reach into.
    if staged {
        let (ok, stdout) = bench(workload, 1, 0, &["--corrupt"]);
        assert!(!ok, "{workload} --corrupt exited 0:\n{stdout}");
        let share: f64 = stdout
            .lines()
            .find_map(|l| l.strip_prefix("fail_share "))
            .and_then(|l| l.split(' ').next())
            .and_then(|v| v.parse().ok())
            .expect("a fail_share line");
        assert!(share > 0.0, "{workload} --corrupt: fail_share {share}");
    }
}

#[test]
fn bulk_numeric() {
    smoke("bulk_numeric", false, true);
}

#[test]
fn pointer_graph() {
    smoke("pointer_graph", true, true);
}

#[test]
fn chunked_wire() {
    smoke("chunked_wire", true, false);
}

#[test]
fn precopy_freeze() {
    smoke("precopy_freeze", true, true);
}

#[test]
fn tiny_image() {
    smoke("tiny_image", false, false);
}

/// `BENCHMARK.json` names the same workloads and metrics, with the same
/// units, directions and bounds, as the tables the binary reports from.
#[test]
fn benchmark_json_matches_the_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let flat: String = json.split_whitespace().collect();
    for w in WORKLOADS {
        assert!(
            flat.contains(&format!("{{\"name\":\"{w}\",\"why\":")),
            "{w}"
        );
    }
    for m in &END_TO_END {
        let better = if m.lower_is_better { "lower" } else { "higher" };
        let entry = format!(
            "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{better}\",\"bound\":{}}}",
            m.name, m.unit, m.bound
        );
        assert!(flat.contains(&entry), "{entry}");
    }
    for m in &PER_LAYER {
        let better = if m.lower_is_better { "lower" } else { "higher" };
        let entry = format!(
            "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{better}\"}}",
            m.name, m.unit
        );
        assert!(flat.contains(&entry), "{entry}");
    }
    assert_eq!(
        flat.matches("{\"name\":").count(),
        WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
    );
}
