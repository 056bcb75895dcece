//! `repeat`: run the full set of workloads twice on one commit with one
//! seed, the second time in the opposite order, and hold each end-to-end
//! metric's difference against its bound. This is the evidence that the
//! numbers repeat well enough for the bounds to mean something.

use crate::metrics::END_TO_END;
use crate::workloads::WORKLOADS;
use std::process::{Command, ExitCode};

/// The value of `name` in a result line (`"name": {"value": 1.5, ...`).
pub fn metric_in(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].trim().parse().ok()
}

/// Run one workload in a child process; its result line, if it passed.
fn one_run(workload: &str, seed: &str, seconds: &str) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", seed])
        .args(["--seconds", seconds, "--trace", "0"])
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default().to_string();
    if !out.status.success() || !last.contains("\"correct\": true") {
        return Err(format!(
            "{workload} failed ({}): {}{}",
            out.status,
            last,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(last)
}

pub fn run(args: &[String]) -> ExitCode {
    let (mut seed, mut seconds) = ("1".to_string(), "10".to_string());
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match (flag.as_str(), it.next()) {
            ("--seed", Some(v)) => seed = v.clone(),
            ("--seconds", Some(v)) => seconds = v.clone(),
            _ => {
                eprintln!("usage: hpm-benchmark repeat [--seed <u64>] [--seconds <n>]");
                return ExitCode::from(2);
            }
        }
    }
    let mut sets: Vec<Vec<(&str, String)>> = Vec::new();
    for reversed in [false, true] {
        let mut order = WORKLOADS.to_vec();
        if reversed {
            order.reverse();
        }
        let mut set = Vec::new();
        for w in order {
            eprintln!("set {} of 2: {w}", sets.len() + 1);
            match one_run(w, &seed, &seconds) {
                Ok(line) => set.push((w, line)),
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::from(1);
                }
            }
        }
        set.sort_by_key(|(w, _)| WORKLOADS.iter().position(|x| x == w));
        sets.push(set);
    }
    let mut breaches = 0;
    println!("workload metric first second relative_difference bound verdict");
    for ((w, first), (_, second)) in sets[0].iter().zip(&sets[1]) {
        for m in &END_TO_END {
            let (Some(a), Some(b)) = (metric_in(first, m.name), metric_in(second, m.name)) else {
                eprintln!("{w}: {} missing from a result line", m.name);
                return ExitCode::from(1);
            };
            let diff = (a - b).abs() / a.abs().min(b.abs());
            // One seed must put the same bytes on the wire every time.
            let ok = if m.name == "wire_bytes" {
                a == b
            } else {
                diff <= m.bound
            };
            if !ok {
                breaches += 1;
            }
            let verdict = if ok { "ok" } else { "BREACH" };
            println!("{w} {} {a} {b} {diff:.4} {} {verdict}", m.name, m.bound);
        }
    }
    if breaches == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("{breaches} end-to-end metric(s) differ by more than their bound");
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_a_metric_out_of_a_result_line() {
        let line = r#"{"correct": true, "attempted": 9, "failed": 0, "metrics": {"migrate_s": {"value": 0.25, "unit": "s"}, "wire_bytes": {"value": 1024, "unit": "bytes"}}}"#;
        assert_eq!(metric_in(line, "migrate_s"), Some(0.25));
        assert_eq!(metric_in(line, "wire_bytes"), Some(1024.0));
        assert_eq!(metric_in(line, "setup_s"), None);
    }
}
