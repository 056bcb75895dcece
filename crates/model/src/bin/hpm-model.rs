//! `hpm-model` — run the model-check suite or replay a counterexample.
//!
//! ```text
//! hpm-model                      run every scenario; exit 1 on violations
//!                                or an exhausted search budget
//! hpm-model --scenario NAME      run one scenario by name
//! hpm-model --trace-dir DIR      also write counterexample JSONL to DIR
//! hpm-model --replay FILE        re-execute a recorded protocol trace;
//!                                exit 0 iff the recorded violation
//!                                reproduces
//! ```

use std::process::ExitCode;

use hpm_model::{parse_trace, replay_trace, run_all, ModelCheckReport};

fn usage() -> ExitCode {
    eprintln!(
        "usage: hpm-model [--scenario NAME] [--trace-dir DIR]\n       hpm-model --replay FILE"
    );
    ExitCode::from(2)
}

fn print_report(r: &ModelCheckReport) {
    let verdict = if !r.findings.is_empty() {
        "VIOLATION"
    } else if r.budget_exhausted {
        "INCOMPLETE"
    } else if r.expected_catch && r.caught {
        "caught"
    } else {
        "ok"
    };
    println!(
        "{:24} {:9} {:>9} states {:>9} runs {:>9} reduced  {}  {}",
        r.scenario, r.kind, r.states, r.interleavings, r.reductions, verdict, r.detail
    );
    for (code, message) in &r.findings {
        println!("  {}: {}", code.code(), message);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scenario: Option<String> = None;
    let mut trace_dir: Option<String> = None;
    let mut replay_file: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scenario" => match it.next() {
                Some(v) => scenario = Some(v.clone()),
                None => return usage(),
            },
            "--trace-dir" => match it.next() {
                Some(v) => trace_dir = Some(v.clone()),
                None => return usage(),
            },
            "--replay" => match it.next() {
                Some(v) => replay_file = Some(v.clone()),
                None => return usage(),
            },
            _ => return usage(),
        }
    }

    if let Some(path) = replay_file {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("hpm-model: cannot read {path}: {e}");
                return ExitCode::from(2);
            }
        };
        let tf = match parse_trace(&text) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("hpm-model: bad trace file {path}: {e}");
                return ExitCode::from(2);
            }
        };
        println!(
            "replaying {} witness for {} (recorded {})",
            tf.kind, tf.scenario, tf.code
        );
        match replay_trace(&tf) {
            Ok(out) if out.reproduced => {
                println!(
                    "reproduced: {} — {}",
                    out.code.as_deref().unwrap_or("?"),
                    out.message.as_deref().unwrap_or("")
                );
                ExitCode::SUCCESS
            }
            Ok(out) => {
                println!(
                    "NOT reproduced (replay ended with {:?})",
                    out.code.as_deref().unwrap_or("no violation")
                );
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("hpm-model: replay failed: {e}");
                ExitCode::from(2)
            }
        }
    } else {
        let reports: Vec<ModelCheckReport> = run_all()
            .into_iter()
            .filter(|r| scenario.as_deref().is_none_or(|s| r.scenario == s))
            .collect();
        if reports.is_empty() {
            eprintln!(
                "hpm-model: no scenario named {:?}",
                scenario.unwrap_or_default()
            );
            return ExitCode::from(2);
        }
        let mut violations = 0u32;
        let mut out_of_budget = 0u32;
        for r in &reports {
            print_report(r);
            violations += r.violations();
            out_of_budget += u32::from(r.budget_exhausted);
            if let (Some(dir), Some(trace)) = (&trace_dir, &r.trace_jsonl) {
                let path = format!("{dir}/{}.jsonl", r.scenario);
                if let Err(e) =
                    std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, trace))
                {
                    eprintln!("hpm-model: cannot write {path}: {e}");
                } else {
                    println!("  trace written to {path}");
                }
            }
        }
        if reports.iter().all(ModelCheckReport::passes) {
            ExitCode::SUCCESS
        } else {
            eprintln!(
                "hpm-model: {violations} violation(s), {out_of_budget} scenario(s) out of \
                 search budget"
            );
            ExitCode::FAILURE
        }
    }
}
