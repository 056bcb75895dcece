//! Deterministic JSONL counterexample traces.
//!
//! A violation found by either checker is written as one JSON object per
//! line — a header naming the scenario, kind, code, and message, then
//! the replayable witness: the protocol checker's event path. The
//! format is hand-rolled on both sides (the workspace is
//! dependency-free); the writer escapes and the parser accepts exactly
//! the subset the writer emits.
//!
//! Traces are replayed with `hpm-model --replay <file>` or
//! [`crate::replay_trace`].

use crate::proto::ProtoViolation;

/// Minimal JSON string escape for the writer.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A parsed trace file: enough to replay the witness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceFile {
    /// Scenario name the witness belongs to.
    pub scenario: String,
    /// `"protocol"` — the only kind [`parse_trace`] accepts.
    pub kind: String,
    /// Stable diagnostic code, e.g. `"HPM042"`.
    pub code: String,
    /// The violation message recorded at capture time.
    pub message: String,
    /// Event names from the initial state.
    pub events: Vec<String>,
}

/// Serialize a protocol-checker counterexample.
pub fn proto_trace_to_jsonl(scenario: &str, v: &ProtoViolation) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"scenario\":\"{}\",\"kind\":\"protocol\",\"code\":\"{}\",\"message\":\"{}\"}}\n",
        esc(scenario),
        v.code.code(),
        esc(&v.message),
    ));
    for (i, ev) in v.trace.iter().enumerate() {
        out.push_str(&format!("{{\"step\":{i},\"event\":\"{}\"}}\n", esc(ev)));
    }
    out
}

/// Extract the string field `key` from a single JSON object line.
fn str_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    let v = u32::from_str_radix(&hex, 16).ok()?;
                    out.push(char::from_u32(v)?);
                }
                other => out.push(other),
            },
            c => out.push(c),
        }
    }
    None
}

/// Parse a trace file produced by [`proto_trace_to_jsonl`].
pub fn parse_trace(text: &str) -> Result<TraceFile, String> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header = lines.next().ok_or("empty trace file")?;
    let scenario = str_field(header, "scenario").ok_or("header missing \"scenario\"")?;
    let kind = str_field(header, "kind").ok_or("header missing \"kind\"")?;
    let code = str_field(header, "code").ok_or("header missing \"code\"")?;
    let message = str_field(header, "message").ok_or("header missing \"message\"")?;
    if kind != "protocol" {
        return Err(format!("unknown trace kind {kind:?}"));
    }
    let events = lines
        .map(|line| {
            str_field(line, "event")
                .ok_or_else(|| format!("protocol step missing \"event\": {line}"))
        })
        .collect::<Result<_, _>>()?;
    Ok(TraceFile {
        scenario,
        kind,
        code,
        message,
        events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpm_lint::LintCode;

    #[test]
    fn protocol_trace_round_trips() {
        let v = ProtoViolation {
            code: LintCode::ModelDoubleRelease,
            message: "chunk 2 released twice".into(),
            trace: vec!["ship.deliver(0)".into(), "deliver".into()],
        };
        let text = proto_trace_to_jsonl("pipe_baseline", &v);
        let parsed = parse_trace(&text).unwrap();
        assert_eq!(parsed.kind, "protocol");
        assert_eq!(parsed.code, "HPM042");
        assert_eq!(
            parsed.events,
            vec!["ship.deliver(0)".to_string(), "deliver".to_string()]
        );
    }

    #[test]
    fn garbage_is_rejected_with_a_reason() {
        assert!(parse_trace("").is_err());
        assert!(parse_trace("{\"scenario\":\"x\"}").is_err());
        let bad_kind =
            "{\"scenario\":\"x\",\"kind\":\"weird\",\"code\":\"HPM040\",\"message\":\"m\"}";
        let err = parse_trace(bad_kind).unwrap_err();
        assert!(err.contains("unknown trace kind"));
    }
}
