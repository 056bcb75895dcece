//! Exporters for a finished [`TraceLog`].
//!
//! * [`chrome_trace_json`] — Chrome trace-event JSON (the `traceEvents`
//!   object form), loadable in `chrome://tracing` and Perfetto. Tracks
//!   become named threads via `thread_name` metadata events; attached
//!   stats become counter events.
//! * [`jsonl`] — one JSON object per event, for grep/jq pipelines.
//! * [`summary`] — a human-readable text digest: per-span totals plus
//!   the attached stat groups.
//!
//! All JSON is hand-rolled (the workspace is dependency-free); numbers
//! are emitted via `fmt_f64` so output is locale-independent and
//! round-trippable.

use crate::stats::{render_groups, StatField, StatValue};
use crate::trace::{EventKind, TraceLog};

/// Attached stat groups in a deterministic order: sorted by group name
/// (stable for equal names), independent of attach order — so exports of
/// the same logical state are byte-identical across runs.
fn sorted_stats(log: &TraceLog) -> Vec<&(String, Vec<StatField>)> {
    let mut groups: Vec<&(String, Vec<StatField>)> = log.stats.iter().collect();
    groups.sort_by(|a, b| a.0.cmp(&b.0));
    groups
}

/// Escape a string for inclusion in a JSON string literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Format an `f64` as a JSON number (no NaN/inf — clamped to 0).
fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn args_json(args: &[(&'static str, f64)]) -> String {
    let fields: Vec<String> = args
        .iter()
        .map(|(k, v)| format!("\"{}\":{}", esc(k), fmt_f64(*v)))
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// Render a log as Chrome trace-event JSON: `{"traceEvents":[...]}`.
///
/// Mapping: track *n* → `tid` *n+1* under `pid` 1, with a `thread_name`
/// metadata record; `Begin`/`End` → `"B"`/`"E"`; `Instant` → `"i"`
/// (thread scope); `Counter` → `"C"`. Attached stat groups are emitted as
/// one `"C"` event per group named `stats.<group>` at ts 0, so phase
/// totals are visible as counter tracks in the viewer. Timestamps are
/// microseconds (float), per the trace-event spec.
pub fn chrome_trace_json(log: &TraceLog) -> String {
    let mut records: Vec<String> = Vec::with_capacity(log.events.len() + log.tracks.len() + 4);

    for (i, name) in log.tracks.iter().enumerate() {
        records.push(format!(
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            i + 1,
            esc(name)
        ));
    }

    for ev in &log.events {
        let ts_us = ev.ts_ns as f64 / 1000.0;
        let tid = ev.track + 1;
        let name = esc(ev.name);
        match ev.kind {
            EventKind::Begin => records.push(format!(
                "{{\"ph\":\"B\",\"pid\":1,\"tid\":{tid},\"ts\":{},\"name\":\"{name}\",\
                 \"args\":{}}}",
                fmt_f64(ts_us),
                args_json(&ev.args)
            )),
            EventKind::End => records.push(format!(
                "{{\"ph\":\"E\",\"pid\":1,\"tid\":{tid},\"ts\":{},\"name\":\"{name}\",\
                 \"args\":{}}}",
                fmt_f64(ts_us),
                args_json(&ev.args)
            )),
            EventKind::Instant => records.push(format!(
                "{{\"ph\":\"i\",\"pid\":1,\"tid\":{tid},\"ts\":{},\"s\":\"t\",\
                 \"name\":\"{name}\",\"args\":{}}}",
                fmt_f64(ts_us),
                args_json(&ev.args)
            )),
            EventKind::Counter(v) => records.push(format!(
                "{{\"ph\":\"C\",\"pid\":1,\"tid\":{tid},\"ts\":{},\"name\":\"{name}\",\
                 \"args\":{{\"value\":{}}}}}",
                fmt_f64(ts_us),
                fmt_f64(v)
            )),
        }
    }

    for (group, fields) in sorted_stats(log) {
        let args: Vec<String> = fields
            .iter()
            .map(|f| format!("\"{}\":{}", esc(f.name), f.value.raw()))
            .collect();
        records.push(format!(
            "{{\"ph\":\"C\",\"pid\":1,\"tid\":1,\"ts\":0,\"name\":\"stats.{}\",\
             \"args\":{{{}}}}}",
            esc(group),
            args.join(",")
        ));
    }

    if log.dropped > 0 {
        records.push(format!(
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"process_labels\",\
             \"args\":{{\"labels\":\"dropped {} events\"}}}}",
            log.dropped
        ));
    }

    format!("{{\"traceEvents\":[{}]}}\n", records.join(","))
}

/// Render a log as JSON Lines: one object per event, with resolved track
/// names. Attached stat groups follow as `{"stats":...}` records.
pub fn jsonl(log: &TraceLog) -> String {
    let mut out = String::new();
    let track_name = |t: u32| -> &str {
        log.tracks
            .get(t as usize)
            .map(String::as_str)
            .unwrap_or("?")
    };
    for ev in &log.events {
        let (kind, extra) = match ev.kind {
            EventKind::Begin => ("begin", String::new()),
            EventKind::End => ("end", String::new()),
            EventKind::Instant => ("instant", String::new()),
            EventKind::Counter(v) => ("counter", format!(",\"value\":{}", fmt_f64(v))),
        };
        out.push_str(&format!(
            "{{\"ts_ns\":{},\"track\":\"{}\",\"name\":\"{}\",\"kind\":\"{kind}\"{extra},\
             \"args\":{}}}\n",
            ev.ts_ns,
            esc(track_name(ev.track)),
            esc(ev.name),
            args_json(&ev.args)
        ));
    }
    for (group, fields) in sorted_stats(log) {
        let args: Vec<String> = fields
            .iter()
            .map(|f| format!("\"{}\":{}", esc(f.name), f.value.raw()))
            .collect();
        out.push_str(&format!(
            "{{\"stats\":\"{}\",{}}}\n",
            esc(group),
            args.join(",")
        ));
    }
    out
}

/// Render a human-readable digest: per-span-name totals (count + total
/// duration), attached stat groups, and drop accounting.
pub fn summary(log: &TraceLog) -> String {
    let mut out = String::new();
    let spans = log.spans();
    if !spans.is_empty() {
        // Aggregate by name, preserving first-seen order.
        let mut order: Vec<&'static str> = Vec::new();
        let mut agg: std::collections::HashMap<&'static str, (u64, u64)> = Default::default();
        for s in &spans {
            if !agg.contains_key(s.name) {
                order.push(s.name);
            }
            let e = agg.entry(s.name).or_insert((0, 0));
            e.0 += 1;
            e.1 += s.duration().as_nanos() as u64;
        }
        out.push_str("spans:\n");
        let name_w = order.iter().map(|n| n.len()).max().unwrap_or(0);
        for name in order {
            let (count, total_ns) = agg[name];
            out.push_str(&format!(
                "  {name:<name_w$}  n={count:<6} total={}\n",
                StatValue::Nanos(total_ns)
            ));
        }
    }
    if !log.stats.is_empty() {
        out.push_str("stats:\n");
        let mut groups = log.stats.clone();
        groups.sort_by(|a, b| a.0.cmp(&b.0));
        for line in render_groups(&groups).lines() {
            out.push_str("  ");
            out.push_str(line);
            out.push('\n');
        }
    }
    if log.dropped > 0 {
        out.push_str(&format!(
            "dropped: {} events (ring buffer full)\n",
            log.dropped
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::StatField;
    use crate::trace::Tracer;

    /// Minimal structural JSON validity check: balanced brackets outside
    /// strings, valid escapes, non-empty.
    pub(crate) fn json_is_balanced(s: &str) -> bool {
        let mut depth: Vec<char> = Vec::new();
        let mut in_str = false;
        let mut escaped = false;
        for c in s.chars() {
            if in_str {
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    in_str = false;
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' => depth.push('}'),
                '[' => depth.push(']'),
                '}' | ']' if depth.pop() != Some(c) => {
                    return false;
                }
                _ => {}
            }
        }
        !s.is_empty() && depth.is_empty() && !in_str
    }

    fn sample_log() -> TraceLog {
        let t = Tracer::new();
        let src = t.track("src");
        {
            let _c = src.span("collect");
            src.instant_args("collect.block", &[("bytes", 128.0)]);
            let _m = src.span("msrlt.search");
        }
        t.counter("queue", 3.0);
        let mut log = t.take_log();
        log.attach_stats(
            "collect",
            vec![
                StatField::count("blocks_saved", 2),
                StatField::bytes("bytes_out", 128),
            ],
        );
        log
    }

    #[test]
    fn chrome_json_is_structurally_valid() {
        let json = chrome_trace_json(&sample_log());
        assert!(json_is_balanced(&json));
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ph\":\"E\""));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"name\":\"collect\""));
        assert!(json.contains("\"name\":\"msrlt.search\""));
        assert!(json.contains("\"name\":\"stats.collect\""));
        assert!(json.contains("\"blocks_saved\":2"));
    }

    #[test]
    fn jsonl_one_object_per_line() {
        let text = jsonl(&sample_log());
        for line in text.lines() {
            assert!(json_is_balanced(line), "bad line: {line}");
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
        assert!(text.contains("\"track\":\"src\""));
        assert!(text.contains("\"kind\":\"counter\""));
    }

    #[test]
    fn summary_mentions_spans_and_stats() {
        let text = summary(&sample_log());
        assert!(text.contains("collect"));
        assert!(text.contains("msrlt.search"));
        assert!(text.contains("collect.blocks_saved"));
    }

    #[test]
    fn stat_groups_export_sorted_regardless_of_attach_order() {
        let mk = |first_zeta: bool| {
            let t = Tracer::new();
            let mut log = t.take_log();
            let groups: Vec<(&str, u64)> = if first_zeta {
                vec![("zeta", 1), ("alpha", 2)]
            } else {
                vec![("alpha", 2), ("zeta", 1)]
            };
            for (name, v) in groups {
                log.attach_stats(name, vec![StatField::count("v", v)]);
            }
            log
        };
        let (a, b) = (mk(true), mk(false));
        assert_eq!(jsonl(&a), jsonl(&b));
        assert_eq!(chrome_trace_json(&a), chrome_trace_json(&b));
        assert_eq!(summary(&a), summary(&b));
        let text = jsonl(&a);
        assert!(text.find("alpha").unwrap() < text.find("zeta").unwrap());
    }

    #[test]
    fn escaping_handles_specials() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(esc("\u{1}"), "\\u0001");
    }

    #[test]
    fn numbers_are_json_safe() {
        assert_eq!(fmt_f64(5.0), "5");
        assert_eq!(fmt_f64(5.25), "5.25");
        assert_eq!(fmt_f64(f64::NAN), "0");
        assert_eq!(fmt_f64(f64::INFINITY), "0");
    }
}
