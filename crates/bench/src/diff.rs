//! Bench-diff: compare two `BENCH_<rev>.json` artifacts and gate on
//! regressions.
//!
//! Everything in an artifact is a function of the code and the seeds
//! (wall clocks are printed by `paper_tables`, never written), so a change
//! is a real behavioural change. What a change means is read from the
//! section's declaration in [`crate::ARTIFACT`]: a [`Kind::Counter`] may
//! not grow beyond the threshold; [`Kind::Info`] is reported. A gated
//! column, a row that carried one, or a whole section present in the old
//! artifact and absent from the new one is itself a violation — a gate
//! does not retire by deleting what it reads. Sections and keys no
//! declaration names (older schemas' wall clocks, the sections whose
//! gates are now test assertions) are ignored.
//!
//! The module carries its own minimal JSON reader (the workspace is
//! dependency-free by design); it supports exactly the subset the bench
//! artifacts use — objects, arrays, unescaped strings, numbers, booleans,
//! null.

use crate::table::Kind;
use std::fmt::Write as _;

/// A parsed JSON value (just enough for the bench artifacts).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number, kept as f64 (bench counters fit exactly below 2^53).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parse a JSON document. Errors carry a byte offset for context.
pub fn parse_json(s: &str) -> Result<Json, String> {
    let b = s.as_bytes();
    let mut p = Parser { b, i: 0 };
    p.ws();
    let v = p.value()?;
    p.ws();
    if p.i != b.len() {
        return Err(format!("trailing bytes at offset {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected byte at offset {}", self.i)),
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.i))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.expect(b':')?;
            self.ws();
            let val = self.value()?;
            fields.push((key, val));
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.i)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.ws();
            items.push(self.value()?);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.i)),
            }
        }
    }

    /// A string, verbatim: the artifact writer never escapes (its
    /// strings are labels and revisions), so a backslash is refused.
    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let len = self.b[self.i..].iter().position(|&c| c == b'"');
        let len = len.ok_or("unterminated string")?;
        let text = &self.b[self.i..self.i + len];
        if text.contains(&b'\\') {
            return Err(format!("escape sequence at offset {}", self.i));
        }
        self.i += len + 1;
        std::str::from_utf8(text)
            .map(str::to_string)
            .map_err(|e| e.to_string())
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while matches!(
            self.peek(),
            Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|t| t.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at offset {start}"))
    }
}

/// One numeric metric compared across the two artifacts.
#[derive(Debug, Clone)]
pub struct MetricDelta {
    /// Section name (`workloads`, `translate`, …).
    pub section: String,
    /// Entry key within the section (workload name or fault rate).
    pub entry: String,
    /// Metric field name.
    pub metric: String,
    /// Old value.
    pub old: f64,
    /// New value.
    pub new: f64,
    /// Relative change in percent (`+` = increased).
    pub pct: f64,
    /// Whether this metric is in the regression gate.
    pub gated: bool,
    /// Whether the gate flagged it.
    pub violation: bool,
}

/// The full comparison: every shared numeric metric, plus bookkeeping
/// for what could not be compared.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Revision label of the old artifact.
    pub old_rev: String,
    /// Revision label of the new artifact.
    pub new_rev: String,
    /// Per-metric deltas, in artifact order.
    pub deltas: Vec<MetricDelta>,
    /// Gate violations, human-readable (nonempty ⇒ CI fails).
    pub violations: Vec<String>,
    /// Sections/entries present on one side only where that retires no
    /// gate (older schemas lack newer sections; a row that carried only
    /// ungated values left) — reported, never fatal.
    pub skipped: Vec<String>,
}

type Columns = [(&'static str, Kind)];

/// What names an entry: its [`Kind::Key`] values.
fn entry_key(columns: &Columns, item: &Json) -> String {
    let keys = columns.iter().filter(|(_, kind)| *kind == Kind::Key);
    let parts: Vec<String> = keys
        .filter_map(|(name, _)| match item.get(name)? {
            Json::Str(s) => Some(s.clone()),
            Json::Num(n) => Some(format!("{name}={}", trim_num(*n))),
            _ => None,
        })
        .collect();
    parts.join(" ")
}

/// Whether the old entry carried a value some gate reads.
fn carries_a_gate(columns: &Columns, item: &Json) -> bool {
    columns
        .iter()
        .any(|(name, kind)| *kind == Kind::Counter && item.get(name).is_some())
}

fn section_items<'a>(doc: &'a Json, section: &str) -> Option<&'a [Json]> {
    doc.get(section).and_then(Json::as_arr)
}

/// Compare two parsed bench artifacts. `threshold_pct` is the growth
/// allowed on a gated counter (e.g. `5.0` = 5%).
pub fn bench_diff(old: &Json, new: &Json, threshold_pct: f64) -> DiffReport {
    let rev = |doc: &Json| {
        let rev = doc.get(crate::REVISION).and_then(Json::as_str);
        rev.unwrap_or("?").to_string()
    };
    let mut report = DiffReport {
        old_rev: rev(old),
        new_rev: rev(new),
        ..DiffReport::default()
    };
    if !matches!(new, Json::Obj(_)) {
        report
            .violations
            .push("new artifact is not an object".into());
        return report;
    }

    for section in crate::ARTIFACT {
        let (name, columns) = (section.name(), section.columns());
        let items = |doc| section_items(doc, name);
        let (old_items, new_items) = match (items(old), items(new)) {
            (Some(o), Some(n)) => (o, n),
            // An old artifact missing a section is just an older schema;
            // a section vanishing from the new one would silently retire
            // its gates, so it reads as a regression, not a skip.
            (Some(_), None) => {
                report.violations.push(format!(
                    "MissingSection: gated section '{name}' present in {} but absent in {}",
                    report.old_rev, report.new_rev
                ));
                continue;
            }
            (None, Some(_)) => {
                report
                    .skipped
                    .push(format!("section '{name}' absent in {}", report.old_rev));
                continue;
            }
            (None, None) => continue,
        };
        let keyed = |item: &Json| entry_key(&columns, item);
        for new_item in new_items {
            let key = keyed(new_item);
            match old_items.iter().find(|o| keyed(o) == key) {
                Some(old_item) => diff_entry(
                    (name, &columns),
                    &key,
                    old_item,
                    new_item,
                    threshold_pct,
                    &mut report,
                ),
                None => report
                    .skipped
                    .push(format!("{name}/{key} absent in {}", report.old_rev)),
            }
        }
        for old_item in old_items {
            let key = keyed(old_item);
            if new_items.iter().any(|n| keyed(n) == key) {
                continue;
            }
            let gone = format!("{name}/{key} absent in {}", report.new_rev);
            if carries_a_gate(&columns, old_item) {
                report
                    .violations
                    .push(format!("MissingEntry: gated {gone}"));
            } else {
                report.skipped.push(gone);
            }
        }
    }
    report
}

fn diff_entry(
    (section, columns): (&str, &Columns),
    key: &str,
    old_item: &Json,
    new_item: &Json,
    threshold_pct: f64,
    report: &mut DiffReport,
) {
    for &(metric, kind) in columns {
        let (Some(old_val), new_val) = (old_item.get(metric), new_item.get(metric)) else {
            continue; // an older schema never had it
        };
        let gated = kind == Kind::Counter;
        let Some(new_val) = new_val else {
            if gated {
                report.violations.push(format!(
                    "MissingMetric: gated {section}/{key}: {metric} absent in {}",
                    report.new_rev
                ));
            }
            continue;
        };
        let (Some(o), Some(n)) = (old_val.as_f64(), new_val.as_f64()) else {
            continue;
        };
        let pct = if o == 0.0 {
            if n == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (n / o - 1.0) * 100.0
        };
        // From zero any growth is infinite relative growth.
        let violation = gated && pct > threshold_pct + 1e-9;
        if violation {
            report.violations.push(format!(
                "{section}/{key}: {metric} {o} -> {n} ({pct:+.1}%, allowed {threshold_pct:.1}%)"
            ));
        }
        report.deltas.push(MetricDelta {
            section: section.to_string(),
            entry: key.to_string(),
            metric: metric.to_string(),
            old: o,
            new: n,
            pct,
            gated,
            violation,
        });
    }
}

/// Render the diff as an aligned human table: gated metrics always,
/// informational ones only when they moved more than 1%, violations
/// flagged in the last column.
pub fn render_diff(report: &DiffReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "bench-diff: {} -> {}  ({} metrics compared)",
        report.old_rev,
        report.new_rev,
        report.deltas.len()
    );
    let _ = writeln!(
        out,
        "{:<12} {:<16} {:<18} {:>14} {:>14} {:>9}  gate",
        "section", "entry", "metric", "old", "new", "delta"
    );
    for d in &report.deltas {
        if !d.gated && d.pct.abs() <= 1.0 {
            continue;
        }
        let gate = if d.violation {
            "FAIL"
        } else if d.gated {
            "ok"
        } else {
            "-"
        };
        let pct = if d.pct.is_finite() {
            format!("{:+.1}%", d.pct)
        } else {
            "new".to_string()
        };
        let _ = writeln!(
            out,
            "{:<12} {:<16} {:<18} {:>14} {:>14} {:>9}  {}",
            d.section,
            d.entry,
            d.metric,
            trim_num(d.old),
            trim_num(d.new),
            pct,
            gate
        );
    }
    for s in &report.skipped {
        let _ = writeln!(out, "skipped: {s}");
    }
    if report.violations.is_empty() {
        let _ = writeln!(
            out,
            "gate: PASS (threshold respected on every gated counter)"
        );
    } else {
        for v in &report.violations {
            let _ = writeln!(out, "gate: REGRESSION: {v}");
        }
    }
    out
}

fn trim_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.4}")
    }
}

/// Parse the committed bench-history index (`bench_history.json`): the
/// `(revision, file)` of every artifact, oldest first. This normalizes
/// the artifacts, whose schemas differ in the sections they carry, into
/// one walkable trajectory without rewriting them.
pub fn parse_history(s: &str) -> Result<Vec<(String, String)>, String> {
    let doc = parse_json(s)?;
    let entries = doc
        .get("entries")
        .and_then(Json::as_arr)
        .ok_or("bench_history.json: missing 'entries' array")?;
    let mut out = Vec::new();
    for e in entries {
        let rev = e
            .get("revision")
            .and_then(Json::as_str)
            .ok_or("bench_history.json: entry missing 'revision'")?;
        let file = e
            .get("file")
            .and_then(Json::as_str)
            .ok_or("bench_history.json: entry missing 'file'")?;
        out.push((rev.to_string(), file.to_string()));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const OLD: &str = r#"{
        "revision": "aaa1111",
        "workloads": [
            {"name": "w", "payload_bytes": 1000, "tx_ns": 80, "searches": 10,
             "collect_ns": 500, "cache_hit_rate": 0.9}
        ]
    }"#;

    #[test]
    fn parser_round_trips_the_artifact_subset() {
        let v = parse_json(OLD).unwrap();
        assert_eq!(v.get("revision").and_then(Json::as_str), Some("aaa1111"));
        let w = &v.get("workloads").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(w.get("payload_bytes").and_then(Json::as_f64), Some(1000.0));
        assert_eq!(w.get("cache_hit_rate").and_then(Json::as_f64), Some(0.9));
        assert!(parse_json("[1, true, null, \"a b\", \"\"]").is_ok());
        assert!(
            parse_json("[\"a\\nb\"]").is_err(),
            "the writer never escapes"
        );
        assert!(parse_json("{bad").is_err());
        assert!(parse_json("{} trailing").is_err());
    }

    #[test]
    fn identical_artifacts_pass() {
        let old = parse_json(OLD).unwrap();
        let report = bench_diff(&old, &old, 5.0);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.deltas.iter().all(|d| !d.violation));
    }

    #[test]
    fn counter_regressions_fail_and_undeclared_keys_are_not_compared() {
        let old = parse_json(OLD).unwrap();
        let new = parse_json(
            &OLD.replace("\"searches\": 10", "\"searches\": 20")
                .replace("\"collect_ns\": 500", "\"collect_ns\": 50000")
                .replace("\"tx_ns\": 80", "\"tx_ns\": 800")
                .replace("\"revision\": \"aaa1111\"", "\"revision\": \"bbb2222\""),
        )
        .unwrap();
        let report = bench_diff(&old, &new, 5.0);
        // searches doubled: gated, fails. tx_ns is informational: shown,
        // never fatal. collect_ns is a key older artifacts carried and no
        // declaration names: not a metric.
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert!(report.violations[0].contains("searches"));
        assert!(report
            .deltas
            .iter()
            .any(|d| d.metric == "tx_ns" && !d.gated));
        assert!(report.deltas.iter().all(|d| d.metric != "collect_ns"));
        // Growth within the threshold passes.
        let new = parse_json(&OLD.replace("\"searches\": 10", "\"searches\": 10.4")).unwrap();
        assert!(bench_diff(&old, &new, 5.0).violations.is_empty());
        let rendered = render_diff(&report);
        assert!(rendered.contains("REGRESSION"));
        assert!(rendered.contains("aaa1111 -> bbb2222"));
    }

    #[test]
    fn missing_sections_are_skipped_not_fatal() {
        let new = parse_json(OLD).unwrap();
        let old = parse_json(r#"{"revision": "old"}"#).unwrap();
        let report = bench_diff(&old, &new, 5.0);
        assert!(report.violations.is_empty());
        assert!(report.skipped.iter().any(|s| s.contains("'workloads'")));
        let old = parse_json(r#"{"revision": "old", "workloads": []}"#).unwrap();
        let report = bench_diff(&old, &new, 5.0);
        assert!(report.violations.is_empty());
        assert!(report.skipped.iter().any(|s| s.contains("workloads/w")));
    }

    /// Older artifacts carry sections whose gates are now test
    /// assertions; no declaration names them, so they are not compared.
    #[test]
    fn sections_no_declaration_names_are_not_compared() {
        let old = parse_json(&OLD.replace(
            "\"workloads\"",
            r#""lint": [{"name": "w", "warnings": 0}], "workloads""#,
        ))
        .unwrap();
        let report = bench_diff(&old, &parse_json(OLD).unwrap(), 5.0);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.deltas.iter().all(|d| d.section == "workloads"));
    }

    #[test]
    fn deleting_a_gated_section_from_the_new_artifact_is_fatal() {
        let old = parse_json(OLD).unwrap();
        let new = parse_json(r#"{"revision": "bbb2222"}"#).unwrap();
        let report = bench_diff(&old, &new, 5.0);
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert!(report.violations[0].starts_with("MissingSection"));
        assert!(report.violations[0].contains("'workloads'"));
        assert!(render_diff(&report).contains("MissingSection"));
    }

    #[test]
    fn dropping_a_gated_metric_from_a_surviving_row_is_fatal() {
        let old = parse_json(OLD).unwrap();
        let new = parse_json(&OLD.replace("\"searches\": 10,", "")).unwrap();
        let report = bench_diff(&old, &new, 5.0);
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert!(report.violations[0].starts_with("MissingMetric"));
        assert!(report.violations[0].contains("workloads/w: searches"));
        // An informational column is not a gate.
        let new = parse_json(&OLD.replace("\"tx_ns\": 80,", "")).unwrap();
        assert!(bench_diff(&old, &new, 5.0).violations.is_empty());
    }

    #[test]
    fn dropping_a_row_from_a_gated_section_is_fatal_unless_it_carried_no_gate() {
        let with_rows = |rows: &str| {
            parse_json(&format!(r#"{{"revision": "r", "workloads": [{rows}]}}"#)).unwrap()
        };
        let gated = r#"{"name": "linpack_600", "searches": 8, "tx_ns": 9}"#;
        let pseudo = r#"{"name": "tx_percentiles", "tx_ns": 5}"#;
        let old = with_rows(&format!("{gated}, {pseudo}"));
        // A row of informational values leaving retires nothing.
        let report = bench_diff(&old, &with_rows(gated), 5.0);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.skipped[0].contains("workloads/tx_percentiles"));
        // The row the gates read leaving is a violation naming it.
        let report = bench_diff(&old, &with_rows(pseudo), 5.0);
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert!(report.violations[0].starts_with("MissingEntry"));
        assert!(report.violations[0].contains("workloads/linpack_600"));
    }

    /// The gate set read from the declarations: the paper workloads'
    /// payload bytes and MSRLT searches. Every other former gate is an
    /// assertion in the integration test that checks the same property.
    #[test]
    fn declared_gates_are_the_pinned_two() {
        let declared: Vec<_> = crate::ARTIFACT
            .iter()
            .flat_map(|s| {
                let gates = s.columns().into_iter().filter(|&(_, k)| k == Kind::Counter);
                gates
                    .map(|(metric, _)| (s.name(), metric))
                    .collect::<Vec<_>>()
            })
            .collect();
        assert_eq!(
            declared,
            [("workloads", "payload_bytes"), ("workloads", "searches")]
        );
        // And no artifact key is timed or named twice within a section.
        for s in crate::ARTIFACT {
            let mut names: Vec<_> = s.columns().into_iter().map(|(n, _)| n).collect();
            names.sort();
            names.dedup();
            assert_eq!(names.len(), s.columns().len(), "{}", s.name());
        }
    }

    #[test]
    fn history_index_parses_in_order() {
        let h = parse_history(
            r#"{"schema": 1, "entries": [
                {"revision": "a", "file": "BENCH_a.json"},
                {"revision": "b", "file": "BENCH_b.json"}
            ]}"#,
        )
        .unwrap();
        assert_eq!(h.len(), 2);
        assert_eq!(h[1], ("b".to_string(), "BENCH_b.json".to_string()));
    }
}
