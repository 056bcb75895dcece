//! In-memory spans recorded from the benchmark's own files, around the
//! calls into each layer. Written out as JSON lines when the run ends.
//!
//! Schema, one object per line:
//! `{"name", "start_ns", "end_ns", "parent", "op_id", "calls", "on_path"}`.
//! `parent` is the line index of the enclosing span or `null`; `op_id`
//! numbers the traced operation the span belongs to, `-1` for a standalone
//! layer call made outside any operation (`on_path: false`); `calls` is how
//! many library calls the span batches (its per-call time is self time /
//! calls).

use crate::stats::median;
use std::io::Write;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op_id: i64,
    pub calls: u64,
    pub on_path: bool,
}

/// Handle to an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

/// Span recorder for one benchmark process.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    next_op: i64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            next_op: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one. A span opened with none
    /// open is a standalone layer call: `op_id` -1, off the path.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        let parent = self.open.last().copied();
        let (op_id, on_path) = match parent {
            Some(p) => (self.spans[p].op_id, self.spans[p].on_path),
            None => (-1, false),
        };
        let id = self.spans.len();
        self.open.push(id);
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op_id,
            calls: 1,
            on_path,
        });
        SpanId(id)
    }

    /// Open the root span of one traced operation.
    pub fn begin_op(&mut self) -> SpanId {
        assert!(self.open.is_empty(), "operations do not nest");
        let id = self.begin("op");
        self.spans[id.0].op_id = self.next_op;
        self.spans[id.0].on_path = true;
        self.next_op += 1;
        id
    }

    /// Close `id`, and any span an early return left open inside it.
    pub fn end(&mut self, id: SpanId) {
        self.end_calls(id, 1)
    }

    /// Close `id`, recording that it batched `calls` library calls.
    pub fn end_calls(&mut self, id: SpanId, calls: u64) {
        let now = self.now();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id.0 {
                break;
            }
        }
        self.spans[id.0].calls = calls.max(1);
    }

    /// Record an interval the library measured itself, as a standalone
    /// span ending now.
    pub fn reported(&mut self, name: &'static str, nanos: u64) {
        let end_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns: end_ns.saturating_sub(nanos),
            end_ns,
            parent: None,
            op_id: -1,
            calls: 1,
            on_path: false,
        });
    }

    /// Whether any span named `name` has been recorded.
    pub fn has(&self, name: &str) -> bool {
        self.spans.iter().any(|s| s.name == name)
    }

    /// Whether the spans named `name` were recorded inside operations.
    pub fn on_path(&self, name: &str) -> bool {
        self.spans.iter().any(|s| s.name == name && s.on_path)
    }

    /// Self time of every span: its duration minus its children's.
    fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Smallest self time per call, in seconds, over the spans named
    /// `name`: the layer's floor, as `migrate_s` is the operation's.
    pub fn floor_s(&self, name: &str) -> Option<f64> {
        let own = self.self_times();
        self.spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == name)
            .map(|(s, &t)| t as f64 / 1e9 / s.calls as f64)
            .min_by(|a, b| a.total_cmp(b))
    }

    /// Median over traced operations of (sum of the self times of the
    /// spans inside the operation) / (the operation's duration): how much
    /// of the end-to-end figure the layers account for.
    pub fn layer_sum_ratio(&self) -> f64 {
        let own = self.self_times();
        let mut ratios: Vec<f64> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == "op" && s.end_ns > s.start_ns)
            .map(|(_, op)| {
                let inside: u64 = self
                    .spans
                    .iter()
                    .zip(&own)
                    .filter(|(s, _)| s.op_id == op.op_id && s.name != "op")
                    .map(|(_, &t)| t)
                    .sum();
                inside as f64 / (op.end_ns - op.start_ns) as f64
            })
            .collect();
        if ratios.is_empty() {
            0.0
        } else {
            median(&mut ratios)
        }
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \
                 \"op_id\": {}, \"calls\": {}, \"on_path\": {}}}",
                s.name, s.start_ns, s.end_ns, parent, s.op_id, s.calls, s.on_path
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed(name: &'static str, start: u64, end: u64, parent: Option<usize>, op: i64) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op_id: op,
            calls: 1,
            on_path: op >= 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        t.spans = vec![
            fixed("op", 0, 100, None, 0),
            fixed("a", 0, 60, Some(0), 0),
            fixed("b", 60, 95, Some(0), 0),
            fixed("a.inner", 10, 30, Some(1), 0),
        ];
        assert_eq!(t.self_times(), vec![5, 40, 35, 20]);
        assert_eq!(t.floor_s("a"), Some(40e-9));
        assert!((t.layer_sum_ratio() - 0.95).abs() < 1e-12);
    }

    #[test]
    fn end_closes_spans_left_open_inside() {
        let mut t = Tracer::new();
        let op = t.begin_op();
        let _leaked = t.begin("child");
        t.end(op);
        assert!(t.open.is_empty());
        let alone = t.begin("layer");
        t.end_calls(alone, 10);
        assert_eq!(t.spans[2].op_id, -1);
        assert!(!t.spans[2].on_path);
        assert_eq!(t.spans[2].calls, 10);
        assert_eq!(t.spans[1].op_id, 0);
    }
}
