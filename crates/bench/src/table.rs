//! One declaration per table. A [`Table`] names its columns once — name,
//! [`Kind`], and how a row fills the cell — and three readers take their
//! format from it: the aligned text `paper_tables` prints, the rows of a
//! `BENCH_<rev>.json` section, and the gates [`crate::diff`] enforces
//! between two such artifacts.

use crate::harness::{unit_of, Timing};
use std::fmt::Write as _;
use std::time::Duration;

/// What a column holds, which decides where it appears and how bench-diff
/// treats it. Everything but [`Kind::Timed`] is a function of the code and
/// the seeds alone, and only that goes into the artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Names the row; bench-diff matches old and new entries on it.
    Key,
    /// Counter, gated: an increase beyond the threshold is a regression.
    Counter,
    /// Rate, gated: a decrease beyond the threshold is a regression.
    Rate,
    /// Counter gated at zero tolerance: any increase is a regression.
    ZeroTolerance,
    /// Boolean, gated on decay: `true` → `false` is a regression.
    Flag,
    /// Reported, never gated (sizes and ratios with no worse direction).
    Info,
    /// A wall clock — a sampled [`Timing`], or a span relayed from one
    /// run's report: printed, never in the artifact.
    Timed,
}

impl Kind {
    /// Whether dropping the column from the artifact would retire a gate.
    pub fn gated(self) -> bool {
        matches!(
            self,
            Kind::Counter | Kind::Rate | Kind::ZeroTolerance | Kind::Flag
        )
    }
}

/// One value of one row.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A label.
    Text(String),
    /// A count.
    Int(u64),
    /// A ratio or rate (four decimals).
    Real(f64),
    /// A boolean.
    Flag(bool),
    /// A duration: s, ms or µs in text, whole nanoseconds in JSON.
    Span(Duration),
    /// A sampled wall clock, `floor ±spread`.
    Timed(Timing),
}

impl Cell {
    fn text(&self) -> String {
        match self {
            Cell::Text(s) => s.clone(),
            Cell::Int(n) => n.to_string(),
            Cell::Real(x) => format!("{x:.4}"),
            Cell::Flag(b) => b.to_string(),
            Cell::Span(d) => {
                let (scale, unit) = unit_of(*d);
                format!("{:.3} {unit}", d.as_secs_f64() * scale)
            }
            Cell::Timed(t) => t.to_string(),
        }
    }

    fn json(&self) -> String {
        match self {
            Cell::Text(s) => format!("\"{s}\""),
            Cell::Span(d) => d.as_nanos().to_string(),
            Cell::Timed(_) => unreachable!("timed columns never reach the artifact"),
            other => other.text(),
        }
    }
}

/// One column: its name (the text header and the JSON key), its kind, and
/// the cell a row puts in it.
pub struct Col<R> {
    /// Header and JSON key.
    pub name: &'static str,
    /// See [`Kind`].
    pub kind: Kind,
    /// The row's value.
    pub get: fn(&R) -> Cell,
}

/// [`Col`] on one line.
pub const fn col<R>(name: &'static str, kind: Kind, get: fn(&R) -> Cell) -> Col<R> {
    Col { name, kind, get }
}

/// One table: what `paper_tables <name>` prints and, for the tables in
/// [`crate::ARTIFACT`], the artifact section of the same name.
pub struct Table<R: 'static> {
    /// Subcommand and JSON section name.
    pub name: &'static str,
    /// Heading of the printed table.
    pub title: &'static str,
    /// The columns, in print and key order.
    pub cols: &'static [Col<R>],
    /// What the paper reports or the gate enforces, printed underneath.
    pub note: &'static str,
    /// Produces the rows (the artifact's: nothing in them is timed).
    pub rows: fn() -> Vec<R>,
}

impl<R> Table<R> {
    /// The aligned text table: keys flush left, values flush right, every
    /// column as wide as its widest cell.
    pub fn text(&self, rows: &[R]) -> String {
        let mut grid = vec![self.cols.iter().map(|c| c.name.to_string()).collect()];
        grid.extend(rows.iter().map(|r| {
            self.cols
                .iter()
                .map(|c| (c.get)(r).text())
                .collect::<Vec<_>>()
        }));
        let widths: Vec<usize> = (0..self.cols.len())
            .map(|i| grid.iter().map(|line| line[i].chars().count()).max())
            .map(|widest| widest.expect("the header line is always there"))
            .collect();
        let mut out = format!("\n=== {} ===\n", self.title);
        for line in &grid {
            let mut text = String::new();
            for ((cell, col), &w) in line.iter().zip(self.cols).zip(&widths) {
                let _ = match col.kind {
                    Kind::Key => write!(text, "{cell:<w$}  "),
                    _ => write!(text, "{cell:>w$}  "),
                };
            }
            let _ = writeln!(out, "{}", text.trim_end());
        }
        let _ = writeln!(out, "({})", self.note);
        out
    }

    /// The artifact section: one object per row, every untimed column.
    pub fn json(&self, rows: &[R]) -> String {
        let objects: Vec<String> = rows
            .iter()
            .map(|r| {
                let fields: Vec<String> = self
                    .cols
                    .iter()
                    .filter(|c| c.kind != Kind::Timed)
                    .map(|c| format!("\"{}\": {}", c.name, (c.get)(r).json()))
                    .collect();
                format!("    {{{}}}", fields.join(", "))
            })
            .collect();
        format!("  \"{}\": [\n{}\n  ]", self.name, objects.join(",\n"))
    }
}

/// A table with its row type erased: what bench-diff and the artifact
/// writer need of each section.
pub trait Section: Sync {
    /// The section's key in the artifact.
    fn name(&self) -> &'static str;
    /// The columns the artifact carries, by name.
    fn columns(&self) -> Vec<(&'static str, Kind)>;
    /// Run the table's rows and render the section.
    fn run_json(&self) -> String;
}

impl<R> Section for Table<R> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn columns(&self) -> Vec<(&'static str, Kind)> {
        let untimed = self.cols.iter().filter(|c| c.kind != Kind::Timed);
        untimed.map(|c| (c.name, c.kind)).collect()
    }

    fn run_json(&self) -> String {
        self.json(&(self.rows)())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Row(&'static str, u64, Duration);

    const T: Table<Row> = Table {
        name: "demo",
        title: "Demo",
        cols: &[
            col("name", Kind::Key, |r| Cell::Text(r.0.into())),
            col("steps", Kind::Counter, |r| Cell::Int(r.1)),
            col("tx_ns", Kind::Info, |r| Cell::Span(r.2)),
            col("wall", Kind::Timed, |r| Cell::Span(r.2)),
        ],
        note: "a note",
        rows: Vec::new,
    };

    #[test]
    fn text_json_and_schema_come_from_the_one_declaration() {
        let rows = [
            Row("a", 7, Duration::from_micros(1500)),
            Row("longer", 12345, Duration::from_secs(2)),
        ];
        assert_eq!(
            T.text(&rows),
            "\n=== Demo ===\n\
             name    steps     tx_ns      wall\n\
             a           7  1.500 ms  1.500 ms\n\
             longer  12345   2.000 s   2.000 s\n\
             (a note)\n"
        );
        // The timed column is printed and never written.
        assert_eq!(
            T.json(&rows),
            "  \"demo\": [\n    {\"name\": \"a\", \"steps\": 7, \"tx_ns\": 1500000},\n    \
             {\"name\": \"longer\", \"steps\": 12345, \"tx_ns\": 2000000000}\n  ]"
        );
        assert_eq!(
            T.columns(),
            [
                ("name", Kind::Key),
                ("steps", Kind::Counter),
                ("tx_ns", Kind::Info)
            ]
        );
    }
}
