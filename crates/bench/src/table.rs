//! One declaration per table. A [`Table`] names its columns once — name,
//! [`Kind`], and how a row fills the cell — and `paper_tables` prints the
//! aligned text from it.

use crate::harness::{unit_of, Timing};
use std::fmt::Write as _;
use std::time::Duration;

/// Where a column's cells align: the text layout is the only reader.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Names the row: flush left.
    Key,
    /// A count, ratio, flag or time: flush right.
    Value,
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
    /// A duration, in s, ms or µs.
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
}

/// One column: its header, its kind, and the cell a row puts in it.
pub struct Col<R> {
    /// Header.
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

/// One table: what `paper_tables <name>` prints.
pub struct Table<R: 'static> {
    /// Subcommand.
    pub name: &'static str,
    /// Heading of the printed table.
    pub title: &'static str,
    /// The columns, in print order.
    pub cols: &'static [Col<R>],
    /// What the paper reports, printed underneath.
    pub note: &'static str,
    /// Produces the rows.
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
                    Kind::Value => write!(text, "{cell:>w$}  "),
                };
            }
            let _ = writeln!(out, "{}", text.trim_end());
        }
        let _ = writeln!(out, "({})", self.note);
        out
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
            col("steps", Kind::Value, |r| Cell::Int(r.1)),
            col("wall", Kind::Value, |r| Cell::Span(r.2)),
        ],
        note: "a note",
        rows: Vec::new,
    };

    #[test]
    fn text_comes_from_the_one_declaration() {
        let rows = [
            Row("a", 7, Duration::from_micros(1500)),
            Row("longer", 12345, Duration::from_secs(2)),
        ];
        assert_eq!(
            T.text(&rows),
            "\n=== Demo ===\n\
             name    steps      wall\n\
             a           7  1.500 ms\n\
             longer  12345   2.000 s\n\
             (a note)\n"
        );
    }
}
