//! The common snapshot/merge model for phase statistics.
//!
//! Every layer of the stack keeps a small plain-struct of counters for
//! its phase (`CollectStats`, `RestoreStats`, `MsrltStats`,
//! `TransferStats`). [`StatGroup`] gives them one shared surface: a group
//! name, a field snapshot, and a merge — so drivers and benches can
//! aggregate and print any of them without bespoke formatting code.

use std::time::Duration;

/// A typed counter value. The type picks the rendering (and keeps bytes
/// from being formatted as nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatValue {
    /// A plain count.
    Count(u64),
    /// A byte quantity.
    Bytes(u64),
    /// A time quantity in nanoseconds.
    Nanos(u64),
    /// A dimensionless ratio stored in basis points (1/100 of a percent),
    /// kept integral so snapshots stay `Eq`/hashable.
    Ratio(u64),
}

impl StatValue {
    /// The raw magnitude.
    pub fn raw(&self) -> u64 {
        match *self {
            StatValue::Count(v)
            | StatValue::Bytes(v)
            | StatValue::Nanos(v)
            | StatValue::Ratio(v) => v,
        }
    }
}

impl std::fmt::Display for StatValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            StatValue::Count(v) => write!(f, "{v}"),
            StatValue::Bytes(v) => {
                if v >= 10 * 1024 * 1024 {
                    write!(f, "{:.1} MiB", v as f64 / (1024.0 * 1024.0))
                } else if v >= 10 * 1024 {
                    write!(f, "{:.1} KiB", v as f64 / 1024.0)
                } else {
                    write!(f, "{v} B")
                }
            }
            StatValue::Nanos(v) => write!(f, "{:.4}s", v as f64 / 1e9),
            StatValue::Ratio(v) => write!(f, "{:.2}%", v as f64 / 100.0),
        }
    }
}

/// One named counter in a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatField {
    /// Field name (static: snapshots are cheap).
    pub name: &'static str,
    /// Value.
    pub value: StatValue,
}

impl StatField {
    /// A plain count field.
    pub fn count(name: &'static str, v: u64) -> Self {
        StatField {
            name,
            value: StatValue::Count(v),
        }
    }

    /// A byte-quantity field.
    pub fn bytes(name: &'static str, v: u64) -> Self {
        StatField {
            name,
            value: StatValue::Bytes(v),
        }
    }

    /// A duration field.
    pub fn duration(name: &'static str, d: Duration) -> Self {
        StatField {
            name,
            value: StatValue::Nanos(d.as_nanos() as u64),
        }
    }

    /// A ratio field: `r` in [0, 1], stored in basis points.
    pub fn ratio(name: &'static str, r: f64) -> Self {
        StatField {
            name,
            value: StatValue::Ratio((r.clamp(0.0, 1.0) * 10_000.0).round() as u64),
        }
    }
}

/// A phase-statistics struct that can snapshot itself into named fields
/// and merge with another instance of itself.
pub trait StatGroup {
    /// Group label, e.g. `"collect"`, `"restore"`, `"msrlt"`, `"net"`.
    fn group(&self) -> &'static str;

    /// Snapshot every counter as a named field, in a stable order.
    fn fields(&self) -> Vec<StatField>;

    /// Accumulate another instance's counters into this one (used when a
    /// phase runs in several sessions, e.g. per-frame restoration).
    fn merge_from(&mut self, other: &Self)
    where
        Self: Sized;
}

/// Render groups of stat fields as one aligned text table:
///
/// ```text
/// collect.blocks_saved          100000
/// collect.bytes_out           3.2 MiB
/// ```
pub fn render_groups<S: AsRef<str>>(groups: &[(S, Vec<StatField>)]) -> String {
    let rows: Vec<(String, String)> = groups
        .iter()
        .flat_map(|(g, fields)| {
            let g = g.as_ref().to_string();
            fields
                .iter()
                .map(move |f| (format!("{}.{}", g, f.name), f.value.to_string()))
        })
        .collect();
    let key_w = rows.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
    let val_w = rows.iter().map(|(_, v)| v.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (k, v) in rows {
        out.push_str(&format!("{k:<key_w$}  {v:>val_w$}\n"));
    }
    out
}

/// Snapshot any [`StatGroup`] as a `(label, fields)` pair ready for
/// [`render_groups`] or [`LogDump::attach_stats`](crate::LogDump::attach_stats).
pub fn snapshot<G: StatGroup>(g: &G) -> (String, Vec<StatField>) {
    (g.group().to_string(), g.fields())
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Demo {
        hits: u64,
        bytes: u64,
        time: Duration,
    }

    impl StatGroup for Demo {
        fn group(&self) -> &'static str {
            "demo"
        }
        fn fields(&self) -> Vec<StatField> {
            vec![
                StatField::count("hits", self.hits),
                StatField::bytes("bytes", self.bytes),
                StatField::duration("time", self.time),
            ]
        }
        fn merge_from(&mut self, other: &Self) {
            self.hits += other.hits;
            self.bytes += other.bytes;
            self.time += other.time;
        }
    }

    #[test]
    fn merge_accumulates() {
        let mut a = Demo {
            hits: 1,
            bytes: 100,
            time: Duration::from_millis(5),
        };
        let b = Demo {
            hits: 2,
            bytes: 50,
            time: Duration::from_millis(10),
        };
        a.merge_from(&b);
        assert_eq!(a.hits, 3);
        assert_eq!(a.bytes, 150);
        assert_eq!(a.time, Duration::from_millis(15));
    }

    #[test]
    fn values_render_typed() {
        assert_eq!(StatValue::Count(42).to_string(), "42");
        assert_eq!(StatValue::Bytes(512).to_string(), "512 B");
        assert_eq!(StatValue::Bytes(64 * 1024).to_string(), "64.0 KiB");
        assert_eq!(StatValue::Bytes(50 * 1024 * 1024).to_string(), "50.0 MiB");
        assert_eq!(
            StatValue::Nanos(Duration::from_millis(1500).as_nanos() as u64).to_string(),
            "1.5000s"
        );
    }

    #[test]
    fn render_aligns_columns() {
        let d = Demo {
            hits: 7,
            bytes: 2048,
            time: Duration::from_secs(1),
        };
        let (label, fields) = snapshot(&d);
        let text = render_groups(&[(label, fields)]);
        assert!(text.contains("demo.hits"));
        assert!(text.contains("demo.bytes"));
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        // All lines equal length (aligned table).
        assert!(lines.windows(2).all(|w| w[0].len() == w[1].len()));
    }
}
