//! # hpm-obs — observability for the migration stack
//!
//! The paper's entire evaluation (§4, Table 1, Figure 2) is built on
//! instrumentation: Collect/Tx/Restore timings plus MSRLT search and step
//! counters. This crate is the shared measurement substrate those numbers
//! flow through. Three pieces, all dependency-free:
//!
//! * [`log`] — the one event log. An [`EventLog`] hands out named,
//!   single-writer [`Track`]s, each a pair of bounded rings (protocol
//!   events and, at [`Level::Detail`], per-search / per-block detail);
//!   [`EventLog::dump`] snapshots it into a [`LogDump`], which renders as
//!   deterministic JSONL (the post-mortem) or, through
//!   [`chrome_trace_json`], as a Chrome / Perfetto trace with times. An
//!   inert [`Track`] costs one branch per site, so instrumentation stays
//!   in release hot paths.
//! * [`stats`] — the [`StatGroup`] snapshot/merge trait that the stack's
//!   phase-stats structs (`CollectStats`, `RestoreStats`, `MsrltStats`,
//!   `TransferStats`, …) implement, one shared text renderer, and the
//!   form in which their snapshots are attached to a [`LogDump`].
//! * [`histogram`] — a lock-free log2 [`Histogram`] for per-chunk
//!   latency distributions.

pub mod histogram;
pub mod log;
pub mod stats;

pub use histogram::{Histogram, HistogramSnapshot};
pub use log::{
    chrome_trace_json, Event, EventKind, EventLog, Level, LogDump, SpanRecord, Track, TrackDump,
};
pub use stats::{render_groups, snapshot, StatField, StatGroup, StatValue};
