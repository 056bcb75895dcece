//! # hpm-obs — the event log of the migration stack
//!
//! The paper's entire evaluation (§4, Table 1, Figure 2) is built on
//! instrumentation: Collect/Tx/Restore timings plus MSRLT search and step
//! counters. The counters live in the typed stats structs each layer
//! returns (`CollectStats`, `RestoreStats`, `MsrltStats`,
//! `TransferSnapshot`, …) and reach the caller in the migration report;
//! this crate is the other half of the record, dependency-free:
//!
//! * [`log`] — the one event log. An [`EventLog`] hands out named,
//!   single-writer [`Track`]s, each a pair of bounded rings (protocol
//!   events and, at [`Level::Detail`], per-search / per-block detail);
//!   [`EventLog::dump`] snapshots it into a [`LogDump`], which renders as
//!   deterministic JSONL (the post-mortem) or, through
//!   [`chrome_trace_json`], as a Chrome / Perfetto trace with times. An
//!   inert [`Track`] costs one branch per site, so instrumentation stays
//!   in release hot paths.

pub mod log;

pub use log::{
    chrome_trace_json, Event, EventKind, EventLog, Level, LogDump, SpanRecord, Track, TrackDump,
};
