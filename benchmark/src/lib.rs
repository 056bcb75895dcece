//! The hpm benchmark: five migration workloads, end-to-end downtime
//! metrics, per-layer cost attribution. One process runs one workload and
//! prints every metric by name with its unit; the last line of standard
//! output is the result as one JSON object. See `README.md` beside this
//! package for the tables and how to run it.

pub mod adapter;
pub mod cli;
pub mod gen;
pub mod layers;
pub mod metrics;
pub mod repeat;
pub mod stats;
pub mod trace;
pub mod workloads;
