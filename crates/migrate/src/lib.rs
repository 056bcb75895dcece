//! # hpm-migrate — the process migration environment
//!
//! §2 of the paper: programs are transformed into a *migratable format* by
//! source-code annotation. At selected *poll-points* the program checks
//! for a migration request; when one is pending, the migration point
//! collects execution state (the call chain and each frame's resume
//! point) and live data (via the MSRM library), ships them to a waiting
//! process on the destination machine, and terminates. The destination
//! process re-enters the recorded call chain, restores live data at the
//! corresponding locations, and resumes.
//!
//! This crate is the runtime those annotations talk to:
//!
//! * [`Process`] — a migratable process: simulated address space + MSRLT,
//!   with allocation and frame events mirrored into the MSRLT (the
//!   runtime bookkeeping whose cost §4.3 measures);
//! * [`ExecutionState`] — the transmitted call-chain description;
//! * [`MigCtx`] / [`Flow`] — what annotated code uses: `enter`/`local`/
//!   `poll`/`save_frame`/`resume_point`/`restore_frame`/`leave` — the
//!   expansion of the paper's inserted macros;
//! * [`MigratableProgram`] — the shape of a transformed program;
//! * [`migrate`] — the one migration engine ([`engine`]): it takes a
//!   [`Migration`] policy (a [`Transport`] — one whole message, or the
//!   CRC-checked chunk stream over a pipe that can break — optional
//!   pre-copy rounds, an event log) and produces a [`MigrationReport`] with the paper's
//!   Collect / Tx / Restore split. [`run_migrating`] and
//!   [`run_migrating_resilient`] are its two named policies;
//! * [`driver`] — the two ends as building blocks: freeze a source
//!   ([`run_to_migration`], [`MigratedSource`]) and resume a destination
//!   from an image ([`resume_from_image`], [`resume_to_migration`]);
//! * `wire` (private) — the single transfer attempt every path ships
//!   through (one chunk sender on the source's thread, one chunk receiver
//!   lent to the destination's), the only place a thread is spawned:
//!   one thread per machine; [`precopy`] — the
//!   pre-copy rounds as a loop around it; [`report`] — what a migration
//!   measured.
//!
//! ## Restoration ordering (faithful to §3.2)
//!
//! Live data is collected innermost-frame-first as the stack unwinds, and
//! restored "at the same locations": the destination re-enters the call
//! chain, the innermost frame restores its locals at the migration point
//! and resumes computing; each outer frame restores its own locals when
//! control returns to it. Because resumed execution can `malloc` *before*
//! outer frames have consumed their stream sections, the execution state
//! carries the source's heap-index high-water mark
//! ([`ExecutionState::heap_high_water`]) and the destination reserves
//! those indices — new allocations never collide with ids still
//! referenced by un-restored sections. (The image header carries
//! `registered_bytes`, which only presizes the destination's heap.)

#![forbid(unsafe_code)]

pub mod ctx;
pub mod driver;
pub mod engine;
pub mod exec;
pub mod precopy;
pub mod process;
pub mod report;
#[cfg(test)]
mod testprog;
mod wire;

pub use ctx::{
    collect_pending, collect_pending_streamed, pending_exec_state, Flow, MigCtx, MigratableProgram,
    PendingFrame,
};
pub use driver::{
    resume_from_image, resume_to_migration, run_straight, run_to_migration, CompletedRun,
    MigratedSource, ResumeFlow,
};
pub use engine::{
    migrate, run_migrating, run_migrating_resilient, Migration, PipelineConfig, RecoveryPolicy,
    Transport,
};
pub use exec::{ExecutionState, FrameState};
pub use precopy::{PrecopyConfig, PrecopyStats};
pub use process::{Process, Trigger};
pub use report::{
    MigrationReport, MigrationRun, PipelineStats, RecoveryStats, ResumeStats, Rung2Skip,
    TransportStats,
};

use hpm_core::CoreError;
use hpm_memory::MemError;
use hpm_net::NetError;
use hpm_xdr::XdrError;

/// Errors across the migration environment.
#[derive(Debug, Clone, PartialEq)]
pub enum MigError {
    /// Collection/restoration failure.
    Core(String),
    /// Address-space failure.
    Mem(String),
    /// Stream decoding failure.
    Xdr(String),
    /// Transport failure.
    Net(String),
    /// The annotated program misused the protocol (wrong enter/leave
    /// nesting, resume mismatch, …).
    Protocol(String),
    /// The collector reached a block whose registration is incoherent
    /// ([`CoreError::Incoherent`]); the message names the finding. The
    /// migration is refused on every transport, with no fallback rung.
    Preflight(String),
}

impl From<CoreError> for MigError {
    fn from(e: CoreError) -> Self {
        match e {
            CoreError::Incoherent(finding) => MigError::Preflight(finding.to_string()),
            e => MigError::Core(e.to_string()),
        }
    }
}

impl From<MemError> for MigError {
    fn from(e: MemError) -> Self {
        MigError::Mem(e.to_string())
    }
}

impl From<XdrError> for MigError {
    fn from(e: XdrError) -> Self {
        MigError::Xdr(e.to_string())
    }
}

impl From<NetError> for MigError {
    fn from(e: NetError) -> Self {
        MigError::Net(e.to_string())
    }
}

impl std::fmt::Display for MigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MigError::Core(m) => write!(f, "core: {m}"),
            MigError::Mem(m) => write!(f, "memory: {m}"),
            MigError::Xdr(m) => write!(f, "xdr: {m}"),
            MigError::Net(m) => write!(f, "net: {m}"),
            MigError::Protocol(m) => write!(f, "protocol: {m}"),
            MigError::Preflight(m) => write!(f, "registry check refused the migration: {m}"),
        }
    }
}

impl std::error::Error for MigError {}
