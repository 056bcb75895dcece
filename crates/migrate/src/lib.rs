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
//! * [`driver`] — single-process-pair migration driver producing a
//!   [`MigrationReport`] with the paper's Collect / Tx / Restore split;
//! * [`cluster`] — a two-machine scheduler running source and destination
//!   as real threads connected by an `hpm-net` channel.
//!
//! ## Restoration ordering (faithful to §3.2)
//!
//! Live data is collected innermost-frame-first as the stack unwinds, and
//! restored "at the same locations": the destination re-enters the call
//! chain, the innermost frame restores its locals at the migration point
//! and resumes computing; each outer frame restores its own locals when
//! control returns to it. Because resumed execution can `malloc` *before*
//! outer frames have consumed their stream sections, the image header
//! carries the source's heap-index high-water mark and the destination
//! reserves those indices — new allocations never collide with ids still
//! referenced by un-restored sections.

pub mod cluster;
pub mod ctx;
pub mod driver;
pub mod exec;
pub mod precopy;
pub mod process;
pub mod sched;

pub use cluster::{ClusterReport, TwoMachineCluster};
pub use ctx::{
    collect_pending, collect_pending_streamed, collect_pending_streamed_flight,
    collect_pending_traced, pending_exec_state, Flow, MigCtx, MigratableProgram, PendingFrame,
};
pub use driver::{
    collect_image, collect_image_traced, preflight_audit, resume_from_image,
    resume_from_image_traced, run_migrating, run_migrating_pipelined,
    run_migrating_pipelined_recorded, run_migrating_recorded, run_migrating_resilient,
    run_migrating_resilient_recorded, run_migrating_traced, run_straight, run_to_migration,
    FallbackPolicy, MigratedSource, MigrationReport, MigrationRun, PipelineConfig, PipelineStats,
    RecoveryPolicy, RecoveryStats, ResumeStats, Rung2Skip, WIRE_CHUNK_BYTES,
};
pub use exec::{ExecutionState, FrameState};
pub use precopy::{
    resume_to_migration, run_migrating_precopy, run_migrating_precopy_faulty, PrecopyConfig,
    PrecopyRun, PrecopyStats, ResumeFlow,
};
pub use process::{Process, Trigger};
pub use sched::{Job, SchedStats, Scheduler, SimMachine};

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
    /// The pre-flight registry audit found the MSRLT snapshot incoherent;
    /// the migration was refused before collection started. The message
    /// lists every finding, one per line.
    Preflight(String),
}

impl From<CoreError> for MigError {
    fn from(e: CoreError) -> Self {
        MigError::Core(e.to_string())
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
            MigError::Preflight(m) => write!(f, "pre-flight registry audit failed: {m}"),
        }
    }
}

impl std::error::Error for MigError {}
