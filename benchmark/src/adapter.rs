//! The pinned API: every `hpm-*` item the benchmark names, in one place.
//!
//! No other file of this package imports an `hpm_*` crate. A refactor of
//! the library (ROADMAP item 1) keeps the benchmark building by keeping —
//! or shimming here — exactly the signatures below; `README.md` lists
//! them with the layer each one measures.

// hpm-arch: machine presets and the per-scalar conversion routines.
pub use hpm_arch::{Architecture, CScalar, Endianness, ScalarValue};

// hpm-types / hpm-memory: what the generator needs to declare `gnode`
// and fill blocks (`TypeTable::{int, double, pointer_to, declare_struct,
// define_struct}`, `AddressSpace::{types_mut, arch, layout_of,
// field_offset, read_bytes, write_bytes, block_infos, malloc, plan_for,
// reserve_heap_bytes}`).
pub use hpm_memory::AddressSpace;
pub use hpm_types::{Field, TypeId};

// hpm-xdr: scalar arrays, CRC, block compressor, chunk frames.
pub use hpm_xdr::{
    compress, crc32, decompress, frame_chunk_v3, image_id, unframe_chunk_any, XdrDecoder,
    XdrEncoder,
};

// hpm-core: image framing, MSRLT, restoration, delta collection.
pub use hpm_core::image::{frame_image, unframe_image};
pub use hpm_core::{
    apply_delta, block_digests, collect_delta, diff_manifest, full_image_frame, BaseImageManifest,
    CollectStats, ImageHeader, RestoreStats, Restorer, RetainedBase, IMAGE_VERSION,
};

// hpm-net: the modelled link, the in-process channel, the ARQ endpoints.
pub use hpm_net::{
    channel_pair, ArqConfig, FaultPlan, NetworkModel, ReliableChunkReceiver, ReliableChunkSender,
    WireCodec,
};

// hpm-migrate: the program shape, the frozen source, the drivers.
pub use hpm_migrate::{
    pending_exec_state, resume_from_image, resume_to_migration, run_migrating,
    run_migrating_resilient, run_straight, run_to_migration, ExecutionState, Flow, MigCtx,
    MigError, MigratableProgram, MigratedSource, PipelineConfig, Process, RecoveryPolicy,
    ResumeFlow, Trigger,
};

// hpm-workloads: the paper's own pointer zoo, for `tiny_image`.
pub use hpm_workloads::TestPointer;

/// A program's result digest, as `MigratableProgram::results` returns it.
pub type Results = Vec<(String, String)>;

/// The image header `MigratedSource::to_image` builds for a frozen source,
/// so the staged path can call `frame_image` itself.
pub fn image_header(src: &MigratedSource) -> ImageHeader {
    let arch = src.proc.space.arch();
    ImageHeader {
        version: IMAGE_VERSION,
        source_arch: arch.name.to_string(),
        source_pointer_size: arch.pointer_size as u32,
        program: src.proc.program().to_string(),
        registered_bytes: src.proc.msrlt.registered_bytes(),
    }
}
