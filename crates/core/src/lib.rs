//! # hpm-core — the paper's contribution: data collection & restoration
//!
//! This crate implements §3 of *"Data Collection and Restoration for
//! Heterogeneous Process Migration"* (Chanchio & Sun, IPPS 2001):
//!
//! * [`msrlt`] — the **MSR Lookup Table**: assigns every memory block a
//!   machine-independent logical identification `(group, index)`, and
//!   translates addresses in both directions. Address→block lookup is a
//!   counted search through the address space's page index; id→address
//!   is `O(1)` table indexing. With the paper's sorted index this
//!   asymmetry produces the §4.2 result: collection carries an
//!   `O(n log n)` MSRLT term, restoration only `O(n)`.
//! * [`collect`] — the MSRM saving half: `Save_variable` / `Save_pointer`.
//!   `Save_pointer` drives a depth-first traversal of the MSR graph
//!   (implemented with an explicit stack, so million-node lists cannot
//!   overflow), marking visited blocks so nothing is saved twice, and
//!   rewriting every pointer into *(pointer header, offset)* form. The
//!   record grammar is documented there.
//! * [`restore`] — the restoring half: `Restore_variable` /
//!   `Restore_pointer`, rebuilding blocks on the destination machine and
//!   translating logical pointers back into local raw addresses.
//! * [`graph`] — an explicit MSR graph snapshot `G = (V, E)` with DOT
//!   export, used to validate examples like the paper's Figure 1.
//! * [`image`] — the migration-image framing (header + sections) shared
//!   by both sides.
//!
//! The wire format rides on [`hpm_xdr`] and is fully machine-independent:
//! the same stream produced on a little-endian ILP32 machine restores on a
//! big-endian LP64 machine.

pub mod audit;
pub mod collect;
pub mod delta;
pub mod fingerprint;
pub mod graph;
pub mod image;
mod kernel;
pub mod msrlt;
pub mod restore;
pub mod stream;
mod translate;

pub use audit::{audit_registry, RegistryAuditStats, RegistryFinding};
pub use collect::{ChunkSink, CollectStats, Collector, TranslationMode};
pub use delta::{
    apply_delta, block_digests, collect_delta, diff_manifest, full_image_frame, BaseImageManifest,
    BlockDigest, DeltaImage, DirtySet, RetainedBase,
};
pub use fingerprint::{content_digest, type_fingerprint};
pub use graph::{MsrEdge, MsrGraph, MsrVertex};
pub use image::{ImageHeader, IMAGE_MAGIC, IMAGE_VERSION};
pub use msrlt::{LogicalId, Msrlt, MsrltEntry, MsrltStats};
pub use restore::{RestoreStats, Restorer};
pub use stream::{ChunkPayload, ChunkSource, ReplaySource, VecChunks};

use hpm_memory::MemError;
use hpm_xdr::XdrError;

/// Errors across collection and restoration.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// Underlying address-space failure.
    Mem(String),
    /// Underlying XDR failure.
    Xdr(XdrError),
    /// A pointer referred to memory not registered in the MSRLT — a
    /// migration-unsafe pointer (dangling, foreign, or forged).
    UnregisteredPointer(u64),
    /// Stream and receiver disagree about a block's type.
    TypeMismatch {
        /// Logical id of the offending block.
        id: LogicalId,
        /// Fingerprint carried in the stream.
        expected: u64,
        /// Fingerprint of the local type.
        found: u64,
    },
    /// Stream carried an unknown tag; the streams are out of step.
    BadTag(u32),
    /// A record's first word sets bits its tag does not take: a flag of
    /// another record kind (`HEAP` on a variable record included), a
    /// 64-bit ordinal marker with no ordinal, or a group on a NULL
    /// pointer.
    BadRecordHeader(u32),
    /// A pointer record names a heap block in the long form (group and
    /// index word) although its index fits the first word's 24 bits —
    /// a second encoding of a pointer that has exactly one.
    LongHeapId(LogicalId),
    /// A record names a sender type number this image has not defined,
    /// or defines one out of turn (numbers are dense, in order of first
    /// sight).
    UndefinedType {
        /// Logical id of the block the record announces.
        id: LogicalId,
        /// The type number the record carries.
        type_no: u32,
        /// How many type numbers the image has defined so far.
        defined: u32,
    },
    /// Collection met a block whose group does not fit the 24 bits a
    /// record's first word has for it.
    GroupTooLarge(LogicalId),
    /// A logical id in the stream could not be matched on this side.
    UnknownId(LogicalId),
    /// Save/restore call sequences diverged between the two processes.
    SequenceMismatch(String),
    /// The payload ended mid-item: the producer stopped (or a chunk was
    /// lost) before the stream grammar was complete.
    TruncatedChunk {
        /// Index of the chunk in which the stream ran dry (a whole
        /// image's payload is chunk 0).
        chunk: u64,
        /// Bytes needed to finish the current item.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The chunk source or sink feeding a streamed migration failed —
    /// a transport-level failure surfaced into the stream layer.
    Source(String),
    /// A delta frame named a base (or carried a payload) that does not
    /// match what this side holds — the receiver's loud refusal that
    /// triggers the sender's full-image fallback.
    DeltaBaseMismatch {
        /// Which identity field failed (`base_image_id`, `base_digest`,
        /// `raw_len`, or `payload_digest`).
        field: &'static str,
        /// Value the frame demanded.
        expected: u64,
        /// Value found locally (0 when no base is retained at all).
        found: u64,
    },
    /// The stream announced a heap block whose contents, at their
    /// smallest, do not fit in what is left of the payload — a hostile or
    /// corrupt element count, refused before anything is allocated.
    BlockExceedsPayload {
        /// Logical id the stream gave the block.
        id: LogicalId,
        /// Element count the stream announced.
        count: u64,
        /// Payload bytes left (buffered, for a stream still arriving).
        available: u64,
    },
    /// The stream announced a heap block whose index lies further past
    /// the heap ids this side holds or reserved than the bytes received
    /// so far could have named — a hostile or corrupt id, refused before
    /// the table is grown to reach it.
    HeapIdOutOfReach {
        /// Logical id the stream gave the block.
        id: LogicalId,
        /// Heap ids this side holds or has reserved.
        heap_len: u32,
        /// Payload bytes received so far.
        received: u64,
    },
    /// The execution state claims more heap ids than the allocator will
    /// grant a table for — refused by name instead of aborting.
    HeapReservationRefused {
        /// Heap ids the execution state asked this side to reserve.
        requested: u32,
    },
    /// Payload bytes remained after the stream grammar completed.
    TrailingBytes {
        /// Number of leftover bytes.
        bytes: usize,
        /// Index of the chunk holding the first leftover byte (a whole
        /// image's payload is chunk 0).
        chunk: u64,
    },
}

impl From<MemError> for CoreError {
    fn from(e: MemError) -> Self {
        CoreError::Mem(e.to_string())
    }
}

impl From<XdrError> for CoreError {
    fn from(e: XdrError) -> Self {
        CoreError::Xdr(e)
    }
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Mem(m) => write!(f, "memory error: {m}"),
            CoreError::Xdr(e) => write!(f, "xdr error: {e}"),
            CoreError::UnregisteredPointer(a) => {
                write!(
                    f,
                    "pointer {a:#x} does not refer to a registered memory block"
                )
            }
            CoreError::TypeMismatch {
                id,
                expected,
                found,
            } => write!(
                f,
                "type mismatch for block {id}: stream {expected:#x} != local {found:#x}"
            ),
            CoreError::BadTag(t) => write!(f, "unknown stream tag {t}"),
            CoreError::BadRecordHeader(w) => {
                write!(f, "record header {w:#010x} sets bits its tag does not take")
            }
            CoreError::UndefinedType {
                id,
                type_no,
                defined,
            } => write!(
                f,
                "block {id} names type number {type_no}, but the image has defined {defined} so far"
            ),
            CoreError::LongHeapId(id) => {
                write!(f, "block {id}: a heap index this small travels in the record's first word")
            }
            CoreError::GroupTooLarge(id) => {
                write!(f, "block {id}: group does not fit a record's 24 bits")
            }
            CoreError::UnknownId(id) => write!(f, "logical id {id} unknown on this machine"),
            CoreError::SequenceMismatch(m) => write!(f, "save/restore sequence mismatch: {m}"),
            CoreError::TruncatedChunk {
                chunk,
                needed,
                available,
            } => write!(
                f,
                "payload truncated in chunk {chunk}: needed {needed} bytes, {available} available"
            ),
            CoreError::Source(m) => write!(f, "chunk stream transport error: {m}"),
            CoreError::DeltaBaseMismatch {
                field,
                expected,
                found,
            } => write!(
                f,
                "delta base mismatch on {field}: frame demands {expected:#x}, local side has {found:#x}"
            ),
            CoreError::BlockExceedsPayload {
                id,
                count,
                available,
            } => write!(
                f,
                "block {id} announces {count} elements, more than the {available} payload bytes left can hold"
            ),
            CoreError::HeapIdOutOfReach {
                id,
                heap_len,
                received,
            } => write!(
                f,
                "block {id} is out of reach of the {heap_len} heap ids held here and the {received} payload bytes received"
            ),
            CoreError::HeapReservationRefused { requested } => write!(
                f,
                "cannot reserve {requested} heap ids: the allocator refused a table that size"
            ),
            CoreError::TrailingBytes { bytes, chunk } => write!(
                f,
                "{bytes} payload bytes after end of stream (starting in chunk {chunk})"
            ),
        }
    }
}

impl std::error::Error for CoreError {}
