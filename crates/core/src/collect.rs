//! Data collection: `Save_variable` and `Save_pointer`.
//!
//! §3.1: "Save_pointer initiates a depth-first traversal through
//! connected components of the MSR graph. It examines memory blocks that
//! are referred to by pointers and then invokes type-specific saving
//! functions to save their contents. During the traversal, visited memory
//! blocks are marked so that they are not saved again."
//!
//! ## Stream grammar (all items XDR-encoded)
//!
//! ```text
//! item        := VAR_NEW id fp count contents
//!              | VAR_VISITED id
//! pointer     := PTR_NULL
//!              | PTR_REF id offset
//!              | PTR_NEW id offset fp count contents
//! contents    := leaf*                       (element order, per TI plan)
//! leaf        := scalar-in-XDR-form | pointer
//! id          := group:u32 index:u32
//! offset      := u64    (leaf ordinal inside the target block)
//! fp          := u64    (structural type fingerprint of the element type)
//! count       := u64    (element count of the block)
//! ```
//!
//! The traversal is depth-first *pre-order*: a `PTR_NEW` is immediately
//! followed by the complete contents of the target block (which may nest
//! further `PTR_NEW`s), after which the interrupted parent block resumes.
//! The DFS runs on an explicit work stack, so arbitrarily deep structures
//! (million-node linked lists) collect without exhausting the call stack.

use crate::fingerprint::type_fingerprint;
use crate::msrlt::{LogicalId, Msrlt};
use crate::translate::{leaf_ordinal, read_ptr, span, Cursor};
use crate::CoreError;
use hpm_arch::CScalar;
use hpm_memory::{AddressSpace, BlockSlot};
use hpm_obs::{FlightTrack, StatField, StatGroup, Tracer};
use hpm_types::plan::{PlanOp, SavePlan};
use hpm_types::TypeId;
use hpm_xdr::XdrEncoder;
use std::sync::Arc;

/// Stream tag: block saved in place (named live variable), first visit.
pub(crate) const TAG_VAR_NEW: u32 = 1;
/// Stream tag: named variable whose block was already saved.
pub(crate) const TAG_VAR_VISITED: u32 = 2;
/// Stream tag: NULL pointer.
pub(crate) const TAG_PTR_NULL: u32 = 3;
/// Stream tag: pointer to an already-saved block.
pub(crate) const TAG_PTR_REF: u32 = 4;
/// Stream tag: pointer to a block saved inline right here.
pub(crate) const TAG_PTR_NEW: u32 = 5;

/// How visited-block marking is implemented (ablation of a design choice
/// called out in DESIGN.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MarkStrategy {
    /// Epoch counter stored in each MSRLT entry; clearing is O(1).
    #[default]
    Epoch,
    /// Side hash-set of visited ids.
    HashSet,
}

/// How pointer-free scalar runs are turned into wire bytes.
///
/// XDR's wire layout is big-endian at 4/8-byte widths. On presets whose
/// native layout already matches (the big-endian ILP32 SPARCs), a
/// pointer-free run's wire image *is* its native bytes — so the whole
/// run can be copied in one `put_opaque_fixed` instead of a
/// decode/encode per scalar. Both sides gate independently: a
/// big-endian source can bulk-encode for a little-endian destination,
/// which then per-element-decodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TranslationMode {
    /// Copy same-wire-format runs in bulk; convert the rest per element.
    #[default]
    Bulk,
    /// Always convert scalar by scalar (ablation baseline; the bulk path
    /// must be bit-identical to this).
    PerElement,
}

/// Whether `kind`'s native byte layout on `arch` equals its XDR wire
/// form: big-endian at exactly the wire width. Such runs round-trip
/// through `decode_scalar`/`put_scalar_xdr` without changing a bit, so
/// they may be block-copied.
pub(crate) fn same_wire_format(arch: &hpm_arch::Architecture, kind: CScalar) -> bool {
    use hpm_arch::{Endianness, XdrForm};
    if arch.endianness != Endianness::Big {
        return false;
    }
    let wire = match kind.xdr_form() {
        XdrForm::Int | XdrForm::UInt | XdrForm::Float => 4,
        XdrForm::Hyper | XdrForm::UHyper | XdrForm::Double => 8,
        XdrForm::LogicalPointer => return false,
    };
    arch.scalar_size(kind) == wire
}

/// Whether `plan`'s wire image equals its native bytes on `arch`:
/// pointer-free, every scalar already in wire layout, and the runs tile
/// each element contiguously (no padding holes). Such blocks encode and
/// decode as single byte copies.
pub(crate) fn plan_is_wire_identical(arch: &hpm_arch::Architecture, plan: &SavePlan) -> bool {
    if plan.has_pointers {
        return false;
    }
    let mut at = 0u64;
    for op in &plan.ops {
        let PlanOp::ScalarRun {
            offset,
            kind,
            count,
            stride,
        } = op
        else {
            return false;
        };
        let size = arch.scalar_size(*kind);
        if !same_wire_format(arch, *kind) || *stride != size || *offset != at {
            return false;
        }
        at = offset + count * size;
    }
    at == plan.size
}

/// Slice bound for whole-block bulk copies, so sink mode still streams
/// multi-megabyte arrays in chunks and the borrow of the address space
/// is released between flushes.
pub(crate) const BULK_SLICE: u64 = 1 << 20;

/// Counters for one collection run (§4.2: `Collect = MSRLT_search +
/// Encode_and_Copy`; search counters live in [`MsrltStats`](crate::MsrltStats)).
#[derive(Debug, Default, Clone, Copy)]
pub struct CollectStats {
    /// Memory blocks saved (MSR vertices transmitted).
    pub blocks_saved: u64,
    /// Total scalar leaves encoded.
    pub scalars_encoded: u64,
    /// Pointers encoded, by kind.
    pub ptr_null: u64,
    /// Pointers to already-visited blocks (`PTR_REF`).
    pub ptr_ref: u64,
    /// Pointers whose target was saved inline (`PTR_NEW`).
    pub ptr_new: u64,
    /// Payload bytes produced.
    pub bytes_out: u64,
    /// Chunks handed to the sink (0 when collecting monolithically).
    pub chunks_flushed: u64,
}

impl StatGroup for CollectStats {
    fn group(&self) -> &'static str {
        "collect"
    }

    fn fields(&self) -> Vec<StatField> {
        vec![
            StatField::count("blocks_saved", self.blocks_saved),
            StatField::count("scalars_encoded", self.scalars_encoded),
            StatField::count("ptr_null", self.ptr_null),
            StatField::count("ptr_ref", self.ptr_ref),
            StatField::count("ptr_new", self.ptr_new),
            StatField::bytes("bytes_out", self.bytes_out),
            StatField::count("chunks_flushed", self.chunks_flushed),
        ]
    }

    fn merge_from(&mut self, other: &Self) {
        self.blocks_saved += other.blocks_saved;
        self.scalars_encoded += other.scalars_encoded;
        self.ptr_null += other.ptr_null;
        self.ptr_ref += other.ptr_ref;
        self.ptr_new += other.ptr_new;
        self.bytes_out += other.bytes_out;
        self.chunks_flushed += other.chunks_flushed;
    }
}

/// A destination for flushed payload chunks during streamed collection.
pub type ChunkSink<'a> = Box<dyn FnMut(Vec<u8>) -> Result<(), CoreError> + 'a>;

/// One collection session over a process image.
///
/// Construct, issue `save_variable`/`save_pointer` calls in live-variable
/// order (innermost frame first, as the paper's §3.2 walkthrough does),
/// then [`Collector::finish`].
pub struct Collector<'a> {
    space: &'a mut AddressSpace,
    msrlt: &'a mut Msrlt,
    enc: XdrEncoder,
    stats: CollectStats,
    marks: MarkStrategy,
    mark_set: std::collections::HashSet<LogicalId>,
    fp_cache: std::collections::HashMap<TypeId, u64>,
    tracer: Tracer,
    /// Streaming sink: when set, the encoder is flushed into it whenever
    /// at least `chunk_bytes` have accumulated, so transfer can start
    /// while the DFS is still traversing.
    sink: Option<ChunkSink<'a>>,
    chunk_bytes: usize,
    flushed_bytes: u64,
    mode: TranslationMode,
    /// Flight-recorder track: each flushed chunk leaves one event, so a
    /// post-mortem names the chunk the collector was cutting when a
    /// migration died. `None` costs one branch per flush.
    flight: Option<FlightTrack>,
}

/// Cap on the collector's pre-sized encoder buffer; images beyond this
/// simply grow the vector as before.
const MAX_PRESIZE: u64 = 256 * 1024 * 1024;

impl<'a> Collector<'a> {
    /// Begin a collection: starts a fresh visit epoch.
    pub fn new(space: &'a mut AddressSpace, msrlt: &'a mut Msrlt) -> Self {
        Self::with_marks(space, msrlt, MarkStrategy::Epoch)
    }

    /// Begin a collection with an explicit mark strategy.
    pub fn with_marks(
        space: &'a mut AddressSpace,
        msrlt: &'a mut Msrlt,
        marks: MarkStrategy,
    ) -> Self {
        msrlt.begin_epoch();
        // Pre-size from the MSRLT's registered byte total: the payload is
        // dominated by the raw block bytes, plus tag/id overhead per
        // block. Kills realloc churn on linpack-sized images.
        let estimate = (msrlt.registered_bytes() + msrlt.live_count() as u64 * 40).min(MAX_PRESIZE);
        Collector {
            space,
            msrlt,
            enc: XdrEncoder::with_capacity(estimate as usize),
            stats: CollectStats::default(),
            marks,
            mark_set: std::collections::HashSet::new(),
            fp_cache: std::collections::HashMap::new(),
            tracer: Tracer::disabled(),
            sink: None,
            chunk_bytes: usize::MAX,
            flushed_bytes: 0,
            mode: TranslationMode::default(),
            flight: None,
        }
    }

    /// Attach a flight-recorder track: every flushed chunk emits a
    /// `chunk.flush` event and [`Collector::finish`] a `collect.done`.
    pub fn with_flight(mut self, flight: FlightTrack) -> Self {
        self.flight = Some(flight);
        self
    }

    /// Select bulk or per-element scalar translation (ablation control;
    /// the two must produce bit-identical payloads).
    pub fn with_translation(mut self, mode: TranslationMode) -> Self {
        self.mode = mode;
        self
    }

    /// Stream the payload through `sink` in chunks of at least
    /// `chunk_bytes` (cut at the next item boundary past the watermark,
    /// so every chunk is a whole number of XDR units). [`Collector::finish`]
    /// flushes the remainder and returns an empty vector; the
    /// concatenation of the sunk chunks is byte-identical to the
    /// monolithic payload.
    pub fn with_sink(mut self, chunk_bytes: usize, sink: ChunkSink<'a>) -> Self {
        let chunk_bytes = chunk_bytes.max(4);
        self.enc = XdrEncoder::with_capacity(chunk_bytes * 2);
        self.chunk_bytes = chunk_bytes;
        self.sink = Some(sink);
        self
    }

    /// Attach a tracer: block saves emit `collect.block` instants and
    /// every MSRLT address search becomes an `msrlt.search` span. With
    /// the default disabled tracer each site costs one branch.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// A traced MSRLT address search.
    fn lookup_addr(&mut self, addr: u64) -> Option<(LogicalId, u64)> {
        self.tracer.begin("msrlt.search");
        let r = self.msrlt.lookup_addr(addr);
        match r {
            Some((id, _)) => self.tracer.end_args(
                "msrlt.search",
                &[("group", id.group as f64), ("index", id.index as f64)],
            ),
            None => self.tracer.end_args("msrlt.search", &[("miss", 1.0)]),
        }
        r
    }

    fn fingerprint(&mut self, ty: TypeId) -> u64 {
        if let Some(&fp) = self.fp_cache.get(&ty) {
            return fp;
        }
        let fp = type_fingerprint(self.space.types(), ty);
        self.fp_cache.insert(ty, fp);
        fp
    }

    fn is_visited(&self, id: LogicalId) -> bool {
        match self.marks {
            MarkStrategy::Epoch => self.msrlt.is_visited(id),
            MarkStrategy::HashSet => self.mark_set.contains(&id),
        }
    }

    fn mark(&mut self, id: LogicalId) {
        match self.marks {
            MarkStrategy::Epoch => self.msrlt.mark_visited(id),
            MarkStrategy::HashSet => {
                self.mark_set.insert(id);
            }
        }
    }

    /// `Save_variable`: save the memory block of a live variable.
    ///
    /// `addr` must be the start address of a registered block. Emits the
    /// block's contents unless the DFS already saved it, in which case
    /// only a `VAR_VISITED` reference is emitted (the paper: "the node v7
    /// and its subsequent links and nodes have already been visited").
    pub fn save_variable(&mut self, addr: u64) -> Result<(), CoreError> {
        let (id, off) = self
            .lookup_addr(addr)
            .ok_or(CoreError::UnregisteredPointer(addr))?;
        if off != 0 {
            return Err(CoreError::SequenceMismatch(format!(
                "save_variable at interior address {addr:#x}"
            )));
        }
        if self.is_visited(id) {
            self.enc.put_u32(TAG_VAR_VISITED);
            put_id(&mut self.enc, id);
            return self.maybe_flush();
        }
        self.mark(id);
        let entry = self.msrlt.entry(id).unwrap();
        let (ty, count) = (entry.ty, entry.count);
        self.enc.put_u32(TAG_VAR_NEW);
        put_id(&mut self.enc, id);
        let fp = self.fingerprint(ty);
        self.enc.put_u64(fp);
        self.enc.put_u64(count);
        self.emit_block(addr, ty, count)?;
        self.maybe_flush()
    }

    /// `Save_pointer`: save a pointer *value*, rewriting it to logical
    /// form and saving the target block graph if not yet visited.
    pub fn save_pointer(&mut self, ptr: u64) -> Result<(), CoreError> {
        let mut stack = Vec::new();
        self.encode_pointer(ptr, &mut stack)?;
        self.drain(stack)
    }

    /// Finish, returning the payload and the statistics. In sink mode
    /// the remainder is flushed and the returned payload is empty (every
    /// byte went through the sink); `bytes_out` counts the total either
    /// way.
    pub fn finish(mut self) -> (Vec<u8>, CollectStats) {
        if let Some(sink) = self.sink.as_mut() {
            if !self.enc.is_empty() {
                let bytes = std::mem::take(&mut self.enc).into_bytes();
                self.flushed_bytes += bytes.len() as u64;
                self.stats.chunks_flushed += 1;
                if let Some(t) = &self.flight {
                    t.event(
                        "chunk.flush",
                        &[
                            ("chunk", self.stats.chunks_flushed - 1),
                            ("bytes", bytes.len() as u64),
                        ],
                    );
                }
                // The stream is complete; a sink failure here cannot be
                // surfaced through the historical signature, so drop it —
                // the receiver detects the missing tail as truncation.
                let _ = sink(bytes);
            }
            let mut stats = self.stats;
            stats.bytes_out = self.flushed_bytes;
            if let Some(t) = &self.flight {
                t.event(
                    "collect.done",
                    &[("bytes", stats.bytes_out), ("chunks", stats.chunks_flushed)],
                );
            }
            return (Vec::new(), stats);
        }
        let mut stats = self.stats;
        let bytes = self.enc.into_bytes();
        stats.bytes_out = bytes.len() as u64;
        if let Some(t) = &self.flight {
            t.event("collect.done", &[("bytes", stats.bytes_out), ("chunks", 0)]);
        }
        (bytes, stats)
    }

    /// Payload bytes produced so far (flushed chunks included).
    pub fn bytes_so_far(&self) -> usize {
        self.flushed_bytes as usize + self.enc.len()
    }

    /// The `bytes_so_far()` watermark check: flush a chunk to the sink
    /// once enough has accumulated. One branch when no sink is attached.
    fn maybe_flush(&mut self) -> Result<(), CoreError> {
        if self.enc.len() < self.chunk_bytes {
            return Ok(());
        }
        if let Some(sink) = self.sink.as_mut() {
            flush_now(
                &mut self.enc,
                sink,
                self.chunk_bytes,
                &mut self.flushed_bytes,
                &mut self.stats,
                &self.flight,
            )?;
        }
        Ok(())
    }

    // ----- internals -----

    fn emit_block(&mut self, addr: u64, ty: TypeId, count: u64) -> Result<(), CoreError> {
        self.stats.blocks_saved += 1;
        self.tracer
            .instant_args("collect.block", &[("count", count as f64)]);
        let mut stack = Vec::new();
        self.push_block(addr, ty, count, &mut stack)?;
        self.drain(stack)
    }

    /// Save the contents of the block at `addr`: pointer-free blocks are
    /// encoded here and now, the rest get a cursor on the DFS stack.
    fn push_block(
        &mut self,
        addr: u64,
        ty: TypeId,
        count: u64,
        stack: &mut Vec<Cursor>,
    ) -> Result<(), CoreError> {
        let plan = self.space.plan_ref(ty)?;
        if !plan.has_pointers {
            let plan = Arc::clone(plan);
            return self.encode_block_bulk(addr, &plan, count);
        }
        // The one address translation this block costs.
        stack.push(Cursor::new(self.space, addr, ty, count)?);
        Ok(())
    }

    /// Fast path for pointer-free blocks (the linpack case): one address
    /// resolution for the whole block, then a tight native→XDR loop. This
    /// is what makes Encode-and-Copy the dominant linpack term rather than
    /// per-element bookkeeping.
    fn encode_block_bulk(
        &mut self,
        addr: u64,
        plan: &SavePlan,
        count: u64,
    ) -> Result<(), CoreError> {
        let total = plan.size * count;
        let arch = self.space.arch();
        // Whole-block fast path: when the block's wire image IS its
        // native bytes, copy it in bounded slices — one memcpy per
        // megabyte instead of a decode/encode per scalar.
        if self.mode == TranslationMode::Bulk && plan_is_wire_identical(arch, plan) {
            let per_elem: u64 = plan
                .ops
                .iter()
                .map(|op| match op {
                    PlanOp::ScalarRun { count, .. } => *count,
                    _ => 0,
                })
                .sum();
            let mut off = 0u64;
            while off < total {
                let len = (total - off).min(BULK_SLICE);
                let bytes = self.space.read_bytes(addr + off, len)?;
                self.enc.put_opaque_fixed(bytes);
                off += len;
                if self.enc.len() >= self.chunk_bytes {
                    if let Some(sink) = self.sink.as_mut() {
                        flush_now(
                            &mut self.enc,
                            sink,
                            self.chunk_bytes,
                            &mut self.flushed_bytes,
                            &mut self.stats,
                            &self.flight,
                        )?;
                    }
                }
            }
            self.stats.scalars_encoded += per_elem * count;
            return Ok(());
        }
        let bytes = self.space.read_bytes(addr, total)?;
        let mut scalars = 0u64;
        for elem in 0..count {
            let elem_base = (elem * plan.size) as usize;
            for op in &plan.ops {
                let PlanOp::ScalarRun {
                    offset,
                    kind,
                    count: rc,
                    stride,
                } = op
                else {
                    unreachable!("bulk path requires a pointer-free plan");
                };
                let size = arch.scalar_size(*kind) as usize;
                if self.mode == TranslationMode::Bulk
                    && same_wire_format(arch, *kind)
                    && *stride == size as u64
                {
                    // Contiguous same-format run inside a padded or
                    // mixed-format element: one copy for the run.
                    let at = elem_base + *offset as usize;
                    self.enc
                        .put_opaque_fixed(&bytes[at..at + (*rc as usize) * size]);
                } else {
                    for k in 0..*rc {
                        let at = elem_base + (*offset + k * *stride) as usize;
                        let v = arch.decode_scalar(*kind, &bytes[at..at + size]);
                        put_scalar_xdr(&mut self.enc, *kind, v);
                    }
                }
                scalars += *rc;
            }
            // Per-element watermark check: a single huge pointer-free
            // block (linpack's matrix) must still stream in chunks.
            // Split-field flush: `bytes` above borrows the space.
            if self.enc.len() >= self.chunk_bytes {
                if let Some(sink) = self.sink.as_mut() {
                    flush_now(
                        &mut self.enc,
                        sink,
                        self.chunk_bytes,
                        &mut self.flushed_bytes,
                        &mut self.stats,
                        &self.flight,
                    )?;
                }
            }
        }
        self.stats.scalars_encoded += scalars;
        Ok(())
    }

    fn drain(&mut self, mut stack: Vec<Cursor>) -> Result<(), CoreError> {
        // Take the next op from the top cursor; the borrow of `stack` ends
        // with that step, so pointer handling can push onto it.
        while let Some(cur) = stack.last_mut() {
            let Some((slot, elem_base, op)) = cur.next_op(self.space)? else {
                stack.pop();
                continue;
            };
            match op {
                PlanOp::ScalarRun {
                    offset,
                    kind,
                    count,
                    stride,
                } => {
                    self.encode_run(slot, elem_base + offset, kind, count, stride)?;
                }
                PlanOp::PointerSlot { offset, .. } => {
                    let bytes = self.space.slot_bytes(slot)?;
                    let ptr = read_ptr(self.space.arch(), bytes, slot, elem_base + offset)?;
                    self.encode_pointer(ptr, &mut stack)?;
                }
            }
            self.maybe_flush()?;
        }
        Ok(())
    }

    fn encode_run(
        &mut self,
        slot: BlockSlot,
        offset: u64,
        kind: CScalar,
        count: u64,
        stride: u64,
    ) -> Result<(), CoreError> {
        let arch = self.space.arch();
        let size = arch.scalar_size(kind) as usize;
        let total_span = if count == 0 {
            0
        } else {
            (count - 1) * stride + size as u64
        };
        let bytes = span(self.space.slot_bytes(slot)?, slot, offset, total_span)?;
        if self.mode == TranslationMode::Bulk
            && same_wire_format(arch, kind)
            && stride == size as u64
        {
            self.enc.put_opaque_fixed(bytes);
        } else {
            for k in 0..count {
                let at = (k * stride) as usize;
                let v = arch.decode_scalar(kind, &bytes[at..at + size]);
                put_scalar_xdr(&mut self.enc, kind, v);
                if self.enc.len() >= self.chunk_bytes {
                    if let Some(sink) = self.sink.as_mut() {
                        flush_now(
                            &mut self.enc,
                            sink,
                            self.chunk_bytes,
                            &mut self.flushed_bytes,
                            &mut self.stats,
                            &self.flight,
                        )?;
                    }
                }
            }
        }
        self.stats.scalars_encoded += count;
        Ok(())
    }

    fn encode_pointer(&mut self, ptr: u64, stack: &mut Vec<Cursor>) -> Result<(), CoreError> {
        if ptr == 0 {
            self.stats.ptr_null += 1;
            self.enc.put_u32(TAG_PTR_NULL);
            return Ok(());
        }
        // THE MSRLT search (counted in MsrltStats).
        let (id, byte_off) = self
            .lookup_addr(ptr)
            .ok_or(CoreError::UnregisteredPointer(ptr))?;
        let entry = self.msrlt.entry(id).unwrap();
        let (ty, count, target_addr) = (entry.ty, entry.count, entry.addr);
        // Element ordinal of the pointed-to leaf within the target block.
        let leaf_idx = leaf_ordinal(self.space, ty, count, byte_off, ptr)?;
        if self.is_visited(id) {
            self.stats.ptr_ref += 1;
            self.enc.put_u32(TAG_PTR_REF);
            put_id(&mut self.enc, id);
            self.enc.put_u64(leaf_idx);
            return Ok(());
        }
        self.mark(id);
        self.stats.ptr_new += 1;
        self.stats.blocks_saved += 1;
        self.tracer
            .instant_args("collect.block", &[("count", count as f64)]);
        self.enc.put_u32(TAG_PTR_NEW);
        put_id(&mut self.enc, id);
        self.enc.put_u64(leaf_idx);
        let fp = self.fingerprint(ty);
        self.enc.put_u64(fp);
        self.enc.put_u64(count);
        self.push_block(target_addr, ty, count, stack)
    }
}

/// Hand the encoder's contents to the sink as one chunk. Free-standing
/// over split fields so flush checks can sit inside loops that hold a
/// borrow of the address space.
fn flush_now(
    enc: &mut XdrEncoder,
    sink: &mut ChunkSink<'_>,
    chunk_bytes: usize,
    flushed_bytes: &mut u64,
    stats: &mut CollectStats,
    flight: &Option<FlightTrack>,
) -> Result<(), CoreError> {
    let bytes = std::mem::replace(enc, XdrEncoder::with_capacity(chunk_bytes * 2)).into_bytes();
    *flushed_bytes += bytes.len() as u64;
    stats.chunks_flushed += 1;
    if let Some(t) = flight {
        t.event(
            "chunk.flush",
            &[
                ("chunk", stats.chunks_flushed - 1),
                ("bytes", bytes.len() as u64),
            ],
        );
    }
    sink(bytes)
}

pub(crate) fn put_id(enc: &mut XdrEncoder, id: LogicalId) {
    enc.put_u32(id.group);
    enc.put_u32(id.index);
}

/// Encode one scalar in its machine-independent XDR form.
pub(crate) fn put_scalar_xdr(enc: &mut XdrEncoder, kind: CScalar, v: hpm_arch::ScalarValue) {
    use hpm_arch::XdrForm;
    match kind.xdr_form() {
        XdrForm::Int => enc.put_i32(v.as_i64() as i32),
        XdrForm::UInt => enc.put_u32(v.as_i64() as u32),
        XdrForm::Hyper => enc.put_i64(v.as_i64()),
        XdrForm::UHyper => enc.put_u64(v.as_i64() as u64),
        XdrForm::Float => enc.put_f32(match v {
            hpm_arch::ScalarValue::F32(f) => f,
            other => other.as_f64() as f32,
        }),
        XdrForm::Double => enc.put_f64(v.as_f64()),
        XdrForm::LogicalPointer => unreachable!("pointers use PTR_* tags"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpm_arch::Architecture;
    use hpm_types::Field;

    fn setup() -> (AddressSpace, Msrlt) {
        (AddressSpace::new(Architecture::dec5000()), Msrlt::new())
    }

    fn register(space: &AddressSpace, msrlt: &mut Msrlt, addr: u64) -> LogicalId {
        let info = space.info_at(addr).expect("block exists");
        msrlt.register(&info)
    }

    #[test]
    fn save_scalar_global() {
        let (mut space, mut msrlt) = setup();
        let int = space.types_mut().int();
        let g = space.define_global("x", int, 1).unwrap();
        space.store_int(g, -42).unwrap();
        register(&space, &mut msrlt, g);
        let mut c = Collector::new(&mut space, &mut msrlt);
        c.save_variable(g).unwrap();
        let (bytes, stats) = c.finish();
        assert_eq!(stats.blocks_saved, 1);
        assert_eq!(stats.scalars_encoded, 1);
        // TAG_VAR_NEW + id(8) + fp(8) + count(8) + int(4)
        assert_eq!(bytes.len(), 4 + 8 + 8 + 8 + 4);
        // Payload int is XDR -42 at the tail.
        assert_eq!(&bytes[bytes.len() - 4..], (-42i32).to_be_bytes());
    }

    #[test]
    fn second_save_emits_visited() {
        let (mut space, mut msrlt) = setup();
        let int = space.types_mut().int();
        let g = space.define_global("x", int, 1).unwrap();
        register(&space, &mut msrlt, g);
        let mut c = Collector::new(&mut space, &mut msrlt);
        c.save_variable(g).unwrap();
        let len1 = c.bytes_so_far();
        c.save_variable(g).unwrap();
        let (bytes, stats) = c.finish();
        assert_eq!(stats.blocks_saved, 1, "no duplicate save");
        assert_eq!(bytes.len() - len1, 4 + 8, "VAR_VISITED is tag + id only");
    }

    #[test]
    fn null_pointer_encodes_null_tag() {
        let (mut space, mut msrlt) = setup();
        let int = space.types_mut().int();
        let pi = space.types_mut().pointer_to(int);
        let g = space.define_global("p", pi, 1).unwrap();
        register(&space, &mut msrlt, g);
        let mut c = Collector::new(&mut space, &mut msrlt);
        c.save_variable(g).unwrap();
        let (_, stats) = c.finish();
        assert_eq!(stats.ptr_null, 1);
        assert_eq!(stats.ptr_new, 0);
    }

    #[test]
    fn pointer_chase_saves_target_once() {
        let (mut space, mut msrlt) = setup();
        let int = space.types_mut().int();
        let pi = space.types_mut().pointer_to(int);
        // int a; int *b = &a; int *c = &a;
        let a = space.define_global("a", int, 1).unwrap();
        let b = space.define_global("b", pi, 1).unwrap();
        let cc = space.define_global("c", pi, 1).unwrap();
        space.store_int(a, 7).unwrap();
        space.store_ptr(b, a).unwrap();
        space.store_ptr(cc, a).unwrap();
        for addr in [a, b, cc] {
            register(&space, &mut msrlt, addr);
        }
        let mut c = Collector::new(&mut space, &mut msrlt);
        c.save_variable(b).unwrap();
        c.save_variable(cc).unwrap();
        c.save_variable(a).unwrap();
        let (_, stats) = c.finish();
        assert_eq!(stats.blocks_saved, 3, "a saved once (inline), b, c");
        assert_eq!(stats.ptr_new, 1, "first pointer inlines a");
        assert_eq!(stats.ptr_ref, 1, "second pointer references a");
    }

    #[test]
    fn cycle_terminates() {
        let (mut space, mut msrlt) = setup();
        let node = space.types_mut().declare_struct("node");
        let pnode = space.types_mut().pointer_to(node);
        let fl = space.types_mut().float();
        space
            .types_mut()
            .define_struct(
                node,
                vec![Field::new("data", fl), Field::new("link", pnode)],
            )
            .unwrap();
        let n1 = space.malloc(node, 1).unwrap();
        let n2 = space.malloc(node, 1).unwrap();
        // n1 → n2 → n1 (cycle)
        let l1 = space.elem_addr(n1, 1).unwrap();
        let l2 = space.elem_addr(n2, 1).unwrap();
        space.store_ptr(l1, n2).unwrap();
        space.store_ptr(l2, n1).unwrap();
        register(&space, &mut msrlt, n1);
        register(&space, &mut msrlt, n2);
        let mut c = Collector::new(&mut space, &mut msrlt);
        c.save_pointer(n1).unwrap();
        let (_, stats) = c.finish();
        assert_eq!(stats.blocks_saved, 2);
        assert_eq!(stats.ptr_new, 2);
        assert_eq!(stats.ptr_ref, 1, "back-edge to n1");
    }

    #[test]
    fn deep_list_does_not_overflow() {
        let (mut space, mut msrlt) = setup();
        let node = space.types_mut().declare_struct("cell");
        let pnode = space.types_mut().pointer_to(node);
        let int = space.types_mut().int();
        space
            .types_mut()
            .define_struct(node, vec![Field::new("v", int), Field::new("next", pnode)])
            .unwrap();
        const N: usize = 60_000;
        let mut prev = 0u64;
        let mut head = 0u64;
        for i in 0..N {
            let n = space.malloc(node, 1).unwrap();
            register(&space, &mut msrlt, n);
            let v = space.elem_addr(n, 0).unwrap();
            space.store_int(v, i as i64).unwrap();
            if prev != 0 {
                let next = space.elem_addr(prev, 1).unwrap();
                space.store_ptr(next, n).unwrap();
            } else {
                head = n;
            }
            prev = n;
        }
        let mut c = Collector::new(&mut space, &mut msrlt);
        c.save_pointer(head).unwrap();
        let (_, stats) = c.finish();
        assert_eq!(stats.blocks_saved, N as u64);
    }

    #[test]
    fn dangling_pointer_detected() {
        let (mut space, mut msrlt) = setup();
        let int = space.types_mut().int();
        let pi = space.types_mut().pointer_to(int);
        let p = space.define_global("p", pi, 1).unwrap();
        register(&space, &mut msrlt, p);
        // Point into unregistered memory.
        space.store_ptr(p, 0x1234_5678).unwrap();
        let mut c = Collector::new(&mut space, &mut msrlt);
        assert!(matches!(
            c.save_variable(p),
            Err(CoreError::UnregisteredPointer(0x1234_5678))
        ));
    }

    #[test]
    fn interior_pointer_offset_is_leaf_ordinal() {
        let (mut space, mut msrlt) = setup();
        let int = space.types_mut().int();
        let pi = space.types_mut().pointer_to(int);
        let arr = space.define_global("arr", int, 10).unwrap();
        let p = space.define_global("p", pi, 1).unwrap();
        let target = space.elem_addr(arr, 7).unwrap();
        space.store_ptr(p, target).unwrap();
        register(&space, &mut msrlt, arr);
        register(&space, &mut msrlt, p);
        let mut c = Collector::new(&mut space, &mut msrlt);
        c.save_variable(p).unwrap();
        let (bytes, _) = c.finish();
        // Find the PTR_NEW tag and check the offset field == 7.
        // Layout: VAR_NEW(4) id(8) fp(8) count(8) | PTR_NEW(4) id(8) off(8) ...
        let off = u64::from_be_bytes(bytes[40..48].try_into().unwrap());
        assert_eq!(
            u32::from_be_bytes(bytes[28..32].try_into().unwrap()),
            TAG_PTR_NEW
        );
        assert_eq!(off, 7);
    }

    #[test]
    fn sink_chunks_concat_to_monolithic_payload() {
        // Build a list long enough to span many chunks, collect it once
        // monolithically and once through a tiny-chunk sink: the
        // concatenation must be byte-identical (the streaming guarantee).
        let (mut space, mut msrlt) = setup();
        let node = space.types_mut().declare_struct("cell");
        let pnode = space.types_mut().pointer_to(node);
        let int = space.types_mut().int();
        space
            .types_mut()
            .define_struct(node, vec![Field::new("v", int), Field::new("next", pnode)])
            .unwrap();
        let mut prev = 0u64;
        let mut head = 0u64;
        for i in 0..300 {
            let n = space.malloc(node, 1).unwrap();
            register(&space, &mut msrlt, n);
            let v = space.elem_addr(n, 0).unwrap();
            space.store_int(v, i).unwrap();
            if prev != 0 {
                let next = space.elem_addr(prev, 1).unwrap();
                space.store_ptr(next, n).unwrap();
            } else {
                head = n;
            }
            prev = n;
        }

        let mut c = Collector::new(&mut space, &mut msrlt);
        c.save_pointer(head).unwrap();
        let (mono, mono_stats) = c.finish();

        let mut chunks: Vec<Vec<u8>> = Vec::new();
        {
            let sink_chunks = std::cell::RefCell::new(&mut chunks);
            let mut c = Collector::new(&mut space, &mut msrlt).with_sink(
                64,
                Box::new(|b| {
                    sink_chunks.borrow_mut().push(b);
                    Ok(())
                }),
            );
            c.save_pointer(head).unwrap();
            assert!(c.bytes_so_far() > 0);
            let (tail, stats) = c.finish();
            assert!(tail.is_empty(), "sink mode returns no payload");
            assert_eq!(stats.bytes_out, mono.len() as u64);
            assert!(stats.chunks_flushed > 1, "{stats:?}");
            assert_eq!(stats.chunks_flushed as usize, sink_chunks.borrow().len());
        }
        let streamed: Vec<u8> = chunks.concat();
        assert_eq!(streamed, mono, "chunk concatenation != monolithic image");
        assert!(
            chunks.iter().all(|c| c.len() % 4 == 0),
            "chunks cut at XDR unit boundaries"
        );
        assert_eq!(mono_stats.chunks_flushed, 0);
    }

    #[test]
    fn hashset_marks_agree_with_epoch() {
        for marks in [MarkStrategy::Epoch, MarkStrategy::HashSet] {
            let (mut space, mut msrlt) = setup();
            let int = space.types_mut().int();
            let pi = space.types_mut().pointer_to(int);
            let a = space.define_global("a", int, 1).unwrap();
            let b = space.define_global("b", pi, 1).unwrap();
            space.store_ptr(b, a).unwrap();
            register(&space, &mut msrlt, a);
            register(&space, &mut msrlt, b);
            let mut c = Collector::with_marks(&mut space, &mut msrlt, marks);
            c.save_variable(b).unwrap();
            c.save_variable(a).unwrap();
            let (_, stats) = c.finish();
            assert_eq!(stats.blocks_saved, 2, "strategy {marks:?}");
        }
    }
}
