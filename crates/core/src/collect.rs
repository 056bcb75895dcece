//! Data collection: `Save_variable` and `Save_pointer`.
//!
//! §3.1: "Save_pointer initiates a depth-first traversal through
//! connected components of the MSR graph. It examines memory blocks that
//! are referred to by pointers and then invokes type-specific saving
//! functions to save their contents. During the traversal, visited memory
//! blocks are marked so that they are not saved again."
//!
//! ## Stream grammar (every item whole XDR units)
//!
//! ```text
//! item        := VAR_NEW record contents
//!              | VAR_VISITED record
//! pointer     := PTR_NULL record
//!              | PTR_REF record
//!              | PTR_NEW record contents
//! contents    := leaf*                       (element order, per TI plan)
//! leaf        := scalar-in-XDR-form | pointer
//!
//! word0       := tag:3 | flags:5 | group:24  (one XDR unit, tag on top)
//! PTR_NULL    := word0
//! VAR_VISITED := word0 index:u32
//! PTR_REF     := word0 [index:u32] [ordinal]
//! VAR_NEW     := word0 index:u32 type:u32 [fp:u64] [count:u64]
//! PTR_NEW     := word0 [index:u32] type:u32 [fp:u64] [ordinal] [count:u64]
//!
//! flags       := TYPEDEF  fp follows: this record defines sender type
//!                         number `type` (its first record in this image)
//!                ORD      ordinal present (absent = 0)
//!                ORD64    the ordinal is a u64, else a u32
//!                COUNT    count present (absent = 1)
//!                HEAP     (PTR_REF / PTR_NEW only) the id is the heap
//!                         block whose index is word0's low 24 bits; no
//!                         index follows
//! group:index := the block's logical id, named by word0's low 24 bits
//!                and the index word when HEAP is clear. A pointer to a
//!                heap block uses HEAP whenever its index fits 24 bits;
//!                the long form with the heap group is the escape for a
//!                larger index and is refused for any other.
//! type        := sender type number, dense in order of first sight
//! fp          := structural fingerprint of the block's element type
//! ordinal     := leaf ordinal inside the target block (pointers only)
//! count       := element count of the block
//! ```
//!
//! Every pointer therefore has exactly one encoding: a heap `PTR_REF` to
//! a block start is one word, a heap `PTR_NEW` of a type already sent
//! two. Globals and stack locals keep the explicit index: they are
//! registered on both sides before restoration, and the restorer needs
//! their group to find them.
//!
//! A type's fingerprint travels once per image, on the first record of
//! that type; every later block of the type names it by number. The
//! dictionary is in-band so that a bare payload is self-contained: the
//! receiver learns number → local type at the `TYPEDEF` (where it checks
//! the fingerprint) and refuses a number it was never given. First-sight
//! state belongs to the [`Collector`], so two collections of one frozen
//! process are byte-identical.
//!
//! The traversal is depth-first *pre-order*: a `PTR_NEW` is immediately
//! followed by the complete contents of the target block (which may nest
//! further `PTR_NEW`s), after which the interrupted parent block resumes.
//! The DFS runs on an explicit work stack, so arbitrarily deep structures
//! (million-node linked lists) collect without exhausting the call stack.

use crate::fingerprint::type_fingerprint;
use crate::kernel::{for_each_run, Kernel};
use crate::msrlt::{Hit, LogicalId, Msrlt, GROUP_HEAP};
use crate::translate::{leaf_ordinal, read_ptr, span, Cursor};
use crate::CoreError;
use hpm_arch::Architecture;
use hpm_memory::{AddressSpace, BlockSlot};
use hpm_obs::Track;
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

/// The tag sits in the top three bits of a record's first word.
pub(crate) const TAG_SHIFT: u32 = 29;
/// Flag: the record defines its type number; the fingerprint follows it.
pub(crate) const FLAG_TYPEDEF: u32 = 1 << 28;
/// Flag: a leaf ordinal is present (absent means 0).
pub(crate) const FLAG_ORD: u32 = 1 << 27;
/// Flag: the ordinal is a `u64`; only with [`FLAG_ORD`].
pub(crate) const FLAG_ORD64: u32 = 1 << 26;
/// Flag: an element count is present (absent means 1).
pub(crate) const FLAG_COUNT: u32 = 1 << 25;
/// Flag (`PTR_REF` / `PTR_NEW`): the id is the heap block whose index is
/// the low 24 bits, and no index word follows.
pub(crate) const FLAG_HEAP: u32 = 1 << 24;
/// The five flag bits.
pub(crate) const FLAG_MASK: u32 = 0x1F << 24;
/// The low 24 bits of the first word carry the id's group, which is
/// therefore also the largest group a record can name — or, under
/// [`FLAG_HEAP`], a heap index, the largest one that travels short.
pub(crate) const GROUP_MAX: u32 = (1 << 24) - 1;

/// Everything a record says ahead of its contents. The collector encodes
/// one per item and the restorer decodes one per item; nothing else reads
/// or writes record bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Record {
    pub(crate) tag: u32,
    /// The block's logical id; `(0,0)` for `PTR_NULL`. On a pointer
    /// record a heap id whose index fits 24 bits travels in the first
    /// word ([`FLAG_HEAP`]); every other id is group and index word.
    pub(crate) id: LogicalId,
    /// Sender type number (`VAR_NEW` / `PTR_NEW`).
    pub(crate) type_no: u32,
    /// The type's fingerprint when this record defines `type_no`.
    pub(crate) typedef: Option<u64>,
    /// Leaf ordinal of the pointee (`PTR_REF` / `PTR_NEW`).
    pub(crate) ordinal: u64,
    /// Element count of the block (`VAR_NEW` / `PTR_NEW`).
    pub(crate) count: u64,
}

impl Record {
    /// A record of `tag` that says nothing but `id`: `VAR_VISITED`, or
    /// the start of one of the others.
    pub(crate) fn bare(tag: u32, id: LogicalId) -> Self {
        Record {
            tag,
            id,
            type_no: 0,
            typedef: None,
            ordinal: 0,
            count: 1,
        }
    }

    /// Whether records of `tag` announce a block (type and count).
    pub(crate) fn announces_block(tag: u32) -> bool {
        tag == TAG_VAR_NEW || tag == TAG_PTR_NEW
    }

    /// Append the record. The only failure is an id whose group does not
    /// fit the first word, refused before anything is written.
    #[inline]
    pub(crate) fn encode(&self, enc: &mut XdrEncoder) -> Result<(), CoreError> {
        if self.id.group > GROUP_MAX {
            return Err(CoreError::GroupTooLarge(self.id));
        }
        let block = Self::announces_block(self.tag);
        let short = self.id.group == GROUP_HEAP
            && self.id.index <= GROUP_MAX
            && matches!(self.tag, TAG_PTR_REF | TAG_PTR_NEW);
        let mut word0 = self.tag << TAG_SHIFT;
        if short {
            word0 |= FLAG_HEAP | self.id.index;
        } else {
            word0 |= self.id.group;
        }
        if self.ordinal != 0 {
            word0 |= FLAG_ORD;
            if self.ordinal > u64::from(u32::MAX) {
                word0 |= FLAG_ORD64;
            }
        }
        if block && self.typedef.is_some() {
            word0 |= FLAG_TYPEDEF;
        }
        if block && self.count != 1 {
            word0 |= FLAG_COUNT;
        }
        enc.put_u32(word0);
        if self.tag == TAG_PTR_NULL {
            return Ok(());
        }
        if !short {
            enc.put_u32(self.id.index);
        }
        if block {
            enc.put_u32(self.type_no);
            if let Some(fp) = self.typedef {
                enc.put_u64(fp);
            }
        }
        if word0 & FLAG_ORD64 != 0 {
            enc.put_u64(self.ordinal);
        } else if word0 & FLAG_ORD != 0 {
            enc.put_u32(self.ordinal as u32);
        }
        if word0 & FLAG_COUNT != 0 {
            enc.put_u64(self.count);
        }
        Ok(())
    }
}

/// How scalar runs are turned into wire bytes.
///
/// The wire format is fixed XDR, so the choice is invisible outside this
/// machine and each side makes it independently: the two modes must
/// produce bit-identical payloads and bit-identical restored memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TranslationMode {
    /// One kernel call per run, its arm (copy, byte-swap, widen/narrow)
    /// chosen from the run's native and wire layout.
    #[default]
    Bulk,
    /// Always convert scalar by scalar through
    /// [`ScalarValue`](hpm_arch::ScalarValue) — the reference the `Bulk`
    /// kernels are held to.
    PerElement,
}

/// Counters for one collection run (§4.2: `Collect = MSRLT_search +
/// Encode_and_Copy`; search counters live in [`MsrltStats`](crate::MsrltStats)).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
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
    out: Output<'a>,
    stats: CollectStats,
    /// `type_nos[t]` is one more than the number this image gave
    /// `TypeId(t)`, 0 while the type has not been sent yet.
    type_nos: Vec<u32>,
    types_defined: u32,
    mode: TranslationMode,
}

/// Where the encoded bytes go: the encoder and, in sink mode, the chunk
/// cutter. Its own struct so the encode kernel can write and flush while
/// the block it reads stays borrowed from the address space.
struct Output<'a> {
    enc: XdrEncoder,
    /// Bytes at the front of the stream that are not payload (an image
    /// prefix the caller had the collector start from).
    prefix_len: usize,
    /// Streaming sink: when set, the encoder is flushed into it whenever
    /// at least `chunk_bytes` have accumulated, so transfer can start
    /// while the DFS is still traversing.
    sink: Option<ChunkSink<'a>>,
    chunk_bytes: usize,
    flushed_bytes: u64,
    chunks_flushed: u64,
    /// Each flushed chunk leaves one event, so a post-mortem names the
    /// chunk the collector was cutting when a migration died; at detail
    /// level every block and MSRLT search does too.
    track: Track,
}

impl Output<'_> {
    /// The watermark check: hand the encoder's contents to the sink as
    /// one chunk once enough has accumulated. One branch when no sink is
    /// attached.
    fn maybe_flush(&mut self) -> Result<(), CoreError> {
        if self.enc.len() < self.chunk_bytes {
            return Ok(());
        }
        self.flush()
    }

    fn flush(&mut self) -> Result<(), CoreError> {
        let Some(sink) = self.sink.as_mut() else {
            return Ok(());
        };
        let next = XdrEncoder::with_capacity(self.chunk_bytes * 2);
        let bytes = std::mem::replace(&mut self.enc, next).into_bytes();
        self.flushed_bytes += bytes.len() as u64;
        self.chunks_flushed += 1;
        self.track.event(
            "chunk.flush",
            &[
                ("chunk", self.chunks_flushed - 1),
                ("bytes", bytes.len() as u64),
            ],
        );
        sink(bytes)
    }
}

/// Cap on the collector's pre-sized encoder buffer; images beyond this
/// simply grow the vector as before.
const MAX_PRESIZE: u64 = 256 * 1024 * 1024;

impl<'a> Collector<'a> {
    /// Begin a collection: starts a fresh visit epoch.
    pub fn new(space: &'a mut AddressSpace, msrlt: &'a mut Msrlt) -> Self {
        msrlt.begin_epoch();
        // Pre-size from the MSRLT's registered byte total: the payload is
        // dominated by the raw block bytes, plus per block the record
        // that announces it (8 bytes for a heap `PTR_NEW` of a type
        // already sent, 12 for a named block's `VAR_NEW`) and the few a
        // wire pointer outgrows a 4-byte native one by. Kills realloc
        // churn on linpack-sized images.
        let estimate = (msrlt.registered_bytes() + msrlt.live_count() as u64 * 24).min(MAX_PRESIZE);
        let type_nos = vec![0; space.types().len()];
        Collector {
            space,
            msrlt,
            out: Output {
                enc: XdrEncoder::with_capacity(estimate as usize),
                prefix_len: 0,
                sink: None,
                chunk_bytes: usize::MAX,
                flushed_bytes: 0,
                chunks_flushed: 0,
                track: Track::off(),
            },
            stats: CollectStats::default(),
            type_nos,
            types_defined: 0,
            mode: TranslationMode::default(),
        }
    }

    /// Attach a log track: every flushed chunk emits a `chunk.flush`
    /// event and [`Collector::finish`] a `collect.done`; at detail level
    /// block saves emit `collect.block` and every MSRLT address search
    /// becomes an `msrlt.search` span. On the default inert track each
    /// site costs one branch.
    pub fn with_track(mut self, track: Track) -> Self {
        self.out.track = track;
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
        self.out.enc = XdrEncoder::with_capacity(chunk_bytes * 2);
        self.out.chunk_bytes = chunk_bytes;
        self.out.sink = Some(sink);
        self
    }

    /// Start the stream with `prefix` — a whole number of XDR units, such
    /// as [`frame_image_prefix`](crate::image::frame_image_prefix) builds
    /// — so that [`Collector::finish`] returns the framed image and the
    /// payload is never copied into place behind its header. Call before
    /// the first save; `bytes_out` and
    /// [`Collector::bytes_so_far`] keep counting payload bytes only.
    pub fn with_prefix(mut self, prefix: &[u8]) -> Self {
        assert_eq!(prefix.len() % 4, 0, "an image prefix is whole XDR units");
        self.out.enc.reserve(prefix.len());
        self.out.enc.put_opaque_fixed(prefix);
        self.out.prefix_len += prefix.len();
        self
    }

    /// An MSRLT address search, bracketed as a detail span.
    fn resolve(&mut self, addr: u64) -> Result<Hit, CoreError> {
        let track = &self.out.track;
        track.detail_begin("msrlt.search", &[]);
        let r = self.msrlt.resolve(self.space, addr);
        match r {
            Some(Hit { id, .. }) => track.detail_end(
                "msrlt.search",
                &[("group", id.group as u64), ("index", id.index as u64)],
            ),
            None => track.detail_end("msrlt.search", &[("miss", 1)]),
        }
        r.ok_or(CoreError::UnregisteredPointer(addr))
    }

    /// The number this image knows `ty` by and, the first time the type
    /// is sent, the fingerprint that defines it.
    fn type_number(&mut self, ty: TypeId) -> (u32, Option<u64>) {
        let i = ty.0 as usize;
        if i >= self.type_nos.len() {
            // A type created since this collection began.
            self.type_nos.resize(i + 1, 0);
        }
        if self.type_nos[i] != 0 {
            return (self.type_nos[i] - 1, None);
        }
        let no = self.types_defined;
        self.types_defined += 1;
        self.type_nos[i] = no + 1;
        (no, Some(type_fingerprint(self.space.types(), ty)))
    }

    /// Emit the record announcing block `id` of `count` elements of `ty`
    /// (`VAR_NEW`, or `PTR_NEW` with the pointee's `ordinal`).
    fn put_block_record(
        &mut self,
        tag: u32,
        id: LogicalId,
        ty: TypeId,
        ordinal: u64,
        count: u64,
    ) -> Result<(), CoreError> {
        let (type_no, typedef) = self.type_number(ty);
        Record {
            tag,
            id,
            type_no,
            typedef,
            ordinal,
            count,
        }
        .encode(&mut self.out.enc)
    }

    /// `Save_variable`: save the memory block of a live variable.
    ///
    /// `addr` must be the start address of a registered block. Emits the
    /// block's contents unless the DFS already saved it, in which case
    /// only a `VAR_VISITED` reference is emitted (the paper: "the node v7
    /// and its subsequent links and nodes have already been visited").
    pub fn save_variable(&mut self, addr: u64) -> Result<(), CoreError> {
        let hit = self.resolve(addr)?;
        if hit.offset != 0 {
            return Err(CoreError::SequenceMismatch(format!(
                "save_variable at interior address {addr:#x}"
            )));
        }
        if !self.msrlt.visit(hit.slot) {
            Record::bare(TAG_VAR_VISITED, hit.id).encode(&mut self.out.enc)?;
            return self.out.maybe_flush();
        }
        self.put_block_record(TAG_VAR_NEW, hit.id, hit.ty, 0, hit.count)?;
        self.emit_block(hit.slot, hit.ty, hit.count)?;
        self.out.maybe_flush()
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
    /// way. A sink that refuses the final chunk fails the collection.
    pub fn finish(mut self) -> Result<(Vec<u8>, CollectStats), CoreError> {
        if self.out.sink.is_some() && !self.out.enc.is_empty() {
            self.out.flush()?;
        }
        let bytes = std::mem::take(&mut self.out.enc).into_bytes();
        let mut stats = self.stats;
        stats.chunks_flushed = self.out.chunks_flushed;
        stats.bytes_out = self.out.flushed_bytes + bytes.len() as u64 - self.out.prefix_len as u64;
        self.out.track.event(
            "collect.done",
            &[("bytes", stats.bytes_out), ("chunks", stats.chunks_flushed)],
        );
        Ok((bytes, stats))
    }

    /// Payload bytes produced so far (flushed chunks included).
    pub fn bytes_so_far(&self) -> usize {
        self.out.flushed_bytes as usize + self.out.enc.len() - self.out.prefix_len
    }

    // ----- internals -----

    fn emit_block(&mut self, slot: BlockSlot, ty: TypeId, count: u64) -> Result<(), CoreError> {
        self.stats.blocks_saved += 1;
        self.out
            .track
            .detail_event("collect.block", &[("count", count)]);
        let mut stack = Vec::new();
        self.push_block(slot, ty, count, &mut stack)?;
        self.drain(stack)
    }

    /// Save the contents of the block behind `slot`: pointer-free blocks
    /// are encoded here and now, the rest get a cursor on the DFS stack.
    fn push_block(
        &mut self,
        slot: BlockSlot,
        ty: TypeId,
        count: u64,
        stack: &mut Vec<Cursor>,
    ) -> Result<(), CoreError> {
        let plan = self.space.plan_ref(ty)?;
        if !plan.has_pointers {
            let plan = Arc::clone(plan);
            return self.encode_flat_block(slot, &plan, count);
        }
        stack.push(Cursor::new(slot, ty, count));
        Ok(())
    }

    /// Save a pointer-free block (the linpack case): one borrow of its
    /// bytes, then its runs straight through the encode kernel — a
    /// dense single-kind block as one run. This is what makes
    /// Encode-and-Copy the dominant linpack term rather than per-element
    /// bookkeeping.
    fn encode_flat_block(
        &mut self,
        slot: BlockSlot,
        plan: &SavePlan,
        count: u64,
    ) -> Result<(), CoreError> {
        let (arch, bytes) = (self.space.arch(), self.space.slot_bytes(slot)?);
        let out = &mut self.out;
        for_each_run(arch, plan, count, self.mode, |offset, kernel, n| {
            encode_run(arch, bytes, slot, offset, kernel, n, out)
        })?;
        self.stats.scalars_encoded += plan.leaf_count * count;
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
            let arch = self.space.arch();
            let bytes = self.space.slot_bytes(slot)?;
            match op {
                PlanOp::ScalarRun {
                    offset,
                    kind,
                    count,
                    stride,
                } => {
                    let kernel = Kernel::select(arch, kind, stride, self.mode);
                    let at = elem_base + offset;
                    encode_run(arch, bytes, slot, at, kernel, count, &mut self.out)?;
                    self.stats.scalars_encoded += count;
                }
                PlanOp::PointerSlot { offset, .. } => {
                    let ptr = read_ptr(arch, bytes, slot, elem_base + offset)?;
                    self.encode_pointer(ptr, &mut stack)?;
                }
            }
            self.out.maybe_flush()?;
        }
        Ok(())
    }

    fn encode_pointer(&mut self, ptr: u64, stack: &mut Vec<Cursor>) -> Result<(), CoreError> {
        if ptr == 0 {
            self.stats.ptr_null += 1;
            self.out.enc.put_u32(TAG_PTR_NULL << TAG_SHIFT);
            return Ok(());
        }
        // THE MSRLT search (counted in MsrltStats).
        let Hit {
            id,
            slot,
            ty,
            count,
            offset,
        } = self.resolve(ptr)?;
        // Element ordinal of the pointed-to leaf within the target block.
        let leaf_idx = leaf_ordinal(self.space, ty, count, offset, ptr)?;
        if !self.msrlt.visit(slot) {
            self.stats.ptr_ref += 1;
            let mut rec = Record::bare(TAG_PTR_REF, id);
            rec.ordinal = leaf_idx;
            return rec.encode(&mut self.out.enc);
        }
        self.stats.ptr_new += 1;
        self.stats.blocks_saved += 1;
        self.out
            .track
            .detail_event("collect.block", &[("count", count)]);
        self.put_block_record(TAG_PTR_NEW, id, ty, leaf_idx, count)?;
        self.push_block(slot, ty, count, stack)
    }
}

/// Run `count` scalars, the first at byte `offset` of the block behind
/// `slot`, through the encode kernel in [`BULK_SLICE`](crate::kernel::BULK_SLICE)
/// slices, checking the sink's watermark after each: a single huge run
/// (linpack's matrix) must still stream in chunks.
fn encode_run(
    arch: &Architecture,
    bytes: &[u8],
    slot: BlockSlot,
    offset: u64,
    kernel: Kernel,
    count: u64,
    out: &mut Output<'_>,
) -> Result<(), CoreError> {
    let src = span(bytes, slot, offset, kernel.native_span(count))?;
    let mut done = 0u64;
    while done < count {
        let n = (count - done).min(kernel.slice_scalars());
        let from = (done * kernel.stride()) as usize;
        let slice = &src[from..from + kernel.native_span(n) as usize];
        kernel.encode(arch, slice, n as usize, &mut out.enc);
        done += n;
        out.maybe_flush()?;
    }
    Ok(())
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
        let id = register(&space, &mut msrlt, g);
        let fp = type_fingerprint(space.types(), int);
        let mut c = Collector::new(&mut space, &mut msrlt);
        c.save_variable(g).unwrap();
        let (bytes, stats) = c.finish().unwrap();
        assert_eq!(stats.blocks_saved, 1);
        assert_eq!(stats.scalars_encoded, 1);
        let (rec, size) = Record::read(&bytes).unwrap();
        let mut want = Record::bare(TAG_VAR_NEW, id);
        want.typedef = Some(fp);
        assert_eq!(
            rec, want,
            "the image's first type is number 0, defined here"
        );
        assert_eq!(size, 20, "word0 + index + type + fingerprint");
        // The contents: XDR -42.
        assert_eq!(&bytes[size..], (-42i32).to_be_bytes());
    }

    #[test]
    fn second_save_emits_visited() {
        let (mut space, mut msrlt) = setup();
        let int = space.types_mut().int();
        let g = space.define_global("x", int, 1).unwrap();
        let id = register(&space, &mut msrlt, g);
        let mut c = Collector::new(&mut space, &mut msrlt);
        c.save_variable(g).unwrap();
        let len1 = c.bytes_so_far();
        c.save_variable(g).unwrap();
        let (bytes, stats) = c.finish().unwrap();
        assert_eq!(stats.blocks_saved, 1, "no duplicate save");
        let (rec, size) = Record::read(&bytes[len1..]).unwrap();
        assert_eq!(rec, Record::bare(TAG_VAR_VISITED, id));
        assert_eq!(
            (size, bytes.len() - len1),
            (8, 8),
            "VAR_VISITED is the id only"
        );
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
        let (_, stats) = c.finish().unwrap();
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
        let (_, stats) = c.finish().unwrap();
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
        let id1 = register(&space, &mut msrlt, n1);
        let id2 = register(&space, &mut msrlt, n2);
        let mut c = Collector::new(&mut space, &mut msrlt);
        c.save_pointer(n1).unwrap();
        let (bytes, stats) = c.finish().unwrap();
        assert_eq!(stats.blocks_saved, 2);
        assert_eq!(stats.ptr_new, 2);
        assert_eq!(stats.ptr_ref, 1, "back-edge to n1");

        // PTR_NEW n1 | data | PTR_NEW n2 | data | PTR_REF n1: the three
        // record shapes a pointer graph is made of, and what each costs.
        let (first, size) = Record::read(&bytes).unwrap();
        assert_eq!((first.tag, first.id, first.type_no), (TAG_PTR_NEW, id1, 0));
        assert!(first.typedef.is_some(), "first sight of `node` defines it");
        assert_eq!(size, 16, "first sight: word0 + type + the fingerprint");
        let at = size + 4;
        let (second, size) = Record::read(&bytes[at..]).unwrap();
        let mut want = Record::bare(TAG_PTR_NEW, id2);
        want.type_no = first.type_no;
        assert_eq!(second, want, "seen type, ordinal 0, count 1");
        assert_eq!(size, 8, "word0 (HEAP, the index) + type");
        let at = at + size + 4;
        let (back, size) = Record::read(&bytes[at..]).unwrap();
        assert_eq!(back, Record::bare(TAG_PTR_REF, id1));
        assert_eq!(size, 4, "heap PTR_REF to a block start: word0 alone");
        assert_eq!(at + size, bytes.len());
    }

    /// The largest heap index the first word holds travels short; one
    /// more takes the long form, the heap group in the first word and
    /// the index after it. Both read back as the same record.
    #[test]
    fn heap_ids_travel_short_up_to_24_bits_and_long_beyond() {
        for (index, short) in [(GROUP_MAX, true), (GROUP_MAX + 1, false)] {
            let id = LogicalId {
                group: GROUP_HEAP,
                index,
            };
            let mut new = Record::bare(TAG_PTR_NEW, id);
            new.type_no = 3;
            for rec in [new, Record::bare(TAG_PTR_REF, id)] {
                let mut enc = XdrEncoder::new();
                rec.encode(&mut enc).unwrap();
                let bytes = enc.into_bytes();
                let word0 = u32::from_be_bytes(bytes[..4].try_into().unwrap());
                let index_words = if short { 0 } else { 4 };
                let type_word = if rec.tag == TAG_PTR_NEW { 4 } else { 0 };
                assert_eq!(
                    (word0 & FLAG_HEAP != 0, bytes.len()),
                    (short, 4 + index_words + type_word),
                    "{rec:?}"
                );
                assert_eq!(Record::read(&bytes), Ok((rec, bytes.len())), "{rec:?}");
            }
        }
    }

    #[test]
    fn an_epoch_wrap_leaves_no_block_marked_visited() {
        let (mut space, mut msrlt) = setup();
        let node = space.types_mut().declare_struct("node");
        let pnode = space.types_mut().pointer_to(node);
        let int = space.types_mut().int();
        space
            .types_mut()
            .define_struct(node, vec![Field::new("v", int), Field::new("link", pnode)])
            .unwrap();
        let n1 = space.malloc(node, 1).unwrap();
        let n2 = space.malloc(node, 1).unwrap();
        for (from, to) in [(n1, n2), (n2, n1)] {
            let link = space.elem_addr(from, 1).unwrap();
            space.store_ptr(link, to).unwrap();
        }
        let ids = [n1, n2].map(|n| register(&space, &mut msrlt, n));
        let collect = |space: &mut AddressSpace, msrlt: &mut Msrlt| {
            let mut c = Collector::new(space, msrlt);
            c.save_pointer(n1).unwrap();
            c.finish().unwrap()
        };
        // A fresh table's first collection marks both blocks in its epoch,
        // which is also the first epoch after a wrap.
        let (first, stats) = collect(&mut space, &mut msrlt);
        assert_eq!((stats.blocks_saved, stats.ptr_ref), (2, 1));
        assert!(ids.iter().all(|&id| msrlt.is_visited(id)));

        // A mark taken in the last epoch before the wrap.
        msrlt.force_epoch(u32::MAX);
        assert!(msrlt.visit(msrlt.entry(ids[1]).unwrap().slot()));
        assert!(msrlt.is_visited(ids[1]));
        drop(Collector::new(&mut space, &mut msrlt));
        for id in ids {
            assert!(!msrlt.is_visited(id), "{id} still marked after the wrap");
        }
        // A whole collection across the wrap saves the graph again, byte
        // for byte.
        msrlt.force_epoch(u32::MAX);
        let (again, stats) = collect(&mut space, &mut msrlt);
        assert_eq!(again, first);
        assert_eq!(stats.blocks_saved, 2);
    }

    #[test]
    fn group_beyond_24_bits_is_refused_at_collection() {
        let id = LogicalId {
            group: GROUP_MAX + 1,
            index: 0,
        };
        let mut enc = XdrEncoder::new();
        assert_eq!(
            Record::bare(TAG_PTR_REF, id).encode(&mut enc),
            Err(CoreError::GroupTooLarge(id))
        );
        assert!(enc.is_empty(), "nothing written");
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
        let (_, stats) = c.finish().unwrap();
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
        let arr_id = register(&space, &mut msrlt, arr);
        register(&space, &mut msrlt, p);
        let mut c = Collector::new(&mut space, &mut msrlt);
        c.save_variable(p).unwrap();
        let (bytes, _) = c.finish().unwrap();
        // VAR_NEW p, whose contents open with the PTR_NEW for arr.
        let (var, at) = Record::read(&bytes).unwrap();
        assert_eq!(var.tag, TAG_VAR_NEW);
        let (ptr, size) = Record::read(&bytes[at..]).unwrap();
        assert_eq!((ptr.tag, ptr.id), (TAG_PTR_NEW, arr_id));
        assert_eq!((ptr.ordinal, ptr.count), (7, 10));
        assert_eq!(ptr.type_no, 1, "`int` is the second type this image sends");
        assert_eq!(size, 20 + 4 + 8, "first sight + u32 ordinal + count");
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
        let (mono, mono_stats) = c.finish().unwrap();

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
            let (tail, stats) = c.finish().unwrap();
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
    fn prefix_leads_the_stream_and_is_not_counted_as_payload() {
        let (mut space, mut msrlt) = setup();
        let int = space.types_mut().int();
        let g = space.define_global("x", int, 3).unwrap();
        register(&space, &mut msrlt, g);
        let mut c = Collector::new(&mut space, &mut msrlt);
        c.save_variable(g).unwrap();
        let (plain, plain_stats) = c.finish().unwrap();

        let prefix = [0xAB; 12];
        let mut c = Collector::new(&mut space, &mut msrlt).with_prefix(&prefix);
        assert_eq!(c.bytes_so_far(), 0);
        c.save_variable(g).unwrap();
        assert_eq!(c.bytes_so_far(), plain.len());
        let (framed, stats) = c.finish().unwrap();
        assert_eq!(framed, [&prefix[..], &plain[..]].concat());
        assert_eq!(stats.bytes_out, plain_stats.bytes_out);
    }

    /// The final flush happens inside `finish`: a sink that refuses that
    /// chunk must fail the collection, not leave a truncated stream that
    /// reports success.
    #[test]
    fn sink_refusing_the_final_chunk_fails_finish() {
        let (mut space, mut msrlt) = setup();
        let int = space.types_mut().int();
        let g = space.define_global("x", int, 3).unwrap();
        register(&space, &mut msrlt, g);
        let mut offered = 0;
        let sink = Box::new(|_| {
            offered += 1;
            Err(CoreError::Source("sink closed".into()))
        });
        // One chunk's worth far above the payload: nothing is flushed
        // until `finish`.
        let mut c = Collector::new(&mut space, &mut msrlt).with_sink(1 << 20, sink);
        c.save_variable(g).unwrap();
        let err = c.finish().unwrap_err();
        assert_eq!(err, CoreError::Source("sink closed".into()));
        assert_eq!(offered, 1);
    }
}
