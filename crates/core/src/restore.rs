//! Data restoration: `Restore_variable` and `Restore_pointer`.
//!
//! §3.1: "At the destination machine, the function Restore_pointer is
//! called recursively to rebuild memory blocks in memory space from the
//! output of Save_pointer. … The functions consult the MSRLT data
//! structures for appropriate memory locations and restore the memory
//! block contents there."
//!
//! The restorer consumes the stream produced by
//! [`Collector`](crate::Collector) (its module documents the record
//! grammar) and mirrors its explicit-stack DFS.
//! Because every transmitted block carries its logical id, restoration
//! never searches: named blocks (globals, re-created stack locals) are
//! found by `O(1)` id lookup, and heap blocks are allocated on first
//! sight and recorded under the id the stream dictates. This is the §4.2
//! asymmetry — `Restore = MSRLT_update + Decode_and_Copy` with only an
//! `O(n)` MSRLT term.
//!
//! Its one input is a [`ChunkPayload`]: a whole image's payload is a
//! chunk stream that has already arrived ([`Restorer::new`] reads it in
//! place), a streamed one continues past its head as chunks arrive
//! ([`Restorer::over`]). Every bounds rule, truncation error and chunk
//! index is the payload's, so both transports restore alike.

use crate::collect::{
    Record, TranslationMode, FLAG_COUNT, FLAG_HEAP, FLAG_MASK, FLAG_ORD, FLAG_ORD64, FLAG_TYPEDEF,
    GROUP_MAX, TAG_PTR_NEW, TAG_PTR_NULL, TAG_PTR_REF, TAG_SHIFT, TAG_VAR_NEW, TAG_VAR_VISITED,
};
use crate::fingerprint::type_fingerprint;
use crate::kernel::{for_each_run, Kernel};
use crate::msrlt::{LogicalId, Msrlt, GROUP_HEAP};
use crate::stream::ChunkPayload;
use crate::translate::{leaf_address, span_mut, Cursor};
use crate::CoreError;
use hpm_arch::{Architecture, CScalar, ScalarValue};
use hpm_memory::{AddressSpace, BlockSlot};
use hpm_obs::Track;
use hpm_types::plan::{PlanOp, SavePlan};
use hpm_types::TypeId;
use std::collections::HashMap;
use std::sync::Arc;

/// Counters for one restoration run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RestoreStats {
    /// Blocks whose contents were written.
    pub blocks_restored: u64,
    /// Heap blocks allocated on first sight.
    pub blocks_allocated: u64,
    /// Scalar leaves decoded.
    pub scalars_decoded: u64,
    /// Pointers decoded, by kind.
    pub ptr_null: u64,
    /// `PTR_REF` pointers translated by id lookup.
    pub ptr_ref: u64,
    /// `PTR_NEW` pointers (target materialized inline).
    pub ptr_new: u64,
    /// Payload bytes consumed.
    pub bytes_in: u64,
}

/// Accumulate another session's counters (restoration runs one session
/// per frame).
impl std::ops::AddAssign for RestoreStats {
    fn add_assign(&mut self, other: Self) {
        self.blocks_restored += other.blocks_restored;
        self.blocks_allocated += other.blocks_allocated;
        self.scalars_decoded += other.scalars_decoded;
        self.ptr_null += other.ptr_null;
        self.ptr_ref += other.ptr_ref;
        self.ptr_new += other.ptr_new;
        self.bytes_in += other.bytes_in;
    }
}

/// One restoration session over a received migration image: `'s` is its
/// borrow of the destination's address space and MSRLT, `'p` the
/// caller's buffer the payload's head lies in. A payload outlives the
/// per-frame sessions that read it in turn (see [`Restorer::into_input`]).
pub struct Restorer<'s, 'p> {
    space: &'s mut AddressSpace,
    msrlt: &'s mut Msrlt,
    input: ChunkPayload<'p>,
    /// Stream position when this session began.
    start: u64,
    /// Fingerprint → local type: what a `TYPEDEF` is resolved through.
    fp_to_type: HashMap<u64, TypeId>,
    /// Fingerprint of each local type by `TypeId` (0 while incomplete).
    local_fps: Vec<u64>,
    stats: RestoreStats,
    mode: TranslationMode,
    /// Each restored variable leaves one event, so a post-mortem names
    /// how far restoration got; at detail level every block and
    /// allocation does too.
    track: Track,
    /// Scratch for one scalar's native bytes between decode and copy.
    native: Vec<u8>,
}

impl<'s, 'p> Restorer<'s, 'p> {
    /// Begin restoring from a complete in-memory `payload`, read in place.
    pub fn new(space: &'s mut AddressSpace, msrlt: &'s mut Msrlt, payload: &'p [u8]) -> Self {
        Self::over(space, msrlt, ChunkPayload::new(payload, None))
    }

    /// Begin restoring from `input` where it stands. Decoding pulls any
    /// chunks still to come on demand, so frame *k* restores while frame
    /// *k+1* is in flight.
    ///
    /// The fingerprint→type index is built once from the receiver's TI
    /// table (the receiving executable knows every type the sender can
    /// transmit — they are the same program).
    pub fn over(
        space: &'s mut AddressSpace,
        msrlt: &'s mut Msrlt,
        input: ChunkPayload<'p>,
    ) -> Self {
        let mut fp_to_type = HashMap::new();
        let types = space.types();
        let mut local_fps = vec![0; types.len()];
        for (i, slot) in local_fps.iter_mut().enumerate() {
            let id = TypeId(i as u32);
            if types.is_complete(id) {
                *slot = type_fingerprint(types, id);
                fp_to_type.insert(*slot, id);
            }
        }
        Restorer {
            space,
            msrlt,
            start: input.position(),
            input,
            fp_to_type,
            local_fps,
            stats: RestoreStats::default(),
            mode: TranslationMode::default(),
            track: Track::off(),
            native: Vec::with_capacity(16),
        }
    }

    /// Attach a log track: every `restore_variable` emits a
    /// `var.restored` event carrying the stream position; at detail level
    /// restored blocks emit `restore.block` and heap allocations
    /// `restore.alloc`. On the default inert track each site costs one
    /// branch.
    pub fn with_track(mut self, track: Track) -> Self {
        self.track = track;
        self
    }

    /// Select bulk or per-element scalar translation. The gate is this
    /// side's architecture alone — the wire format is fixed XDR, so a
    /// bulk-encoded payload decodes per element and vice versa.
    pub fn with_translation(mut self, mode: TranslationMode) -> Self {
        self.mode = mode;
        self
    }

    /// The local type a block record announces: resolved by fingerprint
    /// and entered in the image's table at a `TYPEDEF`, read back from
    /// the table otherwise. Allocates nothing on refusal.
    fn announced_type(&mut self, rec: &Record) -> Result<TypeId, CoreError> {
        let undefined = |msrlt: &Msrlt| CoreError::UndefinedType {
            id: rec.id,
            type_no: rec.type_no,
            defined: msrlt.wire_types_defined(),
        };
        let Some(fp) = rec.typedef else {
            return self
                .msrlt
                .wire_type(rec.type_no)
                .ok_or_else(|| undefined(self.msrlt));
        };
        let ty = *self.fp_to_type.get(&fp).ok_or(CoreError::TypeMismatch {
            id: rec.id,
            expected: fp,
            found: 0,
        })?;
        if !self.msrlt.define_wire_type(rec.type_no, ty) {
            return Err(undefined(self.msrlt));
        }
        Ok(ty)
    }

    /// Hold a named block that exists locally (global / re-created stack
    /// local) to what the stream announces for it: the same type, by
    /// fingerprint, and the same element count.
    fn check_local_block(
        &self,
        rec: &Record,
        announced: TypeId,
        local: TypeId,
        local_count: u64,
    ) -> Result<(), CoreError> {
        let fp = |ty: TypeId| self.local_fps.get(ty.0 as usize).copied().unwrap_or(0);
        if local != announced && fp(local) != fp(announced) {
            return Err(CoreError::TypeMismatch {
                id: rec.id,
                expected: fp(announced),
                found: fp(local),
            });
        }
        if local_count != rec.count {
            return Err(CoreError::SequenceMismatch(format!(
                "block {} has {local_count} elements locally but {} in stream",
                rec.id, rec.count
            )));
        }
        Ok(())
    }

    /// `Restore_variable`: restore the next stream item into the live
    /// variable block at `addr` (paper: `Restore_variable(&first)`).
    pub fn restore_variable(&mut self, addr: u64) -> Result<(), CoreError> {
        let r = self.restore_variable_inner(addr);
        match &r {
            Ok(()) => self.track.event(
                "var.restored",
                &[
                    ("consumed", self.consumed()),
                    ("blocks", self.stats.blocks_restored),
                ],
            ),
            Err(e) => self.track.event_note(
                "var.failed",
                &[("consumed", self.consumed())],
                &e.to_string(),
            ),
        }
        r
    }

    fn restore_variable_inner(&mut self, addr: u64) -> Result<(), CoreError> {
        let local = self
            .msrlt
            .resolve(self.space, addr)
            .ok_or(CoreError::UnregisteredPointer(addr))?;
        if local.offset != 0 {
            return Err(CoreError::SequenceMismatch(format!(
                "restore_variable at interior address {addr:#x}"
            )));
        }
        let rec = Record::decode(&mut self.input)?;
        if !matches!(rec.tag, TAG_VAR_VISITED | TAG_VAR_NEW) {
            return Err(CoreError::BadTag(rec.tag));
        }
        if rec.id != local.id {
            return Err(CoreError::SequenceMismatch(format!(
                "stream item is block {} but local block is {}",
                rec.id, local.id
            )));
        }
        if rec.tag == TAG_VAR_VISITED {
            return Ok(());
        }
        let announced = self.announced_type(&rec)?;
        self.check_local_block(&rec, announced, local.ty, local.count)?;
        self.fill_block(local.slot, local.ty, rec.count)
    }

    /// `Restore_pointer`: decode the next pointer item, materializing its
    /// target graph if needed, and return the machine-specific address
    /// (paper: `p = Restore_pointer()`).
    pub fn restore_pointer(&mut self) -> Result<u64, CoreError> {
        let mut stack = Vec::new();
        let ptr = self.decode_pointer(&mut stack)?;
        self.drain(stack)?;
        Ok(ptr)
    }

    /// Consume the restorer, returning its statistics and its input,
    /// positioned after what this session read, without requiring the
    /// payload to be exhausted: per-frame sessions stop mid-stream, and
    /// the next one continues from there.
    pub fn into_input(mut self) -> (RestoreStats, ChunkPayload<'p>) {
        self.stats.bytes_in = self.consumed();
        (self.stats, self.input)
    }

    /// Finish, returning statistics. Errors with
    /// [`CoreError::TrailingBytes`], naming the chunk it starts in, if
    /// unconsumed payload remains (the call sequences diverged).
    pub fn finish(self) -> Result<RestoreStats, CoreError> {
        let (stats, mut input) = self.into_input();
        input.expect_end()?;
        Ok(stats)
    }

    /// Payload bytes this session has read.
    fn consumed(&self) -> u64 {
        self.input.position() - self.start
    }

    // ----- internals -----

    fn fill_block(&mut self, slot: BlockSlot, ty: TypeId, count: u64) -> Result<(), CoreError> {
        let mut stack = Vec::new();
        self.push_fill(&mut stack, slot, ty, count)?;
        self.drain(stack)
    }

    /// Fill a pointer-free block: one write borrow of the block, then
    /// its runs straight through the decode kernel (the mirror of the
    /// collector's `encode_flat_block`).
    fn decode_flat_block(
        &mut self,
        slot: BlockSlot,
        plan: &SavePlan,
        count: u64,
    ) -> Result<(), CoreError> {
        let (arch, bytes) = self.space.slot_bytes_mut(slot)?;
        let room = bytes.len() as u64;
        if plan
            .size
            .checked_mul(count)
            .is_none_or(|total| total > room)
        {
            return Err(CoreError::Mem(format!(
                "block at {:#x} shorter than stream data",
                slot.addr()
            )));
        }
        let input = &mut self.input;
        for_each_run(arch, plan, count, self.mode, |offset, kernel, n| {
            decode_run(arch, bytes, slot, offset, kernel, n, input)
        })?;
        self.stats.scalars_decoded += plan.leaf_count * count;
        Ok(())
    }

    fn drain(&mut self, mut stack: Vec<Cursor>) -> Result<(), CoreError> {
        while let Some(cur) = stack.last_mut() {
            let Some((slot, elem_base, op)) = cur.next_op(self.space)? else {
                stack.pop();
                self.stats.blocks_restored += 1;
                continue;
            };
            match op {
                PlanOp::ScalarRun {
                    offset,
                    kind,
                    count,
                    stride,
                } => {
                    let (arch, bytes) = self.space.slot_bytes_mut(slot)?;
                    let kernel = Kernel::select(arch, kind, stride, self.mode);
                    let at = elem_base + offset;
                    decode_run(arch, bytes, slot, at, kernel, count, &mut self.input)?;
                    self.stats.scalars_decoded += count;
                }
                PlanOp::PointerSlot { offset, .. } => {
                    let ptr = self.decode_pointer(&mut stack)?;
                    self.write_ptr(slot, elem_base + offset, ptr)?;
                }
            }
        }
        Ok(())
    }

    fn write_ptr(&mut self, slot: BlockSlot, offset: u64, ptr: u64) -> Result<(), CoreError> {
        let (arch, bytes) = self.space.slot_bytes_mut(slot)?;
        self.native.clear();
        arch.encode_scalar(CScalar::Ptr, ScalarValue::Ptr(ptr), &mut self.native);
        span_mut(bytes, slot, offset, arch.pointer_size)?.copy_from_slice(&self.native);
        Ok(())
    }

    fn decode_pointer(&mut self, stack: &mut Vec<Cursor>) -> Result<u64, CoreError> {
        let rec = Record::decode(&mut self.input)?;
        let id = rec.id;
        match rec.tag {
            TAG_PTR_NULL => {
                self.stats.ptr_null += 1;
                Ok(0)
            }
            TAG_PTR_REF => {
                self.stats.ptr_ref += 1;
                let entry = self
                    .msrlt
                    .entry_counted(id)
                    .ok_or(CoreError::UnknownId(id))?;
                let b = *self.space.slot_block(entry.slot())?;
                let (addr, ty, count) = (b.addr, b.ty, b.count);
                Ok(leaf_address(self.space, addr, ty, count, rec.ordinal)?)
            }
            TAG_PTR_NEW => {
                self.stats.ptr_new += 1;
                let announced = self.announced_type(&rec)?;
                let count = rec.count;
                let (slot, ty) = match self.msrlt.entry_counted(id) {
                    Some(e) => {
                        // A named block that already exists locally
                        // (global / re-created stack local): validate and
                        // fill in place.
                        let b = *self.space.slot_block(e.slot())?;
                        self.check_local_block(&rec, announced, b.ty, b.count)?;
                        (e.slot(), b.ty)
                    }
                    None => {
                        // Globals and the re-created frames' locals were
                        // registered before restoration began: only a
                        // heap block can be new to this side.
                        if id.group != GROUP_HEAP {
                            return Err(CoreError::UnknownId(id));
                        }
                        // A destination that follows the protocol has
                        // reserved every heap id the image can name. One
                        // that has not grows its table to reach the id —
                        // by no more entries than bytes have arrived, so
                        // a few hostile bytes cannot claim gigabytes of
                        // table (an honest heap `PTR_NEW` is 8 bytes or
                        // more, so one entry per byte is eight times what
                        // an honest stream could name).
                        let heap_len = self.msrlt.heap_len();
                        let received = self.input.received();
                        if u64::from(id.index.saturating_sub(heap_len)) > received {
                            return Err(CoreError::HeapIdOutOfReach {
                                id,
                                heap_len,
                                received,
                            });
                        }
                        // Allocate it now (the MSRLT update of §4.2).
                        let ty = announced;
                        let plan = self.space.plan_ref(ty)?;
                        let (need, size) = (plan.min_wire_bytes.checked_mul(count), plan.size);
                        self.input.check_room(id, count, need)?;
                        let slot = self.space.malloc_slot(ty, count)?;
                        // `malloc` held the product to the heap segment.
                        let size = size * count;
                        self.msrlt.register_at(id, slot, size);
                        self.stats.blocks_allocated += 1;
                        self.track.detail_event("restore.alloc", &[("bytes", size)]);
                        (slot, ty)
                    }
                };
                self.push_fill(stack, slot, ty, count)?;
                let addr = slot.addr();
                Ok(leaf_address(self.space, addr, ty, count, rec.ordinal)?)
            }
            t => Err(CoreError::BadTag(t)),
        }
    }

    fn push_fill(
        &mut self,
        stack: &mut Vec<Cursor>,
        slot: BlockSlot,
        ty: TypeId,
        count: u64,
    ) -> Result<(), CoreError> {
        self.track
            .detail_event("restore.block", &[("count", count)]);
        let plan = self.space.plan_ref(ty)?;
        if !plan.has_pointers {
            // The stream inlines the whole block right here; decode it
            // now so the parent cursor resumes at the right offset.
            let plan = Arc::clone(plan);
            self.decode_flat_block(slot, &plan, count)?;
            self.stats.blocks_restored += 1;
            return Ok(());
        }
        stack.push(Cursor::new(slot, ty, count));
        Ok(())
    }
}

impl Record {
    /// Decode one record, refusing a first word whose tag is unknown or
    /// whose other bits the tag does not take, and the long form of a
    /// heap id the first word could have carried.
    #[inline]
    fn decode(input: &mut ChunkPayload<'_>) -> Result<Record, CoreError> {
        let word0 = input.get_u32()?;
        let tag = word0 >> TAG_SHIFT;
        let allowed = match tag {
            TAG_VAR_NEW => FLAG_TYPEDEF | FLAG_COUNT | GROUP_MAX,
            TAG_PTR_NEW => {
                FLAG_TYPEDEF | FLAG_ORD | FLAG_ORD64 | FLAG_COUNT | FLAG_HEAP | GROUP_MAX
            }
            TAG_PTR_REF => FLAG_ORD | FLAG_ORD64 | FLAG_HEAP | GROUP_MAX,
            TAG_VAR_VISITED => GROUP_MAX,
            TAG_PTR_NULL => 0,
            t => return Err(CoreError::BadTag(t)),
        };
        let rest = word0 & (FLAG_MASK | GROUP_MAX);
        if rest & !allowed != 0 || rest & (FLAG_ORD | FLAG_ORD64) == FLAG_ORD64 {
            return Err(CoreError::BadRecordHeader(word0));
        }
        let low = word0 & GROUP_MAX;
        let (group, index) = if word0 & FLAG_HEAP != 0 {
            (GROUP_HEAP, low)
        } else {
            (low, 0)
        };
        let mut rec = Record::bare(tag, LogicalId { group, index });
        if tag == TAG_PTR_NULL {
            return Ok(rec);
        }
        if word0 & FLAG_HEAP == 0 {
            rec.id.index = input.get_u32()?;
            let pointer = matches!(tag, TAG_PTR_REF | TAG_PTR_NEW);
            if pointer && group == GROUP_HEAP && rec.id.index <= GROUP_MAX {
                return Err(CoreError::LongHeapId(rec.id));
            }
        }
        if Record::announces_block(tag) {
            rec.type_no = input.get_u32()?;
            if word0 & FLAG_TYPEDEF != 0 {
                rec.typedef = Some(input.get_u64()?);
            }
        }
        if word0 & FLAG_ORD64 != 0 {
            rec.ordinal = input.get_u64()?;
        } else if word0 & FLAG_ORD != 0 {
            rec.ordinal = u64::from(input.get_u32()?);
        }
        if word0 & FLAG_COUNT != 0 {
            rec.count = input.get_u64()?;
        }
        Ok(rec)
    }

    /// The record at the front of `bytes` and its encoded size.
    #[cfg(test)]
    pub(crate) fn read(bytes: &[u8]) -> Result<(Record, usize), CoreError> {
        let mut dec = ChunkPayload::new(bytes, None);
        let rec = Record::decode(&mut dec)?;
        Ok((rec, dec.position() as usize))
    }
}

/// Fill `count` scalars, the first at byte `offset` of the block behind
/// `slot`, from the stream through the decode kernel, a
/// [`BULK_SLICE`](crate::kernel::BULK_SLICE) of payload at a time.
fn decode_run(
    arch: &Architecture,
    bytes: &mut [u8],
    slot: BlockSlot,
    offset: u64,
    kernel: Kernel,
    count: u64,
    input: &mut ChunkPayload<'_>,
) -> Result<(), CoreError> {
    let dst = span_mut(bytes, slot, offset, kernel.native_span(count))?;
    let mut done = 0u64;
    while done < count {
        let n = (count - done).min(kernel.slice_scalars());
        let wire = input.take(kernel.wire_len(n) as usize)?;
        let from = (done * kernel.stride()) as usize;
        let slice = &mut dst[from..from + kernel.native_span(n) as usize];
        kernel.decode(arch, wire, slice);
        done += n;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::Collector;
    use hpm_arch::Architecture;
    use hpm_memory::BlockInfo;
    use hpm_types::Field;

    /// Build "the same program image" on a given machine: globals
    /// `int a; int *b; struct node *head;` — returns (space, msrlt,
    /// [a, b, head]).
    fn program(arch: Architecture) -> (AddressSpace, Msrlt, [u64; 3]) {
        let mut space = AddressSpace::new(arch);
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
        let int = space.types_mut().int();
        let pi = space.types_mut().pointer_to(int);
        let a = space.define_global("a", int, 1).unwrap();
        let b = space.define_global("b", pi, 1).unwrap();
        let head = space.define_global("head", pnode, 1).unwrap();
        let mut msrlt = Msrlt::new();
        for info in space.block_infos() {
            msrlt.register(&info);
        }
        (space, msrlt, [a, b, head])
    }

    fn reg(space: &AddressSpace, msrlt: &mut Msrlt, addr: u64) {
        let info: BlockInfo = space.info_at(addr).unwrap();
        msrlt.register(&info);
    }

    #[test]
    fn scalar_and_pointer_roundtrip_heterogeneous() {
        // DEC (little-endian) → SPARC (big-endian).
        let (mut src, mut src_lt, [a, b, _]) = program(Architecture::dec5000());
        src.store_int(a, -1234).unwrap();
        src.store_ptr(b, a).unwrap();
        let mut c = Collector::new(&mut src, &mut src_lt);
        c.save_variable(a).unwrap();
        c.save_variable(b).unwrap();
        let (payload, _) = c.finish().unwrap();

        let (mut dst, mut dst_lt, [da, db, _]) = program(Architecture::sparc20());
        let mut r = Restorer::new(&mut dst, &mut dst_lt, &payload);
        r.restore_variable(da).unwrap();
        r.restore_variable(db).unwrap();
        r.finish().unwrap();
        assert_eq!(dst.load_int(da).unwrap(), -1234);
        assert_eq!(
            dst.load_ptr(db).unwrap(),
            da,
            "pointer retargeted to dest's a"
        );
    }

    #[test]
    fn heap_list_roundtrip() {
        let (mut src, mut src_lt, [_, _, head]) = program(Architecture::dec5000());
        let node = src.types().struct_by_name("node").unwrap();
        // Build head → n1 → n2 → NULL with data 1.5, 2.5.
        let n1 = src.malloc(node, 1).unwrap();
        reg(&src, &mut src_lt, n1);
        let n2 = src.malloc(node, 1).unwrap();
        reg(&src, &mut src_lt, n2);
        let d1 = src.elem_addr(n1, 0).unwrap();
        let l1 = src.elem_addr(n1, 1).unwrap();
        let d2 = src.elem_addr(n2, 0).unwrap();
        src.store_f64(d1, 1.5).unwrap();
        src.store_f64(d2, 2.5).unwrap();
        src.store_ptr(l1, n2).unwrap();
        src.store_ptr(head, n1).unwrap();

        let mut c = Collector::new(&mut src, &mut src_lt);
        c.save_variable(head).unwrap();
        let (payload, cs) = c.finish().unwrap();
        assert_eq!(cs.blocks_saved, 3); // head, n1, n2

        let (mut dst, mut dst_lt, [_, _, dhead]) = program(Architecture::x86_64_sim());
        let mut r = Restorer::new(&mut dst, &mut dst_lt, &payload);
        r.restore_variable(dhead).unwrap();
        let rs = r.finish().unwrap();
        assert_eq!(rs.blocks_allocated, 2, "n1, n2 malloc'd on dest");

        let dn1 = dst.load_ptr(dhead).unwrap();
        assert_ne!(dn1, 0);
        let dd1 = dst.elem_addr(dn1, 0).unwrap();
        let dl1 = dst.elem_addr(dn1, 1).unwrap();
        assert_eq!(dst.load_f64(dd1).unwrap(), 1.5);
        let dn2 = dst.load_ptr(dl1).unwrap();
        let dd2 = dst.elem_addr(dn2, 0).unwrap();
        let dl2 = dst.elem_addr(dn2, 1).unwrap();
        assert_eq!(dst.load_f64(dd2).unwrap(), 2.5);
        assert_eq!(dst.load_ptr(dl2).unwrap(), 0, "list terminator survives");
    }

    #[test]
    fn shared_target_restores_shared() {
        // b and head_as_int_ptr both point at a: sharing must survive.
        let (mut src, mut src_lt, [a, b, _]) = program(Architecture::sparc20());
        let int = src.types_mut().int();
        let pi = src.types_mut().pointer_to(int);
        let c2 = src.define_global("c2", pi, 1).unwrap();
        reg(&src, &mut src_lt, c2);
        src.store_int(a, 7).unwrap();
        src.store_ptr(b, a).unwrap();
        src.store_ptr(c2, a).unwrap();
        let mut c = Collector::new(&mut src, &mut src_lt);
        c.save_variable(b).unwrap();
        c.save_variable(c2).unwrap();
        let (payload, _) = c.finish().unwrap();

        let (mut dst, mut dst_lt, [da, db, _]) = program(Architecture::dec5000());
        let int = dst.types_mut().int();
        let pi = dst.types_mut().pointer_to(int);
        let dc2 = dst.define_global("c2", pi, 1).unwrap();
        reg(&dst, &mut dst_lt, dc2);
        let mut r = Restorer::new(&mut dst, &mut dst_lt, &payload);
        r.restore_variable(db).unwrap();
        r.restore_variable(dc2).unwrap();
        r.finish().unwrap();
        let p1 = dst.load_ptr(db).unwrap();
        let p2 = dst.load_ptr(dc2).unwrap();
        assert_eq!(p1, p2, "aliasing preserved");
        assert_eq!(p1, da);
        assert_eq!(dst.load_int(da).unwrap(), 7);
    }

    #[test]
    fn cycle_roundtrip() {
        let (mut src, mut src_lt, [_, _, head]) = program(Architecture::dec5000());
        let node = src.types().struct_by_name("node").unwrap();
        let n1 = src.malloc(node, 1).unwrap();
        reg(&src, &mut src_lt, n1);
        let l1 = src.elem_addr(n1, 1).unwrap();
        src.store_ptr(l1, n1).unwrap(); // self-loop
        src.store_ptr(head, n1).unwrap();
        let mut c = Collector::new(&mut src, &mut src_lt);
        c.save_variable(head).unwrap();
        let (payload, _) = c.finish().unwrap();

        let (mut dst, mut dst_lt, [_, _, dhead]) = program(Architecture::sparc20());
        let mut r = Restorer::new(&mut dst, &mut dst_lt, &payload);
        r.restore_variable(dhead).unwrap();
        r.finish().unwrap();
        let dn1 = dst.load_ptr(dhead).unwrap();
        let dl1 = dst.elem_addr(dn1, 1).unwrap();
        assert_eq!(dst.load_ptr(dl1).unwrap(), dn1, "self-loop preserved");
    }

    #[test]
    fn interior_pointer_roundtrip_across_pointer_widths() {
        // p points at arr[7]; migrate ILP32 → LP64 where the element's
        // byte offset differs but the leaf ordinal is identical.
        let (mut src, mut src_lt, _) = program(Architecture::sparc20());
        let int = src.types_mut().int();
        let pi = src.types_mut().pointer_to(int);
        let arr = src.define_global("arr", int, 10).unwrap();
        let p = src.define_global("p", pi, 1).unwrap();
        reg(&src, &mut src_lt, arr);
        reg(&src, &mut src_lt, p);
        for i in 0..10 {
            let e = src.elem_addr(arr, i).unwrap();
            src.store_int(e, (i * i) as i64).unwrap();
        }
        let t = src.elem_addr(arr, 7).unwrap();
        src.store_ptr(p, t).unwrap();
        let mut c = Collector::new(&mut src, &mut src_lt);
        c.save_variable(p).unwrap();
        c.save_variable(arr).unwrap();
        let (payload, _) = c.finish().unwrap();

        let (mut dst, mut dst_lt, _) = program(Architecture::x86_64_sim());
        let int = dst.types_mut().int();
        let pi = dst.types_mut().pointer_to(int);
        let darr = dst.define_global("arr", int, 10).unwrap();
        let dp = dst.define_global("p", pi, 1).unwrap();
        reg(&dst, &mut dst_lt, darr);
        reg(&dst, &mut dst_lt, dp);
        let mut r = Restorer::new(&mut dst, &mut dst_lt, &payload);
        r.restore_variable(dp).unwrap();
        r.restore_variable(darr).unwrap();
        r.finish().unwrap();
        let got = dst.load_ptr(dp).unwrap();
        assert_eq!(got, dst.elem_addr(darr, 7).unwrap());
        assert_eq!(dst.load_int(got).unwrap(), 49);
    }

    #[test]
    fn type_mismatch_detected() {
        let (mut src, mut src_lt, [a, _, _]) = program(Architecture::dec5000());
        src.store_int(a, 1).unwrap();
        let mut c = Collector::new(&mut src, &mut src_lt);
        c.save_variable(a).unwrap();
        let (payload, _) = c.finish().unwrap();

        // Destination program declares `a` as double — different layout.
        let mut dst = AddressSpace::new(Architecture::sparc20());
        let d = dst.types_mut().double();
        let da = dst.define_global("a", d, 1).unwrap();
        let mut dst_lt = Msrlt::new();
        for info in dst.block_infos() {
            dst_lt.register(&info);
        }
        // The receiver knows `int`, so the TYPEDEF resolves — and the
        // named block's own type is still held against it.
        let int = dst.types_mut().int();
        let (int_fp, double_fp) = (
            type_fingerprint(dst.types(), int),
            type_fingerprint(dst.types(), d),
        );
        let mut r = Restorer::new(&mut dst, &mut dst_lt, &payload);
        assert_eq!(
            r.restore_variable(da),
            Err(CoreError::TypeMismatch {
                id: LogicalId { group: 0, index: 0 },
                expected: int_fp,
                found: double_fp,
            })
        );
    }

    #[test]
    fn trailing_garbage_detected() {
        let (mut src, mut src_lt, [a, _, _]) = program(Architecture::dec5000());
        let mut c = Collector::new(&mut src, &mut src_lt);
        c.save_variable(a).unwrap();
        let (mut payload, _) = c.finish().unwrap();
        payload.extend_from_slice(&[0, 0, 0, 0]);

        let (mut dst, mut dst_lt, [da, _, _]) = program(Architecture::sparc20());
        let mut r = Restorer::new(&mut dst, &mut dst_lt, &payload);
        r.restore_variable(da).unwrap();
        assert!(matches!(
            r.finish(),
            Err(CoreError::TrailingBytes { bytes: 4, chunk: 0 })
        ));
    }

    #[test]
    fn restore_pointer_returns_translated_address() {
        let (mut src, mut src_lt, [a, _, _]) = program(Architecture::dec5000());
        src.store_int(a, 99).unwrap();
        let mut c = Collector::new(&mut src, &mut src_lt);
        c.save_pointer(a).unwrap(); // a pointer rvalue to global `a`
        let (payload, _) = c.finish().unwrap();

        let (mut dst, mut dst_lt, [da, _, _]) = program(Architecture::sparc20());
        let mut r = Restorer::new(&mut dst, &mut dst_lt, &payload);
        let p = r.restore_pointer().unwrap();
        r.finish().unwrap();
        assert_eq!(p, da);
        assert_eq!(dst.load_int(p).unwrap(), 99);
    }

    #[test]
    fn null_restore_pointer() {
        let (mut src, mut src_lt, _) = program(Architecture::dec5000());
        let mut c = Collector::new(&mut src, &mut src_lt);
        c.save_pointer(0).unwrap();
        let (payload, _) = c.finish().unwrap();
        let (mut dst, mut dst_lt, _) = program(Architecture::sparc20());
        let mut r = Restorer::new(&mut dst, &mut dst_lt, &payload);
        assert_eq!(r.restore_pointer().unwrap(), 0);
        r.finish().unwrap();
    }
}
