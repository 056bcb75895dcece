//! Pointer translation between machine addresses and the logical
//! `(block, leaf ordinal)` form, and checked access to a block's bytes
//! by offset.
//!
//! §3.2: a machine-independent pointer is a *(pointer header, offset)*
//! pair whose offset is "the ordering number of the data elements inside
//! the memory block". The collector, the digest pass and the graph
//! snapshot all turn an MSRLT hit into that ordinal, and the restorer
//! turns it back into an address; both directions are the leaf queries of
//! the block's compiled [`SavePlan`](hpm_types::plan::SavePlan), with no
//! further address resolution.

use crate::msrlt::{LogicalId, Msrlt};
use crate::CoreError;
use hpm_arch::{Architecture, CScalar};
use hpm_memory::{AddressSpace, BlockSlot, MemError};
use hpm_types::plan::{PlanOp, SavePlan};
use hpm_types::TypeId;
use std::sync::Arc;

/// Where the collector's or restorer's DFS stands inside one block: the
/// block's handle (from the search that found the block, or its MSRLT
/// record, so no address is resolved again) and the next plan op.
///
/// The DFS stack holds one of these per block on the current path, and a
/// linked list is one path as long as the list, so the size is part of a
/// migration's peak memory: the plan is named by type, and the drain that
/// enters or resumes the block fetches it from its [`PlanTable`] once per
/// visit, which keeps a cursor at 40 bytes.
pub(crate) struct Cursor {
    pub(crate) slot: BlockSlot,
    /// Byte offset of the current element within the block.
    pub(crate) elem_base: u64,
    pub(crate) elems_left: u64,
    pub(crate) ty: TypeId,
    pub(crate) op_idx: u32,
}

impl Cursor {
    /// Cursor at the first op of the block behind `slot`, of `count`
    /// elements of `ty`.
    pub(crate) fn new(slot: BlockSlot, ty: TypeId, count: u64) -> Self {
        Cursor {
            slot,
            elem_base: 0,
            elems_left: count,
            ty,
            op_idx: 0,
        }
    }

    /// Step to the cursor's next element, at its first op.
    pub(crate) fn next_elem(&mut self, plan: &SavePlan) {
        self.elem_base += plan.size;
        self.elems_left -= 1;
        self.op_idx = 0;
    }

    /// Byte offsets in the block of the pointer slots the cursor reads
    /// next, at most [`PREFETCH_SLOTS`]: the rest of its element's, or,
    /// when its element has none left, the next element's. What a
    /// prefetch stage loads ahead; `plan` is the cursor's.
    pub(crate) fn next_pointer_slots<'p>(
        &self,
        plan: &'p SavePlan,
    ) -> impl Iterator<Item = u64> + 'p {
        let (mut base, mut from) = (self.elem_base, self.op_idx as usize);
        if from >= plan.ops.len() && self.elems_left > 1 {
            (base, from) = (base + plan.size, 0);
        }
        let ops = plan.ops.get(from..).unwrap_or_default();
        let slots = ops.iter().filter_map(move |op| match *op {
            PlanOp::PointerSlot { offset, .. } => Some(base + offset),
            PlanOp::ScalarRun { .. } => None,
        });
        slots.take(PREFETCH_SLOTS)
    }
}

/// The most pointer slots of one cursor a prefetch stage loads: a node
/// type's links, and a bound on the stage's work when a pop leaves the
/// same cursor that far down again.
const PREFETCH_SLOTS: usize = 4;

/// The plans one collection or restoration session has walked, indexed
/// by `TypeId`. A drain holds a block's plan from here for a whole visit
/// while it changes the address space; each plan is taken from the space
/// once per session, so the walk pays no reference-count traffic per
/// block or pointer.
#[derive(Default)]
pub(crate) struct PlanTable(Vec<Option<Arc<SavePlan>>>);

impl PlanTable {
    /// The plan of `ty`, compiled by the space on the session's first
    /// visit to a block of the type.
    pub(crate) fn get(
        &mut self,
        space: &mut AddressSpace,
        ty: TypeId,
    ) -> Result<&SavePlan, MemError> {
        let i = ty.0 as usize;
        if i >= self.0.len() {
            self.0.resize(i + 1, None);
        }
        if self.0[i].is_none() {
            self.0[i] = Some(Arc::clone(space.plan_ref(ty)?));
        }
        Ok(self.0[i].as_deref().expect("plan fetched above"))
    }

    /// The plan of `ty` if the session has fetched it: every cursor's,
    /// since a cursor is entered with its plan in hand.
    pub(crate) fn fetched(&self, ty: TypeId) -> Option<&SavePlan> {
        self.0.get(ty.0 as usize)?.as_deref()
    }
}

/// Ordinal of the leaf a pointer addresses inside its target block, given
/// that the MSRLT resolved `ptr` to byte `byte_off` of a block of `count`
/// elements of `ty`.
#[inline]
pub(crate) fn leaf_ordinal(
    space: &mut AddressSpace,
    ty: TypeId,
    count: u64,
    byte_off: u64,
    ptr: u64,
) -> Result<u64, MemError> {
    match space.plan_ref(ty)?.leaf_at_offset(count, byte_off) {
        Ok((ordinal, _)) => Ok(ordinal),
        Err(miss) => Err(MemError::missed(miss, ptr)),
    }
}

/// Address of leaf `leaf_idx` of the block of `count` elements of `ty`
/// that starts at `base` — the inverse of [`leaf_ordinal`].
#[inline]
pub(crate) fn leaf_address(
    space: &mut AddressSpace,
    base: u64,
    ty: TypeId,
    count: u64,
    leaf_idx: u64,
) -> Result<u64, MemError> {
    match space.plan_ref(ty)?.leaf_at_index(count, 0, leaf_idx) {
        Ok(leaf) => Ok(base + leaf.offset),
        Err(miss) => Err(MemError::missed(miss, base)),
    }
}

/// One MSRLT search plus [`leaf_ordinal`]: the logical form of a non-NULL
/// pointer, for callers that do not trace the search themselves.
pub(crate) fn logical_pointer(
    space: &mut AddressSpace,
    msrlt: &mut Msrlt,
    ptr: u64,
) -> Result<(LogicalId, u64), CoreError> {
    let hit = msrlt
        .resolve(space, ptr)
        .ok_or(CoreError::UnregisteredPointer(ptr))?;
    let leaf = leaf_ordinal(space, hit.ty, hit.count, hit.offset, ptr)?;
    Ok((hit.id, leaf))
}

/// The address error `AddressSpace::read_bytes` reports for an access
/// that runs past the end of its block.
fn past_end(slot: BlockSlot, at: u64, len: u64) -> MemError {
    MemError::BadAddress(
        slot.addr()
            .saturating_add(at)
            .saturating_add(len)
            .saturating_sub(1),
    )
}

/// `len` bytes at offset `at` of the block behind `slot`.
pub(crate) fn span(bytes: &[u8], slot: BlockSlot, at: u64, len: u64) -> Result<&[u8], MemError> {
    at.checked_add(len)
        .and_then(|end| bytes.get(at as usize..end as usize))
        .ok_or_else(|| past_end(slot, at, len))
}

/// Mutable [`span`].
pub(crate) fn span_mut(
    bytes: &mut [u8],
    slot: BlockSlot,
    at: u64,
    len: u64,
) -> Result<&mut [u8], MemError> {
    at.checked_add(len)
        .and_then(|end| bytes.get_mut(at as usize..end as usize))
        .ok_or_else(|| past_end(slot, at, len))
}

/// Decode the pointer stored at offset `at` of the block behind `slot`.
pub(crate) fn read_ptr(
    arch: &Architecture,
    bytes: &[u8],
    slot: BlockSlot,
    at: u64,
) -> Result<u64, MemError> {
    let raw = span(bytes, slot, at, arch.pointer_size)?;
    Ok(arch.decode_scalar(CScalar::Ptr, raw).as_ptr())
}

#[cfg(test)]
mod tests {
    use super::{leaf_address, leaf_ordinal, Cursor};
    use crate::collect::{Collector, Record, TAG_PTR_NEW};
    use crate::fingerprint::type_fingerprint;
    use crate::msrlt::{LogicalId, Msrlt, MsrltEntry, SlotRecord};
    use crate::restore::Restorer;
    use crate::CoreError;
    use hpm_arch::Architecture;
    use hpm_memory::{AddressSpace, MemError};
    use hpm_types::elements::for_each_leaf;
    use hpm_types::layout::LayoutEngine;
    use hpm_types::{Field, TypeId};
    use hpm_xdr::XdrEncoder;

    fn register(space: &AddressSpace, msrlt: &mut Msrlt, addr: u64) -> LogicalId {
        msrlt.register(&space.info_at(addr).expect("block exists"))
    }

    /// `struct cell { int v; struct cell *next; }`.
    fn cell_type(space: &mut AddressSpace) -> TypeId {
        let cell = space.types_mut().declare_struct("cell");
        let next = space.types_mut().pointer_to(cell);
        let int = space.types_mut().int();
        let fields = vec![Field::new("v", int), Field::new("next", next)];
        space.types_mut().define_struct(cell, fields).unwrap();
        cell
    }

    #[test]
    fn cursor_is_no_larger_than_five_words() {
        // pointer_graph's 60 000-node spine is one DFS path: at 56 bytes
        // a cursor its peak RSS read 4–11 MB (5–16 %) above the 40-byte
        // one's.
        assert!(std::mem::size_of::<Cursor>() <= 40);
    }

    #[test]
    fn each_translation_reports_a_miss_at_its_own_address() {
        let (ptr, base) = (0x4000_1004, 0x4000_1000);
        let mut space = AddressSpace::new(Architecture::sparc20());
        let t = space.types_mut();
        let (c, int) = (t.char_(), t.int());
        let ci = t
            .struct_type("ci", vec![Field::new("c", c), Field::new("i", int)])
            .unwrap();
        let empty = t.array_of(int, 0);
        let not_a_leaf = Err(MemError::NotALeaf(ptr));
        assert_eq!(leaf_ordinal(&mut space, ci, 2, 10, ptr), not_a_leaf);
        assert_eq!(leaf_ordinal(&mut space, empty, 1, 0, ptr), not_a_leaf);
        let outside = Err(MemError::BadAddress(ptr));
        assert_eq!(leaf_ordinal(&mut space, ci, 2, 16, ptr), outside);
        assert_eq!(leaf_ordinal(&mut space, ci, 0, 0, ptr), outside);
        assert_eq!(leaf_ordinal(&mut space, ci, 2, 12, ptr), Ok(3));
        assert_eq!(
            leaf_address(&mut space, base, empty, 1, 0),
            Err(MemError::NotALeaf(base))
        );
        let outside = Err(MemError::BadAddress(base));
        assert_eq!(leaf_address(&mut space, base, ci, 2, 4), outside);
        assert_eq!(leaf_address(&mut space, base, ci, 0, 0), outside);
        assert_eq!(leaf_address(&mut space, base, ci, 2, 3), Ok(base + 12));
    }

    #[test]
    fn msrlt_records_are_no_larger_than_three_words() {
        // The per-slot record is fetched from a random place in the
        // table once per pointer the collector resolves, and the per-id
        // one once per pointer the restorer translates: their sizes are
        // paid in cache misses.
        assert!(std::mem::size_of::<Option<SlotRecord>>() <= 12);
        assert!(std::mem::size_of::<Option<MsrltEntry>>() <= 24);
    }

    #[test]
    fn a_handle_whose_slot_holds_another_block_reaches_nothing() {
        // Slot 1 of each space holds a live block, at different addresses.
        let mut a = AddressSpace::new(Architecture::dec5000());
        let mut b = AddressSpace::new(Architecture::dec5000());
        let (ai, bi) = (a.types_mut().int(), b.types_mut().int());
        a.malloc(ai, 2).unwrap();
        b.malloc(bi, 4).unwrap();
        let theirs = a.malloc_slot(ai, 4).unwrap();
        let mine = b.malloc_slot(bi, 4).unwrap();
        assert_ne!(theirs.addr(), mine.addr());
        let bad = MemError::BadAddress(theirs.addr());
        assert_eq!(b.slot_bytes(theirs), Err(bad.clone()));
        assert_eq!(b.slot_bytes_mut(theirs).err(), Some(bad));
        assert_eq!(b.slot_bytes(mine).unwrap().len(), 16);
    }

    #[test]
    fn a_freed_blocks_handle_stays_dead_after_its_address_is_reused() {
        let mut space = AddressSpace::new(Architecture::sparc20());
        let mut msrlt = Msrlt::new();
        let int = space.types_mut().int();
        let old = space.malloc_slot(int, 4).unwrap();
        let old_id = register(&space, &mut msrlt, old.addr());
        // Freed behind the table's back, and the address handed out again.
        space.free(old.addr()).unwrap();
        let new = space.malloc_slot(int, 4).unwrap();
        assert_eq!(new.addr(), old.addr());
        space.store_int(new.addr(), 7).unwrap();
        let bad = MemError::BadAddress(old.addr());
        assert_eq!(space.slot_bytes(old), Err(bad.clone()));
        assert_eq!(space.slot_bytes_mut(old).err(), Some(bad.clone()));
        // The table's record still names the dead block. Collecting at its
        // address finds the new block, which no id names: refused, never a
        // save of the new block's bytes under the old id. The digest pass,
        // which walks the records, is refused at the dead handle.
        let got = Collector::new(&mut space, &mut msrlt).save_variable(old.addr());
        assert_eq!(got, Err(CoreError::UnregisteredPointer(old.addr())));
        assert_eq!(
            crate::delta::block_digests(&mut space, &mut msrlt).err(),
            Some(CoreError::from(bad))
        );
        assert_eq!(space.slot_bytes(new).unwrap()[..4], [0, 0, 0, 7]);
        // Registered, the new block is saved under its own id.
        let new_id = register(&space, &mut msrlt, new.addr());
        assert_ne!(new_id, old_id);
        let mut c = Collector::new(&mut space, &mut msrlt);
        c.save_variable(new.addr()).unwrap();
        let (bytes, _) = c.finish().unwrap();
        assert_eq!(Record::read(&bytes).unwrap().0.id, new_id);
    }

    /// The ordinal the collector writes for `p`'s pointee, from the
    /// payload of a session that saves only `p`: the `VAR_NEW` record
    /// for `p`, then the `PTR_NEW` its contents open with.
    fn emitted_ordinal(space: &mut AddressSpace, msrlt: &mut Msrlt, p: u64) -> u64 {
        let mut c = Collector::new(space, msrlt);
        c.save_variable(p).unwrap();
        let (bytes, _) = c.finish().unwrap();
        let (_, at) = Record::read(&bytes).unwrap();
        let (ptr, _) = Record::read(&bytes[at..]).unwrap();
        assert_eq!(ptr.tag, TAG_PTR_NEW);
        ptr.ordinal
    }

    /// Address of leaf `ordinal` of the block of `ty` at `block`, from a
    /// scan of one value's leaves: leaf `ordinal % n` of value
    /// `ordinal / n`.
    fn scanned_leaf_addr(space: &AddressSpace, block: u64, ty: TypeId, ordinal: u64) -> u64 {
        let (types, arch) = (space.types(), space.arch());
        let mut engine = LayoutEngine::new();
        let size = engine.layout(types, arch, ty).unwrap().size;
        let mut leaves = Vec::new();
        for_each_leaf(&mut engine, types, arch, ty, &mut |l| leaves.push(l.offset)).unwrap();
        let n = leaves.len() as u64;
        block + ordinal / n * size + leaves[(ordinal % n) as usize]
    }

    #[test]
    fn emitted_ordinals_match_a_scan_for_interior_pointers() {
        for arch in Architecture::presets() {
            let mut space = AddressSpace::new(arch);
            let mut msrlt = Msrlt::new();
            let (c, int, d) = {
                let t = space.types_mut();
                (t.char_(), t.int(), t.double())
            };
            // struct rec { char tag; double w[3]; int k; } — padded, so
            // member offsets differ across the presets.
            let w = space.types_mut().array_of(d, 3);
            let fields = vec![
                Field::new("tag", c),
                Field::new("w", w),
                Field::new("k", int),
            ];
            let rec = space.types_mut().struct_type("rec", fields).unwrap();
            let ints = space.malloc(int, 1024).unwrap();
            let recs = space.malloc(rec, 40).unwrap();
            let pi = space.types_mut().pointer_to(int);
            let p = space.define_global("p", pi, 1).unwrap();
            for addr in [ints, recs, p] {
                register(&space, &mut msrlt, addr);
            }
            let mut seed = 0x5EED_u64;
            for round in 0..200u64 {
                seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let pick = seed >> 33;
                let (block, ty, leaves) = if round % 2 == 0 {
                    (ints, int, 1024)
                } else {
                    (recs, rec, 40 * 5)
                };
                let ordinal = pick % leaves;
                let target = scanned_leaf_addr(&space, block, ty, ordinal);
                assert_eq!(space.elem_addr(block, ordinal), Ok(target));
                assert_eq!(space.leaf_at_addr(target).unwrap().0, ordinal);
                space.store_ptr(p, target).unwrap();
                assert_eq!(
                    emitted_ordinal(&mut space, &mut msrlt, p),
                    ordinal,
                    "{}: pointer {target:#x}",
                    space.arch().name
                );
            }
            // Padding and mid-scalar targets fail exactly as
            // `leaf_at_addr` does.
            for bad in [recs + 1, ints + 2] {
                space.store_ptr(p, bad).unwrap();
                let want = space.leaf_at_addr(bad).unwrap_err();
                assert_eq!(want, MemError::NotALeaf(bad));
                let got = Collector::new(&mut space, &mut msrlt).save_variable(p);
                assert_eq!(got, Err(CoreError::from(want)));
            }
        }
    }

    #[test]
    fn pointer_to_zero_size_block_is_a_typed_error() {
        let mut space = AddressSpace::new(Architecture::x86_64_sim());
        let mut msrlt = Msrlt::new();
        let int = space.types_mut().int();
        let empty = space.types_mut().array_of(int, 0);
        let blk = space.malloc(empty, 1).unwrap();
        let pe = space.types_mut().pointer_to(empty);
        let p = space.define_global("p", pe, 1).unwrap();
        space.store_ptr(p, blk).unwrap();
        register(&space, &mut msrlt, blk);
        register(&space, &mut msrlt, p);
        let not_a_leaf = CoreError::from(MemError::NotALeaf(blk));
        let got = Collector::new(&mut space, &mut msrlt).save_variable(p);
        assert_eq!(got, Err(not_a_leaf.clone()));
        assert_eq!(
            crate::delta::block_digests(&mut space, &mut msrlt).err(),
            Some(not_a_leaf)
        );

        // A hostile stream that inlines such a block: the restorer
        // allocates it and then must refuse the ordinal.
        let mut enc = XdrEncoder::new();
        let mut rec = Record::bare(TAG_PTR_NEW, LogicalId { group: 1, index: 7 });
        rec.typedef = Some(type_fingerprint(space.types(), empty));
        rec.encode(&mut enc).unwrap();
        let payload = enc.into_bytes();
        let mut dst = AddressSpace::new(Architecture::sparc20());
        let dint = dst.types_mut().int();
        dst.types_mut().array_of(dint, 0);
        let mut dst_lt = Msrlt::new();
        let err = Restorer::new(&mut dst, &mut dst_lt, &payload)
            .restore_pointer()
            .unwrap_err();
        assert!(
            matches!(&err, CoreError::Mem(m) if m.contains("not a scalar boundary")),
            "{err}"
        );
    }

    #[test]
    fn a_registration_cannot_overstate_its_block() {
        // The registration claims two cells where the block holds one.
        // Type and count are the space's record, not the table's, so the
        // collector and the digest pass walk the one cell there is.
        let mut space = AddressSpace::new(Architecture::dec5000());
        let mut msrlt = Msrlt::new();
        let cell = cell_type(&mut space);
        let n = space.malloc(cell, 1).unwrap();
        let mut info = space.info_at(n).unwrap();
        info.count = 2;
        info.size *= 2;
        msrlt.register(&info);
        let mut c = Collector::new(&mut space, &mut msrlt);
        c.save_pointer(n).unwrap();
        let (payload, stats) = c.finish().unwrap();
        assert_eq!((stats.blocks_saved, stats.scalars_encoded), (1, 1));
        assert_eq!(Record::read(&payload).unwrap().0.count, 1);
        assert_eq!(
            crate::delta::block_digests(&mut space, &mut msrlt)
                .unwrap()
                .len(),
            1
        );

        // Restore side: an honest two-cell image into a destination whose
        // registry overstates its one-cell global the same way: the
        // local block's one cell refuses the stream's two.
        let mut src = AddressSpace::new(Architecture::dec5000());
        let mut src_lt = Msrlt::new();
        let scell = cell_type(&mut src);
        let g = src.define_global("g", scell, 2).unwrap();
        register(&src, &mut src_lt, g);
        let mut c = Collector::new(&mut src, &mut src_lt);
        c.save_variable(g).unwrap();
        let (payload, _) = c.finish().unwrap();

        let mut dst = AddressSpace::new(Architecture::x86_64_sim());
        let mut dst_lt = Msrlt::new();
        let dcell = cell_type(&mut dst);
        let dg = dst.define_global("g", dcell, 1).unwrap();
        let mut info = dst.info_at(dg).unwrap();
        info.count = 2;
        info.size *= 2;
        dst_lt.register(&info);
        let err = Restorer::new(&mut dst, &mut dst_lt, &payload)
            .restore_variable(dg)
            .unwrap_err();
        assert!(
            matches!(&err, CoreError::SequenceMismatch(m) if m.contains("1 elements locally but 2")),
            "{err}"
        );
    }
}
