//! Pointer translation between machine addresses and the logical
//! `(block, leaf ordinal)` form, and checked access to a block's bytes
//! by offset.
//!
//! §3.2: a machine-independent pointer is a *(pointer header, offset)*
//! pair whose offset is "the ordering number of the data elements inside
//! the memory block". The collector, the digest pass and the graph
//! snapshot all turn an MSRLT hit into that ordinal, and the restorer
//! turns it back into an address; both directions are plain arithmetic
//! on the block's compiled [`SavePlan`](hpm_types::plan::SavePlan), with
//! no further address resolution.

use crate::msrlt::{LogicalId, Msrlt};
use crate::CoreError;
use hpm_arch::{Architecture, CScalar};
use hpm_memory::{AddressSpace, BlockSlot, MemError};
use hpm_types::plan::PlanOp;
use hpm_types::TypeId;

/// Where the collector's or restorer's DFS stands inside one block: the
/// block's handle (from its MSRLT record, so no address is resolved) and
/// the next plan op.
///
/// The DFS stack holds one of these per block on the current path, and a
/// linked list is one path as long as the list, so the size is part of a
/// migration's peak memory: the plan is named by type and fetched per op
/// rather than held as an `Arc`, which keeps a cursor at 40 bytes.
pub(crate) struct Cursor {
    slot: BlockSlot,
    /// Byte offset of the current element within the block.
    elem_base: u64,
    elems_left: u64,
    ty: TypeId,
    op_idx: u32,
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

    /// Step to the next op: the block's handle, the byte offset of the
    /// element the op applies to, and the op. `None` once every element
    /// is done.
    pub(crate) fn next_op(
        &mut self,
        space: &mut AddressSpace,
    ) -> Result<Option<(BlockSlot, u64, PlanOp)>, MemError> {
        while self.elems_left > 0 {
            let plan = space.plan_ref(self.ty)?;
            if let Some(&op) = plan.ops.get(self.op_idx as usize) {
                self.op_idx += 1;
                return Ok(Some((self.slot, self.elem_base, op)));
            }
            self.elem_base += plan.size;
            self.elems_left -= 1;
            self.op_idx = 0;
        }
        Ok(None)
    }
}

/// Ordinal of the leaf a pointer addresses inside its target block, given
/// that the MSRLT resolved `ptr` to byte `byte_off` of a block of `count`
/// elements of `ty`.
pub(crate) fn leaf_ordinal(
    space: &mut AddressSpace,
    ty: TypeId,
    count: u64,
    byte_off: u64,
    ptr: u64,
) -> Result<u64, MemError> {
    let plan = space.plan_ref(ty)?;
    if plan.size == 0 {
        return Err(MemError::NotALeaf(ptr));
    }
    let elem_idx = byte_off / plan.size;
    if elem_idx >= count {
        return Err(MemError::BadAddress(ptr));
    }
    let (inner, ..) = plan
        .leaf_at_offset(byte_off % plan.size)
        .ok_or(MemError::NotALeaf(ptr))?;
    Ok(elem_idx * plan.leaf_count + inner)
}

/// Address of leaf `leaf_idx` of the block of `count` elements of `ty`
/// that starts at `base` — the inverse of [`leaf_ordinal`].
pub(crate) fn leaf_address(
    space: &mut AddressSpace,
    base: u64,
    ty: TypeId,
    count: u64,
    leaf_idx: u64,
) -> Result<u64, MemError> {
    let plan = space.plan_ref(ty)?;
    if plan.leaf_count == 0 {
        return Err(MemError::NotALeaf(base));
    }
    let elem_idx = leaf_idx / plan.leaf_count;
    if elem_idx >= count {
        return Err(MemError::BadAddress(base));
    }
    let (offset, ..) = plan
        .leaf_at_index(leaf_idx % plan.leaf_count)
        .expect("ordinal reduced modulo leaf_count");
    Ok(base + elem_idx * plan.size + offset)
}

/// One MSRLT search plus [`leaf_ordinal`]: the logical form of a non-NULL
/// pointer, for callers that do not trace the search themselves.
pub(crate) fn logical_pointer(
    space: &mut AddressSpace,
    msrlt: &mut Msrlt,
    ptr: u64,
) -> Result<(LogicalId, u64), CoreError> {
    let (id, entry, byte_off) = msrlt
        .resolve(ptr)
        .ok_or(CoreError::UnregisteredPointer(ptr))?;
    let leaf = leaf_ordinal(space, entry.ty, entry.count, byte_off, ptr)?;
    Ok((id, leaf))
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
    use super::Cursor;
    use crate::collect::{Collector, Record, TAG_PTR_NEW};
    use crate::fingerprint::type_fingerprint;
    use crate::msrlt::{LogicalId, Msrlt, MsrltEntry};
    use crate::restore::Restorer;
    use crate::CoreError;
    use hpm_arch::Architecture;
    use hpm_memory::{AddressSpace, MemError};
    use hpm_types::{Field, TypeId};
    use hpm_xdr::XdrEncoder;

    fn register(space: &AddressSpace, msrlt: &mut Msrlt, addr: u64) {
        msrlt.register(&space.info_at(addr).expect("block exists"));
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
    fn msrlt_record_is_no_larger_than_five_words() {
        // One per id on both ends, and fetched from a random place in
        // the table once per pointer: its size is paid in cache misses.
        assert!(std::mem::size_of::<Option<MsrltEntry>>() <= 40);
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
        register(&space, &mut msrlt, old.addr());
        // Freed behind the table's back, and the address handed out again.
        space.free(old.addr()).unwrap();
        let new = space.malloc_slot(int, 4).unwrap();
        assert_eq!(new.addr(), old.addr());
        space.store_int(new.addr(), 7).unwrap();
        let bad = MemError::BadAddress(old.addr());
        assert_eq!(space.slot_bytes(old), Err(bad.clone()));
        assert_eq!(space.slot_bytes_mut(old).err(), Some(bad.clone()));
        // The table's record still names the dead block: collecting it is
        // refused, never a save of the new block's bytes.
        let got = Collector::new(&mut space, &mut msrlt).save_variable(old.addr());
        assert_eq!(got, Err(CoreError::from(bad)));
        assert_eq!(space.slot_bytes(new).unwrap()[..4], [0, 0, 0, 7]);
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

    #[test]
    fn emitted_ordinals_match_leaf_at_addr_for_interior_pointers() {
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
                let (block, leaves) = if round % 2 == 0 {
                    (ints, 1024)
                } else {
                    (recs, 40 * 5)
                };
                let ordinal = pick % leaves;
                let target = space.elem_addr(block, ordinal).unwrap();
                space.store_ptr(p, target).unwrap();
                assert_eq!(space.leaf_at_addr(target).unwrap().0, ordinal);
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
    fn ops_past_the_block_end_are_errors_not_panics() {
        // The registry claims two cells where the block holds one: the
        // second element's run and pointer slot lie past the end.
        let mut space = AddressSpace::new(Architecture::dec5000());
        let mut msrlt = Msrlt::new();
        let cell = cell_type(&mut space);
        let n = space.malloc(cell, 1).unwrap();
        let mut info = space.info_at(n).unwrap();
        info.count = 2;
        info.size *= 2;
        msrlt.register(&info);
        let err = Collector::new(&mut space, &mut msrlt)
            .save_pointer(n)
            .unwrap_err();
        assert_eq!(err, CoreError::from(MemError::BadAddress(n + 8 + 4 - 1)));
        assert!(crate::delta::block_digests(&mut space, &mut msrlt).is_err());

        // Restore side: an honest two-cell image into a destination whose
        // registry overstates its one-cell global the same way.
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
        assert_eq!(err, CoreError::from(MemError::BadAddress(dg + 16 + 4 - 1)));
    }
}
