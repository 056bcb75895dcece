//! The simulated address space: segments, allocation, typed access.
//!
//! Each segment's bytes are one buffer indexed by `addr − base`, as a C
//! process's segment is contiguous memory; a block is a 32-byte
//! [`MemoryBlock`] record in an arena whose slots are never reused, and
//! the names of globals and locals sit in a side table keyed by slot.
//! One [`PageIndex`] maps addresses to arena slots: it is the process's
//! only address → block map, which the MSRLT resolves pointers through
//! too ([`AddressSpace::resolve`]). Every address is resolved by
//! one directory probe and a rank-table read, then checked against the
//! block's bounds; nothing walks a tree. Once a block is found, the
//! collector and restorer reach its bytes through its [`BlockSlot`]
//! without resolving again.

use crate::block::{BlockInfo, MemoryBlock};
use crate::PageIndex;
use hpm_arch::{Architecture, ScalarValue, SegmentKind};
use hpm_types::elements::{ElementError, ElementModel, Leaf};
use hpm_types::layout::{align_up, Layout};
use hpm_types::plan::{compile_plan, SavePlan};
use hpm_types::{TypeError, TypeId, TypeTable};
use std::collections::HashMap;
use std::num::NonZeroU32;
use std::sync::Arc;

/// Handle to a pushed stack frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameId(pub u64);

/// A checked handle to one block: its arena slot and start address,
/// taken when the block is created ([`AddressSpace::malloc_slot`],
/// [`BlockInfo::slot`]) or resolved ([`AddressSpace::resolve`]).
///
/// It lets a caller that stays on one block (the collector and restorer
/// cursors, and the MSRLT's id → block direction) reach the block's
/// bytes by index, without resolving an address. **Validity rule:** the
/// slot must hold a live block that starts at the handle's address.
/// Arena slots are never reused, so a handle to a block that has since
/// been freed or popped answers [`MemError::BadAddress`] — even after a
/// later `malloc` reuses the address — and so does a handle whose slot
/// holds some other block; it never reaches another block's bytes.
///
/// Slot 0 never holds a block, so a slot number is never 0 and an
/// `Option<BlockSlot>` is as small as a handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockSlot {
    idx: NonZeroU32,
    addr: u64,
}

impl BlockSlot {
    /// Start address of the block the handle was taken for.
    #[inline]
    pub fn addr(&self) -> u64 {
        self.addr
    }

    /// The handle's arena slot number. Slots are numbered from 1 in
    /// creation order and never reused, so a table kept beside the space
    /// can be indexed by the number and names one block for the life of
    /// the space.
    #[inline]
    pub fn number(&self) -> usize {
        self.idx.get() as usize
    }
}

/// Errors from address-space operations.
#[derive(Debug, Clone, PartialEq)]
pub enum MemError {
    /// A segment ran out of room.
    OutOfMemory(SegmentKind),
    /// The address does not fall inside any live block.
    BadAddress(u64),
    /// The address is inside a block but not at a scalar-leaf boundary.
    NotALeaf(u64),
    /// `free` of an address that is not a live heap block start.
    BadFree(u64),
    /// Frame operations must follow stack discipline (pop the top frame).
    FrameDiscipline(String),
    /// Type-system failure (incomplete type etc.).
    Type(String),
}

impl From<TypeError> for MemError {
    fn from(e: TypeError) -> Self {
        MemError::Type(e.to_string())
    }
}

impl From<ElementError> for MemError {
    fn from(e: ElementError) -> Self {
        MemError::Type(e.to_string())
    }
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemError::OutOfMemory(s) => write!(f, "out of memory in {s} segment"),
            MemError::BadAddress(a) => write!(f, "address {a:#x} is not in any live block"),
            MemError::NotALeaf(a) => write!(f, "address {a:#x} is not a scalar boundary"),
            MemError::BadFree(a) => write!(f, "free of non-heap-block address {a:#x}"),
            MemError::FrameDiscipline(m) => write!(f, "frame discipline violation: {m}"),
            MemError::Type(m) => write!(f, "type error: {m}"),
        }
    }
}

impl std::error::Error for MemError {}

/// Allocation statistics, used by the §4.3 overhead experiments.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AllocStats {
    /// Number of `malloc` calls.
    pub mallocs: u64,
    /// Number of `free` calls.
    pub frees: u64,
    /// Total bytes ever allocated on the heap.
    pub heap_bytes_allocated: u64,
    /// Stack frames pushed.
    pub frames_pushed: u64,
    /// Blocks currently live (all segments).
    pub live_blocks: u64,
    /// Bytes currently live (all segments).
    pub live_bytes: u64,
}

#[derive(Debug, Clone)]
struct Frame {
    id: FrameId,
    blocks: Vec<u64>,
    saved_stack_top: u64,
}

/// One segment's bytes: `bytes[i]` is the byte at address `base + i`.
///
/// **Zeroing rule:** a block reads as zero when it is created. Bytes
/// outside `[lo, hi)`, the span blocks have ever covered, are zero
/// already — the buffer only ever grows by zeros — so a new block
/// clears just its overlap with that span: memory a freed block or a
/// popped frame left behind.
#[derive(Debug, Clone)]
struct SegmentBytes {
    /// Lowest address the buffer may grow down to.
    floor: u64,
    base: u64,
    bytes: Vec<u8>,
    lo: u64,
    hi: u64,
}

impl SegmentBytes {
    /// An empty buffer that grows from `at`: up from a segment's base,
    /// down from the stack's end.
    fn new(floor: u64, at: u64) -> Self {
        SegmentBytes {
            floor,
            base: at,
            bytes: Vec::new(),
            lo: at,
            hi: at,
        }
    }

    /// Cover `[addr, end)` and make it read as zero, for a new block.
    fn claim(&mut self, addr: u64, end: u64) {
        if addr < self.base {
            // The stack grows down: at least double the span below the
            // segment's end, as `Vec` doubles upward, moving the bytes
            // already there up in place.
            let top = self.base + self.bytes.len() as u64;
            let base = addr
                .min(top.saturating_sub(2 * (top - self.base)))
                .max(self.floor);
            let grow = (self.base - base) as usize;
            self.bytes.splice(..0, std::iter::repeat_n(0, grow));
            self.base = base;
        }
        self.reserve(end - self.base);
        let (a, b) = (addr.max(self.lo), end.min(self.hi));
        if a < b {
            self.bytes[(a - self.base) as usize..(b - self.base) as usize].fill(0);
        }
        self.lo = self.lo.min(addr);
        self.hi = self.hi.max(end);
    }

    /// Cover at least `len` bytes from `base`. A first reservation is one
    /// zeroed allocation, which the system maps lazily; later growth is
    /// an exact resize, amortised by `Vec`'s own capacity doubling.
    fn reserve(&mut self, len: u64) {
        let len = len as usize;
        if self.bytes.is_empty() {
            self.bytes = vec![0; len];
        } else if len > self.bytes.len() {
            self.bytes.resize(len, 0);
        }
    }

    #[inline]
    fn get(&self, addr: u64, len: u64) -> &[u8] {
        let at = (addr - self.base) as usize;
        &self.bytes[at..at + len as usize]
    }

    #[inline]
    fn get_mut(&mut self, addr: u64, len: u64) -> &mut [u8] {
        let at = (addr - self.base) as usize;
        &mut self.bytes[at..at + len as usize]
    }
}

/// A simulated process address space on one architecture.
///
/// Owns the process's TI table ([`TypeTable`]) and memoized layout model,
/// because a process and its type information are compiled together.
#[derive(Debug, Clone)]
pub struct AddressSpace {
    arch: Architecture,
    types: TypeTable,
    model: ElementModel,
    /// Block records; `None` slots are dead blocks, and slot 0 never
    /// holds one. Slots are never reused, which is what keeps a stale
    /// [`BlockSlot`] dead.
    arena: Vec<Option<MemoryBlock>>,
    /// Name and frame number of every live global and local, by slot.
    names: HashMap<u32, (String, Option<u64>)>,
    /// Global, heap and stack bytes, indexed by [`SegmentKind`].
    segments: [SegmentBytes; 3],
    /// Address → arena slot of every live block: the space's only
    /// address map.
    index: PageIndex<NonZeroU32>,
    global_top: u64,
    stack_top: u64,
    heap_top: u64,
    /// Sorted, coalesced free spans: (addr, size).
    free_list: Vec<(u64, u64)>,
    frames: Vec<Frame>,
    next_frame: u64,
    stats: AllocStats,
    /// Compiled plans, indexed by `TypeId`.
    plans: Vec<Option<Arc<SavePlan>>>,
}

impl AddressSpace {
    /// Fresh empty address space for `arch`.
    pub fn new(arch: Architecture) -> Self {
        arch.segments.validate().expect("invalid segment map");
        let s = &arch.segments;
        let (global_top, heap_top, stack_top) = (s.global.base, s.heap.base, s.stack.end());
        let segments = [
            SegmentBytes::new(global_top, global_top),
            SegmentBytes::new(heap_top, heap_top),
            SegmentBytes::new(s.stack.base, stack_top),
        ];
        AddressSpace {
            arch,
            types: TypeTable::new(),
            model: ElementModel::new(),
            arena: vec![None],
            names: HashMap::new(),
            segments,
            index: PageIndex::new(),
            global_top,
            stack_top,
            heap_top,
            free_list: Vec::new(),
            frames: Vec::new(),
            next_frame: 0,
            stats: AllocStats::default(),
            plans: Vec::new(),
        }
    }

    /// The machine this space simulates.
    pub fn arch(&self) -> &Architecture {
        &self.arch
    }

    /// The process's TI table.
    pub fn types(&self) -> &TypeTable {
        &self.types
    }

    /// Mutable TI table (programs register their types here).
    pub fn types_mut(&mut self) -> &mut TypeTable {
        &mut self.types
    }

    /// Replace the TI table wholesale (used when a pre-compiled program
    /// carries its own table). Must be called before any allocation.
    pub fn install_types(&mut self, table: TypeTable) {
        assert!(self.index.is_empty(), "install_types after allocation");
        self.types = table;
        self.model = ElementModel::new();
        self.plans.clear();
    }

    /// Byte offset of struct field `field` of `st` on this machine.
    pub fn field_offset(&mut self, st: TypeId, field: usize) -> Result<u64, MemError> {
        let offs = self
            .model
            .engine
            .struct_field_offsets(&self.types, &self.arch, st)?;
        offs.get(field)
            .copied()
            .ok_or_else(|| MemError::Type(format!("struct has no field ordinal {field}")))
    }

    /// Allocation statistics so far.
    pub fn stats(&self) -> AllocStats {
        let mut s = self.stats;
        s.live_blocks = self.index.len() as u64;
        s.live_bytes = self.arena.iter().flatten().map(|b| b.size).sum();
        s
    }

    /// Pre-size the heap for an incoming migration image: `bytes` of
    /// heap from the segment's base (at most the segment), so that
    /// restoring a heap of that extent never regrows the buffer. The
    /// bytes are one zeroed allocation, which the system maps lazily:
    /// reserving costs address space, not memory, until a block is
    /// written. A caller with an untrusted figure caps it first.
    pub fn reserve_heap_bytes(&mut self, bytes: u64) {
        let heap = &mut self.segments[SegmentKind::Heap as usize];
        heap.reserve(bytes.min(self.arch.segments.heap.size));
    }

    #[inline]
    fn block(&self, idx: NonZeroU32) -> &MemoryBlock {
        self.arena[idx.get() as usize].as_ref().expect("live block")
    }

    // ----- layout / element queries (memoized per this space) -----

    /// Layout of `ty` on this machine.
    pub fn layout_of(&mut self, ty: TypeId) -> Result<Layout, MemError> {
        Ok(self.model.engine.layout(&self.types, &self.arch, ty)?)
    }

    /// Scalar-leaf count of one value of `ty`.
    pub fn leaf_count(&mut self, ty: TypeId) -> Result<u64, MemError> {
        Ok(self.model.leaf_count(&self.types, ty)?)
    }

    /// Compiled save/restore plan for `ty` (cached).
    pub fn plan_for(&mut self, ty: TypeId) -> Result<Arc<SavePlan>, MemError> {
        self.plan_ref(ty).map(Arc::clone)
    }

    /// [`AddressSpace::plan_for`] without the reference-count traffic, for
    /// callers that only consult the plan.
    pub fn plan_ref(&mut self, ty: TypeId) -> Result<&Arc<SavePlan>, MemError> {
        let i = ty.0 as usize;
        if !matches!(self.plans.get(i), Some(Some(_))) {
            let p = compile_plan(&mut self.model, &self.types, &self.arch, ty)?;
            if self.plans.len() <= i {
                self.plans.resize(i + 1, None);
            }
            self.plans[i] = Some(Arc::new(p));
        }
        Ok(self.plans[i].as_ref().expect("plan compiled above"))
    }

    // ----- block creation -----

    /// Record a new block over zeroed bytes of its segment, with the
    /// name and frame number of a global or local.
    fn insert_block(&mut self, b: MemoryBlock, name: Option<(String, Option<u64>)>) -> BlockSlot {
        let (addr, size) = (b.addr, b.size);
        // The block starting last at or below the new block's last byte is
        // the only one it could overlap; a zero-size block at `addr` is
        // replaced instead.
        debug_assert!(
            self.index
                .get(addr + size.max(1) - 1)
                .map(|i| self.block(i))
                .is_none_or(|o| o.end() <= addr || (o.addr == addr && o.size == 0)),
            "block overlap at {addr:#x}"
        );
        self.segments[b.segment as usize].claim(addr, addr + size);
        let idx = NonZeroU32::new(self.arena.len() as u32).expect("slot 0 holds no block");
        self.arena.push(Some(b));
        if let Some(name) = name {
            self.names.insert(idx.get(), name);
        }
        if let Some(replaced) = self.index.insert(addr, size, idx) {
            self.kill(replaced);
        }
        BlockSlot { idx, addr }
    }

    /// Arena slot of the live block starting exactly at `addr` (a
    /// zero-size one included, which [`AddressSpace::resolve`] never
    /// answers).
    fn idx_at(&self, addr: u64) -> Option<NonZeroU32> {
        self.index.get(addr).filter(|&i| self.block(i).addr == addr)
    }

    fn kill(&mut self, idx: NonZeroU32) -> Option<MemoryBlock> {
        let b = self.arena[idx.get() as usize].take()?;
        if b.segment != SegmentKind::Heap {
            self.names.remove(&idx.get());
        }
        Some(b)
    }

    fn remove_block(&mut self, addr: u64) -> Option<MemoryBlock> {
        let idx = self.idx_at(addr)?;
        self.index.remove(addr);
        self.kill(idx)
    }

    /// Define a global variable block of `count` elements of `ty`.
    pub fn define_global(&mut self, name: &str, ty: TypeId, count: u64) -> Result<u64, MemError> {
        let l = self.layout_of(ty)?;
        let size = l.size * count;
        let addr = align_up(self.global_top, l.align.max(1));
        if addr + size > self.arch.segments.global.end() {
            return Err(MemError::OutOfMemory(SegmentKind::Global));
        }
        self.global_top = addr + size;
        let b = MemoryBlock {
            addr,
            count,
            size,
            ty,
            segment: SegmentKind::Global,
        };
        Ok(self.insert_block(b, Some((name.to_string(), None))).addr)
    }

    /// Push a stack frame for a call of the named function (the name is
    /// not kept).
    pub fn push_frame(&mut self, _name: &str) -> FrameId {
        let id = FrameId(self.next_frame);
        self.next_frame += 1;
        self.stats.frames_pushed += 1;
        self.frames.push(Frame {
            id,
            blocks: Vec::new(),
            saved_stack_top: self.stack_top,
        });
        id
    }

    /// Define a local variable in the *top* frame (which must be `frame`).
    ///
    /// Stack allocation grows downward, like the real machines.
    pub fn define_local(
        &mut self,
        frame: FrameId,
        name: &str,
        ty: TypeId,
        count: u64,
    ) -> Result<u64, MemError> {
        let l = self.layout_of(ty)?;
        let top = self
            .frames
            .last()
            .ok_or_else(|| MemError::FrameDiscipline("no frame pushed".into()))?;
        if top.id != frame {
            return Err(MemError::FrameDiscipline(format!(
                "define_local in frame {:?} but top is {:?}",
                frame, top.id
            )));
        }
        let size = l.size * count;
        let addr = (self.stack_top - size) & !(l.align.max(1) - 1);
        if addr < self.arch.segments.stack.base {
            return Err(MemError::OutOfMemory(SegmentKind::Stack));
        }
        self.stack_top = addr;
        let b = MemoryBlock {
            addr,
            count,
            size,
            ty,
            segment: SegmentKind::Stack,
        };
        self.insert_block(b, Some((name.to_string(), Some(frame.0))));
        self.frames.last_mut().unwrap().blocks.push(addr);
        Ok(addr)
    }

    /// Pop the top frame, destroying its locals.
    pub fn pop_frame(&mut self, frame: FrameId) -> Result<(), MemError> {
        let top = self
            .frames
            .last()
            .ok_or_else(|| MemError::FrameDiscipline("no frame to pop".into()))?;
        if top.id != frame {
            return Err(MemError::FrameDiscipline(format!(
                "pop of {:?} but top is {:?}",
                frame, top.id
            )));
        }
        let f = self.frames.pop().unwrap();
        for addr in &f.blocks {
            self.remove_block(*addr);
        }
        self.stack_top = f.saved_stack_top;
        Ok(())
    }

    /// Number of live frames.
    pub fn frame_depth(&self) -> usize {
        self.frames.len()
    }

    /// Allocate `count` elements of `ty` on the heap (C `malloc`).
    pub fn malloc(&mut self, ty: TypeId, count: u64) -> Result<u64, MemError> {
        self.malloc_slot(ty, count).map(|slot| slot.addr())
    }

    /// [`AddressSpace::malloc`], answering the new block's handle (its
    /// address is [`BlockSlot::addr`]): what the restorer records in the
    /// MSRLT, so that filling the block resolves nothing.
    pub fn malloc_slot(&mut self, ty: TypeId, count: u64) -> Result<BlockSlot, MemError> {
        let l = self.layout_of(ty)?;
        // `count` may come off the wire (the restorer allocates what a
        // stream announces): a product that wraps must not shrink into a
        // block the caller then writes past.
        let size = l
            .size
            .checked_mul(count)
            .filter(|&s| s <= self.arch.segments.heap.size)
            .ok_or(MemError::OutOfMemory(SegmentKind::Heap))?
            .max(1);
        let align = l.align.max(1);
        self.stats.mallocs += 1;
        self.stats.heap_bytes_allocated += size;
        // First-fit over the free list.
        let mut chosen: Option<usize> = None;
        for (i, (faddr, fsize)) in self.free_list.iter().enumerate() {
            let start = align_up(*faddr, align);
            if start + size <= faddr + fsize {
                chosen = Some(i);
                break;
            }
        }
        let addr = if let Some(i) = chosen {
            let (faddr, fsize) = self.free_list.remove(i);
            let start = align_up(faddr, align);
            // Return any unused head/tail to the free list.
            if start > faddr {
                self.free_list_insert(faddr, start - faddr);
            }
            let tail = (faddr + fsize) - (start + size);
            if tail > 0 {
                self.free_list_insert(start + size, tail);
            }
            start
        } else {
            let start = align_up(self.heap_top, align);
            if start + size > self.arch.segments.heap.end() {
                return Err(MemError::OutOfMemory(SegmentKind::Heap));
            }
            if start > self.heap_top {
                // alignment gap is permanently unusable; record as free
                self.free_list_insert(self.heap_top, start - self.heap_top);
            }
            self.heap_top = start + size;
            start
        };
        let b = MemoryBlock {
            addr,
            count,
            size,
            ty,
            segment: SegmentKind::Heap,
        };
        Ok(self.insert_block(b, None))
    }

    /// Release a heap block (C `free`).
    pub fn free(&mut self, addr: u64) -> Result<(), MemError> {
        match self.idx_at(addr) {
            Some(i) if self.block(i).segment == SegmentKind::Heap => {}
            _ => return Err(MemError::BadFree(addr)),
        }
        let b = self.remove_block(addr).unwrap();
        self.stats.frees += 1;
        self.free_list_insert(addr, b.size);
        Ok(())
    }

    fn free_list_insert(&mut self, addr: u64, size: u64) {
        let pos = self.free_list.partition_point(|&(a, _)| a < addr);
        self.free_list.insert(pos, (addr, size));
        // Coalesce with neighbours.
        if pos + 1 < self.free_list.len() {
            let (na, ns) = self.free_list[pos + 1];
            let (ca, cs) = self.free_list[pos];
            if ca + cs == na {
                self.free_list[pos] = (ca, cs + ns);
                self.free_list.remove(pos + 1);
            }
        }
        if pos > 0 {
            let (pa, ps) = self.free_list[pos - 1];
            let (ca, cs) = self.free_list[pos];
            if pa + ps == ca {
                self.free_list[pos - 1] = (pa, ps + cs);
                self.free_list.remove(pos);
            }
        }
    }

    // ----- resolution & access -----

    /// Find the block containing `addr` (any interior address): its
    /// handle, its record and `addr`'s offset in it, from one probe of
    /// the index and one read of the arena. This is the search the MSRLT
    /// charges per pointer.
    #[inline]
    pub fn resolve(&self, addr: u64) -> Option<(BlockSlot, &MemoryBlock, u64)> {
        let idx = self.index.get(addr)?;
        let b = self.block(idx);
        b.contains(addr)
            .then(|| (BlockSlot { idx, addr: b.addr }, b, addr - b.addr))
    }

    /// The block starting exactly at `block_addr`.
    pub fn block_at(&self, block_addr: u64) -> Option<&MemoryBlock> {
        self.idx_at(block_addr).map(|i| self.block(i))
    }

    /// Handle of the live block starting exactly at `addr`.
    pub fn slot_at(&self, addr: u64) -> Option<BlockSlot> {
        self.idx_at(addr).map(|idx| BlockSlot { idx, addr })
    }

    /// Metadata snapshot of the block in arena slot `idx`.
    fn info(&self, idx: NonZeroU32) -> BlockInfo {
        let b = self.block(idx);
        let (name, frame) = match b.segment {
            SegmentKind::Heap => (None, None),
            _ => self
                .names
                .get(&idx.get())
                .map_or((None, None), |(n, f)| (Some(n.clone()), *f)),
        };
        BlockInfo {
            addr: b.addr,
            ty: b.ty,
            count: b.count,
            segment: b.segment,
            name,
            frame,
            size: b.size,
            slot: BlockSlot { idx, addr: b.addr },
        }
    }

    /// Metadata snapshots of all live blocks, in address order. Sorts on
    /// every call, a cold path (set-up, audits, tests); allocation order
    /// is mostly ascending (heap) or descending (stack) runs, which the
    /// stable sort merges in near-linear time.
    pub fn block_infos(&self) -> Vec<BlockInfo> {
        let live = (1..self.arena.len() as u32).filter_map(NonZeroU32::new);
        let live = live.filter(|i| self.arena[i.get() as usize].is_some());
        let mut infos: Vec<BlockInfo> = live.map(|i| self.info(i)).collect();
        infos.sort_by_key(|b| b.addr);
        infos
    }

    /// Metadata snapshot of the block starting at `addr`, with its
    /// handle: what an MSRLT registration records.
    pub fn info_at(&self, addr: u64) -> Option<BlockInfo> {
        self.idx_at(addr).map(|i| self.info(i))
    }

    /// Number of live blocks.
    pub fn block_count(&self) -> usize {
        self.index.len()
    }

    /// The record of the block behind `slot`, if the handle obeys the
    /// validity rule.
    #[inline]
    pub fn slot_block(&self, slot: BlockSlot) -> Result<&MemoryBlock, MemError> {
        match self.arena.get(slot.idx.get() as usize) {
            Some(Some(b)) if b.addr == slot.addr => Ok(b),
            _ => Err(MemError::BadAddress(slot.addr)),
        }
    }

    /// The whole block's bytes, if the handle obeys the validity rule.
    #[inline]
    pub fn slot_bytes(&self, slot: BlockSlot) -> Result<&[u8], MemError> {
        let b = self.slot_block(slot)?;
        Ok(self.segments[b.segment as usize].get(b.addr, b.size))
    }

    /// Mutable view of the whole block's bytes together with the
    /// architecture (split borrow for decoders), if the handle obeys the
    /// validity rule.
    #[inline]
    pub fn slot_bytes_mut(
        &mut self,
        slot: BlockSlot,
    ) -> Result<(&Architecture, &mut [u8]), MemError> {
        let b = *self.slot_block(slot)?;
        let bytes = self.segments[b.segment as usize].get_mut(b.addr, b.size);
        Ok((&self.arch, bytes))
    }

    /// The block holding all `len` bytes at `addr`. A range past the
    /// block's end, however long, answers `BadAddress` at its last byte
    /// (at `u64::MAX` if that wraps).
    fn span(&self, addr: u64, len: u64) -> Result<MemoryBlock, MemError> {
        let (_, &b, offset) = self.resolve(addr).ok_or(MemError::BadAddress(addr))?;
        match offset.checked_add(len) {
            Some(end) if end <= b.size => Ok(b),
            _ => Err(MemError::BadAddress(
                addr.saturating_add(len.saturating_sub(1)),
            )),
        }
    }

    /// Read `len` bytes at `addr` (must stay within one block). A range
    /// past the block's end, however long, answers `BadAddress` at its
    /// last byte (at `u64::MAX` if that wraps).
    pub fn read_bytes(&self, addr: u64, len: u64) -> Result<&[u8], MemError> {
        let b = self.span(addr, len)?;
        Ok(self.segments[b.segment as usize].get(addr, len))
    }

    /// Write bytes at `addr` (must stay within one block).
    pub fn write_bytes(&mut self, addr: u64, data: &[u8]) -> Result<(), MemError> {
        self.bytes_mut(addr, data.len() as u64)?
            .copy_from_slice(data);
        Ok(())
    }

    /// Mutable [`AddressSpace::read_bytes`].
    fn bytes_mut(&mut self, addr: u64, len: u64) -> Result<&mut [u8], MemError> {
        let b = self.span(addr, len)?;
        Ok(self.segments[b.segment as usize].get_mut(addr, len))
    }

    /// The scalar leaf (and its index within the block) at `addr`.
    ///
    /// The returned leaf's `offset` is relative to the *block* start.
    pub fn leaf_at_addr(&mut self, addr: u64) -> Result<(u64, Leaf), MemError> {
        let (_, &b, offset) = self.resolve(addr).ok_or(MemError::BadAddress(addr))?;
        self.leaf_in(b, offset, addr)
    }

    /// The scalar leaf at byte `offset` of block `b`, which `addr` names.
    fn leaf_in(&mut self, b: MemoryBlock, offset: u64, addr: u64) -> Result<(u64, Leaf), MemError> {
        let (ty, count) = (b.ty, b.count);
        let elem_size = self.layout_of(ty)?.size;
        if elem_size == 0 {
            // `int[0]`: the block has no scalar to stand on.
            return Err(MemError::NotALeaf(addr));
        }
        let elem_idx = offset / elem_size;
        if elem_idx >= count {
            return Err(MemError::BadAddress(addr));
        }
        let inner = offset % elem_size;
        let per = self.leaf_count(ty)?;
        let (li, leaf) = self
            .model
            .leaf_index_at_offset(&self.types, &self.arch, ty, inner)
            .map_err(|_| MemError::NotALeaf(addr))?;
        Ok((
            elem_idx * per + li,
            Leaf {
                offset: elem_idx * elem_size + leaf.offset,
                ..leaf
            },
        ))
    }

    /// Address of the `leaf_idx`-th scalar leaf counting from `base`.
    ///
    /// `base` may be a block start or any interior *element boundary*
    /// (e.g. a node inside a pooled arena block): leaves are counted from
    /// the element `base` points at.
    pub fn elem_addr(&mut self, base: u64, leaf_idx: u64) -> Result<u64, MemError> {
        let (_, &b, offset) = self.resolve(base).ok_or(MemError::BadAddress(base))?;
        let (ty, count) = (b.ty, b.count);
        let per = self.leaf_count(ty)?;
        let elem_size = self.layout_of(ty)?.size;
        if elem_size == 0 || offset % elem_size != 0 {
            return Err(MemError::NotALeaf(base));
        }
        let elem_idx = offset / elem_size + leaf_idx / per;
        if elem_idx >= count {
            return Err(MemError::BadAddress(base));
        }
        let leaf = self
            .model
            .leaf_at_index(&self.types, &self.arch, ty, leaf_idx % per)
            .map_err(|e| MemError::Type(e.to_string()))?;
        Ok(b.addr + elem_idx * elem_size + leaf.offset)
    }

    /// The scalar leaf at `addr` and the block it lies in.
    fn leaf_in_block(&mut self, addr: u64) -> Result<(Leaf, MemoryBlock), MemError> {
        let (_, &b, offset) = self.resolve(addr).ok_or(MemError::BadAddress(addr))?;
        let (_, leaf) = self.leaf_in(b, offset, addr)?;
        Ok((leaf, b))
    }

    /// Load the scalar stored at `addr`, typed by the block's TI entry.
    pub fn load_scalar(&mut self, addr: u64) -> Result<ScalarValue, MemError> {
        let (leaf, b) = self.leaf_in_block(addr)?;
        let size = self.arch.scalar_size(leaf.kind);
        let bytes = self.segments[b.segment as usize].get(b.addr + leaf.offset, size);
        Ok(self.arch.decode_scalar(leaf.kind, bytes))
    }

    /// Store a scalar at `addr`, converting to the leaf's declared kind.
    pub fn store_scalar(&mut self, addr: u64, v: ScalarValue) -> Result<(), MemError> {
        let (leaf, b) = self.leaf_in_block(addr)?;
        let mut tmp = Vec::with_capacity(8);
        self.arch.encode_scalar(leaf.kind, v, &mut tmp);
        self.segments[b.segment as usize]
            .get_mut(b.addr + leaf.offset, tmp.len() as u64)
            .copy_from_slice(&tmp);
        Ok(())
    }

    // ----- typed conveniences for workload code -----

    /// Load a floating-point scalar as f64.
    pub fn load_f64(&mut self, addr: u64) -> Result<f64, MemError> {
        Ok(self.load_scalar(addr)?.as_f64())
    }

    /// Store an f64 (narrowing to the leaf's kind).
    pub fn store_f64(&mut self, addr: u64, v: f64) -> Result<(), MemError> {
        self.store_scalar(addr, ScalarValue::F64(v))
    }

    /// Load an integer scalar as i64.
    pub fn load_int(&mut self, addr: u64) -> Result<i64, MemError> {
        Ok(self.load_scalar(addr)?.as_i64())
    }

    /// Store an i64 (narrowing to the leaf's kind).
    pub fn store_int(&mut self, addr: u64, v: i64) -> Result<(), MemError> {
        self.store_scalar(addr, ScalarValue::Int(v))
    }

    /// Load a pointer value (a raw simulated address; 0 is NULL).
    pub fn load_ptr(&mut self, addr: u64) -> Result<u64, MemError> {
        match self.load_scalar(addr)? {
            ScalarValue::Ptr(p) => Ok(p),
            other => Err(MemError::Type(format!(
                "expected pointer at {addr:#x}, got {other:?}"
            ))),
        }
    }

    /// Store a pointer value.
    pub fn store_ptr(&mut self, addr: u64, target: u64) -> Result<(), MemError> {
        self.store_scalar(addr, ScalarValue::Ptr(target))
    }

    // ----- bulk numeric access -----
    //
    // Numeric kernels (linpack's daxpy) would pay an address resolution
    // per element through `load_f64`/`store_f64`; these helpers resolve
    // once per contiguous run, which is what compiled C enjoys. The run
    // must be a contiguous span of `double` leaves within one block.

    /// Check that `addr` is a `double` leaf, the start of an f64 run.
    fn f64_run_at(&mut self, addr: u64) -> Result<(), MemError> {
        let (_, leaf) = self.leaf_at_addr(addr)?;
        if leaf.kind != hpm_arch::CScalar::Double {
            return Err(MemError::Type(format!(
                "f64 run over {:?} leaves",
                leaf.kind
            )));
        }
        Ok(())
    }

    /// Read `n` consecutive doubles starting at `addr` into `out`.
    pub fn read_f64_run(&mut self, addr: u64, n: u64, out: &mut Vec<f64>) -> Result<(), MemError> {
        self.f64_run_at(addr)?;
        let big = self.arch.endianness == hpm_arch::Endianness::Big;
        let bytes = self.read_bytes(addr, n * 8)?;
        out.reserve(n as usize);
        for chunk in bytes.chunks_exact(8) {
            let raw: [u8; 8] = chunk.try_into().unwrap();
            let bits = if big {
                u64::from_be_bytes(raw)
            } else {
                u64::from_le_bytes(raw)
            };
            out.push(f64::from_bits(bits));
        }
        Ok(())
    }

    /// Write consecutive doubles starting at `addr`.
    pub fn write_f64_run(&mut self, addr: u64, vals: &[f64]) -> Result<(), MemError> {
        self.f64_run_at(addr)?;
        let big = self.arch.endianness == hpm_arch::Endianness::Big;
        let bytes = self.bytes_mut(addr, vals.len() as u64 * 8)?;
        for (out, v) in bytes.chunks_exact_mut(8).zip(vals) {
            let bits = v.to_bits();
            out.copy_from_slice(&if big {
                bits.to_be_bytes()
            } else {
                bits.to_le_bytes()
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpm_arch::CScalar;
    use hpm_types::Field;

    fn space() -> AddressSpace {
        AddressSpace::new(Architecture::sparc20())
    }

    #[test]
    fn malloc_refuses_a_count_whose_byte_size_wraps_or_exceeds_the_heap() {
        for arch in Architecture::presets() {
            let mut s = AddressSpace::new(arch);
            let d = s.types_mut().double();
            // 8 * 2^61 wraps to 0, which used to allocate a 1-byte block.
            for count in [1u64 << 61, u64::MAX, 1 << 40] {
                assert_eq!(
                    s.malloc(d, count),
                    Err(MemError::OutOfMemory(SegmentKind::Heap))
                );
            }
            assert_eq!(s.stats().mallocs, 0);
            assert_eq!(s.block_count(), 0);
        }
    }

    #[test]
    fn globals_allocate_in_global_segment() {
        let mut s = space();
        let int = s.types_mut().int();
        let a = s.define_global("x", int, 1).unwrap();
        assert!(s.arch().segments.global.contains(a));
        assert_eq!(s.block_at(a).unwrap().segment, SegmentKind::Global);
        let info = s.info_at(a).unwrap();
        assert_eq!((info.name.as_deref(), info.frame), (Some("x"), None));
    }

    #[test]
    fn locals_grow_downward() {
        let mut s = space();
        let int = s.types_mut().int();
        let f = s.push_frame("main");
        let a = s.define_local(f, "a", int, 1).unwrap();
        let b = s.define_local(f, "b", int, 1).unwrap();
        assert!(b < a, "stack must grow downward");
        assert!(s.arch().segments.stack.contains(a));
    }

    #[test]
    fn frame_discipline_enforced() {
        let mut s = space();
        let int = s.types_mut().int();
        let f1 = s.push_frame("main");
        let f2 = s.push_frame("foo");
        assert!(matches!(
            s.define_local(f1, "x", int, 1),
            Err(MemError::FrameDiscipline(_))
        ));
        assert!(matches!(s.pop_frame(f1), Err(MemError::FrameDiscipline(_))));
        s.pop_frame(f2).unwrap();
        s.pop_frame(f1).unwrap();
        assert!(matches!(s.pop_frame(f1), Err(MemError::FrameDiscipline(_))));
    }

    #[test]
    fn pop_frame_kills_locals() {
        let mut s = space();
        let int = s.types_mut().int();
        let f = s.push_frame("foo");
        let a = s.define_local(f, "x", int, 1).unwrap();
        assert!(s.resolve(a).is_some());
        s.pop_frame(f).unwrap();
        assert!(
            s.resolve(a).is_none(),
            "dangling stack address must not resolve"
        );
    }

    #[test]
    fn malloc_free_reuse() {
        let mut s = space();
        let int = s.types_mut().int();
        let a = s.malloc(int, 100).unwrap();
        s.free(a).unwrap();
        let b = s.malloc(int, 50).unwrap();
        assert_eq!(a, b, "first-fit should reuse the freed span");
        let st = s.stats();
        assert_eq!(st.mallocs, 2);
        assert_eq!(st.frees, 1);
    }

    #[test]
    fn double_free_rejected() {
        let mut s = space();
        let int = s.types_mut().int();
        let a = s.malloc(int, 1).unwrap();
        s.free(a).unwrap();
        assert_eq!(s.free(a), Err(MemError::BadFree(a)));
    }

    #[test]
    fn free_of_global_rejected() {
        let mut s = space();
        let int = s.types_mut().int();
        let a = s.define_global("g", int, 1).unwrap();
        assert_eq!(s.free(a), Err(MemError::BadFree(a)));
    }

    #[test]
    fn interior_resolution() {
        let mut s = space();
        let d = s.types_mut().double();
        let a = s.malloc(d, 10).unwrap();
        let (slot, b, offset) = s.resolve(a + 24).unwrap();
        assert_eq!((slot.addr(), b.addr, offset), (a, a, 24));
        assert!(s.resolve(a + 80).is_none_or(|(slot, ..)| slot.addr() != a));
    }

    #[test]
    fn unmapped_address_fails() {
        let s = space();
        assert!(s.resolve(0).is_none());
        assert!(s.resolve(0x2000_0000).is_none());
    }

    #[test]
    fn scalar_store_load_via_struct_field() {
        let mut s = space();
        let node = s.types_mut().declare_struct("node");
        let link = s.types_mut().pointer_to(node);
        let fl = s.types_mut().float();
        s.types_mut()
            .define_struct(node, vec![Field::new("data", fl), Field::new("link", link)])
            .unwrap();
        let a = s.malloc(node, 1).unwrap();
        let data_addr = s.elem_addr(a, 0).unwrap();
        let link_addr = s.elem_addr(a, 1).unwrap();
        s.store_f64(data_addr, 10.0).unwrap();
        s.store_ptr(link_addr, a).unwrap();
        assert_eq!(s.load_f64(data_addr).unwrap(), 10.0);
        assert_eq!(s.load_ptr(link_addr).unwrap(), a);
    }

    #[test]
    fn pointer_bytes_are_native_layout() {
        // Verify the pointer really lives in the block's bytes with the
        // machine's endianness: big-endian on SPARC.
        let mut s = space();
        let int = s.types_mut().int();
        let pi = s.types_mut().pointer_to(int);
        let a = s.malloc(pi, 1).unwrap();
        s.store_ptr(a, 0x1234_5678).unwrap();
        assert_eq!(s.read_bytes(a, 4).unwrap(), &[0x12, 0x34, 0x56, 0x78]);

        let mut s2 = AddressSpace::new(Architecture::dec5000());
        let int2 = s2.types_mut().int();
        let pi2 = s2.types_mut().pointer_to(int2);
        let a2 = s2.malloc(pi2, 1).unwrap();
        s2.store_ptr(a2, 0x1234_5678).unwrap();
        assert_eq!(s2.read_bytes(a2, 4).unwrap(), &[0x78, 0x56, 0x34, 0x12]);
    }

    #[test]
    fn store_to_padding_rejected() {
        let mut s = space();
        let c = s.types_mut().char_();
        let i = s.types_mut().int();
        let st = s
            .types_mut()
            .struct_type("ci", vec![Field::new("c", c), Field::new("i", i)])
            .unwrap();
        let a = s.malloc(st, 1).unwrap();
        assert!(matches!(s.store_int(a + 2, 1), Err(MemError::NotALeaf(_))));
    }

    #[test]
    fn narrowing_store_wraps_like_c() {
        let mut s = space();
        let c = s.types_mut().char_();
        let a = s.malloc(c, 1).unwrap();
        s.store_int(a, 0x1FF).unwrap(); // char truncates to 0xFF == -1
        assert_eq!(s.load_int(a).unwrap(), -1);
    }

    #[test]
    fn elem_addr_multi_element_block() {
        let mut s = space();
        let d = s.types_mut().double();
        let a = s.malloc(d, 5).unwrap();
        assert_eq!(s.elem_addr(a, 0).unwrap(), a);
        assert_eq!(s.elem_addr(a, 3).unwrap(), a + 24);
        assert!(s.elem_addr(a, 5).is_err());
    }

    #[test]
    fn leaf_at_addr_roundtrip() {
        let mut s = space();
        let node = s.types_mut().declare_struct("n2");
        let link = s.types_mut().pointer_to(node);
        let fl = s.types_mut().float();
        s.types_mut()
            .define_struct(node, vec![Field::new("data", fl), Field::new("link", link)])
            .unwrap();
        let a = s.malloc(node, 4).unwrap();
        for idx in 0..8 {
            let addr = s.elem_addr(a, idx).unwrap();
            let (got, _) = s.leaf_at_addr(addr).unwrap();
            assert_eq!(got, idx);
        }
    }

    #[test]
    fn cross_block_read_rejected() {
        let mut s = space();
        let i = s.types_mut().int();
        let a = s.malloc(i, 2).unwrap();
        assert!(s.read_bytes(a, 8).is_ok());
        assert!(s.read_bytes(a, 9).is_err());
    }

    #[test]
    fn malloc_respects_alignment() {
        let mut s = space();
        let c = s.types_mut().char_();
        let d = s.types_mut().double();
        let a = s.malloc(c, 3).unwrap();
        let b = s.malloc(d, 1).unwrap();
        assert_eq!(b % 8, 0, "double block must be 8-aligned, got {b:#x}");
        assert!(b >= a + 3);
    }

    #[test]
    fn heap_exhaustion_detected() {
        let mut arch = Architecture::sparc20();
        arch.segments.heap.size = 64;
        let mut s = AddressSpace::new(arch);
        let d = s.types_mut().double();
        assert!(s.malloc(d, 4).is_ok());
        assert!(matches!(
            s.malloc(d, 8),
            Err(MemError::OutOfMemory(SegmentKind::Heap))
        ));
    }

    #[test]
    fn a_reserved_heap_holds_its_blocks_in_place() {
        let mut s = space();
        let d = s.types_mut().double();
        s.reserve_heap_bytes(1 << 16);
        let first = s.malloc_slot(d, 1).unwrap();
        let at = s.slot_bytes(first).unwrap().as_ptr();
        for _ in 0..100 {
            s.malloc(d, 80).unwrap();
        }
        assert_eq!(s.slot_bytes(first).unwrap().as_ptr(), at, "the heap moved");

        // At most the segment, whatever is asked.
        let mut arch = Architecture::sparc20();
        arch.segments.heap.size = 64;
        let mut s = AddressSpace::new(arch);
        let d = s.types_mut().double();
        s.reserve_heap_bytes(u64::MAX);
        let a = s.malloc_slot(d, 8).unwrap();
        assert_eq!(s.slot_bytes(a).unwrap(), &[0; 64]);
    }

    #[test]
    fn uchar_loads_unsigned() {
        let mut s = space();
        let uc = s.types_mut().scalar(CScalar::UChar);
        let a = s.malloc(uc, 1).unwrap();
        s.store_int(a, 0xFF).unwrap();
        assert_eq!(s.load_scalar(a).unwrap(), ScalarValue::Uint(255));
    }

    #[test]
    fn zero_size_element_type_is_not_a_leaf() {
        let mut s = space();
        let int = s.types_mut().int();
        let empty = s.types_mut().array_of(int, 0);
        let a = s.malloc(empty, 1).unwrap();
        assert_eq!(s.leaf_at_addr(a), Err(MemError::NotALeaf(a)));
        assert_eq!(s.elem_addr(a, 0), Err(MemError::NotALeaf(a)));
        assert_eq!(s.load_scalar(a), Err(MemError::NotALeaf(a)));
    }

    #[test]
    fn read_bytes_refuses_a_length_that_wraps() {
        let mut s = space();
        let int = s.types_mut().int();
        let a = s.malloc(int, 4).unwrap();
        // `offset + len` wraps: once from the block start, once from inside.
        assert_eq!(
            s.read_bytes(a, u64::MAX),
            Err(MemError::BadAddress(u64::MAX))
        );
        assert_eq!(
            s.read_bytes(a + 4, u64::MAX - 2),
            Err(MemError::BadAddress(u64::MAX))
        );
        assert_eq!(s.read_bytes(a + 4, 13), Err(MemError::BadAddress(a + 16)));
        assert_eq!(s.read_bytes(a + 4, 12).unwrap().len(), 12);
        assert_eq!(s.read_bytes(a + 15, 0).unwrap(), &[] as &[u8]);
    }

    #[test]
    fn slot_reaches_the_block_it_was_taken_for() {
        let mut s = space();
        let int = s.types_mut().int();
        let slot = s.malloc_slot(int, 4).unwrap();
        let a = slot.addr();
        s.store_int(a + 8, 77).unwrap();
        let info = s.info_at(a).unwrap();
        assert_eq!((info.slot, info.size, info.count), (slot, 16, 4));
        assert_eq!(s.info_at(a + 8), None, "not a block start");
        assert_eq!(s.slot_bytes(slot).unwrap(), s.read_bytes(a, 16).unwrap());
        let (arch, bytes) = s.slot_bytes_mut(slot).unwrap();
        assert_eq!(arch.pointer_size, 4);
        bytes[8..12].copy_from_slice(&[0, 0, 0, 5]);
        assert_eq!(s.load_int(a + 8).unwrap(), 5);
        // A handle to a slot this space never filled.
        let mut other = space();
        let oint = other.types_mut().int();
        let far = (0..3).map(|_| other.malloc_slot(oint, 1).unwrap()).last();
        let far = far.unwrap();
        assert_eq!(s.slot_bytes(far), Err(MemError::BadAddress(far.addr())));
    }

    #[test]
    fn stale_slot_never_reaches_another_block() {
        let mut s = space();
        let int = s.types_mut().int();
        let a = s.malloc(int, 4).unwrap();
        let heap_slot = s.info_at(a).unwrap().slot;
        let f = s.push_frame("f");
        let l = s.define_local(f, "x", int, 1).unwrap();
        let stack_slot = s.info_at(l).unwrap().slot;

        s.free(a).unwrap();
        s.pop_frame(f).unwrap();
        assert_eq!(s.slot_bytes(heap_slot), Err(MemError::BadAddress(a)));
        assert_eq!(s.slot_bytes(stack_slot), Err(MemError::BadAddress(l)));

        // The addresses come back under new blocks; the old handles stay dead.
        assert_eq!(s.malloc(int, 4).unwrap(), a);
        let f2 = s.push_frame("g");
        assert_eq!(s.define_local(f2, "y", int, 1).unwrap(), l);
        assert_eq!(s.slot_bytes(heap_slot), Err(MemError::BadAddress(a)));
        assert_eq!(
            s.slot_bytes_mut(stack_slot).err(),
            Some(MemError::BadAddress(l))
        );
        assert_eq!(s.slot_bytes(s.info_at(a).unwrap().slot).unwrap().len(), 16);
    }
}
