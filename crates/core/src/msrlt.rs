//! The MSR Lookup Table (MSRLT).
//!
//! §3.1: "At runtime, the MSRLT data structure is created in process
//! memory space to keep track of memory blocks. It also provides
//! machine-independent identification to the memory blocks and supports
//! memory block search during data collection and restoration operations.
//! The MSRLT works as a mapping table which supports address translation
//! between the machine-specific and machine-independent memory address."
//!
//! Logical identification is a `(group, index)` pair:
//!
//! * group 0 — global variables, indexed in definition order;
//! * group 1 — heap blocks, indexed in allocation order;
//! * group `2 + d` — locals of the stack frame at depth `d`, indexed in
//!   declaration order.
//!
//! Because the migrating program and the destination program are the same
//! executable, both sides assign identical ids to the same source-level
//! entities — the property the paper relies on to match blocks across
//! machines.
//!
//! Address→id lookup is the instrumented search whose cost appears in the
//! paper's collection complexity (`O(n log n)` over `n` blocks, for the
//! sorted address index the paper assumes); id→entry lookup is `O(1)`
//! indexing, which is why restoration's MSRLT term is only `O(n)`. Here
//! the address→id direction is `O(1)` too: its one structure is a
//! [`PageIndex`] — the index the address space resolves through — whose
//! answer a containment check makes exact, so every search is one probe
//! and a miss is final. The record a search lands on carries the
//! block's [`BlockSlot`], so the collector reaches the block's bytes
//! without a second search in the address space.

use crate::CoreError;
use hpm_arch::SegmentKind;
use hpm_memory::{BlockInfo, BlockSlot, PageIndex};
use hpm_types::TypeId;
use std::num::NonZeroU32;

/// Group number of the global-variable group.
pub const GROUP_GLOBAL: u32 = 0;
/// Group number of the heap group.
pub const GROUP_HEAP: u32 = 1;

fn pack_id(id: LogicalId) -> u64 {
    ((id.group as u64) << 32) | id.index as u64
}

fn unpack_id(packed: u64) -> LogicalId {
    LogicalId {
        group: (packed >> 32) as u32,
        index: packed as u32,
    }
}

/// Group number for the stack frame at `depth`.
pub fn frame_group(depth: u32) -> u32 {
    2 + depth
}

/// Machine-independent identification of a memory block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LogicalId {
    /// The MSRLT group.
    pub group: u32,
    /// The index within the group.
    pub index: u32,
}

impl std::fmt::Display for LogicalId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({},{})", self.group, self.index)
    }
}

/// The mark of a block no collection has visited since the marks were
/// last cleared: never a collection's epoch, which starts above it.
const UNVISITED: NonZeroU32 = NonZeroU32::MIN;
/// Where a fresh table's epoch stands before its first collection:
/// above [`UNVISITED`], so no record reads visited.
const FRESH_EPOCH: NonZeroU32 = UNVISITED.saturating_add(1);

/// One MSRLT record: a live memory block's location, as the table holds
/// it at the block's id (which is the record's position, so the record
/// does not repeat it). 40 bytes, and 40 as an `Option` too: the mark is
/// never 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsrltEntry {
    /// Handle to the block in the address space, taken at registration;
    /// its address is the block's machine-specific start address.
    slot: BlockSlot,
    /// Block size in bytes on this machine.
    pub size: u64,
    /// Element type.
    pub ty: TypeId,
    /// Element count.
    pub count: u64,
    /// Epoch of the collection that last visited the block.
    mark: NonZeroU32,
}

impl MsrltEntry {
    /// Machine-specific start address.
    pub fn addr(&self) -> u64 {
        self.slot.addr()
    }

    /// The block's handle in the address space it was registered from.
    pub fn slot(&self) -> BlockSlot {
        self.slot
    }
}

/// Instrumentation counters, feeding the §4.2 complexity experiments.
#[derive(Debug, Default, Clone, Copy)]
pub struct MsrltStats {
    /// Blocks registered (the "MSRLT update" operations).
    pub registrations: u64,
    /// Blocks unregistered (free / frame pop).
    pub unregistrations: u64,
    /// Address→block searches performed.
    pub searches: u64,
    /// Page-index probes across all searches: one per search.
    pub search_steps: u64,
    /// id→entry lookups (O(1) each).
    pub id_lookups: u64,
}

impl MsrltStats {
    /// Always 0.0: the MSRLT has no translation cache. Kept only because
    /// the benchmark's `core.msrlt_cache_hit_ratio` reads it; the two go
    /// together when the benchmark next changes.
    pub fn cache_hit_rate(&self) -> f64 {
        0.0
    }
}

/// The MSR Lookup Table.
#[derive(Debug, Clone)]
pub struct Msrlt {
    /// `groups[g][i]` is the entry with id `(g, i)`; `None` for ids that
    /// are dead (freed) or not yet seen on this side.
    groups: Vec<Vec<Option<MsrltEntry>>>,
    /// Live frame groups (innermost last).
    frame_stack: Vec<u32>,
    /// The current collection's visit epoch, above [`UNVISITED`].
    epoch: NonZeroU32,
    stats: MsrltStats,
    /// Total bytes of live registered blocks (collector pre-sizing hint).
    live_bytes: u64,
    /// Start address → packed id of every live entry: the table's only
    /// address→id structure.
    pages: PageIndex<u64>,
    /// Restoring side: `wire_types[n]` is the local type the image gave
    /// sender type number `n`. Kept here, beside the ids, because one
    /// image is restored in several [`Restorer`](crate::Restorer)
    /// sessions (one per frame) and the table is what they all share.
    wire_types: Vec<TypeId>,
}

impl Default for Msrlt {
    fn default() -> Self {
        Self::new()
    }
}

impl Msrlt {
    /// New table with the global and heap groups ready.
    pub fn new() -> Self {
        Msrlt {
            groups: vec![Vec::new(), Vec::new()],
            frame_stack: Vec::new(),
            epoch: FRESH_EPOCH,
            stats: MsrltStats::default(),
            live_bytes: 0,
            pages: PageIndex::new(),
            wire_types: Vec::new(),
        }
    }

    /// Record that the image being restored calls local type `ty` by
    /// sender number `no`. A definition overwrites; numbers are dense,
    /// so one past the end appends and anything beyond is refused
    /// (`false`) — the table grows by at most one entry per `TYPEDEF`
    /// record received.
    pub(crate) fn define_wire_type(&mut self, no: u32, ty: TypeId) -> bool {
        let defined = self.wire_types.len();
        match self.wire_types.get_mut(no as usize) {
            Some(slot) => *slot = ty,
            None if no as usize == defined => self.wire_types.push(ty),
            None => return false,
        }
        true
    }

    /// The local type behind sender type number `no`, if the image has
    /// defined it.
    pub(crate) fn wire_type(&self, no: u32) -> Option<TypeId> {
        self.wire_types.get(no as usize).copied()
    }

    /// How many sender type numbers the image has defined.
    pub(crate) fn wire_types_defined(&self) -> u32 {
        self.wire_types.len() as u32
    }

    /// Instrumentation counters so far.
    pub fn stats(&self) -> MsrltStats {
        self.stats
    }

    /// Zero the counters (between experiment phases).
    pub fn reset_stats(&mut self) {
        self.stats = MsrltStats::default();
    }

    /// Number of live entries.
    pub fn live_count(&self) -> usize {
        self.pages.len()
    }

    /// Begin tracking a new stack frame; returns its group.
    pub fn begin_frame(&mut self) -> u32 {
        let g = frame_group(self.frame_stack.len() as u32);
        self.frame_stack.push(g);
        if self.groups.len() <= g as usize {
            self.groups.resize_with(g as usize + 1, Vec::new);
        }
        self.groups[g as usize].clear();
        g
    }

    /// Stop tracking the innermost frame, dropping its entries.
    pub fn end_frame(&mut self) {
        let g = self.frame_stack.pop().expect("end_frame with no frame") as usize;
        for e in self.groups[g].drain(..).flatten() {
            self.pages.remove(e.addr());
            self.live_bytes -= e.size;
        }
    }

    /// Depth of the live frame stack.
    pub fn frame_depth(&self) -> usize {
        self.frame_stack.len()
    }

    /// Register a block, assigning the next index in the group implied by
    /// its segment (globals → 0, heap → 1, stack → innermost frame).
    pub fn register(&mut self, info: &BlockInfo) -> LogicalId {
        let group = match info.segment {
            SegmentKind::Global => GROUP_GLOBAL,
            SegmentKind::Heap => GROUP_HEAP,
            SegmentKind::Stack => *self
                .frame_stack
                .last()
                .expect("stack block registered with no live frame"),
        };
        let index = self.groups[group as usize].len() as u32;
        let id = LogicalId { group, index };
        self.register_at(id, info.slot, info.size, info.ty, info.count);
        id
    }

    /// Register the block behind `slot` under an explicit id (used on
    /// the destination, where the stream dictates heap ids). A block
    /// starting where a live entry starts (in the address space, only a
    /// zero-size block's start) replaces that entry, as the address space
    /// replaces its block.
    pub fn register_at(
        &mut self,
        id: LogicalId,
        slot: BlockSlot,
        size: u64,
        ty: TypeId,
        count: u64,
    ) {
        if self.groups.len() <= id.group as usize {
            self.groups.resize_with(id.group as usize + 1, Vec::new);
        }
        let g = &mut self.groups[id.group as usize];
        if g.len() <= id.index as usize {
            g.resize(id.index as usize + 1, None);
        }
        debug_assert!(
            g[id.index as usize].is_none(),
            "duplicate registration of {id}"
        );
        g[id.index as usize] = Some(MsrltEntry {
            slot,
            size,
            ty,
            count,
            mark: UNVISITED,
        });
        if let Some(replaced) = self.pages.insert(slot.addr(), size, pack_id(id)) {
            self.drop_entry(unpack_id(replaced));
        }
        self.live_bytes += size;
        self.stats.registrations += 1;
    }

    /// Total bytes of currently registered live blocks — the collector
    /// uses this to pre-size its encoder, since the payload is dominated
    /// by the raw bytes of the blocks it will emit.
    pub fn registered_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Reserve heap indices `0..n`: future [`Msrlt::register`] calls for
    /// heap blocks assign indices ≥ `n`. Used on the destination so that
    /// blocks allocated by resumed execution never collide with source
    /// heap ids still pending in un-restored stream sections. `n` comes
    /// off the wire there, so a table the allocator will not grant is a
    /// refusal, not an abort; one it does grant costs an entry per id.
    pub fn try_reserve_heap_indices(&mut self, n: u32) -> Result<(), CoreError> {
        let g = &mut self.groups[GROUP_HEAP as usize];
        if let Some(more) = (n as usize).checked_sub(g.len()) {
            g.try_reserve_exact(more)
                .map_err(|_| CoreError::HeapReservationRefused { requested: n })?;
            g.resize(n as usize, None);
        }
        Ok(())
    }

    /// [`Msrlt::try_reserve_heap_indices`] for a count the caller made
    /// itself (the signature `benchmark/` pins).
    pub fn reserve_heap_indices(&mut self, n: u32) {
        self.try_reserve_heap_indices(n)
            .expect("heap-id table for a locally computed count");
    }

    /// Current length of the heap group (the source-side high-water mark
    /// carried in the execution state).
    pub fn heap_len(&self) -> u32 {
        self.groups[GROUP_HEAP as usize].len() as u32
    }

    /// Drop the entry for the block starting at `addr` (heap `free`);
    /// `None`, and no change, if no live entry starts there.
    pub fn unregister(&mut self, addr: u64) -> Option<LogicalId> {
        let id = unpack_id(self.pages.get(addr)?);
        if self.record(id)?.addr() != addr {
            return None;
        }
        self.pages.remove(addr);
        self.drop_entry(id);
        self.stats.unregistrations += 1;
        Some(id)
    }

    /// Forget entry `id` everywhere but the page index.
    fn drop_entry(&mut self, id: LogicalId) {
        if let Some(e) = self.groups[id.group as usize][id.index as usize].take() {
            self.live_bytes -= e.size;
        }
    }

    /// *The* MSRLT search: find the block containing `addr`, returning its
    /// id and the byte offset of `addr` within it. One page-index probe,
    /// counted as one step.
    pub fn lookup_addr(&mut self, addr: u64) -> Option<(LogicalId, u64)> {
        self.resolve(addr).map(|(id, _, off)| (id, off))
    }

    /// [`Msrlt::lookup_addr`] answering the record it lands on as well,
    /// fetched once: what a caller that goes on to the block's type,
    /// count, handle or visit mark needs.
    #[inline]
    pub(crate) fn resolve(&mut self, addr: u64) -> Option<(LogicalId, MsrltEntry, u64)> {
        self.stats.searches += 1;
        self.stats.search_steps += 1;
        let id = unpack_id(self.pages.get(addr)?);
        let e = *self.record(id)?;
        let off = addr.wrapping_sub(e.addr());
        (addr >= e.addr() && off < e.size).then_some((id, e, off))
    }

    #[inline]
    fn record(&self, id: LogicalId) -> Option<&MsrltEntry> {
        self.groups
            .get(id.group as usize)?
            .get(id.index as usize)?
            .as_ref()
    }

    /// O(1) id→entry translation (the restoration-side operation).
    pub fn entry(&self, id: LogicalId) -> Option<MsrltEntry> {
        self.record(id).copied()
    }

    /// Counted variant of [`Msrlt::entry`] for instrumented paths.
    pub fn entry_counted(&mut self, id: LogicalId) -> Option<MsrltEntry> {
        self.stats.id_lookups += 1;
        self.entry(id)
    }

    /// All live entries with their ids, in id order.
    pub fn live_entries(&self) -> impl Iterator<Item = (LogicalId, MsrltEntry)> + '_ {
        self.groups.iter().enumerate().flat_map(|(group, g)| {
            g.iter().enumerate().filter_map(move |(index, e)| {
                let id = LogicalId {
                    group: group as u32,
                    index: index as u32,
                };
                e.map(|e| (id, e))
            })
        })
    }

    // ----- visit marking (collection-time DFS) -----

    /// Start a new collection: invalidates all visit marks, in O(1)
    /// except once every 2³² − 3 collections, when the epoch wraps and
    /// every mark is cleared so that no old mark can equal a new epoch.
    pub fn begin_epoch(&mut self) {
        self.epoch = self.epoch.checked_add(1).unwrap_or_else(|| {
            for e in self.groups.iter_mut().flatten().flatten() {
                e.mark = UNVISITED;
            }
            // Where a fresh table's first collection runs.
            FRESH_EPOCH.saturating_add(1)
        });
    }

    /// Mark the block visited in the current epoch.
    pub fn mark_visited(&mut self, id: LogicalId) {
        let epoch = self.epoch;
        if let Some(e) = self.groups[id.group as usize][id.index as usize].as_mut() {
            e.mark = epoch;
        }
    }

    /// Whether the block was visited in the current epoch.
    pub fn is_visited(&self, id: LogicalId) -> bool {
        self.record(id).is_some_and(|e| self.visited(e))
    }

    /// Whether `e`, a record fetched in the current epoch, was visited in
    /// it.
    #[inline]
    pub(crate) fn visited(&self, e: &MsrltEntry) -> bool {
        e.mark == self.epoch
    }

    /// Set the epoch, as if that many collections had begun.
    #[cfg(test)]
    pub(crate) fn force_epoch(&mut self, epoch: u32) {
        assert!(epoch > UNVISITED.get());
        self.epoch = NonZeroU32::new(epoch).unwrap();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpm_memory::PAGE_SIZE;

    /// A block the table records without an address space behind it.
    fn info(addr: u64, size: u64, seg: SegmentKind) -> BlockInfo {
        BlockInfo {
            addr,
            ty: TypeId(0),
            count: 1,
            segment: seg,
            name: None,
            frame: None,
            size,
            slot: BlockSlot::unbound(addr),
        }
    }

    #[test]
    fn groups_assign_in_order() {
        let mut m = Msrlt::new();
        let g1 = m.register(&info(0x100, 8, SegmentKind::Global));
        let g2 = m.register(&info(0x200, 8, SegmentKind::Global));
        let h1 = m.register(&info(0x1000, 8, SegmentKind::Heap));
        assert_eq!(g1, LogicalId { group: 0, index: 0 });
        assert_eq!(g2, LogicalId { group: 0, index: 1 });
        assert_eq!(h1, LogicalId { group: 1, index: 0 });
    }

    #[test]
    fn frame_groups_by_depth() {
        let mut m = Msrlt::new();
        assert_eq!(m.begin_frame(), 2);
        let a = m.register(&info(0x7000, 4, SegmentKind::Stack));
        assert_eq!(a.group, 2);
        assert_eq!(m.begin_frame(), 3);
        let b = m.register(&info(0x6000, 4, SegmentKind::Stack));
        assert_eq!(b.group, 3);
        m.end_frame();
        assert!(m.entry(b).is_none());
        assert_eq!(m.lookup_addr(0x6000), None);
        // Re-entering a frame at the same depth reuses group 3.
        assert_eq!(m.begin_frame(), 3);
        let c = m.register(&info(0x6000, 4, SegmentKind::Stack));
        assert_eq!(c, LogicalId { group: 3, index: 0 });
    }

    #[test]
    fn lookup_interior_addresses() {
        let mut m = Msrlt::new();
        let id = m.register(&info(0x1000, 16, SegmentKind::Heap));
        assert_eq!(m.lookup_addr(0x1000), Some((id, 0)));
        assert_eq!(m.lookup_addr(0x100F), Some((id, 15)));
        assert_eq!(m.lookup_addr(0x1010), None);
        assert_eq!(m.lookup_addr(0xFFF), None);
    }

    /// The table against a reference that shares none of its search: a
    /// brute-force scan over `live_entries()`, itself held equal to a
    /// model of what should be live. Seeded register / register_at /
    /// unregister (some at interior addresses, which must change nothing)
    /// and frame push / pop churn, over blocks of 1 byte to several pages
    /// that share pages, tile them and span them, and whose freed ranges
    /// are handed out again. After every step every byte of every block,
    /// and the one past its end, resolves as the scan says.
    #[test]
    fn msrlt_agrees_with_a_reference_scan() {
        fn next(s: &mut u64) -> u64 {
            *s ^= *s << 13;
            *s ^= *s >> 7;
            *s ^= *s << 17;
            *s
        }

        fn check(m: &mut Msrlt, model: &[(u64, u64, LogicalId)]) {
            let live: Vec<(u64, u64, LogicalId)> = m
                .live_entries()
                .map(|(id, e)| (e.addr(), e.size, id))
                .collect();
            let (mut got, mut want) = (live.clone(), model.to_vec());
            got.sort();
            want.sort();
            assert_eq!(got, want, "live_entries");
            assert_eq!(m.live_count(), live.len());
            assert_eq!(m.registered_bytes(), live.iter().map(|e| e.1).sum::<u64>());
            let scan = |x: u64| {
                live.iter()
                    .find(|&&(a, s, _)| a <= x && x < a + s)
                    .map(|&(a, _, id)| (id, x - a))
            };
            for &(a, size, _) in &live {
                for x in a..=a + size {
                    assert_eq!(m.lookup_addr(x), scan(x), "lookup_addr({x:#x})");
                }
            }
        }

        for round in 0..3u64 {
            let mut s = 0x5EA2_C4ED ^ (round << 20);
            let mut m = Msrlt::new();
            // (start, size, id) of every block that should be live.
            let mut model: Vec<(u64, u64, LogicalId)> = Vec::new();
            // Freed heap ranges, handed out again whole or in part.
            let mut holes: Vec<(u64, u64)> = Vec::new();
            // Each live frame's saved stack top and its locals' starts.
            let mut frames: Vec<(u64, Vec<u64>)> = Vec::new();
            let (mut heap_top, mut stack_top, mut global_top) =
                (0x10_0000u64, 0x80_0000u64, 0x1000u64);

            for _ in 0..120 {
                let r = next(&mut s);
                let size = match (r >> 8) % 16 {
                    0..=8 => 1 + (r >> 12) % 16,
                    9..=13 => 17 + (r >> 12) % 400,
                    14 => PAGE_SIZE,
                    _ => PAGE_SIZE - 8 + (r >> 12) % (2 * PAGE_SIZE),
                };
                match r % 12 {
                    // A heap block: into a freed range when one is big
                    // enough, else above the rest after a gap that is
                    // nothing, a few bytes, or the rest of the page.
                    0..=3 => {
                        let at = holes.iter().position(|&(_, len)| len >= size);
                        let addr = match at {
                            Some(i) if (r >> 40).is_multiple_of(2) => holes.swap_remove(i).0,
                            _ => {
                                heap_top += match (r >> 41) % 4 {
                                    0 => 0,
                                    1 => PAGE_SIZE - heap_top % PAGE_SIZE,
                                    _ => (r >> 43) % 24,
                                };
                                heap_top += size;
                                heap_top - size
                            }
                        };
                        let id = if (r >> 50).is_multiple_of(3) {
                            // An id the stream dictates, past the table.
                            let id = LogicalId {
                                group: GROUP_HEAP,
                                index: m.heap_len() + (r >> 52) as u32 % 3,
                            };
                            m.register_at(id, BlockSlot::unbound(addr), size, TypeId(0), 1);
                            id
                        } else {
                            m.register(&info(addr, size, SegmentKind::Heap))
                        };
                        model.push((addr, size, id));
                    }
                    4..=6 => {
                        let heap: Vec<usize> = (0..model.len())
                            .filter(|&i| model[i].2.group == GROUP_HEAP)
                            .collect();
                        if heap.is_empty() {
                            continue;
                        }
                        let i = heap[(r >> 8) as usize % heap.len()];
                        let (addr, size, id) = model[i];
                        if size > 1 && (r >> 40).is_multiple_of(4) {
                            // Inside the block: often the first page start
                            // it runs over, which is a head, not a start.
                            let boundary = (addr | (PAGE_SIZE - 1)) + 1;
                            let inner = if boundary < addr + size && (r >> 42).is_multiple_of(2) {
                                boundary
                            } else {
                                addr + 1 + (r >> 43) % (size - 1)
                            };
                            assert_eq!(m.unregister(inner), None, "interior {inner:#x}");
                        } else {
                            assert_eq!(m.unregister(addr), Some(id));
                            model.swap_remove(i);
                            holes.push((addr, size));
                        }
                    }
                    // A frame of one to four locals below the stack top;
                    // popping it hands their range to the next frame.
                    7 | 8 => {
                        let g = m.begin_frame();
                        let (saved, mut locals) = (stack_top, Vec::new());
                        for k in 0..1 + (r >> 40) % 4 {
                            let size = 1 + (r >> (44 + 4 * k)) % 48;
                            stack_top -= size + (r >> (46 + 4 * k)) % 4;
                            let id = m.register(&info(stack_top, size, SegmentKind::Stack));
                            assert_eq!(id.group, g);
                            model.push((stack_top, size, id));
                            locals.push(stack_top);
                        }
                        frames.push((saved, locals));
                    }
                    9 | 10 => {
                        if let Some((saved, locals)) = frames.pop() {
                            m.end_frame();
                            model.retain(|e| !locals.contains(&e.0));
                            stack_top = saved;
                        }
                    }
                    _ => {
                        let size = 1 + (r >> 12) % 64;
                        let id = m.register(&info(global_top, size, SegmentKind::Global));
                        model.push((global_top, size, id));
                        global_top += size + (r >> 40) % 8;
                    }
                }
                check(&mut m, &model);
            }
            let st = m.stats();
            assert_eq!(st.search_steps, st.searches, "one probe per search");
        }
    }

    #[test]
    fn every_search_is_one_probe() {
        let mut m = Msrlt::new();
        for i in 0..4096u64 {
            m.register(&info(0x1000 + i * 16, 16, SegmentKind::Heap));
        }
        m.reset_stats();
        for i in (0..4096u64).step_by(97) {
            assert!(m.lookup_addr(0x1000 + i * 16 + 4).is_some());
        }
        assert_eq!(m.lookup_addr(0x10), None, "a wild probe is one probe too");
        let s = m.stats();
        assert_eq!(s.searches, 4096 / 97 + 2);
        assert_eq!(s.search_steps, s.searches);
    }

    #[test]
    fn whole_page_blocks_resolve_via_page_index() {
        let mut m = Msrlt::new();
        // Page-aligned block covering three whole pages plus a tail.
        let id = m.register(&info(0x10000, 3 * PAGE_SIZE + 32, SegmentKind::Heap));
        assert_eq!(
            m.lookup_addr(0x10000 + PAGE_SIZE + 8),
            Some((id, PAGE_SIZE + 8))
        );
        assert_eq!(m.lookup_addr(0x10000 + 3 * PAGE_SIZE + 8).unwrap().0, id);
        m.unregister(0x10000);
        assert_eq!(m.lookup_addr(0x10000 + PAGE_SIZE), None);
    }

    #[test]
    fn one_byte_neighbours_resolve_through_the_page_index() {
        let mut m = Msrlt::new();
        // Two 1-byte blocks inside one 4-byte word: the page's cell lists
        // both starts, so each resolves to itself.
        let a = m.register(&info(0x1000, 1, SegmentKind::Heap));
        let b = m.register(&info(0x1001, 1, SegmentKind::Heap));
        assert_eq!(m.lookup_addr(0x1000), Some((a, 0)));
        assert_eq!(m.lookup_addr(0x1001), Some((b, 0)));
        m.unregister(0x1001);
        assert_eq!(
            m.lookup_addr(0x1000),
            Some((a, 0)),
            "survivor must resolve after its neighbour is freed"
        );
        assert_eq!(m.lookup_addr(0x1001), None);
    }

    #[test]
    fn a_block_at_a_zero_size_blocks_start_replaces_it() {
        let mut m = Msrlt::new();
        // An `int[0]` global, then a global at its address.
        let z = m.register(&info(0x100, 0, SegmentKind::Global));
        assert_eq!(
            m.lookup_addr(0x100),
            None,
            "a zero-size block holds no byte"
        );
        let g = m.register(&info(0x100, 4, SegmentKind::Global));
        assert_eq!(g.index, z.index + 1, "ids still follow definition order");
        assert!(m.entry(z).is_none());
        assert_eq!(m.lookup_addr(0x103), Some((g, 3)));
        assert_eq!((m.live_count(), m.registered_bytes()), (1, 4));
        assert_eq!(m.live_entries().count(), 1);
    }

    #[test]
    fn unregister_removes() {
        let mut m = Msrlt::new();
        let id = m.register(&info(0x1000, 16, SegmentKind::Heap));
        assert_eq!(m.unregister(0x1008), None, "not a block start");
        assert_eq!(m.unregister(0x1000), Some(id));
        assert_eq!(m.lookup_addr(0x1008), None);
        assert!(m.entry(id).is_none());
        assert_eq!(m.unregister(0x1000), None);
    }

    #[test]
    fn heap_index_not_reused_after_free() {
        let mut m = Msrlt::new();
        let a = m.register(&info(0x1000, 16, SegmentKind::Heap));
        m.unregister(0x1000);
        let b = m.register(&info(0x1000, 16, SegmentKind::Heap));
        assert_ne!(a, b, "a freed id must not be recycled within a run");
    }

    #[test]
    fn visit_marks_reset_per_epoch() {
        let mut m = Msrlt::new();
        let id = m.register(&info(0x1000, 16, SegmentKind::Heap));
        m.begin_epoch();
        assert!(!m.is_visited(id));
        m.mark_visited(id);
        assert!(m.is_visited(id));
        m.begin_epoch();
        assert!(!m.is_visited(id), "new epoch must clear marks");
    }

    #[test]
    fn register_at_sparse_destination() {
        let mut m = Msrlt::new();
        // Stream delivers heap ids out of order and sparse.
        for (index, addr) in [(7, 0x1000), (2, 0x2000)] {
            let (id, slot) = (LogicalId { group: 1, index }, BlockSlot::unbound(addr));
            m.register_at(id, slot, 8, TypeId(0), 1);
        }
        assert!(m.entry(LogicalId { group: 1, index: 7 }).is_some());
        assert!(m.entry(LogicalId { group: 1, index: 2 }).is_some());
        assert!(m.entry(LogicalId { group: 1, index: 3 }).is_none());
        assert_eq!(
            m.lookup_addr(0x2004).unwrap().0,
            LogicalId { group: 1, index: 2 }
        );
    }

    #[test]
    fn freed_then_reallocated_range_resolves_to_the_new_block() {
        let mut m = Msrlt::new();
        let a = m.register(&info(0x1000, 16, SegmentKind::Heap));
        assert_eq!(m.lookup_addr(0x1008).unwrap().0, a);
        m.unregister(0x1000);
        assert_eq!(m.lookup_addr(0x1008), None, "freed block must not resolve");
        // Same address range re-registered under a new id.
        let b = m.register(&info(0x1000, 16, SegmentKind::Heap));
        assert_ne!(a, b);
        assert_eq!(m.lookup_addr(0x1008).unwrap().0, b);
    }

    #[test]
    fn registered_bytes_tracks_live_blocks() {
        let mut m = Msrlt::new();
        assert_eq!(m.registered_bytes(), 0);
        m.register(&info(0x100, 8, SegmentKind::Global));
        m.register(&info(0x1000, 24, SegmentKind::Heap));
        assert_eq!(m.registered_bytes(), 32);
        m.unregister(0x1000);
        assert_eq!(m.registered_bytes(), 8);
        // Frame pop path (end_frame bypasses unregister).
        m.begin_frame();
        m.register(&info(0x7000, 16, SegmentKind::Stack));
        assert_eq!(m.registered_bytes(), 24);
        m.end_frame();
        assert_eq!(m.registered_bytes(), 8);
    }

    #[test]
    fn live_entries_iterates_all() {
        let mut m = Msrlt::new();
        m.register(&info(0x100, 8, SegmentKind::Global));
        m.register(&info(0x1000, 8, SegmentKind::Heap));
        assert_eq!(m.live_entries().count(), 2);
        assert_eq!(m.live_count(), 2);
    }
}
