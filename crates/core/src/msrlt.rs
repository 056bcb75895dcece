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
//! the address→id direction is `O(1)` too, and the table keeps no address
//! structure of its own: `Msrlt::resolve` is one probe of the address
//! space's index ([`AddressSpace::resolve`], which answers the
//! block's handle, its arena record and the offset) and one read of a
//! 12-byte record kept at the block's arena slot, which holds its id and
//! visit mark. So a process has one address → block map and one record of
//! each block's address, size, type and count: the space's. The table
//! itself holds the two directions between ids and blocks — per id the
//! block's handle and size (the restorer's direction), per arena slot the
//! id and mark (the collector's). [`Msrlt::lookup_addr`] is a cold shim
//! for callers without the space. The table holds block facts only: an
//! image's type numbering is the restore's
//! ([`ImageTypes`](crate::ImageTypes)), and what a coherent registry is,
//! the audit's ([`crate::audit`]).

use crate::CoreError;
use hpm_arch::SegmentKind;
use hpm_memory::{AddressSpace, BlockInfo, BlockSlot};
use hpm_types::TypeId;
use std::num::NonZeroU32;

/// Group number of the global-variable group.
pub const GROUP_GLOBAL: u32 = 0;
/// Group number of the heap group.
pub const GROUP_HEAP: u32 = 1;

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

/// One MSRLT record at a block's id (which is the record's position, so
/// the record does not repeat it): the block's handle, taken at
/// registration, and its size on this machine. The block's type and
/// count are its arena record's, which the handle reaches. 24 bytes,
/// and 24 as an `Option` too.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsrltEntry {
    /// Handle to the block in the address space; its address is the
    /// block's machine-specific start address.
    slot: BlockSlot,
    /// Block size in bytes on this machine.
    pub size: u64,
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

/// What the table holds at a registered block's arena slot: its id and
/// the epoch of the collection that last visited it. 12 bytes, and 12
/// as an `Option` too: the mark is never 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SlotRecord {
    id: LogicalId,
    mark: NonZeroU32,
}

/// An address resolved to its registered block: what the collector, the
/// digest pass, the graph snapshot and the audit go on with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Hit {
    pub(crate) id: LogicalId,
    pub(crate) slot: BlockSlot,
    pub(crate) ty: TypeId,
    pub(crate) count: u64,
    /// The block's size in the space, from the arena record.
    pub(crate) size: u64,
    /// Byte offset of the address within the block.
    pub(crate) offset: u64,
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
    /// `slots[n]` is the registration of the block in arena slot `n`;
    /// `None` where no live id names the slot's block.
    slots: Vec<Option<SlotRecord>>,
    /// Start and id of every live zero-size registration: the only
    /// blocks another block may start at, replacing them.
    empty: Vec<(u64, LogicalId)>,
    /// Live frame groups (innermost last).
    frame_stack: Vec<u32>,
    /// The current collection's visit epoch, above [`UNVISITED`].
    epoch: NonZeroU32,
    stats: MsrltStats,
    /// Number of live entries.
    live: usize,
    /// Total bytes of live registered blocks (collector pre-sizing hint).
    live_bytes: u64,
    /// [`Msrlt::lookup_addr`]'s `(start, size, id)` of every live entry
    /// by start, and whether a registration has changed since it was
    /// built.
    by_start: Vec<(u64, u64, LogicalId)>,
    by_start_stale: bool,
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
            slots: Vec::new(),
            empty: Vec::new(),
            frame_stack: Vec::new(),
            epoch: FRESH_EPOCH,
            stats: MsrltStats::default(),
            live: 0,
            live_bytes: 0,
            by_start: Vec::new(),
            by_start_stale: false,
        }
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
        self.live
    }

    /// Begin tracking a new stack frame; returns its group.
    pub fn begin_frame(&mut self) -> u32 {
        let g = frame_group(self.frame_stack.len() as u32);
        self.frame_stack.push(g);
        if self.groups.len() <= g as usize {
            self.groups.resize_with(g as usize + 1, Vec::new);
        }
        self.clear_group(g as usize);
        g
    }

    /// Stop tracking the innermost frame, dropping its entries.
    pub fn end_frame(&mut self) {
        let g = self.frame_stack.pop().expect("end_frame with no frame");
        self.clear_group(g as usize);
    }

    /// Forget every entry of group `g`, keeping the group's allocation.
    fn clear_group(&mut self, g: usize) {
        let mut group = std::mem::take(&mut self.groups[g]);
        for (index, e) in group.drain(..).enumerate() {
            if let Some(e) = e {
                let id = LogicalId {
                    group: g as u32,
                    index: index as u32,
                };
                self.forget(id, e);
            }
        }
        self.groups[g] = group;
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
        self.register_at(id, info.slot, info.size);
        id
    }

    /// Register the block behind `slot`, of `size` bytes, under an
    /// explicit id (used on the destination, where the stream dictates
    /// heap ids). A block registered again keeps only its new id, and a
    /// block starting where a zero-size registration starts replaces
    /// it, as the address space replaces its block.
    pub fn register_at(&mut self, id: LogicalId, slot: BlockSlot, size: u64) {
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
        g[id.index as usize] = Some(MsrltEntry { slot, size });
        self.live += 1;
        self.live_bytes += size;
        self.stats.registrations += 1;
        self.by_start_stale = true;
        let n = slot.number();
        if self.slots.len() <= n {
            self.slots.resize(n + 1, None);
        }
        let mark = UNVISITED;
        let again = self.slots[n].replace(SlotRecord { id, mark }).map(|r| r.id);
        if let Some(i) = self.empty.iter().position(|&(at, _)| at == slot.addr()) {
            let (_, shadowed) = self.empty.swap_remove(i);
            self.drop_entry(shadowed);
        }
        if let Some(old) = again {
            self.drop_entry(old);
        }
        if size == 0 {
            self.empty.push((slot.addr(), id));
        }
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

    /// Drop the entry of the block that starts at `addr` in `space`
    /// (heap `free`, before the space frees it); `None`, and no change,
    /// if no registered block starts there.
    pub fn unregister(&mut self, space: &AddressSpace, addr: u64) -> Option<LogicalId> {
        let n = space.slot_at(addr)?.number();
        let id = self.slots.get(n).copied().flatten()?.id;
        self.drop_entry(id);
        self.stats.unregistrations += 1;
        Some(id)
    }

    /// Drop entry `id`, if it is live.
    fn drop_entry(&mut self, id: LogicalId) {
        if let Some(e) = self.groups[id.group as usize][id.index as usize].take() {
            self.forget(id, e);
        }
    }

    /// Forget `id`, whose entry `e` the caller has taken out of its
    /// group.
    fn forget(&mut self, id: LogicalId, e: MsrltEntry) {
        self.live -= 1;
        self.live_bytes -= e.size;
        self.by_start_stale = true;
        let rec = &mut self.slots[e.slot.number()];
        if rec.is_some_and(|r| r.id == id) {
            *rec = None;
        }
        if e.size == 0 {
            self.empty.retain(|&(_, z)| z != id);
        }
    }

    /// *The* MSRLT search: the registered block containing `addr` in
    /// `space`, with its id, handle, type, count and `addr`'s byte offset
    /// in it. One probe of the space's page index, counted as one step,
    /// and one read of the slot's record. A block the table does not
    /// name — never registered, or dropped, or one that took a dropped
    /// block's address — is a miss.
    #[inline]
    pub(crate) fn resolve(&mut self, space: &AddressSpace, addr: u64) -> Option<Hit> {
        self.stats.searches += 1;
        self.stats.search_steps += 1;
        let (slot, b, offset) = space.resolve(addr)?;
        let rec = (*self.slots.get(slot.number())?)?;
        Some(Hit {
            id: rec.id,
            slot,
            ty: b.ty,
            count: b.count,
            size: b.size,
            offset,
        })
    }

    /// Start loading the entry of `id`, which [`Msrlt::entry`] reads: a
    /// prefetch stage, which counts no lookup.
    #[inline]
    pub(crate) fn prefetch_entry(&self, id: LogicalId) {
        let group = self.groups.get(id.group as usize);
        if let Some(e) = group.and_then(|g| g.get(id.index as usize)) {
            hpm_memory::prefetch(e);
        }
    }

    /// The id the table holds at `slot`'s arena slot, if any: a cold
    /// read, for naming the block a collection error happened in.
    pub(crate) fn id_at(&self, slot: BlockSlot) -> Option<LogicalId> {
        Some(self.slots.get(slot.number()).copied().flatten()?.id)
    }

    /// The block containing `addr` and `addr`'s offset in it, for a
    /// caller without the address space. A cold shim: it is kept only
    /// for `benchmark/src/layers.rs`, which times it as
    /// `core.msrlt_lookup`, no migration path calls it, and ROADMAP item
    /// 1c deletes it. It answers from the table's own records, a
    /// start-sorted copy of every live entry rebuilt on the first call
    /// after a registration changed, and counts no search.
    pub fn lookup_addr(&mut self, addr: u64) -> Option<(LogicalId, u64)> {
        if self.by_start_stale {
            let mut by_start = std::mem::take(&mut self.by_start);
            by_start.clear();
            by_start.extend(self.live_entries().map(|(id, e)| (e.addr(), e.size, id)));
            by_start.sort_unstable();
            self.by_start = by_start;
            self.by_start_stale = false;
        }
        let below = self.by_start.partition_point(|&(at, ..)| at <= addr);
        let (start, size, id) = self.by_start[below.checked_sub(1)?];
        let offset = addr - start;
        (offset < size).then_some((id, offset))
    }

    /// O(1) id→entry translation (the restoration-side operation).
    pub fn entry(&self, id: LogicalId) -> Option<MsrltEntry> {
        *self.groups.get(id.group as usize)?.get(id.index as usize)?
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
            for rec in self.slots.iter_mut().flatten() {
                rec.mark = UNVISITED;
            }
            // Where a fresh table's first collection runs.
            FRESH_EPOCH.saturating_add(1)
        });
    }

    /// Mark the registered block behind `slot` (a [`Hit`]'s) visited in
    /// the current epoch, answering whether this is its first visit.
    #[inline]
    pub(crate) fn visit(&mut self, slot: BlockSlot) -> bool {
        let epoch = self.epoch;
        match &mut self.slots[slot.number()] {
            Some(rec) if rec.mark == epoch => false,
            Some(rec) => {
                rec.mark = epoch;
                true
            }
            None => true,
        }
    }

    /// Whether block `id` was visited in the current epoch.
    #[cfg(test)]
    pub(crate) fn is_visited(&self, id: LogicalId) -> bool {
        let n = self.entry(id).map(|e| e.slot.number());
        n.and_then(|n| self.slots[n])
            .is_some_and(|r| r.mark == self.epoch)
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
    use hpm_arch::Architecture;
    use hpm_memory::{FrameId, PAGE_SIZE};

    /// An empty space on the SPARC 20 preset with its `char`, `int` and
    /// `double` types, and an empty table.
    fn setup() -> (AddressSpace, Msrlt, [TypeId; 3]) {
        let mut s = AddressSpace::new(Architecture::sparc20());
        let t = s.types_mut();
        let types = [t.char_(), t.int(), t.double()];
        (s, Msrlt::new(), types)
    }

    fn reg(m: &mut Msrlt, s: &AddressSpace, addr: u64) -> LogicalId {
        m.register(&s.info_at(addr).expect("block exists"))
    }

    /// `resolve` and the `lookup_addr` shim, held equal: the one answer.
    fn find(m: &mut Msrlt, s: &AddressSpace, addr: u64) -> Option<(LogicalId, u64)> {
        let got = m.resolve(s, addr).map(|h| (h.id, h.offset));
        assert_eq!(m.lookup_addr(addr), got, "shim vs resolve at {addr:#x}");
        got
    }

    #[test]
    fn groups_assign_in_order() {
        let (mut s, mut m, [_, int, _]) = setup();
        let a = s.define_global("a", int, 1).unwrap();
        let b = s.define_global("b", int, 1).unwrap();
        let h = s.malloc(int, 2).unwrap();
        let [g1, g2, h1] = [a, b, h].map(|x| reg(&mut m, &s, x));
        assert_eq!(g1, LogicalId { group: 0, index: 0 });
        assert_eq!(g2, LogicalId { group: 0, index: 1 });
        assert_eq!(h1, LogicalId { group: 1, index: 0 });
    }

    #[test]
    fn frame_groups_by_depth() {
        let (mut s, mut m, [_, int, _]) = setup();
        let f2 = s.push_frame("main");
        assert_eq!(m.begin_frame(), 2);
        let x = s.define_local(f2, "x", int, 1).unwrap();
        assert_eq!(reg(&mut m, &s, x).group, 2);
        let f3 = s.push_frame("f");
        assert_eq!(m.begin_frame(), 3);
        let y = s.define_local(f3, "y", int, 1).unwrap();
        let b = reg(&mut m, &s, y);
        assert_eq!(b.group, 3);
        m.end_frame();
        s.pop_frame(f3).unwrap();
        assert!(m.entry(b).is_none());
        assert_eq!(find(&mut m, &s, y), None);
        // Re-entering a frame at the same depth reuses group 3.
        let f3 = s.push_frame("g");
        assert_eq!(m.begin_frame(), 3);
        let z = s.define_local(f3, "z", int, 1).unwrap();
        assert_eq!(z, y, "the popped frame's bytes again");
        assert_eq!(reg(&mut m, &s, z), LogicalId { group: 3, index: 0 });
    }

    #[test]
    fn lookup_interior_addresses() {
        let (mut s, mut m, [ch, ..]) = setup();
        let a = s.malloc(ch, 16).unwrap();
        let id = reg(&mut m, &s, a);
        assert_eq!(find(&mut m, &s, a), Some((id, 0)));
        assert_eq!(find(&mut m, &s, a + 15), Some((id, 15)));
        assert_eq!(find(&mut m, &s, a + 16), None);
        assert_eq!(find(&mut m, &s, a - 1), None);
    }

    /// Three answers against each other: `resolve` through the space's
    /// index, the `lookup_addr` shim over the table's own records, and a
    /// brute-force scan over a model of what should be live, which also
    /// holds `live_entries`, `live_count` and `registered_bytes`. Seeded
    /// malloc / free / re-malloc of the shape just freed (which first
    /// fit often puts back at the same address), some of it behind the
    /// table's back, ids the stream dictates past the heap table,
    /// interior unregisters that must change nothing, frame push / pop
    /// over the bytes the last frame left, and zero-size globals that a
    /// global at their address replaces, over blocks of 1 byte to
    /// several pages that share pages, tile them and span them. After
    /// every step every byte of every block, and the one past its end,
    /// resolves as the scan says; no byte of a block the table was not
    /// told of resolves; and an address whose block was freed resolves
    /// to its new registration or not at all, never to the freed id.
    #[test]
    fn resolve_the_shim_and_a_scan_agree() {
        fn next(s: &mut u64) -> u64 {
            *s ^= *s << 13;
            *s ^= *s >> 7;
            *s ^= *s << 17;
            *s
        }

        /// (start, size, id) of every block that should be live, the
        /// (start, id) of every freed heap registration (a popped
        /// local's id comes back with the next frame at its depth), and
        /// (start, size) of the heap blocks no id names.
        #[derive(Default)]
        struct Model {
            live: Vec<(u64, u64, LogicalId)>,
            dead: Vec<(u64, LogicalId)>,
            unnamed: Vec<(u64, u64)>,
        }

        fn check(m: &mut Msrlt, space: &AddressSpace, model: &Model) {
            let listed: Vec<(u64, u64, LogicalId)> = m
                .live_entries()
                .map(|(id, e)| (e.addr(), e.size, id))
                .collect();
            let (mut got, mut want) = (listed, model.live.clone());
            got.sort();
            want.sort();
            assert_eq!(got, want, "live_entries");
            assert_eq!(m.live_count(), want.len());
            let bytes: u64 = want.iter().map(|e| e.1).sum();
            assert_eq!(m.registered_bytes(), bytes);
            let scan = |x: u64| {
                want.iter()
                    .find(|&&(a, s, _)| a <= x && x < a + s)
                    .map(|&(a, _, id)| (id, x - a))
            };
            for &(a, size, _) in &want {
                for x in a..=a + size {
                    assert_eq!(find(m, space, x), scan(x), "at {x:#x}");
                }
            }
            for &(a, old) in &model.dead {
                assert_ne!(find(m, space, a).map(|r| r.0), Some(old), "freed {old}");
            }
            for &(a, size) in &model.unnamed {
                for x in a..a + size {
                    assert_eq!(find(m, space, x), None, "unregistered {x:#x}");
                }
            }
        }

        for round in 0..3u64 {
            let mut r = 0x5EA2_C4ED ^ (round << 20);
            let (mut space, mut m, [ch, int, dbl]) = setup();
            let empty = space.types_mut().array_of(int, 0);
            let mut model = Model::default();
            let mut frames: Vec<(FrameId, Vec<u64>)> = Vec::new();

            let malloc =
                |space: &mut AddressSpace, m: &mut Msrlt, model: &mut Model, ty, n, k: u64| {
                    let slot = space.malloc_slot(ty, n).unwrap();
                    let size = space.slot_block(slot).unwrap().size;
                    if k % 8 == 7 {
                        // Allocated behind the table's back, often where
                        // a freed registration was.
                        model.unnamed.push((slot.addr(), size));
                        return (ty, n);
                    }
                    let id = if k.is_multiple_of(3) {
                        // An id the stream dictates, past the table.
                        let index = m.heap_len() + (k >> 2) as u32 % 3;
                        let id = LogicalId {
                            group: GROUP_HEAP,
                            index,
                        };
                        m.register_at(id, slot, size);
                        id
                    } else {
                        reg(m, space, slot.addr())
                    };
                    model.live.push((slot.addr(), size, id));
                    (ty, n)
                };
            let free = |space: &mut AddressSpace, m: &mut Msrlt, model: &mut Model, pick: u64| {
                let heap: Vec<usize> = (0..model.live.len())
                    .filter(|&i| model.live[i].2.group == GROUP_HEAP)
                    .collect();
                let i = *heap.get(pick as usize % heap.len().max(1))?;
                let (addr, _, id) = model.live.swap_remove(i);
                let b = *space.block_at(addr).unwrap();
                assert_eq!(m.unregister(space, addr), Some(id));
                space.free(addr).unwrap();
                model.dead.push((addr, id));
                Some((b.ty, b.count))
            };

            for _ in 0..120 {
                let x = next(&mut r);
                let (ty, n) = match (x >> 8) % 16 {
                    0..=8 => (ch, 1 + (x >> 12) % 16),
                    9..=12 => (int, 4 + (x >> 12) % 100),
                    13 => (ch, PAGE_SIZE),
                    _ => (dbl, PAGE_SIZE / 8 - 1 + (x >> 12) % (PAGE_SIZE / 4)),
                };
                match x % 13 {
                    0..=3 => {
                        malloc(&mut space, &mut m, &mut model, ty, n, x >> 40);
                    }
                    4 | 5 => {
                        free(&mut space, &mut m, &mut model, x >> 8);
                    }
                    6 => {
                        if let Some((ty, n)) = free(&mut space, &mut m, &mut model, x >> 8) {
                            malloc(&mut space, &mut m, &mut model, ty, n, x >> 40);
                        }
                    }
                    7 => {
                        // Inside a block: often the first page start it
                        // runs over, which is a head, not a start.
                        let Some(&(a, size, _)) =
                            model.live.get((x >> 8) as usize % model.live.len().max(1))
                        else {
                            continue;
                        };
                        if size > 1 {
                            let boundary = (a | (PAGE_SIZE - 1)) + 1;
                            let inner = if boundary < a + size && (x >> 42).is_multiple_of(2) {
                                boundary
                            } else {
                                a + 1 + (x >> 43) % (size - 1)
                            };
                            assert_eq!(m.unregister(&space, inner), None, "interior {inner:#x}");
                        }
                    }
                    8 | 9 => {
                        let f = space.push_frame("f");
                        let g = m.begin_frame();
                        let mut locals = Vec::new();
                        for k in 0..1 + (x >> 40) % 4 {
                            let (ty, n) =
                                [(ch, 3), (int, 5), (dbl, 2)][((x >> (44 + 2 * k)) % 3) as usize];
                            let a = space.define_local(f, "l", ty, n).unwrap();
                            let id = reg(&mut m, &space, a);
                            assert_eq!(id.group, g);
                            model.live.push((a, space.block_at(a).unwrap().size, id));
                            locals.push(a);
                        }
                        frames.push((f, locals));
                    }
                    10 | 11 => {
                        if let Some((f, locals)) = frames.pop() {
                            m.end_frame();
                            space.pop_frame(f).unwrap();
                            model.live.retain(|e| !locals.contains(&e.0));
                        }
                    }
                    _ => {
                        // A zero-size global, and often a global at its
                        // address that replaces it.
                        let z = space.define_global("z", empty, 1).unwrap();
                        // It replaces a zero-size global left at its address.
                        model.live.retain(|e| (e.0, e.1) != (z, 0));
                        let zid = reg(&mut m, &space, z);
                        model.live.push((z, 0, zid));
                        if !(x >> 9).is_multiple_of(3) {
                            let ty = [int, ch][(x >> 8) as usize % 2];
                            let g = space.define_global("g", ty, 1).unwrap();
                            assert_eq!(g, z);
                            let id = reg(&mut m, &space, g);
                            assert!(m.entry(zid).is_none(), "{zid} not replaced");
                            model.live.retain(|e| e.2 != zid);
                            model.live.push((g, space.block_at(g).unwrap().size, id));
                        }
                    }
                }
                check(&mut m, &space, &model);
            }
            let st = m.stats();
            assert!(st.searches > 0);
            assert_eq!(st.search_steps, st.searches, "one probe per search");
        }
    }

    #[test]
    fn every_resolve_is_one_probe_and_the_shim_counts_none() {
        let (mut s, mut m, [ch, ..]) = setup();
        for _ in 0..4096 {
            let a = s.malloc(ch, 16).unwrap();
            reg(&mut m, &s, a);
        }
        let base = s.block_infos()[0].addr;
        m.reset_stats();
        for i in (0..4096u64).step_by(97) {
            assert!(m.resolve(&s, base + i * 16 + 4).is_some());
        }
        assert!(
            m.resolve(&s, 0x10).is_none(),
            "a wild probe is one probe too"
        );
        let st = m.stats();
        assert_eq!(st.searches, 4096 / 97 + 2);
        assert_eq!(st.search_steps, st.searches);
        assert!(m.lookup_addr(base + 4).is_some());
        assert_eq!(m.stats().searches, st.searches, "the shim is not a search");
    }

    #[test]
    fn whole_page_blocks_resolve_via_page_index() {
        let (mut s, mut m, [ch, ..]) = setup();
        // Page-aligned block covering three whole pages plus a tail.
        let a = s.malloc(ch, 3 * PAGE_SIZE + 32).unwrap();
        assert_eq!(a % PAGE_SIZE, 0);
        let id = reg(&mut m, &s, a);
        let mid = a + PAGE_SIZE + 8;
        assert_eq!(find(&mut m, &s, mid), Some((id, PAGE_SIZE + 8)));
        assert_eq!(find(&mut m, &s, a + 3 * PAGE_SIZE + 8).unwrap().0, id);
        m.unregister(&s, a);
        assert_eq!(find(&mut m, &s, a + PAGE_SIZE), None);
    }

    #[test]
    fn one_byte_neighbours_resolve_through_the_page_index() {
        let (mut s, mut m, [ch, ..]) = setup();
        // Two 1-byte blocks inside one 4-byte word: the page's cell lists
        // both starts, so each resolves to itself.
        let x = s.malloc(ch, 1).unwrap();
        let y = s.malloc(ch, 1).unwrap();
        assert_eq!(y, x + 1);
        let [a, b] = [x, y].map(|p| reg(&mut m, &s, p));
        assert_eq!(find(&mut m, &s, x), Some((a, 0)));
        assert_eq!(find(&mut m, &s, y), Some((b, 0)));
        assert_eq!(m.unregister(&s, y), Some(b));
        s.free(y).unwrap();
        assert_eq!(
            find(&mut m, &s, x),
            Some((a, 0)),
            "survivor must resolve after its neighbour is freed"
        );
        assert_eq!(find(&mut m, &s, y), None);
    }

    #[test]
    fn a_block_at_a_zero_size_blocks_start_replaces_it() {
        let (mut s, mut m, [_, int, _]) = setup();
        // An `int[0]` global, then a global at its address.
        let empty = s.types_mut().array_of(int, 0);
        let at = s.define_global("z", empty, 1).unwrap();
        let z = reg(&mut m, &s, at);
        assert_eq!(
            find(&mut m, &s, at),
            None,
            "a zero-size block holds no byte"
        );
        assert_eq!(s.define_global("g", int, 1).unwrap(), at);
        let g = reg(&mut m, &s, at);
        assert_eq!(g.index, z.index + 1, "ids still follow definition order");
        assert!(m.entry(z).is_none());
        assert_eq!(find(&mut m, &s, at + 3), Some((g, 3)));
        assert_eq!((m.live_count(), m.registered_bytes()), (1, 4));
        assert_eq!(m.live_entries().count(), 1);
    }

    #[test]
    fn unregister_removes() {
        let (mut s, mut m, [ch, ..]) = setup();
        let a = s.malloc(ch, 16).unwrap();
        let id = reg(&mut m, &s, a);
        assert_eq!(m.unregister(&s, a + 8), None, "not a block start");
        assert_eq!(m.unregister(&s, a), Some(id));
        assert_eq!(find(&mut m, &s, a + 8), None);
        assert!(m.entry(id).is_none());
        assert_eq!(m.unregister(&s, a), None);
    }

    #[test]
    fn heap_index_not_reused_after_free() {
        let (mut s, mut m, [ch, ..]) = setup();
        let x = s.malloc(ch, 16).unwrap();
        let a = reg(&mut m, &s, x);
        m.unregister(&s, x);
        s.free(x).unwrap();
        assert_eq!(s.malloc(ch, 16).unwrap(), x);
        let b = reg(&mut m, &s, x);
        assert_ne!(a, b, "a freed id must not be recycled within a run");
    }

    #[test]
    fn visit_marks_reset_per_epoch() {
        let (mut s, mut m, [ch, ..]) = setup();
        let x = s.malloc(ch, 16).unwrap();
        let id = reg(&mut m, &s, x);
        let slot = m.entry(id).unwrap().slot();
        m.begin_epoch();
        assert!(!m.is_visited(id));
        assert!(m.visit(slot), "first visit");
        assert!(!m.visit(slot), "second visit");
        assert!(m.is_visited(id));
        m.begin_epoch();
        assert!(!m.is_visited(id), "new epoch must clear marks");
    }

    #[test]
    fn register_at_sparse_destination() {
        let (mut s, mut m, [ch, ..]) = setup();
        // Stream delivers heap ids out of order and sparse.
        let mut at = Vec::new();
        for index in [7, 2] {
            let slot = s.malloc_slot(ch, 8).unwrap();
            m.register_at(LogicalId { group: 1, index }, slot, 8);
            at.push(slot.addr());
        }
        assert!(m.entry(LogicalId { group: 1, index: 7 }).is_some());
        assert!(m.entry(LogicalId { group: 1, index: 2 }).is_some());
        assert!(m.entry(LogicalId { group: 1, index: 3 }).is_none());
        assert_eq!(
            find(&mut m, &s, at[1] + 4).unwrap().0,
            LogicalId { group: 1, index: 2 }
        );
    }

    #[test]
    fn freed_then_reallocated_range_resolves_to_the_new_block() {
        let (mut s, mut m, [ch, ..]) = setup();
        let x = s.malloc(ch, 16).unwrap();
        let a = reg(&mut m, &s, x);
        assert_eq!(find(&mut m, &s, x + 8).unwrap().0, a);
        m.unregister(&s, x);
        s.free(x).unwrap();
        assert_eq!(
            find(&mut m, &s, x + 8),
            None,
            "freed block must not resolve"
        );
        // Same address range handed out again: unregistered, it is not
        // found; registered, it is found under its new id.
        assert_eq!(s.malloc(ch, 16).unwrap(), x);
        assert_eq!(find(&mut m, &s, x + 8), None);
        let b = reg(&mut m, &s, x);
        assert_ne!(a, b);
        assert_eq!(find(&mut m, &s, x + 8).unwrap().0, b);
    }

    #[test]
    fn a_block_freed_behind_the_tables_back_is_refused_at_its_address() {
        let (mut s, mut m, [ch, ..]) = setup();
        let x = s.malloc(ch, 16).unwrap();
        let old = reg(&mut m, &s, x);
        s.free(x).unwrap();
        assert_eq!(s.malloc(ch, 16).unwrap(), x);
        assert!(m.resolve(&s, x + 8).is_none(), "the old id must not answer");
        assert_eq!(m.unregister(&s, x), None, "the new block is not registered");
        assert!(
            m.entry(old).is_some(),
            "the stale record is the table's own"
        );
    }

    #[test]
    fn registered_bytes_tracks_live_blocks() {
        let (mut s, mut m, [ch, ..]) = setup();
        assert_eq!(m.registered_bytes(), 0);
        let g = s.define_global("g", ch, 8).unwrap();
        reg(&mut m, &s, g);
        let h = s.malloc(ch, 24).unwrap();
        reg(&mut m, &s, h);
        assert_eq!(m.registered_bytes(), 32);
        m.unregister(&s, h);
        assert_eq!(m.registered_bytes(), 8);
        // Frame pop path (end_frame bypasses unregister).
        let f = s.push_frame("f");
        m.begin_frame();
        let l = s.define_local(f, "l", ch, 16).unwrap();
        reg(&mut m, &s, l);
        assert_eq!(m.registered_bytes(), 24);
        m.end_frame();
        assert_eq!(m.registered_bytes(), 8);
    }

    #[test]
    fn live_entries_iterates_all() {
        let (mut s, mut m, [ch, ..]) = setup();
        let g = s.define_global("g", ch, 8).unwrap();
        let h = s.malloc(ch, 8).unwrap();
        reg(&mut m, &s, g);
        reg(&mut m, &s, h);
        assert_eq!(m.live_entries().count(), 2);
        assert_eq!(m.live_count(), 2);
    }
}
