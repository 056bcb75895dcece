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
//! paper's collection complexity (`O(n log n)` over `n` blocks); id→entry
//! lookup is `O(1)` indexing, which is why restoration's MSRLT term is
//! only `O(n)`. The default [`SearchStrategy::PageIndex`] collapses the
//! address→id direction to amortized `O(1)` with the same
//! [`PageIndex`] the address space resolves through (a page directory
//! whose cells list the block starts on each page), fronted by a
//! page-tagged translation cache; [`SearchStrategy::Binary`] and
//! [`SearchStrategy::Linear`] remain as the §4.2 ablation points.

use crate::CoreError;
use hpm_arch::SegmentKind;
use hpm_memory::{BlockInfo, CellId, PageIndex, PAGE_SHIFT};
use hpm_obs::{StatField, StatGroup};
use hpm_types::TypeId;

/// Group number of the global-variable group.
pub const GROUP_GLOBAL: u32 = 0;
/// Group number of the heap group.
pub const GROUP_HEAP: u32 = 1;

/// Slots in the direct-mapped translation cache. Small on purpose: it
/// fronts the page walk the way a TLB fronts a hardware page table, and
/// pointer-heavy workloads re-resolve a working set of pages far smaller
/// than the table.
const CACHE_SLOTS: usize = 64;

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

/// One MSRLT entry: a live memory block's identification and location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MsrltEntry {
    /// Logical identification.
    pub id: LogicalId,
    /// Machine-specific start address.
    pub addr: u64,
    /// Block size in bytes on this machine.
    pub size: u64,
    /// Element type.
    pub ty: TypeId,
    /// Element count.
    pub count: u64,
    visited_epoch: u64,
}

/// How address→block search is implemented (§4.2 ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SearchStrategy {
    /// Page index — amortized `O(1)` per search: a directory probe on
    /// `addr >> 12` finds the page's cell, and a binary search over the
    /// block starts on that one page names the block. The answer is
    /// exact; the sorted-index binary search runs only for a probe no
    /// live block holds.
    #[default]
    PageIndex,
    /// Binary search over a sorted address index — `O(log n)` per search,
    /// the design the paper's complexity model assumes.
    Binary,
    /// Linear scan — `O(n)` per search; the naive baseline.
    Linear,
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
    /// Total comparison steps across all searches.
    pub search_steps: u64,
    /// id→entry lookups (O(1) each).
    pub id_lookups: u64,
    /// Searches answered by the translation cache (no comparison steps).
    pub cache_hits: u64,
    /// Searches that fell through the cache to the configured strategy.
    pub cache_misses: u64,
    /// Cached translations displaced by a different page mapping to the
    /// same direct-mapped slot.
    pub cache_evictions: u64,
    /// Cache-missing searches the O(1) page index answered.
    pub page_walks: u64,
    /// Cache-missing searches the page index found no block for (a wild
    /// probe), demoted to the ordered-map binary search.
    pub fallback_searches: u64,
}

impl MsrltStats {
    /// Fraction of searches served by the translation cache, in [0, 1].
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

impl StatGroup for MsrltStats {
    fn group(&self) -> &'static str {
        "msrlt"
    }

    fn fields(&self) -> Vec<StatField> {
        vec![
            StatField::count("registrations", self.registrations),
            StatField::count("unregistrations", self.unregistrations),
            StatField::count("searches", self.searches),
            StatField::count("search_steps", self.search_steps),
            StatField::count("id_lookups", self.id_lookups),
            StatField::count("cache_hits", self.cache_hits),
            StatField::count("cache_misses", self.cache_misses),
            StatField::count("cache_evictions", self.cache_evictions),
            StatField::count("page_walks", self.page_walks),
            StatField::count("fallback_searches", self.fallback_searches),
            StatField::ratio("cache_hit_rate", self.cache_hit_rate()),
        ]
    }

    fn merge_from(&mut self, other: &Self) {
        self.registrations += other.registrations;
        self.unregistrations += other.unregistrations;
        self.searches += other.searches;
        self.search_steps += other.search_steps;
        self.id_lookups += other.id_lookups;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_evictions += other.cache_evictions;
        self.page_walks += other.page_walks;
        self.fallback_searches += other.fallback_searches;
    }
}

/// How a translation-cache slot resolves its page.
#[derive(Debug, Clone, Copy)]
enum CacheWay {
    /// Resolve through this page-index cell (the
    /// [`SearchStrategy::PageIndex`] TLB: a tag match plus a search of
    /// the cell answers *any* address in the page, so interior heap
    /// addresses hit even when every block is visited exactly once).
    Cell(CellId),
    /// A single cached block translation (the other strategies, which
    /// keep no page index).
    Block(LogicalId),
}

/// The MSR Lookup Table.
#[derive(Debug, Clone)]
pub struct Msrlt {
    /// `groups[g][i]` is the entry with id `(g, i)`; `None` for ids that
    /// are dead (freed) or not yet seen on this side.
    groups: Vec<Vec<Option<MsrltEntry>>>,
    /// Sorted by block start address. Maintained under every strategy:
    /// it is the `Binary` / `Linear` search structure, the fallback for
    /// wild probes and the live-entry iterator.
    by_addr: Vec<(u64, LogicalId)>,
    /// Live frame groups (innermost last).
    frame_stack: Vec<u32>,
    strategy: SearchStrategy,
    epoch: u64,
    stats: MsrltStats,
    /// Total bytes of live registered blocks (collector pre-sizing hint).
    live_bytes: u64,
    /// Address → packed id of every live block. Maintained only under
    /// [`SearchStrategy::PageIndex`].
    pages: PageIndex<u64>,
    /// Id of the most recently resolved block; checked first on every
    /// search. Hits are validated against the live table, so stale
    /// entries simply miss — no invalidation traffic.
    cache_last: Option<LogicalId>,
    /// Direct-mapped cache behind the last-hit check, slotted and tagged
    /// on *page number* (not raw address) so distinct interior addresses
    /// of the same page share a slot.
    cache_slots: Vec<Option<(u64, CacheWay)>>,
    cache_enabled: bool,
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
        Msrlt::with_strategy(SearchStrategy::PageIndex)
    }

    /// New table using the given search strategy. The translation cache
    /// fronts [`SearchStrategy::PageIndex`] and [`SearchStrategy::Binary`]
    /// by default; the linear baseline stays pure so the §4.2 ablation
    /// measures the raw scan.
    pub fn with_strategy(strategy: SearchStrategy) -> Self {
        Msrlt {
            groups: vec![Vec::new(), Vec::new()],
            by_addr: Vec::new(),
            frame_stack: Vec::new(),
            strategy,
            epoch: 1,
            stats: MsrltStats::default(),
            live_bytes: 0,
            pages: PageIndex::new(),
            cache_last: None,
            cache_slots: vec![None; CACHE_SLOTS],
            cache_enabled: !matches!(strategy, SearchStrategy::Linear),
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

    /// The configured address→block search strategy.
    pub fn strategy(&self) -> SearchStrategy {
        self.strategy
    }

    /// Enable or disable the translation cache (ablation control).
    /// Disabling drops all cached translations.
    pub fn set_cache_enabled(&mut self, enabled: bool) {
        self.cache_enabled = enabled;
        if !enabled {
            self.cache_last = None;
            self.cache_slots = vec![None; CACHE_SLOTS];
        }
    }

    /// Whether the translation cache is active.
    pub fn cache_enabled(&self) -> bool {
        self.cache_enabled
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
        self.by_addr.len()
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
        let g = self.frame_stack.pop().expect("end_frame with no frame");
        let dead: Vec<u64> = self.groups[g as usize]
            .iter()
            .flatten()
            .map(|e| e.addr)
            .collect();
        for addr in dead {
            self.remove_addr(addr);
        }
        self.groups[g as usize].clear();
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
        self.register_at(id, info.addr, info.size, info.ty, info.count);
        id
    }

    /// Register a block under an explicit id (used on the destination,
    /// where the stream dictates heap ids).
    pub fn register_at(&mut self, id: LogicalId, addr: u64, size: u64, ty: TypeId, count: u64) {
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
            id,
            addr,
            size,
            ty,
            count,
            visited_epoch: 0,
        });
        let pos = self.by_addr.partition_point(|&(a, _)| a < addr);
        self.by_addr.insert(pos, (addr, id));
        if self.strategy == SearchStrategy::PageIndex {
            self.pages.insert(addr, size, pack_id(id));
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

    /// Drop the entry for the block starting at `addr` (heap `free`).
    pub fn unregister(&mut self, addr: u64) -> Option<LogicalId> {
        let id = self.remove_addr(addr)?;
        self.groups[id.group as usize][id.index as usize] = None;
        self.stats.unregistrations += 1;
        Some(id)
    }

    fn remove_addr(&mut self, addr: u64) -> Option<LogicalId> {
        let pos = self.by_addr.partition_point(|&(a, _)| a < addr);
        if pos < self.by_addr.len() && self.by_addr[pos].0 == addr {
            let id = self.by_addr.remove(pos).1;
            if let Some(e) = self.groups[id.group as usize][id.index as usize].as_ref() {
                let size = e.size;
                self.live_bytes -= size;
                if self.strategy == SearchStrategy::PageIndex {
                    self.pages.remove(addr);
                }
            }
            Some(id)
        } else {
            None
        }
    }

    /// Resolve `addr` through page-index cell `cell`, validating against
    /// the live table.
    fn cell_resolve(&self, cell: CellId, addr: u64) -> Option<(LogicalId, u64)> {
        let packed = self.pages.get_in(cell, addr)?;
        self.cache_validate(unpack_id(packed), addr)
    }

    // ----- translation cache -----

    /// Cache slot for a page number.
    fn cache_slot(page: u64) -> usize {
        ((page ^ (page >> 6)) as usize) & (CACHE_SLOTS - 1)
    }

    /// Validate a cached id against the live table: a hit is real only
    /// if the block still exists and contains `addr`. Live blocks are
    /// disjoint, so a validated hit equals the strategy-search result.
    fn cache_validate(&self, id: LogicalId, addr: u64) -> Option<(LogicalId, u64)> {
        let e = self
            .groups
            .get(id.group as usize)?
            .get(id.index as usize)?
            .as_ref()?;
        if addr >= e.addr && addr < e.addr + e.size {
            Some((id, addr - e.addr))
        } else {
            None
        }
    }

    /// Probe the last-hit entry, then the page-tagged direct-mapped slot.
    fn cache_probe(&self, addr: u64) -> Option<(LogicalId, u64)> {
        if let Some(id) = self.cache_last {
            if let Some(hit) = self.cache_validate(id, addr) {
                return Some(hit);
            }
        }
        let page = addr >> PAGE_SHIFT;
        match self.cache_slots[Self::cache_slot(page)] {
            Some((p, CacheWay::Cell(cell))) if p == page => self.cell_resolve(cell, addr),
            Some((p, CacheWay::Block(id))) if p == page => self.cache_validate(id, addr),
            _ => None,
        }
    }

    /// *The* MSRLT search: find the block containing `addr`, returning its
    /// id and the byte offset of `addr` within it. Counts comparisons.
    pub fn lookup_addr(&mut self, addr: u64) -> Option<(LogicalId, u64)> {
        self.stats.searches += 1;
        if self.cache_enabled {
            if let Some(hit) = self.cache_probe(addr) {
                self.stats.cache_hits += 1;
                self.cache_last = Some(hit.0);
                return Some(hit);
            }
            self.stats.cache_misses += 1;
        }
        // Page-index walk: one directory probe plus a binary search over
        // the block starts on one page, counted as one step (a page holds
        // a bounded number of blocks, however many are live).
        let mut walked_cell: Option<CellId> = None;
        let mut result: Option<(LogicalId, u64)> = None;
        if self.strategy == SearchStrategy::PageIndex {
            if let Some(cell) = self.pages.cell(addr) {
                self.stats.search_steps += 1;
                walked_cell = Some(cell);
                result = self.cell_resolve(cell, addr);
            }
        }
        if result.is_some() {
            self.stats.page_walks += 1;
        } else {
            // A non-page-index strategy, or a wild probe: the page
            // index's miss is exact, and the ordered search confirms it
            // at the cost every strategy pays for one.
            if self.strategy == SearchStrategy::PageIndex {
                self.stats.fallback_searches += 1;
            }
            let found = match self.strategy {
                SearchStrategy::PageIndex | SearchStrategy::Binary => {
                    let mut lo = 0usize;
                    let mut hi = self.by_addr.len();
                    while lo < hi {
                        self.stats.search_steps += 1;
                        let mid = (lo + hi) / 2;
                        if self.by_addr[mid].0 <= addr {
                            lo = mid + 1;
                        } else {
                            hi = mid;
                        }
                    }
                    lo.checked_sub(1).map(|i| self.by_addr[i].1)
                }
                SearchStrategy::Linear => {
                    let mut best: Option<(u64, LogicalId)> = None;
                    for &(a, id) in &self.by_addr {
                        self.stats.search_steps += 1;
                        if a <= addr && best.map(|(ba, _)| a > ba).unwrap_or(true) {
                            best = Some((a, id));
                        }
                    }
                    best.map(|(_, id)| id)
                }
            };
            result = found.and_then(|id| {
                let e = self.entry(id)?;
                if addr >= e.addr && addr < e.addr + e.size {
                    Some((id, addr - e.addr))
                } else {
                    None
                }
            });
        }
        if self.cache_enabled {
            if let Some((id, _)) = result {
                self.cache_last = Some(id);
                let page = addr >> PAGE_SHIFT;
                let way = walked_cell.map_or(CacheWay::Block(id), CacheWay::Cell);
                let slot = Self::cache_slot(page);
                if matches!(self.cache_slots[slot], Some((p, _)) if p != page) {
                    self.stats.cache_evictions += 1;
                }
                self.cache_slots[slot] = Some((page, way));
            }
        }
        result
    }

    /// O(1) id→entry translation (the restoration-side operation).
    pub fn entry(&self, id: LogicalId) -> Option<&MsrltEntry> {
        self.groups
            .get(id.group as usize)?
            .get(id.index as usize)?
            .as_ref()
    }

    /// Counted variant of [`Msrlt::entry`] for instrumented paths.
    pub fn entry_counted(&mut self, id: LogicalId) -> Option<&MsrltEntry> {
        self.stats.id_lookups += 1;
        self.groups
            .get(id.group as usize)?
            .get(id.index as usize)?
            .as_ref()
    }

    /// All live entries, unordered.
    pub fn live_entries(&self) -> impl Iterator<Item = &MsrltEntry> {
        self.by_addr
            .iter()
            .filter_map(|(_, id)| self.groups[id.group as usize][id.index as usize].as_ref())
    }

    // ----- visit marking (collection-time DFS) -----

    /// Start a new collection: invalidates all visit marks in O(1).
    pub fn begin_epoch(&mut self) {
        self.epoch += 1;
    }

    /// Mark the block visited in the current epoch.
    pub fn mark_visited(&mut self, id: LogicalId) {
        let epoch = self.epoch;
        if let Some(e) = self.groups[id.group as usize][id.index as usize].as_mut() {
            e.visited_epoch = epoch;
        }
    }

    /// Whether the block was visited in the current epoch.
    pub fn is_visited(&self, id: LogicalId) -> bool {
        self.groups[id.group as usize][id.index as usize]
            .as_ref()
            .map(|e| e.visited_epoch == self.epoch)
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpm_memory::PAGE_SIZE;

    fn info(addr: u64, size: u64, seg: SegmentKind) -> BlockInfo {
        BlockInfo {
            addr,
            ty: TypeId(0),
            count: 1,
            segment: seg,
            name: None,
            frame: None,
            size,
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
        assert!(m.entry(b).is_none() || m.lookup_addr(0x6000).is_none());
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

    #[test]
    fn linear_and_binary_agree() {
        let mut b = Msrlt::with_strategy(SearchStrategy::Binary);
        let mut l = Msrlt::with_strategy(SearchStrategy::Linear);
        for i in 0..50u64 {
            let inf = info(0x1000 + i * 32, 16, SegmentKind::Heap);
            b.register(&inf);
            l.register(&inf);
        }
        for probe in (0x0F00..0x1800).step_by(7) {
            assert_eq!(
                b.lookup_addr(probe),
                l.lookup_addr(probe),
                "probe {probe:#x}"
            );
        }
        assert!(l.stats().search_steps > b.stats().search_steps);
    }

    #[test]
    fn page_index_and_binary_agree() {
        let mut p = Msrlt::new();
        let mut b = Msrlt::with_strategy(SearchStrategy::Binary);
        // Irregular sizes (including sub-granule and multi-page blocks)
        // with irregular gaps.
        let mut addr = 0x1000u64;
        let mut end = addr;
        for i in 0..200u64 {
            let size = match i % 5 {
                0 => 1,
                1 => 3,
                2 => 16,
                3 => 2 * PAGE_SIZE + 8,
                _ => 64,
            };
            let inf = info(addr, size, SegmentKind::Heap);
            p.register(&inf);
            b.register(&inf);
            end = addr + size;
            addr = end + (i % 7);
        }
        for probe in (0x0F00..end + 0x100).step_by(5) {
            assert_eq!(
                p.lookup_addr(probe),
                b.lookup_addr(probe),
                "probe {probe:#x}"
            );
        }
        // Free every third block and re-verify agreement over the holes.
        let addrs: Vec<u64> = p.live_entries().map(|e| e.addr).collect();
        for a in addrs.iter().step_by(3) {
            assert!(p.unregister(*a).is_some());
            assert!(b.unregister(*a).is_some());
        }
        for probe in (0x0F00..end + 0x100).step_by(11) {
            assert_eq!(
                p.lookup_addr(probe),
                b.lookup_addr(probe),
                "post-free probe {probe:#x}"
            );
        }
    }

    #[test]
    fn page_index_resolves_in_constant_steps() {
        let mut m = Msrlt::new();
        m.set_cache_enabled(false);
        for i in 0..4096u64 {
            m.register(&info(0x1000 + i * 16, 16, SegmentKind::Heap));
        }
        m.reset_stats();
        for i in (0..4096u64).step_by(97) {
            assert!(m.lookup_addr(0x1000 + i * 16 + 4).is_some());
        }
        let s = m.stats();
        assert!(s.searches > 0);
        assert_eq!(
            s.search_steps, s.searches,
            "one page-walk step per mapped lookup"
        );
        assert_eq!(s.page_walks, s.searches);
        assert_eq!(s.fallback_searches, 0);
    }

    #[test]
    fn whole_page_blocks_resolve_via_page_index() {
        let mut m = Msrlt::new();
        m.set_cache_enabled(false);
        // Page-aligned block covering three whole pages plus a tail.
        let id = m.register(&info(0x10000, 3 * PAGE_SIZE + 32, SegmentKind::Heap));
        m.reset_stats();
        assert_eq!(
            m.lookup_addr(0x10000 + PAGE_SIZE + 8),
            Some((id, PAGE_SIZE + 8))
        );
        assert_eq!(m.stats().search_steps, 1);
        assert_eq!(m.lookup_addr(0x10000 + 3 * PAGE_SIZE + 8).unwrap().0, id);
        m.unregister(0x10000);
        assert_eq!(m.lookup_addr(0x10000 + PAGE_SIZE), None);
    }

    #[test]
    fn one_byte_neighbours_resolve_through_the_page_index() {
        let mut m = Msrlt::new();
        m.set_cache_enabled(false);
        // Two 1-byte blocks inside one 4-byte word: the page's cell lists
        // both starts, so each resolves to itself on the page walk and
        // neither needs the ordered search.
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
        let s = m.stats();
        assert_eq!((s.searches, s.page_walks, s.search_steps), (3, 3, 3));
        assert_eq!(s.fallback_searches, 0);
        // The freed byte is a wild probe now: the only fallback.
        assert_eq!(m.lookup_addr(0x1001), None);
        assert_eq!(m.stats().fallback_searches, 1);
    }

    #[test]
    fn search_steps_logarithmic_on_binary_fallback() {
        let mut m = Msrlt::with_strategy(SearchStrategy::Binary);
        for i in 0..1024u64 {
            m.register(&info(0x1000 + i * 16, 16, SegmentKind::Heap));
        }
        m.reset_stats();
        m.lookup_addr(0x1000 + 500 * 16);
        let s = m.stats();
        assert_eq!(s.searches, 1);
        assert!(
            s.search_steps <= 11,
            "expected ≤ log2(1024)+1 steps, got {}",
            s.search_steps
        );
    }

    #[test]
    fn unregister_removes() {
        let mut m = Msrlt::new();
        let id = m.register(&info(0x1000, 16, SegmentKind::Heap));
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
        m.register_at(LogicalId { group: 1, index: 7 }, 0x1000, 8, TypeId(0), 1);
        m.register_at(LogicalId { group: 1, index: 2 }, 0x2000, 8, TypeId(0), 1);
        assert!(m.entry(LogicalId { group: 1, index: 7 }).is_some());
        assert!(m.entry(LogicalId { group: 1, index: 2 }).is_some());
        assert!(m.entry(LogicalId { group: 1, index: 3 }).is_none());
        assert_eq!(
            m.lookup_addr(0x2004).unwrap().0,
            LogicalId { group: 1, index: 2 }
        );
    }

    #[test]
    fn cache_hit_skips_search_steps() {
        let mut m = Msrlt::new();
        for i in 0..256u64 {
            m.register(&info(0x1000 + i * 16, 16, SegmentKind::Heap));
        }
        m.reset_stats();
        let first = m.lookup_addr(0x1000 + 100 * 16).unwrap();
        let cold_steps = m.stats().search_steps;
        assert!(cold_steps > 0);
        assert_eq!(m.stats().cache_misses, 1);
        // Same block again: last-hit cache answers with zero steps.
        let again = m.lookup_addr(0x1000 + 100 * 16 + 8).unwrap();
        assert_eq!(again.0, first.0);
        assert_eq!(again.1, 8);
        assert_eq!(m.stats().cache_hits, 1);
        assert_eq!(m.stats().search_steps, cold_steps);
        assert_eq!(m.stats().searches, 2);
    }

    #[test]
    fn page_slotted_cache_hits_across_distinct_blocks() {
        // The bitonic pattern: every block is looked up exactly once, so
        // a block- or address-tagged cache can never hit. A page-tagged
        // slot resolving through the page-index cell hits for every block
        // that shares a previously touched page.
        let mut m = Msrlt::new();
        for i in 0..64u64 {
            m.register(&info(0x1000 + i * 8, 8, SegmentKind::Heap));
        }
        m.reset_stats();
        for i in 0..64u64 {
            assert!(m.lookup_addr(0x1000 + i * 8 + 4).is_some());
        }
        let s = m.stats();
        assert_eq!(s.searches, 64);
        assert!(
            s.cache_hits >= 62,
            "single-page working set should hit after the first walk: {s:?}"
        );
    }

    #[test]
    fn cache_survives_intervening_lookups_via_direct_map() {
        let mut m = Msrlt::new();
        for i in 0..64u64 {
            m.register(&info(0x1000 + i * 64, 32, SegmentKind::Heap));
        }
        m.reset_stats();
        let a = m.lookup_addr(0x1000).unwrap();
        let b = m.lookup_addr(0x1000 + 10 * 64).unwrap();
        assert_ne!(a.0, b.0);
        // `a`'s block is no longer the last hit, but the page-tagged
        // direct-mapped slot still resolves it.
        let a2 = m.lookup_addr(0x1000).unwrap();
        assert_eq!(a2, a);
        assert!(m.stats().cache_hits >= 1, "{:?}", m.stats());
    }

    #[test]
    fn stale_cache_entries_miss_after_free_and_realloc() {
        let mut m = Msrlt::new();
        let a = m.register(&info(0x1000, 16, SegmentKind::Heap));
        assert_eq!(m.lookup_addr(0x1008).unwrap().0, a);
        m.unregister(0x1000);
        assert_eq!(m.lookup_addr(0x1008), None, "freed block must not hit");
        // Same address range re-registered under a new id: the cached
        // translation must resolve to the live block.
        let b = m.register(&info(0x1000, 16, SegmentKind::Heap));
        assert_ne!(a, b);
        assert_eq!(m.lookup_addr(0x1008).unwrap().0, b);
    }

    #[test]
    fn linear_strategy_has_no_cache() {
        let mut m = Msrlt::with_strategy(SearchStrategy::Linear);
        assert!(!m.cache_enabled());
        m.register(&info(0x1000, 16, SegmentKind::Heap));
        m.lookup_addr(0x1000);
        m.lookup_addr(0x1000);
        assert_eq!(m.stats().cache_hits, 0);
        assert_eq!(m.stats().cache_misses, 0);
    }

    #[test]
    fn disabling_cache_drops_translations() {
        let mut m = Msrlt::new();
        m.register(&info(0x1000, 16, SegmentKind::Heap));
        m.lookup_addr(0x1000);
        m.set_cache_enabled(false);
        m.reset_stats();
        m.lookup_addr(0x1000);
        let s = m.stats();
        assert_eq!(s.cache_hits + s.cache_misses, 0);
        assert!(s.search_steps > 0);
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
