//! The one address → block index: a dense page directory per run of
//! pages, and a granule table on each page where blocks start.
//!
//! It is the simulator's one address map: the address space's (address
//! → arena slot), which the MSRLT resolves pointers through as well.
//!
//! * **Directory runs.** Each run of consecutive pages — in an address
//!   space, the globals, the heap and the stack, which grows down — has
//!   a directory of its own, a `Vec` indexed by page number minus the
//!   run's first page. A lookup scans the few runs and reads one entry;
//!   a page outside every run holds no block.
//! * **Pages without a table.** A page on which no block starts past its
//!   first byte — a page inside one block, or the tail of one — is
//!   answered by its directory entry alone: that block.
//! * **Granule tables.** A page with a start past its first byte holds,
//!   for each 8-byte granule, the block covering the granule's first
//!   byte. [`PageIndex::get_if`] tries that one entry first; the
//!   caller's check (the arena record's `contains`, or its start)
//!   accepts it or sends the lookup down the exact path, the page's
//!   ordered start list, which also answers the predecessor query
//!   [`PageIndex::get`].
//!
//! A lookup is one directory read and at most one granule read before
//! the caller's record. Memory is one 16-byte directory entry per page
//! a run spans, plus, on a page with starts, a 2 KiB granule table
//! (for 4-byte values) and 8 bytes per start.
//!
//! Blocks must not overlap, and a zero-size block counts as holding its
//! start byte, except that a block may start where another starts (in
//! the address space, only where a zero-size block starts): it then
//! replaces that block on every page, as an ordered map's insert
//! replaces the entry at its key, and [`PageIndex::insert`] returns the
//! replaced value.

/// log₂ of the index's page size (4 KiB, like the machines the presets
/// model).
pub const PAGE_SHIFT: u32 = 12;
/// The index's page size in bytes.
pub const PAGE_SIZE: u64 = 1 << PAGE_SHIFT;
const PAGE_MASK: u64 = PAGE_SIZE - 1;
/// log₂ of a granule, the 8 bytes one table entry answers for.
const GRANULE_SHIFT: u32 = 3;
const GRANULES: usize = 1 << (PAGE_SHIFT - GRANULE_SHIFT);
/// A new page this close to a run (in pages), or closer than the run is
/// long, extends the run instead of starting one: a run's directory is
/// at most about twice the pages its blocks reach.
const MIN_REACH: u64 = 16;

fn offset(addr: u64) -> u16 {
    (addr & PAGE_MASK) as u16
}

/// The first granule whose first byte lies at or past in-page offset
/// `off`.
fn granule_at_or_after(off: u16) -> usize {
    usize::from(off).div_ceil(1 << GRANULE_SHIFT)
}

/// One page's directory entry.
#[derive(Debug, Clone)]
enum Entry<V> {
    /// No block reaches the page.
    Empty,
    /// The block at the page's first byte (starting there or running
    /// into the page) and how far into the page it reaches; no other
    /// block starts on the page.
    Head(V, u16),
    /// Blocks start past the page's first byte.
    Table(Box<Table<V>>),
}

#[derive(Debug, Clone)]
struct Table<V> {
    /// `granule[i]`: the block covering byte `8·i` of the page.
    granule: [Option<V>; GRANULES],
    /// The block at the page's first byte, and how far it reaches.
    head: Option<(V, u16)>,
    /// `(in-page offset, value)` of the blocks starting past the page's
    /// first byte, by ascending offset; never empty.
    starts: Vec<(u16, V)>,
}

impl<V: Copy + PartialEq> Table<V> {
    fn new(head: Option<(V, u16)>) -> Box<Self> {
        let mut t = Box::new(Table {
            granule: [None; GRANULES],
            head,
            starts: Vec::new(),
        });
        if let Some((v, end)) = head {
            t.cover(0, end, v);
        }
        t
    }

    /// Name `v` in every granule whose first byte lies in `[from, to)`.
    fn cover(&mut self, from: u16, to: u16, v: V) {
        let (a, b) = (granule_at_or_after(from), granule_at_or_after(to));
        if a < b {
            self.granule[a..b].fill(Some(v));
        }
    }

    /// Clear `v` from the granules of the block that starts at `from`.
    fn uncover(&mut self, from: u16, v: V) {
        for g in self.granule[granule_at_or_after(from)..].iter_mut() {
            if *g != Some(v) {
                break;
            }
            *g = None;
        }
    }

    /// The block with the greatest start at or below `off`.
    fn predecessor(&self, off: u16) -> Option<V> {
        match self.starts.partition_point(|&(o, _)| o <= off) {
            0 => self.head.map(|(v, _)| v),
            i => Some(self.starts[i - 1].1),
        }
    }

    /// Record `v` over `[from, to)`; offset 0 makes it the head.
    fn add(&mut self, from: u16, to: u16, v: V) {
        if from == 0 {
            self.head = Some((v, to));
        } else {
            // An append, the order the restorer allocates in, needs no search.
            let i = match self.starts.last() {
                Some(&(last, _)) if last > from => self.starts.partition_point(|&(o, _)| o < from),
                _ => self.starts.len(),
            };
            self.starts.insert(i, (from, v));
        }
        self.cover(from, to, v);
    }

    /// Forget the block starting at `off`.
    fn take(&mut self, off: u16) -> Option<V> {
        let v = if off == 0 {
            self.head.take()?.0
        } else {
            // Past the last start (where an insert asks first) is no start.
            if self.starts.last().is_none_or(|&(last, _)| last < off) {
                return None;
            }
            let i = self.starts.binary_search_by_key(&off, |&(o, _)| o).ok()?;
            self.starts.remove(i).1
        };
        self.uncover(off, v);
        Some(v)
    }
}

impl<V: Copy + PartialEq> Entry<V> {
    /// Record `v` over in-page `[from, to)`; offset 0 makes it the page's
    /// head.
    fn add(&mut self, from: u16, to: u16, v: V) {
        let head = match *self {
            Entry::Table(ref mut t) => return t.add(from, to, v),
            Entry::Empty if from == 0 => return *self = Entry::Head(v, to),
            Entry::Empty => None,
            Entry::Head(h, end) => Some((h, end)),
        };
        let mut t = Table::new(head);
        t.add(from, to, v);
        *self = Entry::Table(t);
    }

    /// Forget the block starting at in-page offset `off`; a page left
    /// without starts gives its table back.
    fn take(&mut self, off: u16) -> Option<V> {
        let v = match self {
            Entry::Empty => None,
            Entry::Head(v, _) => (off == 0).then_some(*v),
            Entry::Table(t) => t.take(off),
        }?;
        match self {
            Entry::Table(t) if !t.starts.is_empty() => {}
            Entry::Table(t) => *self = t.head.map_or(Entry::Empty, |(h, end)| Entry::Head(h, end)),
            _ => *self = Entry::Empty,
        }
        Some(v)
    }

    fn head(&self) -> Option<V> {
        match self {
            Entry::Empty => None,
            Entry::Head(v, _) => Some(*v),
            Entry::Table(t) => t.head.map(|(v, _)| v),
        }
    }
}

/// The directory of one run of consecutive pages.
#[derive(Debug, Clone)]
struct Run<V> {
    first: u64,
    pages: Vec<Entry<V>>,
}

impl<V> Run<V> {
    fn end(&self) -> u64 {
        self.first + self.pages.len() as u64
    }

    /// How many pages past either end a new page may lie and still
    /// extend this run.
    fn reach(&self) -> u64 {
        (self.pages.len() as u64).max(MIN_REACH)
    }
}

/// Address → value index over non-overlapping blocks (module docs).
#[derive(Debug, Clone)]
pub struct PageIndex<V> {
    /// Disjoint, by ascending first page.
    runs: Vec<Run<V>>,
    len: usize,
}

impl<V> Default for PageIndex<V> {
    fn default() -> Self {
        PageIndex {
            runs: Vec::new(),
            len: 0,
        }
    }
}

impl<V: Copy + PartialEq> PageIndex<V> {
    /// Empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of blocks recorded.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no block is recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn entry(&self, page: u64) -> Option<&Entry<V>> {
        self.runs.iter().find_map(|r| {
            let i = page.wrapping_sub(r.first);
            (i < r.pages.len() as u64).then(|| &r.pages[i as usize])
        })
    }

    fn entry_mut(&mut self, page: u64) -> Option<&mut Entry<V>> {
        self.runs.iter_mut().find_map(|r| {
            let i = page.wrapping_sub(r.first);
            (i < r.pages.len() as u64).then(|| &mut r.pages[i as usize])
        })
    }

    /// The value of the block with the greatest start at or below
    /// `addr`, if that block starts on `addr`'s page or runs into it.
    /// Whether it still contains `addr` is the caller's check.
    pub fn get(&self, addr: u64) -> Option<V> {
        match self.entry(addr >> PAGE_SHIFT)? {
            Entry::Empty => None,
            Entry::Head(v, _) => Some(*v),
            Entry::Table(t) => t.predecessor(offset(addr)),
        }
    }

    /// `accept(`[`PageIndex::get`]`(addr))`. `accept` must answer
    /// `None` for every other block — it takes the block containing
    /// `addr`, or the one starting at it — and it is first offered the
    /// block covering the first byte of `addr`'s granule: when it takes
    /// that one, the lookup ends without reading the page's starts.
    #[inline]
    pub fn get_if<T>(&self, addr: u64, accept: impl Fn(V) -> Option<T>) -> Option<T> {
        let v = match self.entry(addr >> PAGE_SHIFT)? {
            Entry::Empty => return None,
            Entry::Head(v, _) => *v,
            Entry::Table(t) => {
                let off = offset(addr);
                if let Some(hit) = t.granule[usize::from(off >> GRANULE_SHIFT)].and_then(&accept) {
                    return Some(hit);
                }
                t.predecessor(off)?
            }
        };
        accept(v)
    }

    /// Start loading the granule-table entry [`PageIndex::get_if`] reads
    /// for `addr`, on a page that has a table: the lookup's second read,
    /// begun early. Reads the page's directory entry.
    #[inline]
    pub fn prefetch_granule(&self, addr: u64) {
        if let Some(Entry::Table(t)) = self.entry(addr >> PAGE_SHIFT) {
            crate::prefetch(&t.granule[usize::from(offset(addr) >> GRANULE_SHIFT)]);
        }
    }

    /// The first page and the page past the end of each directory run.
    #[cfg(test)]
    pub(crate) fn run_spans(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.runs.iter().map(|r| (r.first, r.end()))
    }

    /// The entry of `page`, extending the nearest run to reach it, or
    /// starting a run of its own when none is near. Runs that come to
    /// meet become one, so a block that starts far below a run and runs
    /// up to it (a large stack local) leaves one run, not two.
    fn entry_or_insert(&mut self, page: u64) -> &mut Entry<V> {
        let at = self.runs.partition_point(|r| r.first <= page);
        let below = at.checked_sub(1).filter(|&b| {
            let r = &self.runs[b];
            page < r.end() + r.reach()
        });
        let k = if let Some(b) = below {
            let r = &mut self.runs[b];
            if page >= r.end() {
                r.pages
                    .resize_with((page - r.first) as usize + 1, || Entry::Empty);
            }
            b
        } else if self
            .runs
            .get(at)
            .is_some_and(|r| r.first - page <= r.reach())
        {
            // Growing down, as a stack does: at least double the run, as
            // `Vec` doubles upward, but not into the run below.
            let floor = at.checked_sub(1).map_or(0, |b| self.runs[b].end());
            let r = &mut self.runs[at];
            let first = page
                .min(r.first.saturating_sub(r.pages.len() as u64))
                .max(floor);
            let grow = (r.first - first) as usize;
            r.pages
                .splice(..0, std::iter::repeat_with(|| Entry::Empty).take(grow));
            r.first = first;
            at
        } else {
            let pages = vec![Entry::Empty];
            self.runs.insert(at, Run { first: page, pages });
            at
        };
        self.join(k);
        let k = if k > 0 && self.join(k - 1) { k - 1 } else { k };
        let r = &mut self.runs[k];
        &mut r.pages[(page - r.first) as usize]
    }

    /// Append run `k + 1` to run `k` if the two meet; answers whether
    /// they did.
    fn join(&mut self, k: usize) -> bool {
        let next = self.runs.get(k + 1).map(|n| n.first);
        let meet = next == Some(self.runs[k].end());
        if meet {
            let next = self.runs.remove(k + 1);
            self.runs[k].pages.extend(next.pages);
        }
        meet
    }

    /// Record the block `[start, start + len)` as `v`: one directory
    /// write per page it reaches, and on a page with a table one write per
    /// granule. Returns the value of the block that started at `start`,
    /// which the new block replaces.
    pub fn insert(&mut self, start: u64, len: u64, v: V) -> Option<V> {
        let replaced = self.remove(start);
        self.len += 1;
        let (first, end) = (start >> PAGE_SHIFT, start + len);
        // A zero-size block lives on its start page alone.
        let last = (start + len.max(1) - 1) >> PAGE_SHIFT;
        for page in first..=last {
            let from = if page == first { offset(start) } else { 0 };
            let to = if page == last {
                (end - (page << PAGE_SHIFT)) as u16
            } else {
                PAGE_SIZE as u16
            };
            self.entry_or_insert(page).add(from, to, v);
        }
        replaced
    }

    /// Forget the block that starts at `start`, returning its value;
    /// `None` (and no change) if no block starts there. `start` must not
    /// lie inside another block. A page left without starts gives its
    /// table back.
    pub fn remove(&mut self, start: u64) -> Option<V> {
        let mut page = start >> PAGE_SHIFT;
        let v = self.entry_mut(page)?.take(offset(start))?;
        self.len -= 1;
        // The pages it ran into name it as their head.
        loop {
            page += 1;
            match self.entry_mut(page) {
                Some(e) if e.head() == Some(v) => e.take(0),
                _ => return Some(v),
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pages holding a granule table.
    fn tables<V>(ix: &PageIndex<V>) -> usize {
        let pages = ix.runs.iter().flat_map(|r| &r.pages);
        pages.filter(|e| matches!(e, Entry::Table(_))).count()
    }

    /// Pages some block reaches.
    fn pages_in_use<V>(ix: &PageIndex<V>) -> usize {
        let pages = ix.runs.iter().flat_map(|r| &r.pages);
        pages.filter(|e| !matches!(e, Entry::Empty)).count()
    }

    #[test]
    fn lookup_is_the_predecessor_block() {
        let mut ix = PageIndex::new();
        assert_eq!(ix.insert(0x1000, 1, 'a'), None);
        assert_eq!(ix.insert(0x1001, 1, 'b'), None);
        assert_eq!(ix.insert(0x1002, 2, 'c'), None);
        assert_eq!(ix.insert(0x1010, 3 * PAGE_SIZE, 'd'), None);
        assert_eq!(ix.len(), 4);
        for (addr, want) in [
            (0x1000, 'a'),
            (0x1001, 'b'),
            (0x1002, 'c'),
            (0x1003, 'c'),
            (0x100F, 'c'),
            (0x1010, 'd'),
            (0x2000, 'd'),
            (0x4000, 'd'),
            (0x400F, 'd'),
        ] {
            assert_eq!(ix.get(addr), Some(want), "{addr:#x}");
        }
        // Past the last block: its page still answers the predecessor,
        // the next page holds nothing.
        assert_eq!(ix.get(0x4010), Some('d'));
        assert_eq!(ix.get(0x5000), None);
        assert_eq!(ix.get(0xFFF), None);
    }

    #[test]
    fn same_offset_insert_replaces_the_block_on_every_page() {
        let mut ix = PageIndex::new();
        // At a page's first byte (the head) and inside a page (a start).
        for at in [0x3000, 0x3010] {
            assert_eq!(ix.insert(at, 0, 1u32), None);
            assert_eq!(ix.get(at), Some(1));
            assert_eq!(ix.insert(at, 8, 2), Some(1));
            assert_eq!(ix.get(at + 7), Some(2));
            assert_eq!(ix.len(), 1);
            assert_eq!(ix.remove(at), Some(2));
            assert_eq!(ix.remove(at), None, "the replaced block is gone");
            assert!(ix.is_empty());
            assert_eq!(ix.get(at), None);
        }
        // A block running over three pages, replaced at its start by a
        // zero-size one: the pages it ran into forget it.
        ix.insert(0x8000, 3 * PAGE_SIZE, 1);
        assert_eq!(ix.insert(0x8000, 0, 2), Some(1));
        assert_eq!(ix.get(0x8000), Some(2));
        assert_eq!(ix.get(0x9000), None);
        assert_eq!(ix.get(0xA000), None);
        assert_eq!((ix.len(), pages_in_use(&ix), tables(&ix)), (1, 1, 0));
    }

    #[test]
    fn removal_restores_the_covering_block() {
        let mut ix = PageIndex::new();
        // `big` runs from the middle of one page into the middle of the
        // third; `small` starts after it on the third page.
        ix.insert(0x1800, 2 * PAGE_SIZE, 'b');
        ix.insert(0x3900, 16, 's');
        assert_eq!(ix.get(0x3000), Some('b'));
        assert_eq!(ix.get(0x3910), Some('s'));
        assert_eq!(ix.remove(0x3900), Some('s'));
        assert_eq!(ix.get(0x3910), Some('b'), "the page's head answers again");
        assert_eq!(ix.remove(0x1800), Some('b'));
        for addr in [0x1800, 0x2000, 0x3000, 0x3910] {
            assert_eq!(ix.get(addr), None, "{addr:#x}");
        }
        // A start removed from under a head leaves the head in charge.
        ix.insert(0x1800, 2 * PAGE_SIZE, 'b');
        ix.insert(0x3800, 8, 's');
        ix.remove(0x3800);
        assert_eq!(ix.get(0x3808), Some('b'));
        assert_eq!(ix.remove(0x3800), None, "nothing starts there now");
        assert_eq!(ix.len(), 1);
    }

    #[test]
    fn removal_gives_a_page_back() {
        let mut ix = PageIndex::new();
        ix.insert(0x7000, 4, 1u64);
        ix.insert(0x7004, 4, 2);
        assert_eq!(tables(&ix), 1);
        ix.remove(0x7000);
        assert_eq!(ix.get(0x7000), None);
        assert_eq!(ix.get(0x7005), Some(2), "one block still starts there");
        assert_eq!((pages_in_use(&ix), tables(&ix)), (1, 1));
        ix.remove(0x7004);
        assert_eq!(ix.get(0x7005), None);
        assert_eq!((pages_in_use(&ix), tables(&ix)), (0, 0));
        // A page whose last start past its first byte leaves keeps its
        // head and gives the table back.
        ix.insert(0x7000, 16, 3);
        ix.insert(0x7100, 16, 4);
        ix.remove(0x7100);
        assert_eq!((pages_in_use(&ix), tables(&ix)), (1, 0));
        assert_eq!(ix.get_if(0x700F, |v| (v == 3).then_some(v)), Some(3));
        // A new page takes up nothing the old blocks held.
        ix.remove(0x7000);
        ix.insert(0x9010, 4, 5);
        assert_eq!(ix.get(0x7005), None);
        assert_eq!(ix.get(0x9005), None);
        assert_eq!(ix.get(0x9010), Some(5));
    }

    #[test]
    fn a_page_inside_one_block_allocates_no_table() {
        let mut ix = PageIndex::new();
        for (i, page) in (0x10u64..0x14).enumerate() {
            ix.insert(page * PAGE_SIZE, PAGE_SIZE, i);
        }
        ix.insert(0x14 * PAGE_SIZE, 3 * PAGE_SIZE, 9);
        // A block starting mid-page: only its first page needs a table.
        ix.insert(0x20 * PAGE_SIZE + 8, 4 * PAGE_SIZE, 10);
        assert_eq!(tables(&ix), 1);
        assert_eq!(ix.get(0x12 * PAGE_SIZE + PAGE_SIZE - 1), Some(2));
        assert_eq!(ix.get(0x16 * PAGE_SIZE + PAGE_SIZE - 1), Some(9));
        assert_eq!(ix.get(0x17 * PAGE_SIZE), None);
        assert_eq!(ix.get(0x23 * PAGE_SIZE + 9), Some(10));
        assert_eq!(ix.len(), 6);
    }

    #[test]
    fn a_directory_entry_is_16_bytes() {
        use std::num::NonZeroU32;
        assert_eq!(std::mem::size_of::<Entry<NonZeroU32>>(), 16);
        assert_eq!(std::mem::size_of::<[Option<NonZeroU32>; GRANULES]>(), 2048);
    }

    #[test]
    fn the_top_page_offset_round_trips() {
        let mut ix = PageIndex::new();
        let last = 0x5000 + PAGE_SIZE - 1;
        ix.insert(last, 1, 'z');
        ix.insert(last - 1, 1, 'y');
        assert_eq!(ix.get(last), Some('z'));
        assert_eq!(ix.get(last - 1), Some('y'));
        assert_eq!(ix.get(last + 1), None);
        assert_eq!(ix.remove(last), Some('z'));
        assert_eq!(ix.get(last), Some('y'));
    }

    #[test]
    fn far_apart_pages_get_runs_of_their_own_and_wild_addresses_miss() {
        let mut ix = PageIndex::new();
        let (global, heap, stack_end) = (0x1_0000, 0x1000_0000, 0x7400_0000u64);
        ix.insert(global, 64, 1u32);
        ix.insert(heap, 2 * PAGE_SIZE, 2);
        // A stack growing down a page at a time, two locals a page.
        let mut top = stack_end;
        for v in 3..40 {
            top -= PAGE_SIZE / 2;
            ix.insert(top, 16, v);
        }
        assert_eq!(ix.runs.len(), 3);
        assert!(ix.runs[2].pages.len() < 2 * 19 + MIN_REACH as usize);
        // A block far below the stack's run that reaches up to it: its
        // first page starts a run, which joins the stack's on meeting it.
        let local = (ix.runs[2].first << PAGE_SHIFT) - 40 * PAGE_SIZE;
        ix.insert(local, 40 * PAGE_SIZE, 40);
        assert_eq!(ix.runs.len(), 3);
        let stack = &ix.runs[2];
        assert!(stack.end() == stack_end >> PAGE_SHIFT);
        for addr in [
            0,
            u64::MAX,
            global - 1,
            heap + 2 * PAGE_SIZE,
            top - 1,
            local - 1,
            stack_end,
            (ix.runs[0].end() << PAGE_SHIFT) + 7,
        ] {
            assert_eq!(ix.get(addr), None, "{addr:#x}");
            assert_eq!(ix.get_if(addr, Some), None, "{addr:#x}");
        }
        assert_eq!(ix.get(top + 15), Some(39));
        assert_eq!(ix.get(local + 40 * PAGE_SIZE - 1), Some(40));
        assert_eq!(ix.get(stack_end - 1), Some(3));
    }

    /// Start → (length, value) of every block the index should hold.
    type Model = std::collections::BTreeMap<u64, (u64, u32)>;

    /// The index against an ordered map, which shares none of its code,
    /// at every byte of every block and the one past its end:
    /// - `get` answers the block with the greatest start at or below the
    ///   byte if that block reaches the byte's page, else nothing;
    /// - `get_if` with the containment check answers the block
    ///   containing the byte (never a zero-size one), else nothing;
    /// - `get_if` with the start check answers the block starting there;
    /// - each granule of a table names the block covering its first byte.
    fn check(ix: &PageIndex<u32>, model: &Model) {
        assert_eq!(ix.len(), model.len());
        let pred = |x: u64| model.range(..=x).next_back().map(|(&s, &(l, v))| (s, l, v));
        let want = |x: u64| {
            let (start, len, v) = pred(x)?;
            ((start + len.max(1) - 1) >> PAGE_SHIFT >= x >> PAGE_SHIFT).then_some(v)
        };
        let containing = |x: u64| pred(x).filter(|&(s, l, _)| x < s + l).map(|p| p.2);
        let by_value: std::collections::HashMap<u32, (u64, u64)> =
            model.iter().map(|(&s, &(l, v))| (v, (s, l))).collect();
        for (&start, &(len, v)) in model {
            for x in start..=start + len {
                assert_eq!(ix.get(x), want(x), "get({x:#x})");
                let within = |v: u32| {
                    let (s, l) = by_value[&v];
                    (s <= x && x < s + l).then_some(v)
                };
                assert_eq!(ix.get_if(x, within), containing(x), "contains({x:#x})");
            }
            assert_eq!(
                ix.get_if(start, |w| (by_value[&w].0 == start).then_some(w)),
                Some(v)
            );
        }
        for r in &ix.runs {
            for (page, e) in (r.first..).zip(&r.pages) {
                let Entry::Table(t) = e else { continue };
                for (i, &g) in t.granule.iter().enumerate() {
                    let x = (page << PAGE_SHIFT) + ((i as u64) << GRANULE_SHIFT);
                    assert_eq!(g, containing(x), "granule of {x:#x}");
                }
            }
        }
    }

    fn insert(ix: &mut PageIndex<u32>, m: &mut Model, start: u64, len: u64, v: u32) {
        assert_eq!(ix.insert(start, len, v), None, "{start:#x}");
        m.insert(start, (len, v));
    }

    fn remove(ix: &mut PageIndex<u32>, m: &mut Model, start: u64) {
        let (_, v) = m.remove(&start).expect("a modelled block");
        assert_eq!(ix.remove(start), Some(v), "{start:#x}");
    }

    /// Deterministic splitmix64 for the seeded sweeps.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn a_full_page_of_one_byte_blocks() {
        let (mut ix, mut m) = (PageIndex::new(), Model::new());
        let page = 0x40 * PAGE_SIZE;
        // Offsets 1..=4095 in a seeded order: 4 095 starts, the most a
        // page holds besides its head.
        let mut offs: Vec<u64> = (1..PAGE_SIZE).collect();
        let mut s = 0xF00D;
        for i in (1..offs.len()).rev() {
            offs.swap(i, next(&mut s) as usize % (i + 1));
        }
        for &o in &offs {
            insert(&mut ix, &mut m, page + o, 1, o as u32);
        }
        insert(&mut ix, &mut m, page, 1, 0);
        check(&ix, &m);
        // Empty every other granule, then the whole page, in the same order.
        let odd = |&&o: &&u64| (o >> GRANULE_SHIFT) % 2 == 1;
        for &o in offs.iter().filter(odd) {
            remove(&mut ix, &mut m, page + o);
        }
        check(&ix, &m);
        for &o in offs.iter().filter(|o| !odd(o)) {
            remove(&mut ix, &mut m, page + o);
        }
        check(&ix, &m);
        assert_eq!(tables(&ix), 0, "a head-only page holds no table");
    }

    #[test]
    fn ascending_appends_and_descending_inserts_agree() {
        // Blocks of 1–96 bytes with gaps of 0–7, over about six pages:
        // appended in address order (how the restorer allocates), and
        // inserted highest first (how a stack grows).
        let mut s = 0xA5CE;
        let mut blocks = Vec::new();
        let mut at = 0x90 * PAGE_SIZE + 3;
        while at < 0x96 * PAGE_SIZE {
            let len = 1 + next(&mut s) % 96;
            blocks.push((at, len));
            at += len + next(&mut s) % 8;
        }
        let (mut up, mut up_m) = (PageIndex::new(), Model::new());
        let (mut down, mut down_m) = (PageIndex::new(), Model::new());
        for (i, &(start, len)) in blocks.iter().enumerate() {
            insert(&mut up, &mut up_m, start, len, i as u32);
        }
        for (i, &(start, len)) in blocks.iter().enumerate().rev() {
            insert(&mut down, &mut down_m, start, len, i as u32);
        }
        check(&up, &up_m);
        check(&down, &down_m);
        for addr in at - 200..at + 8 {
            assert_eq!(up.get(addr), down.get(addr), "{addr:#x}");
        }
    }

    #[test]
    fn removing_a_last_start_or_a_mid_granule_start() {
        let (mut ix, mut m) = (PageIndex::new(), Model::new());
        let page = 0x20 * PAGE_SIZE;
        // A head block, three starts sharing granules, one further on,
        // the last far up the page.
        insert(&mut ix, &mut m, page, 100, 0);
        for (v, off) in [(1, 130), (2, 140), (3, 150), (4, 330), (5, 2600)] {
            insert(&mut ix, &mut m, page + off, 8, v);
        }
        check(&ix, &m);
        remove(&mut ix, &mut m, page + 140);
        check(&ix, &m);
        assert_eq!(ix.get(page + 145), Some(1), "the earlier start answers");
        remove(&mut ix, &mut m, page + 2600);
        check(&ix, &m);
        assert_eq!(ix.get(page + 2600), Some(4));
        // An append past the new last start.
        insert(&mut ix, &mut m, page + 4000, 8, 6);
        check(&ix, &m);
        remove(&mut ix, &mut m, page + 330);
        remove(&mut ix, &mut m, page + 4000);
        check(&ix, &m);
    }

    /// DEC 5000 nodes: 12 bytes on 4-byte alignment, so every other node
    /// starts in the middle of a granule, beside 1-, 2- and 8-aligned
    /// blocks of odd sizes.
    #[test]
    fn every_alignment_answers_the_containing_block() {
        for align in [1u64, 2, 4, 8] {
            let (mut ix, mut m) = (PageIndex::new(), Model::new());
            let mut s = 0x5EED ^ align;
            let mut at = 0x300 * PAGE_SIZE + align;
            let mut v = 0;
            while at < 0x303 * PAGE_SIZE {
                let len = match next(&mut s) % 4 {
                    0 => 12,
                    1 => 1 + next(&mut s) % 24,
                    2 => align,
                    _ => 1 + next(&mut s) % 300,
                };
                v += 1;
                insert(&mut ix, &mut m, at, len, v);
                at = (at + len + next(&mut s) % 3).next_multiple_of(align);
            }
            check(&ix, &m);
        }
    }

    #[test]
    fn zero_size_blocks_and_their_replacement() {
        let (mut ix, mut m) = (PageIndex::new(), Model::new());
        let page = 0x50 * PAGE_SIZE;
        // At a page's first byte, on a granule boundary, mid-granule.
        for (v, off) in [(1, 0), (2, 64), (3, 77)] {
            insert(&mut ix, &mut m, page + off, 0, v);
        }
        insert(&mut ix, &mut m, page + 8, 20, 4);
        check(&ix, &m);
        assert_eq!(ix.get_if(page + 77, |v| (v == 3).then_some(v)), Some(3));
        // Each replaced by a real block at its start.
        for (v, off, len) in [(11, 0, 8), (12, 64, 13), (13, 77, 2 * PAGE_SIZE)] {
            let (_, old) = m.insert(page + off, (len, v)).expect("modelled");
            assert_eq!(ix.insert(page + off, len, v), Some(old));
            check(&ix, &m);
        }
        // And back to zero size, which clears the pages it ran into.
        m.insert(page + 77, (0, 14));
        assert_eq!(ix.insert(page + 77, 0, 14), Some(13));
        check(&ix, &m);
        assert_eq!(ix.get(page + PAGE_SIZE), None);
        assert_eq!(pages_in_use(&ix), 1);
    }

    /// Seeded insert / remove churn over eight pages: blocks of 0 bytes
    /// to two pages on 1-, 2-, 4- and 8-byte alignment, placed wherever
    /// they fit, so starts share granules, pages fill and drain, and
    /// heads come and go under them.
    #[test]
    fn lookup_agrees_with_an_ordered_map_under_churn() {
        const BASE: u64 = 0x100 * PAGE_SIZE;
        const SPAN: u64 = 8 * PAGE_SIZE;
        for round in 0..4u64 {
            let mut s = 0x4A4B ^ (round << 16);
            let (mut ix, mut m) = (PageIndex::new(), Model::new());
            for op in 1..=3000u32 {
                let r = next(&mut s);
                if r % 5 < 3 || m.is_empty() {
                    let len = match (r >> 8) % 8 {
                        0 => 1 + (r >> 16) % (2 * PAGE_SIZE),
                        1..=2 => 1 + (r >> 16) % 4,
                        3 => (r >> 16) % 2 * 12,
                        _ => 1 + (r >> 16) % 200,
                    };
                    let align = 1 << ((r >> 12) % 4);
                    let start = (BASE + (r >> 32) % (SPAN - len)) & !(align - 1);
                    // A zero-size block holds its start byte.
                    let end = start + len.max(1);
                    let free_below = m
                        .range(..=start)
                        .next_back()
                        .is_none_or(|(&a, &(l, _))| a + l.max(1) <= start);
                    let free_above = m.range(start..end).next().is_none();
                    if free_below && free_above {
                        insert(&mut ix, &mut m, start, len, op);
                    }
                } else {
                    let nth = (r >> 8) as usize % m.len();
                    let start = *m.keys().nth(nth).unwrap();
                    remove(&mut ix, &mut m, start);
                }
                if op % 250 == 0 {
                    check(&ix, &m);
                }
            }
            while let Some((&start, _)) = m.iter().next() {
                remove(&mut ix, &mut m, start);
            }
            assert_eq!((pages_in_use(&ix), tables(&ix)), (0, 0));
        }
    }
}
