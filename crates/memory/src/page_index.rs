//! The one address → block index: a 4 KiB page directory whose cells
//! list the blocks that start inside each page.
//!
//! Both address maps of the simulator are built on it, and each has no
//! other: the address space's (address → arena slot) and the MSRLT's
//! (address → logical id). A lookup is one directory probe, one read of
//! the page's rank table and a scan of the block starts inside one
//! 64-byte line, and it answers what an ordered map's predecessor query
//! would: the block with the greatest start at or below the address.
//! The caller's containment check then makes the answer exact — a
//! 1-byte block never hides its neighbour, and a miss needs no second
//! search. Memory is one cell per touched page plus one entry per
//! block, and a cell with starts also holds a rank table of at most one
//! `u16` per line, 64 of them; a page wholly inside one block is a cell
//! with a head, no list and no table.
//!
//! Blocks must not overlap, except that a block may start where another
//! starts (in the address space and the MSRLT, only where a zero-size
//! block starts): it then replaces that block on every page, as an
//! ordered map's insert replaces the entry at its key, and
//! [`PageIndex::insert`] returns the replaced value.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// log₂ of the index's page size (4 KiB, like the machines the presets
/// model).
pub const PAGE_SHIFT: u32 = 12;
/// The index's page size in bytes.
pub const PAGE_SIZE: u64 = 1 << PAGE_SHIFT;
const PAGE_MASK: u64 = PAGE_SIZE - 1;
/// log₂ of a rank-table line: a cache line's 64 bytes of the page.
const LINE_SHIFT: u32 = 6;

fn line(off: u16) -> usize {
    usize::from(off >> LINE_SHIFT)
}

/// Multiplicative hash of a page number. Consecutive pages land in
/// distinct buckets (an odd multiplier permutes the low bits) and the
/// high bits, which the table's control bytes use, mix well. SipHash's
/// flooding resistance buys nothing here: the stored keys are pages of
/// blocks the process allocated itself, and looking up a wild address
/// stores nothing.
#[derive(Debug, Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

#[derive(Debug, Clone)]
struct Cell<V> {
    /// The block that starts at the page's first byte, or started on an
    /// earlier page and runs into this one.
    head: Option<V>,
    /// `(in-page offset, value)` of the blocks starting after the page's
    /// first byte, by ascending offset. A lookup compares only the few
    /// starts of one line, so each offset sits beside its value.
    starts: Vec<(u16, V)>,
    /// `rank[l]` is the number of `starts` below line `l` (bytes
    /// `64·l ..`), for the lines up to the last start's: past it every
    /// start lies below, so a start appended there only extends the
    /// table. Empty, and unallocated, while the page has no starts.
    rank: Vec<u16>,
}

impl<V: Copy> Cell<V> {
    fn empty() -> Self {
        Cell {
            head: None,
            starts: Vec::new(),
            rank: Vec::new(),
        }
    }

    fn is_empty(&self) -> bool {
        self.head.is_none() && self.starts.is_empty()
    }

    /// The value of the last block starting at or below `off`: the
    /// starts below `off`'s line are counted by the rank table, so only
    /// the starts inside that line are compared.
    #[inline]
    fn get(&self, off: u16) -> Option<V> {
        let mut i = match self.rank.get(line(off)) {
            Some(&below) => usize::from(below),
            None => self.starts.len(),
        };
        while self.starts.get(i).is_some_and(|&(o, _)| o <= off) {
            i += 1;
        }
        match i {
            0 => self.head,
            i => Some(self.starts[i - 1].1),
        }
    }

    fn find(&self, off: u16) -> Result<usize, usize> {
        self.starts.binary_search_by_key(&off, |&(o, _)| o)
    }

    /// Record `v` as the block starting at `off` (offset 0 is the head),
    /// returning the value it replaces there.
    fn set(&mut self, off: u16, v: V) -> Option<V> {
        if off == 0 {
            return self.head.replace(v);
        }
        // An append, the order the restorer allocates in, needs no search.
        let i = match self.starts.last() {
            Some(&(last, _)) if last >= off => match self.find(off) {
                Ok(i) => return Some(std::mem::replace(&mut self.starts[i].1, v)),
                Err(i) => i,
            },
            _ => self.starts.len(),
        };
        self.starts.insert(i, (off, v));
        let l = line(off);
        for below in self.rank.iter_mut().skip(l + 1) {
            *below += 1;
        }
        if l >= self.rank.len() {
            // The new last start: every other one lies below the lines
            // this adds. At most 4 095 starts, so a count fits a `u16`.
            self.rank.resize(l + 1, i as u16);
        }
        None
    }

    /// Forget the block starting at `off`.
    fn take(&mut self, off: u16) -> Option<V> {
        if off == 0 {
            return self.head.take();
        }
        let i = self.find(off).ok()?;
        let (_, v) = self.starts.remove(i);
        match self.starts.last() {
            Some(&(last, _)) => {
                self.rank.truncate(line(last) + 1);
                for below in self.rank.iter_mut().skip(line(off) + 1) {
                    *below -= 1;
                }
            }
            // No starts left: the list and the table give back their memory.
            None => {
                *self = Cell {
                    head: self.head,
                    ..Cell::empty()
                }
            }
        }
        Some(v)
    }
}

/// Address → value index over non-overlapping blocks (module docs).
#[derive(Debug, Clone)]
pub struct PageIndex<V> {
    /// Page number → slot in `cells`.
    dir: HashMap<u64, u32, BuildHasherDefault<PageHasher>>,
    cells: Vec<Cell<V>>,
    /// Slots of `cells` whose page emptied, for the next new page.
    free: Vec<u32>,
    len: usize,
}

impl<V> Default for PageIndex<V> {
    fn default() -> Self {
        PageIndex {
            dir: HashMap::default(),
            cells: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }
}

fn offset(addr: u64) -> u16 {
    (addr & PAGE_MASK) as u16
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

    /// The value of the block with the greatest start at or below
    /// `addr`, if that block starts on `addr`'s page or runs into it.
    /// Whether it still contains `addr` is the caller's check.
    pub fn get(&self, addr: u64) -> Option<V> {
        let &c = self.dir.get(&(addr >> PAGE_SHIFT))?;
        self.cells[c as usize].get(offset(addr))
    }

    fn cell_mut(&mut self, page: u64) -> &mut Cell<V> {
        let (cells, free) = (&mut self.cells, &mut self.free);
        let c = *self.dir.entry(page).or_insert_with(|| {
            free.pop().unwrap_or_else(|| {
                cells.push(Cell::empty());
                (cells.len() - 1) as u32
            })
        });
        &mut self.cells[c as usize]
    }

    /// Record the block `[start, start + len)` as `v`: one directory
    /// write per page it reaches. Returns the value of the block that
    /// started at `start`, which the new block replaces.
    pub fn insert(&mut self, start: u64, len: u64, v: V) -> Option<V> {
        let first = start >> PAGE_SHIFT;
        let replaced = self.cell_mut(first).set(offset(start), v);
        match replaced {
            None => self.len += 1,
            Some(old) => self.forget_heads(first + 1, old),
        }
        // A zero-size block lives on its start page alone.
        let last = (start + len.max(1) - 1) >> PAGE_SHIFT;
        for page in first + 1..=last {
            self.cell_mut(page).head = Some(v);
        }
        replaced
    }

    /// Forget the block that starts at `start`, returning its value;
    /// `None` (and no change) if no block starts there. `start` must not
    /// lie inside another block. Cells left empty are recycled.
    pub fn remove(&mut self, start: u64) -> Option<V> {
        let first = start >> PAGE_SHIFT;
        let c = *self.dir.get(&first)?;
        let v = self.cells[c as usize].take(offset(start))?;
        self.release_if_empty(first, c);
        self.forget_heads(first + 1, v);
        self.len -= 1;
        Some(v)
    }

    /// Clear `v` from the heads of `page` and the pages after it, as far
    /// as its block runs.
    fn forget_heads(&mut self, mut page: u64, v: V) {
        while let Some(&c) = self.dir.get(&page) {
            let cell = &mut self.cells[c as usize];
            if cell.head != Some(v) {
                break;
            }
            cell.head = None;
            self.release_if_empty(page, c);
            page += 1;
        }
    }

    fn release_if_empty(&mut self, page: u64, c: u32) {
        let cell = &mut self.cells[c as usize];
        if cell.is_empty() {
            *cell = Cell::empty();
            self.dir.remove(&page);
            self.free.push(c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // the next page has no cell at all.
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
        assert_eq!((ix.len(), ix.dir.len()), (1, 1));
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
    fn an_emptied_page_is_reclaimed_and_its_cell_reused() {
        let mut ix = PageIndex::new();
        ix.insert(0x7000, 4, 1u64);
        ix.insert(0x7004, 4, 2);
        ix.remove(0x7000);
        assert_eq!(ix.get(0x7000), None);
        assert_eq!(ix.get(0x7005), Some(2), "one block still starts there");
        assert_eq!(ix.dir.len(), 1);
        ix.remove(0x7004);
        assert_eq!(ix.get(0x7005), None);
        assert_eq!(ix.dir.len(), 0);
        // The next new page takes the freed cell, and nothing the old
        // page held answers through it, there or on the new page.
        ix.insert(0x9010, 4, 3);
        assert_eq!(ix.cells.len(), 1);
        assert_eq!(ix.get(0x7005), None);
        assert_eq!(ix.get(0x9005), None);
        assert_eq!(ix.get(0x9010), Some(3));
    }

    #[test]
    fn blocks_that_tile_pages_are_heads_only() {
        let mut ix = PageIndex::new();
        for (i, page) in (0x10u64..0x14).enumerate() {
            ix.insert(page * PAGE_SIZE, PAGE_SIZE, i);
        }
        ix.insert(0x14 * PAGE_SIZE, 3 * PAGE_SIZE, 9);
        assert!(ix
            .cells
            .iter()
            .all(|c| c.starts.is_empty() && c.rank.capacity() == 0));
        assert_eq!(ix.get(0x12 * PAGE_SIZE + PAGE_SIZE - 1), Some(2));
        assert_eq!(ix.get(0x16 * PAGE_SIZE + PAGE_SIZE - 1), Some(9));
        assert_eq!(ix.get(0x17 * PAGE_SIZE), None);
        assert_eq!(ix.len(), 5);
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

    /// Holds a cell's rank table to its definition: one entry per line
    /// up to the last start's, each the count of starts on earlier lines.
    fn assert_rank<V>(cell: &Cell<V>) {
        let offs: Vec<u16> = cell.starts.iter().map(|&(o, _)| o).collect();
        assert!(offs.windows(2).all(|w| w[0] < w[1]), "starts ascend");
        let lines = offs.last().map_or(0, |&o| line(o) + 1);
        assert_eq!(
            cell.rank.len(),
            lines,
            "table ends at the last start's line"
        );
        for (l, &below) in cell.rank.iter().enumerate() {
            let want = offs.partition_point(|&o| line(o) < l);
            assert_eq!(usize::from(below), want, "rank[{l}]");
        }
    }

    /// Start → (length, value) of every block the index should hold.
    type Model = std::collections::BTreeMap<u64, (u64, u32)>;

    /// The index against an ordered map's predecessor query, which
    /// shares none of its code: every byte of every block, and the one
    /// past its end, answers the block with the greatest start at or
    /// below it if that block reaches the byte's page, else nothing.
    fn check(ix: &PageIndex<u32>, model: &Model) {
        assert_eq!(ix.len(), model.len());
        ix.cells.iter().for_each(assert_rank);
        let want = |x: u64| {
            let (&start, &(len, v)) = model.range(..=x).next_back()?;
            ((start + len - 1) >> PAGE_SHIFT >= x >> PAGE_SHIFT).then_some(v)
        };
        for (&start, &(len, _)) in model {
            for x in start..=start + len {
                assert_eq!(ix.get(x), want(x), "get({x:#x})");
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
    fn a_full_page_of_one_byte_blocks_ranks_to_the_u16_ceiling() {
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
        assert_eq!(ix.cells[0].rank.last(), Some(&(PAGE_SIZE as u16 - 65)));
        // Empty every other line, then the whole page, in the same order.
        for &o in offs.iter().filter(|&&o| !line(o as u16).is_multiple_of(2)) {
            remove(&mut ix, &mut m, page + o);
        }
        check(&ix, &m);
        for &o in offs.iter().filter(|&&o| line(o as u16).is_multiple_of(2)) {
            remove(&mut ix, &mut m, page + o);
        }
        check(&ix, &m);
        assert_eq!(
            ix.cells[0].rank.capacity(),
            0,
            "a head-only cell holds no table"
        );
    }

    #[test]
    fn ascending_appends_and_descending_inserts_rank_alike() {
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
    fn removing_a_last_start_or_a_mid_line_start_keeps_the_rank() {
        let (mut ix, mut m) = (PageIndex::new(), Model::new());
        let page = 0x20 * PAGE_SIZE;
        // A head block, three starts in line 2, one in line 5, the last
        // in line 40.
        insert(&mut ix, &mut m, page, 100, 0);
        for (v, off) in [(1, 130), (2, 140), (3, 150), (4, 330), (5, 2600)] {
            insert(&mut ix, &mut m, page + off, 8, v);
        }
        check(&ix, &m);
        remove(&mut ix, &mut m, page + 140);
        check(&ix, &m);
        assert_eq!(
            ix.get(page + 145),
            Some(1),
            "the line's earlier start answers"
        );
        remove(&mut ix, &mut m, page + 2600);
        check(&ix, &m);
        assert_eq!(ix.cells[0].rank.len(), 6, "the table ends at line 5 now");
        assert_eq!(ix.get(page + 2600), Some(4));
        // An append past the trimmed table extends it again.
        insert(&mut ix, &mut m, page + 4000, 8, 6);
        check(&ix, &m);
        remove(&mut ix, &mut m, page + 330);
        remove(&mut ix, &mut m, page + 4000);
        check(&ix, &m);
        assert_eq!(ix.cells[0].rank, [0, 0, 0]);
    }

    /// Seeded insert / remove churn over eight pages: blocks of 1 byte to
    /// two pages, placed wherever they fit, so starts share lines, pages
    /// fill and drain, and heads come and go under them.
    #[test]
    fn rank_lookup_agrees_with_an_ordered_map_under_churn() {
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
                        1..=3 => 1 + (r >> 16) % 4,
                        _ => 1 + (r >> 16) % 200,
                    };
                    let start = BASE + (r >> 32) % (SPAN - len);
                    let free_below = m
                        .range(..=start)
                        .next_back()
                        .is_none_or(|(&a, &(l, _))| a + l <= start);
                    let free_above = m.range(start..start + len).next().is_none();
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
        }
    }
}
