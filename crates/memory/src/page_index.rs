//! The one address → block index: a 4 KiB page directory whose cells
//! list the blocks that start inside each page.
//!
//! Both address maps of the simulator are built on it, and each has no
//! other: the address space's (address → arena slot) and the MSRLT's
//! (address → logical id). A lookup is one directory probe plus a
//! binary search over one page's block starts, and it answers what an
//! ordered map's predecessor query would: the block with the greatest
//! start at or below the address. The caller's containment check then
//! makes the answer exact — a 1-byte block never hides its neighbour,
//! and a miss needs no second search. Memory is one cell per touched
//! page plus one entry per block; a page wholly inside one block is a
//! cell with a head and no list.
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
    /// In-page offsets of the blocks starting after the page's first
    /// byte, ascending: the searched half of the `(offset, value)` list,
    /// kept apart so a search touches two bytes an entry.
    offs: Vec<u16>,
    /// `vals[i]` is the block starting at `offs[i]`.
    vals: Vec<V>,
}

impl<V: Copy> Cell<V> {
    fn empty() -> Self {
        Cell {
            head: None,
            offs: Vec::new(),
            vals: Vec::new(),
        }
    }

    fn is_empty(&self) -> bool {
        self.head.is_none() && self.offs.is_empty()
    }

    fn get(&self, off: u16) -> Option<V> {
        match self.offs.partition_point(|&o| o <= off) {
            0 => self.head,
            i => Some(self.vals[i - 1]),
        }
    }

    /// Record `v` as the block starting at `off` (offset 0 is the head),
    /// returning the value it replaces there.
    fn set(&mut self, off: u16, v: V) -> Option<V> {
        if off == 0 {
            return self.head.replace(v);
        }
        match self.offs.binary_search(&off) {
            Ok(i) => Some(std::mem::replace(&mut self.vals[i], v)),
            Err(i) => {
                self.offs.insert(i, off);
                self.vals.insert(i, v);
                None
            }
        }
    }

    /// Forget the block starting at `off`.
    fn take(&mut self, off: u16) -> Option<V> {
        if off == 0 {
            return self.head.take();
        }
        let i = self.offs.binary_search(&off).ok()?;
        self.offs.remove(i);
        Some(self.vals.remove(i))
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
        assert!(ix.cells.iter().all(|c| c.offs.is_empty()));
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
}
