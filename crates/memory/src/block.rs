//! Memory blocks: the vertices of the MSR graph.

use crate::BlockSlot;
use hpm_arch::SegmentKind;
use hpm_types::TypeId;

/// One contiguous memory block — a vertex `v_i` of the paper's MSR graph.
///
/// A block is an array of `count` values of element type `ty` (a plain
/// variable is `count == 1`). It is a fixed 32-byte record: its contents
/// are `size` bytes of its segment's buffer starting at `addr`, in the
/// owning machine's native representation, and the names of globals and
/// locals live beside the arena ([`BlockInfo::name`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryBlock {
    /// Start address within the simulated address space.
    pub addr: u64,
    /// Number of elements.
    pub count: u64,
    /// Size in bytes (a heap block is at least one byte).
    pub size: u64,
    /// Element type (from the space's TI table).
    pub ty: TypeId,
    /// Which segment the block lives in.
    pub segment: SegmentKind,
}

impl MemoryBlock {
    /// One-past-the-end address.
    pub fn end(&self) -> u64 {
        self.addr + self.size
    }

    /// Whether `addr` points into this block.
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.addr && addr < self.end()
    }
}

/// Borrow-free snapshot of a block's metadata (no contents), used by the
/// collection machinery to walk blocks while the space is mutably held.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockInfo {
    /// Start address.
    pub addr: u64,
    /// Element type.
    pub ty: TypeId,
    /// Element count.
    pub count: u64,
    /// Segment.
    pub segment: SegmentKind,
    /// Variable name for named blocks (globals/locals); heap blocks are
    /// anonymous.
    pub name: Option<String>,
    /// Stack frame number for stack blocks.
    pub frame: Option<u64>,
    /// Size in bytes.
    pub size: u64,
    /// Handle to the block's bytes, which the MSRLT records at the
    /// block's id so the restorer never resolves the block's address.
    pub slot: BlockSlot,
}

impl BlockInfo {
    /// Display label: the variable name, or `addr@…` for heap blocks
    /// (matching the paper's Figure 1 naming).
    pub fn label(&self) -> String {
        match &self.name {
            Some(n) => n.clone(),
            None => format!("addr@{:#x}", self.addr),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_record_is_32_bytes() {
        assert_eq!(std::mem::size_of::<MemoryBlock>(), 32);
        assert_eq!(std::mem::size_of::<Option<MemoryBlock>>(), 32);
    }

    #[test]
    fn bounds() {
        let b = MemoryBlock {
            addr: 0x1000,
            count: 4,
            size: 16,
            ty: TypeId(0),
            segment: SegmentKind::Heap,
        };
        assert_eq!(b.end(), 0x1010);
        assert!(b.contains(0x1000));
        assert!(b.contains(0x100F));
        assert!(!b.contains(0x1010));
        assert!(!b.contains(0xFFF));
    }

    #[test]
    fn labels() {
        let mut space = crate::AddressSpace::new(hpm_arch::Architecture::sparc20());
        let int = space.types_mut().int();
        let mut b = BlockInfo {
            addr: 0x1000,
            ty: TypeId(0),
            count: 4,
            segment: SegmentKind::Heap,
            name: None,
            frame: None,
            size: 16,
            slot: space.malloc_slot(int, 4).unwrap(),
        };
        assert_eq!(b.label(), "addr@0x1000");
        b.name = Some("parray".into());
        assert_eq!(b.label(), "parray");
    }
}
