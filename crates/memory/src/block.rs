//! Memory blocks: the vertices of the MSR graph.

use crate::BlockSlot;
use hpm_arch::SegmentKind;
use hpm_types::TypeId;

/// One contiguous memory block — a vertex `v_i` of the paper's MSR graph.
///
/// A block is an array of `count` values of element type `ty` (a plain
/// variable is `count == 1`). Its contents are raw bytes in the owning
/// machine's native representation.
#[derive(Debug, Clone)]
pub struct MemoryBlock {
    /// Start address within the simulated address space.
    pub addr: u64,
    /// Element type (from the space's TI table).
    pub ty: TypeId,
    /// Number of elements.
    pub count: u64,
    /// Which segment the block lives in.
    pub segment: SegmentKind,
    /// Variable name for named blocks (globals/locals); heap blocks are
    /// anonymous.
    pub name: Option<String>,
    /// Stack frame sequence number for stack blocks.
    pub frame: Option<u64>,
    /// The block's contents, in native representation.
    pub bytes: Vec<u8>,
}

impl MemoryBlock {
    /// Total size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// One-past-the-end address.
    pub fn end(&self) -> u64 {
        self.addr + self.size_bytes()
    }

    /// Whether `addr` points into this block.
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.addr && addr < self.end()
    }

    /// Display label: the variable name, or `addrN`-style for heap blocks
    /// (matching the paper's Figure 1 naming).
    pub fn label(&self) -> String {
        match &self.name {
            Some(n) => n.clone(),
            None => format!("addr@{:#x}", self.addr),
        }
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
    /// Optional variable name.
    pub name: Option<String>,
    /// Stack frame number for stack blocks.
    pub frame: Option<u64>,
    /// Size in bytes.
    pub size: u64,
    /// Handle to the block's bytes, which an MSRLT record carries so the
    /// collector and restorer never resolve the block's address again.
    pub slot: BlockSlot,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block() -> MemoryBlock {
        MemoryBlock {
            addr: 0x1000,
            ty: TypeId(0),
            count: 4,
            segment: SegmentKind::Heap,
            name: None,
            frame: None,
            bytes: vec![0; 16],
        }
    }

    #[test]
    fn bounds() {
        let b = block();
        assert_eq!(b.size_bytes(), 16);
        assert_eq!(b.end(), 0x1010);
        assert!(b.contains(0x1000));
        assert!(b.contains(0x100F));
        assert!(!b.contains(0x1010));
        assert!(!b.contains(0xFFF));
    }

    #[test]
    fn labels() {
        let mut b = block();
        assert_eq!(b.label(), "addr@0x1000");
        b.name = Some("parray".into());
        assert_eq!(b.label(), "parray");
    }
}
