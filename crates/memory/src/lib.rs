//! # hpm-memory — simulated heterogeneous process address space
//!
//! The paper migrates real C processes whose memory blocks live at raw
//! machine addresses in three segments (global, heap, stack — Figure 1).
//! Raw-pointer process images clash with Rust's safety model, so this
//! crate provides the documented substitution: a byte-accurate *simulated*
//! address space.
//!
//! Everything the collection/restoration algorithms can observe is
//! preserved:
//!
//! * memory blocks live at numeric addresses inside per-segment spans;
//! * a pointer **is** a raw address stored in the block's bytes using the
//!   machine's endianness and pointer width (read it back on the wrong
//!   machine and you get garbage — exactly why migration needs the MSR
//!   machinery);
//! * interior pointers (into the middle of arrays/structs) are legal;
//! * address→block resolution requires a genuine search;
//! * the heap allocator reuses freed space, so address order is not
//!   allocation order.
//!
//! The [`AddressSpace`] owns the process's
//! [`TypeTable`](hpm_types::TypeTable) (each executable carries its own
//! copy of the TI table) and an
//! [`ElementModel`](hpm_types::elements::ElementModel) memoizing layout
//! queries for its architecture.

mod block;
mod space;

pub use block::{BlockInfo, MemoryBlock};
pub use space::{AddressSpace, AllocStats, BlockSlot, FrameId, MemError, ResolvedAddr};

#[cfg(test)]
mod invariant_tests {
    use super::*;
    use hpm_arch::{Architecture, CScalar, ScalarValue};

    /// Deterministic splitmix64 driving the op-sequence sweeps (replaces
    /// the external property-testing RNG).
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Heap blocks never overlap, across varied malloc/free
    /// interleavings, and free space is reused.
    #[test]
    fn allocator_no_overlap() {
        for round in 0..16u64 {
            let mut s = 0xA110C ^ round;
            let n_ops = 1 + (next(&mut s) % 120) as usize;
            let mut space = AddressSpace::new(Architecture::sparc20());
            let int = space.types_mut().int();
            let mut live: Vec<u64> = Vec::new();
            for _ in 0..n_ops {
                let is_alloc = next(&mut s).is_multiple_of(2);
                let n = 1 + next(&mut s) % 63;
                if is_alloc || live.is_empty() {
                    let addr = space.malloc(int, n).unwrap();
                    live.push(addr);
                } else {
                    let idx = (n as usize) % live.len();
                    let addr = live.swap_remove(idx);
                    space.free(addr).unwrap();
                }
            }
            // Verify disjointness of all live blocks.
            let mut spans: Vec<(u64, u64)> = live
                .iter()
                .map(|&a| {
                    let b = space.block_at(a).unwrap();
                    (b.addr, b.size_bytes())
                })
                .collect();
            spans.sort();
            for w in spans.windows(2) {
                assert!(w[0].0 + w[0].1 <= w[1].0, "blocks overlap: {w:?}");
            }
        }
    }

    /// Scalar stores round-trip through memory bytes on every preset.
    #[test]
    fn store_load_roundtrip() {
        let mut s = 0x57031u64;
        for _ in 0..24 {
            let v = next(&mut s) as i32;
            let idx = next(&mut s) % 10;
            for arch in Architecture::presets() {
                let mut space = AddressSpace::new(arch);
                let int = space.types_mut().int();
                let addr = space.malloc(int, 10).unwrap();
                let ea = space.elem_addr(addr, idx).unwrap();
                space.store_scalar(ea, ScalarValue::Int(v as i64)).unwrap();
                let got = space.load_scalar(ea).unwrap();
                assert_eq!(got, ScalarValue::Int(v as i64));
            }
        }
    }

    /// Stores are local: writing one element never disturbs others.
    #[test]
    fn store_is_local() {
        let mut s = 0x10CA1u64;
        for _ in 0..16 {
            let len = 8 + (next(&mut s) % 8) as usize;
            let vals: Vec<i16> = (0..len).map(|_| next(&mut s) as i16).collect();
            let target = (next(&mut s) % 8) as usize;
            let mut space = AddressSpace::new(Architecture::dec5000());
            let short = space.types_mut().scalar(CScalar::Short);
            let addr = space.malloc(short, vals.len() as u64).unwrap();
            for (i, v) in vals.iter().enumerate() {
                let ea = space.elem_addr(addr, i as u64).unwrap();
                space.store_scalar(ea, ScalarValue::Int(*v as i64)).unwrap();
            }
            let ea = space.elem_addr(addr, target as u64).unwrap();
            space.store_scalar(ea, ScalarValue::Int(-2)).unwrap();
            for (i, v) in vals.iter().enumerate() {
                let expect = if i == target { -2 } else { *v as i64 };
                let ea = space.elem_addr(addr, i as u64).unwrap();
                assert_eq!(space.load_scalar(ea).unwrap(), ScalarValue::Int(expect));
            }
        }
    }
}
