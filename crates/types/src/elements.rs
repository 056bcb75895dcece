//! The element order: memory blocks as ordered sequences of scalar leaves.
//!
//! §3.2 of the paper: a machine-independent pointer is a *(pointer header,
//! offset)* pair where "the offset is the ordering number of the data
//! elements inside the memory block". [`for_each_leaf`] defines that
//! ordering — a depth-first flattening of the block's type into scalar
//! leaves. [`compile_plan`](crate::plan::compile_plan) folds it into a
//! type's [`SavePlan`](crate::plan::SavePlan), whose leaf tables answer
//! both translations the MSRLT needs:
//!
//! * *leaf index → byte offset* (restoring a pointer on the destination),
//! * *byte offset → leaf index* (collecting a pointer on the source).
//!
//! Leaf *order* is purely structural and therefore identical on every
//! architecture; leaf *byte offsets* are architecture-specific.

use crate::layout::LayoutEngine;
use crate::{TypeDef, TypeError, TypeId, TypeTable};
use hpm_arch::{Architecture, CScalar};

/// One scalar leaf of a type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Leaf {
    /// Byte offset of the leaf from the start of the enclosing value, on
    /// the architecture the query was made for.
    pub offset: u64,
    /// The scalar kind stored at that offset.
    pub kind: CScalar,
    /// For pointer leaves, the pointee type.
    pub pointee: Option<TypeId>,
}

/// Enumerate every leaf of `ty` in element order, with byte offsets for
/// `arch`, taking layouts from `engine`.
pub fn for_each_leaf<F: FnMut(Leaf)>(
    engine: &mut LayoutEngine,
    table: &TypeTable,
    arch: &Architecture,
    ty: TypeId,
    f: &mut F,
) -> Result<(), TypeError> {
    walk(engine, table, arch, ty, 0, f)
}

fn walk<F: FnMut(Leaf)>(
    engine: &mut LayoutEngine,
    table: &TypeTable,
    arch: &Architecture,
    ty: TypeId,
    base: u64,
    f: &mut F,
) -> Result<(), TypeError> {
    match table.def(ty) {
        TypeDef::Scalar(s) => {
            f(Leaf {
                offset: base,
                kind: *s,
                pointee: None,
            });
            Ok(())
        }
        TypeDef::Pointer(p) => {
            f(Leaf {
                offset: base,
                kind: CScalar::Ptr,
                pointee: Some(*p),
            });
            Ok(())
        }
        TypeDef::Array { elem, count } => {
            let (elem, count) = (*elem, *count);
            let el = engine.layout(table, arch, elem)?;
            for i in 0..count {
                walk(engine, table, arch, elem, base + i * el.size, f)?;
            }
            Ok(())
        }
        TypeDef::Struct { name, fields } => {
            let fields = fields
                .as_ref()
                .ok_or_else(|| TypeError::IncompleteType(name.clone()))?;
            let offsets = engine.struct_field_offsets(table, arch, ty)?;
            for (field, off) in fields.iter().zip(offsets.iter()) {
                walk(engine, table, arch, field.ty, base + off, f)?;
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{compile_plan, LeafMiss, SavePlan};
    use crate::Field;

    fn plan(t: &TypeTable, arch: &Architecture, ty: TypeId) -> SavePlan {
        compile_plan(&mut LayoutEngine::new(), t, arch, ty).unwrap()
    }

    fn leaves(t: &TypeTable, arch: &Architecture, ty: TypeId) -> Vec<Leaf> {
        let mut out = Vec::new();
        for_each_leaf(&mut LayoutEngine::new(), t, arch, ty, &mut |l| out.push(l)).unwrap();
        out
    }

    fn node_type(t: &mut TypeTable) -> TypeId {
        let node = t.declare_struct("node");
        let link = t.pointer_to(node);
        let f = t.float();
        t.define_struct(node, vec![Field::new("data", f), Field::new("link", link)])
            .unwrap();
        node
    }

    #[test]
    fn leaf_counts() {
        let mut t = TypeTable::new();
        let arch = Architecture::sparc20();
        let i = t.int();
        assert_eq!(plan(&t, &arch, i).leaf_count, 1);
        let a = t.array_of(i, 10);
        assert_eq!(plan(&t, &arch, a).leaf_count, 10);
        let node = node_type(&mut t);
        assert_eq!(plan(&t, &arch, node).leaf_count, 2);
        let arr_node = t.array_of(node, 5);
        assert_eq!(plan(&t, &arch, arr_node).leaf_count, 10);
    }

    #[test]
    fn leaf_enumeration_order_and_offsets() {
        let mut t = TypeTable::new();
        let node = node_type(&mut t);
        let leaves = leaves(&t, &Architecture::sparc20(), node);
        assert_eq!(leaves.len(), 2);
        assert_eq!(leaves[0].offset, 0);
        assert_eq!(leaves[0].kind, CScalar::Float);
        assert_eq!(leaves[1].offset, 4);
        assert_eq!(leaves[1].kind, CScalar::Ptr);
        assert_eq!(leaves[1].pointee, Some(node));
    }

    #[test]
    fn leaf_order_is_arch_independent() {
        let mut t = TypeTable::new();
        let node = node_type(&mut t);
        let arr = t.array_of(node, 3);
        let kinds =
            |arch| -> Vec<CScalar> { leaves(&t, &arch, arr).iter().map(|l| l.kind).collect() };
        assert_eq!(
            kinds(Architecture::dec5000()),
            kinds(Architecture::x86_64_sim())
        );
    }

    #[test]
    fn leaf_at_index_matches_enumeration() {
        let mut t = TypeTable::new();
        let node = node_type(&mut t);
        let arr = t.array_of(node, 4);
        let arch = Architecture::x86_64_sim();
        let p = plan(&t, &arch, arr);
        for (i, expect) in leaves(&t, &arch, arr).iter().enumerate() {
            let got = p.leaf_at_index(1, 0, i as u64).unwrap();
            assert_eq!(&got, expect, "leaf {i}");
        }
    }

    #[test]
    fn index_out_of_range() {
        let mut t = TypeTable::new();
        let i = t.int();
        let a = t.array_of(i, 3);
        let p = plan(&t, &Architecture::dec5000(), a);
        assert_eq!(p.leaf_at_index(1, 0, 3), Err(LeafMiss::OutsideBlock));
    }

    #[test]
    fn offset_to_index_roundtrip() {
        let mut t = TypeTable::new();
        let node = node_type(&mut t);
        let arr = t.array_of(node, 4);
        let p = plan(&t, &Architecture::dec5000(), arr);
        for idx in 0..p.leaf_count {
            let leaf = p.leaf_at_index(1, 0, idx).unwrap();
            let (got_idx, got_leaf) = p.leaf_at_offset(1, leaf.offset).unwrap();
            assert_eq!(got_idx, idx);
            assert_eq!(got_leaf, leaf);
        }
    }

    #[test]
    fn padding_offset_rejected() {
        // struct { char c; int i; } on 32-bit: bytes 1..3 are padding.
        let mut t = TypeTable::new();
        let c = t.char_();
        let i = t.int();
        let s = t
            .struct_type("ci", vec![Field::new("c", c), Field::new("i", i)])
            .unwrap();
        let p = plan(&t, &Architecture::sparc20(), s);
        assert!(p.leaf_at_offset(1, 2).is_err());
        assert!(p.leaf_at_offset(1, 0).is_ok());
        assert_eq!(p.leaf_at_offset(1, 4).unwrap().0, 1);
    }

    #[test]
    fn mid_scalar_offset_rejected() {
        let mut t = TypeTable::new();
        let d = t.double();
        let a = t.array_of(d, 2);
        let p = plan(&t, &Architecture::ultra5(), a);
        assert!(p.leaf_at_offset(1, 4).is_err());
        assert_eq!(p.leaf_at_offset(1, 8).unwrap().0, 1);
    }

    #[test]
    fn interior_offset_differs_across_arch() {
        // parray[2] of node*: element 2 of an array of pointers is at
        // byte 8 on ILP32 but byte 16 on LP64 — same element index.
        let mut t = TypeTable::new();
        let node = node_type(&mut t);
        let pnode = t.pointer_to(node);
        let arr = t.array_of(pnode, 10);
        let l32 = plan(&t, &Architecture::sparc20(), arr)
            .leaf_at_index(1, 0, 2)
            .unwrap();
        let l64 = plan(&t, &Architecture::x86_64_sim(), arr)
            .leaf_at_index(1, 0, 2)
            .unwrap();
        assert_eq!(l32.offset, 8);
        assert_eq!(l64.offset, 16);
    }
}

#[cfg(test)]
mod sweep_tests {
    use super::*;
    use crate::plan::compile_plan;
    use crate::Field;

    /// Deterministic splitmix64 generating type-tree seeds (replaces the
    /// external property-testing RNG).
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// A small seed-derived type tree (no recursion) for round-trip
    /// checks.
    fn arb_type(t: &mut TypeTable, depth: u32, seed: u64) -> TypeId {
        let scalars = [
            hpm_arch::CScalar::Char,
            hpm_arch::CScalar::Short,
            hpm_arch::CScalar::Int,
            hpm_arch::CScalar::Long,
            hpm_arch::CScalar::Float,
            hpm_arch::CScalar::Double,
        ];
        if depth == 0 {
            return t.scalar(scalars[(seed % 6) as usize]);
        }
        match seed % 4 {
            0 => {
                let inner = arb_type(t, depth - 1, seed / 4);
                t.pointer_to(inner)
            }
            1 => {
                let inner = arb_type(t, depth - 1, seed / 4);
                t.array_of(inner, 1 + (seed / 16) % 5)
            }
            2 => {
                let a = arb_type(t, depth - 1, seed / 4);
                let b = arb_type(t, depth - 1, seed / 16);
                let name = format!("s{seed}_{depth}");
                t.struct_by_name(&name).unwrap_or_else(|| {
                    t.struct_type(&name, vec![Field::new("a", a), Field::new("b", b)])
                        .unwrap()
                })
            }
            _ => t.scalar(scalars[(seed % 6) as usize]),
        }
    }

    /// Every leaf's (index → offset → index) round-trips on every arch.
    #[test]
    fn leaf_index_offset_roundtrip() {
        let mut s = 0x1eaf_0001u64;
        for _ in 0..48 {
            let seed = next(&mut s);
            let depth = (next(&mut s) % 4) as u32;
            let mut t = TypeTable::new();
            let ty = arb_type(&mut t, depth, seed);
            for arch in Architecture::presets() {
                let p = compile_plan(&mut LayoutEngine::new(), &t, &arch, ty).unwrap();
                for idx in 0..p.leaf_count.min(64) {
                    let leaf = p.leaf_at_index(1, 0, idx).unwrap();
                    let (got, _) = p.leaf_at_offset(1, leaf.offset).unwrap();
                    assert_eq!(got, idx, "seed={seed} depth={depth}");
                }
            }
        }
    }

    /// Leaves never overlap and stay within the type's size.
    #[test]
    fn leaves_disjoint_and_in_bounds() {
        let mut s = 0x1eaf_0002u64;
        for _ in 0..48 {
            let seed = next(&mut s);
            let depth = (next(&mut s) % 4) as u32;
            let mut t = TypeTable::new();
            let ty = arb_type(&mut t, depth, seed);
            for arch in Architecture::presets() {
                let mut engine = LayoutEngine::new();
                let total = engine.layout(&t, &arch, ty).unwrap().size;
                let mut spans: Vec<(u64, u64)> = Vec::new();
                for_each_leaf(&mut engine, &t, &arch, ty, &mut |l| {
                    spans.push((l.offset, arch.scalar_size(l.kind)));
                })
                .unwrap();
                let mut prev_end = 0;
                for (off, size) in spans {
                    assert!(
                        off >= prev_end,
                        "leaf at {off} overlaps previous end {prev_end}"
                    );
                    assert!(off + size <= total);
                    prev_end = off + size;
                }
            }
        }
    }
}
