//! The element model: memory blocks as ordered sequences of scalar leaves.
//!
//! §3.2 of the paper: a machine-independent pointer is a *(pointer header,
//! offset)* pair where "the offset is the ordering number of the data
//! elements inside the memory block". This module defines that ordering —
//! a depth-first flattening of the block's type into scalar leaves — and
//! the two translations the MSRLT needs:
//!
//! * *leaf index → byte offset* (restoring a pointer on the destination),
//! * *byte offset → leaf index* (collecting a pointer on the source).
//!
//! Leaf *order* is purely structural and therefore identical on every
//! architecture; leaf *byte offsets* are architecture-specific.

use crate::layout::LayoutEngine;
use crate::{TypeDef, TypeError, TypeId, TypeTable};
use hpm_arch::{Architecture, CScalar};
use std::collections::HashMap;

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

/// Extra errors for element queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ElementError {
    /// Underlying type/layout failure.
    Type(TypeError),
    /// The leaf index was ≥ the type's leaf count.
    IndexOutOfRange {
        /// Requested index.
        index: u64,
        /// Total leaves available.
        count: u64,
    },
    /// The byte offset does not land on the start of a scalar leaf (e.g.
    /// mid-scalar, or inside struct padding).
    OffsetNotAtLeaf(u64),
}

impl From<TypeError> for ElementError {
    fn from(e: TypeError) -> Self {
        ElementError::Type(e)
    }
}

impl std::fmt::Display for ElementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ElementError::Type(e) => write!(f, "{e}"),
            ElementError::IndexOutOfRange { index, count } => {
                write!(f, "leaf index {index} out of range (count {count})")
            }
            ElementError::OffsetNotAtLeaf(o) => write!(f, "offset {o} is not a leaf boundary"),
        }
    }
}

impl std::error::Error for ElementError {}

/// Memoizing element calculator for one `(TypeTable, Architecture)` pair.
///
/// Wraps a [`LayoutEngine`] and adds leaf-count caching. All byte offsets
/// it reports are for the architecture passed to each call (callers keep
/// one `ElementModel` per machine).
#[derive(Debug, Default, Clone)]
pub struct ElementModel {
    /// Underlying layout calculator (public so callers can share it).
    pub engine: LayoutEngine,
    counts: HashMap<TypeId, u64>,
}

impl ElementModel {
    /// New empty model.
    pub fn new() -> Self {
        ElementModel::default()
    }

    /// Number of scalar leaves in `ty` (architecture-independent).
    pub fn leaf_count(&mut self, table: &TypeTable, ty: TypeId) -> Result<u64, TypeError> {
        if let Some(&c) = self.counts.get(&ty) {
            return Ok(c);
        }
        let c = match table.def(ty) {
            TypeDef::Scalar(_) | TypeDef::Pointer(_) => 1,
            TypeDef::Array { elem, count } => self.leaf_count(table, *elem)? * count,
            TypeDef::Struct { name, fields } => {
                let fields = fields
                    .as_ref()
                    .ok_or_else(|| TypeError::IncompleteType(name.clone()))?
                    .clone();
                let mut total = 0;
                for f in &fields {
                    total += self.leaf_count(table, f.ty)?;
                }
                total
            }
        };
        self.counts.insert(ty, c);
        Ok(c)
    }

    /// Enumerate every leaf of `ty` in element order, with byte offsets
    /// for `arch`.
    pub fn for_each_leaf<F: FnMut(Leaf)>(
        &mut self,
        table: &TypeTable,
        arch: &Architecture,
        ty: TypeId,
        f: &mut F,
    ) -> Result<(), ElementError> {
        self.walk(table, arch, ty, 0, f)
    }

    fn walk<F: FnMut(Leaf)>(
        &mut self,
        table: &TypeTable,
        arch: &Architecture,
        ty: TypeId,
        base: u64,
        f: &mut F,
    ) -> Result<(), ElementError> {
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
                let el = self.engine.layout(table, arch, elem)?;
                for i in 0..count {
                    self.walk(table, arch, elem, base + i * el.size, f)?;
                }
                Ok(())
            }
            TypeDef::Struct { name, fields } => {
                let fields = fields
                    .as_ref()
                    .ok_or_else(|| TypeError::IncompleteType(name.clone()))?;
                let offsets = self.engine.struct_field_offsets(table, arch, ty)?;
                for (field, off) in fields.iter().zip(offsets.iter()) {
                    self.walk(table, arch, field.ty, base + off, f)?;
                }
                Ok(())
            }
        }
    }

    /// The `index`-th leaf of `ty`, located in `O(type depth)` time.
    pub fn leaf_at_index(
        &mut self,
        table: &TypeTable,
        arch: &Architecture,
        ty: TypeId,
        index: u64,
    ) -> Result<Leaf, ElementError> {
        let count = self.leaf_count(table, ty)?;
        if index >= count {
            return Err(ElementError::IndexOutOfRange { index, count });
        }
        self.descend(table, arch, ty, index, 0)
    }

    fn descend(
        &mut self,
        table: &TypeTable,
        arch: &Architecture,
        ty: TypeId,
        index: u64,
        base: u64,
    ) -> Result<Leaf, ElementError> {
        match table.def(ty) {
            TypeDef::Scalar(s) => {
                debug_assert_eq!(index, 0);
                Ok(Leaf {
                    offset: base,
                    kind: *s,
                    pointee: None,
                })
            }
            TypeDef::Pointer(p) => {
                debug_assert_eq!(index, 0);
                Ok(Leaf {
                    offset: base,
                    kind: CScalar::Ptr,
                    pointee: Some(*p),
                })
            }
            TypeDef::Array { elem, .. } => {
                let elem = *elem;
                let per = self.leaf_count(table, elem)?;
                let el = self.engine.layout(table, arch, elem)?;
                let i = index / per;
                self.descend(table, arch, elem, index % per, base + i * el.size)
            }
            TypeDef::Struct { name, fields } => {
                let nfields = match fields {
                    None => return Err(TypeError::IncompleteType(name.clone()).into()),
                    Some(fs) => fs.len(),
                };
                let offsets = self.engine.struct_field_offsets(table, arch, ty)?;
                let mut idx = index;
                for fi in 0..nfields {
                    let fty = match table.def(ty) {
                        TypeDef::Struct {
                            fields: Some(fs), ..
                        } => fs[fi].ty,
                        _ => unreachable!(),
                    };
                    let per = self.leaf_count(table, fty)?;
                    if idx < per {
                        return self.descend(table, arch, fty, idx, base + offsets[fi]);
                    }
                    idx -= per;
                }
                unreachable!("index checked against leaf_count")
            }
        }
    }

    /// The leaf whose byte offset is exactly `offset`, plus its element
    /// index — the source-side translation for an interior pointer.
    pub fn leaf_index_at_offset(
        &mut self,
        table: &TypeTable,
        arch: &Architecture,
        ty: TypeId,
        offset: u64,
    ) -> Result<(u64, Leaf), ElementError> {
        match table.def(ty) {
            TypeDef::Scalar(s) => {
                if offset != 0 {
                    return Err(ElementError::OffsetNotAtLeaf(offset));
                }
                Ok((
                    0,
                    Leaf {
                        offset: 0,
                        kind: *s,
                        pointee: None,
                    },
                ))
            }
            TypeDef::Pointer(p) => {
                if offset != 0 {
                    return Err(ElementError::OffsetNotAtLeaf(offset));
                }
                Ok((
                    0,
                    Leaf {
                        offset: 0,
                        kind: CScalar::Ptr,
                        pointee: Some(*p),
                    },
                ))
            }
            TypeDef::Array { elem, count } => {
                let (elem, count) = (*elem, *count);
                let el = self.engine.layout(table, arch, elem)?;
                // Zero-size elements have no leaves to land on.
                if el.size == 0 || offset / el.size >= count {
                    return Err(ElementError::OffsetNotAtLeaf(offset));
                }
                let i = offset / el.size;
                let per = self.leaf_count(table, elem)?;
                let (inner_idx, leaf) =
                    self.leaf_index_at_offset(table, arch, elem, offset % el.size)?;
                Ok((
                    i * per + inner_idx,
                    Leaf {
                        offset: i * el.size + leaf.offset,
                        ..leaf
                    },
                ))
            }
            TypeDef::Struct { name, fields } => {
                let nfields = match fields {
                    None => return Err(TypeError::IncompleteType(name.clone()).into()),
                    Some(fs) => fs.len(),
                };
                let offsets = self.engine.struct_field_offsets(table, arch, ty)?;
                let mut leaf_base = 0u64;
                for fi in 0..nfields {
                    let fty = match table.def(ty) {
                        TypeDef::Struct {
                            fields: Some(fs), ..
                        } => fs[fi].ty,
                        _ => unreachable!(),
                    };
                    let foff = offsets[fi];
                    let fl = self.engine.layout(table, arch, fty)?;
                    let per = self.leaf_count(table, fty)?;
                    if offset >= foff && offset < foff + fl.size {
                        let (inner_idx, leaf) =
                            self.leaf_index_at_offset(table, arch, fty, offset - foff)?;
                        return Ok((
                            leaf_base + inner_idx,
                            Leaf {
                                offset: foff + leaf.offset,
                                ..leaf
                            },
                        ));
                    }
                    leaf_base += per;
                }
                Err(ElementError::OffsetNotAtLeaf(offset))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Field;

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
        let mut m = ElementModel::new();
        let i = t.int();
        assert_eq!(m.leaf_count(&t, i).unwrap(), 1);
        let a = t.array_of(i, 10);
        assert_eq!(m.leaf_count(&t, a).unwrap(), 10);
        let node = node_type(&mut t);
        assert_eq!(m.leaf_count(&t, node).unwrap(), 2);
        let arr_node = t.array_of(node, 5);
        assert_eq!(m.leaf_count(&t, arr_node).unwrap(), 10);
    }

    #[test]
    fn leaf_enumeration_order_and_offsets() {
        let mut t = TypeTable::new();
        let node = node_type(&mut t);
        let mut m = ElementModel::new();
        let arch = Architecture::sparc20();
        let mut leaves = Vec::new();
        m.for_each_leaf(&t, &arch, node, &mut |l| leaves.push(l))
            .unwrap();
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
        let mut kinds32 = Vec::new();
        let mut kinds64 = Vec::new();
        let mut m32 = ElementModel::new();
        let mut m64 = ElementModel::new();
        m32.for_each_leaf(&t, &Architecture::dec5000(), arr, &mut |l| {
            kinds32.push(l.kind)
        })
        .unwrap();
        m64.for_each_leaf(&t, &Architecture::x86_64_sim(), arr, &mut |l| {
            kinds64.push(l.kind)
        })
        .unwrap();
        assert_eq!(kinds32, kinds64);
    }

    #[test]
    fn leaf_at_index_matches_enumeration() {
        let mut t = TypeTable::new();
        let node = node_type(&mut t);
        let arr = t.array_of(node, 4);
        let arch = Architecture::x86_64_sim();
        let mut m = ElementModel::new();
        let mut leaves = Vec::new();
        m.for_each_leaf(&t, &arch, arr, &mut |l| leaves.push(l))
            .unwrap();
        for (i, expect) in leaves.iter().enumerate() {
            let got = m.leaf_at_index(&t, &arch, arr, i as u64).unwrap();
            assert_eq!(&got, expect, "leaf {i}");
        }
    }

    #[test]
    fn index_out_of_range() {
        let mut t = TypeTable::new();
        let i = t.int();
        let a = t.array_of(i, 3);
        let mut m = ElementModel::new();
        assert!(matches!(
            m.leaf_at_index(&t, &Architecture::dec5000(), a, 3),
            Err(ElementError::IndexOutOfRange { index: 3, count: 3 })
        ));
    }

    #[test]
    fn offset_to_index_roundtrip() {
        let mut t = TypeTable::new();
        let node = node_type(&mut t);
        let arr = t.array_of(node, 4);
        let arch = Architecture::dec5000();
        let mut m = ElementModel::new();
        let count = m.leaf_count(&t, arr).unwrap();
        for idx in 0..count {
            let leaf = m.leaf_at_index(&t, &arch, arr, idx).unwrap();
            let (got_idx, got_leaf) = m.leaf_index_at_offset(&t, &arch, arr, leaf.offset).unwrap();
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
        let arch = Architecture::sparc20();
        let mut m = ElementModel::new();
        assert!(m.leaf_index_at_offset(&t, &arch, s, 2).is_err());
        assert!(m.leaf_index_at_offset(&t, &arch, s, 0).is_ok());
        assert_eq!(m.leaf_index_at_offset(&t, &arch, s, 4).unwrap().0, 1);
    }

    #[test]
    fn mid_scalar_offset_rejected() {
        let mut t = TypeTable::new();
        let d = t.double();
        let a = t.array_of(d, 2);
        let mut m = ElementModel::new();
        let arch = Architecture::ultra5();
        assert!(m.leaf_index_at_offset(&t, &arch, a, 4).is_err());
        assert_eq!(m.leaf_index_at_offset(&t, &arch, a, 8).unwrap().0, 1);
    }

    #[test]
    fn interior_offset_differs_across_arch() {
        // parray[2] of node*: element 2 of an array of pointers is at
        // byte 8 on ILP32 but byte 16 on LP64 — same element index.
        let mut t = TypeTable::new();
        let node = node_type(&mut t);
        let pnode = t.pointer_to(node);
        let arr = t.array_of(pnode, 10);
        let mut m32 = ElementModel::new();
        let mut m64 = ElementModel::new();
        let l32 = m32
            .leaf_at_index(&t, &Architecture::sparc20(), arr, 2)
            .unwrap();
        let l64 = m64
            .leaf_at_index(&t, &Architecture::x86_64_sim(), arr, 2)
            .unwrap();
        assert_eq!(l32.offset, 8);
        assert_eq!(l64.offset, 16);
    }
}

#[cfg(test)]
mod sweep_tests {
    use super::*;
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
                let mut m = ElementModel::new();
                let count = m.leaf_count(&t, ty).unwrap();
                for idx in 0..count.min(64) {
                    let leaf = m.leaf_at_index(&t, &arch, ty, idx).unwrap();
                    let (got, _) = m.leaf_index_at_offset(&t, &arch, ty, leaf.offset).unwrap();
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
                let mut m = ElementModel::new();
                let total = m.engine.layout(&t, &arch, ty).unwrap().size;
                let mut spans: Vec<(u64, u64)> = Vec::new();
                m.for_each_leaf(&t, &arch, ty, &mut |l| {
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
