//! Per-architecture layout: sizes, alignments, struct field offsets.
//!
//! The same TI type lays out differently on different machines — `long`
//! width, pointer width, and `double` alignment all vary across the
//! presets — so every layout query takes the target
//! [`Architecture`]. [`LayoutEngine`] memoizes
//! results per type id for one architecture.

use crate::{TypeDef, TypeError, TypeId, TypeTable};
use hpm_arch::Architecture;
use std::sync::Arc;

/// Size and alignment of a type on one machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// Total size in bytes, including trailing struct padding.
    pub size: u64,
    /// Required alignment in bytes.
    pub align: u64,
}

impl Layout {
    /// `offset` rounded up to this layout's alignment.
    pub fn align_up(&self, offset: u64) -> u64 {
        align_up(offset, self.align)
    }
}

/// Round `offset` up to a multiple of `align` (which must be a power of
/// two or 1).
pub fn align_up(offset: u64, align: u64) -> u64 {
    debug_assert!(align > 0);
    offset.div_ceil(align) * align
}

/// Memoizing layout calculator bound to one `(TypeTable, Architecture)`
/// pair.
///
/// The engine borrows neither — it is keyed by the caller passing the same
/// table/arch each call — because the TI table keeps growing while a
/// program runs (`malloc` of new array shapes creates new array types).
#[derive(Debug, Default, Clone)]
pub struct LayoutEngine {
    /// Layouts computed so far, indexed by `TypeId`.
    cache: Vec<Option<Layout>>,
    /// Struct field offsets computed so far, indexed by `TypeId`.
    field_offsets: Vec<Option<Arc<Vec<u64>>>>,
}

/// `table`'s entry for `ty`, growing the table to reach it.
fn entry<T: Clone>(table: &mut Vec<Option<T>>, ty: TypeId) -> &mut Option<T> {
    let i = ty.0 as usize;
    if table.len() <= i {
        table.resize(i + 1, None);
    }
    &mut table[i]
}

impl LayoutEngine {
    /// New empty engine.
    pub fn new() -> Self {
        LayoutEngine::default()
    }

    /// Layout of `ty` on `arch`.
    pub fn layout(
        &mut self,
        table: &TypeTable,
        arch: &Architecture,
        ty: TypeId,
    ) -> Result<Layout, TypeError> {
        if let Some(&Some(l)) = self.cache.get(ty.0 as usize) {
            return Ok(l);
        }
        let l = match table.def(ty) {
            TypeDef::Scalar(s) => Layout {
                size: arch.scalar_size(*s),
                align: arch.scalar_align(*s),
            },
            TypeDef::Pointer(_) => Layout {
                size: arch.pointer_size,
                align: arch.pointer_align,
            },
            TypeDef::Array { elem, count } => {
                let el = self.layout(table, arch, *elem)?;
                Layout {
                    size: el.size * count,
                    align: el.align,
                }
            }
            TypeDef::Struct { name, fields } => {
                let fields = fields
                    .as_ref()
                    .ok_or_else(|| TypeError::IncompleteType(name.clone()))?
                    .clone();
                let mut offset = 0u64;
                let mut max_align = 1u64;
                let mut offsets = Vec::with_capacity(fields.len());
                for f in &fields {
                    let fl = self.layout(table, arch, f.ty)?;
                    offset = fl.align_up(offset);
                    offsets.push(offset);
                    offset += fl.size;
                    max_align = max_align.max(fl.align);
                }
                *entry(&mut self.field_offsets, ty) = Some(Arc::new(offsets));
                Layout {
                    size: align_up(offset, max_align),
                    align: max_align,
                }
            }
        };
        *entry(&mut self.cache, ty) = Some(l);
        Ok(l)
    }

    /// Byte offsets of each field of struct `ty` on `arch`.
    ///
    /// Returned behind `Arc` so the hot pointer-translation paths don't
    /// allocate a fresh `Vec` per query.
    pub fn struct_field_offsets(
        &mut self,
        table: &TypeTable,
        arch: &Architecture,
        ty: TypeId,
    ) -> Result<Arc<Vec<u64>>, TypeError> {
        // Computing the layout populates the field-offset cache.
        self.layout(table, arch, ty)?;
        self.field_offsets
            .get(ty.0 as usize)
            .cloned()
            .flatten()
            .ok_or(TypeError::UnknownType(ty))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Field;

    fn engine() -> LayoutEngine {
        LayoutEngine::new()
    }

    #[test]
    fn scalar_layouts_per_arch() {
        let mut t = TypeTable::new();
        let mut e = engine();
        let d = t.double();
        let dec = Architecture::dec5000();
        let l = e.layout(&t, &dec, d).unwrap();
        assert_eq!(l, Layout { size: 8, align: 8 });
    }

    #[test]
    fn pointer_width_follows_arch() {
        let mut t = TypeTable::new();
        let i = t.int();
        let p = t.pointer_to(i);
        let mut e32 = engine();
        let mut e64 = engine();
        assert_eq!(e32.layout(&t, &Architecture::sparc20(), p).unwrap().size, 4);
        assert_eq!(
            e64.layout(&t, &Architecture::x86_64_sim(), p).unwrap().size,
            8
        );
    }

    #[test]
    fn array_layout() {
        let mut t = TypeTable::new();
        let d = t.double();
        let a = t.array_of(d, 100);
        let mut e = engine();
        let l = e.layout(&t, &Architecture::ultra5(), a).unwrap();
        assert_eq!(l.size, 800);
        assert_eq!(l.align, 8);
    }

    #[test]
    fn struct_padding_differs_between_abis() {
        // struct { char c; double d; }
        // 8-aligned doubles (ILP32): offsets 0, 8; size 16.
        // 4-aligned doubles (packed): offsets 0, 4; size 12.
        let mut t = TypeTable::new();
        let c = t.char_();
        let d = t.double();
        let s = t
            .struct_type("cd", vec![Field::new("c", c), Field::new("d", d)])
            .unwrap();
        let mut e1 = engine();
        let l1 = e1.layout(&t, &Architecture::sparc20(), s).unwrap();
        assert_eq!(l1.size, 16);
        assert_eq!(
            *e1.struct_field_offsets(&t, &Architecture::sparc20(), s)
                .unwrap(),
            vec![0, 8]
        );

        let mut packed_arch = Architecture::dec5000();
        packed_arch.scalars = hpm_arch::ScalarLayout::ilp32_packed_doubles();
        let mut e2 = engine();
        let l2 = e2.layout(&t, &packed_arch, s).unwrap();
        assert_eq!(l2.size, 12);
        assert_eq!(
            *e2.struct_field_offsets(&t, &packed_arch, s).unwrap(),
            vec![0, 4]
        );
    }

    #[test]
    fn figure1_node_layout_on_32bit() {
        // struct node { float data; struct node *link; } — 8 bytes ILP32.
        let mut t = TypeTable::new();
        let node = t.declare_struct("node");
        let link = t.pointer_to(node);
        let f = t.float();
        t.define_struct(node, vec![Field::new("data", f), Field::new("link", link)])
            .unwrap();
        let mut e = engine();
        let l = e.layout(&t, &Architecture::dec5000(), node).unwrap();
        assert_eq!(l, Layout { size: 8, align: 4 });
    }

    #[test]
    fn node_layout_grows_on_64bit() {
        let mut t = TypeTable::new();
        let node = t.declare_struct("node");
        let link = t.pointer_to(node);
        let f = t.float();
        t.define_struct(node, vec![Field::new("data", f), Field::new("link", link)])
            .unwrap();
        let mut e = engine();
        let l = e.layout(&t, &Architecture::x86_64_sim(), node).unwrap();
        // float at 0, pointer at 8 (8-aligned), size 16.
        assert_eq!(l, Layout { size: 16, align: 8 });
        assert_eq!(
            *e.struct_field_offsets(&t, &Architecture::x86_64_sim(), node)
                .unwrap(),
            vec![0, 8]
        );
    }

    #[test]
    fn incomplete_struct_layout_errors() {
        let mut t = TypeTable::new();
        let s = t.declare_struct("fwd");
        let mut e = engine();
        assert!(matches!(
            e.layout(&t, &Architecture::dec5000(), s),
            Err(TypeError::IncompleteType(_))
        ));
    }

    #[test]
    fn trailing_padding_added() {
        // struct { double d; char c; } → size 16 on 8-align ABIs.
        let mut t = TypeTable::new();
        let c = t.char_();
        let d = t.double();
        let s = t
            .struct_type("dc", vec![Field::new("d", d), Field::new("c", c)])
            .unwrap();
        let mut e = engine();
        let l = e.layout(&t, &Architecture::ultra5(), s).unwrap();
        assert_eq!(l.size, 16);
    }

    #[test]
    fn align_up_math() {
        assert_eq!(align_up(0, 8), 0);
        assert_eq!(align_up(1, 8), 8);
        assert_eq!(align_up(8, 8), 8);
        assert_eq!(align_up(9, 4), 12);
        assert_eq!(align_up(7, 1), 7);
    }
}
