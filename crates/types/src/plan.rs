//! Compiled save/restore plans — the "memory block saving and restoring
//! functions" of the TI table.
//!
//! The paper generates one saving function and one restoring function per
//! type. We compile the equivalent: a [`SavePlan`] is a short list of ops
//! that converts a block's bytes to/from the machine-independent stream.
//! Consecutive scalar leaves of the same kind with a uniform stride are
//! coalesced into a single [`PlanOp::ScalarRun`], so a `double[1000000]`
//! linpack matrix is one op executed as a tight loop (this is what makes
//! "Encode and Copy" the dominant linpack cost, as in §4.2, instead of an
//! interpreter walk).
//!
//! The *wire format is defined by the leaf sequence*, not by the plan: a
//! plan compiled for the DEC 5000 and one compiled for the SPARC 20 cover
//! the same leaves in the same order, so either side can produce or
//! consume the stream regardless of how runs coalesced locally.

use crate::elements::{ElementError, ElementModel};
use crate::{TypeId, TypeTable};
use hpm_arch::{Architecture, CScalar};

/// One step of a save/restore plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanOp {
    /// `count` scalars of `kind`, the first at byte `offset`, each
    /// `stride` bytes after the previous one.
    ScalarRun {
        /// Byte offset of the first scalar.
        offset: u64,
        /// Scalar kind of every element in the run.
        kind: CScalar,
        /// Number of scalars.
        count: u64,
        /// Byte distance between consecutive scalars.
        stride: u64,
    },
    /// A single pointer leaf, to be handled by `Save_pointer` /
    /// `Restore_pointer`.
    PointerSlot {
        /// Byte offset of the pointer.
        offset: u64,
        /// The pointee type.
        pointee: TypeId,
    },
}

impl PlanOp {
    /// Number of leaves this op covers.
    pub fn leaf_count(&self) -> u64 {
        match self {
            PlanOp::ScalarRun { count, .. } => *count,
            PlanOp::PointerSlot { .. } => 1,
        }
    }

    /// Byte offset of the first leaf this op covers.
    pub fn first_offset(&self) -> u64 {
        match self {
            PlanOp::ScalarRun { offset, .. } | PlanOp::PointerSlot { offset, .. } => *offset,
        }
    }
}

/// The compiled saving/restoring function for one type on one machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SavePlan {
    /// Ops in leaf order.
    pub ops: Vec<PlanOp>,
    /// Total scalar leaves covered.
    pub leaf_count: u64,
    /// Size in bytes of one value of the type on the plan's architecture.
    pub size: u64,
    /// Whether the plan contains any pointer slots.
    pub has_pointers: bool,
    /// Fewest bytes one value can take in the machine-independent
    /// stream: every scalar at its XDR width, every pointer a bare NULL
    /// tag. A receiver bounds a block's element count by it before
    /// allocating.
    pub min_wire_bytes: u64,
    /// `op_first_leaf[k]` is the ordinal of the first leaf `ops[k]`
    /// covers. Leaves are laid out in increasing byte offset, so `ops` is
    /// sorted by both first ordinal and first offset and the two leaf
    /// queries below are binary searches over ops, not leaves.
    op_first_leaf: Vec<u64>,
}

impl SavePlan {
    /// The leaf that starts exactly at byte `offset` of one value, as
    /// `(ordinal, kind, pointee)` — [`ElementModel::leaf_index_at_offset`]
    /// without the type walk. `None` for padding, mid-scalar and
    /// out-of-range offsets.
    pub fn leaf_at_offset(&self, offset: u64) -> Option<(u64, CScalar, Option<TypeId>)> {
        let k = self
            .ops
            .partition_point(|op| op.first_offset() <= offset)
            .checked_sub(1)?;
        match self.ops[k] {
            PlanOp::ScalarRun {
                offset: first,
                kind,
                count,
                stride,
            } => {
                let d = offset - first;
                (d.is_multiple_of(stride) && d / stride < count)
                    .then(|| (self.op_first_leaf[k] + d / stride, kind, None))
            }
            PlanOp::PointerSlot {
                offset: at,
                pointee,
            } => (at == offset).then_some((self.op_first_leaf[k], CScalar::Ptr, Some(pointee))),
        }
    }

    /// The `index`-th leaf of one value, as `(byte offset, kind,
    /// pointee)` — [`ElementModel::leaf_at_index`] without the type walk.
    /// `None` when `index >= leaf_count`.
    pub fn leaf_at_index(&self, index: u64) -> Option<(u64, CScalar, Option<TypeId>)> {
        if index >= self.leaf_count {
            return None;
        }
        let k = self.op_first_leaf.partition_point(|&first| first <= index) - 1;
        let j = index - self.op_first_leaf[k];
        Some(match self.ops[k] {
            PlanOp::ScalarRun {
                offset,
                kind,
                stride,
                ..
            } => (offset + j * stride, kind, None),
            PlanOp::PointerSlot { offset, pointee } => (offset, CScalar::Ptr, Some(pointee)),
        })
    }
}

/// Compile the save/restore plan for `ty` on `arch`.
pub fn compile_plan(
    model: &mut ElementModel,
    table: &TypeTable,
    arch: &Architecture,
    ty: TypeId,
) -> Result<SavePlan, ElementError> {
    let size = model.engine.layout(table, arch, ty)?.size;
    let mut ops: Vec<PlanOp> = Vec::new();
    let mut leaf_count = 0u64;
    model.for_each_leaf(table, arch, ty, &mut |leaf| {
        leaf_count += 1;
        if let Some(pointee) = leaf.pointee {
            ops.push(PlanOp::PointerSlot {
                offset: leaf.offset,
                pointee,
            });
            return;
        }
        if let Some(PlanOp::ScalarRun {
            offset,
            kind,
            count,
            stride,
        }) = ops.last_mut()
        {
            if *kind == leaf.kind {
                let expected = *offset + *count * *stride;
                if *count == 1 {
                    // Second element fixes the stride.
                    let gap = leaf.offset - *offset;
                    if gap >= arch.scalar_size(*kind) {
                        *stride = gap;
                        *count = 2;
                        return;
                    }
                } else if leaf.offset == expected {
                    *count += 1;
                    return;
                }
            }
        }
        ops.push(PlanOp::ScalarRun {
            offset: leaf.offset,
            kind: leaf.kind,
            count: 1,
            stride: arch.scalar_size(leaf.kind),
        });
    })?;
    let has_pointers = ops
        .iter()
        .any(|op| matches!(op, PlanOp::PointerSlot { .. }));
    let min_wire_bytes = ops
        .iter()
        .map(|op| match op {
            PlanOp::ScalarRun { kind, count, .. } => count * kind.xdr_form().min_wire_bytes(),
            PlanOp::PointerSlot { .. } => CScalar::Ptr.xdr_form().min_wire_bytes(),
        })
        .sum();
    let mut next_leaf = 0u64;
    let op_first_leaf = ops
        .iter()
        .map(|op| {
            let first = next_leaf;
            next_leaf += op.leaf_count();
            first
        })
        .collect();
    Ok(SavePlan {
        ops,
        leaf_count,
        size,
        has_pointers,
        min_wire_bytes,
        op_first_leaf,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Field;

    #[test]
    fn big_array_is_one_run() {
        let mut t = TypeTable::new();
        let d = t.double();
        let a = t.array_of(d, 1000);
        let mut m = ElementModel::new();
        let plan = compile_plan(&mut m, &t, &Architecture::ultra5(), a).unwrap();
        assert_eq!(plan.ops.len(), 1);
        assert_eq!(
            plan.ops[0],
            PlanOp::ScalarRun {
                offset: 0,
                kind: CScalar::Double,
                count: 1000,
                stride: 8
            }
        );
        assert!(!plan.has_pointers);
        assert_eq!(plan.leaf_count, 1000);
        assert_eq!(plan.size, 8000);
    }

    #[test]
    fn node_struct_is_run_plus_pointer() {
        let mut t = TypeTable::new();
        let node = t.declare_struct("node");
        let link = t.pointer_to(node);
        let f = t.float();
        t.define_struct(node, vec![Field::new("data", f), Field::new("link", link)])
            .unwrap();
        let mut m = ElementModel::new();
        let plan = compile_plan(&mut m, &t, &Architecture::dec5000(), node).unwrap();
        assert_eq!(plan.ops.len(), 2);
        assert!(matches!(
            plan.ops[0],
            PlanOp::ScalarRun {
                kind: CScalar::Float,
                count: 1,
                ..
            }
        ));
        assert_eq!(
            plan.ops[1],
            PlanOp::PointerSlot {
                offset: 4,
                pointee: node
            }
        );
        assert!(plan.has_pointers);
    }

    #[test]
    fn strided_run_through_struct_array() {
        // struct { double d; double e; }[50] coalesces into a single run
        // (contiguous doubles), while struct { double d; int i; }[50]
        // cannot: offsets alternate kinds.
        let mut t = TypeTable::new();
        let d = t.double();
        let s = t
            .struct_type("dd", vec![Field::new("d", d), Field::new("e", d)])
            .unwrap();
        let a = t.array_of(s, 50);
        let mut m = ElementModel::new();
        let plan = compile_plan(&mut m, &t, &Architecture::ultra5(), a).unwrap();
        assert_eq!(plan.ops.len(), 1);
        assert_eq!(plan.leaf_count, 100);

        let i = t.int();
        let s2 = t
            .struct_type("di", vec![Field::new("d", d), Field::new("i", i)])
            .unwrap();
        let a2 = t.array_of(s2, 50);
        let plan2 = compile_plan(&mut m, &t, &Architecture::ultra5(), a2).unwrap();
        assert_eq!(plan2.leaf_count, 100);
        assert!(plan2.ops.len() > 1);
    }

    #[test]
    fn uniform_strided_same_kind_coalesces() {
        // struct { int a; int pad_absorbed; }[N] — all int leaves with
        // stride 4 — becomes one run even across struct boundaries.
        let mut t = TypeTable::new();
        let i = t.int();
        let s = t
            .struct_type("ii", vec![Field::new("a", i), Field::new("b", i)])
            .unwrap();
        let a = t.array_of(s, 10);
        let mut m = ElementModel::new();
        let plan = compile_plan(&mut m, &t, &Architecture::sparc20(), a).unwrap();
        assert_eq!(plan.ops.len(), 1);
        assert_eq!(
            plan.ops[0],
            PlanOp::ScalarRun {
                offset: 0,
                kind: CScalar::Int,
                count: 20,
                stride: 4
            }
        );
    }

    #[test]
    fn gap_strided_run() {
        // struct { char c; int i; }[4] on 32-bit: int leaves at 4, 12, 20,
        // 28 (stride 8); char leaves at 0, 8, 16, 24. Chars cannot merge
        // with ints, and each kind alternates, so no coalescing happens
        // beyond per-kind singletons.
        let mut t = TypeTable::new();
        let c = t.char_();
        let i = t.int();
        let s = t
            .struct_type("ci", vec![Field::new("c", c), Field::new("i", i)])
            .unwrap();
        let a = t.array_of(s, 4);
        let mut m = ElementModel::new();
        let plan = compile_plan(&mut m, &t, &Architecture::sparc20(), a).unwrap();
        assert_eq!(plan.leaf_count, 8);
        // Alternating kinds defeat coalescing: 8 single-leaf runs.
        assert_eq!(plan.ops.len(), 8);
    }

    #[test]
    fn plans_cover_same_leaves_across_arch() {
        let mut t = TypeTable::new();
        let node = t.declare_struct("n");
        let pn = t.pointer_to(node);
        let d = t.double();
        let arr = t.array_of(d, 3);
        t.define_struct(node, vec![Field::new("v", arr), Field::new("next", pn)])
            .unwrap();
        let mut m32 = ElementModel::new();
        let mut m64 = ElementModel::new();
        let p32 = compile_plan(&mut m32, &t, &Architecture::sparc20(), node).unwrap();
        let p64 = compile_plan(&mut m64, &t, &Architecture::x86_64_sim(), node).unwrap();
        assert_eq!(p32.leaf_count, p64.leaf_count);
        // Leaf kind sequence must agree even though offsets differ.
        let kinds = |p: &SavePlan| {
            let mut v = Vec::new();
            for op in &p.ops {
                match op {
                    PlanOp::ScalarRun { kind, count, .. } => {
                        for _ in 0..*count {
                            v.push(*kind);
                        }
                    }
                    PlanOp::PointerSlot { .. } => v.push(CScalar::Ptr),
                }
            }
            v
        };
        assert_eq!(kinds(&p32), kinds(&p64));
    }

    /// Types whose plans exercise every shape the leaf tables must
    /// answer for: multi-op elements, strided and million-leaf runs,
    /// pointer slots, nesting, and the empty plan.
    fn type_zoo(t: &mut TypeTable) -> Vec<TypeId> {
        let (c, i, d) = (t.char_(), t.int(), t.double());
        let di = t
            .struct_type("di", vec![Field::new("d", d), Field::new("i", i)])
            .unwrap();
        // `di`'s tail padding puts two ints 8 bytes apart: a strided run.
        let padded = t
            .struct_type("padded", vec![Field::new("x", di), Field::new("j", i)])
            .unwrap();
        let ci = t
            .struct_type("ci", vec![Field::new("c", c), Field::new("i", i)])
            .unwrap();
        let ci_arr = t.array_of(ci, 5);
        let big = t.array_of(d, 1000);
        let holder = t
            .struct_type("holder", vec![Field::new("tag", c), Field::new("v", big)])
            .unwrap();
        let gnode = t.declare_struct("gnode");
        let pg = t.pointer_to(gnode);
        let pay = t.array_of(d, 4);
        let fields = vec![
            Field::new("id", i),
            Field::new("pay", pay),
            Field::new("next", pg),
            Field::new("other", pg),
            Field::new("interior", t.pointer_to(d)),
        ];
        t.define_struct(gnode, fields).unwrap();
        let nested = t
            .struct_type(
                "nested",
                vec![
                    Field::new("a", padded),
                    Field::new("b", ci_arr),
                    Field::new("p", pg),
                ],
            )
            .unwrap();
        let nested_arr = t.array_of(nested, 3);
        let empty = t.array_of(i, 0);
        let empties = t.array_of(empty, 3);
        vec![
            i, pg, di, padded, ci_arr, big, holder, gnode, nested, nested_arr, empty, empties,
        ]
    }

    #[test]
    fn leaf_tables_agree_with_the_element_model() {
        let mut t = TypeTable::new();
        let zoo = type_zoo(&mut t);
        let mut strided = false;
        for arch in Architecture::presets() {
            let mut m = ElementModel::new();
            for &ty in &zoo {
                let plan = compile_plan(&mut m, &t, &arch, ty).unwrap();
                strided |= plan.ops.iter().any(|op| {
                    matches!(op, PlanOp::ScalarRun { kind, stride, .. }
                        if *stride > arch.scalar_size(*kind))
                });
                let tag = format!("{} type {ty:?}", arch.name);
                // Every byte of one value, and a few past its end.
                for off in 0..plan.size + 9 {
                    let want = m
                        .leaf_index_at_offset(&t, &arch, ty, off)
                        .ok()
                        .map(|(idx, leaf)| (idx, leaf.kind, leaf.pointee));
                    assert_eq!(plan.leaf_at_offset(off), want, "{tag} offset {off}");
                }
                assert_eq!(plan.leaf_count, m.leaf_count(&t, ty).unwrap(), "{tag}");
                for idx in 0..=plan.leaf_count {
                    let want = m
                        .leaf_at_index(&t, &arch, ty, idx)
                        .ok()
                        .map(|leaf| (leaf.offset, leaf.kind, leaf.pointee));
                    assert_eq!(plan.leaf_at_index(idx), want, "{tag} ordinal {idx}");
                }
            }
        }
        assert!(strided, "the zoo must contain a strided run");
    }

    #[test]
    fn leaf_tables_are_sized_by_ops_not_leaves() {
        let mut t = TypeTable::new();
        let d = t.double();
        let a = t.array_of(d, 1_000_000);
        let mut m = ElementModel::new();
        let plan = compile_plan(&mut m, &t, &Architecture::ultra5(), a).unwrap();
        assert_eq!(plan.op_first_leaf, vec![0]);
        assert_eq!(
            plan.leaf_at_index(999_999),
            Some((7_999_992, CScalar::Double, None))
        );
        assert_eq!(plan.leaf_at_offset(7_999_992).unwrap().0, 999_999);
    }
}
