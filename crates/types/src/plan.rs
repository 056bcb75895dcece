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
//!
//! A plan is also the one answer to every element query. Its leaf tables
//! turn a byte offset in a block into a leaf ordinal and back
//! ([`SavePlan::leaf_at_offset`], [`SavePlan::leaf_at_index`]): the
//! collector, the restorer, the digest pass and every typed access of
//! the address space translate through them, and nothing walks the type
//! per query.

use crate::elements::{for_each_leaf, Leaf};
use crate::layout::LayoutEngine;
use crate::{TypeError, TypeId, TypeTable};
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

    /// The `j`-th leaf this op covers, at its offset in one value.
    #[inline]
    fn leaf(&self, j: u64) -> Leaf {
        match *self {
            PlanOp::ScalarRun {
                offset,
                kind,
                stride,
                ..
            } => Leaf {
                offset: offset + j * stride,
                kind,
                pointee: None,
            },
            PlanOp::PointerSlot { offset, pointee } => Leaf {
                offset,
                kind: CScalar::Ptr,
                pointee: Some(pointee),
            },
        }
    }
}

/// Why a leaf query on a block has no answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeafMiss {
    /// The offset starts no leaf (padding, mid-scalar, a type with no
    /// leaves), or an ordinal is counted from where no value starts.
    NotALeaf,
    /// The offset or ordinal lies past the block's last value.
    OutsideBlock,
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
    /// The leaf that starts exactly at byte `offset` of a block of
    /// `count` values, with its ordinal in the block; the leaf's `offset`
    /// is `offset`. The element by division, the leaf within it by a
    /// binary search of the ops.
    #[inline]
    pub fn leaf_at_offset(&self, count: u64, offset: u64) -> Result<(u64, Leaf), LeafMiss> {
        if offset == 0 {
            return self.start_leaf(count);
        }
        if self.size == 0 {
            return Err(LeafMiss::NotALeaf);
        }
        let elem = offset / self.size;
        if elem >= count {
            return Err(LeafMiss::OutsideBlock);
        }
        let inner = offset % self.size;
        let k = self.op_from(inner).ok_or(LeafMiss::NotALeaf)?;
        let j = match self.ops[k] {
            PlanOp::ScalarRun {
                offset: first,
                count,
                stride,
                ..
            } => {
                let d = inner - first;
                if !d.is_multiple_of(stride) || d / stride >= count {
                    return Err(LeafMiss::NotALeaf);
                }
                d / stride
            }
            PlanOp::PointerSlot { offset: at, .. } if at == inner => 0,
            PlanOp::PointerSlot { .. } => return Err(LeafMiss::NotALeaf),
        };
        let leaf = self.ops[k].leaf(j);
        let ordinal = elem * self.leaf_count + self.op_first_leaf[k] + j;
        Ok((ordinal, Leaf { offset, ..leaf }))
    }

    /// [`SavePlan::leaf_at_offset`] at a block's start, the common case,
    /// with the same checks in the same order and no division. Every op
    /// covers at least one leaf and ops lie at increasing offsets, so the
    /// first op holds leaf 0, and offset 0 is a leaf exactly when that op
    /// starts there.
    #[inline]
    fn start_leaf(&self, count: u64) -> Result<(u64, Leaf), LeafMiss> {
        if self.size == 0 {
            return Err(LeafMiss::NotALeaf);
        }
        if count == 0 {
            return Err(LeafMiss::OutsideBlock);
        }
        match self.ops.first() {
            Some(op) if op.first_offset() == 0 => Ok((0, op.leaf(0))),
            _ => Err(LeafMiss::NotALeaf),
        }
    }

    /// Leaf `ordinal` of a block of `count` values, counted from the
    /// value that starts at byte `from` (0: from the block's first leaf);
    /// the leaf's `offset` is from the block's start. With `from` 0 this
    /// is the inverse of [`SavePlan::leaf_at_offset`].
    #[inline]
    pub fn leaf_at_index(&self, count: u64, from: u64, ordinal: u64) -> Result<Leaf, LeafMiss> {
        if from == 0 && ordinal == 0 {
            // Leaf 0 is the first op's first leaf, in value 0: no division.
            let first = self.ops.first().ok_or(LeafMiss::NotALeaf)?;
            if count == 0 {
                return Err(LeafMiss::OutsideBlock);
            }
            return Ok(first.leaf(0));
        }
        if self.leaf_count == 0 || !from.is_multiple_of(self.size) {
            return Err(LeafMiss::NotALeaf);
        }
        let elem = (from / self.size).saturating_add(ordinal / self.leaf_count);
        if elem >= count {
            return Err(LeafMiss::OutsideBlock);
        }
        let i = ordinal % self.leaf_count;
        let k = self.op_first_leaf.partition_point(|&first| first <= i) - 1;
        let leaf = self.ops[k].leaf(i - self.op_first_leaf[k]);
        Ok(Leaf {
            offset: elem * self.size + leaf.offset,
            ..leaf
        })
    }

    /// Whether bytes `[offset, offset + 8n)` of a block of `count` values
    /// hold `n` `double` leaves 8 bytes apart and nothing else: the span
    /// lies inside one `double` run of stride 8, or each value is one
    /// such run end to end and the block's values cover the span.
    pub fn packed_doubles(&self, count: u64, offset: u64, n: u64) -> bool {
        let packed = |op: &PlanOp| {
            matches!(
                op,
                PlanOp::ScalarRun {
                    kind: CScalar::Double,
                    stride: 8,
                    ..
                }
            )
        };
        let end = n.checked_mul(8).and_then(|len| len.checked_add(offset));
        if self.size == 0 || end.is_none_or(|end| end > count.saturating_mul(self.size)) {
            return false;
        }
        if let [op] = self.ops[..] {
            if packed(&op) && op.first_offset() == 0 && op.leaf_count() * 8 == self.size {
                return offset.is_multiple_of(8);
            }
        }
        let inner = offset % self.size;
        let Some(op) = self.op_from(inner).map(|k| self.ops[k]) else {
            return false;
        };
        let d = inner - op.first_offset();
        packed(&op) && d.is_multiple_of(8) && d / 8 + n <= op.leaf_count()
    }

    /// Index of the last op whose first leaf lies at or before byte
    /// `inner` of one value: the only op that can hold a leaf there.
    #[inline]
    fn op_from(&self, inner: u64) -> Option<usize> {
        self.ops
            .partition_point(|op| op.first_offset() <= inner)
            .checked_sub(1)
    }
}

/// Compile the save/restore plan for `ty` on `arch`.
pub fn compile_plan(
    engine: &mut LayoutEngine,
    table: &TypeTable,
    arch: &Architecture,
    ty: TypeId,
) -> Result<SavePlan, TypeError> {
    let size = engine.layout(table, arch, ty)?.size;
    let mut ops: Vec<PlanOp> = Vec::new();
    let mut leaf_count = 0u64;
    for_each_leaf(engine, table, arch, ty, &mut |leaf| {
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
    use std::collections::BTreeMap;

    fn compile(t: &TypeTable, arch: &Architecture, ty: TypeId) -> SavePlan {
        compile_plan(&mut LayoutEngine::new(), t, arch, ty).unwrap()
    }

    #[test]
    fn big_array_is_one_run() {
        let mut t = TypeTable::new();
        let d = t.double();
        let a = t.array_of(d, 1000);
        let plan = compile(&t, &Architecture::ultra5(), a);
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
        let plan = compile(&t, &Architecture::dec5000(), node);
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
        let plan = compile(&t, &Architecture::ultra5(), a);
        assert_eq!(plan.ops.len(), 1);
        assert_eq!(plan.leaf_count, 100);

        let i = t.int();
        let s2 = t
            .struct_type("di", vec![Field::new("d", d), Field::new("i", i)])
            .unwrap();
        let a2 = t.array_of(s2, 50);
        let plan2 = compile(&t, &Architecture::ultra5(), a2);
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
        let plan = compile(&t, &Architecture::sparc20(), a);
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
        let plan = compile(&t, &Architecture::sparc20(), a);
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
        let p32 = compile(&t, &Architecture::sparc20(), node);
        let p64 = compile(&t, &Architecture::x86_64_sim(), node);
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
    /// answer for: multi-op elements, strided and thousand-leaf runs,
    /// pointer slots, nesting, the empty plan, and block starts that are
    /// and are not a leaf.
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
        // Its first leaf starts at offset 0 behind a zero-size member.
        let led = t
            .struct_type("led", vec![Field::new("z", empty), Field::new("d", d)])
            .unwrap();
        vec![
            i, pg, di, padded, ci_arr, big, holder, gnode, nested, nested_arr, empty, empties, led,
        ]
    }

    /// The block of `count` values of `ty`, leaf by leaf, from a scan of
    /// [`for_each_leaf`]: the reference the leaf tables are held to.
    fn block_leaves(t: &TypeTable, arch: &Architecture, ty: TypeId, count: u64) -> Vec<Leaf> {
        let mut engine = LayoutEngine::new();
        let size = engine.layout(t, arch, ty).unwrap().size;
        let mut leaves = Vec::new();
        for_each_leaf(&mut engine, t, arch, ty, &mut |l| leaves.push(l)).unwrap();
        (0..count)
            .flat_map(|e| leaves.iter().map(move |l| (e, l)))
            .map(|(e, l)| Leaf {
                offset: e * size + l.offset,
                ..*l
            })
            .collect()
    }

    #[test]
    fn leaf_tables_agree_with_a_scan_of_the_leaves() {
        let mut t = TypeTable::new();
        let zoo = type_zoo(&mut t);
        let (mut strided, mut packed) = (false, 0);
        for arch in Architecture::presets() {
            for &ty in &zoo {
                let plan = compile(&t, &arch, ty);
                strided |= plan.ops.iter().any(|op| {
                    matches!(op, PlanOp::ScalarRun { kind, stride, .. }
                        if *stride > arch.scalar_size(*kind))
                });
                for count in [0, 1, 3] {
                    let leaves = block_leaves(&t, &arch, ty, count);
                    let at: BTreeMap<u64, usize> = leaves
                        .iter()
                        .enumerate()
                        .map(|(i, l)| (l.offset, i))
                        .collect();
                    let bytes = count * plan.size;
                    let tag = format!("{} type {ty:?} × {count}", arch.name);
                    // Every byte of the block, and a few past its end.
                    for off in 0..bytes + 9 {
                        let want = match at.get(&off) {
                            _ if plan.size == 0 => Err(LeafMiss::NotALeaf),
                            _ if off >= bytes => Err(LeafMiss::OutsideBlock),
                            Some(&i) => Ok((i as u64, leaves[i])),
                            None => Err(LeafMiss::NotALeaf),
                        };
                        assert_eq!(plan.leaf_at_offset(count, off), want, "{tag} offset {off}");
                        for n in 1..4 {
                            // The span holds n doubles 8 bytes apart, and
                            // no other leaf starts in it or reaches into it.
                            let end = off + 8 * n;
                            let doubles = (0..n).all(|i| {
                                at.get(&(off + 8 * i))
                                    .is_some_and(|&j| leaves[j].kind == CScalar::Double)
                            });
                            let before = at.range(..off).next_back().map(|(_, &j)| leaves[j]);
                            let alone = at.range(off..end).count() == n as usize
                                && before
                                    .is_none_or(|l| l.offset + arch.scalar_size(l.kind) <= off);
                            if plan.packed_doubles(count, off, n) {
                                assert!(doubles && alone && end <= bytes, "{tag} run {off}+{n}");
                                packed += 1;
                            }
                        }
                    }
                    for idx in 0..=leaves.len() as u64 + 1 {
                        let want = match leaves.get(idx as usize) {
                            Some(l) => Ok(*l),
                            None if plan.leaf_count == 0 => Err(LeafMiss::NotALeaf),
                            None => Err(LeafMiss::OutsideBlock),
                        };
                        assert_eq!(
                            plan.leaf_at_index(count, 0, idx),
                            want,
                            "{tag} ordinal {idx}"
                        );
                        // Counted from a later value, ordinals shift by
                        // that value's leaves.
                        if count > 1 && plan.size > 0 && plan.leaf_count > 0 {
                            let want = leaves
                                .get((idx + plan.leaf_count) as usize)
                                .copied()
                                .ok_or(LeafMiss::OutsideBlock);
                            assert_eq!(plan.leaf_at_index(count, plan.size, idx), want, "{tag}");
                        }
                    }
                    assert_eq!(plan.leaf_count * count, leaves.len() as u64, "{tag}");
                }
            }
        }
        assert!(strided, "the zoo must contain a strided run");
        assert!(packed > 0, "the zoo must contain packed doubles");
    }

    #[test]
    fn leaf_tables_are_sized_by_ops_not_leaves() {
        let mut t = TypeTable::new();
        let d = t.double();
        let a = t.array_of(d, 1_000_000);
        let plan = compile(&t, &Architecture::ultra5(), a);
        assert_eq!(plan.op_first_leaf, vec![0]);
        let last = Leaf {
            offset: 7_999_992,
            kind: CScalar::Double,
            pointee: None,
        };
        assert_eq!(plan.leaf_at_index(1, 0, 999_999), Ok(last));
        assert_eq!(plan.leaf_at_offset(1, 7_999_992), Ok((999_999, last)));
    }
}
