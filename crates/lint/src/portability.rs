//! Static portability audit: the TI table against every architecture
//! profile pair.
//!
//! A migration is only correct if the *wire format* both sides derive
//! from the TI table agrees. This pass checks each complete type in a
//! table against every ordered pair of built-in architecture presets:
//!
//! * **HPM022** (error) — a struct contains itself *by value*. Layout
//!   and plan compilation recurse structurally with no cycle guard; such
//!   a type would never terminate. Detected first, with the analyzer's
//!   own cycle-checking DFS, so nothing else in this pass touches a
//!   cyclic type.
//! * **HPM024** (error) — the machine-independent leaf sequence of a
//!   type differs between two machines. Leaf order is structural, so
//!   this firing means the element model itself is broken — it is the
//!   invariant the rest of the system stands on.
//! * **HPM021** (warning) — a scalar leaf narrows between source and
//!   destination (e.g. an 8-byte `long` restored as 4 bytes): values
//!   above the destination's range truncate in conversion.
//! * **HPM020** (info) — a pointer-bearing type migrates to a machine
//!   with narrower pointers. Informational because the MSRLT ships
//!   logical `(id, offset)` pairs, never raw addresses.
//! * **HPM023** (info) — a struct's field offsets differ between the
//!   machines. Informational because the wire format is leaf-ordered:
//!   padding never crosses the wire.

use crate::diag::{Diagnostic, LintCode, Report};
use hpm_arch::{Architecture, CScalar};
use hpm_types::elements::for_each_leaf;
use hpm_types::layout::LayoutEngine;
use hpm_types::{TypeDef, TypeId, TypeTable};
use std::collections::BTreeSet;

/// Audit every type in `table` against every preset pair.
pub fn audit_table(table: &TypeTable, unit: &str) -> Report {
    audit_table_for(table, &Architecture::presets(), unit)
}

/// Audit against an explicit architecture set (ordered pairs are drawn
/// from it).
pub fn audit_table_for(table: &TypeTable, archs: &[Architecture], unit: &str) -> Report {
    let mut report = Report::new();
    let cyclic = value_cycles(table);
    for &id in &cyclic {
        if let TypeDef::Struct { name, .. } = table.def(id) {
            report.push(Diagnostic::new(
                LintCode::ValueCycle,
                unit,
                None,
                format!(
                    "struct {name} contains itself by value; layout and plan compilation \
                     lack a cycle guard and would not terminate"
                ),
            ));
        }
    }

    for idx in 0..table.len() {
        let id = TypeId(idx as u32);
        // Bare scalar defs are pre-seeded into every table by
        // `TypeTable::new`, used or not; auditing them would warn on
        // every unit. A scalar that actually appears in a plan is still
        // audited through the composite type that holds it.
        if matches!(table.def(id), TypeDef::Scalar(_)) {
            continue;
        }
        if reaches_cyclic_or_incomplete(table, id, &cyclic) {
            continue;
        }
        audit_type(table, archs, id, unit, &mut report);
    }
    report
}

/// Struct ids that participate in (or contain) a by-value cycle.
///
/// DFS over *value* edges only — struct fields and array elements, never
/// pointers, which are exactly C's legal cycle-breakers.
fn value_cycles(table: &TypeTable) -> BTreeSet<TypeId> {
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Grey,
        Black,
    }
    let n = table.len();
    let mut marks = vec![Mark::White; n];
    let mut cyclic = BTreeSet::new();

    fn visit(
        table: &TypeTable,
        id: TypeId,
        marks: &mut Vec<Mark>,
        cyclic: &mut BTreeSet<TypeId>,
    ) -> bool {
        let i = id.0 as usize;
        match marks[i] {
            Mark::Grey => return true, // back edge: on the current path
            Mark::Black => return cyclic.contains(&id),
            Mark::White => {}
        }
        marks[i] = Mark::Grey;
        let mut in_cycle = false;
        match table.def(id) {
            TypeDef::Scalar(_) | TypeDef::Pointer(_) => {}
            TypeDef::Array { elem, .. } => {
                in_cycle |= visit(table, *elem, marks, cyclic);
            }
            TypeDef::Struct { fields, .. } => {
                if let Some(fs) = fields {
                    for f in fs {
                        in_cycle |= visit(table, f.ty, marks, cyclic);
                    }
                }
            }
        }
        marks[i] = Mark::Black;
        if in_cycle {
            cyclic.insert(id);
        }
        in_cycle
    }

    for idx in 0..n {
        visit(table, TypeId(idx as u32), &mut marks, &mut cyclic);
    }
    cyclic
}

/// Whether layout queries on `id` are unsafe: the type reaches (by
/// value) a cyclic struct or an incomplete forward declaration.
fn reaches_cyclic_or_incomplete(table: &TypeTable, id: TypeId, cyclic: &BTreeSet<TypeId>) -> bool {
    if cyclic.contains(&id) {
        return true;
    }
    match table.def(id) {
        TypeDef::Scalar(_) | TypeDef::Pointer(_) => false,
        TypeDef::Array { elem, .. } => reaches_cyclic_or_incomplete(table, *elem, cyclic),
        TypeDef::Struct { fields, .. } => match fields {
            None => true,
            Some(fs) => fs
                .iter()
                .any(|f| reaches_cyclic_or_incomplete(table, f.ty, cyclic)),
        },
    }
}

fn audit_type(
    table: &TypeTable,
    archs: &[Architecture],
    id: TypeId,
    unit: &str,
    report: &mut Report,
) {
    let display = table.display(id);
    let is_struct = matches!(table.def(id), TypeDef::Struct { .. });
    for src in archs {
        for dst in archs {
            if src.name == dst.name {
                continue;
            }
            let leaves_src = leaves(table, src, id);
            let leaves_dst = leaves(table, dst, id);
            let kinds_src: Vec<CScalar> = leaves_src.iter().map(|l| l.0).collect();
            let kinds_dst: Vec<CScalar> = leaves_dst.iter().map(|l| l.0).collect();
            if kinds_src != kinds_dst {
                report.push(Diagnostic::new(
                    LintCode::WireLeafDivergence,
                    unit,
                    None,
                    format!(
                        "type {display}: leaf sequence on {} differs from {} — the wire \
                         formats disagree",
                        src.name, dst.name
                    ),
                ));
                continue; // the remaining checks assume aligned leaves
            }
            // Narrowing scalars (directional: src wider than dst).
            let mut narrowed: Vec<CScalar> = Vec::new();
            for (kind, _) in &leaves_src {
                if *kind != CScalar::Ptr
                    && src.scalar_size(*kind) > dst.scalar_size(*kind)
                    && !narrowed.contains(kind)
                {
                    narrowed.push(*kind);
                    report.push(Diagnostic::new(
                        LintCode::ScalarWidthNarrows,
                        unit,
                        None,
                        format!(
                            "type {display}: {} is {} bytes on {} but {} on {}; large \
                             values truncate in conversion",
                            kind.c_name(),
                            src.scalar_size(*kind),
                            src.name,
                            dst.scalar_size(*kind),
                            dst.name
                        ),
                    ));
                }
            }
            // Pointer-width truncation (directional).
            if src.pointer_size > dst.pointer_size
                && leaves_src.iter().any(|(k, _)| *k == CScalar::Ptr)
            {
                report.push(Diagnostic::new(
                    LintCode::PointerWidthTruncation,
                    unit,
                    None,
                    format!(
                        "type {display}: pointers narrow from {} to {} bytes migrating \
                         {} -> {} (safe: the MSRLT ships logical ids, not addresses)",
                        src.pointer_size, dst.pointer_size, src.name, dst.name
                    ),
                ));
            }
            // Padding-dependent offsets (symmetric: emit for src < dst
            // by name so each unordered pair reports once).
            if is_struct && src.name < dst.name {
                let off_src: Vec<u64> = leaves_src.iter().map(|l| l.1).collect();
                let off_dst: Vec<u64> = leaves_dst.iter().map(|l| l.1).collect();
                if off_src != off_dst {
                    report.push(Diagnostic::new(
                        LintCode::PaddingDependentOffsets,
                        unit,
                        None,
                        format!(
                            "type {display}: field offsets differ between {} and {} \
                             (benign: the wire format is leaf-ordered)",
                            src.name, dst.name
                        ),
                    ));
                }
            }
        }
    }
}

/// `(kind, offset)` of every leaf of `id` on `arch`, in element order.
fn leaves(table: &TypeTable, arch: &Architecture, id: TypeId) -> Vec<(CScalar, u64)> {
    let mut out = Vec::new();
    // Complete, acyclic types cannot fail element enumeration.
    for_each_leaf(&mut LayoutEngine::new(), table, arch, id, &mut |leaf| {
        out.push((leaf.kind, leaf.offset));
    })
    .expect("leaf walk on a complete, acyclic type");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpm_arch::Architecture;
    use hpm_types::Field;

    #[test]
    fn value_cycle_detected_without_hanging() {
        let mut t = TypeTable::new();
        let s = t.declare_struct("ouroboros");
        let i = t.int();
        // struct ouroboros { int v; struct ouroboros next; }
        t.define_struct(s, vec![Field::new("v", i), Field::new("next", s)])
            .unwrap();
        let mut r = audit_table(&t, "t");
        r.finish();
        assert!(r.has_code(LintCode::ValueCycle), "{r:?}");
        // Nothing else may have touched the cyclic type.
        assert!(!r.has_code(LintCode::WireLeafDivergence));
    }

    #[test]
    fn pointer_cycle_is_legal() {
        let mut t = TypeTable::new();
        let node = t.declare_struct("node");
        let link = t.pointer_to(node);
        let f = t.float();
        t.define_struct(node, vec![Field::new("data", f), Field::new("link", link)])
            .unwrap();
        let mut r = audit_table(&t, "t");
        r.finish();
        assert!(!r.has_code(LintCode::ValueCycle), "{r:?}");
    }

    #[test]
    fn long_narrows_from_lp64_to_ilp32() {
        let mut t = TypeTable::new();
        let l = t.scalar(hpm_arch::CScalar::Long);
        t.array_of(l, 4);
        let mut r = audit_table(&t, "t");
        r.finish();
        assert!(r.has_code(LintCode::ScalarWidthNarrows), "{r:?}");
    }

    #[test]
    fn preseeded_bare_scalars_do_not_warn() {
        // `TypeTable::new` seeds every scalar kind (including `long`);
        // an empty program must still audit clean.
        let mut r = audit_table(&TypeTable::new(), "t");
        r.finish();
        assert!(r.diagnostics().is_empty(), "{r:?}");
    }

    #[test]
    fn pointer_width_truncation_is_info() {
        let mut t = TypeTable::new();
        let i = t.int();
        t.pointer_to(i);
        let mut r = audit_table(&t, "t");
        r.finish();
        assert!(r.has_code(LintCode::PointerWidthTruncation), "{r:?}");
        assert!(!r.denies(crate::diag::Severity::Warning), "{r:?}");
    }

    #[test]
    fn padding_dependent_offsets_reported_once_per_pair() {
        // char followed by double: offset of the double differs only if
        // alignment differs; across the ILP32/LP64 presets double align
        // is 8 everywhere, so use pointer-bearing layout instead.
        let mut t = TypeTable::new();
        let c = t.char_();
        let i = t.int();
        let p = t.pointer_to(i);
        t.struct_type("mixed", vec![Field::new("tag", c), Field::new("ptr", p)])
            .unwrap();
        let mut r = audit_table(&t, "t");
        r.finish();
        // Pointer alignment is 4 on ILP32 presets, 8 on x86-64: the
        // struct's layout differs, reported once per unordered pair.
        let hits = r
            .diagnostics()
            .iter()
            .filter(|d| d.code == LintCode::PaddingDependentOffsets)
            .count();
        assert_eq!(hits, 3, "{r:?}"); // x86-64 vs each of the three ILP32 presets
    }

    #[test]
    fn homogeneous_pairs_report_nothing() {
        let mut t = TypeTable::new();
        let i = t.int();
        let d = t.double();
        t.struct_type("plain", vec![Field::new("a", i), Field::new("b", d)])
            .unwrap();
        let ilp32 = [
            Architecture::dec5000(),
            Architecture::sparc20(),
            Architecture::ultra5(),
        ];
        let mut r = audit_table_for(&t, &ilp32, "t");
        r.finish();
        assert!(r.diagnostics().is_empty(), "{r:?}");
    }

    #[test]
    fn incomplete_struct_skipped_silently() {
        let mut t = TypeTable::new();
        t.declare_struct("opaque");
        let mut r = audit_table(&t, "t");
        r.finish();
        assert!(!r.has_code(LintCode::ValueCycle));
        assert!(!r.has_code(LintCode::WireLeafDivergence));
    }
}
