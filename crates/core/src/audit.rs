//! Pre-flight audit of a live MSRLT snapshot.
//!
//! Collection assumes the registry is coherent: every non-NULL pointer in
//! a registered block resolves to a registered block, frame groups nest
//! exactly as the live call chain does, no two blocks overlap, and the
//! byte accounting matches the entries. When one of those assumptions is
//! violated, the collector fails mid-flight with a half-built image; the
//! auditor checks all of them *before* collection starts, reporting every
//! violation at once instead of dying on the first.
//!
//! The driver runs this audit at the migration point (see
//! `hpm-migrate::driver`); `hpm-lint` re-surfaces the findings as
//! `HPM03x` diagnostics.

use crate::msrlt::{frame_group, LogicalId, Msrlt};
use crate::translate::read_ptr;
use crate::CoreError;
use hpm_memory::AddressSpace;
use hpm_types::plan::PlanOp;
use std::time::{Duration, Instant};

/// One coherence violation found in the registry snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryFinding {
    /// A non-NULL pointer slot whose target is not a registered block:
    /// collection would abort with [`CoreError::UnregisteredPointer`].
    DanglingEdge {
        /// Block holding the pointer.
        from: LogicalId,
        /// Byte offset of the pointer slot within the block.
        offset: u64,
        /// The raw (machine-specific) target address.
        raw: u64,
    },
    /// A registered address the address space knows no block for — the
    /// registry and the space disagree about what is alive.
    UnknownBlock {
        /// The registered id.
        id: LogicalId,
        /// The registered address.
        addr: u64,
    },
    /// Two registered blocks overlap in the address space.
    OverlappingBlocks {
        /// Lower block.
        a: LogicalId,
        /// Upper block (starts inside `a`).
        b: LogicalId,
        /// Bytes of overlap.
        bytes: u64,
    },
    /// A live stack entry belongs to a frame group deeper than the live
    /// frame stack — its frame was popped without unregistering it.
    FrameNesting {
        /// The orphaned entry.
        id: LogicalId,
        /// The live frame-stack depth at audit time.
        live_depth: u32,
    },
    /// A registered block's recorded size disagrees with its type's
    /// layout (`plan.size * count`): the stream would mis-slice it.
    SizeMismatch {
        /// The block.
        id: LogicalId,
        /// Size the registry recorded.
        recorded: u64,
        /// Size the type plan implies.
        expected: u64,
    },
    /// The registry's running live-byte counter disagrees with the sum
    /// of its live entries.
    ByteAccounting {
        /// The running counter.
        recorded: u64,
        /// The recomputed sum.
        actual: u64,
    },
}

impl std::fmt::Display for RegistryFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryFinding::DanglingEdge { from, offset, raw } => write!(
                f,
                "pointer at {from}+{offset} targets unregistered address {raw:#x}"
            ),
            RegistryFinding::UnknownBlock { id, addr } => {
                write!(f, "registered block {id} at {addr:#x} unknown to the space")
            }
            RegistryFinding::OverlappingBlocks { a, b, bytes } => {
                write!(f, "blocks {a} and {b} overlap by {bytes} bytes")
            }
            RegistryFinding::FrameNesting { id, live_depth } => write!(
                f,
                "stack entry {id} outlives the live frame stack (depth {live_depth})"
            ),
            RegistryFinding::SizeMismatch {
                id,
                recorded,
                expected,
            } => write!(
                f,
                "block {id} registered as {recorded} bytes but its type plan covers {expected}"
            ),
            RegistryFinding::ByteAccounting { recorded, actual } => write!(
                f,
                "live-byte counter {recorded} != sum of live entries {actual}"
            ),
        }
    }
}

/// Counters for one pre-flight audit, carried in the driver's report
/// beside every other phase's.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RegistryAuditStats {
    /// Live blocks examined.
    pub blocks_checked: u64,
    /// Pointer slots decoded and resolved.
    pub edges_checked: u64,
    /// Total findings (all kinds).
    pub findings: u64,
    /// Dangling-edge findings.
    pub dangling_edges: u64,
    /// Overlapping-block findings.
    pub overlaps: u64,
    /// Frame-nesting findings.
    pub frame_violations: u64,
    /// Wall time of the audit.
    pub audit_time: Duration,
}

/// Audit a live registry snapshot against its address space.
///
/// Unlike [`MsrGraph::snapshot`](crate::MsrGraph::snapshot), this never
/// errors on a coherence violation — violations *are* the output. `Err`
/// is reserved for plan-compilation failures (an incomplete type), which
/// mean the snapshot cannot be judged at all.
pub fn audit_registry(
    space: &mut AddressSpace,
    msrlt: &mut Msrlt,
) -> Result<(Vec<RegistryFinding>, RegistryAuditStats), CoreError> {
    let t0 = Instant::now();
    let mut findings = Vec::new();
    let mut stats = RegistryAuditStats::default();

    let entries: Vec<_> = msrlt
        .live_entries()
        .map(|(id, e)| (id, e.slot(), e.size))
        .collect();
    let live_depth = msrlt.frame_depth() as u32;
    let first_dead_group = frame_group(live_depth);

    // Per-block checks: existence, size, frame nesting, then edges.
    for &(id, slot, size) in &entries {
        stats.blocks_checked += 1;
        if id.group >= first_dead_group {
            findings.push(RegistryFinding::FrameNesting { id, live_depth });
            stats.frame_violations += 1;
        }
        let Ok((ty, count)) = space.slot_block(slot).map(|b| (b.ty, b.count)) else {
            let addr = slot.addr();
            findings.push(RegistryFinding::UnknownBlock { id, addr });
            // Without the block there are no bytes to decode pointers
            // from; skip the edge walk.
            continue;
        };
        let plan = space.plan_for(ty)?;
        let expected = plan.size * count;
        if expected != size {
            findings.push(RegistryFinding::SizeMismatch {
                id,
                recorded: size,
                expected,
            });
        }
        for elem in 0..count {
            let elem_base = elem * plan.size;
            for op in &plan.ops {
                if let PlanOp::PointerSlot { offset, .. } = op {
                    stats.edges_checked += 1;
                    let bytes = space.slot_bytes(slot)?;
                    let raw = read_ptr(space.arch(), bytes, slot, elem_base + offset)?;
                    if raw != 0 && msrlt.resolve(space, raw).is_none() {
                        findings.push(RegistryFinding::DanglingEdge {
                            from: id,
                            offset: elem_base + offset,
                            raw,
                        });
                        stats.dangling_edges += 1;
                    }
                }
            }
        }
    }

    // Overlap: adjacent pairs in address order.
    let mut spans: Vec<_> = entries
        .iter()
        .map(|&(id, slot, size)| (slot.addr(), size, id))
        .collect();
    spans.sort_unstable();
    for w in spans.windows(2) {
        let (a_addr, a_size, a_id) = w[0];
        let (b_addr, _, b_id) = w[1];
        let a_end = a_addr + a_size;
        if b_addr < a_end {
            findings.push(RegistryFinding::OverlappingBlocks {
                a: a_id,
                b: b_id,
                bytes: a_end - b_addr,
            });
            stats.overlaps += 1;
        }
    }

    // Byte accounting.
    let actual: u64 = entries.iter().map(|&(.., size)| size).sum();
    let recorded = msrlt.registered_bytes();
    if recorded != actual {
        findings.push(RegistryFinding::ByteAccounting { recorded, actual });
    }

    stats.findings = findings.len() as u64;
    stats.audit_time = t0.elapsed();
    Ok((findings, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpm_arch::Architecture;
    use hpm_types::Field;

    fn reg_all(space: &AddressSpace, msrlt: &mut Msrlt) {
        for info in space.block_infos() {
            msrlt.register(&info);
        }
    }

    #[test]
    fn coherent_registry_audits_clean() {
        let mut space = AddressSpace::new(Architecture::dec5000());
        let node = space.types_mut().declare_struct("n");
        let pn = space.types_mut().pointer_to(node);
        let i = space.types_mut().int();
        space
            .types_mut()
            .define_struct(node, vec![Field::new("v", i), Field::new("next", pn)])
            .unwrap();
        let a = space.malloc(node, 1).unwrap();
        let b = space.malloc(node, 1).unwrap();
        let la = space.elem_addr(a, 1).unwrap();
        space.store_ptr(la, b).unwrap();
        let mut msrlt = Msrlt::new();
        reg_all(&space, &mut msrlt);
        let (findings, stats) = audit_registry(&mut space, &mut msrlt).unwrap();
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(stats.blocks_checked, 2);
        assert_eq!(stats.edges_checked, 2);
        assert_eq!(stats.findings, 0);
    }

    #[test]
    fn dangling_pointer_reported_not_fatal() {
        let mut space = AddressSpace::new(Architecture::dec5000());
        let int = space.types_mut().int();
        let pi = space.types_mut().pointer_to(int);
        let p = space.define_global("p", pi, 1).unwrap();
        space.store_ptr(p, 0xDEAD).unwrap();
        let mut msrlt = Msrlt::new();
        reg_all(&space, &mut msrlt);
        let (findings, stats) = audit_registry(&mut space, &mut msrlt).unwrap();
        assert_eq!(stats.dangling_edges, 1);
        assert!(matches!(
            findings[0],
            RegistryFinding::DanglingEdge { raw: 0xDEAD, .. }
        ));
    }

    #[test]
    fn unregistered_space_block_is_not_a_finding() {
        // A block the space knows but the registry doesn't is legal
        // (registration is lazy); only the reverse is incoherent.
        let mut space = AddressSpace::new(Architecture::sparc20());
        let int = space.types_mut().int();
        space.define_global("x", int, 1).unwrap();
        let mut space2 = space; // no registrations at all
        let mut msrlt = Msrlt::new();
        let (findings, stats) = audit_registry(&mut space2, &mut msrlt).unwrap();
        assert!(findings.is_empty());
        assert_eq!(stats.blocks_checked, 0);
    }

    #[test]
    fn stale_frame_entry_reported() {
        let mut space = AddressSpace::new(Architecture::dec5000());
        let int = space.types_mut().int();
        let mut msrlt = Msrlt::new();
        msrlt.begin_frame();
        msrlt.end_frame();
        // Register an entry in frame group 2 after its frame was popped
        // (register_at bypasses the frame bookkeeping, as a buggy runtime
        // would).
        let g = space.define_global("x", int, 1).unwrap();
        let info = space.info_at(g).unwrap();
        msrlt.register_at(LogicalId { group: 2, index: 0 }, info.slot, info.size);
        let (findings, stats) = audit_registry(&mut space, &mut msrlt).unwrap();
        assert_eq!(stats.frame_violations, 1, "{findings:?}");
        assert!(findings
            .iter()
            .any(|f| matches!(f, RegistryFinding::FrameNesting { .. })));
    }
}
