//! Registry coherence, defined once: the findings an incoherent MSRLT
//! raises, the per-block check (`check_block`) and the one walk over a
//! live registry and its pointer slots (`walk_registry`).
//!
//! The collector makes the per-block check on each block it reaches and
//! refuses the first finding ([`CoreError::Incoherent`]). The auditor
//! takes the walk over the whole registry, reachable or not, and reports
//! every finding at once; `hpm-lint` re-surfaces them as `HPM03x`
//! diagnostics (`MigratedSource::preflight_audit` in `hpm-migrate`).
//! [`MsrGraph::snapshot`](crate::MsrGraph::snapshot) takes the same walk.
//! No finding names an overlap: the space places every block itself and
//! the MSRLT names blocks by arena slot, so an overlap is a
//! `SizeMismatch` or an `UnknownBlock`.

use crate::msrlt::{frame_group, Hit, LogicalId, Msrlt};
use crate::translate::{read_ptr, PlanTable};
use crate::CoreError;
use hpm_memory::{AddressSpace, MemoryBlock};
use hpm_types::plan::PlanOp;
use std::time::{Duration, Instant};

/// One coherence violation found in the registry snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryFinding {
    /// A non-NULL pointer slot whose target is not a registered block: a
    /// collection that reaches the block refuses it.
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
    /// A live stack entry belongs to a frame group deeper than the live
    /// frame stack — its frame was popped without unregistering it.
    FrameNesting {
        /// The orphaned entry.
        id: LogicalId,
        /// The live frame-stack depth at audit time.
        live_depth: u32,
    },
    /// A registered block's recorded size disagrees with the size of the
    /// block in the space (its arena record).
    SizeMismatch {
        /// The block.
        id: LogicalId,
        /// Size the registry recorded.
        recorded: u64,
        /// Size the block has.
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
                "block {id} registered as {recorded} bytes but the block is {expected}"
            ),
            RegistryFinding::ByteAccounting { recorded, actual } => write!(
                f,
                "live-byte counter {recorded} != sum of live entries {actual}"
            ),
        }
    }
}

/// What one registry audit walked. Its findings are the list it returns.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RegistryAuditStats {
    /// Live blocks examined.
    pub blocks_checked: u64,
    /// Pointer slots decoded and resolved.
    pub edges_checked: u64,
    /// Elements whose pointer slots were walked: those of blocks whose
    /// type has pointers, none of a pointer-free block.
    pub elements_scanned: u64,
    /// Wall time of the audit.
    pub audit_time: Duration,
}

/// The per-block check of a registration, findings in check order:
/// block `id` belongs to a group below `dead_group`, the first frame group
/// past the live frame stack; and, where `sizes` gives them, the size the
/// registry recorded equals the arena record's (`(recorded, expected)`).
#[inline]
pub(crate) fn check_block(
    id: LogicalId,
    dead_group: u32,
    sizes: Option<(u64, u64)>,
) -> impl Iterator<Item = RegistryFinding> {
    let live_depth = dead_group - frame_group(0);
    let nesting =
        (id.group >= dead_group).then_some(RegistryFinding::FrameNesting { id, live_depth });
    let size = sizes.filter(|(r, e)| r != e);
    let size = size.map(|(recorded, expected)| RegistryFinding::SizeMismatch {
        id,
        recorded,
        expected,
    });
    nesting.into_iter().chain(size)
}

/// What [`walk_registry`] hands its visitor.
pub(crate) enum Visit {
    /// `Entry(id, size, addr, block)`: a live entry, the size it records,
    /// its address, and its block's arena record, `None` when the space
    /// holds no block there.
    Entry(LogicalId, u64, u64, Option<MemoryBlock>),
    /// `Edge(from, offset, raw, to)`: a non-NULL pointer slot at byte
    /// `offset` of block `from`, holding `raw`, and the registered block
    /// `raw` resolves to, if any.
    Edge(LogicalId, u64, u64, Option<Hit>),
}

/// The one walk over a live registry: every live entry in id order, each
/// followed by the non-NULL pointer slots of its block, resolved once
/// each. A block the space does not hold, or whose type has no pointers,
/// has none. A visitor's error ends the walk; any other `Err` is a
/// plan-compilation failure (an incomplete type).
pub(crate) fn walk_registry(
    space: &mut AddressSpace,
    msrlt: &mut Msrlt,
    stats: &mut RegistryAuditStats,
    mut visit: impl FnMut(&mut AddressSpace, Visit) -> Result<(), CoreError>,
) -> Result<(), CoreError> {
    let entries: Vec<_> = msrlt.live_entries().collect();
    let mut plans = PlanTable::default();
    for (id, e) in entries {
        stats.blocks_checked += 1;
        let (slot, size) = (e.slot(), e.size);
        let block = space.slot_block(slot).ok().copied();
        visit(space, Visit::Entry(id, size, slot.addr(), block))?;
        let Some(block) = block else { continue };
        let plan = plans.get(space, block.ty)?;
        if !plan.has_pointers {
            continue;
        }
        stats.elements_scanned += block.count;
        for elem in 0..block.count {
            for op in &plan.ops {
                let PlanOp::PointerSlot { offset, .. } = *op else {
                    continue;
                };
                stats.edges_checked += 1;
                let offset = elem * plan.size + offset;
                let raw = read_ptr(space.arch(), space.slot_bytes(slot)?, slot, offset)?;
                if raw != 0 {
                    let to = msrlt.resolve(space, raw);
                    visit(space, Visit::Edge(id, offset, raw, to))?;
                }
            }
        }
    }
    Ok(())
}

/// Audit a live registry snapshot against its address space.
///
/// Unlike [`MsrGraph::snapshot`](crate::MsrGraph::snapshot), this never
/// errors on a coherence violation — violations *are* the output, in
/// walk order, the byte accounting last. `Err` is reserved for
/// plan-compilation failures (an incomplete type), which mean the
/// snapshot cannot be judged at all.
pub fn audit_registry(
    space: &mut AddressSpace,
    msrlt: &mut Msrlt,
) -> Result<(Vec<RegistryFinding>, RegistryAuditStats), CoreError> {
    let t0 = Instant::now();
    let (mut findings, mut stats) = (Vec::new(), RegistryAuditStats::default());
    let dead_group = frame_group(msrlt.frame_depth() as u32);
    let mut actual = 0;
    walk_registry(space, msrlt, &mut stats, |_, visit| {
        match visit {
            Visit::Entry(id, size, addr, block) => {
                actual += size;
                let sizes = block.map(|b| (size, b.size));
                findings.extend(check_block(id, dead_group, sizes));
                if block.is_none() {
                    findings.push(RegistryFinding::UnknownBlock { id, addr });
                }
            }
            Visit::Edge(from, offset, raw, None) => {
                findings.push(RegistryFinding::DanglingEdge { from, offset, raw })
            }
            Visit::Edge(..) => {}
        }
        Ok(())
    })?;
    let recorded = msrlt.registered_bytes();
    if recorded != actual {
        findings.push(RegistryFinding::ByteAccounting { recorded, actual });
    }
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
    }

    /// The edge walk skips a block whose type has no pointers, as the
    /// collector does: a `double[1_000_000]` scans no element, and a
    /// pointer array beside it scans each of its own.
    #[test]
    fn a_pointer_free_block_scans_no_element() {
        let mut space = AddressSpace::new(Architecture::dec5000());
        let double = space.types_mut().double();
        let pd = space.types_mut().pointer_to(double);
        let v = space.define_global("v", double, 1_000_000).unwrap();
        let p = space.define_global("p", pd, 3).unwrap();
        space.store_ptr(p, v).unwrap();
        let mut msrlt = Msrlt::new();
        reg_all(&space, &mut msrlt);
        let (findings, stats) = audit_registry(&mut space, &mut msrlt).unwrap();
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(stats.blocks_checked, 2);
        assert_eq!(stats.elements_scanned, 3, "only p's elements");
        assert_eq!(stats.edges_checked, 3);
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
        let (findings, _) = audit_registry(&mut space, &mut msrlt).unwrap();
        let from = msrlt.lookup_addr(p).unwrap().0;
        assert_eq!(
            findings,
            [RegistryFinding::DanglingEdge {
                from,
                offset: 0,
                raw: 0xDEAD
            }]
        );
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
        let (findings, _) = audit_registry(&mut space, &mut msrlt).unwrap();
        let id = LogicalId { group: 2, index: 0 };
        assert_eq!(
            findings,
            [RegistryFinding::FrameNesting { id, live_depth: 0 }]
        );
    }

    /// A size recorded over the neighbouring block is that block's size
    /// mismatch, and only that: the two registrations overlap, and the
    /// overlap is the mismatch.
    #[test]
    fn a_size_inflated_over_its_neighbour_is_a_size_mismatch() {
        let mut space = AddressSpace::new(Architecture::dec5000());
        let int = space.types_mut().int();
        let a = space.define_global("a", int, 1).unwrap();
        let b = space.define_global("b", int, 1).unwrap();
        assert_eq!(b, a + 4, "b starts where a ends");
        let mut msrlt = Msrlt::new();
        let id = LogicalId { group: 0, index: 0 };
        msrlt.register_at(id, space.info_at(a).unwrap().slot, 8);
        msrlt.register(&space.info_at(b).unwrap());
        let (findings, stats) = audit_registry(&mut space, &mut msrlt).unwrap();
        assert_eq!(
            findings,
            [RegistryFinding::SizeMismatch {
                id,
                recorded: 8,
                expected: 4
            }]
        );
        assert_eq!(stats.blocks_checked, 2);
    }

    /// A block freed behind the registry's back leaves a stale entry, and
    /// a block allocated over the freed range is registered beside it:
    /// the stale entry is an unknown block, and only that.
    #[test]
    fn a_stale_entry_whose_range_was_reused_is_an_unknown_block() {
        let mut space = AddressSpace::new(Architecture::dec5000());
        let ch = space.types_mut().char_();
        let mut msrlt = Msrlt::new();
        let x = space.malloc(ch, 16).unwrap();
        let stale = msrlt.register(&space.info_at(x).unwrap());
        space.free(x).unwrap();
        assert_eq!(space.malloc(ch, 16).unwrap(), x, "the range is reused");
        msrlt.register(&space.info_at(x).unwrap());
        let (findings, stats) = audit_registry(&mut space, &mut msrlt).unwrap();
        assert_eq!(
            findings,
            [RegistryFinding::UnknownBlock { id: stale, addr: x }]
        );
        assert_eq!(stats.blocks_checked, 2);
    }
}
