//! Explicit MSR graph snapshots: `G = (V, E)`.
//!
//! §3: "we model a snapshot of a program memory space as a graph
//! G = (V, E) … Each vertex in the graph represents a memory block,
//! whereas each edge represents a relationship between two memory blocks
//! when one of them contains a pointer."
//!
//! The collection machinery never materializes this graph (it traverses
//! implicitly); this module builds it explicitly for validation — e.g.
//! reproducing the paper's Figure 1 — and for visualization via DOT.

use crate::msrlt::{LogicalId, Msrlt};
use crate::translate::logical_pointer;
use crate::translate::read_ptr;
use crate::CoreError;
use hpm_memory::AddressSpace;
use hpm_types::plan::PlanOp;

/// A vertex: one live memory block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MsrVertex {
    /// Logical id of the block.
    pub id: LogicalId,
    /// Start address.
    pub addr: u64,
    /// Display label (variable name or heap address).
    pub label: String,
    /// Segment name ("global" / "heap" / "stack").
    pub segment: String,
    /// Size in bytes.
    pub size: u64,
}

/// An edge: a non-NULL pointer stored in `from` referring into `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsrEdge {
    /// Source block.
    pub from: LogicalId,
    /// Byte offset within `from` where the pointer lives.
    pub from_offset: u64,
    /// Target block.
    pub to: LogicalId,
    /// Leaf ordinal within `to` that the pointer addresses.
    pub to_leaf: u64,
}

/// A snapshot of the process's MSR graph.
#[derive(Debug, Clone, Default)]
pub struct MsrGraph {
    /// All vertices, in address order.
    pub vertices: Vec<MsrVertex>,
    /// All edges, in (from, offset) order.
    pub edges: Vec<MsrEdge>,
}

impl MsrGraph {
    /// Snapshot the full graph of every registered block.
    ///
    /// Dangling pointers (non-NULL values that resolve to no registered
    /// block) produce [`CoreError::UnregisteredPointer`].
    pub fn snapshot(space: &mut AddressSpace, msrlt: &mut Msrlt) -> Result<Self, CoreError> {
        let mut g = MsrGraph::default();
        let entries: Vec<_> = msrlt
            .live_entries()
            .map(|(id, e)| (id, e.slot(), e.size))
            .collect();
        for &(id, slot, size) in &entries {
            let addr = slot.addr();
            let block = space
                .info_at(addr)
                .filter(|b| b.slot == slot)
                .ok_or(CoreError::UnregisteredPointer(addr))?;
            g.vertices.push(MsrVertex {
                id,
                addr,
                label: block.label(),
                segment: block.segment.to_string(),
                size,
            });
            let plan = space.plan_for(block.ty)?;
            for elem in 0..block.count {
                let elem_base = elem * plan.size;
                for op in &plan.ops {
                    if let PlanOp::PointerSlot { offset, .. } = op {
                        let bytes = space.slot_bytes(slot)?;
                        let raw = read_ptr(space.arch(), bytes, slot, elem_base + offset)?;
                        if raw == 0 {
                            continue;
                        }
                        let (to, to_leaf) = logical_pointer(space, msrlt, raw)?;
                        g.edges.push(MsrEdge {
                            from: id,
                            from_offset: elem_base + offset,
                            to,
                            to_leaf,
                        });
                    }
                }
            }
        }
        g.vertices.sort_by_key(|v| v.addr);
        g.edges.sort_by_key(|e| (e.from, e.from_offset));
        Ok(g)
    }

    /// Vertices reachable from `roots` (the live-variable blocks), i.e.
    /// what a collection starting from those roots will transmit.
    pub fn reachable_from(&self, roots: &[LogicalId]) -> Vec<LogicalId> {
        let mut seen: std::collections::BTreeSet<LogicalId> = roots.iter().copied().collect();
        let mut work: Vec<LogicalId> = roots.to_vec();
        while let Some(v) = work.pop() {
            for e in self.edges.iter().filter(|e| e.from == v) {
                if seen.insert(e.to) {
                    work.push(e.to);
                }
            }
        }
        seen.into_iter().collect()
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Graphviz DOT rendering, one cluster per segment (like Figure 1's
    /// global / heap / stack grouping).
    pub fn to_dot(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("digraph msr {\n  rankdir=LR;\n  node [shape=box];\n");
        for seg in ["global", "heap", "stack"] {
            let _ = writeln!(out, "  subgraph cluster_{seg} {{\n    label=\"{seg}\";");
            for v in self.vertices.iter().filter(|v| v.segment == seg) {
                let _ = writeln!(
                    out,
                    "    \"{}\" [label=\"{} ({} B)\\n{}\"];",
                    v.id, v.label, v.size, v.id
                );
            }
            let _ = writeln!(out, "  }}");
        }
        for e in &self.edges {
            let _ = writeln!(
                out,
                "  \"{}\" -> \"{}\" [label=\"+{} → elem {}\"];",
                e.from, e.to, e.from_offset, e.to_leaf
            );
        }
        out.push_str("}\n");
        out
    }
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
    fn simple_graph_shape() {
        let mut space = AddressSpace::new(Architecture::dec5000());
        let int = space.types_mut().int();
        let pi = space.types_mut().pointer_to(int);
        let a = space.define_global("a", int, 1).unwrap();
        let b = space.define_global("b", pi, 1).unwrap();
        space.store_ptr(b, a).unwrap();
        let mut msrlt = Msrlt::new();
        reg_all(&space, &mut msrlt);
        let g = MsrGraph::snapshot(&mut space, &mut msrlt).unwrap();
        assert_eq!(g.vertex_count(), 2);
        assert_eq!(g.edge_count(), 1);
        let e = g.edges[0];
        assert_eq!(e.to_leaf, 0);
    }

    #[test]
    fn null_pointers_make_no_edges() {
        let mut space = AddressSpace::new(Architecture::sparc20());
        let int = space.types_mut().int();
        let pi = space.types_mut().pointer_to(int);
        space.define_global("p", pi, 1).unwrap();
        let mut msrlt = Msrlt::new();
        reg_all(&space, &mut msrlt);
        let g = MsrGraph::snapshot(&mut space, &mut msrlt).unwrap();
        assert_eq!(g.vertex_count(), 1);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn reachability() {
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
        let orphan = space.malloc(node, 1).unwrap();
        let la = space.elem_addr(a, 1).unwrap();
        space.store_ptr(la, b).unwrap();
        let mut msrlt = Msrlt::new();
        reg_all(&space, &mut msrlt);
        let g = MsrGraph::snapshot(&mut space, &mut msrlt).unwrap();
        let ida = msrlt.lookup_addr(a).unwrap().0;
        let idb = msrlt.lookup_addr(b).unwrap().0;
        let ido = msrlt.lookup_addr(orphan).unwrap().0;
        let reach = g.reachable_from(&[ida]);
        assert!(reach.contains(&ida));
        assert!(reach.contains(&idb));
        assert!(!reach.contains(&ido), "orphan not reachable");
    }

    #[test]
    fn dot_output_mentions_segments_and_edges() {
        let mut space = AddressSpace::new(Architecture::dec5000());
        let int = space.types_mut().int();
        let pi = space.types_mut().pointer_to(int);
        let a = space.define_global("a", int, 1).unwrap();
        let b = space.define_global("b", pi, 1).unwrap();
        space.store_ptr(b, a).unwrap();
        let mut msrlt = Msrlt::new();
        reg_all(&space, &mut msrlt);
        let g = MsrGraph::snapshot(&mut space, &mut msrlt).unwrap();
        let dot = g.to_dot();
        assert!(dot.contains("digraph msr"));
        assert!(dot.contains("cluster_global"));
        assert!(dot.contains("->"));
    }

    #[test]
    fn dangling_pointer_fails_snapshot() {
        let mut space = AddressSpace::new(Architecture::dec5000());
        let int = space.types_mut().int();
        let pi = space.types_mut().pointer_to(int);
        let b = space.define_global("b", pi, 1).unwrap();
        space.store_ptr(b, 0xDEAD).unwrap();
        let mut msrlt = Msrlt::new();
        reg_all(&space, &mut msrlt);
        assert!(matches!(
            MsrGraph::snapshot(&mut space, &mut msrlt),
            Err(CoreError::UnregisteredPointer(0xDEAD))
        ));
    }
}
