//! # hpm-workloads — the paper's evaluation programs
//!
//! §4.1: "The experimental results of three programs, namely,
//! test_pointer, linpack benchmark, and bitonic sort program, which
//! represent different classes of applications, are selected."
//!
//! Each program here is the *post-annotation* form of those C programs:
//! structured around [`MigCtx`](hpm_migrate::MigCtx) poll-points with
//! explicit live-variable sets, computing entirely inside the simulated
//! address space so every byte is subject to collection/restoration.
//!
//! * [`figure1`] — the exact illustrative program of the paper's
//!   Figure 1 (12 MSR vertices, 12 edges), migrating inside `foo` on the
//!   fifth loop iteration.
//! * [`test_pointer`] — the synthetic pointer-zoo program: a binary tree,
//!   a pointer to int, a pointer to an array of 10 ints, a pointer to an
//!   array of 10 pointers to ints, and a tree-like structure with shared
//!   nodes (a DAG).
//! * [`linpack`] — the netlib linpack benchmark: `matgen` + `dgefa`
//!   (Gaussian elimination with partial pivoting) + `dgesl`, over
//!   column-major `double` matrices; few MSR nodes, each large.
//! * [`bitonic`] — the bitonic/BST sort: a binary tree of random
//!   integers sorted by in-order traversal; many small MSR nodes, with
//!   the per-node vs pooled ("smart") allocation policies of §4.3.

#![forbid(unsafe_code)]

pub mod bitonic;
pub mod figure1;
pub mod linpack;
pub mod test_pointer;

pub use bitonic::BitonicSort;
pub use figure1::Figure1;
pub use linpack::{Linpack, PollPlacement};
pub use test_pointer::TestPointer;

/// Compare two result digests, returning the first differing key.
pub fn diff_results(
    a: &[(String, String)],
    b: &[(String, String)],
) -> Option<(String, String, String)> {
    if a.len() != b.len() {
        return Some(("<length>".into(), a.len().to_string(), b.len().to_string()));
    }
    for ((ka, va), (kb, vb)) in a.iter().zip(b) {
        if ka != kb {
            return Some(("<key>".into(), ka.clone(), kb.clone()));
        }
        if va != vb {
            return Some((ka.clone(), va.clone(), vb.clone()));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diff_results_finds_mismatch() {
        let a = vec![("x".to_string(), "1".to_string())];
        let b = vec![("x".to_string(), "2".to_string())];
        assert_eq!(diff_results(&a, &a.clone()), None);
        assert!(diff_results(&a, &b).is_some());
        let c = vec![];
        assert!(diff_results(&a, &c).is_some());
    }
}
