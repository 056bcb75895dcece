//! Integration test: the §4.2 complexity model, verified on the
//! instrumented counters rather than noisy wall clocks.
//!
//! `Collect = MSRLT_search + Encode_and_Copy` — the search term is
//! O(n log n) over the n live MSR nodes for the paper's sorted address
//! index (modelled here on the real graph), O(n) for the page index the
//! MSRLT searches instead; the copy term is O(ΣDᵢ).
//! `Restore = MSRLT_update + Decode_and_Copy` — the update term is O(n).

use hpm::arch::Architecture;
use hpm::core::{Collector, LogicalId, MsrGraph, Msrlt};
use hpm::memory::AddressSpace;
use hpm::migrate::{resume_from_image, run_to_migration, MigratedSource, Trigger};
use hpm::types::Field;
use hpm::workloads::{BitonicSort, Linpack, TestPointer};

fn freeze_bitonic(n: u64) -> MigratedSource {
    let mut p = BitonicSort::new(n);
    run_to_migration(&mut p, Architecture::ultra5(), Trigger::AtPollCount(n)).unwrap()
}

fn freeze_linpack(n: u64) -> MigratedSource {
    let mut p = Linpack::truncated(n, 2);
    run_to_migration(&mut p, Architecture::ultra5(), Trigger::AtPollCount(1)).unwrap()
}

#[test]
fn bitonic_search_count_is_linear_in_nodes() {
    // One MSRLT search per pointer chased; the tree has ~n nodes each
    // with 2 child pointers plus the root/globals.
    let n = 4_000;
    let mut src = freeze_bitonic(n);
    src.proc.msrlt.reset_stats();
    let (_, _, stats) = src.collect().unwrap();
    let s = src.proc.msrlt.stats();
    assert!(stats.blocks_saved >= n - 1);
    let per_node = s.searches as f64 / stats.blocks_saved as f64;
    assert!(
        per_node > 0.8 && per_node < 3.0,
        "searches per node should be O(1): {per_node} ({s:?})"
    );
}

/// The paper's MSRLT search, modelled on a frozen bitonic tree's real
/// graph: a sorted address index of every block, binary-searched for
/// the block each pointer targets. Returns the mean comparisons per
/// search, the factor §4.2 multiplies n by.
fn sorted_index_steps_per_search(n: u64) -> f64 {
    let mut src = freeze_bitonic(n);
    let g = MsrGraph::snapshot(&mut src.proc.space, &mut src.proc.msrlt).unwrap();
    let starts: Vec<u64> = g.vertices.iter().map(|v| v.addr).collect();
    assert!(
        starts.windows(2).all(|w| w[0] < w[1]),
        "vertices in address order"
    );
    let start_of: std::collections::HashMap<LogicalId, u64> =
        g.vertices.iter().map(|v| (v.id, v.addr)).collect();
    let mut steps = 0u64;
    for e in &g.edges {
        let target = start_of[&e.to];
        let (mut lo, mut hi) = (0, starts.len());
        while lo < hi {
            steps += 1;
            let mid = (lo + hi) / 2;
            if starts[mid] <= target {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        assert_eq!(starts[lo - 1], target);
    }
    steps as f64 / g.edges.len() as f64
}

/// Collect a frozen bitonic tree with the production MSRLT and return
/// its steps-per-search ratio.
fn steps_per_search(n: u64) -> f64 {
    let mut src = freeze_bitonic(n);
    src.proc.msrlt.reset_stats();
    let _ = src.collect().unwrap();
    let s = src.proc.msrlt.stats();
    s.search_steps as f64 / s.searches as f64
}

#[test]
fn sorted_index_search_steps_grow_logarithmically() {
    // The paper's design: steps/search ≈ log2(n), so quadrupling n adds
    // ~2 comparisons.
    let per_search: Vec<f64> = [2_000u64, 8_000, 32_000]
        .iter()
        .map(|&n| sorted_index_steps_per_search(n))
        .collect();
    let d1 = per_search[1] - per_search[0];
    let d2 = per_search[2] - per_search[1];
    assert!(
        d1 > 1.0 && d1 < 3.5 && d2 > 1.0 && d2 < 3.5,
        "each 4x in n should add ~log2(4)=2 steps per search: {per_search:?}"
    );
    assert!(
        (per_search[1] - (8_000f64).log2()).abs() < 1.5,
        "≈ log2(n) comparisons a search: {per_search:?}"
    );
}

#[test]
fn page_index_search_steps_are_constant() {
    // The MSRLT answers every lookup with one page-index probe:
    // steps/search stays 1 no matter how many nodes are live — the
    // O(n log n) → O(n) collection claim.
    let per_search: Vec<f64> = [2_000u64, 8_000, 32_000]
        .iter()
        .map(|&n| steps_per_search(n))
        .collect();
    for (i, v) in per_search.iter().enumerate() {
        assert!(*v <= 1.05, "page walk is O(1), got {v} at size {i}");
    }
    let growth = per_search[2] - per_search[0];
    assert!(
        growth.abs() < 0.1,
        "16x more nodes must not add search steps: {per_search:?}"
    );
}

#[test]
fn linpack_search_count_constant_as_size_grows() {
    // §4.2: "Since the number of MSR nodes does not increase when the
    // problem size scales up, the MSRLT search time … held constant."
    let mut counts = Vec::new();
    let mut bytes = Vec::new();
    for n in [100u64, 200, 400] {
        let mut src = freeze_linpack(n);
        src.proc.msrlt.reset_stats();
        let (payload, _, _) = src.collect().unwrap();
        counts.push(src.proc.msrlt.stats().searches);
        bytes.push(payload.len() as f64);
    }
    assert_eq!(
        counts[0], counts[2],
        "search count independent of matrix order: {counts:?}"
    );
    // Payload scales ~quadratically in n (matrix bytes dominate).
    let r1 = bytes[1] / bytes[0];
    let r2 = bytes[2] / bytes[1];
    assert!(r1 > 3.5 && r1 < 4.5, "{bytes:?}");
    assert!(r2 > 3.5 && r2 < 4.5, "{bytes:?}");
}

/// One collection of a frozen source from zeroed counters: the payload
/// bytes (ΣDᵢ) and the MSRLT searches it took.
fn collected_counters(mut src: MigratedSource) -> (usize, u64) {
    src.proc.msrlt.reset_stats();
    let (payload, _, _) = src.collect().unwrap();
    (payload.len(), src.proc.msrlt.stats().searches)
}

/// The paper workloads' §4.2 counters on the Table 1 testbed (Ultra 5),
/// pinned exactly. A change that moves a record byte or adds a search
/// must edit these constants, and so states what it moved.
#[test]
fn paper_workload_counters_are_pinned() {
    let (ultra5, at) = (Architecture::ultra5, Trigger::AtPollCount);
    let test_pointer = run_to_migration(&mut TestPointer::new(), ultra5(), at(8)).unwrap();
    let linpack = run_to_migration(&mut Linpack::truncated(600, 4), ultra5(), at(2)).unwrap();
    // The last insertion poll: 19 999 nodes live, "number sorted".
    let bitonic = run_to_migration(&mut BitonicSort::new(20_000), ultra5(), at(20_000)).unwrap();
    let measured = [
        ("test_pointer", collected_counters(test_pointer)),
        ("linpack_600", collected_counters(linpack)),
        ("bitonic_20000", collected_counters(bitonic)),
    ];
    assert_eq!(
        measured,
        [
            ("test_pointer", (472, 32)),
            ("linpack_600", (2_887_348, 8)),
            ("bitonic_20000", (320_112, 20_005)),
        ],
        "(payload bytes, MSRLT searches) per workload"
    );
}

#[test]
fn restore_updates_are_linear_and_search_free() {
    // Restoration never searches: blocks are found/created by id.
    let n = 4_000;
    let mut src = freeze_bitonic(n);
    let image = src.to_image().unwrap();
    let mut dst_prog = BitonicSort::new(n);
    let (_, dst, rstats, _) =
        resume_from_image(&mut dst_prog, Architecture::ultra5(), &image).unwrap();
    let s = dst.msrlt.stats();
    assert!(rstats.blocks_allocated >= n - 1, "{rstats:?}");
    // Searches on the destination come only from restore_variable root
    // lookups and resumed execution — far fewer than one per block.
    assert!(
        s.searches < rstats.blocks_restored / 2,
        "restoration must not search per block: {} searches for {} blocks",
        s.searches,
        rstats.blocks_restored
    );
}

#[test]
fn collect_equals_restore_payload() {
    // Conservation: bytes out == bytes in, blocks out == blocks in.
    let n = 1_000;
    let mut src = freeze_bitonic(n);
    let (payload, _, cs) = src.collect().unwrap();
    let image = src.to_image().unwrap();
    let mut dst_prog = BitonicSort::new(n);
    let (_, _, rs, _) = resume_from_image(&mut dst_prog, Architecture::sparc20(), &image).unwrap();
    assert_eq!(rs.bytes_in, payload.len() as u64);
    assert_eq!(rs.blocks_restored, cs.blocks_saved);
    assert_eq!(rs.ptr_null, cs.ptr_null);
    assert_eq!(rs.ptr_ref, cs.ptr_ref);
    assert_eq!(rs.ptr_new, cs.ptr_new);
    assert_eq!(rs.scalars_decoded, cs.scalars_encoded);
}

/// `Tx ∝ ΣDᵢ`, and what the record format adds to `Dᵢ` is the part of it
/// this repository controls: on a 1 000-node `int` list everything that
/// is not scalar content — the `PTR_NEW` announcing each node and the
/// pointer slot it hangs from — stays within 9 bytes a block (8.01 today,
/// the heap id riding in the record's first word; image version 3 read
/// 12.01 and version 2 spent 36 on the `PTR_NEW` alone), and the paper's
/// `test_pointer` image, which is nearly all records, within 5 % of its
/// 472 bytes (544 at version 3, 876 at version 2).
#[test]
fn record_overhead_per_block_is_bounded() {
    let mut space = AddressSpace::new(Architecture::ultra5());
    let cell = space.types_mut().declare_struct("cell");
    let next = space.types_mut().pointer_to(cell);
    let int = space.types_mut().int();
    let fields = vec![Field::new("v", int), Field::new("next", next)];
    space.types_mut().define_struct(cell, fields).unwrap();
    let mut msrlt = Msrlt::new();
    let mut head = 0;
    for i in 0..1_000 {
        let n = space.malloc(cell, 1).unwrap();
        msrlt.register(&space.info_at(n).unwrap());
        let v = space.elem_addr(n, 0).unwrap();
        space.store_int(v, i).unwrap();
        let link = space.elem_addr(n, 1).unwrap();
        space.store_ptr(link, head).unwrap();
        head = n;
    }
    let mut c = Collector::new(&mut space, &mut msrlt);
    c.save_pointer(head).unwrap();
    let (payload, stats) = c.finish().unwrap();
    assert_eq!(stats.blocks_saved, 1_000);
    assert_eq!(stats.bytes_out, payload.len() as u64);
    // Every scalar here is an `int`: one XDR unit each.
    let records = stats.bytes_out - 4 * stats.scalars_encoded;
    let per_block = records as f64 / stats.blocks_saved as f64;
    assert!(per_block <= 9.0, "{per_block} record bytes per block");

    let image = run_to_migration(
        &mut TestPointer::new(),
        Architecture::dec5000(),
        Trigger::AtPollCount(1),
    )
    .unwrap()
    .to_image()
    .unwrap();
    assert!(
        image.len() <= 495,
        "test_pointer image is {} bytes",
        image.len()
    );
}
