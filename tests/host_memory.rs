//! Integration test: host memory per simulated byte, counted by the
//! allocator rather than sampled as RSS, so the figures are exact and
//! repeatable.
//!
//! A simulated block is a 32-byte record plus its bytes in one buffer per
//! segment, so host memory follows the simulated data instead of the
//! block count. The bounds were stated before the buffers were written.
//! At the one-arena-entry-per-block design they read 217 host bytes per
//! block and 27.8 MB of live heap.

use hpm::arch::Architecture;
use hpm::migrate::{run_migrating, run_straight, Trigger};
use hpm::net::NetworkModel;
use hpm::workloads::{BitonicSort, Linpack};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Live and peak-live bytes of every allocation in the process.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's obligations are `System::alloc`'s own.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: as above, for `System::alloc_zeroed`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        grew(new_size);
        // SAFETY: as above, for `System::realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: as above, for `System::dealloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Run `f` and answer its peak live heap above what was live before it.
fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed) - before)
}

/// Bitonic sort of 200 000 per-node heap blocks, run straight on a
/// DEC 5000: each node is a 12-byte `struct` (`int` and two pointers).
const BITONIC_NODES: u64 = 200_000;
/// Bound on host bytes per simulated block at that size (217 on the
/// per-block arena entries, 147 while the MSRLT kept its own address
/// index and 40-byte records, 117 with one block table per process).
const BYTES_PER_BLOCK: usize = 128;

/// Linpack of order 600 migrating DEC 5000 → SPARC 20 through a
/// `Whole` image: a 2.89 MB image of a few large blocks.
const LINPACK_N: u64 = 600;
/// Bound on the migration's peak live heap (27.8 MB on the per-block
/// arena entries and a guessed slot reservation).
const LINPACK_PEAK: usize = 24_500_000;

/// One test, so that no other test's allocations run beside a count.
#[test]
fn host_memory_follows_the_simulated_bytes() {
    let (ran, peak) = peak_during(|| {
        run_straight(
            &mut BitonicSort::new(BITONIC_NODES),
            Architecture::dec5000(),
        )
    });
    ran.unwrap();
    let per_block = peak / BITONIC_NODES as usize;
    println!("bitonic {BITONIC_NODES}: peak {peak} B, {per_block} B per block");
    assert!(
        per_block <= BYTES_PER_BLOCK,
        "{per_block} host bytes per block, over {BYTES_PER_BLOCK}"
    );

    let (run, peak) = peak_during(|| {
        run_migrating(
            || Linpack::truncated(LINPACK_N, 4),
            Architecture::dec5000(),
            Architecture::sparc20(),
            NetworkModel::instant(),
            Trigger::AtPollCount(2),
        )
    });
    let image = run.unwrap().report.memory_bytes;
    println!("linpack {LINPACK_N}: {image} B payload, peak {peak} B");
    assert!(
        peak <= LINPACK_PEAK,
        "peak live heap {peak} B, over {LINPACK_PEAK}"
    );
}
