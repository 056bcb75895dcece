//! Integration test: host memory per simulated byte, counted by the
//! allocator rather than sampled as RSS, so the figures are exact and
//! repeatable.
//!
//! A simulated block is a 32-byte record plus its bytes in one buffer per
//! segment, so host memory follows the simulated data instead of the
//! block count. The bounds were stated before the buffers were written.
//! At the one-arena-entry-per-block design they read 217 host bytes per
//! block and 27.8 MB of live heap.
//!
//! The allocator also lists the requests of 128 KiB or more a migration
//! makes, each of which glibc serves with a mapping of its own: one
//! `Whole` migration's, named by the buffer each one is, and how many a
//! streamed migration makes per chunk.

use hpm::arch::Architecture;
use hpm::migrate::{
    migrate, run_migrating, run_straight, run_to_migration, Migration, PipelineConfig, Transport,
    Trigger,
};
use hpm::net::{FaultPlan, NetworkModel};
use hpm::workloads::{BitonicSort, Linpack};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Live and peak-live bytes of every allocation in the process, and,
/// while recording, every large request.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// A request of at least this many bytes is one glibc's default
/// `mmap_threshold` serves with a mapping of its own, which is returned
/// when freed and faulted in again by the next migration.
const LARGE: usize = 128 * 1024;
/// How an allocation was asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Call {
    Alloc,
    Zeroed,
    Realloc,
}
static RECORDING: AtomicBool = AtomicBool::new(false);
/// Large requests recorded so far; only the first `LOG.len()` are kept.
static LARGE_SEEN: AtomicUsize = AtomicUsize::new(0);
/// Each recorded request as `bytes << 2 | call`.
static LOG: [AtomicUsize; 256] = [const { AtomicUsize::new(0) }; 256];

fn grew(by: usize, call: Call) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
    if by >= LARGE && RECORDING.load(Ordering::Relaxed) {
        let i = LARGE_SEEN.fetch_add(1, Ordering::Relaxed);
        if let Some(slot) = LOG.get(i) {
            slot.store(by << 2 | call as usize, Ordering::Relaxed);
        }
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size(), Call::Alloc);
        // SAFETY: the caller's obligations are `System::alloc`'s own.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size(), Call::Zeroed);
        // SAFETY: as above, for `System::alloc_zeroed`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        grew(new_size, Call::Realloc);
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

/// Run `f` and answer every request of at least [`LARGE`] bytes it made,
/// in order (on one thread; across threads, in the order they landed).
fn large_requests<T>(f: impl FnOnce() -> T) -> (T, Vec<(Call, usize)>) {
    LARGE_SEEN.store(0, Ordering::Relaxed);
    RECORDING.store(true, Ordering::Relaxed);
    let out = f();
    RECORDING.store(false, Ordering::Relaxed);
    let seen = LARGE_SEEN.load(Ordering::Relaxed);
    assert!(seen <= LOG.len(), "{seen} large requests overflow the log");
    let calls = [Call::Alloc, Call::Zeroed, Call::Realloc];
    let log = LOG[..seen].iter().map(|slot| {
        let word = slot.load(Ordering::Relaxed);
        (calls[word & 3], word >> 2)
    });
    (out, log.collect())
}

/// Bitonic sort of 200 000 per-node heap blocks, run straight on a
/// DEC 5000: each node is a 12-byte `struct` (`int` and two pointers).
const BITONIC_NODES: u64 = 200_000;
/// Bound on host bytes per simulated block at that size (217 on the
/// per-block arena entries, 147 while the MSRLT kept its own address
/// index and 40-byte records, 117 with one block table per process,
/// 123 with a 2 KiB granule table on each page where blocks start).
const BYTES_PER_BLOCK: usize = 128;

/// Linpack of order 600 migrating DEC 5000 → SPARC 20: a 2.89 MB image
/// of a few large blocks.
const LINPACK_N: u64 = 600;
/// Bound on the migration's peak live heap through a `Whole` image (27.8
/// MB on the per-block arena entries and a guessed slot reservation;
/// 20.35 MB while the collector's buffer was regrown for the image
/// prefix and the destination reserved a heap the size of the image;
/// 14.58 MB without them).
const LINPACK_PEAK: usize = 15_000_000;
/// Bound on its peak live heap through the chunk stream
/// (`Transport::Reliable` at the default chunk size, no faults), where
/// the source frames and sends each chunk as it is collected and the
/// destination restores on a thread of its own. It depends on how many
/// frames wait in the pipe while the destination restores: 19.80–21.45
/// MB over eight runs, and 20.41–21.43 MB over six when a wire thread
/// framed the collector's chunks off a queue. Since a compressed frame
/// gives back the stored frame's capacity it reads 18.68 MB on every
/// release run (18.90 MB before), but 18.72–19.77 MB in a debug build
/// and 21.06–21.45 MB in a debug build beside a concurrent compile:
/// each step is one more stored 1 MiB frame (1 048 684 B) waiting in
/// the pipe, so the bound stays where those runs fit.
const LINPACK_STREAMED_PEAK: usize = 22_000_000;

/// The linpack order whose `Whole` migration lists its large requests.
const LINPACK_LISTED: u64 = 300;
/// Bound on the large requests per chunk of a streamed migration, beyond
/// the stack segments' four. Cold linpack 600 made 28 over 6 chunks (4.7
/// a chunk) while the collector built a fresh buffer per chunk and
/// regrew it for each array slice, and the receiver copied each payload
/// out of its frame and again into the journal and the restorer's
/// window; 21 to 25 without them, while the coder wrote each chunk into
/// two token buffers and a transposed copy and the frame copied the
/// tokens, and the decoder grew its output by doubling and transposed it
/// into a second one. It makes 12 (1.3 a chunk beyond the stacks) with
/// the tokens written into the frame and each chunk expanded into one
/// buffer of its size: the collector's one regrowth, each array
/// chunk's frame and expansion, and the decoder's plane buffer once a
/// thread (the coder's, kept by the sending thread, was made by the
/// migration before).
const LARGE_PER_CHUNK: usize = 2;

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

    let streamed = Transport::Reliable(PipelineConfig::default(), FaultPlan::none());
    let (run, peak) = peak_during(|| {
        migrate(
            || Linpack::truncated(LINPACK_N, 4),
            Architecture::dec5000(),
            Architecture::sparc20(),
            NetworkModel::instant(),
            Trigger::AtPollCount(2),
            &Migration::new(streamed),
        )
    });
    let image = run.unwrap().report.memory_bytes;
    println!("linpack {LINPACK_N} streamed: {image} B payload, peak {peak} B");
    assert!(
        peak <= LINPACK_STREAMED_PEAK,
        "streamed peak live heap {peak} B, over {LINPACK_STREAMED_PEAK}"
    );

    // One linpack 300 migration on the Ultra 5 pair, `Whole`: each
    // request of at least `LARGE` bytes, named by its buffer. The
    // collector asks for its buffer once, at the image's size, prefix
    // and payload, and never regrows it; the destination reserves no heap
    // for a program that has none. (The stack segments still double for
    // the second local.)
    let ultra5 = Architecture::ultra5();
    let listed = || Linpack::truncated(LINPACK_LISTED, 4);
    let at = Trigger::AtPollCount(2);
    let frozen = run_to_migration(&mut listed(), ultra5.clone(), at.clone()).unwrap();
    let msrlt = &frozen.proc.msrlt;
    let estimate = msrlt.registered_bytes() as usize + 24 * msrlt.live_count();
    drop(frozen);
    let link = NetworkModel::ethernet_100();
    let (run, requests) =
        large_requests(|| run_migrating(listed, ultra5.clone(), ultra5.clone(), link, at.clone()));
    let report = run.unwrap().report;
    let prefix = (report.image_bytes - report.memory_bytes) as usize;
    let matrix = (LINPACK_LISTED * LINPACK_LISTED * 8) as usize;
    let named = [
        ("source stack, the matrix `a`", Call::Alloc, matrix),
        ("source stack, doubled for `b`", Call::Realloc, 2 * matrix),
        (
            "collector, prefix + payload",
            Call::Alloc,
            prefix + estimate,
        ),
        ("destination stack, `a`", Call::Alloc, matrix),
        (
            "destination stack, doubled for `b`",
            Call::Realloc,
            2 * matrix,
        ),
    ];
    for (i, &(call, bytes)) in requests.iter().enumerate() {
        let name = named.get(i).map_or("?", |n| n.0);
        println!("linpack {LINPACK_LISTED} whole: {i} {call:?} {bytes} B ({name})");
    }
    assert_eq!(requests, named.map(|(_, call, bytes)| (call, bytes)));

    // Linpack 600 frozen before its first column factors, streamed: the
    // stack segments' four requests, and at most `LARGE_PER_CHUNK` per
    // chunk the stream carried.
    let cold = Transport::Reliable(PipelineConfig::default(), FaultPlan::none());
    let (run, requests) = large_requests(|| {
        migrate(
            || Linpack::truncated(LINPACK_N, 4),
            ultra5.clone(),
            ultra5.clone(),
            link,
            Trigger::AtPollCount(1),
            &Migration::new(cold),
        )
    });
    let chunks = run.unwrap().report.pipeline().unwrap().chunks as usize;
    let large = requests.len();
    for (i, &(call, bytes)) in requests.iter().enumerate() {
        println!("linpack {LINPACK_N} cold, streamed: {i} {call:?} {bytes} B");
    }
    println!("linpack {LINPACK_N} cold, streamed: {large} large requests, {chunks} chunks");
    assert!(
        large <= 4 + LARGE_PER_CHUNK * chunks,
        "{large} large requests for {chunks} chunks, over {LARGE_PER_CHUNK} a chunk"
    );
}
