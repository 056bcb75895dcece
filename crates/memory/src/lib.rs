//! # hpm-memory — simulated heterogeneous process address space
//!
//! The paper migrates real C processes whose memory blocks live at raw
//! machine addresses in three segments (global, heap, stack — Figure 1).
//! Raw-pointer process images clash with Rust's safety model, so this
//! crate provides the documented substitution: a byte-accurate *simulated*
//! address space.
//!
//! Everything the collection/restoration algorithms can observe is
//! preserved:
//!
//! * memory blocks live at numeric addresses inside per-segment spans;
//! * a pointer **is** a raw address stored in the block's bytes using the
//!   machine's endianness and pointer width (read it back on the wrong
//!   machine and you get garbage — exactly why migration needs the MSR
//!   machinery);
//! * interior pointers (into the middle of arrays/structs) are legal;
//! * address→block resolution requires a genuine search, through a
//!   [`PageIndex`] — the process's only address map, which the MSRLT
//!   resolves pointers through too: a dense page directory per run of
//!   pages (globals, heap, stack) and, on pages where blocks start, a
//!   table naming the block at each 8-byte granule;
//! * the heap allocator reuses freed space, so address order is not
//!   allocation order.
//!
//! The [`AddressSpace`] owns the process's
//! [`TypeTable`](hpm_types::TypeTable) (each executable carries its own
//! copy of the TI table), a [`LayoutEngine`](hpm_types::layout::LayoutEngine)
//! memoizing layout queries for its architecture, and each type's
//! compiled [`SavePlan`](hpm_types::plan::SavePlan), whose leaf tables
//! answer every typed access (`load_*`, `store_*`, `elem_addr`,
//! `leaf_at_addr`, the `f64` runs).
//!
//! The crate has two `unsafe` blocks, the workspace's only ones in
//! library code, and both are hints that change no byte:
//! [`prefetch`], through which the collector and restorer start loading
//! lines they will read a few blocks later (the space's staged entry
//! points, [`AddressSpace::prefetch_record`] and its siblings), and
//! [`prefault`], through which an image-sized buffer is faulted in with
//! one system call just before a kernel fills it, instead of one trap
//! per page.

#![deny(clippy::undocumented_unsafe_blocks)]

mod block;
mod page_index;
mod space;

pub use block::{BlockInfo, MemoryBlock};
pub use page_index::{PageIndex, PAGE_SIZE};
pub use space::{AddressSpace, AllocStats, BlockSlot, FrameId, MemError};

/// Ask the processor to start loading the cache line that holds `*r`
/// into its caches, and return at once. A hint: it changes no value,
/// cannot fault, and a line that is never read costs only the load.
/// `_mm_prefetch` on x86_64 and a no-op on every other target.
#[inline(always)]
pub fn prefetch<T>(r: &T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: the pointer comes from a live reference, so it is valid
    // for reads of a `T`; a prefetch reads nothing into the program and
    // never faults, whatever the address.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>((r as *const T).cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = r;
}

/// Fewest bytes [`prefault`] acts on: 64 pages of 4 KiB. A shorter
/// range takes few enough traps that the system call would not pay.
const PREFAULT_MIN_BYTES: usize = 64 << 12;

/// Fault in, with one call, the host pages lying wholly inside `buf`,
/// which the caller is about to write in full; return at once if `buf`
/// is shorter than 64 pages. A hint like [`prefetch`]: it changes no
/// byte of `buf`, so it takes spare capacity
/// (`&mut [MaybeUninit<u8>]`) as readily as initialised bytes.
///
/// On Linux it is one `madvise(MADV_POPULATE_WRITE)`, which maps each
/// page writable as a first write would, without the trap per page. The
/// result is ignored: before Linux 5.14 (`EINVAL`) or short of memory
/// (`ENOMEM`) the writes that follow fault the pages in on demand, as
/// they would have anyway. A no-op on every other target.
///
/// Only a range the next step fills belongs here: a reservation the
/// system maps lazily, or a block a program merely allocates, would
/// become resident memory it never uses.
#[inline(always)]
pub fn prefault<T>(buf: &mut [T]) {
    let len = std::mem::size_of_val(buf);
    if len >= PREFAULT_MIN_BYTES {
        populate(buf.as_mut_ptr().cast(), len);
    }
}

/// The system call behind [`prefault`], out of line so that a call site
/// below the threshold costs one compare.
#[cold]
#[inline(never)]
fn populate(start: *mut u8, len: usize) {
    #[cfg(target_os = "linux")]
    {
        use std::ffi::{c_int, c_void};
        extern "C" {
            fn getpagesize() -> c_int;
            fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
        }
        const MADV_POPULATE_WRITE: c_int = 23;
        // SAFETY: `getpagesize` takes nothing and only reads the page
        // size. `madvise` is given the whole pages inside `[start,
        // start + len)`, a range the caller holds by exclusive borrow,
        // so they are this process's own writable memory;
        // `MADV_POPULATE_WRITE` only maps them as a write fault would
        // and reads or writes none of their bytes. A failure leaves the
        // range as it was.
        unsafe {
            let page = getpagesize() as usize;
            let lo = (start as usize).next_multiple_of(page);
            let hi = (start as usize + len) / page * page;
            if lo < hi {
                madvise(lo as *mut c_void, hi - lo, MADV_POPULATE_WRITE);
            }
        }
    }
    #[cfg(not(target_os = "linux"))]
    let _ = (start, len);
}

#[cfg(all(test, target_os = "linux"))]
mod prefault_tests {
    use super::prefault;
    use std::ffi::{c_int, c_void};
    use std::mem::MaybeUninit;

    extern "C" {
        fn getpagesize() -> c_int;
        fn mincore(addr: *mut c_void, len: usize, vec: *mut u8) -> c_int;
    }

    fn page() -> usize {
        // SAFETY: `getpagesize` takes nothing and only reads the page size.
        unsafe { getpagesize() as usize }
    }

    /// Which host pages from the one holding `at` to the one holding
    /// `at + len - 1` are resident, one flag a page.
    fn resident(at: usize, len: usize) -> Vec<bool> {
        let page = page();
        let lo = at / page * page;
        let hi = (at + len).next_multiple_of(page);
        let mut flags = vec![0u8; (hi - lo) / page];
        // SAFETY: `[lo, hi)` is the whole pages of a live allocation, so
        // it is mapped, and `flags` holds one byte per page of it, which
        // is all `mincore` writes.
        let rc = unsafe { mincore(lo as *mut c_void, hi - lo, flags.as_mut_ptr()) };
        assert_eq!(rc, 0, "mincore failed");
        flags.iter().map(|&f| f & 1 == 1).collect()
    }

    /// Whether the kernel backs anonymous memory with huge pages
    /// unasked, which makes residency 2 MiB at a time.
    fn huge_pages_always() -> bool {
        std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled")
            .is_ok_and(|s| s.contains("[always]"))
    }

    #[test]
    fn prefault_populates_exactly_its_pages() {
        let page = page();
        // 64 MiB: above glibc's largest dynamic mmap threshold (32 MiB),
        // so this is a fresh mapping no byte of which has been touched
        // beyond the allocator's header in its first page.
        let mut buf: Vec<u8> = Vec::with_capacity(64 << 20);
        let spare: &mut [MaybeUninit<u8>] = buf.spare_capacity_mut();
        let base = spare.as_ptr() as usize;
        let before = resident(base + page, spare.len() - page);
        assert!(
            before.iter().all(|&r| !r),
            "a fresh 64 MiB allocation is already resident"
        );

        // A sub-slice starting and ending off page boundaries, past the
        // header page: exactly the pages wholly inside it come in.
        let (from, to) = (page + 1234, page + 1234 + 100 * page + 777);
        prefault(&mut spare[from..to]);
        let first = (base + page) / page * page;
        let flags = resident(first, spare.len() - page);
        let huge = huge_pages_always();
        for (i, &r) in flags.iter().enumerate() {
            let p = first + i * page;
            if p >= base + from && p + page <= base + to {
                assert!(r, "page {i} inside the slice is not resident");
            } else if !huge {
                assert!(!r, "page {i} outside the slice became resident");
            }
        }

        // Empty, one page short of the threshold, and one byte short
        // of it off a page boundary (65 pages touched): all no-ops.
        let far = 32 << 20;
        prefault(&mut spare[far..far]);
        prefault(&mut spare[far..far + 63 * page]);
        prefault(&mut spare[far + 1..far + 64 * page]);
        assert!(
            resident(base + far, 65 * page).iter().all(|&r| !r),
            "a no-op prefault made pages resident"
        );

        // Initialised bytes read back unchanged.
        let mut bytes: Vec<u8> = (0..(1usize << 20) + 13)
            .map(|i| (i * 31 % 251) as u8)
            .collect();
        let want = bytes.clone();
        prefault(&mut bytes[5..]);
        assert_eq!(bytes, want);
        let mut words: Vec<u64> = (0..1u64 << 17)
            .map(|i| i.wrapping_mul(0x9e37_79b9))
            .collect();
        let want = words.clone();
        prefault(&mut words);
        assert_eq!(words, want);
    }
}

#[cfg(test)]
mod invariant_tests {
    use super::*;
    use hpm_arch::{Architecture, CScalar, ScalarValue};

    /// Deterministic splitmix64 driving the op-sequence sweeps (replaces
    /// the external property-testing RNG).
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Heap blocks never overlap, across varied malloc/free
    /// interleavings, and free space is reused.
    #[test]
    fn allocator_no_overlap() {
        for round in 0..16u64 {
            let mut s = 0xA110C ^ round;
            let n_ops = 1 + (next(&mut s) % 120) as usize;
            let mut space = AddressSpace::new(Architecture::sparc20());
            let int = space.types_mut().int();
            let mut live: Vec<u64> = Vec::new();
            for _ in 0..n_ops {
                let is_alloc = next(&mut s).is_multiple_of(2);
                let n = 1 + next(&mut s) % 63;
                if is_alloc || live.is_empty() {
                    let addr = space.malloc(int, n).unwrap();
                    live.push(addr);
                } else {
                    let idx = (n as usize) % live.len();
                    let addr = live.swap_remove(idx);
                    space.free(addr).unwrap();
                }
            }
            // Verify disjointness of all live blocks.
            let mut spans: Vec<(u64, u64)> = live
                .iter()
                .map(|&a| {
                    let b = space.block_at(a).unwrap();
                    (b.addr, b.size)
                })
                .collect();
            spans.sort();
            for w in spans.windows(2) {
                assert!(w[0].0 + w[0].1 <= w[1].0, "blocks overlap: {w:?}");
            }
        }
    }

    /// The space's one address index and its segment buffers against
    /// references that share none of their code: a brute-force scan
    /// over the live blocks for `resolve`, an ordered map for what
    /// `block_infos`, `block_count` and `block_at` list (a block that
    /// starts where a zero-size block starts replaces it, as the map's
    /// insert does), and a byte model of every live block. Each block
    /// must read as zero when it is created — over bytes a freed block
    /// or a popped frame left behind, or where a zero-size block was —
    /// and is then scribbled with seeded bytes, so a block that is not
    /// cleared, or a write that leaks into a neighbour, shows. Seeded
    /// malloc / free / re-malloc churn with frames and globals on every
    /// preset, over 1–3-byte `char` blocks sharing a 4-byte word,
    /// zero-size `int[0]` globals, and blocks that exactly tile pages or
    /// span them.
    #[test]
    fn one_index_agrees_with_a_reference_scan() {
        use std::collections::BTreeMap;

        #[derive(Default)]
        struct Model {
            /// Start → contents of every live block.
            live: BTreeMap<u64, Vec<u8>>,
            heap: Vec<(u64, hpm_types::TypeId, u64)>,
            frames: Vec<(FrameId, Vec<u64>)>,
            /// Handles of freed heap blocks and popped locals, which
            /// must stay dead.
            dead: Vec<BlockSlot>,
        }

        fn check(space: &AddressSpace, m: &Model) {
            assert_eq!(space.block_count(), m.live.len());
            let listed: Vec<(u64, u64)> = space
                .block_infos()
                .iter()
                .map(|b| (b.addr, b.size))
                .collect();
            let want: Vec<(u64, u64)> = m.live.iter().map(|(&a, v)| (a, v.len() as u64)).collect();
            assert_eq!(listed, want, "block_infos");
            let scan = |x: u64| {
                want.iter()
                    .find(|&&(a, s)| a <= x && x < a + s)
                    .map(|&(a, _)| (a, x - a))
            };
            for (&a, bytes) in &m.live {
                let size = bytes.len() as u64;
                assert_eq!(space.block_at(a).map(|b| b.size), Some(size));
                // Every byte, and the one past the end.
                for x in a..=a + size {
                    let got = space.resolve(x).map(|(slot, _, off)| (slot.addr(), off));
                    assert_eq!(got, scan(x), "resolve({x:#x})");
                }
                let slot = space.info_at(a).unwrap().slot;
                assert_eq!(
                    space.slot_bytes(slot).unwrap(),
                    &bytes[..],
                    "bytes at {a:#x}"
                );
            }
            for &slot in &m.dead {
                assert!(space.slot_bytes(slot).is_err(), "arena slot reused");
            }
        }

        /// A block just created at `a`: it must read as zero; then it is
        /// scribbled from `seed` and enters the model.
        fn born(space: &mut AddressSpace, m: &mut Model, a: u64, size: u64, seed: u64) {
            let slot = space.info_at(a).unwrap().slot;
            assert!(
                space.slot_bytes(slot).unwrap().iter().all(|&b| b == 0),
                "block at {a:#x} born dirty"
            );
            let mut s = seed;
            let data: Vec<u8> = (0..size).map(|_| next(&mut s) as u8).collect();
            space.slot_bytes_mut(slot).unwrap().1.copy_from_slice(&data);
            m.live.insert(a, data);
        }

        for arch in Architecture::presets() {
            for round in 0..3u64 {
                let mut s = 0x1DE7 ^ (round << 8) ^ arch.pointer_size;
                let mut space = AddressSpace::new(arch.clone());
                let t = space.types_mut();
                let (ch, int, dbl) = (t.char_(), t.int(), t.double());
                let empty = t.array_of(int, 0);
                let mut m = Model::default();

                let malloc = |space: &mut AddressSpace, m: &mut Model, ty, count| {
                    let a = space.malloc(ty, count).unwrap();
                    let size = (space.layout_of(ty).unwrap().size * count).max(1);
                    born(space, m, a, size, a ^ count);
                    m.heap.push((a, ty, count));
                };
                let free = |space: &mut AddressSpace, m: &mut Model, pick: u64| {
                    let (a, ty, count) = m.heap.swap_remove(pick as usize % m.heap.len());
                    m.dead.push(space.info_at(a).unwrap().slot);
                    space.free(a).unwrap();
                    m.live.remove(&a);
                    (ty, count)
                };
                let pop = |space: &mut AddressSpace, m: &mut Model| {
                    let (f, locals) = m.frames.pop()?;
                    for &a in &locals {
                        m.dead.push(space.info_at(a).unwrap().slot);
                    }
                    space.pop_frame(f).unwrap();
                    for a in locals {
                        m.live.remove(&a);
                    }
                    Some(())
                };
                // Three blocks tiling three pages from the page-aligned
                // heap base, then one spanning pages off alignment.
                for _ in 0..3 {
                    malloc(&mut space, &mut m, ch, 4096);
                }
                malloc(&mut space, &mut m, ch, 3);
                malloc(&mut space, &mut m, dbl, 600);
                check(&space, &m);

                for op in 1..=240u32 {
                    let r = next(&mut s);
                    match r % 10 {
                        0..=3 => {
                            let (ty, count) = match (r >> 8) % 64 {
                                0 => (ch, 4096 + (r >> 16) % 3000),
                                1 => (dbl, 512),
                                2..=29 => (ch, 1 + (r >> 16) % 3),
                                30..=49 => (int, 1 + (r >> 16) % 40),
                                _ => (dbl, 1 + (r >> 16) % 12),
                            };
                            malloc(&mut space, &mut m, ty, count);
                        }
                        4 | 5 if !m.heap.is_empty() => {
                            free(&mut space, &mut m, r >> 8);
                        }
                        6 if !m.heap.is_empty() => {
                            // Re-malloc the shape just freed: first fit
                            // often hands the same address back.
                            let (ty, count) = free(&mut space, &mut m, r >> 8);
                            malloc(&mut space, &mut m, ty, count);
                        }
                        7 => {
                            // Often over the bytes of a frame just popped.
                            let f = space.push_frame("f");
                            let mut locals = Vec::new();
                            for k in 0..1 + (r >> 8) % 4 {
                                let (ty, count) = match (r >> (16 + 2 * k)) % 3 {
                                    0 => (ch, 1 + (r >> 24) % 3),
                                    1 => (dbl, 1 + (r >> 26) % 4),
                                    _ => (int, 1 + (r >> 28) % 8),
                                };
                                let a = space.define_local(f, "l", ty, count).unwrap();
                                let size = space.layout_of(ty).unwrap().size * count;
                                born(&mut space, &mut m, a, size, r ^ k);
                                locals.push(a);
                            }
                            m.frames.push((f, locals));
                        }
                        8 => {
                            pop(&mut space, &mut m);
                        }
                        _ => {
                            // A zero-size global, and often a global at
                            // its address that replaces it.
                            let z = space.define_global("z", empty, 1).unwrap();
                            m.live.insert(z, Vec::new());
                            let (ty, size) = [(int, 4), (ch, 1)][(r >> 8) as usize % 2];
                            if !(r >> 9).is_multiple_of(3) {
                                let g = space.define_global("g", ty, 1).unwrap();
                                born(&mut space, &mut m, g, size, r);
                            }
                        }
                    }
                    if op % 60 == 0 {
                        check(&space, &m);
                    }
                }
                while pop(&mut space, &mut m).is_some() {}
                check(&space, &m);
            }
        }
    }

    /// Scalar stores round-trip through memory bytes on every preset.
    #[test]
    fn store_load_roundtrip() {
        let mut s = 0x57031u64;
        for _ in 0..24 {
            let v = next(&mut s) as i32;
            let idx = next(&mut s) % 10;
            for arch in Architecture::presets() {
                let mut space = AddressSpace::new(arch);
                let int = space.types_mut().int();
                let addr = space.malloc(int, 10).unwrap();
                let ea = space.elem_addr(addr, idx).unwrap();
                space.store_scalar(ea, ScalarValue::Int(v as i64)).unwrap();
                let got = space.load_scalar(ea).unwrap();
                assert_eq!(got, ScalarValue::Int(v as i64));
            }
        }
    }

    /// Stores are local: writing one element never disturbs others.
    #[test]
    fn store_is_local() {
        let mut s = 0x10CA1u64;
        for _ in 0..16 {
            let len = 8 + (next(&mut s) % 8) as usize;
            let vals: Vec<i16> = (0..len).map(|_| next(&mut s) as i16).collect();
            let target = (next(&mut s) % 8) as usize;
            let mut space = AddressSpace::new(Architecture::dec5000());
            let short = space.types_mut().scalar(CScalar::Short);
            let addr = space.malloc(short, vals.len() as u64).unwrap();
            for (i, v) in vals.iter().enumerate() {
                let ea = space.elem_addr(addr, i as u64).unwrap();
                space.store_scalar(ea, ScalarValue::Int(*v as i64)).unwrap();
            }
            let ea = space.elem_addr(addr, target as u64).unwrap();
            space.store_scalar(ea, ScalarValue::Int(-2)).unwrap();
            for (i, v) in vals.iter().enumerate() {
                let expect = if i == target { -2 } else { *v as i64 };
                let ea = space.elem_addr(addr, i as u64).unwrap();
                assert_eq!(space.load_scalar(ea).unwrap(), ScalarValue::Int(expect));
            }
        }
    }
}
