//! Integration test: migration-image robustness — monolithic and
//! chunk-streamed — and seed-driven round-trips of arbitrary object
//! graphs.

use hpm::arch::Architecture;
use hpm::core::image::{frame_image, unframe_image};
use hpm::core::stream::VecChunks;
use hpm::core::{ChunkPayload, ChunkSource, Collector, CoreError, Msrlt, Restorer};
use hpm::memory::AddressSpace;
use hpm::migrate::{
    resume_from_image, run_to_migration, ExecutionState, Flow, MigCtx, MigError, MigratableProgram,
    MigratedSource, Process, Trigger,
};
use hpm::net::{channel_pair, ArqConfig, NetError, NetworkModel, ReliableChunkReceiver};
use hpm::types::Field;
use hpm::workloads::{BitonicSort, TestPointer};
use hpm::xdr::{
    crc32, frame_chunk, peek_chunk_header, unframe_chunk_any, XdrEncoder, XdrError, CHUNK_MAGIC,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

#[test]
fn truncated_images_are_rejected_not_misread() {
    let mut p = TestPointer::new();
    let mut src =
        run_to_migration(&mut p, Architecture::dec5000(), Trigger::AtPollCount(5)).unwrap();
    let image = src.to_image().unwrap();
    for cut in [1usize, 4, 16, image.len() / 2, image.len() - 4] {
        let mut dst = TestPointer::new();
        let r = resume_from_image(&mut dst, Architecture::sparc20(), &image[..cut]);
        assert!(r.is_err(), "truncation at {cut} must fail loudly");
    }
}

#[test]
fn cross_program_images_are_rejected() {
    let mut p = TestPointer::new();
    let mut src =
        run_to_migration(&mut p, Architecture::dec5000(), Trigger::AtPollCount(5)).unwrap();
    let image = src.to_image().unwrap();
    let mut wrong = BitonicSort::new(100);
    let r = resume_from_image(&mut wrong, Architecture::sparc20(), &image);
    assert!(
        r.is_err(),
        "a bitonic process must refuse a test_pointer image"
    );
}

#[test]
fn corrupted_header_is_rejected() {
    let mut p = TestPointer::new();
    let mut src =
        run_to_migration(&mut p, Architecture::dec5000(), Trigger::AtPollCount(5)).unwrap();
    let mut image = src.to_image().unwrap();
    image[0] ^= 0xFF;
    let mut dst = TestPointer::new();
    assert!(resume_from_image(&mut dst, Architecture::sparc20(), &image).is_err());
}

// ---------------------------------------------------------------------
// Streaming counterparts: the same failures injected into the chunked
// path, where the destination is already restoring when damage shows up.
// ---------------------------------------------------------------------

fn freeze_test_pointer() -> MigratedSource {
    let mut p = TestPointer::new();
    run_to_migration(&mut p, Architecture::dec5000(), Trigger::AtPollCount(8)).unwrap()
}

/// What the migration driver's destination does with an image: parse the
/// prefix, refuse foreign programs, then restore over the payload `first`
/// holds, continued by `more`'s chunks (`None`: the image arrived whole).
fn resume_over<P: MigratableProgram>(
    dst_prog: &mut P,
    arch: Architecture,
    first: &[u8],
    more: Option<Box<dyn ChunkSource + Send + '_>>,
) -> Result<(), MigError> {
    let (header, exec_bytes, payload) = unframe_image(first)?;
    if header.program != dst_prog.name() {
        return Err(MigError::Protocol(format!(
            "image is for program '{}', not '{}'",
            header.program,
            dst_prog.name()
        )));
    }
    let exec = ExecutionState::decode(exec_bytes)?;
    let mut proc = Process::new(dst_prog.name(), arch);
    dst_prog.setup(&mut proc)?;
    let mut ctx = MigCtx::new_resume(&mut proc, exec, ChunkPayload::new(payload, more))?;
    match dst_prog.run(&mut ctx)? {
        Flow::Done => Ok(()),
        Flow::Migrate => Err(MigError::Protocol("resumed program migrated again".into())),
    }
}

/// A chunk arriving truncated mid-stream must fail the restore loudly —
/// not silently restore garbage into live data.
#[test]
fn truncated_chunk_mid_stream_is_rejected() {
    let mut src = freeze_test_pointer();
    let (mut chunks, _) = src.to_chunks(64).unwrap();
    assert!(chunks.len() >= 4, "need several chunks to damage one");
    let prefix = chunks.remove(0);
    // Cut a middle chunk short (keeping 4-byte alignment so the failure
    // is the missing data, not a framing artifact).
    let victim = chunks.len() / 2;
    let cut = (chunks[victim].len() / 2) & !3;
    chunks[victim].truncate(cut);
    chunks.truncate(victim + 1); // nothing after the damage arrives

    let mut dst = TestPointer::new();
    let err = resume_over(
        &mut dst,
        Architecture::sparc20(),
        &prefix,
        Some(Box::new(VecChunks::new(chunks))),
    )
    .unwrap_err();
    match err {
        MigError::Core(m) | MigError::Protocol(m) | MigError::Xdr(m) => {
            assert!(
                m.contains("truncated") || m.contains("ran dry") || m.contains("chunk"),
                "error must say the stream ran short: {m}"
            );
        }
        other => panic!("expected a loud truncation failure, got {other:?}"),
    }
}

/// Adapter: net-layer chunk receiver as a restorer chunk source (what
/// the migration driver uses internally).
struct NetSource<'r> {
    rx: &'r mut ReliableChunkReceiver,
}

impl ChunkSource for NetSource<'_> {
    fn next_chunk(&mut self) -> Result<Option<Vec<u8>>, CoreError> {
        self.rx
            .recv_chunk()
            .map_err(|e| CoreError::Source(e.to_string()))
    }
}

/// Put a TestPointer chunk stream (`frames`, LAST included) on the wire
/// with byte `flip_at` of frame `victim` damaged, and restore over it.
/// The CRC must catch the damage — counted, and the connection ended with
/// an error naming chunk `victim` — before the restorer is handed a byte
/// of it, so the restore fails loudly instead of restoring garbage.
fn assert_crc_catches_damage(frames: &[Vec<u8>], victim: u32, flip_at: usize) {
    let (a, b) = channel_pair(NetworkModel::instant());
    for (i, f) in frames.iter().enumerate() {
        let mut frame = f.clone();
        if i as u32 == victim {
            frame[flip_at] ^= 0x40;
        }
        a.send(frame).unwrap();
    }

    let mut rx = ReliableChunkReceiver::new(b, ArqConfig);
    let prefix = rx.recv_chunk().unwrap().expect("prefix chunk");
    let mut dst = TestPointer::new();
    let err = resume_over(
        &mut dst,
        Architecture::sparc20(),
        &prefix,
        Some(Box::new(NetSource { rx: &mut rx })),
    )
    .expect_err("a damaged chunk must end the restore");
    let named = format!("chunk frame {victim}: frame failed its CRC");
    assert!(err.to_string().contains(&named), "{err}");
    let snap = rx.counters();
    assert_eq!(snap.corrupt_caught, 1, "the CRC must catch the damage");
}

/// A payload corrupted on the wire under a still-valid frame header is
/// caught by the per-chunk CRC mid-restore and named by chunk index —
/// the header-corruption counterpart for the streamed path.
#[test]
fn corrupted_payload_mid_stream_is_caught_by_crc() {
    let mut src = freeze_test_pointer();
    let (chunks, _) = src.to_chunks(64).unwrap();
    assert!(chunks.len() >= 4, "need several chunks to damage one");
    let mut frames: Vec<Vec<u8>> = chunks
        .iter()
        .enumerate()
        .map(|(i, c)| frame_chunk(i as u32, false, c, false).0)
        .collect();
    frames.push(frame_chunk(chunks.len() as u32, true, &[], false).0);
    // A payload byte; the header is left intact.
    let h = peek_chunk_header(&frames[2]).unwrap();
    assert_crc_catches_damage(&frames, 2, h.payload_at + h.payload_len - 2);
}

/// The same wire damage on a *compressed* chunk: the CRC is stamped over
/// the compressed bytes, so corruption is caught by the checksum —
/// named by chunk index — before any decompression is attempted, never
/// surfacing as a garbled token stream.
#[test]
fn corrupted_compressed_chunk_is_caught_by_crc() {
    let mut src = freeze_test_pointer();
    let (chunks, _) = src.to_chunks(64).unwrap();
    assert!(chunks.len() >= 4, "need several chunks to damage one");
    let mut frames: Vec<Vec<u8>> = chunks
        .iter()
        .enumerate()
        .map(|(i, c)| frame_chunk(i as u32, false, c, true).0)
        .collect();
    frames.push(frame_chunk(chunks.len() as u32, true, &[], true).0);
    // Pick a mid-stream chunk the codec actually compressed, so the
    // flipped byte lands inside token data rather than stored payload.
    let victim = frames
        .iter()
        .enumerate()
        .skip(1)
        .find(|(_, f)| unframe_chunk_any(f).unwrap().compressed)
        .map(|(i, _)| i as u32)
        .expect("64-byte image chunks must include a compressible one");
    // The first byte of the compressed payload.
    let at = peek_chunk_header(&frames[victim as usize])
        .unwrap()
        .payload_at;
    assert_crc_catches_damage(&frames, victim, at);
}

/// Three chunk frames are retired: `HPMC` (v1) carried no CRC, and
/// `HPMD` (v2) and `HPME` (v3) carried one over the payload alone, so a
/// damaged header passed it. The framing layer and the receiver refuse
/// each by magic, the receiver naming the chunk being waited for.
#[test]
fn v1_magic_frame_is_refused_by_every_receiver() {
    let payload = [1, 2, 3, 4];
    // Each in its own layout: after seq and flags, nothing (v1), the
    // payload CRC (v2), or raw_len and the payload CRC (v3).
    for (magic, extra) in [
        (0x4850_4D43, vec![]),
        (0x4850_4D44, vec![crc32(&payload)]),
        (0x4850_4D45, vec![4, crc32(&payload)]),
    ] {
        let mut enc = XdrEncoder::new();
        for word in [magic, 1, 0].into_iter().chain(extra) {
            enc.put_u32(word);
        }
        enc.put_opaque_var(&payload);
        let retired = enc.into_bytes();
        assert_eq!(unframe_chunk_any(&retired), Err(XdrError::BadMagic(magic)));

        let (a, b) = channel_pair(NetworkModel::instant());
        a.send(frame_chunk(0, false, &[9, 9, 9, 9], false).0)
            .unwrap();
        a.send(retired).unwrap();
        let mut rx = ReliableChunkReceiver::new(b, ArqConfig);
        assert_eq!(rx.recv_chunk().unwrap(), Some(vec![9, 9, 9, 9]));
        match rx.recv_chunk() {
            Err(NetError::ChunkFraming { chunk, reason }) => {
                assert_eq!(chunk, 1, "the error names the chunk being awaited");
                let named = format!("bad frame magic {magic:#010x}");
                assert!(reason.contains(&named), "{reason}");
            }
            other => panic!("{magic:#x}: expected ChunkFraming, got {other:?}"),
        }
    }
}

/// Program identity travels in chunk 0: a destination running a
/// different program refuses the stream before touching any state.
#[test]
fn cross_program_chunk_stream_is_rejected() {
    let mut src = freeze_test_pointer();
    let (mut chunks, _) = src.to_chunks(64).unwrap();
    let prefix = chunks.remove(0);
    let mut wrong = BitonicSort::new(100);
    let err = resume_over(
        &mut wrong,
        Architecture::sparc20(),
        &prefix,
        Some(Box::new(VecChunks::new(chunks))),
    )
    .unwrap_err();
    match err {
        MigError::Protocol(m) => {
            assert!(
                m.contains("test_pointer") && m.contains(wrong.name()),
                "refusal must name both programs: {m}"
            );
        }
        other => panic!("expected a program-identity refusal, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Seed-driven round-trip of arbitrary object graphs.
//
// A pseudo-random graph of `node { long tag; node *a; node *b; }` blocks with
// arbitrary edges (including cycles, sharing, and NULLs) is built on a
// random source architecture, collected from a root pointer, restored on
// a random destination architecture, and compared up to isomorphism by
// parallel traversal.
// ---------------------------------------------------------------------

fn build_space(
    arch: Architecture,
    tags: &[i64],
    edges: &[(usize, usize, bool)],
) -> (AddressSpace, Msrlt, u64, Vec<u64>) {
    let mut space = AddressSpace::new(arch);
    let node = space.types_mut().declare_struct("gnode");
    let pn = space.types_mut().pointer_to(node);
    let long = space.types_mut().scalar(hpm::arch::CScalar::Long);
    space
        .types_mut()
        .define_struct(
            node,
            vec![
                Field::new("tag", long),
                Field::new("a", pn),
                Field::new("b", pn),
            ],
        )
        .unwrap();
    let root = space.define_global("groot", pn, 1).unwrap();
    let mut msrlt = Msrlt::new();
    for info in space.block_infos() {
        msrlt.register(&info);
    }
    let mut nodes = Vec::new();
    for &tag in tags {
        let n = space.malloc(node, 1).unwrap();
        msrlt.register(&space.info_at(n).unwrap());
        let t = space.elem_addr(n, 0).unwrap();
        space.store_int(t, tag).unwrap();
        nodes.push(n);
    }
    for &(from, to, which_b) in edges {
        let slot = space
            .elem_addr(nodes[from], if which_b { 2 } else { 1 })
            .unwrap();
        space.store_ptr(slot, nodes[to]).unwrap();
    }
    if !nodes.is_empty() {
        space.store_ptr(root, nodes[0]).unwrap();
    }
    (space, msrlt, root, nodes)
}

/// Canonical serialization of the graph reachable from `root`: DFS with
/// first-visit numbering — isomorphic graphs produce identical strings.
fn canon(space: &mut AddressSpace, root_ptr_block: u64) -> String {
    let mut out = String::new();
    let mut ids: std::collections::HashMap<u64, usize> = Default::default();
    let root = space.load_ptr(root_ptr_block).unwrap();
    let mut stack = vec![root];
    // Pre-order with explicit numbering.
    fn visit(
        space: &mut AddressSpace,
        addr: u64,
        ids: &mut std::collections::HashMap<u64, usize>,
        out: &mut String,
    ) {
        if addr == 0 {
            out.push_str("_,");
            return;
        }
        if let Some(&n) = ids.get(&addr) {
            out.push_str(&format!("@{n},"));
            return;
        }
        let n = ids.len();
        ids.insert(addr, n);
        let t = space.elem_addr(addr, 0).unwrap();
        let tag = space.load_int(t).unwrap();
        out.push_str(&format!("#{n}:{tag}("));
        let a_slot = space.elem_addr(addr, 1).unwrap();
        let a = space.load_ptr(a_slot).unwrap();
        visit(space, a, ids, out);
        let b_slot = space.elem_addr(addr, 2).unwrap();
        let b = space.load_ptr(b_slot).unwrap();
        visit(space, b, ids, out);
        out.push_str("),");
    }
    let r = stack.pop().unwrap();
    visit(space, r, &mut ids, &mut out);
    out
}

/// Deterministic splitmix64 driving the graph sweeps (replaces the
/// external property-testing RNG).
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

#[test]
fn arbitrary_graphs_roundtrip() {
    let archs = Architecture::presets();
    let mut s = 0x6ea4_0001u64;
    for case in 0..48 {
        // Tags fit an i32: `long` narrows to 4 bytes on the ILP32
        // presets, so — exactly like real C source-level migration —
        // values wider than the destination's `long` are truncated
        // (covered by `long_width_conversion_sound` below).
        let n = 1 + (next(&mut s) % 23) as usize;
        let tags: Vec<i64> = (0..n).map(|_| next(&mut s) as i32 as i64).collect();
        let n_edges = (next(&mut s) % 48) as usize;
        let edges: Vec<(usize, usize, bool)> = (0..n_edges)
            .map(|_| {
                (
                    next(&mut s) as usize % n,
                    next(&mut s) as usize % n,
                    next(&mut s).is_multiple_of(2),
                )
            })
            .collect();
        let src_pick = (next(&mut s) % 4) as usize;
        let dst_pick = (next(&mut s) % 4) as usize;

        let (mut src, mut src_lt, root, _) = build_space(archs[src_pick].clone(), &tags, &edges);
        let expected = canon(&mut src, root);

        let mut collector = Collector::new(&mut src, &mut src_lt);
        collector.save_variable(root).unwrap();
        let (payload, _) = collector.finish().unwrap();

        let (mut dst, mut dst_lt, droot, _) = build_space(archs[dst_pick].clone(), &[], &[]);
        let mut restorer = Restorer::new(&mut dst, &mut dst_lt, &payload);
        restorer.restore_variable(droot).unwrap();
        restorer.finish().unwrap();

        let got = canon(&mut dst, droot);
        assert_eq!(
            got, expected,
            "case {case}: graph must restore isomorphically"
        );
    }
}

/// Long values (which travel as 8-byte hypers) survive ILP32 → LP64
/// and back without sign damage when they fit the source width.
#[test]
fn long_width_conversion_sound() {
    let mut s = 0x6ea4_0002u64;
    let mut cases: Vec<i32> = vec![0, 1, -1, i32::MIN, i32::MAX];
    cases.extend((0..32).map(|_| next(&mut s) as i32));
    for v in cases {
        let (mut src, mut src_lt, root, nodes) =
            build_space(Architecture::dec5000(), &[v as i64], &[]);
        let _ = root;
        let t = src.elem_addr(nodes[0], 0).unwrap();
        src.store_int(t, v as i64).unwrap();
        let mut c = Collector::new(&mut src, &mut src_lt);
        c.save_variable(root).unwrap();
        let (payload, _) = c.finish().unwrap();

        let (mut dst, mut dst_lt, droot, _) = build_space(Architecture::x86_64_sim(), &[], &[]);
        let mut r = Restorer::new(&mut dst, &mut dst_lt, &payload);
        r.restore_variable(droot).unwrap();
        r.finish().unwrap();
        let dn = dst.load_ptr(droot).unwrap();
        let dt = dst.elem_addr(dn, 0).unwrap();
        assert_eq!(dst.load_int(dt).unwrap(), v as i64);
    }
}

// ---------------------------------------------------------------------
// Hostile element counts and truncation inside a translation-kernel run.
// ---------------------------------------------------------------------

// Hostile records are built here by hand, bit for bit from the grammar
// at the top of `hpm::core::collect` — not through the collector's own
// encoder, which refuses to write most of them.
const TAG_VAR_NEW: u32 = 1;
const TAG_VAR_VISITED: u32 = 2;
const TAG_PTR_NULL: u32 = 3;
const TAG_PTR_REF: u32 = 4;
const TAG_PTR_NEW: u32 = 5;
const TYPEDEF: u32 = 1 << 28;
const ORD: u32 = 1 << 27;
const ORD64: u32 = 1 << 26;
const COUNT: u32 = 1 << 25;
/// On `PTR_NEW` / `PTR_REF`: the low 24 bits are a heap index and no
/// index word follows.
const HEAP: u32 = 1 << 24;
const GROUP_HEAP: u32 = 1;

/// First word of a record: `low` is the group, or the heap index under
/// [`HEAP`].
fn word0(tag: u32, flags: u32, low: u32) -> u32 {
    tag << 29 | flags | low
}

/// A `u64` field as its two XDR units.
fn hyper(v: u64) -> [u32; 2] {
    [(v >> 32) as u32, v as u32]
}

fn units(words: &[u32]) -> Vec<u8> {
    words.iter().flat_map(|w| w.to_be_bytes()).collect()
}

/// The two ways a payload reaches a restorer: whole, as the head of a
/// complete stream, or behind an empty head in `chunking`-byte chunks
/// still to be pulled.
fn restore_both_ways(
    payload: &[u8],
    chunking: usize,
    make_dst: impl Fn() -> (AddressSpace, Msrlt),
    mut check: impl FnMut(&str, &AddressSpace, Result<(), CoreError>, u64),
    restore: impl Fn(&mut Restorer<'_, '_>) -> Result<(), CoreError>,
) {
    for way in ["whole", "chunked"] {
        let (mut dst, mut lt) = make_dst();
        let mut r = match way {
            "whole" => Restorer::new(&mut dst, &mut lt, payload),
            _ => {
                let chunks = payload.chunks(chunking).map(<[u8]>::to_vec).collect();
                let input = ChunkPayload::new(&[], Some(Box::new(VecChunks::new(chunks))));
                Restorer::over(&mut dst, &mut lt, input)
            }
        };
        let got = restore(&mut r);
        let restored = r.into_input().0.blocks_restored;
        check(way, &dst, got, restored);
    }
}

/// A `PTR_NEW` whose element count is hostile must be refused with a
/// typed error naming the block, before anything is allocated for it:
/// 2^61 doubles wrap the byte size to zero, `u64::MAX` overflows a
/// capacity, 2^40 and 2^31 ask for terabytes and gigabytes a few dozen
/// payload bytes cannot contain.
#[test]
fn hostile_block_counts_are_refused_before_allocation() {
    for arch in Architecture::presets() {
        for count in [1u64 << 31, 1 << 40, 1 << 61, u64::MAX] {
            for tail in [0usize, 256] {
                let make_dst = || {
                    let mut space = AddressSpace::new(arch.clone());
                    space.types_mut().double();
                    (space, Msrlt::new())
                };
                let (mut probe, _) = make_dst();
                let double = probe.types_mut().double();
                let [fp_hi, fp_lo] = hyper(hpm::core::type_fingerprint(probe.types(), double));
                let [count_hi, count_lo] = hyper(count);
                let mut payload = units(&[
                    word0(TAG_PTR_NEW, TYPEDEF | COUNT | HEAP, 7),
                    0, // type number, defined here
                    fp_hi,
                    fp_lo,
                    count_hi,
                    count_lo,
                ]);
                // Some honest-looking data behind the header changes
                // nothing: it is still nowhere near `count` doubles.
                payload.resize(payload.len() + tail, 0);

                restore_both_ways(
                    &payload,
                    16,
                    make_dst,
                    |way, dst, got, restored| {
                        let what = format!("{} {way} count {count:#x} tail {tail}", arch.name);
                        match got {
                            Err(CoreError::BlockExceedsPayload { id, count: c, .. }) => {
                                assert_eq!((id.group, id.index, c), (1, 7, count), "{what}");
                            }
                            other => panic!("{what}: expected BlockExceedsPayload, got {other:?}"),
                        }
                        let stats = dst.stats();
                        assert_eq!(
                            (stats.mallocs, stats.heap_bytes_allocated, restored),
                            (0, 0, 0),
                            "{what}: nothing may be allocated for a refused block"
                        );
                    },
                    |r| r.restore_pointer().map(|_| ()),
                );
            }
        }
    }
}

/// The execution state carries the two words a destination sizes tables
/// from before it has read a record: the frame count and the source's
/// heap-id high-water mark. Four bytes of either, changed in an honest
/// image, must come back from `resume_from_image` — the call every
/// transport's destination makes — as a typed error: the frame count
/// refused before anything is reserved for it, the heap reservation
/// refused when the allocator will not grant the table, neither an abort.
#[test]
fn hostile_exec_state_words_are_refused_not_aborted() {
    let image = freeze_test_pointer().to_image().unwrap();
    let exec_at = {
        let (_, exec, _) = unframe_image(&image).unwrap();
        exec.as_ptr() as usize - image.as_ptr() as usize
    };
    let resume = |word_at: usize, word: u32| {
        let mut hostile = image.clone();
        hostile[word_at..word_at + 4].copy_from_slice(&word.to_be_bytes());
        largest_request_during(|| {
            resume_from_image(&mut TestPointer::new(), Architecture::sparc20(), &hostile)
                .map(|_| ())
        })
    };

    for count in [u32::MAX, 1 << 31, 1 << 20, image.len() as u32 / 12] {
        match resume(exec_at + 4, count) {
            (Err(MigError::Protocol(m)), largest) => {
                assert!(m.contains(&format!("announces {count} frames")), "{m}");
                assert!(
                    largest <= allocation_bound(image.len()),
                    "count {count:#x}: one request of {largest} bytes for a {}-byte image",
                    image.len()
                );
            }
            (other, _) => panic!("count {count:#x}: expected a protocol refusal, got {other:?}"),
        }
    }

    // A table the allocator grants is filled, an entry per claimed id
    // (the dense heap table, ROADMAP 2(c)); these are sizes it does not.
    for high_water in [u32::MAX, 1 << 31] {
        match resume(exec_at, high_water) {
            (Err(MigError::Core(m)), _) => {
                assert!(
                    m.contains(&format!("cannot reserve {high_water} heap ids")),
                    "{m}"
                );
            }
            (other, _) => panic!("high water {high_water:#x}: expected a refusal, got {other:?}"),
        }
    }
}

/// The header's `registered_bytes` only presizes the destination's heap,
/// and it is the sender's word: an honest image whose header claims
/// `u64::MAX` bytes restores as the honest one does, reserving no more
/// than its payload can fill — not the destination's whole heap segment,
/// which on an LP64 machine is past what the allocator grants.
#[test]
fn a_hostile_registered_bytes_reserves_what_the_payload_can_fill() {
    let image = freeze_test_pointer().to_image().unwrap();
    let (mut header, exec, payload) = unframe_image(&image).unwrap();
    header.registered_bytes = u64::MAX;
    let hostile = frame_image(&header, exec, payload);
    for arch in [Architecture::sparc20(), Architecture::x86_64_sim()] {
        let (honest, _) = largest_request_during(|| {
            resume_from_image(&mut TestPointer::new(), arch.clone(), &image).map(|r| r.0)
        });
        let (claimed, largest) = largest_request_during(|| {
            resume_from_image(&mut TestPointer::new(), arch.clone(), &hostile).map(|r| r.0)
        });
        assert_eq!(claimed.unwrap(), honest.unwrap(), "{}", arch.name);
        assert!(
            largest <= allocation_bound(hostile.len()),
            "{}: one request of {largest} bytes for a {}-byte image",
            arch.name,
            hostile.len()
        );
    }
}

/// Every field the compact record grammar added, set to something no
/// collector writes: each is refused with the `CoreError` that names it,
/// from a whole payload and from pulled chunks alike, and nothing is
/// allocated or restored on the way. (Hostile *counts*, the product
/// `count × min_wire_bytes` overflowing included, are the test above.)
#[test]
fn hostile_record_fields_are_named_refusals_that_allocate_nothing() {
    let make_dst = || {
        let mut space = AddressSpace::new(Architecture::sparc20());
        let double = space.types_mut().double();
        let g = space.define_global("g", double, 1).unwrap();
        let mut lt = Msrlt::new();
        lt.register(&space.info_at(g).unwrap());
        (space, lt)
    };
    let (mut probe, _) = make_dst();
    let g = probe.block_infos()[0].addr;
    let double = probe.types_mut().double();
    let [fp_hi, fp_lo] = hyper(hpm::core::type_fingerprint(probe.types(), double));
    let bad_header = |tag, flags, low| {
        let w = word0(tag, flags, low);
        (vec![w, 7, 0, 0, 0, 0, 0], CoreError::BadRecordHeader(w))
    };
    let id = hpm::core::LogicalId {
        group: GROUP_HEAP,
        index: 7,
    };
    let undefined = |type_no| CoreError::UndefinedType {
        id,
        type_no,
        defined: 0,
    };

    // Through `restore_pointer`.
    let pointer_cases: Vec<(&str, Vec<u32>, CoreError)> = vec![
        (
            "type number never defined",
            vec![word0(TAG_PTR_NEW, HEAP, 7), 0],
            undefined(0),
        ),
        (
            "huge type number, referenced",
            vec![word0(TAG_PTR_NEW, HEAP, 7), u32::MAX],
            undefined(u32::MAX),
        ),
        (
            "huge type number, defined out of turn with a known fingerprint",
            vec![
                word0(TAG_PTR_NEW, TYPEDEF | HEAP, 7),
                u32::MAX,
                fp_hi,
                fp_lo,
            ],
            undefined(u32::MAX),
        ),
        (
            "TYPEDEF skipping number 0",
            vec![word0(TAG_PTR_NEW, TYPEDEF | HEAP, 7), 1, fp_hi, fp_lo],
            undefined(1),
        ),
        (
            "TYPEDEF with a fingerprint the receiver does not know",
            vec![
                word0(TAG_PTR_NEW, TYPEDEF | HEAP, 7),
                0,
                0xDEAD_BEEF,
                0x0BAD_F00D,
            ],
            CoreError::TypeMismatch {
                id,
                expected: 0xDEAD_BEEF_0BAD_F00D,
                found: 0,
            },
        ),
        (
            "PTR_REF to a block not yet seen",
            vec![word0(TAG_PTR_REF, HEAP, 7)],
            CoreError::UnknownId(id),
        ),
        (
            "PTR_NEW naming a small heap index in the long form",
            vec![word0(TAG_PTR_NEW, TYPEDEF, GROUP_HEAP), 7, 0, fp_hi, fp_lo],
            CoreError::LongHeapId(id),
        ),
        (
            "PTR_REF naming a small heap index in the long form",
            vec![word0(TAG_PTR_REF, 0, GROUP_HEAP), 7],
            CoreError::LongHeapId(id),
        ),
        (
            "the largest short heap index, in the long form",
            vec![word0(TAG_PTR_REF, 0, GROUP_HEAP), 0xFF_FFFF],
            CoreError::LongHeapId(hpm::core::LogicalId {
                group: GROUP_HEAP,
                index: 0xFF_FFFF,
            }),
        ),
        (
            "PTR_NEW of an unseen block outside the heap group",
            vec![word0(TAG_PTR_NEW, TYPEDEF, 0x00AB_CDEF), 7, 0, fp_hi, fp_lo],
            CoreError::UnknownId(hpm::core::LogicalId {
                group: 0x00AB_CDEF,
                index: 7,
            }),
        ),
        ("tag 0", vec![7], CoreError::BadTag(0)),
        ("tag 6", vec![word0(6, HEAP, 7)], CoreError::BadTag(6)),
        ("tag 7", vec![u32::MAX], CoreError::BadTag(7)),
        (
            "a variable item where a pointer belongs",
            vec![word0(TAG_VAR_VISITED, 0, 0), 0],
            CoreError::BadTag(TAG_VAR_VISITED),
        ),
    ]
    .into_iter()
    .chain(
        [
            (
                "ORD64 without ORD on a HEAP PTR_NEW",
                bad_header(TAG_PTR_NEW, HEAP | ORD64, 7),
            ),
            (
                "TYPEDEF on a HEAP PTR_REF",
                bad_header(TAG_PTR_REF, HEAP | TYPEDEF, 7),
            ),
            (
                "COUNT on a HEAP PTR_REF",
                bad_header(TAG_PTR_REF, HEAP | COUNT, 7),
            ),
            (
                "ORD64 without ORD",
                bad_header(TAG_PTR_NEW, ORD64, GROUP_HEAP),
            ),
            (
                "TYPEDEF on PTR_REF",
                bad_header(TAG_PTR_REF, TYPEDEF, GROUP_HEAP),
            ),
            (
                "COUNT on PTR_REF",
                bad_header(TAG_PTR_REF, COUNT, GROUP_HEAP),
            ),
            ("ORD on PTR_NULL", bad_header(TAG_PTR_NULL, ORD, 0)),
            ("TYPEDEF on PTR_NULL", bad_header(TAG_PTR_NULL, TYPEDEF, 0)),
            ("HEAP on PTR_NULL", bad_header(TAG_PTR_NULL, HEAP, 0)),
            (
                "a group on PTR_NULL",
                bad_header(TAG_PTR_NULL, 0, GROUP_HEAP),
            ),
        ]
        .map(|(what, (words, err))| (what, words, err)),
    )
    .collect();

    // Through `restore_variable(g)`.
    let variable_cases: Vec<(&str, Vec<u32>, CoreError)> = vec![
        (
            "VAR_NEW naming a type never defined",
            vec![word0(TAG_VAR_NEW, 0, 0), 0, 3],
            CoreError::UndefinedType {
                id: hpm::core::LogicalId { group: 0, index: 0 },
                type_no: 3,
                defined: 0,
            },
        ),
        (
            "a pointer item where a variable belongs",
            vec![word0(TAG_PTR_NULL, 0, 0)],
            CoreError::BadTag(TAG_PTR_NULL),
        ),
    ]
    .into_iter()
    .chain(
        [
            ("ORD on VAR_NEW", bad_header(TAG_VAR_NEW, ORD, 0)),
            (
                "ORD on VAR_NEW, wide",
                bad_header(TAG_VAR_NEW, ORD | ORD64, 0),
            ),
            ("HEAP on VAR_NEW", bad_header(TAG_VAR_NEW, HEAP, 7)),
            ("HEAP on VAR_VISITED", bad_header(TAG_VAR_VISITED, HEAP, 7)),
            (
                "COUNT on VAR_VISITED",
                bad_header(TAG_VAR_VISITED, COUNT, 0),
            ),
            (
                "TYPEDEF on VAR_VISITED",
                bad_header(TAG_VAR_VISITED, TYPEDEF, 0),
            ),
            ("ORD on VAR_VISITED", bad_header(TAG_VAR_VISITED, ORD, 0)),
        ]
        .map(|(what, (words, err))| (what, words, err)),
    )
    .collect();

    let run = |cases: Vec<(&str, Vec<u32>, CoreError)>, through_variable: bool| {
        for (what, words, want) in cases {
            // Plausible bytes behind the record change nothing.
            let mut payload = units(&words);
            payload.resize(payload.len() + 64, 0);
            restore_both_ways(
                &payload,
                8,
                make_dst,
                |way, dst, got, restored| {
                    assert_eq!(got, Err(want.clone()), "{what} ({way})");
                    let stats = dst.stats();
                    assert_eq!(
                        (stats.mallocs, stats.heap_bytes_allocated, restored),
                        (0, 0, 0),
                        "{what} ({way}): a refused record allocates and restores nothing"
                    );
                },
                |r| {
                    if through_variable {
                        r.restore_variable(g)
                    } else {
                        r.restore_pointer().map(|_| ())
                    }
                },
            );
        }
    };
    run(pointer_cases, false);
    run(variable_cases, true);

    // A heap index far past anything held here or nameable by the bytes
    // that arrived (found by the mutation sweep below, seed 0x6ea4_0003:
    // the id table was grown to reach the index — 61 GB asked of the
    // allocator): the largest index the first word holds, and one only
    // the long form can name. How many bytes had arrived depends on the
    // way in.
    for (index, head) in [
        (
            0xFF_FFFF,
            vec![word0(TAG_PTR_NEW, TYPEDEF | HEAP, 0xFF_FFFF)],
        ),
        (
            0x4000_0000,
            vec![word0(TAG_PTR_NEW, TYPEDEF, GROUP_HEAP), 0x4000_0000],
        ),
    ] {
        let mut payload = units(&[head, vec![0, fp_hi, fp_lo]].concat());
        payload.resize(payload.len() + 64, 0);
        let ((), largest) = largest_request_during(|| {
            restore_both_ways(
                &payload,
                8,
                make_dst,
                |way, dst, got, restored| {
                    assert!(
                        matches!(
                            got,
                            Err(CoreError::HeapIdOutOfReach { id, heap_len: 0, received })
                                if id.index == index && received <= payload.len() as u64
                        ),
                        "{index:#x} {way}: {got:?}"
                    );
                    assert_eq!((dst.stats().mallocs, restored), (0, 0), "{way}");
                },
                |r| r.restore_pointer().map(|_| ()),
            )
        });
        assert!(
            largest <= allocation_bound(payload.len()),
            "{index:#x}: {largest}"
        );
    }
}

/// A delta frame's `raw_len` is a claim, and a correct CRC does not make
/// it true: the receiver must answer an absurd one with a typed refusal,
/// having sized no allocation from it.
#[test]
fn hostile_delta_raw_len_is_refused_before_allocation() {
    use hpm::core::{apply_delta, collect_delta, BaseImageManifest, RetainedBase};
    use hpm::xdr::{decompress_with_dict, frame_delta, image_id, DeltaHeader, XdrError};

    let base: Vec<u8> = (0..20_000u32)
        .flat_map(|i| (i % 251).to_be_bytes())
        .collect();
    let mut current = base.clone();
    current[777] ^= 0xFF;
    let manifest = BaseImageManifest::new(image_id(&base), Vec::new());
    let (delta, _) = collect_delta(&manifest, &base, Vec::new(), &current, 1);
    let retained = RetainedBase {
        image_id: image_id(&base),
        manifest_digest: manifest.manifest_digest(),
        image: base.clone(),
    };
    let (_, applied) = apply_delta(Some(&retained), &delta.to_frame()).expect("honest frame");
    assert_eq!(applied.image, current);

    for raw_len in [1u64 << 40, 1 << 63, u64::MAX] {
        for full_fallback in [false, true] {
            let header = DeltaHeader {
                raw_len,
                full_fallback,
                ..delta.header
            };
            // `frame_delta` stamps a CRC that is correct for the lie.
            let frame = frame_delta(&header, &delta.ops);
            match apply_delta(Some(&retained), &frame) {
                Err(CoreError::Xdr(XdrError::UnexpectedEof { .. })) if !full_fallback => {}
                Err(CoreError::DeltaBaseMismatch {
                    field: "raw_len",
                    expected,
                    ..
                }) if expected == raw_len => {}
                other => panic!("raw_len {raw_len:#x} full {full_fallback}: got {other:?}"),
            }
        }
        let Ok(raw_len) = usize::try_from(raw_len) else {
            continue;
        };
        assert!(matches!(
            decompress_with_dict(&base, &delta.ops, raw_len),
            Err(XdrError::UnexpectedEof { .. })
        ));
    }
}

/// The largest single request the allocator has served in this process:
/// what "before allocation" is checked against where the refused size
/// would otherwise be granted lazily and never touched.
struct LargestRequest;

static LARGEST_REQUEST: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The same, for the calling thread alone: tests run on parallel
    /// threads, and a per-input bound needs its own thread's requests
    /// only. Const-initialised and without a destructor, so reading it
    /// inside the allocator allocates nothing.
    static THREAD_LARGEST: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

fn note_request(size: usize) {
    LARGEST_REQUEST.fetch_max(size, Ordering::Relaxed);
    let _ = THREAD_LARGEST.try_with(|c| c.set(c.get().max(size)));
}

/// The largest request this thread makes while `f` runs.
fn largest_request_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    THREAD_LARGEST.with(|c| c.set(0));
    let out = f();
    (out, THREAD_LARGEST.with(|c| c.get()))
}

/// Requests above this are answered as an exhausted allocator answers
/// them, with null: no honest input here asks for a thousandth of it, and
/// a host that overcommits would otherwise grant a hostile size lazily
/// and let the fill that follows take the machine down.
const REFUSE_ABOVE: usize = 1 << 34;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract, or answered with the null the contract
// allows for failure; the counters touch no allocator state.
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_request(layout.size());
        if layout.size() > REFUSE_ABOVE {
            return std::ptr::null_mut();
        }
        // SAFETY: the caller's obligations are `System::alloc`'s own.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_request(layout.size());
        if layout.size() > REFUSE_ABOVE {
            return std::ptr::null_mut();
        }
        // SAFETY: as above, for `System::alloc_zeroed`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_request(new_size);
        if new_size > REFUSE_ABOVE {
            return std::ptr::null_mut();
        }
        // SAFETY: as above, for `System::realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above, for `System::dealloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: LargestRequest = LargestRequest;

/// Chunk 0 as its author chose to write it: `flags`, `raw_len` and the
/// wire payload as given, under a CRC that matches them — a CRC is over
/// bytes its author wrote, so a hostile author stamps a matching one.
fn forged_chunk(flags: u32, raw_len: u32, wire: &[u8]) -> Vec<u8> {
    let mut enc = XdrEncoder::new();
    for word in [CHUNK_MAGIC, 0, flags, raw_len] {
        enc.put_u32(word);
    }
    enc.put_opaque_var(wire);
    let crc = crc32(enc.as_bytes());
    enc.put_u32(crc);
    enc.into_bytes()
}

/// The receiver's verdict on a stream whose first frame is `frame`: the
/// `ChunkFraming` reason naming chunk 0.
fn refusal_of_chunk_0(frame: Vec<u8>) -> String {
    let (a, b) = channel_pair(NetworkModel::instant());
    a.send(frame).unwrap();
    match ReliableChunkReceiver::new(b, ArqConfig).recv_chunk() {
        Err(NetError::ChunkFraming { chunk: 0, reason }) => reason,
        other => panic!("expected ChunkFraming for chunk 0, got {other:?}"),
    }
}

/// A compressed frame's `raw_len` is a claim, and a correct CRC does not
/// make it true: a frame of a few dozen bytes that declares gigabytes is
/// answered with a typed refusal naming the chunk, by the framing layer
/// and by the receiver, and nothing is sized from the claim on the way —
/// not a reserve ahead of the tokens, not a run expanded under a mode
/// byte that was never valid.
#[test]
fn hostile_chunk_raw_len_is_refused_before_allocation() {
    use hpm::xdr::CHUNK_FLAG_COMPRESSED;
    for raw_len in [1u32 << 31, u32::MAX] {
        // An honest four-literal stream under the lie, and a run of
        // `raw_len` zeros (tag 1, LEB128 length, byte) under a mode byte
        // no encoder writes.
        let short = vec![0x00, 0x00, 4, b'h', b'p', b'm', b'!'];
        let mut run = vec![0x7E, 0x01];
        hpm::xdr::put_varint_u64(&mut run, raw_len as u64);
        run.push(0);
        for (wire, what) in [(short, "short stream"), (run, "bad mode")] {
            let what = format!("raw_len {raw_len:#x}, {what}");
            let hostile = forged_chunk(CHUNK_FLAG_COMPRESSED, raw_len, &wire);
            assert!(hostile.len() <= 36, "{what}: {} bytes", hostile.len());
            let parsed = unframe_chunk_any(&hostile).expect("the frame itself is well-formed");
            assert!(parsed.verify_crc().is_ok(), "{what}");
            assert_eq!(parsed.raw_len, raw_len, "{what}");
            match parsed.into_payload() {
                Err(XdrError::UnexpectedEof { .. } | XdrError::BadMagic(0x7E)) => {}
                other => panic!("{what}: expected a typed refusal, got {other:?}"),
            }
            let reason = refusal_of_chunk_0(hostile);
            assert!(reason.contains("failed to expand"), "{what}: {reason}");
        }
    }
    let largest = LARGEST_REQUEST.load(Ordering::Relaxed);
    assert!(
        largest < 1 << 30,
        "an allocation of {largest} bytes was sized from a hostile length"
    );
}

/// A stored frame's `raw_len` is its payload's length: behind a matching
/// CRC, one that claims any other size is a typed refusal by the framing
/// layer and by the receiver, never a chunk of the wrong size handed on.
#[test]
fn stored_chunk_raw_len_mismatch_is_refused() {
    let wire = [1u8, 2, 3, 4, 5, 6, 7, 8];
    for raw_len in [0, 7, 9, u32::MAX] {
        let forged = forged_chunk(0, raw_len, &wire);
        let parsed = unframe_chunk_any(&forged).expect("the frame itself is well-formed");
        assert!(parsed.verify_crc().is_ok(), "raw_len {raw_len}");
        assert_eq!(
            parsed.into_payload(),
            Err(XdrError::LengthTooLarge(raw_len))
        );
        let reason = refusal_of_chunk_0(forged);
        assert!(reason.contains("failed to expand"), "{raw_len}: {reason}");
    }
}

/// `struct inner { int i; char c; }` nested in
/// `struct padded { struct inner a; char d; }`: `c` and `d` are one run of
/// two chars four bytes apart — a strided run — on every preset.
fn padded_type(space: &mut AddressSpace) -> hpm::types::TypeId {
    let (int, ch) = (space.types_mut().int(), space.types_mut().char_());
    let inner = space
        .types_mut()
        .struct_type("inner", vec![Field::new("i", int), Field::new("c", ch)])
        .unwrap();
    space
        .types_mut()
        .struct_type("padded", vec![Field::new("a", inner), Field::new("d", ch)])
        .unwrap()
}

/// A payload cut in the middle of a run the kernel decodes in one piece
/// — a dense little-endian `double` block, and a strided `char` run —
/// fails with the payload's truncation error naming the chunk it ran dry
/// in, and the block it was filling is not counted as restored.
#[test]
fn truncation_inside_a_kernel_run_is_reported_not_restored() {
    const ELEMS: u64 = 100;
    // Payload layout: a first-sight VAR_NEW with a count — word0, index,
    // type (4 each), fingerprint, count (8 each) — then contents.
    const HEADER: usize = 28;
    type Build = fn(&mut AddressSpace) -> hpm::types::TypeId;
    let cases: [(&str, Build, usize); 2] = [
        // Mid-scalar inside the one dense run.
        ("dense", |s| s.types_mut().double(), HEADER + 8 * 40 + 4),
        // Element 30: its int, then one of the strided run's two chars.
        ("strided", padded_type, HEADER + 12 * 30 + 4 + 4),
    ];
    for (name, build, cut) in cases {
        let program = |arch: Architecture| {
            let mut space = AddressSpace::new(arch);
            let ty = build(&mut space);
            let g = space.define_global("g", ty, ELEMS).unwrap();
            let mut lt = Msrlt::new();
            lt.register(&space.info_at(g).unwrap());
            (space, lt, g, ty)
        };
        let (mut src, mut src_lt, g, ty) = program(Architecture::sparc20());
        if name == "strided" {
            let plan = src.plan_for(ty).unwrap();
            assert!(
                plan.ops.iter().any(|op| matches!(
                    op,
                    hpm::types::plan::PlanOp::ScalarRun {
                        count: 2,
                        stride: 4,
                        ..
                    }
                )),
                "{:?}",
                plan.ops
            );
        }
        let mut c = Collector::new(&mut src, &mut src_lt);
        c.save_variable(g).unwrap();
        let (payload, _) = c.finish().unwrap();
        assert!(cut < payload.len());

        // A little-endian destination: neither run is a plain copy there.
        let (.., dst_g, _) = program(Architecture::x86_64_sim());
        let chunking = 64;
        restore_both_ways(
            &payload[..cut],
            chunking,
            || {
                let (space, lt, ..) = program(Architecture::x86_64_sim());
                (space, lt)
            },
            |way, _, got, restored| {
                // A whole payload is chunk 0; pulled chunks follow an
                // empty one.
                let ran_dry_in = match way {
                    "whole" => 0,
                    _ => cut.div_ceil(chunking) as u64,
                };
                match got {
                    Err(CoreError::TruncatedChunk { chunk, .. }) => {
                        assert_eq!(chunk, ran_dry_in, "{name} {way}");
                    }
                    other => panic!("{name} {way}: wrong truncation error {other:?}"),
                }
                assert_eq!(
                    restored, 0,
                    "{name} {way}: a half-filled block is not restored"
                );
            },
            |r| r.restore_variable(dst_g),
        );
    }
}

// ---------------------------------------------------------------------
// Seeded byte mutation of the record stream: whatever a mutation does to
// the records, each way of reading them either restores or refuses with
// a typed error — no panic, no hang, no allocation out of proportion to
// the bytes received.
// ---------------------------------------------------------------------

/// One seeded mutation of a record stream. Most keep it whole XDR units
/// (the framing below the records guarantees that much); bit and byte
/// damage lands anywhere, word damage favours what headers are made of.
fn mutate(stream: &[u8], s: &mut u64) -> Vec<u8> {
    const WORDS: [u32; 8] = [
        0,
        1,
        0x00FF_FFFF,
        0x7FFF_FFFF,
        0x8000_0000,
        0xFFFF_FFFF,
        5 << 29 | 1 << 28 | 1 << 25 | 1 << 24 | 1, // PTR_NEW | TYPEDEF | COUNT | HEAP, index 1
        4 << 29 | 1 << 27 | 1 << 26 | 1 << 24 | 1, // PTR_REF | ORD | ORD64 | HEAP, index 1
    ];
    let mut out = stream.to_vec();
    let words = out.len() / 4;
    let at = (next(s) as usize % words) * 4;
    match next(s) % 8 {
        0 => out[next(s) as usize % stream.len()] ^= 1 << (next(s) % 8),
        1 => out[next(s) as usize % stream.len()] = next(s) as u8,
        // The byte of a word that holds tag and flags.
        2 => out[at] ^= 1 << (next(s) % 8),
        3 => {
            let w = WORDS[next(s) as usize % WORDS.len()];
            out[at..at + 4].copy_from_slice(&w.to_be_bytes());
        }
        4 => out[at..at + 4].copy_from_slice(&(next(s) as u32).to_be_bytes()),
        5 => out.truncate(at),
        6 => {
            let word = [out[at], out[at + 1], out[at + 2], out[at + 3]];
            let to = (next(s) as usize % words) * 4;
            out.splice(to..to, word);
        }
        _ => {
            out.drain(at..at + 4);
        }
    }
    out
}

/// What one received byte may make the restorer request from the
/// allocator in a single call, plus a floor for what restoring costs
/// whatever arrives (arena and page-index cells). A pulled stream may
/// run `PULL_SHARE` (64) ahead of its bytes, and a native block is at
/// most a few times its wire size.
fn allocation_bound(input: usize) -> usize {
    (64 << 10) + 512 * input
}

/// `struct gnode { int key; double w; gnode *next, *left; int *tag; }`
/// behind `groot`, with a shared `int gtags[16]`: `nodes` of them in a
/// `next` ring (a cycle), `left` cross-links (shared targets) and `tag`
/// interior pointers — the benchmark's graph shape, small.
fn ring_space(arch: Architecture, nodes: u64) -> (AddressSpace, Msrlt, [u64; 2]) {
    let mut space = AddressSpace::new(arch);
    let t = space.types_mut();
    let (int, double) = (t.int(), t.double());
    let gnode = t.declare_struct("gnode");
    let (p_gnode, p_int) = (t.pointer_to(gnode), t.pointer_to(int));
    let fields = vec![
        Field::new("key", int),
        Field::new("w", double),
        Field::new("next", p_gnode),
        Field::new("left", p_gnode),
        Field::new("tag", p_int),
    ];
    t.define_struct(gnode, fields).unwrap();
    let groot = space.define_global("groot", p_gnode, 1).unwrap();
    let gtags = space.define_global("gtags", int, 16).unwrap();
    let mut msrlt = Msrlt::new();
    for info in space.block_infos() {
        msrlt.register(&info);
    }
    let at: Vec<u64> = (0..nodes)
        .map(|_| {
            let n = space.malloc(gnode, 1).unwrap();
            msrlt.register(&space.info_at(n).unwrap());
            n
        })
        .collect();
    for (i, &n) in at.iter().enumerate() {
        let i = i as u64;
        let field: Vec<u64> = (0..5).map(|k| space.elem_addr(n, k).unwrap()).collect();
        space.store_int(field[0], i as i64 * 7 - 3).unwrap();
        space.store_f64(field[1], i as f64 * 0.5).unwrap();
        space
            .store_ptr(field[2], at[((i + 1) % nodes) as usize])
            .unwrap();
        space
            .store_ptr(field[3], at[((i * 3 + 1) % nodes) as usize])
            .unwrap();
        let tag = space.elem_addr(gtags, i % 16).unwrap();
        space.store_ptr(field[4], tag).unwrap();
    }
    if let Some(&first) = at.first() {
        space.store_ptr(groot, first).unwrap();
    }
    (space, msrlt, [groot, gtags])
}

/// Decode `honest` and 1 499 seeded mutations of it, once per entry of
/// `chunkings`: the honest input must decode; every other either decodes
/// or is refused with a typed error; and no single allocator request on
/// the way exceeds [`allocation_bound`] of the bytes received (`framing`
/// of them reach `decode` outside the mutated stream). Returns how many
/// calls decoded and how many were refused.
fn sweep<E: std::fmt::Debug>(
    honest: &[u8],
    seed: u64,
    framing: usize,
    chunkings: &[Option<usize>],
    decode: impl Fn(&[u8], Option<usize>) -> Result<(), E>,
) -> (u32, u32) {
    let mut s = seed;
    let (mut decoded, mut refused) = (0u32, 0u32);
    for round in 0..1500 {
        let stream = if round == 0 {
            honest.to_vec()
        } else {
            mutate(honest, &mut s)
        };
        let received = framing + stream.len();
        for &chunking in chunkings {
            let what = format!("seed {seed:#x} round {round} chunking {chunking:?}");
            let (got, largest) = largest_request_during(|| decode(&stream, chunking));
            assert!(
                largest <= allocation_bound(received),
                "{what}: one request of {largest} bytes for {received} received ({got:?})"
            );
            match got {
                Ok(()) => decoded += 1,
                Err(_) => refused += 1,
            }
            assert!(
                round != 0 || got.is_ok(),
                "{what}: honest stream refused: {got:?}"
            );
        }
    }
    (decoded, refused)
}

/// [`sweep`] over a record stream restored whole (`None`) and from
/// chunks of 8 and 52 bytes.
fn mutation_sweep<E: std::fmt::Debug>(
    honest: &[u8],
    seed: u64,
    framing: usize,
    restore: impl Fn(&[u8], Option<usize>) -> Result<(), E>,
) {
    let chunkings = [None, Some(8), Some(52)];
    let (restored, refused) = sweep(honest, seed, framing, &chunkings, restore);
    // The sweep has to reach both outcomes to mean anything.
    assert!(
        restored > 100 && refused > 1000,
        "{restored} restored, {refused} refused"
    );
}

/// [`sweep`] over the input of a decoder that takes its bytes whole;
/// more than `min_decoded` of the 1 500 inputs must get through it.
fn decoder_sweep<E: std::fmt::Debug>(
    honest: &[u8],
    seed: u64,
    min_decoded: u32,
    decode: impl Fn(&[u8]) -> Result<(), E>,
) {
    let (decoded, refused) = sweep(honest, seed, 0, &[None], |bytes, _| decode(bytes));
    assert!(
        decoded > min_decoded && refused > 50,
        "{decoded} decoded, {refused} refused"
    );
}

/// [`decoder_sweep`] over bytes sealed whole by their own trailing CRC:
/// every input that differs from the honest one must be refused.
fn sealed_sweep<E: std::fmt::Debug>(
    honest: &[u8],
    seed: u64,
    decode: impl Fn(&[u8]) -> Result<(), E>,
) {
    decoder_sweep(honest, seed, 0, |bytes| {
        let got = decode(bytes);
        assert!(
            bytes == honest || got.is_err(),
            "seed {seed:#x}: altered input of {} bytes accepted",
            bytes.len()
        );
        got
    });
}

/// Two framings under the record stream that the sweeps above do not
/// reach (ROADMAP 2(c)): control frames, and chunk frames through to
/// their expanded payload — and the receiver core over a whole stream of
/// them: every single-byte mutation of every frame, and every way an
/// ordered pipe's frames can arrive out of order, ends the connection
/// with a named error before a byte of the frame reaches the restorer.
#[test]
fn mutated_control_and_chunk_bytes_decode_or_refuse() {
    use hpm::net::{ReceiverCore, ReliableChunkSender};
    use hpm::xdr::{
        compress, frame_control, unframe_control, Control, CHUNK_FLAG_COMPRESSED, CONTROL_MAGIC,
    };
    let resume = Control::Resume {
        image_id: 0x1234_5678_9ABC_DEF0,
        next: 7,
        digest: 0x0FED_CBA9_8765_4321,
    };
    decoder_sweep(&frame_control(resume), 0x6ea4_0006, 50, |bytes| {
        unframe_control(bytes).map(|_| ())
    });

    // The checked-in seed: test_pointer frozen at poll 8, cut at 64
    // bytes, stored and compressed.
    let (chunks, _) = freeze_test_pointer().to_chunks(64).unwrap();
    for compress in [false, true] {
        let last = chunks.len() as u32;
        let frames: Vec<Vec<u8>> = (chunks.iter().map(|c| &c[..]))
            .chain([&[][..]])
            .enumerate()
            .map(|(i, c)| frame_chunk(i as u32, i as u32 == last, c, compress).0)
            .collect();
        let mut core = ReceiverCore::default();
        for (i, frame) in frames.iter().enumerate() {
            for at in 0..frame.len() {
                for mask in 1..=255u8 {
                    let mut mutated = frame.clone();
                    mutated[at] ^= mask;
                    let got = core.clone().on_frame(&mutated);
                    assert!(got.is_err(), "frame {i} byte {at} ^ {mask:#x} released");
                }
            }
            core.on_frame(frame).expect("the honest frame is released");
        }

        // Gaps, repeats and swaps: what an ordered pipe never delivers.
        let refusal = |order: &[usize]| {
            let (a, b) = channel_pair(NetworkModel::instant());
            order
                .iter()
                .for_each(|&i| a.send(frames[i].clone()).unwrap());
            let mut rx = ReliableChunkReceiver::new(b, ArqConfig);
            // The frames in sequence before the first one out of it.
            let released = order.iter().zip(0..).take_while(|(&i, n)| i == *n).count();
            for _ in 0..released {
                assert!(rx.recv_chunk().unwrap().is_some(), "{order:?}");
            }
            match rx.recv_chunk() {
                Err(NetError::ChunkFraming { chunk, reason }) => {
                    assert_eq!(chunk as usize, released, "{order:?}: {reason}");
                    reason
                }
                other => panic!("{order:?}: expected ChunkFraming, got {other:?}"),
            }
        };
        assert_eq!(refusal(&[0, 2]), "gap: chunk 2 arrived");
        assert_eq!(refusal(&[0, 1, 1]), "repeat of chunk 1");
        assert_eq!(refusal(&[0, 2, 1]), "gap: chunk 2 arrived");
        assert_eq!(refusal(&[0, 1, 3, 2]), "gap: chunk 3 arrived");
    }

    // The retired acknowledgements, on either direction of the link: the
    // receiver refuses one as a frame that is not a chunk, and the sender
    // refuses one in place of the resume handshake, by name.
    for (kind, name) in [(0u32, "ack"), (1, "nack")] {
        let mut enc = XdrEncoder::new();
        for word in [CONTROL_MAGIC, kind, 41] {
            enc.put_u32(word);
        }
        let retired = enc.into_bytes();
        assert_eq!(
            unframe_control(&retired),
            Err(XdrError::RetiredControl(name))
        );
        let (a, b) = channel_pair(NetworkModel::instant());
        a.send(retired.clone()).unwrap();
        match ReliableChunkReceiver::new(b, ArqConfig).recv_chunk() {
            Err(NetError::ChunkFraming { chunk: 0, reason }) => {
                assert!(reason.contains("bad frame magic 0x48504d41"), "{reason}")
            }
            other => panic!("{name}: expected ChunkFraming, got {other:?}"),
        }
        let (a, b) = channel_pair(NetworkModel::instant());
        b.send(retired).unwrap();
        match ReliableChunkSender::new(a, ArqConfig).accept_resume(1, &[]) {
            Err(NetError::ChunkFraming { chunk: 0, reason }) => {
                assert!(reason.contains(&format!("'{name}'")), "{reason}")
            }
            other => panic!("{name}: expected ChunkFraming, got {other:?}"),
        }
    }

    // A payload the block coder shrinks, so `into_payload` expands.
    let payload: Vec<u8> = (0..3_000u32).flat_map(|i| (i / 7).to_be_bytes()).collect();
    let expand = |bytes: &[u8]| {
        let parsed = unframe_chunk_any(bytes)?;
        match parsed.verify_crc() {
            Ok(()) => parsed.into_payload().map(|_| ()),
            Err(found) => Err(XdrError::BadMagic(found)),
        }
    };
    // A frame's trailing CRC covers its header and payload: no damage to
    // a finished frame, compressed or stored, gets past it.
    sealed_sweep(
        &frame_chunk(3, false, &payload, true).0,
        0x6ea4_0007,
        expand,
    );
    sealed_sweep(
        &frame_chunk(3, true, &payload[..512], false).0,
        0x6ea4_0008,
        expand,
    );
    // But the CRC is its author's: mutate the token stream and frame it
    // as a hostile author would — true `raw_len`, matching CRC — and the
    // coder behind the check is what decodes the damage.
    let tokens = compress(&payload);
    assert!(tokens.len() < payload.len() / 4, "{} tokens", tokens.len());
    decoder_sweep(&tokens, 0x6ea4_000b, 5, |wire| {
        expand(&forged_chunk(
            CHUNK_FLAG_COMPRESSED,
            payload.len() as u32,
            wire,
        ))
    });
}

/// What was still open under ROADMAP 2(c) after the sweeps above: the
/// image prefix, the execution state, a delta frame against its real
/// base, and the two decompressors with nothing in front of them.
#[test]
fn mutated_prefix_exec_state_delta_and_token_bytes_decode_or_refuse() {
    use hpm::core::{apply_delta, collect_delta, BaseImageManifest, RetainedBase};
    use hpm::xdr::{compress, crc32, decompress, decompress_with_dict, image_id};

    let image = freeze_test_pointer().to_image().unwrap();
    decoder_sweep(&image, 0x6ea4_000c, 500, |bytes| {
        unframe_image(bytes).map(|_| ())
    });
    let (_, exec, _) = unframe_image(&image).unwrap();
    decoder_sweep(exec, 0x6ea4_000d, 50, |bytes| {
        ExecutionState::decode(bytes).map(|_| ())
    });

    // A delta of scattered edits, so the ops hold literals and matches.
    let base: Vec<u8> = (0..1_000u32)
        .flat_map(|i| (i % 251).to_be_bytes())
        .collect();
    let mut current = base.clone();
    for at in [5, 777, 778, 2_000, 3_999] {
        current[at] ^= 0xFF;
    }
    let manifest = BaseImageManifest::new(image_id(&base), Vec::new());
    let (delta, _) = collect_delta(&manifest, &base, Vec::new(), &current, 1);
    let retained = RetainedBase {
        image_id: image_id(&base),
        manifest_digest: manifest.manifest_digest(),
        image: base.clone(),
    };
    // The frame's trailing CRC is its author's: stamp a matching one and
    // the header parse and the coder behind the check get the damage.
    let frame = delta.to_frame();
    decoder_sweep(&frame[..frame.len() - 4], 0x6ea4_000e, 0, |body| {
        let stamped = [body, &crc32(body).to_be_bytes()[..]].concat();
        apply_delta(Some(&retained), &stamped).map(|_| ())
    });
    decoder_sweep(&delta.ops, 0x6ea4_000f, 5, |ops| {
        decompress_with_dict(&base, ops, current.len()).map(|_| ())
    });

    let payload: Vec<u8> = (0..3_000u32).flat_map(|i| (i / 7).to_be_bytes()).collect();
    decoder_sweep(&compress(&payload), 0x6ea4_0010, 5, |tokens| {
        decompress(tokens, payload.len()).map(|_| ())
    });
}

#[test]
fn mutated_gnode_ring_records_restore_or_refuse() {
    let (mut src, mut src_lt, roots) = ring_space(Architecture::x86_64_sim(), 12);
    let mut c = Collector::new(&mut src, &mut src_lt);
    for root in roots {
        c.save_variable(root).unwrap();
    }
    let (payload, stats) = c.finish().unwrap();
    assert_eq!(
        (stats.ptr_new, stats.ptr_ref),
        (13, 24),
        "12 nodes and `gtags`"
    );

    let restore = |mut r: Restorer<'_, '_>, roots: [u64; 2]| {
        roots
            .into_iter()
            .try_for_each(|v| r.restore_variable(v))
            .and_then(|()| r.finish().map(|_| ()))
    };
    mutation_sweep(&payload, 0x6ea4_0003, 0, |stream, chunking| {
        let (mut dst, mut lt, droots) = ring_space(Architecture::sparc20(), 0);
        match chunking {
            None => restore(Restorer::new(&mut dst, &mut lt, stream), droots),
            Some(n) => {
                let chunks = stream.chunks(n).map(<[u8]>::to_vec).collect();
                let input = ChunkPayload::new(&[], Some(Box::new(VecChunks::new(chunks))));
                restore(Restorer::over(&mut dst, &mut lt, input), droots)
            }
        }
    });
}

/// The same sweep over the paper's pointer zoo, restored the way a
/// destination restores it: frame by frame under the program's own
/// `restore_frame` calls, from the whole image and from chunks. (The
/// program's `results` walk is left out — following a tree whose links a
/// mutation re-aimed is the program's hazard, not the decoder's.)
#[test]
fn mutated_test_pointer_records_restore_or_refuse() {
    let image = freeze_test_pointer().to_image().unwrap();
    let records = unframe_image(&image).unwrap().2.len();
    let (prefix, payload) = image.split_at(image.len() - records);
    mutation_sweep(payload, 0x6ea4_0004, prefix.len(), |stream, chunking| {
        let mut dst = TestPointer::new();
        match chunking {
            None => resume_over(
                &mut dst,
                Architecture::sparc20(),
                &[prefix, stream].concat(),
                None,
            ),
            Some(n) => {
                let chunks = stream.chunks(n).map(<[u8]>::to_vec).collect();
                resume_over(
                    &mut dst,
                    Architecture::sparc20(),
                    prefix,
                    Some(Box::new(VecChunks::new(chunks))),
                )
            }
        }
    });
}
