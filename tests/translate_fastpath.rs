//! Property sweep for the run-granular translation kernels.
//!
//! The wire format is fixed XDR, so which kernel arm converts a run —
//! copy, byte-swap, widen/narrow, strided, or the per-element reference —
//! is a private choice of each side. Across **every** architecture preset
//! pair and both [`TranslationMode`]s on each side independently, the
//! payload must be bit-identical, the restored memory must be identical,
//! and a streamed collection must concatenate to the monolithic payload.
//!
//! The program covers the kernel's whole selection table: dense arrays of
//! all twelve non-pointer scalar kinds at lengths around every loop
//! boundary (empty, shorter than a vector, one slice ± 1), an array of
//! padded structs (strided runs), a pointer-bearing heap list (runs inside
//! DFS cursors), and extreme values that only survive a bit-exact
//! conversion. The paper's three workloads, frozen at their migration
//! points, must collect the same payload in both modes too.

use hpm::arch::{Architecture, CScalar, ScalarValue};
use hpm::core::{Collector, Msrlt, Restorer, TranslationMode};
use hpm::memory::AddressSpace;
use hpm::migrate::{run_to_migration, MigratableProgram, MigratedSource, Trigger};
use hpm::types::plan::PlanOp;
use hpm::types::{Field, TypeId};
use hpm::workloads::{BitonicSort, Linpack, TestPointer};

const MODES: [TranslationMode; 2] = [TranslationMode::Bulk, TranslationMode::PerElement];

/// The kernels take a long run through in slices of this many wire bytes
/// (`hpm_core`'s `BULK_SLICE`); array lengths straddle it.
const BULK_SLICE: u64 = 1 << 20;

fn presets() -> [Architecture; 4] {
    [
        Architecture::dec5000(),
        Architecture::sparc20(),
        Architecture::ultra5(),
        Architecture::x86_64_sim(),
    ]
}

fn scalar_kinds() -> impl Iterator<Item = CScalar> {
    CScalar::ALL.into_iter().filter(|&k| k != CScalar::Ptr)
}

/// Element counts of the dense arrays of `kind`.
fn lengths(kind: CScalar) -> [u64; 7] {
    let per_slice = BULK_SLICE / kind.xdr_form().min_wire_bytes();
    [0, 1, 2, 3, 7, per_slice - 1, per_slice + 1]
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Element `k` of a dense array: every bit pattern an `int`-or-narrower
/// kind can hold, 32-bit patterns for the kinds whose width varies (so
/// the same program state exists on ILP32 and LP64), arbitrary bits —
/// NaNs of both kinds included — for the floats.
fn element(kind: CScalar, seed: &mut u64) -> ScalarValue {
    let raw = splitmix(seed);
    match kind {
        CScalar::Float => ScalarValue::F32(f32::from_bits(raw as u32)),
        CScalar::Double => ScalarValue::F64(f64::from_bits(raw)),
        k if k.is_signed() => ScalarValue::Int(raw as i32 as i64),
        _ => ScalarValue::Uint(raw as u32 as u64),
    }
}

/// `struct inner { int i; char c; }` inside
/// `struct padded { struct inner a; char d; double w; }`: `c` and `d` form
/// one run of two chars four bytes apart.
fn padded_type(space: &mut AddressSpace) -> TypeId {
    let t = space.types_mut();
    let (int, ch, dbl) = (t.int(), t.char_(), t.double());
    let inner = t
        .struct_type("inner", vec![Field::new("i", int), Field::new("c", ch)])
        .unwrap();
    t.struct_type(
        "padded",
        vec![
            Field::new("a", inner),
            Field::new("d", ch),
            Field::new("w", dbl),
        ],
    )
    .unwrap()
}

/// One side's copy of "the same program image".
struct Image {
    space: AddressSpace,
    msrlt: Msrlt,
    /// Blocks in save order whose values every preset can hold.
    roots: Vec<u64>,
    /// Blocks of extreme values, saved after `roots`: `unsigned long`
    /// holds `u64::MAX` only where `long` is 8 bytes wide.
    extremes: Vec<u64>,
}

/// Which of an image's blocks a session saves or restores.
#[derive(Clone, Copy)]
enum Which {
    Portable,
    Extremes,
    All,
}

impl Image {
    fn blocks(&self, which: Which) -> Vec<u64> {
        match which {
            Which::Portable => self.roots.clone(),
            Which::Extremes => self.extremes.clone(),
            Which::All => [&self.roots[..], &self.extremes[..]].concat(),
        }
    }
}

/// Build the program on `arch`; with `fill`, give every scalar its
/// deterministic value and build the heap list, otherwise leave the
/// destination-side image before restoration: same types, same blocks,
/// zeroed, no list.
fn program(arch: Architecture, fill: bool) -> Image {
    let mut space = AddressSpace::new(arch.clone());
    let mut roots = Vec::new();
    // Every block in creation order. Logical ids follow registration
    // order, and heap addresses order differently from preset to preset
    // (alignment holes get reused), so blocks register in this order.
    let mut created = Vec::new();

    // Dense arrays of every kind: heap blocks saved as variables, so the
    // empty ones are legal roots too.
    let mut seed = 0x5EED_0001u64;
    let mut native = Vec::new();
    for kind in scalar_kinds() {
        let ty = space.types_mut().scalar(kind);
        for len in lengths(kind) {
            let block = space.malloc(ty, len).unwrap();
            if fill {
                native.clear();
                for _ in 0..len {
                    arch.encode_scalar(kind, element(kind, &mut seed), &mut native);
                }
                space.write_bytes(block, &native).unwrap();
            }
            roots.push(block);
        }
    }

    // The same dense runs declared as array *types* (one element, many
    // leaves), as globals.
    let (int, dbl, ch) = {
        let t = space.types_mut();
        (t.int(), t.double(), t.char_())
    };
    let ivec = space.define_global("ivec", int, 40).unwrap();
    let dmat_ty = space.types_mut().array_of(dbl, 25);
    let dmat = space.define_global("dmat", dmat_ty, 1).unwrap();
    let text = space.define_global("text", ch, 12).unwrap();

    // Padded structs: strided runs, in a pointer-free block.
    let padded = padded_type(&mut space);
    let plan = space.plan_for(padded).unwrap();
    assert!(
        plan.ops.iter().any(|op| matches!(
            op,
            PlanOp::ScalarRun {
                count: 2,
                stride: 4,
                ..
            }
        )),
        "padded must compile to a strided run: {:?}",
        plan.ops
    );
    let pads = space.define_global("pads", padded, 33).unwrap();

    // A heap list whose nodes mix every width with a pointer: runs inside
    // a DFS cursor. head → n0 → n1 → n2 → NULL.
    let node = space.types_mut().declare_struct("node");
    let pnode = space.types_mut().pointer_to(node);
    let (flt, short, long) = {
        let t = space.types_mut();
        (t.float(), t.scalar(CScalar::Short), t.scalar(CScalar::Long))
    };
    let name = space.types_mut().array_of(ch, 5);
    space
        .types_mut()
        .define_struct(
            node,
            vec![
                Field::new("d", dbl),
                Field::new("f", flt),
                Field::new("i", int),
                Field::new("name", name),
                Field::new("s", short),
                Field::new("l", long),
                Field::new("next", pnode),
            ],
        )
        .unwrap();
    let head = space.define_global("head", pnode, 1).unwrap();

    // Extremes.
    let ulong = space.types_mut().scalar(CScalar::ULong);
    let x_int = space.define_global("x_int", int, 2).unwrap();
    let x_char = space.define_global("x_char", ch, 3).unwrap();
    let x_ulong = space.define_global("x_ulong", ulong, 2).unwrap();
    let x_float = space.define_global("x_float", flt, 2).unwrap();
    let x_double = space.define_global("x_double", dbl, 2).unwrap();
    let extremes = vec![x_int, x_char, x_ulong, x_float, x_double];
    roots.extend([ivec, dmat, text, pads, head]);
    created.extend(roots.iter().chain(&extremes));

    if fill {
        let store = |space: &mut AddressSpace, block: u64, leaf: u64, v: ScalarValue| {
            let at = space.elem_addr(block, leaf).unwrap();
            space.store_scalar(at, v).unwrap();
        };
        for k in 0..40 {
            store(&mut space, ivec, k, ScalarValue::Int(k as i64 * 7 - 100));
        }
        for k in 0..25 {
            store(&mut space, dmat, k, ScalarValue::F64(0.5 + k as f64 * 1.25));
        }
        for k in 0..12 {
            store(&mut space, text, k, ScalarValue::Int(32 + k as i64));
        }
        for e in 0..33u64 {
            // Leaves of one element: i, c, d, w.
            store(
                &mut space,
                pads,
                e * 4,
                ScalarValue::Int(-(e as i64) * 1001),
            );
            store(&mut space, pads, e * 4 + 1, ScalarValue::Int(e as i64 - 16));
            store(&mut space, pads, e * 4 + 2, ScalarValue::Int(-(e as i64)));
            store(
                &mut space,
                pads,
                e * 4 + 3,
                ScalarValue::F64(e as f64 / 3.0),
            );
        }
        let mut prev = 0u64;
        for k in 0..3i64 {
            let n = space.malloc(node, 1).unwrap();
            store(&mut space, n, 0, ScalarValue::F64(k as f64 + 0.125));
            store(&mut space, n, 1, ScalarValue::F32(k as f32 * 2.5));
            store(&mut space, n, 2, ScalarValue::Int(1000 + k));
            for c in 0..5 {
                store(&mut space, n, 3 + c, ScalarValue::Int(65 + k + c as i64));
            }
            store(&mut space, n, 8, ScalarValue::Int(-300 - k));
            store(&mut space, n, 9, ScalarValue::Int(-70_000 * (k + 1)));
            let link = if prev == 0 {
                head
            } else {
                space.elem_addr(prev, 10).unwrap()
            };
            space.store_ptr(link, n).unwrap();
            created.push(n);
            prev = n;
        }
        store(&mut space, x_int, 0, ScalarValue::Int(i32::MIN as i64));
        store(&mut space, x_int, 1, ScalarValue::Int(i32::MAX as i64));
        store(&mut space, x_char, 0, ScalarValue::Int(-1));
        store(&mut space, x_char, 1, ScalarValue::Int(i8::MIN as i64));
        store(&mut space, x_char, 2, ScalarValue::Int(i8::MAX as i64));
        store(&mut space, x_ulong, 0, ScalarValue::Uint(u64::MAX));
        store(&mut space, x_ulong, 1, ScalarValue::Uint(1 << 31));
        // Signalling NaNs: a conversion through a wider float quiets them.
        for (k, bits) in [0x7FA0_0001u32, 0xFFA0_0001].into_iter().enumerate() {
            store(
                &mut space,
                x_float,
                k as u64,
                ScalarValue::F32(f32::from_bits(bits)),
            );
        }
        for (k, bits) in [0x7FF4_0000_0000_0001u64, 0xFFF4_0000_0000_0001]
            .into_iter()
            .enumerate()
        {
            store(
                &mut space,
                x_double,
                k as u64,
                ScalarValue::F64(f64::from_bits(bits)),
            );
        }
    }

    let mut msrlt = Msrlt::new();
    for addr in created {
        msrlt.register(&space.info_at(addr).unwrap());
    }
    Image {
        space,
        msrlt,
        roots,
        extremes,
    }
}

fn collect(img: &mut Image, which: Which, mode: TranslationMode) -> Vec<u8> {
    let roots = img.blocks(which);
    let mut c = Collector::new(&mut img.space, &mut img.msrlt).with_translation(mode);
    for r in roots {
        c.save_variable(r).unwrap();
    }
    c.finish().unwrap().0
}

/// The same collection through a sink cutting at `chunk_bytes`.
fn collect_streamed(img: &mut Image, mode: TranslationMode, chunk_bytes: usize) -> Vec<Vec<u8>> {
    let roots = img.blocks(Which::All);
    let mut chunks = Vec::new();
    let mut c = Collector::new(&mut img.space, &mut img.msrlt)
        .with_translation(mode)
        .with_sink(
            chunk_bytes,
            Box::new(|chunk| {
                chunks.push(chunk.to_vec());
                Ok(())
            }),
        );
    for &r in &roots {
        c.save_variable(r).unwrap();
    }
    let (tail, stats) = c.finish().unwrap();
    assert!(tail.is_empty());
    assert_eq!(stats.chunks_flushed as usize, chunks.len());
    chunks
}

/// Native bytes of the chosen blocks, in order.
fn memory(img: &Image, which: Which) -> Vec<Vec<u8>> {
    img.blocks(which)
        .iter()
        .map(|&r| {
            let size = img.space.info_at(r).unwrap().size;
            img.space.read_bytes(r, size).unwrap().to_vec()
        })
        .collect()
}

#[test]
fn bulk_payload_is_bit_identical_on_every_preset() {
    let mut portable = Vec::new();
    for arch in presets() {
        let mut img = program(arch.clone(), true);
        let bulk = collect(&mut img, Which::All, TranslationMode::Bulk);
        let per = collect(&mut img, Which::All, TranslationMode::PerElement);
        assert!(
            bulk == per,
            "bulk and per-element payloads diverge on {}",
            arch.name
        );
        for chunk_bytes in [64, 32 * 1024] {
            let chunks = collect_streamed(&mut img, TranslationMode::Bulk, chunk_bytes);
            assert!(chunks.len() > 1);
            assert!(chunks.iter().all(|c| c.len() % 4 == 0));
            assert!(
                chunks.concat() == bulk,
                "chunks of {chunk_bytes} on {} do not concatenate to the payload",
                arch.name
            );
        }
        portable.push(collect(&mut img, Which::Portable, TranslationMode::Bulk));
    }
    // Where every preset can hold the program's values, the payload does
    // not say which machine wrote it.
    assert!(portable.iter().all(|p| *p == portable[0]));
}

/// Restore `payload` into a fresh destination-side image: zeroed blocks
/// and no list, exactly like a real resume.
fn restore(arch: &Architecture, which: Which, payload: &[u8], mode: TranslationMode) -> Image {
    let mut dst = program(arch.clone(), false);
    let blocks = dst.blocks(which);
    let mut r = Restorer::new(&mut dst.space, &mut dst.msrlt, payload).with_translation(mode);
    for b in blocks {
        r.restore_variable(b).unwrap();
    }
    r.finish().unwrap();
    dst
}

#[test]
fn both_restorer_modes_agree_on_every_preset_pair() {
    // The bulk of the program is one payload whatever machine collected
    // it (asserted above), so each destination decodes it once per mode;
    // the extremes differ by source and go through all 16 pairs.
    let payload = collect(
        &mut program(Architecture::dec5000(), true),
        Which::Portable,
        TranslationMode::Bulk,
    );
    for dst_arch in presets() {
        // What the program holds when it runs on the destination itself.
        let mut native = program(dst_arch.clone(), true);
        let want = memory(&native, Which::Portable);
        let want_canon = collect(&mut native, Which::Portable, TranslationMode::Bulk);
        drop(native);
        for mode in MODES {
            let mut dst = restore(&dst_arch, Which::Portable, &payload, mode);
            assert!(
                memory(&dst, Which::Portable) == want,
                "restore {mode:?} on {} differs from the native image",
                dst_arch.name
            );
            // The heap list lives at other addresses; compare it in
            // canonical form.
            let canon = collect(&mut dst, Which::Portable, TranslationMode::Bulk);
            assert!(canon == want_canon, "restore {mode:?} on {}", dst_arch.name);
        }
    }
    for src_arch in presets() {
        let mut src = program(src_arch.clone(), true);
        let payload = collect(&mut src, Which::Extremes, TranslationMode::Bulk);
        for dst_arch in presets() {
            let pair = format!("{} → {}", src_arch.name, dst_arch.name);
            let images = MODES.map(|mode| {
                let mut dst = restore(&dst_arch, Which::Extremes, &payload, mode);
                check_extremes(&mut dst, &pair);
                memory(&dst, Which::Extremes)
            });
            assert!(images[0] == images[1], "restorer modes disagree, {pair}");
        }
    }
}

/// The extreme values after a restore, read back through the execution
/// path's own loads.
fn check_extremes(dst: &mut Image, pair: &str) {
    let [x_int, x_char, x_ulong, x_float, x_double] = dst.extremes[..] else {
        unreachable!()
    };
    let mut load = |block: u64, leaf: u64| {
        let at = dst.space.elem_addr(block, leaf).unwrap();
        dst.space.load_scalar(at).unwrap()
    };
    assert_eq!(load(x_int, 0), ScalarValue::Int(i32::MIN as i64), "{pair}");
    assert_eq!(load(x_int, 1), ScalarValue::Int(i32::MAX as i64), "{pair}");
    assert_eq!(load(x_char, 0), ScalarValue::Int(-1), "{pair}");
    assert_eq!(load(x_char, 1), ScalarValue::Int(i8::MIN as i64), "{pair}");
    assert_eq!(load(x_char, 2), ScalarValue::Int(i8::MAX as i64), "{pair}");
    // LP64 → LP64 keeps all 64 bits; any ILP32 end leaves the low 32.
    let both_lp64 = pair.matches("LP64").count() == 2;
    let max = if both_lp64 { u64::MAX } else { u32::MAX as u64 };
    assert_eq!(load(x_ulong, 0), ScalarValue::Uint(max), "{pair}");
    assert_eq!(load(x_ulong, 1), ScalarValue::Uint(1 << 31), "{pair}");
    for (k, bits) in [0x7FA0_0001u32, 0xFFA0_0001].into_iter().enumerate() {
        match load(x_float, k as u64) {
            ScalarValue::F32(f) => assert_eq!(f.to_bits(), bits, "{pair}"),
            other => panic!("{pair}: {other:?}"),
        }
    }
    for (k, bits) in [0x7FF4_0000_0000_0001u64, 0xFFF4_0000_0000_0001]
        .into_iter()
        .enumerate()
    {
        match load(x_double, k as u64) {
            ScalarValue::F64(f) => assert_eq!(f.to_bits(), bits, "{pair}"),
            other => panic!("{pair}: {other:?}"),
        }
    }
}

fn freeze(mut prog: impl MigratableProgram, arch: Architecture, polls: u64) -> MigratedSource {
    run_to_migration(&mut prog, arch, Trigger::AtPollCount(polls)).expect("reaches its poll")
}

/// Every live variable of the frozen frames, collected in `mode`.
fn collect_frozen(src: &mut MigratedSource, mode: TranslationMode) -> Vec<u8> {
    let mut c = Collector::new(&mut src.proc.space, &mut src.proc.msrlt).with_translation(mode);
    for frame in &src.pending {
        for &addr in &frame.live {
            c.save_variable(addr).unwrap();
        }
    }
    c.finish().unwrap().0
}

/// The paper workloads at their migration points on the big-endian
/// Ultra 5, where dense runs are copies, and linpack on the little-endian
/// LP64 preset, where every dense run is byte-swapped: the kernels and the
/// per-element reference ship the same payload, byte for byte.
#[test]
fn paper_workloads_collect_identically_in_both_modes() {
    let (ultra5, le) = (Architecture::ultra5, Architecture::x86_64_sim);
    let n = 20_000;
    let frozen = [
        ("test_pointer", freeze(TestPointer::new(), ultra5(), 8)),
        (
            "linpack_600",
            freeze(Linpack::truncated(600, 4), ultra5(), 2),
        ),
        ("bitonic_20000", freeze(BitonicSort::new(n), ultra5(), n)),
        (
            "linpack_600_le",
            freeze(Linpack::truncated(600, 4), le(), 2),
        ),
    ];
    for (label, mut src) in frozen {
        let [bulk, per] = MODES.map(|mode| collect_frozen(&mut src, mode));
        assert!(!bulk.is_empty(), "{label}");
        assert!(
            bulk == per,
            "{label}: bulk and per-element collection produced different payloads"
        );
    }
}
