//! The translation kernels of `Encode_and_Copy` / `Decode_and_Copy`: one
//! run of scalars from native bytes to XDR wire bytes, and back.
//!
//! The collector, the restorer and the digest pass all hand their
//! [`PlanOp::ScalarRun`]s to the one [`Kernel`] each way. Its arm is
//! selected once per run from what the machine and the plan say about
//! the run — native width, XDR wire width, signedness, byte order,
//! stride:
//!
//! | native vs wire width | byte order | layout | arm |
//! |---|---|---|---|
//! | same | big | dense | `memcpy`: the wire image *is* the native bytes |
//! | same | little | dense | byte-swap loop over `chunks_exact` |
//! | narrower (`char`/`short` → 4, ILP32 `long` → hyper) | either | dense | widen (sign- or zero-extend) / narrow (truncate) loop |
//! | any | either | strided | the same loop, one element per step |
//!
//! [`TranslationMode::PerElement`] forces the reference arm instead: each
//! scalar through [`ScalarValue`], which every other arm must match bit
//! for bit.

use crate::collect::TranslationMode;
use hpm_arch::{Architecture, CScalar, Endianness, ScalarValue, XdrForm};
use hpm_types::plan::{PlanOp, SavePlan};
use hpm_xdr::XdrEncoder;

/// Most wire bytes handed to a kernel in one call. A longer run goes
/// through in slices, so sink mode still streams a multi-megabyte array
/// in chunks and a pulled payload buffers no more than this.
pub(crate) const BULK_SLICE: u64 = 1 << 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arm {
    Copy,
    Convert,
    PerElement,
}

/// How one run's scalars travel between native and wire form.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Kernel {
    arm: Arm,
    kind: CScalar,
    native: u64,
    wire: u64,
    stride: u64,
    little: bool,
    signed: bool,
}

/// Call the conversion loop monomorphised for `$k`'s native width, wire
/// width and byte order — the layouts `Kernel::select` admits to the
/// converting arm.
macro_rules! by_layout {
    ($k:expr, $f:ident($($arg:expr),*)) => {
        match ($k.native, $k.wire, $k.little) {
            (1, 4, _) => $f::<1, 4, true>($($arg),*),
            (2, 4, true) => $f::<2, 4, true>($($arg),*),
            (2, 4, false) => $f::<2, 4, false>($($arg),*),
            (4, 4, true) => $f::<4, 4, true>($($arg),*),
            (4, 4, false) => $f::<4, 4, false>($($arg),*),
            (4, 8, true) => $f::<4, 8, true>($($arg),*),
            (4, 8, false) => $f::<4, 8, false>($($arg),*),
            (8, 8, true) => $f::<8, 8, true>($($arg),*),
            (8, 8, false) => $f::<8, 8, false>($($arg),*),
            other => unreachable!("select() admits no {other:?} conversion"),
        }
    };
}

impl Kernel {
    /// A run of 4-byte words whose wire image is their native bytes.
    const WORDS: Kernel = Kernel {
        arm: Arm::Copy,
        kind: CScalar::UInt,
        native: 4,
        wire: 4,
        stride: 4,
        little: false,
        signed: false,
    };

    /// The kernel for a run of non-pointer `kind` scalars `stride` bytes
    /// apart on `arch`.
    pub(crate) fn select(
        arch: &Architecture,
        kind: CScalar,
        stride: u64,
        mode: TranslationMode,
    ) -> Kernel {
        debug_assert_ne!(kind.xdr_form(), XdrForm::LogicalPointer);
        let native = arch.scalar_size(kind);
        let wire = kind.xdr_form().min_wire_bytes();
        debug_assert!(stride >= native);
        let little = arch.endianness == Endianness::Little;
        let arm = match mode {
            TranslationMode::PerElement => Arm::PerElement,
            TranslationMode::Bulk if !little && native == wire && stride == native => Arm::Copy,
            TranslationMode::Bulk => match (native, wire) {
                (1 | 2 | 4, 4) | (4 | 8, 8) => Arm::Convert,
                // No preset stores a scalar wider than its wire form.
                _ => Arm::PerElement,
            },
        };
        Kernel {
            arm,
            kind,
            native,
            wire,
            stride,
            little,
            signed: kind.is_signed(),
        }
    }

    /// Byte distance between consecutive scalars in native memory.
    pub(crate) fn stride(&self) -> u64 {
        self.stride
    }

    /// Native bytes from the first scalar's first byte to the last
    /// scalar's last. Saturates, so an absurd count fails the caller's
    /// bounds check instead of wrapping past it.
    pub(crate) fn native_span(&self, count: u64) -> u64 {
        match count {
            0 => 0,
            n => (n - 1)
                .saturating_mul(self.stride)
                .saturating_add(self.native),
        }
    }

    /// Wire bytes of `count` scalars (saturating, as above).
    pub(crate) fn wire_len(&self, count: u64) -> u64 {
        count.saturating_mul(self.wire)
    }

    /// Scalars in one [`BULK_SLICE`].
    pub(crate) fn slice_scalars(&self) -> u64 {
        BULK_SLICE / self.wire
    }

    /// Append the wire form of the `count` scalars laid out in `src`
    /// (`native_span(count)` bytes).
    pub(crate) fn encode(
        &self,
        arch: &Architecture,
        src: &[u8],
        count: usize,
        enc: &mut XdrEncoder,
    ) {
        let stride = self.stride as usize;
        match self.arm {
            Arm::Copy => enc.put_opaque_fixed(src),
            Arm::Convert => {
                let out = enc.put_zeroed(count * self.wire as usize);
                by_layout!(self, to_wire(src, stride, out, self.signed));
            }
            Arm::PerElement => {
                for k in 0..count {
                    let at = k * stride;
                    let v = arch.decode_scalar(self.kind, &src[at..at + self.native as usize]);
                    put_scalar_xdr(enc, self.kind, v);
                }
            }
        }
    }

    /// Write the scalars carried in `wire` (a whole number of wire
    /// units) into `dst` (`native_span` of as many scalars).
    pub(crate) fn decode(&self, arch: &Architecture, wire: &[u8], dst: &mut [u8]) {
        let stride = self.stride as usize;
        match self.arm {
            Arm::Copy => dst.copy_from_slice(wire),
            Arm::Convert => by_layout!(self, from_wire(wire, dst, stride)),
            Arm::PerElement => {
                let mut native = Vec::with_capacity(8);
                for (k, w) in wire.chunks_exact(self.wire as usize).enumerate() {
                    native.clear();
                    arch.encode_scalar(self.kind, get_scalar_xdr(self.kind, w), &mut native);
                    let at = k * stride;
                    dst[at..at + native.len()].copy_from_slice(&native);
                }
            }
        }
    }
}

/// Call `f(offset, kernel, count)` for every scalar run of a block of
/// `count` elements of the pointer-free `plan`, in stream order.
///
/// An element that is itself one dense run — `double[n]` as a type, or a
/// plain `double` — makes the whole block a single run of `count` times
/// as many scalars, whatever the arm. So does an element whose ops are
/// all `memcpy` runs tiling it without a hole (big-endian, every scalar
/// at its wire width): the block's wire image is its native bytes, one
/// run of 4-byte words.
pub(crate) fn for_each_run<E>(
    arch: &Architecture,
    plan: &SavePlan,
    count: u64,
    mode: TranslationMode,
    mut f: impl FnMut(u64, Kernel, u64) -> Result<(), E>,
) -> Result<(), E> {
    if plan.ops.is_empty() {
        return Ok(());
    }
    if let Some((kernel, per_elem)) = element_as_one_run(arch, plan, mode) {
        return f(0, kernel, per_elem.saturating_mul(count));
    }
    for elem in 0..count {
        for op in &plan.ops {
            let PlanOp::ScalarRun {
                offset,
                kind,
                count: rc,
                stride,
            } = *op
            else {
                unreachable!("for_each_run requires a pointer-free plan");
            };
            f(
                elem * plan.size + offset,
                Kernel::select(arch, kind, stride, mode),
                rc,
            )?;
        }
    }
    Ok(())
}

fn element_as_one_run(
    arch: &Architecture,
    plan: &SavePlan,
    mode: TranslationMode,
) -> Option<(Kernel, u64)> {
    if let [PlanOp::ScalarRun {
        offset: 0,
        kind,
        count,
        stride,
    }] = plan.ops[..]
    {
        if count * stride == plan.size {
            return Some((Kernel::select(arch, kind, stride, mode), count));
        }
    }
    let mut at = 0u64;
    for op in &plan.ops {
        let PlanOp::ScalarRun {
            offset,
            kind,
            count,
            stride,
        } = *op
        else {
            return None;
        };
        if Kernel::select(arch, kind, stride, mode).arm != Arm::Copy || offset != at {
            return None;
        }
        at = offset + count * stride;
    }
    (at == plan.size).then_some((Kernel::WORDS, plan.size / Kernel::WORDS.wire))
}

/// `N`-byte native scalars, `stride` bytes apart in `src`, to `W`-byte
/// big-endian wire units in `out`.
fn to_wire<const N: usize, const W: usize, const LITTLE: bool>(
    src: &[u8],
    stride: usize,
    out: &mut [u8],
    signed: bool,
) {
    let one = |s: &[u8], o: &mut [u8]| {
        let mut raw = [0u8; 8];
        let mut v = if LITTLE {
            raw[..N].copy_from_slice(s);
            u64::from_le_bytes(raw)
        } else {
            raw[8 - N..].copy_from_slice(s);
            u64::from_be_bytes(raw)
        };
        if signed && N < W {
            let shift = 64 - 8 * N as u32;
            v = (((v << shift) as i64) >> shift) as u64;
        }
        o.copy_from_slice(&v.to_be_bytes()[8 - W..]);
    };
    if stride == N {
        for (s, o) in src.chunks_exact(N).zip(out.chunks_exact_mut(W)) {
            one(s, o);
        }
    } else {
        for (s, o) in src.chunks(stride).zip(out.chunks_exact_mut(W)) {
            one(&s[..N], o);
        }
    }
}

/// The inverse of [`to_wire`]: each wire unit truncated to the native
/// width, as a C store would.
fn from_wire<const N: usize, const W: usize, const LITTLE: bool>(
    wire: &[u8],
    dst: &mut [u8],
    stride: usize,
) {
    let one = |w: &[u8], d: &mut [u8]| {
        let mut raw = [0u8; 8];
        raw[8 - W..].copy_from_slice(w);
        let v = u64::from_be_bytes(raw);
        if LITTLE {
            d.copy_from_slice(&v.to_le_bytes()[..N]);
        } else {
            d.copy_from_slice(&v.to_be_bytes()[8 - N..]);
        }
    };
    if stride == N {
        for (w, d) in wire.chunks_exact(W).zip(dst.chunks_exact_mut(N)) {
            one(w, d);
        }
    } else {
        for (w, d) in wire.chunks_exact(W).zip(dst.chunks_mut(stride)) {
            one(w, &mut d[..N]);
        }
    }
}

/// Encode one scalar in its machine-independent XDR form.
fn put_scalar_xdr(enc: &mut XdrEncoder, kind: CScalar, v: ScalarValue) {
    match kind.xdr_form() {
        XdrForm::Int => enc.put_i32(v.as_i64() as i32),
        XdrForm::UInt => enc.put_u32(v.as_i64() as u32),
        XdrForm::Hyper => enc.put_i64(v.as_i64()),
        XdrForm::UHyper => enc.put_u64(v.as_i64() as u64),
        XdrForm::Float => enc.put_f32(match v {
            ScalarValue::F32(f) => f,
            other => other.as_f64() as f32,
        }),
        XdrForm::Double => enc.put_f64(v.as_f64()),
        XdrForm::LogicalPointer => unreachable!("pointers use PTR_* tags"),
    }
}

/// Decode one scalar from its wire unit `w`.
fn get_scalar_xdr(kind: CScalar, w: &[u8]) -> ScalarValue {
    let word = || u32::from_be_bytes(w.try_into().expect("a 4-byte wire unit"));
    let hyper = || u64::from_be_bytes(w.try_into().expect("an 8-byte wire unit"));
    match kind.xdr_form() {
        XdrForm::Int => ScalarValue::Int(word() as i32 as i64),
        XdrForm::UInt => ScalarValue::Uint(word() as u64),
        XdrForm::Hyper => ScalarValue::Int(hyper() as i64),
        XdrForm::UHyper => ScalarValue::Uint(hyper()),
        XdrForm::Float => ScalarValue::F32(f32::from_bits(word())),
        XdrForm::Double => ScalarValue::F64(f64::from_bits(hyper())),
        XdrForm::LogicalPointer => unreachable!("pointers use PTR_* tags"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpm_types::{Field, TypeTable};

    const BULK: TranslationMode = TranslationMode::Bulk;

    #[test]
    fn selection_table() {
        let (be, le32, le64) = (
            Architecture::sparc20(),
            Architecture::dec5000(),
            Architecture::x86_64_sim(),
        );
        let arm = |arch: &Architecture, kind, stride| Kernel::select(arch, kind, stride, BULK).arm;
        // Same width, big-endian, dense: the wire image is the memory.
        for kind in [CScalar::Int, CScalar::UInt, CScalar::Float] {
            assert_eq!(arm(&be, kind, 4), Arm::Copy);
        }
        for kind in [CScalar::LongLong, CScalar::ULongLong, CScalar::Double] {
            assert_eq!(arm(&be, kind, 8), Arm::Copy);
        }
        // Strided, narrower than the wire, or little-endian: converted.
        assert_eq!(arm(&be, CScalar::Int, 8), Arm::Convert);
        assert_eq!(arm(&be, CScalar::Char, 1), Arm::Convert);
        assert_eq!(arm(&be, CScalar::Short, 2), Arm::Convert);
        assert_eq!(arm(&be, CScalar::Long, 4), Arm::Convert);
        for kind in CScalar::ALL.into_iter().filter(|&k| k != CScalar::Ptr) {
            assert_eq!(arm(&le32, kind, le32.scalar_size(kind)), Arm::Convert);
            assert_eq!(arm(&le64, kind, le64.scalar_size(kind)), Arm::Convert);
            let per = Kernel::select(&be, kind, 8, TranslationMode::PerElement);
            assert_eq!(per.arm, Arm::PerElement);
        }
    }

    #[test]
    fn conversions_match_the_wire_form() {
        let le = Architecture::dec5000();
        let be = Architecture::sparc20();
        let encode = |arch: &Architecture, kind, stride, src: &[u8], count| {
            let mut enc = XdrEncoder::new();
            Kernel::select(arch, kind, stride, BULK).encode(arch, src, count, &mut enc);
            enc.into_bytes()
        };
        // Byte swap.
        assert_eq!(encode(&le, CScalar::Int, 4, &[4, 3, 2, 1], 1), [1, 2, 3, 4]);
        // Sign- and zero-extension, either byte order.
        assert_eq!(
            encode(&le, CScalar::Short, 2, &[0xFE, 0xFF, 0x02, 0x01], 2),
            [0xFF, 0xFF, 0xFF, 0xFE, 0, 0, 1, 2]
        );
        assert_eq!(
            encode(&be, CScalar::UShort, 2, &[0xFF, 0xFE], 1),
            [0, 0, 0xFF, 0xFE]
        );
        assert_eq!(
            encode(&be, CScalar::Long, 4, &[0x80, 0, 0, 1], 1),
            [0xFF, 0xFF, 0xFF, 0xFF, 0x80, 0, 0, 1]
        );
        // Strided: the bytes between the scalars are not read.
        assert_eq!(
            encode(&be, CScalar::Char, 4, &[0xFF, 9, 9, 9, 0x7F], 2),
            [0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0x7F]
        );

        // Decode narrows by truncation and leaves the gaps alone.
        let k = Kernel::select(&le, CScalar::Char, 4, BULK);
        let mut dst = [9u8; 5];
        k.decode(
            &le,
            &[0xFF, 0xFF, 0xFF, 0x80, 0x12, 0x34, 0x56, 0x78],
            &mut dst,
        );
        assert_eq!(dst, [0x80, 9, 9, 9, 0x78]);
        let k = Kernel::select(&le, CScalar::ULong, 4, BULK);
        let mut dst = [0u8; 4];
        k.decode(&le, &[0xFF; 8], &mut dst);
        assert_eq!(dst, [0xFF; 4]);
    }

    #[test]
    fn blocks_that_are_one_run() {
        let mut t = TypeTable::new();
        let (int, dbl, ch) = (t.int(), t.double(), t.char_());
        let arr = t.array_of(dbl, 10);
        let tiled = t
            .struct_type(
                "tiled",
                vec![
                    Field::new("d", dbl),
                    Field::new("i", int),
                    Field::new("j", int),
                ],
            )
            .unwrap();
        let holed = t
            .struct_type("holed", vec![Field::new("d", dbl), Field::new("c", ch)])
            .unwrap();
        let runs = |arch: &Architecture, ty, count| {
            let mut engine = hpm_types::layout::LayoutEngine::new();
            let plan = hpm_types::plan::compile_plan(&mut engine, &t, arch, ty).unwrap();
            let mut seen = Vec::new();
            for_each_run(arch, &plan, count, BULK, |at, k, n| {
                seen.push((at, k.arm, n));
                Ok::<(), ()>(())
            })
            .unwrap();
            seen
        };
        let (be, le) = (Architecture::ultra5(), Architecture::x86_64_sim());
        // A dense single-kind block is one run on any machine.
        assert_eq!(runs(&le, dbl, 1000), [(0, Arm::Convert, 1000)]);
        assert_eq!(runs(&le, arr, 7), [(0, Arm::Convert, 70)]);
        assert_eq!(runs(&be, ch, 5), [(0, Arm::Convert, 5)]);
        assert_eq!(runs(&be, arr, 7), [(0, Arm::Copy, 70)]);
        // Mixed kinds tile into one copy only where every op is a copy.
        assert_eq!(runs(&be, tiled, 3), [(0, Arm::Copy, 12)]);
        assert_eq!(runs(&le, tiled, 3).len(), 6);
        assert_eq!(runs(&be, holed, 3).len(), 6);
        assert!(runs(&be, int, 0).iter().all(|&(_, _, n)| n == 0));
    }
}
