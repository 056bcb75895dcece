//! # hpm-arch — target architecture descriptions
//!
//! The paper migrates processes between machines with *different data
//! representations*: a DEC 5000/120 (little-endian 32-bit MIPS, Ultrix) and
//! a SUN SPARC 20 (big-endian 32-bit, Solaris), plus homogeneous Ultra 5
//! pairs for the timing study. This crate captures everything about a
//! target that the data collection and restoration machinery needs:
//!
//! * byte order ([`Endianness`]),
//! * the size and alignment of every C scalar type ([`ScalarLayout`]),
//! * the pointer width,
//! * the base address and extent of each memory segment
//!   ([`SegmentKind`], [`SegmentMap`]),
//! * routines to encode/decode scalar values to and from native bytes
//!   ([`Architecture::encode_scalar`], [`Architecture::decode_scalar`]).
//!
//! Four presets mirror the paper's testbed: [`Architecture::dec5000`],
//! [`Architecture::sparc20`], [`Architecture::ultra5`], and a modern
//! [`Architecture::x86_64_sim`] to demonstrate 32→64-bit pointer-width
//! migration, which the paper's model permits but its testbed never
//! exercised.

#![forbid(unsafe_code)]

mod endian;
mod scalar;
mod segment;

pub use endian::Endianness;
pub use scalar::{CScalar, ScalarLayout, ScalarValue, XdrForm};
pub use segment::{SegmentKind, SegmentMap, SegmentSpan};

/// A complete description of one target machine's data representation.
///
/// Two [`Architecture`]s are *heterogeneous* when any representational
/// property differs; [`Architecture::is_heterogeneous_with`] reports this.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Architecture {
    /// Human-readable machine name (e.g. `"DEC 5000/120 (Ultrix)"`).
    pub name: &'static str,
    /// Byte order for multi-byte scalars.
    pub endianness: Endianness,
    /// Pointer size in bytes (4 on the paper's machines, 8 on x86-64).
    pub pointer_size: u64,
    /// Pointer alignment in bytes.
    pub pointer_align: u64,
    /// Layout of each C scalar type on this machine.
    pub scalars: ScalarLayout,
    /// Where the global, stack, and heap segments live.
    pub segments: SegmentMap,
}

impl Architecture {
    /// DEC 5000/120 running Ultrix: little-endian 32-bit MIPS R3000.
    ///
    /// The *source* machine of every heterogeneous experiment in §4.1.
    pub fn dec5000() -> Self {
        Architecture {
            name: "DEC 5000/120 (Ultrix, MIPS)",
            endianness: Endianness::Little,
            pointer_size: 4,
            pointer_align: 4,
            scalars: ScalarLayout::ilp32(),
            segments: SegmentMap::classic_32(),
        }
    }

    /// SUN SPARC 20 running Solaris 2.5: big-endian 32-bit SPARC.
    ///
    /// The *destination* machine of every heterogeneous experiment in §4.1.
    pub fn sparc20() -> Self {
        Architecture {
            name: "SUN SPARC 20 (Solaris 2.5)",
            endianness: Endianness::Big,
            pointer_size: 4,
            pointer_align: 4,
            scalars: ScalarLayout::ilp32(),
            segments: SegmentMap::classic_32(),
        }
    }

    /// SUN Ultra 5 (UltraSPARC IIi, Solaris): big-endian, ILP32 ABI.
    ///
    /// The machine pair used for the homogeneous timing study (Table 1,
    /// Figure 2) over 100 Mb/s Ethernet.
    pub fn ultra5() -> Self {
        Architecture {
            name: "SUN Ultra 5 (Solaris, ILP32)",
            endianness: Endianness::Big,
            pointer_size: 4,
            pointer_align: 4,
            scalars: ScalarLayout::ilp32(),
            segments: SegmentMap::classic_32(),
        }
    }

    /// A modern little-endian LP64 machine (x86-64-like).
    ///
    /// Not in the paper's testbed; included to exercise pointer-width
    /// translation (4-byte ↔ 8-byte pointers) through the same machinery.
    pub fn x86_64_sim() -> Self {
        Architecture {
            name: "x86-64 (LP64, simulated)",
            endianness: Endianness::Little,
            pointer_size: 8,
            pointer_align: 8,
            scalars: ScalarLayout::lp64(),
            segments: SegmentMap::classic_64(),
        }
    }

    /// All built-in presets, for exhaustive cross-product testing.
    pub fn presets() -> Vec<Architecture> {
        vec![
            Architecture::dec5000(),
            Architecture::sparc20(),
            Architecture::ultra5(),
            Architecture::x86_64_sim(),
        ]
    }

    /// Size in bytes of the given scalar on this machine.
    #[inline]
    pub fn scalar_size(&self, s: CScalar) -> u64 {
        if s == CScalar::Ptr {
            self.pointer_size
        } else {
            self.scalars.size(s)
        }
    }

    /// Alignment in bytes of the given scalar on this machine.
    pub fn scalar_align(&self, s: CScalar) -> u64 {
        if s == CScalar::Ptr {
            self.pointer_align
        } else {
            self.scalars.align(s)
        }
    }

    /// Encode `value` as a scalar of declared type `kind` into native bytes
    /// for this machine, appending to `out`.
    ///
    /// The number of bytes appended equals [`Architecture::scalar_size`]
    /// `(kind)`. Values are truncated/extended to the machine's storage
    /// width exactly as a C store would (e.g. a `long` holding
    /// `0x1_0000_0001` stores `0x0000_0001` on an ILP32 machine).
    #[inline]
    pub fn encode_scalar(&self, kind: CScalar, value: ScalarValue, out: &mut Vec<u8>) {
        let raw: u64 = match (kind, value) {
            // A `float` leaf keeps its bits: a widen/narrow round trip
            // would quiet a signalling NaN.
            (CScalar::Float, ScalarValue::F32(f)) => f.to_bits() as u64,
            (CScalar::Float, v) => (v.as_f64() as f32).to_bits() as u64,
            (CScalar::Double, v) => v.as_f64().to_bits(),
            (CScalar::Ptr, v) => v.as_ptr(),
            (_, ScalarValue::Int(v)) => v as u64,
            (_, ScalarValue::Uint(v)) => v,
            (_, ScalarValue::F32(f)) => f as i64 as u64,
            (_, ScalarValue::F64(f)) => f as i64 as u64,
            (_, ScalarValue::Ptr(p)) => p,
        };
        let little = self.endianness == Endianness::Little;
        macro_rules! store {
            ($t:ty) => {{
                let v = raw as $t;
                out.extend_from_slice(&if little {
                    v.to_le_bytes()
                } else {
                    v.to_be_bytes()
                })
            }};
        }
        match self.scalar_size(kind) {
            1 => out.push(raw as u8),
            2 => store!(u16),
            4 => store!(u32),
            8 => store!(u64),
            n => panic!(
                "{kind:?} is {n} bytes wide on {}; scalars are 1, 2, 4 or 8",
                self.name
            ),
        }
    }

    /// Decode the native bytes of scalar `kind` from `bytes`.
    ///
    /// `bytes` must be exactly [`Architecture::scalar_size`]`(kind)` long.
    /// Signed integers are sign-extended from the machine's storage width.
    #[inline]
    pub fn decode_scalar(&self, kind: CScalar, bytes: &[u8]) -> ScalarValue {
        let size = self.scalar_size(kind) as usize;
        assert_eq!(
            bytes.len(),
            size,
            "decode_scalar: {kind:?} on {} needs {size} bytes, got {}",
            self.name,
            bytes.len()
        );
        let little = self.endianness == Endianness::Little;
        macro_rules! load {
            ($t:ty) => {{
                let b = bytes.try_into().expect("length checked above");
                (if little {
                    <$t>::from_le_bytes(b)
                } else {
                    <$t>::from_be_bytes(b)
                }) as u64
            }};
        }
        let unsigned = match size {
            1 => bytes[0] as u64,
            2 => load!(u16),
            4 => load!(u32),
            8 => load!(u64),
            n => panic!(
                "{kind:?} is {n} bytes wide on {}; scalars are 1, 2, 4 or 8",
                self.name
            ),
        };
        match kind {
            CScalar::Float => ScalarValue::F32(f32::from_bits(unsigned as u32)),
            CScalar::Double => ScalarValue::F64(f64::from_bits(unsigned)),
            CScalar::Ptr => ScalarValue::Ptr(unsigned),
            k if k.is_signed() => ScalarValue::Int(sign_extend(unsigned, size)),
            _ => ScalarValue::Uint(unsigned),
        }
    }

    /// True when migrating between `self` and `other` requires any data
    /// transformation (byte order, scalar widths, pointer width, or
    /// segment placement).
    pub fn is_heterogeneous_with(&self, other: &Architecture) -> bool {
        self.endianness != other.endianness
            || self.pointer_size != other.pointer_size
            || self.scalars != other.scalars
            || self.segments != other.segments
    }
}

fn sign_extend(raw: u64, size: usize) -> i64 {
    debug_assert!((1..=8).contains(&size));
    if size == 8 {
        return raw as i64;
    }
    let shift = 64 - (size * 8);
    ((raw << shift) as i64) >> shift
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dec_is_little_sparc_is_big() {
        assert_eq!(Architecture::dec5000().endianness, Endianness::Little);
        assert_eq!(Architecture::sparc20().endianness, Endianness::Big);
        assert!(Architecture::dec5000().is_heterogeneous_with(&Architecture::sparc20()));
    }

    #[test]
    fn ultra5_pair_is_homogeneous() {
        let a = Architecture::ultra5();
        let b = Architecture::ultra5();
        assert!(!a.is_heterogeneous_with(&b));
    }

    #[test]
    fn pointer_width_differs_on_lp64() {
        let m32 = Architecture::sparc20();
        let m64 = Architecture::x86_64_sim();
        assert_eq!(m32.scalar_size(CScalar::Ptr), 4);
        assert_eq!(m64.scalar_size(CScalar::Ptr), 8);
        assert!(m32.is_heterogeneous_with(&m64));
    }

    #[test]
    fn int_roundtrip_little() {
        let a = Architecture::dec5000();
        let mut buf = Vec::new();
        a.encode_scalar(CScalar::Int, ScalarValue::Int(-123456), &mut buf);
        assert_eq!(buf.len(), 4);
        // little-endian: low byte first
        assert_eq!(buf[0], (-123456i32).to_le_bytes()[0]);
        assert_eq!(
            a.decode_scalar(CScalar::Int, &buf),
            ScalarValue::Int(-123456)
        );
    }

    #[test]
    fn int_roundtrip_big() {
        let a = Architecture::sparc20();
        let mut buf = Vec::new();
        a.encode_scalar(CScalar::Int, ScalarValue::Int(-123456), &mut buf);
        assert_eq!(buf.len(), 4);
        assert_eq!(buf, (-123456i32).to_be_bytes().to_vec());
        assert_eq!(
            a.decode_scalar(CScalar::Int, &buf),
            ScalarValue::Int(-123456)
        );
    }

    #[test]
    fn same_value_different_bytes_across_endianness() {
        let le = Architecture::dec5000();
        let be = Architecture::sparc20();
        let mut b_le = Vec::new();
        let mut b_be = Vec::new();
        le.encode_scalar(CScalar::Int, ScalarValue::Int(0x0102_0304), &mut b_le);
        be.encode_scalar(CScalar::Int, ScalarValue::Int(0x0102_0304), &mut b_be);
        assert_eq!(b_le, vec![0x04, 0x03, 0x02, 0x01]);
        assert_eq!(b_be, vec![0x01, 0x02, 0x03, 0x04]);
    }

    #[test]
    fn double_roundtrip_both_endians() {
        for a in Architecture::presets() {
            let mut buf = Vec::new();
            let v = std::f64::consts::PI;
            a.encode_scalar(CScalar::Double, ScalarValue::F64(v), &mut buf);
            assert_eq!(buf.len(), 8, "{}", a.name);
            match a.decode_scalar(CScalar::Double, &buf) {
                ScalarValue::F64(got) => assert_eq!(got.to_bits(), v.to_bits()),
                other => panic!("expected F64, got {other:?}"),
            }
        }
    }

    #[test]
    fn char_sign_extension() {
        let a = Architecture::sparc20();
        let mut buf = Vec::new();
        a.encode_scalar(CScalar::Int, ScalarValue::Int(-1), &mut buf);
        // Int is 4 bytes; now decode a Char (1 byte) from a 0xFF byte.
        let c = a.decode_scalar(CScalar::Char, &buf[3..4]);
        assert_eq!(c, ScalarValue::Int(-1));
    }

    #[test]
    fn long_width_depends_on_arch() {
        assert_eq!(Architecture::dec5000().scalar_size(CScalar::Long), 4);
        assert_eq!(Architecture::x86_64_sim().scalar_size(CScalar::Long), 8);
    }

    #[test]
    fn pointer_truncation_on_32bit() {
        let a = Architecture::sparc20();
        let mut buf = Vec::new();
        a.encode_scalar(CScalar::Ptr, ScalarValue::Ptr(0xDEAD_BEEF), &mut buf);
        assert_eq!(buf.len(), 4);
        assert_eq!(
            a.decode_scalar(CScalar::Ptr, &buf),
            ScalarValue::Ptr(0xDEAD_BEEF)
        );
    }

    #[test]
    fn every_kind_roundtrips_at_its_width_on_every_preset() {
        for a in Architecture::presets() {
            for kind in CScalar::ALL {
                let v = match kind {
                    CScalar::Float => ScalarValue::F32(-1.5),
                    CScalar::Double => ScalarValue::F64(-1.5),
                    CScalar::Ptr => ScalarValue::Ptr(0x1234_5678),
                    k if k.is_signed() => ScalarValue::Int(-77),
                    _ => ScalarValue::Uint(200),
                };
                let mut buf = vec![0xEE];
                a.encode_scalar(kind, v, &mut buf);
                assert_eq!(buf.len() as u64, 1 + a.scalar_size(kind), "{kind:?}");
                assert_eq!(
                    a.decode_scalar(kind, &buf[1..]),
                    v,
                    "{kind:?} on {}",
                    a.name
                );
            }
        }
    }

    #[test]
    fn signalling_nan_float_keeps_its_bits() {
        // f32 → f64 → f32 sets the quiet bit; a stored `float` must not
        // take that detour.
        for a in Architecture::presets() {
            for bits in [0x7FA0_0001u32, 0xFFA0_0001] {
                let mut buf = Vec::new();
                a.encode_scalar(
                    CScalar::Float,
                    ScalarValue::F32(f32::from_bits(bits)),
                    &mut buf,
                );
                match a.decode_scalar(CScalar::Float, &buf) {
                    ScalarValue::F32(f) => assert_eq!(f.to_bits(), bits, "{}", a.name),
                    other => panic!("expected F32, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn sign_extend_helper() {
        assert_eq!(sign_extend(0xFF, 1), -1);
        assert_eq!(sign_extend(0x7F, 1), 127);
        assert_eq!(sign_extend(0xFFFF_FFFF, 4), -1);
        assert_eq!(sign_extend(u64::MAX, 8), -1);
    }
}
