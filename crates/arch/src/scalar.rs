//! C scalar types, their per-machine layouts, and runtime scalar values.

/// The C scalar types recognized by the Type Information (TI) table.
///
/// These are the leaf types out of which every memory block is built;
/// aggregate types (arrays, structs) are defined in `hpm-types` in terms
/// of these leaves plus [`CScalar::Ptr`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CScalar {
    /// `char` — signed 1-byte integer (both testbed compilers treat plain
    /// `char` as signed).
    Char,
    /// `unsigned char`.
    UChar,
    /// `short` — 2 bytes on every preset.
    Short,
    /// `unsigned short`.
    UShort,
    /// `int` — 4 bytes on every preset.
    Int,
    /// `unsigned int`.
    UInt,
    /// `long` — 4 bytes on ILP32 machines, 8 on LP64.
    Long,
    /// `unsigned long`.
    ULong,
    /// `long long` — 8 bytes everywhere.
    LongLong,
    /// `unsigned long long`.
    ULongLong,
    /// `float` — IEEE-754 single precision.
    Float,
    /// `double` — IEEE-754 double precision.
    Double,
    /// A data pointer. Width and alignment come from the
    /// [`Architecture`](crate::Architecture), not from [`ScalarLayout`].
    Ptr,
}

impl CScalar {
    /// All scalar kinds, for exhaustive testing.
    pub const ALL: [CScalar; 13] = [
        CScalar::Char,
        CScalar::UChar,
        CScalar::Short,
        CScalar::UShort,
        CScalar::Int,
        CScalar::UInt,
        CScalar::Long,
        CScalar::ULong,
        CScalar::LongLong,
        CScalar::ULongLong,
        CScalar::Float,
        CScalar::Double,
        CScalar::Ptr,
    ];

    /// Whether the scalar is a signed integer type.
    #[inline]
    pub fn is_signed(self) -> bool {
        matches!(
            self,
            CScalar::Char | CScalar::Short | CScalar::Int | CScalar::Long | CScalar::LongLong
        )
    }

    /// Whether the scalar is any integer type (signed or unsigned).
    pub fn is_integer(self) -> bool {
        !matches!(self, CScalar::Float | CScalar::Double | CScalar::Ptr)
    }

    /// Whether the scalar is a floating-point type.
    pub fn is_float(self) -> bool {
        matches!(self, CScalar::Float | CScalar::Double)
    }

    /// The machine-independent (XDR) wire form this scalar is carried in.
    ///
    /// Widths that vary across machines (e.g. `long`) are carried in the
    /// widest form (`hyper`) so no migration direction loses bits; the
    /// destination's TI restoring function narrows to the local width.
    pub fn xdr_form(self) -> XdrForm {
        match self {
            CScalar::Char | CScalar::Short | CScalar::Int => XdrForm::Int,
            CScalar::UChar | CScalar::UShort | CScalar::UInt => XdrForm::UInt,
            CScalar::Long | CScalar::LongLong => XdrForm::Hyper,
            CScalar::ULong | CScalar::ULongLong => XdrForm::UHyper,
            CScalar::Float => XdrForm::Float,
            CScalar::Double => XdrForm::Double,
            // Pointers never travel as raw addresses: they are rewritten
            // into (header, offset) logical form by Save_pointer.
            CScalar::Ptr => XdrForm::LogicalPointer,
        }
    }

    /// C source spelling, used by the TI table and the mini-C front end.
    pub fn c_name(self) -> &'static str {
        match self {
            CScalar::Char => "char",
            CScalar::UChar => "unsigned char",
            CScalar::Short => "short",
            CScalar::UShort => "unsigned short",
            CScalar::Int => "int",
            CScalar::UInt => "unsigned int",
            CScalar::Long => "long",
            CScalar::ULong => "unsigned long",
            CScalar::LongLong => "long long",
            CScalar::ULongLong => "unsigned long long",
            CScalar::Float => "float",
            CScalar::Double => "double",
            CScalar::Ptr => "ptr",
        }
    }
}

/// The machine-independent wire representation of a scalar (the second
/// software layer of §4: XDR).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum XdrForm {
    /// 4-byte big-endian two's-complement integer.
    Int,
    /// 4-byte big-endian unsigned integer.
    UInt,
    /// 8-byte big-endian two's-complement integer (XDR "hyper").
    Hyper,
    /// 8-byte big-endian unsigned integer.
    UHyper,
    /// 4-byte IEEE-754 single, big-endian.
    Float,
    /// 8-byte IEEE-754 double, big-endian.
    Double,
    /// A Save_pointer-rewritten pointer: tag + (group, index, offset).
    LogicalPointer,
}

impl XdrForm {
    /// Fewest bytes one value of this form takes on the wire: the fixed
    /// width of a scalar form, the bare `PTR_NULL` tag of a pointer.
    pub fn min_wire_bytes(self) -> u64 {
        match self {
            XdrForm::Int | XdrForm::UInt | XdrForm::Float | XdrForm::LogicalPointer => 4,
            XdrForm::Hyper | XdrForm::UHyper | XdrForm::Double => 8,
        }
    }
}

/// Size and alignment of every non-pointer C scalar on one machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScalarLayout {
    long_size: u64,
    long_align: u64,
    double_align: u64,
    longlong_align: u64,
}

impl ScalarLayout {
    /// ILP32 layout used by all three of the paper's machines: `long` is
    /// 4 bytes; `double` and `long long` are 8 bytes, 8-aligned.
    pub fn ilp32() -> Self {
        ScalarLayout {
            long_size: 4,
            long_align: 4,
            double_align: 8,
            longlong_align: 8,
        }
    }

    /// LP64 layout (modern 64-bit Unix): `long` is 8 bytes, 8-aligned.
    pub fn lp64() -> Self {
        ScalarLayout {
            long_size: 8,
            long_align: 8,
            double_align: 8,
            longlong_align: 8,
        }
    }

    /// An ILP32 variant with 4-byte alignment for 8-byte scalars, as the
    /// classic m68k-style ABIs used. Exercises padding differences even
    /// between two 32-bit little-endian machines.
    pub fn ilp32_packed_doubles() -> Self {
        ScalarLayout {
            long_size: 4,
            long_align: 4,
            double_align: 4,
            longlong_align: 4,
        }
    }

    /// Storage size in bytes of a non-pointer scalar.
    ///
    /// # Panics
    /// Panics on [`CScalar::Ptr`]; pointer width belongs to the
    /// [`Architecture`](crate::Architecture).
    #[inline]
    pub fn size(&self, s: CScalar) -> u64 {
        match s {
            CScalar::Char | CScalar::UChar => 1,
            CScalar::Short | CScalar::UShort => 2,
            CScalar::Int | CScalar::UInt | CScalar::Float => 4,
            CScalar::Long | CScalar::ULong => self.long_size,
            CScalar::LongLong | CScalar::ULongLong | CScalar::Double => 8,
            CScalar::Ptr => panic!("pointer size is an Architecture property"),
        }
    }

    /// Alignment in bytes of a non-pointer scalar.
    ///
    /// # Panics
    /// Panics on [`CScalar::Ptr`].
    pub fn align(&self, s: CScalar) -> u64 {
        match s {
            CScalar::Char | CScalar::UChar => 1,
            CScalar::Short | CScalar::UShort => 2,
            CScalar::Int | CScalar::UInt | CScalar::Float => 4,
            CScalar::Long | CScalar::ULong => self.long_align,
            CScalar::LongLong | CScalar::ULongLong => self.longlong_align,
            CScalar::Double => self.double_align,
            CScalar::Ptr => panic!("pointer alignment is an Architecture property"),
        }
    }
}

/// A runtime scalar value, independent of any machine representation.
///
/// Signed integers of every width are held in [`ScalarValue::Int`];
/// unsigned in [`ScalarValue::Uint`]. Stores narrow to the destination's
/// storage width; loads widen back (sign- or zero-extending), exactly like
/// C assignment semantics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScalarValue {
    /// Any signed integer (char..long long).
    Int(i64),
    /// Any unsigned integer.
    Uint(u64),
    /// `float`.
    F32(f32),
    /// `double`.
    F64(f64),
    /// A pointer: a raw simulated address (0 is NULL).
    Ptr(u64),
}

impl ScalarValue {
    /// A representative scalar kind for encode/decode width selection.
    ///
    /// Note this is the *widest* kind of the value's class; callers that
    /// know the declared type (via the TI table) should use that instead.
    pub fn kind(self) -> CScalar {
        match self {
            ScalarValue::Int(_) => CScalar::LongLong,
            ScalarValue::Uint(_) => CScalar::ULongLong,
            ScalarValue::F32(_) => CScalar::Float,
            ScalarValue::F64(_) => CScalar::Double,
            ScalarValue::Ptr(_) => CScalar::Ptr,
        }
    }

    /// Interpret the value as an i64, converting unsigned/float values
    /// with C semantics (float → int truncates toward zero).
    #[inline]
    pub fn as_i64(self) -> i64 {
        match self {
            ScalarValue::Int(v) => v,
            ScalarValue::Uint(v) => v as i64,
            ScalarValue::F32(f) => f as i64,
            ScalarValue::F64(f) => f as i64,
            ScalarValue::Ptr(p) => p as i64,
        }
    }

    /// Interpret the value as an f64.
    #[inline]
    pub fn as_f64(self) -> f64 {
        match self {
            ScalarValue::Int(v) => v as f64,
            ScalarValue::Uint(v) => v as f64,
            ScalarValue::F32(f) => f as f64,
            ScalarValue::F64(f) => f,
            ScalarValue::Ptr(p) => p as f64,
        }
    }

    /// Interpret the value as a raw address.
    #[inline]
    pub fn as_ptr(self) -> u64 {
        match self {
            ScalarValue::Ptr(p) => p,
            ScalarValue::Int(v) => v as u64,
            ScalarValue::Uint(v) => v,
            other => panic!("not a pointer value: {other:?}"),
        }
    }

    /// Whether the value is zero / NULL (C truthiness).
    pub fn is_zero(self) -> bool {
        match self {
            ScalarValue::Int(v) => v == 0,
            ScalarValue::Uint(v) => v == 0,
            ScalarValue::F32(f) => f == 0.0,
            ScalarValue::F64(f) => f == 0.0,
            ScalarValue::Ptr(p) => p == 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ilp32_sizes_match_paper_machines() {
        let l = ScalarLayout::ilp32();
        assert_eq!(l.size(CScalar::Char), 1);
        assert_eq!(l.size(CScalar::Int), 4);
        assert_eq!(l.size(CScalar::Long), 4);
        assert_eq!(l.size(CScalar::Double), 8);
        assert_eq!(l.align(CScalar::Double), 8);
    }

    #[test]
    fn lp64_long_is_8() {
        let l = ScalarLayout::lp64();
        assert_eq!(l.size(CScalar::Long), 8);
        assert_eq!(l.align(CScalar::Long), 8);
    }

    #[test]
    fn packed_doubles_differ_only_in_alignment() {
        let a = ScalarLayout::ilp32();
        let b = ScalarLayout::ilp32_packed_doubles();
        assert_eq!(a.size(CScalar::Double), b.size(CScalar::Double));
        assert_ne!(a.align(CScalar::Double), b.align(CScalar::Double));
    }

    #[test]
    #[should_panic]
    fn ptr_size_not_in_scalar_layout() {
        ScalarLayout::ilp32().size(CScalar::Ptr);
    }

    #[test]
    fn xdr_forms_are_wide_enough() {
        // long must travel as hyper so LP64 longs survive.
        assert_eq!(CScalar::Long.xdr_form(), XdrForm::Hyper);
        assert_eq!(CScalar::Ptr.xdr_form(), XdrForm::LogicalPointer);
        assert_eq!(CScalar::Int.xdr_form(), XdrForm::Int);
    }

    #[test]
    fn signedness_classification() {
        assert!(CScalar::Char.is_signed());
        assert!(!CScalar::UChar.is_signed());
        assert!(CScalar::Int.is_integer());
        assert!(!CScalar::Double.is_integer());
        assert!(CScalar::Float.is_float());
        assert!(!CScalar::Ptr.is_integer());
    }

    #[test]
    fn value_conversions() {
        assert_eq!(ScalarValue::F64(3.9).as_i64(), 3);
        assert_eq!(ScalarValue::Int(-2).as_f64(), -2.0);
        assert!(ScalarValue::Ptr(0).is_zero());
        assert!(!ScalarValue::F32(0.5).is_zero());
        assert_eq!(ScalarValue::Ptr(64).as_ptr(), 64);
    }
}
