//! Structural type fingerprints.
//!
//! The migration image labels every transmitted block with a fingerprint
//! of its element type so a receiver whose TI table diverged (different
//! program version, corrupted stream) fails loudly instead of silently
//! misinterpreting bytes. Fingerprints are *structural* and
//! machine-independent: two processes compiled for different
//! architectures produce identical fingerprints for the same source type.

use hpm_types::{TypeDef, TypeId, TypeTable};

// FNV-1a, kept for fingerprints alone: their values travel in `TYPEDEF`
// records, and each type is hashed once per image.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Digest of an opaque byte string: [`hpm_xdr::digest64`] (XXH64, seed
/// 0). The delta-migration layer uses this over *machine-independent*
/// encodings (canonical block bytes, framed images), so the digest of the
/// same logical content is identical on every architecture.
pub fn content_digest(bytes: &[u8]) -> u64 {
    hpm_xdr::digest64(bytes)
}

/// Machine-independent structural fingerprint of `ty`.
///
/// Struct types hash by tag name plus field names/types; pointers hash by
/// a marker plus the pointee's *name* when the pointee is a struct (which
/// keeps recursive types like `struct node` terminating).
pub fn type_fingerprint(table: &TypeTable, ty: TypeId) -> u64 {
    hash_type(table, ty, FNV_OFFSET)
}

fn hash_type(table: &TypeTable, ty: TypeId, h: u64) -> u64 {
    match table.def(ty) {
        TypeDef::Scalar(s) => fnv(h, s.c_name().as_bytes()),
        TypeDef::Pointer(p) => {
            let h = fnv(h, b"*");
            match table.def(*p) {
                // Name-only for struct pointees: cycle-safe.
                TypeDef::Struct { name, .. } => fnv(h, name.as_bytes()),
                _ => hash_type(table, *p, h),
            }
        }
        TypeDef::Array { elem, count } => {
            let h = fnv(h, b"[");
            let h = fnv(h, &count.to_le_bytes());
            hash_type(table, *elem, h)
        }
        TypeDef::Struct { name, fields } => {
            let mut h = fnv(h, b"{");
            h = fnv(h, name.as_bytes());
            if let Some(fs) = fields {
                for f in fs {
                    h = fnv(h, f.name.as_bytes());
                    h = hash_type(table, f.ty, h);
                }
            }
            h
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpm_types::Field;

    #[test]
    fn identical_construction_identical_fingerprint() {
        let build = || {
            let mut t = TypeTable::new();
            let node = t.declare_struct("node");
            let link = t.pointer_to(node);
            let f = t.float();
            t.define_struct(node, vec![Field::new("data", f), Field::new("link", link)])
                .unwrap();
            let fp = type_fingerprint(&t, node);
            (t, node, fp)
        };
        let (_, _, a) = build();
        let (_, _, b) = build();
        assert_eq!(a, b);
    }

    #[test]
    fn different_types_differ() {
        let mut t = TypeTable::new();
        let i = t.int();
        let d = t.double();
        let ai = t.array_of(i, 10);
        let ai2 = t.array_of(i, 11);
        assert_ne!(type_fingerprint(&t, i), type_fingerprint(&t, d));
        assert_ne!(type_fingerprint(&t, ai), type_fingerprint(&t, ai2));
        assert_ne!(type_fingerprint(&t, i), type_fingerprint(&t, ai));
    }

    #[test]
    fn recursive_struct_terminates() {
        let mut t = TypeTable::new();
        let node = t.declare_struct("node");
        let link = t.pointer_to(node);
        let f = t.float();
        t.define_struct(node, vec![Field::new("data", f), Field::new("link", link)])
            .unwrap();
        // Must not hang or overflow.
        let fp = type_fingerprint(&t, node);
        assert_ne!(fp, 0);
    }

    #[test]
    fn mutually_recursive_structs_terminate() {
        let mut t = TypeTable::new();
        let a = t.declare_struct("A");
        let b = t.declare_struct("B");
        let pa = t.pointer_to(a);
        let pb = t.pointer_to(b);
        t.define_struct(a, vec![Field::new("b", pb)]).unwrap();
        t.define_struct(b, vec![Field::new("a", pa)]).unwrap();
        assert_ne!(type_fingerprint(&t, a), type_fingerprint(&t, b));
    }

    #[test]
    fn field_rename_changes_fingerprint() {
        let mut t1 = TypeTable::new();
        let i1 = t1.int();
        let s1 = t1.struct_type("s", vec![Field::new("x", i1)]).unwrap();
        let mut t2 = TypeTable::new();
        let i2 = t2.int();
        let s2 = t2.struct_type("s", vec![Field::new("y", i2)]).unwrap();
        assert_ne!(type_fingerprint(&t1, s1), type_fingerprint(&t2, s2));
    }

    #[test]
    fn fingerprint_is_arch_independent_by_construction() {
        // The fingerprint never consults an Architecture — this test
        // simply documents that two tables built by "the same program"
        // on different machines agree (tables are arch-free).
        let mut t = TypeTable::new();
        let d = t.double();
        let m = t.array_of(d, 1_000_000);
        let fp1 = type_fingerprint(&t, m);
        let fp2 = type_fingerprint(&t.clone(), m);
        assert_eq!(fp1, fp2);
    }
}
