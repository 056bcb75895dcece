//! # The byte-string digest — XXH64, seed 0
//!
//! Every byte string the migration hashes for identity or integrity goes
//! through [`digest64`]: canonical block encodings, the pre-copy payload
//! of a delta frame, the image id of a stream prefix. It is the published
//! XXH64 (<https://github.com/Cyan4973/xxHash/blob/dev/doc/xxhash_spec.md>)
//! with seed 0. Its four independent lanes take 32 bytes a step, so the
//! hash runs at memory speed where a byte-serial hash such as FNV-1a
//! waits on one multiply per byte. Words are read little-endian
//! explicitly, so a digest is the same on every host.

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

fn round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

fn merge(acc: u64, lane: u64) -> u64 {
    (acc ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4)
}

fn le64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("eight bytes"))
}

fn le32(b: &[u8]) -> u64 {
    u32::from_le_bytes(b[..4].try_into().expect("four bytes")) as u64
}

/// XXH64 of `bytes` with seed 0.
pub fn digest64(bytes: &[u8]) -> u64 {
    let stripes = bytes.chunks_exact(32);
    let tail = stripes.remainder();
    let mut acc = if bytes.len() >= 32 {
        let mut v = [P1.wrapping_add(P2), P2, 0, 0u64.wrapping_sub(P1)];
        for s in stripes {
            v[0] = round(v[0], le64(&s[0..]));
            v[1] = round(v[1], le64(&s[8..]));
            v[2] = round(v[2], le64(&s[16..]));
            v[3] = round(v[3], le64(&s[24..]));
        }
        let acc = v[0]
            .rotate_left(1)
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        v.into_iter().fold(acc, merge)
    } else {
        P5
    };
    acc = acc.wrapping_add(bytes.len() as u64);
    let words = tail.chunks_exact(8);
    let mut rest = words.remainder();
    for w in words {
        acc = (acc ^ round(0, le64(w)))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
    }
    if rest.len() >= 4 {
        acc = (acc ^ le32(rest).wrapping_mul(P1))
            .rotate_left(23)
            .wrapping_mul(P2)
            .wrapping_add(P3);
        rest = &rest[4..];
    }
    for &b in rest {
        acc = (acc ^ (b as u64).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }
    acc ^= acc >> 33;
    acc = acc.wrapping_mul(P2);
    acc ^= acc >> 29;
    acc = acc.wrapping_mul(P3);
    acc ^ (acc >> 32)
}

#[cfg(test)]
mod tests {
    use super::digest64;
    use std::collections::HashSet;

    #[test]
    fn published_vectors() {
        assert_eq!(digest64(b""), 0xef46_db37_51d8_e999);
        assert_eq!(digest64(b"a"), 0xd24e_c4f1_a98c_6e5b);
        assert_eq!(digest64(b"abc"), 0x44bc_2cf5_ad77_0999);
        // 39 bytes: one 32-byte stripe, then a 4-byte word and three bytes.
        let spam = b"Nobody inspects the spammish repetition";
        assert_eq!(spam.len(), 39);
        assert_eq!(digest64(spam), 0xfbce_a83c_8a37_8bf1);
    }

    fn pattern(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 31 + 7) as u8).collect()
    }

    #[test]
    fn every_length_hashes_distinctly() {
        let p = pattern(100);
        let seen: HashSet<u64> = (0..=100).map(|n| digest64(&p[..n])).collect();
        assert_eq!(seen.len(), 101);
    }

    #[test]
    fn every_bit_flip_changes_the_digest() {
        let mut p = pattern(100);
        let base = digest64(&p);
        let mut seen = HashSet::from([base]);
        for bit in 0..p.len() * 8 {
            p[bit / 8] ^= 1 << (bit % 8);
            assert!(seen.insert(digest64(&p)), "bit {bit}");
            p[bit / 8] ^= 1 << (bit % 8);
        }
    }
}
