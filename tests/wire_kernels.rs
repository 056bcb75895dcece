//! The kernels under the chunk frame, checked against references that
//! are too slow to ship: CRC-32 a byte at a time, and the compressor by
//! round-trip over the shapes a migration image is made of.
//!
//! CI runs this file with `--release` as well: the CRC tables are indexed
//! and the compressor's epoch counter wraps, and both behave differently
//! when overflow checks are compiled out.

use hpm::xdr::{
    compress, crc32, decompress, frame_chunk_v3, unframe_chunk_any, XdrDecoder, XdrError,
};

/// splitmix64: the seeded byte source of every sweep below.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The textbook CRC-32 (IEEE 802.3, reflected 0xEDB88320), bit by bit:
/// what `crc32` must equal on every input.
fn crc32_reference(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                0xEDB8_8320 ^ (crc >> 1)
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

#[test]
fn sliced_crc_equals_the_bytewise_reference() {
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32(b""), 0);
    assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    let mut rng = Rng(20);
    let buf: Vec<u8> = (0..(1 << 20) + 8).map(|_| rng.next() as u8).collect();
    // Every length across several block boundaries of the sliced kernel,
    // at every alignment of the first block.
    for start in 0..8 {
        for len in 0..=130 {
            let s = &buf[start..start + len];
            assert_eq!(crc32(s), crc32_reference(s), "start {start} len {len}");
        }
    }
    let mib = &buf[3..3 + (1 << 20)];
    assert_eq!(crc32(mib), crc32_reference(mib));
}

/// The shapes an image section takes, `len` bytes of each.
fn shapes(len: usize, seed: u64) -> Vec<(&'static str, Vec<u8>)> {
    let mut rng = Rng(seed);
    let doubles = |be: bool| -> Vec<u8> {
        (0..len.div_ceil(8))
            .flat_map(|i| {
                let v = (i as f64 * 1e-3).sin() * 100.0;
                if be {
                    v.to_bits().to_be_bytes()
                } else {
                    v.to_bits().to_le_bytes()
                }
            })
            .take(len)
            .collect()
    };
    let small_ints: Vec<u8> = (0..len.div_ceil(4))
        .flat_map(|_| ((rng.next() % 1000) as u32).to_be_bytes())
        .take(len)
        .collect();
    let random: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
    let period = 3 + (seed as usize % 37);
    let motif: Vec<u8> = (0..period).map(|_| rng.next() as u8).collect();
    let periodic: Vec<u8> = motif.iter().copied().cycle().take(len).collect();
    vec![
        ("be_doubles", doubles(true)),
        ("le_doubles", doubles(false)),
        ("small_ints", small_ints),
        ("random", random),
        ("zeros", vec![0u8; len]),
        ("periodic", periodic),
    ]
}

const LENGTHS: [usize; 10] = [0, 1, 7, 8, 63, 64, 65, 4_095, 32_768, 1 << 20];

fn assert_roundtrip(what: &str, data: &[u8]) {
    let comp = compress(data);
    assert_eq!(comp, compress(data), "{what}: not deterministic");
    let back = decompress(&comp, data.len()).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert!(back == data, "{what}: round trip changed the bytes");
    // And through the frame, which adds the stored fallback.
    let (frame, wire_len) = frame_chunk_v3(7, false, data);
    assert!(wire_len <= data.len(), "{what}: the frame expanded");
    let parsed = unframe_chunk_any(&frame).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert!(parsed.verify_crc().is_ok(), "{what}: crc");
    assert!(parsed.into_payload().unwrap() == data, "{what}: frame");
}

#[test]
fn compressor_roundtrips_every_shape_alone() {
    for (k, len) in LENGTHS.into_iter().enumerate() {
        for (name, data) in shapes(len, k as u64 + 1) {
            assert_roundtrip(&format!("{name} x {len}"), &data);
        }
    }
}

#[test]
fn compressor_roundtrips_shapes_concatenated() {
    // An image is sections of different shapes back to back, cut into
    // chunks wherever the byte count falls.
    for (k, len) in LENGTHS.into_iter().enumerate() {
        let all = shapes(len / 6 + 1, k as u64 + 11);
        let mut joined: Vec<u8> = all.iter().flat_map(|(_, d)| d.iter().copied()).collect();
        joined.truncate(len);
        assert_roundtrip(&format!("concatenated x {len}"), &joined);
    }
}

#[test]
fn compressor_output_does_not_depend_on_what_ran_before() {
    // The hash table outlives a call; its contents must not reach the
    // next call's output.
    let (_, ints) = shapes(32_768, 5).swap_remove(2);
    let fresh = std::thread::spawn({
        let ints = ints.clone();
        move || compress(&ints)
    })
    .join()
    .unwrap();
    for (_, other) in shapes(32_768, 6) {
        compress(&other);
        assert!(compress(&ints) == fresh, "history leaked into the stream");
    }
}

fn unhex(s: &str) -> Vec<u8> {
    let digits: Vec<u8> = s.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    digits
        .chunks(2)
        .map(|p| u8::from_str_radix(std::str::from_utf8(p).unwrap(), 16).unwrap())
        .collect()
}

/// Inputs of the three checked-in frames.
fn fixture_inputs() -> [Vec<u8>; 3] {
    let plain: Vec<u8> = (0..40u32)
        .flat_map(|i| (i % 5 * 1000).to_be_bytes())
        .collect();
    let mut init: i64 = 1325;
    let planed: Vec<u8> = (0..48)
        .flat_map(|_| {
            init = (3125 * init) % 65536;
            ((init as f64 - 32768.0) / 16384.0).to_bits().to_be_bytes()
        })
        .collect();
    let mut rng = Rng(99);
    let stored: Vec<u8> = (0..72).map(|_| rng.next() as u8).collect();
    [plain, planed, stored]
}

/// `HPME` (v3) frames of [`fixture_inputs`] as the encoder at 14804d5
/// wrote them: a plain-mode stream, a planed-mode stream, a stored block.
const FIXTURE_FRAMES: [&str; 3] = [
    "48504d450000000700000002000000a0978943710000001b00010600000e03e8 \
     000007d000000bb800000fa00106000286011400",
    "48504d45000000070000000200000180762510f2000000cb010002bfbf01043f \
     0001bf0204070003bfbf3f02050800013f02051300023f3f0204100204060205 \
     150002bf3f02041e00653fbff4dde7dbd3d5b6fefbfdd7f2e3fcf2f8f9fface3 \
     ffabe9f1f1fdfcd4fcf2c4b2d3d9d7ffffeffef5fef2dffbe4d1f1f06b3b649d \
     81b51c3c936929208fa5c9c4bb2148ae6fa89cb31cd9fac31715ceb4d1bbb738 \
     bf65fea3334957bfcfeb96e4c000800104000008c0c04000c08040c002040800 \
     0480c00080010440000300c040010500000dc0c0804040c0400040800040c001 \
     c0010000",
    "48504d450000000700000000000000483236280500000048e3a4fbd7f47343c3 \
     3e1453fe895212bdba562863135eacd0e0159ab2d51c08bcede3f0ec0086f010 \
     3841bbf693ae2fac03b982e53a6b216dd75566e01e679f392ca7c064203607e0",
];

/// The block coder still reads the tokens the encoder at 14804d5 wrote.
/// The `HPME` envelope around them is retired — its CRC left the header
/// out — and refused by name.
#[test]
fn frames_written_by_the_previous_encoder_still_decode() {
    let modes = [Some(0u8), Some(1u8), None];
    for ((input, hex), mode) in fixture_inputs().iter().zip(FIXTURE_FRAMES).zip(modes) {
        let frame = unhex(hex);
        assert_eq!(
            unframe_chunk_any(&frame),
            Err(XdrError::BadMagic(0x4850_4D45))
        );
        // magic, seq, flags, raw_len and the CRC of the wire payload.
        let mut dec = XdrDecoder::new(&frame);
        let words: Vec<u32> = (0..5).map(|_| dec.get_u32().unwrap()).collect();
        let wire = dec.get_opaque_var().unwrap();
        assert!(dec.is_empty());
        assert_eq!(words[4], crc32(&wire), "fixture damaged");
        assert_eq!(words[2] == 2, mode.is_some());
        match mode {
            Some(m) => {
                assert_eq!(wire[0], m, "fixture is in the wrong mode");
                let raw = decompress(&wire, words[3] as usize).expect("fixture expands");
                assert_eq!(&raw, input);
            }
            None => assert_eq!(&wire, input),
        }
    }
}
