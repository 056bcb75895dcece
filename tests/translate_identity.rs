//! Byte-identity pins for the collect / digest / restore path.
//!
//! The wire payload, the per-block digest table and the bytes a
//! destination holds right after restoration are functions of the
//! program state alone. The four restored-memory ids of each program
//! were taken at the commit before the one-translation-per-block rewrite
//! of the three inner loops and have not moved since: they are the proof
//! that the restored process is the same. The payload id (first
//! component) was re-taken when image version 3 made the MSRM records
//! compact, and again when version 4 moved heap ids into the record's
//! first word — the only thing a change of record format may move. The
//! digest-table id (second component) was re-taken once, when block
//! digests moved from FNV-1a to XXH64 with the canonical bytes they hash
//! unchanged. A change to any other value means an image's meaning, a
//! digest or a restored block was altered.

use hpm::arch::Architecture;
use hpm::core::block_digests;
use hpm::migrate::{
    resume_from_image, resume_to_migration, run_to_migration, MigratableProgram, Process,
    ResumeFlow, Trigger,
};
use hpm::workloads::{BitonicSort, Linpack, TestPointer};

/// The id every pin below was taken with: FNV-1a 64 of the bytes, then
/// their length mixed in (splitmix64's finaliser). A local copy, so the
/// pins keep proving the bytes did not change when the library's own
/// hash does.
fn pin_id(bytes: &[u8]) -> u64 {
    let h = bytes.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    });
    let mut z = h ^ bytes.len() as u64;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn presets() -> [Architecture; 4] {
    [
        Architecture::dec5000(),
        Architecture::sparc20(),
        Architecture::ultra5(),
        Architecture::x86_64_sim(),
    ]
}

/// [`pin_id`] over every live block's `(addr, bytes)` in address order,
/// then the program's results when it ran to completion (Linpack frees
/// everything it restored before it finishes; its answer bits are what
/// is left of the restored matrix).
fn restored_id(proc: &Process, results: &[(String, String)]) -> u64 {
    let mut all = Vec::new();
    for info in proc.space.block_infos() {
        all.extend_from_slice(&info.addr.to_be_bytes());
        all.extend_from_slice(proc.space.read_bytes(info.addr, info.size).unwrap());
    }
    for (k, v) in results {
        all.extend_from_slice(k.as_bytes());
        all.extend_from_slice(v.as_bytes());
    }
    pin_id(&all)
}

/// `(payload id, digest-table id, restored id per destination preset)`.
/// The first two are machine-independent, so one row serves every source
/// preset; the third depends on the destination's layout alone.
type Pin = (u64, u64, [u64; 4]);

fn check<P: MigratableProgram>(name: &str, make: impl Fn() -> P, trigger: Trigger, pin: Pin) {
    for src_arch in presets() {
        let tag = format!("{name} from {}", src_arch.name);
        let mut src = run_to_migration(&mut make(), src_arch, trigger.clone()).unwrap();
        let (payload, _, _) = src.collect().unwrap();
        let mut table = Vec::new();
        for d in block_digests(&mut src.proc.space, &mut src.proc.msrlt).unwrap() {
            table.extend_from_slice(&d.id.group.to_be_bytes());
            table.extend_from_slice(&d.id.index.to_be_bytes());
            table.extend_from_slice(&d.digest.to_be_bytes());
        }
        let image = src.to_image().unwrap();
        // Freeze again at the first live poll after restoration where the
        // program has one, so the hashed memory is what the restorer wrote.
        let restored = presets().map(|dst_arch| {
            let again = Trigger::AtLeastPollCount(0);
            match resume_to_migration(&mut make(), dst_arch, &image, again).unwrap() {
                ResumeFlow::Frozen(dst) => restored_id(&dst.proc, &[]),
                ResumeFlow::Completed(run) => restored_id(&run.proc, &run.results),
            }
        });
        let got: Pin = (pin_id(&payload), pin_id(&table), restored);
        assert_eq!(got, pin, "{tag}: computed {got:#x?}");
    }
}

#[test]
fn test_pointer_images_match_the_pins() {
    let pin = (
        0xb4b182fda959e214,
        0xba19dbfd10404213,
        [
            0x3cc39acbba1ce5ac,
            0x504484e34ecb1b09,
            0x504484e34ecb1b09,
            0x725faa999bd727e3,
        ],
    );
    check(
        "test_pointer",
        TestPointer::new,
        Trigger::AtPollCount(8),
        pin,
    );
}

#[test]
fn bitonic_images_match_the_pins() {
    let pin = (
        0x31446ecd7256405b,
        0x0cfec0785e574cef,
        [
            0x3b66b60c8fbe6483,
            0xf43e596e36b8a276,
            0xf43e596e36b8a276,
            0x50a558a2fe6efd48,
        ],
    );
    let make = || BitonicSort::new(256);
    check("bitonic", make, Trigger::AtPollCount(64), pin);
}

#[test]
fn linpack_images_match_the_pins() {
    let pin = (
        0xaf5d35d2dbc13786,
        0x54fa277324a80da2,
        [0x6ce2b3ccfe1f0373; 4],
    );
    check(
        "linpack",
        || Linpack::full(24),
        Trigger::AtPollCount(8),
        pin,
    );
}

/// Rewrite an honest image's version word to `old` and resume it: the
/// image must be refused at the header, naming both versions.
fn assert_refused_by_name(old: u32) {
    let mut src = run_to_migration(
        &mut TestPointer::new(),
        Architecture::dec5000(),
        Trigger::AtPollCount(8),
    )
    .unwrap();
    let mut image = src.to_image().unwrap();
    assert_eq!(image[4..8], 4u32.to_be_bytes(), "magic, then the version");
    image[4..8].copy_from_slice(&old.to_be_bytes());
    let Err(err) = resume_from_image(&mut TestPointer::new(), Architecture::sparc20(), &image)
    else {
        panic!("a version-{old} image must not restore");
    };
    let err = err.to_string();
    assert!(
        err.contains(&format!("version {old}")) && err.contains("version 4"),
        "{err}"
    );
}

/// An image framed by an older format version carries records this
/// build would misparse; it is refused at the header, by name.
#[test]
fn version_2_image_is_refused_naming_both_versions() {
    assert_refused_by_name(2);
}

/// Version 3 differs only in how a pointer names a heap block — a
/// version-4 reader would take its index word for the next field.
#[test]
fn version_3_image_is_refused_naming_both_versions() {
    assert_refused_by_name(3);
}
