//! Wire-codec round-trip sweep: every architecture preset pair, with the
//! image shipped stored (v2) and compressed (v3).
//!
//! The codec is transport dressing only. Whatever pair of machines the
//! image travels between and whichever framing the caller picked, the
//! reassembled image must be bit-identical to the frozen one and the
//! restored run must answer exactly like the plain monolithic driver.
//! On the paper's workloads the compressed stream must also shrink
//! linpack's image.

use hpm::arch::Architecture;
use hpm::migrate::{
    migrate, run_migrating, run_to_migration, MigratableProgram, Migration, PipelineConfig,
    Transport, Trigger,
};
use hpm::net::{
    channel_pair, ArqConfig, FaultPlan, NetworkModel, ReliableChunkReceiver, ReliableChunkSender,
    WireCodec,
};
use hpm::workloads::{BitonicSort, Linpack, TestPointer};

fn presets() -> [Architecture; 4] {
    [
        Architecture::dec5000(),
        Architecture::sparc20(),
        Architecture::ultra5(),
        Architecture::x86_64_sim(),
    ]
}

/// Codec-level bit identity: a real frozen image framed chunk-by-chunk
/// through each codec comes out of the receiver byte-for-byte intact —
/// compression is invisible above the stream layer.
#[test]
fn shipped_image_is_bit_identical_under_both_codecs() {
    for arch in presets() {
        let mut p = TestPointer::new();
        let mut src = run_to_migration(&mut p, arch.clone(), Trigger::AtPollCount(8)).unwrap();
        let image = src.to_image().unwrap();
        for codec in [WireCodec::V2, WireCodec::V3] {
            let (a, b) = channel_pair(NetworkModel::instant());
            let shipped = std::thread::scope(|s| {
                let receiver = s.spawn(|| {
                    let mut rx = ReliableChunkReceiver::new(b, ArqConfig);
                    let mut shipped = Vec::new();
                    while let Some(c) = rx.recv_chunk().unwrap() {
                        shipped.extend_from_slice(&c);
                    }
                    shipped
                });
                let mut tx = ReliableChunkSender::new(a, ArqConfig).with_codec(codec);
                for part in image.chunks(512) {
                    tx.send(part).unwrap();
                }
                tx.finish().unwrap();
                receiver.join().expect("receiver panicked")
            });
            assert_eq!(
                shipped, image,
                "{} via {codec:?}: wire changed the image bytes",
                arch.name
            );
        }
    }
}

/// Driver-level sweep: all 16 preset pairs, each streamed stored and
/// compressed, diffed against the plain monolithic driver on the same
/// pair. The stored arm must never rewrite payload bytes; the
/// compressed arm must never *expand* them (stored fallback).
#[test]
fn every_preset_pair_roundtrips_stored_and_compressed() {
    for src in presets() {
        for dst in presets() {
            let seq = run_migrating(
                TestPointer::new,
                src.clone(),
                dst.clone(),
                NetworkModel::instant(),
                Trigger::AtPollCount(8),
            )
            .unwrap();
            for codec in [WireCodec::V2, WireCodec::V3] {
                let run = migrate(
                    TestPointer::new,
                    src.clone(),
                    dst.clone(),
                    NetworkModel::instant(),
                    Trigger::AtPollCount(8),
                    &Migration::new(Transport::Reliable(
                        PipelineConfig {
                            pace: false,
                            codec,
                            ..Default::default()
                        },
                        FaultPlan::none(),
                    )),
                )
                .unwrap();
                let tag = format!("{} -> {} via {codec:?}", src.name, dst.name);
                // The default policy answers a broken restore by resuming
                // on the source, which would pass every check below.
                assert_eq!(
                    run.report.resume().unwrap().rung,
                    1,
                    "{tag}: the destination must finish the run, not the source"
                );
                assert_eq!(run.results, seq.results, "{tag}: answers diverge");
                assert_eq!(
                    run.report.image_bytes, seq.report.image_bytes,
                    "{tag}: image size changed"
                );
                assert_eq!(
                    run.report.collect_stats.bytes_out, seq.report.collect_stats.bytes_out,
                    "{tag}: collected payload size changed"
                );
                let t = &run.report.transfer;
                assert_eq!(
                    t.raw_payload_bytes, run.report.image_bytes,
                    "{tag}: every image byte crosses the wire exactly once"
                );
                match codec {
                    WireCodec::V2 => {
                        assert_eq!(t.chunks_compressed, 0, "{tag}: v2 never compresses");
                        assert_eq!(t.raw_payload_bytes, t.wire_payload_bytes, "{tag}");
                    }
                    WireCodec::V3 => {
                        assert!(t.chunks_compressed > 0, "{tag}: v3 compressed nothing");
                        assert!(
                            t.wire_payload_bytes <= t.raw_payload_bytes,
                            "{tag}: the stored fallback must keep v3 from expanding \
                             ({} wire vs {} raw)",
                            t.wire_payload_bytes,
                            t.raw_payload_bytes
                        );
                    }
                }
            }
        }
    }
}

/// One workload on the Ultra 5 pair at 100 Mb/s through the compressed
/// `Reliable` stream, checked against the plain stored driver: the
/// destination finishes the run with the same answers and the same
/// image. Returns the stream's (raw, wire) payload bytes.
fn compressed_against_stored<P: MigratableProgram + Send>(
    label: &str,
    make: impl Fn() -> P + Copy,
    polls: u64,
) -> (u64, u64) {
    let (arch, link, trigger) = (
        Architecture::ultra5(),
        NetworkModel::ethernet_100(),
        Trigger::AtPollCount(polls),
    );
    let seq = run_migrating(make, arch.clone(), arch.clone(), link, trigger.clone()).unwrap();
    let config = PipelineConfig {
        pace: false,
        ..Default::default()
    }
    .compressed();
    let policy = Migration::new(Transport::Reliable(config, FaultPlan::none()));
    let run = migrate(make, arch.clone(), arch, link, trigger, &policy).unwrap();
    // A source-resumed run answers the same and carries no pipeline.
    assert!(
        run.report.pipeline().is_some(),
        "{label}: the destination must finish the run"
    );
    assert_eq!(run.results, seq.results, "{label}: answers diverge");
    assert_eq!(
        run.report.image_bytes, seq.report.image_bytes,
        "{label}: image size changed"
    );
    let t = &run.report.transfer;
    (t.raw_payload_bytes, t.wire_payload_bytes)
}

/// Linpack appears twice because its two freeze points have opposite
/// wire behaviour. At the mid-factor point (poll 2) one elimination pass
/// has rewritten every matrix cell with full-mantissa values, which no
/// lossless coder shrinks much. Frozen before the first column factors
/// (poll 1), the matgen cells carry 14 significant bits each and the
/// byte-plane filter collapses their zero bytes: at least 30 % off.
#[test]
fn paper_workloads_compress_and_restore_identically() {
    let linpack = || Linpack::truncated(600, 4);
    let (raw, wire) = compressed_against_stored("linpack_600", linpack, 2);
    assert!(wire < raw, "linpack_600: {wire} wire vs {raw} raw bytes");
    let (raw, wire) = compressed_against_stored("linpack_600_cold", linpack, 1);
    assert!(
        wire * 10 <= raw * 7,
        "linpack_600_cold: compression dropped {wire} wire of {raw} raw bytes, less than 30 %"
    );
    let n = 20_000;
    compressed_against_stored("bitonic_20000", move || BitonicSort::new(n), n);
}
