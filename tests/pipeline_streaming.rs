//! Integration tests for the pipelined migration path: chunked images
//! are byte-identical to monolithic ones, streamed restoration produces
//! the same results while overlapping with collection and transmission,
//! and chunk-level failures carry their chunk index.

use hpm::arch::Architecture;
use hpm::core::image::unframe_image;
use hpm::core::stream::VecChunks;
use hpm::core::ChunkPayload;
use hpm::migrate::{
    migrate, run_straight, run_to_migration, ExecutionState, MigCtx, MigError, MigratableProgram,
    MigratedSource, Migration, PipelineConfig, Process, RecoveryPolicy, Transport, Trigger,
};
use hpm::net::{FaultPlan, NetworkModel};
use hpm::workloads::{diff_results, BitonicSort, Linpack, TestPointer};
use std::time::Duration;

fn freeze_test_pointer() -> MigratedSource {
    let mut p = TestPointer::new();
    run_to_migration(&mut p, Architecture::dec5000(), Trigger::AtPollCount(8)).unwrap()
}

/// Concatenated streamed chunks must equal the monolithic image exactly,
/// for every chunk size — the pipeline changes delivery, not content.
fn assert_byte_identity(src: &mut MigratedSource, label: &str) {
    let whole = src.to_image().unwrap();
    for chunk_bytes in [16usize, 64, 4096, 1 << 20] {
        let (chunks, stats) = src.to_chunks(chunk_bytes).unwrap();
        let cat: Vec<u8> = chunks.concat();
        assert_eq!(
            cat, whole,
            "{label}: chunked image (chunk_bytes={chunk_bytes}) diverges from monolithic"
        );
        assert_eq!(stats.bytes_out + chunks[0].len() as u64, whole.len() as u64);
        // Every chunk stays XDR-aligned, so any cut point is decodable.
        for (i, c) in chunks.iter().enumerate() {
            assert_eq!(c.len() % 4, 0, "{label}: chunk {i} not 4-byte aligned");
        }
        if chunk_bytes == 16 {
            assert!(
                chunks.len() > 2,
                "{label}: tiny chunks must split the image"
            );
        }
    }
}

#[test]
fn chunked_image_is_byte_identical_test_pointer() {
    let mut src = freeze_test_pointer();
    assert_byte_identity(&mut src, "test_pointer");
}

#[test]
fn chunked_image_is_byte_identical_linpack() {
    let mut p = Linpack::truncated(120, 4);
    let mut src =
        run_to_migration(&mut p, Architecture::ultra5(), Trigger::AtPollCount(2)).unwrap();
    assert_byte_identity(&mut src, "linpack");
}

#[test]
fn chunked_image_is_byte_identical_bitonic() {
    let n = 5_000;
    let mut p = BitonicSort::new(n);
    let mut src =
        run_to_migration(&mut p, Architecture::ultra5(), Trigger::AtPollCount(n)).unwrap();
    assert_byte_identity(&mut src, "bitonic");
}

/// The pipelined path must produce the same results as an unmigrated run
/// and actually overlap the three phases: on a paced 10 Mb/s link the
/// end-to-end wall time comes in under the serial Collect+Tx+Restore sum.
#[test]
fn pipelined_migration_matches_straight_run_and_overlaps() {
    let n = 20_000u64;
    let mut p = BitonicSort::new(n);
    let (expect, _) = run_straight(&mut p, Architecture::ultra5()).unwrap();

    let run = migrate(
        move || BitonicSort::new(n),
        Architecture::ultra5(),
        Architecture::ultra5(),
        NetworkModel::ethernet_10(),
        Trigger::AtPollCount(n),
        &Migration::new(Transport::Reliable(
            PipelineConfig::default(),
            FaultPlan::none(),
            RecoveryPolicy::default(),
        )),
    )
    .unwrap();
    assert!(
        diff_results(&expect, &run.results).is_none(),
        "pipelined results diverge from the unmigrated run"
    );

    let p = run.report.pipeline().expect("pipelined run carries stats");
    assert!(p.chunks >= 3, "expected prefix + payload + terminator");
    assert!(p.tx_time > Duration::ZERO);
    assert!(
        p.e2e_time < p.serial_time(),
        "no overlap: e2e {:?} vs serial {:?}",
        p.e2e_time,
        p.serial_time()
    );
    assert!(
        p.overlap_ratio() > 0.0,
        "overlap_ratio must be positive, got {}",
        p.overlap_ratio()
    );
    // A clean link costs acknowledgements and nothing else.
    let r = run.report.recovery().expect("reliable run carries stats");
    assert!(r.retransmits == 0 && r.nacks_sent == 0, "{r:?}");
    assert_eq!(run.report.resume().unwrap().rung, 1);
    // The report's stat groups include the pipeline group.
    assert!(run
        .report
        .stat_groups()
        .iter()
        .any(|(name, _)| name == "pipeline"));
}

/// Losing a chunk mid-stream must fail loudly, naming the chunk in which
/// the payload ran dry — not silently mis-restore.
#[test]
fn lost_chunk_is_reported_with_its_index() {
    let mut src = freeze_test_pointer();
    let (mut chunks, _) = src.to_chunks(64).unwrap();
    assert!(chunks.len() >= 3, "need several chunks to drop one");
    let prefix = chunks.remove(0);
    chunks.pop(); // lose the final payload chunk

    let (header, exec_bytes, leftover) = unframe_image(&prefix).unwrap();
    assert_eq!(header.program, "test_pointer");
    let exec = ExecutionState::decode(exec_bytes).unwrap();

    let mut dst_prog = TestPointer::new();
    let mut proc = Process::new(dst_prog.name(), Architecture::sparc20());
    dst_prog.setup(&mut proc).unwrap();
    let cp = ChunkPayload::new(leftover, Some(Box::new(VecChunks::new(chunks))));
    let mut ctx = MigCtx::new_resume(&mut proc, exec, cp).unwrap();
    let err = dst_prog.run(&mut ctx).unwrap_err();
    match err {
        MigError::Protocol(m) | MigError::Core(m) => {
            assert!(
                m.contains("truncated in chunk"),
                "error must name the chunk: {m}"
            );
        }
        other => panic!("expected a truncation error, got {other:?}"),
    }
}
