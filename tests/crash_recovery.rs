//! The crash rungs of the degradation ladder: a seeded soak of
//! destinations killed mid-restore, sources killed mid-collect and
//! journals tampered with, the same faults at chosen points, and the
//! resume handshake's byte identity on every preset pair. The soak that
//! mixes these process faults with pipe faults is in
//! `tests/fault_recovery.rs`; both run the harness in `tests/common`.
//!
//! The contract under test is the resumable restore's acceptance bar: a
//! destination that dies at chunk *k* is recreated from its chunk journal
//! and re-attached without re-receiving a single verified chunk; the
//! final answers are identical to an unmigrated run whatever rung the
//! ladder reached; a tampered journal digest provably falls back to
//! rung 3 (clean full restart) instead of splicing; and rerunning any
//! seed reproduces its `ResumeStats`.

mod common;

use common::{soak_cfg, Sweep};
use hpm::arch::Architecture;
use hpm::migrate::{
    run_migrating_resilient, run_straight, run_to_migration, MigratableProgram, MigrationRun,
    PipelineConfig, RecoveryPolicy, Rung2Skip, Trigger,
};
use hpm::net::{
    channel_pair, ArqConfig, FaultPlan, NetError, NetworkModel, ReliableChunkReceiver,
    ReliableChunkSender, ResumeDecision,
};
use hpm::workloads::{diff_results, BitonicSort, Linpack, TestPointer};
use hpm::xdr::RestoreJournal;

/// One resilient migration over `link` under `plan`.
#[allow(clippy::too_many_arguments)]
fn resilient<P: MigratableProgram + Send>(
    make: impl Fn() -> P,
    src: Architecture,
    dst: Architecture,
    link: NetworkModel,
    trigger: Trigger,
    cfg: PipelineConfig,
    plan: FaultPlan,
) -> MigrationRun {
    run_migrating_resilient(make, src, dst, link, trigger, cfg, plan, RecoveryPolicy)
        .unwrap_or_else(|e| panic!("{plan:?}: driver failed: {e}"))
}

/// 100 seeded crash plans, every 25th rerun.
fn crash_sweep_plans() -> Sweep {
    Sweep {
        seeds: 100,
        plan: |label, i| {
            FaultPlan::crash_from_seed(0xC4A5_0000_0000_0000 | (label.len() as u64) << 32 | i)
        },
        rerun_every: 25,
    }
}

#[test]
fn crash_soak_test_pointer() {
    common::soak(
        "test_pointer",
        TestPointer::new,
        Architecture::dec5000(),
        Architecture::sparc20(),
        8,
        soak_cfg(),
        crash_sweep_plans(),
    );
}

#[test]
fn crash_soak_linpack() {
    common::soak(
        "linpack",
        || Linpack::truncated(120, 4),
        Architecture::ultra5(),
        Architecture::dec5000(),
        2,
        soak_cfg(),
        crash_sweep_plans(),
    );
}

#[test]
fn crash_soak_bitonic() {
    let n = 512u64;
    common::soak(
        "bitonic",
        move || BitonicSort::new(n),
        Architecture::ultra5(),
        Architecture::sparc20(),
        n,
        soak_cfg(),
        crash_sweep_plans(),
    );
}

/// A destination deterministically killed at chunk *k* resumes from its
/// journal: the journal holds exactly chunks `0..k`, the resumed transfer
/// replays them all locally, re-receives none of them over the wire, and
/// re-transfers exactly the rest of the stream.
#[test]
fn destination_crash_resumes_without_rereceiving_verified_chunks() {
    let k = 4u32;
    let plan = FaultPlan {
        dst_crash_at: Some(k),
        ..FaultPlan::none()
    };
    let mut p = Linpack::truncated(120, 4);
    let (expect, _) = run_straight(&mut p, Architecture::ultra5()).unwrap();
    let run = resilient(
        || Linpack::truncated(120, 4),
        Architecture::ultra5(),
        Architecture::dec5000(),
        NetworkModel::ethernet_10(),
        Trigger::AtPollCount(2),
        soak_cfg(),
        plan,
    );
    assert!(diff_results(&expect, &run.results).is_none());
    let resume = run.report.resume().unwrap();
    assert_eq!(resume.rung, 2, "{resume:?}");
    assert_eq!(
        resume.journal_chunks, k as u64,
        "dying before chunk k journals exactly 0..k: {resume:?}"
    );
    assert_eq!(resume.chunks_replayed(), k as u64);
    assert_eq!(resume.wire_replays, 0);
    assert!(resume.bytes_saved > 0);
    // The resumed stream carried exactly the chunks the journal lacked.
    let pipeline = run
        .report
        .pipeline()
        .expect("rung 2 completes the pipeline");
    assert_eq!(
        resume.chunks_retransferred,
        pipeline.chunks - resume.chunks_replayed(),
        "replayed + retransferred must cover the whole stream: {resume:?}"
    );
}

/// A destination killed at 25, 50 and 75 % of each paper workload's
/// chunk stream resumes from its journal on rung 2: the journal holds
/// exactly the chunks before the crash, every one replays locally, none
/// crosses the wire twice, only the rest of the stream is re-shipped, and
/// the answers are right. On linpack, whose payload chunks are equal
/// 64 KiB slices, the resume skips at least the journaled share of the
/// stream's bytes, less the smaller prefix chunk.
///
/// The bytes each of these nine resumes saves are recorded in the `resume`
/// section of the committed `BENCH_90e26fe.json`: the baseline that a
/// resume rebuilt on pre-copy delta rounds must not fall below.
#[test]
fn destination_crash_sweep_resumes_from_the_journal() {
    let (dec5000, sparc20) = (Architecture::dec5000(), Architecture::sparc20());
    let ultra5 = Architecture::ultra5();
    crash_sweep("test_pointer", TestPointer::new, &dec5000, &sparc20, 8, 256);
    let linpack = || Linpack::truncated(600, 4);
    crash_sweep("linpack_600", linpack, &ultra5, &ultra5, 2, 65_536);
    let n = 20_000;
    let bitonic = move || BitonicSort::new(n);
    crash_sweep("bitonic_20000", bitonic, &ultra5, &ultra5, n, 4_096);
}

/// Crash one workload at each quarter of its stream, taking the stream's
/// length from a clean run so the crash points land on real chunks.
fn crash_sweep<P: MigratableProgram + Send>(
    label: &str,
    make: impl Fn() -> P + Copy + Send,
    src: &Architecture,
    dst: &Architecture,
    polls: u64,
    chunk_bytes: usize,
) {
    let (expect, _) = run_straight(&mut make(), src.clone()).unwrap();
    let cfg = PipelineConfig {
        chunk_bytes,
        ..soak_cfg()
    };
    let run = |plan: FaultPlan| {
        let (link, trigger) = (NetworkModel::ethernet_100(), Trigger::AtPollCount(polls));
        resilient(make, src.clone(), dst.clone(), link, trigger, cfg, plan)
    };
    let clean = run(FaultPlan::none());
    let total = clean
        .report
        .pipeline()
        .expect("a clean run completes")
        .chunks;
    for quarter in 1..=3u64 {
        let k = ((total * quarter) / 4).max(1);
        let at = format!("{label}@{}", quarter * 25);
        let crashed = run(FaultPlan {
            dst_crash_at: Some(k as u32),
            ..FaultPlan::none()
        });
        assert!(
            diff_results(&expect, &crashed.results).is_none(),
            "{at}: wrong answer after resume"
        );
        let r = crashed
            .report
            .resume()
            .expect("resilient runs carry resume stats");
        assert_eq!(r.rung, 2, "{at}: did not resume from its journal: {r:?}");
        assert_eq!(
            r.wire_replays, 0,
            "{at}: a verified chunk crossed the wire twice"
        );
        assert_eq!(
            (r.journal_chunks, r.chunks_replayed()),
            (k, k),
            "{at}: (journaled, replayed) chunks for a crash before chunk {k}"
        );
        assert_eq!(r.chunks_retransferred, total - k, "{at}: re-shipped chunks");
        println!("{at}: bytes_saved {}", r.bytes_saved);
        if label.starts_with("linpack") {
            let shipped = r.bytes_saved + r.bytes_retransferred;
            let saved = r.bytes_saved as f64 / shipped.max(1) as f64;
            let floor = r.journal_chunks.saturating_sub(1) as f64 / total as f64;
            assert!(
                saved >= floor,
                "{at}: resume saved {:.1} % of the wire bytes, below the {:.1} % journaled",
                saved * 100.0,
                floor * 100.0
            );
        }
    }
}

/// A tampered journal digest is provably refused: the sender rejects the
/// handshake, nothing is spliced, and the ladder falls through to rung 3
/// (source resume) — with the answers still exactly right.
#[test]
fn tampered_journal_digest_falls_back_to_rung_3() {
    // The destination has to die inside the stream, with chunks both
    // journaled behind it and still to come: take the crash point from
    // the stream's own chunk count, not from what the image's size used
    // to be.
    let cfg = PipelineConfig {
        chunk_bytes: 64,
        ..soak_cfg()
    };
    let trigger = Trigger::AtPollCount(8);
    let chunks = run_to_migration(
        &mut TestPointer::new(),
        Architecture::dec5000(),
        trigger.clone(),
    )
    .unwrap()
    .to_chunks(cfg.chunk_bytes)
    .unwrap()
    .0
    .len() as u32;
    assert!(chunks >= 4, "{chunks} chunks leave no middle to die in");
    let plan = FaultPlan {
        dst_crash_at: Some(chunks / 2),
        tamper_journal: true,
        ..FaultPlan::none()
    };
    let mut p = TestPointer::new();
    let (expect, _) = run_straight(&mut p, Architecture::dec5000()).unwrap();
    let run = resilient(
        TestPointer::new,
        Architecture::dec5000(),
        Architecture::sparc20(),
        NetworkModel::ethernet_10(),
        trigger,
        cfg,
        plan,
    );
    assert!(diff_results(&expect, &run.results).is_none());
    let resume = run.report.resume().unwrap();
    assert_eq!(resume.rung, 3, "{resume:?}");
    // The handshake was tried, and refused.
    assert_eq!(resume.skip, Some(Rung2Skip::DigestMismatch));
    assert!(run.report.log.is_some(), "rung 3 attaches the log dump");
}

/// A source that dies mid-collect skips rung 2 (there is nothing left to
/// send) and the report says so.
#[test]
fn source_crash_skips_rung_2_with_a_reason() {
    let plan = FaultPlan {
        src_crash_at: Some(2),
        ..FaultPlan::none()
    };
    let mut p = TestPointer::new();
    let (expect, _) = run_straight(&mut p, Architecture::dec5000()).unwrap();
    let run = resilient(
        TestPointer::new,
        Architecture::dec5000(),
        Architecture::sparc20(),
        NetworkModel::ethernet_10(),
        Trigger::AtPollCount(8),
        soak_cfg(),
        plan,
    );
    assert!(diff_results(&expect, &run.results).is_none());
    let resume = run.report.resume().unwrap();
    assert_eq!(resume.rung, 3, "{resume:?}");
    assert_eq!(resume.skip, Some(Rung2Skip::SourceCrashed));
}

// ---------------------------------------------------------------------
// Protocol-level byte identity: every preset pair
// ---------------------------------------------------------------------

fn presets() -> [Architecture; 4] {
    [
        Architecture::dec5000(),
        Architecture::sparc20(),
        Architecture::ultra5(),
        Architecture::x86_64_sim(),
    ]
}

/// Kill the destination at chunk *k* of a real frozen image, then resume
/// from its journal over a fresh link: the reassembled image must
/// be byte-identical to an uninterrupted transfer, with zero verified
/// chunks re-received — on all 16 preset pairs.
#[test]
fn crashed_transfer_resumes_byte_identical_on_every_preset_pair() {
    for src in presets() {
        for dst in presets() {
            let mut p = TestPointer::new();
            let mut frozen =
                run_to_migration(&mut p, src.clone(), Trigger::AtPollCount(8)).unwrap();
            let image = frozen.to_image().unwrap();
            let chunks: Vec<Vec<u8>> = image.chunks(512).map(|c| c.to_vec()).collect();
            let k = (chunks.len() as u32 / 2).max(1);
            let tag = format!("{} -> {}", src.name, dst.name);

            // Attempt 1: the destination dies before consuming chunk k.
            let (a, b) = channel_pair(NetworkModel::instant());
            let mut tx = ReliableChunkSender::new(a, ArqConfig);
            chunks.iter().try_for_each(|c| tx.send(c)).unwrap();
            tx.finish().unwrap();
            let mut killed = ReliableChunkReceiver::new(b, ArqConfig)
                .with_journal(RestoreJournal::new(1))
                .with_crash_at(Some(k));
            let died = loop {
                if let Err(e) = killed.recv_chunk() {
                    break e;
                }
            };
            assert_eq!(died, NetError::PeerCrashed { chunk: k }, "{tag}");
            let ledger = tx.records().to_vec();

            // The journal outlives the destination that wrote it.
            let recovered = killed.into_journal().expect("a journaling receiver");
            assert_eq!(recovered.next_chunk(), k, "{tag}");

            // Attempt 2: a rebuilt destination re-attaches and the
            // sender ships only what the journal lacks.
            let (a2, b2) = channel_pair(NetworkModel::instant());
            let mut rx = ReliableChunkReceiver::new_resuming(b2, recovered).unwrap();
            let mut tx2 = ReliableChunkSender::new(a2, ArqConfig);
            let decision = tx2.accept_resume(1, &ledger).unwrap();
            let ResumeDecision::Accepted { next, .. } = decision else {
                panic!("{tag}: genuine journal rejected: {decision:?}");
            };
            assert_eq!(next, k, "{tag}");
            for c in &chunks[k as usize..] {
                tx2.send(c).unwrap();
            }
            tx2.finish().unwrap();
            // The receiver replays its journal, then reads the tail.
            let mut delivered = Vec::new();
            while let Some(c) = rx.recv_chunk().unwrap() {
                delivered.extend_from_slice(&c);
            }
            assert_eq!(delivered, image, "{tag}: delivered image differs");
            assert_eq!(
                rx.waits().len(),
                chunks.len() - k as usize + 1,
                "{tag}: a journaled chunk was read off the pipe"
            );
            assert_eq!(
                rx.counters().replays_below_start,
                0,
                "{tag}: a verified chunk crossed the wire twice"
            );

            // Byte identity: journaled prefix + resumed tail is the
            // exact image an uninterrupted transfer would deliver.
            let final_journal = rx.into_journal().expect("a journaling receiver");
            assert!(final_journal.is_complete(), "{tag}");
            let reassembled: Vec<u8> = (0..final_journal.next_chunk())
                .flat_map(|i| final_journal.payload(i).expect("a journaled frame replays"))
                .collect();
            assert_eq!(reassembled, image, "{tag}: resumed image differs");
        }
    }
}
