//! Seeded crash-recovery soak: destinations killed mid-restore at a
//! seeded chunk, sources killed mid-collect, and journals tampered with —
//! against the resilient driver's three-rung degradation ladder.
//!
//! The contract under test is the resumable-restore tentpole's acceptance
//! bar: a destination that dies at chunk *k* is recreated from its chunk
//! journal and re-attached without re-receiving a single verified chunk;
//! the final answers are identical to an unmigrated run whatever rung the
//! ladder reached; a tampered journal digest provably falls back to rung
//! 3 (clean full restart) instead of splicing; and rerunning any seed
//! reproduces both [`RecoveryStats`] and [`ResumeStats`] bit for bit.

use hpm::arch::Architecture;
use hpm::migrate::{
    run_migrating_resilient, run_straight, run_to_migration, FallbackPolicy, MigratableProgram,
    PipelineConfig, RecoveryPolicy, RecoveryStats, ResumeStats, Rung2Skip, Trigger,
};
use hpm::net::{
    channel_pair, ArqConfig, FaultPlan, NetError, NetworkModel, ReliableChunkReceiver,
    ReliableChunkSender, ResumeDecision, WireCodec,
};
use hpm::workloads::{diff_results, BitonicSort, Linpack, TestPointer};
use hpm::xdr::RestoreJournal;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Small chunks so every crash point sees plenty of frames to land in.
fn soak_cfg() -> PipelineConfig {
    PipelineConfig {
        chunk_bytes: 256,
        pace: false,
        pace_scale: 0.0,
        ..PipelineConfig::default()
    }
}

/// Tight retry budget so dead streams are declared dead quickly.
fn soak_policy() -> RecoveryPolicy {
    RecoveryPolicy {
        max_retries: 4,
        backoff: Duration::from_millis(2),
        fallback: FallbackPolicy::SourceResume,
        resume: true,
    }
}

/// One resilient migration under `plan`; panics on driver error (the
/// driver must terminate cleanly whatever dies, and wherever it dies).
fn run_one<P: MigratableProgram + Send>(
    make: impl Fn() -> P,
    src: Architecture,
    dst: Architecture,
    trigger: u64,
    plan: FaultPlan,
    cfg: PipelineConfig,
) -> (Vec<(String, String)>, RecoveryStats, ResumeStats) {
    let run = run_migrating_resilient(
        make,
        src,
        dst,
        NetworkModel::ethernet_10(),
        Trigger::AtPollCount(trigger),
        cfg,
        plan,
        soak_policy(),
    )
    .unwrap_or_else(|e| panic!("seed {:#x}: driver failed: {e}", plan.seed));
    let recovery = *run.report.recovery().expect("resilient runs carry stats");
    let resume = *run
        .report
        .resume()
        .expect("resilient runs carry resume stats");
    (run.results, recovery, resume)
}

/// Sweep `seeds` crash plans over one workload inside a watchdog. Every
/// answer must match the unmigrated run; every rung-2 resume must replay
/// zero already-verified chunks over the wire; every ~25th seed is rerun
/// to prove both stat groups reproduce exactly.
fn crash_soak<P, F>(
    label: &'static str,
    make: F,
    src: Architecture,
    dst: Architecture,
    trigger: u64,
    seeds: u64,
    cfg: PipelineConfig,
) where
    P: MigratableProgram + Send,
    F: Fn() -> P + Send + 'static,
{
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut p = make();
        let (expect, _) = run_straight(&mut p, src.clone()).unwrap();
        let mut rung2 = 0u64;
        let mut rung3 = 0u64;
        for i in 0..seeds {
            let plan =
                FaultPlan::crash_from_seed(0xC4A5_0000_0000_0000 | (label.len() as u64) << 32 | i);
            let (results, recovery, resume) =
                run_one(&make, src.clone(), dst.clone(), trigger, plan, cfg);
            assert!(
                diff_results(&expect, &results).is_none(),
                "{label} seed {:#x}: WRONG ANSWER (rung={})",
                plan.seed,
                resume.rung
            );
            assert_eq!(
                resume.wire_replays, 0,
                "{label} seed {:#x}: a verified chunk crossed the wire twice: {resume:?}",
                plan.seed
            );
            match resume.rung {
                1 => assert!(!recovery.fallback_taken),
                2 => {
                    rung2 += 1;
                    assert!(resume.rung2_attempted);
                    assert_eq!(resume.skip, None, "{label} seed {:#x}", plan.seed);
                    assert!(!recovery.fallback_taken);
                    assert_eq!(resume.chunks_replayed, resume.journal_chunks);
                    assert!(resume.bytes_saved > 0, "{label} seed {:#x}", plan.seed);
                }
                3 => {
                    rung3 += 1;
                    assert!(recovery.fallback_taken);
                    assert!(
                        resume.skip.is_some(),
                        "{label} seed {:#x}: rung 3 without a skip reason",
                        plan.seed
                    );
                    if plan.tamper_journal && resume.rung2_attempted {
                        assert_eq!(
                            resume.skip,
                            Some(Rung2Skip::DigestMismatch),
                            "{label} seed {:#x}: tampered journal must be refused",
                            plan.seed
                        );
                    }
                }
                r => panic!("{label} seed {:#x}: impossible rung {r}", plan.seed),
            }
            if i % 25 == 0 {
                let (results2, recovery2, resume2) =
                    run_one(&make, src.clone(), dst.clone(), trigger, plan, cfg);
                assert_eq!(
                    results2, results,
                    "{label} seed {:#x}: results drifted",
                    plan.seed
                );
                // Unlike the lossy-link soak, a crash plan has a death
                // window: the sender keeps pushing frames until it notices
                // the peer is gone, and how many it gets off is scheduler
                // timing, not seed state. So the sender-side ARQ counters
                // are not rerun-comparable here — but the ladder outcome
                // and the resume accounting (chunk indices, journal sizes,
                // bytes saved) derive from the stream structure alone and
                // must reproduce bit for bit.
                assert_eq!(
                    recovery2.fallback_taken, recovery.fallback_taken,
                    "{label} seed {:#x}: ladder outcome not reproducible",
                    plan.seed
                );
                // One exemption to "bit for bit": when the *source*
                // crashes before rung 2 is ever attempted, the journal's
                // length is itself part of the death window — the
                // destination thread keeps verifying and journaling
                // frames until the sender's death is noticed, so how
                // many chunks landed is scheduler timing too. Every
                // other field (rung, skip reason, replay/retransfer
                // accounting) must still reproduce exactly.
                let (mut lhs, mut rhs) = (resume, resume2);
                if lhs.skip == Some(Rung2Skip::SourceCrashed) && !lhs.rung2_attempted {
                    lhs.journal_chunks = 0;
                    rhs.journal_chunks = 0;
                }
                assert_eq!(
                    rhs, lhs,
                    "{label} seed {:#x}: ResumeStats not reproducible",
                    plan.seed
                );
            }
        }
        // The seed stream must actually exercise the ladder: both the
        // resume rung and the fallback rung have to fire across the sweep.
        assert!(
            rung2 > 0,
            "{label}: no plan ever resumed from the journal (rung 2)"
        );
        assert!(
            rung3 > 0,
            "{label}: no plan ever reached the source-resume fallback (rung 3)"
        );
        done_tx.send((rung2, rung3)).unwrap();
    });
    let (rung2, rung3) = match done_rx.recv_timeout(Duration::from_secs(300)) {
        Ok(counts) => counts,
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!("{label}: crash soak did not terminate in bounded time")
        }
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
            panic!("{label}: crash soak worker panicked (see output above)")
        }
    };
    println!("{label}: {seeds} plans, {rung2} journal resumes, {rung3} fallbacks");
}

#[test]
fn crash_soak_test_pointer() {
    crash_soak(
        "test_pointer",
        TestPointer::new,
        Architecture::dec5000(),
        Architecture::sparc20(),
        8,
        100,
        soak_cfg(),
    );
}

#[test]
fn crash_soak_linpack() {
    crash_soak(
        "linpack",
        || Linpack::truncated(120, 4),
        Architecture::ultra5(),
        Architecture::dec5000(),
        2,
        100,
        soak_cfg(),
    );
}

#[test]
fn crash_soak_bitonic() {
    let n = 512u64;
    crash_soak(
        "bitonic",
        move || BitonicSort::new(n),
        Architecture::ultra5(),
        Architecture::sparc20(),
        n,
        100,
        soak_cfg(),
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
    let run = run_migrating_resilient(
        || Linpack::truncated(120, 4),
        Architecture::ultra5(),
        Architecture::dec5000(),
        NetworkModel::ethernet_10(),
        Trigger::AtPollCount(2),
        soak_cfg(),
        plan,
        soak_policy(),
    )
    .unwrap();
    assert!(diff_results(&expect, &run.results).is_none());
    let resume = run.report.resume().unwrap();
    assert_eq!(resume.rung, 2, "{resume:?}");
    assert_eq!(
        resume.journal_chunks, k as u64,
        "dying before chunk k journals exactly 0..k: {resume:?}"
    );
    assert_eq!(resume.chunks_replayed, k as u64);
    assert_eq!(resume.wire_replays, 0);
    assert!(resume.bytes_saved > 0);
    // The resumed stream carried exactly the chunks the journal lacked.
    let pipeline = run
        .report
        .pipeline()
        .expect("rung 2 completes the pipeline");
    assert_eq!(
        resume.chunks_retransferred,
        pipeline.chunks - resume.chunks_replayed,
        "replayed + retransferred must cover the whole stream: {resume:?}"
    );
    assert!(!run.report.recovery().unwrap().fallback_taken);
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
    let policy = RecoveryPolicy {
        backoff: Duration::from_millis(1),
        ..soak_policy()
    };
    let run = |plan: FaultPlan| {
        let (link, trigger) = (NetworkModel::ethernet_100(), Trigger::AtPollCount(polls));
        run_migrating_resilient(
            make,
            src.clone(),
            dst.clone(),
            link,
            trigger,
            cfg,
            plan,
            policy,
        )
        .unwrap_or_else(|e| panic!("{label}: driver failed: {e}"))
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
            (r.journal_chunks, r.chunks_replayed),
            (k, k),
            "{at}: (journaled, replayed) chunks for a crash before chunk {k}"
        );
        assert_eq!(r.chunks_retransferred, total - k, "{at}: re-shipped chunks");
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
    let run = run_migrating_resilient(
        TestPointer::new,
        Architecture::dec5000(),
        Architecture::sparc20(),
        NetworkModel::ethernet_10(),
        trigger,
        cfg,
        plan,
        soak_policy(),
    )
    .unwrap();
    assert!(diff_results(&expect, &run.results).is_none());
    let resume = run.report.resume().unwrap();
    assert_eq!(resume.rung, 3, "{resume:?}");
    assert!(resume.rung2_attempted, "the handshake must have been tried");
    assert_eq!(resume.skip, Some(Rung2Skip::DigestMismatch));
    assert!(run.report.recovery().unwrap().fallback_taken);
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
    let run = run_migrating_resilient(
        TestPointer::new,
        Architecture::dec5000(),
        Architecture::sparc20(),
        NetworkModel::ethernet_10(),
        Trigger::AtPollCount(8),
        soak_cfg(),
        plan,
        soak_policy(),
    )
    .unwrap();
    assert!(diff_results(&expect, &run.results).is_none());
    let resume = run.report.resume().unwrap();
    assert_eq!(resume.rung, 3, "{resume:?}");
    assert!(!resume.rung2_attempted);
    assert_eq!(resume.skip, Some(Rung2Skip::SourceCrashed));
}

// ---------------------------------------------------------------------
// Protocol-level byte identity: every preset pair, stored and compressed
// ---------------------------------------------------------------------

fn presets() -> [Architecture; 4] {
    [
        Architecture::dec5000(),
        Architecture::sparc20(),
        Architecture::ultra5(),
        Architecture::x86_64_sim(),
    ]
}

fn arq_cfg() -> ArqConfig {
    ArqConfig {
        window: 8,
        max_retries: 2,
        base_backoff: Duration::from_millis(1),
    }
}

/// Kill the destination at chunk *k* of a real frozen image, then resume
/// from the durable journal over a fresh link: the reassembled image must
/// be byte-identical to an uninterrupted transfer, with zero verified
/// chunks re-received — on all 16 preset pairs, stored and compressed.
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
            for codec in [WireCodec::V2, WireCodec::V3] {
                let tag = format!("{} -> {} via {codec:?}", src.name, dst.name);

                // Attempt 1: the destination dies before consuming chunk k.
                let (a, b) = channel_pair(NetworkModel::instant());
                let journal = Arc::new(Mutex::new(RestoreJournal::new(1)));
                let journal_rx = Arc::clone(&journal);
                let killed = std::thread::spawn(move || {
                    let mut rx = ReliableChunkReceiver::new(b, arq_cfg())
                        .with_journal(journal_rx)
                        .with_crash_at(Some(k));
                    loop {
                        match rx.recv_chunk() {
                            Ok(Some(_)) => {}
                            Ok(None) => return Ok(()),
                            Err(e) => return Err(e),
                        }
                    }
                });
                let mut tx = ReliableChunkSender::new(a, arq_cfg()).with_codec(codec);
                let mut dead = false;
                for c in &chunks {
                    if tx.send(c).is_err() {
                        dead = true;
                        break;
                    }
                }
                if !dead {
                    let _ = tx.finish();
                }
                assert_eq!(
                    killed.join().unwrap().unwrap_err(),
                    NetError::PeerCrashed { chunk: k },
                    "{tag}"
                );
                let ledger = tx.records().to_vec();

                // The journal survives only as durable bytes.
                let stored = journal.lock().unwrap_or_else(|e| e.into_inner()).encode();
                let recovered = RestoreJournal::decode(&stored)
                    .unwrap_or_else(|e| panic!("{tag}: journal bytes corrupt: {e}"));
                assert_eq!(recovered.next_chunk(), k, "{tag}");

                // Attempt 2: a rebuilt destination re-attaches and the
                // sender ships only what the journal lacks.
                let (a2, b2) = channel_pair(NetworkModel::instant());
                let resumed = Arc::new(Mutex::new(recovered.clone()));
                let resumed_rx = Arc::clone(&resumed);
                let done = std::thread::spawn(move || {
                    let mut rx = ReliableChunkReceiver::new_resuming(b2, arq_cfg(), &recovered)
                        .unwrap()
                        .with_journal(resumed_rx);
                    let counters = rx.counters();
                    while let Some(_c) = rx.recv_chunk().unwrap() {}
                    counters.snapshot()
                });
                let mut tx2 = ReliableChunkSender::new(a2, arq_cfg()).with_codec(codec);
                let decision = tx2.accept_resume(1, &ledger).unwrap();
                let ResumeDecision::Accepted { next, .. } = decision else {
                    panic!("{tag}: genuine journal rejected: {decision:?}");
                };
                assert_eq!(next, k, "{tag}");
                for c in &chunks[k as usize..] {
                    tx2.send(c).unwrap();
                }
                tx2.finish().unwrap();
                let snap = done.join().unwrap();
                assert_eq!(
                    snap.replays_below_start, 0,
                    "{tag}: a verified chunk crossed the wire twice"
                );

                // Byte identity: journaled prefix + resumed tail is the
                // exact image an uninterrupted transfer would deliver.
                let final_journal = resumed.lock().unwrap_or_else(|e| e.into_inner());
                assert!(final_journal.is_complete(), "{tag}");
                let reassembled: Vec<u8> = final_journal
                    .payloads()
                    .iter()
                    .flat_map(|p| p.iter().copied())
                    .collect();
                assert_eq!(reassembled, image, "{tag}: resumed image differs");
            }
        }
    }
}

/// The ack high-water mark a dying sender reports agrees exactly with
/// what the destination durably journaled — the operator can trust
/// `RetriesExhausted::acked` to name the resume point.
#[test]
fn retries_exhausted_ack_mark_agrees_with_the_journal() {
    let k = 6u32;
    let chunks: Vec<Vec<u8>> = (0..20u8).map(|i| vec![i; 64]).collect();
    let (a, b) = channel_pair(NetworkModel::instant());
    let journal = Arc::new(Mutex::new(RestoreJournal::new(5)));
    let mut rx = ReliableChunkReceiver::new(b, arq_cfg())
        .with_journal(Arc::clone(&journal))
        .with_crash_at(Some(k));
    let mut tx = ReliableChunkSender::new(a, arq_cfg());
    // Window of 8: pump sender and receiver by hand until the receiver
    // dies, then keep the (dead but undropped) endpoint around so the
    // sender exhausts retries instead of seeing a severed link.
    let mut crashed = false;
    let mut err = None;
    for c in &chunks {
        if let Err(e) = tx.send(c) {
            err = Some(e);
            break;
        }
        match rx.recv_chunk() {
            Ok(Some(_)) => {}
            Ok(None) => panic!("stream cannot end early"),
            Err(e) => {
                assert_eq!(e, NetError::PeerCrashed { chunk: k });
                crashed = true;
            }
        }
        if crashed {
            break;
        }
    }
    if err.is_none() {
        err = tx.finish().err();
    }
    let err = err.expect("sender must give up on a dead peer");
    let NetError::RetriesExhausted { acked, .. } = err else {
        panic!("expected retries exhausted, got {err:?}");
    };
    let journaled = journal
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .next_chunk();
    assert_eq!(
        acked, journaled,
        "the sender's ack mark and the destination's journal must agree"
    );
    assert_eq!(journaled, k);
}
