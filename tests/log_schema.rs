//! The event log's vocabulary, pinned: every `(track, event, argument
//! names)` five fixed-seed migrations emit at detail level — one per
//! transport, pre-copy, and both ways a dead link ends — must equal the
//! table below, so renaming an event, moving it to another track or
//! changing what it carries is a deliberate diff here and in DESIGN §10.
//!
//! Row format: `track event kind[*] [args] [+note]` — kind `P`oint,
//! `B`egin or `E`nd, `*` for a detail-ring event.

use hpm_arch::Architecture;
use hpm_migrate::{migrate, Migration, PipelineConfig, PrecopyConfig, Transport, Trigger};
use hpm_net::{FaultPlan, NetworkModel};
use hpm_obs::{EventKind, EventLog, Level, LogDump};
use hpm_workloads::{BitonicSort, TestPointer};
use std::collections::BTreeSet;

const SCHEMA: &[&str] = &[
    "arq.rx chunk.recv P [chunk,next]",
    "arq.rx crc.fail P [chunk]",
    "arq.rx.resume chunk.recv P [chunk,next]",
    "arq.tx chunk.sent P [chunk]",
    "arq.tx.resume chunk.sent P [chunk]",
    "arq.tx.resume resume.accepted P [next,bytes_saved]",
    "collect chunk.flush P [chunk,bytes]",
    "collect collect.block P* [count]",
    "collect collect.done P [bytes,chunks]",
    "collect msrlt.search B* []",
    "collect msrlt.search E* [group,index]",
    "collect.resume chunk.flush P [chunk,bytes]",
    "collect.resume collect.block P* [count]",
    "collect.resume collect.done P [bytes,chunks]",
    "collect.resume msrlt.search B* []",
    "collect.resume msrlt.search E* [group,index]",
    "driver attempt.failed P [] +note",
    "driver collect B []",
    "driver collect E [image_bytes]",
    "driver collect.block P* [count]",
    "driver collect.done P [bytes,chunks]",
    "driver fallback.reached P [] +note",
    "driver msrlt.search B* []",
    "driver msrlt.search E* [group,index]",
    "driver net.recv B* []",
    "driver net.recv E* [bytes]",
    "driver net.send B* [bytes,modeled_ns]",
    "driver net.send E* []",
    "driver phase.collect P [prefix_bytes,chain_depth]",
    "driver phase.restore P [bytes_in,blocks]",
    "driver phase.tx P [bytes]",
    "driver restore B [frame_depth,live]",
    "driver restore E [bytes]",
    "driver restore.alloc P* [bytes]",
    "driver restore.block P* [count]",
    "driver resume.attempt P [next_chunk]",
    "driver resume.completed P [chunks_replayed,bytes_saved]",
    "driver resume.skipped P [] +note",
    "driver tx B []",
    "driver tx E [modeled_ns]",
    "driver var.restored P [consumed,blocks]",
    "fault fault.injected P [chunk] +note",
    "restore restore B [frame_depth,live]",
    "restore restore E [bytes]",
    "restore restore.alloc P* [bytes]",
    "restore restore.block P* [count]",
    "restore var.failed P [consumed] +note",
    "restore var.restored P [consumed,blocks]",
    "restore.resume restore B [frame_depth,live]",
    "restore.resume restore E [bytes]",
    "restore.resume restore.alloc P* [bytes]",
    "restore.resume restore.block P* [count]",
    "restore.resume var.restored P [consumed,blocks]",
];

fn rows(dump: &LogDump, into: &mut BTreeSet<String>) {
    for t in &dump.tracks {
        for e in &t.events {
            let kind = match e.kind {
                EventKind::Begin => "B",
                EventKind::End => "E",
                EventKind::Point => "P",
            };
            let detail = if e.detail { "*" } else { "" };
            let args: Vec<&str> = e.args.iter().map(|(k, _)| *k).collect();
            let note = if e.note.is_some() { " +note" } else { "" };
            into.insert(format!(
                "{} {} {kind}{detail} [{}]{note}",
                t.name,
                e.name,
                args.join(",")
            ));
        }
    }
}

fn cfg(chunk_bytes: usize) -> PipelineConfig {
    PipelineConfig {
        chunk_bytes,
        ..PipelineConfig::default()
    }
}

/// TestPointer, DEC 5000 → SPARC 20, under `transport`.
fn test_pointer(log: &EventLog, transport: Transport) -> Result<(), hpm_migrate::MigError> {
    migrate(
        TestPointer::new,
        Architecture::dec5000(),
        Architecture::sparc20(),
        NetworkModel::ethernet_10(),
        Trigger::AtPollCount(8),
        &Migration {
            log: Some(log),
            ..Migration::new(transport)
        },
    )
    .map(|_| ())
}

/// TestPointer over a link that dies once `disconnect_at` chunks crossed.
fn dead_link(log: &EventLog, disconnect_at: u32) -> Result<(), hpm_migrate::MigError> {
    let plan = FaultPlan {
        seed: 0xF11_6487,
        disconnect_at: Some(disconnect_at),
        ..FaultPlan::none()
    };
    test_pointer(log, Transport::Reliable(cfg(256), plan))
}

#[test]
fn emitted_events_equal_the_pinned_schema() {
    let mut seen = BTreeSet::new();

    // The paper's stop-and-copy, and the chunk stream on a clean link.
    let clean = Transport::Reliable(cfg(256), FaultPlan::none());
    for transport in [Transport::Whole, clean] {
        let log = EventLog::new(Level::Detail);
        test_pointer(&log, transport).expect("a clean link migrates");
        rows(&log.dump(), &mut seen);
    }
    // The default policy turns a failed restore into an `Ok` resumed on
    // the source; that would be a different vocabulary from this point.
    assert!(
        !seen.iter().any(|r| r.contains("fallback.reached")),
        "a clean link must not fall back"
    );

    // Reliable + pre-copy over a pipe that damages a frame of every
    // round's connection (each redialled once): the damage lands where
    // the CRC catches it.
    let log = EventLog::new(Level::Detail);
    let plan = FaultPlan {
        seed: 0x0E61_0001,
        corrupt_at: Some(2),
        ..FaultPlan::none()
    };
    migrate(
        || BitonicSort::new(1_200),
        Architecture::dec5000(),
        Architecture::x86_64_sim(),
        NetworkModel::ethernet_10(),
        Trigger::AtPollCount(300),
        &Migration {
            precopy: Some(PrecopyConfig {
                round_polls: 200,
                max_rounds: 3,
                dirty_threshold: 0.02,
                tamper_base_at_round: None,
            }),
            log: Some(&log),
            ..Migration::new(Transport::Reliable(cfg(448), plan))
        },
    )
    .expect("a redialled round carries its frame whole");
    rows(&log.dump(), &mut seen);

    // A link dead from the first chunk, which leaves no journal and ends
    // on the source (rung 3) …
    let log = EventLog::new(Level::Detail);
    dead_link(&log, 0).expect("rung 3 resumes on the source");
    rows(&log.dump(), &mut seen);

    // … and a link dead after the prefix chunk, healed from the
    // destination's journal (rung 2).
    let log = EventLog::new(Level::Detail);
    dead_link(&log, 1).expect("rung 2 heals a dead link");
    rows(&log.dump(), &mut seen);

    let pinned: BTreeSet<String> = SCHEMA.iter().map(|s| s.to_string()).collect();
    let listing = seen
        .iter()
        .map(|r| format!("    \"{r}\",\n"))
        .collect::<String>();
    assert_eq!(
        seen, pinned,
        "the event vocabulary changed; if deliberate, update SCHEMA (and DESIGN §10) to:\n{listing}"
    );
}
