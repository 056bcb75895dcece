//! The paper's §4.1 experiment, end to end: migrate the three evaluation
//! programs from a DEC 5000/120 (little-endian) to a SPARC 20
//! (big-endian) over 10 Mb/s Ethernet — first deterministically (whole
//! image, poll-count trigger, everything on one thread), then live: a
//! scheduler thread delivers the migration request asynchronously while
//! source and destination run as real threads over a CRC-checked chunk
//! stream.
//!
//! ```text
//! cargo run --release --example heterogeneous_migration
//! ```

use hpm::arch::Architecture;
use hpm::migrate::{
    migrate, run_migrating, run_straight, Migration, PipelineConfig, Transport, Trigger,
};
use hpm::net::{FaultPlan, NetworkModel};
use hpm::workloads::{diff_results, BitonicSort, Linpack, TestPointer};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    println!("=== deterministic driver: DEC 5000/120 → SPARC 20, 10 Mb/s ===\n");

    // test_pointer: trees, aliased pointers, interior pointers, a cycle.
    let mut p = TestPointer::new();
    let (expect, _) = run_straight(&mut p, Architecture::dec5000()).unwrap();
    let run = run_migrating(
        TestPointer::new,
        Architecture::dec5000(),
        Architecture::sparc20(),
        NetworkModel::ethernet_10(),
        Trigger::AtPollCount(8),
    )
    .unwrap();
    report("test_pointer", &expect, &run);

    // linpack: full Ax=b solve, migrated mid-factorization.
    let n = 150;
    let mut p = Linpack::full(n);
    let (expect, _) = run_straight(&mut p, Architecture::dec5000()).unwrap();
    let run = run_migrating(
        move || Linpack::full(n),
        Architecture::dec5000(),
        Architecture::sparc20(),
        NetworkModel::ethernet_10(),
        Trigger::AtPollCount(n / 2),
    )
    .unwrap();
    report(&format!("linpack {n}x{n}"), &expect, &run);

    // bitonic: BST of random ints, migrated mid-insertion (the RNG state
    // migrates too, so the destination continues the same sequence).
    let n = 10_000;
    let mut p = BitonicSort::new(n);
    let (expect, _) = run_straight(&mut p, Architecture::dec5000()).unwrap();
    let run = run_migrating(
        move || BitonicSort::new(n),
        Architecture::dec5000(),
        Architecture::sparc20(),
        NetworkModel::ethernet_10(),
        Trigger::AtPollCount(n / 2),
    )
    .unwrap();
    report(&format!("bitonic {n}"), &expect, &run);

    println!("\n=== live: scheduler thread + streamed source/destination threads ===\n");
    // §2: "a scheduler … sends a migration request to a process". The
    // source observes the flag at its next poll-point; it must run long
    // enough for the request to land.
    let n = 30_000;
    let mut p = BitonicSort::new(n);
    let (expect, _) = run_straight(&mut p, Architecture::dec5000()).unwrap();
    let request = Arc::new(AtomicBool::new(false));
    let run = std::thread::scope(|s| {
        let flag = Arc::clone(&request);
        s.spawn(move || {
            std::thread::sleep(Duration::from_millis(1));
            flag.store(true, Ordering::Relaxed);
        });
        migrate(
            move || BitonicSort::new(n),
            Architecture::dec5000(),
            Architecture::sparc20(),
            NetworkModel::ethernet_10(),
            Trigger::External(request),
            &Migration::new(Transport::Reliable(
                PipelineConfig::default(),
                FaultPlan::none(),
            )),
        )
    })
    .unwrap();
    report(&format!("bitonic {n}"), &expect, &run);
    println!(
        "{} polls before the request landed; {} frames on the wire",
        run.report.src_polls,
        // Absent when the run fell back to resuming on the source.
        run.report
            .pipeline()
            .expect("the destination finished the run")
            .chunks,
    );
}

fn report(name: &str, expect: &[(String, String)], run: &hpm::migrate::MigrationRun) {
    let consistent = diff_results(expect, &run.results).is_none();
    let r = &run.report;
    println!(
        "{name:<16} image {:>9} B  collect {:.4}s  tx {:.4}s  restore {:.4}s  chain depth {}  consistent: {consistent}",
        r.image_bytes,
        r.collect_time.as_secs_f64(),
        r.tx_time.as_secs_f64(),
        r.restore_time.as_secs_f64(),
        r.chain_depth,
    );
    assert!(consistent, "migrated results diverged for {name}");
}
