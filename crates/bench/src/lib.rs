//! # hpm-bench — the paper's evaluation, reproduced
//!
//! Shared measurement harness behind the `paper_tables` binary and the
//! bench targets (which use the dependency-free [`harness`] module).
//! Every table and figure of the paper's §4 maps to a function here:
//!
//! | paper item | function |
//! |---|---|
//! | §4.1 heterogeneity validation | [`validation_rows`] |
//! | Table 1 (Collect/Tx/Restore) | [`table1_rows`] |
//! | Figure 2(a) linpack scaling | [`fig2a_rows`] |
//! | Figure 2(b) bitonic scaling | [`fig2b_rows`] |
//! | §4.2 complexity model | [`complexity_rows`] |
//! | §4.3 execution overhead | [`overhead_rows`] |
//! | DESIGN.md ablations | [`ablation_rows`] |
//! | DESIGN.md §7 translation perf | [`translate_rows`] |
//! | DESIGN.md §8 wire compression | [`wire_rows`] |

pub mod diff;
pub mod harness;

use hpm_arch::Architecture;
use hpm_core::{Collector, SearchStrategy, TranslationMode};
use hpm_migrate::{
    migrate, resume_from_image, run_migrating, run_migrating_resilient, run_straight,
    run_to_migration, FallbackPolicy, MigratedSource, Migration, MigrationRun, PipelineConfig,
    PrecopyConfig, RecoveryPolicy, Transport, Trigger,
};
use hpm_net::{FaultPlan, NetworkModel};
use hpm_obs::{EventLog, Level};
use hpm_workloads::{diff_results, BitonicSort, Linpack, PollPlacement, TestPointer};
use std::time::{Duration, Instant};

/// One measured migration: the Collect / Tx / Restore triplet plus
/// supporting counters.
#[derive(Debug, Clone)]
pub struct MigRow {
    /// Workload label.
    pub label: String,
    /// Problem size parameter.
    pub size: u64,
    /// Memory-state payload bytes (ΣDᵢ).
    pub payload_bytes: u64,
    /// MSR vertices transmitted.
    pub blocks: u64,
    /// Data collection wall time.
    pub collect: Duration,
    /// Modeled transmission time.
    pub tx: Duration,
    /// Data restoration wall time.
    pub restore: Duration,
    /// MSRLT searches during collection.
    pub searches: u64,
    /// Total search comparison steps.
    pub search_steps: u64,
    /// Lookups answered by the MSRLT translation cache.
    pub cache_hits: u64,
    /// Lookups that fell through to the search strategy.
    pub cache_misses: u64,
    /// MSRLT registrations during restoration.
    pub restore_updates: u64,
}

impl MigRow {
    /// Collect + Tx + Restore.
    pub fn total(&self) -> Duration {
        self.collect + self.tx + self.restore
    }

    /// Fraction of address→id lookups answered by the translation cache.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            return 0.0;
        }
        self.cache_hits as f64 / total as f64
    }
}

fn freeze_linpack(n: u64) -> MigratedSource {
    freeze_linpack_on(n, Architecture::ultra5())
}

fn freeze_linpack_on(n: u64, arch: Architecture) -> MigratedSource {
    let mut prog = Linpack::truncated(n, 4);
    run_to_migration(&mut prog, arch, Trigger::AtPollCount(2))
        .expect("linpack reaches its migration point")
}

fn freeze_bitonic(n: u64) -> MigratedSource {
    let mut prog = BitonicSort::new(n);
    // Fire on the last insertion poll, so n-1 nodes are live — the
    // paper's x-axis is "number sorted".
    run_to_migration(&mut prog, Architecture::ultra5(), Trigger::AtPollCount(n))
        .expect("bitonic reaches its migration point")
}

/// Measure one frozen source end-to-end on the Table 1 testbed
/// (Ultra 5 → Ultra 5, 100 Mb/s).
pub fn measure_frozen<F, P>(
    label: &str,
    size: u64,
    src: &mut MigratedSource,
    link: NetworkModel,
    make_dst: F,
) -> MigRow
where
    F: Fn() -> P,
    P: hpm_migrate::MigratableProgram,
{
    // Collection (timed; repeatable because collection never mutates).
    src.proc.msrlt.reset_stats();
    let t0 = Instant::now();
    let (payload, _exec, cstats) = src.collect().expect("collect");
    let collect = t0.elapsed();
    let msrlt = src.proc.msrlt.stats();

    let image = src.to_image().expect("image");
    let tx = link.tx_time(image.len() as u64);

    let mut dst_prog = make_dst();
    let (_results, dst, _rstats, restore) =
        resume_from_image(&mut dst_prog, Architecture::ultra5(), &image).expect("resume");

    MigRow {
        label: label.to_string(),
        size,
        payload_bytes: payload.len() as u64,
        blocks: cstats.blocks_saved,
        collect,
        tx,
        restore,
        searches: msrlt.searches,
        search_steps: msrlt.search_steps,
        cache_hits: msrlt.cache_hits,
        cache_misses: msrlt.cache_misses,
        restore_updates: dst.msrlt.stats().registrations,
    }
}

/// Table 1: linpack 1000×1000 and bitonic 100 000, Ultra 5 pair, 100 Mb/s.
pub fn table1_rows() -> Vec<MigRow> {
    let link = NetworkModel::ethernet_100();
    let mut rows = Vec::new();
    let n = 1000;
    let mut src = freeze_linpack(n);
    rows.push(measure_frozen(
        "linpack 1000x1000",
        n,
        &mut src,
        link,
        || Linpack::truncated(n, 4),
    ));
    let n = 100_000;
    let mut src = freeze_bitonic(n);
    rows.push(measure_frozen("bitonic 100000", n, &mut src, link, || {
        BitonicSort::new(n)
    }));
    rows
}

/// Figure 2(a): linpack collection/restoration time vs migrated data
/// size, for matrix orders 600–1200.
pub fn fig2a_rows() -> Vec<MigRow> {
    let link = NetworkModel::ethernet_100();
    [600u64, 800, 1000, 1200]
        .iter()
        .map(|&n| {
            let mut src = freeze_linpack(n);
            measure_frozen(&format!("linpack {n}x{n}"), n, &mut src, link, move || {
                Linpack::truncated(n, 4)
            })
        })
        .collect()
}

/// Figure 2(b): bitonic collection/restoration time vs number sorted.
pub fn fig2b_rows() -> Vec<MigRow> {
    let link = NetworkModel::ethernet_100();
    [20_000u64, 40_000, 60_000, 80_000, 100_000, 120_000, 140_000]
        .iter()
        .map(|&n| {
            let mut src = freeze_bitonic(n);
            measure_frozen(&format!("bitonic {n}"), n, &mut src, link, move || {
                BitonicSort::new(n)
            })
        })
        .collect()
}

/// §4.1: one heterogeneous migration per workload, DEC 5000 → SPARC 20
/// over 10 Mb/s, with result digests compared to unmigrated runs.
#[derive(Debug, Clone)]
pub struct ValidationRow {
    /// Workload label.
    pub label: String,
    /// Whether results match the unmigrated run exactly.
    pub consistent: bool,
    /// Payload bytes.
    pub payload_bytes: u64,
    /// Blocks transmitted.
    pub blocks: u64,
    /// Pointers transmitted as refs (sharing preserved without
    /// duplication).
    pub shared_refs: u64,
    /// The total migration time (Collect + modeled Tx + Restore).
    pub migration_time: Duration,
}

/// Run the §4.1 validation suite.
pub fn validation_rows() -> Vec<ValidationRow> {
    let link = NetworkModel::ethernet_10();
    let mut rows = Vec::new();

    // test_pointer.
    {
        let mut p = TestPointer::new();
        let (expect, _) = run_straight(&mut p, Architecture::dec5000()).unwrap();
        let run = run_migrating(
            TestPointer::new,
            Architecture::dec5000(),
            Architecture::sparc20(),
            link,
            Trigger::AtPollCount(8),
        )
        .unwrap();
        rows.push(ValidationRow {
            label: "test_pointer".into(),
            consistent: diff_results(&expect, &run.results).is_none(),
            payload_bytes: run.report.memory_bytes,
            blocks: run.report.collect_stats.blocks_saved,
            shared_refs: run.report.collect_stats.ptr_ref,
            migration_time: run.report.migration_time(),
        });
    }
    // linpack (full solve at a size the simulator handles quickly).
    {
        let n = 200;
        let mut p = Linpack::full(n);
        let (expect, _) = run_straight(&mut p, Architecture::dec5000()).unwrap();
        let run = run_migrating(
            move || Linpack::full(n),
            Architecture::dec5000(),
            Architecture::sparc20(),
            link,
            Trigger::AtPollCount(n / 2),
        )
        .unwrap();
        rows.push(ValidationRow {
            label: format!("linpack {n}x{n}"),
            consistent: diff_results(&expect, &run.results).is_none(),
            payload_bytes: run.report.memory_bytes,
            blocks: run.report.collect_stats.blocks_saved,
            shared_refs: run.report.collect_stats.ptr_ref,
            migration_time: run.report.migration_time(),
        });
    }
    // bitonic.
    {
        let n = 20_000;
        let mut p = BitonicSort::new(n);
        let (expect, _) = run_straight(&mut p, Architecture::dec5000()).unwrap();
        let run = run_migrating(
            move || BitonicSort::new(n),
            Architecture::dec5000(),
            Architecture::sparc20(),
            link,
            Trigger::AtPollCount(n / 2),
        )
        .unwrap();
        rows.push(ValidationRow {
            label: format!("bitonic {n}"),
            consistent: diff_results(&expect, &run.results).is_none(),
            payload_bytes: run.report.memory_bytes,
            blocks: run.report.collect_stats.blocks_saved,
            shared_refs: run.report.collect_stats.ptr_ref,
            migration_time: run.report.migration_time(),
        });
    }
    rows
}

/// §4.2: instrumented counters demonstrating the complexity model —
/// collection's MSRLT term is O(n log n), restoration's O(n).
#[derive(Debug, Clone)]
pub struct ComplexityRow {
    /// Workload label.
    pub label: String,
    /// Live MSR node count `n`.
    pub nodes: u64,
    /// ΣDᵢ payload bytes.
    pub bytes: u64,
    /// Collection searches (≈ pointer count).
    pub searches: u64,
    /// Total comparison steps (expected ≈ searches × log₂ n).
    pub steps: u64,
    /// steps / searches — the empirical log factor.
    pub steps_per_search: f64,
    /// log₂(n) for comparison.
    pub log2_n: f64,
    /// Restoration MSRLT updates (expected ≈ n, i.e. O(n)).
    pub restore_updates: u64,
}

/// Produce the §4.2 table for a bitonic size sweep.
pub fn complexity_rows() -> Vec<ComplexityRow> {
    [5_000u64, 20_000, 80_000]
        .iter()
        .map(|&n| {
            let mut src = freeze_bitonic(n);
            let row = measure_frozen(
                &format!("bitonic {n}"),
                n,
                &mut src,
                NetworkModel::instant(),
                move || BitonicSort::new(n),
            );
            let searches = row.searches.max(1);
            ComplexityRow {
                label: row.label,
                nodes: row.blocks,
                bytes: row.payload_bytes,
                searches: row.searches,
                steps: row.search_steps,
                steps_per_search: row.search_steps as f64 / searches as f64,
                log2_n: (row.blocks.max(2) as f64).log2(),
                restore_updates: row.restore_updates,
            }
        })
        .collect()
}

/// §4.3: execution overhead of the annotation mechanisms.
#[derive(Debug, Clone)]
pub struct OverheadRow {
    /// Configuration label.
    pub label: String,
    /// Wall time of the complete (unmigrated) run.
    pub wall: Duration,
    /// Poll-points executed.
    pub polls: u64,
    /// MSRLT registrations performed.
    pub registrations: u64,
    /// Overhead relative to the baseline row of the group (%).
    pub overhead_pct: f64,
}

/// Measure the two §4.3 overhead factors: poll-point placement (linpack)
/// and allocation-policy pressure on the MSRLT (bitonic).
pub fn overhead_rows() -> Vec<OverheadRow> {
    let mut rows = Vec::new();

    // --- poll-point placement on linpack (best of 3: the effect is
    // small, so take minima to suppress scheduler noise) ---
    let n = 160;
    let mut base = Duration::ZERO;
    for placement in [
        PollPlacement::None,
        PollPlacement::OuterLoop,
        PollPlacement::InnerKernel,
    ] {
        let mut wall = Duration::MAX;
        let mut polls = 0;
        let mut registrations = 0;
        for _ in 0..3 {
            let mut prog = Linpack::full(n);
            prog.placement = placement;
            let t0 = Instant::now();
            let (_, proc) = run_straight(&mut prog, Architecture::ultra5()).unwrap();
            wall = wall.min(t0.elapsed());
            polls = proc.poll_count();
            registrations = proc.msrlt.stats().registrations;
        }
        if placement == PollPlacement::None {
            base = wall;
        }
        rows.push(OverheadRow {
            label: format!("linpack {n}: poll {placement:?}"),
            wall,
            polls,
            registrations,
            overhead_pct: pct(wall, base),
        });
    }

    // --- allocation policy on bitonic ---
    let n = 30_000;
    let mut base = Duration::ZERO;
    for pooled in [true, false] {
        let mut prog = if pooled {
            BitonicSort::pooled(n)
        } else {
            BitonicSort::new(n)
        };
        let t0 = Instant::now();
        let (_, proc) = run_straight(&mut prog, Architecture::ultra5()).unwrap();
        let wall = t0.elapsed();
        if pooled {
            base = wall;
        }
        rows.push(OverheadRow {
            label: format!(
                "bitonic {n}: {} allocation",
                if pooled { "pooled (smart)" } else { "per-node" }
            ),
            wall,
            polls: proc.poll_count(),
            registrations: proc.msrlt.stats().registrations,
            overhead_pct: pct(wall, base),
        });
    }

    // --- event-log levels: a full linpack migration (events fire per
    // chunk / phase, so protocol must track off) and a pointer-rich
    // collection (one detail site per MSRLT search: off and protocol pay
    // a branch each, detail pays for recording) ---
    const LEVELS: [(&str, Level); 3] = [
        ("off", Level::Off),
        ("protocol", Level::Protocol),
        ("detail", Level::Detail),
    ];
    let n = 300;
    let mut base = Duration::ZERO;
    for (mode, level) in LEVELS {
        let mut wall = Duration::MAX;
        let mut polls = 0;
        for _ in 0..3 {
            let log = EventLog::new(level);
            let t0 = Instant::now();
            let run = migrate(
                move || Linpack::truncated(n, 4),
                Architecture::ultra5(),
                Architecture::ultra5(),
                NetworkModel::ethernet_100(),
                Trigger::AtPollCount(2),
                &Migration {
                    log: Some(&log),
                    ..Migration::new(Transport::Whole)
                },
            )
            .expect("linpack migrates at every log level");
            wall = wall.min(t0.elapsed());
            polls = run.report.src_polls;
        }
        if level == Level::Off {
            base = wall;
        }
        rows.push(OverheadRow {
            label: format!("linpack {n}: migrate, log {mode}"),
            wall,
            polls,
            registrations: 0,
            overhead_pct: pct(wall, base),
        });
    }
    let n = 20_000;
    let mut base = Duration::ZERO;
    for (mode, level) in LEVELS {
        let mut src = freeze_bitonic(n);
        let mut wall = Duration::MAX;
        for _ in 0..3 {
            // A fresh log per rep, so every rep starts on empty rings.
            let track = EventLog::new(level).track("collect");
            let t0 = Instant::now();
            let mut collector =
                Collector::new(&mut src.proc.space, &mut src.proc.msrlt).with_track(track);
            for frame in &src.pending {
                for &addr in &frame.live {
                    collector.save_variable(addr).unwrap();
                }
            }
            let _ = collector.finish();
            wall = wall.min(t0.elapsed());
        }
        if level == Level::Off {
            base = wall;
        }
        rows.push(OverheadRow {
            label: format!("bitonic {n}: collect, log {mode}"),
            wall,
            polls: src.proc.poll_count(),
            registrations: src.proc.msrlt.stats().registrations,
            overhead_pct: pct(wall, base),
        });
    }
    rows
}

/// One TestPointer migration on the §4.1 heterogeneous testbed logged
/// at detail level: the returned report carries a [`hpm_obs::LogDump`]
/// with nested `collect` → `msrlt.search`, `tx` → `net.send`, and
/// `restore` spans plus every counter group, ready for
/// [`hpm_obs::chrome_trace_json`].
pub fn traced_test_pointer_run() -> MigrationRun {
    let log = EventLog::new(Level::Detail);
    migrate(
        TestPointer::new,
        Architecture::dec5000(),
        Architecture::sparc20(),
        NetworkModel::ethernet_10(),
        Trigger::AtPollCount(8),
        &Migration {
            log: Some(&log),
            ..Migration::new(Transport::Whole)
        },
    )
    .expect("test_pointer migrates")
}

fn pct(wall: Duration, base: Duration) -> f64 {
    if base.is_zero() {
        return 0.0;
    }
    (wall.as_secs_f64() / base.as_secs_f64() - 1.0) * 100.0
}

/// Ablation measurements for the design choices in DESIGN.md.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Variant label.
    pub label: String,
    /// Collection wall time.
    pub collect: Duration,
    /// Search comparison steps.
    pub steps: u64,
}

/// Compare MSRLT search strategies on a pointer-rich collection.
pub fn ablation_rows() -> Vec<AblationRow> {
    use hpm_core::Msrlt;
    let n = 8_000u64;
    let mut rows = Vec::new();
    for (label, strategy) in [
        ("page index", SearchStrategy::PageIndex),
        ("binary search", SearchStrategy::Binary),
        ("linear search", SearchStrategy::Linear),
    ] {
        let mut src = freeze_bitonic(n);
        // Rebuild the MSRLT under the chosen strategy.
        let mut msrlt = Msrlt::with_strategy(strategy);
        for e in src.proc.msrlt.live_entries() {
            // Preserve logical ids exactly.
            msrlt.register_at(e.id, e.addr, e.size, e.ty, e.count);
        }
        let t0 = Instant::now();
        let mut collector = Collector::new(&mut src.proc.space, &mut msrlt);
        for frame in &src.pending {
            for &addr in &frame.live {
                collector.save_variable(addr).unwrap();
            }
        }
        let _ = collector.finish();
        let collect = t0.elapsed();
        rows.push(AblationRow {
            label: format!("msrlt {label}"),
            collect,
            steps: msrlt.stats().search_steps,
        });
    }
    rows
}

/// One row of the DESIGN.md §7 translation-performance table: the
/// page-indexed MSRLT under its production configuration (cache on,
/// kernel-translated runs), beside the per-element reference.
#[derive(Debug, Clone)]
pub struct TranslateRow {
    /// Workload label.
    pub label: String,
    /// Payload bytes.
    pub payload_bytes: u64,
    /// Collection wall time ([`TranslationMode::Bulk`], the default).
    pub collect: Duration,
    /// Collection wall time under [`TranslationMode::PerElement`].
    pub collect_per_element: Duration,
    /// Whether the two modes produced the same payload, byte for byte.
    pub modes_identical: bool,
    /// MSRLT searches during the collection.
    pub searches: u64,
    /// Total search steps (page walks + fallback comparisons).
    pub search_steps: u64,
    /// steps / searches — ≈ 1 when the page index resolves everything.
    pub steps_per_search: f64,
    /// Translation-cache hit rate during the collection.
    pub cache_hit_rate: f64,
}

fn collect_in_mode(src: &mut MigratedSource, mode: TranslationMode) -> (Vec<u8>, Duration) {
    let t0 = Instant::now();
    let mut collector =
        Collector::new(&mut src.proc.space, &mut src.proc.msrlt).with_translation(mode);
    for frame in &src.pending {
        for &addr in &frame.live {
            collector.save_variable(addr).expect("collect");
        }
    }
    let (payload, _) = collector.finish();
    (payload, t0.elapsed())
}

fn translate_row(label: &str, src: &mut MigratedSource) -> TranslateRow {
    src.proc.msrlt.reset_stats();
    let (payload, collect) = collect_in_mode(src, TranslationMode::Bulk);
    let s = src.proc.msrlt.stats();
    let (reference, collect_per_element) = collect_in_mode(src, TranslationMode::PerElement);
    let cache_total = s.cache_hits + s.cache_misses;
    TranslateRow {
        label: label.to_string(),
        payload_bytes: payload.len() as u64,
        collect,
        collect_per_element,
        modes_identical: payload == reference,
        searches: s.searches,
        search_steps: s.search_steps,
        steps_per_search: s.search_steps as f64 / s.searches.max(1) as f64,
        cache_hit_rate: if cache_total == 0 {
            0.0
        } else {
            s.cache_hits as f64 / cache_total as f64
        },
    }
}

/// The DESIGN.md §7 table over the three paper workloads on the Ultra 5
/// (big-endian: dense runs are copies), plus linpack frozen on the
/// little-endian LP64 preset, where every dense run is byte-swapped.
pub fn translate_rows() -> Vec<TranslateRow> {
    vec![
        translate_row("test_pointer", &mut freeze_test_pointer()),
        translate_row("linpack_600", &mut freeze_linpack(600)),
        translate_row("bitonic_20000", &mut freeze_bitonic(20_000)),
        translate_row(
            "linpack_600_le",
            &mut freeze_linpack_on(600, Architecture::x86_64_sim()),
        ),
    ]
}

/// The CI perf gate over [`translate_rows`]: returns one message per
/// violation (empty = pass). The conditions guard the O(1)
/// address-translation claim and the kernels' bit-identity with the
/// per-element reference using counters, not wall clocks, so the gate is
/// stable on loaded CI runners.
pub fn translate_gate(rows: &[TranslateRow]) -> Vec<String> {
    let mut violations = Vec::new();
    for r in rows {
        if r.label == "bitonic_20000" && r.steps_per_search > 2.0 {
            violations.push(format!(
                "{}: {:.2} search steps per search (> 2.0) — the page index is not engaged",
                r.label, r.steps_per_search
            ));
        }
        if !r.modes_identical {
            violations.push(format!(
                "{}: bulk and per-element collection produced different payloads",
                r.label
            ));
        }
    }
    violations
}

/// One workload through the v3 (compressed) chunk stream: what the
/// codec saves on the wire, answer-checked against the stored run.
#[derive(Debug, Clone)]
pub struct WireRow {
    /// Workload label.
    pub label: String,
    /// Image payload bytes entering the sender (stored size).
    pub raw_bytes: u64,
    /// Post-codec payload bytes on the wire under v3 framing.
    pub wire_bytes: u64,
    /// `wire_bytes / raw_bytes` — < 1.0 when compression wins.
    pub ratio: f64,
    /// Chunks the v3 sender actually compressed (vs stored fallback).
    pub chunks_compressed: u64,
    /// Whether the v3 run restored the same answers and shipped a
    /// byte-identical image. Anything but `true` fails the wire gate.
    pub restored_identical: bool,
}

fn wire_row<P: hpm_migrate::MigratableProgram + Send>(
    label: &str,
    make: impl Fn() -> P + Copy,
    trigger: Trigger,
) -> WireRow {
    let link = NetworkModel::ethernet_100();
    let arch = Architecture::ultra5();
    let seq =
        run_migrating(make, arch.clone(), arch.clone(), link, trigger.clone()).expect("stored run");
    let config = PipelineConfig {
        pace: false,
        ..Default::default()
    }
    .compressed();
    let policy = Migration::new(Transport::Streamed(config));
    let comp = migrate(make, arch.clone(), arch, link, trigger, &policy).expect("v3 run");
    let t = &comp.report.transfer;
    WireRow {
        label: label.to_string(),
        raw_bytes: t.raw_payload_bytes,
        wire_bytes: t.wire_payload_bytes,
        ratio: t.compression_ratio(),
        chunks_compressed: t.chunks_compressed,
        restored_identical: comp.results == seq.results
            && comp.report.image_bytes == seq.report.image_bytes,
    }
}

/// The wire table over the paper workloads, Ultra 5 pair at 100 Mb/s:
/// the v3 chunk stream, answer-checked against the plain stored
/// driver. Linpack appears twice because the two
/// freeze points have opposite wire behaviour: at the canonical
/// mid-factor point (`linpack_600`) one elimination pass has already
/// rewritten every matrix cell with full-mantissa values, which no
/// lossless coder meaningfully shrinks; frozen before the first column
/// factors (`linpack_600_cold`) the matgen cells carry 14 significant
/// bits each and the byte-plane filter collapses their zero bytes.
pub fn wire_rows() -> Vec<WireRow> {
    vec![
        wire_row("test_pointer", TestPointer::new, Trigger::AtPollCount(8)),
        wire_row(
            "linpack_600",
            || Linpack::truncated(600, 4),
            Trigger::AtPollCount(2),
        ),
        wire_row(
            "linpack_600_cold",
            || Linpack::truncated(600, 4),
            Trigger::AtPollCount(1),
        ),
        wire_row(
            "bitonic_20000",
            || BitonicSort::new(20_000),
            Trigger::AtPollCount(20_000),
        ),
    ]
}

/// The CI perf gate over [`wire_rows`]: identity under v3 framing and
/// compression actually shrinking linpack's image. Counters only.
pub fn wire_gate(rows: &[WireRow]) -> Vec<String> {
    let mut violations = Vec::new();
    for r in rows {
        if !r.restored_identical {
            violations.push(format!(
                "{}: v3 migration diverged from the stored run",
                r.label
            ));
        }
        if r.label == "linpack_600" && r.wire_bytes >= r.raw_bytes {
            violations.push(format!(
                "{}: v3 framing did not shrink the image ({} wire vs {} raw bytes)",
                r.label, r.wire_bytes, r.raw_bytes
            ));
        }
        // The tentpole claim: on the pre-factor matrix the codec drops
        // modeled tx volume by at least 30%.
        if r.label == "linpack_600_cold" && r.wire_bytes * 10 > r.raw_bytes * 7 {
            violations.push(format!(
                "{}: compression dropped tx bytes by less than 30% ({} wire vs {} raw bytes)",
                r.label, r.wire_bytes, r.raw_bytes
            ));
        }
    }
    violations
}

/// One iterative pre-copy migration: the delta-vs-full wire accounting
/// and the freeze-leg cost.
#[derive(Debug, Clone)]
pub struct DeltaRow {
    /// Workload label (`tampered` rows exercise the fallback ladder).
    pub label: String,
    /// Source architecture preset.
    pub src: String,
    /// Destination architecture preset.
    pub dst: String,
    /// Wire bytes of round 0's full image (the stop-and-copy baseline).
    pub full_bytes: u64,
    /// Wire bytes of every delta round combined (freeze included).
    pub delta_bytes: u64,
    /// Wire bytes shipped while frozen — the paper's freeze-time cost.
    pub freeze_bytes: u64,
    /// Delta rounds shipped after round 0.
    pub rounds: u32,
    /// Whether the dirty set converged below the threshold (vs hitting
    /// the round cap).
    pub converged: bool,
    /// Full-image fallbacks taken after a digest refusal.
    pub fallbacks: u32,
    /// Per-round byte identity held AND the destination's answers match
    /// the unmigrated run. Anything but `true` fails the delta gate.
    pub identical: bool,
    /// The program finished on the source before any round froze —
    /// a misconfigured row, gated to `false`.
    pub completed_on_source: bool,
    /// Wall time of the freeze leg (final collect through restored) —
    /// report-only.
    pub freeze_time: Duration,
}

/// Short preset tag for table/JSON keys (the full display names are
/// too wide for a 16-pair table).
fn arch_tag(a: &Architecture) -> &'static str {
    if a.name.contains("DEC") {
        "dec5000"
    } else if a.name.contains("SPARC 20") {
        "sparc20"
    } else if a.name.contains("Ultra 5") {
        "ultra5"
    } else {
        "x86_64"
    }
}

/// Pre-copy sizing for the delta table. Bitonic keeps inserting for
/// its whole life, so its dirty set never *converges* below a small
/// threshold — the freeze comes from the round cap, and the round
/// budget (trigger n/4 + 4 × 150 polls) must stay well inside the
/// workload's n total polls or the run completes on the source. At 150
/// insertions per round the freeze leg ships ~10.5% of the full image.
const DELTA_N: u64 = 4_000;

fn delta_cfg() -> PrecopyConfig {
    PrecopyConfig {
        round_polls: 150,
        max_rounds: 4,
        dirty_threshold: 0.05,
        ..PrecopyConfig::default()
    }
}

fn delta_row(
    label: &str,
    n: u64,
    src: &Architecture,
    dst: &Architecture,
    cfg: PrecopyConfig,
    expected: &[(String, String)],
) -> DeltaRow {
    let run = migrate(
        || BitonicSort::new(n),
        src.clone(),
        dst.clone(),
        NetworkModel::ethernet_100(),
        Trigger::AtPollCount(n / 4),
        &Migration {
            precopy: Some(cfg),
            ..Migration::new(Transport::Whole)
        },
    )
    .expect("pre-copy migration");
    let s = run.report.precopy.as_ref().expect("pre-copy stats");
    DeltaRow {
        label: label.to_string(),
        src: arch_tag(src).to_string(),
        dst: arch_tag(dst).to_string(),
        full_bytes: s.full_bytes,
        delta_bytes: s.bytes_per_round.iter().skip(1).sum(),
        freeze_bytes: s.freeze_bytes,
        rounds: s.rounds,
        converged: s.converged,
        fallbacks: s.fallbacks,
        identical: s.identity_ok && diff_results(expected, &run.results).is_none(),
        completed_on_source: s.completed_on_source,
        freeze_time: s.freeze_time,
    }
}

/// The delta table: iterative pre-copy bitonic over **all 16 preset
/// pairs** (digests are machine-independent, so every pair must restore
/// bit-identically per round), plus one deliberately tampered-base row
/// proving the digest refusal falls back to a clean full image.
///
/// The workload must poll in its *outermost* frame (see the pre-copy
/// tests): `BitonicSort` polls once per insertion in `main`, so resumed
/// rounds keep freezing; `TestPointer` and `Linpack` poll only inside
/// inner frames and would silently complete on the source.
pub fn delta_rows() -> Vec<DeltaRow> {
    let (expected, _) = run_straight(&mut BitonicSort::new(DELTA_N), Architecture::dec5000())
        .expect("straight run");
    let mut rows = Vec::new();
    for src in Architecture::presets() {
        for dst in Architecture::presets() {
            rows.push(delta_row(
                "bitonic_4000",
                DELTA_N,
                &src,
                &dst,
                delta_cfg(),
                &expected,
            ));
        }
    }
    let n = 2_000;
    let (expected, _) =
        run_straight(&mut BitonicSort::new(n), Architecture::dec5000()).expect("straight run");
    rows.push(delta_row(
        "bitonic_2000_tampered",
        n,
        &Architecture::dec5000(),
        &Architecture::ultra5(),
        PrecopyConfig {
            round_polls: 300,
            max_rounds: 3,
            dirty_threshold: 0.01,
            tamper_base_at_round: Some(1),
        },
        &expected,
    ));
    rows
}

/// The CI gate over [`delta_rows`]: byte identity and matching answers
/// on every row, a real freeze on every row, the freeze leg shipping
/// ≤ 25% of the full image on the iterative rows, and the tampered base
/// falling back exactly once. Counters only — `freeze_time` is
/// reported, never gated.
pub fn delta_gate(rows: &[DeltaRow]) -> Vec<String> {
    let mut violations = Vec::new();
    for r in rows {
        let pair = format!("{} {}->{}", r.label, r.src, r.dst);
        if !r.identical {
            violations.push(format!(
                "{pair}: delta-restored image or answers diverged from the full-image run"
            ));
        }
        if r.completed_on_source {
            violations.push(format!(
                "{pair}: no freeze happened — the row is not exercising the delta rounds"
            ));
        }
        if r.label.contains("tampered") {
            if r.fallbacks != 1 {
                violations.push(format!(
                    "{pair}: tampered base must fall back exactly once (saw {})",
                    r.fallbacks
                ));
            }
            continue;
        }
        if r.fallbacks != 0 {
            violations.push(format!(
                "{pair}: unexpected full-image fallback ({}) on a clean link",
                r.fallbacks
            ));
        }
        if r.freeze_bytes * 4 > r.full_bytes {
            violations.push(format!(
                "{pair}: freeze shipped {} of a {}-byte image (> 25%)",
                r.freeze_bytes, r.full_bytes
            ));
        }
    }
    violations
}

/// Monolithic vs pipelined migration on one link.
#[derive(Debug, Clone)]
pub struct PipelineRow {
    /// Workload label.
    pub label: String,
    /// Link label.
    pub link: String,
    /// Monolithic migration time (Collect + Tx + Restore in sequence).
    pub serial: Duration,
    /// Pipelined end-to-end wall time (collect start → final restore).
    pub pipelined: Duration,
    /// Fraction of the serial sum hidden by overlapping.
    pub overlap_ratio: f64,
    /// Wire frames shipped (prefix + payload chunks + terminator).
    pub chunks: u64,
    /// Restoration time spent waiting for chunks.
    pub stall: Duration,
}

fn freeze_test_pointer() -> MigratedSource {
    let mut prog = TestPointer::new();
    run_to_migration(&mut prog, Architecture::ultra5(), Trigger::AtPollCount(8))
        .expect("test_pointer reaches its migration point")
}

/// Monolithic vs pipelined comparison: bitonic 20 000 over the paper's
/// 10 Mb/s and 100 Mb/s links, with real-time pacing so the pipelined
/// run actually experiences the wire.
pub fn pipeline_rows() -> Vec<PipelineRow> {
    let n = 20_000u64;
    let mut rows = Vec::new();
    for (link_label, link) in [
        ("10 Mb/s", NetworkModel::ethernet_10()),
        ("100 Mb/s", NetworkModel::ethernet_100()),
    ] {
        let mono = run_migrating(
            move || BitonicSort::new(n),
            Architecture::ultra5(),
            Architecture::ultra5(),
            link,
            Trigger::AtPollCount(n),
        )
        .expect("monolithic bitonic migrates");
        let run = migrate(
            move || BitonicSort::new(n),
            Architecture::ultra5(),
            Architecture::ultra5(),
            link,
            Trigger::AtPollCount(n),
            &Migration::new(Transport::Streamed(PipelineConfig::default())),
        )
        .expect("pipelined bitonic migrates");
        let p = run
            .report
            .pipeline()
            .expect("pipelined run carries pipeline stats");
        rows.push(PipelineRow {
            label: format!("bitonic {n}"),
            link: link_label.to_string(),
            serial: mono.report.migration_time(),
            pipelined: p.e2e_time,
            overlap_ratio: p.overlap_ratio(),
            chunks: p.chunks,
            stall: p.restore_stall,
        });
    }
    rows
}

/// One row of the recovery-overhead-vs-fault-rate sweep: `runs` resilient
/// TestPointer migrations at one uniform fault rate, aggregated.
#[derive(Debug, Clone)]
pub struct FaultRateRow {
    /// Per-mille rate applied to drop/corrupt/duplicate (reorder and
    /// delay run at half this rate).
    pub rate_per_mille: u16,
    /// Seeds swept at this rate.
    pub runs: u64,
    /// Runs that exhausted retries and resumed on the source.
    pub fallbacks: u64,
    /// Total faults the injector fired across all runs.
    pub faults_injected: u64,
    /// Total frame retransmissions across all runs.
    pub retransmits: u64,
    /// Mean modeled recovery overhead (backoff + injected delay) per run.
    pub mean_overhead: Duration,
    /// Mean recovery overhead as a percentage of mean migration time.
    pub overhead_pct: f64,
}

/// The policy both fault sweeps run under: small chunks so every plan
/// sees plenty of frames, a modest retry budget, source-resume fallback.
fn sweep_policy() -> (PipelineConfig, RecoveryPolicy) {
    (
        PipelineConfig {
            chunk_bytes: 64,
            pace: false,
            pace_scale: 0.0,
            ..PipelineConfig::default()
        },
        RecoveryPolicy {
            max_retries: 6,
            backoff: Duration::from_millis(1),
            fallback: FallbackPolicy::SourceResume,
            resume: true,
        },
    )
}

fn resilient_test_pointer(plan: FaultPlan) -> MigrationRun {
    let (cfg, policy) = sweep_policy();
    run_migrating_resilient(
        TestPointer::new,
        Architecture::dec5000(),
        Architecture::sparc20(),
        NetworkModel::ethernet_10(),
        Trigger::AtPollCount(8),
        cfg,
        plan,
        policy,
    )
    .expect("resilient driver terminates cleanly under any plan")
}

/// Recovery overhead vs fault rate: `seed_count` seeds per rate bucket,
/// TestPointer over the paper's 10 Mb/s link. Every run's answer is
/// checked against an unmigrated run before it may contribute a row.
pub fn fault_rate_rows(seed_count: u64) -> Vec<FaultRateRow> {
    let mut expect_prog = TestPointer::new();
    let (expect, _) = run_straight(&mut expect_prog, Architecture::dec5000()).expect("baseline");
    let mut rows = Vec::new();
    for rate in [0u16, 15, 30, 60, 120] {
        let mut fallbacks = 0u64;
        let mut faults = 0u64;
        let mut retransmits = 0u64;
        let mut overhead = Duration::ZERO;
        let mut mig_time = Duration::ZERO;
        for i in 0..seed_count {
            let plan = FaultPlan {
                seed: 0xFA17_0000_0000_0000 | (rate as u64) << 32 | i,
                drop_per_mille: rate,
                corrupt_per_mille: rate,
                duplicate_per_mille: rate,
                reorder_per_mille: rate / 2,
                delay_per_mille: rate / 2,
                disconnect_at: None,
                ..FaultPlan::none()
            };
            let run = resilient_test_pointer(plan);
            assert!(
                diff_results(&expect, &run.results).is_none(),
                "fault sweep seed {:#x}: wrong answer",
                plan.seed
            );
            let r = run.report.recovery().expect("resilient runs carry stats");
            fallbacks += r.fallback_taken as u64;
            faults += r.faults_injected;
            retransmits += r.retransmits;
            overhead += r.recovery_overhead();
            mig_time += run.report.migration_time();
        }
        let mean_overhead = overhead / seed_count.max(1) as u32;
        let mean_mig = mig_time.as_secs_f64() / seed_count.max(1) as f64;
        rows.push(FaultRateRow {
            rate_per_mille: rate,
            runs: seed_count,
            fallbacks,
            faults_injected: faults,
            retransmits,
            mean_overhead,
            overhead_pct: if mean_mig > 0.0 {
                100.0 * mean_overhead.as_secs_f64() / mean_mig
            } else {
                0.0
            },
        });
    }
    rows
}

/// One fixed-seed soak run (the CI job's unit): the full
/// [`FaultPlan::from_seed`] schedule, answer checked, stats recorded.
#[derive(Debug, Clone)]
pub struct FaultSeedRow {
    /// The seed the whole plan derives from.
    pub seed: u64,
    /// Combined drop+corrupt+dup+reorder+delay rate of the derived plan.
    pub pressure_per_mille: u32,
    /// Chunk index the plan severs the link at, if any.
    pub disconnect_at: Option<u32>,
    /// Whether the run had to resume on the source.
    pub fallback_taken: bool,
    /// Faults the injector fired.
    pub faults_injected: u64,
    /// Frame retransmissions.
    pub retransmits: u64,
    /// Corrupt frames the receiver's CRC caught.
    pub corrupt_caught: u64,
    /// Modeled recovery overhead (backoff + injected delay).
    pub overhead: Duration,
}

/// Run each fixed seed through the resilient driver and record what the
/// recovery machinery did. Panics if any run hangs the driver or returns
/// a wrong answer — this is the CI soak's pass/fail line.
pub fn fault_seed_rows(seeds: &[u64]) -> Vec<FaultSeedRow> {
    let mut expect_prog = TestPointer::new();
    let (expect, _) = run_straight(&mut expect_prog, Architecture::dec5000()).expect("baseline");
    seeds
        .iter()
        .map(|&seed| {
            let plan = FaultPlan::from_seed(seed);
            let run = resilient_test_pointer(plan);
            assert!(
                diff_results(&expect, &run.results).is_none(),
                "fault soak seed {seed:#x}: wrong answer"
            );
            let r = run.report.recovery().expect("resilient runs carry stats");
            FaultSeedRow {
                seed,
                pressure_per_mille: plan.pressure_per_mille(),
                disconnect_at: plan.disconnect_at,
                fallback_taken: r.fallback_taken,
                faults_injected: r.faults_injected,
                retransmits: r.retransmits,
                corrupt_caught: r.corrupt_caught,
                overhead: r.recovery_overhead(),
            }
        })
        .collect()
}

/// The three fixed seeds the CI soak job replays on every push.
pub const CI_SOAK_SEEDS: [u64; 3] = [
    0x50AC_0000_0000_0001, // lossy but live link
    0x50AC_0000_0000_0008, // lossy but live link
    0x50AC_0000_0000_0018, // severs the link at chunk 9: now heals via journal resume
];

/// One crash-point of the resumable-restore sweep: the destination is
/// killed before consuming chunk *k*, rebuilt, and resumed from its
/// chunk journal; the row records how much of the wire the journal
/// bought back.
#[derive(Debug, Clone)]
pub struct ResumeRow {
    /// `workload@percent` — the crash point as a fraction of the stream.
    pub label: String,
    /// Chunk index the destination died before consuming.
    pub crash_chunk: u32,
    /// Wire frames of the uninterrupted stream.
    pub total_chunks: u64,
    /// Chunks the journal held at the crash (must equal `crash_chunk`).
    pub journal_chunks: u64,
    /// Journal chunks replayed locally into the rebuilt destination.
    pub chunks_replayed: u64,
    /// Chunks the resumed transfer actually re-shipped.
    pub chunks_retransferred: u64,
    /// Wire bytes the resume handshake skipped (the journaled prefix).
    pub bytes_saved: u64,
    /// Wire bytes the resumed transfer still had to ship.
    pub bytes_retransferred: u64,
    /// `bytes_saved / (bytes_saved + bytes_retransferred)`.
    pub saved_fraction: f64,
    /// Already-verified chunks that crossed the wire again (gated at 0).
    pub wire_replays: u64,
    /// Ladder rung the migration completed on (gated at 2).
    pub rung: u8,
    /// Whether the resumed run matched an unmigrated run's answers.
    pub answer_ok: bool,
}

/// Crash one workload at 25%, 50%, and 75% of its chunk stream and
/// resume each crash from the journal. A clean run first measures the
/// stream length so the crash points land at real chunk indices.
fn resume_sweep<P: hpm_migrate::MigratableProgram + Send>(
    label: &str,
    make: impl Fn() -> P + Copy + Send,
    src: Architecture,
    dst: Architecture,
    trigger: Trigger,
    chunk_bytes: usize,
) -> Vec<ResumeRow> {
    let mut expect_prog = make();
    let (expect, _) = run_straight(&mut expect_prog, src.clone()).expect("baseline");
    let cfg = PipelineConfig {
        chunk_bytes,
        pace: false,
        pace_scale: 0.0,
        ..PipelineConfig::default()
    };
    let policy = RecoveryPolicy {
        max_retries: 4,
        backoff: Duration::from_millis(1),
        fallback: FallbackPolicy::SourceResume,
        resume: true,
    };
    let clean = run_migrating_resilient(
        make,
        src.clone(),
        dst.clone(),
        NetworkModel::ethernet_100(),
        trigger.clone(),
        cfg,
        FaultPlan::none(),
        policy,
    )
    .expect("clean resilient run");
    let total = clean
        .report
        .pipeline()
        .expect("a fault-free run completes its pipeline")
        .chunks;
    [1u64, 2, 3]
        .into_iter()
        .map(|quarter| {
            let k = ((total * quarter) / 4).max(1) as u32;
            let plan = FaultPlan {
                dst_crash_at: Some(k),
                ..FaultPlan::none()
            };
            let run = run_migrating_resilient(
                make,
                src.clone(),
                dst.clone(),
                NetworkModel::ethernet_100(),
                trigger.clone(),
                cfg,
                plan,
                policy,
            )
            .expect("crashed resilient run terminates");
            let resume = run
                .report
                .resume()
                .expect("resilient runs carry resume stats");
            let shipped = resume.bytes_saved + resume.bytes_retransferred;
            ResumeRow {
                label: format!("{label}@{}", quarter * 25),
                crash_chunk: k,
                total_chunks: total,
                journal_chunks: resume.journal_chunks,
                chunks_replayed: resume.chunks_replayed,
                chunks_retransferred: resume.chunks_retransferred,
                bytes_saved: resume.bytes_saved,
                bytes_retransferred: resume.bytes_retransferred,
                saved_fraction: if shipped > 0 {
                    resume.bytes_saved as f64 / shipped as f64
                } else {
                    0.0
                },
                wire_replays: resume.wire_replays,
                rung: resume.rung,
                answer_ok: diff_results(&expect, &run.results).is_none(),
            }
        })
        .collect()
}

/// The resumable-restore table: each paper workload crashed at three
/// points of its chunk stream and resumed from the journal. Chunk sizes
/// are picked per workload so every stream is long enough for the 25%
/// crash point to sit past the prefix.
pub fn resume_rows() -> Vec<ResumeRow> {
    let mut rows = Vec::new();
    rows.extend(resume_sweep(
        "test_pointer",
        TestPointer::new,
        Architecture::dec5000(),
        Architecture::sparc20(),
        Trigger::AtPollCount(8),
        256,
    ));
    rows.extend(resume_sweep(
        "linpack_600",
        || Linpack::truncated(600, 4),
        Architecture::ultra5(),
        Architecture::ultra5(),
        Trigger::AtPollCount(2),
        65_536,
    ));
    rows.extend(resume_sweep(
        "bitonic_20000",
        || BitonicSort::new(20_000),
        Architecture::ultra5(),
        Architecture::ultra5(),
        Trigger::AtPollCount(20_000),
        4_096,
    ));
    rows
}

/// The CI resume gate over [`resume_rows`]: every crash must resume on
/// rung 2 with the right answers, a journal resume must never replay a
/// verified chunk over the wire, and on linpack the wire bytes saved
/// must be at least the journaled share of the stream (the prefix chunk
/// is excused — it is smaller than a payload chunk). Counters only —
/// wall clocks are reported, never gated.
pub fn resume_gate(rows: &[ResumeRow]) -> Vec<String> {
    let mut violations = Vec::new();
    for r in rows {
        if !r.answer_ok {
            violations.push(format!("{}: wrong answer after resume", r.label));
        }
        if r.rung != 2 {
            violations.push(format!(
                "{}: crashed destination finished on rung {} instead of resuming from its journal",
                r.label, r.rung
            ));
        }
        if r.wire_replays != 0 {
            violations.push(format!(
                "{}: {} already-verified chunks crossed the wire twice",
                r.label, r.wire_replays
            ));
        }
        if r.chunks_replayed != r.journal_chunks {
            violations.push(format!(
                "{}: journal held {} chunks but only {} were replayed",
                r.label, r.journal_chunks, r.chunks_replayed
            ));
        }
        if r.label.starts_with("linpack_600") {
            let floor = r.journal_chunks.saturating_sub(1) as f64 / r.total_chunks.max(1) as f64;
            if r.saved_fraction < floor {
                violations.push(format!(
                    "{}: resume saved {:.1}% of wire bytes, below the {:.1}% journaled share",
                    r.label,
                    r.saved_fraction * 100.0,
                    floor * 100.0
                ));
            }
        }
    }
    violations
}

/// Percentile wire telemetry for one workload: per-chunk latency
/// distributions and the ARQ retry-count distribution, from one
/// fixed-seed resilient migration on the Table 1 testbed.
#[derive(Debug, Clone)]
pub struct TelemetryRow {
    /// Workload label.
    pub label: String,
    /// Wire frames shipped (prefix + payload chunks + terminator).
    pub chunks: u64,
    /// Median modeled per-chunk wire latency (ns).
    pub wire_p50_ns: u64,
    /// 99th-percentile modeled per-chunk wire latency (ns).
    pub wire_p99_ns: u64,
    /// Worst modeled per-chunk wire latency (ns).
    pub wire_max_ns: u64,
    /// Median per-chunk encode latency (ns) — wall clock, report-only.
    pub encode_p50_ns: u64,
    /// 99th-percentile per-chunk encode latency (ns).
    pub encode_p99_ns: u64,
    /// Median per-chunk decode latency (ns) — wall clock, report-only.
    pub decode_p50_ns: u64,
    /// 99th-percentile per-chunk decode latency (ns).
    pub decode_p99_ns: u64,
    /// Total frame retransmissions (seed-deterministic).
    pub retransmits: u64,
    /// Median per-chunk retry count (seed-deterministic).
    pub retry_p50: u64,
    /// 99th-percentile per-chunk retry count (seed-deterministic).
    pub retry_p99: u64,
    /// Worst per-chunk retry count (seed-deterministic).
    pub retry_max: u64,
}

/// One fixed-seed resilient migration per paper workload under mild
/// (20‰ drop/corrupt, 10‰ dup/reorder) seeded faults, Ultra 5 pair at
/// 100 Mb/s. The wire-latency percentiles come from the channel's
/// modeled per-chunk transmission times (deterministic); the ARQ retry
/// distribution is a pure function of the seed; encode/decode
/// percentiles are wall-clock and therefore report-only.
pub fn telemetry_rows() -> Vec<TelemetryRow> {
    let link = NetworkModel::ethernet_100();
    let cfg = PipelineConfig {
        chunk_bytes: 4096,
        pace: false,
        pace_scale: 0.0,
        ..PipelineConfig::default()
    };
    let policy = RecoveryPolicy {
        max_retries: 8,
        backoff: Duration::from_millis(1),
        fallback: FallbackPolicy::SourceResume,
        resume: true,
    };
    let plan = |seed: u64| FaultPlan {
        seed,
        drop_per_mille: 20,
        corrupt_per_mille: 20,
        duplicate_per_mille: 10,
        reorder_per_mille: 10,
        delay_per_mille: 0,
        disconnect_at: None,
        ..FaultPlan::none()
    };
    let runs: Vec<(&str, MigrationRun)> = vec![
        (
            "test_pointer",
            run_migrating_resilient(
                TestPointer::new,
                Architecture::ultra5(),
                Architecture::ultra5(),
                link,
                Trigger::AtPollCount(8),
                cfg,
                plan(0x7E1E_0000_0000_0001),
                policy,
            )
            .expect("telemetry: test_pointer migrates"),
        ),
        (
            "linpack_600",
            run_migrating_resilient(
                || Linpack::truncated(600, 4),
                Architecture::ultra5(),
                Architecture::ultra5(),
                link,
                Trigger::AtPollCount(2),
                cfg,
                plan(0x7E1E_0000_0000_0002),
                policy,
            )
            .expect("telemetry: linpack migrates"),
        ),
        (
            "bitonic_20000",
            run_migrating_resilient(
                || BitonicSort::new(20_000),
                Architecture::ultra5(),
                Architecture::ultra5(),
                link,
                Trigger::AtPollCount(20_000),
                cfg,
                plan(0x7E1E_0000_0000_0003),
                policy,
            )
            .expect("telemetry: bitonic migrates"),
        ),
    ];
    runs.into_iter()
        .map(|(label, run)| {
            let p = run
                .report
                .pipeline()
                .expect("telemetry seeds complete without fallback");
            let r = run.report.recovery().expect("resilient runs carry stats");
            let w = run.report.transfer.wire_lat;
            TelemetryRow {
                label: label.to_string(),
                chunks: p.chunks,
                wire_p50_ns: w.p50(),
                wire_p99_ns: w.p99(),
                wire_max_ns: w.max,
                encode_p50_ns: p.encode_lat.p50(),
                encode_p99_ns: p.encode_lat.p99(),
                decode_p50_ns: p.decode_lat.p50(),
                decode_p99_ns: p.decode_lat.p99(),
                retransmits: r.retransmits,
                retry_p50: r.retry_hist.p50(),
                retry_p99: r.retry_hist.p99(),
                retry_max: r.retry_hist.max,
            }
        })
        .collect()
}

/// One workload through the analyzer's non-source pass families: the
/// pre-flight registry audit of the frozen process's live MSRLT, plus
/// the portability audit of its TI table against every preset pair.
#[derive(Debug, Clone)]
pub struct LintRow {
    /// Workload label.
    pub label: String,
    /// Registry-audit findings (all deny-level if nonzero).
    pub registry_findings: u64,
    /// Info-level findings.
    pub info: u64,
    /// Warning-level findings.
    pub warnings: u64,
    /// Error-level findings.
    pub errors: u64,
    /// Analyzer wall time (audit + report build).
    pub wall: Duration,
}

impl LintRow {
    /// Whether the workload passes the CI deny gate (no warnings or
    /// errors).
    pub fn clean(&self) -> bool {
        self.warnings == 0 && self.errors == 0
    }
}

/// Audit the three paper workloads, each frozen at its migration point.
/// These must all come back [`LintRow::clean`] — the CI lint gate
/// refuses new findings here.
pub fn lint_rows() -> Vec<LintRow> {
    let frozen = [
        ("test_pointer", freeze_test_pointer()),
        ("linpack_600", freeze_linpack(600)),
        ("bitonic_20000", freeze_bitonic(20_000)),
    ];
    frozen
        .into_iter()
        .map(|(label, mut src)| {
            let t0 = Instant::now();
            let (findings, _stats) = src.preflight_audit().expect("registry audit runs");
            let mut report = hpm_lint::registry_report(&findings, label);
            report.merge(hpm_lint::audit_table(src.proc.space.types(), label));
            report.finish();
            let wall = t0.elapsed();
            LintRow {
                label: label.to_string(),
                registry_findings: findings.len() as u64,
                info: report.count(hpm_lint::Severity::Info) as u64,
                warnings: report.count(hpm_lint::Severity::Warning) as u64,
                errors: report.count(hpm_lint::Severity::Error) as u64,
                wall,
            }
        })
        .collect()
}

/// One model-check scenario's exploration counters, bench/CI-ready.
/// Every counter is a pure function of the scenario and the checker —
/// no wall clocks, no seeds — so the rows diff deterministically
/// across revisions.
#[derive(Debug, Clone)]
pub struct ModelCheckRow {
    /// Scenario name (`arq_baseline`, `arq_resume`, …).
    pub scenario: String,
    /// `"protocol"` (the product-state BFS).
    pub kind: String,
    /// Distinct product states.
    pub states: u64,
    /// Transitions explored.
    pub interleavings: u64,
    /// Work avoided: deduplicated transitions.
    pub reductions: u64,
    /// Violations (zero-tolerance in the bench gate; a missed seeded
    /// catch counts as a violation).
    pub violations: u64,
    /// This scenario carries a deliberately seeded bug.
    pub expected_catch: bool,
    /// The seeded bug was caught with the expected code.
    pub caught: bool,
    /// The search budget stopped exploration early.
    pub budget_exhausted: bool,
    /// One-line human summary from the checker.
    pub detail: String,
}

/// Run the full `hpm-model` suite — every ARQ/resume protocol
/// scenario — and flatten the reports into bench rows.
pub fn modelcheck_rows() -> Vec<ModelCheckRow> {
    hpm_model::run_all()
        .into_iter()
        .map(|r| ModelCheckRow {
            scenario: r.scenario.clone(),
            kind: r.kind.to_string(),
            states: r.states,
            interleavings: r.interleavings,
            reductions: r.reductions,
            violations: u64::from(r.violations()),
            expected_catch: r.expected_catch,
            caught: r.caught,
            budget_exhausted: r.budget_exhausted,
            detail: r.detail,
        })
        .collect()
}

/// The model-check gate: zero tolerance. Any violation (including a
/// seeded bug the checker failed to catch — `run_all` folds that miss
/// into the findings) or an exhausted search budget fails CI, because
/// an incomplete exploration is not a proof.
pub fn modelcheck_gate(rows: &[ModelCheckRow]) -> Vec<String> {
    let mut v = Vec::new();
    for r in rows {
        if r.violations > 0 {
            v.push(format!(
                "{}: {} model-check violation(s) — run `hpm-model --scenario {} \
                 --trace-dir traces/` for the counterexample",
                r.scenario, r.violations, r.scenario
            ));
        }
        if r.expected_catch && !r.caught && r.violations == 0 {
            v.push(format!(
                "{}: seeded bug not caught and not reported — checker wiring broken",
                r.scenario
            ));
        }
        if r.budget_exhausted {
            v.push(format!(
                "{}: search budget exhausted after {} states — verdict incomplete",
                r.scenario, r.states
            ));
        }
    }
    v
}

/// Machine-readable per-workload benchmark summary (the `BENCH_<rev>.json`
/// artifact): Collect/Tx/Restore nanos, search counters, and the MSRLT
/// translation-cache hit rate, on the Table 1 testbed — plus the
/// translation-performance table (page-index counters), the
/// recovery-overhead-vs-fault-rate sweep on the 10 Mb/s link, the
/// percentile wire/ARQ telemetry rows, the wire compression table, the
/// resumable-restore
/// crash-point sweep, the per-workload analyzer findings, and the
/// model-check exploration counters. Compare
/// two artifacts with `paper_tables bench-diff` (see [`diff`]).
pub fn bench_json(revision: &str) -> String {
    let link = NetworkModel::ethernet_100();
    let rows = [
        {
            let mut s = freeze_test_pointer();
            measure_frozen("test_pointer", 0, &mut s, link, TestPointer::new)
        },
        {
            let mut s = freeze_linpack(600);
            measure_frozen("linpack_600", 600, &mut s, link, || {
                Linpack::truncated(600, 4)
            })
        },
        {
            let mut s = freeze_bitonic(20_000);
            measure_frozen("bitonic_20000", 20_000, &mut s, link, || {
                BitonicSort::new(20_000)
            })
        },
    ];
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"revision\": \"{revision}\",\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"payload_bytes\": {}, \"collect_ns\": {}, \"tx_ns\": {}, \
             \"restore_ns\": {}, \"searches\": {}, \"search_steps\": {}, \"cache_hit_rate\": {:.4}}}{}\n",
            r.label,
            r.payload_bytes,
            r.collect.as_nanos(),
            r.tx.as_nanos(),
            r.restore.as_nanos(),
            r.searches,
            r.search_steps,
            r.cache_hit_rate(),
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"translate\": [\n");
    let trows = translate_rows();
    for (i, r) in trows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"payload_bytes\": {}, \"searches\": {}, \
             \"search_steps\": {}, \"steps_per_search\": {:.4}, \"cache_hit_rate\": {:.4}, \
             \"modes_identical\": {}, \"collect_ns\": {}, \"collect_per_element_ns\": {}}}{}\n",
            r.label,
            r.payload_bytes,
            r.searches,
            r.search_steps,
            r.steps_per_search,
            r.cache_hit_rate,
            r.modes_identical,
            r.collect.as_nanos(),
            r.collect_per_element.as_nanos(),
            if i + 1 == trows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"faults\": [\n");
    let frows = fault_rate_rows(8);
    for (i, r) in frows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"rate_per_mille\": {}, \"runs\": {}, \"fallbacks\": {}, \
             \"faults_injected\": {}, \"retransmits\": {}, \"mean_overhead_ns\": {}, \
             \"overhead_pct\": {:.4}}}{}\n",
            r.rate_per_mille,
            r.runs,
            r.fallbacks,
            r.faults_injected,
            r.retransmits,
            r.mean_overhead.as_nanos(),
            r.overhead_pct,
            if i + 1 == frows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"telemetry\": [\n");
    let telemetry = telemetry_rows();
    for (i, r) in telemetry.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"chunks\": {}, \"wire_p50_ns\": {}, \"wire_p99_ns\": {}, \
             \"wire_max_ns\": {}, \"encode_p50_ns\": {}, \"encode_p99_ns\": {}, \
             \"decode_p50_ns\": {}, \"decode_p99_ns\": {}, \"retransmits\": {}, \
             \"retry_p50\": {}, \"retry_p99\": {}, \"retry_max\": {}}}{}\n",
            r.label,
            r.chunks,
            r.wire_p50_ns,
            r.wire_p99_ns,
            r.wire_max_ns,
            r.encode_p50_ns,
            r.encode_p99_ns,
            r.decode_p50_ns,
            r.decode_p99_ns,
            r.retransmits,
            r.retry_p50,
            r.retry_p99,
            r.retry_max,
            if i + 1 == telemetry.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"wire\": [\n");
    let wrows = wire_rows();
    for (i, r) in wrows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"raw_bytes\": {}, \"wire_bytes\": {}, \"ratio\": {:.4}, \
             \"chunks_compressed\": {}, \"restored_identical\": {}}}{}\n",
            r.label,
            r.raw_bytes,
            r.wire_bytes,
            r.ratio,
            r.chunks_compressed,
            r.restored_identical,
            if i + 1 == wrows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"delta\": [\n");
    let drows = delta_rows();
    let mut freeze_ns: Vec<u64> = drows
        .iter()
        .map(|r| r.freeze_time.as_nanos() as u64)
        .collect();
    freeze_ns.sort_unstable();
    for r in &drows {
        out.push_str(&format!(
            "    {{\"name\": \"{}:{}->{}\", \"full_bytes\": {}, \"delta_bytes\": {}, \
             \"freeze_bytes\": {}, \"rounds\": {}, \"converged\": {}, \"fallbacks\": {}, \
             \"identical\": {}, \"froze\": {}, \"freeze_ns\": {}}},\n",
            r.label,
            r.src,
            r.dst,
            r.full_bytes,
            r.delta_bytes,
            r.freeze_bytes,
            r.rounds,
            r.converged,
            r.fallbacks,
            r.identical,
            !r.completed_on_source,
            r.freeze_time.as_nanos(),
        ));
    }
    // Freeze-leg wall-time percentiles across the pair sweep —
    // report-only, like every other wall clock in the artifact.
    let pick = |q: f64| freeze_ns[((freeze_ns.len() - 1) as f64 * q) as usize];
    out.push_str(&format!(
        "    {{\"name\": \"freeze_time_percentiles\", \"p50_ns\": {}, \"p90_ns\": {}, \
         \"max_ns\": {}}}\n",
        pick(0.5),
        pick(0.9),
        freeze_ns[freeze_ns.len() - 1],
    ));
    out.push_str("  ],\n");
    out.push_str("  \"resume\": [\n");
    let rrows = resume_rows();
    for (i, r) in rrows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"crash_chunk\": {}, \"total_chunks\": {}, \
             \"journal_chunks\": {}, \"chunks_replayed\": {}, \"chunks_retransferred\": {}, \
             \"bytes_saved\": {}, \"bytes_retransferred\": {}, \"saved_fraction\": {:.4}, \
             \"wire_replays\": {}, \"rung\": {}, \"answer_ok\": {}}}{}\n",
            r.label,
            r.crash_chunk,
            r.total_chunks,
            r.journal_chunks,
            r.chunks_replayed,
            r.chunks_retransferred,
            r.bytes_saved,
            r.bytes_retransferred,
            r.saved_fraction,
            r.wire_replays,
            r.rung,
            r.answer_ok,
            if i + 1 == rrows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"lint\": [\n");
    let lrows = lint_rows();
    for (i, r) in lrows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"registry_findings\": {}, \"info\": {}, \
             \"warnings\": {}, \"errors\": {}, \"wall_ns\": {}}}{}\n",
            r.label,
            r.registry_findings,
            r.info,
            r.warnings,
            r.errors,
            r.wall.as_nanos(),
            if i + 1 == lrows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"modelcheck\": [\n");
    let mrows = modelcheck_rows();
    for (i, r) in mrows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"kind\": \"{}\", \"states\": {}, \
             \"interleavings\": {}, \"reductions\": {}, \"violations\": {}, \
             \"expected_catch\": {}, \"caught\": {}, \"budget_exhausted\": {}}}{}\n",
            r.scenario,
            r.kind,
            r.states,
            r.interleavings,
            r.reductions,
            r.violations,
            r.expected_catch,
            r.caught,
            r.budget_exhausted,
            if i + 1 == mrows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Format seconds compactly.
pub fn secs(d: Duration) -> String {
    format!("{:.4}", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_frozen_linpack_measures() {
        let mut src = freeze_linpack(60);
        let row = measure_frozen(
            "linpack 60",
            60,
            &mut src,
            NetworkModel::ethernet_100(),
            || Linpack::truncated(60, 4),
        );
        assert!(row.payload_bytes > 60 * 60 * 8, "{row:?}");
        assert!(row.collect > Duration::ZERO);
        assert!(row.restore > Duration::ZERO);
        assert!(row.tx > Duration::ZERO);
    }

    #[test]
    fn small_frozen_bitonic_measures() {
        let mut src = freeze_bitonic(500);
        let row = measure_frozen(
            "bitonic 500",
            500,
            &mut src,
            NetworkModel::ethernet_100(),
            || BitonicSort::new(500),
        );
        assert!(row.blocks >= 499, "{row:?}");
        assert!(row.searches > 400, "one search per pointer chased");
    }

    #[test]
    fn collection_is_repeatable() {
        let mut src = freeze_bitonic(300);
        let (p1, _, s1) = src.collect().unwrap();
        let (p2, _, s2) = src.collect().unwrap();
        assert_eq!(p1, p2, "collection must not mutate the process");
        assert_eq!(s1.blocks_saved, s2.blocks_saved);
    }

    #[test]
    fn overhead_pct_math() {
        assert!((pct(Duration::from_secs(2), Duration::from_secs(1)) - 100.0).abs() < 1e-9);
        assert_eq!(pct(Duration::from_secs(1), Duration::ZERO), 0.0);
    }
}
