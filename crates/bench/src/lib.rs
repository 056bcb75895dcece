//! # hpm-bench — the paper's evaluation, reproduced
//!
//! The measurements behind the `paper_tables` binary. Every table is
//! declared once — a row function, and a [`table::Table`] naming each
//! column with its [`table::Kind`] — and the printed text, the
//! `BENCH_<rev>.json` rows and the bench-diff gates are all read from
//! that declaration. The only clock read is in [`harness::sample`], and
//! what it times prints as `floor ± spread`; the three tables that cannot
//! repeat a run cheaply (validation, delta, the paced pipeline) relay
//! spans from one migration's own report. No wall clock of either sort
//! enters the artifact, which carries only what is a function of the
//! code and the seeds ([`ARTIFACT`]), so two runs at one commit write the
//! same bytes.
//!
//! | paper item | rows | table |
//! |---|---|---|
//! | §4.1 heterogeneity validation | [`validation_rows`] | [`VALIDATION`] |
//! | Table 1 (Collect/Tx/Restore) | [`table1_rows`] | [`TABLE1`] |
//! | Figure 2(a) linpack scaling | [`fig2a_rows`] | [`FIG2A`] |
//! | Figure 2(b) bitonic scaling | [`fig2b_rows`] | [`FIG2B`] |
//! | §4.2 complexity model | [`complexity_rows`] | [`COMPLEXITY`] |
//! | §4.3 execution overhead | [`overhead_rows`] | [`OVERHEAD`] |
//! | DESIGN.md ablations | [`ablation_rows`] | [`ABLATION`] |
//! | DESIGN.md §7 translation perf | [`translate_rows`] | [`TRANSLATE`] |
//! | DESIGN.md §8 wire compression | [`wire_rows`] | [`WIRE`] |

pub mod diff;
pub mod harness;
pub mod table;

use harness::{sample, Timing};
use hpm_arch::Architecture;
use hpm_core::{Collector, Msrlt, SearchStrategy, TranslationMode};
use hpm_migrate::{
    migrate, resume_from_image, run_migrating, run_migrating_resilient, run_straight,
    run_to_migration, FallbackPolicy, MigratableProgram, MigratedSource, Migration, MigrationRun,
    PendingFrame, PipelineConfig, PrecopyConfig, RecoveryPolicy, Transport, Trigger,
};
use hpm_net::{FaultPlan, NetworkModel};
use hpm_obs::{EventLog, Level};
use hpm_workloads::{diff_results, BitonicSort, Linpack, PollPlacement, TestPointer};
use std::time::Duration;
use table::{col, Cell, Kind, Section, Table};

/// One frozen source collected, shipped over the modelled link and
/// restored: the Collect / Tx / Restore triplet plus supporting counters.
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
    /// Data collection time (zero on a row that was only counted).
    pub collect: Timing,
    /// Modeled transmission time.
    pub tx: Duration,
    /// Data restoration time, as the destination's own clock reports it
    /// (zero on a row that was only counted).
    pub restore: Timing,
    /// MSRLT searches during collection.
    pub searches: u64,
    /// Total search comparison steps.
    pub search_steps: u64,
    /// Fraction of address→id lookups answered by the translation cache.
    pub cache_hit_rate: f64,
    /// MSRLT registrations during restoration.
    pub restore_updates: u64,
}

impl MigRow {
    /// Collect + Tx + Restore: the floors and medians add; the spread is
    /// the sum of the two measured spreads, an upper bound.
    pub fn total(&self) -> Timing {
        Timing {
            floor: self.collect.floor + self.tx + self.restore.floor,
            median: self.collect.median + self.tx + self.restore.median,
            spread: self.collect.spread + self.restore.spread,
        }
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

/// Put the MSRLT where a migration's one collection finds it: no cached
/// translations, counters at zero. Sixty-four cache slots — cheap enough
/// to sit inside a timed repetition.
fn cold(msrlt: &mut Msrlt) {
    let enabled = msrlt.cache_enabled();
    msrlt.set_cache_enabled(false);
    msrlt.set_cache_enabled(enabled);
    msrlt.reset_stats();
}

/// Save every live variable of the frozen frames through `collector`;
/// the payload it built.
fn save_all(mut collector: Collector<'_>, pending: &[PendingFrame]) -> Vec<u8> {
    for frame in pending {
        for &addr in &frame.live {
            collector.save_variable(addr).expect("collect");
        }
    }
    collector.finish().0
}

/// `body` through the sampler when `timed`, once and unclocked otherwise
/// (what the artifact's rows do: they carry counters only).
fn measured<S, T>(
    timed: bool,
    mut setup: impl FnMut() -> S,
    mut body: impl FnMut(S) -> T,
    reported: impl Fn(&T) -> Option<Duration>,
) -> (Timing, T) {
    if timed {
        sample(setup, body, reported)
    } else {
        (Timing::default(), body(setup()))
    }
}

/// Measure one frozen source end-to-end on the Table 1 testbed
/// (Ultra 5 → Ultra 5, 100 Mb/s): counters always, Collect and Restore times when
/// `timed`. Every collection starts cold — no cached translations,
/// counters at zero — so a timed row's counters are an untimed one's.
pub fn measure_frozen<F, P>(
    label: &str,
    size: u64,
    src: &mut MigratedSource,
    make_dst: F,
    timed: bool,
) -> MigRow
where
    F: Fn() -> P,
    P: MigratableProgram,
{
    let collect_once = |()| {
        cold(&mut src.proc.msrlt);
        src.collect().expect("collect")
    };
    let (collect, (payload, _exec, cstats)) = measured(timed, || (), collect_once, |_| None);
    let msrlt = src.proc.msrlt.stats();

    let image = src.to_image().expect("image");
    let tx = NetworkModel::ethernet_100().tx_time(image.len() as u64);

    let resume = |mut dst_prog: P| {
        resume_from_image(&mut dst_prog, Architecture::ultra5(), &image).expect("resume")
    };
    let (restore, (_results, dst, _rstats, _)) =
        measured(timed, &make_dst, resume, |run| Some(run.3));

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
        cache_hit_rate: msrlt.cache_hit_rate(),
        restore_updates: dst.msrlt.stats().registrations,
    }
}

fn linpack_row(label: &str, n: u64, timed: bool) -> MigRow {
    let make = move || Linpack::truncated(n, 4);
    measure_frozen(label, n, &mut freeze_linpack(n), make, timed)
}

fn bitonic_row(label: &str, n: u64, timed: bool) -> MigRow {
    let make = move || BitonicSort::new(n);
    measure_frozen(label, n, &mut freeze_bitonic(n), make, timed)
}

/// Table 1: linpack 1000×1000 and bitonic 100 000, Ultra 5 pair, 100 Mb/s.
pub fn table1_rows() -> Vec<MigRow> {
    vec![
        linpack_row("linpack 1000x1000", 1000, true),
        bitonic_row("bitonic 100000", 100_000, true),
    ]
}

/// Figure 2(a): linpack collection/restoration time vs migrated data
/// size, for matrix orders 600–1200.
pub fn fig2a_rows() -> Vec<MigRow> {
    [600u64, 800, 1000, 1200]
        .iter()
        .map(|&n| linpack_row(&format!("linpack {n}x{n}"), n, true))
        .collect()
}

/// Figure 2(b): bitonic collection/restoration time vs number sorted.
pub fn fig2b_rows() -> Vec<MigRow> {
    [20_000u64, 40_000, 60_000, 80_000, 100_000, 120_000, 140_000]
        .iter()
        .map(|&n| bitonic_row(&format!("bitonic {n}"), n, true))
        .collect()
}

/// The artifact's `workloads` section: the three paper workloads on the
/// Table 1 testbed, counted, not timed.
pub fn workload_rows() -> Vec<MigRow> {
    let mut test_pointer = freeze_test_pointer();
    let make = TestPointer::new;
    vec![
        measure_frozen("test_pointer", 0, &mut test_pointer, make, false),
        linpack_row("linpack_600", 600, false),
        bitonic_row("bitonic_20000", 20_000, false),
    ]
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
    /// The total migration time (Collect + modeled Tx + Restore) of the
    /// one run.
    pub migration_time: Duration,
}

fn validation_row<P: MigratableProgram>(
    label: &str,
    make: impl Fn() -> P,
    trigger: Trigger,
) -> ValidationRow {
    let (src, dst) = (Architecture::dec5000(), Architecture::sparc20());
    let (expect, _) = run_straight(&mut make(), src.clone()).expect("straight run");
    let run = run_migrating(make, src, dst, NetworkModel::ethernet_10(), trigger)
        .expect("heterogeneous run");
    ValidationRow {
        label: label.to_string(),
        consistent: diff_results(&expect, &run.results).is_none(),
        payload_bytes: run.report.memory_bytes,
        blocks: run.report.collect_stats.blocks_saved,
        shared_refs: run.report.collect_stats.ptr_ref,
        migration_time: run.report.migration_time(),
    }
}

/// Run the §4.1 validation suite (linpack as a full solve, at a size the
/// simulator handles quickly).
pub fn validation_rows() -> Vec<ValidationRow> {
    vec![
        validation_row("test_pointer", TestPointer::new, Trigger::AtPollCount(8)),
        validation_row(
            "linpack 200x200",
            || Linpack::full(200),
            Trigger::AtPollCount(100),
        ),
        validation_row(
            "bitonic 20000",
            || BitonicSort::new(20_000),
            Trigger::AtPollCount(10_000),
        ),
    ]
}

/// §4.2: instrumented counters demonstrating the complexity model —
/// collection's MSRLT term is O(n log n), restoration's O(n) — for a
/// bitonic size sweep, counted only.
pub fn complexity_rows() -> Vec<MigRow> {
    [5_000u64, 20_000, 80_000]
        .iter()
        .map(|&n| bitonic_row(&format!("bitonic {n}"), n, false))
        .collect()
}

/// §4.3: execution overhead of the annotation mechanisms.
#[derive(Debug, Clone)]
pub struct OverheadRow {
    /// Configuration label.
    pub label: String,
    /// Time of the complete run.
    pub wall: Timing,
    /// Poll-points executed.
    pub polls: u64,
    /// MSRLT registrations performed.
    pub registrations: u64,
    /// Floor relative to the group's baseline row (%), or `None` when the
    /// two floors are no further apart than the two spreads together:
    /// unresolved, not an overhead.
    pub overhead_pct: Option<f64>,
}

/// One §4.3 group; the first configuration is its baseline.
fn overhead_group(rows: &mut Vec<OverheadRow>, group: &[(String, Timing, u64, u64)]) {
    let base = group[0].1;
    for (label, wall, polls, registrations) in group {
        let gap = wall.floor.abs_diff(base.floor);
        let resolved = gap.is_zero() || gap > wall.spread + base.spread;
        rows.push(OverheadRow {
            label: label.clone(),
            wall: *wall,
            polls: *polls,
            registrations: *registrations,
            overhead_pct: resolved.then(|| pct(wall.floor, base.floor)),
        });
    }
}

/// Measure the §4.3 overhead factors — poll-point placement (linpack)
/// and allocation-policy pressure on the MSRLT (bitonic) — and the cost
/// of the event log at each level.
pub fn overhead_rows() -> Vec<OverheadRow> {
    let mut rows = Vec::new();
    let ultra5 = Architecture::ultra5;

    let n = 160;
    let placements = [
        PollPlacement::None,
        PollPlacement::OuterLoop,
        PollPlacement::InnerKernel,
    ];
    let group = placements.map(|placement| {
        let make = || {
            let mut prog = Linpack::full(n);
            prog.placement = placement;
            prog
        };
        let run = |mut prog| run_straight(&mut prog, ultra5()).expect("linpack runs");
        let (wall, (_, proc)) = sample(make, run, |_| None);
        let registrations = proc.msrlt.stats().registrations;
        let label = format!("linpack {n}: poll {placement:?}");
        (label, wall, proc.poll_count(), registrations)
    });
    overhead_group(&mut rows, &group);

    let n = 30_000;
    let group = [("pooled (smart)", true), ("per-node", false)].map(|(policy, pooled)| {
        let make = || match pooled {
            true => BitonicSort::pooled(n),
            false => BitonicSort::new(n),
        };
        let run = |mut prog| run_straight(&mut prog, ultra5()).expect("bitonic runs");
        let (wall, (_, proc)) = sample(make, run, |_| None);
        let registrations = proc.msrlt.stats().registrations;
        let label = format!("bitonic {n}: {policy} allocation");
        (label, wall, proc.poll_count(), registrations)
    });
    overhead_group(&mut rows, &group);

    // Event-log levels: a full linpack migration (events fire per chunk /
    // phase, so protocol must track off) and a pointer-rich collection
    // (one detail site per MSRLT search: off and protocol pay a branch
    // each, detail pays for recording). A fresh log per repetition, so
    // each starts on empty rings.
    const LEVELS: [(&str, Level); 3] = [
        ("off", Level::Off),
        ("protocol", Level::Protocol),
        ("detail", Level::Detail),
    ];
    let n = 300;
    let group = LEVELS.map(|(mode, level)| {
        let run = |log: EventLog| {
            let policy = Migration {
                log: Some(&log),
                ..Migration::new(Transport::Whole)
            };
            let (link, trigger) = (NetworkModel::ethernet_100(), Trigger::AtPollCount(2));
            let make = move || Linpack::truncated(n, 4);
            migrate(make, ultra5(), ultra5(), link, trigger, &policy)
                .expect("linpack migrates at every log level")
        };
        let (wall, run) = sample(|| EventLog::new(level), run, |_| None);
        let label = format!("linpack {n}: migrate, log {mode}");
        (label, wall, run.report.src_polls, 0)
    });
    overhead_group(&mut rows, &group);

    let n = 20_000;
    let mut src = freeze_bitonic(n);
    let group = LEVELS.map(|(mode, level)| {
        let collect = |track| {
            let collector = Collector::new(&mut src.proc.space, &mut src.proc.msrlt);
            save_all(collector.with_track(track), &src.pending)
        };
        let (wall, _) = sample(|| EventLog::new(level).track("collect"), collect, |_| None);
        let label = format!("bitonic {n}: collect, log {mode}");
        let registrations = src.proc.msrlt.stats().registrations;
        (label, wall, src.proc.poll_count(), registrations)
    });
    overhead_group(&mut rows, &group);
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
    /// Collection time.
    pub collect: Timing,
    /// Search comparison steps of one collection.
    pub steps: u64,
}

/// Compare MSRLT search strategies on a pointer-rich collection.
pub fn ablation_rows() -> Vec<AblationRow> {
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
        let collect_once = |()| {
            cold(&mut msrlt);
            save_all(
                Collector::new(&mut src.proc.space, &mut msrlt),
                &src.pending,
            )
        };
        let (collect, _) = sample(|| (), collect_once, |_| None);
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
    /// Collection time ([`TranslationMode::Bulk`], the default); zero on
    /// a row that was only counted.
    pub collect: Timing,
    /// Collection time under [`TranslationMode::PerElement`].
    pub collect_per_element: Timing,
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

fn collect_in_mode(
    src: &mut MigratedSource,
    mode: TranslationMode,
    timed: bool,
) -> (Timing, Vec<u8>) {
    let collect_once = |()| {
        cold(&mut src.proc.msrlt);
        let collector = Collector::new(&mut src.proc.space, &mut src.proc.msrlt);
        save_all(collector.with_translation(mode), &src.pending)
    };
    measured(timed, || (), collect_once, |_| None)
}

fn translate_row(label: &str, src: &mut MigratedSource, timed: bool) -> TranslateRow {
    let (collect, payload) = collect_in_mode(src, TranslationMode::Bulk, timed);
    let s = src.proc.msrlt.stats();
    let (collect_per_element, reference) = collect_in_mode(src, TranslationMode::PerElement, timed);
    TranslateRow {
        label: label.to_string(),
        payload_bytes: payload.len() as u64,
        collect,
        collect_per_element,
        modes_identical: payload == reference,
        searches: s.searches,
        search_steps: s.search_steps,
        steps_per_search: s.search_steps as f64 / s.searches.max(1) as f64,
        cache_hit_rate: s.cache_hit_rate(),
    }
}

/// The DESIGN.md §7 table over the three paper workloads on the Ultra 5
/// (big-endian: dense runs are copies), plus linpack frozen on the
/// little-endian LP64 preset, where every dense run is byte-swapped.
/// `timed` adds the two collection times the printed table shows; the
/// artifact's rows are counted only.
pub fn translate_rows(timed: bool) -> Vec<TranslateRow> {
    let le = Architecture::x86_64_sim();
    vec![
        translate_row("test_pointer", &mut freeze_test_pointer(), timed),
        translate_row("linpack_600", &mut freeze_linpack(600), timed),
        translate_row("bitonic_20000", &mut freeze_bitonic(20_000), timed),
        translate_row("linpack_600_le", &mut freeze_linpack_on(600, le), timed),
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

/// One workload through the compressed chunk stream: what the
/// codec saves on the wire, answer-checked against the stored run.
#[derive(Debug, Clone)]
pub struct WireRow {
    /// Workload label.
    pub label: String,
    /// Image payload bytes entering the sender (stored size).
    pub raw_bytes: u64,
    /// Post-codec payload bytes on the wire, compressed.
    pub wire_bytes: u64,
    /// `wire_bytes / raw_bytes` — < 1.0 when compression wins.
    pub ratio: f64,
    /// Chunks the sender actually compressed (vs stored fallback).
    pub chunks_compressed: u64,
    /// Whether the compressed run restored the same answers and shipped a
    /// byte-identical image. Anything but `true` fails the wire gate.
    pub restored_identical: bool,
}

fn wire_row<P: MigratableProgram + Send>(
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
    let policy = Migration::new(Transport::Reliable(
        config,
        FaultPlan::none(),
        RecoveryPolicy::default(),
    ));
    let comp = migrate(make, arch.clone(), arch, link, trigger, &policy).expect("compressed run");
    let t = &comp.report.transfer;
    WireRow {
        label: label.to_string(),
        raw_bytes: t.raw_payload_bytes,
        wire_bytes: t.wire_payload_bytes,
        ratio: t.compression_ratio(),
        chunks_compressed: t.chunks_compressed,
        // `pipeline()` is there only when the destination finished the
        // run; a source-resumed one answers the same and must not pass.
        restored_identical: comp.report.pipeline().is_some()
            && comp.results == seq.results
            && comp.report.image_bytes == seq.report.image_bytes,
    }
}

/// The wire table over the paper workloads, Ultra 5 pair at 100 Mb/s:
/// the compressed chunk stream, answer-checked against the plain stored
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

/// The CI perf gate over [`wire_rows`]: identity under compression and
/// compression actually shrinking linpack's image. Counters only.
pub fn wire_gate(rows: &[WireRow]) -> Vec<String> {
    let mut violations = Vec::new();
    for r in rows {
        if !r.restored_identical {
            violations.push(format!(
                "{}: compressed migration diverged from the stored run",
                r.label
            ));
        }
        if r.label == "linpack_600" && r.wire_bytes >= r.raw_bytes {
            violations.push(format!(
                "{}: compression did not shrink the image ({} wire vs {} raw bytes)",
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
    /// Wall time of the one run's freeze leg (final collect through
    /// restored) — printed, never in the artifact.
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
/// falling back exactly once. Counters only.
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
            &Migration::new(Transport::Reliable(
                PipelineConfig::default(),
                FaultPlan::none(),
                RecoveryPolicy::default(),
            )),
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
    /// Mean recovery overhead as a percentage of the mean modelled
    /// transmission time: modelled over modelled, so it repeats.
    pub overhead_pct: f64,
}

/// The policy every resilient table runs under: unpaced chunks of the
/// size that gives the workload a stream long enough to fault, a retry
/// budget, source-resume fallback.
fn resilient_policy(chunk_bytes: usize, max_retries: u32) -> (PipelineConfig, RecoveryPolicy) {
    (
        PipelineConfig {
            chunk_bytes,
            pace: false,
            pace_scale: 0.0,
            ..PipelineConfig::default()
        },
        RecoveryPolicy {
            max_retries,
            backoff: Duration::from_millis(1),
            fallback: FallbackPolicy::SourceResume,
            resume: true,
        },
    )
}

fn resilient_test_pointer(plan: FaultPlan) -> MigrationRun {
    // Small chunks, so every plan sees plenty of frames.
    let (cfg, policy) = resilient_policy(64, 6);
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

/// Seeds per rate bucket when `--seed-count` is not given, and in the
/// artifact.
pub const DEFAULT_SEED_COUNT: u64 = 8;

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
        let mut tx_time = Duration::ZERO;
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
            tx_time += run.report.tx_time;
        }
        let mean_overhead = overhead / seed_count.max(1) as u32;
        rows.push(FaultRateRow {
            rate_per_mille: rate,
            runs: seed_count,
            fallbacks,
            faults_injected: faults,
            retransmits,
            mean_overhead,
            overhead_pct: if tx_time.is_zero() {
                0.0
            } else {
                100.0 * overhead.as_secs_f64() / tx_time.as_secs_f64()
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
fn resume_sweep<P: MigratableProgram + Send>(
    label: &str,
    make: impl Fn() -> P + Copy + Send,
    src: Architecture,
    dst: Architecture,
    trigger: Trigger,
    chunk_bytes: usize,
) -> Vec<ResumeRow> {
    let mut expect_prog = make();
    let (expect, _) = run_straight(&mut expect_prog, src.clone()).expect("baseline");
    let (cfg, policy) = resilient_policy(chunk_bytes, 4);
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
/// is excused — it is smaller than a payload chunk). Counters only.
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
    /// Total frame retransmissions (seed-deterministic).
    pub retransmits: u64,
    /// Median per-chunk retry count (seed-deterministic).
    pub retry_p50: u64,
    /// 99th-percentile per-chunk retry count (seed-deterministic).
    pub retry_p99: u64,
    /// Worst per-chunk retry count (seed-deterministic).
    pub retry_max: u64,
}

fn telemetry_row<P: MigratableProgram + Send>(
    label: &str,
    make: impl Fn() -> P + Copy + Send,
    trigger: Trigger,
    seed: u64,
) -> TelemetryRow {
    let (cfg, policy) = resilient_policy(4096, 8);
    let plan = FaultPlan {
        seed,
        drop_per_mille: 20,
        corrupt_per_mille: 20,
        duplicate_per_mille: 10,
        reorder_per_mille: 10,
        delay_per_mille: 0,
        disconnect_at: None,
        ..FaultPlan::none()
    };
    let (arch, link) = (Architecture::ultra5(), NetworkModel::ethernet_100());
    let run = run_migrating_resilient(make, arch.clone(), arch, link, trigger, cfg, plan, policy)
        .expect("telemetry seeds migrate");
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
        retransmits: r.retransmits,
        retry_p50: r.retry_hist.p50(),
        retry_p99: r.retry_hist.p99(),
        retry_max: r.retry_hist.max,
    }
}

/// One fixed-seed resilient migration per paper workload under mild
/// (20‰ drop/corrupt, 10‰ dup/reorder) seeded faults, Ultra 5 pair at
/// 100 Mb/s. The wire-latency percentiles come from the channel's
/// modeled per-chunk transmission times (deterministic); the ARQ retry
/// distribution is a pure function of the seed.
pub fn telemetry_rows() -> Vec<TelemetryRow> {
    let at = Trigger::AtPollCount;
    vec![
        telemetry_row(
            "test_pointer",
            TestPointer::new,
            at(8),
            0x7E1E_0000_0000_0001,
        ),
        telemetry_row(
            "linpack_600",
            || Linpack::truncated(600, 4),
            at(2),
            0x7E1E_0000_0000_0002,
        ),
        telemetry_row(
            "bitonic_20000",
            || BitonicSort::new(20_000),
            at(20_000),
            0x7E1E_0000_0000_0003,
        ),
    ]
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
            let (findings, _stats) = src.preflight_audit().expect("registry audit runs");
            let mut report = hpm_lint::registry_report(&findings, label);
            report.merge(hpm_lint::audit_table(src.proc.space.types(), label));
            report.finish();
            LintRow {
                label: label.to_string(),
                registry_findings: findings.len() as u64,
                info: report.count(hpm_lint::Severity::Info) as u64,
                warnings: report.count(hpm_lint::Severity::Warning) as u64,
                errors: report.count(hpm_lint::Severity::Error) as u64,
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

use Kind::{Counter, Flag, Info, Key, Rate, Timed, ZeroTolerance};

/// `paper_tables validation`.
pub static VALIDATION: Table<ValidationRow> = Table {
    name: "validation",
    title: "§4.1 Heterogeneity validation — DEC 5000/120 (LE) → SPARC 20 (BE), 10 Mb/s",
    cols: &[
        col("program", Key, |r| Cell::Text(r.label.clone())),
        col("payload_bytes", Info, |r| Cell::Int(r.payload_bytes)),
        col("blocks", Info, |r| Cell::Int(r.blocks)),
        col("shared_refs", Info, |r| Cell::Int(r.shared_refs)),
        col("migration_time", Timed, |r| Cell::Span(r.migration_time)),
        col("consistent", Flag, |r| Cell::Flag(r.consistent)),
    ],
    note: "paper: all programs run correctly; no duplication; float accuracy preserved; \
           migration_time is one run's Collect + modelled Tx + Restore",
    rows: validation_rows,
};

/// `paper_tables table1`.
pub static TABLE1: Table<MigRow> = Table {
    name: "table1",
    title: "Table 1 — timing (floor ±spread), Ultra 5 → Ultra 5, 100 Mb/s",
    cols: &[
        col("program", Key, |r| Cell::Text(r.label.clone())),
        col("payload_bytes", Info, |r| Cell::Int(r.payload_bytes)),
        col("Collect", Timed, |r| Cell::Timed(r.collect)),
        col("Tx", Info, |r| Cell::Span(r.tx)),
        col("Restore", Timed, |r| Cell::Timed(r.restore)),
        col("Total", Timed, |r| Cell::Timed(r.total())),
    ],
    note: "paper: linpack 1000x1000 total 2.418 s; bitonic 100000 total 0.467 s",
    rows: table1_rows,
};

/// `paper_tables fig2a`.
pub static FIG2A: Table<MigRow> = Table {
    name: "fig2a",
    title: "Figure 2(a) — linpack: collection/restoration vs data size (floor ±spread)",
    cols: &[
        col("matrix", Key, |r| Cell::Text(r.label.clone())),
        col("payload_bytes", Info, |r| Cell::Int(r.payload_bytes)),
        col("Collect", Timed, |r| Cell::Timed(r.collect)),
        col("Restore", Timed, |r| Cell::Timed(r.restore)),
    ],
    note: "paper: both scale linearly with ΣDᵢ; constant gap between the curves",
    rows: fig2a_rows,
};

/// `paper_tables fig2b`.
pub static FIG2B: Table<MigRow> = Table {
    name: "fig2b",
    title: "Figure 2(b) — bitonic: collection/restoration vs number sorted (floor ±spread)",
    cols: &[
        col("sorted", Key, |r| Cell::Int(r.size)),
        col("blocks", Info, |r| Cell::Int(r.blocks)),
        col("Collect", Timed, |r| Cell::Timed(r.collect)),
        col("Restore", Timed, |r| Cell::Timed(r.restore)),
        col("collect/restore", Info, |r| {
            Cell::Real(r.collect.floor.as_secs_f64() / r.restore.floor.as_secs_f64().max(1e-12))
        }),
    ],
    note: "paper: collection (O(n log n) searches) grows above restoration (O(n) updates); \
           the ratio is of the two floors",
    rows: fig2b_rows,
};

/// The artifact's `workloads` section (no subcommand prints it).
pub static WORKLOADS: Table<MigRow> = Table {
    name: "workloads",
    title: "Paper workloads on the Table 1 testbed — counters",
    cols: &[
        col("name", Key, |r| Cell::Text(r.label.clone())),
        col("payload_bytes", Counter, |r| Cell::Int(r.payload_bytes)),
        col("tx_ns", Info, |r| Cell::Span(r.tx)),
        col("searches", Counter, |r| Cell::Int(r.searches)),
        col("search_steps", Counter, |r| Cell::Int(r.search_steps)),
        col("cache_hit_rate", Rate, |r| Cell::Real(r.cache_hit_rate)),
    ],
    note: "tx_ns is the modelled 100 Mb/s transmission",
    rows: workload_rows,
};

/// `paper_tables complexity`: steps / searches is the empirical log
/// factor beside log₂ n; restore updates ≈ n, i.e. O(n).
pub static COMPLEXITY: Table<MigRow> = Table {
    name: "complexity",
    title: "§4.2 Complexity model — instrumented MSRLT counters",
    cols: &[
        col("workload", Key, |r| Cell::Text(r.label.clone())),
        col("nodes", Info, |r| Cell::Int(r.blocks)),
        col("bytes", Info, |r| Cell::Int(r.payload_bytes)),
        col("searches", Info, |r| Cell::Int(r.searches)),
        col("steps", Info, |r| Cell::Int(r.search_steps)),
        col("steps_per_search", Info, |r| {
            Cell::Real(r.search_steps as f64 / r.searches.max(1) as f64)
        }),
        col("log2_n", Info, |r| {
            Cell::Real((r.blocks.max(2) as f64).log2())
        }),
        col("restore_updates", Info, |r| Cell::Int(r.restore_updates)),
    ],
    note: "page-indexed default: steps/search stays O(1), so Collect = O(n); the binary \
           fallback's log2(n) term is in `ablation`; restore-updates ≈ n: Restore = O(n)",
    rows: complexity_rows,
};

/// `paper_tables overhead`.
pub static OVERHEAD: Table<OverheadRow> = Table {
    name: "overhead",
    title: "§4.3 Execution overhead — poll placement, allocation policy & event-log level",
    cols: &[
        col("configuration", Key, |r| Cell::Text(r.label.clone())),
        col("wall", Timed, |r| Cell::Timed(r.wall)),
        col("polls", Info, |r| Cell::Int(r.polls)),
        col("registrations", Info, |r| Cell::Int(r.registrations)),
        col("overhead", Timed, |r| {
            Cell::Text(
                r.overhead_pct
                    .map_or("unresolved".into(), |p| format!("{p:+.1}%")),
            )
        }),
    ],
    note: "paper: overhead depends on poll placement and number of memory allocations; \
           wall is floor ±spread; overhead is floor over the group's first row, unresolved \
           when the two floors are no further apart than the two spreads together",
    rows: overhead_rows,
};

/// `paper_tables ablation`.
pub static ABLATION: Table<AblationRow> = Table {
    name: "ablation",
    title: "Ablations — DESIGN.md design choices",
    cols: &[
        col("variant", Key, |r| Cell::Text(r.label.clone())),
        col("collect", Timed, |r| Cell::Timed(r.collect)),
        col("search_steps", Info, |r| Cell::Int(r.steps)),
    ],
    note: "bitonic 8000 collected under each MSRLT search strategy; floor ±spread",
    rows: ablation_rows,
};

/// `paper_tables translate` and the artifact's `translate` section.
pub static TRANSLATE: Table<TranslateRow> = Table {
    name: "translate",
    title: "Translation performance — page index (gated)",
    cols: &[
        col("name", Key, |r| Cell::Text(r.label.clone())),
        col("payload_bytes", Info, |r| Cell::Int(r.payload_bytes)),
        col("searches", Info, |r| Cell::Int(r.searches)),
        col("search_steps", Counter, |r| Cell::Int(r.search_steps)),
        col("steps_per_search", Counter, |r| {
            Cell::Real(r.steps_per_search)
        }),
        col("cache_hit_rate", Info, |r| Cell::Real(r.cache_hit_rate)),
        col("modes_identical", Flag, |r| Cell::Flag(r.modes_identical)),
        col("collect", Timed, |r| Cell::Timed(r.collect)),
        col("collect_per_element", Timed, |r| {
            Cell::Timed(r.collect_per_element)
        }),
    ],
    note: "steps/search ≤ 1: every lookup is at most one page walk — collection's search \
           term is O(n); collection times are floor ±spread",
    rows: || translate_rows(false),
};

/// `paper_tables wire` and the artifact's `wire` section. Wire bytes are
/// a pure function of the collector output and the compressor, so more of
/// either is a real change to one of them. Their quotient `ratio` is not
/// gated: it also rises when the collector stops sending redundancy the
/// compressor used to remove (image version 3's compact records: bitonic
/// 0.46 → 0.64 with `wire_bytes` down 37 %), which regresses nothing.
pub static WIRE: Table<WireRow> = Table {
    name: "wire",
    title: "Wire optimisation — compressed chunks (gated)",
    cols: &[
        col("name", Key, |r| Cell::Text(r.label.clone())),
        col("raw_bytes", Counter, |r| Cell::Int(r.raw_bytes)),
        col("wire_bytes", Counter, |r| Cell::Int(r.wire_bytes)),
        col("ratio", Info, |r| Cell::Real(r.ratio)),
        col("chunks_compressed", Info, |r| {
            Cell::Int(r.chunks_compressed)
        }),
        col("restored_identical", Flag, |r| {
            Cell::Flag(r.restored_identical)
        }),
    ],
    note: "the compressed chunk stream, answer-checked against the plain stored driver",
    rows: wire_rows,
};

/// `paper_tables delta` and the artifact's `delta` section. The wire
/// accounting is deterministic (digest tables and dirty sets are pure
/// functions of the workload), and a digest-refusal fallback appearing on
/// a clean row means the delta path silently stopped engaging — zero
/// tolerance.
pub static DELTA: Table<DeltaRow> = Table {
    name: "delta",
    title: "Incremental delta migration — iterative pre-copy, all preset pairs (gated)",
    cols: &[
        col("name", Key, |r| {
            Cell::Text(format!("{}:{}->{}", r.label, r.src, r.dst))
        }),
        col("full_bytes", Counter, |r| Cell::Int(r.full_bytes)),
        col("delta_bytes", Counter, |r| Cell::Int(r.delta_bytes)),
        col("freeze_bytes", Counter, |r| Cell::Int(r.freeze_bytes)),
        col("rounds", Counter, |r| Cell::Int(r.rounds.into())),
        col("converged", Flag, |r| Cell::Flag(r.converged)),
        col("fallbacks", ZeroTolerance, |r| {
            Cell::Int(r.fallbacks.into())
        }),
        col("identical", Flag, |r| Cell::Flag(r.identical)),
        col("froze", Flag, |r| Cell::Flag(!r.completed_on_source)),
        col("freeze_time", Timed, |r| Cell::Span(r.freeze_time)),
    ],
    note: "block digests are machine-independent, so every pair must reconstruct the image \
           byte-identically per round; the freeze leg must ship ≤ 25% of the full image, and \
           the tampered row must refuse its base and fall back to a full image exactly once; \
           freeze_time is one run's",
    rows: delta_rows,
};

/// `paper_tables pipeline`: paced with real sleeps, so one run a row.
pub static PIPELINE: Table<PipelineRow> = Table {
    name: "pipeline",
    title: "Pipelined migration — monolithic vs streamed, Ultra 5 pair (paced, one run each)",
    cols: &[
        col("workload", Key, |r| Cell::Text(r.label.clone())),
        col("link", Key, |r| Cell::Text(r.link.clone())),
        col("serial", Timed, |r| Cell::Span(r.serial)),
        col("pipelined", Timed, |r| Cell::Span(r.pipelined)),
        col("overlap_ratio", Timed, |r| Cell::Real(r.overlap_ratio)),
        col("chunks", Info, |r| Cell::Int(r.chunks)),
        col("stall", Timed, |r| Cell::Span(r.stall)),
    ],
    note: "collect, transfer, and restore overlap; the hidden fraction peaks when the phase \
           times are balanced",
    rows: pipeline_rows,
};

/// `paper_tables faults` (first table) and the artifact's `faults`
/// section.
pub static FAULT_RATES: Table<FaultRateRow> = Table {
    name: "faults",
    title: "Fault recovery — overhead vs fault rate, test_pointer, 10 Mb/s",
    cols: &[
        col("rate_per_mille", Key, |r| {
            Cell::Int(r.rate_per_mille.into())
        }),
        col("runs", Info, |r| Cell::Int(r.runs)),
        col("fallbacks", ZeroTolerance, |r| Cell::Int(r.fallbacks)),
        col("faults_injected", Info, |r| Cell::Int(r.faults_injected)),
        col("retransmits", Counter, |r| Cell::Int(r.retransmits)),
        col("mean_overhead_ns", Info, |r| Cell::Span(r.mean_overhead)),
        col("overhead_pct", Info, |r| Cell::Real(r.overhead_pct)),
    ],
    note: "every run restored byte-identically or resumed cleanly on the source; overhead is \
           modelled backoff + delay, also as a percentage of modelled Tx",
    rows: || fault_rate_rows(DEFAULT_SEED_COUNT),
};

/// `paper_tables faults` (second table): the CI soak seeds.
pub static FAULT_SEEDS: Table<FaultSeedRow> = Table {
    name: "faults",
    title: "Fault recovery — CI soak seeds, full FaultPlan::from_seed schedules",
    cols: &[
        col("seed", Key, |r| Cell::Text(format!("{:#x}", r.seed))),
        col("pressure_per_mille", Info, |r| {
            Cell::Int(r.pressure_per_mille.into())
        }),
        col("disconnect_at", Info, |r| {
            Cell::Text(r.disconnect_at.map_or("-".into(), |k| format!("chunk {k}")))
        }),
        col("fallback_taken", Info, |r| Cell::Flag(r.fallback_taken)),
        col("faults_injected", Info, |r| Cell::Int(r.faults_injected)),
        col("retransmits", Info, |r| Cell::Int(r.retransmits)),
        col("corrupt_caught", Info, |r| Cell::Int(r.corrupt_caught)),
        col("overhead_ns", Info, |r| Cell::Span(r.overhead)),
    ],
    note: "answers verified against an unmigrated run; a panic here fails CI",
    rows: || fault_seed_rows(&CI_SOAK_SEEDS),
};

/// `paper_tables resume` and the artifact's `resume` section. A journal
/// resume must never re-receive a verified chunk, and a deterministic
/// crash plan climbing to a higher ladder rung means the resume path
/// stopped working; both are zero-tolerance.
pub static RESUME: Table<ResumeRow> = Table {
    name: "resume",
    title: "Resumable restore — bytes saved vs crash point (gated)",
    cols: &[
        col("name", Key, |r| Cell::Text(r.label.clone())),
        col("crash_chunk", Info, |r| Cell::Int(r.crash_chunk.into())),
        col("total_chunks", Info, |r| Cell::Int(r.total_chunks)),
        col("journal_chunks", Info, |r| Cell::Int(r.journal_chunks)),
        col("chunks_replayed", Info, |r| Cell::Int(r.chunks_replayed)),
        col("chunks_retransferred", Counter, |r| {
            Cell::Int(r.chunks_retransferred)
        }),
        col("bytes_saved", Info, |r| Cell::Int(r.bytes_saved)),
        col("bytes_retransferred", Info, |r| {
            Cell::Int(r.bytes_retransferred)
        }),
        col("saved_fraction", Rate, |r| Cell::Real(r.saved_fraction)),
        col("wire_replays", ZeroTolerance, |r| Cell::Int(r.wire_replays)),
        col("rung", ZeroTolerance, |r| Cell::Int(r.rung.into())),
        col("answer_ok", Flag, |r| Cell::Flag(r.answer_ok)),
    ],
    note: "the destination is killed before consuming chunk k and rebuilt from its journal; \
           every verified chunk replays locally and none may cross the wire twice",
    rows: resume_rows,
};

/// `paper_tables telemetry` and the artifact's `telemetry` section.
pub static TELEMETRY: Table<TelemetryRow> = Table {
    name: "telemetry",
    title: "Percentile wire telemetry — seeded faults, Ultra 5 pair, 100 Mb/s",
    cols: &[
        col("name", Key, |r| Cell::Text(r.label.clone())),
        col("chunks", Info, |r| Cell::Int(r.chunks)),
        col("wire_p50_ns", Info, |r| {
            Cell::Span(Duration::from_nanos(r.wire_p50_ns))
        }),
        col("wire_p99_ns", Info, |r| {
            Cell::Span(Duration::from_nanos(r.wire_p99_ns))
        }),
        col("wire_max_ns", Info, |r| {
            Cell::Span(Duration::from_nanos(r.wire_max_ns))
        }),
        col("retransmits", Counter, |r| Cell::Int(r.retransmits)),
        col("retry_p50", Info, |r| Cell::Int(r.retry_p50)),
        col("retry_p99", Info, |r| Cell::Int(r.retry_p99)),
        col("retry_max", Counter, |r| Cell::Int(r.retry_max)),
    ],
    note: "per-chunk wire latencies are modelled and retry counts seed-deterministic",
    rows: telemetry_rows,
};

/// `paper_tables lint` and the artifact's `lint` section.
pub static LINT: Table<LintRow> = Table {
    name: "lint",
    title: "Migration-safety analyzer — workloads frozen at their migration points",
    cols: &[
        col("name", Key, |r| Cell::Text(r.label.clone())),
        col("registry_findings", Info, |r| {
            Cell::Int(r.registry_findings)
        }),
        col("info", Info, |r| Cell::Int(r.info)),
        col("warnings", ZeroTolerance, |r| Cell::Int(r.warnings)),
        col("errors", ZeroTolerance, |r| Cell::Int(r.errors)),
    ],
    note: "registry audit of the live MSRLT + TI-table portability audit, all preset pairs",
    rows: lint_rows,
};

/// `paper_tables modelcheck` and the artifact's `modelcheck` section. A
/// violation is a *proven* invariant breach (the checker exhausts the
/// state space), so tolerance is zero; `caught` decaying means the
/// checker has gone blind to its own seeded bug.
pub static MODELCHECK: Table<ModelCheckRow> = Table {
    name: "modelcheck",
    title: "Model check — ARQ/resume product machine (gated)",
    cols: &[
        col("name", Key, |r| Cell::Text(r.scenario.clone())),
        col("kind", Info, |r| Cell::Text(r.kind.clone())),
        col("states", Info, |r| Cell::Int(r.states)),
        col("interleavings", Info, |r| Cell::Int(r.interleavings)),
        col("reductions", Info, |r| Cell::Int(r.reductions)),
        col("violations", ZeroTolerance, |r| Cell::Int(r.violations)),
        col("expected_catch", Flag, |r| Cell::Flag(r.expected_catch)),
        col("caught", Flag, |r| Cell::Flag(r.caught)),
        col("budget_exhausted", Flag, |r| Cell::Flag(r.budget_exhausted)),
    ],
    note: "every fault sequence of the ARQ × resume machine; the seeded double release must \
           stay caught; counterexamples replay with `hpm-model --replay <trace>`",
    rows: modelcheck_rows,
};

/// The sections of `BENCH_<rev>.json`, in file order. Compare two
/// artifacts with `paper_tables bench-diff` (see [`diff`]), which reads
/// its gates from the same declarations.
pub static ARTIFACT: [&dyn Section; 9] = [
    &WORKLOADS,
    &TRANSLATE,
    &FAULT_RATES,
    &TELEMETRY,
    &WIRE,
    &DELTA,
    &RESUME,
    &LINT,
    &MODELCHECK,
];

/// The artifact's one scalar key: the commit it was measured on top of.
pub const REVISION: &str = "revision";

/// The `BENCH_<rev>.json` artifact: every section of [`ARTIFACT`], run and
/// rendered. No clock is read on the way, so two runs at one commit are
/// byte-identical.
pub fn bench_json(revision: &str) -> String {
    let sections: Vec<String> = ARTIFACT.iter().map(|s| s.run_json()).collect();
    format!(
        "{{\n  \"{REVISION}\": \"{revision}\",\n{}\n}}\n",
        sections.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_frozen_linpack_measures() {
        let row = linpack_row("linpack 60", 60, true);
        assert!(row.payload_bytes > 60 * 60 * 8, "{row:?}");
        assert!(row.collect.floor > Duration::ZERO);
        assert!(row.restore.floor > Duration::ZERO);
        assert!(row.tx > Duration::ZERO);
    }

    #[test]
    fn small_frozen_bitonic_measures() {
        let counted = bitonic_row("bitonic 500", 500, false);
        assert!(counted.blocks >= 499, "{counted:?}");
        assert!(counted.searches > 400, "one search per pointer chased");
        assert_eq!(counted.collect, Timing::default(), "counted, not timed");
        // Ten more cold collections later the counters are the same.
        let timed = bitonic_row("bitonic 500", 500, true);
        assert_eq!(
            (timed.searches, timed.search_steps, timed.cache_hit_rate),
            (
                counted.searches,
                counted.search_steps,
                counted.cache_hit_rate
            )
        );
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

    #[test]
    fn an_overhead_inside_the_spread_is_unresolved() {
        let ms = Duration::from_millis;
        let t = |floor, spread| Timing {
            floor: ms(floor),
            median: ms(floor),
            spread: ms(spread),
        };
        let group = [
            ("base".to_string(), t(100, 4), 0, 0),
            ("inside".to_string(), t(105, 2), 0, 0),
            ("outside".to_string(), t(110, 2), 0, 0),
        ];
        let mut rows = Vec::new();
        overhead_group(&mut rows, &group);
        let pcts: Vec<_> = rows.iter().map(|r| r.overhead_pct).collect();
        assert_eq!(pcts[..2], [Some(0.0), None]);
        assert!((pcts[2].unwrap() - 10.0).abs() < 1e-9);
    }
}
