//! # hpm-bench — the paper's evaluation, reproduced
//!
//! The measurements behind the `paper_tables` binary. Every table is
//! declared once — a row function, and a [`table::Table`] naming each
//! column with its [`table::Kind`] — and the printed text is read from
//! that declaration. The only clock read is in [`harness::sample`], and
//! what it times prints as `floor ± spread`; the validation table relays
//! spans from one migration's own report. End-to-end timing lives in the
//! `benchmark/` package; the paper workloads' payload bytes and MSRLT
//! searches are pinned exactly by `tests/complexity_model.rs`.
//!
//! | paper item | rows | table |
//! |---|---|---|
//! | §4.1 heterogeneity validation | [`validation_rows`] | [`VALIDATION`] |
//! | Table 1 (Collect/Tx/Restore) | [`table1_rows`] | [`TABLE1`] |
//! | Figure 2(a) linpack scaling | [`fig2a_rows`] | [`FIG2A`] |
//! | Figure 2(b) bitonic scaling | [`fig2b_rows`] | [`FIG2B`] |
//! | §4.2 complexity model | [`complexity_rows`] | [`COMPLEXITY`] |
//! | §4.3 execution overhead | [`overhead_rows`] | [`OVERHEAD`] |
//! | serial sum vs critical path of a streamed migration (beyond the paper) | [`pipeline_rows`] | [`PIPELINE`] |
//!
//! The extensions beyond the paper — translation kernels, wire
//! compression, pre-copy deltas, journal resume, fault recovery, the
//! analyzer and the model checker — are asserted by the integration
//! tests under `tests/`, not by tables here.

#![forbid(unsafe_code)]

pub mod harness;
pub mod table;

use harness::{sample, Timing};
use hpm_arch::Architecture;
use hpm_core::Collector;
use hpm_migrate::{
    migrate, resume_from_image, run_migrating, run_straight, run_to_migration, MigratableProgram,
    MigratedSource, Migration, MigrationRun, PendingFrame, PipelineConfig, Transport, Trigger,
};
use hpm_net::{FaultPlan, NetworkModel};
use hpm_obs::{EventLog, Level};
use hpm_workloads::{diff_results, BitonicSort, Linpack, PollPlacement, TestPointer};
use std::time::Duration;
use table::{col, Cell, Kind, Table};

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
    let mut prog = Linpack::truncated(n, 4);
    run_to_migration(&mut prog, Architecture::ultra5(), Trigger::AtPollCount(2))
        .expect("linpack reaches its migration point")
}

fn freeze_bitonic(n: u64) -> MigratedSource {
    let mut prog = BitonicSort::new(n);
    // Fire on the last insertion poll, so n-1 nodes are live — the
    // paper's x-axis is "number sorted".
    run_to_migration(&mut prog, Architecture::ultra5(), Trigger::AtPollCount(n))
        .expect("bitonic reaches its migration point")
}

/// Save every live variable of the frozen frames through `collector`;
/// the payload it built.
fn save_all(mut collector: Collector<'_>, pending: &[PendingFrame]) -> Vec<u8> {
    for frame in pending {
        for &addr in &frame.live {
            collector.save_variable(addr).expect("collect");
        }
    }
    collector.finish().expect("collect").0
}

/// `body` through the sampler when `timed`, once and unclocked otherwise
/// (what the complexity rows do: they carry counters only).
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
/// `timed`. Every collection starts with the counters at zero, so a
/// timed row's counters are an untimed one's.
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
        src.proc.msrlt.reset_stats();
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

/// Figure 2(b): bitonic collection/restoration time vs number sorted,
/// the paper's 20 000–140 000 and a row at 1 000 000, where the image
/// (about 37 MB) is far past the host's caches, so the per-block floors
/// show what a cache miss costs the walks.
pub fn fig2b_rows() -> Vec<MigRow> {
    [
        20_000u64, 40_000, 60_000, 80_000, 100_000, 120_000, 140_000, 1_000_000,
    ]
    .iter()
    .map(|&n| bitonic_row(&format!("bitonic {n}"), n, true))
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
    /// The total migration time (Collect + modeled Tx + Restore) of the
    /// one run.
    pub migration_time: Duration,
}

fn validation_row<P: MigratableProgram + Send>(
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
/// collection's MSRLT term is O(n) (one page-index probe a search, where
/// the paper's sorted index pays O(n log n)), restoration's O(n) — for a
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
        let resolved = wall.resolves_from(&base);
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
/// `restore` spans, ready for [`hpm_obs::chrome_trace_json`].
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

/// A streamed migration's serial sum against its critical path, on one
/// link.
#[derive(Debug, Clone)]
pub struct PipelineRow {
    /// Workload label.
    pub label: String,
    /// Link label.
    pub link: String,
    /// Collect + Tx + Restore of each run (Table 1's sum).
    pub serial: Timing,
    /// The same runs' downtime with the three stages overlapped.
    pub critical_path: Timing,
    /// The share of `serial` the overlap hides, on the floors; `None` when
    /// the two are not resolved ([`Timing::resolves_from`]).
    pub hidden: Option<f64>,
    /// Wire frames shipped (prefix + payload chunks + terminator).
    pub chunks: u64,
}

/// Bitonic 20 000 streamed over the paper's 10 Mb/s and 100 Mb/s links,
/// each run giving both its serial sum and its critical path.
pub fn pipeline_rows() -> Vec<PipelineRow> {
    let n = 20_000u64;
    let links = [
        ("10 Mb/s", NetworkModel::ethernet_10()),
        ("100 Mb/s", NetworkModel::ethernet_100()),
    ];
    let policy = Migration::new(Transport::Reliable(
        PipelineConfig::default(),
        FaultPlan::none(),
    ));
    let ultra5 = Architecture::ultra5;
    links
        .into_iter()
        .map(|(link_label, link)| {
            let mut serial = Vec::new();
            let stream = |()| {
                let make = move || BitonicSort::new(n);
                let trigger = Trigger::AtPollCount(n);
                let run = migrate(make, ultra5(), ultra5(), link, trigger, &policy)
                    .expect("streamed bitonic migrates");
                serial.push(run.report.migration_time());
                run
            };
            let path = |run: &MigrationRun| run.report.pipeline().map(|p| p.critical_path);
            let (critical_path, run) = sample(|| (), stream, path);
            let serial = Timing::of(serial[1..].try_into().expect("a warm-up, then the samples"));
            let hidden = 1.0 - critical_path.floor.as_secs_f64() / serial.floor.as_secs_f64();
            PipelineRow {
                label: format!("bitonic {n}"),
                link: link_label.to_string(),
                serial,
                critical_path,
                hidden: critical_path.resolves_from(&serial).then_some(hidden),
                chunks: run.report.pipeline().map_or(0, |p| p.chunks),
            }
        })
        .collect()
}

use Kind::{Key, Value};

/// `paper_tables validation`.
pub static VALIDATION: Table<ValidationRow> = Table {
    name: "validation",
    title: "§4.1 Heterogeneity validation — DEC 5000/120 (LE) → SPARC 20 (BE), 10 Mb/s",
    cols: &[
        col("program", Key, |r| Cell::Text(r.label.clone())),
        col("payload_bytes", Value, |r| Cell::Int(r.payload_bytes)),
        col("blocks", Value, |r| Cell::Int(r.blocks)),
        col("shared_refs", Value, |r| Cell::Int(r.shared_refs)),
        col("migration_time", Value, |r| Cell::Span(r.migration_time)),
        col("consistent", Value, |r| Cell::Flag(r.consistent)),
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
        col("payload_bytes", Value, |r| Cell::Int(r.payload_bytes)),
        col("Collect", Value, |r| Cell::Timed(r.collect)),
        col("Tx", Value, |r| Cell::Span(r.tx)),
        col("Restore", Value, |r| Cell::Timed(r.restore)),
        col("Total", Value, |r| Cell::Timed(r.total())),
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
        col("payload_bytes", Value, |r| Cell::Int(r.payload_bytes)),
        col("Collect", Value, |r| Cell::Timed(r.collect)),
        col("Restore", Value, |r| Cell::Timed(r.restore)),
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
        col("blocks", Value, |r| Cell::Int(r.blocks)),
        col("Collect", Value, |r| Cell::Timed(r.collect)),
        col("Restore", Value, |r| Cell::Timed(r.restore)),
        col("collect/restore", Value, |r| {
            Cell::Real(r.collect.floor.as_secs_f64() / r.restore.floor.as_secs_f64().max(1e-12))
        }),
    ],
    note: "paper: collection (O(n log n) searches) grows above restoration (O(n) updates); \
           the ratio is of the two floors",
    rows: fig2b_rows,
};

/// `paper_tables complexity`: searches ≈ n beside log₂ n (each search
/// is one page-index probe); restore updates ≈ n, i.e. O(n).
pub static COMPLEXITY: Table<MigRow> = Table {
    name: "complexity",
    title: "§4.2 Complexity model — instrumented MSRLT counters",
    cols: &[
        col("workload", Key, |r| Cell::Text(r.label.clone())),
        col("nodes", Value, |r| Cell::Int(r.blocks)),
        col("bytes", Value, |r| Cell::Int(r.payload_bytes)),
        col("searches", Value, |r| Cell::Int(r.searches)),
        col("log2_n", Value, |r| {
            Cell::Real((r.blocks.max(2) as f64).log2())
        }),
        col("restore_updates", Value, |r| Cell::Int(r.restore_updates)),
    ],
    note: "each search is one page-index probe, so Collect's search term is O(n), not the \
           paper's O(n log n) (tests/complexity_model.rs models its sorted index on the same \
           graph); restore-updates ≈ n: Restore = O(n)",
    rows: complexity_rows,
};

/// `paper_tables overhead`.
pub static OVERHEAD: Table<OverheadRow> = Table {
    name: "overhead",
    title: "§4.3 Execution overhead — poll placement, allocation policy & event-log level",
    cols: &[
        col("configuration", Key, |r| Cell::Text(r.label.clone())),
        col("wall", Value, |r| Cell::Timed(r.wall)),
        col("polls", Value, |r| Cell::Int(r.polls)),
        col("registrations", Value, |r| Cell::Int(r.registrations)),
        col("overhead", Value, |r| {
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

/// `paper_tables pipeline`.
pub static PIPELINE: Table<PipelineRow> = Table {
    name: "pipeline",
    title: "Pipelined migration — serial sum vs critical path, Ultra 5 pair (floor ±spread)",
    cols: &[
        col("workload", Key, |r| Cell::Text(r.label.clone())),
        col("link", Key, |r| Cell::Text(r.link.clone())),
        col("serial", Value, |r| Cell::Timed(r.serial)),
        col("critical_path", Value, |r| Cell::Timed(r.critical_path)),
        col("hidden", Value, |r| {
            Cell::Text(r.hidden.map_or("unresolved".into(), |h| format!("{h:.3}")))
        }),
        col("chunks", Value, |r| Cell::Int(r.chunks)),
    ],
    note: "serial is Collect + Tx + Restore of each run; critical_path is the same runs' \
           downtime with collect, transfer and restore overlapped, computed from their stamps \
           over the modelled link; hidden is 1 − critical_path/serial on the floors, \
           unresolved when the two floors are no further apart than the two spreads together",
    rows: pipeline_rows,
};

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
        // A sampled row repeats the collection; its counters stay the same.
        let timed = bitonic_row("bitonic 500", 500, true);
        assert_eq!(timed.searches, counted.searches);
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
