//! The command line: parse, run one workload, print its metrics.

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{floor, median, peak_rss_mb, quantile};
use crate::trace::Tracer;
use crate::workloads::{link, Outcome, Prepared, WORKLOADS};
use crate::{layers, repeat};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "usage:
  hpm-benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--quick] [--corrupt]
  hpm-benchmark repeat [--seed <u64>] [--seconds <n>]
workloads: bulk_numeric pointer_graph chunked_wire precopy_freeze tiny_image
  --trace 0   end-to-end metrics, tracing off
  --trace 1   per-layer metrics; spans go to spans-<workload>.jsonl beside the executable
  --quick     sizes / 50 and five operations (the smoke test)
  --corrupt   flip one byte of what the link delivers (staged workloads); the run must fail";

/// Set-up passes in an end-to-end run, at least; `setup_s` is their median.
const SETUPS: usize = 3;
/// More passes are made while they all fit in this long, up to this many.
const SETUPS_WORTH: Duration = Duration::from_millis(300);
const SETUPS_AT_MOST: usize = 300;
/// Operation timings are kept in a buffer of this many slots, written up
/// front, so `peak_rss_mb` does not grow with the number of operations a
/// faster program fits into the run. Enough for 20 s of 40 µs operations.
const SAMPLE_SLOTS: usize = 1 << 19;
/// Operations in a `--quick` run, and the fewest any run times.
const QUICK_OPS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    corrupt: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        quick: false,
        corrupt: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--quick" => a.quick = true,
            "--corrupt" => a.corrupt = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(a.seconds > 0.0 && a.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(a)
}

/// The timed loop's tally.
struct Tally {
    /// Wall time of each correct operation, in seconds.
    samples: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Bytes one operation handed to the link.
    wire_bytes: u64,
}

/// Run operations back to back from this one thread (a closed loop of one
/// client) for `budget`, or exactly [`QUICK_OPS`] when `quick`. An
/// operation fails when it errors, when its outputs differ from the
/// references, or when its wire bytes differ from the first operation's.
fn timed_loop(
    quick: bool,
    budget: Duration,
    mut op: impl FnMut() -> (Duration, Option<u64>),
) -> Tally {
    // Not zeroes: a zeroed buffer is mapped lazily, page by page as
    // samples land in it.
    let mut slots = vec![u64::MAX; SAMPLE_SLOTS];
    let (mut taken, mut attempted, mut failed) = (0, 0, 0);
    let mut wire_bytes = None;
    let started = Instant::now();
    while taken < SAMPLE_SLOTS
        && if quick {
            attempted < QUICK_OPS as u64
        } else {
            started.elapsed() < budget || attempted < QUICK_OPS as u64
        }
    {
        let (took, wire) = op();
        attempted += 1;
        match wire {
            Some(w) if *wire_bytes.get_or_insert(w) == w => {
                slots[taken] = took.as_nanos() as u64;
                taken += 1;
            }
            _ => failed += 1,
        }
    }
    Tally {
        samples: slots[..taken].iter().map(|&ns| ns as f64 / 1e9).collect(),
        attempted,
        failed,
        wire_bytes: wire_bytes.unwrap_or(0),
    }
}

fn spans_path(workload: &str) -> Result<std::path::PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe.parent().ok_or("executable has no directory")?;
    Ok(dir.join(format!("spans-{workload}.jsonl")))
}

/// Time one operation; its wire bytes if it ran and checked out. The
/// outputs are checked, and dropped, after the clock stops.
fn timed<E>(
    p: &mut Prepared,
    op: impl FnOnce(&mut Prepared) -> Result<Outcome, E>,
) -> (Duration, Option<u64>) {
    let started = Instant::now();
    let out = op(p);
    let took = started.elapsed();
    (took, out.ok().filter(|o| p.check(o)).map(|o| o.wire_bytes))
}

/// One set-up pass and how long it took: generate, build, freeze,
/// reference runs, byte-identity checks, one warm-up operation.
fn set_up(a: &Args, scale: usize) -> Result<(Prepared, f64), String> {
    let started = Instant::now();
    let mut p = Prepared::new(&a.workload, a.seed, scale)?;
    let warm = p.op(false).map_err(|e| format!("warm-up operation: {e}"))?;
    if !p.check(&warm) {
        return Err("warm-up operation: outputs differ from the references".into());
    }
    drop(warm);
    Ok((p, started.elapsed().as_secs_f64()))
}

/// Run one workload; `Ok(true)` when every check held.
fn run(a: &Args) -> Result<bool, String> {
    let scale = if a.quick { 50 } else { 1 };

    let (mut p, first_setup) = set_up(a, scale)?;

    // End to end: tracing off, one `Instant` pair around each operation.
    let budget = Duration::from_secs_f64(if a.trace { a.seconds / 2.0 } else { a.seconds });
    let mut tally = timed_loop(a.quick, budget, || timed(&mut p, |p| p.op(a.corrupt)));
    let fail_share = |t: &Tally| t.failed as f64 / t.attempted as f64;
    if tally.samples.is_empty() {
        println!("fail_share {} ratio", fail_share(&tally));
        return Err("every operation failed".into());
    }
    let migrate_s = floor(&tally.samples);
    let tx_s = link().tx_time(tally.wire_bytes).as_secs_f64();
    // Not end-to-end: the median and the tail move with the host's load.
    let bench = [
        ("bench.migrate_p50_s", median(&mut tally.samples), "s"),
        (
            "bench.migrate_p80_s",
            quantile(&mut tally.samples, 0.8),
            "s",
        ),
        ("bench.ops", tally.samples.len() as f64, "count"),
    ];
    let mut values: Vec<(&'static str, f64, &'static str)> = Vec::new();

    if !a.trace {
        // Memory first: the set-up passes still to come reuse and fragment
        // the heap, which moved the peak by a tenth from seed to seed.
        let peak_rss = peak_rss_mb()?;
        let registered_bytes = p.registered_bytes;
        drop(p);
        // `setup_s` is a median: SETUPS passes at least, more while they
        // are cheap (`tiny_image` sets up in under a millisecond). One
        // workload resident at a time.
        let mut setup_s = vec![first_setup];
        let setting_up = Instant::now();
        while setup_s.len() < SETUPS
            || setup_s.len() < SETUPS_AT_MOST && setting_up.elapsed() < SETUPS_WORTH
        {
            setup_s.push(set_up(a, scale)?.1);
        }
        for m in &END_TO_END {
            let value = match m.name {
                "migrate_s" => migrate_s,
                "migrate_mb_s" => registered_bytes as f64 / 1e6 / migrate_s,
                "downtime_100mbit_s" => migrate_s + tx_s,
                "wire_bytes" => tally.wire_bytes as f64,
                "peak_rss_mb" => peak_rss,
                "setup_s" => median(&mut setup_s),
                other => unreachable!("end-to-end metric {other} has no definition"),
            };
            values.push((m.name, value, m.unit));
        }
        for (name, value, unit) in &bench {
            println!("{name} {value} {unit}");
        }
    } else {
        // Traced: a fifth of the run in expanded form, then the standalone
        // layer calls on the same bytes.
        let mut tr = Tracer::new();
        let traced = timed_loop(a.quick, Duration::from_secs_f64(a.seconds / 5.0), || {
            timed(&mut p, |p| p.op_traced(&mut tr))
        });
        tally.attempted += traced.attempted;
        tally.failed += traced.failed;
        if traced.samples.is_empty() {
            return Err("every traced operation failed".into());
        }
        let (mut layer, on_path) = layers::measure(&mut p, &mut tr, a.seed, tally.wire_bytes)?;
        layer.extend(bench.iter().map(|&(name, value, _)| (name, value)));
        layer.insert("bench.layer_sum_ratio", tr.layer_sum_ratio());
        layer.insert(
            "bench.trace_overhead_ratio",
            floor(&traced.samples) / migrate_s,
        );
        let path = spans_path(&a.workload)?;
        tr.write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("spans {}", path.display());
        println!("migrate_s {migrate_s} s");
        for m in &PER_LAYER {
            let value = *layer
                .get(m.name)
                .ok_or_else(|| format!("per-layer metric {} was not measured", m.name))?;
            values.push((m.name, value, m.unit));
        }
        for name in &on_path {
            println!("on_path {name}");
        }
    }

    let correct = tally.failed == 0;
    println!("fail_share {} ratio", fail_share(&tally));
    for (name, value, unit) in &values {
        if !value.is_finite() {
            return Err(format!("{name} is not a finite number"));
        }
        println!("{name} {value} {unit}");
    }
    let metrics: Vec<String> = values
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        metrics.join(", ")
    );
    Ok(correct)
}

/// Pin glibc's mmap threshold at its documented default. Left alone it
/// follows the largest block freed so far, so whether a 6 MB image comes
/// from a fresh mapping or from retained heap turned on the fourth digit of
/// an earlier buffer's size, and `peak_rss_mb` stepped by 5 MB from seed to
/// seed. Pinned, every large buffer is mapped when made and unmapped when
/// dropped, as in a process that migrates once, and the peak is what is
/// live.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_mmap_threshold() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` takes two plain integers and only sets an allocator
    // tunable; it is called before this process starts a second thread.
    let set = unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) };
    assert_eq!(set, 1, "mallopt(M_MMAP_THRESHOLD) was refused");
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_mmap_threshold() {}

pub fn main() -> ExitCode {
    pin_mmap_threshold();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("repeat") {
        return repeat::run(&args[1..]);
    }
    match parse(&args) {
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            ExitCode::from(2)
        }
        Ok(a) => match run(&a) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(1)
            }
        },
    }
}
