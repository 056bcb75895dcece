//! The metric tables: every name, unit, direction and bound the benchmark
//! reports. `BENCHMARK.json` carries the same tables; `tests/smoke.rs`
//! fails when the two disagree.

/// An end-to-end metric.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    /// Relative worsening that counts as a regression.
    pub bound: f64,
}

/// Reported with `--trace 0`. `fail_share` is the seventh end-to-end
/// figure; it travels as `failed` / `attempted` beside the metrics because
/// its healthy value is 0 and its bound is absolute.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "migrate_s",
        unit: "s",
        lower_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "migrate_mb_s",
        unit: "MB/s",
        lower_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "downtime_100mbit_s",
        unit: "s",
        lower_is_better: true,
        bound: 0.2,
    },
    EndToEnd {
        name: "wire_bytes",
        unit: "bytes",
        lower_is_better: true,
        bound: 0.03,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        lower_is_better: true,
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        lower_is_better: true,
        bound: 0.25,
    },
];

/// A per-layer metric.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    /// A count fixed by the seed: two runs must agree to the last digit.
    pub exact: bool,
}

const fn time(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        lower_is_better: true,
        exact: false,
    }
}

const fn rate(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        lower_is_better: false,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        lower_is_better: true,
        exact: true,
    }
}

/// Reported with `--trace 1`, named by crate.
pub const PER_LAYER: [PerLayer; 51] = [
    time("core.collect_s", "s"),
    rate("core.collect_mb_s", "MB/s"),
    count("core.collect_blocks", "count"),
    count("core.collect_bytes", "bytes"),
    count("core.collect_ptr_new", "count"),
    count("core.collect_ptr_ref", "count"),
    time("core.msrlt_lookup_ns", "ns"),
    count("core.msrlt_searches", "count"),
    count("core.msrlt_search_steps", "count"),
    PerLayer {
        name: "core.msrlt_cache_hit_ratio",
        unit: "ratio",
        lower_is_better: false,
        exact: true,
    },
    time("core.restore_s", "s"),
    rate("core.restore_mb_s", "MB/s"),
    count("core.restore_blocks", "count"),
    count("core.restore_allocs", "count"),
    time("core.frame_image_s", "s"),
    time("core.unframe_image_s", "s"),
    time("core.delta_digest_s", "s"),
    time("core.delta_diff_s", "s"),
    time("core.delta_collect_s", "s"),
    time("core.delta_apply_s", "s"),
    count("core.delta_dirty_ratio", "ratio"),
    count("core.delta_frame_bytes", "bytes"),
    time("arch.decode_scalar_ns", "ns"),
    time("arch.encode_scalar_ns", "ns"),
    rate("xdr.encode_f64_mb_s", "MB/s"),
    rate("xdr.decode_f64_mb_s", "MB/s"),
    rate("xdr.crc32_mb_s", "MB/s"),
    rate("xdr.compress_mb_s", "MB/s"),
    rate("xdr.decompress_mb_s", "MB/s"),
    count("xdr.compress_ratio", "ratio"),
    time("xdr.frame_chunk_s", "s"),
    time("xdr.unframe_chunk_s", "s"),
    time("memory.malloc_ns", "ns"),
    time("memory.plan_for_ns", "ns"),
    time("migrate.malloc_ns", "ns"),
    time("migrate.resume_s", "s"),
    time("migrate.dst_setup_s", "s"),
    time("migrate.build_s", "s"),
    time("migrate.verify_s", "s"),
    count("migrate.exec_state_bytes", "bytes"),
    time("net.channel_s", "s"),
    rate("net.arq_mb_s", "MB/s"),
    count("net.arq_retransmits", "count"),
    count("net.arq_frames", "count"),
    PerLayer {
        name: "net.model_tx_s",
        unit: "s",
        lower_is_better: true,
        exact: true,
    },
    time("bench.migrate_p50_s", "s"),
    time("bench.migrate_p80_s", "s"),
    rate("bench.ops", "count"),
    rate("bench.layer_sum_ratio", "ratio"),
    time("bench.trace_overhead_ratio", "ratio"),
    time("bench.timer_overhead_ns", "ns"),
];

/// A metric name may hold only letters, digits, `_`, `.` and `-`.
pub fn name_is_well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        assert!(names.iter().all(|n| name_is_well_formed(n)));
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
