//! The standalone layer calls: each times one public function of one
//! crate, from outside, on the workload's own frozen process or bytes.
//!
//! A layer the traced operations already cover (a staged workload's
//! `core.collect`, say) is not measured again: its number is the on-path
//! span's self time. Everything else is measured here, off the path.

use crate::adapter::*;
use crate::gen::{declare_types, Rng};
use crate::stats::timer_overhead_ns;
use crate::trace::Tracer;
use crate::workloads::{link, resume_by_hand, ship, Kind, Prepared, CHUNK_BYTES};
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

/// Per-layer metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// Conversions or lookups per batch span.
const BATCH: u64 = 1_000_000;
/// Blocks allocated per batch span.
const ALLOCS: u64 = 10_000;
/// Doubles per XDR array call.
const DOUBLES: usize = 1_000_000;

/// Record spans named `name`, each around `runs` runs of `f` and counted
/// as `calls` library calls, until five spans or 0.4 s: a 20 MB image costs
/// one pass, a 1 KB image gets several. What `f` returns is dropped after
/// its span has closed, as an operation's outputs are; the last span's
/// outputs go back to the caller.
fn spans<T>(
    tr: &mut Tracer,
    name: &'static str,
    calls: u64,
    runs: u64,
    mut f: impl FnMut(&mut Tracer) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let started = Instant::now();
    let mut outputs = Vec::new();
    for _ in 0..5 {
        outputs.clear();
        let s = tr.begin(name);
        let ran = (0..runs).try_for_each(|_| f(tr).map(|out| outputs.push(out)));
        tr.end_calls(s, calls);
        ran?;
        if started.elapsed() > Duration::from_millis(400) {
            break;
        }
    }
    Ok(outputs)
}

/// Spans around `calls` runs of `f`, one library call each.
fn repeat<T>(
    tr: &mut Tracer,
    name: &'static str,
    calls: u64,
    f: impl FnMut(&mut Tracer) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    spans(tr, name, calls, calls, f)
}

/// Spans around one run of `f`, which makes `calls` library calls itself.
fn batch<T>(
    tr: &mut Tracer,
    name: &'static str,
    calls: u64,
    f: impl FnMut(&mut Tracer) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    spans(tr, name, calls, 1, f)
}

/// The output of the last run a span helper made.
fn last<T>(mut outputs: Vec<T>) -> T {
    outputs.pop().expect("a span holds at least one run")
}

fn mb_per_s(bytes: usize, seconds: f64) -> f64 {
    bytes as f64 / 1e6 / seconds
}

fn named<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// Run every layer the traced operations left unmeasured, then turn the
/// spans and counts into per-layer metric values, and name the metrics
/// whose spans lie on the operation's path. `wire_bytes` is what one
/// operation handed to the link.
pub fn measure(
    p: &mut Prepared,
    tr: &mut Tracer,
    seed: u64,
    wire_bytes: u64,
) -> Result<(Values, BTreeSet<&'static str>), String> {
    let mut v = Values::new();
    let mut on_path = BTreeSet::new();
    // Calls per span for work proportional to the image, so `tiny_image`
    // spans are long enough for the clock.
    let passes = (2_000_000 / p.image.len().max(1)).clamp(1, 1000) as u64;
    let image = p.image.clone();

    migrate_and_core(p, tr, &mut v, &image, seed, passes)?;
    delta(p, tr, &mut v, &image)?;
    arch_and_xdr(p, tr, &mut v, &image, passes)?;
    memory(p, tr)?;
    net(tr, &mut v, &image, passes)?;

    let seconds = |name: &'static str| {
        tr.floor_s(name)
            .ok_or_else(|| format!("no span named {name} was recorded"))
    };
    let registered = p.registered_bytes as usize;
    for (metric, span) in [
        ("core.collect_s", "core.collect"),
        ("core.restore_s", "core.restore"),
        ("core.frame_image_s", "core.frame_image"),
        ("core.unframe_image_s", "core.unframe_image"),
        ("core.delta_digest_s", "core.delta_digest"),
        ("core.delta_diff_s", "core.delta_diff"),
        ("core.delta_collect_s", "core.delta_collect"),
        ("core.delta_apply_s", "core.delta_apply"),
        ("xdr.frame_chunk_s", "xdr.frame_chunk"),
        ("xdr.unframe_chunk_s", "xdr.unframe_chunk"),
        ("migrate.resume_s", "migrate.resume"),
        ("migrate.dst_setup_s", "migrate.dst_setup"),
        ("migrate.build_s", "migrate.build"),
        ("migrate.verify_s", "migrate.verify"),
        ("net.channel_s", "net.channel"),
    ] {
        v.insert(metric, seconds(span)?);
        if tr.on_path(span) {
            on_path.insert(metric);
        }
    }
    for (metric, span) in [
        ("core.msrlt_lookup_ns", "core.msrlt_lookup"),
        ("arch.decode_scalar_ns", "arch.decode_scalar"),
        ("arch.encode_scalar_ns", "arch.encode_scalar"),
        ("memory.malloc_ns", "memory.malloc"),
        ("memory.plan_for_ns", "memory.plan_for"),
        ("migrate.malloc_ns", "migrate.malloc"),
    ] {
        v.insert(metric, seconds(span)? * 1e9);
    }
    for (metric, span, bytes) in [
        ("core.collect_mb_s", "core.collect", registered),
        ("core.restore_mb_s", "core.restore", registered),
        ("xdr.encode_f64_mb_s", "xdr.encode_f64", DOUBLES * 8),
        ("xdr.decode_f64_mb_s", "xdr.decode_f64", DOUBLES * 8),
        ("xdr.crc32_mb_s", "xdr.crc32", image.len()),
        ("xdr.compress_mb_s", "xdr.compress", image.len()),
        ("xdr.decompress_mb_s", "xdr.decompress", image.len()),
        ("net.arq_mb_s", "net.arq", image.len()),
    ] {
        v.insert(metric, mb_per_s(bytes, seconds(span)?));
        if tr.on_path(span) {
            on_path.insert(metric);
        }
    }
    v.insert("net.model_tx_s", link().tx_time(wire_bytes).as_secs_f64());
    v.insert("bench.timer_overhead_ns", timer_overhead_ns());
    Ok((v, on_path))
}

/// `hpm-migrate` and `hpm-core`: build, collect, MSRLT, framing, resume.
fn migrate_and_core(
    p: &mut Prepared,
    tr: &mut Tracer,
    v: &mut Values,
    image: &[u8],
    seed: u64,
    passes: u64,
) -> Result<(), String> {
    repeat(tr, "migrate.build", passes, |_| {
        run_to_migration(&mut p.make(), p.src_arch.clone(), Trigger::AtPollCount(1))
            .map_err(named("run_to_migration"))
    })?;

    // One collection with the MSRLT's counters reset around it: the
    // counts are fixed by the seed, whichever run they are read from.
    p.src.proc.msrlt.reset_stats();
    let (payload, exec, collected) = p.src.collect().map_err(named("collect"))?;
    let msrlt = p.src.proc.msrlt.stats();
    v.insert("core.collect_blocks", collected.blocks_saved as f64);
    v.insert("core.collect_bytes", collected.bytes_out as f64);
    v.insert("core.collect_ptr_new", collected.ptr_new as f64);
    v.insert("core.collect_ptr_ref", collected.ptr_ref as f64);
    v.insert("core.msrlt_searches", msrlt.searches as f64);
    v.insert("core.msrlt_search_steps", msrlt.search_steps as f64);
    v.insert("core.msrlt_cache_hit_ratio", msrlt.cache_hit_rate());
    let exec_state = pending_exec_state(&p.src.proc, &p.src.pending).encode();
    v.insert("migrate.exec_state_bytes", exec_state.len() as f64);
    if !tr.has("core.collect") {
        repeat(tr, "core.collect", passes, |_| {
            p.src.collect().map_err(named("collect"))
        })?;
    }

    // A seeded sample of block bases and interior addresses.
    let blocks = p.src.proc.space.block_infos();
    let mut rng = Rng::new(seed);
    let sample: Vec<u64> = (0..100_000)
        .map(|_| {
            let b = &blocks[rng.below(blocks.len() as u64) as usize];
            b.addr + rng.below(2) * rng.below(b.size.max(1))
        })
        .collect();
    drop(blocks);
    batch(tr, "core.msrlt_lookup", BATCH, |_| {
        for &addr in sample.iter().cycle().take(BATCH as usize) {
            std::hint::black_box(p.src.proc.msrlt.lookup_addr(addr));
        }
        Ok(())
    })?;

    if !tr.has("core.frame_image") {
        let header = image_header(&p.src);
        let exec_bytes = exec.encode();
        repeat(tr, "core.frame_image", passes, |_| {
            Ok(frame_image(&header, &exec_bytes, &payload))
        })?;
    }
    drop(payload);

    // The whole resume, on every workload; its restoration counts are
    // fixed by the seed too.
    let tiny = matches!(p.kind, Kind::Tiny);
    let resumed = repeat(tr, "migrate.resume", passes, |tr| {
        let (_, dst, stats, reported) = resume_from_image(&mut p.make(), p.dst_arch.clone(), image)
            .map_err(named("resume_from_image"))?;
        if tiny {
            // `TestPointer` declares its own frames, so its restoration
            // cannot be staged from here: take the duration the library
            // reports.
            tr.reported("core.restore", reported.as_nanos() as u64);
        }
        Ok((dst, stats))
    })?;
    let (mut dst, restored) = last(resumed);
    v.insert("core.restore_blocks", restored.blocks_restored as f64);
    v.insert("core.restore_allocs", restored.blocks_allocated as f64);

    // The stages of the resume, where no traced operation staged them.
    match p.spec().cloned() {
        Some(spec) => {
            drop(dst);
            if !tr.has("core.restore") {
                repeat(tr, "layers.resume_by_hand", 1, |tr| {
                    resume_by_hand(tr, &spec, p.dst_arch.clone(), image)
                        .map_err(named("hand-staged resume"))
                })?;
            }
        }
        None => {
            repeat(tr, "core.unframe_image", passes, |_| {
                unframe_image(image).map_err(named("unframe_image"))
            })?;
            repeat(tr, "migrate.dst_setup", passes, |_| {
                let mut program = p.make();
                let mut fresh = Process::new(program.name(), p.dst_arch.clone());
                fresh.space.reserve_heap_bytes(p.registered_bytes);
                program.setup(&mut fresh).map_err(named("setup"))?;
                Ok(fresh)
            })?;
            let program = p.make();
            repeat(tr, "migrate.verify", passes, |_| {
                program.results(&mut dst).map_err(named("results"))
            })?;
        }
    }
    Ok(())
}

/// `hpm-core` delta collection. `precopy_freeze` staged it on the path
/// against its real base; elsewhere it runs off the path, the image
/// against itself, only so every workload reports every layer.
fn delta(p: &mut Prepared, tr: &mut Tracer, v: &mut Values, image: &[u8]) -> Result<(), String> {
    let proc = &mut p.src.proc;
    if let Kind::Precopy {
        image0, manifest0, ..
    } = &p.kind
    {
        let digests =
            block_digests(&mut proc.space, &mut proc.msrlt).map_err(named("block_digests"))?;
        let (delta, _) = collect_delta(manifest0, image0, digests, image, 1);
        v.insert("core.delta_dirty_ratio", delta.dirty.dirty_fraction());
        v.insert("core.delta_frame_bytes", delta.to_frame().len() as f64);
        return Ok(());
    }
    let digests = last(repeat(tr, "core.delta_digest", 1, |_| {
        block_digests(&mut proc.space, &mut proc.msrlt).map_err(named("block_digests"))
    })?);
    let base = BaseImageManifest::new(image_id(image), digests.clone());
    repeat(tr, "core.delta_diff", 1, |_| {
        Ok(diff_manifest(&base, &digests))
    })?;
    let (frame, dirty_ratio) = last(repeat(tr, "core.delta_collect", 1, |_| {
        let (delta, _) = collect_delta(&base, image, digests.clone(), image, 1);
        Ok((delta.to_frame(), delta.dirty.dirty_fraction()))
    })?);
    let (_, retained) =
        apply_delta(None, &full_image_frame(image, &base, 0)).map_err(named("apply_delta"))?;
    repeat(tr, "core.delta_apply", 1, |_| {
        apply_delta(Some(&retained), &frame).map_err(named("apply_delta"))
    })?;
    v.insert("core.delta_dirty_ratio", dirty_ratio);
    v.insert("core.delta_frame_bytes", frame.len() as f64);
    Ok(())
}

/// `hpm-arch` scalar conversion and the `hpm-xdr` codecs.
fn arch_and_xdr(
    p: &Prepared,
    tr: &mut Tracer,
    v: &mut Values,
    image: &[u8],
    passes: u64,
) -> Result<(), String> {
    let arch = &p.src_arch;
    let kinds = [CScalar::Double, CScalar::Int];
    let values = [ScalarValue::F64(0.577_215_664_9), ScalarValue::Int(-12_345)];
    let mut native: Vec<Vec<u8>> = Vec::new();
    for (kind, value) in kinds.iter().zip(values) {
        let mut bytes = Vec::new();
        arch.encode_scalar(*kind, value, &mut bytes);
        native.push(bytes);
    }
    batch(tr, "arch.decode_scalar", BATCH, |_| {
        for i in 0..BATCH as usize {
            std::hint::black_box(
                arch.decode_scalar(kinds[i % 2], std::hint::black_box(&native[i % 2])),
            );
        }
        Ok(())
    })?;
    let mut out = Vec::with_capacity(8 * BATCH as usize);
    batch(tr, "arch.encode_scalar", BATCH, |_| {
        out.clear();
        for i in 0..BATCH as usize {
            arch.encode_scalar(kinds[i % 2], std::hint::black_box(values[i % 2]), &mut out);
        }
        std::hint::black_box(&out);
        Ok(())
    })?;
    drop(out);

    let doubles: Vec<f64> = (0..DOUBLES).map(|i| i as f64 * 0.25).collect();
    let encoded = last(repeat(tr, "xdr.encode_f64", 1, |_| {
        let mut enc = XdrEncoder::with_capacity(8 * DOUBLES + 4);
        enc.put_f64_array(&doubles);
        Ok(enc.into_bytes())
    })?);
    repeat(tr, "xdr.decode_f64", 1, |_| {
        XdrDecoder::new(&encoded)
            .get_f64_array()
            .map_err(named("get_f64_array"))
    })?;
    drop((doubles, encoded));

    let chunks: Vec<&[u8]> = image.chunks(CHUNK_BYTES).collect();
    repeat(tr, "xdr.crc32", passes, |_| Ok(crc32(image)))?;
    let packed: Vec<Vec<u8>> = last(repeat(tr, "xdr.compress", passes, |_| {
        Ok(chunks.iter().map(|c| compress(c)).collect())
    })?);
    repeat(tr, "xdr.decompress", passes, |_| {
        packed
            .iter()
            .zip(&chunks)
            .map(|(c, raw)| decompress(c, raw.len()).map_err(named("decompress")))
            .collect::<Result<Vec<_>, _>>()
    })?;
    // What the wire would carry: a chunk that does not shrink goes stored.
    let wire: usize = packed
        .iter()
        .zip(&chunks)
        .map(|(c, raw)| c.len().min(raw.len()))
        .sum();
    v.insert("xdr.compress_ratio", wire as f64 / image.len() as f64);
    drop(packed);

    let frames: Vec<Vec<u8>> = last(repeat(tr, "xdr.frame_chunk", passes, |_| {
        Ok(chunks
            .iter()
            .enumerate()
            .map(|(seq, c)| frame_chunk_v3(seq as u32, false, c).0)
            .collect())
    })?);
    repeat(tr, "xdr.unframe_chunk", passes, |_| {
        frames
            .iter()
            .map(|f| {
                let frame = unframe_chunk_any(f).map_err(named("unframe_chunk_any"))?;
                frame
                    .verify_crc()
                    .map_err(|crc| format!("verify_crc: computed {crc:#x}"))?;
                frame.into_payload().map_err(named("into_payload"))
            })
            .collect::<Result<Vec<_>, _>>()
    })?;
    Ok(())
}

/// `hpm-memory` allocation and plan lookup, and `Process::malloc` (the
/// paper's `MSRLT_update`), on the destination machine.
fn memory(p: &Prepared, tr: &mut Tracer) -> Result<(), String> {
    batch(tr, "memory.malloc", ALLOCS, |_| {
        let mut space = AddressSpace::new(p.dst_arch.clone());
        let gnode = declare_types(&mut space)
            .map_err(named("declare_types"))?
            .gnode;
        for _ in 0..ALLOCS {
            space.malloc(gnode, 1).map_err(named("malloc"))?;
        }
        Ok(())
    })?;
    let mut space = AddressSpace::new(p.dst_arch.clone());
    let gnode = declare_types(&mut space)
        .map_err(named("declare_types"))?
        .gnode;
    batch(tr, "memory.plan_for", BATCH, |_| {
        for _ in 0..BATCH {
            std::hint::black_box(space.plan_for(gnode).map_err(named("plan_for"))?);
        }
        Ok(())
    })?;
    batch(tr, "migrate.malloc", ALLOCS, |_| {
        let mut proc = Process::new("malloc", p.dst_arch.clone());
        let gnode = declare_types(&mut proc.space)
            .map_err(named("declare_types"))?
            .gnode;
        for _ in 0..ALLOCS {
            proc.malloc(gnode, 1).map_err(named("Process::malloc"))?;
        }
        Ok(())
    })?;
    Ok(())
}

/// `hpm-net`: the modelled channel, and the ARQ endpoints over it with a
/// stored codec, one sender thread against this (receiver) thread.
fn net(tr: &mut Tracer, v: &mut Values, image: &[u8], passes: u64) -> Result<(), String> {
    if !tr.has("net.channel") {
        // An operation moves its image into the channel; here the bytes
        // that come out of one call go into the next.
        let mut bytes = image.to_vec();
        repeat(tr, "net.channel", passes, |_| {
            bytes = ship(std::mem::take(&mut bytes), false).map_err(named("channel"))?;
            Ok(())
        })?;
    }
    let chunks: Vec<&[u8]> = image.chunks(CHUNK_BYTES).collect();
    let (mut frames, mut retransmits) = (0, 0);
    repeat(tr, "net.arq", passes, |_| {
        let (near, far) = channel_pair(link());
        let mut receiver = ReliableChunkReceiver::new(far, ArqConfig::default());
        let sent = std::thread::scope(|s| {
            let sender = s.spawn(|| {
                let mut tx =
                    ReliableChunkSender::new(near, ArqConfig::default()).with_codec(WireCodec::V2);
                for c in &chunks {
                    tx.send(c)?;
                }
                tx.finish()?;
                Ok::<_, MigError>(tx.stats())
            });
            let mut got = 0;
            while let Some(c) = receiver.recv_chunk().map_err(named("arq recv"))? {
                got += c.len();
            }
            if got != image.len() {
                return Err(format!("arq delivered {got} of {} bytes", image.len()));
            }
            sender
                .join()
                .map_err(|_| "arq sender thread panicked".to_string())?
                .map_err(named("arq send"))
        })?;
        (frames, retransmits) = (sent.frames_sent, sent.retransmits);
        Ok(())
    })?;
    v.insert("net.arq_frames", frames as f64);
    v.insert("net.arq_retransmits", retransmits as f64);
    Ok(())
}
