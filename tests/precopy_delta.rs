//! End-to-end pre-copy delta migration: correctness of the iterative
//! rounds, the convergence freeze, the digest-refusal fallback ladder,
//! and composition with the faulty chunk stream.

use hpm_arch::Architecture;
use hpm_core::{
    apply_delta, block_digests, collect_delta, full_image_frame, BaseImageManifest, BlockDigest,
};
use hpm_migrate::{
    migrate, resume_from_image, resume_to_migration, run_straight, run_to_migration, Flow, MigCtx,
    MigError, MigratableProgram, MigratedSource, Migration, MigrationRun, PipelineConfig,
    PrecopyConfig, PrecopyStats, Process, ResumeFlow, Transport, Trigger,
};
use hpm_net::{FaultPlan, NetworkModel};
use hpm_types::Field;
use hpm_workloads::{diff_results, BitonicSort, TestPointer};
use hpm_xdr::image_id;

// Pre-copy rounds need a workload whose poll-points live in the
// *outermost* frame: after a mid-run resume, polls in inner frames are
// inert until every outer frame has restored, so a program like
// `TestPointer` (polling only inside `build_tree`) can never freeze a
// second time. `BitonicSort` polls in `main` — the canonical iterative
// pre-copy workload.
fn bitonic_cfg() -> PrecopyConfig {
    PrecopyConfig {
        round_polls: 300,
        max_rounds: 3,
        dirty_threshold: 0.01,
        ..PrecopyConfig::default()
    }
}

const N: u64 = 2_000;

fn stats(run: &MigrationRun) -> &PrecopyStats {
    run.report
        .precopy
        .as_ref()
        .expect("a pre-copy policy reports per-round stats")
}

#[test]
fn precopy_bitonic_matches_straight_run_heterogeneous() {
    let (expected, _) =
        run_straight(&mut BitonicSort::new(N), Architecture::dec5000()).expect("straight run");
    for (src, dst) in [
        (Architecture::dec5000(), Architecture::x86_64_sim()),
        (Architecture::sparc20(), Architecture::ultra5()),
        (Architecture::x86_64_sim(), Architecture::dec5000()),
    ] {
        let run = migrate(
            || BitonicSort::new(N),
            src.clone(),
            dst.clone(),
            NetworkModel::ethernet_100(),
            Trigger::AtPollCount(N / 4),
            &Migration {
                precopy: Some(bitonic_cfg()),
                ..Migration::new(Transport::Whole)
            },
        )
        .expect("pre-copy migration");
        assert!(
            diff_results(&expected, &run.results).is_none(),
            "{} -> {}: answers diverged",
            src.name,
            dst.name
        );
        assert!(stats(&run).identity_ok, "per-round byte identity violated");
        assert_eq!(stats(&run).fallbacks, 0, "unexpected full-image fallback");
        assert!(!stats(&run).completed_on_source);
        assert!(stats(&run).rounds >= 1);
        assert_eq!(
            stats(&run).bytes_per_round.len() as u32,
            stats(&run).rounds + 1,
            "one entry per shipped round (round 0 included)"
        );
    }
}

/// Block digests are machine-independent, so on every one of the 16
/// preset pairs each round must reconstruct the image byte-identically,
/// with no fallback, and the frozen leg must ship at most a quarter of
/// the full image.
#[test]
fn precopy_bitonic_converges_with_small_freeze() {
    let n = 4_000;
    let (expected, _) =
        run_straight(&mut BitonicSort::new(n), Architecture::ultra5()).expect("straight run");
    // Bitonic inserts for its whole life, so the freeze comes from the
    // round cap — the round budget must stay inside the n total polls
    // or the run silently completes on the source and `freeze_bytes`
    // is a vacuous 0.
    let policy = Migration {
        precopy: Some(PrecopyConfig {
            round_polls: 150,
            max_rounds: 4,
            dirty_threshold: 0.05,
            ..PrecopyConfig::default()
        }),
        ..Migration::new(Transport::Whole)
    };
    for src in Architecture::presets() {
        for dst in Architecture::presets() {
            let pair = format!("{} -> {}", src.name, dst.name);
            let run = migrate(
                || BitonicSort::new(n),
                src.clone(),
                dst,
                NetworkModel::ethernet_100(),
                Trigger::AtPollCount(n / 4),
                &policy,
            )
            .expect("pre-copy migration");
            assert!(
                diff_results(&expected, &run.results).is_none(),
                "{pair}: answers diverged"
            );
            let s = stats(&run);
            assert!(s.identity_ok, "{pair}: per-round byte identity violated");
            assert_eq!(
                s.fallbacks, 0,
                "{pair}: full-image fallback on a clean link"
            );
            assert!(
                !s.completed_on_source,
                "{pair}: no freeze happened — the size claim below would be vacuous"
            );
            assert!(s.freeze_bytes > 0, "{pair}");
            // The whole point of pre-copy: the frozen leg ships far less
            // than the full image round 0 shipped.
            assert!(
                s.freeze_bytes * 4 <= s.full_bytes,
                "{pair}: freeze shipped {} of a {}-byte image",
                s.freeze_bytes,
                s.full_bytes
            );
        }
    }
}

#[test]
fn tampered_base_forces_clean_full_image_fallback() {
    let (expected, _) =
        run_straight(&mut BitonicSort::new(N), Architecture::dec5000()).expect("straight run");
    let run = migrate(
        || BitonicSort::new(N),
        Architecture::dec5000(),
        Architecture::ultra5(),
        NetworkModel::ethernet_100(),
        Trigger::AtPollCount(N / 4),
        &Migration {
            precopy: Some(PrecopyConfig {
                tamper_base_at_round: Some(1),
                ..bitonic_cfg()
            }),
            ..Migration::new(Transport::Whole)
        },
    )
    .expect("pre-copy migration survives a rotten base");
    assert_eq!(
        stats(&run).fallbacks,
        1,
        "the rotten base must refuse exactly once"
    );
    assert!(
        stats(&run).identity_ok,
        "fallback must restore byte identity"
    );
    assert!(
        diff_results(&expected, &run.results).is_none(),
        "answers diverged after fallback"
    );
}

#[test]
fn program_outrunning_the_rounds_reports_source_results() {
    let (expected, _) =
        run_straight(&mut TestPointer::new(), Architecture::dec5000()).expect("straight run");
    let run = migrate(
        TestPointer::new,
        Architecture::dec5000(),
        Architecture::ultra5(),
        NetworkModel::ethernet_100(),
        Trigger::AtPollCount(8),
        &Migration {
            precopy: Some(PrecopyConfig {
                round_polls: 1_000_000,
                ..PrecopyConfig::default()
            }),
            ..Migration::new(Transport::Whole)
        },
    )
    .expect("pre-copy with an unreachable round trigger");
    assert!(stats(&run).completed_on_source);
    assert!(diff_results(&expected, &run.results).is_none());
    assert_eq!(stats(&run).rounds, 0, "no delta round completed");
}

#[test]
fn precopy_over_faulty_arq_link_roundtrips() {
    let (expected, _) =
        run_straight(&mut BitonicSort::new(N), Architecture::sparc20()).expect("straight run");
    // A round's connection that reaches its fourth frame delivers it
    // damaged; it is redialled once and the round's frame arrives whole.
    let plan = FaultPlan {
        seed: 0x9E37_79B9,
        corrupt_at: Some(3),
        ..FaultPlan::none()
    };
    let run = migrate(
        || BitonicSort::new(N),
        Architecture::sparc20(),
        Architecture::x86_64_sim(),
        NetworkModel::ethernet_10(),
        Trigger::AtPollCount(N / 4),
        &Migration {
            precopy: Some(bitonic_cfg()),
            ..Migration::new(Transport::Reliable(
                PipelineConfig {
                    chunk_bytes: 4096,
                    ..PipelineConfig::default()
                },
                plan,
            ))
        },
    )
    .expect("pre-copy over faulty link");
    assert!(
        diff_results(&expected, &run.results).is_none(),
        "answers diverged"
    );
    assert!(stats(&run).identity_ok);
    let faults = run
        .report
        .recovery()
        .expect("the chunk stream reports fault counters");
    assert!(
        faults.faults_injected > 0,
        "seed injected nothing — weak test"
    );
}

/// A linked list of `{ int key; double w; lnode *next; }` that lives for
/// two iterations with a poll-point after each: the first builds
/// `NODES` nodes, the second rewrites `percent` % of them in place, then
/// unlinks and frees 1 % and pushes as many fresh ones on the front.
struct ListChurn {
    percent: u64,
}

const NODES: i64 = 6_000;
const PP_STEP: u32 = 1;

impl ListChurn {
    fn head(proc: &mut Process) -> u64 {
        let infos = proc.space.block_infos();
        let head = infos.iter().find(|b| b.name.as_deref() == Some("head"));
        head.expect("setup ran").addr
    }

    fn push(proc: &mut Process, head: u64, key: i64) -> Result<(), MigError> {
        let lnode = proc.space.types().struct_by_name("lnode").expect("setup");
        let node = proc.malloc(lnode, 1)?;
        let (k, w, next) = Self::fields(proc, node)?;
        proc.space.store_int(k, key)?;
        proc.space.store_f64(w, key as f64 * 0.5)?;
        let front = proc.space.load_ptr(head)?;
        proc.space.store_ptr(next, front)?;
        proc.space.store_ptr(head, node)?;
        Ok(())
    }

    fn fields(proc: &mut Process, node: u64) -> Result<(u64, u64, u64), MigError> {
        let s = &mut proc.space;
        Ok((
            s.elem_addr(node, 0)?,
            s.elem_addr(node, 1)?,
            s.elem_addr(node, 2)?,
        ))
    }

    fn mutate(&self, proc: &mut Process, head: u64) -> Result<(), MigError> {
        let (mut link, mut pos) = (head, 0u64);
        loop {
            let node = proc.space.load_ptr(link)?;
            if node == 0 {
                break;
            }
            let (k, w, next) = Self::fields(proc, node)?;
            if pos % 100 == 50 {
                let after = proc.space.load_ptr(next)?;
                proc.space.store_ptr(link, after)?;
                proc.free(node)?;
            } else {
                // Scattered, and each percentage a superset of the last.
                if pos * 37 % 100 < self.percent {
                    let key = proc.space.load_int(k)?;
                    proc.space.store_int(k, key * 31 + 7)?;
                    let old = proc.space.load_f64(w)?;
                    proc.space.store_f64(w, old + 0.25)?;
                }
                link = next;
            }
            pos += 1;
        }
        for fresh in 0..NODES / 100 {
            Self::push(proc, head, NODES + fresh)?;
        }
        Ok(())
    }
}

impl MigratableProgram for ListChurn {
    fn name(&self) -> &'static str {
        "list_churn"
    }

    fn setup(&mut self, proc: &mut Process) -> Result<(), MigError> {
        let t = proc.space.types_mut();
        let (int, double) = (t.int(), t.double());
        let lnode = t.declare_struct("lnode");
        let p_lnode = t.pointer_to(lnode);
        let fields = vec![
            Field::new("key", int),
            Field::new("w", double),
            Field::new("next", p_lnode),
        ];
        t.define_struct(lnode, fields)
            .map_err(|e| MigError::Protocol(e.to_string()))?;
        proc.define_global("head", p_lnode, 1)?;
        Ok(())
    }

    fn run(&mut self, ctx: &mut MigCtx<'_>) -> Result<Flow, MigError> {
        let int = ctx.proc().space.types_mut().int();
        let head = Self::head(ctx.proc());
        let m = ctx.enter("main")?;
        let i = ctx.local(m, "i", int, 1)?;
        let live = [i, head];
        let mut step = 0;
        if let Some(PP_STEP) = ctx.resume_point() {
            ctx.restore_frame(&live)?;
            step = ctx.proc().space.load_int(i)?;
        }
        while step < 2 {
            if step == 0 {
                for key in 0..NODES {
                    Self::push(ctx.proc(), head, key)?;
                }
            } else {
                self.mutate(ctx.proc(), head)?;
            }
            step += 1;
            ctx.proc().space.store_int(i, step)?;
            if ctx.poll() {
                ctx.save_frame(PP_STEP, &live)?;
                return Ok(Flow::Migrate);
            }
        }
        ctx.leave(m)?;
        Ok(Flow::Done)
    }

    fn results(&self, proc: &mut Process) -> Result<Vec<(String, String)>, MigError> {
        let head = Self::head(proc);
        let (mut node, mut count, mut hash) = (proc.space.load_ptr(head)?, 0u64, 0u64);
        while node != 0 {
            let (k, w, next) = Self::fields(proc, node)?;
            let (key, w) = (proc.space.load_int(k)?, proc.space.load_f64(w)?);
            hash = (hash ^ key as u64 ^ w.to_bits()).wrapping_mul(0x0000_0100_0000_01B3);
            count += 1;
            node = proc.space.load_ptr(next)?;
        }
        Ok(vec![
            ("count".into(), count.to_string()),
            ("hash".into(), format!("{hash:#018x}")),
        ])
    }
}

/// The frozen source's image and the digest table of its live blocks.
fn image_and_digests(src: &mut MigratedSource) -> (Vec<u8>, Vec<BlockDigest>) {
    let image = src.to_image().expect("collect");
    let digests = block_digests(&mut src.proc.space, &mut src.proc.msrlt).expect("digests");
    (image, digests)
}

/// The frozen leg must cost what the dirty set costs: the framed delta's
/// share of the image grows with the share of nodes rewritten and stays
/// below the share of nodes that changed at all (rewritten, freed or
/// fresh) — a bound in the image's own units, so it holds whatever a
/// node's record costs — through frees and fresh allocations that shift
/// the rest of the image.
#[test]
fn delta_size_tracks_the_dirty_fraction() {
    for (src_arch, dst_arch) in [
        (Architecture::dec5000(), Architecture::sparc20()),
        (Architecture::ultra5(), Architecture::ultra5()),
        (Architecture::x86_64_sim(), Architecture::sparc20()),
    ] {
        let mut last = 0.0;
        for percent in [2, 8, 32] {
            // `mutate` also frees 1 % of the nodes and pushes as many.
            let bound = (percent + 2) as f64 / 100.0;
            let what = format!("{} -> {} at {percent} %", src_arch.name, dst_arch.name);
            let make = || ListChurn { percent };
            let (expected, _) = run_straight(&mut make(), src_arch.clone()).expect("straight");
            let mut base = run_to_migration(&mut make(), src_arch.clone(), Trigger::AtPollCount(1))
                .expect("first freeze");
            let (image0, digests0) = image_and_digests(&mut base);
            let manifest0 = BaseImageManifest::new(image_id(&image0), digests0);
            let (_, retained0) =
                apply_delta(None, &full_image_frame(&image0, &manifest0, 0)).expect("round 0");
            let resumed = resume_to_migration(
                &mut make(),
                src_arch.clone(),
                &image0,
                Trigger::AtLeastPollCount(1),
            );
            let Ok(ResumeFlow::Frozen(mut src)) = resumed else {
                panic!("{what}: no second freeze");
            };
            let (image, digests) = image_and_digests(&mut src);
            let (delta, _) = collect_delta(&manifest0, &image0, digests, &image, 1);
            let frame = delta.to_frame();
            let share = frame.len() as f64 / image.len() as f64;
            assert!(share <= bound, "{what}: delta is {share:.3} of the image");
            assert!(share > last, "{what}: {share:.3} after {last:.3}");
            last = share;
            let (_, rebuilt) = apply_delta(Some(&retained0), &frame).expect("apply");
            assert!(rebuilt.image == image, "{what}: rebuilt image differs");
            let (results, ..) =
                resume_from_image(&mut make(), dst_arch.clone(), &rebuilt.image).expect("resume");
            assert!(diff_results(&expected, &results).is_none(), "{what}");
        }
    }
}

/// The dictionary coder's stream is what the frozen leg ships. It shares
/// a module with the chunk compressor, whose kernels change; its own
/// output on the fixtures above must not: (length, FNV-1a) of
/// `compress_with_dict(image0, image)`. The coder is 14804d5's; the
/// values were re-taken when image version 3 changed the fixtures (the
/// two images are the coder's *input*, and their records got compact)
/// with `git diff` empty under `crates/xdr` — same coder, new images:
/// 4 474 → 4 279, 10 743 → 10 174 and 33 479 → 32 472 bytes — and again,
/// the same way, when version 4 moved heap ids into the records' first
/// word: 4 279 → 4 129, 10 174 → 10 007 and 32 472 → 32 286 bytes.
#[test]
fn dictionary_coder_stream_is_pinned() {
    const PINNED: [(u64, usize, u64); 3] = [
        (2, 4_129, 0x751B_81C5_FF7B_A9F1),
        (8, 10_007, 0xEE9B_9161_C692_B7BD),
        (32, 32_286, 0xEE30_3860_CCA2_4D5D),
    ];
    let arch = Architecture::ultra5();
    for (percent, len, fnv) in PINNED {
        let make = || ListChurn { percent };
        let mut base = run_to_migration(&mut make(), arch.clone(), Trigger::AtPollCount(1))
            .expect("first freeze");
        let image0 = base.to_image().expect("collect");
        let resumed = resume_to_migration(
            &mut make(),
            arch.clone(),
            &image0,
            Trigger::AtLeastPollCount(1),
        );
        let Ok(ResumeFlow::Frozen(mut src)) = resumed else {
            panic!("{percent} %: no second freeze");
        };
        let image = src.to_image().expect("collect");
        let ops = hpm_xdr::compress_with_dict(&image0, &image);
        let digest = ops.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
        });
        assert_eq!((ops.len(), digest), (len, fnv), "{percent} %");
    }
}
