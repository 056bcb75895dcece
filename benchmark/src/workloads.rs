//! The five workloads: what each sets up, what one operation is, and how
//! its outputs are checked.
//!
//! Staged workloads (`bulk_numeric`, `pointer_graph`, `precopy_freeze`)
//! drive every stage of a migration from here, so the traced form can wrap
//! each stage in a span. `chunked_wire` and `tiny_image` time one whole
//! driver call from outside.

use crate::adapter::*;
use crate::gen::{GenProgram, Spec};
use crate::trace::Tracer;
use std::sync::Arc;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 5] = [
    "bulk_numeric",
    "pointer_graph",
    "chunked_wire",
    "precopy_freeze",
    "tiny_image",
];

/// Payload bytes per chunk wherever an image is cut into chunks.
pub const CHUNK_BYTES: usize = 32 * 1024;

/// The link every workload models: the paper's Table 1 Ethernet.
pub fn link() -> NetworkModel {
    NetworkModel::ethernet_100()
}

/// What differs between workloads.
pub enum Kind {
    /// Plain monolithic path, staged here.
    Staged { spec: Arc<Spec> },
    /// The frozen final leg of a pre-copy migration, staged here. The
    /// sender holds the base image and its manifest, the receiver the
    /// retained base.
    Precopy {
        spec: Arc<Spec>,
        image0: Vec<u8>,
        manifest0: BaseImageManifest,
        retained0: RetainedBase,
    },
    /// One `run_migrating_resilient` call.
    Chunked { spec: Arc<Spec> },
    /// One `run_migrating` call on `TestPointer`.
    Tiny,
}

/// A workload after set-up: frozen, checked, ready to time.
pub struct Prepared {
    pub src_arch: Architecture,
    pub dst_arch: Architecture,
    pub kind: Kind,
    /// The frozen source one operation collects from. For the two
    /// driver-call workloads, a reference freeze of the same program, so
    /// the standalone layer calls have the workload's own image to chew on.
    pub src: MigratedSource,
    /// `src`'s migration image: the byte-identity reference.
    pub image: Vec<u8>,
    /// What `run_straight` answers on both architectures.
    pub expected: Results,
    /// `Msrlt::registered_bytes()` of `src`: the numerator of every MB/s.
    pub registered_bytes: u64,
}

/// What one operation hands back for checking, once the clock has stopped.
pub struct Outcome {
    /// Bytes handed to the link.
    pub wire_bytes: u64,
    pub results: Results,
    /// The image the destination resumed from, on staged paths.
    pub image: Option<Vec<u8>>,
    /// Dropped by the caller, outside the timed section.
    pub dst: Option<Process>,
}

fn check(what: &str, ok: bool) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("set-up check failed: {what}"))
    }
}

fn err(what: &str) -> impl Fn(MigError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// `run_straight` on both machines; the two answers must agree.
fn reference_results<P: MigratableProgram>(
    make: impl Fn() -> P,
    src_arch: &Architecture,
    dst_arch: &Architecture,
) -> Result<Results, String> {
    let (on_src, _) =
        run_straight(&mut make(), src_arch.clone()).map_err(err("run_straight on source"))?;
    let (on_dst, _) =
        run_straight(&mut make(), dst_arch.clone()).map_err(err("run_straight on destination"))?;
    check(
        "run_straight agrees on source and destination architecture",
        on_src == on_dst,
    )?;
    Ok(on_src)
}

/// The byte-identity checks every frozen source must pass; returns its image.
fn checked_image(src: &mut MigratedSource) -> Result<Vec<u8>, String> {
    let image = src.to_image().map_err(err("to_image"))?;
    let (payload, exec, _) = src.collect().map_err(err("collect"))?;
    let staged = frame_image(&image_header(src), &exec.encode(), &payload);
    check("staged frame_image equals to_image()", staged == image)?;
    let (chunks, _) = src.to_chunks(CHUNK_BYTES).map_err(err("to_chunks"))?;
    check(
        "concatenated to_chunks(32 KiB) equals to_image()",
        chunks.concat() == image,
    )?;
    let (again, _, _) = src.collect().map_err(err("second collect"))?;
    check(
        "a second collect() returns identical bytes",
        again == payload,
    )?;
    Ok(image)
}

impl Prepared {
    /// Generate from `seed`, build, freeze, run the references and the
    /// byte-identity checks. `scale` divides every size (`--quick`).
    pub fn new(workload: &str, seed: u64, scale: usize) -> Result<Prepared, String> {
        let first = Trigger::AtPollCount(1);
        let (src_arch, dst_arch) = match workload {
            "bulk_numeric" => (Architecture::x86_64_sim(), Architecture::dec5000()),
            "pointer_graph" => (Architecture::x86_64_sim(), Architecture::sparc20()),
            "chunked_wire" => (Architecture::sparc20(), Architecture::x86_64_sim()),
            "precopy_freeze" => (Architecture::ultra5(), Architecture::ultra5()),
            "tiny_image" => (Architecture::dec5000(), Architecture::sparc20()),
            other => return Err(format!("unknown workload '{other}'")),
        };
        let gen = |spec: Spec| {
            let spec = Arc::new(spec);
            let expected =
                reference_results(|| GenProgram::new(spec.clone()), &src_arch, &dst_arch)?;
            let src = run_to_migration(
                &mut GenProgram::new(spec.clone()),
                src_arch.clone(),
                first.clone(),
            )
            .map_err(err("run_to_migration"))?;
            Ok::<_, String>((spec, expected, src))
        };
        let (kind, expected, mut src) = match workload {
            "bulk_numeric" | "pointer_graph" => {
                let spec = if workload == "bulk_numeric" {
                    Spec::bulk_numeric(seed, scale)
                } else {
                    Spec::pointer_graph(seed, scale)
                };
                let (spec, expected, src) = gen(spec)?;
                (Kind::Staged { spec }, expected, src)
            }
            "chunked_wire" => {
                let (spec, expected, src) = gen(Spec::chunked_wire(seed, scale))?;
                (Kind::Chunked { spec }, expected, src)
            }
            "precopy_freeze" => {
                let (spec, expected, mut base) = gen(Spec::precopy_freeze(seed, scale))?;
                let image0 = checked_image(&mut base)?;
                let digests = block_digests(&mut base.proc.space, &mut base.proc.msrlt)
                    .map_err(|e| format!("block_digests: {e}"))?;
                let manifest0 = BaseImageManifest::new(image_id(&image0), digests);
                let (_, retained0) = apply_delta(None, &full_image_frame(&image0, &manifest0, 0))
                    .map_err(|e| format!("apply_delta(full image): {e}"))?;
                check("receiver retains the base image", retained0.image == image0)?;
                let resumed = resume_to_migration(
                    &mut GenProgram::new(spec.clone()),
                    src_arch.clone(),
                    &image0,
                    Trigger::AtLeastPollCount(1),
                )
                .map_err(err("resume_to_migration"))?;
                let ResumeFlow::Frozen(src) = resumed else {
                    return Err("resumed program completed before the second freeze".into());
                };
                let kind = Kind::Precopy {
                    spec,
                    image0,
                    manifest0,
                    retained0,
                };
                (kind, expected, src)
            }
            _ => {
                let expected = reference_results(TestPointer::new, &src_arch, &dst_arch)?;
                let src = run_to_migration(&mut TestPointer::new(), src_arch.clone(), first)
                    .map_err(err("run_to_migration"))?;
                (Kind::Tiny, expected, src)
            }
        };
        let image = checked_image(&mut src)?;
        let registered_bytes = src.proc.msrlt.registered_bytes();
        Ok(Prepared {
            src_arch,
            dst_arch,
            kind,
            src,
            image,
            expected,
            registered_bytes,
        })
    }

    /// A fresh program value, as the drivers' `make` closure would give.
    pub fn make(&self) -> Box<dyn MigratableProgram + Send> {
        match self.spec() {
            Some(spec) => Box::new(GenProgram::new(spec.clone())),
            None => Box::new(TestPointer::new()),
        }
    }

    /// The generator's spec, for every workload but `tiny_image`.
    pub fn spec(&self) -> Option<&Arc<Spec>> {
        match &self.kind {
            Kind::Staged { spec } | Kind::Precopy { spec, .. } | Kind::Chunked { spec } => {
                Some(spec)
            }
            Kind::Tiny => None,
        }
    }

    /// Whether `out` is what a correct migration produces: the program's
    /// answers, and on staged paths the reference image byte for byte.
    pub fn check(&self, out: &Outcome) -> bool {
        out.results == self.expected && out.image.as_ref().is_none_or(|i| *i == self.image)
    }

    /// One operation, tracing off. `corrupt` flips one byte of what the
    /// link delivers (staged paths only), which the checks must catch.
    pub fn op(&mut self, corrupt: bool) -> Result<Outcome, MigError> {
        let dst_arch = self.dst_arch.clone();
        match &self.kind {
            Kind::Staged { spec } => {
                let image = {
                    let (payload, exec, _) = self.src.collect()?;
                    frame_image(&image_header(&self.src), &exec.encode(), &payload)
                };
                let wire_bytes = image.len() as u64;
                let image = ship(image, corrupt)?;
                let mut program = GenProgram::new(spec.clone());
                let (results, dst, _, _) = resume_from_image(&mut program, dst_arch, &image)?;
                Ok(Outcome {
                    wire_bytes,
                    results,
                    image: Some(image),
                    dst: Some(dst),
                })
            }
            Kind::Precopy {
                spec,
                image0,
                manifest0,
                retained0,
            } => {
                let image = self.src.to_image()?;
                let digests = block_digests(&mut self.src.proc.space, &mut self.src.proc.msrlt)?;
                std::hint::black_box(diff_manifest(manifest0, &digests));
                let (delta, _) = collect_delta(manifest0, image0, digests, &image, 1);
                let frame = delta.to_frame();
                let wire_bytes = frame.len() as u64;
                let frame = ship(frame, corrupt)?;
                let (_, rebuilt) = apply_delta(Some(retained0), &frame)?;
                let mut program = GenProgram::new(spec.clone());
                let (results, dst, _, _) =
                    resume_from_image(&mut program, dst_arch, &rebuilt.image)?;
                Ok(Outcome {
                    wire_bytes,
                    results,
                    image: Some(rebuilt.image),
                    dst: Some(dst),
                })
            }
            Kind::Chunked { spec } => {
                let run = run_migrating_resilient(
                    || GenProgram::new(spec.clone()),
                    self.src_arch.clone(),
                    dst_arch,
                    link(),
                    Trigger::AtPollCount(1),
                    PipelineConfig {
                        chunk_bytes: CHUNK_BYTES,
                        pace: false,
                        pace_scale: 1.0,
                        codec: WireCodec::V3,
                    },
                    FaultPlan::none(),
                    RecoveryPolicy::default(),
                )?;
                Ok(Outcome {
                    wire_bytes: run.report.transfer.bytes_sent,
                    results: run.results,
                    image: None,
                    dst: None,
                })
            }
            Kind::Tiny => {
                let run = run_migrating(
                    TestPointer::new,
                    self.src_arch.clone(),
                    dst_arch,
                    link(),
                    Trigger::AtPollCount(1),
                )?;
                Ok(Outcome {
                    wire_bytes: run.report.transfer.bytes_sent,
                    results: run.results,
                    image: None,
                    dst: None,
                })
            }
        }
    }

    /// One operation under the tracer. Staged workloads run in expanded
    /// form: the same stages, `resume_from_image` replaced by its
    /// hand-staged equivalent so destination set-up, restoration and the
    /// checksum walk are child spans. The driver-call workloads are one
    /// opaque span.
    pub fn op_traced(&mut self, tr: &mut Tracer) -> Result<Outcome, MigError> {
        let op = tr.begin_op();
        let out = self.op_expanded(tr);
        tr.end(op);
        out
    }

    fn op_expanded(&mut self, tr: &mut Tracer) -> Result<Outcome, MigError> {
        let dst_arch = self.dst_arch.clone();
        match &self.kind {
            Kind::Staged { spec } => {
                let s = tr.begin("core.collect");
                let (payload, exec, _) = self.src.collect()?;
                tr.end(s);
                let s = tr.begin("core.frame_image");
                let image = frame_image(&image_header(&self.src), &exec.encode(), &payload);
                drop(payload);
                tr.end(s);
                let wire_bytes = image.len() as u64;
                let s = tr.begin("net.channel");
                let image = ship(image, false)?;
                tr.end(s);
                let (results, dst, _) = resume_by_hand(tr, spec, dst_arch, &image)?;
                Ok(Outcome {
                    wire_bytes,
                    results,
                    image: Some(image),
                    dst: Some(dst),
                })
            }
            Kind::Precopy {
                spec,
                image0,
                manifest0,
                retained0,
            } => {
                let s = tr.begin("core.collect");
                let (payload, exec, _) = self.src.collect()?;
                tr.end(s);
                let s = tr.begin("core.frame_image");
                let image = frame_image(&image_header(&self.src), &exec.encode(), &payload);
                drop(payload);
                tr.end(s);
                let s = tr.begin("core.delta_digest");
                let digests = block_digests(&mut self.src.proc.space, &mut self.src.proc.msrlt)?;
                tr.end(s);
                let s = tr.begin("core.delta_diff");
                std::hint::black_box(diff_manifest(manifest0, &digests));
                tr.end(s);
                let s = tr.begin("core.delta_collect");
                let (delta, _) = collect_delta(manifest0, image0, digests, &image, 1);
                let frame = delta.to_frame();
                tr.end(s);
                let wire_bytes = frame.len() as u64;
                let s = tr.begin("net.channel");
                let frame = ship(frame, false)?;
                tr.end(s);
                let s = tr.begin("core.delta_apply");
                let (_, rebuilt) = apply_delta(Some(retained0), &frame)?;
                tr.end(s);
                let (results, dst, _) = resume_by_hand(tr, spec, dst_arch, &rebuilt.image)?;
                Ok(Outcome {
                    wire_bytes,
                    results,
                    image: Some(rebuilt.image),
                    dst: Some(dst),
                })
            }
            Kind::Chunked { .. } | Kind::Tiny => self.op(false),
        }
    }
}

/// Send `bytes` over a fresh modelled channel and receive them again.
pub fn ship(bytes: Vec<u8>, corrupt: bool) -> Result<Vec<u8>, MigError> {
    let (near, far) = channel_pair(link());
    near.send(bytes)?;
    let mut got = far.recv()?;
    if corrupt {
        let mid = got.len() / 2;
        got[mid] ^= 0xFF;
    }
    Ok(got)
}

/// What `resume_from_image` does for a [`GenProgram`], stage by stage
/// under `tr`: unframe, prepare the destination, restore every live root
/// through a `Restorer`, walk the checksum.
pub fn resume_by_hand(
    tr: &mut Tracer,
    spec: &Arc<Spec>,
    arch: Architecture,
    image: &[u8],
) -> Result<(Results, Process, RestoreStats), MigError> {
    let s = tr.begin("core.unframe_image");
    let (header, exec_bytes, payload) = unframe_image(image)?;
    tr.end(s);

    let s = tr.begin("migrate.dst_setup");
    let exec = ExecutionState::decode(&exec_bytes)?;
    let mut program = GenProgram::new(spec.clone());
    let mut dst = Process::new(program.name(), arch);
    dst.space.reserve_heap_bytes(header.registered_bytes);
    program.setup(&mut dst)?;
    dst.msrlt.reset_stats();
    tr.end(s);

    let s = tr.begin("core.restore");
    dst.msrlt.reserve_heap_indices(exec.heap_high_water);
    let live = program.enter_main(&mut dst)?;
    let mut restorer = Restorer::new(&mut dst.space, &mut dst.msrlt, &payload);
    for addr in live {
        restorer.restore_variable(addr)?;
    }
    let stats = restorer.finish()?;
    tr.end(s);

    let s = tr.begin("migrate.verify");
    let results = program.results(&mut dst)?;
    tr.end(s);
    Ok((results, dst, stats))
}
