//! Per-block content versioning and delta collection.
//!
//! Incremental (pre-copy) migration needs two things the full collector
//! does not provide: a way to tell *which* blocks changed since a
//! retained base image, and a wire encoding that ships only the change.
//!
//! **Digests.** [`block_digests`] walks the live MSRLT entries and
//! hashes each block's *canonical machine-independent encoding*: the
//! structural type fingerprint, the element count, every scalar in its
//! XDR form, and every pointer rewritten to `(group, index, leaf)`
//! logical form. Two processes holding the same logical state on
//! different architectures therefore produce identical digests — the
//! same property the migration image itself has. The pass is
//! order-independent (no DFS), so it rides the O(n) page-indexed MSRLT
//! path: one resolve per pointer, same as collection.
//!
//! **Dirty tracking.** [`BaseImageManifest`] retains the digest table of
//! a shipped image; [`diff_manifest`] classifies the current table
//! against it into dirty / fresh / tombstoned blocks ([`DirtySet`]),
//! which drives the pre-copy convergence decision.
//!
//! **Delta encoding.** [`collect_delta`] emits the changed content as a
//! dictionary-LZ token stream against the retained base image's bytes
//! (see [`hpm_xdr::compress_with_dict`]): unchanged regions collapse to
//! copy tokens, changed and fresh blocks ship as literals, and freed
//! blocks simply vanish (the tombstone list in the header is
//! diagnostic). The receiver reconstructs the new image *byte-exactly*
//! — verified by a content digest — and feeds it through the completely
//! ordinary restore path, so every invariant that holds for full images
//! holds for applied deltas too.

use crate::collect::TranslationMode;
use crate::fingerprint::{content_digest, type_fingerprint};
use crate::kernel::{for_each_run, Kernel};
use crate::msrlt::{LogicalId, Msrlt, MsrltEntry};
use crate::translate::{logical_pointer, read_ptr, span, PlanTable};
use crate::CoreError;
use hpm_memory::{AddressSpace, BlockSlot};
use hpm_types::plan::{PlanOp, SavePlan};
use hpm_xdr::delta::{frame_delta, unframe_delta, DeltaHeader};
use hpm_xdr::{compress_with_dict, decompress_with_dict, image_id_from_digest, XdrEncoder};

/// Digest of one live block's canonical machine-independent content.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockDigest {
    /// The block's logical identification.
    pub id: LogicalId,
    /// [`content_digest`] (XXH64) of the canonical encoding (fingerprint,
    /// count, XDR scalars, logical pointers) — architecture-independent.
    pub digest: u64,
    /// Registered size of the block on *this* machine (diagnostic;
    /// machine-specific, never part of any cross-machine digest).
    pub bytes: u64,
}

/// Compute the digest table for every live MSRLT entry, sorted by
/// logical id. Null pointers hash as a tag; live pointers hash as their
/// target's `(group, index, leaf)` — so a pointer retargeted to a block
/// with the same content still dirties its holder, exactly like the
/// collected stream would change.
pub fn block_digests(
    space: &mut AddressSpace,
    msrlt: &mut Msrlt,
) -> Result<Vec<BlockDigest>, CoreError> {
    // Snapshot the live entries first: digesting needs `&mut` access to
    // both structures for plan compilation and pointer lookup.
    let entries: Vec<(LogicalId, MsrltEntry)> = msrlt.live_entries().collect();
    let mut out = Vec::with_capacity(entries.len());
    // One scratch encoder, and one plan and one fingerprint per type,
    // serve every block.
    let mut enc = XdrEncoder::new();
    let mut plans = PlanTable::default();
    let mut fingerprints: Vec<Option<u64>> = Vec::new();
    for (id, e) in entries {
        let b = *space.slot_block(e.slot())?;
        let (ty, count) = (b.ty, b.count);
        let i = ty.0 as usize;
        if i >= fingerprints.len() {
            fingerprints.resize(i + 1, None);
        }
        let fingerprint =
            *fingerprints[i].get_or_insert_with(|| type_fingerprint(space.types(), ty));
        let plan = plans.get(space, ty)?;
        enc.clear();
        enc.put_u64(fingerprint);
        enc.put_u64(count);
        encode_canonical(space, msrlt, &mut enc, e.slot(), plan, count)?;
        out.push(BlockDigest {
            id,
            digest: content_digest(enc.as_bytes()),
            bytes: e.size,
        });
    }
    out.sort_by_key(|d| (d.id.group, d.id.index));
    Ok(out)
}

/// Append one block's canonical machine-independent content to `enc`.
fn encode_canonical(
    space: &mut AddressSpace,
    msrlt: &mut Msrlt,
    enc: &mut XdrEncoder,
    slot: BlockSlot,
    plan: &SavePlan,
    count: u64,
) -> Result<(), CoreError> {
    // Every op below indexes the block's bytes through its handle,
    // re-borrowed per op so pointer translation can compile the target
    // type's plan in between. The canonical form is the collector's
    // default encoding.
    let mode = TranslationMode::default();
    let run = |space: &AddressSpace, enc: &mut XdrEncoder, at: u64, kernel: Kernel, n: u64| {
        let src = span(space.slot_bytes(slot)?, slot, at, kernel.native_span(n))?;
        kernel.encode(space.arch(), src, n as usize, enc);
        Ok::<(), CoreError>(())
    };
    if !plan.has_pointers {
        return for_each_run(space.arch(), plan, count, mode, |offset, kernel, n| {
            run(space, enc, offset, kernel, n)
        });
    }
    for elem in 0..count {
        let elem_base = elem * plan.size;
        for op in &plan.ops {
            match *op {
                PlanOp::ScalarRun {
                    offset,
                    kind,
                    count: rc,
                    stride,
                } => {
                    let kernel = Kernel::select(space.arch(), kind, stride, mode);
                    run(space, enc, elem_base + offset, kernel, rc)?;
                }
                PlanOp::PointerSlot { offset, .. } => {
                    let bytes = space.slot_bytes(slot)?;
                    let ptr = read_ptr(space.arch(), bytes, slot, elem_base + offset)?;
                    if ptr == 0 {
                        enc.put_u32(0);
                    } else {
                        let (id, leaf_idx) = logical_pointer(space, msrlt, ptr)?;
                        enc.put_u32(1);
                        enc.put_u32(id.group);
                        enc.put_u32(id.index);
                        enc.put_u64(leaf_idx);
                    }
                }
            }
        }
    }
    Ok(())
}

/// The digest table of a shipped image, retained by the sender so later
/// rounds can diff against it. Immutable once built: the manifest digest
/// is computed at construction and stays true of the fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaseImageManifest {
    image_id: u64,
    digests: Vec<BlockDigest>,
    manifest_digest: u64,
}

impl BaseImageManifest {
    /// Build a manifest from the shipped image's
    /// [`image_id`](hpm_xdr::image_id) and its per-block digests,
    /// normalising digest order.
    pub fn new(image_id: u64, mut digests: Vec<BlockDigest>) -> Self {
        digests.sort_by_key(|d| (d.id.group, d.id.index));
        // One buffer through the kernel: faster than a `mix64` chain of
        // two dependent multiplies per block.
        let mut bytes = Vec::with_capacity(8 + 16 * digests.len());
        bytes.extend_from_slice(&image_id.to_be_bytes());
        for d in &digests {
            bytes.extend_from_slice(&d.id.group.to_be_bytes());
            bytes.extend_from_slice(&d.id.index.to_be_bytes());
            bytes.extend_from_slice(&d.digest.to_be_bytes());
        }
        BaseImageManifest {
            image_id,
            digests,
            manifest_digest: content_digest(&bytes),
        }
    }

    /// Digest of the image id and every `(id, digest)` pair, in order —
    /// what a delta header's `base_digest` must match before the
    /// receiver will apply it. Block sizes are machine-specific and
    /// deliberately excluded.
    pub fn manifest_digest(&self) -> u64 {
        self.manifest_digest
    }
}

/// Classification of the current digest table against a retained base.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DirtySet {
    /// Blocks present in both whose digest changed.
    pub dirty: Vec<LogicalId>,
    /// Blocks new since the base.
    pub fresh: Vec<LogicalId>,
    /// Blocks freed since the base (present only in the base).
    pub tombstones: Vec<LogicalId>,
    /// Blocks present in both with an unchanged digest.
    pub clean: u64,
    /// Total registered bytes of dirty + fresh blocks (current machine's
    /// sizes; diagnostic).
    pub dirty_bytes: u64,
}

impl DirtySet {
    /// Dirty + fresh block count (what the next delta must carry).
    pub fn changed(&self) -> u64 {
        (self.dirty.len() + self.fresh.len()) as u64
    }

    /// Fraction of current live blocks that changed since the base;
    /// `0.0` for an empty table. The pre-copy convergence rule freezes
    /// when this drops below the configured threshold.
    pub fn dirty_fraction(&self) -> f64 {
        let total = self.changed() + self.clean;
        if total == 0 {
            0.0
        } else {
            self.changed() as f64 / total as f64
        }
    }
}

/// Merge-diff the current digest table against the base manifest. Both
/// sides are sorted by logical id (enforced by [`block_digests`] and
/// [`BaseImageManifest::new`]).
pub fn diff_manifest(base: &BaseImageManifest, current: &[BlockDigest]) -> DirtySet {
    let mut set = DirtySet::default();
    let (mut i, mut j) = (0usize, 0usize);
    let key = |d: &BlockDigest| (d.id.group, d.id.index);
    while i < base.digests.len() && j < current.len() {
        let (b, c) = (&base.digests[i], &current[j]);
        match key(b).cmp(&key(c)) {
            std::cmp::Ordering::Equal => {
                if b.digest == c.digest {
                    set.clean += 1;
                } else {
                    set.dirty.push(c.id);
                    set.dirty_bytes += c.bytes;
                }
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                set.tombstones.push(b.id);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                set.fresh.push(c.id);
                set.dirty_bytes += c.bytes;
                j += 1;
            }
        }
    }
    for b in &base.digests[i..] {
        set.tombstones.push(b.id);
    }
    for c in &current[j..] {
        set.fresh.push(c.id);
        set.dirty_bytes += c.bytes;
    }
    set
}

/// A delta image ready to frame: header metadata, the dirty-set
/// classification it was built from, and the dict-LZ ops.
#[derive(Debug, Clone)]
pub struct DeltaImage {
    /// Wire header (see [`hpm_xdr::delta`]).
    pub header: DeltaHeader,
    /// The classification this delta encodes.
    pub dirty: DirtySet,
    /// Dict-LZ token stream against the base image bytes.
    pub ops: Vec<u8>,
}

impl DeltaImage {
    /// Frame for the wire.
    pub fn to_frame(&self) -> Vec<u8> {
        frame_delta(&self.header, &self.ops)
    }
}

/// Build the delta shipping `current_image` against the retained base.
/// Returns the delta plus the manifest the sender retains for the next
/// round (the receiver reconstructs the matching state from the frame).
pub fn collect_delta(
    base: &BaseImageManifest,
    base_image: &[u8],
    current_digests: Vec<BlockDigest>,
    current_image: &[u8],
    round: u32,
) -> (DeltaImage, BaseImageManifest) {
    // One pass over the image yields both its payload digest and its id.
    let payload_digest = content_digest(current_image);
    let next = BaseImageManifest::new(
        image_id_from_digest(payload_digest, current_image.len()),
        current_digests,
    );
    let dirty = diff_manifest(base, &next.digests);
    let ops = compress_with_dict(base_image, current_image);
    let header = DeltaHeader {
        base_image_id: base.image_id,
        base_digest: base.manifest_digest,
        manifest_digest: next.manifest_digest,
        full_fallback: false,
        round,
        raw_len: current_image.len() as u64,
        payload_digest,
        dirty_blocks: dirty.dirty.len() as u32,
        fresh_blocks: dirty.fresh.len() as u32,
        tombstones: dirty.tombstones.len() as u32,
    };
    (DeltaImage { header, dirty, ops }, next)
}

/// Frame a complete image as a `full_fallback` delta frame: the initial
/// pre-copy round, or the sender's response to a receiver that refused a
/// delta. The base fields carry the *installed* state's identity so the
/// receiver can retain it for subsequent rounds.
pub fn full_image_frame(image: &[u8], manifest: &BaseImageManifest, round: u32) -> Vec<u8> {
    let header = DeltaHeader {
        base_image_id: manifest.image_id,
        base_digest: manifest.manifest_digest,
        manifest_digest: manifest.manifest_digest,
        full_fallback: true,
        round,
        raw_len: image.len() as u64,
        payload_digest: content_digest(image),
        dirty_blocks: 0,
        fresh_blocks: manifest.digests.len() as u32,
        tombstones: 0,
    };
    frame_delta(&header, image)
}

/// What a delta receiver retains between rounds: the reconstructed
/// image bytes plus the identity a later delta's base fields must match.
#[derive(Debug, Clone)]
pub struct RetainedBase {
    /// [`image_id`](hpm_xdr::image_id) of the retained image bytes.
    pub image_id: u64,
    /// Manifest digest handed over in the installing frame's header.
    pub manifest_digest: u64,
    /// The retained image bytes (the next delta's dictionary).
    pub image: Vec<u8>,
}

/// Apply a delta frame against the retained base (if any), returning the
/// decoded header and the new retained state.
///
/// Refusals are loud and specific: a missing or mismatched base (wrong
/// image id, wrong manifest digest) and a reconstruction that fails its
/// payload digest all yield [`CoreError::DeltaBaseMismatch`] naming the
/// offending field — the sender's cue to fall back to a full image.
pub fn apply_delta(
    base: Option<&RetainedBase>,
    frame: &[u8],
) -> Result<(DeltaHeader, RetainedBase), CoreError> {
    let (header, ops) = unframe_delta(frame)?;
    let mismatch = |field, expected, found| CoreError::DeltaBaseMismatch {
        field,
        expected,
        found,
    };
    let image = if header.full_fallback {
        ops
    } else {
        let base = base.ok_or(mismatch("base_image_id", header.base_image_id, 0))?;
        if base.image_id != header.base_image_id {
            return Err(mismatch(
                "base_image_id",
                header.base_image_id,
                base.image_id,
            ));
        }
        if base.manifest_digest != header.base_digest {
            return Err(mismatch(
                "base_digest",
                header.base_digest,
                base.manifest_digest,
            ));
        }
        // `raw_len` is a claim read off the wire, not yet a size.
        let raw_len = usize::try_from(header.raw_len)
            .map_err(|_| mismatch("raw_len", header.raw_len, usize::MAX as u64))?;
        decompress_with_dict(&base.image, &ops, raw_len)?
    };
    if image.len() as u64 != header.raw_len {
        return Err(mismatch("raw_len", header.raw_len, image.len() as u64));
    }
    let digest = content_digest(&image);
    if digest != header.payload_digest {
        return Err(mismatch("payload_digest", header.payload_digest, digest));
    }
    Ok((
        header,
        RetainedBase {
            image_id: image_id_from_digest(digest, image.len()),
            manifest_digest: header.manifest_digest,
            image,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpm_arch::Architecture;
    use hpm_types::Field;
    use hpm_xdr::image_id;

    fn register(space: &AddressSpace, msrlt: &mut Msrlt, addr: u64) -> LogicalId {
        let info = space.info_at(addr).expect("block exists");
        msrlt.register(&info)
    }

    /// A tiny "program": a global int, a global double array, and a
    /// two-node linked list — identical logical state on any arch.
    fn build(arch: Architecture) -> (AddressSpace, Msrlt, u64, u64, u64) {
        let mut space = AddressSpace::new(arch);
        let mut msrlt = Msrlt::new();
        let int = space.types_mut().int();
        let dbl = space.types_mut().double();
        let arr = space.types_mut().array_of(dbl, 8);
        let node = space.types_mut().declare_struct("node");
        let pnode = space.types_mut().pointer_to(node);
        space
            .types_mut()
            .define_struct(node, vec![Field::new("v", int), Field::new("next", pnode)])
            .unwrap();
        let g = space.define_global("g", int, 1).unwrap();
        let a = space.define_global("a", arr, 1).unwrap();
        space.store_int(g, 41).unwrap();
        for k in 0..8 {
            let at = space.elem_addr(a, k).unwrap();
            space.store_f64(at, k as f64 * 0.5).unwrap();
        }
        let n1 = space.malloc(node, 1).unwrap();
        let n2 = space.malloc(node, 1).unwrap();
        let v1 = space.elem_addr(n1, 0).unwrap();
        let v2 = space.elem_addr(n2, 0).unwrap();
        space.store_int(v1, 1).unwrap();
        space.store_int(v2, 2).unwrap();
        let l1 = space.elem_addr(n1, 1).unwrap();
        space.store_ptr(l1, n2).unwrap();
        for addr in [g, a, n1, n2] {
            register(&space, &mut msrlt, addr);
        }
        (space, msrlt, g, a, n1)
    }

    #[test]
    fn digests_are_stable_and_change_with_content() {
        let (mut space, mut msrlt, g, a, _) = build(Architecture::dec5000());
        let d1 = block_digests(&mut space, &mut msrlt).unwrap();
        let d2 = block_digests(&mut space, &mut msrlt).unwrap();
        assert_eq!(d1, d2, "digesting must not perturb state");
        space.store_int(g, 42).unwrap();
        let d3 = block_digests(&mut space, &mut msrlt).unwrap();
        let changed: Vec<_> = d1
            .iter()
            .zip(&d3)
            .filter(|(x, y)| x.digest != y.digest)
            .collect();
        assert_eq!(changed.len(), 1, "only g's block changed");
        // Array change dirties exactly the array block.
        let at = space.elem_addr(a, 3).unwrap();
        space.store_f64(at, -9.25).unwrap();
        let d4 = block_digests(&mut space, &mut msrlt).unwrap();
        assert_eq!(
            d3.iter()
                .zip(&d4)
                .filter(|(x, y)| x.digest != y.digest)
                .count(),
            1
        );
    }

    #[test]
    fn digests_are_architecture_independent() {
        let mut tables = Vec::new();
        for arch in Architecture::presets() {
            let (mut space, mut msrlt, _, _, _) = build(arch);
            let t: Vec<(LogicalId, u64)> = block_digests(&mut space, &mut msrlt)
                .unwrap()
                .into_iter()
                .map(|d| (d.id, d.digest))
                .collect();
            tables.push(t);
        }
        for t in &tables[1..] {
            assert_eq!(t, &tables[0], "digest tables diverge across presets");
        }
    }

    #[test]
    fn pointer_retarget_dirties_the_holder() {
        let (mut space, mut msrlt, _, _, n1) = build(Architecture::sparc20());
        let base = block_digests(&mut space, &mut msrlt).unwrap();
        // Point n1.next at itself instead of n2: same pointee *content*
        // shape, different logical target — must dirty n1's block.
        let l1 = space.elem_addr(n1, 1).unwrap();
        space.store_ptr(l1, n1).unwrap();
        let cur = block_digests(&mut space, &mut msrlt).unwrap();
        let m = BaseImageManifest::new(1, base);
        let set = diff_manifest(&m, &cur);
        assert_eq!(set.dirty.len(), 1);
        assert!(set.fresh.is_empty());
        assert!(set.tombstones.is_empty());
    }

    #[test]
    fn diff_classifies_fresh_and_tombstones() {
        let (mut space, mut msrlt, _, _, _) = build(Architecture::ultra5());
        let base = block_digests(&mut space, &mut msrlt).unwrap();
        let m = BaseImageManifest::new(7, base.clone());
        // Free one heap block, allocate another.
        let int = space.types_mut().int();
        let freed = base
            .iter()
            .find(|d| d.id.group == 1)
            .expect("heap block")
            .id;
        let freed_addr = msrlt.entry(freed).unwrap().addr();
        assert_eq!(msrlt.unregister(&space, freed_addr), Some(freed));
        space.free(freed_addr).unwrap();
        let fresh = space.malloc(int, 4).unwrap();
        register(&space, &mut msrlt, fresh);
        let cur = block_digests(&mut space, &mut msrlt).unwrap();
        let set = diff_manifest(&m, &cur);
        assert_eq!(set.tombstones, vec![freed]);
        assert_eq!(set.fresh.len(), 1);
        assert_eq!(set.changed(), set.dirty.len() as u64 + 1);
    }

    #[test]
    fn delta_roundtrip_reconstructs_byte_exact() {
        let base_img: Vec<u8> = (0..50_000u32)
            .flat_map(|i| (i % 256).to_be_bytes())
            .collect();
        let mut cur_img = base_img.clone();
        cur_img[100] ^= 0xFF;
        cur_img.extend_from_slice(b"NEW-TAIL");
        let manifest = BaseImageManifest::new(image_id(&base_img), Vec::new());
        let (delta, next) = collect_delta(&manifest, &base_img, Vec::new(), &cur_img, 1);
        assert!(delta.ops.len() < cur_img.len() / 10, "delta barely shrank");
        let retained = RetainedBase {
            image_id: manifest.image_id,
            manifest_digest: manifest.manifest_digest(),
            image: base_img.clone(),
        };
        let (h, new_base) = apply_delta(Some(&retained), &delta.to_frame()).unwrap();
        assert_eq!(new_base.image, cur_img);
        assert_eq!(h.round, 1);
        assert_eq!(new_base.manifest_digest, next.manifest_digest());
        assert_eq!(new_base.image_id, next.image_id);
        assert_eq!(next.image_id, image_id(&cur_img), "derived id diverges");
    }

    #[test]
    fn mismatched_base_refuses_loudly() {
        // Pseudo-random (incompressible) base so the delta genuinely
        // copies from the dictionary — a corrupt base must then produce
        // wrong bytes, not a lucky literal-only reconstruction.
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let base_img: Vec<u8> = (0..1000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        let mut cur_img = base_img.clone();
        cur_img[500] ^= 0xFF;
        let manifest = BaseImageManifest::new(image_id(&base_img), Vec::new());
        let (delta, _) = collect_delta(&manifest, &base_img, Vec::new(), &cur_img, 2);
        let frame = delta.to_frame();
        // No base at all.
        assert!(matches!(
            apply_delta(None, &frame),
            Err(CoreError::DeltaBaseMismatch {
                field: "base_image_id",
                ..
            })
        ));
        // Wrong image id.
        let wrong = RetainedBase {
            image_id: manifest.image_id ^ 1,
            manifest_digest: manifest.manifest_digest(),
            image: base_img.clone(),
        };
        assert!(matches!(
            apply_delta(Some(&wrong), &frame),
            Err(CoreError::DeltaBaseMismatch {
                field: "base_image_id",
                ..
            })
        ));
        // Wrong manifest digest.
        let tampered = RetainedBase {
            image_id: manifest.image_id,
            manifest_digest: manifest.manifest_digest() ^ 1,
            image: base_img.clone(),
        };
        assert!(matches!(
            apply_delta(Some(&tampered), &frame),
            Err(CoreError::DeltaBaseMismatch {
                field: "base_digest",
                ..
            })
        ));
        // Right identity, wrong bytes: the payload digest catches it.
        let mut bad_bytes = base_img.clone();
        bad_bytes[0] ^= 0xFF;
        let lying = RetainedBase {
            image_id: manifest.image_id,
            manifest_digest: manifest.manifest_digest(),
            image: bad_bytes,
        };
        assert!(apply_delta(Some(&lying), &frame).is_err());
    }

    #[test]
    fn full_fallback_frame_installs_without_a_base() {
        let img = vec![7u8; 5000];
        let manifest = BaseImageManifest::new(image_id(&img), Vec::new());
        let frame = full_image_frame(&img, &manifest, 0);
        let (h, retained) = apply_delta(None, &frame).unwrap();
        assert!(h.full_fallback);
        assert_eq!(retained.image, img);
        assert_eq!(retained.image_id, manifest.image_id);
        assert_eq!(retained.manifest_digest, manifest.manifest_digest());
    }
}
