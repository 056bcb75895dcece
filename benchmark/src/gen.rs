//! The seeded workload generator and the program that runs what it makes.
//!
//! A [`Spec`] is plain data derived from `--seed`: numeric arrays, a
//! pointer graph, and the mutations each loop iteration applies. The
//! program under test, [`GenProgram`], sees only the `Spec`. It builds the
//! data in its simulated address space and then loops; the poll-point is
//! the last statement of the loop body and the benchmark's trigger fires on
//! the final iteration, so a resumed process has nothing left to run and
//! `results()` is an explicit checksum walk that can be timed on its own.
//!
//! `struct gnode { int key; double w; gnode *next, *left, *right; int *tag; }`
//! `next` chains every node into one spine (reachability), `left`/`right`
//! are seeded cross-links (cycles, shared substructure), `tag` is an
//! interior pointer into one shared `int[TAGS]`. Every integer the
//! generator emits is an `int`, so LP64 → ILP32 narrowing loses nothing.

use crate::adapter::{
    AddressSpace, Architecture, CScalar, Endianness, Field, Flow, MigCtx, MigError,
    MigratableProgram, Process, Results, ScalarValue, TypeId,
};
use std::sync::Arc;

/// Length of the shared tag array every node points into.
pub const TAGS: usize = 1024;
/// A null link in a [`Node`].
pub const NIL: u32 = u32::MAX;
/// The program's one poll-point.
const PP_LOOP: u32 = 1;

/// splitmix64: small, seedable, good enough to decorrelate workloads.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)` with a full 53-bit mantissa.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One generated `gnode`; `left`/`right` index the spine, or [`NIL`].
#[derive(Debug, Clone)]
pub struct Node {
    pub key: i32,
    pub w: f64,
    pub left: u32,
    pub right: u32,
    pub tag: u32,
}

/// A generated pointer graph.
#[derive(Debug)]
pub struct Graph {
    /// Spine order: node `i`'s `next` is node `i + 1`.
    pub nodes: Vec<Node>,
    /// The order nodes are `malloc`ed in, so the spine jumps around the
    /// heap the way a long-lived list does.
    pub alloc_order: Vec<u32>,
    pub tags: Vec<i32>,
    /// A second list hanging off the `extras` global, whose front is freed
    /// and re-grown by each [`Step`]; its links point into the spine.
    pub extras: Vec<Node>,
}

/// What one loop iteration does before its poll-point.
#[derive(Debug)]
pub struct Step {
    /// `(spine position, new key, new w, new tag index)`.
    pub rewrite: Vec<(u32, i32, f64, u32)>,
    /// Frees this many nodes from the front of `extras`, then pushes these.
    pub churn: Vec<Node>,
}

/// Everything the program is given.
#[derive(Debug)]
pub struct Spec {
    pub doubles: Vec<Vec<f64>>,
    pub ints: Vec<Vec<i32>>,
    pub graph: Option<Graph>,
    pub steps: Vec<Step>,
}

fn node(rng: &mut Rng, spine: u64) -> Node {
    let link = |rng: &mut Rng| {
        if rng.below(8) == 0 {
            NIL
        } else {
            rng.below(spine) as u32
        }
    };
    Node {
        key: rng.next_u64() as i32,
        w: rng.unit(),
        left: link(rng),
        right: link(rng),
        tag: rng.below(TAGS as u64) as u32,
    }
}

/// `count` distinct values from `0..n`, by a partial Fisher–Yates shuffle.
fn distinct(rng: &mut Rng, n: usize, count: usize) -> Vec<u32> {
    let mut all: Vec<u32> = (0..n as u32).collect();
    for i in 0..count.min(n) {
        let j = i + rng.below((n - i) as u64) as usize;
        all.swap(i, j);
    }
    all.truncate(count.min(n));
    all
}

impl Graph {
    /// About `nodes` spine nodes (the exact count is seeded, so a different
    /// seed collects a different number of blocks) and `extras` list nodes.
    fn generate(rng: &mut Rng, nodes: usize, extras: usize) -> Graph {
        let n = nodes + rng.below(nodes as u64 / 500 + 8) as usize;
        Graph {
            nodes: (0..n).map(|_| node(rng, n as u64)).collect(),
            alloc_order: distinct(rng, n, n),
            tags: (0..TAGS).map(|_| rng.next_u64() as i32).collect(),
            extras: (0..extras).map(|_| node(rng, n as u64)).collect(),
        }
    }
}

impl Spec {
    /// `bulk_numeric`: few blocks, each large, incompressible.
    pub fn bulk_numeric(seed: u64, scale: usize) -> Spec {
        let mut rng = Rng::new(seed);
        let n = 1_000_000 / scale;
        let mut doubles = || (0..n).map(|_| rng.unit() * 2.0 - 1.0).collect::<Vec<f64>>();
        let doubles = vec![doubles(), doubles()];
        Spec {
            doubles,
            ints: vec![(0..n).map(|_| rng.next_u64() as i32).collect()],
            graph: None,
            steps: Vec::new(),
        }
    }

    /// `pointer_graph`: many small blocks, every one behind a pointer.
    pub fn pointer_graph(seed: u64, scale: usize) -> Spec {
        let mut rng = Rng::new(seed);
        Spec {
            doubles: Vec::new(),
            ints: Vec::new(),
            graph: Some(Graph::generate(&mut rng, 60_000 / scale, 0)),
            steps: Vec::new(),
        }
    }

    /// `chunked_wire`: a smooth array and a low-entropy one (both
    /// compressible, differently) beside a graph (hardly compressible).
    pub fn chunked_wire(seed: u64, scale: usize) -> Spec {
        let mut rng = Rng::new(seed);
        let n = 500_000 / scale;
        let phase = rng.unit();
        Spec {
            doubles: vec![(0..n).map(|i| (i as f64 * 1e-3 + phase).sin()).collect()],
            ints: vec![(0..n).map(|_| rng.below(16) as i32).collect()],
            graph: Some(Graph::generate(&mut rng, 10_000 / scale, 0)),
            steps: Vec::new(),
        }
    }

    /// `precopy_freeze`: a graph and two mutating iterations. The base
    /// image freezes after the first, the final delta after the second.
    /// Each rewrites exactly 8 % of the spine (an exact count keeps the
    /// delta's size steady across seeds) and churns 1 % through `extras`.
    pub fn precopy_freeze(seed: u64, scale: usize) -> Spec {
        let mut rng = Rng::new(seed);
        let base = 20_000 / scale;
        let graph = Graph::generate(&mut rng, base, base / 20);
        let n = graph.nodes.len();
        let steps = (0..2)
            .map(|_| Step {
                rewrite: distinct(&mut rng, n, n * 8 / 100)
                    .into_iter()
                    .map(|pos| {
                        let tag = rng.below(TAGS as u64) as u32;
                        (pos, rng.next_u64() as i32, rng.unit(), tag)
                    })
                    .collect(),
                churn: (0..base / 100).map(|_| node(&mut rng, n as u64)).collect(),
            })
            .collect();
        Spec {
            doubles: Vec::new(),
            ints: Vec::new(),
            graph: Some(graph),
            steps,
        }
    }

    fn iterations(&self) -> u64 {
        self.steps.len().max(1) as u64
    }
}

/// The type ids of everything the program declares.
#[derive(Debug, Clone, Copy)]
pub struct Types {
    pub int: TypeId,
    pub double: TypeId,
    pub gnode: TypeId,
    p_gnode: TypeId,
    p_int: TypeId,
    p_double: TypeId,
}

/// Declare `gnode` and the scalar and pointer types around it.
pub fn declare_types(space: &mut AddressSpace) -> Result<Types, MigError> {
    let t = space.types_mut();
    let int = t.int();
    let double = t.double();
    let gnode = t.declare_struct("gnode");
    let p_gnode = t.pointer_to(gnode);
    let p_int = t.pointer_to(int);
    let p_double = t.pointer_to(double);
    t.define_struct(
        gnode,
        vec![
            Field::new("key", int),
            Field::new("w", double),
            Field::new("next", p_gnode),
            Field::new("left", p_gnode),
            Field::new("right", p_gnode),
            Field::new("tag", p_int),
        ],
    )
    .map_err(|e| MigError::Protocol(e.to_string()))?;
    Ok(Types {
        int,
        double,
        gnode,
        p_gnode,
        p_int,
        p_double,
    })
}

const KEY: usize = 0;
const W: usize = 1;
const NEXT: usize = 2;
const LEFT: usize = 3;
const RIGHT: usize = 4;
const TAG: usize = 5;
const FIELD_KINDS: [CScalar; 6] = [
    CScalar::Int,
    CScalar::Double,
    CScalar::Ptr,
    CScalar::Ptr,
    CScalar::Ptr,
    CScalar::Ptr,
];

/// `gnode`'s layout on one machine, and scalar conversion through it.
struct NodeCodec {
    arch: Architecture,
    size: usize,
    offset: [usize; 6],
    scratch: Vec<u8>,
}

impl NodeCodec {
    fn new(space: &mut AddressSpace, gnode: TypeId) -> Result<Self, MigError> {
        let mut offset = [0; 6];
        for (field, slot) in offset.iter_mut().enumerate() {
            *slot = space.field_offset(gnode, field)? as usize;
        }
        Ok(NodeCodec {
            arch: space.arch().clone(),
            size: space.layout_of(gnode)?.size as usize,
            offset,
            scratch: Vec::with_capacity(8),
        })
    }

    fn width(&self, field: usize) -> usize {
        self.arch.scalar_size(FIELD_KINDS[field]) as usize
    }

    fn put(&mut self, node: &mut [u8], field: usize, value: ScalarValue) {
        self.scratch.clear();
        self.arch
            .encode_scalar(FIELD_KINDS[field], value, &mut self.scratch);
        let at = self.offset[field];
        node[at..at + self.scratch.len()].copy_from_slice(&self.scratch);
    }

    fn get(&self, node: &[u8], field: usize) -> ScalarValue {
        let at = self.offset[field];
        self.arch
            .decode_scalar(FIELD_KINDS[field], &node[at..at + self.width(field)])
    }

    /// The native bytes of one node.
    fn encode(&mut self, n: &Node, next: u64, spine: &[u64], tags: u64) -> Vec<u8> {
        let link = |i: u32| if i == NIL { 0 } else { spine[i as usize] };
        let int = self.arch.scalar_size(CScalar::Int);
        let mut bytes = vec![0u8; self.size];
        self.put(&mut bytes, KEY, ScalarValue::Int(n.key as i64));
        self.put(&mut bytes, W, ScalarValue::F64(n.w));
        self.put(&mut bytes, NEXT, ScalarValue::Ptr(next));
        self.put(&mut bytes, LEFT, ScalarValue::Ptr(link(n.left)));
        self.put(&mut bytes, RIGHT, ScalarValue::Ptr(link(n.right)));
        self.put(&mut bytes, TAG, ScalarValue::Ptr(tags + n.tag as u64 * int));
        bytes
    }
}

/// Fill the block at `addr` with scalars of `kind`, each given as its bit
/// pattern (integers sign-extended), a slice at a time so the staging
/// buffer stays small. Byte order and width are the machine's; this is
/// `Architecture::encode_scalar` without the per-value dispatch, because
/// `chunked_wire` builds its source inside the timed operation.
fn fill(
    space: &mut AddressSpace,
    addr: u64,
    kind: CScalar,
    bits: impl ExactSizeIterator<Item = u64>,
) -> Result<(), MigError> {
    const SLICE: usize = 8192;
    let width = space.arch().scalar_size(kind) as usize;
    let big = space.arch().endianness == Endianness::Big;
    let mut staged = Vec::with_capacity(SLICE * width);
    let mut at = addr;
    let total = bits.len();
    for (i, v) in bits.enumerate() {
        if big {
            staged.extend_from_slice(&v.to_be_bytes()[8 - width..]);
        } else {
            staged.extend_from_slice(&v.to_le_bytes()[..width]);
        }
        if staged.len() == SLICE * width || i + 1 == total {
            space.write_bytes(at, &staged)?;
            at += staged.len() as u64;
            staged.clear();
        }
    }
    Ok(())
}

fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01B3)
}

const HASH_SEED: u64 = 0xCBF2_9CE4_8422_2325;

/// Checksum of `count` scalars of `kind` starting at `addr`.
fn checksum(space: &AddressSpace, addr: u64, kind: CScalar, count: usize) -> Result<u64, MigError> {
    let arch = space.arch();
    let width = arch.scalar_size(kind);
    let bytes = space.read_bytes(addr, width * count as u64)?;
    Ok(bytes
        .chunks_exact(width as usize)
        .fold(HASH_SEED, |h, raw| match arch.decode_scalar(kind, raw) {
            ScalarValue::F64(v) => mix(h, v.to_bits()),
            other => mix(h, other.as_i64() as u64),
        }))
}

/// Addresses of the program's globals on one machine.
#[derive(Debug, Clone)]
struct Globals {
    head: u64,
    tags: u64,
    extras: u64,
    /// One pointer global per array: the doubles, then the ints.
    arrays: Vec<u64>,
    types: Types,
}

/// The generated program in migratable format.
#[derive(Debug, Clone)]
pub struct GenProgram {
    spec: Arc<Spec>,
    globals: Option<Globals>,
}

impl GenProgram {
    pub fn new(spec: Arc<Spec>) -> Self {
        GenProgram {
            spec,
            globals: None,
        }
    }

    fn globals(&self) -> Result<&Globals, MigError> {
        self.globals
            .as_ref()
            .ok_or_else(|| MigError::Protocol("gen: setup has not run".into()))
    }

    /// The live set at the poll-point, in save order.
    fn live(&self, i: u64) -> Result<Vec<u64>, MigError> {
        let g = self.globals()?;
        let mut live = vec![i, g.head, g.tags, g.extras];
        live.extend_from_slice(&g.arrays);
        Ok(live)
    }

    /// Push `main`'s frame and declare its locals without a `MigCtx`, for
    /// the benchmark's hand-staged restore; returns the live set.
    pub fn enter_main(&self, proc: &mut Process) -> Result<Vec<u64>, MigError> {
        let int = self.globals()?.types.int;
        let frame = proc.enter_function("main");
        let i = proc.declare_local(frame, "i", int, 1)?;
        self.live(i)
    }

    /// Source side, first entry: materialise the spec in simulated memory.
    fn build(&self, proc: &mut Process) -> Result<(), MigError> {
        let g = self.globals()?.clone();
        let mut slots = g.arrays.iter();
        for v in &self.spec.doubles {
            let block = proc.malloc(g.types.double, v.len() as u64)?;
            let values = v.iter().map(|&x| x.to_bits());
            fill(&mut proc.space, block, CScalar::Double, values)?;
            proc.space
                .store_ptr(*slots.next().expect("one global per array"), block)?;
        }
        for v in &self.spec.ints {
            let block = proc.malloc(g.types.int, v.len() as u64)?;
            let values = v.iter().map(|&x| x as i64 as u64);
            fill(&mut proc.space, block, CScalar::Int, values)?;
            proc.space
                .store_ptr(*slots.next().expect("one global per array"), block)?;
        }
        let Some(graph) = &self.spec.graph else {
            return Ok(());
        };
        let mut codec = NodeCodec::new(&mut proc.space, g.types.gnode)?;
        let tags = proc.malloc(g.types.int, TAGS as u64)?;
        fill(
            &mut proc.space,
            tags,
            CScalar::Int,
            graph.tags.iter().map(|&x| x as i64 as u64),
        )?;
        proc.space.store_ptr(g.tags, tags)?;
        let mut spine = vec![0u64; graph.nodes.len()];
        for &i in &graph.alloc_order {
            spine[i as usize] = proc.malloc(g.types.gnode, 1)?;
        }
        for (i, n) in graph.nodes.iter().enumerate() {
            let next = spine.get(i + 1).copied().unwrap_or(0);
            let bytes = codec.encode(n, next, &spine, tags);
            proc.space.write_bytes(spine[i], &bytes)?;
        }
        proc.space.store_ptr(g.head, spine[0])?;
        self.push_extras(proc, &mut codec, &graph.extras, &spine, tags)
    }

    /// Allocate `nodes` and push each on the front of the `extras` list.
    fn push_extras(
        &self,
        proc: &mut Process,
        codec: &mut NodeCodec,
        nodes: &[Node],
        spine: &[u64],
        tags: u64,
    ) -> Result<(), MigError> {
        let g = self.globals()?;
        let (extras, gnode) = (g.extras, g.types.gnode);
        let mut front = proc.space.load_ptr(extras)?;
        for n in nodes {
            let addr = proc.malloc(gnode, 1)?;
            let bytes = codec.encode(n, front, spine, tags);
            proc.space.write_bytes(addr, &bytes)?;
            front = addr;
        }
        proc.space.store_ptr(extras, front)?;
        Ok(())
    }

    /// The address of every spine node, by walking `next` from `head`.
    fn walk_spine(&self, proc: &mut Process, codec: &NodeCodec) -> Result<Vec<u64>, MigError> {
        let mut spine = Vec::new();
        let mut cur = proc.space.load_ptr(self.globals()?.head)?;
        while cur != 0 {
            spine.push(cur);
            let node = proc.space.read_bytes(cur, codec.size as u64)?;
            cur = codec.get(node, NEXT).as_ptr();
        }
        Ok(spine)
    }

    /// One loop iteration's mutation: rewrite, free, allocate.
    fn step(&self, proc: &mut Process, step: &Step) -> Result<(), MigError> {
        let g = self.globals()?.clone();
        let mut codec = NodeCodec::new(&mut proc.space, g.types.gnode)?;
        let spine = self.walk_spine(proc, &codec)?;
        let tags = proc.space.load_ptr(g.tags)?;
        let int = codec.width(KEY) as u64;
        for &(pos, key, w, tag) in &step.rewrite {
            let addr = spine[pos as usize];
            let mut node = proc.space.read_bytes(addr, codec.size as u64)?.to_vec();
            codec.put(&mut node, KEY, ScalarValue::Int(key as i64));
            codec.put(&mut node, W, ScalarValue::F64(w));
            codec.put(&mut node, TAG, ScalarValue::Ptr(tags + tag as u64 * int));
            proc.space.write_bytes(addr, &node)?;
        }
        for _ in &step.churn {
            let front = proc.space.load_ptr(g.extras)?;
            if front == 0 {
                break;
            }
            let node = proc.space.read_bytes(front, codec.size as u64)?;
            let next = codec.get(node, NEXT).as_ptr();
            proc.space.store_ptr(g.extras, next)?;
            proc.free(front)?;
        }
        self.push_extras(proc, &mut codec, &step.churn, &spine, tags)
    }

    /// Checksum one `next`-linked list: per node its key, its weight, the
    /// keys its links reach and the tag it points at, so a pointer
    /// restored to the wrong block changes the answer.
    fn list_checksum(
        &self,
        proc: &mut Process,
        codec: &NodeCodec,
        head: u64,
        tags: (u64, &[u8]),
    ) -> Result<(u64, u64), MigError> {
        let space = &proc.space;
        let int = codec.width(KEY);
        let key_of = |ptr: u64| -> Result<u64, MigError> {
            if ptr == 0 {
                return Ok(u64::MAX);
            }
            let raw = space.read_bytes(ptr + codec.offset[KEY] as u64, int as u64)?;
            Ok(codec.arch.decode_scalar(CScalar::Int, raw).as_i64() as u64)
        };
        let (mut h, mut count, mut cur) = (HASH_SEED, 0u64, head);
        while cur != 0 {
            let node = space.read_bytes(cur, codec.size as u64)?;
            h = mix(h, codec.get(node, KEY).as_i64() as u64);
            h = mix(h, codec.get(node, W).as_f64().to_bits());
            h = mix(h, key_of(codec.get(node, LEFT).as_ptr())?);
            h = mix(h, key_of(codec.get(node, RIGHT).as_ptr())?);
            let tag = codec.get(node, TAG).as_ptr().wrapping_sub(tags.0) as usize;
            let raw = tags
                .1
                .get(tag..)
                .and_then(|t| t.get(..int))
                .ok_or_else(|| {
                    MigError::Protocol(format!(
                        "gen: tag pointer outside the tag array at {cur:#x}"
                    ))
                })?;
            h = mix(
                h,
                codec.arch.decode_scalar(CScalar::Int, raw).as_i64() as u64,
            );
            count += 1;
            cur = codec.get(node, NEXT).as_ptr();
        }
        Ok((count, h))
    }
}

impl MigratableProgram for GenProgram {
    fn name(&self) -> &'static str {
        "hpm-gen"
    }

    fn setup(&mut self, proc: &mut Process) -> Result<(), MigError> {
        let types = declare_types(&mut proc.space)?;
        let head = proc.define_global("head", types.p_gnode, 1)?;
        let tags = proc.define_global("tags", types.p_int, 1)?;
        let extras = proc.define_global("extras", types.p_gnode, 1)?;
        let mut arrays = Vec::new();
        for k in 0..self.spec.doubles.len() {
            arrays.push(proc.define_global(&format!("d{k}"), types.p_double, 1)?);
        }
        for k in 0..self.spec.ints.len() {
            arrays.push(proc.define_global(&format!("i{k}"), types.p_int, 1)?);
        }
        self.globals = Some(Globals {
            head,
            tags,
            extras,
            arrays,
            types,
        });
        Ok(())
    }

    fn run(&mut self, ctx: &mut MigCtx<'_>) -> Result<Flow, MigError> {
        let int = self.globals()?.types.int;
        let main = ctx.enter("main")?;
        let i = ctx.local(main, "i", int, 1)?;
        let live = self.live(i)?;

        let mut iv = if let Some(PP_LOOP) = ctx.resume_point() {
            ctx.restore_frame(&live)?;
            ctx.proc().space.load_int(i)? as u64
        } else {
            self.build(ctx.proc())?;
            0
        };

        while iv < self.spec.iterations() {
            if let Some(step) = self.spec.steps.get(iv as usize) {
                self.step(ctx.proc(), step)?;
            }
            iv += 1;
            ctx.proc().space.store_int(i, iv as i64)?;
            if ctx.poll() {
                ctx.save_frame(PP_LOOP, &live)?;
                return Ok(Flow::Migrate);
            }
        }
        ctx.leave(main)?;
        Ok(Flow::Done)
    }

    fn results(&self, proc: &mut Process) -> Result<Results, MigError> {
        let g = self.globals()?.clone();
        let mut out = Vec::new();
        let lens = self
            .spec
            .doubles
            .iter()
            .map(|v| (CScalar::Double, v.len()))
            .chain(self.spec.ints.iter().map(|v| (CScalar::Int, v.len())));
        for (k, (kind, len)) in lens.enumerate() {
            let block = proc.space.load_ptr(g.arrays[k])?;
            let h = checksum(&proc.space, block, kind, len)?;
            out.push((format!("array{k}"), format!("{h:#018x}")));
        }
        if self.spec.graph.is_some() {
            let codec = NodeCodec::new(&mut proc.space, g.types.gnode)?;
            let tags = proc.space.load_ptr(g.tags)?;
            let tag_bytes = proc
                .space
                .read_bytes(tags, (TAGS * codec.width(KEY)) as u64)?
                .to_vec();
            for (name, global) in [("spine", g.head), ("extras", g.extras)] {
                let head = proc.space.load_ptr(global)?;
                let (count, h) = self.list_checksum(proc, &codec, head, (tags, &tag_bytes))?;
                out.push((format!("{name}_nodes"), count.to_string()));
                out.push((format!("{name}_hash"), format!("{h:#018x}")));
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_spec_other_seed_other_graph() {
        let a = Spec::pointer_graph(7, 50);
        let b = Spec::pointer_graph(7, 50);
        let c = Spec::pointer_graph(8, 50);
        let keys = |s: &Spec| -> Vec<i32> {
            s.graph
                .as_ref()
                .unwrap()
                .nodes
                .iter()
                .map(|n| n.key)
                .collect()
        };
        assert_eq!(keys(&a), keys(&b));
        assert_ne!(keys(&a), keys(&c));
    }

    #[test]
    fn rewrite_positions_are_distinct_and_exact() {
        let s = Spec::precopy_freeze(3, 50);
        let n = s.graph.as_ref().unwrap().nodes.len();
        for step in &s.steps {
            let mut pos: Vec<u32> = step.rewrite.iter().map(|r| r.0).collect();
            assert_eq!(pos.len(), n * 8 / 100);
            pos.sort_unstable();
            pos.dedup();
            assert_eq!(pos.len(), n * 8 / 100);
        }
    }
}
