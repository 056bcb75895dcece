//! Quickstart: collect a pointer structure on a little-endian 32-bit
//! machine and restore it on a big-endian 64-bit machine.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use hpm::arch::Architecture;
use hpm::core::{Collector, Msrlt, Restorer};
use hpm::memory::AddressSpace;
use hpm::types::Field;

fn build_process(arch: Architecture) -> (AddressSpace, Msrlt, u64) {
    // The "program": struct node { double value; struct node *next; }
    // with a global list head. Both machines run the same program, so
    // both build identical type tables and globals.
    let mut space = AddressSpace::new(arch);
    let node = space.types_mut().declare_struct("node");
    let p_node = space.types_mut().pointer_to(node);
    let dbl = space.types_mut().double();
    space
        .types_mut()
        .define_struct(
            node,
            vec![Field::new("value", dbl), Field::new("next", p_node)],
        )
        .unwrap();
    let head = space.define_global("head", p_node, 1).unwrap();
    let mut msrlt = Msrlt::new();
    for info in space.block_infos() {
        msrlt.register(&info);
    }
    (space, msrlt, head)
}

fn main() {
    // --- source machine: DEC 5000/120 (little-endian, ILP32) ---
    let (mut src, mut src_lt, head) = build_process(Architecture::dec5000());
    let node = src.types().struct_by_name("node").unwrap();

    // Build head → 3.25 → 2.5 → 1.75 → NULL on the heap.
    let mut next = 0u64;
    for v in [1.75f64, 2.5, 3.25] {
        let n = src.malloc(node, 1).unwrap();
        src_lt.register(&src.info_at(n).unwrap());
        let value_addr = src.elem_addr(n, 0).unwrap();
        src.store_f64(value_addr, v).unwrap();
        let next_addr = src.elem_addr(n, 1).unwrap();
        src.store_ptr(next_addr, next).unwrap();
        next = n;
    }
    src.store_ptr(head, next).unwrap();

    // Collect: Save_variable(&head) walks the MSR graph.
    let mut collector = Collector::new(&mut src, &mut src_lt);
    collector.save_variable(head).unwrap();
    let (payload, stats) = collector.finish().unwrap();
    println!(
        "collected {} blocks, {} bytes (machine-independent)",
        stats.blocks_saved,
        payload.len()
    );

    // --- destination machine: x86-64 (little-endian, LP64) ---
    // Different pointer width, different struct layout — same program.
    let (mut dst, mut dst_lt, dhead) = build_process(Architecture::x86_64_sim());
    let mut restorer = Restorer::new(&mut dst, &mut dst_lt, &payload);
    restorer.restore_variable(dhead).unwrap();
    let rstats = restorer.finish().unwrap();
    println!(
        "restored {} blocks ({} allocated on the destination heap)",
        rstats.blocks_restored, rstats.blocks_allocated
    );

    // Walk the restored list.
    print!("restored list:");
    let mut cur = dst.load_ptr(dhead).unwrap();
    while cur != 0 {
        let value_addr = dst.elem_addr(cur, 0).unwrap();
        print!(" {}", dst.load_f64(value_addr).unwrap());
        let next_addr = dst.elem_addr(cur, 1).unwrap();
        cur = dst.load_ptr(next_addr).unwrap();
    }
    println!();
    println!(
        "source was {} / destination is {} — fully heterogeneous",
        Architecture::dec5000().name,
        Architecture::x86_64_sim().name
    );
}
