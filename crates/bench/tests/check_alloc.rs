//! `invariants::check` verifies the contraction row by row, so its scratch
//! is O(max degree) plus the connectivity BFS's per-node arrays — not a
//! whole-network edge list. This test pins that: one check of a
//! bootstrapped n = 20k simplified network (p = 80,021) allocates under
//! 32 bytes per node. Two sorted edge lists of ≈ 1.5·p pairs each would
//! allocate ≈ 224 bytes per node; the BFS allocates ≈ 16.
//!
//! It is the only test in this file: the counter is process-wide, and a
//! second test running beside it would count into the same window.

use dex::core::{invariants, DexConfig, DexNetwork};
use dex_bench::alloc::{allocated_bytes, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn invariants_check_allocates_under_32_bytes_per_node() {
    let n = 20_000;
    let dex = DexNetwork::bootstrap(DexConfig::new(1).simplified(), n);
    assert_eq!(dex.cycle.p(), 80_021);
    let before = allocated_bytes();
    invariants::check(&dex).expect("a fresh bootstrap satisfies every invariant");
    let per_node = (allocated_bytes() - before) as f64 / n as f64;
    assert!(
        per_node < 32.0,
        "invariants::check allocated {per_node:.1} bytes per node"
    );
}
