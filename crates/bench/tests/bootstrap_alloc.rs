//! `DexNetwork::bootstrap` keeps node identity once: the arena's id index
//! is sized for the n₀ nodes up front, Φ's vertex records carry no mirror
//! of the owner's id (8 bytes per vertex, not 16), and Φ keeps no
//! `NodeId → slot` table of its own. This test pins the footprint that
//! buys: bootstrapping a simplified n = 20k network (p = 80,021, so ≈ 4
//! vertices per node) allocates under 650 bytes per node, counting every
//! byte the allocator hands out (frees are not subtracted, so a table
//! grown by rehashing pays for every generation). It measures ≈ 598; with
//! the mirror, Φ's own id table and an arena index grown by rehashing it
//! was ≈ 714.
//!
//! It is the only test in this file: the counter is process-wide, and a
//! second test running beside it would count into the same window.

use dex::core::{DexConfig, DexNetwork};
use dex_bench::alloc::{allocated_bytes, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn bootstrap_allocates_under_650_bytes_per_node() {
    let n = 20_000;
    let before = allocated_bytes();
    let dex = DexNetwork::bootstrap(DexConfig::new(1).simplified(), n);
    let per_node = (allocated_bytes() - before) as f64 / n as f64;
    assert_eq!(dex.cycle.p(), 80_021);
    eprintln!("bootstrap allocated {per_node:.1} bytes per node");
    assert!(
        per_node < 650.0,
        "bootstrap allocated {per_node:.1} bytes per node"
    );
}
