//! `invariants::check` verifies a staggered type-2 operation row by row
//! too: each node's row is its old remnant plus the overlay of staged
//! vertices and intermediate edges, so the check needs no whole-network
//! edge list in either mode. This test pins that on a mid-deflation
//! network: `DexConfig::new(1).staggered()` bootstrapped at n0 = 2,000,
//! then random deletions until a deflation is in flight (n ≈ 477,
//! p = 8,009). One check allocates under 48 bytes per live node; the two
//! sorted edge lists of the old overlay check allocated ≈ 1,600.
//!
//! It is the only test in this file: the counter is process-wide, and a
//! second test running beside it would count into the same window.

use dex::core::{invariants, DexConfig, DexNetwork};
use dex::sim::rng::splitmix64;
use dex_bench::alloc::{allocated_bytes, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn staggered_invariants_check_allocates_under_48_bytes_per_node() {
    let mut dex = DexNetwork::bootstrap(DexConfig::new(1).staggered(), 2_000);
    let mut ids = dex.node_ids();
    let mut state = 1u64;
    while !dex.type2_in_progress() {
        state = splitmix64(state);
        dex.delete(ids.swap_remove((state % ids.len() as u64) as usize));
    }
    assert_eq!(dex.cycle.p(), 8_009);
    let n = dex.n();
    let before = allocated_bytes();
    invariants::check(&dex).expect("a mid-deflation network satisfies every invariant");
    let per_node = (allocated_bytes() - before) as f64 / n as f64;
    assert!(
        per_node < 48.0,
        "invariants::check allocated {per_node:.1} bytes per node (n = {n})"
    );
}
