//! `bench_heal --smoke` must be byte-identical across thread counts: the
//! churn trials fan out over the order-preserving `par_map` and nothing in
//! the smoke JSON depends on timing, so 1, 3 and 8 threads (what
//! `DEX_EXEC_THREADS` sets for the bin) must produce the same file to the
//! byte.
//!
//! The test installs the same counting allocator (`dex_bench::alloc`) the
//! `bench_heal` binary uses, so the allocation fields are exercised too
//! (they are measured in a single-threaded pass and must not vary with
//! the fan-out width).

use dex_bench::alloc::{allocated_bytes, CountingAlloc};
use dex_bench::heal::{run_heal_bench, HealBenchOptions};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn smoke_json(threads: usize) -> String {
    run_heal_bench(&HealBenchOptions {
        smoke: true,
        threads,
        seed: 0x4ea1_d5c0,
        trials: 2,
        alloc_bytes: Some(allocated_bytes),
    })
}

#[test]
fn smoke_output_is_byte_identical_across_thread_counts() {
    let one = smoke_json(1);
    assert!(one.contains("\"phi_kernel\""), "kernel section missing");
    assert!(one.contains("\"churn\""), "churn section missing");
    assert_eq!(
        one.matches("\"checksum\": \"0x").count(),
        2,
        "each smoke kernel row must carry its checksum"
    );
    assert!(
        !one.contains("ops_per_sec"),
        "smoke output must not contain timing fields"
    );
    for threads in [3, 8] {
        let other = smoke_json(threads);
        assert_eq!(
            one, other,
            "bench_heal --smoke output differs between 1 and {threads} threads"
        );
    }
}
