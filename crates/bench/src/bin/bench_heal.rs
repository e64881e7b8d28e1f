//! Healing-throughput benchmark: the slot-arena Φ's ops/s on the heal
//! access pattern, plus end-to-end insert/delete/batch churn on full DEX
//! networks at n ∈ {20k, 200k, 1M}. Emits `BENCH_heal.json`.
//!
//! A counting global allocator measures **bytes allocated per healing
//! operation** in the single-threaded measurement pass — steady-state
//! type-1 healing is expected to allocate nothing (all hot-path buffers
//! are pooled in `HealScratch` / `FloodScratch`).
//!
//! Determinism: everything in the JSON except the timing fields is
//! bit-identical for a given `--seed` regardless of the thread budget
//! (`DEX_EXEC_THREADS`); `--smoke` omits the timing fields so the whole
//! file is byte-identical (the CI smoke job and the `heal_determinism`
//! test rely on this).
//!
//! ```sh
//! cargo run --release -p dex-bench --bin bench_heal            # full, up to n≈1M
//! cargo run --release -p dex-bench --bin bench_heal -- --smoke # CI-sized
//! DEX_EXEC_THREADS=1 cargo run --release -p dex-bench --bin bench_heal
//! ```

use dex_bench::alloc::{allocated_bytes, CountingAlloc};
use dex_bench::heal::{run_heal_bench, HealBenchOptions};
use dex_bench::Args;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn main() {
    let args = Args::parse(&["--smoke", "--seed", "--trials"]);
    let defaults = HealBenchOptions::default();
    let json = run_heal_bench(&HealBenchOptions {
        smoke: args.smoke(),
        seed: args.get("--seed", defaults.seed),
        trials: args.get("--trials", defaults.trials),
        alloc_bytes: Some(allocated_bytes),
        ..defaults
    });
    std::fs::write("BENCH_heal.json", &json).expect("write BENCH_heal.json");
    println!("wrote BENCH_heal.json");
}
