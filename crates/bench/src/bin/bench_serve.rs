//! Sharded open-loop DHT serving benchmark: capacity calibration plus a
//! latency-vs-offered-load sweep over the `dex::workload::serve` harness
//! at n≈1M aggregate (4 shards × 250k). Emits `BENCH_serve.json`. See
//! `dex_bench::serve` for what is measured and the determinism contract.
//!
//! ```sh
//! cargo run --release -p dex-bench --bin bench_serve            # full, n≈1M
//! cargo run --release -p dex-bench --bin bench_serve -- --smoke # CI-sized
//! DEX_EXEC_THREADS=8 cargo run --release -p dex-bench --bin bench_serve -- --smoke
//! ```
//!
//! `--smoke` output is byte-identical for any `DEX_EXEC_THREADS` value —
//! CI runs 1/3/8 and diffs the files. `--shards` (default 4) and
//! `--queue-cap` (default 4096) size the harness and are recorded in the
//! config header.

use dex_bench::serve::{run_serve_bench, ServeBenchOptions};
use dex_bench::Args;

fn main() {
    let args = Args::parse(&["--smoke", "--seed", "--shards", "--queue-cap", "--out"]);
    let defaults = ServeBenchOptions::default();
    let opts = ServeBenchOptions {
        smoke: args.smoke(),
        seed: args.get("--seed", defaults.seed),
        shards: args.get("--shards", defaults.shards),
        queue_cap: args.get("--queue-cap", defaults.queue_cap),
        ..defaults
    };
    assert!(opts.shards > 0, "--shards S (positive)");
    assert!(opts.queue_cap > 0, "--queue-cap N (positive)");
    let out = args.get("--out", "BENCH_serve.json".to_string());
    let json = run_serve_bench(&opts);
    std::fs::write(&out, &json).expect("write serve bench JSON");
    println!("wrote {out}");
}
