//! Sharded open-loop DHT serving benchmark: capacity calibration plus a
//! latency-vs-offered-load sweep over the `dex::workload::serve` harness
//! at n≈1M aggregate (4 shards × 250k). Emits `BENCH_serve.json`. See
//! `dex_bench::serve` for what is measured and the determinism contract.
//!
//! ```sh
//! cargo run --release -p dex-bench --bin bench_serve            # full, n≈1M
//! cargo run --release -p dex-bench --bin bench_serve -- --smoke # CI-sized
//! cargo run --release -p dex-bench --bin bench_serve -- --smoke --exec-threads 8
//! ```
//!
//! `--smoke` output is byte-identical for any `--exec-threads` value —
//! CI runs 1/3/8 and diffs the files. `--shards` (default 4) and
//! `--queue-cap` (default 4096) size the harness and are recorded in the
//! config header.

use dex_bench::serve::{run_serve_bench, ServeBenchOptions};

fn main() {
    let mut opts = ServeBenchOptions::default();
    let mut out: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => opts.smoke = true,
            "--exec-threads" => {
                opts.threads = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--exec-threads N");
            }
            "--seed" => {
                opts.seed = it.next().and_then(|v| v.parse().ok()).expect("--seed S");
            }
            "--shards" => {
                opts.shards = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&s| s > 0)
                    .expect("--shards S (positive)");
            }
            "--queue-cap" => {
                opts.queue_cap = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&c| c > 0)
                    .expect("--queue-cap N (positive)");
            }
            "--out" => {
                out = Some(it.next().expect("--out FILE"));
            }
            other => {
                panic!(
                    "unknown flag {other:?} (try --smoke / --exec-threads / --seed / --shards / --queue-cap / --out)"
                )
            }
        }
    }
    let out = out.unwrap_or_else(|| "BENCH_serve.json".into());
    let json = run_serve_bench(&opts);
    std::fs::write(&out, &json).expect("write serve bench JSON");
    println!("wrote {out}");
}
