//! Shared code of the benchmark binaries (`src/bin/bench_*`): the heal
//! and serve benchmarks behind `bench_heal` and `bench_serve`, a counting
//! allocator, the `exec` header and [`Summary`] fragments every
//! `BENCH_*.json` carries, and a plain-text table printer.
//!
//! Each binary writes one `BENCH_<name>.json`. `bench_paper` holds the
//! paper's claims (Fig. 1, Table 1, Theorem 1 and the experiments E1–E8),
//! one section per claim; the other five measure the implementation's
//! layers and workloads.

use dex::prelude::Summary;

pub mod alloc;
pub mod heal;
pub mod serve;

/// Executor-environment header fragment for every `BENCH_*.json` emitter:
/// the machine's `available_parallelism`, the effective thread budget,
/// and the thread model (`pool_mode`). This is what makes a re-run on a bigger box
/// machine-distinguishable. Deliberately independent of
/// any `--exec-threads` flag so smoke outputs stay byte-identical across
/// thread sweeps on one machine.
pub fn exec_header_json() -> String {
    format!(
        "\"exec\": {{\"available_parallelism\": {}, \"thread_budget\": {}, \"pool_mode\": \"{}\"}}",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        dex::exec::thread_budget(),
        dex::exec::pool_mode()
    )
}

/// One [`Summary`] as the JSON object every `BENCH_*.json` emitter uses.
pub fn summary_json(s: &Summary) -> String {
    format!(
        "{{\"count\": {}, \"mean\": {:.4}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"p999\": {}, \"max\": {}}}",
        s.count, s.mean, s.p50, s.p95, s.p99, s.p999, s.max
    )
}

/// Render a plain-text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}", c, w = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(&head));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}
