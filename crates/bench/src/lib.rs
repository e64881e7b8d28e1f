//! Shared code of the benchmark binaries (`src/bin/bench_*`): the heal
//! and serve benchmarks behind `bench_heal` and `bench_serve`, a counting
//! allocator, the one JSON writer ([`json`]), the `exec` header every
//! `BENCH_*.json` carries, the bins' command-line parser ([`Args`]) and a
//! plain-text table printer.
//!
//! Each binary writes one `BENCH_<name>.json`. `bench_paper` holds the
//! paper's claims (Fig. 1, Table 1, Theorem 1 and the experiments E1–E8),
//! one section per claim; the other five measure the implementation's
//! layers and workloads. Every bin runs its trial and shard maps at
//! `dex::exec::thread_budget()` (`DEX_EXEC_THREADS`, else the machine's
//! parallelism); the deterministic fields do not depend on it.

pub mod alloc;
pub mod heal;
pub mod json;
pub mod serve;

use json::Json;
use std::str::FromStr;

/// The executor environment every `BENCH_*.json` records as `exec`: the
/// machine's `available_parallelism`, the effective thread budget, and
/// the thread model (`pool_mode`). This is what makes a re-run on a
/// bigger box machine-distinguishable; it renders on one line, which CI
/// drops before byte-diffing smoke outputs across thread budgets.
pub fn exec_header() -> Json {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj([
        ("available_parallelism", cores.into()),
        ("thread_budget", dex::exec::thread_budget().into()),
        ("pool_mode", dex::exec::pool_mode().into()),
    ])
}

/// A bench bin's command line: the switch `--smoke` and `--flag VALUE`
/// pairs, each bin naming the flags it accepts. An unknown flag panics
/// with that list.
pub struct Args {
    smoke: bool,
    values: Vec<(String, String)>,
}

impl Args {
    /// Parse the process's arguments against `accepted`.
    pub fn parse(accepted: &[&str]) -> Args {
        Args::from_iter(std::env::args().skip(1), accepted)
    }

    fn from_iter(args: impl IntoIterator<Item = String>, accepted: &[&str]) -> Args {
        let mut parsed = Args {
            smoke: false,
            values: Vec::new(),
        };
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            if !accepted.contains(&flag.as_str()) {
                panic!("unknown flag {flag:?} (try {})", accepted.join(" / "));
            }
            if flag == "--smoke" {
                parsed.smoke = true;
            } else {
                let value = it.next().unwrap_or_else(|| panic!("{flag} needs a value"));
                parsed.values.push((flag, value));
            }
        }
        parsed
    }

    /// Was `--smoke` given?
    pub fn smoke(&self) -> bool {
        self.smoke
    }

    /// The last value given for `flag`, or `default`.
    ///
    /// # Panics
    /// If the value does not parse as a `T`.
    pub fn get<T: FromStr>(&self, flag: &str, default: T) -> T {
        match self.values.iter().rev().find(|(f, _)| f == flag) {
            Some((_, v)) => v
                .parse()
                .unwrap_or_else(|_| panic!("{flag}: cannot parse {v:?}")),
            None => default,
        }
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &[&str]) -> Args {
        let accepted = ["--smoke", "--seed", "--out"];
        Args::from_iter(line.iter().map(|s| s.to_string()), &accepted)
    }

    #[test]
    fn flags_parse_with_defaults() {
        let a = args(&[]);
        assert!(!a.smoke());
        assert_eq!(a.get("--seed", 7u64), 7);
        let a = args(&["--seed", "9", "--smoke", "--out", "x.json", "--seed", "11"]);
        assert!(a.smoke());
        assert_eq!(a.get("--seed", 7u64), 11);
        assert_eq!(a.get("--out", String::new()), "x.json");
    }

    #[test]
    #[should_panic(expected = "unknown flag \"--exec-threads\" (try --smoke / --seed / --out)")]
    fn unknown_flag_panics_with_the_accepted_list() {
        args(&["--exec-threads", "8"]);
    }
}
