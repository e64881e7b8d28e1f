//! `dex-exec` — the workspace's one thread model: [`par_map`], a scoped,
//! order-preserving map over *independent* items (scenario trials, serve
//! shards), plus the thread budget that sizes it.
//!
//! `par_map` splits its input into contiguous spans, runs span 0 on the
//! caller and one `std::thread::scope` thread per remaining span, and
//! concatenates the results in input order — so the output is that of the
//! sequential map for any thread count, provided `f` is a pure function of
//! its item. Threads live for one call; nothing is shared between calls,
//! and `threads <= 1` creates no thread at all. Everything below
//! `dex-workload` (a `DexNetwork`, the λ₂ solver, the simulators) is
//! sequential and does not link this crate.
//!
//! # Thread budget
//!
//! [`thread_budget`] is the worker count `ExecConfig::AUTO` resolves to:
//! the `DEX_EXEC_THREADS` environment variable when set (CI forces 8 to
//! get real fan-out on few-core runners), otherwise
//! `available_parallelism`, clamped to `[1, MAX_WORKERS]`. Explicitly
//! requested thread counts are honored as-is — determinism tests sweep
//! 1/3/8 regardless of the machine.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

pub mod knobs;

/// Hard cap on the threads one [`par_map`] call engages (the caller
/// included).
pub const MAX_WORKERS: usize = 16;

/// Chunk length of [`for_chunks_mut`]. Held for `benchmark/`, goes with
/// the next benchmark PR.
pub const CHUNK: usize = 4096;

/// 0 = not yet initialized (resolved lazily on first read).
static BUDGET: AtomicUsize = AtomicUsize::new(0);

/// The default thread count: `DEX_EXEC_THREADS` when set to a positive
/// integer, otherwise `available_parallelism`, clamped to
/// `[1, MAX_WORKERS]`. This is what auto/unset knobs resolve to; explicit
/// per-call thread counts bypass it.
pub fn thread_budget() -> usize {
    let b = BUDGET.load(Ordering::Relaxed);
    if b != 0 {
        return b;
    }
    let init = knobs::exec_threads()
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
        .clamp(1, MAX_WORKERS);
    // First writer wins; racing initializers compute the same value.
    let _ = BUDGET.compare_exchange(0, init, Ordering::Relaxed, Ordering::Relaxed);
    BUDGET.load(Ordering::Relaxed)
}

/// Programmatic counterpart of the `DEX_EXEC_THREADS` env override,
/// clamped to `[1, MAX_WORKERS]`. Held for `benchmark/`, goes with the
/// next benchmark PR: the workspace's own binaries pass explicit per-run
/// thread counts instead.
pub fn set_thread_budget(threads: usize) {
    BUDGET.store(threads.clamp(1, MAX_WORKERS), Ordering::Relaxed);
}

/// Thread model as the benchmark headers print it: always the scoped
/// map; a budget of 1 means auto-threaded callers run inline.
pub fn pool_mode() -> &'static str {
    if thread_budget() > 1 {
        "scoped"
    } else {
        "scoped(budget=1)"
    }
}

/// The one thread knob of the workspace: bench bins and `dex-workload`
/// runs resolve their [`par_map`] width through this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Threads for every trial / shard fan-out; `0` = auto
    /// ([`thread_budget`]).
    pub threads: usize,
}

impl ExecConfig {
    /// Resolve to [`thread_budget`] at use time.
    pub const AUTO: ExecConfig = ExecConfig { threads: 0 };

    /// Explicit thread count, clamped to `[1, MAX_WORKERS]` — so `0` is
    /// an explicit single thread, not auto (use [`ExecConfig::AUTO`] for
    /// budget-resolved behaviour).
    pub fn with_threads(threads: usize) -> Self {
        ExecConfig {
            threads: threads.clamp(1, MAX_WORKERS),
        }
    }

    /// The concrete thread count this config stands for right now.
    pub fn resolve(self) -> usize {
        if self.threads == 0 {
            thread_budget()
        } else {
            self.threads.clamp(1, MAX_WORKERS)
        }
    }
}

impl Default for ExecConfig {
    fn default() -> Self {
        Self::AUTO
    }
}

/// Apply `f(start_index, chunk)` to consecutive [`CHUNK`]-sized pieces of
/// `data`, in order, on the calling thread; `threads` is ignored. Held for
/// `benchmark/`'s `exec.handoff_ns` probe, goes with the next benchmark
/// PR — the probe reads ≈ 0 because there is no handoff left to time.
pub fn for_chunks_mut<T, F>(data: &mut [T], _threads: usize, f: F)
where
    F: Fn(usize, &mut [T]),
{
    for (c, chunk) in data.chunks_mut(CHUNK).enumerate() {
        f(c * CHUNK, chunk);
    }
}

/// Map preserving input order: `items` is split into contiguous spans,
/// one per thread; the caller maps span 0 while scoped threads map the
/// rest, and the per-span results are concatenated in input order. With
/// `threads <= 1` or fewer than two items the map runs inline and no
/// thread is created. Every thread is joined before returning; if any
/// span panicked, the first such span's payload (in input order) is
/// re-thrown here.
pub fn par_map<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let n = items.len();
    if threads <= 1 || n < 2 {
        return items.iter().map(&f).collect();
    }
    let f = &f;
    let mut spans = items.chunks(n.div_ceil(threads.min(n).min(MAX_WORKERS)));
    let head = spans.next().expect("n >= 2 items");
    std::thread::scope(|s| {
        let handles: Vec<_> = spans
            .map(|span| s.spawn(move || span.iter().map(f).collect::<Vec<U>>()))
            .collect();
        // A panic in the caller's own span unwinds out of the scope,
        // which joins every thread first.
        let mut out = Vec::with_capacity(n);
        out.extend(head.iter().map(f));
        let mut panic = None;
        for handle in handles {
            match handle.join() {
                Ok(part) => out.extend(part),
                Err(payload) => {
                    panic.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunked_writes_cover_everything_once() {
        for n in [0usize, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 17] {
            for threads in [1, 2, 5] {
                let mut data = vec![0u32; n];
                for_chunks_mut(&mut data, threads, |start, chunk| {
                    for (i, v) in chunk.iter_mut().enumerate() {
                        *v += (start + i) as u32;
                    }
                });
                assert!(
                    data.iter().enumerate().all(|(i, &v)| v == i as u32),
                    "n={n} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn par_map_matches_sequential_and_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let seq: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 8, 64] {
            assert_eq!(
                par_map(&items, threads, |x| x * x),
                seq,
                "threads={threads}"
            );
        }
        let empty: Vec<u32> = vec![];
        assert!(par_map(&empty, 8, |x| *x).is_empty());
        assert_eq!(par_map(&[5u32], 8, |x| x + 1), vec![6]);
        let uneven: Vec<usize> = (0..17).collect();
        assert_eq!(par_map(&uneven, 4, |x| *x), uneven);
    }

    #[test]
    fn one_thread_or_one_item_runs_on_the_caller() {
        // The guarantee behind `--exec-threads 1` and every path below
        // `dex-workload`: no thread is created.
        let me = std::thread::current().id();
        let items: Vec<u32> = (0..100).collect();
        for threads in [0, 1] {
            let ids = par_map(&items, threads, |_| std::thread::current().id());
            assert!(ids.iter().all(|&id| id == me), "threads={threads}");
        }
        assert_eq!(
            par_map(&[7u32], 8, |_| std::thread::current().id()),
            vec![me]
        );
        // Span 0 stays on the caller at any width.
        let ids = par_map(&items, 4, |_| std::thread::current().id());
        assert!(ids[..25].iter().all(|&id| id == me));
        assert!(ids[25..].iter().all(|&id| id != me));
    }

    #[test]
    fn nested_parallel_sections_complete() {
        let outer: Vec<u64> = (0..16).collect();
        let got = par_map(&outer, 8, |&i| {
            let inner: Vec<u64> = (0..64).map(|j| i * 64 + j).collect();
            par_map(&inner, 8, |x| x + 1).into_iter().sum::<u64>()
        });
        let want: Vec<u64> = outer
            .iter()
            .map(|&i| (0..64u64).map(|j| i * 64 + j + 1).sum())
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn worker_panics_propagate_to_the_caller() {
        let items: Vec<u32> = (0..100).collect();
        let caught = std::panic::catch_unwind(|| {
            par_map(&items, 4, |&x| {
                if x == 99 {
                    panic!("boom from item {x}");
                }
                x
            })
        });
        let payload = caught.expect_err("worker panic must reach the caller");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("boom from item 99"),
            "the original payload, not the scope's generic one"
        );
        // Nothing outlives a call, so the next one is unaffected.
        assert_eq!(par_map(&items, 4, |x| x + 1)[99], 100);
    }

    #[test]
    fn exec_config_resolution() {
        assert_eq!(ExecConfig::AUTO.resolve(), thread_budget());
        assert_eq!(ExecConfig::default(), ExecConfig::AUTO);
        assert_eq!(ExecConfig::with_threads(3).resolve(), 3);
        assert_eq!(ExecConfig::with_threads(999).resolve(), MAX_WORKERS);
        assert!((1..=MAX_WORKERS).contains(&thread_budget()));
        assert!(pool_mode().starts_with("scoped"));
    }
}
