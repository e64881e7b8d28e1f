//! Pool-reuse contract tests: executor results must be bit-identical
//! across thread counts **and** across repeated invocations on the same
//! warm pool (per-worker state is scratch — never something that leaks
//! into results), and a warm pool must perform zero thread spawns.

use dex_exec::{
    for_chunks_state_mut, par_map, prewarm, reduce_chunks, run_workers, total_spawns, MAX_WORKERS,
};
use proptest::prelude::*;

/// A scratch type that deliberately accumulates garbage across a
/// worker's chunks: if any helper let scratch contents influence results,
/// the thread-count sweep below would diverge.
#[derive(Default)]
struct Sticky {
    junk: Vec<u64>,
}

/// One deterministic "wave": mixes each element with its index, via
/// scratch that keeps growing (polluted by every earlier chunk of
/// whatever worker ran it).
fn wave(data: &mut [u64], threads: usize, chunk: usize, salt: u64) {
    for_chunks_state_mut(data, threads, chunk, Sticky::default, |start, chunk, s| {
        s.junk.push(salt ^ start as u64);
        for (i, v) in chunk.iter_mut().enumerate() {
            let idx = (start + i) as u64;
            *v = v
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(idx ^ salt);
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Bit-identical across threads 1/3/8 *and* across repeated
    // invocations on the same pool: every (threads, repetition) pair of
    // the same wave sequence must produce the same bytes whichever
    // worker's (junk-filled) scratch processed a chunk.
    #[test]
    fn scratch_waves_are_thread_and_history_invariant(
        n in 0usize..2000,
        chunk in 1usize..96,
        salts in proptest::collection::vec(any::<u64>(), 1..6),
    ) {
        let reference = {
            let mut data: Vec<u64> = (0..n as u64).collect();
            for &s in &salts {
                wave(&mut data, 1, chunk, s);
            }
            data
        };
        for threads in [1usize, 3, 8] {
            for repetition in 0..2 {
                let mut data: Vec<u64> = (0..n as u64).collect();
                for &s in &salts {
                    wave(&mut data, threads, chunk, s);
                }
                prop_assert_eq!(
                    &data, &reference,
                    "threads={} repetition={}", threads, repetition
                );
            }
        }
    }

    // The ordered-combine helpers share the contract.
    #[test]
    fn map_and_reduce_are_thread_invariant(
        items in proptest::collection::vec(any::<u64>(), 0..3000),
    ) {
        let seq_map: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(3) + 1).collect();
        let seq_red = reduce_chunks(items.len(), 1, |lo, hi| {
            items[lo..hi].iter().map(|&x| (x % 1024) as f64).sum()
        });
        for threads in [3usize, 8] {
            prop_assert_eq!(
                par_map(&items, threads, |&x| x.wrapping_mul(3) + 1),
                seq_map.clone()
            );
            let red = reduce_chunks(items.len(), threads, |lo, hi| {
                items[lo..hi].iter().map(|&x| (x % 1024) as f64).sum()
            });
            prop_assert_eq!(red.to_bits(), seq_red.to_bits());
        }
    }
}

/// The hot loop performs zero thread spawns after warm-up: once the pool
/// is saturated, any number of parallel sections reuse parked workers.
/// (Saturating via `prewarm(MAX_WORKERS)` makes the assertion immune to
/// concurrently running tests claiming workers — a full pool can never
/// spawn again.)
#[test]
fn warm_pool_spawns_no_threads() {
    prewarm(MAX_WORKERS);
    let spawned = total_spawns();
    assert_eq!(
        spawned,
        (MAX_WORKERS - 1) as u64,
        "prewarm must have materialized the whole pool"
    );
    let mut data: Vec<u64> = (0..10_000).collect();
    for round in 0..200u64 {
        run_workers(8, |_w| {});
        wave(&mut data, 8, 64, round);
        let _ = par_map(&data, 4, |x| x + 1);
    }
    assert_eq!(
        total_spawns(),
        spawned,
        "warm-pool parallel sections must not spawn threads"
    );
}
