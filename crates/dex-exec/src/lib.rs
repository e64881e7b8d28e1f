//! `dex-exec` — the repo's single deterministic execution layer: a
//! persistent, lazily-spawned worker pool with parked-worker handoff,
//! and chunk-deterministic scheduling.
//!
//! A worker thread is spawned at most once per process (lazily, on first
//! demand), parks between jobs, and is handed work by writing a job into
//! its mailbox and waking it — the steady-state cost of a parallel section
//! is a few mutex/condvar handoffs, not `clone(2)` calls. [`total_spawns`]
//! exposes the spawn counter so tests can prove the hot loop performs
//! **zero thread spawns after warm-up**.
//!
//! # Determinism contract
//!
//! Everything here preserves the repo's standing rule: **results are
//! bit-identical for any thread count, including 1.** The pool guarantees
//! its half of the contract structurally:
//!
//! * work is split by **fixed chunk boundaries** that depend only on the
//!   input length and the caller's chunk size — never on the thread count
//!   or on which worker ran what;
//! * every chunk is processed exactly once, and ordered outputs
//!   (reductions, spliced buffers) are combined **sequentially in chunk
//!   order** on the calling thread;
//! * per-worker state ([`for_chunks_state_mut`]) is *scratch*: callers
//!   must not let its contents influence results. Differential tests
//!   (`tests/pool.rs`) enforce the contract end to end — including across
//!   repeated invocations on the same warm pool.
//!
//! Callers keep their half by making per-element results pure functions of
//! `(index, element, shared inputs)`.
//!
//! # Scheduling model
//!
//! [`run_workers`]`(k, f)` runs `f(0), …, f(k-1)` with the *caller* as
//! worker 0 and up to `k-1` pool workers for the rest. Worker claiming is
//! opportunistic: a busy pool (nested parallelism, concurrent tests)
//! degrades gracefully by running unclaimed indices inline on the caller —
//! never deadlocking, never changing results, because index→work mapping
//! is fixed and thread identity is never an input. The pool is bounded by
//! [`MAX_WORKERS`] threads process-wide; workers are "pinned" in the sense
//! that they are dedicated, long-lived threads owned by the pool (OS-level
//! CPU affinity is out of scope for the portable std-only build).
//!
//! # Thread budget
//!
//! [`thread_budget`] is the *default* worker count used by auto/unset
//! knobs across the workspace (`ExecConfig::AUTO`): the
//! `DEX_EXEC_THREADS` environment variable when set (CI forces 8 to
//! exercise real fan-out on few-core runners),
//! otherwise `available_parallelism`, clamped to `[1, MAX_WORKERS]`.
//! Explicitly requested thread counts are honored as-is — determinism
//! tests sweep 1/3/8 regardless of the machine.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

pub mod knobs;

/// Hard cap on pool-managed parallelism (worker 0 is the caller, so at
/// most `MAX_WORKERS - 1` pool threads ever exist).
pub const MAX_WORKERS: usize = 16;

/// Fixed chunk length for dense numeric loops (elements, not bytes) —
/// the workspace-wide default the spectral engine chunks on.
pub const CHUNK: usize = 4096;

/// Minimum problem size before callers should hand `threads > 1` to the
/// chunk helpers: below this even a parked-worker handoff costs more than
/// the loop itself.
pub const PAR_MIN_LEN: usize = 16 * CHUNK;

// ======================================================================
// Thread budget
// ======================================================================

/// 0 = not yet initialized (resolved lazily on first read).
static BUDGET: AtomicUsize = AtomicUsize::new(0);

/// The executor's effective default thread count: `DEX_EXEC_THREADS` when
/// set to a positive integer, otherwise `available_parallelism`, clamped
/// to `[1, MAX_WORKERS]`. This is what auto/unset knobs resolve to;
/// explicit per-call thread counts bypass it.
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

/// Programmatic counterpart of the `DEX_EXEC_THREADS` env override: set
/// the process-wide budget every auto/default knob resolves to. The
/// workspace's own binaries take explicit per-run thread counts instead
/// (a budget change mid-run would make smoke outputs flag-dependent);
/// this is for embedders configuring the executor without touching the
/// environment. Clamped to `[1, MAX_WORKERS]`.
pub fn set_thread_budget(threads: usize) {
    BUDGET.store(threads.clamp(1, MAX_WORKERS), Ordering::Relaxed);
}

/// Human-readable executor mode for benchmark headers. The executor is
/// always the persistent pool; a budget of 1 means auto-threaded callers
/// run inline (explicit multi-thread requests still engage the pool).
pub fn pool_mode() -> &'static str {
    if thread_budget() > 1 {
        "persistent-pool"
    } else {
        "persistent-pool(budget=1)"
    }
}

/// One executor configuration shared by every thread knob in the
/// workspace: bench bins, `dex-workload` runs, and each network's
/// internal fan-out all resolve their worker counts through this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Worker threads for every pool fan-out; `0` = auto
    /// ([`thread_budget`]).
    pub threads: usize,
}

impl ExecConfig {
    /// Resolve to [`thread_budget`] at use time.
    pub const AUTO: ExecConfig = ExecConfig { threads: 0 };

    /// Explicit worker count, clamped to `[1, MAX_WORKERS]` — so `0` is
    /// an explicit single thread, not auto (use [`ExecConfig::AUTO`] for
    /// budget-resolved behaviour).
    pub fn with_threads(threads: usize) -> Self {
        ExecConfig {
            threads: threads.clamp(1, MAX_WORKERS),
        }
    }

    /// The concrete worker count this config stands for right now.
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

// ======================================================================
// The pool
// ======================================================================

/// Completion latch: lives on the caller's stack for the duration of one
/// [`run_workers`] call. Workers count down and unpark the caller; the
/// first panicking worker parks its payload here for re-throw.
struct Latch {
    pending: AtomicUsize,
    caller: std::thread::Thread,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Latch {
    fn done(&self) {
        // Clone the handle *before* the decrement: the moment `pending`
        // hits 0 the caller may return and pop the latch off its stack.
        let caller = self.caller.clone();
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            caller.unpark();
        }
    }

    fn wait(&self) {
        while self.pending.load(Ordering::Acquire) != 0 {
            std::thread::park();
        }
    }
}

/// A dispatched unit of work: worker `idx` of the current parallel
/// section. The raw pointers are guaranteed valid until `latch` fires —
/// the dispatching call blocks on the latch before returning.
struct Job {
    f: *const (dyn Fn(usize) + Sync),
    idx: usize,
    latch: *const Latch,
}

// SAFETY: the pointees are `Sync` closures / the latch, both owned by the
// dispatching thread which outlives the job (it blocks on the latch).
unsafe impl Send for Job {}

/// One pool worker's handoff state.
struct WorkerSlot {
    /// Claimed by a dispatcher (CAS false→true); released by the worker
    /// when the job finishes.
    busy: AtomicBool,
    /// At most one pending job (a worker is only sent work while claimed).
    mailbox: Mutex<Option<Job>>,
    wake: Condvar,
}

struct Pool {
    slots: Mutex<Vec<Arc<WorkerSlot>>>,
}

static POOL: OnceLock<Pool> = OnceLock::new();
static SPAWNS: AtomicU64 = AtomicU64::new(0);

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool {
        slots: Mutex::new(Vec::new()),
    })
}

/// Worker threads ever spawned by the pool, process-wide. After warm-up
/// this is constant: parallel sections reuse parked workers, and the
/// zero-spawns-per-wave tests assert exactly that.
pub fn total_spawns() -> u64 {
    SPAWNS.load(Ordering::Relaxed)
}

/// Ensure the pool has workers for a `workers`-wide section (spawning any
/// that do not exist yet) without running a job. After
/// `prewarm(MAX_WORKERS)` the pool is saturated and can never spawn
/// again — which makes zero-spawn assertions robust to concurrent tests.
pub fn prewarm(workers: usize) {
    let want = workers.clamp(1, MAX_WORKERS) - 1;
    let claimed = pool().claim(want);
    for slot in &claimed {
        slot.busy.store(false, Ordering::Release);
    }
}

impl Pool {
    /// Claim up to `want` idle workers, lazily spawning missing ones while
    /// the pool is below capacity. Never blocks on a busy worker — under
    /// contention (nested parallelism, concurrent callers) the dispatcher
    /// simply gets fewer helpers and runs the rest inline.
    fn claim(&self, want: usize) -> Vec<Arc<WorkerSlot>> {
        let mut out = Vec::with_capacity(want);
        if want == 0 {
            return out;
        }
        let mut slots = self.slots.lock().expect("pool poisoned");
        for slot in slots.iter() {
            if out.len() == want {
                break;
            }
            if slot
                .busy
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                out.push(Arc::clone(slot));
            }
        }
        while out.len() < want && slots.len() < MAX_WORKERS - 1 {
            let slot = Arc::new(WorkerSlot {
                busy: AtomicBool::new(true),
                mailbox: Mutex::new(None),
                wake: Condvar::new(),
            });
            let for_thread = Arc::clone(&slot);
            SPAWNS.fetch_add(1, Ordering::Relaxed);
            std::thread::Builder::new()
                .name(format!("dex-exec-{}", slots.len()))
                .spawn(move || worker_loop(for_thread))
                .expect("failed to spawn dex-exec worker");
            slots.push(Arc::clone(&slot));
            out.push(slot);
        }
        out
    }
}

fn worker_loop(slot: Arc<WorkerSlot>) {
    loop {
        let job = {
            let mut mb = slot.mailbox.lock().expect("mailbox poisoned");
            loop {
                match mb.take() {
                    Some(job) => break job,
                    None => mb = slot.wake.wait(mb).expect("mailbox poisoned"),
                }
            }
        };
        // SAFETY: the dispatcher blocks on the latch until `done()` below,
        // so both pointees are alive for the whole job.
        let f = unsafe { &*job.f };
        let latch = unsafe { &*job.latch };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(job.idx))) {
            *latch.panic.lock().expect("latch poisoned") = Some(payload);
        }
        slot.busy.store(false, Ordering::Release);
        latch.done();
    }
}

impl WorkerSlot {
    fn send(&self, job: Job) {
        let mut mb = self.mailbox.lock().expect("mailbox poisoned");
        debug_assert!(mb.is_none(), "job sent to a worker that still has one");
        *mb = Some(job);
        self.wake.notify_one();
    }
}

/// Run `f(0), …, f(workers - 1)`, each index exactly once: index 0 on the
/// calling thread, the rest handed to parked pool workers (claimed
/// opportunistically; unclaimed indices run inline on the caller).
/// Blocks until every index has completed; worker panics are re-thrown
/// here.
///
/// Determinism: which thread runs which index is *not* specified —
/// callers must make each index's work a pure function of the index and
/// shared inputs, which is exactly what the chunk helpers below do.
pub fn run_workers<F: Fn(usize) + Sync>(workers: usize, f: F) {
    let workers = workers.clamp(1, MAX_WORKERS);
    if workers == 1 {
        f(0);
        return;
    }
    let latch = Latch {
        pending: AtomicUsize::new(0),
        caller: std::thread::current(),
        panic: Mutex::new(None),
    };
    let claimed = pool().claim(workers - 1);
    let helpers = claimed.len();
    latch.pending.store(helpers, Ordering::Relaxed);
    // SAFETY: shortening the closure's lifetime to 'static is sound
    // because every dispatched job completes (latch) before this frame
    // returns, including on the inline-panic path below.
    let f_ptr: *const (dyn Fn(usize) + Sync) = unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(&f)
    };
    for (i, slot) in claimed.iter().enumerate() {
        slot.send(Job {
            f: f_ptr,
            idx: i + 1,
            latch: &latch,
        });
    }
    let inline = catch_unwind(AssertUnwindSafe(|| {
        f(0);
        for idx in helpers + 1..workers {
            f(idx);
        }
    }));
    latch.wait();
    if let Err(payload) = inline {
        resume_unwind(payload);
    }
    let worker_panic = latch.panic.lock().expect("latch poisoned").take();
    if let Some(payload) = worker_panic {
        resume_unwind(payload);
    }
}

// ======================================================================
// Chunk-deterministic helpers
// ======================================================================

/// Contiguous per-worker spans of `data`, split on fixed chunk boundaries
/// (a span is a whole number of chunks). The `Mutex` is how each worker
/// takes `&mut` access to exactly its own span through the shared
/// closure; spans are disjoint, so locks are never contended.
fn spans_of<T: Send>(
    data: &mut [T],
    threads: usize,
    chunk_size: usize,
) -> Vec<Mutex<(usize, &mut [T])>> {
    let n_chunks = data.len().div_ceil(chunk_size);
    let workers = threads.min(n_chunks).clamp(1, MAX_WORKERS);
    let span = n_chunks.div_ceil(workers) * chunk_size;
    let mut spans = Vec::with_capacity(workers);
    let mut rest = data;
    let mut offset = 0usize;
    while !rest.is_empty() {
        let take = span.min(rest.len());
        let (head, tail) = rest.split_at_mut(take);
        spans.push(Mutex::new((offset, head)));
        rest = tail;
        offset += take;
    }
    spans
}

/// Apply `f(start_index, chunk)` to consecutive [`CHUNK`]-sized pieces of
/// `data`, possibly in parallel on the pool. Chunk boundaries do not
/// depend on `threads`, and chunks never overlap, so any per-element
/// result is computed exactly once, by exactly one worker, from the same
/// inputs.
pub fn for_chunks_mut<T, F>(data: &mut [T], threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    for_chunks_state_mut(
        data,
        threads,
        CHUNK,
        || (),
        |start, chunk, ()| f(start, chunk),
    );
}

/// [`for_chunks_mut`] with a caller-chosen fixed chunk size and per-worker
/// state built by `init` (once per engaged worker per call).
///
/// Determinism contract: chunk boundaries depend only on `chunk_size`
/// (never on `threads`), chunks are disjoint, and per-element results may
/// depend only on `(start_index, element)` — the worker state must act as
/// scratch, not as an input that varies with which worker processed the
/// chunk. Under that contract results are bit-identical for any thread
/// count.
pub fn for_chunks_state_mut<T, S, I, F>(
    data: &mut [T],
    threads: usize,
    chunk_size: usize,
    init: I,
    f: F,
) where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(usize, &mut [T], &mut S) + Sync,
{
    assert!(chunk_size > 0, "chunk_size must be positive");
    if threads <= 1 || data.len() <= chunk_size {
        let mut state = init();
        for (c, chunk) in data.chunks_mut(chunk_size).enumerate() {
            f(c * chunk_size, chunk, &mut state);
        }
        return;
    }
    let spans = spans_of(data, threads, chunk_size);
    run_workers(spans.len(), |w| {
        let mut guard = spans[w].lock().expect("span poisoned");
        let (offset, slice) = &mut *guard;
        let mut state = init();
        for (c, chunk) in slice.chunks_mut(chunk_size).enumerate() {
            f(*offset + c * chunk_size, chunk, &mut state);
        }
    });
}

/// Chunked reduction: `partial(lo, hi)` produces the partial sum of the
/// half-open index range, partials are computed (possibly in parallel on
/// the pool) per fixed [`CHUNK`], then combined **sequentially in chunk
/// order** — so the floating-point result is independent of the thread
/// count.
pub fn reduce_chunks<F>(n: usize, threads: usize, partial: F) -> f64
where
    F: Fn(usize, usize) -> f64 + Sync,
{
    if n == 0 {
        return 0.0;
    }
    let n_chunks = n.div_ceil(CHUNK);
    let mut partials = vec![0.0f64; n_chunks];
    let workers = threads.min(n_chunks);
    if workers <= 1 {
        for (c, slot) in partials.iter_mut().enumerate() {
            let lo = c * CHUNK;
            *slot = partial(lo, (lo + CHUNK).min(n));
        }
    } else {
        // Split the *partials* array across workers directly — each worker
        // owns a contiguous run of chunk indices (re-chunking it by CHUNK
        // would never parallelize until n_chunks exceeded CHUNK).
        let per_worker = n_chunks.div_ceil(workers.min(MAX_WORKERS));
        for_chunks_state_mut(
            &mut partials,
            workers,
            per_worker,
            || (),
            |start, chunk, ()| {
                for (i, slot) in chunk.iter_mut().enumerate() {
                    let lo = (start + i) * CHUNK;
                    *slot = partial(lo, (lo + CHUNK).min(n));
                }
            },
        );
    }
    partials.iter().sum()
}

/// Fused chunked mutate-and-reduce: apply `f(start_index, chunk)` to
/// consecutive [`CHUNK`]-sized pieces of `data` (as [`for_chunks_mut`])
/// while each chunk also produces a partial accumulator; partials are
/// combined **sequentially in chunk order** with `combine`, starting from
/// `zero` — so the result is bit-identical to running the mutation pass
/// and a separate [`reduce_chunks`] over the same chunks, at any thread
/// count. This is the memory-level fusion primitive: one streaming pass
/// over `data` replaces a write pass plus a re-read reduction pass.
pub fn for_chunks_fold_mut<T, A, F, C>(
    data: &mut [T],
    threads: usize,
    zero: A,
    f: F,
    combine: C,
) -> A
where
    T: Send,
    A: Send + Copy,
    F: Fn(usize, &mut [T]) -> A + Sync,
    C: Fn(A, A) -> A,
{
    let n = data.len();
    if n == 0 {
        return zero;
    }
    let n_chunks = n.div_ceil(CHUNK);
    let workers = threads.min(n_chunks).clamp(1, MAX_WORKERS);
    if workers <= 1 {
        let mut acc = zero;
        for (c, chunk) in data.chunks_mut(CHUNK).enumerate() {
            acc = combine(acc, f(c * CHUNK, chunk));
        }
        return acc;
    }
    // Workers fill per-chunk partial slots; pairing each data span with
    // the matching span of the partials array keeps every write owned by
    // exactly one worker with no synchronization.
    let mut partials: Vec<Option<A>> = (0..n_chunks).map(|_| None).collect();
    {
        let data_spans = spans_of(data, workers, CHUNK);
        let mut part_spans: Vec<Mutex<&mut [Option<A>]>> = Vec::with_capacity(data_spans.len());
        let mut rest = partials.as_mut_slice();
        for span in &data_spans {
            let chunks_here = span.lock().expect("span poisoned").1.len().div_ceil(CHUNK);
            let (head, tail) = rest.split_at_mut(chunks_here);
            part_spans.push(Mutex::new(head));
            rest = tail;
        }
        run_workers(data_spans.len(), |w| {
            let mut guard = data_spans[w].lock().expect("span poisoned");
            let (offset, slice) = &mut *guard;
            let mut parts = part_spans[w].lock().expect("span poisoned");
            for (c, chunk) in slice.chunks_mut(CHUNK).enumerate() {
                parts[c] = Some(f(*offset + c * CHUNK, chunk));
            }
        });
    }
    partials
        .into_iter()
        .fold(zero, |acc, p| combine(acc, p.expect("all chunks folded")))
}

/// Parallel map preserving input order: splits `items` into contiguous
/// per-worker spans; workers write into disjoint output slices, so no
/// synchronization is needed beyond the completion latch. Falls back to a
/// sequential map when `threads <= 1` or the input is trivial.
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
    let workers = threads.min(n).clamp(1, MAX_WORKERS);
    let mut out: Vec<Option<U>> = (0..n).map(|_| None).collect();
    let span = n.div_ceil(workers);
    let spans = spans_of(&mut out, workers, span);
    run_workers(spans.len(), |w| {
        let mut guard = spans[w].lock().expect("span poisoned");
        let (offset, slice) = &mut *guard;
        for (slot, item) in slice.iter_mut().zip(&items[*offset..]) {
            *slot = Some(f(item));
        }
    });
    drop(spans);
    out.into_iter()
        .map(|o| o.expect("all slots filled"))
        .collect()
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
    fn sized_chunks_with_worker_state_cover_everything_once() {
        for n in [0usize, 1, 7, 8, 9, 100] {
            for threads in [1, 3, 8] {
                let mut data = vec![0u32; n];
                for_chunks_state_mut(
                    &mut data,
                    threads,
                    8,
                    Vec::<u32>::new,
                    |start, chunk, scratch| {
                        // The state is scratch: its contents carry over
                        // between one worker's chunks but never leak into
                        // results.
                        scratch.push(start as u32);
                        for (i, v) in chunk.iter_mut().enumerate() {
                            *v += (start + i) as u32 + 1;
                        }
                    },
                );
                assert!(
                    data.iter().enumerate().all(|(i, &v)| v == i as u32 + 1),
                    "n={n} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn reduction_is_thread_count_invariant() {
        let n = 3 * CHUNK + 911;
        let x: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let expect = reduce_chunks(n, 1, |lo, hi| x[lo..hi].iter().sum());
        for threads in [2, 3, 8] {
            let got = reduce_chunks(n, threads, |lo, hi| x[lo..hi].iter().sum());
            assert_eq!(got.to_bits(), expect.to_bits(), "threads={threads}");
        }
    }

    #[test]
    fn multi_worker_reduction_covers_every_chunk() {
        // n_chunks (4) is far below CHUNK, so this exercises the direct
        // worker split of the partials array.
        let n = 4 * CHUNK;
        let sum = reduce_chunks(n, 4, |lo, hi| (hi - lo) as f64);
        assert_eq!(sum, n as f64);
    }

    #[test]
    fn empty_reduction() {
        assert_eq!(reduce_chunks(0, 4, |_, _| unreachable!()), 0.0);
    }

    #[test]
    fn fused_fold_matches_separate_passes_bitwise() {
        for n in [0usize, 1, CHUNK - 1, CHUNK, 3 * CHUNK + 17, 20 * CHUNK] {
            let base: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
            // Oracle: mutation pass, then a separate chunked reduction.
            let mut want_data = base.clone();
            for_chunks_mut(&mut want_data, 1, |start, chunk| {
                for (i, v) in chunk.iter_mut().enumerate() {
                    *v += (start + i) as f64;
                }
            });
            let want_sum = reduce_chunks(n, 1, |lo, hi| want_data[lo..hi].iter().sum());
            for threads in [1, 2, 3, 8] {
                let mut data = base.clone();
                let got_sum = for_chunks_fold_mut(
                    &mut data,
                    threads,
                    0.0f64,
                    |start, chunk| {
                        let mut acc = 0.0;
                        for (i, v) in chunk.iter_mut().enumerate() {
                            *v += (start + i) as f64;
                            acc += *v;
                        }
                        acc
                    },
                    |a, b| a + b,
                );
                assert_eq!(data, want_data, "n={n} threads={threads}");
                assert_eq!(
                    got_sum.to_bits(),
                    want_sum.to_bits(),
                    "n={n} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn fused_fold_with_tuple_accumulator() {
        let n = 5 * CHUNK + 3;
        let mut data: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let (s, c) = for_chunks_fold_mut(
            &mut data,
            4,
            (0.0f64, 0u64),
            |_, chunk| {
                let mut acc = (0.0, 0u64);
                for v in chunk.iter_mut() {
                    *v *= 2.0;
                    acc.0 += *v;
                    acc.1 += 1;
                }
                acc
            },
            |a, b| (a.0 + b.0, a.1 + b.1),
        );
        assert_eq!(c, n as u64);
        assert_eq!(s, (n as f64 - 1.0) * n as f64); // 2·Σi = n(n−1)
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
    fn nested_parallel_sections_complete() {
        // A pool worker invoking the pool again must degrade to inline
        // execution rather than deadlock.
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
        let caught = std::panic::catch_unwind(|| {
            run_workers(4, |w| {
                if w == 3 {
                    panic!("boom from worker {w}");
                }
            });
        });
        assert!(caught.is_err(), "worker panic must reach the caller");
        // The pool must still be usable afterwards.
        let items: Vec<u32> = (0..100).collect();
        assert_eq!(par_map(&items, 4, |x| x + 1)[99], 100);
    }

    #[test]
    fn exec_config_resolution() {
        assert_eq!(ExecConfig::AUTO.resolve(), thread_budget());
        assert_eq!(ExecConfig::default(), ExecConfig::AUTO);
        assert_eq!(ExecConfig::with_threads(3).resolve(), 3);
        assert_eq!(ExecConfig::with_threads(999).resolve(), MAX_WORKERS);
        assert!((1..=MAX_WORKERS).contains(&thread_budget()));
        assert!(pool_mode().starts_with("persistent-pool"));
    }
}
