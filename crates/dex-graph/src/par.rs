//! Memory-level parallelism: the software-prefetch hint and the cached
//! `DEX_MLP_KERNELS` / `DEX_WALK_K` knobs read by the interleaved walk
//! engine and the blocked SpMV. (Thread-level fan-out is [`dex_exec`]'s.)

use std::sync::atomic::{AtomicU8, Ordering};

/// Hint the CPU to pull the cache line at `p` toward L1 (x86_64
/// `prefetcht0`, aarch64 `prfm pldl1keep`; a no-op elsewhere). Safe for
/// any address — prefetches never fault.
///
/// Engines that interleave many independent pointer chases (walk hops,
/// SpMV gathers) overlap their cache misses by prefetching the next item's
/// lines while working on the current one — a large win even on a single
/// core for workloads that are DRAM-latency-bound on scattered reads.
#[inline(always)]
pub fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch hints never fault, for any address including null
    // and unmapped — the CPU drops invalid prefetches silently.
    unsafe {
        core::arch::x86_64::_mm_prefetch(p as *const i8, core::arch::x86_64::_MM_HINT_T0)
    }
    #[cfg(target_arch = "aarch64")]
    // No stable prefetch intrinsic on aarch64; PLD-keep-to-L1 via inline
    // asm. `nostack`/`preserves_flags` keep it as cheap as the intrinsic.
    // SAFETY: PRFM is a hint and never faults, for any address; the asm
    // reads no memory and clobbers nothing (readonly/nostack).
    unsafe {
        core::arch::asm!(
            "prfm pldl1keep, [{ptr}]",
            ptr = in(reg) p,
            options(nostack, preserves_flags, readonly)
        )
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    let _ = p;
}

/// Cached tri-state for the `DEX_MLP_KERNELS` knob: 0 = unresolved,
/// 1 = off, 2 = on.
static MLP: AtomicU8 = AtomicU8::new(0);

/// Are the memory-level-parallel kernels (K-way interleaved walks, blocked
/// SpMV) enabled? Default **on**; set `DEX_MLP_KERNELS=0` (or `off`) to
/// force the scalar paths. The knob exists for benchmarking and CI
/// byte-diffs only — both paths are bit-identical by construction, so
/// flipping it never changes a result, only the memory access schedule.
/// Read once per process (cached).
pub fn mlp_enabled() -> bool {
    match MLP.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => {
            let on = dex_exec::knobs::mlp_kernels().unwrap_or(true);
            MLP.store(if on { 2 } else { 1 }, Ordering::Relaxed);
            on
        }
    }
}

/// Pipeline depth for the interleaved walk engine: `DEX_WALK_K` when set
/// to a positive integer, else 8, clamped to `[1, 64]`. K ≈ 8 covers one
/// DRAM miss (~80–100 ns) with ~7 other lanes' compute (~10–15 ns each);
/// larger K wastes L1 on in-flight lines, smaller K leaves latency
/// uncovered. Read once per process (cached).
pub fn walk_pipeline_k() -> usize {
    static K: AtomicU8 = AtomicU8::new(0);
    match K.load(Ordering::Relaxed) {
        0 => {
            let k = dex_exec::knobs::walk_k().unwrap_or(8).clamp(1, 64);
            K.store(k as u8, Ordering::Relaxed);
            k
        }
        k => k as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_compiles_and_tolerates_any_address() {
        // The cfg branches (x86_64 intrinsic / aarch64 asm / portable
        // no-op) must all build and accept arbitrary addresses without
        // faulting: live data, one-past-the-end, null, and unmapped.
        let data = [0u64; 4];
        prefetch_read(data.as_ptr());
        // SAFETY: one-past-the-end pointers are valid to *form* for any
        // allocation; only dereferencing would be UB, and prefetch never
        // dereferences.
        prefetch_read(unsafe { data.as_ptr().add(4) });
        prefetch_read(std::ptr::null::<u64>());
        prefetch_read(0xdead_beef_0000usize as *const u8);
    }

    #[test]
    fn mlp_knobs_are_cached_and_in_range() {
        // Whatever the environment says, repeated reads agree (the knob is
        // latched on first read) and K is in its documented range.
        assert_eq!(mlp_enabled(), mlp_enabled());
        let k = walk_pipeline_k();
        assert!((1..=64).contains(&k), "K={k}");
        assert_eq!(walk_pipeline_k(), k);
    }
}
