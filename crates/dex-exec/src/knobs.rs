//! The workspace's **only** environment-knob read point.
//!
//! Every `DEX_*` environment variable the workspace honors is declared
//! here, and every read of the process environment goes through
//! [`raw`] — `dex-lint`'s `knob-discipline` rule forbids `std::env::var`
//! anywhere else in the workspace. Centralizing the reads buys three
//! things:
//!
//! * **Discoverability** — [`REGISTRY`] is the complete, documented list
//!   of runtime knobs; a knob that is not declared here cannot be read.
//! * **Determinism auditing** — every knob is either resolved once per
//!   process and latched (the consumers cache), or feeds only
//!   *scheduling* (thread counts), never *results*: the
//!   repo's bit-identity contract says flipping any knob may change the
//!   execution schedule but never a computed byte.
//! * **No typo'd knobs** — consumers name a [`Knob`] from the registry,
//!   so a misspelled variable name is a compile error, not a silently
//!   ignored setting.
//!
//! Consumers keep their own one-shot caches ([`crate::thread_budget`]'s
//! `BUDGET`): this module is the read point, not the cache.

/// One declared environment knob.
#[derive(Debug, Clone, Copy)]
pub struct Knob {
    /// Environment variable name (`DEX_…`).
    pub name: &'static str,
    /// Human-readable default, for docs and `--help`-style listings.
    pub default: &'static str,
    /// What the knob controls. A knob is one of two kinds, and the doc
    /// must make clear which: a **scheduling** knob (thread counts — may
    /// change the execution schedule but never a computed byte, the
    /// bit-identity contract), or a **bench-harness
    /// experiment input** (e.g. an extra fault-curve point) that library
    /// crates never read — only `dex-bench` binaries consume it, and its
    /// value is recorded in the output's config header so the run stays
    /// reproducible. CI leaves experiment inputs unset, so byte-diff
    /// checks are unaffected.
    pub doc: &'static str,
}

/// Worker-thread budget every auto/unset thread knob resolves to
/// ([`crate::thread_budget`]).
pub const DEX_EXEC_THREADS: Knob = Knob {
    name: "DEX_EXEC_THREADS",
    default: "available_parallelism, clamped to [1, 16]",
    doc: "executor thread budget: worker count used by auto/unset thread \
          knobs across the workspace; explicit per-call counts bypass it",
};

/// Extra loss-curve point for `bench_faults` (experiment input).
pub const DEX_FAULT_LOSS: Knob = Knob {
    name: "DEX_FAULT_LOSS",
    default: "unset (curve uses the built-in loss grid only)",
    doc: "bench-harness experiment input: an extra per-send loss probability \
          (in 1/1000 units, 0..=1000) appended to bench_faults' loss grid; \
          library crates never read it, and its value lands in the output \
          config header",
};

/// Retry-budget override for `bench_faults` (experiment input).
pub const DEX_FAULT_RETRIES: Knob = Knob {
    name: "DEX_FAULT_RETRIES",
    default: "unset (FaultSpec::zero's budgets: 6 walk / 6 route)",
    doc: "bench-harness experiment input: overrides both the walk and route \
          re-initiation budgets of every fault spec bench_faults builds; \
          library crates never read it",
};

/// Fault-stream seed override for `bench_faults` (experiment input).
pub const DEX_FAULT_SEED: Knob = Knob {
    name: "DEX_FAULT_SEED",
    default: "unset (bench_faults derives fault seeds from --seed)",
    doc: "bench-harness experiment input: overrides the fault-stream seed of \
          every fault spec bench_faults builds (the protocol's SeedSpace is \
          unaffected); library crates never read it",
};

/// Every knob the workspace honors. Keep sorted by name; the registry
/// test asserts uniqueness.
pub const REGISTRY: &[Knob] = &[
    DEX_EXEC_THREADS,
    DEX_FAULT_LOSS,
    DEX_FAULT_RETRIES,
    DEX_FAULT_SEED,
];

/// Read a declared knob from the process environment. This is the single
/// `std::env::var` call in the workspace (enforced by `dex-lint`'s
/// `knob-discipline` rule). Returns `None` when unset or not unicode.
pub fn raw(knob: &Knob) -> Option<String> {
    debug_assert!(
        REGISTRY.iter().any(|k| k.name == knob.name),
        "knob {} is not in the registry",
        knob.name
    );
    std::env::var(knob.name).ok()
}

/// `DEX_EXEC_THREADS` parsed: a positive integer, else `None`.
pub fn exec_threads() -> Option<usize> {
    raw(&DEX_EXEC_THREADS)?
        .trim()
        .parse::<usize>()
        .ok()
        .filter(|&n| n > 0)
}

/// `DEX_FAULT_LOSS` parsed: a loss probability in 1/1000 units, clamped
/// to the valid `0..=1000` range; `None` when unset or malformed.
pub fn fault_loss() -> Option<u32> {
    raw(&DEX_FAULT_LOSS)?
        .trim()
        .parse::<u32>()
        .ok()
        .map(|m| m.min(1000))
}

/// `DEX_FAULT_RETRIES` parsed: a retry budget (0 disables re-initiation),
/// else `None`.
pub fn fault_retries() -> Option<u32> {
    raw(&DEX_FAULT_RETRIES)?.trim().parse::<u32>().ok()
}

/// `DEX_FAULT_SEED` parsed: a u64 fault-stream seed, else `None`.
pub fn fault_seed() -> Option<u64> {
    raw(&DEX_FAULT_SEED)?.trim().parse::<u64>().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_prefixed() {
        for (i, k) in REGISTRY.iter().enumerate() {
            assert!(
                k.name.starts_with("DEX_"),
                "{} lacks the DEX_ prefix",
                k.name
            );
            assert!(
                !k.doc.is_empty() && !k.default.is_empty(),
                "{} undocumented",
                k.name
            );
            for other in &REGISTRY[i + 1..] {
                assert_ne!(k.name, other.name, "duplicate knob");
            }
        }
    }

    #[test]
    fn parsers_tolerate_any_environment() {
        // Whatever the ambient environment holds, the typed readers must
        // return in-contract values (they are latched by consumers, so we
        // only check shape, not specific settings).
        if let Some(n) = exec_threads() {
            assert!(n > 0);
        }
        if let Some(m) = fault_loss() {
            assert!(m <= 1000);
        }
        let _ = fault_retries();
        let _ = fault_seed();
    }

    #[test]
    fn registry_is_sorted_by_name() {
        for w in REGISTRY.windows(2) {
            assert!(w[0].name < w[1].name, "{} before {}", w[0].name, w[1].name);
        }
    }
}
