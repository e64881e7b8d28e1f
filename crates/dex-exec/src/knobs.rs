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
    /// What the knob controls. Every knob is a **scheduling** knob
    /// (thread counts): it may change the execution schedule but never a
    /// computed byte — the bit-identity contract.
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

/// Every knob the workspace honors. Keep sorted by name; the registry
/// test asserts uniqueness.
pub const REGISTRY: &[Knob] = &[DEX_EXEC_THREADS];

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
    }

    #[test]
    fn registry_is_sorted_by_name() {
        for w in REGISTRY.windows(2) {
            assert!(w[0].name < w[1].name, "{} before {}", w[0].name, w[1].name);
        }
    }
}
