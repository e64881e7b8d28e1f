//! Per-crate rule scoping: which crates each rule applies to and the
//! designated exception files, with the *reason* for every exception
//! written down next to it.
//!
//! The scoping tables are the policy half of the linter; `rules.rs` is
//! the mechanism. Changing policy (say, promoting a crate into the
//! deterministic set) is an edit here, reviewed like any other code.

/// Logical crate key of a workspace-relative path: the directory name
/// under `crates/` (`"dex-core"`, `"bench"`, …), `"shims/<name>"` for the
/// vendored shims, and `"root"` for the repo-root package (`src/`,
/// `tests/`, `examples/`).
pub fn crate_key(rel_path: &str) -> String {
    let mut parts = rel_path.split('/');
    match parts.next() {
        Some("crates") => parts.next().unwrap_or("root").to_string(),
        Some("shims") => format!("shims/{}", parts.next().unwrap_or("?")),
        _ => "root".to_string(),
    }
}

/// The only crate allowed to create or scope threads: it holds
/// `par_map`, the scoped order-preserving map. Everything else must fan
/// out through it, so input-order results at any thread count are
/// argued in one function.
pub const EXEC_CRATE: &str = "dex-exec";

/// Crates whose computed results are covered by the bit-identity
/// contract (differential proptests, CI byte-diffs). RandomState
/// `HashMap`/`HashSet` — whose iteration order varies per process — are
/// forbidden here; use `dex_graph::fxhash::{FxHashMap, FxHashSet}` or
/// `BTreeMap`/`BTreeSet`.
pub const DETERMINISTIC_CRATES: &[&str] = &[
    "dex-graph",
    "dex-core",
    "dex-sim",
    "dex-workload",
    // Adversary decisions and baseline overlays feed replayable traces
    // and comparison tables — same contract.
    "dex-adversary",
    "dex-baselines",
];

/// The one file that may name std's `HashMap`/`HashSet` inside a
/// deterministic crate: the definition site of the deterministic
/// `FxHashMap`/`FxHashSet` aliases themselves.
pub const HASHER_DEF_FILES: &[&str] = &["crates/dex-graph/src/fxhash.rs"];

/// The workspace's single environment-read location
/// (`dex_exec::knobs`): every `DEX_*` knob is declared and read there,
/// so the full runtime-knob surface is one auditable registry.
pub const KNOB_MODULE: &str = "crates/dex-exec/src/knobs.rs";

/// Crates that may read wall-clock time: measurement is their purpose,
/// and nothing they emit feeds back into protocol results.
pub const WALLCLOCK_CRATES: &[&str] = &["bench"];

/// Directories (workspace-relative prefixes) never walked.
pub const SKIP_DIRS: &[&str] = &["target", ".git"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_keys() {
        assert_eq!(crate_key("crates/dex-core/src/lib.rs"), "dex-core");
        assert_eq!(crate_key("crates/bench/src/bin/bench_paper.rs"), "bench");
        assert_eq!(crate_key("shims/rand/src/lib.rs"), "shims/rand");
        assert_eq!(crate_key("src/lib.rs"), "root");
        assert_eq!(crate_key("tests/determinism.rs"), "root");
        assert_eq!(crate_key("examples/quickstart.rs"), "root");
    }

    #[test]
    fn exec_crate_is_not_deterministic_scoped() {
        // dex-exec owns threads; the no-random-state rule lists results
        // crates. The two sets are disjoint by construction.
        assert!(!DETERMINISTIC_CRATES.contains(&EXEC_CRATE));
    }
}
