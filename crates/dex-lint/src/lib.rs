//! `dex-lint` — the workspace determinism & hygiene analyzer.
//!
//! Every PR since the parallel batch-heal engine rests on one promise:
//! **bit-identical results at any thread count**. The differential
//! proptests and CI byte-diffs enforce that promise *dynamically* — they
//! sample executions. This crate enforces the *architectural* invariants
//! that make the promise provable, statically, over every `.rs` file in
//! the workspace:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `no-raw-threads` | all parallelism flows through `dex_exec::par_map` |
//! | `no-random-state` | results-bearing crates never iterate RandomState maps |
//! | `knob-discipline` | the environment is read only in the `dex_exec::knobs` registry |
//! | `unsafe-hygiene` | every `unsafe` carries a `// SAFETY:` argument |
//! | `no-wallclock-in-results` | wall-clock stays in the bench crates |
//! | `rng-keying` | RNG streams are keyed by op identity, never arrival order |
//!
//! Violations can be waived inline — `// dex-lint: allow(<rule>) --
//! <reason>` — and the waivers are themselves linted (known rule,
//! non-empty reason, must actually suppress something). Enforcement is
//! two-fold: the `dex-lint` binary (`cargo run -p dex-lint`, CI step)
//! and a `#[test]` in each deterministic crate, so plain `cargo test`
//! fails on any un-waived violation.
//!
//! The crate is dependency-free and owns a minimal Rust lexer
//! ([`lexer`]) so rule tokens inside comments, strings, and raw strings
//! never fire.

pub mod config;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod waivers;
pub mod walker;

use std::io;
use std::path::Path;

pub use report::{Report, Violation};
pub use walker::workspace_root_from;

/// Lint one source text as if it lived at `rel_path` in the workspace.
/// Returns the post-waiver violations (including waiver-syntax and
/// unused-waiver findings). The unit used by both [`lint_workspace`] and
/// the fixture tests.
pub fn lint_source(rel_path: &str, src: &str) -> Vec<Violation> {
    let lexed = lexer::lex(src);
    let crate_key = config::crate_key(rel_path);
    let raw = rules::check_all(&rules::FileCtx {
        rel_path,
        crate_key: &crate_key,
        lexed: &lexed,
    });
    let mut wset = waivers::parse(rel_path, &lexed);
    let mut out: Vec<Violation> = raw
        .into_iter()
        .filter(|v| !wset.suppress(v.rule, v.line))
        .collect();
    out.extend(wset.errors.iter().cloned());
    out.extend(wset.unused(rel_path));
    out
}

/// Number of waivers in `src` that would suppress a violation (used for
/// report accounting).
fn count_waived(rel_path: &str, src: &str) -> usize {
    let lexed = lexer::lex(src);
    let crate_key = config::crate_key(rel_path);
    let raw = rules::check_all(&rules::FileCtx {
        rel_path,
        crate_key: &crate_key,
        lexed: &lexed,
    });
    let mut wset = waivers::parse(rel_path, &lexed);
    raw.iter().filter(|v| wset.suppress(v.rule, v.line)).count()
}

/// Lint the whole workspace rooted at `root`.
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let mut report = Report::default();
    for rel in walker::workspace_files(root)? {
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        let src = std::fs::read_to_string(root.join(&rel))?;
        report.files += 1;
        report.waived += count_waived(&rel_str, &src);
        report.violations.extend(lint_source(&rel_str, &src));
    }
    report.sort();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waived_violation_is_suppressed_and_counted() {
        let src = "\
// dex-lint: allow(no-raw-threads) -- measuring raw spawn cost on purpose
std::thread::scope(|s| {});
";
        let v = lint_source("crates/bench/src/x.rs", src);
        assert!(v.is_empty(), "{v:?}");
        assert_eq!(count_waived("crates/bench/src/x.rs", src), 1);
    }

    #[test]
    fn waiver_for_the_wrong_rule_does_not_suppress() {
        let src = "\
// dex-lint: allow(rng-keying) -- wrong rule
std::thread::scope(|s| {});
";
        let v = lint_source("crates/bench/src/x.rs", src);
        // The violation survives AND the waiver is reported unused.
        let rules: Vec<_> = v.iter().map(|x| x.rule).collect();
        assert!(rules.contains(&"no-raw-threads"), "{rules:?}");
        assert!(rules.contains(&"waiver-unused"), "{rules:?}");
    }

    #[test]
    fn this_workspace_is_lint_clean() {
        let root =
            workspace_root_from(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
        let report = lint_workspace(&root).expect("lint run");
        assert!(report.is_clean(), "\n{report}");
        assert!(report.files > 50, "walk found only {} files", report.files);
    }
}
