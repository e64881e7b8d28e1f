//! The six determinism & hygiene rules.
//!
//! Each rule is a token-level matcher over the lexer's code view (so
//! comments and string contents never fire) with per-crate scoping from
//! `config.rs`. Matching is deliberately repo-specific: these rules
//! encode *this* workspace's architecture (everything parallel goes
//! through `dex-exec`, every RNG stream is keyed by op identity, every
//! knob lives in one registry) — they are not general Rust lints.

use crate::config;
use crate::lexer::Lexed;
use crate::report::Violation;

/// All rule ids, in reporting order. Waivers may name any of these.
pub const RULE_IDS: &[&str] = &[
    "no-raw-threads",
    "no-random-state",
    "knob-discipline",
    "unsafe-hygiene",
    "no-wallclock-in-results",
    "rng-keying",
];

/// How many lines above an `unsafe` token a `// SAFETY:` comment may
/// sit (same line also counts). Consecutive unsafe lines under one
/// comment stay covered within this window.
const SAFETY_WINDOW: usize = 5;

/// Identifiers that read as loop/chunk indices when used alone as an RNG
/// seed — the classic way to accidentally key randomness to *arrival
/// order* instead of *op identity*.
const INDEX_IDENTS: &[&str] = &[
    "i",
    "j",
    "k",
    "w",
    "c",
    "t",
    "idx",
    "index",
    "chunk",
    "chunk_idx",
    "chunk_index",
    "worker",
    "worker_idx",
    "lane",
    "lane_idx",
    "slot",
    "pos",
];

/// Everything the linter knows about one file.
pub struct FileCtx<'a> {
    /// Workspace-relative `/`-separated path.
    pub rel_path: &'a str,
    /// Logical crate key ([`config::crate_key`]).
    pub crate_key: &'a str,
    /// Lexed code/comment views.
    pub lexed: &'a Lexed,
}

/// Run every rule on `ctx`, returning raw (pre-waiver) violations.
pub fn check_all(ctx: &FileCtx<'_>) -> Vec<Violation> {
    let mut out = Vec::new();
    no_raw_threads(ctx, &mut out);
    no_random_state(ctx, &mut out);
    knob_discipline(ctx, &mut out);
    unsafe_hygiene(ctx, &mut out);
    no_wallclock_in_results(ctx, &mut out);
    rng_keying(ctx, &mut out);
    out
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Does `line` contain `pat` as a whole token sequence (no identifier
/// character glued to either end)?
fn has_token(line: &str, pat: &str) -> bool {
    let mut from = 0;
    while let Some(off) = line[from..].find(pat) {
        let start = from + off;
        let end = start + pat.len();
        let pre = line[..start].chars().next_back();
        let post = line[end..].chars().next();
        let pre_ok = pre.is_none_or(|c| !is_ident(c));
        let post_ok = post.is_none_or(|c| !is_ident(c));
        if pre_ok && post_ok {
            return true;
        }
        from = end;
    }
    false
}

fn push(
    ctx: &FileCtx<'_>,
    out: &mut Vec<Violation>,
    line: usize,
    rule: &'static str,
    msg: String,
    hint: &'static str,
) {
    out.push(Violation {
        file: ctx.rel_path.to_string(),
        line,
        rule,
        msg,
        hint,
    });
}

/// Rule 1 — `no-raw-threads`: thread creation (`thread::spawn`,
/// `thread::scope`, `thread::Builder`) and third-party runtimes
/// (`rayon`) are forbidden outside `dex-exec`. Its `par_map` is the one
/// place the order-preserving fan-out is argued; a raw thread anywhere
/// else is unproven parallelism.
fn no_raw_threads(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    if ctx.crate_key == config::EXEC_CRATE {
        return;
    }
    for (idx, line) in ctx.lexed.code.iter().enumerate() {
        for pat in ["thread::spawn", "thread::scope", "thread::Builder", "rayon"] {
            if has_token(line, pat) {
                push(
                    ctx,
                    out,
                    idx + 1,
                    "no-raw-threads",
                    format!("`{pat}` bypasses dex_exec::par_map"),
                    "fan out over independent items with dex_exec::par_map; \
                     only dex-exec may create threads",
                );
            }
        }
    }
}

/// Rule 2 — `no-random-state`: std `HashMap`/`HashSet` (RandomState:
/// per-process iteration order) are forbidden in crates under the
/// bit-identity contract. `FxHashMap`/`FxHashSet`/`BTreeMap` tokens do
/// not match; the Fx alias definition site is exempted in config.
fn no_random_state(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    if !config::DETERMINISTIC_CRATES.contains(&ctx.crate_key)
        || config::HASHER_DEF_FILES.contains(&ctx.rel_path)
    {
        return;
    }
    for (idx, line) in ctx.lexed.code.iter().enumerate() {
        for pat in ["HashMap", "HashSet"] {
            if has_token(line, pat) {
                push(
                    ctx,
                    out,
                    idx + 1,
                    "no-random-state",
                    format!("std `{pat}` has nondeterministic iteration order (RandomState)"),
                    "use dex_graph::fxhash::{FxHashMap, FxHashSet} or BTreeMap/BTreeSet; \
                     waive only if iteration order is provably never observed",
                );
            }
        }
    }
}

/// Rule 3 — `knob-discipline`: the process environment is read in
/// exactly one place, `dex_exec::knobs` — the complete, documented
/// registry of runtime knobs, all of them scheduling knobs (today one,
/// `DEX_EXEC_THREADS`). A stray `env::var` is an undocumented knob.
fn knob_discipline(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    if ctx.rel_path == config::KNOB_MODULE {
        return;
    }
    for (idx, line) in ctx.lexed.code.iter().enumerate() {
        for pat in ["env::var", "env::var_os", "env::vars", "env::vars_os"] {
            if has_token(line, pat) {
                push(
                    ctx,
                    out,
                    idx + 1,
                    "knob-discipline",
                    format!("`{pat}` outside the knob registry"),
                    "declare the knob in dex_exec::knobs (name, default, doc) and read it there",
                );
                break; // one finding per line even if several pats overlap
            }
        }
    }
}

/// Rule 4 — `unsafe-hygiene`: every line with an `unsafe` token needs a
/// `// SAFETY:` comment on the same line or within the 5 lines above.
fn unsafe_hygiene(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    for (idx, line) in ctx.lexed.code.iter().enumerate() {
        if !has_token(line, "unsafe") {
            continue;
        }
        let lo = idx.saturating_sub(SAFETY_WINDOW);
        let covered = ctx.lexed.comments[lo..=idx]
            .iter()
            .any(|c| c.contains("SAFETY:"));
        if !covered {
            push(
                ctx,
                out,
                idx + 1,
                "unsafe-hygiene",
                "`unsafe` without a `// SAFETY:` comment".to_string(),
                "state the invariant that makes this sound in a // SAFETY: comment \
                 directly above (within 5 lines)",
            );
        }
    }
}

/// Rule 5 — `no-wallclock-in-results`: `Instant::now`/`SystemTime` are
/// measurement, and measurement belongs to the bench crates — no file
/// elsewhere is exempt. Wall-clock anywhere else can leak scheduling
/// noise into results.
fn no_wallclock_in_results(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    if config::WALLCLOCK_CRATES.contains(&ctx.crate_key) {
        return;
    }
    for (idx, line) in ctx.lexed.code.iter().enumerate() {
        for pat in ["Instant::now", "SystemTime"] {
            if has_token(line, pat) {
                push(
                    ctx,
                    out,
                    idx + 1,
                    "no-wallclock-in-results",
                    format!("`{pat}` outside the bench crates"),
                    "keep timing in crates/bench",
                );
            }
        }
    }
}

/// Rule 6 — `rng-keying`: `thread_rng` is banned outright (ambient,
/// unseeded), and seeding an RNG from a *bare loop/chunk index* keys the
/// stream to arrival order instead of op identity — the exact bug class
/// the per-op keyed streams (SeedSpace, splitmix-derived seeds) exist to
/// prevent.
fn rng_keying(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    for (idx, line) in ctx.lexed.code.iter().enumerate() {
        for pat in ["thread_rng", "ThreadRng"] {
            if has_token(line, pat) {
                push(
                    ctx,
                    out,
                    idx + 1,
                    "rng-keying",
                    format!("`{pat}` is ambient randomness — unseeded and unreplayable"),
                    "derive every stream from a seed keyed by op identity \
                     (dex_sim::rng::SeedSpace or a splitmix of the op key)",
                );
            }
        }
        for call in ["seed_from_u64(", "from_seed("] {
            let mut from = 0;
            while let Some(off) = line[from..].find(call) {
                let start = from + off;
                let arg_start = start + call.len();
                if let Some(close) = line[arg_start..].find(')') {
                    let arg = line[arg_start..arg_start + close].trim();
                    let bare = arg.strip_suffix("as u64").map(str::trim).unwrap_or(arg);
                    if INDEX_IDENTS.contains(&bare) {
                        push(
                            ctx,
                            out,
                            idx + 1,
                            "rng-keying",
                            format!("RNG seeded from bare index `{arg}` — keyed to arrival order, not op identity"),
                            "mix the index with an op key (splitmix64(key ^ SALT)) or derive \
                             via SeedSpace::stream(purpose, &[op key, …])",
                        );
                    }
                    from = arg_start + close;
                } else {
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;

    fn lint_src(rel_path: &str, src: &str) -> Vec<Violation> {
        let lexed = lexer::lex(src);
        let key = config::crate_key(rel_path);
        check_all(&FileCtx {
            rel_path,
            crate_key: &key,
            lexed: &lexed,
        })
    }

    fn rules_of(v: &[Violation]) -> Vec<&'static str> {
        v.iter().map(|x| x.rule).collect()
    }

    // ---- no-raw-threads -------------------------------------------------

    #[test]
    fn raw_threads_flagged_outside_exec() {
        let v = lint_src(
            "crates/dex-core/src/x.rs",
            "fn f() { std::thread::spawn(|| {}); }",
        );
        assert_eq!(rules_of(&v), ["no-raw-threads"]);
        let v = lint_src("crates/bench/src/x.rs", "thread::scope(|s| {});");
        assert_eq!(rules_of(&v), ["no-raw-threads"]);
        let v = lint_src("crates/dex-sim/src/x.rs", "use rayon::prelude::*;");
        assert_eq!(rules_of(&v), ["no-raw-threads"]);
    }

    #[test]
    fn raw_threads_allowed_in_exec_and_nonspawning_apis_pass() {
        assert!(lint_src(
            "crates/dex-exec/src/lib.rs",
            "std::thread::Builder::new().spawn(f); thread::scope(|s| {});",
        )
        .is_empty());
        // Non-creating thread APIs are fine anywhere.
        assert!(lint_src(
            "crates/dex-core/src/x.rs",
            "let n = std::thread::available_parallelism(); std::thread::park(); \
             let me = std::thread::current();",
        )
        .is_empty());
    }

    // ---- no-random-state ------------------------------------------------

    #[test]
    fn random_state_flagged_in_deterministic_crates_only() {
        let src = "let m = std::collections::HashMap::new(); let s: HashSet<u32> = HashSet::new();";
        assert_eq!(
            rules_of(&lint_src("crates/dex-core/src/x.rs", src)),
            ["no-random-state", "no-random-state"]
        );
        // bench is not results-bearing: no finding.
        assert!(lint_src("crates/bench/src/x.rs", src).is_empty());
        // Fx aliases and lookalike identifiers never match.
        assert!(lint_src(
            "crates/dex-core/src/x.rs",
            "let m: FxHashMap<u32, u32> = FxHashMap::default(); struct HashMapping;",
        )
        .is_empty());
        // The alias definition site is exempt.
        assert!(lint_src(
            "crates/dex-graph/src/fxhash.rs",
            "use std::collections::{HashMap, HashSet};",
        )
        .is_empty());
    }

    // ---- knob-discipline ------------------------------------------------

    #[test]
    fn env_reads_only_in_the_registry() {
        let v = lint_src(
            "crates/dex-graph/src/spectral.rs",
            r#"let x = std::env::var("DEX_EXEC_THREADS");"#,
        );
        assert_eq!(rules_of(&v), ["knob-discipline"]);
        assert!(lint_src(
            "crates/dex-exec/src/knobs.rs",
            r#"let x = std::env::var("DEX_EXEC_THREADS");"#,
        )
        .is_empty());
        // CLI args are not knobs.
        assert!(lint_src(
            "crates/bench/src/bin/b.rs",
            "let args: Vec<String> = std::env::args().collect();",
        )
        .is_empty());
    }

    // ---- unsafe-hygiene -------------------------------------------------

    #[test]
    fn unsafe_needs_safety_comment() {
        let v = lint_src("crates/dex-graph/src/x.rs", "let p = unsafe { *q };");
        assert_eq!(rules_of(&v), ["unsafe-hygiene"]);
        assert!(lint_src(
            "crates/dex-graph/src/x.rs",
            "// SAFETY: q is valid for reads, checked above.\nlet p = unsafe { *q };",
        )
        .is_empty());
        // One comment covers a short run of consecutive unsafe lines.
        assert!(lint_src(
            "crates/dex-graph/src/x.rs",
            "// SAFETY: both pointees outlive this frame.\nlet f = unsafe { &*a };\nlet l = unsafe { &*b };",
        )
        .is_empty());
        // …but not past the window.
        let far = format!(
            "// SAFETY: too far away.\n{}\nunsafe {{ f() }};",
            "x();\n".repeat(6)
        );
        assert_eq!(
            rules_of(&lint_src("crates/dex-graph/src/x.rs", &far)),
            ["unsafe-hygiene"]
        );
    }

    #[test]
    fn unsafe_in_comments_and_strings_does_not_fire() {
        assert!(lint_src(
            "crates/dex-graph/src/x.rs",
            "// interior mutability, no unsafe — so callers can hold both halves\n\
             let s = \"unsafe text\"; /* unsafe in block comment */ let r = r#\"unsafe\"#;",
        )
        .is_empty());
    }

    // ---- no-wallclock-in-results ----------------------------------------

    #[test]
    fn wallclock_flagged_outside_allowlists() {
        let src = "let t = std::time::Instant::now(); let s = std::time::SystemTime::now();";
        assert_eq!(
            rules_of(&lint_src("crates/dex-sim/src/x.rs", src)),
            ["no-wallclock-in-results", "no-wallclock-in-results"]
        );
        assert!(lint_src("crates/bench/src/x.rs", src).is_empty());
        assert_eq!(lint_src("crates/dex-core/src/batch.rs", src).len(), 2);
        assert!(lint_src("crates/bench/src/bin/bench_heal.rs", src).is_empty());
        // `Instant` as a stored type (no clock read) is fine.
        assert!(lint_src(
            "crates/dex-sim/src/x.rs",
            "fn f(t0: Instant) -> Duration { t0.elapsed() }"
        )
        .is_empty());
    }

    // ---- rng-keying -----------------------------------------------------

    #[test]
    fn thread_rng_banned_everywhere() {
        let v = lint_src("crates/bench/src/x.rs", "let mut r = rand::thread_rng();");
        assert_eq!(rules_of(&v), ["rng-keying"]);
        let v = lint_src("tests/t.rs", "let r: ThreadRng = x;");
        assert_eq!(rules_of(&v), ["rng-keying"]);
    }

    #[test]
    fn bare_index_seeds_flagged_keyed_seeds_pass() {
        let v = lint_src(
            "crates/dex-core/src/x.rs",
            "let r = StdRng::seed_from_u64(i);",
        );
        assert_eq!(rules_of(&v), ["rng-keying"]);
        let v = lint_src(
            "crates/dex-core/src/x.rs",
            "let r = StdRng::seed_from_u64(chunk_idx as u64);",
        );
        assert_eq!(rules_of(&v), ["rng-keying"]);
        // Keyed / derived / constant seeds are the sanctioned patterns.
        assert!(lint_src(
            "crates/dex-core/src/x.rs",
            "let a = StdRng::seed_from_u64(seed); \
             let b = StdRng::seed_from_u64(job.seed); \
             let c = StdRng::seed_from_u64(0xbeef ^ i); \
             let d = StdRng::seed_from_u64(splitmix64(key)); \
             let e = StdRng::seed_from_u64(42);",
        )
        .is_empty());
    }

    // ---- multiple rules at once ----------------------------------------

    #[test]
    fn deliberately_broken_fixture_trips_all_six_rules() {
        let src = r#"
use std::collections::HashMap;
fn f(i: u64) {
    std::thread::spawn(|| {});
    let m: HashMap<u32, u32> = HashMap::new();
    let knob = std::env::var("DEX_SECRET");
    let p = unsafe { danger() };
    let t0 = std::time::Instant::now();
    let r1 = rand::thread_rng();
    let r2 = StdRng::seed_from_u64(i);
}
"#;
        let v = lint_src("crates/dex-workload/src/x.rs", src);
        let got = rules_of(&v);
        for rule in RULE_IDS {
            assert!(got.contains(rule), "rule {rule} did not fire: {got:?}");
        }
    }
}
