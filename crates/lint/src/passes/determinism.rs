//! Pass 2 — determinism.
//!
//! The repro's headline guarantee is *bitwise-invariant* numerics across
//! threads, lanes, tiles and replicas. Three code shapes can smuggle
//! nondeterminism past every bit-equality test that samples only the
//! shapes it thought of:
//!
//! - **Hash collections** (`HashMap`/`HashSet`): iteration order varies
//!   run to run (`RandomState`), so any fold over one reorders float
//!   accumulation. Use `BTreeMap`/`BTreeSet` or a `Vec`, or prove
//!   order-independence and annotate `// DETERMINISM-OK:`.
//! - **Wall clock** (`Instant`/`SystemTime`): time-dependent control
//!   flow (time-boxed loops, time-seeded anything) differs per run.
//!   Only the serving layer may watch the clock (deadlines, latency
//!   histograms) — per the file allowlist.
//! - **Thread creation** (`spawn(…)` calls, `thread::scope`): threads
//!   outside the shared runtime pool dodge the pool's deterministic
//!   chunking. Spawning is allowlisted in the pool itself and the
//!   serving subsystem; the f32 GEMM engine's scoped-thread row
//!   partition carries inline justifications.
//!
//! Test code (`#[cfg(test)]`/`#[test]` items) is exempt: tests may time
//! and spawn freely.

use crate::findings::{codes, Finding};
use crate::policy::{self};
use crate::workspace::SourceFile;

/// Runs the determinism checks over one file of a policed crate.
#[must_use]
pub fn check_file(f: &SourceFile) -> Vec<Finding> {
    let spawn_allowed = policy::SPAWN_ALLOWED_FILES.contains(&f.rel_path.as_str());
    let clock_allowed = policy::WALL_CLOCK_ALLOWED_FILES.contains(&f.rel_path.as_str());
    let mut out = Vec::new();
    let code: Vec<(usize, &crate::lexer::Tok)> = f.code_toks().collect();
    for (ci, &(ti, t)) in code.iter().enumerate() {
        if f.in_test[ti] {
            continue;
        }
        let waived = |marker: &str| f.marker_above(t.line, marker);
        if (t.is_ident("HashMap") || t.is_ident("HashSet")) && !waived(policy::DETERMINISM_MARKER) {
            out.push(Finding::new(
                codes::HASH_COLLECTION,
                &f.rel_path,
                t.line,
                format!(
                    "`{}` has nondeterministic iteration order — use `BTreeMap`/`BTreeSet`/`Vec`, \
                     or prove order-independence in a `// DETERMINISM-OK:` comment",
                    t.text
                ),
            ));
        }
        if (t.is_ident("Instant") || t.is_ident("SystemTime"))
            && !clock_allowed
            && !waived(policy::DETERMINISM_MARKER)
        {
            out.push(Finding::new(
                codes::WALL_CLOCK,
                &f.rel_path,
                t.line,
                format!(
                    "`{}` (wall clock) in a determinism-policed crate — only the serving layer \
                     may watch real time",
                    t.text
                ),
            ));
        }
        let is_spawn_call =
            t.is_ident("spawn") && code.get(ci + 1).is_some_and(|&(_, n)| n.is_punct('('));
        let is_thread_scope = t.is_ident("thread")
            && code.get(ci + 1).is_some_and(|&(_, n)| n.is_punct(':'))
            && code.get(ci + 2).is_some_and(|&(_, n)| n.is_punct(':'))
            && code.get(ci + 3).is_some_and(|&(_, n)| n.is_ident("scope"));
        if (is_spawn_call || is_thread_scope)
            && !spawn_allowed
            && !waived(policy::DETERMINISM_MARKER)
        {
            out.push(Finding::new(
                codes::THREAD_SPAWN,
                &f.rel_path,
                t.line,
                "thread creation outside the runtime pool — dispatch through `srmac-runtime`, \
                 or justify with `// DETERMINISM-OK:`",
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn on(path: &str, src: &str) -> Vec<Finding> {
        check_file(&SourceFile::parse(path, src))
    }

    #[test]
    fn hash_map_and_set_are_flagged() {
        let got = on(
            "crates/fp/src/x.rs",
            "use std::collections::HashMap;\nfn f() { let s: HashSet<u8> = HashSet::new(); }\n",
        );
        assert_eq!(got.len(), 3);
        assert!(got.iter().all(|f| f.code == codes::HASH_COLLECTION));
    }

    #[test]
    fn btree_map_is_fine() {
        assert!(on("crates/fp/src/x.rs", "use std::collections::BTreeMap;\n").is_empty());
    }

    #[test]
    fn determinism_ok_marker_waives() {
        let src = "// DETERMINISM-OK: drained into a sorted Vec before iteration.\n\
                   let m = HashMap::new();\n";
        assert!(on("crates/fp/src/x.rs", src).is_empty());
    }

    #[test]
    fn wall_clock_flagged_outside_serve() {
        let got = on("crates/rng/src/x.rs", "let t = Instant::now();\n");
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].code, codes::WALL_CLOCK);
        assert!(on("crates/models/src/serve.rs", "let t = Instant::now();\n").is_empty());
    }

    #[test]
    fn spawn_call_and_thread_scope_flagged() {
        let got = on(
            "crates/tensor/src/x.rs",
            "std::thread::spawn(|| {});\nstd::thread::scope(|s| { s.spawn(|| {}); });\n",
        );
        // spawn(, thread::scope, and the inner s.spawn( all fire.
        assert_eq!(got.len(), 3);
        assert!(got.iter().all(|f| f.code == codes::THREAD_SPAWN));
    }

    #[test]
    fn spawn_allowlist_and_identifier_uses_pass() {
        assert!(on("crates/runtime/src/pool.rs", "builder.spawn(|| {});\n").is_empty());
        // `spawn` not called (a field or path without call parens) passes.
        assert!(on(
            "crates/tensor/src/x.rs",
            "let spawn = 3; let y = spawn + 1;\n"
        )
        .is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { let m = HashMap::new(); \
                   let i = Instant::now(); std::thread::spawn(|| {}); }\n}\n";
        assert!(on("crates/fp/src/x.rs", src).is_empty());
    }

    #[test]
    fn strings_and_comments_do_not_fire() {
        let src = "// a HashMap would be bad here\nlet s = \"Instant::now\";\n";
        assert!(on("crates/fp/src/x.rs", src).is_empty());
    }
}
