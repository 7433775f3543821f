#![forbid(unsafe_code)]
//! `srmac-lint` — the workspace determinism & hygiene linter.
//!
//! The test suites prove the repro's contracts — bitwise determinism,
//! never-panic decode surfaces, SAFETY-documented kernels, stable diag
//! codes — *by sampling*. This tool
//! enforces the same contracts *mechanically over all source*, so the
//! class of regression a test didn't think to sample is caught at the
//! token level in CI.
//!
//! Dependency-free by design: a hand-rolled lexer ([`lexer`]), a small
//! per-file analysis context ([`workspace`]), a policy table
//! ([`policy`]), four passes ([`passes`]) and `diag`-style findings
//! with a committed baseline ([`findings`]). Run it as:
//!
//! ```text
//! cargo run -p srmac-lint -- --ci
//! ```

pub mod findings;
pub mod lexer;
pub mod passes;
pub mod policy;
pub mod workspace;

use std::path::Path;

use findings::{codes, Finding};
use workspace::SourceFile;

/// Runs every pass over the workspace at `root` and returns the raw
/// findings (pre-baseline), sorted by (file, line, code).
pub fn run(root: &Path) -> Result<Vec<Finding>, String> {
    let read = |rel: &str| -> Result<String, String> {
        std::fs::read_to_string(root.join(rel)).map_err(|e| format!("read {rel}: {e}"))
    };
    let mut out = Vec::new();
    let mut diag_sites = Vec::new();
    for cp in policy::CRATES {
        let src_dir = if cp.dir.is_empty() {
            "src".to_owned()
        } else {
            format!("{}/src", cp.dir)
        };
        let files = workspace::rust_files_under(root, &src_dir)
            .map_err(|e| format!("walk {src_dir}: {e}"))?;
        let mut saw_root = false;
        for rel in files {
            let sf = SourceFile::parse(&rel, &read(&rel)?);
            out.extend(passes::unsafe_hygiene::check_file(&sf));
            if cp.determinism {
                out.extend(passes::determinism::check_file(&sf));
            }
            if cp.panic_hygiene {
                out.extend(passes::panic_hygiene::check_file(&sf));
            }
            diag_sites.extend(passes::diag_registry::extract_sites(&sf));
            if rel == cp.root {
                saw_root = true;
                out.extend(passes::unsafe_hygiene::check_header(&sf, cp.header));
            }
        }
        if !saw_root {
            out.push(Finding::new(
                codes::MISSING_POLICY_HEADER,
                cp.root,
                0,
                "policed crate root not found — fix the policy table or restore the file",
            ));
        }
    }
    let readme = read(policy::README)?;
    out.extend(passes::diag_registry::check(&diag_sites, &readme));
    out.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.code.id).cmp(&(b.file.as_str(), b.line, b.code.id))
    });
    Ok(out)
}
