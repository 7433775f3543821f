//! Runs the `srmac-hygiene` checks over the workspace: the crate-root
//! lint headers, the `unsafe` allowlist, panics inside `macro_rules!`
//! bodies, and the diagnostic-code registry against the README table.
//!
//! Everything else is the compiler's job: `#![forbid(unsafe_code)]`,
//! `clippy::undocumented_unsafe_blocks`, the `clippy.toml` determinism
//! bans and `clippy::{unwrap_used, expect_used}` fail
//! `cargo clippy --all-targets -- -D warnings`, and a stale
//! `#[expect(…, reason = "…")]` waiver fails it as an unfulfilled
//! expectation.

use std::fs;
use std::path::Path;

use srmac::models::{ckpt, serve};
use srmac_hygiene::passes::diag_registry::{self, Code};
use srmac_hygiene::passes::{panic_hygiene, unsafe_hygiene};

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

fn read(rel: &str) -> String {
    fs::read_to_string(Path::new(ROOT).join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// Workspace-relative paths of the `.rs` files under `dir`, recursively.
fn rust_files(dir: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut stack = vec![Path::new(ROOT).join(dir)];
    while let Some(d) = stack.pop() {
        for entry in fs::read_dir(&d).unwrap_or_else(|e| panic!("{}: {e}", d.display())) {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|x| x == "rs") {
                let rel = path.strip_prefix(ROOT).unwrap();
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    out.sort();
    out
}

/// The facade's `src` plus every `crates/*/src`.
fn src_dirs() -> Vec<String> {
    let mut dirs = vec!["src".to_owned()];
    for entry in fs::read_dir(Path::new(ROOT).join("crates")).unwrap() {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        dirs.push(format!("crates/{name}/src"));
    }
    dirs.sort();
    dirs
}

fn assert_clean(findings: Vec<String>) {
    assert!(findings.is_empty(), "{}", findings.join("\n"));
}

#[test]
fn every_crate_root_carries_its_headers() {
    let mut findings = Vec::new();
    for src in src_dirs() {
        let bins = rust_files(&src)
            .into_iter()
            .filter(|f| f.contains("/src/bin/"));
        for file in std::iter::once(format!("{src}/lib.rs")).chain(bins) {
            findings.extend(unsafe_hygiene::check_headers(&file, &read(&file)));
        }
    }
    assert_clean(findings);
}

#[test]
fn only_the_simd_kernel_files_lift_the_unsafe_deny() {
    let mut findings = Vec::new();
    for file in src_dirs().iter().flat_map(|src| rust_files(src)) {
        findings.extend(unsafe_hygiene::check_file(&file, &read(&file)));
    }
    assert_clean(findings);
}

#[test]
fn macro_bodies_carry_only_the_listed_panics() {
    for src in src_dirs() {
        if src == unsafe_hygiene::PANIC_EXEMPT_SRC {
            continue;
        }
        for file in rust_files(&src) {
            let count = panic_hygiene::macro_panic_lines(&read(&file)).len();
            let listed = panic_hygiene::MACRO_PANICS
                .iter()
                .find_map(|&(f, n)| (f == file).then_some(n));
            assert_eq!(
                count,
                listed.unwrap_or(0),
                "{file}: panics inside macro_rules! bodies"
            );
        }
    }
}

/// `serve::codes::ALL` and `ckpt::codes::ALL`.
fn registry() -> Vec<Code<'static>> {
    let all = serve::codes::ALL.iter().chain(&ckpt::codes::ALL);
    all.map(|c| {
        let code = Code {
            namespace: c.namespace,
            id: c.id,
            name: c.name,
        };
        assert_eq!((code.tag(), code.path()), (c.tag(), c.path()));
        code
    })
    .collect()
}

#[test]
fn diag_codes_are_unique_and_contiguous() {
    assert_clean(diag_registry::check(&registry()));
}

#[test]
fn every_declared_diag_code_is_listed() {
    // `diag.rs` declares codes only in its doc and test examples.
    let files: Vec<(String, String)> = rust_files("crates/models/src")
        .into_iter()
        .filter(|f| !f.ends_with("/diag.rs"))
        .map(|f| {
            let text = read(&f);
            (f, text)
        })
        .collect();
    let mut declared: Vec<Code> = files
        .iter()
        .flat_map(|(f, text)| diag_registry::extract(text).unwrap_or_else(|e| panic!("{f}: {e}")))
        .collect();
    let mut listed = registry();
    declared.sort();
    listed.sort();
    assert_eq!(
        declared, listed,
        "declared DiagCodes differ from the `codes::ALL` lists"
    );
}

#[test]
fn readme_table_matches_the_registry() {
    assert_clean(diag_registry::check_readme(&registry(), &read("README.md")));
}
