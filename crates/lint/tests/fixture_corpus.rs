//! Self-test over the committed fixture corpus: each pass, run on the
//! seeded-violation files under `tests/fixtures/`, must report exactly
//! the seeded (code, line) pairs — and nothing else. The corpus pins
//! the passes' behavior against real multi-item files, not just the
//! single-construct unit-test snippets.

use srmac_lint::findings::{codes, Finding, LintCode};
use srmac_lint::passes;
use srmac_lint::workspace::SourceFile;

fn codes_and_lines(findings: &[Finding]) -> Vec<(LintCode, u32)> {
    findings.iter().map(|f| (f.code, f.line)).collect()
}

#[test]
fn unsafe_fixture_under_an_allowlisted_path() {
    let f = SourceFile::parse(
        "crates/qgemm/src/engine.rs",
        include_str!("fixtures/unsafe_hygiene.rs"),
    );
    let got = passes::unsafe_hygiene::check_file(&f);
    assert_eq!(codes_and_lines(&got), [(codes::UNSAFE_MISSING_SAFETY, 11)]);
}

#[test]
fn unsafe_fixture_outside_the_allowlist() {
    let f = SourceFile::parse(
        "crates/fp/src/fixture.rs",
        include_str!("fixtures/unsafe_hygiene.rs"),
    );
    let got = passes::unsafe_hygiene::check_file(&f);
    assert_eq!(
        codes_and_lines(&got),
        [
            (codes::UNSAFE_OUTSIDE_ALLOWLIST, 7),
            (codes::UNSAFE_OUTSIDE_ALLOWLIST, 11),
        ]
    );
}

#[test]
fn determinism_fixture_flags_the_three_seeded_sites() {
    let f = SourceFile::parse(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/determinism.rs"),
    );
    let got = passes::determinism::check_file(&f);
    assert_eq!(
        codes_and_lines(&got),
        [
            (codes::HASH_COLLECTION, 5),
            (codes::WALL_CLOCK, 8),
            (codes::THREAD_SPAWN, 12),
        ]
    );
}

#[test]
fn panic_fixture_flags_the_two_seeded_sites() {
    let f = SourceFile::parse(
        "crates/io/src/fixture.rs",
        include_str!("fixtures/panic_hygiene.rs"),
    );
    let got = passes::panic_hygiene::check_file(&f);
    assert_eq!(
        codes_and_lines(&got),
        [(codes::PANIC_UNWRAP, 5), (codes::PANIC_UNWRAP, 9)]
    );
}

#[test]
fn cfg_test_fixture_is_silent_for_every_pass() {
    let f = SourceFile::parse(
        "crates/fp/src/fixture.rs",
        include_str!("fixtures/cfg_test_skip.rs"),
    );
    assert!(passes::unsafe_hygiene::check_file(&f).is_empty());
    assert!(passes::determinism::check_file(&f).is_empty());
    assert!(passes::panic_hygiene::check_file(&f).is_empty());
    assert!(passes::diag_registry::extract_sites(&f).is_empty());
}

#[test]
fn diag_registry_fixture_flags_duplicates_and_the_gap() {
    let f = SourceFile::parse(
        "crates/models/src/fixture.rs",
        include_str!("fixtures/diag_registry.rs"),
    );
    let sites = passes::diag_registry::extract_sites(&f);
    assert_eq!(sites.len(), 4);
    // With every tag documented, only the structural findings remain:
    // duplicate id at the later `("fix", 2, …)`, duplicate name at the
    // later `"beta"`, and the gap anchored at the max-id site.
    let got = passes::diag_registry::check(&sites, "FIX0001 FIX0002 FIX0004");
    assert_eq!(
        codes_and_lines(&got),
        [
            (codes::DIAG_DUPLICATE_ID, 6),
            (codes::DIAG_DUPLICATE_NAME, 7),
            (codes::DIAG_GAP, 7),
        ]
    );
    // Dropping a tag from the table adds the undocumented finding.
    let undoc = passes::diag_registry::check(&sites, "FIX0001 FIX0002");
    assert!(undoc
        .iter()
        .any(|f| f.code == codes::DIAG_UNDOCUMENTED && f.message.contains("FIX0004")));
}
