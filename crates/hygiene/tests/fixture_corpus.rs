//! Each check, run on a seeded-violation file under `tests/fixtures/`,
//! reports exactly the seeded sites and nothing else.

use srmac_hygiene::passes::{diag_registry, panic_hygiene, unsafe_hygiene};

const UNSAFE: &str = include_str!("fixtures/unsafe_hygiene.rs");

#[test]
fn unsafe_fixture_under_an_allowlisted_path() {
    assert!(unsafe_hygiene::check_file("crates/qgemm/src/engine.rs", UNSAFE).is_empty());
}

#[test]
fn unsafe_fixture_outside_the_allowlist() {
    let file = "crates/qgemm/src/spec.rs";
    assert_eq!(
        unsafe_hygiene::check_file(file, UNSAFE),
        [
            format!("{file}:7: `#[allow(unsafe_code)]`"),
            format!("{file}:15: `#[allow(unsafe_code)]`"),
        ]
    );
    assert_eq!(
        unsafe_hygiene::check_file("crates/fp/src/x.rs", UNSAFE).len(),
        2
    );
}

#[test]
fn panic_fixture_flags_the_two_seeded_sites() {
    let src = include_str!("fixtures/panic_hygiene.rs");
    assert_eq!(panic_hygiene::macro_panic_lines(src), [8, 9]);
}

#[test]
fn diag_registry_fixture_flags_duplicates_and_the_gap() {
    let codes = diag_registry::extract(include_str!("fixtures/diag_registry.rs")).unwrap();
    assert_eq!(codes.len(), 4);
    assert_eq!(
        diag_registry::check(&codes),
        [
            "FIX0002: duplicate or zero id (fix::gamma)",
            "fix::beta: duplicate name (FIX0004)",
            "namespace `fix`: ids must be 1..=k, missing 3",
        ]
    );
    // A table row per code but FIX0004's: one undocumented finding.
    let rows: String = codes[..3]
        .iter()
        .map(|c| format!("| `{}` | `{}` |\n", c.tag(), c.path()))
        .collect();
    let got = diag_registry::check_readme(&codes, &format!("### Diagnostic codes\n\n{rows}"));
    assert_eq!(got, ["FIX0004 (fix::beta): undocumented, no README row"]);
}
