//! # srmac-hygiene: the workspace checks rustc and clippy cannot see
//!
//! Pure functions over source text, one module per rule family: the
//! crate-root lint headers and the `unsafe` allowlist
//! ([`passes::unsafe_hygiene`]), panics inside `macro_rules!` bodies
//! ([`passes::panic_hygiene`]) and the diagnostic-code registry against
//! the README table ([`passes::diag_registry`]). Each check returns its
//! findings as `file:line: message` strings; an empty list is clean.
//!
//! The root `tests/hygiene.rs` runs the checks over the workspace; the
//! unit tests and `tests/fixture_corpus.rs` pin each rule on seeded
//! violations. Everything else is the compiler's job (see the README's
//! "Enforced contracts").

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod passes {
    pub mod diag_registry;
    pub mod panic_hygiene;
    pub mod unsafe_hygiene;
}
