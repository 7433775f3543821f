//! Crate-root headers and the `unsafe` allowlist.
//!
//! rustc enforces `#![forbid(unsafe_code)]` once it is there, and clippy
//! the `// SAFETY:` comments; these checks keep a header from being
//! dropped and an `allow(unsafe_code)` from spreading.

/// The one crate allowed `unsafe`: its root denies it, and only
/// [`UNSAFE_FILES`] may lift the deny, site by site.
pub const UNSAFE_SRC: &str = "crates/qgemm/src";
/// The SIMD kernel files that may carry `#[allow(unsafe_code)]`.
pub const UNSAFE_FILES: [&str; 3] = [
    "crates/qgemm/src/batch.rs",
    "crates/qgemm/src/engine.rs",
    "crates/qgemm/src/fastmath.rs",
];
/// Exempt from the panic ban: its binaries are operator tools where a
/// panic on a bad flag is the interface.
pub const PANIC_EXEMPT_SRC: &str = "crates/bench/src";
const PANIC_BAN: &str = "#![deny(clippy::unwrap_used, clippy::expect_used)]";

/// The `src` directory a workspace-relative path lives under.
fn src_dir(file: &str) -> &str {
    file.find("src/").map_or(file, |i| &file[..i + 3])
}

fn unsafe_header(src: &str) -> &'static str {
    if src == UNSAFE_SRC {
        "#![deny(unsafe_code)]"
    } else {
        "#![forbid(unsafe_code)]"
    }
}

/// Findings for a crate root (`lib.rs`) or binary: each required header
/// that is not a line of its own. Binaries need only the `unsafe` header.
pub fn check_headers(file: &str, text: &str) -> Vec<String> {
    let src = src_dir(file);
    let mut required = vec![unsafe_header(src)];
    if file.ends_with("lib.rs") && src != PANIC_EXEMPT_SRC {
        required.push(PANIC_BAN);
    }
    if file.ends_with("lib.rs") && src == UNSAFE_SRC {
        required.push("#![deny(clippy::undocumented_unsafe_blocks)]");
    }
    required
        .into_iter()
        .filter(|h| !text.lines().any(|l| l.trim() == *h))
        .map(|h| format!("{file}: missing `{h}`"))
        .collect()
}

/// Findings for any source file: an attribute naming `unsafe_code` that
/// is neither its crate's header nor an `#[allow(unsafe_code)]` in one of
/// [`UNSAFE_FILES`].
pub fn check_file(file: &str, text: &str) -> Vec<String> {
    let src = src_dir(file);
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if !line.starts_with('#') || !line.contains("unsafe_code") {
            continue;
        }
        let header = line == unsafe_header(src);
        let lifted = line == "#[allow(unsafe_code)]" && UNSAFE_FILES.contains(&file);
        if !header && !lifted {
            out.push(format!("{file}:{}: `{line}`", i + 1));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const BAN: &str = "#![deny(clippy::unwrap_used, clippy::expect_used)]\n";

    #[test]
    fn header_accepts_exact_level_only() {
        let fp = "crates/fp/src/lib.rs";
        assert!(check_headers(fp, &format!("#![forbid(unsafe_code)]\n{BAN}")).is_empty());
        let deny = format!("#![deny(unsafe_code)]\n{BAN}");
        assert_eq!(check_headers(fp, &deny).len(), 1);
        assert_eq!(check_file(fp, &deny).len(), 1);
        // qgemm denies rather than forbids, so its SIMD files can lift it.
        let qgemm = "crates/qgemm/src/lib.rs";
        let forbid = format!("#![forbid(unsafe_code)]\n{BAN}");
        assert!(check_headers(qgemm, &forbid)[0].contains("#![deny(unsafe_code)]"));
    }

    #[test]
    fn header_in_a_comment_does_not_count() {
        let src = format!("// #![forbid(unsafe_code)]\n{BAN}");
        let got = check_headers("crates/rng/src/lib.rs", &src);
        assert_eq!(
            got,
            ["crates/rng/src/lib.rs: missing `#![forbid(unsafe_code)]`"]
        );
    }

    #[test]
    fn unsafe_outside_allowlist_is_flagged_even_with_safety() {
        let src = "fn f() {}\n    #[allow(unsafe_code)]\n    // SAFETY: sound.\n";
        assert!(check_file("crates/qgemm/src/engine.rs", src).is_empty());
        let got = check_file("crates/qgemm/src/spec.rs", src);
        assert_eq!(got, ["crates/qgemm/src/spec.rs:2: `#[allow(unsafe_code)]`"]);
    }
}
