//! `.unwrap()`/`.expect(` inside `macro_rules!` bodies.
//!
//! `clippy::{unwrap_used, expect_used}` skip macro bodies, so a panic
//! there escapes the crate's `#![deny]`. Each such site is listed in
//! [`MACRO_PANICS`] and says at the site why it cannot fire.

/// The files with macro-body panics and how many each holds.
pub const MACRO_PANICS: [(&str, usize); 0] = [];

/// 1-based lines of the `.unwrap()`/`.expect(` calls inside the
/// `macro_rules!` definitions of `text`, one entry per call. A definition
/// starts its line, and comment text is not code.
pub fn macro_panic_lines(text: &str) -> Vec<usize> {
    let mut out = Vec::new();
    // Inside a definition; its brace depth once the body has opened.
    let (mut in_macro, mut depth) = (false, None::<usize>);
    for (i, line) in text.lines().enumerate() {
        if !in_macro && line.trim_start().starts_with("macro_rules!") {
            (in_macro, depth) = (true, None);
        }
        if !in_macro {
            continue;
        }
        let code = line.find("//").map_or(line, |c| &line[..c]);
        let calls = code.matches(".unwrap()").count() + code.matches(".expect(").count();
        out.extend(std::iter::repeat_n(i + 1, calls));
        for c in code.chars() {
            match c {
                '{' => depth = Some(depth.unwrap_or(0) + 1),
                '}' => depth = depth.map(|d| d.saturating_sub(1)),
                _ => {}
            }
        }
        in_macro = depth != Some(0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_unwrap_and_expect_are_flagged() {
        let src = "macro_rules! m {\n    ($x:expr) => {{\n        $x.unwrap();\n        \
                   $x.expect(\"y\")\n    }};\n}\nfn f(v: Option<u8>) -> u8 { v.unwrap() }\n";
        assert_eq!(macro_panic_lines(src), [3, 4]);
    }

    #[test]
    fn doc_example_unwrap_is_comment_text() {
        let src = "/// `x.unwrap()` in a doc example.\nmacro_rules! m {\n    \
                   // never `.unwrap()` here\n    () => {};\n}\n";
        assert!(macro_panic_lines(src).is_empty());
    }

    #[test]
    fn unwrap_or_variants_are_not_unwrap() {
        let src = "macro_rules! m {\n    ($x:expr) => { $x.unwrap_or(0) + $x.unwrap_or_default() \
                   + $x.expect_err(\"e\") };\n}\n";
        assert!(macro_panic_lines(src).is_empty());
    }
}
