//! Lint findings: stable namespaced codes and the three renderers
//! (human / short / JSON), mirroring the `srmac_models::diag` style so a
//! lint finding reads exactly like a runtime diagnostic — same
//! `error[LINT0007]` shape, same one-line and JSON forms — without this
//! crate depending on any workspace crate.
//!
//! Also the committed-baseline machinery for incremental adoption: a
//! baseline file lists `code path count` lines; findings covered by the
//! baseline are reported but don't fail `--ci`. The merge target is an
//! *empty* baseline, and stale entries (covering nothing) are themselves
//! findings so the file can only shrink.

/// A stable lint code: `lint::<name>` plus the numeric `LINT00xx` tag.
/// The registry pass applies the same rules to these as to the runtime
/// `DiagCode`s: unique ids, unique names, contiguous numbering, and a
/// README table row per tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LintCode {
    /// The namespace; always `"lint"` for this tool.
    pub namespace: &'static str,
    /// Unique, contiguous id within the namespace.
    pub id: u16,
    /// Kebab-case unique name (`"panic-unwrap"`).
    pub name: &'static str,
}

impl LintCode {
    /// Declares a code.
    #[must_use]
    pub const fn new(namespace: &'static str, id: u16, name: &'static str) -> Self {
        Self {
            namespace,
            id,
            name,
        }
    }

    /// The compact stable tag, e.g. `LINT0007`.
    #[must_use]
    pub fn tag(&self) -> String {
        format!("{}{:04}", self.namespace.to_uppercase(), self.id)
    }

    /// The namespaced name, e.g. `lint::panic-unwrap`.
    #[must_use]
    pub fn path(&self) -> String {
        format!("{}::{}", self.namespace, self.name)
    }
}

/// Every code this tool can emit, in tag order. `LINT0001..` are the
/// findings; the registry pass checks this table stays contiguous too.
pub mod codes {
    use super::LintCode;

    /// An `unsafe` block/fn without an immediately preceding
    /// `// SAFETY:` comment (attributes may sit between).
    pub const UNSAFE_MISSING_SAFETY: LintCode = LintCode::new("lint", 1, "unsafe-missing-safety");
    /// `unsafe` used in a file outside the unsafe allowlist.
    pub const UNSAFE_OUTSIDE_ALLOWLIST: LintCode =
        LintCode::new("lint", 2, "unsafe-outside-allowlist");
    /// A crate root missing the `#![forbid(unsafe_code)]` /
    /// `#![deny(unsafe_code)]` header its policy row declares.
    pub const MISSING_POLICY_HEADER: LintCode = LintCode::new("lint", 3, "missing-policy-header");
    /// `HashMap`/`HashSet` (iteration-order-nondeterministic) in an
    /// order-sensitive crate.
    pub const HASH_COLLECTION: LintCode = LintCode::new("lint", 4, "hash-collection");
    /// `Instant`/`SystemTime` (wall-clock) in a numerics crate.
    pub const WALL_CLOCK: LintCode = LintCode::new("lint", 5, "wall-clock");
    /// Thread creation (`spawn`/`thread::scope`) outside the allowlist.
    pub const THREAD_SPAWN: LintCode = LintCode::new("lint", 6, "thread-spawn");
    /// `.unwrap()` / `.expect(` in non-test library code without a
    /// `// PANIC-OK:` justification.
    pub const PANIC_UNWRAP: LintCode = LintCode::new("lint", 7, "panic-unwrap");
    /// Two `DiagCode`s share a (namespace, id) pair.
    pub const DIAG_DUPLICATE_ID: LintCode = LintCode::new("lint", 8, "diag-duplicate-id");
    /// Two `DiagCode`s share a (namespace, name) pair.
    pub const DIAG_DUPLICATE_NAME: LintCode = LintCode::new("lint", 9, "diag-duplicate-name");
    /// A diagnostic namespace has holes (ids are not 1..=k).
    pub const DIAG_GAP: LintCode = LintCode::new("lint", 10, "diag-gap");
    /// A diagnostic tag missing from the README diagnostics table.
    pub const DIAG_UNDOCUMENTED: LintCode = LintCode::new("lint", 11, "diag-undocumented");
    /// A baseline entry that no current finding matches.
    pub const BASELINE_STALE: LintCode = LintCode::new("lint", 12, "baseline-stale");

    /// All codes, for the self-registry check and `--explain`.
    pub const ALL: [LintCode; 12] = [
        UNSAFE_MISSING_SAFETY,
        UNSAFE_OUTSIDE_ALLOWLIST,
        MISSING_POLICY_HEADER,
        HASH_COLLECTION,
        WALL_CLOCK,
        THREAD_SPAWN,
        PANIC_UNWRAP,
        DIAG_DUPLICATE_ID,
        DIAG_DUPLICATE_NAME,
        DIAG_GAP,
        DIAG_UNDOCUMENTED,
        BASELINE_STALE,
    ];
}

/// One finding: a code anchored at `file:line` with a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// What rule fired.
    pub code: LintCode,
    /// Workspace-relative path (`crates/qgemm/src/engine.rs`).
    pub file: String,
    /// 1-based line, or 0 for whole-file/workspace findings.
    pub line: u32,
    /// Human-readable description of this occurrence.
    pub message: String,
}

impl Finding {
    /// Creates a finding.
    #[must_use]
    pub fn new(
        code: LintCode,
        file: impl Into<String>,
        line: u32,
        message: impl Into<String>,
    ) -> Self {
        Self {
            code,
            file: file.into(),
            line,
            message: message.into(),
        }
    }

    /// The `file:line` anchor (`file` alone when line is 0).
    #[must_use]
    pub fn anchor(&self) -> String {
        if self.line == 0 {
            self.file.clone()
        } else {
            format!("{}:{}", self.file, self.line)
        }
    }

    /// Multi-line terminal rendering, compiler style (the
    /// `srmac_models::diag` human shape plus the source anchor):
    ///
    /// ```text
    /// error[LINT0007]: `.unwrap()` without a PANIC-OK justification
    ///   --> crates/io/src/rotation.rs:151
    ///   = code: lint::panic-unwrap
    /// ```
    #[must_use]
    pub fn render_human(&self) -> String {
        format!(
            "error[{}]: {}\n  --> {}\n  = code: {}",
            self.code.tag(),
            self.message,
            self.anchor(),
            self.code.path()
        )
    }

    /// One-line log rendering:
    /// `E[LINT0007] lint::panic-unwrap: crates/io/src/rotation.rs:151: …`.
    #[must_use]
    pub fn render_short(&self) -> String {
        format!(
            "E[{}] {}: {}: {}",
            self.code.tag(),
            self.code.path(),
            self.anchor(),
            self.message
        )
    }

    /// One JSON object (no trailing newline), same field names as the
    /// runtime diagnostics JSON plus `file`/`line`.
    #[must_use]
    pub fn render_json(&self) -> String {
        format!(
            "{{\"severity\":\"error\",\"code\":\"{}\",\"name\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
            self.code.tag(),
            json_escape(&self.code.path()),
            json_escape(&self.file),
            self.line,
            json_escape(&self.message)
        )
    }
}

/// Escapes a string for a JSON string literal (same contract as
/// `srmac_models::diag::json_escape`).
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The committed baseline: per (code tag, file) counts of *accepted*
/// findings. Lines look like `LINT0007 crates/io/src/rotation.rs 3`;
/// `#` starts a comment. The merge target is an empty file.
#[derive(Debug, Default, Clone)]
pub struct Baseline {
    entries: Vec<(String, String, usize)>,
}

impl Baseline {
    /// Parses baseline text. Malformed lines are errors — a typo must
    /// not silently waive findings.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut entries = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let (Some(tag), Some(file), Some(count)) = (parts.next(), parts.next(), parts.next())
            else {
                return Err(format!(
                    "baseline line {}: expected `TAG path count`",
                    i + 1
                ));
            };
            let count: usize = count
                .parse()
                .map_err(|_| format!("baseline line {}: bad count {count:?}", i + 1))?;
            if parts.next().is_some() {
                return Err(format!("baseline line {}: trailing junk", i + 1));
            }
            entries.push((tag.to_owned(), file.to_owned(), count));
        }
        Ok(Self { entries })
    }

    /// Splits findings into (new, baselined) and appends a
    /// [`codes::BASELINE_STALE`] finding per entry that covered nothing
    /// — the baseline may only shrink.
    #[must_use]
    pub fn apply(&self, findings: Vec<Finding>) -> (Vec<Finding>, Vec<Finding>) {
        let mut budget: Vec<(String, String, usize)> = self.entries.clone();
        let mut fresh = Vec::new();
        let mut accepted = Vec::new();
        for f in findings {
            let tag = f.code.tag();
            match budget
                .iter_mut()
                .find(|(t, file, n)| *t == tag && *file == f.file && *n > 0)
            {
                Some(entry) => {
                    entry.2 -= 1;
                    accepted.push(f);
                }
                None => fresh.push(f),
            }
        }
        for (tag, file, left) in budget {
            if left > 0 {
                fresh.push(Finding::new(
                    codes::BASELINE_STALE,
                    file.clone(),
                    0,
                    format!(
                        "baseline allows {left} more `{tag}` finding(s) in {file} than exist — \
                         remove the stale entry"
                    ),
                ));
            }
        }
        (fresh, accepted)
    }

    /// Renders findings as baseline text (sorted, aggregated).
    #[must_use]
    pub fn render(findings: &[Finding]) -> String {
        let mut counts: Vec<(String, String, usize)> = Vec::new();
        for f in findings {
            let tag = f.code.tag();
            match counts
                .iter_mut()
                .find(|(t, file, _)| *t == tag && *file == f.file)
            {
                Some(e) => e.2 += 1,
                None => counts.push((tag, f.file.clone(), 1)),
            }
        }
        counts.sort();
        let mut out = String::from(
            "# srmac-lint baseline: accepted findings for incremental adoption.\n\
             # Format: TAG path count. The merge target is an empty file; stale\n\
             # entries fail the lint, so this can only shrink.\n",
        );
        for (tag, file, n) in counts {
            out.push_str(&format!("{tag} {file} {n}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_and_paths_match_the_diag_convention() {
        assert_eq!(codes::PANIC_UNWRAP.tag(), "LINT0007");
        assert_eq!(codes::PANIC_UNWRAP.path(), "lint::panic-unwrap");
    }

    #[test]
    fn code_table_is_unique_and_contiguous() {
        // The registry pass re-checks this from source; this is the
        // compiled-in sanity version.
        let mut ids: Vec<u16> = codes::ALL.iter().map(|c| c.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (1..=codes::ALL.len() as u16).collect::<Vec<_>>());
        let mut names: Vec<&str> = codes::ALL.iter().map(|c| c.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), codes::ALL.len());
    }

    #[test]
    fn renderers_match_the_diag_shapes() {
        let f = Finding::new(codes::PANIC_UNWRAP, "crates/x/src/lib.rs", 7, "msg \"q\"");
        assert_eq!(
            f.render_human(),
            "error[LINT0007]: msg \"q\"\n  --> crates/x/src/lib.rs:7\n  = code: lint::panic-unwrap"
        );
        assert_eq!(
            f.render_short(),
            "E[LINT0007] lint::panic-unwrap: crates/x/src/lib.rs:7: msg \"q\""
        );
        assert_eq!(
            f.render_json(),
            "{\"severity\":\"error\",\"code\":\"LINT0007\",\"name\":\"lint::panic-unwrap\",\
             \"file\":\"crates/x/src/lib.rs\",\"line\":7,\"message\":\"msg \\\"q\\\"\"}"
        );
    }

    #[test]
    fn baseline_roundtrip_and_consumption() {
        let f1 = Finding::new(codes::PANIC_UNWRAP, "a.rs", 1, "one");
        let f2 = Finding::new(codes::PANIC_UNWRAP, "a.rs", 2, "two");
        let f3 = Finding::new(codes::HASH_COLLECTION, "b.rs", 3, "three");
        let text = Baseline::render(&[f1.clone(), f2.clone()]);
        let base = Baseline::parse(&text).expect("roundtrip");
        let (fresh, accepted) = base.apply(vec![f1, f2, f3.clone()]);
        assert_eq!(accepted.len(), 2);
        assert_eq!(fresh, vec![f3]);
    }

    #[test]
    fn stale_baseline_entries_become_findings() {
        let base = Baseline::parse("LINT0007 gone.rs 2\n").expect("parse");
        let (fresh, accepted) = base.apply(Vec::new());
        assert!(accepted.is_empty());
        assert_eq!(fresh.len(), 1);
        assert_eq!(fresh[0].code, codes::BASELINE_STALE);
        assert_eq!(fresh[0].file, "gone.rs");
    }

    #[test]
    fn malformed_baseline_is_an_error_not_a_waiver() {
        assert!(Baseline::parse("LINT0007 only-two-fields\n").is_err());
        assert!(Baseline::parse("LINT0007 a.rs not-a-number\n").is_err());
        assert!(Baseline::parse("# comment\n\nLINT0001 a.rs 1\n").is_ok());
    }
}
