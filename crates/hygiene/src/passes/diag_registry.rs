//! The diagnostic-code registry.
//!
//! `srmac_models::diag` promises operators stable, greppable tags
//! (`SERVE0004`, `CKPT0002`, …). These checks keep that promise: each
//! `(namespace, id)` and `(namespace, name)` is unique, ids run `1..=k`
//! per namespace, every declared code is registered, and the README's
//! `### Diagnostic codes` table names exactly the registered codes.

use std::collections::BTreeSet;

/// One `DiagCode::new(namespace, id, name)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Code<'a> {
    /// Lowercase namespace (`"serve"`).
    pub namespace: &'a str,
    /// Id within the namespace.
    pub id: u16,
    /// Kebab-case name (`"worker-panic"`).
    pub name: &'a str,
}

impl Code<'_> {
    /// The stable tag, `SERVE0007`.
    pub fn tag(&self) -> String {
        format!("{}{:04}", self.namespace.to_uppercase(), self.id)
    }

    /// The namespaced name, `serve::worker-panic`.
    pub fn path(&self) -> String {
        format!("{}::{}", self.namespace, self.name)
    }
}

const DECL: &str = "DiagCode = DiagCode::new(";

/// The `…: DiagCode = DiagCode::new("ns", id, "name")` declarations of
/// `text` in order, skipping comment lines. A declaration whose fields
/// are not two string literals around an integer is an error naming its
/// line.
pub fn extract(text: &str) -> Result<Vec<Code<'_>>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let Some(at) = line.find(DECL) else { continue };
        if line.trim_start().starts_with("//") {
            continue;
        }
        let args = line[at + DECL.len()..]
            .split(')')
            .next()
            .unwrap_or_default();
        let code =
            parse(args).ok_or_else(|| format!("line {}: unparsed `{}`", i + 1, line.trim()))?;
        out.push(code);
    }
    Ok(out)
}

/// `"ns", id, "name"` as a [`Code`].
fn parse(args: &str) -> Option<Code<'_>> {
    fn literal(s: &str) -> Option<&str> {
        s.trim().strip_prefix('"')?.strip_suffix('"')
    }
    let mut fields = args.split(',');
    let code = Code {
        namespace: literal(fields.next()?)?,
        id: fields.next()?.trim().parse().ok()?,
        name: literal(fields.next()?)?,
    };
    fields.next().is_none().then_some(code)
}

/// Registry findings: a repeated `(namespace, id)` or `(namespace, name)`,
/// reported at the later code, and ids that do not run `1..=k` per
/// namespace, naming the missing ones.
pub fn check(codes: &[Code<'_>]) -> Vec<String> {
    let mut out = Vec::new();
    let (mut ids, mut names) = (BTreeSet::new(), BTreeSet::new());
    for c in codes {
        if c.id == 0 || !ids.insert((c.namespace, c.id)) {
            out.push(format!("{}: duplicate or zero id ({})", c.tag(), c.path()));
        }
        if !names.insert((c.namespace, c.name)) {
            out.push(format!("{}: duplicate name ({})", c.path(), c.tag()));
        }
    }
    let namespaces: BTreeSet<&str> = codes.iter().map(|c| c.namespace).collect();
    for ns in namespaces {
        let max = ids.range((ns, 0)..=(ns, u16::MAX)).map(|&(_, id)| id).max();
        let missing: Vec<String> = (1..=max.unwrap_or(0))
            .filter(|&id| !ids.contains(&(ns, id)))
            .map(|id| id.to_string())
            .collect();
        if !missing.is_empty() {
            out.push(format!(
                "namespace `{ns}`: ids must be 1..=k, missing {}",
                missing.join(", ")
            ));
        }
    }
    out
}

/// Findings comparing the README's `### Diagnostic codes` table with
/// `codes`, in both directions: a code without a row is undocumented, a
/// row without a code is stale.
pub fn check_readme(codes: &[Code<'_>], readme: &str) -> Vec<String> {
    let Some(table) = readme.split("### Diagnostic codes").nth(1) else {
        return vec!["README has no `### Diagnostic codes` section".to_owned()];
    };
    let documented: BTreeSet<(String, String)> = table
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .filter_map(|row| {
            let mut cells = row.split('|').map(|c| c.trim().trim_matches('`'));
            let (tag, path) = (cells.nth(1)?, cells.next()?);
            (tag != "Tag" && !tag.starts_with('-')).then(|| (tag.to_owned(), path.to_owned()))
        })
        .collect();
    let registered: BTreeSet<(String, String)> =
        codes.iter().map(|c| (c.tag(), c.path())).collect();
    let undocumented = registered.difference(&documented);
    let stale = documented.difference(&registered);
    undocumented
        .map(|(tag, path)| format!("{tag} ({path}): undocumented, no README row"))
        .chain(stale.map(|(tag, path)| format!("{tag} ({path}): stale README row, no such code")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code(namespace: &'static str, id: u16, name: &'static str) -> Code<'static> {
        Code {
            namespace,
            id,
            name,
        }
    }

    #[test]
    fn extracts_the_three_field_shape() {
        let src = "pub const A: DiagCode = DiagCode::new(\"serve\", 4, \"overloaded\");\n\
                   /// const D: DiagCode = DiagCode::new(\"serve\", 7, \"doc\");\n";
        let got = extract(src).unwrap();
        assert_eq!(got, [code("serve", 4, "overloaded")]);
        assert_eq!(got[0].tag(), "SERVE0004");
        let err = extract("const B: DiagCode = DiagCode::new(\"serve\", ID, \"b\");").unwrap_err();
        assert!(err.starts_with("line 1: unparsed"), "{err}");
    }

    #[test]
    fn duplicate_id_and_name_fire_at_the_later_site() {
        let codes = [
            code("serve", 1, "a"),
            code("serve", 1, "b"),
            code("serve", 2, "a"),
        ];
        assert_eq!(
            check(&codes),
            [
                "SERVE0001: duplicate or zero id (serve::b)",
                "serve::a: duplicate name (SERVE0002)"
            ]
        );
    }

    #[test]
    fn gap_detection_names_the_missing_ids() {
        let got = check(&[code("ckpt", 1, "a"), code("ckpt", 4, "d")]);
        assert_eq!(got, ["namespace `ckpt`: ids must be 1..=k, missing 2, 3"]);
        assert_eq!(
            check(&[code("ckpt", 0, "z"), code("ckpt", 1, "a")]).len(),
            1
        );
    }

    #[test]
    fn undocumented_tag_is_flagged() {
        let codes = [code("serve", 1, "a")];
        let got = check_readme(&codes, "### Diagnostic codes\n\nno table here\n");
        assert_eq!(got, ["SERVE0001 (serve::a): undocumented, no README row"]);
        let table =
            "### Diagnostic codes\n\n| Tag | Path |\n|---|---|\n| `SERVE0001` | `serve::a` |\n";
        assert!(check_readme(&codes, table).is_empty());
    }

    #[test]
    fn two_namespaces_are_independent() {
        let codes = [
            code("serve", 1, "a"),
            code("ckpt", 1, "a"),
            code("train", 1, "resume"),
        ];
        assert!(check(&codes).is_empty());
    }
}
