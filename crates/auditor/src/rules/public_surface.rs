//! **public-surface** — a crate exposes the items its callers use, and
//! nothing else.
//!
//! *Subject.* Every `pub fn|struct|enum|const|type|trait|static|mod` item
//! (the pattern `tools/size_report.py` counts) in a crate's library sources:
//! `crates/<name>/src/**` minus `src/main.rs` and `src/bin/**`, outside
//! `#[cfg(test)]` items. `pub(crate)` and other restricted visibilities are
//! not subjects.
//!
//! *Caller.* A file outside the item's own library: another crate's `src/`,
//! any `crates/*/tests/` or `crates/*/benches/`, the package's own
//! `src/main.rs` and `src/bin/**`, the root facade's `src/`, `tests/` and
//! `examples/`, and `evobench/src/`. The last group is read from
//! [`Workspace::refs`], so no other rule's scope grows.
//!
//! *Live.* An item is live when its name appears as an identifier token in a
//! caller; comments and string literals never count. A name in the signature
//! of a live item of the same crate is live too, transitively. The signature
//! covers a fn's parameters, return type and where-clause; a struct's
//! generics and `pub` fields; an enum's payloads; a trait's body; an alias's
//! right-hand side; a const's or static's type. The names a signature binds
//! (a parameter, field or generic name followed by a single `:`) are not
//! uses. Every other subject is reported: delete it if nothing calls it, or
//! narrow it to `pub(crate)`.
//!
//! *Blind spot.* Matching is by name, not by path: a common name (`new`,
//! `len`, `Error`) used anywhere in a caller keeps every same-named item
//! alive, in every crate. The rule can therefore miss dead items, but it
//! never flags an item that a caller names.

use super::{RuleId, Workspace};
use crate::diag::Diagnostic;
use crate::lexer::{Token, TokenKind};
use crate::source::SourceFile;
use std::collections::{BTreeMap, BTreeSet};

/// Item keywords that make a `pub` declaration a subject.
const ITEM_KEYWORDS: [&str; 8] = [
    "fn", "struct", "enum", "const", "type", "trait", "static", "mod",
];

/// One `pub` item in a library source.
struct Item<'a> {
    file: &'a SourceFile,
    line: u32,
    keyword: &'a str,
    name: &'a str,
    /// Identifier names in the item's signature.
    signature: BTreeSet<&'a str>,
}

/// Run the rule over the workspace's files and reference files.
pub fn check(ws: &Workspace) -> Vec<Diagnostic> {
    // One identifier index over every file: name → the libraries naming it,
    // with `None` standing for any file that is no crate's library.
    let mut index: BTreeMap<&str, BTreeSet<Option<&str>>> = BTreeMap::new();
    for file in ws.files.iter().chain(&ws.refs) {
        let lib = lib_crate(file);
        for t in file.tokens.iter().filter(|t| t.kind == TokenKind::Ident) {
            index.entry(t.text.as_str()).or_default().insert(lib);
        }
    }

    let mut by_crate: BTreeMap<&str, Vec<Item>> = BTreeMap::new();
    for file in &ws.files {
        if let Some(krate) = lib_crate(file) {
            by_crate.entry(krate).or_default().extend(items(file));
        }
    }

    let mut out = Vec::new();
    for (krate, items) in &by_crate {
        let mut live: Vec<bool> = items
            .iter()
            .map(|it| {
                index
                    .get(it.name)
                    .is_some_and(|seen| seen.iter().any(|&c| c != Some(*krate)))
            })
            .collect();
        // Close over signatures: whatever a live item's signature names is
        // reachable by its callers.
        let mut work: Vec<usize> = (0..items.len()).filter(|&i| live[i]).collect();
        while let Some(i) = work.pop() {
            for (j, other) in items.iter().enumerate() {
                if !live[j] && items[i].signature.contains(other.name) {
                    live[j] = true;
                    work.push(j);
                }
            }
        }
        for (it, _) in items.iter().zip(&live).filter(|(_, &l)| !l) {
            out.push(Diagnostic::new(
                RuleId::PublicSurface.id(),
                &it.file.path,
                it.line,
                format!(
                    "`pub {} {}` is named nowhere outside crate `{krate}` and in no live \
                     public signature; delete it or narrow it to `pub(crate)`",
                    it.keyword, it.name
                ),
            ));
        }
    }
    out
}

/// The crate whose library `file` belongs to: `crates/<name>/src/**`, except
/// the package's `src/main.rs` and `src/bin/**`.
fn lib_crate(file: &SourceFile) -> Option<&str> {
    let parts: Vec<&str> = file.path.iter().map(|p| p.to_str().unwrap_or("")).collect();
    let at = parts.iter().rposition(|&p| p == "crates")?;
    match &parts[at + 1..] {
        [_, "src", "main.rs"] | [_, "src", "bin", ..] => None,
        [krate, "src", _, ..] => Some(*krate),
        _ => None,
    }
}

/// Every non-test `pub` item declared in `file`, with its signature names.
fn items(file: &SourceFile) -> Vec<Item<'_>> {
    let code: Vec<&Token> = file
        .code_indexes()
        .into_iter()
        .filter(|&i| !file.in_test(i))
        .map(|i| &file.tokens[i])
        .collect();
    let mut out = Vec::new();
    for (k, t) in code.iter().enumerate() {
        if !t.is_ident("pub") {
            continue;
        }
        // `pub const fn`, `pub extern "C" fn` and the like are fns; any
        // other `pub const` is a const.
        let mut kw = k + 1;
        while code.get(kw).is_some_and(|q| {
            q.kind == TokenKind::Str
                || ["const", "unsafe", "async", "extern"].contains(&q.text.as_str())
        }) {
            kw += 1;
        }
        if !code.get(kw).is_some_and(|t| t.is_ident("fn")) {
            kw = k + 1;
        }
        let (Some(keyword), Some(name)) = (code.get(kw), code.get(kw + 1)) else {
            continue;
        };
        if keyword.kind != TokenKind::Ident
            || !ITEM_KEYWORDS.contains(&keyword.text.as_str())
            || name.kind != TokenKind::Ident
        {
            continue;
        }
        let rest = &code[kw + 2..];
        let signature = match keyword.text.as_str() {
            "fn" | "type" => idents(until_body(rest)),
            "const" | "static" => idents(const_type(rest)),
            "enum" | "trait" => idents(through_block(rest)),
            "struct" => struct_signature(rest),
            _ => BTreeSet::new(),
        };
        out.push(Item {
            file,
            line: t.line,
            keyword: keyword.text.as_str(),
            name: name.text.as_str(),
            signature,
        });
    }
    out
}

/// Identifier names used in `tokens`, leaving out the names they bind.
fn idents<'a>(tokens: &[&'a Token]) -> BTreeSet<&'a str> {
    (0..tokens.len())
        .filter(|&i| tokens[i].kind == TokenKind::Ident && !binds(tokens, i))
        .map(|i| tokens[i].text.as_str())
        .collect()
}

/// Is token `i` a name being bound — a parameter, field or generic name
/// followed by a single `:` — rather than a name being used?
fn binds(tokens: &[&Token], i: usize) -> bool {
    tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
        && !tokens.get(i + 2).is_some_and(|t| t.is_punct(':'))
}

/// Tokens up to the first `{` or `;` outside parentheses and brackets: a
/// fn's parameters, return type and where-clause, or an alias's right-hand
/// side.
fn until_body<'a, 'b>(rest: &'b [&'a Token]) -> &'b [&'a Token] {
    let mut depth = 0usize;
    for (i, t) in rest.iter().enumerate() {
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth = depth.saturating_sub(1);
        } else if depth == 0 && (t.is_punct('{') || t.is_punct(';')) {
            return &rest[..i];
        }
    }
    rest
}

/// A const's or static's type: the tokens between `:` and `=`.
fn const_type<'a, 'b>(rest: &'b [&'a Token]) -> &'b [&'a Token] {
    let end = rest
        .iter()
        .position(|t| t.is_punct('=') || t.is_punct(';'))
        .unwrap_or(rest.len());
    &rest[..end]
}

/// Tokens through the first brace block closed at depth zero (generics,
/// bounds and the whole body).
fn through_block<'a, 'b>(rest: &'b [&'a Token]) -> &'b [&'a Token] {
    let mut depth = 0usize;
    for (i, t) in rest.iter().enumerate() {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return &rest[..=i];
            }
        } else if depth == 0 && t.is_punct(';') {
            return &rest[..i];
        }
    }
    rest
}

/// A struct's generics and where-clause plus the types of its `pub` fields,
/// named or tuple.
fn struct_signature<'a>(rest: &[&'a Token]) -> BTreeSet<&'a str> {
    let Some(open) = rest
        .iter()
        .position(|t| t.is_punct('{') || t.is_punct('(') || t.is_punct(';'))
    else {
        return idents(rest);
    };
    let mut names = idents(&rest[..open]);
    if rest[open].is_punct(';') {
        return names;
    }
    // Walk the field list to its closing bracket; `depth` counts every
    // bracket kind, with `<`/`>` as type brackets (a `->` is not a closer).
    let mut depth = 1usize;
    let mut in_pub_field = false;
    for at in open + 1..rest.len() {
        let t = rest[at];
        let closes_angle = t.is_punct('>') && !rest[at - 1].is_punct('-');
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') || t.is_punct('<') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') || closes_angle {
            depth -= 1;
            if depth == 0 {
                break;
            }
        }
        if depth == 1 && t.is_punct(',') {
            in_pub_field = false;
        } else if depth == 1 && t.is_ident("pub") {
            in_pub_field = !rest.get(at + 1).is_some_and(|n| n.is_punct('('));
        } else if in_pub_field && t.kind == TokenKind::Ident && !binds(rest, at) {
            names.insert(t.text.as_str());
        }
    }
    names
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn findings(lib: &str, caller: &str) -> Vec<String> {
        let ws = Workspace {
            files: vec![
                SourceFile::parse(PathBuf::from("crates/a/src/lib.rs"), lib),
                SourceFile::parse(PathBuf::from("crates/b/src/lib.rs"), caller),
            ],
            ..Default::default()
        };
        let mut names: Vec<String> = check(&ws)
            .iter()
            .map(|d| d.message.split('`').nth(1).unwrap_or("").to_string())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn struct_fields_keep_every_generic_argument_and_fn_pointer_type() {
        let lib = concat!(
            "pub fn live() -> S { todo!() }\n",
            "pub struct S { pub map: Map<K, V>, pub f: fn(A) -> B, hidden: H }\n",
            "pub struct K; pub struct V; pub struct A; pub struct B; pub struct H;\n",
        );
        assert_eq!(findings(lib, "fn f() { a::live(); }"), ["pub struct H"]);
    }

    #[test]
    fn names_a_signature_binds_are_not_uses() {
        // `inputs` is a parameter name and `width` a field name of live items.
        let lib = concat!(
            "pub fn new(inputs: usize) -> Net { todo!() }\n",
            "pub struct Net { pub width: usize }\n",
            "impl Net { pub fn inputs(&self) {} pub fn width(&self) {} }\n",
        );
        assert_eq!(
            findings(lib, "fn f() { a::new(1); }"),
            ["pub fn inputs", "pub fn width"]
        );
    }

    #[test]
    fn qualified_fns_are_subjects_and_restricted_items_are_not() {
        let lib = concat!(
            "pub const fn c() {} pub extern \"C\" fn e() {} pub(crate) fn r() {}\n",
            "pub const K: T = T; pub struct T;\n",
        );
        assert_eq!(findings(lib, "fn f() { a::K; }"), ["pub fn c", "pub fn e"]);
    }

    #[test]
    fn binaries_are_callers_not_subjects() {
        let ws = Workspace {
            files: vec![
                SourceFile::parse(PathBuf::from("crates/a/src/lib.rs"), "pub fn run() {}"),
                SourceFile::parse(
                    PathBuf::from("crates/a/src/bin/tool.rs"),
                    "pub fn unused() {} fn main() { a::run(); }",
                ),
            ],
            ..Default::default()
        };
        assert!(check(&ws).is_empty());
    }
}
