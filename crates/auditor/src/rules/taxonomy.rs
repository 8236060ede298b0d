//! **error-taxonomy** — the serve wire protocol's `ErrorKind` enum is the
//! contract clients dispatch on, so it must stay total:
//!
//! 1. every variant maps to **exactly one** HTTP status arm in
//!    `ErrorKind::status` (zero = unreachable on the wire, two = ambiguous);
//! 2. every variant appears in at least one integration test
//!    (`crates/serve/tests` or `crates/cli/tests`), either as
//!    `ErrorKind::Variant` or as its kebab-case wire string — an error kind
//!    nobody can produce in a test is an error kind nobody has ever seen.

use super::{in_tests_dir, RuleId, Workspace};
use crate::diag::Diagnostic;
use crate::source::SourceFile;

/// Run the rule. A workspace without `crates/serve/src/protocol.rs` (e.g. a
/// fixture set for other rules) produces no findings.
pub fn check(ws: &Workspace) -> Vec<Diagnostic> {
    let Some(protocol) = ws.file_ending_with("crates/serve/src/protocol.rs") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let rule = RuleId::ErrorTaxonomy.id();

    let variants = enum_variants(protocol, "ErrorKind");
    if variants.is_empty() {
        out.push(Diagnostic::new(
            rule,
            &protocol.path,
            1,
            "could not locate `enum ErrorKind` in the protocol module",
        ));
        return out;
    }

    let status_body = fn_body_tokens(protocol, "status");
    for (name, line) in &variants {
        let mentions = count_variant_mentions(protocol, &status_body, name);
        if mentions == 0 {
            out.push(Diagnostic::new(
                rule,
                &protocol.path,
                *line,
                format!("ErrorKind::{name} has no arm in ErrorKind::status(); every kind needs exactly one HTTP status"),
            ));
        } else if mentions > 1 {
            out.push(Diagnostic::new(
                rule,
                &protocol.path,
                *line,
                format!("ErrorKind::{name} appears in {mentions} status arms; the kind→status map must be one-to-one"),
            ));
        }

        let kebab = kebab_case(name);
        let tested = ws.files.iter().any(|f| {
            in_tests_dir(&f.path) && (references_variant(f, name) || contains_str(f, &kebab))
        });
        if !tested {
            out.push(Diagnostic::new(
                rule,
                &protocol.path,
                *line,
                format!(
                    "ErrorKind::{name} ({kebab:?}) is asserted by no integration test under crates/*/tests"
                ),
            ));
        }
    }
    out
}

/// `(variant, line)` pairs of a payload-free enum's variants.
fn enum_variants(file: &SourceFile, enum_name: &str) -> Vec<(String, u32)> {
    let code = file.code_indexes();
    let mut out = Vec::new();
    let mut c = 0usize;
    while c + 2 < code.len() {
        if file.tokens[code[c]].is_ident("enum")
            && file.tokens[code[c + 1]].is_ident(enum_name)
            && file.tokens[code[c + 2]].is_punct('{')
        {
            let mut depth = 1usize;
            let mut j = c + 3;
            let mut at_variant_position = true;
            while j < code.len() && depth > 0 {
                let t = &file.tokens[code[j]];
                if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
                    depth += 1;
                } else if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') {
                    depth -= 1;
                } else if depth == 1 {
                    if t.is_punct(',') {
                        at_variant_position = true;
                    } else if t.is_punct('#') {
                        // Attribute on the next variant; skip its `[...]`.
                    } else if at_variant_position && t.kind == crate::lexer::TokenKind::Ident {
                        out.push((t.text.clone(), t.line));
                        at_variant_position = false;
                    }
                }
                j += 1;
            }
            return out;
        }
        c += 1;
    }
    out
}

/// Token indexes of the body of `fn <name>` (first match in the file).
fn fn_body_tokens(file: &SourceFile, fn_name: &str) -> Vec<usize> {
    let code = file.code_indexes();
    let mut c = 0usize;
    while c + 1 < code.len() {
        if file.tokens[code[c]].is_ident("fn") && file.tokens[code[c + 1]].is_ident(fn_name) {
            // Find the opening brace of the body.
            let mut j = c + 2;
            while j < code.len() && !file.tokens[code[j]].is_punct('{') {
                j += 1;
            }
            let mut depth = 0usize;
            let start = j;
            while j < code.len() {
                let t = &file.tokens[code[j]];
                if t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        return code[start..=j].to_vec();
                    }
                }
                j += 1;
            }
            return code[start..].to_vec();
        }
        c += 1;
    }
    Vec::new()
}

/// Occurrences of `ErrorKind::<variant>` (or `Self::<variant>`) within the
/// given token indexes; `::` is two `:` punct tokens.
fn count_variant_mentions(file: &SourceFile, body: &[usize], variant: &str) -> usize {
    body.windows(4)
        .filter(|w| {
            (file.tokens[w[0]].is_ident("ErrorKind") || file.tokens[w[0]].is_ident("Self"))
                && file.tokens[w[1]].is_punct(':')
                && file.tokens[w[2]].is_punct(':')
                && file.tokens[w[3]].is_ident(variant)
        })
        .count()
}

/// Does the file reference `ErrorKind::<variant>` anywhere (tests included)?
fn references_variant(file: &SourceFile, variant: &str) -> bool {
    let code = file.code_indexes();
    code.windows(4).any(|w| {
        file.tokens[w[0]].is_ident("ErrorKind")
            && file.tokens[w[1]].is_punct(':')
            && file.tokens[w[2]].is_punct(':')
            && file.tokens[w[3]].is_ident(variant)
    })
}

/// Does any string literal in the file contain `needle`?
fn contains_str(file: &SourceFile, needle: &str) -> bool {
    file.tokens
        .iter()
        .any(|t| t.kind == crate::lexer::TokenKind::Str && t.text.contains(needle))
}

/// `WindowLengthMismatch` → `window-length-mismatch` (serde kebab-case).
fn kebab_case(name: &str) -> String {
    let mut out = String::new();
    for (i, c) in name.chars().enumerate() {
        if c.is_uppercase() {
            if i > 0 {
                out.push('-');
            }
            out.extend(c.to_lowercase());
        } else {
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;
    use std::path::PathBuf;

    const PROTOCOL_OK: &str = "pub enum ErrorKind {\n    BadRequest,\n    Overloaded,\n}\nimpl ErrorKind {\n    pub fn status(self) -> u16 {\n        match self {\n            ErrorKind::BadRequest => 400,\n            ErrorKind::Overloaded => 429,\n        }\n    }\n}\n";

    fn ws(protocol: &str, test_src: &str) -> Workspace {
        Workspace {
            files: vec![
                SourceFile::parse(PathBuf::from("crates/serve/src/protocol.rs"), protocol),
                SourceFile::parse(PathBuf::from("crates/serve/tests/protocol.rs"), test_src),
            ],
            ..Default::default()
        }
    }

    #[test]
    fn complete_taxonomy_passes() {
        let w = ws(
            PROTOCOL_OK,
            "fn t() { assert_eq!(r.kind, ErrorKind::BadRequest); check(\"overloaded\"); }",
        );
        assert!(check(&w).is_empty());
    }

    #[test]
    fn kebab_string_counts_as_test_coverage() {
        let w = ws(
            PROTOCOL_OK,
            "fn t() { assert!(body.contains(\"bad-request\")); assert!(b2.contains(\"overloaded\")); }",
        );
        assert!(check(&w).is_empty());
    }

    #[test]
    fn missing_status_arm_trips() {
        let proto = "pub enum ErrorKind {\n    BadRequest,\n    Overloaded,\n}\nimpl ErrorKind {\n    pub fn status(self) -> u16 {\n        match self {\n            ErrorKind::BadRequest => 400,\n            _ => 500,\n        }\n    }\n}\n";
        let w = ws(
            proto,
            "fn t() { ErrorKind::BadRequest; ErrorKind::Overloaded; }",
        );
        let d = check(&w);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("no arm"), "{}", d[0].message);
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn duplicate_status_arm_trips() {
        let proto = "pub enum ErrorKind {\n    BadRequest,\n}\nimpl ErrorKind {\n    pub fn status(self) -> u16 {\n        match self {\n            ErrorKind::BadRequest => 400,\n        }\n    }\n    pub fn other(self) {}\n}\nfn unrelated() { let x = ErrorKind::BadRequest; }\n";
        // A second mention inside status() itself:
        let proto_dup = proto.replace(
            "ErrorKind::BadRequest => 400,",
            "ErrorKind::BadRequest => 400,\n            ErrorKind::BadRequest => 401,",
        );
        let w = ws(&proto_dup, "fn t() { ErrorKind::BadRequest; }");
        let d = check(&w);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("2 status arms"), "{}", d[0].message);
    }

    #[test]
    fn untested_variant_trips() {
        let w = ws(PROTOCOL_OK, "fn t() { ErrorKind::BadRequest; }");
        let d = check(&w);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("Overloaded"), "{}", d[0].message);
        assert!(d[0].message.contains("no integration test"));
    }

    #[test]
    fn doc_comments_on_variants_are_skipped() {
        let proto = "pub enum ErrorKind {\n    /// Body was bad.\n    BadRequest,\n}\nimpl ErrorKind {\n    pub fn status(self) -> u16 {\n        match self { ErrorKind::BadRequest => 400 }\n    }\n}\n";
        let w = ws(proto, "fn t() { ErrorKind::BadRequest; }");
        assert!(check(&w).is_empty());
    }

    #[test]
    fn kebab_conversion() {
        assert_eq!(kebab_case("WindowLengthMismatch"), "window-length-mismatch");
        assert_eq!(kebab_case("Overloaded"), "overloaded");
    }

    #[test]
    fn absent_protocol_is_no_finding() {
        let w = Workspace {
            files: vec![SourceFile::parse(
                PathBuf::from("crates/core/src/engine.rs"),
                "fn f() {}",
            )],
            ..Default::default()
        };
        assert!(check(&w).is_empty());
    }
}
