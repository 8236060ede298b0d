//! **panic-freedom** — a worker thread that panics takes a request (or a
//! whole server) down with it, so the serve crate and the core library may
//! not contain reachable panic sites outside tests.
//!
//! Banned in non-test code of `crates/serve/src` and `crates/core/src`:
//! `.unwrap()`, `.expect(...)`, `panic!`, `unreachable!`, `todo!`,
//! `unimplemented!`. In `crates/serve/src` (the request path) bare slice
//! indexing `x[i]` is banned too — a bad index is just a panic with extra
//! steps; use `.get(i)` or prove the bound and allowlist it.
//!
//! Provably-infallible sites stay, but must carry an inline
//! `// audit: allow(panic-freedom) — <why it cannot fire>` so the proof is
//! written down next to the code it protects.

use super::{RuleId, Workspace};
use crate::diag::Diagnostic;
use crate::lexer::TokenKind;
use crate::source::SourceFile;

/// Run the rule over every in-scope file.
pub fn check(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for file in &ws.files {
        let p = file.path.to_string_lossy().replace('\\', "/");
        let serve_scope = p.contains("crates/serve/src/");
        let core_scope = p.contains("crates/core/src/");
        if !serve_scope && !core_scope {
            continue;
        }
        check_file(file, serve_scope, &mut out);
    }
    out
}

const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

fn check_file(file: &SourceFile, serve_scope: bool, out: &mut Vec<Diagnostic>) {
    let rule = RuleId::PanicFreedom.id();
    let code = file.code_indexes();
    for (ci, &i) in code.iter().enumerate() {
        if file.in_test(i) {
            continue;
        }
        let t = &file.tokens[i];

        // `.unwrap()` / `.expect(`.
        if (t.is_ident("unwrap") || t.is_ident("expect"))
            && ci > 0
            && file.tokens[code[ci - 1]].is_punct('.')
            && matches!(code.get(ci + 1), Some(&n) if file.tokens[n].is_punct('('))
        {
            out.push(Diagnostic::new(
                rule,
                &file.path,
                t.line,
                format!(
                    ".{}() panics on the error path; return a typed error instead \
                     (or prove infallibility and allowlist with a justification)",
                    t.text
                ),
            ));
            continue;
        }

        // panic-family macros.
        if t.kind == TokenKind::Ident
            && PANIC_MACROS.contains(&t.text.as_str())
            && matches!(code.get(ci + 1), Some(&n) if file.tokens[n].is_punct('!'))
        {
            out.push(Diagnostic::new(
                rule,
                &file.path,
                t.line,
                format!(
                    "{}! aborts the worker thread; return a typed error instead",
                    t.text
                ),
            ));
            continue;
        }

        // Bare slice indexing in the serve request path.
        if serve_scope && t.is_punct('[') && ci > 0 {
            let prev = &file.tokens[code[ci - 1]];
            let indexes_expression = prev.kind == TokenKind::Ident && !is_keyword(&prev.text)
                || prev.is_punct(')')
                || prev.is_punct(']');
            if indexes_expression {
                out.push(Diagnostic::new(
                    rule,
                    &file.path,
                    t.line,
                    "bare slice indexing panics out of bounds in the request path; \
                     use .get()/.get_mut() or prove the bound and allowlist",
                ));
            }
        }
    }
}

/// Keywords that can directly precede `[` without forming an index
/// expression (`return [a, b]`, `in [1, 2]`, ...).
fn is_keyword(text: &str) -> bool {
    matches!(
        text,
        "return" | "in" | "if" | "else" | "match" | "break" | "as" | "mut" | "ref" | "move" | "box"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;
    use std::path::PathBuf;

    fn ws(path: &str, src: &str) -> Workspace {
        Workspace {
            files: vec![SourceFile::parse(PathBuf::from(path), src)],
            ..Default::default()
        }
    }

    #[test]
    fn trips_on_unwrap_and_expect() {
        let w = ws(
            "crates/serve/src/server.rs",
            "fn f() { x.unwrap(); y.expect(\"m\"); }",
        );
        let diags = check(&w);
        assert_eq!(diags.len(), 2);
        assert!(diags[0].message.contains(".unwrap()"));
        assert!(diags[1].message.contains(".expect()"));
    }

    #[test]
    fn unwrap_or_variants_are_fine() {
        let w = ws(
            "crates/serve/src/server.rs",
            "fn f() { x.unwrap_or(0); y.unwrap_or_else(|p| p.into_inner()); z.unwrap_or_default(); }",
        );
        assert!(check(&w).is_empty());
    }

    #[test]
    fn trips_on_panic_macros() {
        let w = ws(
            "crates/core/src/rule.rs",
            "fn f() { panic!(\"boom\"); unreachable!(); }",
        );
        assert_eq!(check(&w).len(), 2);
    }

    #[test]
    fn slice_indexing_flagged_in_serve_only() {
        let src = "fn f(xs: &[f64], i: usize) -> f64 { xs[i] }";
        assert_eq!(check(&ws("crates/serve/src/server.rs", src)).len(), 1);
        assert!(
            check(&ws("crates/core/src/bitset.rs", src)).is_empty(),
            "core kernels index freely; only the request path is restricted"
        );
    }

    #[test]
    fn non_index_brackets_are_fine() {
        let w = ws(
            "crates/serve/src/server.rs",
            "#[derive(Debug)]\nstruct S { xs: [u64; 4] }\nfn f() -> Vec<u8> { vec![0u8; 4] }\nfn g(s: &[u8]) {}\n",
        );
        assert!(check(&w).is_empty());
    }

    #[test]
    fn tests_and_doc_comments_are_exempt() {
        let w = ws(
            "crates/serve/src/lib.rs",
            "//! ```\n//! x.unwrap();\n//! ```\n/// s.expect(\"m\")\nfn ok() {}\n#[cfg(test)]\nmod tests { fn t() { a.unwrap(); b[0]; } }\n",
        );
        assert!(check(&w).is_empty());
    }

    #[test]
    fn allowlist_suppression_is_applied_by_runner() {
        // The rule itself reports raw hits; suppression is the runner's job.
        let w = ws(
            "crates/serve/src/stats.rs",
            "// audit: allow(panic-freedom) — index clamped above\nfn f() { b[i]; }",
        );
        assert_eq!(check(&w).len(), 1);
        assert!(w.files[0].is_allowed("panic-freedom", 2));
    }
}
