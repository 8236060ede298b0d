//! **cfg-hygiene** — fault-injection machinery must be unreachable unless
//! the `fault-injection` feature is on.
//!
//! The supervisor's fault plan exists to kill worker threads on purpose; a
//! production binary that can reach it by accident is a production binary
//! with a self-destruct button. The rule works in two passes:
//!
//! 1. collect every symbol *defined* under
//!    `#[cfg(feature = "fault-injection")]` in `crates/core/src`;
//! 2. flag any use of those symbols from non-test library code that is not
//!    itself behind the gate.

use super::{RuleId, Workspace};
use crate::diag::Diagnostic;
use crate::lexer::TokenKind;
use std::collections::BTreeSet;

/// Item-introducing keywords whose following identifier is a definition.
const ITEM_KEYWORDS: [&str; 7] = ["fn", "struct", "enum", "trait", "type", "mod", "const"];

/// Run the rule over every in-scope file.
pub fn check(ws: &Workspace) -> Vec<Diagnostic> {
    let gated = collect_gated_symbols(ws);
    if gated.is_empty() {
        return Vec::new();
    }

    let rule = RuleId::CfgHygiene.id();
    let mut out = Vec::new();
    for file in &ws.files {
        let p = file.path.to_string_lossy().replace('\\', "/");
        if !p.contains("crates/") || !p.contains("/src/") {
            continue;
        }
        let code = file.code_indexes();
        for (ci, &i) in code.iter().enumerate() {
            if file.in_test(i) || file.in_fault_gate(i) {
                continue;
            }
            let t = &file.tokens[i];
            if t.kind != TokenKind::Ident || !gated.contains(t.text.as_str()) {
                continue;
            }
            // The definition keyword itself precedes definitions; a gated
            // definition is already masked, so any hit here is a *use* —
            // unless it's a same-named definition outside the gate, which is
            // exactly the leak this rule exists to catch too.
            let _ = ci;
            out.push(Diagnostic::new(
                rule,
                &file.path,
                t.line,
                format!(
                    "`{}` is defined under #[cfg(feature = \"fault-injection\")] but used \
                     outside the gate; gate this use or it breaks non-feature builds",
                    t.text
                ),
            ));
        }
    }
    out
}

/// Pass 1: names defined inside fault-injection-gated regions of
/// `crates/core/src`.
fn collect_gated_symbols(ws: &Workspace) -> BTreeSet<String> {
    let mut gated = BTreeSet::new();
    for file in &ws.files {
        let p = file.path.to_string_lossy().replace('\\', "/");
        if !p.contains("crates/core/src/") {
            continue;
        }
        let code = file.code_indexes();
        for (ci, &i) in code.iter().enumerate() {
            if !file.in_fault_gate(i) {
                continue;
            }
            let t = &file.tokens[i];
            // `fn name` / `struct Name` / ... inside the gate.
            if t.kind == TokenKind::Ident && ITEM_KEYWORDS.contains(&t.text.as_str()) {
                if let Some(&n) = code.get(ci + 1) {
                    let name = &file.tokens[n];
                    if name.kind == TokenKind::Ident && is_interesting(&name.text) {
                        gated.insert(name.text.clone());
                    }
                }
            }
            // Gated struct fields and method names mentioning "fault"
            // (e.g. `fault_plan: Option<FaultPlan>`): the ident itself is the
            // definition when followed by `:` or `(`.
            if t.kind == TokenKind::Ident
                && mentions_fault(&t.text)
                && matches!(
                    code.get(ci + 1),
                    Some(&n) if file.tokens[n].is_punct(':') || file.tokens[n].is_punct('(')
                )
            {
                gated.insert(t.text.clone());
            }
        }
    }
    gated
}

/// Only track symbols that are plausibly part of the fault-injection surface:
/// type-cased names or anything mentioning "fault". Tracking every gated
/// local would flood the use-pass with generic helper names.
fn is_interesting(name: &str) -> bool {
    name.chars().next().is_some_and(char::is_uppercase) || mentions_fault(name)
}

/// Does the identifier contain "fault" as a whole word segment? A plain
/// substring test would swallow `default` (de-**fault**), so snake_case
/// names are split on `_` and CamelCase names checked for a capitalized
/// `Fault` segment.
fn mentions_fault(name: &str) -> bool {
    name.split('_').any(|seg| seg.eq_ignore_ascii_case("fault")) || name.contains("Fault")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;
    use std::path::PathBuf;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace {
            files: files
                .iter()
                .map(|(p, s)| SourceFile::parse(PathBuf::from(p), s))
                .collect(),
            ..Default::default()
        }
    }

    const GATED_DEF: &str = "#[cfg(feature = \"fault-injection\")]\npub struct FaultPlan { pub after: usize }\n#[cfg(feature = \"fault-injection\")]\npub fn with_fault_plan(p: FaultPlan) {}\n";

    #[test]
    fn gated_definition_and_gated_use_pass() {
        let w = ws(&[(
            "crates/core/src/supervisor.rs",
            &format!(
                "{GATED_DEF}#[cfg(feature = \"fault-injection\")]\nfn apply(p: FaultPlan) {{ with_fault_plan(p); }}\n"
            ),
        )]);
        assert!(check(&w).is_empty());
    }

    #[test]
    fn ungated_use_trips() {
        let w = ws(&[
            ("crates/core/src/supervisor.rs", GATED_DEF),
            (
                "crates/core/src/engine.rs",
                "fn run() { let p = FaultPlan { after: 3 }; }",
            ),
        ]);
        let d = check(&w);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("FaultPlan"));
        assert_eq!(d[0].line, 1);
    }

    #[test]
    fn ungated_use_in_other_crate_trips() {
        let w = ws(&[
            ("crates/core/src/supervisor.rs", GATED_DEF),
            (
                "crates/cli/src/commands.rs",
                "fn run() { core::with_fault_plan(p); }",
            ),
        ]);
        assert_eq!(check(&w).len(), 1);
    }

    #[test]
    fn test_code_may_use_gated_symbols() {
        let w = ws(&[
            ("crates/core/src/supervisor.rs", GATED_DEF),
            (
                "crates/core/src/engine.rs",
                "#[cfg(test)]\nmod tests { use super::FaultPlan; }",
            ),
        ]);
        assert!(check(&w).is_empty());
    }

    #[test]
    fn gated_field_names_are_collected() {
        let w = ws(&[
            (
                "crates/core/src/supervisor.rs",
                "pub struct Supervisor {\n    retries: usize,\n    #[cfg(feature = \"fault-injection\")]\n    fault_plan: Option<FaultPlan>,\n}\n",
            ),
            (
                "crates/core/src/engine.rs",
                "fn f(s: &Supervisor) { let _ = s.fault_plan; }",
            ),
        ]);
        let d = check(&w);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("fault_plan"));
    }

    #[test]
    fn no_gated_symbols_means_no_findings() {
        let w = ws(&[(
            "crates/core/src/engine.rs",
            "fn run() { let p = FaultPlan { after: 3 }; }",
        )]);
        assert!(
            check(&w).is_empty(),
            "without gated definitions there is nothing to protect"
        );
    }
}
