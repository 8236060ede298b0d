//! `evoforecast-auditor` — a workspace invariant auditor for the
//! evoforecast crates.
//!
//! The compiler proves memory safety; this tool checks the invariants the
//! *design* depends on and the compiler cannot see:
//!
//! * **determinism** — the evolution hot path is a pure function of
//!   `(config, data, seed)`: no wall clock, no unordered containers, no
//!   ambient randomness in `crates/core/src`.
//! * **panic-freedom** — no `unwrap`/`expect`/`panic!` outside tests in the
//!   serve request path and the core library; slice indexing in serve needs
//!   a written bound proof.
//! * **lock-discipline** — registry guards are never held across channel
//!   sends or socket I/O in `crates/serve/src`.
//! * **error-taxonomy** — every serve `ErrorKind` maps to exactly one HTTP
//!   status and is exercised by at least one integration test.
//! * **cfg-hygiene** — fault-injection symbols stay behind the
//!   `fault-injection` feature gate.
//! * **public-surface** — every `pub` item in a crate's library is named by
//!   a caller outside that library, or appears in the signature of an item
//!   that is.
//! * **allow-syntax** — every inline `// audit: allow(...)` names known
//!   rules and carries a justification.
//!
//! Known-good exceptions are allowlisted inline at the offending line:
//!
//! ```text
//! // audit: allow(panic-freedom) — index clamped to BUCKETS-1 above
//! ```
//!
//! Analysis is lexical (a hand-rolled token scanner, [`lexer`]) rather than
//! a full parse: the auditor must build with zero new dependencies in an
//! offline environment, and the invariants above are all visible at token
//! level. The cost is a small set of documented blind spots (see each rule
//! module); the benefit is a sub-second full-workspace gate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diag;
pub mod lexer;
pub mod rules;
pub mod source;

use diag::{Diagnostic, Report};
use rules::{RuleId, Workspace, ALL_RULES};
use source::SourceFile;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Load every auditable source file under `root`: `crates/*/src/**/*.rs`
/// and `crates/*/tests/**/*.rs`, with paths reported relative to `root`.
/// The reference files `crates/*/benches`, root `src`, `tests` and
/// `examples`, and `evobench/src` go to [`Workspace::refs`]: they are read
/// only as callers of the crates' public items.
///
/// The auditor excludes itself: its fixtures and rule tests are wall-to-wall
/// deliberate violations.
pub fn load_workspace(root: &Path) -> io::Result<Workspace> {
    let crates_dir = root.join("crates");
    let mut files = Vec::new();
    let mut refs = Vec::new();
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for crate_dir in crate_dirs {
        if crate_dir.file_name().is_some_and(|n| n == "auditor") {
            continue;
        }
        for sub in ["src", "tests"] {
            let dir = crate_dir.join(sub);
            if dir.is_dir() {
                collect_rs_files(root, &dir, &mut files)?;
            }
        }
        let benches = crate_dir.join("benches");
        if benches.is_dir() {
            collect_rs_files(root, &benches, &mut refs)?;
        }
    }
    for sub in ["src", "tests", "examples", "evobench/src"] {
        let dir = root.join(sub);
        if dir.is_dir() {
            collect_rs_files(root, &dir, &mut refs)?;
        }
    }
    files.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(Workspace { files, refs })
}

/// Recursively gather `.rs` files under `dir` into `files`.
fn collect_rs_files(root: &Path, dir: &Path, files: &mut Vec<SourceFile>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs_files(root, &path, files)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let source = fs::read_to_string(&path)?;
            let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
            files.push(SourceFile::parse(rel, &source));
        }
    }
    Ok(())
}

/// Run `selected` rules over a prepared workspace. Raw rule hits whose line
/// carries a matching inline allow directive are filtered out here —
/// centrally, so every rule gets identical allowlist behavior. Diagnostics
/// come back sorted by file, line, then rule.
pub fn run_rules(ws: &Workspace, selected: &[RuleId]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for &rule in selected {
        let raw = match rule {
            RuleId::Determinism => rules::determinism::check(ws),
            RuleId::PanicFreedom => rules::panics::check(ws),
            RuleId::LockDiscipline => rules::locks::check(ws),
            RuleId::ErrorTaxonomy => rules::taxonomy::check(ws),
            RuleId::CfgHygiene => rules::cfg_hygiene::check(ws),
            RuleId::PublicSurface => rules::public_surface::check(ws),
            RuleId::AllowSyntax => rules::check_allow_syntax(ws),
        };
        out.extend(raw.into_iter().filter(|d| !is_suppressed(ws, d)));
    }
    out.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    out
}

/// Is this diagnostic's line allowlisted for its rule in its file?
/// `allow-syntax` findings are never suppressible — they police the
/// allowlist itself.
fn is_suppressed(ws: &Workspace, d: &Diagnostic) -> bool {
    if d.rule == RuleId::AllowSyntax.id() {
        return false;
    }
    ws.files
        .iter()
        .find(|f| f.path.display().to_string().replace('\\', "/") == d.file)
        .is_some_and(|f| f.is_allowed(&d.rule, d.line))
}

/// Load the workspace at `root` and run `selected` rules end to end.
pub fn run_audit(root: &Path, selected: &[RuleId]) -> io::Result<Report> {
    let ws = load_workspace(root)?;
    let diagnostics = run_rules(&ws, selected);
    Ok(Report {
        rules: selected.iter().map(|r| r.id().to_string()).collect(),
        files_scanned: ws.files.len(),
        clean: diagnostics.is_empty(),
        diagnostics,
    })
}

/// Run every rule — the CI gate entry point.
pub fn run_full_audit(root: &Path) -> io::Result<Report> {
    run_audit(root, &ALL_RULES)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn ws_of(files: &[(&str, &str)]) -> Workspace {
        Workspace {
            files: files
                .iter()
                .map(|(p, s)| SourceFile::parse(PathBuf::from(p), s))
                .collect(),
            refs: Vec::new(),
        }
    }

    #[test]
    fn allowlisted_hit_is_suppressed_centrally() {
        let ws = ws_of(&[(
            "crates/core/src/engine.rs",
            "// audit: allow(determinism) — budget clock only bounds runtime\nlet t = Instant::now();\n",
        )]);
        assert!(run_rules(&ws, &[RuleId::Determinism]).is_empty());
    }

    #[test]
    fn unallowed_hit_survives() {
        let ws = ws_of(&[(
            "crates/core/src/engine.rs",
            "fn f() { let t = Instant::now(); }",
        )]);
        let d = run_rules(&ws, &[RuleId::Determinism]);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "determinism");
    }

    #[test]
    fn allow_for_wrong_rule_does_not_suppress() {
        let ws = ws_of(&[(
            "crates/core/src/engine.rs",
            "// audit: allow(panic-freedom) — wrong rule named\nlet t = Instant::now();\n",
        )]);
        let d = run_rules(&ws, &[RuleId::Determinism]);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn allow_syntax_findings_cannot_be_allowlisted() {
        let ws = ws_of(&[(
            "crates/core/src/engine.rs",
            "// audit: allow(allow-syntax) — trying to silence the police\n// audit: allow(not-a-rule) — bogus\nfn f() {}\n",
        )]);
        let d = run_rules(&ws, &[RuleId::AllowSyntax]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("not-a-rule"));
    }

    #[test]
    fn diagnostics_sort_by_file_then_line() {
        let ws = ws_of(&[
            (
                "crates/core/src/b.rs",
                "fn f() { x.unwrap(); }\nfn g() { let t = Instant::now(); }\n",
            ),
            ("crates/core/src/a.rs", "fn h() { y.unwrap(); }"),
        ]);
        let d = run_rules(&ws, &[RuleId::Determinism, RuleId::PanicFreedom]);
        let keys: Vec<(String, u32)> = d.iter().map(|d| (d.file.clone(), d.line)).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        assert_eq!(d.len(), 3);
        assert!(d[0].file.ends_with("a.rs"));
    }
}
