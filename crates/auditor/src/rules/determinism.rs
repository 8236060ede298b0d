//! **determinism** — the evolution hot path must be a pure function of
//! `(config, data, seed)`.
//!
//! Inside `crates/core/src` this bans:
//! * `Instant::now()` / `SystemTime::now()` — ambient wall-clock reads make
//!   stopping (and therefore results) machine-dependent; time budgets are
//!   legitimate only as explicitly allowlisted stop conditions.
//! * `HashMap` / `HashSet` — iteration order is randomized per process, so
//!   any fold over one (rule merging, coverage accumulation) silently breaks
//!   the bit-identical pins from PRs 1–3. Use `BTreeMap`/`BTreeSet` or
//!   sorted vectors.
//! * `thread_rng` / `from_entropy` / `rand::random` — ambient randomness
//!   bypasses the seeded RNG discipline.
//!
//! Inside `crates/serve/src` only the container ban applies: wire responses
//! (`/models`, stats snapshots) must enumerate in a deterministic order.

use super::{RuleId, Workspace};
use crate::diag::Diagnostic;
use crate::source::SourceFile;

/// Run the rule over every in-scope file.
pub fn check(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for file in &ws.files {
        let p = file.path.to_string_lossy().replace('\\', "/");
        let core_scope = p.contains("crates/core/src/");
        let serve_scope = p.contains("crates/serve/src/");
        if !core_scope && !serve_scope {
            continue;
        }
        check_file(file, core_scope, &mut out);
    }
    out
}

fn check_file(file: &SourceFile, core_scope: bool, out: &mut Vec<Diagnostic>) {
    let rule = RuleId::Determinism.id();
    let code = file.code_indexes();
    for (ci, &i) in code.iter().enumerate() {
        if file.in_test(i) {
            continue;
        }
        let t = &file.tokens[i];

        // Unordered containers: banned in both scopes.
        if t.is_ident("HashMap") || t.is_ident("HashSet") {
            out.push(Diagnostic::new(
                rule,
                &file.path,
                t.line,
                format!(
                    "{} has nondeterministic iteration order; use BTreeMap/BTreeSet or a sorted Vec",
                    t.text
                ),
            ));
            continue;
        }

        if !core_scope {
            continue;
        }

        // Ambient time: `Instant::now` / `SystemTime::now`.
        if (t.is_ident("Instant") || t.is_ident("SystemTime"))
            && matches!(code.get(ci + 1), Some(&a) if file.tokens[a].is_punct(':'))
            && matches!(code.get(ci + 2), Some(&b) if file.tokens[b].is_punct(':'))
            && matches!(code.get(ci + 3), Some(&c) if file.tokens[c].is_ident("now"))
        {
            out.push(Diagnostic::new(
                rule,
                &file.path,
                t.line,
                format!(
                    "{}::now() reads ambient wall-clock time in the evolution hot path; \
                     results must be a pure function of (config, data, seed)",
                    t.text
                ),
            ));
            continue;
        }

        // Ambient randomness.
        if t.is_ident("thread_rng") || t.is_ident("from_entropy") {
            out.push(Diagnostic::new(
                rule,
                &file.path,
                t.line,
                format!(
                    "{}() draws ambient entropy; evolution must use the seeded RNG it was configured with",
                    t.text
                ),
            ));
            continue;
        }
        if t.is_ident("rand")
            && matches!(code.get(ci + 1), Some(&a) if file.tokens[a].is_punct(':'))
            && matches!(code.get(ci + 2), Some(&b) if file.tokens[b].is_punct(':'))
            && matches!(code.get(ci + 3), Some(&c) if file.tokens[c].is_ident("random"))
        {
            out.push(Diagnostic::new(
                rule,
                &file.path,
                t.line,
                "rand::random() draws ambient entropy; evolution must use the seeded RNG",
            ));
        }
    }
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
    fn trips_on_instant_now_in_core() {
        let w = ws(
            "crates/core/src/engine.rs",
            "fn f() { let t = std::time::Instant::now(); }",
        );
        let diags = check(&w);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "determinism");
        assert_eq!(diags[0].line, 1);
        assert!(diags[0].message.contains("Instant::now"));
    }

    #[test]
    fn trips_on_hashmap_in_core_and_serve() {
        for path in ["crates/core/src/engine.rs", "crates/serve/src/registry.rs"] {
            let w = ws(path, "use std::collections::HashMap;\n");
            assert_eq!(check(&w).len(), 1, "{path}");
        }
    }

    #[test]
    fn serve_scope_permits_instant_now() {
        let w = ws(
            "crates/serve/src/server.rs",
            "fn f() { let t = Instant::now(); }",
        );
        assert!(check(&w).is_empty(), "deadline clocks are legal in serve");
    }

    #[test]
    fn clean_core_code_passes() {
        let w = ws(
            "crates/core/src/engine.rs",
            "use std::collections::BTreeMap;\nfn f(rng: &mut ChaCha8Rng) { rng.next_u64(); }\n",
        );
        assert!(check(&w).is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let w = ws(
            "crates/core/src/parallel.rs",
            "#[cfg(test)]\nmod tests {\n    fn t() { let s: std::collections::HashSet<usize> = Default::default(); }\n}\n",
        );
        assert!(check(&w).is_empty());
    }

    #[test]
    fn out_of_scope_crates_are_ignored() {
        let w = ws(
            "crates/cli/src/commands.rs",
            "fn f() { let t = Instant::now(); use std::collections::HashMap; }",
        );
        assert!(check(&w).is_empty());
    }

    #[test]
    fn thread_rng_trips() {
        let w = ws(
            "crates/core/src/init.rs",
            "fn f() { let r = thread_rng(); }",
        );
        assert_eq!(check(&w).len(), 1);
    }
}
