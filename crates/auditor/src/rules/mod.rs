//! The invariant catalog: one module per rule, each a pure function from a
//! [`Workspace`] to diagnostics. Allowlist filtering happens centrally in
//! [`crate::run_rules`], so rules report every raw hit.

pub mod cfg_hygiene;
pub mod determinism;
pub mod locks;
pub mod panics;
pub mod public_surface;
pub mod taxonomy;

use crate::diag::Diagnostic;
use crate::source::SourceFile;

/// Stable identifiers of every rule the auditor ships.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleId {
    /// Ban ambient time, unordered containers, and ambient randomness in the
    /// evolution hot path (and unordered containers in the serve wire path).
    Determinism,
    /// Ban `unwrap`/`expect`/`panic!`-family (and slice indexing in the
    /// serve request path) outside tests.
    PanicFreedom,
    /// Flag lock guards held across channel sends or socket I/O.
    LockDiscipline,
    /// Every serve `ErrorKind` maps to exactly one status arm and appears in
    /// at least one integration test.
    ErrorTaxonomy,
    /// `fault-injection` symbols must stay behind the feature gate.
    CfgHygiene,
    /// Every `pub` item is named by a caller outside its crate, or appears
    /// in the signature of an item that is.
    PublicSurface,
    /// Allowlist directives must name known rules and carry a justification.
    AllowSyntax,
}

/// All rules, in reporting order.
pub const ALL_RULES: [RuleId; 7] = [
    RuleId::Determinism,
    RuleId::PanicFreedom,
    RuleId::LockDiscipline,
    RuleId::ErrorTaxonomy,
    RuleId::CfgHygiene,
    RuleId::PublicSurface,
    RuleId::AllowSyntax,
];

impl RuleId {
    /// Kebab-case identifier used in diagnostics and `allow(...)` syntax.
    pub fn id(self) -> &'static str {
        match self {
            RuleId::Determinism => "determinism",
            RuleId::PanicFreedom => "panic-freedom",
            RuleId::LockDiscipline => "lock-discipline",
            RuleId::ErrorTaxonomy => "error-taxonomy",
            RuleId::CfgHygiene => "cfg-hygiene",
            RuleId::PublicSurface => "public-surface",
            RuleId::AllowSyntax => "allow-syntax",
        }
    }

    /// Parse an identifier back to a rule.
    pub fn from_id(id: &str) -> Option<RuleId> {
        ALL_RULES.into_iter().find(|r| r.id() == id)
    }
}

/// The set of files under audit, with repo-relative paths.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Every parsed source file.
    pub files: Vec<SourceFile>,
    /// Files that are read only as callers of the crates' public items
    /// (`crates/*/benches`, the root `src`, `tests` and `examples`, and
    /// `evobench/src`); no rule audits their contents.
    pub refs: Vec<SourceFile>,
}

impl Workspace {
    /// The file whose path ends with `suffix`, if present.
    pub fn file_ending_with(&self, suffix: &str) -> Option<&SourceFile> {
        self.files
            .iter()
            .find(|f| f.path.to_string_lossy().ends_with(suffix))
    }
}

/// Does this repo-relative path sit in a library-source tree (as opposed to
/// `tests/`, `benches/`, `examples/`)?
pub fn in_lib_src(path: &std::path::Path, crate_dir: &str) -> bool {
    let p = path.to_string_lossy().replace('\\', "/");
    p.contains(&format!("crates/{crate_dir}/src/"))
}

/// Is this a test source file (integration tests directory)?
pub fn in_tests_dir(path: &std::path::Path) -> bool {
    let p = path.to_string_lossy().replace('\\', "/");
    p.contains("/tests/")
}

/// Run the allow-syntax meta rule: malformed or unknown-rule directives.
pub fn check_allow_syntax(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for file in &ws.files {
        for d in &file.directives {
            if d.rules.is_empty() {
                out.push(Diagnostic::new(
                    RuleId::AllowSyntax.id(),
                    &file.path,
                    d.line,
                    "allow directive names no rules; expected `audit: allow(<rule>) — <justification>`",
                ));
                continue;
            }
            for r in &d.rules {
                if RuleId::from_id(r).is_none() {
                    out.push(Diagnostic::new(
                        RuleId::AllowSyntax.id(),
                        &file.path,
                        d.line,
                        format!("allow directive names unknown rule {r:?}"),
                    ));
                }
            }
            if d.justification.is_empty() {
                out.push(Diagnostic::new(
                    RuleId::AllowSyntax.id(),
                    &file.path,
                    d.line,
                    "allowlist entries must carry a justification after the rule list",
                ));
            }
        }
    }
    out
}
