//! End-to-end audits of the on-disk fixture workspaces: every rule trips on
//! the `trip` fixture with file/line-accurate diagnostics, the `clean`
//! fixture (allowlisted exception included) passes, and the CLI's exit-code
//! contract holds.

use evoforecast_auditor::diag::Diagnostic;
use evoforecast_auditor::rules::{public_surface, RuleId};
use evoforecast_auditor::{load_workspace, run_audit, run_full_audit};
use serde::value::{find, Value};
use std::path::PathBuf;
use std::process::Command;

fn parse_report(stdout: &[u8]) -> Vec<(String, Value)> {
    let text = std::str::from_utf8(stdout).expect("utf-8 stdout");
    let value: Value = serde_json::from_str(text).expect("JSON report on stdout");
    value.as_object().expect("report is an object").to_vec()
}

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn trip_findings() -> Vec<Diagnostic> {
    run_full_audit(&fixture("trip"))
        .expect("trip fixture loads")
        .diagnostics
}

fn of_rule<'a>(diags: &'a [Diagnostic], rule: &str) -> Vec<&'a Diagnostic> {
    diags.iter().filter(|d| d.rule == rule).collect()
}

#[test]
fn determinism_trips_on_clock_containers_and_entropy() {
    let diags = trip_findings();
    let d = of_rule(&diags, "determinism");
    assert!(
        d.iter()
            .any(|d| d.file.ends_with("core/src/engine.rs") && d.line == 5),
        "Instant::now at engine.rs:5 expected in {d:?}"
    );
    assert!(d.iter().any(|d| d.message.contains("HashMap")));
    assert!(d.iter().any(|d| d.message.contains("thread_rng")));
}

#[test]
fn panic_freedom_trips_in_core_and_request_path() {
    let diags = trip_findings();
    let d = of_rule(&diags, "panic-freedom");
    assert!(
        d.iter()
            .any(|d| d.file.ends_with("core/src/engine.rs") && d.line == 8),
        "unwrap at engine.rs:8 expected in {d:?}"
    );
    assert!(
        d.iter()
            .any(|d| d.file.ends_with("serve/src/server.rs") && d.line == 9),
        "indexing at server.rs:9 expected in {d:?}"
    );
}

#[test]
fn lock_discipline_trips_on_send_under_guard() {
    let diags = trip_findings();
    let d = of_rule(&diags, "lock-discipline");
    assert_eq!(d.len(), 1, "{d:?}");
    assert!(d[0].file.ends_with("serve/src/server.rs"));
    assert_eq!(d[0].line, 5);
    assert!(d[0].message.contains("send()"));
}

#[test]
fn error_taxonomy_trips_on_unmapped_and_untested_variants() {
    let diags = trip_findings();
    let d = of_rule(&diags, "error-taxonomy");
    assert_eq!(d.len(), 2, "{d:?}");
    assert!(d
        .iter()
        .any(|d| d.line == 5 && d.message.contains("Unmapped") && d.message.contains("no arm")));
    assert!(d.iter().any(|d| d.line == 6
        && d.message.contains("Untested")
        && d.message.contains("no integration test")));
}

#[test]
fn cfg_hygiene_trips_on_ungated_use() {
    let diags = trip_findings();
    let d = of_rule(&diags, "cfg-hygiene");
    assert!(
        d.iter().any(|d| d.file.ends_with("core/src/supervisor.rs")
            && d.line == 9
            && d.message.contains("FaultPlan")),
        "{d:?}"
    );
}

#[test]
fn allow_syntax_trips_on_unknown_rule_and_missing_justification() {
    let diags = trip_findings();
    let d = of_rule(&diags, "allow-syntax");
    assert_eq!(d.len(), 2, "{d:?}");
    assert!(d.iter().any(|d| d.message.contains("nonexistent-rule")));
    assert!(d.iter().any(|d| d.message.contains("justification")));
}

#[test]
fn clean_fixture_passes_with_allowlisted_exception() {
    let report = run_full_audit(&fixture("clean")).expect("clean fixture loads");
    assert!(
        report.clean,
        "clean fixture must audit clean, got: {:#?}",
        report.diagnostics
    );
    assert!(report.files_scanned >= 1);
}

#[test]
fn cli_exit_codes_and_json_report() {
    let bin = env!("CARGO_BIN_EXE_evoforecast-auditor");

    let trip = Command::new(bin)
        .args(["check", "--format", "json", "--root"])
        .arg(fixture("trip"))
        .output()
        .expect("run auditor on trip fixture");
    assert_eq!(trip.status.code(), Some(1), "findings exit 1");
    let report = parse_report(&trip.stdout);
    assert_eq!(find(&report, "clean"), Some(&Value::Bool(false)));
    match find(&report, "diagnostics") {
        Some(Value::Array(diags)) => assert!(!diags.is_empty()),
        other => panic!("diagnostics must be a non-empty array, got {other:?}"),
    }
    match find(&report, "rules") {
        Some(Value::Array(rules)) => assert_eq!(rules.len(), 7),
        other => panic!("rules must be an array, got {other:?}"),
    }

    let clean = Command::new(bin)
        .args(["check", "--root"])
        .arg(fixture("clean"))
        .output()
        .expect("run auditor on clean fixture");
    assert_eq!(clean.status.code(), Some(0), "clean exit 0");

    let usage = Command::new(bin)
        .args(["check", "--rule", "no-such-rule"])
        .output()
        .expect("run auditor with bad rule");
    assert_eq!(usage.status.code(), Some(2), "usage error exit 2");

    let io_err = Command::new(bin)
        .args(["check", "--root", "/definitely/not/a/workspace"])
        .output()
        .expect("run auditor on missing root");
    assert_eq!(io_err.status.code(), Some(2), "I/O error exit 2");
}

#[test]
fn single_rule_selection_filters_findings() {
    let bin = env!("CARGO_BIN_EXE_evoforecast-auditor");
    let out = Command::new(bin)
        .args([
            "check",
            "--format",
            "json",
            "--rule",
            "lock-discipline",
            "--root",
        ])
        .arg(fixture("trip"))
        .output()
        .expect("run auditor with one rule");
    assert_eq!(out.status.code(), Some(1));
    let report = parse_report(&out.stdout);
    let Some(Value::Array(diags)) = find(&report, "diagnostics") else {
        panic!("diagnostics must be an array");
    };
    assert!(!diags.is_empty());
    for d in diags {
        let entries = d.as_object().expect("diagnostic object");
        assert_eq!(
            find(entries, "rule").and_then(Value::as_str),
            Some("lock-discipline")
        );
    }
}

fn surface_findings() -> Vec<Diagnostic> {
    run_audit(&fixture("surface"), &[RuleId::PublicSurface])
        .expect("surface fixture loads")
        .diagnostics
}

/// Is the `pub` item called `name` among the findings?
fn flags(diags: &[Diagnostic], name: &str) -> bool {
    diags
        .iter()
        .any(|d| d.rule == "public-surface" && d.message.contains(&format!(" {name}`")))
}

#[test]
fn public_surface_flags_items_named_nowhere_outside_their_crate() {
    let diags = surface_findings();
    assert!(
        diags.iter().any(|d| d.file == "crates/alpha/src/lib.rs"
            && d.line == 3
            && d.message.contains("`pub fn orphan`")),
        "{diags:?}"
    );
    // Called only by its own crate: still flagged, as a pub(crate) candidate.
    assert!(flags(&diags, "internal_only"), "{diags:?}");
}

#[test]
fn public_surface_counts_benchmark_tests_main_and_other_crates_as_callers() {
    let diags = surface_findings();
    for name in [
        "used_by_benchmark",
        "used_by_tests",
        "used_by_main",
        "used_by_beta",
    ] {
        assert!(!flags(&diags, name), "{name} flagged: {diags:?}");
    }
}

#[test]
fn public_surface_keeps_names_in_a_live_signature() {
    let diags = surface_findings();
    // `Reason` (parameter) and `Outcome` (return type) of a live fn, and
    // `Kind` through their `pub` fields, transitively.
    for name in ["Reason", "Outcome", "Kind"] {
        assert!(!flags(&diags, name), "{name} flagged: {diags:?}");
    }
    // Named only in a private field: not part of the signature.
    assert!(flags(&diags, "Hidden"), "{diags:?}");
}

#[test]
fn public_surface_ignores_comments_and_strings() {
    assert!(flags(&surface_findings(), "only_in_prose"));
}

#[test]
fn public_surface_allow_with_reason_suppresses_and_test_items_are_exempt() {
    let ws = load_workspace(&fixture("surface")).expect("surface fixture loads");
    let raw = public_surface::check(&ws);
    assert!(flags(&raw, "allowed"), "the raw rule reports it: {raw:?}");
    let diags = surface_findings();
    assert!(!flags(&diags, "allowed"), "{diags:?}");
    assert!(!flags(&raw, "test_helper"), "{raw:?}");
    assert_eq!(diags.len(), 4, "{diags:?}");
}
