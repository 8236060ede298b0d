//! Row formatting and JSON artifact dumps for the bench targets.

use evoforecast_metrics::EvaluationReport;
use std::io::Write;
use std::path::PathBuf;

/// Format an optional value with fixed precision, `-` for absent.
pub fn fmt_opt(v: Option<f64>, precision: usize) -> String {
    match v {
        Some(x) => format!("{x:.precision$}"),
        None => "-".to_string(),
    }
}

/// Print a banner for a bench target.
pub fn banner(title: &str, scale_note: &str) {
    println!("{}", "=".repeat(78));
    println!("{title}");
    println!("({scale_note})");
    println!("{}", "=".repeat(78));
}

/// Print one `paper vs measured` comparison row.
#[allow(clippy::too_many_arguments)]
pub fn comparison_row(
    horizon: usize,
    paper_pct: f64,
    paper_rs: f64,
    paper_other: Option<f64>,
    measured_pct: Option<f64>,
    measured_rs: Option<f64>,
    measured_other: Option<f64>,
    other_name: &str,
) {
    println!(
        "τ={horizon:<3} | paper: pred {paper_pct:5.1}%  RS {paper_rs:8.4}  {other_name} {} | measured: pred {}%  RS {}  {other_name} {}",
        fmt_opt(paper_other, 4),
        fmt_opt(measured_pct.map(|p| (p * 10.0).round() / 10.0), 1),
        fmt_opt(measured_rs, 4),
        fmt_opt(measured_other, 4),
    );
}

/// Directory where bench targets drop JSON artifacts
/// (`target/bench-results/`). Created on demand.
pub(crate) fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/bench-results");
    std::fs::create_dir_all(&dir).ok();
    dir
}

/// Serialize a slice of reports to `target/bench-results/<name>.json`.
pub fn dump_reports(name: &str, reports: &[EvaluationReport]) {
    let path = results_dir().join(format!("{name}.json"));
    match std::fs::File::create(&path) {
        Ok(mut f) => {
            let json = serde_json::to_string_pretty(reports).expect("reports serialize");
            if f.write_all(json.as_bytes()).is_ok() {
                println!("[artifacts] wrote {}", path.display());
            }
        }
        Err(e) => eprintln!("[artifacts] could not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evoforecast_metrics::PairedErrors;

    #[test]
    fn fmt_opt_variants() {
        assert_eq!(fmt_opt(Some(1.23456), 3), "1.235");
        assert_eq!(fmt_opt(None, 3), "-");
    }

    #[test]
    fn results_dir_exists_after_call() {
        let d = results_dir();
        assert!(d.exists());
    }

    #[test]
    fn dump_reports_writes_json() {
        let mut pe = PairedErrors::new();
        pe.record(1.0, Some(1.1));
        let report = EvaluationReport::from_paired("test-system", 1, &pe);
        dump_reports("unit_test_dump", &[report]);
        let path = results_dir().join("unit_test_dump.json");
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("test-system"));
        std::fs::remove_file(path).ok();
    }
}
