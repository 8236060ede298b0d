//! The `serve` subcommand end to end: artifact from disk → live HTTP
//! endpoint.

use evoforecast_cli::args::Args;
use evoforecast_cli::commands;
use evoforecast_core::model::{ModelMetadata, TrainedModel};
use evoforecast_core::rule::{Condition, Gene, Rule};
use evoforecast_core::RuleSetPredictor;
use evoforecast_tsdata::window::WindowSpec;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn artifact(value: f64) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("evoforecast_serve_command_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.json");
    let rule = Rule {
        condition: Condition::new(vec![Gene::bounded(0.0, 100.0), Gene::Wildcard]),
        coefficients: vec![0.0, 0.0],
        intercept: value,
        prediction: value,
        error: 0.1,
        matched: 5,
    };
    TrainedModel::new(
        WindowSpec::new(2, 1).unwrap(),
        RuleSetPredictor::new(vec![rule]),
        ModelMetadata::default(),
    )
    .save_json_file(&path)
    .unwrap();
    path
}

#[test]
fn serve_start_answers_forecasts() {
    let path = artifact(6.5);
    let args = Args::from_pairs(&[
        ("model", path.to_str().unwrap()),
        ("addr", "127.0.0.1:0"),
        ("workers", "2"),
    ]);
    let mut out = Vec::new();
    let server = commands::serve_start(&args, &mut out).unwrap();
    let banner = String::from_utf8(out).unwrap();
    assert!(banner.contains("serving at http://127.0.0.1:"), "{banner}");
    assert!(banner.contains("1 rules"), "{banner}");

    let body = r#"{"windows": [[1.0, 2.0]]}"#;
    let mut conn = TcpStream::connect(server.local_addr()).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write!(
        conn,
        "POST /forecast HTTP/1.1\r\ncontent-length: {}\r\n\r\n{}",
        body.len(),
        body
    )
    .unwrap();
    conn.shutdown(std::net::Shutdown::Write).ok();
    let mut reply = String::new();
    conn.read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
    assert!(reply.contains("6.5"), "{reply}");
    server.shutdown();
}

#[test]
fn serve_start_rejects_missing_artifact() {
    let args = Args::from_pairs(&[("model", "/nonexistent/model.json")]);
    let mut out = Vec::new();
    assert!(commands::serve_start(&args, &mut out).is_err());
}

#[test]
fn serve_requires_model_flag() {
    let args = Args::from_pairs(&[]);
    let mut out = Vec::new();
    let err = commands::serve_start(&args, &mut out).unwrap_err();
    assert!(err.to_string().contains("--model"), "{err}");
}
