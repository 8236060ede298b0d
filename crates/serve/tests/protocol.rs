//! Wire-protocol hardening, driven through real sockets: every malformed or
//! over-limit input must come back as a typed JSON error — never a panic, a
//! hang, or a silently dropped connection — and the server must keep
//! serving valid traffic afterwards.

mod common;

use common::{get, parse_reply, post, raw_round_trip, start_server};
use evoforecast_core::prelude::{ModelMetadata, TrainedModel};
use evoforecast_core::rule::Gene;
use evoforecast_core::RuleSetPredictor;
use evoforecast_serve::server::ServerConfig;
use evoforecast_serve::{EngineKind, ErrorKind, ForecastResponse};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn tight_config() -> ServerConfig {
    ServerConfig {
        max_batch: 4,
        max_body_bytes: 4096,
        ..ServerConfig::default()
    }
}

#[test]
fn typed_errors_for_every_malformed_input() {
    let server = start_server(tight_config(), 42.0);
    let addr = server.local_addr();

    // Malformed JSON body.
    let r = post(addr, "/forecast", "{not json");
    assert_eq!(r.status, 400);
    assert_eq!(r.error_kind(), ErrorKind::BadRequest);

    // Valid JSON, wrong shape (windows is not an array of arrays).
    let r = post(addr, "/forecast", r#"{"windows": 3}"#);
    assert_eq!(r.status, 400);
    assert_eq!(r.error_kind(), ErrorKind::BadRequest);

    // Empty batch.
    let r = post(addr, "/forecast", r#"{"windows": []}"#);
    assert_eq!(r.status, 400);
    assert_eq!(r.error_kind(), ErrorKind::EmptyRequest);

    // Wrong window length vs the model's D = 2.
    let r = post(addr, "/forecast", r#"{"windows": [[1.0, 2.0, 3.0]]}"#);
    assert_eq!(r.status, 400);
    assert_eq!(r.error_kind(), ErrorKind::WindowLengthMismatch);

    // Non-finite window value (JSON null parses as NaN).
    let r = post(addr, "/forecast", r#"{"windows": [[1.0, null]]}"#);
    assert_eq!(r.status, 400);
    assert_eq!(r.error_kind(), ErrorKind::NonFiniteInput);

    // Oversized micro-batch (cap is 4).
    let batch: Vec<&str> = std::iter::repeat_n("[1.0, 2.0]", 5).collect();
    let r = post(
        addr,
        "/forecast",
        &format!(r#"{{"windows": [{}]}}"#, batch.join(",")),
    );
    assert_eq!(r.status, 413);
    assert_eq!(r.error_kind(), ErrorKind::BatchTooLarge);

    // Unknown model slot.
    let r = post(
        addr,
        "/forecast",
        r#"{"model": "ghost", "windows": [[1.0, 2.0]]}"#,
    );
    assert_eq!(r.status, 404);
    assert_eq!(r.error_kind(), ErrorKind::ModelNotFound);

    // Zero horizon.
    let r = post(
        addr,
        "/forecast",
        r#"{"windows": [[1.0, 2.0]], "horizon": 0}"#,
    );
    assert_eq!(r.status, 400);
    assert_eq!(r.error_kind(), ErrorKind::BadRequest);

    // Unknown route and wrong method.
    let r = get(addr, "/nope");
    assert_eq!(r.status, 404);
    assert_eq!(r.error_kind(), ErrorKind::NotFound);
    let r = get(addr, "/forecast");
    assert_eq!(r.status, 405);
    assert_eq!(r.error_kind(), ErrorKind::MethodNotAllowed);

    // Not even HTTP.
    let r = raw_round_trip(addr, b"EHLO forecast\r\n\r\n");
    assert_eq!(r.status, 400);
    assert_eq!(r.error_kind(), ErrorKind::BadRequest);

    // Declared body larger than the cap: rejected from the header alone.
    let r = raw_round_trip(
        addr,
        b"POST /forecast HTTP/1.1\r\ncontent-length: 999999\r\n\r\n",
    );
    assert_eq!(r.status, 413);
    assert_eq!(r.error_kind(), ErrorKind::PayloadTooLarge);

    // After all of that abuse the server still answers valid requests.
    let r = post(addr, "/forecast", r#"{"windows": [[1.0, 2.0]]}"#);
    assert_eq!(r.status, 200, "{}", r.body);
    let resp: ForecastResponse = serde_json::from_str(&r.body).unwrap();
    assert_eq!(resp.predictions, vec![Some(42.0)]);
    assert_eq!(resp.abstained, 0);

    let stats = get(addr, "/stats");
    assert_eq!(stats.status, 200);
    assert!(stats.body.contains("\"errors\""), "{}", stats.body);

    server.shutdown();
}

#[test]
fn unsupported_horizon_is_typed() {
    // τ = 3 model: closed-loop horizon must be refused.
    let registry = std::sync::Arc::new(evoforecast_serve::registry::ModelRegistry::new());
    registry
        .install(
            "default",
            evoforecast_tsdata::window::WindowSpec::new(2, 3).unwrap(),
            common::flat_predictor(7.0),
        )
        .unwrap();
    let server =
        evoforecast_serve::server::Server::start(ServerConfig::default(), registry).unwrap();
    let r = post(
        server.local_addr(),
        "/forecast",
        r#"{"windows": [[1.0, 2.0]], "horizon": 4}"#,
    );
    assert_eq!(r.status, 400);
    assert_eq!(r.error_kind(), ErrorKind::UnsupportedHorizon);
    // horizon = 1 still answers at the trained τ.
    let r = post(
        server.local_addr(),
        "/forecast",
        r#"{"windows": [[1.0, 2.0]]}"#,
    );
    assert_eq!(r.status, 200);
    server.shutdown();
}

#[test]
fn deadline_exceeded_is_typed_not_dropped() {
    let server = start_server(
        ServerConfig {
            deadline: Duration::from_millis(150),
            ..ServerConfig::default()
        },
        1.0,
    );
    // Connect, then stall: the worker's read times out at the deadline and
    // must still answer with a typed 504.
    let mut conn = TcpStream::connect(server.local_addr()).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    std::thread::sleep(Duration::from_millis(400));
    let mut raw = String::new();
    conn.read_to_string(&mut raw).unwrap();
    let r = parse_reply(&raw);
    assert_eq!(r.status, 504, "{raw}");
    assert_eq!(r.error_kind(), ErrorKind::DeadlineExceeded);
    server.shutdown();
}

#[test]
fn half_sent_body_is_answered_not_hung() {
    let server = start_server(
        ServerConfig {
            deadline: Duration::from_millis(150),
            ..ServerConfig::default()
        },
        1.0,
    );
    // Declare 100 bytes, send 10, stall. Must resolve as a typed error at
    // the deadline rather than holding the worker forever.
    let mut conn = TcpStream::connect(server.local_addr()).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    conn.write_all(b"POST /forecast HTTP/1.1\r\ncontent-length: 100\r\n\r\n0123456789")
        .unwrap();
    let mut raw = String::new();
    conn.read_to_string(&mut raw).unwrap();
    let r = parse_reply(&raw);
    assert_eq!(r.status, 504, "{raw}");
    assert_eq!(r.error_kind(), ErrorKind::DeadlineExceeded);
    server.shutdown();
}

#[test]
fn oversized_head_is_refused_at_the_cap_not_the_deadline() {
    let server = start_server(
        ServerConfig {
            deadline: Duration::from_secs(5),
            ..ServerConfig::default()
        },
        1.0,
    );
    // One byte past the 16 KiB head cap, no newline, connection left open.
    // The server must answer 400 as soon as the cap is passed rather than
    // buffer until the deadline. Exactly cap + 1 bytes, so the server has
    // read everything sent when it closes and the close is a clean FIN.
    let mut conn = TcpStream::connect(server.local_addr()).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    conn.write_all(&[b'a'; 16 * 1024 + 1]).unwrap();
    let mut raw = String::new();
    conn.read_to_string(&mut raw).unwrap();
    let r = parse_reply(&raw);
    assert_eq!(r.status, 400, "{raw}");
    assert_eq!(r.error_kind(), ErrorKind::BadRequest);
    assert!(r.body.contains("request head too large"), "{}", r.body);
    server.shutdown();
}

#[test]
fn non_utf8_request_head_is_a_typed_bad_request() {
    let server = start_server(ServerConfig::default(), 1.0);
    let addr = server.local_addr();
    for raw in [
        &b"GET /\xff\xfe HTTP/1.1\r\n\r\n"[..],
        b"POST /forecast HTTP/1.1\r\nx-junk: \xc3\x28\r\ncontent-length: 0\r\n\r\n",
    ] {
        let r = raw_round_trip(addr, raw);
        assert_eq!(r.status, 400, "{}", r.body);
        assert_eq!(r.error_kind(), ErrorKind::BadRequest);
    }
    let r = post(addr, "/forecast", r#"{"windows": [[1.0, 2.0]]}"#);
    assert_eq!(r.status, 200, "{}", r.body);
    server.shutdown();
}

#[test]
fn nesting_bomb_is_a_typed_error_not_a_crash() {
    // 50 000 open brackets fit well under the 1 MiB body cap; a recursive
    // parser would overflow the worker's stack and abort the process.
    let server = start_server(ServerConfig::default(), 42.0);
    let addr = server.local_addr();
    let bomb = "[".repeat(50_000);
    for body in [
        format!(r#"{{"windows": {bomb}"#),
        format!(r#"{{"junk": {bomb}"#),
        format!(
            r#"{{"junk": {bomb}{}, "windows": [[1.0, 2.0]]}}"#,
            "]".repeat(50_000)
        ),
    ] {
        let r = post(addr, "/forecast", &body);
        assert_eq!(r.status, 400, "{}", r.body);
        assert_eq!(r.error_kind(), ErrorKind::BadRequest);
    }

    let r = post(addr, "/forecast", r#"{"windows": [[1.0, 2.0]]}"#);
    assert_eq!(r.status, 200, "{}", r.body);
    let resp: ForecastResponse = serde_json::from_str(&r.body).unwrap();
    assert_eq!(resp.predictions, vec![Some(42.0)]);
    server.shutdown();
}

#[test]
fn batch_detail_and_combination_over_the_wire() {
    let server = start_server(ServerConfig::default(), 10.0);
    let addr = server.local_addr();
    let r = post(
        addr,
        "/forecast",
        r#"{"windows": [[1.0, 2.0], [500.0, 500.0]], "detail": true, "combination": "inverse-error-weighted"}"#,
    );
    assert_eq!(r.status, 200, "{}", r.body);
    let resp: ForecastResponse = serde_json::from_str(&r.body).unwrap();
    assert_eq!(resp.predictions.len(), 2);
    assert_eq!(resp.predictions[0], Some(10.0));
    assert_eq!(resp.predictions[1], None); // outside every rule: abstains
    assert_eq!(resp.abstained, 1);
    let details = resp.details.expect("detail opt-in");
    assert_eq!(details[0].as_ref().unwrap().firing_rules, 1);
    assert!(details[1].is_none());
    server.shutdown();
}

#[test]
fn scan_engine_is_a_typed_bad_request() {
    let server = start_server(ServerConfig::default(), 3.5);
    let addr = server.local_addr();
    let r = post(
        addr,
        "/forecast",
        r#"{"windows": [[1.0, 2.0], [90.0, 10.0]], "engine": "scan"}"#,
    );
    assert_eq!(r.status, 400, "{}", r.body);
    assert_eq!(r.error_kind(), ErrorKind::BadRequest);

    let r = post(
        addr,
        "/forecast",
        r#"{"windows": [[1.0, 2.0], [190.0, 10.0]], "engine": "compiled"}"#,
    );
    assert_eq!(r.status, 200, "{}", r.body);
    let resp: ForecastResponse = serde_json::from_str(&r.body).unwrap();
    assert_eq!(resp.predictions, vec![Some(3.5), None]);
    assert_eq!(resp.engine, EngineKind::Compiled);
    server.shutdown();
}

#[test]
fn malformed_artifact_is_refused_and_workers_survive() {
    // The second rule has 1 coefficient under a 2-gene condition. Served,
    // the first forecast firing it would index past the coefficient table.
    let rules = [8.0, 9.0].map(|v| common::flat_predictor(v).rules()[0].clone());
    let model = TrainedModel::new(
        common::spec(),
        RuleSetPredictor::new(rules.to_vec()),
        ModelMetadata::default(),
    );
    let json = serde_json::to_string(&model).unwrap();
    let (full, short) = (
        r#""coefficients":[0.0,0.0],"intercept":9.0"#,
        r#""coefficients":[0.0],"intercept":9.0"#,
    );
    assert!(json.contains(full), "{json}");
    let dir = std::env::temp_dir().join(format!("evoforecast_protocol_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("short_coefficients.json");
    std::fs::write(&path, json.replace(full, short)).unwrap();

    let config = ServerConfig::default();
    let workers = config.workers;
    let server = start_server(config, 42.0);
    let addr = server.local_addr();
    let r = post(
        addr,
        "/reload",
        &format!(r#"{{"path": {:?}}}"#, path.display().to_string()),
    );
    assert_eq!(r.status, 422, "{}", r.body);
    assert_eq!(r.error_kind(), ErrorKind::ReloadFailed);

    // More forecasts than workers: each is answered by the old model.
    for _ in 0..workers + 2 {
        let r = post(addr, "/forecast", r#"{"windows": [[1.0, 2.0]]}"#);
        assert_eq!(r.status, 200, "{}", r.body);
        let resp: ForecastResponse = serde_json::from_str(&r.body).unwrap();
        assert_eq!(resp.predictions, vec![Some(42.0)]);
        assert_eq!(resp.model_version, 1);
    }
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn inverted_gene_artifact_is_refused_by_a_single_worker_server() {
    // A gene whose lower bound exceeds its upper bound. Compiling it used to
    // panic the one worker, leaving the reload and every later forecast
    // unanswered.
    let model = TrainedModel::new(
        common::spec(),
        common::flat_predictor(8.0),
        ModelMetadata::default(),
    );
    let json = serde_json::to_string(&model).unwrap();
    let gene = serde_json::to_string(&Gene::bounded(0.0, 100.0)).unwrap();
    let inverted = serde_json::to_string(&Gene::Bounded { lo: 100.0, hi: 0.0 }).unwrap();
    assert!(json.contains(&gene), "{json}");
    let dir = std::env::temp_dir().join(format!("evoforecast_inverted_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("inverted_gene.json");
    std::fs::write(&path, json.replacen(&gene, &inverted, 1)).unwrap();

    let server = start_server(
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
        42.0,
    );
    let addr = server.local_addr();
    let r = post(
        addr,
        "/reload",
        &format!(r#"{{"path": {:?}}}"#, path.display().to_string()),
    );
    assert_eq!(r.status, 422, "{}", r.body);
    assert_eq!(r.error_kind(), ErrorKind::ReloadFailed);

    let r = post(addr, "/forecast", r#"{"windows": [[1.0, 2.0]]}"#);
    assert_eq!(r.status, 200, "{}", r.body);
    let resp: ForecastResponse = serde_json::from_str(&r.body).unwrap();
    assert_eq!(resp.predictions, vec![Some(42.0)]);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn introspection_endpoints_answer() {
    let server = start_server(ServerConfig::default(), 1.0);
    let addr = server.local_addr();

    let health = get(addr, "/healthz");
    assert_eq!(health.status, 200);
    assert!(health.body.contains("\"ok\""), "{}", health.body);

    let models = get(addr, "/models");
    assert_eq!(models.status, 200);
    let infos: Vec<evoforecast_serve::ModelInfo> = serde_json::from_str(&models.body).unwrap();
    assert_eq!(infos.len(), 1);
    assert_eq!(infos[0].name, "default");
    assert_eq!(infos[0].window, 2);
    assert_eq!(infos[0].version, 1);

    let stats = get(addr, "/stats");
    assert_eq!(stats.status, 200);
    let snap: evoforecast_serve::StatsSnapshot = serde_json::from_str(&stats.body).unwrap();
    assert!(snap.requests >= 2);
    server.shutdown();
}
