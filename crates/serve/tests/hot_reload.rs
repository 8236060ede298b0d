//! Hot-reload and lifecycle hardening: atomic model swaps under concurrent
//! traffic, fingerprint gating, load-shedding at saturation, and graceful
//! drain on shutdown — all through real sockets.

mod common;

use common::{flat_predictor, get, parse_reply, post, spec, start_server};
use evoforecast_core::checkpoint::{EnsembleCheckpoint, CHECKPOINT_VERSION};
use evoforecast_core::prelude::{ModelMetadata, TrainedModel};
use evoforecast_core::rule::{Condition, Gene, Rule};
use evoforecast_serve::registry::spec_fingerprint;
use evoforecast_serve::server::ServerConfig;
use evoforecast_serve::{ErrorKind, ForecastResponse, ReloadResponse, StatsSnapshot};
use evoforecast_tsdata::window::WindowSpec;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("evoforecast_hot_reload_{}", std::process::id()))
        .join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn save_model(path: &PathBuf, model_spec: WindowSpec, value: f64) {
    TrainedModel::new(model_spec, flat_predictor(value), ModelMetadata::default())
        .save_json_file(path)
        .unwrap();
}

#[test]
fn concurrent_requests_see_old_or_new_never_torn() {
    const OLD: f64 = 10.0;
    const NEW: f64 = 20.0;
    let dir = scratch_dir("swap");
    let artifact = dir.join("new.json");
    save_model(&artifact, spec(), NEW);

    let server = start_server(
        ServerConfig {
            workers: 4,
            ..ServerConfig::default()
        },
        OLD,
    );
    let addr = server.local_addr();

    let stop = Arc::new(AtomicBool::new(false));
    let hammers: Vec<_> = (0..4)
        .map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut seen = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let r = post(addr, "/forecast", r#"{"windows": [[1.0, 2.0]]}"#);
                    if r.status == 200 {
                        let resp: ForecastResponse = serde_json::from_str(&r.body).unwrap();
                        seen.push((resp.model_version, resp.predictions[0].unwrap()));
                    }
                }
                seen
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(100));
    let body = format!(r#"{{"path": {:?}}}"#, artifact.to_str().unwrap());
    let r = post(addr, "/reload", &body);
    assert_eq!(r.status, 200, "{}", r.body);
    let reload: ReloadResponse = serde_json::from_str(&r.body).unwrap();
    assert_eq!(reload.version, 2);
    std::thread::sleep(Duration::from_millis(100));

    stop.store(true, Ordering::Relaxed);
    let mut saw_old = false;
    let mut saw_new = false;
    for h in hammers {
        for (version, value) in h.join().unwrap() {
            // The pair must be internally consistent: version 1 answers with
            // the old model's output, version 2 with the new — any other
            // combination is a torn read.
            match version {
                1 => {
                    assert_eq!(value, OLD, "version 1 answered with a foreign value");
                    saw_old = true;
                }
                2 => {
                    assert_eq!(value, NEW, "version 2 answered with a foreign value");
                    saw_new = true;
                }
                other => panic!("impossible model version {other}"),
            }
        }
    }
    assert!(saw_old, "hammers never observed the pre-swap model");
    assert!(saw_new, "hammers never observed the post-swap model");

    // After the dust settles every answer is the new model.
    let r = post(addr, "/forecast", r#"{"windows": [[1.0, 2.0]]}"#);
    let resp: ForecastResponse = serde_json::from_str(&r.body).unwrap();
    assert_eq!(resp.model_version, 2);
    assert_eq!(resp.predictions[0], Some(NEW));
    server.shutdown();
}

#[test]
fn fingerprint_mismatch_rejected_old_model_keeps_serving() {
    let dir = scratch_dir("mismatch");
    let foreign = dir.join("foreign.json");
    // Same window length, different horizon: a different contract.
    save_model(&foreign, WindowSpec::new(2, 9).unwrap(), 99.0);

    let server = start_server(ServerConfig::default(), 5.0);
    let addr = server.local_addr();

    let body = format!(r#"{{"path": {:?}}}"#, foreign.to_str().unwrap());
    let r = post(addr, "/reload", &body);
    assert_eq!(r.status, 409, "{}", r.body);
    assert_eq!(r.error_kind(), ErrorKind::FingerprintMismatch);

    // Unreadable artifact: typed, not fatal.
    let r = post(addr, "/reload", r#"{"path": "/nonexistent/m.json"}"#);
    assert_eq!(r.status, 422);
    assert_eq!(r.error_kind(), ErrorKind::ReloadFailed);

    // Old model still serving, version unbumped.
    let r = post(addr, "/forecast", r#"{"windows": [[1.0, 2.0]]}"#);
    let resp: ForecastResponse = serde_json::from_str(&r.body).unwrap();
    assert_eq!(resp.model_version, 1);
    assert_eq!(resp.predictions[0], Some(5.0));
    server.shutdown();
}

#[test]
fn checkpoint_kind_is_a_typed_bad_request_and_the_old_model_keeps_serving() {
    let dir = scratch_dir("checkpoint");
    let path = dir.join("campaign.ckpt.json");
    // A well-formed supervisor checkpoint, even one stamped with the slot's
    // own contract, is not a reloadable artifact: only models carry a spec.
    EnsembleCheckpoint {
        version: CHECKPOINT_VERSION,
        config_fingerprint: spec_fingerprint(&spec()),
        executions_done: 1,
        outcomes: vec![],
        rules: vec![Rule {
            condition: Condition::new(vec![Gene::bounded(0.0, 100.0), Gene::Wildcard]),
            coefficients: vec![0.0, 0.0],
            intercept: 33.0,
            prediction: 33.0,
            error: 0.2,
            matched: 7,
        }],
        folded_rules: 1,
        coverage_len: 0,
        covered_words: vec![],
    }
    .save(&path)
    .unwrap();

    let server = start_server(ServerConfig::default(), 5.0);
    let addr = server.local_addr();
    for model in ["default", "ghost"] {
        let body = format!(
            r#"{{"model": {model:?}, "path": {:?}, "kind": "checkpoint"}}"#,
            path.to_str().unwrap()
        );
        let r = post(addr, "/reload", &body);
        assert_eq!(r.status, 400, "{}", r.body);
        assert_eq!(r.error_kind(), ErrorKind::BadRequest);
    }

    let r = post(addr, "/forecast", r#"{"windows": [[1.0, 2.0]]}"#);
    let resp: ForecastResponse = serde_json::from_str(&r.body).unwrap();
    assert_eq!(resp.model_version, 1);
    assert_eq!(resp.predictions[0], Some(5.0));
    let r = get(addr, "/models");
    assert!(!r.body.contains("ghost"), "{}", r.body);
    server.shutdown();
}

#[test]
fn load_shedding_engages_under_saturation() {
    // One worker, one queue slot: a stalled connection occupies the worker,
    // a second fills the queue, everything after that must be shed with a
    // typed 429 instead of queueing unboundedly.
    let server = start_server(
        ServerConfig {
            workers: 1,
            queue_depth: 1,
            deadline: Duration::from_millis(600),
            ..ServerConfig::default()
        },
        1.0,
    );
    let addr = server.local_addr();

    let stall_worker = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    let stall_queue = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(100));

    let mut shed_count = 0;
    for _ in 0..3 {
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut raw = String::new();
        conn.read_to_string(&mut raw).unwrap();
        let r = parse_reply(&raw);
        assert_eq!(r.status, 429, "{raw}");
        assert_eq!(r.error_kind(), ErrorKind::Overloaded);
        shed_count += 1;
    }
    assert_eq!(shed_count, 3);

    // The stalled connections resolve as typed deadline errors, after which
    // the server recovers and serves normally again.
    drop(stall_worker);
    drop(stall_queue);
    std::thread::sleep(Duration::from_millis(700));
    let r = post(addr, "/forecast", r#"{"windows": [[1.0, 2.0]]}"#);
    assert_eq!(r.status, 200, "{}", r.body);

    let snap: StatsSnapshot = serde_json::from_str(&get(addr, "/stats").body).unwrap();
    assert!(
        snap.shed >= 3,
        "shed counter {} should cover rejects",
        snap.shed
    );
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_admitted_requests() {
    // One worker so requests queue up; shutdown must answer everything that
    // was admitted before the call.
    let server = start_server(
        ServerConfig {
            workers: 1,
            queue_depth: 16,
            ..ServerConfig::default()
        },
        8.0,
    );
    let addr = server.local_addr();

    let clients: Vec<_> = (0..6)
        .map(|_| {
            std::thread::spawn(move || {
                let body = r#"{"windows": [[1.0, 2.0]]}"#;
                let payload = format!(
                    "POST /forecast HTTP/1.1\r\ncontent-length: {}\r\n\r\n{}",
                    body.len(),
                    body
                );
                let mut conn = TcpStream::connect(addr).unwrap();
                conn.set_read_timeout(Some(Duration::from_secs(10)))
                    .unwrap();
                conn.write_all(payload.as_bytes()).unwrap();
                conn.shutdown(std::net::Shutdown::Write).ok();
                let mut raw = String::new();
                conn.read_to_string(&mut raw).unwrap();
                parse_reply(&raw)
            })
        })
        .collect();

    // Let the accept thread admit everything, then shut down mid-drain.
    std::thread::sleep(Duration::from_millis(150));
    server.shutdown();

    for c in clients {
        let r = c.join().unwrap();
        assert_eq!(
            r.status, 200,
            "admitted request dropped on shutdown: {}",
            r.body
        );
        let resp: ForecastResponse = serde_json::from_str(&r.body).unwrap();
        assert_eq!(resp.predictions[0], Some(8.0));
    }

    // The listener is gone: new connections are refused (or reset).
    assert!(
        TcpStream::connect(addr).is_err()
            || TcpStream::connect(addr)
                .and_then(|mut c| {
                    let mut buf = String::new();
                    c.set_read_timeout(Some(Duration::from_secs(2)))?;
                    c.read_to_string(&mut buf).map(|_| buf.is_empty())
                })
                .unwrap_or(true),
        "server accepted traffic after shutdown"
    );
}
