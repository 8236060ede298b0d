//! The serving workloads: a real `train_quick` ensemble behind `Server`,
//! driven over localhost sockets by a closed-loop load generator.

use crate::report::Report;
use crate::stats::{median, quantile};
use crate::training::{self, QUICK};
use crate::{err, BenchResult, HOLDOUT_HOURS};
use evoforecast_core::model::{ModelMetadata, TrainedModel};
use evoforecast_core::supervisor::Supervisor;
use evoforecast_core::RuleSetPredictor;
use evoforecast_serve::protocol::{
    CombinationMode, EngineKind, ForecastRequest, ForecastResponse, ReloadResponse,
};
use evoforecast_serve::registry::ModelRegistry;
use evoforecast_serve::server::{Server, ServerConfig};
use evoforecast_tsdata::gen::venice::VeniceTide;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Windows per `serve_batch` request (the server's `max_batch`).
pub const BATCH: usize = 256;
/// Closed-loop client connections (≤ the machine's 2 cores).
pub const CLIENTS: usize = 2;
/// Server worker threads.
pub const WORKERS: usize = 2;
/// Client 0 of `serve_batch` sends one `POST /reload` after this many of its
/// forecasts.
pub const RELOAD_EVERY: usize = 8;
/// The registry slot the model is served from.
pub const SLOT: &str = "default";
/// Client-side socket timeout; a request slower than this fails.
pub const CLIENT_TIMEOUT: Duration = Duration::from_secs(5);

/// Train the served ensemble and save it as a `TrainedModel` artifact. The
/// recipe is fixed, so this regenerates the same artifact bit for bit.
/// Returns the artifact's rule-set digest.
///
/// # Errors
/// Training or I/O errors.
pub fn train_model(artifact: &Path) -> BenchResult<u64> {
    let series = VeniceTide::default().generate(QUICK.train_hours, training::TRAIN_DATA_SEED);
    let train = series.values();
    let config = training::config(&QUICK, train);
    let supervisor = Supervisor::new(config).map_err(err("supervisor"))?;
    let (predictor, report) = supervisor.run(train).map_err(err("train served model"))?;
    if report.executions != QUICK.executions {
        return Err(format!("served model ran {} executions", report.executions));
    }
    let digest = crate::rules_digest(&predictor)?;
    let model = TrainedModel::new(
        training::spec(),
        predictor,
        ModelMetadata {
            series_name: series.name().to_string(),
            train_points: train.len(),
            seed: training::ENGINE_SEED,
            executions: report.executions,
            training_coverage: report.training_coverage,
        },
    );
    model
        .save_json_file(artifact)
        .map_err(err("save model artifact"))?;
    Ok(digest)
}

/// One prepared request: the full HTTP bytes and the windows it carries.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request line, headers and body.
    pub bytes: Vec<u8>,
    /// Index of the first window in the request list.
    pub first: usize,
    /// Number of windows.
    pub len: usize,
}

/// The fixed request list of a run and the offline answers to check it by.
#[derive(Debug, Clone)]
pub struct RequestSet {
    /// Request windows, held out from the model's training span.
    pub windows: Vec<Vec<f64>>,
    /// τ=4 targets of the windows.
    pub targets: Vec<f64>,
    /// `RuleSetPredictor::predict` of the artifact on every window.
    pub expected: Vec<Option<f64>>,
    /// The requests, each a contiguous run of windows.
    pub requests: Vec<Request>,
}

/// Frame an HTTP/1.1 POST.
fn http_post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nhost: localhost\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Build the request list from the workload seed: [`HOLDOUT_HOURS`]
/// held-out windows (see [`training::held_out`]), cut into requests of
/// `batch` windows.
///
/// # Errors
/// Serialization errors.
pub fn request_set(
    seed: u64,
    batch: usize,
    predictor: &RuleSetPredictor,
) -> BenchResult<RequestSet> {
    let span = training::held_out(QUICK.train_hours, HOLDOUT_HOURS, seed);
    let ds = training::spec()
        .dataset(&span)
        .map_err(err("window requests"))?;
    let (windows, targets): (Vec<Vec<f64>>, Vec<f64>) =
        ds.iter().map(|(w, t)| (w.to_vec(), t)).unzip();
    let expected = windows.iter().map(|w| predictor.predict(w)).collect();
    let mut requests = Vec::with_capacity(windows.len().div_ceil(batch));
    for first in (0..windows.len()).step_by(batch) {
        let len = batch.min(windows.len() - first);
        let body = serde_json::to_string(&ForecastRequest {
            model: SLOT.to_string(),
            windows: windows[first..first + len].to_vec(),
            horizon: 1,
            combination: CombinationMode::Mean,
            detail: false,
            engine: EngineKind::Compiled,
        })
        .map_err(err("encode request"))?;
        requests.push(Request {
            bytes: http_post("/forecast", &body),
            first,
            len,
        });
    }
    Ok(RequestSet {
        windows,
        targets,
        expected,
        requests,
    })
}

/// The server configuration of both serving workloads.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        workers: WORKERS,
        max_batch: BATCH,
        ..ServerConfig::default()
    }
}

/// Set-up of a serving run: load the artifact, install it (which compiles
/// it) and start the server. Warm-up requests follow separately.
///
/// # Errors
/// Artifact, registry or bind errors.
pub fn start_server(artifact: &Path) -> BenchResult<Server> {
    let model = TrainedModel::load_json_file(artifact).map_err(err("load artifact"))?;
    let registry = Arc::new(ModelRegistry::new());
    registry
        .install_trained(SLOT, model)
        .map_err(err("install model"))?;
    Server::start(server_config(), registry).map_err(err("start server"))
}

/// When a client stops sending.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this many forecast requests per client.
    Requests(usize),
    /// Once this instant has passed and the client has sent each of its
    /// requests at least once, so that quality is scored over the whole
    /// list whatever the machine's speed.
    Deadline(Instant),
}

/// Per-request client spans in microseconds: connect, send, wait for the
/// first response byte, read the rest.
pub type Spans = [f64; 4];

/// What one phase of load produced, merged over clients.
#[derive(Debug, Default)]
pub struct Load {
    /// Client-observed latency of every successful forecast, µs.
    pub latencies_us: Vec<f64>,
    /// When each of those forecasts completed, and how many windows it
    /// answered (same order as `latencies_us`).
    pub completions: Vec<(Instant, usize)>,
    /// When the phase's clients started.
    pub start: Option<Instant>,
    /// Span breakdown of every successful forecast (traced phases only).
    pub spans: Vec<Spans>,
    /// Requests sent (forecasts and reloads).
    pub sent: u64,
    /// Requests answered with 200 and a well-formed body.
    pub succeeded: u64,
    /// Connect errors, I/O errors, timeouts and non-200 answers.
    pub failed: u64,
    /// Windows answered in successful forecasts.
    pub windows: u64,
    /// Reloads that succeeded.
    pub reloads: u64,
    /// First served answer per window of the request list.
    pub served: Vec<Option<Option<f64>>>,
    /// Wall time from the common start to the last client's last answer.
    pub elapsed: Duration,
    /// Gate failures seen by the clients.
    pub violations: u64,
    /// The first few gate-failure messages.
    pub messages: Vec<String>,
}

impl Load {
    /// Add another log's samples and counts to this one (all but
    /// `elapsed`); a window keeps the first answer either log served.
    pub fn absorb(&mut self, other: Load) {
        self.latencies_us.extend(other.latencies_us);
        self.completions.extend(other.completions);
        self.start = self.start.or(other.start);
        self.spans.extend(other.spans);
        self.sent += other.sent;
        self.succeeded += other.succeeded;
        self.failed += other.failed;
        self.windows += other.windows;
        self.reloads += other.reloads;
        if self.served.is_empty() {
            self.served = other.served;
        } else {
            for (slot, got) in self.served.iter_mut().zip(other.served) {
                if slot.is_none() {
                    *slot = got;
                }
            }
        }
        self.violations += other.violations;
        self.messages.extend(other.messages);
    }

    /// Record a gate failure, keeping only the first few messages.
    fn violation(&mut self, message: String) {
        self.violations += 1;
        if self.messages.len() < 8 {
            self.messages.push(message);
        }
    }
}

/// A phase of closed-loop load.
#[derive(Debug, Clone, Copy)]
pub struct Phase<'a> {
    /// Server address.
    pub addr: SocketAddr,
    /// The request list.
    pub set: &'a RequestSet,
    /// When to stop.
    pub stop: Stop,
    /// Reload the served model from this artifact every [`RELOAD_EVERY`]
    /// forecasts of client 0.
    pub reload: Option<&'a Path>,
    /// Take the per-request span timestamps.
    pub traced: bool,
    /// Model version the slot is at when the phase starts.
    pub version: u64,
}

impl Phase<'_> {
    /// Run the phase on [`CLIENTS`] threads and merge their logs.
    pub fn run(self) -> Load {
        let barrier = Barrier::new(CLIENTS);
        let start_cell = std::sync::OnceLock::new();
        let logs: Vec<(Load, Instant)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let barrier = &barrier;
                    let start_cell = &start_cell;
                    scope.spawn(move || {
                        barrier.wait();
                        let _ = start_cell.set(Instant::now());
                        self.client(c)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("load client thread panicked"))
                .collect()
        });
        let start = *start_cell.get().expect("clients started");
        let mut merged = Load {
            start: Some(start),
            ..Load::default()
        };
        for (log, end) in logs {
            merged.elapsed = merged.elapsed.max(end.saturating_duration_since(start));
            merged.absorb(log);
        }
        merged
    }

    /// One closed-loop client: requests `c, c + CLIENTS, …` of the list,
    /// cycling, each on a fresh connection.
    fn client(&self, c: usize) -> (Load, Instant) {
        let set = self.set;
        let mine: Vec<&Request> = set.requests.iter().skip(c).step_by(CLIENTS).collect();
        let reload_bytes = self.reload.map(|path| {
            let body = format!(
                "{{\"model\": \"{SLOT}\", \"path\": {}, \"kind\": \"model\"}}",
                serde_json::to_string(&path.display().to_string()).expect("a string serializes")
            );
            http_post("/reload", &body)
        });
        let mut log = Load {
            served: vec![None; set.windows.len()],
            ..Load::default()
        };
        let mut version = self.version;
        let mut forecasts = 0usize;
        loop {
            match self.stop {
                Stop::Requests(n) if forecasts >= n => break,
                Stop::Deadline(t) if forecasts >= mine.len() && Instant::now() >= t => break,
                _ => {}
            }
            let request = mine[forecasts % mine.len()];
            forecasts += 1;
            log.sent += 1;
            let Ok(exchange) = exchange(self.addr, &request.bytes, self.traced) else {
                log.failed += 1;
                continue;
            };
            let parsed = (exchange.status == 200)
                .then(|| serde_json::from_str::<ForecastResponse>(&exchange.body).ok())
                .flatten();
            let Some(response) = parsed else {
                log.failed += 1;
                continue;
            };
            log.succeeded += 1;
            log.latencies_us.push(exchange.total_us);
            log.completions.push((Instant::now(), request.len));
            if self.traced {
                log.spans.push(exchange.spans);
            }
            log.windows += request.len as u64;
            if response.model_version < version {
                log.violation(format!(
                    "client {c} saw model version {} after {version}",
                    response.model_version
                ));
            }
            version = version.max(response.model_version);
            check_predictions(set, request, &response, &mut log);

            if let (Some(bytes), 0) = (&reload_bytes, c) {
                if forecasts.is_multiple_of(RELOAD_EVERY) {
                    log.sent += 1;
                    match reload(self.addr, bytes) {
                        Ok(v) => {
                            log.succeeded += 1;
                            log.reloads += 1;
                            if v != version + 1 {
                                log.violation(format!("reload gave version {v} after {version}"));
                            }
                            version = v;
                        }
                        Err(_) => log.failed += 1,
                    }
                }
            }
        }
        (log, Instant::now())
    }
}

/// Gate: every served prediction is bit-identical to the offline
/// `RuleSetPredictor::predict` of the same artifact.
fn check_predictions(
    set: &RequestSet,
    request: &Request,
    response: &ForecastResponse,
    log: &mut Load,
) {
    if response.predictions.len() != request.len {
        log.violation(format!(
            "{} predictions for {} windows",
            response.predictions.len(),
            request.len
        ));
        return;
    }
    for (k, got) in response.predictions.iter().enumerate() {
        let i = request.first + k;
        let want = set.expected[i];
        if got.map(f64::to_bits) != want.map(f64::to_bits) {
            log.violation(format!("window {i}: served {got:?}, offline {want:?}"));
        }
        if log.served[i].is_none() {
            log.served[i] = Some(*got);
        }
    }
}

/// A completed HTTP exchange.
#[derive(Debug)]
struct Exchange {
    /// Status code.
    status: u16,
    /// Response body.
    body: String,
    /// Connect start to last byte read, µs.
    total_us: f64,
    /// Span breakdown (zeros when untraced).
    spans: Spans,
}

/// One request on a fresh connection, read to EOF.
///
/// # Errors
/// Connect, write, read or timeout errors, or a response with no head.
fn exchange(addr: SocketAddr, request: &[u8], traced: bool) -> std::io::Result<Exchange> {
    let t0 = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
    stream.set_write_timeout(Some(CLIENT_TIMEOUT))?;
    let t1 = traced.then(Instant::now);
    stream.write_all(request)?;
    let t2 = traced.then(Instant::now);
    let mut response = Vec::with_capacity(8 * 1024);
    let mut t3 = None;
    if traced {
        let mut first = [0u8; 4096];
        let n = stream.read(&mut first)?;
        t3 = Some(Instant::now());
        response.extend_from_slice(&first[..n]);
    }
    stream.read_to_end(&mut response)?;
    let t4 = Instant::now();
    let spans = match (t1, t2, t3) {
        (Some(t1), Some(t2), Some(t3)) => [
            crate::stats::us(t1 - t0),
            crate::stats::us(t2 - t1),
            crate::stats::us(t3 - t2),
            crate::stats::us(t4 - t3),
        ],
        _ => [0.0; 4],
    };
    let (status, body) = split_response(&response)?;
    Ok(Exchange {
        status,
        body: String::from_utf8(body.to_vec()).map_err(|_| bad_response())?,
        total_us: crate::stats::us(t4 - t0),
        spans,
    })
}

fn bad_response() -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed response")
}

/// Status code and body of a raw HTTP response.
fn split_response(raw: &[u8]) -> std::io::Result<(u16, &[u8])> {
    let bad = bad_response;
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(bad)?;
    let head = std::str::from_utf8(&raw[..head_end]).map_err(|_| bad())?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(bad)?;
    Ok((status, &raw[head_end + 4..]))
}

/// `POST /reload`; returns the new model version.
fn reload(addr: SocketAddr, request: &[u8]) -> std::io::Result<u64> {
    let ex = exchange(addr, request, false)?;
    let bad = |m: String| std::io::Error::new(std::io::ErrorKind::InvalidData, m);
    if ex.status != 200 {
        return Err(bad(format!("reload answered {}", ex.status)));
    }
    let response: ReloadResponse =
        serde_json::from_str(&ex.body).map_err(|e| bad(format!("reload body: {e}")))?;
    Ok(response.version)
}

/// Quality of the served answers over the fixed request list: RMSE over
/// answered windows and the percentage answered. A window never served
/// counts as unanswered.
pub fn served_quality(set: &RequestSet, load: &Load) -> (f64, f64) {
    let predictions: Vec<Option<f64>> = load.served.iter().map(|s| s.flatten()).collect();
    crate::score(&predictions, &set.targets)
}

/// Latency and throughput of a phase as medians over consecutive slices of
/// its wall time, so that a burst of interference from other tenants of the
/// host moves only the slices it falls in.
#[derive(Debug, Clone, Copy)]
pub struct Sliced {
    /// Median over slices of the slice's median latency, µs.
    pub p50_us: f64,
    /// Median over slices of the slice's 90th-percentile latency, µs.
    pub p90_us: f64,
    /// Median over slices of the slice's 99th-percentile latency, µs.
    pub p99_us: f64,
    /// Median over slices of windows answered per wall-clock second.
    pub throughput: f64,
    /// Complete slices.
    pub slices: usize,
    /// Fewest requests in a slice.
    pub min_samples: usize,
}

/// Length of one slice of [`sliced`].
pub const SLICE: Duration = Duration::from_secs(2);

/// Cut the phase into [`SLICE`]-long slices by completion time (a trailing
/// partial slice is dropped) and take medians over slices.
pub fn sliced(load: &Load) -> Sliced {
    let Some(start) = load.start else {
        return Sliced {
            p50_us: f64::NAN,
            p90_us: f64::NAN,
            p99_us: f64::NAN,
            throughput: f64::NAN,
            slices: 0,
            min_samples: 0,
        };
    };
    let slices = ((load.elapsed.as_secs_f64() / SLICE.as_secs_f64()) as usize).max(1);
    let mut latencies = vec![Vec::new(); slices];
    let mut windows = vec![0usize; slices];
    for (&(done, n), &latency) in load.completions.iter().zip(&load.latencies_us) {
        let i =
            (done.saturating_duration_since(start).as_secs_f64() / SLICE.as_secs_f64()) as usize;
        if i < slices {
            latencies[i].push(latency);
            windows[i] += n;
        }
    }
    let per =
        |f: &dyn Fn(&[f64]) -> f64| median(&latencies.iter().map(|l| f(l)).collect::<Vec<_>>());
    let rates: Vec<f64> = windows
        .iter()
        .map(|&n| n as f64 / SLICE.as_secs_f64())
        .collect();
    Sliced {
        p50_us: per(&|l| median(l)),
        p90_us: per(&|l| quantile(l, 0.9)),
        p99_us: per(&|l| quantile(l, 0.99)),
        throughput: median(&rates),
        slices,
        min_samples: latencies.iter().map(Vec::len).min().unwrap_or(0),
    }
}

/// Copy a phase's client gate failures into the report.
pub fn report_violations(load: &Load, report: &mut Report) {
    for m in &load.messages {
        report.violation(m.clone());
    }
    let unlisted = load.violations - load.messages.len() as u64;
    if unlisted > 0 {
        report.violation(format!("{unlisted} more gate failures in the load phase"));
    }
}
