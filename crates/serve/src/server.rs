//! The threaded forecast server.
//!
//! Architecture: one accept thread and a fixed worker pool joined by a
//! *bounded* crossbeam channel. The accept thread never blocks on a full
//! queue — `try_send` either admits the connection (recording its admission
//! instant for the deadline clock) or sheds it with an immediate typed 429.
//! Workers pull connections, frame one HTTP request, answer it, and close.
//! Shutdown drops the channel's only sender; workers drain whatever was
//! already admitted, then exit — graceful drain for free from channel
//! semantics.
//!
//! Request handlers never lock while predicting: they clone the slot's
//! `Arc<ModelEntry>` once and work on that snapshot, which is what makes
//! hot reload torn-state-free.

use crate::http::{self, HttpError, Request};
use crate::protocol::{
    ErrorKind, ErrorResponse, ForecastRequest, ForecastResponse, ReloadRequest, ReloadResponse,
    WindowDetail,
};
use crate::registry::{ModelEntry, ModelRegistry, RegistryError};
use crate::stats::ServerStats;
use crossbeam::channel::{self, TrySendError};
use serde::Serialize;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables of one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:8471` (`:0` for an ephemeral port).
    pub addr: String,
    /// Worker threads answering requests.
    pub workers: usize,
    /// Admitted-but-unserved connections the queue holds before shedding.
    pub queue_depth: usize,
    /// End-to-end budget per request (queue wait + read + predict + write).
    pub deadline: Duration,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
    /// Largest accepted `windows` micro-batch.
    pub max_batch: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_depth: 64,
            deadline: Duration::from_secs(2),
            max_body_bytes: 1 << 20,
            max_batch: 256,
        }
    }
}

/// A connection admitted by the accept thread, stamped for the deadline
/// clock.
struct Admitted {
    stream: TcpStream,
    admitted_at: Instant,
}

/// A running forecast server. Dropping the handle without calling
/// [`Server::shutdown`] detaches the threads (the process keeps serving).
#[derive(Debug)]
pub struct Server {
    local_addr: SocketAddr,
    registry: Arc<ModelRegistry>,
    stats: Arc<ServerStats>,
    stop: Arc<AtomicBool>,
    accept_handle: Option<JoinHandle<()>>,
    worker_handles: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the accept thread and worker pool, and return
    /// immediately.
    ///
    /// # Errors
    /// I/O errors from binding the listener.
    pub fn start(config: ServerConfig, registry: Arc<ModelRegistry>) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let stats = Arc::new(ServerStats::default());
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = channel::bounded::<Admitted>(config.queue_depth.max(1));

        let mut worker_handles: Vec<JoinHandle<()>> = Vec::with_capacity(config.workers.max(1));
        for i in 0..config.workers.max(1) {
            let rx = rx.clone();
            let registry = Arc::clone(&registry);
            let stats = Arc::clone(&stats);
            let config = config.clone();
            let handle = std::thread::Builder::new()
                .name(format!("forecast-worker-{i}"))
                .spawn(move || {
                    while let Ok(admitted) = rx.recv() {
                        handle_connection(admitted, &registry, &stats, &config);
                    }
                })?;
            worker_handles.push(handle);
        }

        let accept_handle = {
            let stop = Arc::clone(&stop);
            let stats = Arc::clone(&stats);
            std::thread::Builder::new()
                .name("forecast-accept".to_string())
                .spawn(move || {
                    // `tx` lives in this thread only: when the loop breaks,
                    // the channel disconnects and workers drain then exit.
                    for stream in listener.incoming() {
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        let admitted = Admitted {
                            stream,
                            admitted_at: Instant::now(),
                        };
                        if let Err(e) = tx.try_send(admitted) {
                            match e {
                                TrySendError::Full(rejected) => {
                                    ServerStats::inc(&stats.shed);
                                    shed(rejected.stream);
                                }
                                TrySendError::Disconnected(_) => break,
                            }
                        }
                    }
                })?
        };

        Ok(Server {
            local_addr,
            registry,
            stats,
            stop,
            accept_handle: Some(accept_handle),
            worker_handles,
        })
    }

    /// The address the server actually bound (resolves `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The registry this server serves from (shared; installs/hot reloads
    /// through it are visible to in-flight traffic).
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.registry
    }

    /// Live counters.
    pub fn stats(&self) -> &Arc<ServerStats> {
        &self.stats
    }

    /// Stop accepting, drain every already-admitted connection, and join all
    /// threads. Requests admitted before the call are fully answered.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Release);
        // The accept loop only re-checks the flag per connection; poke it.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        for h in self.worker_handles.drain(..) {
            let _ = h.join();
        }
    }

    /// Block until the server exits on its own (it doesn't, short of thread
    /// panic) — the foreground mode the CLI uses.
    pub fn join(mut self) {
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        for h in self.worker_handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Best-effort typed 429 on the accept thread, then close.
fn shed(mut stream: TcpStream) {
    let body = ErrorResponse::new(
        ErrorKind::Overloaded,
        "admission queue full; retry with backoff",
    );
    let _ = stream.set_write_timeout(Some(Duration::from_millis(200)));
    let _ = http::write_response(&mut stream, ErrorKind::Overloaded.status(), &to_json(&body));
}

fn to_json<T: Serialize>(value: &T) -> String {
    // Response types are plain data structs, so serialization cannot fail in
    // practice; if it ever does, degrade to a valid JSON error body rather
    // than panicking the worker mid-response.
    serde_json::to_string(value).unwrap_or_else(|_| {
        "{\"error\":\"internal\",\"message\":\"response serialization failed\"}".to_string()
    })
}

/// Outcome of routing: a status + serialized body.
struct Reply {
    status: u16,
    body: String,
    ok: bool,
}

impl Reply {
    fn ok<T: Serialize>(value: &T) -> Reply {
        Reply {
            status: 200,
            body: to_json(value),
            ok: true,
        }
    }

    fn error(kind: ErrorKind, message: impl Into<String>) -> Reply {
        Reply {
            status: kind.status(),
            body: to_json(&ErrorResponse::new(kind, message.into())),
            ok: false,
        }
    }
}

/// Serve one admitted connection end to end. Never panics on malformed
/// input; every failure is answered as a typed error when the socket still
/// allows it.
fn handle_connection(
    admitted: Admitted,
    registry: &ModelRegistry,
    stats: &ServerStats,
    config: &ServerConfig,
) {
    let Admitted {
        mut stream,
        admitted_at,
    } = admitted;
    ServerStats::inc(&stats.requests);

    // The socket timeouts are the enforcement mechanism for the deadline
    // while blocked on I/O; elapsed-time checks cover the compute between.
    let remaining = config.deadline.saturating_sub(admitted_at.elapsed());
    let io_budget = remaining.max(Duration::from_millis(1));
    let _ = stream.set_read_timeout(Some(io_budget));
    let _ = stream.set_write_timeout(Some(io_budget));

    let reply = match http::read_request(&mut stream, config.max_body_bytes) {
        Ok(request) => route(&request, registry, stats, config, admitted_at),
        Err(HttpError::Timeout) => Reply::error(
            ErrorKind::DeadlineExceeded,
            format!("request not received within {:?}", config.deadline),
        ),
        Err(HttpError::PayloadTooLarge { declared, limit }) => Reply::error(
            ErrorKind::PayloadTooLarge,
            format!("body of {declared} bytes exceeds limit {limit}"),
        ),
        Err(HttpError::BadRequest(msg)) => Reply::error(ErrorKind::BadRequest, msg),
        Err(HttpError::Io(_)) => {
            // Peer vanished before sending a request; nothing to answer.
            ServerStats::inc(&stats.errors);
            stats.latency.record(elapsed_us(admitted_at));
            return;
        }
    };

    ServerStats::inc(if reply.ok { &stats.ok } else { &stats.errors });
    let _ = http::write_response(&mut stream, reply.status, &reply.body);
    stats.latency.record(elapsed_us(admitted_at));
}

fn elapsed_us(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Dispatch a framed request to its endpoint.
fn route(
    request: &Request,
    registry: &ModelRegistry,
    stats: &ServerStats,
    config: &ServerConfig,
    admitted_at: Instant,
) -> Reply {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/forecast") => forecast(request, registry, stats, config, admitted_at),
        ("POST", "/reload") => reload(request, registry, stats),
        ("GET", "/healthz") => Reply::ok(&Health {
            status: "ok".to_string(),
            models: registry.len(),
        }),
        ("GET", "/models") => Reply::ok(&registry.list()),
        ("GET", "/stats") => Reply::ok(&stats.snapshot()),
        (_, "/forecast" | "/reload" | "/healthz" | "/models" | "/stats") => Reply::error(
            ErrorKind::MethodNotAllowed,
            format!("{} is not allowed on {}", request.method, request.path),
        ),
        (_, path) => Reply::error(ErrorKind::NotFound, format!("no route at {path}")),
    }
}

#[derive(Debug, Serialize)]
struct Health {
    status: String,
    models: usize,
}

/// `POST /forecast`: validate, predict, answer.
fn forecast(
    request: &Request,
    registry: &ModelRegistry,
    stats: &ServerStats,
    config: &ServerConfig,
    admitted_at: Instant,
) -> Reply {
    let body = match std::str::from_utf8(&request.body) {
        Ok(s) => s,
        Err(_) => return Reply::error(ErrorKind::BadRequest, "body is not UTF-8"),
    };
    let req: ForecastRequest = match serde_json::from_str(body) {
        Ok(r) => r,
        Err(e) => return Reply::error(ErrorKind::BadRequest, format!("invalid request: {e}")),
    };

    // One atomic grab: everything below sees exactly this model version.
    let Some(entry) = registry.get(&req.model) else {
        return Reply::error(
            ErrorKind::ModelNotFound,
            format!("no model slot named {:?}", req.model),
        );
    };

    if req.windows.is_empty() {
        return Reply::error(ErrorKind::EmptyRequest, "windows must be non-empty");
    }
    if req.windows.len() > config.max_batch {
        return Reply::error(
            ErrorKind::BatchTooLarge,
            format!(
                "{} windows exceed the micro-batch cap of {}",
                req.windows.len(),
                config.max_batch
            ),
        );
    }
    let expected = entry.spec.window();
    for (i, w) in req.windows.iter().enumerate() {
        if w.len() != expected {
            return Reply::error(
                ErrorKind::WindowLengthMismatch,
                format!(
                    "window {i} has {} values, model {:?} expects {expected}",
                    w.len(),
                    req.model
                ),
            );
        }
        if let Some(j) = w.iter().position(|x| !x.is_finite()) {
            return Reply::error(
                ErrorKind::NonFiniteInput,
                format!("window {i} value {j} is not finite"),
            );
        }
    }
    if req.horizon == 0 {
        return Reply::error(ErrorKind::BadRequest, "horizon must be at least 1");
    }
    if req.horizon > 1 && (entry.spec.horizon() != 1 || entry.spec.spacing() != 1) {
        return Reply::error(
            ErrorKind::UnsupportedHorizon,
            format!(
                "closed-loop horizon needs a τ=1, Δ=1 model; {:?} has τ={}, Δ={}",
                req.model,
                entry.spec.horizon(),
                entry.spec.spacing()
            ),
        );
    }
    if admitted_at.elapsed() > config.deadline {
        return Reply::error(
            ErrorKind::DeadlineExceeded,
            format!(
                "deadline of {:?} exhausted before prediction",
                config.deadline
            ),
        );
    }

    let response = predict_batch(&req, &entry);
    stats
        .windows
        .fetch_add(req.windows.len() as u64, Ordering::Relaxed);
    stats
        .abstentions
        .fetch_add(response.abstained as u64, Ordering::Relaxed);
    Reply::ok(&response)
}

/// Run the batch on the snapshot the request grabbed, with one scratch
/// bitset allocated for the whole batch.
fn predict_batch(req: &ForecastRequest, entry: &ModelEntry) -> ForecastResponse {
    let combination = req.combination.to_core();
    let compiled = &entry.compiled;
    let mut scratch = compiled.scratch();
    let mut single = |window: &[f64]| -> Option<f64> {
        compiled.predict_with_into(window, combination, &mut scratch)
    };

    let mut predictions = Vec::with_capacity(req.windows.len());
    let mut trajectories = (req.horizon > 1).then(|| Vec::with_capacity(req.windows.len()));
    for window in &req.windows {
        if let Some(trajs) = &mut trajectories {
            // Closed-loop free run: slide the window by one per step, stop
            // at the first abstention.
            let mut rolling = window.clone();
            let d = rolling.len();
            let mut traj = Vec::with_capacity(req.horizon);
            for _ in 0..req.horizon {
                match single(&rolling) {
                    Some(p) => {
                        traj.push(p);
                        rolling.rotate_left(1);
                        // audit: allow(panic-freedom) — d == rolling.len() >= 1: validated non-empty at admission
                        rolling[d - 1] = p;
                    }
                    None => break,
                }
            }
            predictions.push(traj.first().copied());
            trajs.push(traj);
        } else {
            predictions.push(single(window));
        }
    }

    let details = req.detail.then(|| {
        req.windows
            .iter()
            .map(|window| {
                compiled
                    .predict_detailed_into(window, &mut scratch)
                    .map(|d| WindowDetail {
                        firing_rules: d.firing_rules,
                        expected_error: d.expected_error,
                    })
            })
            .collect()
    });

    let abstained = predictions.iter().filter(|p| p.is_none()).count();
    ForecastResponse {
        model: entry.name().to_string(),
        model_version: entry.version,
        engine: req.engine,
        predictions,
        trajectories,
        details,
        abstained,
    }
}

/// `POST /reload`: swap a slot from disk, fingerprint-gated.
fn reload(request: &Request, registry: &ModelRegistry, stats: &ServerStats) -> Reply {
    let body = match std::str::from_utf8(&request.body) {
        Ok(s) => s,
        Err(_) => return Reply::error(ErrorKind::BadRequest, "body is not UTF-8"),
    };
    let req: ReloadRequest = match serde_json::from_str(body) {
        Ok(r) => r,
        Err(e) => return Reply::error(ErrorKind::BadRequest, format!("invalid request: {e}")),
    };
    match registry.reload(&req.model, Path::new(&req.path), req.kind) {
        Ok(entry) => {
            ServerStats::inc(&stats.reloads);
            Reply::ok(&ReloadResponse {
                model: entry.name().to_string(),
                version: entry.version,
                rules: entry.compiled.len(),
                fingerprint: entry.fingerprint,
            })
        }
        Err(e @ RegistryError::FingerprintMismatch { .. }) => {
            Reply::error(ErrorKind::FingerprintMismatch, e.to_string())
        }
        Err(e @ RegistryError::Artifact(_)) => Reply::error(ErrorKind::ReloadFailed, e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{CombinationMode, EngineKind};
    use evoforecast_core::rule::{Condition, Gene, Rule};
    use evoforecast_core::RuleSetPredictor;
    use evoforecast_tsdata::window::WindowSpec;

    fn entry() -> Arc<ModelEntry> {
        let rules = vec![
            Rule {
                condition: Condition::new(vec![Gene::bounded(0.0, 10.0), Gene::Wildcard]),
                coefficients: vec![1.0, 0.0],
                intercept: 1.0,
                prediction: 1.0,
                error: 0.1,
                matched: 5,
            },
            Rule {
                condition: Condition::new(vec![Gene::Wildcard, Gene::bounded(0.0, 5.0)]),
                coefficients: vec![0.0, 2.0],
                intercept: 0.0,
                prediction: 0.0,
                error: 0.2,
                matched: 5,
            },
        ];
        let registry = ModelRegistry::new();
        registry
            .install(
                "default",
                WindowSpec::new(2, 1).unwrap(),
                RuleSetPredictor::new(rules),
            )
            .unwrap()
    }

    fn request(windows: Vec<Vec<f64>>) -> ForecastRequest {
        ForecastRequest {
            model: "default".to_string(),
            windows,
            horizon: 1,
            combination: CombinationMode::Mean,
            detail: false,
            engine: EngineKind::Compiled,
        }
    }

    #[test]
    fn batched_forecasts_are_the_rule_means() {
        // Rule 0 answers x0 + 1 on x0 ∈ [0, 10]; rule 1 answers 2·x1 on
        // x1 ∈ [0, 5].
        let windows = vec![
            vec![3.0, 4.0],   // both: (4 + 8) / 2
            vec![50.0, 2.0],  // rule 1 only
            vec![50.0, 50.0], // neither: abstains
            vec![0.0, 0.0],   // both: (1 + 0) / 2
        ];
        let resp = predict_batch(&request(windows), &entry());
        assert_eq!(
            resp.predictions,
            vec![Some(6.0), Some(4.0), None, Some(0.5)]
        );
        assert_eq!(resp.abstained, 1);
        assert_eq!(resp.engine, EngineKind::Compiled);
    }

    #[test]
    fn detail_opt_in_reports_firing_rules() {
        let entry = entry();
        let mut req = request(vec![vec![3.0, 4.0], vec![50.0, 50.0]]);
        req.detail = true;
        let resp = predict_batch(&req, &entry);
        let details = resp.details.unwrap();
        assert_eq!(details[0].as_ref().unwrap().firing_rules, 2);
        assert!(details[1].is_none());
    }

    #[test]
    fn free_run_trajectories_stop_on_abstention() {
        let mut req = request(vec![vec![3.0, 4.0]]);
        req.horizon = 10;
        let resp = predict_batch(&req, &entry());
        let trajs = resp.trajectories.unwrap();
        // Each step slides its prediction into the window; after eight
        // steps the window is [10.5, 8], which no rule covers.
        assert_eq!(trajs, vec![vec![6.0, 5.0, 8.5, 6.0, 9.5, 7.0, 10.5, 8.0]]);
        assert_eq!(resp.predictions, vec![Some(6.0)]);
        assert_eq!(resp.abstained, 0);
    }

    #[test]
    fn empty_model_abstains_without_panicking() {
        let registry = ModelRegistry::new();
        let entry = registry
            .install(
                "default",
                WindowSpec::new(2, 1).unwrap(),
                RuleSetPredictor::new(vec![]),
            )
            .unwrap();
        let resp = predict_batch(&request(vec![vec![1.0, 2.0]]), &entry);
        assert_eq!(resp.predictions, vec![None]);
        assert_eq!(resp.abstained, 1);
    }
}
