//! Wire protocol of the forecast server.
//!
//! Every body is JSON. Successful forecasts return [`ForecastResponse`];
//! every failure — malformed input, capacity, deadline — returns an
//! [`ErrorResponse`] with a machine-readable [`ErrorKind`], never a dropped
//! connection. Clients can rely on `error` for dispatch and treat `message`
//! as human-readable context.

use serde::{Deserialize, Serialize};

fn default_model() -> String {
    "default".to_string()
}

fn default_horizon() -> usize {
    1
}

/// The prediction engine named in requests and responses. There is one:
/// every forecast answers from the compiled rule set, and a request naming
/// any other engine is a `bad-request`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum EngineKind {
    /// Interval-projection compiled predictor (binary searches + bitset AND).
    #[default]
    Compiled,
}

/// How simultaneously firing rules are combined — mirrors
/// [`evoforecast_core::Combination`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum CombinationMode {
    /// The paper's rule: plain mean over firing rules.
    #[default]
    Mean,
    /// Weight each firing rule by the inverse of its expected error.
    InverseErrorWeighted,
}

impl CombinationMode {
    /// Lower to the core combination strategy.
    pub(crate) fn to_core(self) -> evoforecast_core::Combination {
        match self {
            CombinationMode::Mean => evoforecast_core::Combination::Mean,
            CombinationMode::InverseErrorWeighted => {
                evoforecast_core::Combination::InverseErrorWeighted
            }
        }
    }
}

/// `POST /forecast` body: one or more windows for one model slot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ForecastRequest {
    /// Model slot to query.
    #[serde(default = "default_model")]
    pub model: String,
    /// Micro-batch of windows, each `D` values oldest-first.
    #[serde(default)]
    pub windows: Vec<Vec<f64>>,
    /// Closed-loop steps ahead. `1` (default) answers at the model's trained
    /// horizon τ; `> 1` iterates a τ = 1, spacing-1 model that many steps.
    #[serde(default = "default_horizon")]
    pub horizon: usize,
    /// Rule-combination strategy.
    #[serde(default)]
    pub combination: CombinationMode,
    /// Opt in to per-window firing diagnostics.
    #[serde(default)]
    pub detail: bool,
    /// Prediction engine; `compiled`, the only one, when absent.
    #[serde(default)]
    pub engine: EngineKind,
}

/// Per-window diagnostics, present when the request set `detail`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowDetail {
    /// Number of rules that fired.
    pub firing_rules: usize,
    /// Mean expected error of the firing rules — the system's own
    /// confidence estimate.
    pub expected_error: f64,
}

/// `POST /forecast` success body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ForecastResponse {
    /// Model slot that answered.
    pub model: String,
    /// Registry version of the model that answered (bumped on hot reload).
    pub model_version: u64,
    /// Engine that produced the predictions.
    pub engine: EngineKind,
    /// One entry per request window: the forecast, or `null` when every rule
    /// abstained. With `horizon > 1` this is the **first** step of each
    /// trajectory (or `null` when the free run died immediately).
    pub predictions: Vec<Option<f64>>,
    /// With `horizon > 1`: the full closed-loop trajectory per window,
    /// truncated early where the system abstained.
    #[serde(default)]
    pub trajectories: Option<Vec<Vec<f64>>>,
    /// With `detail = true`: per-window diagnostics (`null` on abstention).
    #[serde(default)]
    pub details: Option<Vec<Option<WindowDetail>>>,
    /// How many request windows got no prediction.
    pub abstained: usize,
}

/// `POST /reload` body: swap a model slot from an on-disk artifact.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct ReloadRequest {
    /// Slot to (re)load.
    #[serde(default = "default_model")]
    pub model: String,
    /// Path to the artifact on the server's filesystem.
    pub path: String,
    /// Artifact flavor at `path`.
    #[serde(default)]
    pub kind: ArtifactKind,
}

/// On-disk artifact flavors the registry can load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum ArtifactKind {
    /// A [`evoforecast_core::prelude::TrainedModel`] `save_json` file
    /// (self-describing: carries its window spec).
    #[default]
    Model,
}

/// `POST /reload` success body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReloadResponse {
    /// Slot that was swapped.
    pub model: String,
    /// New registry version.
    pub version: u64,
    /// Rules in the freshly loaded set.
    pub rules: usize,
    /// Config fingerprint of the loaded artifact.
    pub fingerprint: u64,
}

/// One registry slot as reported by `GET /models`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelInfo {
    /// Slot name.
    pub name: String,
    /// Registry version (bumped on each successful reload).
    pub version: u64,
    /// Rules in the live set.
    pub rules: usize,
    /// Window length `D` the model expects.
    pub window: usize,
    /// Forecast horizon τ it was trained for.
    pub horizon: usize,
    /// Tap spacing Δ.
    pub spacing: usize,
    /// Config fingerprint reloads must match.
    pub fingerprint: u64,
}

/// Machine-readable failure classes. Serialized kebab-case on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum ErrorKind {
    /// Body was not valid JSON / not a valid request object.
    BadRequest,
    /// The requested model slot does not exist.
    ModelNotFound,
    /// A window's length differs from the model's `D`.
    WindowLengthMismatch,
    /// A window contains NaN/∞ (JSON `null` parses as NaN).
    NonFiniteInput,
    /// The request contained no windows.
    EmptyRequest,
    /// More windows than the server's micro-batch cap.
    BatchTooLarge,
    /// Request body exceeded the configured byte limit.
    PayloadTooLarge,
    /// `horizon > 1` on a model not trained at τ = 1, Δ = 1.
    UnsupportedHorizon,
    /// The request spent longer than the deadline in queue + processing.
    DeadlineExceeded,
    /// Admission queue full — load was shed; retry with backoff.
    Overloaded,
    /// Artifact fingerprint differs from the slot's contract; old model
    /// keeps serving.
    FingerprintMismatch,
    /// The artifact could not be read or parsed.
    ReloadFailed,
    /// No route at this path.
    NotFound,
    /// Route exists, method is wrong.
    MethodNotAllowed,
}

impl ErrorKind {
    /// The HTTP status code this error class maps to.
    pub fn status(self) -> u16 {
        match self {
            ErrorKind::BadRequest
            | ErrorKind::WindowLengthMismatch
            | ErrorKind::NonFiniteInput
            | ErrorKind::EmptyRequest
            | ErrorKind::UnsupportedHorizon => 400,
            ErrorKind::ModelNotFound | ErrorKind::NotFound => 404,
            ErrorKind::MethodNotAllowed => 405,
            ErrorKind::FingerprintMismatch => 409,
            ErrorKind::BatchTooLarge | ErrorKind::PayloadTooLarge => 413,
            ErrorKind::ReloadFailed => 422,
            ErrorKind::Overloaded => 429,
            ErrorKind::DeadlineExceeded => 504,
        }
    }
}

/// Typed failure body — the only shape errors are ever reported in.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ErrorResponse {
    /// Failure class for client dispatch.
    pub error: ErrorKind,
    /// Human-readable context.
    pub message: String,
}

impl ErrorResponse {
    /// Build a typed error body.
    pub fn new(error: ErrorKind, message: impl Into<String>) -> ErrorResponse {
        ErrorResponse {
            error,
            message: message.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_defaults_fill_in() {
        let req: ForecastRequest = serde_json::from_str(r#"{"windows": [[1.0, 2.0]]}"#).unwrap();
        assert_eq!(req.model, "default");
        assert_eq!(req.horizon, 1);
        assert_eq!(req.combination, CombinationMode::Mean);
        assert_eq!(req.engine, EngineKind::Compiled);
        assert!(!req.detail);
        assert_eq!(req.windows, vec![vec![1.0, 2.0]]);
    }

    #[test]
    fn kebab_case_enums_round_trip() {
        let req: ForecastRequest = serde_json::from_str(
            r#"{"windows": [], "combination": "inverse-error-weighted", "engine": "compiled"}"#,
        )
        .unwrap();
        assert_eq!(req.combination, CombinationMode::InverseErrorWeighted);
        assert_eq!(req.engine, EngineKind::Compiled);
        let json = serde_json::to_string(&req).unwrap();
        assert!(json.contains(r#""engine":"compiled""#), "{json}");
        let back: ForecastRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back.combination, req.combination);
        assert_eq!(back.engine, req.engine);
        // `scan` names no engine, so the request does not decode.
        assert!(serde_json::from_str::<ForecastRequest>(r#"{"engine": "scan"}"#).is_err());
    }

    #[test]
    fn null_window_value_parses_as_nan() {
        let req: ForecastRequest = serde_json::from_str(r#"{"windows": [[1.0, null]]}"#).unwrap();
        assert!(req.windows[0][1].is_nan());
    }

    #[test]
    fn error_kinds_map_to_statuses() {
        assert_eq!(ErrorKind::BadRequest.status(), 400);
        assert_eq!(ErrorKind::ModelNotFound.status(), 404);
        assert_eq!(ErrorKind::Overloaded.status(), 429);
        assert_eq!(ErrorKind::DeadlineExceeded.status(), 504);
        assert_eq!(ErrorKind::FingerprintMismatch.status(), 409);
    }

    #[test]
    fn error_response_serializes_kebab_kind() {
        let body = serde_json::to_string(&ErrorResponse::new(ErrorKind::WindowLengthMismatch, "w"))
            .unwrap();
        assert!(body.contains("window-length-mismatch"), "{body}");
        let back: ErrorResponse = serde_json::from_str(&body).unwrap();
        assert_eq!(back.error, ErrorKind::WindowLengthMismatch);
    }

    #[test]
    fn reload_request_defaults() {
        let req: ReloadRequest = serde_json::from_str(r#"{"path": "/tmp/m.json"}"#).unwrap();
        assert_eq!(req.model, "default");
        assert_eq!(req.kind, ArtifactKind::Model);
    }
}
