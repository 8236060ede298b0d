//! Online inference for evoforecast: a threaded HTTP forecast server that
//! serves [`evoforecast_core::CompiledRuleSet`] predictors out of a
//! hot-swap model registry.
//!
//! The Michigan design makes the *whole rule population* the deployed model,
//! so serving means match-and-combine over the rule set per query. This
//! crate puts that online:
//!
//! * [`registry::ModelRegistry`] — named slots of immutable
//!   `Arc<ModelEntry>` values (window spec + scan predictor + compiled
//!   predictor), swapped atomically for zero-downtime hot reload, gated by a
//!   config fingerprint.
//! * [`server::Server`] — a std-`TcpListener` HTTP/1.1 server with an
//!   accept thread, a bounded admission queue that sheds load with typed
//!   429s instead of queueing unboundedly, a worker pool, per-request
//!   deadlines, and graceful drain on shutdown.
//! * [`protocol`] — the JSON request/response types, including the typed
//!   [`protocol::ErrorKind`] taxonomy every failure is reported in.
//! * [`stats`] — lock-free counters and a fixed-bucket latency histogram
//!   behind `GET /stats`.
//!
//! # Quickstart
//!
//! ```
//! use evoforecast_core::rule::{Condition, Gene, Rule};
//! use evoforecast_core::RuleSetPredictor;
//! use evoforecast_serve::registry::ModelRegistry;
//! use evoforecast_serve::server::{Server, ServerConfig};
//! use evoforecast_tsdata::window::WindowSpec;
//! use std::io::{Read, Write};
//! use std::sync::Arc;
//!
//! let rule = Rule {
//!     condition: Condition::new(vec![Gene::bounded(0.0, 100.0)]),
//!     coefficients: vec![1.0],
//!     intercept: 1.0,
//!     prediction: 1.0,
//!     error: 0.1,
//!     matched: 5,
//! };
//! let registry = Arc::new(ModelRegistry::new());
//! registry
//!     .install(
//!         "default",
//!         WindowSpec::new(1, 1).unwrap(),
//!         RuleSetPredictor::new(vec![rule]),
//!     )
//!     .unwrap();
//! let server = Server::start(ServerConfig::default(), registry).unwrap();
//!
//! let mut conn = std::net::TcpStream::connect(server.local_addr()).unwrap();
//! let body = r#"{"windows": [[41.0]]}"#;
//! write!(
//!     conn,
//!     "POST /forecast HTTP/1.1\r\ncontent-length: {}\r\n\r\n{}",
//!     body.len(),
//!     body
//! )
//! .unwrap();
//! let mut reply = String::new();
//! conn.read_to_string(&mut reply).unwrap();
//! assert!(reply.contains("42"), "{reply}");
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod http;
pub mod protocol;
pub mod registry;
pub mod server;
pub mod stats;

pub use protocol::{
    ArtifactKind, CombinationMode, EngineKind, ErrorKind, ErrorResponse, ForecastRequest,
    ForecastResponse, ModelInfo, ReloadResponse, WindowDetail,
};
pub use registry::{ModelEntry, ModelRegistry, RegistryError};
pub use server::{Server, ServerConfig};
pub use stats::{LatencyHistogram, ServerStats, StatsSnapshot};
