//! Shared pieces of the evoforecast benchmark: argument parsing, the four
//! seeded workloads, the training campaign and the closed-loop HTTP load
//! generator, and the one-line JSON result both binaries print.
//!
//! The end-to-end binary (`evobench`) uses only the API the repository
//! keeps stable: `Supervisor`, `TrainedModel` save/load, `ModelRegistry`,
//! `Server`, `RuleSetPredictor` and `CompiledRuleSet`, configured through
//! `EngineConfig::for_series` and its `with_*` builders. The kernel replay
//! of the traced run lives in the separate `evobench-trace` target.

#![forbid(unsafe_code)]

pub mod cli;
pub mod report;
pub mod serving;
pub mod stats;
pub mod training;

use std::path::{Path, PathBuf};

/// Window length D of every workload (the paper's Venice set-up).
pub const WINDOW: usize = 24;
/// Forecast horizon τ of every workload.
pub const HORIZON: usize = 4;
/// Held-out hours every workload scores on (and every serving run sends
/// as its request list). Long enough that quality varies little from one
/// workload seed to the next.
pub const HOLDOUT_HOURS: usize = 65_536;
/// Independent set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// Scratch directory for generated inputs, checkpoints and model artifacts,
/// relative to the working directory (the repository root).
pub fn data_dir() -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(".bench_data");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// A file name in [`data_dir`] unique to this process.
pub fn scratch_file(stem: &str, ext: &str) -> std::io::Result<PathBuf> {
    Ok(data_dir()?.join(format!("{stem}-{}.{ext}", std::process::id())))
}

/// Removes the listed files when dropped, so an early error return leaves
/// no generated input behind.
#[derive(Debug, Default)]
pub struct Cleanup(Vec<PathBuf>);

impl Cleanup {
    /// Register a file for removal.
    pub fn add(&mut self, path: &Path) {
        self.0.push(path.to_path_buf());
    }
}

impl Drop for Cleanup {
    fn drop(&mut self) {
        for path in &self.0 {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Error type of the benchmark: a message for stderr.
pub type BenchResult<T> = Result<T, String>;

/// Convert any displayable error into the benchmark's error type.
pub fn err<E: std::fmt::Display>(context: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("{context}: {e}")
}

/// FNV-1a over a rule set's canonical JSON: identical code and seed must
/// print the same digest.
pub fn rules_digest(predictor: &evoforecast_core::RuleSetPredictor) -> BenchResult<u64> {
    let json = serde_json::to_string(predictor.rules()).map_err(err("serialize rules"))?;
    Ok(evoforecast_core::checkpoint::fingerprint_json(&json))
}

/// Root-mean-square error (cm) over answered windows and the percentage of
/// windows answered — the paper's "percentage of prediction".
pub fn score(predictions: &[Option<f64>], targets: &[f64]) -> (f64, f64) {
    let mut sq = 0.0;
    let mut answered = 0usize;
    for (p, t) in predictions.iter().zip(targets) {
        if let Some(p) = p {
            sq += (p - t) * (p - t);
            answered += 1;
        }
    }
    let rmse = if answered == 0 {
        f64::NAN
    } else {
        (sq / answered as f64).sqrt()
    };
    (
        rmse,
        100.0 * answered as f64 / predictions.len().max(1) as f64,
    )
}
