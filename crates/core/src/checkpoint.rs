//! Versioned ensemble checkpoints for long multi-execution campaigns.
//!
//! The paper's solution is the union of rule sets from many independent
//! executions (§3.4), so a production run is a long campaign of waves — and
//! partial progress must survive a killed process. After every wave the
//! supervisor serializes the merged rule set, the per-execution seed/outcome
//! ledger, the number of training windows and a fingerprint of the
//! [`crate::config::EnsembleConfig`] to a checkpoint file;
//! [`crate::supervisor::Supervisor::run_resumable`] restarts from the last
//! completed wave and produces a predictor bit-identical to an uninterrupted
//! run. Coverage is not stored: a resume folds the restored rules over the
//! training windows again, so it has one definition and nothing to corrupt.
//!
//! The format is JSON with an explicit `version` field; a file that fails
//! the typed parse is probed for that field alone, so a future layout change
//! degrades into a clear [`CheckpointError::VersionMismatch`] instead of a
//! confusing shape error.
//! Writes go through a temp file + rename so a crash mid-write never leaves
//! a truncated checkpoint behind.

use crate::predict::check_rule_shapes;
use crate::rule::Rule;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::Path;

/// Current checkpoint layout version. Version 3 dropped the stored coverage
/// union (`covered_words`, `folded_rules`).
pub const CHECKPOINT_VERSION: u32 = 3;

/// Why a checkpoint could not be written, read, or trusted.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure reading or writing the checkpoint.
    Io(std::io::Error),
    /// The file exists but does not parse as a checkpoint.
    Corrupt(String),
    /// The file was written by a different checkpoint layout.
    VersionMismatch {
        /// Version found in the file.
        found: u32,
        /// Version this build writes ([`CHECKPOINT_VERSION`]).
        expected: u32,
    },
    /// The checkpoint was produced under a different ensemble configuration.
    FingerprintMismatch {
        /// Fingerprint stored in the file.
        found: u64,
        /// Fingerprint of the configuration attempting to resume.
        expected: u64,
    },
    /// The checkpoint's coverage universe does not match the training data.
    UniverseMismatch {
        /// Number of training windows recorded in the file.
        found: usize,
        /// Number of training windows in the resuming run.
        expected: usize,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "I/O failure: {e}"),
            CheckpointError::Corrupt(msg) => write!(f, "corrupt checkpoint: {msg}"),
            CheckpointError::VersionMismatch { found, expected } => write!(
                f,
                "checkpoint version {found} is not the supported version {expected}"
            ),
            CheckpointError::FingerprintMismatch { found, expected } => write!(
                f,
                "checkpoint was written under a different ensemble configuration \
                 (fingerprint {found:#018x}, this run is {expected:#018x})"
            ),
            CheckpointError::UniverseMismatch { found, expected } => write!(
                f,
                "checkpoint covers {found} training windows but this run has {expected} \
                 — was it taken on different training data?"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// How one execution slot ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OutcomeStatus {
    /// The slot produced a rule set (possibly after retries).
    Completed,
    /// The slot exhausted its retries; no rules were merged from it.
    Failed,
}

/// Ledger entry for one execution slot: which seed finally ran (or last
/// failed), how many attempts it took, and what it contributed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecutionOutcome {
    /// Zero-based execution slot.
    pub execution: usize,
    /// Seed of the final attempt (the successful one for completed slots).
    pub seed: u64,
    /// Attempts made (1 = succeeded first try).
    pub attempts: u32,
    /// Viable rules the slot contributed to the merged predictor.
    pub rules: usize,
    /// Terminal status.
    pub status: OutcomeStatus,
}

/// Snapshot of a supervisor run at a wave boundary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnsembleCheckpoint {
    /// Layout version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// FNV-1a fingerprint of the canonical [`crate::config::EnsembleConfig`]
    /// JSON — resume refuses to mix checkpoints across configurations.
    pub config_fingerprint: u64,
    /// Execution slots fully processed (a wave-size multiple unless the cap
    /// cut the last wave short).
    pub executions_done: usize,
    /// Per-slot seed/outcome ledger, in slot order.
    pub outcomes: Vec<ExecutionOutcome>,
    /// Merged viable rules so far, in slot order.
    pub rules: Vec<Rule>,
    /// Number of training windows (the coverage universe); a resume on
    /// training data of another length is refused.
    pub coverage_len: usize,
}

impl EnsembleCheckpoint {
    /// Check this checkpoint against the resuming run's configuration
    /// fingerprint and training-window count.
    ///
    /// # Errors
    /// [`CheckpointError::FingerprintMismatch`] / `UniverseMismatch`.
    pub fn validate(&self, fingerprint: u64, n_windows: usize) -> Result<(), CheckpointError> {
        if self.config_fingerprint != fingerprint {
            return Err(CheckpointError::FingerprintMismatch {
                found: self.config_fingerprint,
                expected: fingerprint,
            });
        }
        if self.coverage_len != n_windows {
            return Err(CheckpointError::UniverseMismatch {
                found: self.coverage_len,
                expected: n_windows,
            });
        }
        Ok(())
    }

    /// Atomically write the checkpoint: serialize to `<path>.tmp`, then
    /// rename over `path`, so an interrupted write never corrupts the last
    /// good checkpoint.
    ///
    /// # Errors
    /// [`CheckpointError::Io`] on filesystem failures, `Corrupt` if the
    /// checkpoint cannot be serialized.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        let path = path.as_ref();
        let json = serde_json::to_string_pretty(self)
            .map_err(|e| CheckpointError::Corrupt(format!("serialization failed: {e:?}")))?;
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, json)?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Load and version-check a checkpoint file. The file is parsed once;
    /// only when that typed parse fails is it probed for its `version`
    /// alone, so layout drift reports as a version mismatch, not a shape
    /// error.
    ///
    /// # Errors
    /// [`CheckpointError::Io`] when the file cannot be read, `Corrupt` when
    /// it does not parse or its rules do not fit together (see
    /// [`crate::RuleSetPredictor`]'s `Deserialize`), `VersionMismatch` for
    /// foreign layouts.
    pub fn load(path: impl AsRef<Path>) -> Result<EnsembleCheckpoint, CheckpointError> {
        let text = std::fs::read_to_string(path)?;
        let shape_error = match serde_json::from_str::<EnsembleCheckpoint>(&text) {
            Ok(cp) if cp.version == CHECKPOINT_VERSION => {
                return check_rule_shapes(&cp.rules)
                    .map(|()| cp)
                    .map_err(CheckpointError::Corrupt)
            }
            Ok(cp) => {
                return Err(CheckpointError::VersionMismatch {
                    found: cp.version,
                    expected: CHECKPOINT_VERSION,
                })
            }
            Err(e) => e,
        };
        match serde_json::from_str::<VersionProbe>(&text).map(|p| p.version) {
            Ok(serde::Value::U64(v)) if v != u64::from(CHECKPOINT_VERSION) => {
                Err(CheckpointError::VersionMismatch {
                    found: v as u32,
                    expected: CHECKPOINT_VERSION,
                })
            }
            Ok(serde::Value::U64(_)) => Err(CheckpointError::Corrupt(format!(
                "shape mismatch: {shape_error}"
            ))),
            _ => Err(CheckpointError::Corrupt(format!(
                "no integer version field: {shape_error}"
            ))),
        }
    }
}

/// The one field of a checkpoint that every layout shares.
#[derive(Deserialize)]
struct VersionProbe {
    version: serde::Value,
}

/// FNV-1a hash of a canonical JSON rendering — the configuration fingerprint
/// stored in checkpoints. Stable across runs and platforms (the vendored
/// serializer emits deterministic field order and float text).
pub fn fingerprint_json(json: &str) -> u64 {
    const OFFSET: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x00000100000001b3;
    let mut h = OFFSET;
    for b in json.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::{Condition, Gene};

    fn sample() -> EnsembleCheckpoint {
        let rule = Rule {
            condition: Condition::new(vec![Gene::bounded(0.0, 1.0), Gene::Wildcard]),
            coefficients: vec![0.5, 0.0],
            intercept: 1.0,
            prediction: 1.25,
            error: 0.125,
            matched: 4,
        };
        EnsembleCheckpoint {
            version: CHECKPOINT_VERSION,
            config_fingerprint: 0xDEAD_BEEF,
            executions_done: 4,
            outcomes: vec![ExecutionOutcome {
                execution: 0,
                seed: 100,
                attempts: 2,
                rules: 1,
                status: OutcomeStatus::Completed,
            }],
            rules: vec![rule],
            coverage_len: 130,
        }
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "evoforecast_checkpoint_test_{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn save_load_round_trip_is_exact() {
        let path = temp_path("roundtrip.json");
        let cp = sample();
        cp.save(&path).unwrap();
        let back = EnsembleCheckpoint::load(&path).unwrap();
        assert_eq!(back, cp);
        // Bit-exact floats through the text format.
        assert_eq!(back.rules[0].error.to_bits(), cp.rules[0].error.to_bits());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn validate_rejects_foreign_runs() {
        let cp = sample();
        assert!(cp.validate(0xDEAD_BEEF, 130).is_ok());
        assert!(matches!(
            cp.validate(1, 130),
            Err(CheckpointError::FingerprintMismatch { .. })
        ));
        assert!(matches!(
            cp.validate(0xDEAD_BEEF, 99),
            Err(CheckpointError::UniverseMismatch { .. })
        ));
    }

    #[test]
    fn version_1_and_2_checkpoints_are_refused() {
        // Version 1 serialized the speed flags into the configuration
        // fingerprint; version 2 stored the coverage union beside the rules.
        // Neither resumes under the version-3 layout, whether or not the
        // file still carries the old coverage fields.
        let path = temp_path("old_versions.json");
        for found in [1, 2] {
            let mut cp = sample();
            cp.version = found;
            cp.save(&path).unwrap();
            assert!(matches!(
                EnsembleCheckpoint::load(&path),
                Err(CheckpointError::VersionMismatch { found: f, expected: 3 }) if f == found
            ));
        }
        let v2 = serde_json::to_string(&sample())
            .unwrap()
            .replace("\"version\":3", "\"version\":2")
            .replace(
                "\"coverage_len\":130",
                "\"folded_rules\":1,\"coverage_len\":130,\"covered_words\":[1,0,2]",
            );
        assert!(v2.contains("covered_words"), "{v2}");
        std::fs::write(&path, v2).unwrap();
        assert!(matches!(
            EnsembleCheckpoint::load(&path),
            Err(CheckpointError::VersionMismatch {
                found: 2,
                expected: 3
            })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_garbage_and_foreign_versions() {
        let garbage = temp_path("garbage.json");
        std::fs::write(&garbage, "not json at all").unwrap();
        assert!(matches!(
            EnsembleCheckpoint::load(&garbage),
            Err(CheckpointError::Corrupt(_))
        ));

        let wrong_version = temp_path("wrong_version.json");
        let mut cp = sample();
        cp.version = CHECKPOINT_VERSION + 7;
        cp.save(&wrong_version).unwrap();
        assert!(matches!(
            EnsembleCheckpoint::load(&wrong_version),
            Err(CheckpointError::VersionMismatch { found, expected })
                if found == CHECKPOINT_VERSION + 7 && expected == CHECKPOINT_VERSION
        ));

        assert!(matches!(
            EnsembleCheckpoint::load("/nonexistent/definitely/missing.json"),
            Err(CheckpointError::Io(_))
        ));
        std::fs::remove_file(&garbage).ok();
        std::fs::remove_file(&wrong_version).ok();
    }

    #[test]
    fn load_rejects_a_rule_with_short_coefficients() {
        let path = temp_path("short_coefficients.json");
        let mut cp = sample();
        let mut short = cp.rules[0].clone();
        short.coefficients.pop();
        cp.rules.push(short);
        cp.save(&path).unwrap();
        let err = EnsembleCheckpoint::load(&path).unwrap_err();
        assert!(
            matches!(&err, CheckpointError::Corrupt(m) if m.contains("rule 1 has 1 coefficients")),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_an_inverted_gene_and_an_infinite_error() {
        let path = temp_path("inverted_gene.json");
        let text = serde_json::to_string(&sample()).unwrap();
        let gene = serde_json::to_string(&Gene::bounded(0.0, 1.0)).unwrap();
        let inverted = serde_json::to_string(&Gene::Bounded { lo: 1.0, hi: 0.0 }).unwrap();
        for (from, to, why) in [
            (gene.as_str(), inverted.as_str(), "gene 0"),
            ("\"error\":0.125", "\"error\":1e999", "non-finite"),
        ] {
            assert!(text.contains(from), "{from} not in {text}");
            std::fs::write(&path, text.replace(from, to)).unwrap();
            let err = EnsembleCheckpoint::load(&path).unwrap_err();
            assert!(
                matches!(&err, CheckpointError::Corrupt(m) if m.contains(why)),
                "{err}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_is_atomic_no_tmp_left_behind() {
        let path = temp_path("atomic.json");
        sample().save(&path).unwrap();
        assert!(path.exists());
        assert!(!path.with_extension("tmp").exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fingerprint_is_stable_and_discriminating() {
        let a = fingerprint_json(r#"{"seed":1}"#);
        let b = fingerprint_json(r#"{"seed":1}"#);
        let c = fingerprint_json(r#"{"seed":2}"#);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn error_display_names_the_problem() {
        let io: CheckpointError = std::io::Error::new(std::io::ErrorKind::NotFound, "gone").into();
        assert!(io.to_string().contains("gone"));
        assert!(CheckpointError::Corrupt("bad".into())
            .to_string()
            .contains("bad"));
        let v = CheckpointError::VersionMismatch {
            found: 3,
            expected: 1,
        };
        assert!(v.to_string().contains('3') && v.to_string().contains('1'));
        assert!(CheckpointError::FingerprintMismatch {
            found: 0,
            expected: 1
        }
        .to_string()
        .contains("configuration"));
        assert!(CheckpointError::UniverseMismatch {
            found: 5,
            expected: 9
        }
        .to_string()
        .contains("training data"));
    }
}
