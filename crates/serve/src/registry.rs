//! Hot-swap model registry: named slots, each an immutable [`ModelEntry`]
//! behind an `Arc`.
//!
//! Swapping a slot replaces the `Arc` under a write lock; request handlers
//! clone the `Arc` under a read lock and then predict entirely lock-free, so
//! an in-flight request always sees exactly one model — the one it grabbed
//! at admission — never a torn mix of old rules and new payloads. Reloads
//! over the wire are gated by a config fingerprint recorded when the slot
//! was first filled: an artifact trained under a different windowing
//! contract is rejected and the old model keeps serving.

use crate::protocol::{ArtifactKind, ModelInfo};
use evoforecast_core::checkpoint::fingerprint_json;
use evoforecast_core::prelude::TrainedModel;
use evoforecast_core::{CompiledRuleSet, RuleSetPredictor};
use evoforecast_tsdata::window::WindowSpec;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, RwLock};

/// One immutable model slot value. Everything a request needs is inside, so
/// a cloned `Arc<ModelEntry>` keeps serving consistently even while the
/// registry swaps the slot underneath.
#[derive(Debug)]
pub struct ModelEntry {
    name: String,
    /// Windowing contract (`D`, τ, Δ) the rules expect.
    pub spec: WindowSpec,
    /// Config fingerprint reloads must match.
    pub fingerprint: u64,
    /// Bumped on every successful swap of this slot.
    pub version: u64,
    /// The rule set, compiled once at install; every forecast answers from
    /// it.
    pub compiled: CompiledRuleSet,
}

impl ModelEntry {
    /// Slot name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Introspection row for `GET /models`.
    pub(crate) fn info(&self) -> ModelInfo {
        ModelInfo {
            name: self.name.clone(),
            version: self.version,
            rules: self.compiled.len(),
            window: self.spec.window(),
            horizon: self.spec.horizon(),
            spacing: self.spec.spacing(),
            fingerprint: self.fingerprint,
        }
    }
}

/// Why a registry operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// Artifact fingerprint differs from the slot's recorded contract.
    FingerprintMismatch {
        /// Slot that rejected the swap.
        slot: String,
        /// Fingerprint the slot requires.
        expected: u64,
        /// Fingerprint the artifact carries.
        found: u64,
    },
    /// The artifact could not be read, parsed, or is internally inconsistent.
    Artifact(String),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::FingerprintMismatch {
                slot,
                expected,
                found,
            } => write!(
                f,
                "slot {slot:?} requires config fingerprint {expected}, artifact has {found}"
            ),
            RegistryError::Artifact(msg) => write!(f, "artifact rejected: {msg}"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// Fingerprint of a windowing contract: FNV-1a over the spec's canonical
/// JSON, the same hash family PR 3 checkpoints use for their config.
pub fn spec_fingerprint(spec: &WindowSpec) -> u64 {
    // audit: allow(panic-freedom) — WindowSpec is a plain struct of integers; serializing it cannot fail
    let json = serde_json::to_string(spec).expect("WindowSpec always serializes");
    fingerprint_json(&json)
}

/// Thread-safe collection of named model slots.
#[derive(Debug, Default)]
pub struct ModelRegistry {
    slots: RwLock<BTreeMap<String, Arc<ModelEntry>>>,
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> ModelRegistry {
        ModelRegistry::default()
    }

    /// Grab the current model of a slot. The returned `Arc` stays valid (and
    /// internally consistent) regardless of later swaps.
    pub fn get(&self, name: &str) -> Option<Arc<ModelEntry>> {
        self.read_slots().get(name).cloned()
    }

    /// Number of filled slots.
    pub fn len(&self) -> usize {
        self.read_slots().len()
    }

    /// True when no slot is filled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Introspection rows for every slot, name-ordered.
    pub fn list(&self) -> Vec<ModelInfo> {
        self.read_slots().values().map(|e| e.info()).collect()
    }

    /// Take the read lock, recovering from poisoning: the map holds only
    /// `Arc<ModelEntry>` values and every write is a validate-then-insert,
    /// so a panicking writer can never leave a half-updated entry behind.
    fn read_slots(&self) -> std::sync::RwLockReadGuard<'_, BTreeMap<String, Arc<ModelEntry>>> {
        self.slots
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Administratively fill a slot from an in-memory model, bypassing the
    /// fingerprint gate (this is how slots are born; the installed
    /// fingerprint becomes the slot's contract for wire reloads). Bumps the
    /// version when the slot already existed.
    ///
    /// # Errors
    /// [`RegistryError::Artifact`] when the rule set is internally
    /// inconsistent with the spec (mixed or wrong window lengths).
    pub fn install(
        &self,
        name: &str,
        spec: WindowSpec,
        predictor: RuleSetPredictor,
    ) -> Result<Arc<ModelEntry>, RegistryError> {
        let fingerprint = spec_fingerprint(&spec);
        self.swap(name, spec, predictor, fingerprint, None)
    }

    /// [`ModelRegistry::install`] from a self-describing trained-model
    /// artifact.
    ///
    /// # Errors
    /// See [`ModelRegistry::install`].
    pub fn install_trained(
        &self,
        name: &str,
        model: TrainedModel,
    ) -> Result<Arc<ModelEntry>, RegistryError> {
        self.install(name, model.spec, model.predictor)
    }

    /// Load an artifact from disk and swap it into a slot, enforcing the
    /// fingerprint contract. This is the wire-reload path: on any error the
    /// registry is untouched and the old model keeps serving.
    ///
    /// A [`ArtifactKind::Model`] artifact carries its window spec, so it
    /// may also fill a brand-new slot (its own fingerprint becomes the
    /// contract).
    ///
    /// # Errors
    /// [`RegistryError`] as documented on the variants.
    pub fn reload(
        &self,
        name: &str,
        path: &Path,
        kind: ArtifactKind,
    ) -> Result<Arc<ModelEntry>, RegistryError> {
        let ArtifactKind::Model = kind;
        let existing = self.get(name);
        let model = TrainedModel::load_json_file(path)
            .map_err(|e| RegistryError::Artifact(format!("{}: {e}", path.display())))?;
        let fingerprint = spec_fingerprint(&model.spec);
        if let Some(slot) = &existing {
            if slot.fingerprint != fingerprint {
                return Err(RegistryError::FingerprintMismatch {
                    slot: name.to_string(),
                    expected: slot.fingerprint,
                    found: fingerprint,
                });
            }
        }
        self.swap(name, model.spec, model.predictor, fingerprint, existing)
    }

    /// Validate, compile, and atomically publish a new entry.
    fn swap(
        &self,
        name: &str,
        spec: WindowSpec,
        predictor: RuleSetPredictor,
        fingerprint: u64,
        grabbed: Option<Arc<ModelEntry>>,
    ) -> Result<Arc<ModelEntry>, RegistryError> {
        if let Some(bad) = predictor
            .rules()
            .iter()
            .find(|r| r.window_len() != spec.window())
        {
            return Err(RegistryError::Artifact(format!(
                "rule with window length {} in a spec-{} model",
                bad.window_len(),
                spec.window()
            )));
        }
        let compiled = CompiledRuleSet::compile(&predictor);
        // Poison recovery is safe for the same reason as `read_slots`: the
        // map is structurally valid at every instruction boundary.
        let mut slots = self
            .slots
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // Version against the *current* slot content, not the snapshot taken
        // before validation, so concurrent swaps still produce a strictly
        // increasing sequence.
        let version = slots
            .get(name)
            .map(|e| e.version)
            .or(grabbed.map(|e| e.version))
            .map_or(1, |v| v + 1);
        let entry = Arc::new(ModelEntry {
            name: name.to_string(),
            spec,
            fingerprint,
            version,
            compiled,
        });
        slots.insert(name.to_string(), Arc::clone(&entry));
        Ok(entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evoforecast_core::prelude::ModelMetadata;
    use evoforecast_core::rule::{Condition, Gene, Rule};
    use evoforecast_core::Combination;

    fn rule(lo: f64, hi: f64, value: f64) -> Rule {
        Rule {
            condition: Condition::new(vec![Gene::bounded(lo, hi), Gene::Wildcard]),
            coefficients: vec![0.0, 0.0],
            intercept: value,
            prediction: value,
            error: 0.1,
            matched: 5,
        }
    }

    fn predictor(value: f64) -> RuleSetPredictor {
        RuleSetPredictor::new(vec![rule(0.0, 100.0, value)])
    }

    fn spec() -> WindowSpec {
        WindowSpec::new(2, 1).unwrap()
    }

    fn predict(entry: &ModelEntry, window: &[f64]) -> Option<f64> {
        let compiled = &entry.compiled;
        compiled.predict_with_into(window, Combination::Mean, &mut compiled.scratch())
    }

    #[test]
    fn install_get_list_round_trip() {
        let reg = ModelRegistry::new();
        assert!(reg.is_empty());
        reg.install("tides", spec(), predictor(4.0)).unwrap();
        let entry = reg.get("tides").unwrap();
        assert_eq!(entry.name(), "tides");
        assert_eq!(entry.version, 1);
        assert_eq!(predict(&entry, &[1.0, 2.0]), Some(4.0));
        let infos = reg.list();
        assert_eq!(infos.len(), 1);
        assert_eq!(infos[0].name, "tides");
        assert_eq!(infos[0].window, 2);
        assert_eq!(infos[0].rules, 1);
        assert!(reg.get("nope").is_none());
    }

    #[test]
    fn reinstall_bumps_version() {
        let reg = ModelRegistry::new();
        reg.install("m", spec(), predictor(1.0)).unwrap();
        reg.install("m", spec(), predictor(2.0)).unwrap();
        let entry = reg.get("m").unwrap();
        assert_eq!(entry.version, 2);
        assert_eq!(predict(&entry, &[1.0, 1.0]), Some(2.0));
    }

    #[test]
    fn old_arc_survives_swap() {
        let reg = ModelRegistry::new();
        reg.install("m", spec(), predictor(1.0)).unwrap();
        let old = reg.get("m").unwrap();
        reg.install("m", spec(), predictor(2.0)).unwrap();
        // The grabbed entry still answers with the old model.
        assert_eq!(predict(&old, &[1.0, 1.0]), Some(1.0));
        assert_eq!(reg.get("m").unwrap().version, 2);
    }

    #[test]
    fn install_rejects_spec_rule_mismatch() {
        let reg = ModelRegistry::new();
        let err = reg
            .install("m", WindowSpec::new(3, 1).unwrap(), predictor(1.0))
            .unwrap_err();
        assert!(matches!(err, RegistryError::Artifact(_)), "{err}");
        assert!(reg.is_empty());
    }

    #[test]
    fn reload_model_artifact_checks_fingerprint() {
        let dir =
            std::env::temp_dir().join(format!("evoforecast_registry_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("good.json");
        let bad = dir.join("bad.json");
        TrainedModel::new(spec(), predictor(7.0), ModelMetadata::default())
            .save_json_file(&good)
            .unwrap();
        // Same window length but a different horizon: different contract.
        let other_spec = WindowSpec::new(2, 5).unwrap();
        TrainedModel::new(other_spec, predictor(9.0), ModelMetadata::default())
            .save_json_file(&bad)
            .unwrap();

        let reg = ModelRegistry::new();
        reg.install("m", spec(), predictor(1.0)).unwrap();

        let entry = reg.reload("m", &good, ArtifactKind::Model).unwrap();
        assert_eq!(entry.version, 2);
        assert_eq!(predict(&entry, &[1.0, 1.0]), Some(7.0));

        let err = reg.reload("m", &bad, ArtifactKind::Model).unwrap_err();
        assert!(
            matches!(err, RegistryError::FingerprintMismatch { .. }),
            "{err}"
        );
        // Old model keeps serving at the same version.
        let entry = reg.get("m").unwrap();
        assert_eq!(entry.version, 2);
        assert_eq!(predict(&entry, &[1.0, 1.0]), Some(7.0));

        std::fs::remove_file(&good).ok();
        std::fs::remove_file(&bad).ok();
    }

    #[test]
    fn reload_model_artifact_can_create_slot() {
        let dir =
            std::env::temp_dir().join(format!("evoforecast_registry_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fresh.json");
        TrainedModel::new(spec(), predictor(3.0), ModelMetadata::default())
            .save_json_file(&path)
            .unwrap();
        let reg = ModelRegistry::new();
        let entry = reg.reload("fresh", &path, ArtifactKind::Model).unwrap();
        assert_eq!(entry.version, 1);
        assert_eq!(entry.fingerprint, spec_fingerprint(&spec()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reload_missing_file_is_artifact_error() {
        let reg = ModelRegistry::new();
        let err = reg
            .reload("m", Path::new("/nonexistent.json"), ArtifactKind::Model)
            .unwrap_err();
        assert!(matches!(err, RegistryError::Artifact(_)), "{err}");
    }

    #[test]
    fn spec_fingerprint_separates_contracts() {
        let a = spec_fingerprint(&WindowSpec::new(4, 1).unwrap());
        let b = spec_fingerprint(&WindowSpec::new(4, 2).unwrap());
        let c = spec_fingerprint(&WindowSpec::with_spacing(4, 1, 2).unwrap());
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, spec_fingerprint(&WindowSpec::new(4, 1).unwrap()));
    }
}
