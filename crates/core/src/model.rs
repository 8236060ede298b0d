//! A self-describing trained model: the rule set *plus* the window spec it
//! was trained with and provenance metadata. A bare [`RuleSetPredictor`]
//! can't be safely applied to new data without knowing its `D`, `τ` and tap
//! spacing — this envelope keeps them together through serialization.

use crate::error::EvoError;
use crate::predict::RuleSetPredictor;
use evoforecast_tsdata::window::{WindowSpec, WindowedDataset};
use serde::de::Reader;
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};
use std::path::Path;

/// Provenance of a training run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ModelMetadata {
    /// Name of the training series.
    pub series_name: String,
    /// Number of training points used.
    pub train_points: usize,
    /// Base RNG seed of the run.
    pub seed: u64,
    /// Ensemble executions performed.
    pub executions: usize,
    /// Training coverage at the end of training.
    pub training_coverage: f64,
}

/// A trained forecasting system with its windowing contract.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TrainedModel {
    /// Window length, horizon and tap spacing the rules expect.
    pub spec: WindowSpec,
    /// The rule set.
    pub predictor: RuleSetPredictor,
    /// Provenance.
    pub metadata: ModelMetadata,
}

/// The on-disk shape of a [`TrainedModel`].
#[derive(Deserialize)]
struct SerializedModel {
    spec: WindowSpec,
    predictor: RuleSetPredictor,
    metadata: ModelMetadata,
}

/// Rejects rules whose window length differs from the spec's, so a
/// mismatched artifact fails at load instead of at its first forecast.
impl Deserialize for TrainedModel {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, serde::Error> {
        let SerializedModel {
            spec,
            predictor,
            metadata,
        } = SerializedModel::deserialize(r)?;
        TrainedModel::check_rules(&spec, &predictor).map_err(serde::Error::custom)?;
        Ok(TrainedModel::new(spec, predictor, metadata))
    }
}

impl TrainedModel {
    /// Check that the rules answer `spec`'s windows: their one window length
    /// is the spec's. (A predictor's rules always fit together; see
    /// [`RuleSetPredictor`].)
    ///
    /// # Errors
    /// A message giving both window lengths.
    pub fn check_rules(spec: &WindowSpec, predictor: &RuleSetPredictor) -> Result<(), String> {
        match predictor.rules().first() {
            Some(rule) if rule.window_len() != spec.window() => Err(format!(
                "rules have window length {}, the spec has {}",
                rule.window_len(),
                spec.window()
            )),
            _ => Ok(()),
        }
    }

    /// Bundle a predictor with its spec and metadata.
    pub fn new(spec: WindowSpec, predictor: RuleSetPredictor, metadata: ModelMetadata) -> Self {
        TrainedModel {
            spec,
            predictor,
            metadata,
        }
    }

    /// Predict the value `τ` steps after the end of `recent`, which must be
    /// (at least) the most recent `(D−1)·Δ + 1` observations, oldest first.
    /// Uses the trailing window.
    ///
    /// # Errors
    /// [`EvoError::Data`] when `recent` is shorter than one window.
    pub fn predict_next(&self, recent: &[f64]) -> Result<Option<f64>, EvoError> {
        let needed = (self.spec.window() - 1) * self.spec.spacing() + 1;
        if recent.len() < needed {
            return Err(EvoError::Data(
                evoforecast_tsdata::DataError::WindowTooLarge {
                    needed,
                    available: recent.len(),
                },
            ));
        }
        let start = recent.len() - needed;
        let window: Vec<f64> = (0..self.spec.window())
            .map(|k| recent[start + k * self.spec.spacing()])
            .collect();
        Ok(self.predictor.predict(&window))
    }

    /// Window a series with the model's own spec.
    ///
    /// # Errors
    /// [`EvoError::Data`] when the series is too short.
    pub fn dataset<'a>(&self, values: &'a [f64]) -> Result<WindowedDataset<'a>, EvoError> {
        Ok(self.spec.dataset(values)?)
    }

    /// Serialize to pretty JSON.
    ///
    /// # Errors
    /// I/O errors from the writer, or `InvalidData` when serialization
    /// fails.
    pub(crate) fn save_json<W: Write>(&self, mut writer: W) -> std::io::Result<()> {
        let json = serde_json::to_string_pretty(self)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        writer.write_all(json.as_bytes())
    }

    /// Serialize to a file.
    ///
    /// # Errors
    /// I/O errors.
    pub fn save_json_file(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        self.save_json(std::fs::File::create(path)?)
    }

    /// Load a model saved with [`TrainedModel::save_json_file`].
    ///
    /// # Errors
    /// I/O errors, or `InvalidData` when the JSON does not parse, its rules
    /// do not fit together, or their window length differs from the spec's.
    pub fn load_json<R: Read>(mut reader: R) -> std::io::Result<TrainedModel> {
        let mut buf = String::new();
        reader.read_to_string(&mut buf)?;
        serde_json::from_str(&buf)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Load from a file.
    ///
    /// # Errors
    /// See [`TrainedModel::load_json`].
    pub fn load_json_file(path: impl AsRef<Path>) -> std::io::Result<TrainedModel> {
        Self::load_json(std::fs::File::open(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::{Condition, Gene, Rule};

    fn sample_model() -> TrainedModel {
        let rule = Rule {
            condition: Condition::new(vec![Gene::bounded(0.0, 10.0), Gene::Wildcard]),
            coefficients: vec![1.0, 0.0],
            intercept: 2.0,
            prediction: 5.0,
            error: 0.1,
            matched: 4,
        };
        TrainedModel::new(
            WindowSpec::new(2, 3).unwrap(),
            RuleSetPredictor::new(vec![rule]),
            ModelMetadata {
                series_name: "test".into(),
                train_points: 100,
                seed: 7,
                executions: 2,
                training_coverage: 0.9,
            },
        )
    }

    #[test]
    fn predict_next_uses_trailing_window() {
        let m = sample_model();
        // Trailing window of [.., 4.0, 9.0] -> rule fires (4 in [0,10]),
        // hyperplane 1*4 + 0*9 + 2 = 6.
        let out = m.predict_next(&[100.0, 100.0, 4.0, 9.0]).unwrap();
        assert_eq!(out, Some(6.0));
        // Out-of-range trailing window abstains.
        let out = m.predict_next(&[100.0, 50.0]).unwrap();
        assert_eq!(out, None);
    }

    #[test]
    fn predict_next_with_spacing() {
        let mut m = sample_model();
        m.spec = WindowSpec::with_spacing(2, 1, 3).unwrap();
        // Needs (2-1)*3 + 1 = 4 points; taps at positions len-4 and len-1.
        let out = m.predict_next(&[5.0, 77.0, 77.0, 8.0]).unwrap();
        // Window = [5.0, 8.0]: rule fires, 1*5 + 0*8 + 2 = 7.
        assert_eq!(out, Some(7.0));
        assert!(m.predict_next(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn too_short_recent_errors() {
        let m = sample_model();
        assert!(matches!(m.predict_next(&[1.0]), Err(EvoError::Data(_))));
    }

    #[test]
    fn dataset_uses_own_spec() {
        let m = sample_model();
        let vals: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ds = m.dataset(&vals).unwrap();
        assert_eq!(ds.spec(), m.spec);
        assert!(m.dataset(&[1.0]).is_err());
    }

    #[test]
    fn save_load_round_trip() {
        let m = sample_model();
        let mut buf = Vec::new();
        m.save_json(&mut buf).unwrap();
        let back = TrainedModel::load_json(buf.as_slice()).unwrap();
        assert_eq!(back.spec, m.spec);
        assert_eq!(back.metadata, m.metadata);
        assert_eq!(back.predictor.len(), m.predictor.len());
    }

    #[test]
    fn file_round_trip_and_garbage_rejection() {
        let dir =
            std::env::temp_dir().join(format!("evoforecast_model_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        sample_model().save_json_file(&path).unwrap();
        let back = TrainedModel::load_json_file(&path).unwrap();
        assert_eq!(back.metadata.series_name, "test");
        std::fs::remove_file(&path).ok();

        let err = TrainedModel::load_json("nope".as_bytes()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn load_rejects_rules_of_another_window_length() {
        // Two-gene rules under a D = 3 spec.
        let mut m = sample_model();
        m.spec = WindowSpec::new(3, 1).unwrap();
        let json = serde_json::to_string(&m).unwrap();
        let err = TrainedModel::load_json(json.as_bytes()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("window length 2"), "{err}");

        // A model with no rules fits any spec.
        m.predictor = RuleSetPredictor::new(Vec::new());
        let json = serde_json::to_string(&m).unwrap();
        assert_eq!(TrainedModel::load_json(json.as_bytes()).unwrap(), m);
    }

    #[test]
    fn load_rejects_inverted_genes_and_non_finite_numbers() {
        let json = serde_json::to_string(&sample_model()).unwrap();
        let gene = serde_json::to_string(&Gene::bounded(0.0, 10.0)).unwrap();
        let inverted = serde_json::to_string(&Gene::Bounded { lo: 10.0, hi: 0.0 }).unwrap();
        let coefficients = format!(
            "\"coefficients\":{}",
            serde_json::to_string(&vec![1.0, 0.0]).unwrap()
        );
        for (from, to, why) in [
            (gene, inverted, "gene 0"),
            (
                coefficients,
                "\"coefficients\":[1e999,0.0]".to_string(),
                "non-finite",
            ),
        ] {
            assert!(json.contains(&from), "{from} not in {json}");
            let bad = json.replace(&from, &to);
            let err = TrainedModel::load_json(bad.as_bytes()).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
            assert!(err.to_string().contains(why), "{err}");
        }
    }
}
