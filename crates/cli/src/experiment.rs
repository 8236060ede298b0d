//! Experiments as JSON artifacts.
//!
//! An [`ExperimentSpec`] captures everything a run needs — data source,
//! chronological split, windowing, normalization, engine parameters, metric
//! — so `evoforecast-cli experiment --config exp.json` reproduces a result
//! from one committed file. This is the reproducibility contract behind
//! EXPERIMENTS.md at repository scale.

use crate::args::CliError;
use evoforecast_core::config::{EngineConfig, EnsembleConfig};
use evoforecast_core::predict::RuleSetPredictor;
use evoforecast_core::supervisor::Supervisor;
use evoforecast_metrics::{EvaluationReport, PairedErrors};
use evoforecast_tsdata::gen::ar::ArProcess;
use evoforecast_tsdata::gen::mackey_glass::MackeyGlass;
use evoforecast_tsdata::gen::sunspot::SunspotGenerator;
use evoforecast_tsdata::gen::venice::VeniceTide;
use evoforecast_tsdata::gen::waves;
use evoforecast_tsdata::normalize::MinMaxScaler;
use evoforecast_tsdata::window::WindowSpec;
use evoforecast_tsdata::TimeSeries;
use serde::{Deserialize, Serialize};

/// Where the series comes from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "kebab-case")]
pub(crate) enum SeriesSpec {
    /// A built-in generator.
    Generated {
        /// Generator name (same set as `generate --series`).
        generator: String,
        /// Number of points.
        n: usize,
        /// RNG seed.
        #[serde(default)]
        seed: u64,
    },
    /// A CSV file on disk.
    Csv {
        /// Path to the file.
        path: String,
    },
}

/// Normalization applied before learning (fitted on the training part).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
#[serde(rename_all = "kebab-case")]
pub(crate) enum NormalizeSpec {
    /// Leave the series in its original units.
    #[default]
    None,
    /// Min-max scale the series to `[0, 1]` using training-range statistics.
    MinMax,
}

/// Engine knobs the spec can override.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct EngineSpec {
    /// Population size.
    pub population: usize,
    /// Generations per execution.
    pub generations: usize,
    /// Maximum ensemble executions.
    pub executions: usize,
    /// `EMAX` as a fraction of the training range.
    pub emax_fraction: f64,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for EngineSpec {
    fn default() -> Self {
        EngineSpec {
            population: 50,
            generations: 6_000,
            executions: 4,
            emax_fraction: 0.15,
            seed: 0x5EED,
        }
    }
}

/// A complete, serializable experiment description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct ExperimentSpec {
    /// Human-readable experiment name.
    pub name: String,
    /// Data source.
    pub series: SeriesSpec,
    /// Chronological split index: train is `[0, split_at)`.
    pub split_at: usize,
    /// Window length `D`.
    pub window: usize,
    /// Prediction horizon `τ`.
    pub horizon: usize,
    /// Tap spacing `Δ` (default 1).
    #[serde(default = "default_spacing")]
    pub spacing: usize,
    /// Normalization (default none).
    #[serde(default)]
    pub normalize: NormalizeSpec,
    /// Engine parameters (defaults mirror the quick bench scale).
    #[serde(default)]
    pub engine: EngineSpec,
}

fn default_spacing() -> usize {
    1
}

/// The run's outcome: the evaluation report plus run provenance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct ExperimentResult {
    /// Name from the spec.
    pub name: String,
    /// Rules in the final system.
    pub rules: usize,
    /// Ensemble executions performed.
    pub executions: usize,
    /// Training coverage of the final system.
    pub training_coverage: f64,
    /// Validation metrics.
    pub report: EvaluationReport,
}

impl ExperimentSpec {
    /// Parse a spec from JSON text.
    ///
    /// # Errors
    /// [`CliError::Usage`] on malformed JSON.
    pub(crate) fn from_json(text: &str) -> Result<ExperimentSpec, CliError> {
        serde_json::from_str(text).map_err(|e| CliError::Usage(format!("bad experiment spec: {e}")))
    }

    fn materialize_series(&self) -> Result<TimeSeries, CliError> {
        match &self.series {
            SeriesSpec::Csv { path } => evoforecast_tsdata::io::read_series_file(path)
                .map_err(|e| CliError::Runtime(e.to_string())),
            SeriesSpec::Generated { generator, n, seed } => {
                let n = *n;
                let seed = *seed;
                if n == 0 {
                    return Err(CliError::Usage("series n must be >= 1".into()));
                }
                Ok(match generator.as_str() {
                    "venice" => VeniceTide::default().generate(n, seed),
                    // The Mackey-Glass DDE is deterministic; a non-zero seed
                    // would be silently meaningless, so reject it.
                    "mackey-glass" if seed != 0 => {
                        return Err(CliError::Usage(
                            "mackey-glass is deterministic: omit `seed` (or use 0)".into(),
                        ))
                    }
                    "mackey-glass" => MackeyGlass::paper_setup().generate(n),
                    "sunspot" => SunspotGenerator::default().generate(n, seed),
                    "sine" => waves::sine(n, 25.0, 1.0, 0.0, 0.0),
                    "noisy-sine" => waves::noisy_sine(n, 25.0, 1.0, 0.05, seed),
                    "ar2" => ArProcess::stable_ar2().generate(n, seed),
                    other => {
                        return Err(CliError::Usage(format!(
                            "unknown generator {other:?} in experiment spec"
                        )))
                    }
                })
            }
        }
    }

    /// Execute the experiment.
    ///
    /// # Errors
    /// Usage errors for inconsistent specs; runtime errors from training.
    pub(crate) fn run(&self) -> Result<ExperimentResult, CliError> {
        let series = self.materialize_series()?;
        if self.split_at == 0 || self.split_at >= series.len() {
            return Err(CliError::Usage(format!(
                "split_at {} invalid for a {}-point series",
                self.split_at,
                series.len()
            )));
        }

        // Normalize on training statistics.
        let values: Vec<f64> = match self.normalize {
            NormalizeSpec::None => series.values().to_vec(),
            NormalizeSpec::MinMax => {
                let scaler = MinMaxScaler::fit(&series.values()[..self.split_at])
                    .map_err(|e| CliError::Runtime(e.to_string()))?;
                scaler.transform_slice(series.values())
            }
        };
        let (train, valid) = values.split_at(self.split_at);

        let spec = WindowSpec::with_spacing(self.window, self.horizon, self.spacing)
            .map_err(|e| CliError::Usage(e.to_string()))?;
        let engine = EngineConfig::for_series(train, spec)
            .with_population(self.engine.population)
            .with_generations(self.engine.generations)
            .with_seed(self.engine.seed);
        let (lo, hi) = engine.value_range;
        let engine = engine.with_emax((hi - lo) * self.engine.emax_fraction);
        let config = EnsembleConfig::new(engine).with_max_executions(self.engine.executions);
        let supervisor = Supervisor::new(config).map_err(|e| CliError::Runtime(e.to_string()))?;
        let (predictor, ensemble_report) = supervisor
            .run(train)
            .map_err(|e| CliError::Runtime(e.to_string()))?;

        let report = evaluate(&predictor, valid, spec, self.horizon)?;
        Ok(ExperimentResult {
            name: self.name.clone(),
            rules: predictor.len(),
            executions: ensemble_report.executions,
            training_coverage: ensemble_report.training_coverage,
            report,
        })
    }
}

fn evaluate(
    predictor: &RuleSetPredictor,
    valid: &[f64],
    spec: WindowSpec,
    horizon: usize,
) -> Result<EvaluationReport, CliError> {
    let ds = spec
        .dataset(valid)
        .map_err(|e| CliError::Runtime(format!("validation windowing: {e}")))?;
    let mut pairs = PairedErrors::with_capacity(ds.len());
    for (w, t) in ds.iter() {
        pairs.record(t, predictor.predict(w));
    }
    Ok(EvaluationReport::from_paired(
        "rule-system",
        horizon,
        &pairs,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_spec() -> ExperimentSpec {
        ExperimentSpec {
            name: "unit-test".into(),
            series: SeriesSpec::Generated {
                generator: "noisy-sine".into(),
                n: 600,
                seed: 3,
            },
            split_at: 480,
            window: 4,
            horizon: 1,
            spacing: 1,
            normalize: NormalizeSpec::None,
            engine: EngineSpec {
                population: 20,
                generations: 800,
                executions: 1,
                emax_fraction: 0.15,
                seed: 7,
            },
        }
    }

    #[test]
    fn json_round_trip_with_defaults() {
        let json = r#"{
            "name": "minimal",
            "series": {"kind": "generated", "generator": "sine", "n": 300},
            "split_at": 200,
            "window": 3,
            "horizon": 1
        }"#;
        let spec = ExperimentSpec::from_json(json).unwrap();
        assert_eq!(spec.spacing, 1);
        assert_eq!(spec.normalize, NormalizeSpec::None);
        assert_eq!(spec.engine, EngineSpec::default());
        // And full round trip.
        let text = serde_json::to_string(&quick_spec()).unwrap();
        let back = ExperimentSpec::from_json(&text).unwrap();
        assert_eq!(back, quick_spec());
    }

    #[test]
    fn series_tag_may_come_after_the_fields() {
        let csv: SeriesSpec = serde_json::from_str(r#"{"path": "a.csv", "kind": "csv"}"#).unwrap();
        assert_eq!(
            csv,
            SeriesSpec::Csv {
                path: "a.csv".into()
            }
        );
        // The first tag wins, as the first of any duplicate key does.
        let generated: SeriesSpec = serde_json::from_str(
            r#"{"n": 5, "generator": "sine", "kind": "generated", "kind": "csv"}"#,
        )
        .unwrap();
        assert_eq!(
            generated,
            SeriesSpec::Generated {
                generator: "sine".into(),
                n: 5,
                seed: 0
            }
        );
        for bad in [
            r#"{"path": "a.csv"}"#,
            r#"{"kind": "tape", "path": "a.csv"}"#,
            r#"{"kind": 3, "path": "a.csv"}"#,
            r#"{"kind": "csv"}"#,
            r#"{"kind": "csv", "path": "a.csv""#,
        ] {
            assert!(serde_json::from_str::<SeriesSpec>(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn rejects_malformed_json() {
        assert!(matches!(
            ExperimentSpec::from_json("{oops"),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn runs_end_to_end() {
        let result = quick_spec().run().unwrap();
        assert_eq!(result.name, "unit-test");
        assert!(result.rules > 0);
        assert!(result.report.coverage_pct.unwrap() > 30.0);
        assert!(result.report.rmse.unwrap() < 1.0);
    }

    #[test]
    fn normalized_run_reports_unit_scale_errors() {
        let mut spec = quick_spec();
        spec.normalize = NormalizeSpec::MinMax;
        let result = spec.run().unwrap();
        // Errors in the normalized domain must be << 1.
        assert!(result.report.rmse.unwrap() < 0.5);
    }

    #[test]
    fn validates_split_and_generator() {
        let mut spec = quick_spec();
        spec.split_at = 0;
        assert!(matches!(spec.run(), Err(CliError::Usage(_))));
        let mut spec = quick_spec();
        spec.split_at = 600;
        assert!(matches!(spec.run(), Err(CliError::Usage(_))));
        let mut spec = quick_spec();
        spec.series = SeriesSpec::Generated {
            generator: "nope".into(),
            n: 100,
            seed: 0,
        };
        assert!(matches!(spec.run(), Err(CliError::Usage(_))));
        let mut spec = quick_spec();
        spec.series = SeriesSpec::Csv {
            path: "/definitely/missing.csv".into(),
        };
        assert!(matches!(spec.run(), Err(CliError::Runtime(_))));
    }

    #[test]
    fn deterministic_given_spec() {
        let a = quick_spec().run().unwrap();
        let b = quick_spec().run().unwrap();
        assert_eq!(a, b);
    }
}
