//! Closed-loop (iterated) multi-step forecasting.
//!
//! The paper forecasts a fixed horizon τ directly — each rule's target is
//! `x_{t+τ}`. An alternative the time-series literature uses heavily (and a
//! natural extension of this system) is to train at τ = 1 and *iterate*:
//! feed each prediction back as the newest input to walk arbitrarily far
//! ahead. Abstention makes this interesting: the free-run stops the moment
//! the system has no rule for the window it synthesized — it knows when it
//! has wandered off the manifold it learned.

use crate::predict::RuleSetPredictor;

/// Outcome of a closed-loop forecast.
#[derive(Debug, Clone, PartialEq)]
pub struct FreeRun {
    /// Predicted values, one per successfully iterated step.
    pub predictions: Vec<f64>,
    /// Number of steps requested.
    pub requested: usize,
    /// True when the run stopped early because the system abstained, that
    /// is, when it produced fewer than `requested` steps.
    pub stopped_by_abstention: bool,
}

impl FreeRun {
    /// Steps actually produced.
    pub fn len(&self) -> usize {
        self.predictions.len()
    }

    /// True when no step succeeded.
    pub fn is_empty(&self) -> bool {
        self.predictions.is_empty()
    }
}

/// Iterate a τ = 1 predictor `steps` ahead from `seed_window` (the most
/// recent `D` observed values, oldest first). Each prediction is appended
/// and the window slides by one.
///
/// The predictor must have been trained with horizon 1; iterating a τ > 1
/// predictor would skip timesteps. (This is not checkable from the rule set
/// itself, so it is the caller's contract.)
///
/// A predictor with no rules abstains at the first step.
///
/// # Panics
/// Panics when `seed_window` length differs from the rules' window length.
pub fn free_run(predictor: &RuleSetPredictor, seed_window: &[f64], steps: usize) -> FreeRun {
    if let Some(rule) = predictor.rules().first() {
        assert_eq!(
            seed_window.len(),
            rule.window_len(),
            "seed window must have the rules' window length"
        );
    }
    free_run_with(seed_window, steps, |window| predictor.predict(window))
}

/// The loop behind [`free_run`], over any per-window `predict` (the server
/// passes its compiled rule set with a scratch bitset): slide each
/// prediction into the window, and stop at the first abstention.
pub fn free_run_with(
    seed_window: &[f64],
    steps: usize,
    mut predict: impl FnMut(&[f64]) -> Option<f64>,
) -> FreeRun {
    let mut window = seed_window.to_vec();
    let mut predictions = Vec::with_capacity(steps);
    while predictions.len() < steps {
        let Some(p) = predict(&window) else { break };
        predictions.push(p);
        window.push(p);
        window.remove(0);
    }
    FreeRun {
        stopped_by_abstention: predictions.len() < steps,
        predictions,
        requested: steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EngineConfig, EnsembleConfig};
    use crate::supervisor::Supervisor;
    use evoforecast_tsdata::gen::waves::sine;
    use evoforecast_tsdata::window::WindowSpec;

    fn trained_sine_predictor() -> (RuleSetPredictor, Vec<f64>) {
        let series = sine(620, 20.0, 1.0, 0.0, 0.0);
        let train = &series.values()[..600];
        let spec = WindowSpec::new(4, 1).unwrap();
        let engine = EngineConfig::for_series(train, spec)
            .with_population(30)
            .with_generations(3_000)
            .with_seed(5);
        let config = EnsembleConfig::new(engine).with_max_executions(2);
        let (p, _) = Supervisor::new(config).unwrap().run(train).unwrap();
        (p, series.values().to_vec())
    }

    #[test]
    fn free_run_tracks_a_clean_sine() {
        let (p, values) = trained_sine_predictor();
        let seed = &values[596..600];
        let run = free_run(&p, seed, 20);
        assert!(run.len() >= 10, "free run died after {} steps", run.len());
        // Compare against the true continuation for the steps we got.
        let mut err = 0.0;
        for (k, pred) in run.predictions.iter().enumerate() {
            err = f64::max(err, (pred - values[600 + k]).abs());
        }
        assert!(err < 0.35, "free-run max error {err}");
    }

    #[test]
    fn abstention_stops_the_run() {
        // A hand-built predictor whose single rule only covers [0, 1] but
        // predicts 5.0: the first step succeeds, the second window contains
        // 5.0 and nothing fires — the run must stop rather than hallucinate.
        use crate::rule::{Condition, Gene};
        let rule = crate::rule::Rule {
            condition: Condition::new(vec![Gene::bounded(0.0, 1.0), Gene::bounded(0.0, 1.0)]),
            coefficients: vec![0.0, 0.0],
            intercept: 5.0,
            prediction: 5.0,
            error: 0.1,
            matched: 3,
        };
        let p = RuleSetPredictor::new(vec![rule]);
        let run = free_run(&p, &[0.5, 0.5], 10);
        assert_eq!(run.len(), 1);
        assert!(run.stopped_by_abstention);
        assert_eq!(run.requested, 10);
        assert_eq!(run.predictions, vec![5.0]);
    }

    #[test]
    fn completed_flag_semantics() {
        let (p, values) = trained_sine_predictor();
        let seed = &values[596..600];
        let run = free_run(&p, seed, 5);
        assert_eq!(run.stopped_by_abstention, run.len() < 5);
    }

    #[test]
    #[should_panic(expected = "window length")]
    fn wrong_seed_length_panics() {
        let (p, _) = trained_sine_predictor();
        free_run(&p, &[0.0; 3], 5);
    }

    #[test]
    fn a_predictor_without_rules_abstains_at_the_first_step() {
        let run = free_run(&RuleSetPredictor::new(Vec::new()), &[0.5, 0.5, 0.5], 4);
        assert!(run.is_empty());
        assert!(run.stopped_by_abstention);
        assert_eq!(run.requested, 4);
    }
}
