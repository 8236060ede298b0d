//! **Ablation A1** — replacement strategy (DESIGN.md).
//!
//! The paper justifies crowding (§3.3): replacing the *phenotypically
//! nearest* individual preserves the population's spread over the prediction
//! space. This ablation runs identical evolutions with crowding,
//! replace-worst and replace-random, and reports validation coverage, RMSE,
//! and the spread of rule predictions (population diversity). Expectation:
//! crowding keeps the widest spread and the highest coverage; replace-worst
//! collapses onto dense behaviours.
//!
//! Run: `cargo bench -p evoforecast-bench --bench ablation_replacement`

use evoforecast_bench::output::{banner, fmt_opt};
use evoforecast_bench::{evaluate_abstaining, Scale};
use evoforecast_core::config::EngineConfig;
use evoforecast_core::engine::Engine;
use evoforecast_core::predict::RuleSetPredictor;
use evoforecast_core::replacement::ReplacementStrategy;
use evoforecast_linalg::stats;
use evoforecast_tsdata::gen::mackey_glass::MackeyGlass;
use evoforecast_tsdata::normalize::MinMaxScaler;
use evoforecast_tsdata::window::WindowSpec;

const D: usize = 4;
const HORIZON: usize = 50;
const SEED: u64 = 424242;

fn main() {
    let scale = Scale::from_env();
    banner(
        "Ablation A1 — replacement strategy (crowding vs worst vs random)",
        &format!(
            "Mackey-Glass τ={HORIZON}, pop {}, {} generations, single execution",
            scale.population, scale.generations
        ),
    );

    let series = MackeyGlass::paper_setup().paper_series();
    let scaler = MinMaxScaler::fit(&series.values()[..1000]).expect("range");
    let normalized = scaler.transform_slice(series.values());
    let (train, test) = normalized.split_at(1000);
    let spec = WindowSpec::new(D, HORIZON).expect("valid spec");

    println!(
        "{:<16} {:>10} {:>10} {:>12} {:>14}",
        "strategy", "coverage%", "rmse", "pred-spread", "replacements"
    );
    for strategy in [
        ReplacementStrategy::Crowding,
        ReplacementStrategy::ReplaceWorst,
        ReplacementStrategy::ReplaceRandom,
    ] {
        let config = EngineConfig::for_series(train, spec)
            .with_population(scale.population)
            .with_generations(scale.generations)
            .with_seed(SEED)
            .with_replacement(strategy);
        let mut engine = Engine::new(config, train).expect("engine builds");
        let rules = engine.run();
        let stats_run = engine.stats();

        // Diversity: spread (std-dev) of viable rules' scalar predictions.
        let preds: Vec<f64> = rules
            .iter()
            .filter(|r| r.matched > 1 && r.error.is_finite())
            .map(|r| r.prediction)
            .collect();
        let spread = stats::std_dev(&preds);

        let predictor = RuleSetPredictor::new(rules);
        let pairs = evaluate_abstaining(&predictor, test, spec);
        println!(
            "{:<16} {:>10} {:>10} {:>12} {:>14}",
            match strategy {
                ReplacementStrategy::Crowding => "crowding",
                ReplacementStrategy::ReplaceWorst => "replace-worst",
                ReplacementStrategy::ReplaceRandom => "replace-random",
            },
            fmt_opt(
                pairs
                    .coverage_percentage()
                    .map(|p| (p * 10.0).round() / 10.0),
                1
            ),
            fmt_opt(pairs.rmse().ok(), 4),
            fmt_opt(spread, 4),
            stats_run.replacements,
        );
    }

    println!("\nExpectation: crowding preserves the widest prediction spread and");
    println!("the highest coverage; replace-worst trades both for local accuracy.");
}
