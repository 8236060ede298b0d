//! Quickstart: evolve prediction rules for a noisy periodic signal, inspect
//! one rule the way the paper's Figure 1 draws it, and forecast.
//!
//! Run: `cargo run --release --example quickstart`

use evoforecast::core::prelude::*;
use evoforecast::metrics::PairedErrors;
use evoforecast::tsdata::gen::waves::noisy_sine;
use evoforecast::tsdata::window::WindowSpec;

fn main() {
    // 1. A workload: a noisy sine, 800 points, last 200 held out.
    let series = noisy_sine(800, 25.0, 1.0, 0.05, 7);
    let (train, valid) = evoforecast::tsdata::split::split_at(series.values(), 600)
        .expect("series is long enough to split");

    // 2. The paper's encoding: D = 4 consecutive values predict τ = 1 ahead.
    let spec = WindowSpec::new(4, 1).expect("valid window spec");

    // 3. Configure and run one steady-state evolution, one generation per
    //    step, reporting progress every 1 000 generations.
    let config = EngineConfig::for_series(train, spec)
        .with_population(40)
        .with_seed(42);
    let mut engine = Engine::new(config, train).expect("engine builds");
    for gen in 1..=4_000 {
        engine.step();
        if gen % 1_000 == 0 {
            let population = engine.population();
            let best = population
                .best_index()
                .map_or(f64::NEG_INFINITY, |i| population.get(i).fitness);
            let mean = population.mean_fitness().unwrap_or(f64::NEG_INFINITY);
            println!("generation {gen:>5}: best fitness {best:.2}, mean {mean:.2}");
        }
    }
    let rules = engine.population().rules();

    // 4. The whole population is the forecasting system (Michigan approach).
    let predictor = RuleSetPredictor::new(rules);
    println!(
        "\nlearned {} usable rules; training coverage {:.1}%",
        predictor.len(),
        engine.training_coverage() * 100.0
    );

    // 5. Inspect the best rule, rendered like the paper's Figure 1.
    if let Some(best) = predictor
        .rules()
        .iter()
        .max_by(|a, b| a.matched.cmp(&b.matched))
    {
        println!("\nmost general rule:\n{}", best.render_ascii());
    }

    // 6. Forecast the held-out span; the system abstains where no rule fires.
    let ds = spec.dataset(valid).expect("validation fits the window");
    let mut pairs = PairedErrors::with_capacity(ds.len());
    for (window, target) in ds.iter() {
        pairs.record(target, predictor.predict(window));
    }
    println!(
        "validation: coverage {:.1}%, RMSE {:.4} (signal amplitude 1.0)",
        pairs.coverage_percentage().unwrap_or(0.0),
        pairs.rmse().unwrap_or(f64::NAN),
    );
}
