//! **A6** — learning-curve diagnostic (extension).
//!
//! The paper reports only end-of-run numbers; this bench traces *how* the
//! steady-state process gets there: training coverage, best and mean fitness,
//! and cumulative replacement rate sampled along one Venice run. The curve
//! shows the two-phase dynamic — early generations convert unfit initial
//! rules into viable specialists (coverage climbs), late generations polish
//! fitness with a falling acceptance rate (a stagnation signal: late
//! generations rarely change the population).
//!
//! Run: `cargo bench -p evoforecast-bench --bench learning_curve`

use evoforecast_bench::output::banner;
use evoforecast_bench::Scale;
use evoforecast_core::config::EngineConfig;
use evoforecast_core::engine::Engine;
use evoforecast_tsdata::gen::venice::VeniceTide;
use evoforecast_tsdata::window::WindowSpec;

const D: usize = 24;
const HORIZON: usize = 4;
const SEED: u64 = 256;
const SAMPLES: usize = 12;

fn main() {
    let scale = Scale::from_env();
    let train_len = (scale.venice_train / 2).max(2_000);
    banner(
        "A6 — learning curve: coverage / fitness / acceptance along one run",
        &format!(
            "Venice τ={HORIZON}, train {train_len} h, pop {}, {} generations",
            scale.population, scale.generations
        ),
    );

    let series = VeniceTide::default().generate(train_len, SEED);
    let config = EngineConfig::for_series(series.values(), WindowSpec::new(D, HORIZON).unwrap())
        .with_population(scale.population)
        .with_generations(scale.generations)
        .with_seed(SEED);
    let mut engine = Engine::new(config, series.values()).expect("engine builds");

    println!(
        "{:>12} {:>12} {:>12} {:>12} {:>12}",
        "generation", "coverage%", "best-fit", "mean-fit", "accept%"
    );
    let step_size = (scale.generations / SAMPLES).max(1);
    let mut last_replacements = 0usize;
    for sample in 0..SAMPLES {
        for _ in 0..step_size {
            engine.step();
        }
        let stats = engine.stats();
        let accepted_this_block = stats.replacements - last_replacements;
        last_replacements = stats.replacements;
        let pop = engine.population();
        let best = pop
            .best_index()
            .map(|i| pop.get(i).fitness)
            .unwrap_or(f64::NEG_INFINITY);
        // Mean over viable individuals only — the f_min sentinel would
        // swamp the scale.
        let viable: Vec<f64> = pop
            .individuals()
            .iter()
            .map(|ind| ind.fitness)
            .filter(|&f| !engine.config().fitness.is_unfit(f))
            .collect();
        let mean = if viable.is_empty() {
            f64::NAN
        } else {
            viable.iter().sum::<f64>() / viable.len() as f64
        };
        println!(
            "{:>12} {:>12.1} {:>12.1} {:>12.1} {:>12.1}",
            (sample + 1) * step_size,
            engine.training_coverage() * 100.0,
            best,
            mean,
            100.0 * accepted_this_block as f64 / step_size as f64,
        );
    }

    println!("\nExpectation: coverage climbs steeply early then saturates; the");
    println!("acceptance rate decays as the population approaches a steady state.");
}
