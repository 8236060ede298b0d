//! `Engine` against the literal §3.1–3.3 transcription in
//! `common/train.rs`: after every generation, every rule, every fitness,
//! every match set and the training coverage must agree bit for bit, at both
//! the sequential and the rayon-parallel Gram thresholds.

#[path = "common/train.rs"]
mod oracle;

use evoforecast_core::init::InitStrategy;
use evoforecast_core::prelude::*;
use evoforecast_core::regress::GRAM_CHUNK;
use evoforecast_tsdata::gen::venice::VeniceTide;
use evoforecast_tsdata::gen::waves::noisy_sine;
use evoforecast_tsdata::window::WindowSpec;
use oracle::{rule_bits, Oracle};
use proptest::prelude::*;

/// The first disagreement between the engine and the oracle, if any.
fn divergence<E: ExampleSet>(engine: &GenericEngine<E>, oracle: &Oracle<'_, E>) -> Option<String> {
    let (ours, theirs) = (engine.population(), oracle.population());
    if ours.len() != theirs.len() {
        return Some(format!("population {} vs {}", ours.len(), theirs.len()));
    }
    for k in 0..ours.len() {
        let (a, b) = (ours.get(k), theirs.get(k));
        if rule_bits(&a.rule) != rule_bits(&b.rule) {
            return Some(format!(
                "rule {k}: engine {:?} vs oracle {:?}",
                a.rule, b.rule
            ));
        }
        if a.fitness.to_bits() != b.fitness.to_bits() {
            return Some(format!("fitness {k}: {} vs {}", a.fitness, b.fitness));
        }
        if engine.match_set(k).to_indices() != oracle.match_set(k) {
            return Some(format!("match set {k}"));
        }
    }
    let (ours, theirs) = (engine.training_coverage(), oracle.coverage());
    if ours.to_bits() != theirs.to_bits() {
        return Some(format!("coverage {ours} vs {theirs}"));
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn engine_matches_the_oracle_after_every_step(
        data_seed in 0u64..1_000,
        n in 40usize..260,
        period in 5.0..30.0f64,
        noise in 0.0..0.3f64,
        d in 1usize..6,
        tau in 1usize..4,
        population in 2usize..16,
        seed in 0u64..10_000,
        per_gene in 0.0..0.6f64,
        emax_fraction in 0.02..0.4f64,
        replacement_sel in 0usize..3,
        init_sel in 0usize..2,
        threshold_sel in 0usize..2,
        steps in 1usize..120,
    ) {
        prop_assume!(n > d + tau + 5);
        let series = noisy_sine(n, period, 1.0, noise, data_seed);
        let values = series.values();
        let spec = WindowSpec::new(d, tau).unwrap();
        let mut config = EngineConfig::for_series(values, spec)
            .with_population(population)
            .with_seed(seed)
            .with_replacement(
                [
                    ReplacementStrategy::Crowding,
                    ReplacementStrategy::ReplaceWorst,
                    ReplacementStrategy::ReplaceRandom,
                ][replacement_sel],
            )
            .with_init([InitStrategy::Binned, InitStrategy::Random][init_sel]);
        config = config.clone().with_emax(config.range_width() * emax_fraction);
        config.mutation.per_gene_probability = per_gene;
        config.parallel_threshold = [1, usize::MAX][threshold_sel];

        let data = spec.dataset(values).unwrap();
        let mut oracle = Oracle::new(config.clone(), &data);
        let mut engine = Engine::new(config, values).unwrap();
        let at_init = divergence(&engine, &oracle);
        prop_assert!(at_init.is_none(), "after init: {}", at_init.unwrap());
        for g in 0..steps {
            prop_assert_eq!(engine.step(), oracle.step(), "acceptance at generation {}", g);
            let now = divergence(&engine, &oracle);
            prop_assert!(now.is_none(), "generation {}: {}", g, now.unwrap());
        }
    }
}

/// Venice τ=4 at D=24 over 9 000 hours: 8 973 windows, so every Gram spans
/// three `GRAM_CHUNK`s and the chunk merge order is exercised. The same
/// configuration is pinned by `golden_digests.rs`'s parallel run.
#[test]
fn multi_chunk_venice_run_matches_the_oracle_at_both_thresholds() {
    let series = VeniceTide::default().generate(9_000, 2007);
    let values = series.values();
    let spec = WindowSpec::new(24, 4).unwrap();
    let data = spec.dataset(values).unwrap();
    assert!(data.len() > 2 * GRAM_CHUNK, "{} windows", data.len());
    let config = EngineConfig::for_series(values, spec)
        .with_population(30)
        .with_seed(2011);

    let mut oracle = Oracle::new(config.clone(), &data);
    let mut engines = [1, usize::MAX].map(|threshold| {
        let mut config = config.clone();
        config.parallel_threshold = threshold;
        Engine::new(config, values).unwrap()
    });
    let mut replaced = 0;
    for g in 0..600 {
        let accepted = oracle.step();
        replaced += usize::from(accepted);
        for engine in &mut engines {
            assert_eq!(engine.step(), accepted, "generation {g}");
            if g % 50 == 0 || g == 599 {
                if let Some(what) = divergence(engine, &oracle) {
                    panic!(
                        "threshold {} generation {g}: {what}",
                        engine.config().parallel_threshold
                    );
                }
            }
        }
    }
    assert!(replaced > 0, "the run must evolve rules");
}
