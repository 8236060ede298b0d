//! Golden rule digests: two small seeded engine runs and one ensemble
//! campaign on the Venice τ=4 task whose evolved rule sets are pinned by
//! committed FNV-1a digests of their canonical JSON.
//!
//! The series is chaotic enough that any change to a floating-point
//! summation order — in the Gram build, the solve or the residual pass —
//! grows into different rules within a few hundred generations. A kernel
//! rewrite that claims to be bit-identical must leave both digests alone.
//!
//! * `sequential_run_*` trains below `parallel_threshold`, so every Gram goes
//!   through the sequential chunk loop.
//! * `parallel_run_*` trains on more than 8 192 windows, so every Gram goes
//!   through the parallel chunk path of `core::parallel`.
//! * `ensemble_run_*` drives [`Supervisor`] through two waves of
//!   executions: seed schedule, viable-rule filter, slot-order merge and the
//!   coverage union folded slot by slot, which decides when it stops. Its digest was computed with the former
//!   standalone ensemble trainer, which agreed with `Supervisor` bit for bit,
//!   so this test carries that guarantee forward.

use evoforecast_core::checkpoint::fingerprint_json;
use evoforecast_core::prelude::*;
use evoforecast_tsdata::gen::venice::VeniceTide;
use evoforecast_tsdata::window::WindowSpec;

/// Digest of the rules evolved below the parallel threshold.
const SEQUENTIAL_DIGEST: u64 = 0x37ea_9da8_4d64_b021;
/// Digest of the rules evolved above the parallel threshold.
const PARALLEL_DIGEST: u64 = 0x25dd_3ee4_39b3_2a02;
/// Digest of the merged rules of the two-wave ensemble campaign.
const ENSEMBLE_DIGEST: u64 = 0x38de_37dd_a96f_3112;
/// Bits of that campaign's reported training coverage (≈ 0.4947).
const ENSEMBLE_COVERAGE_BITS: u64 = 0x3fdf_a8ce_908b_1801;

/// Train on `hours` of the Venice series (data seed 2007) with D=24, τ=4
/// and return the rule-set digest plus the number of training windows.
fn evolve(hours: usize, population: usize, generations: usize) -> (u64, usize) {
    let series = VeniceTide::default().generate(hours, 2007);
    let values = series.values();
    let spec = WindowSpec::new(24, 4).unwrap();
    let config = EngineConfig::for_series(values, spec)
        .with_population(population)
        .with_generations(generations)
        .with_seed(2011);
    let threshold = config.parallel_threshold;
    let mut engine = Engine::new(config, values).unwrap();
    let rules = engine.run();
    assert!(engine.stats().replacements > 0, "the run must evolve rules");
    let windows = spec.dataset(values).unwrap().len();
    let digest = fingerprint_json(&serde_json::to_string(&rules).unwrap());
    println!("hours {hours}: {windows} windows (threshold {threshold}), digest {digest:#018x}");
    (digest, windows)
}

#[test]
fn sequential_run_reproduces_its_golden_digest() {
    let (digest, windows) = evolve(3_000, 30, 1_500);
    assert!(windows < 8_192, "run must stay on the sequential path");
    assert_eq!(digest, SEQUENTIAL_DIGEST, "got {digest:#018x}");
}

#[test]
fn parallel_run_reproduces_its_golden_digest() {
    let (digest, windows) = evolve(9_000, 30, 600);
    assert!(windows >= 8_192, "run must go through core::parallel");
    assert_eq!(digest, PARALLEL_DIGEST, "got {digest:#018x}");
}

#[test]
fn ensemble_run_reproduces_its_golden_digest() {
    let series = VeniceTide::default().generate(2_000, 2007);
    let values = series.values();
    let spec = WindowSpec::new(24, 4).unwrap();
    let engine = EngineConfig::for_series(values, spec)
        .with_population(20)
        .with_generations(300)
        .with_seed(2011);
    // A tight EMAX keeps coverage far below the target, so all eight
    // executions (two waves) run.
    let emax = engine.range_width() * 0.08;
    let engine = engine.with_emax(emax);
    let config = EnsembleConfig::new(engine)
        .with_max_executions(8)
        .with_coverage_target(1.0);
    let (predictor, report) = Supervisor::new(config).unwrap().run(values).unwrap();
    let digest = fingerprint_json(&serde_json::to_string(predictor.rules()).unwrap());
    println!(
        "ensemble: {} executions, {} rules, coverage {}, digest {digest:#018x}",
        report.executions,
        predictor.len(),
        report.training_coverage
    );
    assert_eq!(report.executions, 8, "the campaign must run two waves");
    assert!(report.degradation.is_none());
    assert_eq!(digest, ENSEMBLE_DIGEST, "got {digest:#018x}");
    assert_eq!(report.training_coverage.to_bits(), ENSEMBLE_COVERAGE_BITS);
}
