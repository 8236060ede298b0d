//! **Table 3** — monthly sunspot numbers.
//!
//! The paper's split: training January 1749 – December 1919, validation
//! January 1929 – March 1977, 24 inputs, data standardized to [0, 1]. The
//! error measure is `e = 1/(2(N+τ)) Σ (x − x̃)²`. Comparators are the
//! feedforward and recurrent networks of Galván & Isasi (2001), here an MLP
//! and an Elman network. Data is the synthetic Schwabe-cycle generator
//! (DESIGN.md §4 substitution).
//!
//! Run: `cargo bench -p evoforecast-bench --bench table3_sunspot`

use evoforecast_bench::output::{banner, dump_reports, fmt_opt};
use evoforecast_bench::paper::TABLE3_SUNSPOT;
use evoforecast_bench::{
    evaluate_abstaining, evaluate_forecaster, train_rule_system, RuleSystemSetup, Scale,
};
use evoforecast_metrics::EvaluationReport;
use evoforecast_neural::elman::{Elman, ElmanConfig};
use evoforecast_neural::mlp::{Mlp, MlpConfig};
use evoforecast_tsdata::gen::sunspot::SunspotGenerator;
use evoforecast_tsdata::normalize::MinMaxScaler;
use evoforecast_tsdata::window::WindowSpec;

const D: usize = 24;
const SEED: u64 = 1749;

fn main() {
    let scale = Scale::from_env();
    banner(
        "Table 3 — sunspots: rule system vs feedforward NN vs recurrent NN (half-MSE)",
        &format!(
            "paper split (train 1749–1919, valid 1929–1977, 24 inputs); pop {}, {} generations",
            scale.population, scale.generations
        ),
    );

    let series = SunspotGenerator::default().paper_series(SEED);
    let scaler = MinMaxScaler::fit(&series.values()[..SunspotGenerator::TRAIN_MONTHS])
        .expect("sunspot series has range");
    let normalized = scaler.transform_slice(series.values());
    let train = &normalized[..SunspotGenerator::TRAIN_MONTHS];
    let valid = &normalized[SunspotGenerator::VALID_START..];

    let mut reports: Vec<EvaluationReport> = Vec::new();

    println!(
        "τ    | {:>28} | {:>30}",
        "paper: pred% RS FF-NN Rec-NN", "measured: pred% RS FF-NN Rec-NN"
    );
    for &(horizon, paper_pct, paper_rs, paper_ff, paper_rec) in TABLE3_SUNSPOT {
        let spec = WindowSpec::new(D, horizon).expect("valid spec");

        let setup = RuleSystemSetup {
            spec,
            emax_fraction: 0.18,
            population: scale.population,
            generations: scale.generations,
            executions: scale.executions,
            seed: SEED + horizon as u64,
        };
        let (predictor, _ensemble) = train_rule_system(train, setup);
        let rs_pairs = evaluate_abstaining(&predictor, valid, spec);
        let rs_report = EvaluationReport::from_paired("rule-system", horizon, &rs_pairs);

        // Feedforward comparator (data already in [0,1] — train directly).
        let ds = spec.dataset(train).expect("train fits spec");
        let xs = ds.design_matrix();
        let ys = ds.targets();
        let mut mlp = Mlp::new(
            D,
            MlpConfig {
                hidden: 16,
                epochs: scale.mlp_epochs,
                seed: SEED + 7,
                ..Default::default()
            },
        )
        .expect("valid MLP config");
        mlp.train(&xs, &ys).expect("MLP trains");
        let ff_pairs = evaluate_forecaster(&mlp, valid, spec);
        let ff_report = EvaluationReport::from_paired("mlp", horizon, &ff_pairs);

        // Recurrent comparator, evaluated *statefully*: context units advance
        // through the validation span in time order, as a deployed recurrent
        // model would run.
        let mut elman = Elman::new(
            D,
            ElmanConfig {
                hidden: 12,
                epochs: (scale.mlp_epochs / 2).max(20),
                seed: SEED + 13,
                ..Default::default()
            },
        )
        .expect("valid Elman config");
        elman.train(&xs, &ys).expect("Elman trains");
        let valid_ds = spec.dataset(valid).expect("valid fits spec");
        let mut rec_pairs = evoforecast_metrics::PairedErrors::with_capacity(valid_ds.len());
        let mut stateful = elman.clone();
        stateful.reset();
        for (window, target) in valid_ds.iter() {
            rec_pairs.record(target, Some(stateful.step(window)));
        }
        let rec_report = EvaluationReport::from_paired("elman", horizon, &rec_pairs);

        println!(
            "τ={horizon:<3} | paper: {paper_pct:5.1}% {paper_rs:.5} {paper_ff:.5} {paper_rec:.5} | measured: {}% {} {} {}",
            fmt_opt(rs_report.coverage_pct.map(|p| (p * 10.0).round() / 10.0), 1),
            fmt_opt(rs_report.half_mse, 5),
            fmt_opt(ff_report.half_mse, 5),
            fmt_opt(rec_report.half_mse, 5),
        );

        reports.push(rs_report);
        reports.push(ff_report);
        reports.push(rec_report);
    }

    dump_reports("table3_sunspot", &reports);
    println!("\nShape check (paper): RS below both NNs at every horizon; errors grow with τ;");
    println!("coverage stays ≥95%.");
}
