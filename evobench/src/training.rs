//! The training workloads: the paper's Venice τ=4 task driven through the
//! CLI's campaign path (`Supervisor::run_resumable`) at two data scales.

use crate::cli::Workload;
use crate::report::Report;
use crate::stats::process_cpu_seconds;
use crate::{err, BenchResult, Cleanup, HOLDOUT_HOURS, HORIZON, SETUP_REPEATS, WINDOW};
use evoforecast_core::checkpoint::OutcomeStatus;
use evoforecast_core::config::{EngineConfig, EnsembleConfig};
use evoforecast_core::supervisor::{Supervisor, SupervisorReport};
use evoforecast_core::RuleSetPredictor;
use evoforecast_tsdata::gen::venice::VeniceTide;
use evoforecast_tsdata::io as ts_io;
use evoforecast_tsdata::series::TimeSeries;
use evoforecast_tsdata::window::WindowSpec;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// `EMAX` as a fraction of the training range.
pub const EMAX_FRACTION: f64 = 0.155;

/// Size of one training campaign.
#[derive(Debug, Clone, Copy)]
pub struct Recipe {
    /// Hours of series the campaign trains on.
    pub train_hours: usize,
    /// Population size.
    pub population: usize,
    /// Generations per execution.
    pub generations: usize,
    /// Executions merged into the ensemble.
    pub executions: usize,
}

/// `train_quick`: small match sets, four executions in one parallel wave.
pub const QUICK: Recipe = Recipe {
    train_hours: 6_000,
    population: 50,
    generations: 6_000,
    executions: 4,
};

/// `train_wide`: the paper's data scale, one execution.
pub const WIDE: Recipe = Recipe {
    train_hours: 45_000,
    population: 100,
    generations: 3_000,
    executions: 1,
};

impl Recipe {
    /// The recipe of a training workload.
    ///
    /// # Panics
    /// On a serving workload (a caller bug).
    pub fn of(workload: Workload) -> Recipe {
        match workload {
            Workload::TrainQuick => QUICK,
            Workload::TrainWide => WIDE,
            _ => panic!("{} is not a training workload", workload.name()),
        }
    }

    /// Generations the whole campaign runs.
    pub fn total_generations(&self) -> usize {
        self.generations * self.executions
    }
}

/// Seed of the Venice series every campaign trains on. The training task is
/// part of the workload's definition, so every run times the same work.
pub const TRAIN_DATA_SEED: u64 = 2007;

/// Engine seed of every campaign (execution `k` uses `ENGINE_SEED + k`).
pub const ENGINE_SEED: u64 = 2011;

/// The held-out hours the workload seed selects: hours `train_hours ..
/// train_hours + hours` of the Venice series generated with `seed`, led by
/// the `D + τ - 1` hours their first window needs. Seed 2007 gives the true
/// continuation of the training series.
pub fn held_out(train_hours: usize, hours: usize, seed: u64) -> Vec<f64> {
    let lead = WINDOW + HORIZON - 1;
    let series = VeniceTide::default().generate(train_hours + hours, seed);
    series.values()[train_hours - lead..].to_vec()
}

/// The window spec every workload uses.
pub fn spec() -> WindowSpec {
    WindowSpec::new(WINDOW, HORIZON).expect("D=24, τ=4 is a valid window spec")
}

/// Write the training series and the seed's hold-out span as CSV files,
/// the form the CLI reads.
///
/// # Errors
/// I/O errors.
pub fn write_series(recipe: &Recipe, seed: u64, train: &Path, holdout: &Path) -> BenchResult<()> {
    let series = VeniceTide::default().generate(recipe.train_hours, TRAIN_DATA_SEED);
    ts_io::write_series_file(&series, train).map_err(err("write series"))?;
    let span = TimeSeries::new(
        "venice-holdout",
        held_out(recipe.train_hours, HOLDOUT_HOURS, seed),
    )
    .map_err(err("hold-out series"))?;
    ts_io::write_series_file(&span, holdout).map_err(err("write hold-out series"))
}

/// The training span and the hold-out span of a run.
#[derive(Debug, Clone)]
pub struct Loaded {
    /// Training values.
    pub train: Vec<f64>,
    /// Values whose windows have their targets in the [`HOLDOUT_HOURS`]
    /// held-out hours.
    pub holdout: Vec<f64>,
}

/// Set-up of a training run: read both CSV files and window both spans.
///
/// # Errors
/// I/O or parse errors, or a series of the wrong length.
pub fn load(recipe: &Recipe, train: &Path, holdout: &Path) -> BenchResult<Loaded> {
    let train = ts_io::read_series_file(train).map_err(err("read series"))?;
    let holdout = ts_io::read_series_file(holdout).map_err(err("read hold-out series"))?;
    if train.len() != recipe.train_hours {
        return Err(format!("training series has {} points", train.len()));
    }
    let spec = spec();
    spec.dataset(train.values())
        .map_err(err("window training span"))?;
    let windows = spec
        .dataset(holdout.values())
        .map_err(err("window hold-out span"))?;
    if windows.len() != HOLDOUT_HOURS {
        return Err(format!("hold-out span has {} windows", windows.len()));
    }
    Ok(Loaded {
        train: train.values().to_vec(),
        holdout: holdout.values().to_vec(),
    })
}

/// Write a run's inputs to scratch files (removed by `cleanup`), then time
/// the set-up [`SETUP_REPEATS`] times. Returns the loaded spans and every
/// set-up time.
///
/// # Errors
/// I/O errors, or the errors of [`load`].
pub fn prepare(
    recipe: &Recipe,
    seed: u64,
    cleanup: &mut Cleanup,
) -> BenchResult<(Loaded, Vec<Duration>)> {
    let train = crate::scratch_file("train", "csv").map_err(err("scratch dir"))?;
    cleanup.add(&train);
    let holdout = crate::scratch_file("holdout", "csv").map_err(err("scratch dir"))?;
    cleanup.add(&holdout);
    write_series(recipe, seed, &train, &holdout)?;
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut loaded = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        loaded = Some(load(recipe, &train, &holdout)?);
        times.push(start.elapsed());
    }
    Ok((loaded.expect("SETUP_REPEATS >= 1"), times))
}

/// The campaign configuration, built only through `for_series` and the
/// `with_*` builders.
pub fn config(recipe: &Recipe, train: &[f64]) -> EnsembleConfig {
    let engine = EngineConfig::for_series(train, spec())
        .with_population(recipe.population)
        .with_generations(recipe.generations)
        .with_seed(ENGINE_SEED);
    let (lo, hi) = engine.value_range;
    let engine = engine.with_emax((hi - lo) * EMAX_FRACTION);
    EnsembleConfig::new(engine).with_max_executions(recipe.executions)
}

/// One finished campaign.
#[derive(Debug)]
pub struct Campaign {
    /// The merged ensemble.
    pub predictor: RuleSetPredictor,
    /// The supervisor's report.
    pub report: SupervisorReport,
    /// Wall-clock time of `run_resumable`.
    pub elapsed: Duration,
    /// CPU time all threads of the process used during `run_resumable`, s.
    pub cpu_seconds: f64,
    /// Size of the checkpoint the campaign left behind.
    pub checkpoint_bytes: u64,
}

/// Run a campaign with checkpointing at `checkpoint`, which must not exist:
/// a leftover checkpoint would resume a finished campaign and time no work.
///
/// # Errors
/// A stale checkpoint path, or the supervisor's error.
pub fn run_campaign(
    config: &EnsembleConfig,
    train: &[f64],
    checkpoint: &Path,
) -> BenchResult<Campaign> {
    if checkpoint.exists() {
        return Err(format!(
            "checkpoint {} already exists",
            checkpoint.display()
        ));
    }
    let supervisor = Supervisor::new(config.clone()).map_err(err("supervisor"))?;
    let cpu_start = process_cpu_seconds();
    let start = Instant::now();
    let (predictor, report) = supervisor
        .run_resumable(train, checkpoint)
        .map_err(err("campaign"))?;
    let elapsed = start.elapsed();
    let cpu_seconds = process_cpu_seconds() - cpu_start;
    let checkpoint_bytes = std::fs::metadata(checkpoint)
        .map_err(err("checkpoint written"))?
        .len();
    Ok(Campaign {
        predictor,
        report,
        elapsed,
        cpu_seconds,
        checkpoint_bytes,
    })
}

/// Gate: every requested execution ran to completion, with no degradation.
/// Returns `(attempts, completed)` for the run's `ok_ratio`.
pub fn check_campaign(recipe: &Recipe, report: &SupervisorReport, out: &mut Report) -> (u64, u64) {
    out.check(report.executions == recipe.executions, || {
        format!(
            "campaign ran {} of {} executions",
            report.executions, recipe.executions
        )
    });
    out.check(report.degradation.is_none(), || {
        format!("campaign degraded: {:?}", report.degradation)
    });
    out.check(report.outcomes.len() == recipe.executions, || {
        format!(
            "{} outcomes for {} executions",
            report.outcomes.len(),
            recipe.executions
        )
    });
    let attempts = report.outcomes.iter().map(|o| u64::from(o.attempts)).sum();
    let completed = report
        .outcomes
        .iter()
        .filter(|o| o.status == OutcomeStatus::Completed)
        .count() as u64;
    (attempts, completed)
}

/// Hold-out windows and their τ=4 targets.
pub fn holdout_windows(loaded: &Loaded) -> (Vec<Vec<f64>>, Vec<f64>) {
    let ds = spec()
        .dataset(&loaded.holdout)
        .expect("hold-out span was windowed at set-up");
    ds.iter().map(|(w, t)| (w.to_vec(), t)).unzip()
}

/// A fresh checkpoint path for campaign `k` of this process.
///
/// # Errors
/// I/O errors creating the scratch directory.
pub fn checkpoint_path(k: usize) -> BenchResult<PathBuf> {
    crate::scratch_file(&format!("checkpoint{k}"), "json").map_err(err("scratch dir"))
}
