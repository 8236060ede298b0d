//! Subcommand implementations.

use crate::args::{Args, CliError};
use evoforecast_core::analysis::{CoverageMap, RuleSetStats};
use evoforecast_core::config::{EngineConfig, EnsembleConfig};
use evoforecast_core::error::EvoError;
use evoforecast_core::model::{ModelMetadata, TrainedModel};
use evoforecast_core::supervisor::{RunBudget, Supervisor};
use evoforecast_metrics::{EvaluationReport, PairedErrors};
use evoforecast_tsdata::gen::ar::ArProcess;
use evoforecast_tsdata::gen::chaotic;
use evoforecast_tsdata::gen::mackey_glass::MackeyGlass;
use evoforecast_tsdata::gen::sunspot::SunspotGenerator;
use evoforecast_tsdata::gen::venice::VeniceTide;
use evoforecast_tsdata::gen::waves;
use evoforecast_tsdata::io as ts_io;
use evoforecast_tsdata::window::WindowSpec;
use std::io::Write;

/// Help text.
pub const USAGE: &str = "\
evoforecast — Michigan-style evolutionary rule forecasting (IPPS 2007)

COMMANDS
  generate --series <venice|mackey-glass|sunspot|sine|noisy-sine|ar2|logistic|henon|lorenz>
           --n <points> [--seed <u64>] --out <file.csv>
  train    --data <file.csv> --window <D> --horizon <τ> [--spacing <Δ>]
           [--population <P>] [--generations <G>] [--executions <E>]
           [--emax-frac <f>] [--seed <u64>] --out <model.json>
           [--checkpoint <state.json>] [--time-budget <seconds>]
           [--max-retries <n>]
  resume   same flags as train, --checkpoint required; continues a
           checkpointed campaign (flags must match the original run)
  evaluate --model <model.json> --data <file.csv> [--from <index>]
  predict  --model <model.json> --data <file.csv>
  freerun  --model <model.json> --data <file.csv> --steps <n>
  analyze  --model <model.json> --data <file.csv> [--bins <n>]
  experiment --config <spec.json> [--out <results.json>]
  spectrum --data <file.csv> [--top <n>]
  serve    --model <model.json> [--name <slot>] [--addr <host:port>]
           [--workers <n>] [--queue <depth>] [--deadline-ms <ms>]
           [--max-batch <n>] [--max-body-bytes <n>]
  help

Any other flag is a usage error.
";

fn runtime<E: std::fmt::Display>(e: E) -> CliError {
    CliError::Runtime(e.to_string())
}

/// Training errors split by exit code: invalid configurations are the
/// caller's fault (exit 2), everything else is a runtime failure (exit 1).
fn classify(e: EvoError) -> CliError {
    match e {
        EvoError::InvalidConfig(msg) => CliError::Config(msg),
        other => CliError::Runtime(other.to_string()),
    }
}

/// `generate`: synthesize a series and write it as CSV.
///
/// # Errors
/// Usage errors for unknown series names; I/O errors writing the file.
pub(crate) fn generate(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let kind = args.required("series")?;
    let n: usize = args.parse_required("n")?;
    if n == 0 {
        return Err(CliError::Usage("--n must be >= 1".into()));
    }
    let seed: u64 = args.parse_or("seed", 7)?;
    let path = args.required("out")?;

    let series = match kind {
        "venice" => VeniceTide::default().generate(n, seed),
        "mackey-glass" => MackeyGlass::paper_setup().generate(n),
        "sunspot" => SunspotGenerator::default().generate(n, seed),
        "sine" => waves::sine(n, 25.0, 1.0, 0.0, 0.0),
        "noisy-sine" => waves::noisy_sine(n, 25.0, 1.0, 0.05, seed),
        "ar2" => ArProcess::stable_ar2().generate(n, seed),
        "logistic" => chaotic::logistic(n, 4.0, 0.3),
        "henon" => chaotic::henon_classic(n),
        "lorenz" => chaotic::lorenz_x(n, 0.01, 5),
        other => {
            return Err(CliError::Usage(format!("unknown series kind {other:?}")));
        }
    };
    ts_io::write_series_file(&series, path).map_err(runtime)?;
    writeln!(
        out,
        "wrote {} points of {:?} (range [{:.3}, {:.3}]) to {path}",
        series.len(),
        series.name(),
        series.range().0,
        series.range().1
    )?;
    Ok(())
}

/// `train`: fit a rule-system ensemble on a CSV series and save the model.
///
/// Runs under the fault-tolerant [`Supervisor`] (panic isolation plus
/// retry-with-reseed). With `--checkpoint` the merged state is saved after
/// every wave so an interrupted campaign can be continued with `resume`.
///
/// # Errors
/// Usage/I/O errors; config errors for invalid parameters; runtime errors
/// from training.
pub(crate) fn train(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    train_impl(args, out, false)
}

/// `resume`: continue a checkpointed `train` campaign from its last
/// completed wave. Takes the same flags as `train`; they must reproduce the
/// original configuration (the checkpoint's fingerprint is verified), and
/// `--checkpoint` is required. A resumed campaign yields a model
/// bit-identical to an uninterrupted run.
///
/// # Errors
/// Usage/I/O errors; runtime errors for corrupt or mismatched checkpoints.
pub(crate) fn resume(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    train_impl(args, out, true)
}

fn train_impl(args: &Args, out: &mut dyn Write, resuming: bool) -> Result<(), CliError> {
    let data_path = args.required("data")?;
    let model_path = args.required("out")?;
    let window: usize = args.parse_required("window")?;
    let horizon: usize = args.parse_required("horizon")?;
    let spacing: usize = args.parse_or("spacing", 1)?;
    let population: usize = args.parse_or("population", 50)?;
    let generations: usize = args.parse_or("generations", 6_000)?;
    let executions: usize = args.parse_or("executions", 4)?;
    let emax_frac: f64 = args.parse_or("emax-frac", 0.15)?;
    let seed: u64 = args.parse_or("seed", 0x5EED)?;
    let checkpoint = args.get("checkpoint");
    if resuming && checkpoint.is_none() {
        return Err(CliError::Usage(
            "resume needs --checkpoint pointing at the interrupted run's state file".into(),
        ));
    }

    let mut budget = RunBudget::default();
    if let Some(raw) = args.get("time-budget") {
        let secs: f64 = raw.parse().map_err(|_| {
            CliError::Usage(format!("flag --time-budget has unparsable value {raw:?}"))
        })?;
        if !secs.is_finite() || secs <= 0.0 {
            return Err(CliError::Usage(
                "--time-budget must be a positive number of seconds".into(),
            ));
        }
        budget = budget.with_wall_clock(std::time::Duration::from_secs_f64(secs));
    }
    budget = budget.with_max_retries(args.parse_or("max-retries", budget.max_retries)?);

    let series = ts_io::read_series_file(data_path).map_err(runtime)?;
    let spec = WindowSpec::with_spacing(window, horizon, spacing).map_err(runtime)?;

    let engine = EngineConfig::for_series(series.values(), spec)
        .with_population(population)
        .with_generations(generations)
        .with_seed(seed);
    let (lo, hi) = engine.value_range;
    let engine = engine.with_emax((hi - lo) * emax_frac);
    let config = EnsembleConfig::new(engine).with_max_executions(executions);
    let supervisor = Supervisor::new(config)
        .map_err(classify)?
        .with_budget(budget);
    let (predictor, report) = match checkpoint {
        Some(path) => supervisor
            .run_resumable(series.values(), std::path::Path::new(path))
            .map_err(classify)?,
        None => supervisor.run(series.values()).map_err(classify)?,
    };

    let model = TrainedModel::new(
        spec,
        predictor,
        ModelMetadata {
            series_name: series.name().to_string(),
            train_points: series.len(),
            seed,
            executions: report.executions,
            training_coverage: report.training_coverage,
        },
    );
    model.save_json_file(model_path)?;
    writeln!(
        out,
        "trained {} rules over {} executions (training coverage {:.1}%); saved to {model_path}",
        model.predictor.len(),
        report.executions,
        report.training_coverage * 100.0
    )?;
    if let Some(reason) = &report.degradation {
        writeln!(out, "degraded: {reason}; resume to continue the campaign")?;
    }
    if let Some(path) = checkpoint {
        writeln!(out, "checkpoint saved to {path}")?;
    }
    Ok(())
}

/// `evaluate`: score a saved model on a CSV series (optionally only the tail
/// starting at `--from`). Prints coverage and error metrics.
///
/// # Errors
/// Usage/I/O errors; runtime errors from windowing.
pub(crate) fn evaluate(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let model = TrainedModel::load_json_file(args.required("model")?)?;
    let series = ts_io::read_series_file(args.required("data")?).map_err(runtime)?;
    let from: usize = args.parse_or("from", 0)?;
    if from >= series.len() {
        return Err(CliError::Usage(format!(
            "--from {from} is beyond the series ({} points)",
            series.len()
        )));
    }

    let values = &series.values()[from..];
    let ds = model.dataset(values).map_err(runtime)?;
    let mut pairs = PairedErrors::with_capacity(ds.len());
    for (w, t) in ds.iter() {
        pairs.record(t, model.predictor.predict(w));
    }
    let report = EvaluationReport::from_paired("rule-system", model.spec.horizon(), &pairs);
    writeln!(out, "{}", report.summary_line())?;
    writeln!(
        out,
        "evaluated {} windows from index {from}; {} predicted, {} abstained",
        report.total_points,
        report.predicted_points,
        report.total_points - report.predicted_points
    )?;
    Ok(())
}

/// `predict`: one prediction from the trailing window of a CSV series.
///
/// # Errors
/// Usage/I/O errors; runtime errors when the series is too short.
pub(crate) fn predict(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let model = TrainedModel::load_json_file(args.required("model")?)?;
    let series = ts_io::read_series_file(args.required("data")?).map_err(runtime)?;
    match model.predict_next(series.values()).map_err(runtime)? {
        Some(v) => writeln!(
            out,
            "prediction for t+{} (D={}, Δ={}): {v:.6}",
            model.spec.horizon(),
            model.spec.window(),
            model.spec.spacing()
        )?,
        None => writeln!(
            out,
            "the system abstains: no rule fires on the latest window"
        )?,
    }
    Ok(())
}

/// `freerun`: closed-loop iteration from the tail of a CSV series. Requires
/// a τ = 1, Δ = 1 model (each prediction becomes the next window's newest
/// value).
///
/// # Errors
/// Usage/I/O errors; usage error for non-iterable specs.
pub(crate) fn freerun(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let model = TrainedModel::load_json_file(args.required("model")?)?;
    let series = ts_io::read_series_file(args.required("data")?).map_err(runtime)?;
    let steps: usize = args.parse_required("steps")?;
    if model.spec.horizon() != 1 || model.spec.spacing() != 1 {
        return Err(CliError::Usage(format!(
            "free run needs a τ=1, Δ=1 model (this one has τ={}, Δ={})",
            model.spec.horizon(),
            model.spec.spacing()
        )));
    }
    let d = model.spec.window();
    if series.len() < d {
        return Err(CliError::Usage(format!(
            "series has {} points but the model window needs {d}",
            series.len()
        )));
    }
    let seed = &series.values()[series.len() - d..];
    let run = evoforecast_core::multistep::free_run(&model.predictor, seed, steps);
    for (k, p) in run.predictions.iter().enumerate() {
        writeln!(out, "t+{}: {p:.6}", k + 1)?;
    }
    if run.stopped_by_abstention {
        writeln!(
            out,
            "stopped after {} of {steps} steps: the system abstained (off the learned manifold)",
            run.len()
        )?;
    } else {
        writeln!(out, "completed {steps} steps")?;
    }
    Ok(())
}

/// `spectrum`: periodogram summary of a CSV series — dominant periods and
/// their power share. Useful before choosing `D` and τ.
///
/// # Errors
/// Usage/I/O errors; runtime errors from the FFT.
pub(crate) fn spectrum(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let series = ts_io::read_series_file(args.required("data")?).map_err(runtime)?;
    let top: usize = args.parse_or("top", 5)?;
    if top == 0 {
        return Err(CliError::Usage("--top must be >= 1".into()));
    }
    let mut bins = evoforecast_tsdata::spectrum::periodogram(&series).map_err(runtime)?;
    let total: f64 = bins.iter().map(|b| b.power).sum();
    if total <= 0.0 {
        writeln!(out, "series is constant: no spectral structure")?;
        return Ok(());
    }
    bins.sort_by(|a, b| b.power.total_cmp(&a.power));
    writeln!(out, "{} points; top {top} spectral lines:", series.len())?;
    writeln!(out, "{:>14} {:>14} {:>10}", "period", "frequency", "power%")?;
    for b in bins.iter().take(top) {
        writeln!(
            out,
            "{:>14.2} {:>14.6} {:>10.2}",
            b.period,
            b.frequency,
            100.0 * b.power / total
        )?;
    }
    Ok(())
}

/// `experiment`: run a JSON experiment spec and print (optionally save) the
/// result.
///
/// # Errors
/// Usage/I/O errors; runtime errors from training.
pub(crate) fn experiment(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let path = args.required("config")?;
    let text = std::fs::read_to_string(path)?;
    let spec = crate::experiment::ExperimentSpec::from_json(&text)?;
    let result = spec.run()?;
    writeln!(out, "experiment {:?}", result.name)?;
    writeln!(
        out,
        "rules={} executions={} training-coverage={:.1}%",
        result.rules,
        result.executions,
        result.training_coverage * 100.0
    )?;
    writeln!(out, "{}", result.report.summary_line())?;
    if let Some(out_path) = args.get("out") {
        let json =
            serde_json::to_string_pretty(&result).map_err(|e| CliError::Runtime(e.to_string()))?;
        std::fs::write(out_path, json)?;
        writeln!(out, "wrote {out_path}")?;
    }
    Ok(())
}

/// `analyze`: rule-set statistics and an output-space coverage map.
///
/// # Errors
/// Usage/I/O errors; runtime errors from windowing.
pub(crate) fn analyze(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let model = TrainedModel::load_json_file(args.required("model")?)?;
    let series = ts_io::read_series_file(args.required("data")?).map_err(runtime)?;
    let bins: usize = args.parse_or("bins", 40)?;
    if bins == 0 {
        return Err(CliError::Usage("--bins must be >= 1".into()));
    }

    let stats = RuleSetStats::from_rules(model.predictor.rules());
    writeln!(out, "rules: {}", stats.rules)?;
    if let Some((lo, hi)) = stats.prediction_range {
        writeln!(out, "prediction zones span [{lo:.3}, {hi:.3}]")?;
    }
    writeln!(
        out,
        "mean specificity {:.2} of {} genes; mean interval width {:.4}",
        stats.mean_specificity,
        model.spec.window(),
        stats.mean_interval_width
    )?;
    writeln!(
        out,
        "mean expected error {:.4}; mean matched windows {:.1}",
        stats.mean_expected_error, stats.mean_matched
    )?;

    let ds = model.dataset(series.values()).map_err(runtime)?;
    let map = CoverageMap::build(&model.predictor, &ds, bins);
    writeln!(
        out,
        "output-space coverage [{:.3}, {:.3}] ({} bins, '#'=full '.'=none):",
        map.lo, map.hi, bins
    )?;
    writeln!(out, "  |{}|", map.render_ascii())?;
    let uncovered = map.uncovered_bins();
    if uncovered.is_empty() {
        writeln!(out, "no uncovered output zones")?;
    } else {
        writeln!(
            out,
            "{} uncovered zone(s) — the non-generalizable regions (bin indices {:?})",
            uncovered.len(),
            uncovered
        )?;
    }
    if let Some(f) = map.overall_fraction() {
        writeln!(out, "overall window coverage: {:.1}%", f * 100.0)?;
    }
    Ok(())
}

/// `serve`: load a trained-model artifact into a registry slot and serve
/// forecasts over HTTP until the process is killed.
///
/// # Errors
/// Usage errors for bad flags, I/O errors loading the artifact,
/// [`CliError::Config`] when the artifact is internally inconsistent.
pub(crate) fn serve(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let server = serve_start(args, out)?;
    server.join();
    Ok(())
}

/// Start the forecast server without blocking — the testable core of the
/// `serve` command.
///
/// # Errors
/// Usage errors for bad flags, I/O errors loading the artifact,
/// [`CliError::Config`] when the artifact is internally inconsistent.
pub fn serve_start(
    args: &Args,
    out: &mut dyn Write,
) -> Result<evoforecast_serve::Server, CliError> {
    use evoforecast_serve::registry::ModelRegistry;
    use evoforecast_serve::server::{Server, ServerConfig};
    use std::sync::Arc;
    use std::time::Duration;

    let model_path = args.required("model")?;
    let name = args.get("name").unwrap_or("default").to_string();
    let defaults = ServerConfig::default();
    let config = ServerConfig {
        addr: args.get("addr").unwrap_or("127.0.0.1:8471").to_string(),
        workers: args.parse_or("workers", defaults.workers)?,
        queue_depth: args.parse_or("queue", defaults.queue_depth)?,
        deadline: Duration::from_millis(args.parse_or("deadline-ms", 2_000u64)?),
        max_body_bytes: args.parse_or("max-body-bytes", defaults.max_body_bytes)?,
        max_batch: args.parse_or("max-batch", defaults.max_batch)?,
    };

    let model = TrainedModel::load_json_file(model_path)?;
    let registry = Arc::new(ModelRegistry::new());
    let entry = registry
        .install_trained(&name, model)
        .map_err(|e| CliError::Config(e.to_string()))?;
    writeln!(
        out,
        "slot {:?}: {} rules, D={}, τ={}, Δ={}, fingerprint {}",
        entry.name(),
        entry.compiled.len(),
        entry.spec.window(),
        entry.spec.horizon(),
        entry.spec.spacing(),
        entry.fingerprint
    )?;
    let server = Server::start(config, registry)?;
    writeln!(
        out,
        "serving at http://{} — POST /forecast /reload · GET /healthz /models /stats",
        server.local_addr()
    )?;
    Ok(server)
}
