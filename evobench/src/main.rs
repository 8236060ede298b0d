//! `evobench`: one untraced run of a workload. Prints every end-to-end
//! metric with its unit after checking that the outputs are correct.
//!
//! ```text
//! evobench --workload <name> --seed <n> --seconds <s> --trace 0
//! ```

use evobench::cli::{Args, Workload};
use evobench::report::{Report, END_TO_END};
use evobench::serving::{self, Load, Phase, Stop};
use evobench::stats::{median, process_cpu_seconds, quantile, rss_peak_mb, timed, us};
use evobench::training::{self, Recipe};
use evobench::{err, rules_digest, score, BenchResult, Cleanup, SETUP_REPEATS};
use evoforecast_core::model::TrainedModel;
use std::hint::black_box;
use std::time::{Duration, Instant};

fn main() {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("evobench: {e}");
            std::process::exit(2);
        }
    };
    if args.trace {
        eprintln!("evobench: the traced run is the evobench-trace binary");
        std::process::exit(2);
    }
    println!(
        "workload {} seed {} seconds {} cores {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let result = if args.workload.is_training() {
        train(&args)
    } else {
        serve(&args)
    };
    match result {
        Ok(report) => std::process::exit(if report.finish(&END_TO_END, false) {
            0
        } else {
            1
        }),
        Err(e) => {
            eprintln!("evobench: {e}");
            std::process::exit(1);
        }
    }
}

/// Training: campaigns of a fixed size, repeated while the next one still
/// fits in `--seconds`; every metric is a median over campaigns or a
/// deterministic score of the identical rule set they all produce.
fn train(args: &Args) -> BenchResult<Report> {
    let recipe = Recipe::of(args.workload);
    let mut cleanup = Cleanup::default();
    let (loaded, setups) = training::prepare(&recipe, args.seed, &mut cleanup)?;
    let setups: Vec<f64> = setups.iter().map(Duration::as_secs_f64).collect();
    let config = training::config(&recipe, &loaded.train);
    let (windows, targets) = training::holdout_windows(&loaded);

    let mut report = Report::default();
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut throughputs = Vec::new();
    let mut wall_rates = Vec::new();
    let mut p50s = Vec::new();
    let mut p90s = Vec::new();
    let mut p99s = Vec::new();
    let mut first: Option<(u64, (f64, f64))> = None;
    for k in 0.. {
        let checkpoint = training::checkpoint_path(k)?;
        cleanup.add(&checkpoint);
        let campaign = training::run_campaign(&config, &loaded.train, &checkpoint)?;
        let _ = std::fs::remove_file(&checkpoint);
        let (attempts, completed) =
            training::check_campaign(&recipe, &campaign.report, &mut report);
        report.attempted += attempts;
        report.failed += attempts - completed;
        let generations = recipe.total_generations() as f64;
        throughputs.push(generations / campaign.cpu_seconds);
        wall_rates.push(generations / campaign.elapsed.as_secs_f64());

        let mut predictions = Vec::with_capacity(windows.len());
        let mut latencies = Vec::with_capacity(windows.len());
        for w in &windows {
            let (p, t) = timed(|| campaign.predictor.predict(black_box(w)));
            latencies.push(us(t));
            predictions.push(p);
        }
        p50s.push(median(&latencies));
        p90s.push(quantile(&latencies, 0.9));
        p99s.push(quantile(&latencies, 0.99));
        let digest = rules_digest(&campaign.predictor)?;
        let quality = score(&predictions, &targets);
        match first {
            None => {
                println!(
                    "rules_digest {digest:016x} rules {} executions {} checkpoint_bytes {}",
                    campaign.predictor.len(),
                    campaign.report.executions,
                    campaign.checkpoint_bytes
                );
                first = Some((digest, quality));
            }
            Some((d, q)) => {
                report.check(d == digest, || {
                    format!("campaign {k} rules digest {digest:016x} != {d:016x}")
                });
                report.check(q.0.to_bits() == quality.0.to_bits(), || {
                    format!("campaign {k} hold-out RMSE {} != {}", quality.0, q.0)
                });
            }
        }
        if start.elapsed() + campaign.elapsed > budget {
            break;
        }
    }
    let (_, (rmse, coverage)) = first.expect("at least one campaign ran");
    let round = |xs: &[f64]| xs.iter().map(|x| x.round()).collect::<Vec<_>>();
    println!(
        "campaigns {}: generations per CPU-second {:?}, per wall-second {:?}",
        throughputs.len(),
        round(&throughputs),
        round(&wall_rates)
    );
    println!(
        "forecast latency: {} windows per campaign; p99 {:.3} us (median over campaigns)",
        windows.len(),
        median(&p99s)
    );
    report.set("setup_s", median(&setups), setups.len());
    report.set("throughput_per_s", median(&throughputs), throughputs.len());
    report.set("p50_us", median(&p50s), p50s.len());
    report.set("p90_us", median(&p90s), p90s.len());
    report.set("rmse_cm", rmse, windows.len());
    report.set("coverage_pct", coverage, windows.len());
    let ok = (report.attempted - report.failed) as f64 / report.attempted.max(1) as f64;
    report.set("ok_ratio", ok, report.attempted as usize);
    report.set("rss_peak_mb", rss_peak_mb(), 1);
    Ok(report)
}

/// Serving: set the server up [`SETUP_REPEATS`] times (the last one serves),
/// then drive it closed-loop for `--seconds`.
fn serve(args: &Args) -> BenchResult<Report> {
    let batch = if args.workload == Workload::ServeBatch {
        serving::BATCH
    } else {
        1
    };
    let mut cleanup = Cleanup::default();
    let artifact = evobench::scratch_file("model", "json").map_err(err("scratch dir"))?;
    cleanup.add(&artifact);
    let digest = serving::train_model(&artifact)?;
    let model = TrainedModel::load_json_file(&artifact).map_err(err("load artifact"))?;
    println!(
        "served model rules_digest {digest:016x} rules {}",
        model.predictor.len()
    );
    let set = serving::request_set(args.seed, batch, &model.predictor)?;
    let warmup_per_client = (set.requests.len() / serving::CLIENTS).clamp(1, 256);

    let mut report = Report::default();
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut warmup = Load::default();
    let mut server = None;
    for i in 0..SETUP_REPEATS {
        let start = Instant::now();
        let s = serving::start_server(&artifact)?;
        let w = Phase {
            addr: s.local_addr(),
            set: &set,
            stop: Stop::Requests(warmup_per_client),
            reload: None,
            traced: false,
            version: 1,
        }
        .run();
        setups.push(start.elapsed().as_secs_f64());
        serving::report_violations(&w, &mut report);
        warmup.absorb(w);
        if i + 1 < SETUP_REPEATS {
            s.shutdown();
        } else {
            server = Some(s);
        }
    }
    let server = server.expect("SETUP_REPEATS >= 1");

    let cpu_start = process_cpu_seconds();
    let load = Phase {
        addr: server.local_addr(),
        set: &set,
        stop: Stop::Deadline(Instant::now() + Duration::from_secs_f64(args.seconds)),
        reload: (args.workload == Workload::ServeBatch).then_some(artifact.as_path()),
        traced: false,
        version: 1,
    }
    .run();
    let cpu_seconds = process_cpu_seconds() - cpu_start;
    let counters = server.stats().snapshot();
    server.shutdown();
    serving::report_violations(&load, &mut report);

    println!(
        "warmup sent {} succeeded {} failed {}",
        warmup.sent, warmup.succeeded, warmup.failed
    );
    println!(
        "measured sent {} succeeded {} failed {} reloads {} server_shed {} server_errors {}",
        load.sent, load.succeeded, load.failed, load.reloads, counters.shed, counters.errors
    );
    let sliced = serving::sliced(&load);
    println!(
        "latency: {} slices of {:?}, at least {} requests each; p99 {:.1} us; \
         windows per wall-second {:.0}",
        sliced.slices,
        serving::SLICE,
        sliced.min_samples,
        sliced.p99_us,
        sliced.throughput
    );
    let (rmse, coverage) = serving::served_quality(&set, &load);
    report.attempted = load.sent;
    report.failed = load.failed;
    report.set("setup_s", median(&setups), setups.len());
    report.set(
        "throughput_per_s",
        load.windows as f64 / cpu_seconds,
        load.succeeded as usize,
    );
    report.set("p50_us", sliced.p50_us, sliced.slices);
    report.set("p90_us", sliced.p90_us, sliced.slices);
    report.set("rmse_cm", rmse, set.windows.len());
    report.set("coverage_pct", coverage, set.windows.len());
    report.set(
        "ok_ratio",
        load.succeeded as f64 / load.sent.max(1) as f64,
        load.sent as usize,
    );
    report.set("rss_peak_mb", rss_peak_mb(), 1);
    Ok(report)
}
