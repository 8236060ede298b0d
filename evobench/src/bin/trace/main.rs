//! `evobench-trace`: the traced run of a workload. Times calls into each
//! layer's public functions from the benchmark's own code and prints every
//! per-layer metric with its sample count. End-to-end numbers come from the
//! untraced `evobench` binary; this run reports how much its own timers
//! slow the traced work (`trace.overhead_pct`).
//!
//! ```text
//! evobench-trace --workload <name> --seed <n> --seconds <s> --trace 1
//! ```

mod kernels;
mod requests;

use evobench::cli::{Args, Workload};
use evobench::report::{Report, PER_LAYER};
use evobench::serving::{self, Load, Phase, Stop};
use evobench::stats::{mean, median, ms, ns, quantile, timed, us};
use evobench::training::{self, Recipe};
use evobench::{err, BenchResult, Cleanup};
use evoforecast_core::checkpoint::EnsembleCheckpoint;
use evoforecast_core::dataset::ColumnStore;
use evoforecast_core::engine::Engine;
use evoforecast_core::model::TrainedModel;
use evoforecast_core::supervisor::execution_seed;
use evoforecast_core::CompiledRuleSet;
use evoforecast_serve::protocol::ArtifactKind;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Offspring replayed through the kernels at each of the three points.
const REPLAY_OFFSPRING: usize = 400;
/// Requests replayed through the serving stages.
const REPLAY_REQUESTS: usize = 256;
/// Generations per lockstep block of the slot-0 replay.
const STEP_BLOCK: usize = 50;
/// Repeats of the small I/O and compile measurements.
const REPEATS: usize = 9;

fn main() {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("evobench-trace: {e}");
            std::process::exit(2);
        }
    };
    if !args.trace {
        eprintln!("evobench-trace: the untraced run is the evobench binary");
        std::process::exit(2);
    }
    println!(
        "workload {} seed {} seconds {} cores {} (traced)",
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
        Ok(report) => std::process::exit(if report.finish(&PER_LAYER, true) {
            0
        } else {
            1
        }),
        Err(e) => {
            eprintln!("evobench-trace: {e}");
            std::process::exit(1);
        }
    }
}

/// Median of repeated timings of `f`, in milliseconds.
fn median_ms<T>(repeats: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..repeats)
        .map(|_| ms(timed(|| black_box(f())).1))
        .collect();
    median(&samples)
}

fn train(args: &Args) -> BenchResult<Report> {
    let recipe = Recipe::of(args.workload);
    let mut report = Report::default();
    let mut cleanup = Cleanup::default();
    let (loaded, loads) = training::prepare(&recipe, args.seed, &mut cleanup)?;
    let loads: Vec<f64> = loads.into_iter().map(ms).collect();
    report.set("tsdata.load_ms", median(&loads), loads.len());
    let config = training::config(&recipe, &loaded.train);

    // Campaign and I/O.
    let checkpoint = training::checkpoint_path(0)?;
    cleanup.add(&checkpoint);
    let campaign = training::run_campaign(&config, &loaded.train, &checkpoint)?;
    let (attempts, completed) = training::check_campaign(&recipe, &campaign.report, &mut report);
    report.attempted = attempts;
    report.failed = attempts - completed;
    report.set(
        "supervisor.executions",
        campaign.report.executions as f64,
        1,
    );
    report.set(
        "supervisor.retries",
        (attempts - campaign.report.outcomes.len() as u64) as f64,
        1,
    );
    report.set("checkpoint.bytes", campaign.checkpoint_bytes as f64, 1);
    let mut cp = None;
    let load_ms = median_ms(REPEATS, || cp = EnsembleCheckpoint::load(&checkpoint).ok());
    let cp = cp.ok_or("checkpoint does not load back")?;
    report.set("checkpoint.load_ms", load_ms, REPEATS);
    let copy = training::checkpoint_path(1)?;
    cleanup.add(&copy);
    let mut saved = true;
    let save_ms = median_ms(REPEATS, || saved &= cp.save(&copy).is_ok());
    report.check(saved, || "checkpoint does not save".into());
    report.set("checkpoint.save_ms", save_ms, REPEATS);
    report.set(
        "predict.compile_ms",
        median_ms(REPEATS, || CompiledRuleSet::compile(&campaign.predictor)),
        REPEATS,
    );
    let (windows, _) = training::holdout_windows(&loaded);
    let per_window: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let ((), t) = timed(|| {
                for w in &windows {
                    black_box(campaign.predictor.predict(black_box(w)));
                }
            });
            ns(t) / windows.len() as f64
        })
        .collect();
    report.set(
        "predict.holdout_ns_per_window",
        median(&per_window),
        REPEATS,
    );
    println!(
        "rules_digest {:016x}",
        evobench::rules_digest(&campaign.predictor)?
    );

    // Execution slot 0, replayed twice in lockstep blocks of generations:
    // an untraced engine, and a traced one with a timer around every step
    // and the kernel replay at generations 0, G/2 and G. Alternating the
    // blocks exposes both to the same interference from other tenants.
    let engine_config = config
        .engine
        .clone()
        .with_seed(execution_seed(config.engine.seed, 0, 0));
    let generations = engine_config.generations;
    let (untraced, new_untraced) = timed(|| Engine::new(engine_config.clone(), &loaded.train));
    let mut untraced = untraced.map_err(err("engine"))?;
    let (traced, new_traced) = timed(|| Engine::new(engine_config.clone(), &loaded.train));
    let mut traced = traced.map_err(err("engine"))?;
    report.set(
        "engine.new_ms",
        median(&[ms(new_untraced), ms(new_traced)]),
        2,
    );
    let data = training::spec()
        .dataset(&loaded.train)
        .map_err(err("window"))?;
    let columns = ColumnStore::build(&data);
    let mut rng = ChaCha8Rng::seed_from_u64(args.seed ^ 0x7ACE);
    let mut kernels = kernels::KernelSamples::default();
    let mut steps = Vec::with_capacity(generations);
    let (mut untraced_loop, mut traced_loop) = (Duration::ZERO, Duration::ZERO);
    let replay_at = [0, generations / 2, generations];
    for g in (0..=generations).step_by(STEP_BLOCK) {
        if replay_at.iter().any(|&r| (g..g + STEP_BLOCK).contains(&r)) {
            kernels::replay(
                &traced,
                &data,
                &columns,
                &mut rng,
                REPLAY_OFFSPRING,
                &mut kernels,
            );
        }
        let block = STEP_BLOCK.min(generations - g);
        untraced_loop += timed(|| {
            (0..block).for_each(|_| {
                untraced.step();
            })
        })
        .1;
        let start = Instant::now();
        for _ in 0..block {
            let (_, t) = timed(|| traced.step());
            steps.push(us(t));
        }
        traced_loop += start.elapsed();
    }
    report.check(
        traced.population().individuals() == untraced.population().individuals(),
        || "traced and untraced replays of slot 0 evolved different populations".into(),
    );
    let stats = traced.stats();
    report.set(
        "engine.accept_ratio",
        stats.replacements as f64 / stats.generations.max(1) as f64,
        stats.generations,
    );
    let fitness = &traced.config().fitness;
    let pop = traced.population().individuals();
    let viable = pop.iter().filter(|i| !fitness.is_unfit(i.fitness)).count();
    report.set(
        "engine.viable_ratio",
        viable as f64 / pop.len() as f64,
        pop.len(),
    );
    let step_p50 = median(&steps);
    report.set("engine.step_p50_us", step_p50, steps.len());
    report.set("engine.step_p99_us", quantile(&steps, 0.99), steps.len());
    report.set(
        "trace.overhead_pct",
        100.0 * (traced_loop.as_secs_f64() / untraced_loop.as_secs_f64() - 1.0),
        2,
    );

    let k = &kernels;
    let n = k.select_ns.len();
    let stages = [
        ("selection.select_ns", median(&k.select_ns), n),
        ("crossover.uniform_ns", median(&k.uniform_ns), n),
        ("mutation.mutate_ns", median(&k.mutate_ns), n),
        ("mutation.genes_rewritten", mean(&k.genes_rewritten), n),
        ("dataset.refill_ns", median(&k.refill_ns), k.refill_ns.len()),
        (
            "population.copy_gene_ns",
            median(&k.copy_gene_ns),
            k.copy_gene_ns.len(),
        ),
        ("bitset.and_ns", median(&k.and_ns), n),
        ("bitset.matched_rows", mean(&k.matched_rows), n),
        ("parallel.gram_us", median(&k.gram_us), n),
        ("linalg.solve_us", median(&k.solve_us), k.solve_us.len()),
        ("regress.fit_us", median(&k.fit_us), n),
        ("replacement.victim_ns", median(&k.victim_ns), n),
    ];
    for (name, value, samples) in stages {
        report.set(name, value, samples);
    }
    // A live step minus a replayed offspring: what the engine does that the
    // replay cannot see (coverage bookkeeping, swaps, index refills).
    let stage_us = median(&k.offspring_us);
    report.set("engine.unattributed_us", step_p50 - stage_us, steps.len());
    Ok(report)
}

fn serve(args: &Args) -> BenchResult<Report> {
    let batch = if args.workload == Workload::ServeBatch {
        serving::BATCH
    } else {
        1
    };
    let mut report = Report::default();
    let mut cleanup = Cleanup::default();
    let artifact = evobench::scratch_file("model", "json").map_err(err("scratch dir"))?;
    cleanup.add(&artifact);
    serving::train_model(&artifact)?;
    let model = TrainedModel::load_json_file(&artifact).map_err(err("load artifact"))?;
    let set = serving::request_set(args.seed, batch, &model.predictor)?;

    let server = serving::start_server(&artifact)?;
    let phase = |stop, traced| Phase {
        addr: server.local_addr(),
        set: &set,
        stop,
        reload: (args.workload == Workload::ServeBatch).then_some(artifact.as_path()),
        traced,
        version: server
            .registry()
            .get(serving::SLOT)
            .map_or(1, |entry| entry.version),
    };
    let warmup_per_client = (set.requests.len() / serving::CLIENTS).clamp(1, 256);
    let warmup = Phase {
        reload: None,
        ..phase(Stop::Requests(warmup_per_client), false)
    }
    .run();
    // The same load untraced and traced, in quarters ordered plain, traced,
    // traced, plain so that drift over the run cancels in the comparison.
    let quarter = Duration::from_secs_f64(args.seconds / 4.0);
    let mut plain = Load::default();
    let mut traced = Load::default();
    for traced_quarter in [false, true, true, false] {
        let load = phase(Stop::Deadline(Instant::now() + quarter), traced_quarter).run();
        serving::report_violations(&load, &mut report);
        (if traced_quarter {
            &mut traced
        } else {
            &mut plain
        })
        .absorb(load);
    }
    let counters = server.stats().snapshot();
    serving::report_violations(&warmup, &mut report);

    let stages = requests::replay(
        server.registry(),
        &set,
        serving::server_config().max_body_bytes,
        REPLAY_REQUESTS,
        &mut report,
    )
    .map_err(err("request replay"))?;
    let mut reloaded = true;
    let reload_ms = median_ms(REPEATS, || {
        reloaded &= server
            .registry()
            .reload(serving::SLOT, &artifact, ArtifactKind::Model)
            .is_ok();
    });
    report.check(reloaded, || "registry reload failed".into());
    let compile_ms = median_ms(REPEATS, || CompiledRuleSet::compile(&model.predictor));
    server.shutdown();

    report.attempted = plain.sent + traced.sent;
    report.failed = plain.failed + traced.failed;
    report.set("client.warmup_requests", warmup.sent as f64, 1);
    report.set("client.warmup_failed", warmup.failed as f64, 1);
    report.set("client.requests", report.attempted as f64, 1);
    report.set("client.failed", report.failed as f64, 1);
    let span = |i: usize| -> Vec<f64> { traced.spans.iter().map(|s| s[i]).collect() };
    let n = traced.spans.len();
    report.set("client.connect_us", median(&span(0)), n);
    report.set("client.send_us", median(&span(1)), n);
    report.set("client.wait_us", median(&span(2)), n);
    report.set("client.read_us", median(&span(3)), n);
    report.set("server.shed", counters.shed as f64, 1);
    report.set("server.errors", counters.errors as f64, 1);
    report.set("server.abstentions", counters.abstentions as f64, 1);
    let plain_p50 = median(&plain.latencies_us);
    report.set(
        "trace.overhead_pct",
        100.0 * (median(&traced.latencies_us) / plain_p50 - 1.0),
        plain.latencies_us.len() + traced.latencies_us.len(),
    );

    let s = &stages;
    let m = s.read_request_us.len();
    report.set("http.read_request_us", median(&s.read_request_us), m);
    report.set(
        "http.write_response_us",
        median(&s.write_response_us),
        s.write_response_us.len(),
    );
    report.set(
        "protocol.decode_us",
        median(&s.decode_us),
        s.decode_us.len(),
    );
    report.set(
        "protocol.encode_us",
        median(&s.encode_us),
        s.encode_us.len(),
    );
    report.set("registry.get_ns", median(&s.get_ns), s.get_ns.len());
    report.set(
        "compiled.predict_ns",
        median(&s.predict_ns),
        s.predict_ns.len(),
    );
    report.set(
        "compiled.firing_rules_mean",
        mean(&s.firing_rules),
        s.firing_rules.len(),
    );
    report.set("registry.reload_ms", reload_ms, REPEATS);
    report.set("predict.compile_ms", compile_ms, REPEATS);
    // Client p50 minus the replayed stages: accept, queueing and kernel TCP.
    let stage_us = median(&s.read_request_us)
        + median(&s.decode_us)
        + median(&s.get_ns) / 1e3
        + median(&s.predict_ns) * batch as f64 / 1e3
        + median(&s.encode_us)
        + median(&s.write_response_us);
    report.set(
        "server.unattributed_us",
        plain_p50 - stage_us,
        plain.latencies_us.len(),
    );
    println!(
        "warmup sent {} failed {}; measured sent {} failed {}; reloads {}",
        warmup.sent,
        warmup.failed,
        report.attempted,
        report.failed,
        plain.reloads + traced.reloads
    );
    Ok(report)
}
