//! End-to-end CLI tests: generate → train → evaluate → predict → analyze,
//! exercising the whole command surface through `evoforecast_cli::run`.

use evoforecast_cli::{run, CliError};
use std::path::PathBuf;

fn sv(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| s.to_string()).collect()
}

fn run_ok(parts: &[&str]) -> String {
    let mut out = Vec::new();
    run(&sv(parts), &mut out).unwrap_or_else(|e| panic!("command {parts:?} failed: {e}"));
    String::from_utf8(out).unwrap()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("evoforecast_cli_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn full_workflow_on_noisy_sine() {
    let dir = temp_dir("workflow");
    let data = dir.join("sine.csv");
    let model = dir.join("model.json");
    let data_s = data.to_str().unwrap();
    let model_s = model.to_str().unwrap();

    let msg = run_ok(&[
        "generate",
        "--series",
        "noisy-sine",
        "--n",
        "700",
        "--seed",
        "3",
        "--out",
        data_s,
    ]);
    assert!(msg.contains("700 points"));

    let msg = run_ok(&[
        "train",
        "--data",
        data_s,
        "--window",
        "4",
        "--horizon",
        "1",
        "--population",
        "25",
        "--generations",
        "1500",
        "--executions",
        "2",
        "--seed",
        "9",
        "--out",
        model_s,
    ]);
    assert!(msg.contains("trained"));
    assert!(model.exists());

    let msg = run_ok(&[
        "evaluate", "--model", model_s, "--data", data_s, "--from", "500",
    ]);
    assert!(msg.contains("coverage"));
    assert!(msg.contains("evaluated"));

    let msg = run_ok(&["predict", "--model", model_s, "--data", data_s]);
    assert!(
        msg.contains("prediction for t+1") || msg.contains("abstains"),
        "unexpected predict output: {msg}"
    );

    let msg = run_ok(&[
        "analyze", "--model", model_s, "--data", data_s, "--bins", "20",
    ]);
    assert!(msg.contains("rules:"));
    assert!(msg.contains("coverage"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpointed_train_resumes_to_the_same_model_as_a_plain_run() {
    let dir = temp_dir("resume");
    let data = dir.join("sine.csv");
    let plain = dir.join("plain.json");
    let staged = dir.join("staged.json");
    let state = dir.join("state.json");
    let data_s = data.to_str().unwrap();
    run_ok(&[
        "generate",
        "--series",
        "noisy-sine",
        "--n",
        "400",
        "--seed",
        "3",
        "--out",
        data_s,
    ]);
    let train_flags = |out: &str| {
        sv(&[
            "train",
            "--data",
            data_s,
            "--window",
            "3",
            "--horizon",
            "1",
            "--population",
            "15",
            "--generations",
            "400",
            "--executions",
            "2",
            "--seed",
            "6",
            "--out",
            out,
        ])
    };

    // Reference: one uninterrupted run, no supervisor extras.
    let mut buf = Vec::new();
    run(&train_flags(plain.to_str().unwrap()), &mut buf).unwrap();

    // Interrupted run: an already-expired wall-clock budget stops the
    // campaign before the first wave, leaving only a checkpoint.
    let mut argv = train_flags(staged.to_str().unwrap());
    argv.extend(sv(&[
        "--checkpoint",
        state.to_str().unwrap(),
        "--time-budget",
        "0.000001",
    ]));
    let mut buf = Vec::new();
    run(&argv, &mut buf).unwrap();
    let msg = String::from_utf8(buf).unwrap();
    assert!(
        msg.contains("degraded"),
        "expected degradation notice: {msg}"
    );
    assert!(state.exists());

    // Resume with the same flags (sans budget) completes the campaign; the
    // model must be byte-identical to the uninterrupted run's.
    let mut argv = train_flags(staged.to_str().unwrap());
    argv[0] = "resume".to_string();
    argv.extend(sv(&["--checkpoint", state.to_str().unwrap()]));
    let mut buf = Vec::new();
    run(&argv, &mut buf).unwrap();
    assert_eq!(
        std::fs::read_to_string(&plain).unwrap(),
        std::fs::read_to_string(&staged).unwrap(),
        "resumed model must be bit-identical to the uninterrupted run"
    );

    // A resume whose flags don't match the checkpointed run is rejected.
    let mut argv = train_flags(staged.to_str().unwrap());
    argv[0] = "resume".to_string();
    argv.extend(sv(&["--checkpoint", state.to_str().unwrap()]));
    let seed_at = argv.iter().position(|a| a == "--seed").unwrap();
    argv[seed_at + 1] = "7".to_string();
    let mut buf = Vec::new();
    let err = run(&argv, &mut buf).unwrap_err();
    assert!(matches!(err, CliError::Runtime(_)));
    assert!(err.to_string().contains("fingerprint"), "{err}");

    // resume without --checkpoint is a usage error.
    let mut argv = train_flags(staged.to_str().unwrap());
    argv[0] = "resume".to_string();
    let mut buf = Vec::new();
    let err = run(&argv, &mut buf).unwrap_err();
    assert!(matches!(err, CliError::Usage(_)));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn invalid_training_configuration_is_a_config_error() {
    let dir = temp_dir("config_err");
    let data = dir.join("sine.csv");
    let data_s = data.to_str().unwrap();
    run_ok(&[
        "generate", "--series", "sine", "--n", "200", "--out", data_s,
    ]);
    // A negative EMAX fraction survives flag parsing but fails substrate
    // validation: that must classify as Config (exit 2), not Runtime.
    let mut out = Vec::new();
    let err = run(
        &sv(&[
            "train",
            "--data",
            data_s,
            "--window",
            "3",
            "--horizon",
            "1",
            "--emax-frac",
            "-1",
            "--out",
            dir.join("m.json").to_str().unwrap(),
        ]),
        &mut out,
    )
    .unwrap_err();
    assert!(matches!(err, CliError::Config(_)), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn train_rejects_non_finite_csv_cells_with_line_context() {
    let dir = temp_dir("nan_csv");
    let data = dir.join("bad.csv");
    std::fs::write(&data, "1.0\n2.0\nnan\n4.0\n5.0\n6.0\n").unwrap();
    let mut out = Vec::new();
    let err = run(
        &sv(&[
            "train",
            "--data",
            data.to_str().unwrap(),
            "--window",
            "2",
            "--horizon",
            "1",
            "--out",
            dir.join("m.json").to_str().unwrap(),
        ]),
        &mut out,
    )
    .unwrap_err();
    assert!(matches!(err, CliError::Runtime(_)));
    assert!(err.to_string().contains("line 3"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn help_prints_usage() {
    let msg = run_ok(&["help"]);
    assert!(msg.contains("COMMANDS"));
    assert!(msg.contains("generate"));
    assert!(msg.contains("train"));
}

#[test]
fn unknown_command_is_usage_error() {
    let mut out = Vec::new();
    let err = run(&sv(&["frobnicate"]), &mut out).unwrap_err();
    assert!(matches!(err, CliError::Usage(_)));
}

#[test]
fn a_flag_the_command_does_not_accept_is_refused_before_it_runs() {
    let dir = temp_dir("unknown_flag");
    let data = dir.join("v.csv");
    let model = dir.join("m.json");
    let (data_s, model_s) = (data.to_str().unwrap(), model.to_str().unwrap());
    run_ok(&[
        "generate",
        "--series",
        "noisy-sine",
        "--n",
        "300",
        "--out",
        data_s,
    ]);

    let train = |flag: &str| {
        let mut out = Vec::new();
        let argv = [
            "train",
            "--data",
            data_s,
            "--window",
            "4",
            "--horizon",
            "1",
            "--population",
            "10",
            flag,
            "5",
            "--executions",
            "1",
            "--out",
            model_s,
        ];
        run(&sv(&argv), &mut out).unwrap_err()
    };
    // A misspelled --generations, and --generation-budget, which no command accepts.
    for flag in ["--generatons", "--generation-budget"] {
        match train(flag) {
            CliError::Usage(msg) => assert!(msg.contains(flag), "{flag}: {msg}"),
            other => panic!("{flag}: expected a usage error, got {other}"),
        }
    }
    assert!(
        !model.exists(),
        "nothing may be trained on a refused command line"
    );

    let mut out = Vec::new();
    let err = run(
        &sv(&["spectrum", "--data", data_s, "--bins", "3"]),
        &mut out,
    )
    .unwrap_err();
    assert!(
        matches!(err, CliError::Usage(ref msg) if msg.contains("--bins")),
        "{err}"
    );
    assert!(out.is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn generate_rejects_unknown_series_and_zero_n() {
    let dir = temp_dir("gen_errors");
    let out_file = dir.join("x.csv");
    let out_s = out_file.to_str().unwrap();
    let mut out = Vec::new();
    let err = run(
        &sv(&["generate", "--series", "nope", "--n", "10", "--out", out_s]),
        &mut out,
    )
    .unwrap_err();
    assert!(matches!(err, CliError::Usage(_)));
    let err = run(
        &sv(&["generate", "--series", "sine", "--n", "0", "--out", out_s]),
        &mut out,
    )
    .unwrap_err();
    assert!(matches!(err, CliError::Usage(_)));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn train_requires_flags_and_valid_data() {
    let mut out = Vec::new();
    let err = run(&sv(&["train", "--window", "4"]), &mut out).unwrap_err();
    assert!(matches!(err, CliError::Usage(_)));

    let err = run(
        &sv(&[
            "train",
            "--data",
            "/definitely/missing.csv",
            "--window",
            "4",
            "--horizon",
            "1",
            "--out",
            "/tmp/m.json",
        ]),
        &mut out,
    )
    .unwrap_err();
    assert!(matches!(err, CliError::Runtime(_)));
}

#[test]
fn evaluate_validates_from_bound() {
    let dir = temp_dir("eval_bounds");
    let data = dir.join("s.csv");
    let model = dir.join("m.json");
    let data_s = data.to_str().unwrap();
    let model_s = model.to_str().unwrap();
    run_ok(&[
        "generate", "--series", "sine", "--n", "300", "--out", data_s,
    ]);
    run_ok(&[
        "train",
        "--data",
        data_s,
        "--window",
        "3",
        "--horizon",
        "1",
        "--population",
        "15",
        "--generations",
        "300",
        "--executions",
        "1",
        "--out",
        model_s,
    ]);
    let mut out = Vec::new();
    let err = run(
        &sv(&[
            "evaluate", "--model", model_s, "--data", data_s, "--from", "300",
        ]),
        &mut out,
    )
    .unwrap_err();
    assert!(matches!(err, CliError::Usage(_)));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn all_generator_kinds_work() {
    let dir = temp_dir("all_gens");
    for kind in [
        "venice",
        "mackey-glass",
        "sunspot",
        "sine",
        "noisy-sine",
        "ar2",
        "logistic",
        "henon",
        "lorenz",
    ] {
        let f = dir.join(format!("{kind}.csv"));
        let msg = run_ok(&[
            "generate",
            "--series",
            kind,
            "--n",
            "120",
            "--seed",
            "1",
            "--out",
            f.to_str().unwrap(),
        ]);
        assert!(msg.contains("120 points"), "{kind}: {msg}");
        assert!(f.exists());
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn freerun_iterates_or_stops_cleanly() {
    let dir = temp_dir("freerun");
    let data = dir.join("sine.csv");
    let model = dir.join("model.json");
    let data_s = data.to_str().unwrap();
    let model_s = model.to_str().unwrap();
    run_ok(&[
        "generate", "--series", "sine", "--n", "500", "--out", data_s,
    ]);
    run_ok(&[
        "train",
        "--data",
        data_s,
        "--window",
        "4",
        "--horizon",
        "1",
        "--population",
        "25",
        "--generations",
        "2000",
        "--executions",
        "2",
        "--seed",
        "4",
        "--out",
        model_s,
    ]);
    let msg = run_ok(&[
        "freerun", "--model", model_s, "--data", data_s, "--steps", "10",
    ]);
    assert!(
        msg.contains("completed 10 steps") || msg.contains("abstained"),
        "unexpected freerun output: {msg}"
    );

    // A τ > 1 model must be rejected.
    let model2 = dir.join("model2.json");
    let model2_s = model2.to_str().unwrap();
    run_ok(&[
        "train",
        "--data",
        data_s,
        "--window",
        "4",
        "--horizon",
        "3",
        "--population",
        "15",
        "--generations",
        "300",
        "--executions",
        "1",
        "--out",
        model2_s,
    ]);
    let mut out = Vec::new();
    let err = run(
        &sv(&[
            "freerun", "--model", model2_s, "--data", data_s, "--steps", "5",
        ]),
        &mut out,
    )
    .unwrap_err();
    assert!(matches!(err, CliError::Usage(_)));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn experiment_command_runs_committed_spec_shape() {
    let dir = temp_dir("experiment");
    let spec_path = dir.join("exp.json");
    std::fs::write(
        &spec_path,
        r#"{
            "name": "cli-test-exp",
            "series": {"kind": "generated", "generator": "noisy-sine", "n": 500, "seed": 2},
            "split_at": 400,
            "window": 4,
            "horizon": 1,
            "engine": {"population": 15, "generations": 400, "executions": 1,
                       "emax_fraction": 0.15, "seed": 5}
        }"#,
    )
    .unwrap();
    let out_path = dir.join("result.json");
    let msg = run_ok(&[
        "experiment",
        "--config",
        spec_path.to_str().unwrap(),
        "--out",
        out_path.to_str().unwrap(),
    ]);
    assert!(msg.contains("cli-test-exp"));
    assert!(msg.contains("coverage"));
    let saved = std::fs::read_to_string(&out_path).unwrap();
    assert!(saved.contains("\"rules\""));

    // Malformed spec is a usage error.
    std::fs::write(&spec_path, "{nope").unwrap();
    let mut out = Vec::new();
    let err = run(
        &sv(&["experiment", "--config", spec_path.to_str().unwrap()]),
        &mut out,
    )
    .unwrap_err();
    assert!(matches!(err, CliError::Usage(_)));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn spectrum_reports_dominant_period() {
    let dir = temp_dir("spectrum");
    let data = dir.join("sine.csv");
    let data_s = data.to_str().unwrap();
    run_ok(&[
        "generate", "--series", "sine", "--n", "512", "--out", data_s,
    ]);
    let msg = run_ok(&["spectrum", "--data", data_s, "--top", "3"]);
    assert!(msg.contains("spectral lines"));
    // The generator's sine has period 25: the top line should be ~25.
    let first_row = msg
        .lines()
        .find(|l| l.trim_start().starts_with('2'))
        .expect("a period row");
    let period: f64 = first_row
        .split_whitespace()
        .next()
        .unwrap()
        .parse()
        .unwrap();
    assert!((period - 25.0).abs() < 2.0, "dominant period {period}");

    let mut out = Vec::new();
    let err = run(&sv(&["spectrum", "--data", data_s, "--top", "0"]), &mut out).unwrap_err();
    assert!(matches!(err, CliError::Usage(_)));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn strided_training_via_spacing_flag() {
    let dir = temp_dir("spacing");
    let data = dir.join("mg.csv");
    let model = dir.join("mg.json");
    let data_s = data.to_str().unwrap();
    let model_s = model.to_str().unwrap();
    run_ok(&[
        "generate",
        "--series",
        "mackey-glass",
        "--n",
        "600",
        "--out",
        data_s,
    ]);
    let msg = run_ok(&[
        "train",
        "--data",
        data_s,
        "--window",
        "4",
        "--horizon",
        "6",
        "--spacing",
        "6",
        "--population",
        "20",
        "--generations",
        "800",
        "--executions",
        "1",
        "--out",
        model_s,
    ]);
    assert!(msg.contains("trained"));
    let msg = run_ok(&["predict", "--model", model_s, "--data", data_s]);
    assert!(msg.contains("Δ=6") || msg.contains("abstains"), "{msg}");
    std::fs::remove_dir_all(&dir).ok();
}
