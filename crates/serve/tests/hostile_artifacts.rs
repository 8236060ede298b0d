//! Truncated and byte-substituted artifacts: a real trained model and a
//! real checkpoint are cut at a byte stride and at every byte of their first
//! and last 64, and have single bytes replaced by a digit, a quote and a
//! brace at evenly spaced offsets. Every variant goes through each loader an
//! operator can reach — the model loader, the checkpoint loader followed by a
//! resumed run, and a registry reload. Each must return a typed error or a
//! usable model, never panic.

use evoforecast_core::checkpoint::{CheckpointError, EnsembleCheckpoint};
use evoforecast_core::prelude::{
    EngineConfig, EnsembleConfig, EvoError, ModelMetadata, Supervisor, TrainedModel,
};
use evoforecast_serve::registry::ModelRegistry;
use evoforecast_serve::ArtifactKind;
use evoforecast_tsdata::gen::waves::noisy_sine;
use evoforecast_tsdata::window::WindowSpec;
use std::collections::BTreeSet;
use std::fs;
use std::time::{Duration, Instant};

/// About a hundred evenly spaced cuts, plus every cut within 64 bytes of
/// either end, the full length included.
fn prefix_lengths(len: usize) -> BTreeSet<usize> {
    let mut cuts: BTreeSet<usize> = (0..len).step_by((len / 100).max(1)).collect();
    cuts.extend(0..len.min(64));
    cuts.extend(len.saturating_sub(64)..=len);
    cuts
}

/// Every prefix of [`prefix_lengths`], then, at about a hundred evenly
/// spaced offsets, the whole file with that one byte replaced by `7`, `"`
/// and `}` (a substitution that leaves the byte unchanged is skipped).
fn variants(bytes: &[u8]) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = prefix_lengths(bytes.len())
        .into_iter()
        .map(|cut| (format!("cut at {cut}"), bytes[..cut].to_vec()))
        .collect();
    for at in (0..bytes.len()).step_by((bytes.len() / 100).max(1)) {
        for with in [b'7', b'"', b'}'] {
            if bytes[at] != with {
                let mut v = bytes.to_vec();
                v[at] = with;
                out.push((format!("{:?} at {at}", with as char), v));
            }
        }
    }
    out
}

#[test]
fn corrupted_models_and_checkpoints_are_refused_or_valid_never_a_panic() {
    let dir = std::env::temp_dir().join(format!("evoforecast_hostile_{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let series = noisy_sine(800, 25.0, 10.0, 1.0, 3);
    let train = series.values();
    let spec = WindowSpec::new(6, 1).unwrap();
    let window = &train[..spec.window()];
    let engine = EngineConfig::for_series(train, spec)
        .with_population(30)
        .with_generations(1_500)
        .with_seed(11);
    let supervisor = Supervisor::new(EnsembleConfig::new(engine).with_max_executions(4)).unwrap();
    let checkpoint = dir.join("campaign.json");
    let (predictor, _) = supervisor.run_resumable(train, &checkpoint).unwrap();
    assert!(!predictor.is_empty());
    let model_path = dir.join("model.json");
    TrainedModel::new(spec, predictor, ModelMetadata::default())
        .save_json_file(&model_path)
        .unwrap();
    let model_bytes = fs::read(&model_path).unwrap();
    let checkpoint_bytes = fs::read(&checkpoint).unwrap();

    let started = Instant::now();
    let registry = ModelRegistry::new();
    let artifact = dir.join("artifact.json");
    let mut loaded_models = 0;
    for (what, bytes) in variants(&model_bytes) {
        let loaded = TrainedModel::load_json(bytes.as_slice());
        if let Ok(model) = &loaded {
            model.predictor.predict(window);
            loaded_models += 1;
        }
        fs::write(&artifact, &bytes).unwrap();
        let reloaded = registry.reload("default", &artifact, ArtifactKind::Model);
        assert_eq!(loaded.is_ok(), reloaded.is_ok(), "model {what}");
    }
    assert!(loaded_models >= 1, "the untruncated model must load");

    let resumed = dir.join("resumed.json");
    let mut loaded_checkpoints = 0;
    for (what, bytes) in variants(&checkpoint_bytes) {
        fs::write(&resumed, &bytes).unwrap();
        let loaded = EnsembleCheckpoint::load(&resumed).is_ok();
        let run = supervisor.run_resumable(train, &resumed);
        match &run {
            Ok((predictor, _)) if loaded => {
                predictor.predict(window);
                loaded_checkpoints += 1;
            }
            // A variant that loads can still be refused by the resume's own
            // checks: a digit changed the fingerprint or the window count.
            Err(EvoError::Checkpoint(
                CheckpointError::FingerprintMismatch { .. }
                | CheckpointError::UniverseMismatch { .. },
            )) if loaded => {}
            Err(EvoError::Checkpoint(_)) if !loaded => {}
            _ => panic!("checkpoint {what} (loads: {loaded}): {run:?}"),
        }
    }
    assert!(
        loaded_checkpoints >= 1,
        "the untruncated checkpoint must load"
    );
    if !cfg!(debug_assertions) {
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "sweep took {:?}",
            started.elapsed()
        );
    }
    fs::remove_dir_all(&dir).ok();
}
