//! Truncated, byte-substituted and spliced artifacts: a real trained model
//! and a real checkpoint are cut at a byte stride and at every byte of their
//! first and last 64, have single bytes replaced by a digit, a quote and a
//! brace at evenly spaced offsets, and have whole values moved between
//! rules. Every variant goes through each loader an operator can reach — the
//! model loader, the checkpoint loader followed by a resumed run, and a
//! registry reload. Each must return a typed error or a usable model, never
//! panic.

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
use std::ops::Range;
use std::time::{Duration, Instant};

/// About a hundred evenly spaced cuts, plus every cut within 64 bytes of
/// either end, the full length included.
fn prefix_lengths(len: usize) -> BTreeSet<usize> {
    let mut cuts: BTreeSet<usize> = (0..len).step_by((len / 100).max(1)).collect();
    cuts.extend(0..len.min(64));
    cuts.extend(len.saturating_sub(64)..=len);
    cuts
}

/// The end of the JSON value that starts at byte `start`. Rule values hold
/// no string with a bracket in it, so counting brackets is enough; a scalar
/// (the `"Wildcard"` gene) ends at the next delimiter.
fn value_end(text: &str, start: usize) -> usize {
    let mut depth = 0usize;
    for (k, b) in text.bytes().enumerate().skip(start) {
        match b {
            b']' | b'}' | b',' if depth == 0 => return k,
            b'[' | b'{' => depth += 1,
            b']' | b'}' => {
                depth -= 1;
                if depth == 0 {
                    return k + 1;
                }
            }
            _ => {}
        }
    }
    text.len()
}

/// The value of the first `key` at or after byte `from`.
fn value_after(text: &str, key: &str, from: usize) -> Range<usize> {
    let at = from + text[from..].find(key).unwrap() + key.len();
    let start = at + text[at..].find(|c: char| !c.is_whitespace()).unwrap();
    start..value_end(text, start)
}

/// One rule's spliceable values: its `condition`, its `coefficients` and
/// the genes inside its condition.
struct RuleValues {
    condition: Range<usize>,
    coefficients: Range<usize>,
    genes: Vec<Range<usize>>,
}

fn rule_values(text: &str) -> Vec<RuleValues> {
    text.match_indices("\"condition\":")
        .map(|(at, _)| {
            let condition = value_after(text, "\"condition\":", at);
            let list = value_after(text, "\"genes\":", condition.start);
            let mut genes = Vec::new();
            let mut next = list.start + 1;
            while let Some(skip) = text[next..list.end - 1].find(|c: char| !", \n".contains(c)) {
                let gene = next + skip..value_end(text, next + skip);
                next = gene.end;
                genes.push(gene);
            }
            RuleValues {
                coefficients: value_after(text, "\"coefficients\":", condition.end),
                condition,
                genes,
            }
        })
        .collect()
}

/// `text` with each range replaced by its text (the ranges must not
/// overlap).
fn edit(text: &str, mut edits: Vec<(Range<usize>, String)>) -> Vec<u8> {
    edits.sort_by_key(|(r, _)| std::cmp::Reverse(r.start));
    let mut out = text.to_string();
    for (range, with) in edits {
        out.replace_range(range, &with);
    }
    out.into_bytes()
}

/// Whole values moved from one rule to another, for three (source, target)
/// rule pairs: the source's `coefficients`, `condition` and first gene each
/// written over the target's `coefficients`, `condition` and first gene (nine
/// splices, some of them well-typed), and the source's first gene cut out
/// and put in front of the target's genes, which leaves both rules with a
/// gene count their coefficients do not match.
fn splices(bytes: &[u8]) -> Vec<(String, Vec<u8>)> {
    let text = std::str::from_utf8(bytes).unwrap();
    let rules = rule_values(text);
    let last = rules.len() - 1;
    assert!(last >= 2, "test premise: at least three rules");
    assert!(rules.iter().all(|r| r.genes.len() >= 2));
    let mut out = Vec::new();
    for (from, to) in [(0, 1), (last, 0), (last / 2, last)] {
        let (src, dst) = (&rules[from], &rules[to]);
        let kinds = |r: &RuleValues| {
            [
                ("coefficients", r.coefficients.clone()),
                ("condition", r.condition.clone()),
                ("gene 0", r.genes[0].clone()),
            ]
        };
        for (src_kind, src_range) in kinds(src) {
            for (dst_kind, dst_range) in kinds(dst) {
                out.push((
                    format!("rule {from}'s {src_kind} over rule {to}'s {dst_kind}"),
                    edit(text, vec![(dst_range, text[src_range.clone()].to_string())]),
                ));
            }
        }
        let gene = &text[src.genes[0].clone()];
        out.push((
            format!("rule {from}'s gene 0 moved to rule {to}"),
            edit(
                text,
                vec![
                    (src.genes[0].start..src.genes[1].start, String::new()),
                    (dst.genes[0].start..dst.genes[0].start, format!("{gene}, ")),
                ],
            ),
        ));
    }
    out
}

/// Every prefix of [`prefix_lengths`]; then, at about a hundred evenly
/// spaced offsets, the whole file with that one byte replaced by `7`, `"`
/// and `}` (a substitution that leaves the byte unchanged is skipped); then
/// the [`splices`].
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
    out.extend(splices(bytes));
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
    let (mut spliced_loaded, mut spliced_misfits) = (0, 0);
    for (what, bytes) in variants(&model_bytes) {
        let loaded = TrainedModel::load_json(bytes.as_slice());
        if let Ok(model) = &loaded {
            model.predictor.predict(window);
            loaded_models += 1;
        }
        fs::write(&artifact, &bytes).unwrap();
        let reloaded = registry.reload("default", &artifact, ArtifactKind::Model);
        assert_eq!(loaded.is_ok(), reloaded.is_ok(), "model {what}");
        if what.starts_with("rule ") {
            match &loaded {
                Ok(_) => spliced_loaded += 1,
                Err(e) if e.to_string().contains("coefficients under a") => spliced_misfits += 1,
                Err(_) => {}
            }
        }
    }
    assert!(loaded_models >= 1, "the untruncated model must load");
    // Splices reach both sides of the shape check, not only the parser.
    assert!(spliced_loaded >= 1 && spliced_misfits >= 1);

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
