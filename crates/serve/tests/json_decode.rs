//! The one-pass JSON decoder behind `serde_json::from_str`, pinned on the
//! wire types: floats decode bit-identically to `str::parse`, integer
//! literals keep their class at the 64-bit boundaries, derived structs keep
//! their key semantics, and hostile bytes give `Ok` or `Err`, never a panic.

use evoforecast_core::model::{ModelMetadata, TrainedModel};
use evoforecast_core::predict::RuleSetPredictor;
use evoforecast_core::rule::{Condition, Gene, Rule};
use evoforecast_serve::{ForecastRequest, WindowDetail};
use evoforecast_tsdata::window::WindowSpec;
use proptest::prelude::*;
use serde::Value;

/// What a number literal decodes to as `f64`: integer literals go through
/// their integer class (so `-0` is `+0.0`), everything else is exactly
/// `str::parse`.
fn expected_f64(text: &str) -> f64 {
    if !text.contains(['.', 'e', 'E']) {
        if let Ok(n) = text.parse::<i64>() {
            return n as f64;
        }
        if let Ok(n) = text.parse::<u64>() {
            return n as f64;
        }
    }
    text.parse().unwrap()
}

fn digits(ds: &[u8]) -> String {
    ds.iter().map(|d| char::from(b'0' + d)).collect()
}

fn sample_model() -> TrainedModel {
    let rules = (0..3)
        .map(|k| Rule {
            condition: Condition::new(vec![
                Gene::bounded(-1.5 * f64::from(k), 2.25),
                Gene::Wildcard,
            ]),
            coefficients: vec![0.1 + f64::from(k), -3.0e-7],
            intercept: 1.0 / 3.0,
            prediction: 12.5,
            error: 0.125,
            matched: 7,
        })
        .collect();
    TrainedModel::new(
        WindowSpec::new(2, 1).unwrap(),
        RuleSetPredictor::new(rules),
        ModelMetadata {
            series_name: "venice \"lagoon\"".to_string(),
            train_points: 6000,
            seed: u64::MAX,
            executions: 4,
            training_coverage: 0.93,
        },
    )
}

fn sample_request() -> String {
    serde_json::to_string(&ForecastRequest {
        model: "venice".to_string(),
        windows: vec![vec![59.195322752913036, -0.0, 1e-7], vec![73.2460215638479]],
        horizon: 2,
        combination: Default::default(),
        detail: true,
        engine: Default::default(),
    })
    .unwrap()
}

/// `text` with its byte `at` replaced by one of the characters JSON gives
/// meaning to.
fn corrupt(text: &str, at: usize, pick: usize) -> String {
    const JSON_BYTES: &[u8] = b"{}[]:,\"\\-+.eE0n1 tf";
    let mut bytes = text.as_bytes().to_vec();
    let at = at % bytes.len();
    bytes[at] = JSON_BYTES[pick % JSON_BYTES.len()];
    String::from_utf8(bytes).unwrap()
}

#[test]
fn derived_structs_keep_their_key_semantics() {
    // Unknown keys (of any shape) are ignored; missing fields take their
    // defaults.
    let req: ForecastRequest = serde_json::from_str(
        r#"{"extra": {"a": [1, {"b": null}]}, "windows": [[1.0, 2]], "x": "y"}"#,
    )
    .unwrap();
    assert_eq!(req.model, "default");
    assert_eq!(req.horizon, 1);
    assert_eq!(req.windows, vec![vec![1.0, 2.0]]);

    // The first of duplicate keys wins; later ones must still be valid JSON.
    let req: ForecastRequest =
        serde_json::from_str(r#"{"horizon": 3, "horizon": "ignored", "windows": []}"#).unwrap();
    assert_eq!(req.horizon, 3);
    assert!(serde_json::from_str::<ForecastRequest>(r#"{"horizon": 3, "horizon": [}"#).is_err());

    // A missing field without a default is an error.
    assert!(serde_json::from_str::<WindowDetail>(r#"{"firing_rules": 2}"#).is_err());
    let detail: WindowDetail =
        serde_json::from_str(r#"{"expected_error": 0.5, "firing_rules": 2}"#).unwrap();
    assert_eq!(detail.firing_rules, 2);

    // Escaped keys still match.
    let detail: WindowDetail =
        serde_json::from_str(r#"{"expected_error": 0.5, "firing\u005frules": 3}"#).unwrap();
    assert_eq!(detail.firing_rules, 3);

    // Trailing characters are an error.
    assert!(serde_json::from_str::<ForecastRequest>(r#"{"windows": []} x"#).is_err());
    assert!(serde_json::from_str::<ForecastRequest>(r#"{"windows": []}  "#).is_ok());
}

#[test]
fn artifacts_round_trip_to_equal_values() {
    let model = sample_model();
    for text in [
        serde_json::to_string(&model).unwrap(),
        serde_json::to_string_pretty(&model).unwrap(),
    ] {
        let back: TrainedModel = serde_json::from_str(&text).unwrap();
        assert_eq!(back, model);
        assert_eq!(
            serde_json::to_string(&back).unwrap(),
            serde_json::to_string(&model).unwrap()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn finite_f64_round_trips_bit_for_bit(hi in 0u64..1 << 32, lo in 0u64..1 << 32) {
        let x = f64::from_bits(hi << 32 | lo);
        prop_assume!(x.is_finite());
        let text = serde_json::to_string(&x).unwrap();
        let back: f64 = serde_json::from_str(&text).unwrap();
        prop_assert_eq!(back.to_bits(), x.to_bits(), "through {}", text);
    }

    #[test]
    fn decimal_literals_decode_like_str_parse(
        negative in 0u8..2,
        ds in proptest::collection::vec(0u8..10, 1..=25),
        split in 0usize..26,
        has_fraction in 0u8..2,
        exponent in proptest::option::of(-330i32..330),
    ) {
        let split = split.min(ds.len() - 1) + 1;
        let mut text = String::from(if negative == 1 { "-" } else { "" });
        text.push_str(&digits(&ds[..split]));
        if has_fraction == 1 && split < ds.len() {
            text.push('.');
            text.push_str(&digits(&ds[split..]));
        }
        if let Some(e) = exponent {
            text.push_str(&format!("e{e}"));
        }
        let got: f64 = serde_json::from_str(&text).unwrap();
        prop_assert_eq!(got.to_bits(), expected_f64(&text).to_bits(), "for {}", text);
        let in_array: Vec<f64> = serde_json::from_str(&format!("[{text}, {text}]")).unwrap();
        prop_assert_eq!(in_array[1].to_bits(), got.to_bits());
    }

    #[test]
    fn integer_literals_keep_their_class_at_the_boundaries(
        boundary in 0usize..4,
        offset in -300i64..300,
    ) {
        let base = [0, i128::from(i64::MIN), i128::from(i64::MAX), i128::from(u64::MAX)][boundary];
        let n = base + i128::from(offset);
        let text = n.to_string();
        let want = if let Ok(u) = u64::try_from(n) {
            Value::U64(u)
        } else if let Ok(i) = i64::try_from(n) {
            Value::I64(i)
        } else {
            Value::F64(text.parse().unwrap())
        };
        prop_assert_eq!(serde_json::from_str::<Value>(&text).unwrap(), want);
        prop_assert_eq!(serde_json::from_str::<u64>(&text).ok(), u64::try_from(n).ok());
        prop_assert_eq!(serde_json::from_str::<i64>(&text).ok(), i64::try_from(n).ok());
    }

    #[test]
    fn random_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..64)) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = serde_json::from_str::<ForecastRequest>(&text);
        let _ = serde_json::from_str::<TrainedModel>(&text);
        let _ = serde_json::from_str::<Value>(&text);
    }

    #[test]
    fn truncated_and_corrupted_documents_never_panic(
        cut in 0usize..4096,
        at in 0usize..4096,
        pick in 0usize..64,
    ) {
        let model = serde_json::to_string_pretty(&sample_model()).unwrap();
        for text in [sample_request(), model] {
            let truncated = &text[..cut % text.len()];
            prop_assert!(serde_json::from_str::<ForecastRequest>(truncated).is_err());
            prop_assert!(serde_json::from_str::<TrainedModel>(truncated).is_err());
            let corrupted = corrupt(&text, at, pick);
            let _ = serde_json::from_str::<ForecastRequest>(&corrupted);
            let _ = serde_json::from_str::<TrainedModel>(&corrupted);
        }
    }
}
