//! Pure-computation kernel tests shaped to run under Miri (CI runs
//! `cargo +nightly miri test -p evoforecast-core --test kernels_miri`).
//!
//! Everything here is small and deterministic: Miri interprets every
//! instruction, so these tests trade breadth for being cheap enough to
//! retire undefined-behavior risk in the word-twiddling kernels — the
//! bitset, the compiled predictor's segment index and bitset AND (checked
//! against the §3.4 oracle in `common/`), the packed Gram kernel's tile
//! indexing, and the checkpoint byte round-trip (the one test that touches
//! the filesystem; the CI job sets `MIRIFLAGS=-Zmiri-disable-isolation` for
//! it).

mod common;

use evoforecast_core::checkpoint::{
    fingerprint_json, EnsembleCheckpoint, ExecutionOutcome, OutcomeStatus, CHECKPOINT_VERSION,
};
use evoforecast_core::prelude::*;
use evoforecast_core::{CompiledRuleSet, MatchBitset};
use evoforecast_linalg::regression::{NormalEqAccumulator, RowPack};

/// Tiny deterministic generator so the patterns exercise word boundaries
/// without depending on any ambient entropy.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }

    fn chance(&mut self, one_in: u64) -> bool {
        self.next().is_multiple_of(one_in)
    }
}

#[test]
fn bitset_ops_match_a_naive_model() {
    // 131 bits: two full words plus a ragged tail word.
    const LEN: usize = 131;
    let mut rng = Lcg(0x5eed);
    let mut bits = MatchBitset::new(LEN);
    let mut model = [false; LEN];
    for (i, slot) in model.iter_mut().enumerate() {
        if rng.chance(3) {
            bits.set(i);
            *slot = true;
        }
    }
    for (i, &m) in model.iter().enumerate() {
        assert_eq!(bits.contains(i), m, "bit {i}");
    }
    assert_eq!(bits.count_ones(), model.iter().filter(|&&b| b).count());
    assert_eq!(
        bits.iter_ones().collect::<Vec<_>>(),
        (0..LEN).filter(|&i| model[i]).collect::<Vec<_>>()
    );

    let mut other = MatchBitset::new(LEN);
    let mut other_model = [false; LEN];
    for (i, slot) in other_model.iter_mut().enumerate() {
        if rng.chance(4) {
            other.set(i);
            *slot = true;
        }
    }

    let mut union = MatchBitset::new(LEN);
    union.copy_from(&bits);
    union.union_with(&other);
    for i in 0..LEN {
        assert_eq!(
            union.contains(i),
            model[i] || other_model[i],
            "union bit {i}"
        );
    }

    let mut inter = MatchBitset::new(LEN);
    inter.copy_from(&bits);
    inter.intersect_with(&other);
    for i in 0..LEN {
        assert_eq!(
            inter.contains(i),
            model[i] && other_model[i],
            "inter bit {i}"
        );
    }
    assert!(inter.is_subset_of(&bits));
    assert!(inter.is_subset_of(&other));

    let mut full = MatchBitset::new(LEN);
    full.fill_all();
    assert!(full.all_set());
    assert_eq!(full.count_ones(), LEN, "ragged tail word must stay masked");
}

#[test]
fn compiled_predictor_is_bitwise_identical_to_the_oracle() {
    let rules = vec![
        Rule {
            condition: Condition::new(vec![Gene::bounded(0.0, 5.0), Gene::Wildcard]),
            coefficients: vec![0.5, -0.25],
            intercept: 1.0,
            prediction: 2.0,
            error: 0.2,
            matched: 7,
        },
        Rule {
            condition: Condition::new(vec![Gene::Wildcard, Gene::bounded(-1.0, 3.0)]),
            coefficients: vec![-1.5, 2.0],
            intercept: 0.25,
            prediction: 1.0,
            error: 0.05,
            matched: 4,
        },
        Rule {
            condition: Condition::new(vec![Gene::bounded(4.0, 9.0), Gene::bounded(4.0, 9.0)]),
            coefficients: vec![0.0, 1.0],
            intercept: -0.5,
            prediction: 6.0,
            error: 0.4,
            matched: 3,
        },
    ];
    let predictor = RuleSetPredictor::new(rules);
    let compiled = CompiledRuleSet::compile(&predictor);
    let mut scratch = compiled.scratch();

    let mut rng = Lcg(0xfeed);
    for _ in 0..48 {
        let window = [
            (rng.next() % 1000) as f64 / 100.0 - 1.0,
            (rng.next() % 1000) as f64 / 100.0 - 2.0,
        ];
        common::assert_matches_oracle(&predictor, &window);
        for combination in [Combination::Mean, Combination::InverseErrorWeighted] {
            assert_eq!(
                common::bits(compiled.predict_with_into(&window, combination, &mut scratch)),
                common::bits(common::predict_with(
                    predictor.rules(),
                    &window,
                    combination
                )),
                "{combination:?} at {window:?}"
            );
        }
    }
}

#[test]
fn checkpoint_round_trips_through_disk_bit_exactly() {
    let cp = EnsembleCheckpoint {
        version: CHECKPOINT_VERSION,
        config_fingerprint: 0xdead_beef_cafe,
        executions_done: 2,
        outcomes: vec![
            ExecutionOutcome {
                execution: 0,
                seed: 41,
                attempts: 1,
                rules: 1,
                status: OutcomeStatus::Completed,
            },
            ExecutionOutcome {
                execution: 1,
                seed: 99,
                attempts: 3,
                rules: 0,
                status: OutcomeStatus::Failed,
            },
        ],
        rules: vec![Rule {
            condition: Condition::new(vec![Gene::bounded(0.125, 0.75), Gene::Wildcard]),
            coefficients: vec![0.1, -0.2],
            intercept: 0.3,
            prediction: 0.4,
            error: 0.01,
            matched: 11,
        }],
        coverage_len: 70,
    };

    let path = std::env::temp_dir().join(format!(
        "evoforecast-kernels-miri-{}.json",
        std::process::id()
    ));
    cp.save(&path).expect("save checkpoint");
    let loaded = EnsembleCheckpoint::load(&path).expect("load checkpoint");
    std::fs::remove_file(&path).ok();

    assert_eq!(loaded, cp, "checkpoint must round-trip field-exact");
    loaded
        .validate(0xdead_beef_cafe, 70)
        .expect("fingerprint + length validate");
}

#[test]
fn fingerprints_are_stable_across_calls_and_inputs_distinct() {
    let a = fingerprint_json("{\"x\":1}");
    assert_eq!(a, fingerprint_json("{\"x\":1}"), "same input, same hash");
    assert_ne!(
        a,
        fingerprint_json("{\"x\":2}"),
        "different input, different hash"
    );

    let series: Vec<f64> = (0..40).map(|i| (i as f64 * 0.3).sin()).collect();
    let spec = evoforecast_tsdata::window::WindowSpec::new(3, 1).expect("spec");
    let config = EnsembleConfig::new(EngineConfig::for_series(&series, spec));
    assert_eq!(config.fingerprint(), config.fingerprint());
}

#[test]
fn packed_gram_kernel_matches_rank_one_updates_bit_for_bit() {
    // d = 5 with an intercept: 6 columns + y pad to a stride of 8, so the
    // tiles include a diagonal one, an Xᵀy column and padding. 520 rows
    // cross the 512-row block boundary; every fifth value is an exact zero
    // of either sign.
    let mut rng = Lcg(0x6a4d);
    let value = |rng: &mut Lcg| match rng.next() % 10 {
        0 => 0.0,
        1 => -0.0,
        k => (k as f64 - 5.5) * (rng.next() >> 40) as f64 * 1e-3,
    };
    let rows: Vec<(Vec<f64>, f64)> = (0..520)
        .map(|_| ((0..5).map(|_| value(&mut rng)).collect(), value(&mut rng)))
        .collect();
    for intercept in [true, false] {
        let mut oracle = NormalEqAccumulator::new(5, intercept);
        for (x, y) in &rows {
            oracle.push_row(x, *y);
        }
        let mut packed = NormalEqAccumulator::new(5, intercept);
        packed.push_rows(
            &mut RowPack::new(),
            rows.iter().map(|(x, y)| (x.as_slice(), *y)),
        );
        assert_eq!(packed.count(), oracle.count());
        assert_eq!(
            packed.sum_targets().to_bits(),
            oracle.sum_targets().to_bits()
        );
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(packed.gram()), bits(oracle.gram()), "Gram");
        assert_eq!(bits(packed.xty()), bits(oracle.xty()), "Xᵀy");
    }
}
