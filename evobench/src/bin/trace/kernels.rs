//! Replay of the engine's offspring pipeline through the public kernels, on
//! a snapshot of a live population: select → crossover → mutate → gene
//! refill / gene copy → bitset AND → Gram → solve → fit → victim choice.
//!
//! The replay draws from its own RNG and never writes to the population,
//! so it leaves the engine's run untouched. Gene refills use the columnar
//! sweep (`dataset::fill_gene_bitset`); the engine answers narrow intervals
//! through its sorted-projection index instead, which the replay does not
//! call.

use evobench::stats::{ns, timed, us};
use evoforecast_core::bitset::MatchBitset;
use evoforecast_core::dataset::{fill_gene_bitset, ColumnStore, ExampleSet};
use evoforecast_core::engine::Engine;
use evoforecast_core::parallel::accumulate_from_bitset;
use evoforecast_core::population::GeneBitsets;
use evoforecast_core::regress::{fit_from_accumulator, rule_from_parts};
use evoforecast_core::rule::{Condition, Gene};
use evoforecast_core::{crossover, mutation, replacement, selection};
use evoforecast_linalg::RegressionOptions;
use evoforecast_tsdata::window::WindowedDataset;
use rand_chacha::ChaCha8Rng;
use std::time::Duration;

/// Per-offspring samples of every stage.
#[derive(Debug, Default)]
pub struct KernelSamples {
    pub select_ns: Vec<f64>,
    pub uniform_ns: Vec<f64>,
    pub mutate_ns: Vec<f64>,
    pub genes_rewritten: Vec<f64>,
    /// Mean time of one bounded-gene refill in an offspring.
    pub refill_ns: Vec<f64>,
    /// Bounded genes refilled per offspring.
    pub refills: Vec<f64>,
    /// Mean time of one inherited-gene copy in an offspring.
    pub copy_gene_ns: Vec<f64>,
    /// Genes copied per offspring.
    pub copies: Vec<f64>,
    pub and_ns: Vec<f64>,
    pub matched_rows: Vec<f64>,
    pub gram_us: Vec<f64>,
    pub solve_us: Vec<f64>,
    pub fit_us: Vec<f64>,
    pub victim_ns: Vec<f64>,
    /// Whole replayed offspring, stages and bookkeeping between them.
    pub offspring_us: Vec<f64>,
}

/// The per-gene match bitsets of a condition, built from scratch.
fn gene_bitsets(
    condition: &Condition,
    data: &WindowedDataset<'_>,
    columns: &ColumnStore,
) -> GeneBitsets {
    let mut sets = GeneBitsets::new(condition.len(), data.len());
    for (g, gene) in condition.genes().iter().enumerate() {
        if let Gene::Bounded { lo, hi } = *gene {
            sets.recompute_with(g, |bits| {
                fill_gene_bitset(columns.column(data, g), lo, hi, bits)
            });
        }
    }
    sets
}

/// Replay `offspring` offspring on the engine's current population.
pub fn replay(
    engine: &Engine<'_>,
    data: &WindowedDataset<'_>,
    columns: &ColumnStore,
    rng: &mut ChaCha8Rng,
    offspring: usize,
    out: &mut KernelSamples,
) {
    let pop = engine.population();
    let cfg = engine.config();
    let parents: Vec<GeneBitsets> = pop
        .individuals()
        .iter()
        .map(|ind| gene_bitsets(&ind.rule.condition, data, columns))
        .collect();
    let mut scratch = GeneBitsets::new(data.feature_len(), data.len());
    let mut full = MatchBitset::new(data.len());
    let mut from_a = Vec::new();
    let mut mutated = Vec::new();
    let opts = RegressionOptions::fast();

    for _ in 0..offspring {
        let started = std::time::Instant::now();
        let ((ia, ib), t) = timed(|| selection::select_parents(pop, cfg.tournament_rounds, rng));
        out.select_ns.push(ns(t));
        let (mut child, t) = timed(|| {
            crossover::uniform_into(
                &pop.get(ia).rule.condition,
                &pop.get(ib).rule.condition,
                rng,
                &mut from_a,
            )
        });
        out.uniform_ns.push(ns(t));
        let ((), t) = timed(|| {
            mutation::mutate_into(
                &mut child,
                &cfg.mutation,
                cfg.value_range,
                rng,
                &mut mutated,
            )
        });
        out.mutate_ns.push(ns(t));
        out.genes_rewritten.push(mutated.len() as f64);

        // Inherited genes first, then the rewritten ones: each gene is
        // written once, so the order does not change the result, and each
        // group is timed as one block.
        let mut copies = 0usize;
        let ((), t) = timed(|| {
            for (g, &take_a) in from_a.iter().enumerate() {
                if !mutated.contains(&g) {
                    let donor = if take_a { &parents[ia] } else { &parents[ib] };
                    scratch.copy_gene_from(g, donor);
                    copies += 1;
                }
            }
        });
        if copies > 0 {
            out.copy_gene_ns.push(ns(t) / copies as f64);
        }
        out.copies.push(copies as f64);
        let mut refill = Duration::ZERO;
        let mut refills = 0usize;
        for &g in &mutated {
            match child.genes()[g] {
                Gene::Wildcard => scratch.set_wildcard(g),
                Gene::Bounded { lo, hi } => {
                    let ((), t) = timed(|| {
                        scratch.recompute_with(g, |bits| {
                            fill_gene_bitset(columns.column(data, g), lo, hi, bits)
                        })
                    });
                    refill += t;
                    refills += 1;
                }
            }
        }
        if refills > 0 {
            out.refill_ns.push(ns(refill) / refills as f64);
        }
        out.refills.push(refills as f64);

        let ((), t) = timed(|| scratch.intersect_into(&mut full));
        out.and_ns.push(ns(t));
        out.matched_rows.push(full.count_ones() as f64);
        let (acc, t) = timed(|| accumulate_from_bitset(&full, data, opts, cfg.parallel_threshold));
        out.gram_us.push(us(t));
        if acc.count() >= 2 {
            let (_, t) = timed(|| acc.solve(opts.ridge_lambda));
            out.solve_us.push(us(t));
        }
        let (model, t) = timed(|| fit_from_accumulator(&acc, &full, data, opts));
        out.fit_us.push(us(t));
        let rule = rule_from_parts(child, model, acc.count());
        let (_, t) =
            timed(|| replacement::choose_victim(cfg.replacement, pop, rule.prediction, rng));
        out.victim_ns.push(ns(t));
        out.offspring_us.push(us(started.elapsed()));
    }
}
