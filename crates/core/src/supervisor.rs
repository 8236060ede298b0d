//! Multi-execution accumulation (§3.4), with panic isolation,
//! retry-with-reseed, run budgets and checkpoint/resume.
//!
//! "After each execution the solutions obtained at the end of the process
//! are added to the obtained in previous executions. The number of executions
//! is determined by the percentage of the search space covered by the rules."
//!
//! Executions are independent (seed `base + slot`), so each wave of
//! `WAVE_SIZE` runs on parallel worker threads; rule sets merge in slot
//! order, so the final predictor does not depend on thread scheduling. Waves
//! have a fixed size so the early-stopping decision (and therefore the
//! result) does not depend on the machine's core count. After each wave the
//! newly merged rules are folded into an incremental coverage union, and the
//! campaign stops once it reaches the coverage target.
//!
//! One panicking worker or one killed process must not throw away every
//! completed execution of a long campaign, so the [`Supervisor`] adds four
//! production guarantees:
//!
//! 1. **Panic isolation + retry.** Each execution runs under
//!    [`std::panic::catch_unwind`]; a panic or a retryable error is retried
//!    with a deterministically derived replacement seed (see
//!    [`execution_seed`]) up to [`RunBudget::max_retries`] times. Because the
//!    seed schedule is a pure function of `(base seed, slot, attempt)` and
//!    rule sets merge in slot order, the final predictor is **bit-identical**
//!    for a given fault pattern regardless of thread scheduling — and
//!    identical to a fault-free run whenever no retry fires.
//! 2. **Budgets with graceful degradation.** A wall-clock budget and a
//!    session-execution budget, both checked at wave boundaries, so
//!    determinism is preserved: they can only decide *how many* full waves
//!    run, never their contents. On exhaustion the supervisor stops
//!    launching waves, merges what completed, and reports a
//!    [`DegradationReason`] instead of hanging or discarding work.
//! 3. **Checkpoint/resume.** With [`Supervisor::run_resumable`] the merged
//!    state is written to a versioned
//!    [`crate::checkpoint::EnsembleCheckpoint`] after every wave; a later
//!    call resumes from the last completed wave and produces a predictor
//!    bit-identical to an uninterrupted run.
//! 4. **Deterministic fault injection** (`fault-injection` feature): a
//!    [`FaultPlan`] kills chosen `(execution, attempt)` pairs so the retry
//!    and merge paths are pinned by tests, not just exercised by luck.

use crate::bitset::MatchBitset;
use crate::checkpoint::{
    CheckpointError, EnsembleCheckpoint, ExecutionOutcome, OutcomeStatus, CHECKPOINT_VERSION,
};
use crate::config::EnsembleConfig;
use crate::dataset::ExampleSet;
use crate::engine::Engine;
use crate::error::{EvoError, FailureKind};
use crate::parallel::map_ranges;
use crate::predict::{fold_coverage, RuleSetPredictor};
use crate::rule::Rule;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

/// Executions launched per coverage check.
pub(crate) const WAVE_SIZE: usize = 4;

/// Resource limits for one supervisor run. All limits are optional; the
/// default grants 2 retries per execution and no other bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunBudget {
    /// Stop launching new waves once this much wall-clock time has elapsed.
    /// Checked only at wave boundaries so the merged result stays a pure
    /// function of which waves ran, never of intra-wave timing.
    pub wall_clock: Option<Duration>,
    /// Retries granted per execution after its first attempt fails.
    pub max_retries: u32,
    /// Stop after this many *new* executions in this call (checkpointed
    /// executions from earlier sessions don't count). Checked at wave
    /// boundaries; the cap is rounded up to whole waves so wave alignment —
    /// and therefore the early-stop decision — never shifts across resumes.
    pub max_new_executions: Option<usize>,
}

impl Default for RunBudget {
    fn default() -> Self {
        RunBudget {
            wall_clock: None,
            max_retries: 2,
            max_new_executions: None,
        }
    }
}

impl RunBudget {
    /// Builder-style wall-clock budget.
    pub fn with_wall_clock(mut self, budget: Duration) -> Self {
        self.wall_clock = Some(budget);
        self
    }

    /// Builder-style retry cap.
    pub fn with_max_retries(mut self, retries: u32) -> Self {
        self.max_retries = retries;
        self
    }
}

/// Why a run stopped short of its coverage target and execution cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradationReason {
    /// The wall-clock budget elapsed at a wave boundary.
    TimeBudgetExpired {
        /// Wall-clock time elapsed when the budget check fired.
        elapsed: Duration,
        /// Executions completed (including checkpointed ones).
        executions: usize,
    },
    /// The session's new-execution cap was reached.
    SessionBudgetExhausted {
        /// Executions completed (including checkpointed ones).
        executions: usize,
    },
    /// An execution kept failing after all retries; the supervisor merged
    /// the completed slots and stopped launching waves.
    RetriesExhausted {
        /// The execution slot that failed.
        execution: usize,
        /// Attempts made on that slot.
        attempts: u32,
    },
}

impl std::fmt::Display for DegradationReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DegradationReason::TimeBudgetExpired {
                elapsed,
                executions,
            } => write!(
                f,
                "wall-clock budget expired after {:.1}s with {executions} execution(s) merged",
                elapsed.as_secs_f64()
            ),
            DegradationReason::SessionBudgetExhausted { executions } => write!(
                f,
                "session execution budget exhausted with {executions} execution(s) merged"
            ),
            DegradationReason::RetriesExhausted {
                execution,
                attempts,
            } => write!(
                f,
                "execution {execution} failed all {attempts} attempt(s); merged the surviving executions"
            ),
        }
    }
}

/// Summary of a supervised ensemble run.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisorReport {
    /// Execution slots processed (completed or failed), including slots
    /// restored from a checkpoint.
    pub executions: usize,
    /// Training coverage of the final merged rule set.
    pub training_coverage: f64,
    /// Whether the coverage target was reached.
    pub target_reached: bool,
    /// Why the run degraded, when it did; `None` for a clean finish
    /// (target reached or execution cap).
    pub degradation: Option<DegradationReason>,
    /// Per-slot seed/outcome ledger, in slot order.
    pub outcomes: Vec<ExecutionOutcome>,
}

/// The seed an execution slot uses on a given attempt.
///
/// Attempt 0 is `base + slot`, the §3.4 schedule of independent
/// executions. Retries derive a fresh seed by a splitmix64-style mix of
/// `(base, slot, attempt)`: deterministic (resume and re-run agree on the
/// replacement seed) but decorrelated from the failing one.
pub fn execution_seed(base: u64, slot: usize, attempt: u32) -> u64 {
    if attempt == 0 {
        return base.wrapping_add(slot as u64);
    }
    let mut z = base
        ^ (slot as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ u64::from(attempt).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic fault injection: the set of `(execution, attempt)` pairs to
/// kill with an induced panic. Compiled only with the `fault-injection`
/// feature — production builds carry no injection branch at all.
#[cfg(feature = "fault-injection")]
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    kills: std::collections::BTreeSet<(usize, u32)>,
}

#[cfg(feature = "fault-injection")]
impl FaultPlan {
    /// No faults.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Builder-style: kill `execution`'s attempt number `attempt`.
    #[cfg(test)]
    pub(crate) fn kill(mut self, execution: usize, attempt: u32) -> Self {
        self.kills.insert((execution, attempt));
        self
    }

    /// Is this `(execution, attempt)` scheduled to die?
    pub(crate) fn should_kill(&self, execution: usize, attempt: u32) -> bool {
        self.kills.contains(&(execution, attempt))
    }
}

/// Fault-tolerant driver for multi-execution ensemble campaigns.
#[derive(Debug, Clone)]
pub struct Supervisor {
    config: EnsembleConfig,
    budget: RunBudget,
    #[cfg(feature = "fault-injection")]
    fault_plan: FaultPlan,
}

impl Supervisor {
    /// Validate and store the configuration, with a default [`RunBudget`].
    ///
    /// # Errors
    /// [`EvoError::InvalidConfig`] from validation.
    pub fn new(config: EnsembleConfig) -> Result<Supervisor, EvoError> {
        config.validate()?;
        Ok(Supervisor {
            config,
            budget: RunBudget::default(),
            #[cfg(feature = "fault-injection")]
            fault_plan: FaultPlan::default(),
        })
    }

    /// Builder-style: set the run budget.
    pub fn with_budget(mut self, budget: RunBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Builder-style: install a fault plan (tests only).
    #[cfg(all(test, feature = "fault-injection"))]
    pub(crate) fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// The configuration.
    pub fn config(&self) -> &EnsembleConfig {
        &self.config
    }

    /// Run a supervised campaign with no checkpointing.
    ///
    /// # Errors
    /// [`EvoError::Data`] when the series is too short for the window spec;
    /// [`EvoError::ExecutionFailure`] when an execution fails with a
    /// *non-retryable* error (configuration/data problems reproduce
    /// deterministically, so retrying or degrading would only hide them).
    pub fn run(&self, train: &[f64]) -> Result<(RuleSetPredictor, SupervisorReport), EvoError> {
        self.run_impl(train, None)
    }

    /// Run with checkpointing: restore state from `checkpoint` when the file
    /// exists (rejecting version, fingerprint, or universe mismatches), and
    /// rewrite it atomically after every wave. The resumed predictor is
    /// bit-identical to an uninterrupted run's.
    ///
    /// # Errors
    /// Everything [`Supervisor::run`] returns, plus
    /// [`EvoError::Checkpoint`] for unreadable or untrusted checkpoints.
    pub fn run_resumable(
        &self,
        train: &[f64],
        checkpoint: impl AsRef<Path>,
    ) -> Result<(RuleSetPredictor, SupervisorReport), EvoError> {
        self.run_impl(train, Some(checkpoint.as_ref()))
    }

    fn run_impl(
        &self,
        train: &[f64],
        checkpoint: Option<&Path>,
    ) -> Result<(RuleSetPredictor, SupervisorReport), EvoError> {
        // audit: allow(determinism) — wall-clock budget bookkeeping; bounds retries, never changes any computed rule
        let start = Instant::now();
        let data = self.config.engine.window.dataset(train)?;
        let n = data.len();
        let fingerprint = self.config.fingerprint();

        let mut predictor;
        let mut covered_bits;
        let mut folded_rules;
        let mut executions_done;
        let mut outcomes;
        match checkpoint {
            Some(path) if path.exists() => {
                let cp = EnsembleCheckpoint::load(path)?;
                cp.validate(fingerprint, n)?;
                let d = data.feature_len();
                if let Some(rule) = cp.rules.iter().find(|r| r.window_len() != d) {
                    return Err(CheckpointError::Corrupt(format!(
                        "checkpoint rule has window length {} but the run's is {d}",
                        rule.window_len()
                    ))
                    .into());
                }
                covered_bits = cp.covered_bits()?;
                folded_rules = cp.folded_rules;
                executions_done = cp.executions_done;
                outcomes = cp.outcomes;
                // Checkpointed rules are the already-filtered merge result;
                // re-filtering would need per-rule state the file does not
                // (and must not) carry.
                predictor = RuleSetPredictor::with_all_rules(cp.rules);
            }
            _ => {
                predictor = RuleSetPredictor::new(Vec::new());
                covered_bits = MatchBitset::new(n);
                folded_rules = 0;
                executions_done = 0;
                outcomes = Vec::new();
            }
        }

        let mut coverage = if n == 0 {
            0.0
        } else {
            covered_bits.count_ones() as f64 / n as f64
        };
        let mut degradation = None;
        let mut target_reached = executions_done > 0 && coverage >= self.config.coverage_target;
        let mut new_executions = 0usize;

        // Write (or refresh) the state file before the first wave: this
        // fails fast on an unwritable path instead of after hours of work,
        // and guarantees a resumable file exists even when a budget expires
        // before any wave runs.
        if let Some(path) = checkpoint {
            write_checkpoint(
                path,
                fingerprint,
                executions_done,
                &outcomes,
                &predictor,
                folded_rules,
                n,
                &covered_bits,
            )?;
        }

        while !target_reached && executions_done < self.config.max_executions {
            if let Some(cap) = self.budget.max_new_executions {
                if new_executions >= cap {
                    degradation = Some(DegradationReason::SessionBudgetExhausted {
                        executions: executions_done,
                    });
                    break;
                }
            }
            if let Some(budget) = self.budget.wall_clock {
                let elapsed = start.elapsed();
                if elapsed >= budget {
                    degradation = Some(DegradationReason::TimeBudgetExpired {
                        elapsed,
                        executions: executions_done,
                    });
                    break;
                }
            }

            let wave = WAVE_SIZE.min(self.config.max_executions - executions_done);
            let results: Vec<(ExecutionOutcome, Result<Vec<Rule>, EvoError>)> = map_ranges(
                wave,
                || (),
                |_, k| self.run_slot(train, executions_done + k),
            );

            // Merge in slot order — completion order never matters.
            for (mut outcome, result) in results {
                match result {
                    Ok(rules) => {
                        // Rules whose expected error reached EMAX were
                        // assigned f_min by the fitness function — they are
                        // not part of the solution, so they must not
                        // contribute to predictions.
                        let viable = RuleSetPredictor::new(rules)
                            .filter_by_error(self.config.engine.fitness.emax);
                        outcome.rules = viable.len();
                        predictor.merge(viable);
                    }
                    Err(failure) => {
                        if !failure.is_retryable() {
                            return Err(failure);
                        }
                        if degradation.is_none() {
                            degradation = Some(DegradationReason::RetriesExhausted {
                                execution: outcome.execution,
                                attempts: outcome.attempts,
                            });
                        }
                    }
                }
                outcomes.push(outcome);
            }
            executions_done += wave;
            new_executions += wave;

            // Fold only the newly merged rules, and only into still-uncovered
            // windows: the same union as `predictor.coverage(&data)`, much
            // cheaper once early waves cover most of the space.
            fold_coverage(&mut covered_bits, &predictor.rules()[folded_rules..], &data);
            folded_rules = predictor.len();
            coverage = if n == 0 {
                0.0
            } else {
                covered_bits.count_ones() as f64 / n as f64
            };

            if let Some(path) = checkpoint {
                write_checkpoint(
                    path,
                    fingerprint,
                    executions_done,
                    &outcomes,
                    &predictor,
                    folded_rules,
                    n,
                    &covered_bits,
                )?;
            }

            if coverage >= self.config.coverage_target {
                target_reached = true;
                break;
            }
            if degradation.is_some() {
                // A slot exhausted its retries: keep what we merged, stop
                // launching waves.
                break;
            }
        }

        Ok((
            predictor,
            SupervisorReport {
                executions: executions_done,
                training_coverage: coverage,
                target_reached,
                degradation,
                outcomes,
            },
        ))
    }

    /// Run one execution slot to completion or retry exhaustion. Returns the
    /// slot's ledger entry plus either its rule set or the final classified
    /// failure.
    fn run_slot(
        &self,
        train: &[f64],
        slot: usize,
    ) -> (ExecutionOutcome, Result<Vec<Rule>, EvoError>) {
        let base = self.config.engine.seed;
        let mut attempts = 0u32;
        loop {
            let seed = execution_seed(base, slot, attempts);
            let attempt = attempts;
            attempts += 1;
            match self.attempt(train, slot, seed, attempt) {
                Ok(rules) => {
                    return (
                        ExecutionOutcome {
                            execution: slot,
                            seed,
                            attempts,
                            rules: rules.len(),
                            status: OutcomeStatus::Completed,
                        },
                        Ok(rules),
                    );
                }
                Err(kind) => {
                    let failure = EvoError::ExecutionFailure {
                        execution: slot,
                        seed,
                        attempts,
                        kind,
                    };
                    if !failure.is_retryable() || attempts > self.budget.max_retries {
                        return (
                            ExecutionOutcome {
                                execution: slot,
                                seed,
                                attempts,
                                rules: 0,
                                status: OutcomeStatus::Failed,
                            },
                            Err(failure),
                        );
                    }
                }
            }
        }
    }

    /// One isolated attempt: panic-caught engine construction + run.
    #[cfg_attr(not(feature = "fault-injection"), allow(unused_variables))]
    fn attempt(
        &self,
        train: &[f64],
        slot: usize,
        seed: u64,
        attempt: u32,
    ) -> Result<Vec<Rule>, FailureKind> {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            #[cfg(feature = "fault-injection")]
            if self.fault_plan.should_kill(slot, attempt) {
                // audit: allow(panic-freedom) — the whole point: a deliberate kill for supervisor tests, feature-gated
                panic!("fault injection: killed execution {slot} attempt {attempt}");
            }
            let cfg = self.config.engine.clone().with_seed(seed);
            let mut engine = Engine::new(cfg, train)?;
            Ok(engine.run())
        }));
        match caught {
            Ok(Ok(rules)) => Ok(rules),
            Ok(Err(e)) => Err(FailureKind::Error(Box::new(e))),
            Err(payload) => Err(FailureKind::Panic(panic_message(payload.as_ref()))),
        }
    }
}

/// Serialize the supervisor's merged state to `path` (atomic tmp + rename).
#[allow(clippy::too_many_arguments)]
fn write_checkpoint(
    path: &Path,
    fingerprint: u64,
    executions_done: usize,
    outcomes: &[ExecutionOutcome],
    predictor: &RuleSetPredictor,
    folded_rules: usize,
    n: usize,
    covered_bits: &MatchBitset,
) -> Result<(), EvoError> {
    EnsembleCheckpoint {
        version: CHECKPOINT_VERSION,
        config_fingerprint: fingerprint,
        executions_done,
        outcomes: outcomes.to_vec(),
        rules: predictor.rules().to_vec(),
        folded_rules,
        coverage_len: n,
        covered_words: covered_bits.words().to_vec(),
    }
    .save(path)?;
    Ok(())
}

/// Best-effort extraction of a panic payload's message (panics carry `&str`
/// or `String` in practice; anything else is reported opaquely).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use evoforecast_tsdata::gen::waves::noisy_sine;
    use evoforecast_tsdata::window::WindowSpec;

    fn quick_config(values: &[f64]) -> EnsembleConfig {
        let spec = WindowSpec::new(3, 1).unwrap();
        let engine = EngineConfig::for_series(values, spec)
            .with_population(15)
            .with_generations(80)
            .with_seed(300);
        EnsembleConfig::new(engine)
            .with_max_executions(3)
            .with_coverage_target(0.999)
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "evoforecast_supervisor_test_{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn seed_schedule_is_base_plus_slot_and_derives_retries() {
        // Attempt 0 must be the §3.4 `base + slot` schedule.
        assert_eq!(execution_seed(100, 0, 0), 100);
        assert_eq!(execution_seed(100, 3, 0), 103);
        assert_eq!(execution_seed(u64::MAX, 1, 0), 0, "wrapping add");
        // Retries are deterministic and distinct across attempts and slots.
        assert_eq!(execution_seed(100, 3, 1), execution_seed(100, 3, 1));
        assert_ne!(execution_seed(100, 3, 1), execution_seed(100, 3, 0));
        assert_ne!(execution_seed(100, 3, 1), execution_seed(100, 3, 2));
        assert_ne!(execution_seed(100, 3, 1), execution_seed(100, 4, 1));
    }

    #[test]
    fn rejects_invalid_config() {
        let series = noisy_sine(200, 20.0, 1.0, 0.05, 1);
        let bad = quick_config(series.values()).with_max_executions(0);
        assert!(Supervisor::new(bad).is_err());
    }

    #[test]
    fn fault_free_run_keeps_a_clean_ledger() {
        let series = noisy_sine(250, 20.0, 1.0, 0.05, 21);
        let cfg = quick_config(series.values());
        let (_, rep) = Supervisor::new(cfg).unwrap().run(series.values()).unwrap();
        assert!(rep.degradation.is_none());
        assert_eq!(rep.outcomes.len(), rep.executions);
        for (slot, o) in rep.outcomes.iter().enumerate() {
            assert_eq!(o.execution, slot);
            assert_eq!(o.seed, execution_seed(300, slot, 0));
            assert_eq!(o.attempts, 1);
            assert_eq!(o.status, OutcomeStatus::Completed);
        }
    }

    #[test]
    fn accumulates_rules_across_executions() {
        let series = noisy_sine(300, 20.0, 1.0, 0.05, 2);
        let (predictor, report) = Supervisor::new(quick_config(series.values()))
            .unwrap()
            .run(series.values())
            .unwrap();
        assert!(report.executions >= 1 && report.executions <= 3);
        assert!(!predictor.is_empty());
        assert!(report.training_coverage > 0.5);
    }

    #[test]
    fn stops_early_when_target_met() {
        let series = noisy_sine(300, 20.0, 1.0, 0.05, 3);
        // Trivial target: the first wave must satisfy it.
        let cfg = quick_config(series.values())
            .with_max_executions(8)
            .with_coverage_target(0.01);
        let (_, report) = Supervisor::new(cfg).unwrap().run(series.values()).unwrap();
        assert!(report.target_reached);
        assert_eq!(report.executions, WAVE_SIZE);
        assert!(report.degradation.is_none());
    }

    #[test]
    fn coverage_grows_with_more_executions() {
        let series = noisy_sine(400, 20.0, 1.0, 0.1, 5);
        let run_with = |n: usize| {
            let cfg = quick_config(series.values())
                .with_max_executions(n)
                .with_coverage_target(1.0);
            let (p, r) = Supervisor::new(cfg).unwrap().run(series.values()).unwrap();
            (p.len(), r.training_coverage)
        };
        let (rules_1, cov_1) = run_with(1);
        let (rules_3, cov_3) = run_with(3);
        assert!(rules_3 >= rules_1);
        assert!(
            cov_3 >= cov_1 - 1e-12,
            "coverage shrank: {cov_1} -> {cov_3}"
        );
    }

    #[test]
    fn reported_coverage_equals_predictor_coverage() {
        // The incremental bitset union must equal a from-scratch coverage
        // sweep over the final merged predictor, bit for bit.
        let series = noisy_sine(300, 20.0, 1.0, 0.05, 12);
        let cfg = quick_config(series.values()).with_max_executions(8);
        let (predictor, report) = Supervisor::new(cfg).unwrap().run(series.values()).unwrap();
        let ds = WindowSpec::new(3, 1)
            .unwrap()
            .dataset(series.values())
            .unwrap();
        assert_eq!(
            report.training_coverage.to_bits(),
            predictor.coverage(&ds).to_bits()
        );
    }

    #[test]
    fn expired_time_budget_degrades_before_any_wave() {
        let series = noisy_sine(250, 20.0, 1.0, 0.05, 22);
        let sup = Supervisor::new(quick_config(series.values()))
            .unwrap()
            .with_budget(RunBudget::default().with_wall_clock(Duration::ZERO));
        let (pred, rep) = sup.run(series.values()).unwrap();
        assert!(pred.is_empty());
        assert_eq!(rep.executions, 0);
        assert!(!rep.target_reached);
        assert!(matches!(
            rep.degradation,
            Some(DegradationReason::TimeBudgetExpired { executions: 0, .. })
        ));
    }

    #[test]
    fn expired_budget_with_checkpoint_still_leaves_a_resumable_file() {
        let series = noisy_sine(250, 20.0, 1.0, 0.05, 29);
        let path = temp_path("pre_wave_checkpoint.json");
        let cfg = quick_config(series.values());
        let sup = Supervisor::new(cfg.clone())
            .unwrap()
            .with_budget(RunBudget::default().with_wall_clock(Duration::ZERO));
        let (pred, rep) = sup.run_resumable(series.values(), &path).unwrap();
        assert!(pred.is_empty());
        assert_eq!(rep.executions, 0);
        // The zero-wave run still wrote a state file; resuming from it with
        // no budget matches a fresh unbudgeted run exactly.
        assert!(path.exists());
        let (resumed, rep2) = Supervisor::new(cfg.clone())
            .unwrap()
            .run_resumable(series.values(), &path)
            .unwrap();
        let (reference, ref_rep) = Supervisor::new(cfg).unwrap().run(series.values()).unwrap();
        assert_eq!(resumed.rules(), reference.rules());
        assert_eq!(rep2.executions, ref_rep.executions);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn session_budget_stops_after_one_wave() {
        let series = noisy_sine(250, 20.0, 1.0, 0.05, 23);
        let cfg = quick_config(series.values())
            .with_max_executions(8)
            .with_coverage_target(1.0);
        let sup = Supervisor::new(cfg).unwrap().with_budget(RunBudget {
            max_new_executions: Some(WAVE_SIZE),
            ..RunBudget::default()
        });
        let (_, rep) = sup.run(series.values()).unwrap();
        if rep.target_reached {
            // The first wave can legitimately cover everything; the budget
            // then never fires. Either way it must not run a second wave.
            assert!(rep.executions <= WAVE_SIZE);
        } else {
            assert_eq!(rep.executions, WAVE_SIZE);
            assert!(matches!(
                rep.degradation,
                Some(DegradationReason::SessionBudgetExhausted { executions }) if executions == WAVE_SIZE
            ));
        }
    }

    #[test]
    fn checkpoint_interrupt_and_resume_is_bit_identical() {
        let series = noisy_sine(250, 20.0, 1.0, 0.3, 25);
        // Tight EMAX keeps coverage below 1.0 so the campaign genuinely
        // needs both waves.
        let (lo, hi) = series
            .values()
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(a, b), &v| {
                (a.min(v), b.max(v))
            });
        let cfg = {
            let mut c = quick_config(series.values())
                .with_max_executions(8)
                .with_coverage_target(1.0);
            c.engine = c.engine.with_emax((hi - lo) * 0.08);
            c
        };

        // Uninterrupted reference.
        let (ref_pred, ref_rep) = Supervisor::new(cfg.clone())
            .unwrap()
            .run(series.values())
            .unwrap();

        // Session 1: stop after one wave, leaving a checkpoint behind.
        let path = temp_path("resume.json");
        std::fs::remove_file(&path).ok();
        let sup1 = Supervisor::new(cfg.clone())
            .unwrap()
            .with_budget(RunBudget {
                max_new_executions: Some(WAVE_SIZE),
                ..RunBudget::default()
            });
        let (_, rep1) = sup1.run_resumable(series.values(), &path).unwrap();
        assert!(
            !rep1.target_reached,
            "test premise: one wave must not finish the campaign"
        );
        assert_eq!(rep1.executions, WAVE_SIZE);
        assert!(path.exists(), "checkpoint must be written after the wave");

        // Session 2: resume without the cap.
        let sup2 = Supervisor::new(cfg).unwrap();
        let (res_pred, res_rep) = sup2.run_resumable(series.values(), &path).unwrap();

        assert_eq!(res_pred.rules(), ref_pred.rules(), "resume must be exact");
        assert_eq!(res_rep.executions, ref_rep.executions);
        assert_eq!(
            res_rep.training_coverage.to_bits(),
            ref_rep.training_coverage.to_bits()
        );
        assert_eq!(res_rep.target_reached, ref_rep.target_reached);
        assert_eq!(res_rep.outcomes, ref_rep.outcomes);
        assert!(
            res_rep.executions > WAVE_SIZE,
            "resume must actually run more waves"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_after_clean_finish_runs_nothing_new() {
        let series = noisy_sine(250, 20.0, 1.0, 0.05, 26);
        let cfg = quick_config(series.values()).with_coverage_target(0.01);
        let path = temp_path("finished.json");
        std::fs::remove_file(&path).ok();
        let sup = Supervisor::new(cfg).unwrap();
        let (pred, rep) = sup.run_resumable(series.values(), &path).unwrap();
        assert!(rep.target_reached);
        let (pred2, rep2) = sup.run_resumable(series.values(), &path).unwrap();
        assert_eq!(pred2.rules(), pred.rules());
        assert_eq!(rep2.executions, rep.executions);
        assert!(rep2.target_reached);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_rejects_foreign_fingerprint_and_garbage() {
        let series = noisy_sine(250, 20.0, 1.0, 0.05, 27);
        let cfg = quick_config(series.values()).with_max_executions(4);
        let path = temp_path("foreign.json");
        std::fs::remove_file(&path).ok();
        let resume = |cfg: EnsembleConfig| {
            Supervisor::new(cfg)
                .unwrap()
                .run_resumable(series.values(), &path)
        };
        resume(cfg.clone()).unwrap();

        // Same checkpoint, different campaign configuration.
        let mut other = cfg;
        other.engine.seed ^= 0xFFFF;
        let err = resume(other).unwrap_err();
        assert!(matches!(
            err,
            EvoError::Checkpoint(CheckpointError::FingerprintMismatch { .. })
        ));

        std::fs::write(&path, "{ definitely not a checkpoint").unwrap();
        let err = resume(quick_config(series.values())).unwrap_err();
        assert!(matches!(
            err,
            EvoError::Checkpoint(CheckpointError::Corrupt(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_rejects_corrupt_coverage_state() {
        // Two hand-edited checkpoints that used to resume: one marks more
        // rules folded than it holds (a slice panic on the next wave), one
        // sets coverage bits past the last window (coverage above 1.0).
        let series = noisy_sine(250, 20.0, 1.0, 0.05, 30);
        let cfg = quick_config(series.values()).with_max_executions(4);
        let sup = Supervisor::new(cfg.clone())
            .unwrap()
            .with_budget(RunBudget::default().with_wall_clock(Duration::ZERO));
        let path = temp_path("corrupt_coverage.json");
        std::fs::remove_file(&path).ok();
        sup.run_resumable(series.values(), &path).unwrap();
        let clean = EnsembleCheckpoint::load(&path).unwrap();
        assert_ne!(
            clean.coverage_len % 64,
            0,
            "test premise: a partial last word"
        );

        let mut overshoot = clean.clone();
        overshoot.folded_rules = 1_000_000;
        let mut stray_bits = clean;
        *stray_bits.covered_words.last_mut().unwrap() = u64::MAX;
        for corrupt in [overshoot, stray_bits] {
            corrupt.save(&path).unwrap();
            let err = Supervisor::new(cfg.clone())
                .unwrap()
                .run_resumable(series.values(), &path)
                .unwrap_err();
            assert!(
                matches!(err, EvoError::Checkpoint(CheckpointError::Corrupt(_))),
                "{err:?}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_rejects_rules_of_another_window_length() {
        // The campaign's own checkpoint, fingerprint intact, with every rule
        // cut to D − 1 genes: it used to resume and answer D-length windows
        // from the short rules (a length assert in debug builds).
        let series = noisy_sine(250, 20.0, 1.0, 0.05, 31);
        let cfg = quick_config(series.values()).with_max_executions(2);
        let path = temp_path("short_rules.json");
        std::fs::remove_file(&path).ok();
        let sup = Supervisor::new(cfg).unwrap();
        sup.run_resumable(series.values(), &path).unwrap();
        let mut cp = EnsembleCheckpoint::load(&path).unwrap();
        assert!(!cp.rules.is_empty(), "test premise: rules to cut");
        for rule in &mut cp.rules {
            let genes = rule.condition.genes()[..2].to_vec();
            rule.condition = crate::rule::Condition::new(genes);
            rule.coefficients.truncate(2);
        }
        cp.save(&path).unwrap();
        let err = sup.run_resumable(series.values(), &path).unwrap_err();
        assert!(
            matches!(err, EvoError::Checkpoint(CheckpointError::Corrupt(_))),
            "{err:?}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_retryable_failure_propagates_immediately() {
        // A series too short for the window spec is a deterministic data
        // error: retrying it or degrading would only hide the problem.
        let series = noisy_sine(250, 20.0, 1.0, 0.05, 28);
        let sup = Supervisor::new(quick_config(series.values())).unwrap();
        let err = sup.run(&[1.0, 2.0]).unwrap_err();
        assert!(matches!(err, EvoError::Data(_)));
    }

    #[test]
    fn panic_message_extraction() {
        let s: Box<dyn std::any::Any + Send> = Box::new("static str");
        assert_eq!(panic_message(s.as_ref()), "static str");
        let s: Box<dyn std::any::Any + Send> = Box::new(String::from("owned"));
        assert_eq!(panic_message(s.as_ref()), "owned");
        let s: Box<dyn std::any::Any + Send> = Box::new(42u8);
        assert_eq!(panic_message(s.as_ref()), "opaque panic payload");
    }

    #[test]
    fn degradation_reason_display_names_the_cause() {
        let t = DegradationReason::TimeBudgetExpired {
            elapsed: Duration::from_secs(90),
            executions: 4,
        };
        assert!(t.to_string().contains("wall-clock"));
        assert!(t.to_string().contains('4'));
        let s = DegradationReason::SessionBudgetExhausted { executions: 8 };
        assert!(s.to_string().contains("session"));
        let r = DegradationReason::RetriesExhausted {
            execution: 2,
            attempts: 3,
        };
        assert!(r.to_string().contains("execution 2"));
        assert!(r.to_string().contains('3'));
    }

    #[cfg(feature = "fault-injection")]
    mod fault_injection {
        use super::*;
        use crate::error::FailureKind;

        /// Silence the default panic hook while running supervisor code that
        /// injects panics on purpose; catch_unwind still sees them. Restores
        /// the hook before returning so test assertions report normally —
        /// keep `assert!`s outside the closure.
        fn quiet_panics<T>(f: impl FnOnce() -> T) -> T {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(|_| {}));
            let out = f();
            std::panic::set_hook(prev);
            out
        }

        #[test]
        fn killed_executions_retry_with_derived_seeds_and_match_reference() {
            let series = noisy_sine(250, 20.0, 1.0, 0.05, 31);
            let cfg = quick_config(series.values())
                .with_max_executions(8)
                .with_coverage_target(1.0);
            // Kill one execution per wave on its first attempt.
            let plan = FaultPlan::new().kill(1, 0).kill(5, 0);
            let sup = Supervisor::new(cfg.clone())
                .unwrap()
                .with_fault_plan(plan.clone());
            let (pred, rep) = quiet_panics(|| sup.run(series.values())).unwrap();
            assert!(rep.degradation.is_none());

            // Reference: run every slot manually with the seed schedule
            // the retries imply, merging in slot order.
            let mut reference = RuleSetPredictor::new(Vec::new());
            for slot in 0..rep.executions {
                let attempt = u32::from(plan.should_kill(slot, 0));
                let seed = execution_seed(cfg.engine.seed, slot, attempt);
                let engine_cfg = cfg.engine.clone().with_seed(seed);
                let rules = Engine::new(engine_cfg, series.values()).unwrap().run();
                reference
                    .merge(RuleSetPredictor::new(rules).filter_by_error(cfg.engine.fitness.emax));
            }
            assert_eq!(pred.rules(), reference.rules());

            // The ledger records the retries.
            for o in &rep.outcomes {
                let expected_attempts = 1 + u32::from(plan.should_kill(o.execution, 0));
                assert_eq!(o.attempts, expected_attempts, "slot {}", o.execution);
                assert_eq!(o.status, OutcomeStatus::Completed);
            }
        }

        #[test]
        fn faults_on_other_slots_do_not_perturb_survivors() {
            let series = noisy_sine(250, 20.0, 1.0, 0.05, 32);
            let cfg = quick_config(series.values());
            let clean = Supervisor::new(cfg.clone())
                .unwrap()
                .run(series.values())
                .unwrap()
                .0;
            // Kill slot 0 once: only slot 0's contribution changes.
            let faulty_sup = Supervisor::new(cfg.clone())
                .unwrap()
                .with_fault_plan(FaultPlan::new().kill(0, 0));
            let faulty = quiet_panics(|| faulty_sup.run(series.values())).unwrap().0;
            // Slot 0's viable-rule block differs, but the blocks from
            // slots 1.. must be byte-identical — compare the tails.
            let clean_slot0 = RuleSetPredictor::new(
                Engine::new(
                    cfg.engine.clone().with_seed(cfg.engine.seed),
                    series.values(),
                )
                .unwrap()
                .run(),
            )
            .filter_by_error(cfg.engine.fitness.emax)
            .len();
            let retried_slot0 = RuleSetPredictor::new(
                Engine::new(
                    cfg.engine
                        .clone()
                        .with_seed(execution_seed(cfg.engine.seed, 0, 1)),
                    series.values(),
                )
                .unwrap()
                .run(),
            )
            .filter_by_error(cfg.engine.fitness.emax)
            .len();
            assert_eq!(
                &clean.rules()[clean_slot0..],
                &faulty.rules()[retried_slot0..],
                "slots 1.. must be untouched by slot 0's fault"
            );
        }

        #[test]
        fn retries_exhausted_degrades_and_keeps_completed_work() {
            let series = noisy_sine(250, 20.0, 1.0, 0.3, 33);
            // Tight EMAX keeps the survivors' coverage below the target, so
            // the degradation path (not early stopping) decides the outcome.
            let (lo, hi) = series
                .values()
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(a, b), &v| {
                    (a.min(v), b.max(v))
                });
            let cfg = {
                let mut c = quick_config(series.values())
                    .with_max_executions(8)
                    .with_coverage_target(1.0);
                c.engine = c.engine.with_emax((hi - lo) * 0.08);
                c
            };
            // Slot 2 dies on every granted attempt (1 try + 2 retries).
            let plan = FaultPlan::new().kill(2, 0).kill(2, 1).kill(2, 2);
            let sup = Supervisor::new(cfg).unwrap().with_fault_plan(plan);
            let (pred, rep) = quiet_panics(|| sup.run(series.values())).unwrap();
            assert!(!pred.is_empty(), "survivor slots must still merge");
            assert!(!rep.target_reached);
            assert!(matches!(
                rep.degradation,
                Some(DegradationReason::RetriesExhausted {
                    execution: 2,
                    attempts: 3,
                })
            ));
            // Only the faulty wave ran: no new waves after degradation.
            assert_eq!(rep.executions, WAVE_SIZE);
            let failed = &rep.outcomes[2];
            assert_eq!(failed.status, OutcomeStatus::Failed);
            assert_eq!(failed.attempts, 3);
            assert_eq!(failed.rules, 0);
        }

        #[test]
        fn injected_panic_classifies_as_panic_failure() {
            let series = noisy_sine(250, 20.0, 1.0, 0.05, 34);
            let sup = Supervisor::new(quick_config(series.values()))
                .unwrap()
                .with_budget(RunBudget::default().with_max_retries(0))
                .with_fault_plan(FaultPlan::new().kill(0, 0));
            let (outcome, result) = quiet_panics(|| sup.run_slot(series.values(), 0));
            assert_eq!(outcome.status, OutcomeStatus::Failed);
            let err = result.unwrap_err();
            match &err {
                EvoError::ExecutionFailure {
                    execution: 0,
                    attempts: 1,
                    kind: FailureKind::Panic(msg),
                    ..
                } => assert!(msg.contains("fault injection")),
                other => panic!("unexpected failure shape: {other:?}"),
            }
            assert!(err.is_retryable());
        }
    }
}
