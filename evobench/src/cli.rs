//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.

use crate::BenchResult;

/// The four workloads, one per layer mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Venice τ=4 campaign at 6 000 training hours, 4 parallel executions.
    TrainQuick,
    /// Venice τ=4 campaign at 45 000 training hours, 1 execution.
    TrainWide,
    /// One window per `POST /forecast`, connection per request.
    ServeSingle,
    /// 256-window micro-batches plus periodic `POST /reload`.
    ServeBatch,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 4] = [
        Workload::TrainQuick,
        Workload::TrainWide,
        Workload::ServeSingle,
        Workload::ServeBatch,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainQuick => "train_quick",
            Workload::TrainWide => "train_wide",
            Workload::ServeSingle => "serve_single",
            Workload::ServeBatch => "serve_batch",
        }
    }

    /// Whether the workload trains (as opposed to serving).
    pub fn is_training(self) -> bool {
        matches!(self, Workload::TrainQuick | Workload::TrainWide)
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Workload seed: generates every input of the run.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Whether the run is the traced (per-layer) run.
    pub trace: bool,
}

const USAGE: &str = "usage: --workload <train_quick|train_wide|serve_single|serve_batch> \
                     --seed <u64> --seconds <s> --trace <0|1>";

impl Args {
    /// Parse `std::env::args`.
    ///
    /// # Errors
    /// A usage message for a missing, unknown, duplicated or malformed flag.
    pub fn parse() -> BenchResult<Args> {
        Args::parse_from(std::env::args().skip(1))
    }

    /// Parse an explicit argument list.
    ///
    /// # Errors
    /// See [`Args::parse`].
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> BenchResult<Args> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value; {USAGE}"))?;
            let slot = match flag.as_str() {
                "--workload" => &mut workload,
                "--seed" => &mut seed,
                "--seconds" => &mut seconds,
                "--trace" => &mut trace,
                _ => return Err(format!("unknown flag {flag}; {USAGE}")),
            };
            if slot.replace(value).is_some() {
                return Err(format!("{flag} given twice; {USAGE}"));
            }
        }
        let workload = workload.ok_or_else(|| format!("--workload missing; {USAGE}"))?;
        let workload = Workload::ALL
            .into_iter()
            .find(|w| w.name() == workload)
            .ok_or_else(|| format!("unknown workload {workload:?}; {USAGE}"))?;
        let seed = seed
            .ok_or_else(|| format!("--seed missing; {USAGE}"))?
            .parse::<u64>()
            .map_err(|e| format!("--seed: {e}"))?;
        let seconds = seconds
            .ok_or_else(|| format!("--seconds missing; {USAGE}"))?
            .parse::<f64>()
            .map_err(|e| format!("--seconds: {e}"))?;
        if !(seconds.is_finite() && seconds > 0.0) {
            return Err("--seconds must be positive".into());
        }
        let trace = match trace.as_deref() {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        };
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
        })
    }
}
