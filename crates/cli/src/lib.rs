//! Command-line interface library.
//!
//! All functionality lives here (parsing, command execution) so it is unit
//! testable; `main.rs` is a thin shim. Argument parsing is hand-rolled over
//! `--key value` pairs — no external CLI dependency.
//!
//! ```text
//! evoforecast-cli generate --series venice --n 8000 --seed 7 --out tides.csv
//! evoforecast-cli train    --data tides.csv --window 24 --horizon 4 \
//!                      --generations 6000 --population 50 --executions 4 \
//!                      --seed 11 --out model.json \
//!                      --checkpoint state.json --time-budget 600
//! evoforecast-cli resume   # same flags as train; continues from state.json
//! evoforecast-cli evaluate --model model.json --data tides.csv --from 6000
//! evoforecast-cli predict  --model model.json --data tides.csv
//! evoforecast-cli analyze  --model model.json --data tides.csv
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;
mod experiment;

pub use args::{Args, CliError};

/// A subcommand's implementation.
type Handler = fn(&args::Args, &mut dyn std::io::Write) -> Result<(), CliError>;

/// `train` and `resume` take the same flags.
const TRAIN_FLAGS: &[&str] = &[
    "data",
    "out",
    "window",
    "horizon",
    "spacing",
    "population",
    "generations",
    "executions",
    "emax-frac",
    "seed",
    "checkpoint",
    "time-budget",
    "max-retries",
];

/// Every subcommand with the flags it accepts. A flag not listed for its
/// command is refused before the command runs, so a misspelled flag never
/// falls back to a default silently.
const COMMANDS: &[(&str, &[&str], Handler)] = &[
    (
        "generate",
        &["series", "n", "seed", "out"],
        commands::generate,
    ),
    ("train", TRAIN_FLAGS, commands::train),
    ("resume", TRAIN_FLAGS, commands::resume),
    ("evaluate", &["model", "data", "from"], commands::evaluate),
    ("predict", &["model", "data"], commands::predict),
    ("freerun", &["model", "data", "steps"], commands::freerun),
    ("experiment", &["config", "out"], commands::experiment),
    ("spectrum", &["data", "top"], commands::spectrum),
    ("analyze", &["model", "data", "bins"], commands::analyze),
    (
        "serve",
        &[
            "model",
            "name",
            "addr",
            "workers",
            "queue",
            "deadline-ms",
            "max-batch",
            "max-body-bytes",
        ],
        commands::serve,
    ),
];

/// Entry point shared by `main.rs` and tests: dispatch on the subcommand,
/// writing human-readable output to `out`.
///
/// # Errors
/// [`CliError`] for usage problems (including a flag the command does not
/// accept), I/O failures, or training errors.
pub fn run(argv: &[String], out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let (command, args) = args::parse(argv)?;
    if let "help" | "--help" | "-h" = command.as_str() {
        args.reject_unknown(&command, &[])?;
        return writeln!(out, "{}", commands::USAGE).map_err(CliError::from);
    }
    let (_, accepted, handler) = COMMANDS
        .iter()
        .find(|(name, _, _)| *name == command)
        .ok_or_else(|| {
            CliError::Usage(format!(
                "unknown command {command:?}; try `evoforecast help`"
            ))
        })?;
    args.reject_unknown(&command, accepted)?;
    handler(&args, out)
}
