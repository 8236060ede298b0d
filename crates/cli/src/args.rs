//! `--key value` argument parsing.

use std::collections::BTreeMap;
use std::fmt;

/// CLI errors.
///
/// The split matters for exit codes: [`CliError::Usage`] and
/// [`CliError::Config`] are the caller's fault (exit 2), everything else is
/// a runtime failure (exit 1).
#[derive(Debug)]
pub enum CliError {
    /// Bad invocation: unknown command, missing/duplicate/unparsable flags.
    Usage(String),
    /// Flags parsed but describe an invalid configuration (rejected by the
    /// substrate's validation rather than by the flag parser).
    Config(String),
    /// Filesystem or serialization failure.
    Io(std::io::Error),
    /// A substrate error (data, training).
    Runtime(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "usage error: {msg}"),
            CliError::Config(msg) => write!(f, "configuration error: {msg}"),
            CliError::Io(e) => write!(f, "I/O error: {e}"),
            CliError::Runtime(msg) => write!(f, "error: {msg}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

/// Parsed `--key value` flags.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Args {
    flags: BTreeMap<String, String>,
}

impl Args {
    /// Raw lookup.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// Required string flag.
    ///
    /// # Errors
    /// [`CliError::Usage`] when absent.
    pub(crate) fn required(&self, key: &str) -> Result<&str, CliError> {
        self.get(key)
            .ok_or_else(|| CliError::Usage(format!("missing required flag --{key}")))
    }

    /// Optional typed flag with a default.
    ///
    /// # Errors
    /// [`CliError::Usage`] when present but unparsable.
    pub(crate) fn parse_or<T: std::str::FromStr>(
        &self,
        key: &str,
        default: T,
    ) -> Result<T, CliError> {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| CliError::Usage(format!("flag --{key} has unparsable value {raw:?}"))),
        }
    }

    /// Required typed flag.
    ///
    /// # Errors
    /// [`CliError::Usage`] when absent or unparsable.
    pub(crate) fn parse_required<T: std::str::FromStr>(&self, key: &str) -> Result<T, CliError> {
        let raw = self.required(key)?;
        raw.parse()
            .map_err(|_| CliError::Usage(format!("flag --{key} has unparsable value {raw:?}")))
    }

    /// Refuse any flag outside `accepted`, naming the first one.
    ///
    /// # Errors
    /// [`CliError::Usage`] for a flag `command` does not accept.
    pub(crate) fn reject_unknown(&self, command: &str, accepted: &[&str]) -> Result<(), CliError> {
        match self.flags.keys().find(|k| !accepted.contains(&k.as_str())) {
            Some(key) => Err(CliError::Usage(format!(
                "`{command}` does not accept flag --{key}; try `evoforecast help`"
            ))),
            None => Ok(()),
        }
    }

    /// Build from key/value pairs (used by tests).
    pub fn from_pairs(pairs: &[(&str, &str)]) -> Args {
        Args {
            flags: pairs
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        }
    }
}

/// Split `argv` (without the program name) into `(command, flags)`.
///
/// # Errors
/// [`CliError::Usage`] on empty input, stray positional arguments, missing
/// flag values, or duplicated flags.
pub fn parse(argv: &[String]) -> Result<(String, Args), CliError> {
    let mut it = argv.iter();
    let command = it
        .next()
        .ok_or_else(|| CliError::Usage("no command given; try `evoforecast help`".into()))?
        .clone();
    let mut flags = BTreeMap::new();
    while let Some(token) = it.next() {
        let key = token
            .strip_prefix("--")
            .ok_or_else(|| CliError::Usage(format!("expected --flag, got {token:?}")))?;
        if key.is_empty() {
            return Err(CliError::Usage("empty flag name".into()));
        }
        let value = it
            .next()
            .ok_or_else(|| CliError::Usage(format!("flag --{key} is missing its value")))?;
        if flags.insert(key.to_string(), value.clone()).is_some() {
            return Err(CliError::Usage(format!("flag --{key} given twice")));
        }
    }
    Ok((command, Args { flags }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_command_and_flags() {
        let (cmd, args) = parse(&sv(&["train", "--window", "24", "--out", "m.json"])).unwrap();
        assert_eq!(cmd, "train");
        assert_eq!(args.get("window"), Some("24"));
        assert_eq!(args.get("out"), Some("m.json"));
        assert_eq!(args.get("missing"), None);
    }

    #[test]
    fn rejects_empty_positional_and_dangling() {
        assert!(matches!(parse(&[]), Err(CliError::Usage(_))));
        assert!(matches!(
            parse(&sv(&["train", "oops"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&sv(&["train", "--window"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&sv(&["train", "--", "x"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn rejects_duplicates() {
        assert!(matches!(
            parse(&sv(&["x", "--a", "1", "--a", "2"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn typed_accessors() {
        let args = Args::from_pairs(&[("n", "42"), ("bad", "xyz")]);
        assert_eq!(args.parse_or("n", 0usize).unwrap(), 42);
        assert_eq!(args.parse_or("absent", 7usize).unwrap(), 7);
        assert!(args.parse_or("bad", 0usize).is_err());
        assert_eq!(args.parse_required::<usize>("n").unwrap(), 42);
        assert!(args.parse_required::<usize>("absent").is_err());
        assert!(args.required("absent").is_err());
        assert_eq!(args.required("n").unwrap(), "42");
    }

    #[test]
    fn error_display() {
        assert!(CliError::Usage("x".into()).to_string().contains("usage"));
        assert!(CliError::Config("bad emax".into())
            .to_string()
            .contains("configuration"));
        let io: CliError = std::io::Error::new(std::io::ErrorKind::NotFound, "gone").into();
        assert!(io.to_string().contains("gone"));
        assert!(CliError::Runtime("boom".into())
            .to_string()
            .contains("boom"));
    }
}
