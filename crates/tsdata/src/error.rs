//! Error type for the time-series substrate.

use std::fmt;

/// Errors produced by series construction, windowing, splitting and I/O.
#[derive(Debug)]
pub enum DataError {
    /// The operation requires a non-empty series.
    EmptySeries,
    /// The series contains NaN or infinite values.
    NonFinite {
        /// Index of the first offending value.
        index: usize,
    },
    /// Window parameters don't fit the series.
    WindowTooLarge {
        /// Requested window length `D` plus horizon `τ`.
        needed: usize,
        /// Available series length.
        available: usize,
    },
    /// Invalid parameter (zero window length, bad split fraction, ...).
    InvalidParameter(String),
    /// Normalization is impossible (a constant series for min-max).
    DegenerateRange,
    /// An I/O error wrapped from `std::io`.
    Io(std::io::Error),
    /// A CSV cell failed to parse as a float.
    Parse {
        /// 1-based line number of the offending cell.
        line: usize,
        /// The cell contents.
        value: String,
    },
    /// A CSV cell parsed as a float but was NaN or infinite (Rust's float
    /// parser accepts `nan`/`inf` spellings; the loaders reject them at the
    /// source so the error can name the line instead of a window index).
    NonFiniteInput {
        /// 1-based line number of the offending cell.
        line: usize,
        /// The cell contents as read.
        value: String,
    },
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::EmptySeries => write!(f, "operation requires a non-empty series"),
            DataError::NonFinite { index } => {
                write!(f, "series contains a non-finite value at index {index}")
            }
            DataError::WindowTooLarge { needed, available } => write!(
                f,
                "window+horizon needs {needed} points but series has {available}"
            ),
            DataError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            DataError::DegenerateRange => {
                write!(f, "series has zero range/variance; cannot normalize")
            }
            DataError::Io(e) => write!(f, "I/O error: {e}"),
            DataError::Parse { line, value } => {
                write!(f, "cannot parse {value:?} as a number at line {line}")
            }
            DataError::NonFiniteInput { line, value } => {
                write!(f, "non-finite value {value:?} at line {line}")
            }
        }
    }
}

impl std::error::Error for DataError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DataError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for DataError {
    fn from(e: std::io::Error) -> Self {
        DataError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_all_variants() {
        assert!(DataError::EmptySeries.to_string().contains("non-empty"));
        assert!(DataError::NonFinite { index: 7 }.to_string().contains('7'));
        let w = DataError::WindowTooLarge {
            needed: 30,
            available: 10,
        };
        assert!(w.to_string().contains("30"));
        assert!(w.to_string().contains("10"));
        assert!(DataError::InvalidParameter("D=0".into())
            .to_string()
            .contains("D=0"));
        assert!(DataError::DegenerateRange.to_string().contains("range"));
        let p = DataError::Parse {
            line: 3,
            value: "abc".into(),
        };
        assert!(p.to_string().contains("abc"));
        let nf = DataError::NonFiniteInput {
            line: 5,
            value: "nan".into(),
        };
        assert!(nf.to_string().contains("nan"));
        assert!(nf.to_string().contains('5'));
    }

    #[test]
    fn io_error_wraps_with_source() {
        let e: DataError = std::io::Error::new(std::io::ErrorKind::NotFound, "gone").into();
        assert!(e.to_string().contains("gone"));
        use std::error::Error;
        assert!(e.source().is_some());
        assert!(DataError::EmptySeries.source().is_none());
    }
}
