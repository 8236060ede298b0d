//! Minimal CSV read/write for time series.
//!
//! One value per line (optionally `index,value`), `#`-prefixed comments and
//! blank lines ignored. Enough to persist generated series so an experiment
//! can be re-run on the exact data that produced a published number, without
//! pulling in a CSV dependency.

use crate::error::DataError;
use crate::series::TimeSeries;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Read a series from a reader: one float per line, or `index,value` pairs
/// (the last comma-separated field is taken as the value).
///
/// # Errors
/// * [`DataError::Io`] on read failure,
/// * [`DataError::Parse`] with the offending line number,
/// * [`DataError::NonFiniteInput`] when a cell parses as `nan`/`inf`, with
///   the offending line number,
/// * [`DataError::EmptySeries`] / [`DataError::NonFinite`] from validation.
fn read_series<R: Read>(name: &str, reader: R) -> Result<TimeSeries, DataError> {
    let buf = BufReader::new(reader);
    let mut values = Vec::new();
    let mut line_buf = String::new();
    let mut reader = buf;
    let mut line_no = 0usize;
    loop {
        line_buf.clear();
        let n = reader.read_line(&mut line_buf)?;
        if n == 0 {
            break;
        }
        line_no += 1;
        let line = line_buf.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let cell = line.rsplit(',').next().unwrap_or(line).trim();
        let v: f64 = cell.parse().map_err(|_| DataError::Parse {
            line: line_no,
            value: cell.to_string(),
        })?;
        // Rust's float parser accepts "nan"/"inf"; reject them here so the
        // error names the source line rather than a downstream window index.
        if !v.is_finite() {
            return Err(DataError::NonFiniteInput {
                line: line_no,
                value: cell.to_string(),
            });
        }
        values.push(v);
    }
    TimeSeries::new(name, values)
}

/// Read a series from a file: one float per line, or `index,value` pairs
/// (the last comma-separated field is taken as the value). The file stem
/// becomes the series name.
///
/// # Errors
/// * [`DataError::Io`] on open or read failure,
/// * [`DataError::Parse`] with the offending line number,
/// * [`DataError::NonFiniteInput`] when a cell parses as `nan`/`inf`, with
///   the offending line number,
/// * [`DataError::EmptySeries`] / [`DataError::NonFinite`] from validation.
pub fn read_series_file(path: impl AsRef<Path>) -> Result<TimeSeries, DataError> {
    let path = path.as_ref();
    let name = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "series".to_string());
    let file = File::open(path)?;
    read_series(&name, file)
}

/// Write a series to a writer as `index,value` lines with a comment header.
///
/// # Errors
/// [`DataError::Io`] on write failure.
pub fn write_series<W: Write>(series: &TimeSeries, writer: W) -> Result<(), DataError> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "# series: {}", series.name())?;
    writeln!(w, "# points: {}", series.len())?;
    for (i, v) in series.values().iter().enumerate() {
        writeln!(w, "{i},{v}")?;
    }
    w.flush()?;
    Ok(())
}

/// Write a series to a file.
///
/// # Errors
/// See [`write_series`].
pub fn write_series_file(series: &TimeSeries, path: impl AsRef<Path>) -> Result<(), DataError> {
    let file = File::create(path)?;
    write_series(series, file)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_through_memory() {
        let s = TimeSeries::new("tide", vec![1.5, -2.25, 0.0, 100.0]).unwrap();
        let mut buf = Vec::new();
        write_series(&s, &mut buf).unwrap();
        let back = read_series("tide", buf.as_slice()).unwrap();
        assert_eq!(back.values(), s.values());
        assert_eq!(back.name(), "tide");
    }

    #[test]
    fn reads_plain_values_and_comments() {
        let text = "# header\n1.0\n\n2.5\n# trailing comment\n-3.0\n";
        let s = read_series("x", text.as_bytes()).unwrap();
        assert_eq!(s.values(), &[1.0, 2.5, -3.0]);
    }

    #[test]
    fn reads_index_value_pairs() {
        let text = "0,10.0\n1,20.0\n2,30.5\n";
        let s = read_series("x", text.as_bytes()).unwrap();
        assert_eq!(s.values(), &[10.0, 20.0, 30.5]);
    }

    #[test]
    fn parse_error_reports_line() {
        let text = "1.0\nnot_a_number\n";
        match read_series("x", text.as_bytes()) {
            Err(DataError::Parse { line, value }) => {
                assert_eq!(line, 2);
                assert_eq!(value, "not_a_number");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn non_finite_cells_rejected_with_line_context() {
        // "nan" and "inf" parse as floats; the loader must still refuse them
        // and name the line they came from.
        let text = "1.0\n2.0\nnan\n4.0\n";
        match read_series("x", text.as_bytes()) {
            Err(DataError::NonFiniteInput { line, value }) => {
                assert_eq!(line, 3);
                assert_eq!(value, "nan");
            }
            other => panic!("expected non-finite input error, got {other:?}"),
        }
        // Comments and blanks don't shift the reported line number.
        let text = "# header\n\n0,1.0\n1,-inf\n";
        match read_series("x", text.as_bytes()) {
            Err(DataError::NonFiniteInput { line, value }) => {
                assert_eq!(line, 4);
                assert_eq!(value, "-inf");
            }
            other => panic!("expected non-finite input error, got {other:?}"),
        }
    }

    #[test]
    fn empty_input_rejected() {
        assert!(matches!(
            read_series("x", "".as_bytes()),
            Err(DataError::EmptySeries)
        ));
        assert!(matches!(
            read_series("x", "# only comments\n".as_bytes()),
            Err(DataError::EmptySeries)
        ));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join(format!("evoforecast_io_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.csv");
        let s = TimeSeries::new("roundtrip", vec![0.25, 0.5, 0.75]).unwrap();
        write_series_file(&s, &path).unwrap();
        let back = read_series_file(&path).unwrap();
        assert_eq!(back.values(), s.values());
        assert_eq!(back.name(), "roundtrip");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(matches!(
            read_series_file("/nonexistent/definitely/missing.csv"),
            Err(DataError::Io(_))
        ));
    }
}
