//! Minimal CSV persistence for measurement traces.
//!
//! The repro harness writes every regenerated table/figure as CSV under
//! `results/`, and traces can be exported for external plotting. The format
//! is deliberately simple: a header line, then `time,value` rows.

use crate::series::{Series, SeriesError};
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// Errors raised while reading a trace file.
#[derive(Debug)]
pub enum CsvError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A malformed row (wrong column count or unparseable number).
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// The parsed data violated series invariants.
    Series(SeriesError),
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "io error: {e}"),
            CsvError::Parse { line, message } => write!(f, "line {line}: {message}"),
            CsvError::Series(e) => write!(f, "series error: {e}"),
        }
    }
}

impl std::error::Error for CsvError {}

impl From<io::Error> for CsvError {
    fn from(e: io::Error) -> Self {
        CsvError::Io(e)
    }
}

impl From<SeriesError> for CsvError {
    fn from(e: SeriesError) -> Self {
        CsvError::Series(e)
    }
}

/// Renders a single series as `time,value` CSV text.
pub fn series_to_csv(series: &Series) -> String {
    let mut out = String::with_capacity(series.len() * 24 + 32);
    let _ = writeln!(out, "time,{}", sanitize_header(series.name()));
    for p in series.iter() {
        let _ = writeln!(out, "{},{}", p.time, p.value);
    }
    out
}

/// Writes a single series to `path` as CSV, creating parent directories.
pub fn write_series(series: &Series, path: impl AsRef<Path>) -> Result<(), CsvError> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    fs::write(path, series_to_csv(series))?;
    Ok(())
}

/// Reads a `time,value` CSV (with a single header line) back into a series.
///
/// The series takes its name from the second header column.
pub fn read_series(path: impl AsRef<Path>) -> Result<Series, CsvError> {
    let text = fs::read_to_string(path)?;
    parse_series(&text)
}

/// Parses `time,value` CSV text into a series.
pub fn parse_series(text: &str) -> Result<Series, CsvError> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or(CsvError::Parse {
        line: 1,
        message: "empty file".into(),
    })?;
    let name = header.split(',').nth(1).unwrap_or("series").trim();
    let mut series = Series::new(name);
    for (idx, line) in lines {
        let line_no = idx + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let mut parts = trimmed.split(',');
        let time = parse_field(parts.next(), line_no, "time")?;
        let value = parse_field(parts.next(), line_no, "value")?;
        if parts.next().is_some() {
            return Err(CsvError::Parse {
                line: line_no,
                message: "expected exactly two columns".into(),
            });
        }
        series.push(time, value)?;
    }
    Ok(series)
}

fn parse_field(field: Option<&str>, line: usize, what: &str) -> Result<f64, CsvError> {
    let raw = field.ok_or_else(|| CsvError::Parse {
        line,
        message: format!("missing {what} column"),
    })?;
    raw.trim().parse::<f64>().map_err(|e| CsvError::Parse {
        line,
        message: format!("bad {what} value {raw:?}: {e}"),
    })
}

/// Replaces commas/newlines in a header label so it cannot break the format.
fn sanitize_header(name: &str) -> String {
    name.replace([',', '\n', '\r'], "_")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Series {
        Series::from_values("avail", 0.0, 10.0, [0.5, 0.25, 1.0]).unwrap()
    }

    #[test]
    fn roundtrip_text() {
        let s = sample();
        let text = series_to_csv(&s);
        let back = parse_series(&text).unwrap();
        assert_eq!(back.name(), "avail");
        assert_eq!(back.values(), s.values());
        assert_eq!(back.times(), s.times());
    }

    #[test]
    fn roundtrip_file() {
        let dir = std::env::temp_dir().join("nws-csv-test");
        let path = dir.join("trace.csv");
        write_series(&sample(), &path).unwrap();
        let back = read_series(&path).unwrap();
        assert_eq!(back, sample());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(matches!(
            parse_series("time,v\n1.0,abc\n"),
            Err(CsvError::Parse { line: 2, .. })
        ));
        assert!(matches!(
            parse_series("time,v\n1.0\n"),
            Err(CsvError::Parse { line: 2, .. })
        ));
        assert!(matches!(
            parse_series("time,v\n1.0,2.0,3.0\n"),
            Err(CsvError::Parse { line: 2, .. })
        ));
        assert!(matches!(
            parse_series(""),
            Err(CsvError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn parse_skips_blank_lines_and_sanitizes_header() {
        let mut s = Series::new("a,b\nc");
        s.push(1.0, 2.0).unwrap();
        let text = series_to_csv(&s);
        assert!(text.starts_with("time,a_b_c\n"));
        let back = parse_series("time,v\n\n1.0,2.0\n\n").unwrap();
        assert_eq!(back.len(), 1);
    }

    #[test]
    fn parse_enforces_monotonic_time() {
        let err = parse_series("time,v\n2.0,1.0\n1.0,1.0\n").unwrap_err();
        assert!(matches!(err, CsvError::Series(_)));
    }
}
