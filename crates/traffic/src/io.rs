//! Trace import/export in a simple CSV format
//! (`time_ms,size_bytes,direction,flow`), so traces can round-trip to
//! external tools (or real captures can be fed into the §2.2 analysis
//! pipeline).

use crate::trace::{Direction, PacketRecord, Trace};
use std::fmt::Write as _;
use std::path::Path;

/// Errors from trace parsing.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceIoError {
    /// A line did not have the four expected fields.
    BadFieldCount {
        /// 1-based line number.
        line: usize,
    },
    /// A numeric field failed to parse, or parsed to a value outside its
    /// domain: a non-finite time, a negative or non-finite size.
    BadNumber {
        /// 1-based line number.
        line: usize,
        /// The offending field text.
        field: String,
    },
    /// The direction field was neither `up` nor `down`.
    BadDirection {
        /// 1-based line number.
        line: usize,
        /// The offending field text.
        field: String,
    },
    /// Underlying I/O failure (message-only, keeps the error `Clone`).
    Io(String),
}

impl std::fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceIoError::BadFieldCount { line } => {
                write!(f, "line {line}: expected 4 comma-separated fields")
            }
            TraceIoError::BadNumber { line, field } => {
                write!(f, "line {line}: invalid number `{field}`")
            }
            TraceIoError::BadDirection { line, field } => {
                write!(
                    f,
                    "line {line}: direction must be `up` or `down`, got `{field}`"
                )
            }
            TraceIoError::Io(msg) => write!(f, "io error: {msg}"),
        }
    }
}

impl std::error::Error for TraceIoError {}

/// Serializes a trace to CSV (`time_ms,size_bytes,direction,flow`, with a
/// header line).
pub fn trace_to_csv(trace: &Trace) -> String {
    let mut out = String::with_capacity(trace.len() * 32 + 64);
    out.push_str("time_ms,size_bytes,direction,flow\n");
    for r in trace.records() {
        let dir = match r.direction {
            Direction::ClientToServer => "up",
            Direction::ServerToClient => "down",
        };
        let _ = writeln!(out, "{:.6},{:.3},{dir},{}", r.time_ms, r.size_bytes, r.flow);
    }
    out
}

/// Parses a CSV trace (header line optional); records are re-sorted by
/// timestamp.
pub fn trace_from_csv(text: &str) -> Result<Trace, TraceIoError> {
    let mut records = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.trim();
        if line.is_empty() || (i == 0 && line.starts_with("time_ms")) {
            continue;
        }
        let fields: Vec<&str> = line.split(',').map(str::trim).collect();
        if fields.len() != 4 {
            return Err(TraceIoError::BadFieldCount { line: line_no });
        }
        let num = |s: &str, valid: fn(f64) -> bool| -> Result<f64, TraceIoError> {
            s.parse::<f64>()
                .ok()
                .filter(|&v| valid(v))
                .ok_or_else(|| TraceIoError::BadNumber {
                    line: line_no,
                    field: s.to_string(),
                })
        };
        let time_ms = num(fields[0], f64::is_finite)?;
        let size_bytes = num(fields[1], |v| v.is_finite() && v >= 0.0)?;
        let direction = match fields[2] {
            "up" => Direction::ClientToServer,
            "down" => Direction::ServerToClient,
            other => {
                return Err(TraceIoError::BadDirection {
                    line: line_no,
                    field: other.to_string(),
                })
            }
        };
        let flow = fields[3]
            .parse::<u16>()
            .map_err(|_| TraceIoError::BadNumber {
                line: line_no,
                field: fields[3].to_string(),
            })?;
        records.push(PacketRecord {
            time_ms,
            size_bytes,
            direction,
            flow,
        });
    }
    Ok(Trace::from_records(records))
}

/// Writes a trace to a file.
pub fn write_trace(trace: &Trace, path: &Path) -> Result<(), TraceIoError> {
    std::fs::write(path, trace_to_csv(trace)).map_err(|e| TraceIoError::Io(e.to_string()))
}

/// Reads a trace from a file.
pub fn read_trace(path: &Path) -> Result<Trace, TraceIoError> {
    let text = std::fs::read_to_string(path).map_err(|e| TraceIoError::Io(e.to_string()))?;
    trace_from_csv(&text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::LanPartyConfig;

    #[test]
    fn round_trip_preserves_records() {
        let cfg = LanPartyConfig {
            players: 3,
            duration_ms: 3_000.0,
            ..Default::default()
        };
        let lan = cfg.generate(5);
        let csv = trace_to_csv(&lan.trace);
        let back = trace_from_csv(&csv).unwrap();
        assert_eq!(back.len(), lan.trace.len());
        for (a, b) in lan.trace.records().iter().zip(back.records()) {
            assert!((a.time_ms - b.time_ms).abs() < 1e-5);
            assert!((a.size_bytes - b.size_bytes).abs() < 1e-2);
            assert_eq!(a.direction, b.direction);
            assert_eq!(a.flow, b.flow);
        }
    }

    #[test]
    fn analysis_survives_round_trip() {
        let lan = LanPartyConfig {
            players: 4,
            duration_ms: 20_000.0,
            ..Default::default()
        }
        .generate(6);
        let back = trace_from_csv(&trace_to_csv(&lan.trace)).unwrap();
        let a = crate::analysis::TraceStats::compute(&lan.trace, 5.0);
        let b = crate::analysis::TraceStats::compute(&back, 5.0);
        assert_eq!(a.n_bursts, b.n_bursts);
        assert!((a.server_packet.0 - b.server_packet.0).abs() < 0.01);
        assert!((a.burst_size.0 - b.burst_size.0).abs() < 0.1);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        assert!(matches!(
            trace_from_csv("1.0,2.0,up\n"),
            Err(TraceIoError::BadFieldCount { line: 1 })
        ));
        assert!(matches!(
            trace_from_csv("time_ms,size_bytes,direction,flow\n1.0,x,up,0\n"),
            Err(TraceIoError::BadNumber { line: 2, .. })
        ));
        assert!(matches!(
            trace_from_csv("1.0,2.0,sideways,0\n"),
            Err(TraceIoError::BadDirection { line: 1, .. })
        ));
    }

    /// `f64` parsing accepts `NaN` and `inf`: a NaN time used to panic in
    /// `Trace::from_records`, an infinite one gave a NaN duration, and a
    /// negative or infinite size went through.
    #[test]
    fn non_finite_times_and_bad_sizes_are_refused_with_their_line() {
        for (row, field) in [
            ("NaN,100.0,up,0", "NaN"),
            ("inf,100.0,up,0", "inf"),
            ("1.0,-5.0,up,0", "-5.0"),
            ("1.0,inf,down,0", "inf"),
        ] {
            let csv = format!("time_ms,size_bytes,direction,flow\n0.5,80.0,up,0\n{row}\n");
            assert_eq!(
                trace_from_csv(&csv).err(),
                Some(TraceIoError::BadNumber {
                    line: 3,
                    field: field.to_string()
                }),
                "{row}"
            );
        }
    }

    #[test]
    fn header_is_optional_and_blank_lines_skipped() {
        let t = trace_from_csv("1.0,100.0,down,2\n\n2.0,70.0,up,1\n").unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.records()[0].flow, 2);
    }

    #[test]
    fn file_round_trip() {
        let lan = LanPartyConfig {
            players: 2,
            duration_ms: 2_000.0,
            ..Default::default()
        }
        .generate(7);
        let dir = std::env::temp_dir().join("fpsping_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.csv");
        write_trace(&lan.trace, &path).unwrap();
        let back = read_trace(&path).unwrap();
        assert_eq!(back.len(), lan.trace.len());
        std::fs::remove_file(&path).unwrap();
    }
}
