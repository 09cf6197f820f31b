//! Snapshot and export: human tables, span trees, and JSON.
//!
//! [`snapshot`] captures every registered metric at one instant (each
//! value is read with a relaxed load; the snapshot is per-metric atomic,
//! not globally transactional — fine for diagnostics). The JSON layout is
//! versioned as `fpsping-obs/1`:
//!
//! ```json
//! {
//!   "schema": "fpsping-obs/1",
//!   "counters":   { "engine.cache.rtt.hits": 123 },
//!   "gauges":     { "engine.cache.rtt.entries": 18 },
//!   "histograms": { "num.roots.brent.iterations": {
//!                     "count": 4, "sum": 40,
//!                     "buckets": [ { "le": 15, "n": 4 } ] } },
//!   "spans":      { "cli.sweep": { "count": 1,
//!                     "total_ms": 12.5, "max_ms": 12.5 } },
//!   "warnings":   [ "sim.jobs: ..." ]
//! }
//! ```
//!
//! Keys are sorted; the document is deterministic for a given registry
//! state, so tests and the tier-1 smoke can grep it.

use crate::{lock, registry};
use std::fmt::Write as _;
use std::path::Path;

/// Point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Registry name.
    pub name: String,
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Non-empty buckets as `(inclusive upper bound, count)`.
    pub buckets: Vec<(u64, u64)>,
}

/// Point-in-time copy of one span path's aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSnapshot {
    /// `/`-joined span path.
    pub path: String,
    /// Completed spans.
    pub count: u64,
    /// Total wall-clock milliseconds.
    pub total_ms: f64,
    /// Longest single span in milliseconds.
    pub max_ms: f64,
}

/// Everything the registry knows, captured at one instant and sorted by
/// name for deterministic output.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// `(name, value)` counters.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` gauges.
    pub gauges: Vec<(String, u64)>,
    /// Histograms.
    pub histograms: Vec<HistogramSnapshot>,
    /// Span aggregates.
    pub spans: Vec<SpanSnapshot>,
    /// Warnings recorded via [`crate::warn_once`].
    pub warnings: Vec<String>,
}

/// Captures the current state of every registered metric.
pub fn snapshot() -> Snapshot {
    let reg = registry();
    let mut counters: Vec<(String, u64)> = lock(&reg.counters)
        .iter()
        .map(|c| (c.name().to_string(), c.get()))
        .collect();
    counters.sort();
    let mut gauges: Vec<(String, u64)> = lock(&reg.gauges)
        .iter()
        .map(|g| (g.name().to_string(), g.get()))
        .collect();
    gauges.sort();
    let mut histograms: Vec<HistogramSnapshot> = lock(&reg.histograms)
        .iter()
        .map(|h| HistogramSnapshot {
            name: h.name().to_string(),
            count: h.count(),
            sum: h.sum(),
            buckets: h.buckets(),
        })
        .collect();
    histograms.sort_by(|a, b| a.name.cmp(&b.name));
    let spans: Vec<SpanSnapshot> = lock(&reg.spans)
        .iter()
        .map(|(path, s)| SpanSnapshot {
            path: path.clone(),
            count: s.count,
            total_ms: s.total_ns as f64 / 1e6,
            max_ms: s.max_ns as f64 / 1e6,
        })
        .collect(); // BTreeMap iteration is already path-sorted
    let warnings = lock(&reg.warnings).clone();
    Snapshot {
        counters,
        gauges,
        histograms,
        spans,
        warnings,
    }
}

/// Captures a snapshot and writes its JSON document to `path`.
pub fn write_json(path: &Path) -> std::io::Result<()> {
    std::fs::write(path, snapshot().to_json())
}

impl Snapshot {
    /// The versioned JSON document (schema `fpsping-obs/1`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"fpsping-obs/1\",\n");
        out.push_str("  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    {}: {v}", json_str(name));
        }
        out.push_str(if self.counters.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });
        out.push_str("  \"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    {}: {v}", json_str(name));
        }
        out.push_str(if self.gauges.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });
        out.push_str("  \"histograms\": {");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {}: {{\"count\": {}, \"sum\": {}, \"buckets\": [",
                json_str(&h.name),
                h.count,
                h.sum
            );
            for (j, (le, n)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{{\"le\": {le}, \"n\": {n}}}");
            }
            out.push_str("]}");
        }
        out.push_str(if self.histograms.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });
        out.push_str("  \"spans\": {");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {}: {{\"count\": {}, \"total_ms\": {:.6}, \"max_ms\": {:.6}}}",
                json_str(&s.path),
                s.count,
                s.total_ms,
                s.max_ms
            );
        }
        out.push_str(if self.spans.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });
        out.push_str("  \"warnings\": [");
        for (i, w) in self.warnings.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_str(w));
        }
        out.push_str("]\n}\n");
        out
    }

    /// Human-oriented fixed-width table of counters, gauges, and
    /// histograms (empty sections are omitted).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let width = self
            .counters
            .iter()
            .map(|(n, _)| n.len())
            .chain(self.gauges.iter().map(|(n, _)| n.len()))
            .chain(self.histograms.iter().map(|h| h.name.len()))
            .max()
            .unwrap_or(0);
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "  {name:<width$}  {v}");
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (name, v) in &self.gauges {
                let _ = writeln!(out, "  {name:<width$}  {v}");
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            for h in &self.histograms {
                let mean = if h.count > 0 {
                    h.sum as f64 / h.count as f64
                } else {
                    0.0
                };
                let _ = writeln!(
                    out,
                    "  {:<width$}  count {}  mean {:.1}",
                    h.name, h.count, mean
                );
            }
        }
        if !self.warnings.is_empty() {
            out.push_str("warnings:\n");
            for w in &self.warnings {
                let _ = writeln!(out, "  {w}");
            }
        }
        out
    }

    /// The span tree, indented by nesting depth: each line shows the span
    /// name, completion count, total and mean wall-clock milliseconds,
    /// and the longest single occurrence.
    pub fn render_trace(&self) -> String {
        let mut out = String::new();
        if self.spans.is_empty() {
            return "spans: (none recorded)\n".into();
        }
        out.push_str("spans:\n");
        for s in &self.spans {
            let depth = s.path.matches('/').count();
            let name = s.path.rsplit('/').next().unwrap_or(&s.path);
            let mean = if s.count > 0 {
                s.total_ms / s.count as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "  {:indent$}{name}  ×{}  total {:.3} ms  mean {:.3} ms  max {:.3} ms",
                "",
                s.count,
                s.total_ms,
                mean,
                s.max_ms,
                indent = 2 * depth
            );
        }
        out
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Counter, Gauge, Histogram};

    #[test]
    fn snapshot_carries_registered_metrics() {
        static C: Counter = Counter::new("obs.test.export_counter");
        static G: Gauge = Gauge::new("obs.test.export_gauge");
        static H: Histogram = Histogram::new("obs.test.export_hist");
        C.add(3);
        G.set(9);
        H.record(5);
        let snap = snapshot();
        #[cfg(not(feature = "obs-off"))]
        {
            assert!(snap
                .counters
                .iter()
                .any(|(n, v)| n == "obs.test.export_counter" && *v >= 3));
            assert!(snap
                .gauges
                .iter()
                .any(|(n, v)| n == "obs.test.export_gauge" && *v == 9));
            assert!(snap
                .histograms
                .iter()
                .any(|h| h.name == "obs.test.export_hist" && h.count >= 1));
        }
        #[cfg(feature = "obs-off")]
        {
            assert!(!snap
                .counters
                .iter()
                .any(|(n, _)| n == "obs.test.export_counter"));
        }
    }

    #[test]
    fn json_is_versioned_and_escaped() {
        static C: Counter = Counter::new("obs.test.export_json");
        C.incr();
        let json = snapshot().to_json();
        assert!(json.starts_with("{\n  \"schema\": \"fpsping-obs/1\""));
        assert!(json.ends_with("}\n"));
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn empty_snapshot_renders() {
        let empty = Snapshot::default();
        let json = empty.to_json();
        assert!(json.contains("\"counters\": {}"));
        assert!(json.contains("\"warnings\": []"));
        assert_eq!(empty.render_table(), "");
        assert!(empty.render_trace().contains("none recorded"));
    }

    #[test]
    fn write_json_round_trips_through_a_file() {
        static C: Counter = Counter::new("obs.test.export_file");
        C.incr();
        let path = std::env::temp_dir().join("fpsping_obs_export_test.json");
        write_json(&path).expect("write metrics json");
        let content = std::fs::read_to_string(&path).expect("read back");
        assert!(content.contains("fpsping-obs/1"));
        let _ = std::fs::remove_file(&path);
    }

    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn trace_indents_nested_spans() {
        {
            let _a = crate::span("obs.test.trace_outer");
            let _b = crate::span("obs.test.trace_inner");
        }
        let trace = snapshot().render_trace();
        assert!(trace.contains("obs.test.trace_outer"));
        // The nested line is indented deeper than its parent.
        let outer_indent = trace
            .lines()
            .find(|l| l.trim_start().starts_with("obs.test.trace_outer"))
            .map(|l| l.len() - l.trim_start().len());
        let inner_indent = trace
            .lines()
            .find(|l| l.trim_start().starts_with("obs.test.trace_inner"))
            .map(|l| l.len() - l.trim_start().len());
        assert!(inner_indent > outer_indent, "{trace}");
    }
}
