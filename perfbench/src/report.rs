//! The result record: metrics by name and unit, operation counts and the
//! provenance line every record carries.

use std::fmt::Write as _;

/// One measured value.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one workload run measured.
#[derive(Default)]
pub struct Outcome {
    /// Batches offered + windows expected + trails verified.
    pub ops: u64,
    /// Ingest errors or quota rejections, windows whose result differs from
    /// the reference, trails that fail authentication or replay.
    pub ops_failed: u64,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Lines printed beside the metrics (sample counts, configuration).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric { name, value, unit });
    }

    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric { name, value, unit });
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// A JSON number; values that are not finite (a failed window's latency)
/// are written as a huge number, which exceeds every limit.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "1e300".to_string()
    }
}

/// A JSON string literal (inputs here are plain ASCII identifiers and
/// version strings; quotes and backslashes are escaped).
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            c if c.is_control() => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The `metrics` object of the result line, each metric under its key.
pub fn metrics_json(metrics: &[(String, Metric)]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(key, m)| {
            format!("{}:{{\"value\":{},\"unit\":{}}}", string(key), num(m.value), string(m.unit))
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}
