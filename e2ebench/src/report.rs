//! The result line and the run record.

use std::fmt::Write as _;

/// Named metrics with units, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            !self.entries.iter().any(|(n, _, _)| *n == name),
            "metric {name} reported twice"
        );
        self.entries.push((name, value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries.iter().find(|(n, _, _)| n == name).map(|e| e.1)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &'static str)> {
        self.entries.iter().map(|(n, v, u)| (n.as_str(), *v, *u))
    }

    fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

/// The final line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.json()
    )
}

/// A JSON string literal (for the record line).
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
