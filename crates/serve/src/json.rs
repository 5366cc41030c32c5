//! A tiny JSON *writer* (no parser, no serde): string escaping plus a
//! push-style builder for the handful of response shapes the server
//! emits. Numbers are written with enough precision to round-trip the
//! pipeline's `f64` scores deterministically.

use std::fmt::Write as _;

/// Escape and double-quote a string for JSON output.
#[must_use]
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Incremental builder for one JSON object or array tree.
#[derive(Debug, Default)]
pub struct JsonWriter {
    buf: String,
    need_comma: Vec<bool>,
}

impl JsonWriter {
    /// Fresh writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn pre_value(&mut self) {
        if let Some(need) = self.need_comma.last_mut() {
            if *need {
                self.buf.push(',');
            }
            *need = true;
        }
    }

    /// Open `{`.
    pub fn begin_object(&mut self) -> &mut Self {
        self.pre_value();
        self.buf.push('{');
        self.need_comma.push(false);
        self
    }

    /// Close `}`.
    pub fn end_object(&mut self) -> &mut Self {
        self.buf.push('}');
        self.need_comma.pop();
        self
    }

    /// Open `[`.
    pub fn begin_array(&mut self) -> &mut Self {
        self.pre_value();
        self.buf.push('[');
        self.need_comma.push(false);
        self
    }

    /// Close `]`.
    pub fn end_array(&mut self) -> &mut Self {
        self.buf.push(']');
        self.need_comma.pop();
        self
    }

    /// Write an object key (follow with exactly one value call).
    pub fn key(&mut self, name: &str) -> &mut Self {
        self.pre_value();
        self.buf.push_str(&quote(name));
        self.buf.push(':');
        // The upcoming value must not emit its own comma.
        if let Some(need) = self.need_comma.last_mut() {
            *need = false;
        }
        self
    }

    /// String value.
    pub fn string(&mut self, v: &str) -> &mut Self {
        self.pre_value();
        self.buf.push_str(&quote(v));
        self
    }

    /// Integer value.
    pub fn uint(&mut self, v: u64) -> &mut Self {
        self.pre_value();
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Float value (finite; non-finite writes `null`).
    pub fn float(&mut self, v: f64) -> &mut Self {
        self.pre_value();
        if v.is_finite() {
            // {:?} prints the shortest representation that round-trips.
            let _ = write!(self.buf, "{v:?}");
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Boolean value.
    pub fn boolean(&mut self, v: bool) -> &mut Self {
        self.pre_value();
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Consume the writer, returning the JSON text.
    #[must_use]
    pub fn finish(self) -> String {
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(quote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(quote("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn builds_nested_structures() {
        let mut w = JsonWriter::new();
        w.begin_object()
            .key("n")
            .uint(3)
            .key("score")
            .float(0.5)
            .key("ok")
            .boolean(true)
            .key("items")
            .begin_array()
            .string("a")
            .string("b")
            .end_array()
            .key("inner")
            .begin_object()
            .key("x")
            .uint(1)
            .end_object()
            .end_object();
        assert_eq!(
            w.finish(),
            r#"{"n":3,"score":0.5,"ok":true,"items":["a","b"],"inner":{"x":1}}"#
        );
    }

    #[test]
    fn top_level_array() {
        let mut w = JsonWriter::new();
        w.begin_array().uint(1).uint(2).end_array();
        assert_eq!(w.finish(), "[1,2]");
    }
}
