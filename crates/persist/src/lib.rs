//! # etap-persist — the shared text-format codec
//!
//! Every artifact ETAP puts on disk (trained models, ranked event
//! books, generation manifests) speaks one line-oriented text format.
//! The discipline was first hand-rolled inside `etap::persist` for
//! `.model` files; this crate extracts it into a reusable codec so all
//! serialization shares a single implementation of the parts that are
//! easy to get subtly wrong:
//!
//! * **Versioned header** — `ETAP <KIND> v<version>`. Readers name the
//!   kind they expect and the highest version they understand; a newer
//!   file fails with [`CodecError::FutureVersion`] instead of being
//!   misparsed.
//! * **Escaped fields** — records are tab-separated fields, one record
//!   per line. Tabs, newlines, carriage returns and backslashes inside
//!   a field are backslash-escaped, so arbitrary text (snippets,
//!   company names, feature terms) round-trips byte-exactly.
//! * **Checksum trailer** — the final line is `#sum <fnv1a64-hex>`
//!   over every preceding byte. A truncated or bit-flipped file is
//!   detected *before* any of its content is trusted, which is what
//!   lets a generation store skip corrupt generations instead of
//!   serving them.
//! * **Typed errors** — [`CodecError`] distinguishes the failure modes
//!   callers handle differently (wrong kind vs. future version vs.
//!   corruption vs. a malformed record).
//!
//! The grammar (see DESIGN.md §9 for the per-kind record vocabularies):
//!
//! ```text
//! file    := header record* trailer
//! header  := "ETAP " KIND " v" VERSION "\n"
//! record  := field ("\t" field)* "\n"     ; fields backslash-escaped
//! trailer := "#sum " HEX16 "\n"           ; FNV-1a 64 of all prior bytes
//! ```
//!
//! [`write_atomic`] supplies the companion crash-safety discipline:
//! write to a temp file, `fsync`, rename into place, `fsync` the
//! directory — a crash leaves either the old file or the new one,
//! never a torn hybrid.

// `deny` rather than `forbid`: the zero-copy arena (`arena` module)
// hand-rolls `mmap(2)` behind a narrowly scoped `#[allow(unsafe_code)]`
// — the only unsafe in the workspace. Everything else stays safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod binfmt;

pub use arena::{open_arena, Arena};
pub use binfmt::{bin_open, BinView, BinWriter};

use std::fmt;
use std::io;
use std::path::Path;

/// Why a document could not be decoded.
#[derive(Debug)]
pub enum CodecError {
    /// The first line is not `ETAP <kind> v<n>`, or names another kind.
    BadHeader {
        /// Kind the reader expected.
        expected: String,
        /// First line actually found (truncated for display).
        found: String,
    },
    /// The header names a version newer than the reader supports.
    FutureVersion {
        /// Kind from the header.
        kind: String,
        /// Version from the header.
        version: u32,
        /// Highest version this reader understands.
        supported: u32,
    },
    /// The `#sum` trailer is missing — the file was truncated.
    Truncated,
    /// The `#sum` trailer does not match the content.
    BadChecksum {
        /// Checksum recorded in the trailer.
        stored: u64,
        /// Checksum computed over the content.
        computed: u64,
    },
    /// A record violates its kind's vocabulary (bad field count, an
    /// unparsable number, an unknown tag, a duplicate entry…).
    Malformed {
        /// 1-based line number of the offending record.
        line: usize,
        /// Human-readable description.
        msg: String,
    },
    /// Transport failure reading or writing the file.
    Io(io::Error),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadHeader { expected, found } => {
                write!(f, "bad header: expected `ETAP {expected} v<n>`, found {found:?}")
            }
            Self::FutureVersion {
                kind,
                version,
                supported,
            } => write!(
                f,
                "{kind} v{version} is newer than this reader (supports up to v{supported})"
            ),
            Self::Truncated => write!(f, "missing #sum trailer (file truncated?)"),
            Self::BadChecksum { stored, computed } => write!(
                f,
                "checksum mismatch: trailer says {stored:016x}, content hashes to {computed:016x}"
            ),
            Self::Malformed { line, msg } => write!(f, "line {line}: {msg}"),
            Self::Io(e) => write!(f, "i/o: {e}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<io::Error> for CodecError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<CodecError> for io::Error {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Io(inner) => inner,
            other => io::Error::new(io::ErrorKind::InvalidData, other),
        }
    }
}

/// FNV-1a 64-bit hash — the trailer checksum. Not cryptographic; it
/// guards against truncation and accidental corruption, the failure
/// modes a local generation store actually sees.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn escape_into(out: &mut String, field: &str) {
    for c in field.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
}

fn unescape(field: &str, line: usize) -> Result<String, CodecError> {
    if !field.contains('\\') {
        return Ok(field.to_string());
    }
    let mut out = String::with_capacity(field.len());
    let mut chars = field.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            other => {
                return Err(CodecError::Malformed {
                    line,
                    msg: format!("bad escape `\\{}`", other.map_or(String::new(), String::from)),
                })
            }
        }
    }
    Ok(out)
}

/// Builds one document: header, escaped records, checksum trailer.
#[derive(Debug)]
pub struct Writer {
    buf: String,
}

impl Writer {
    /// Start a document of `kind` (conventionally SCREAMING-KEBAB) at
    /// `version`.
    #[must_use]
    pub fn new(kind: &str, version: u32) -> Self {
        debug_assert!(
            kind.bytes().all(|b| b.is_ascii_uppercase() || b == b'-'),
            "kind should be SCREAMING-KEBAB: {kind:?}"
        );
        let mut buf = String::with_capacity(4096);
        buf.push_str("ETAP ");
        buf.push_str(kind);
        buf.push_str(" v");
        buf.push_str(&version.to_string());
        buf.push('\n');
        Self { buf }
    }

    /// Append one record: fields are escaped and tab-joined.
    pub fn record<I, S>(&mut self, fields: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut first = true;
        for f in fields {
            if !first {
                self.buf.push('\t');
            }
            first = false;
            escape_into(&mut self.buf, f.as_ref());
        }
        self.buf.push('\n');
        self
    }

    /// Bytes written so far (header + records, before the trailer).
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing beyond the header has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.matches('\n').count() <= 1
    }

    /// Seal the document: append the `#sum` trailer and return the text.
    #[must_use]
    pub fn finish(mut self) -> String {
        let sum = fnv1a64(self.buf.as_bytes());
        self.buf.push_str("#sum ");
        self.buf.push_str(&format!("{sum:016x}"));
        self.buf.push('\n');
        self.buf
    }
}

/// One decoded record: unescaped fields plus its source line number
/// (for error reporting).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// 1-based line number in the source document.
    pub line: usize,
    /// Unescaped fields.
    pub fields: Vec<String>,
}

impl Record {
    /// The record's first field — by convention its tag. Empty string
    /// for an empty record.
    #[must_use]
    pub fn tag(&self) -> &str {
        self.fields.first().map_or("", String::as_str)
    }

    /// A malformed-record error pinned to this record's line.
    #[must_use]
    pub fn malformed(&self, msg: impl Into<String>) -> CodecError {
        CodecError::Malformed {
            line: self.line,
            msg: msg.into(),
        }
    }

    /// Field `i` as text.
    ///
    /// # Errors
    /// [`CodecError::Malformed`] when the field is absent.
    pub fn str(&self, i: usize) -> Result<&str, CodecError> {
        self.fields
            .get(i)
            .map(String::as_str)
            .ok_or_else(|| self.malformed(format!("missing field {i} in `{}` record", self.tag())))
    }

    /// Field `i` parsed as any `FromStr` type.
    ///
    /// # Errors
    /// [`CodecError::Malformed`] when absent or unparsable.
    pub fn parse<T: std::str::FromStr>(&self, i: usize) -> Result<T, CodecError> {
        let s = self.str(i)?;
        s.parse().map_err(|_| {
            self.malformed(format!(
                "field {i} of `{}` is not a {}: {s:?}",
                self.tag(),
                std::any::type_name::<T>()
            ))
        })
    }
}

/// Parse and validate one document, returning its version and records.
///
/// Validation order matters: checksum first (so corruption is reported
/// as corruption, not as whatever garbage record it produced), then the
/// header, then the records.
///
/// # Errors
/// See [`CodecError`].
pub fn parse(text: &str, kind: &str, max_version: u32) -> Result<(u32, Vec<Record>), CodecError> {
    // The trailer is the final newline-terminated line. Anchoring it to
    // the line structure (rather than searching for "#sum ") keeps a
    // record that happens to contain that text from being mistaken for
    // the trailer of a truncated file.
    let without_final_nl = text.strip_suffix('\n').ok_or(CodecError::Truncated)?;
    let (body_text, trailer) = without_final_nl
        .rsplit_once('\n')
        .unwrap_or(("", without_final_nl));
    let stored = trailer
        .strip_prefix("#sum ")
        .and_then(|hex| u64::from_str_radix(hex.trim(), 16).ok())
        .ok_or(CodecError::Truncated)?;
    let body = if body_text.is_empty() {
        ""
    } else {
        // Re-include the newline that terminated the last body line.
        &text[..body_text.len() + 1]
    };
    let computed = fnv1a64(body.as_bytes());
    if stored != computed {
        return Err(CodecError::BadChecksum { stored, computed });
    }

    let mut lines = body.split_inclusive('\n');
    let header = lines.next().unwrap_or("").trim_end_matches('\n');
    let version = parse_header(header, kind, max_version)?;

    let mut records = Vec::new();
    for (idx, line) in lines.enumerate() {
        let line_no = idx + 2; // 1-based, after the header
        let line = line.trim_end_matches('\n');
        let mut fields = Vec::new();
        for raw in line.split('\t') {
            fields.push(unescape(raw, line_no)?);
        }
        records.push(Record {
            line: line_no,
            fields,
        });
    }
    Ok((version, records))
}

fn parse_header(header: &str, kind: &str, max_version: u32) -> Result<u32, CodecError> {
    let bad = || CodecError::BadHeader {
        expected: kind.to_string(),
        found: header.chars().take(64).collect(),
    };
    let rest = header.strip_prefix("ETAP ").ok_or_else(bad)?;
    let (found_kind, version_part) = rest.rsplit_once(" v").ok_or_else(bad)?;
    if found_kind != kind {
        return Err(bad());
    }
    let version: u32 = version_part.parse().map_err(|_| bad())?;
    if version > max_version {
        return Err(CodecError::FutureVersion {
            kind: kind.to_string(),
            version,
            supported: max_version,
        });
    }
    Ok(version)
}

/// Read a codec file from disk and [`parse`] it.
///
/// # Errors
/// [`CodecError::Io`] on filesystem errors, otherwise see [`parse`].
pub fn read_file(path: &Path, kind: &str, max_version: u32) -> Result<(u32, Vec<Record>), CodecError> {
    let text = std::fs::read_to_string(path)?;
    parse(&text, kind, max_version)
}

/// Crash-safe file write: contents go to `<path>.tmp` first, are
/// fsync'd, renamed over `path`, and the parent directory is fsync'd so
/// the rename itself is durable. A crash at any point leaves either the
/// previous file or the complete new one.
///
/// # Errors
/// Propagates filesystem errors.
pub fn write_atomic(path: &Path, contents: &str) -> io::Result<()> {
    use std::io::Write as _;
    // Fault seam: chaos runs (`ETAP_FAULTS=persist.write=...`) inject
    // IO errors / delays here, before any byte reaches disk — the write
    // either fully happens or fully doesn't, like a real device error.
    etap_runtime::fault::check_io("persist.write")?;
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(contents.as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(parent) = path.parent() {
        // Directory fsync is best-effort: not every platform allows
        // opening a directory for sync, and the rename already happened.
        if let Ok(dir) = std::fs::File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

/// Fsync a directory so a just-completed rename inside it is durable.
/// Best-effort on platforms that refuse directory handles.
pub fn sync_dir(path: &Path) {
    if let Ok(dir) = std::fs::File::open(path) {
        let _ = dir.sync_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny xorshift so the round-trip tests can sweep pseudo-random
    /// inputs without an external property-testing crate (this crate
    /// is dependency-free by design).
    struct XorShift(u64);
    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
        fn string(&mut self, max_len: usize) -> String {
            const ALPHABET: &[char] = &[
                'a', 'Z', '0', ' ', '\t', '\n', '\r', '\\', '#', 'é', '→', '"', '\'', 'v',
            ];
            let len = (self.next() as usize) % (max_len + 1);
            (0..len)
                .map(|_| ALPHABET[(self.next() as usize) % ALPHABET.len()])
                .collect()
        }
    }

    #[test]
    fn empty_document_roundtrips() {
        let text = Writer::new("EMPTY", 1).finish();
        let (version, records) = parse(&text, "EMPTY", 1).expect("parse");
        assert_eq!(version, 1);
        assert!(records.is_empty());
    }

    #[test]
    fn random_fields_roundtrip_exactly() {
        let mut rng = XorShift(0x5EED_CAFE);
        for case in 0..200 {
            let n_records = 1 + (rng.next() as usize) % 8;
            let original: Vec<Vec<String>> = (0..n_records)
                .map(|_| {
                    let n_fields = 1 + (rng.next() as usize) % 6;
                    (0..n_fields).map(|_| rng.string(24)).collect()
                })
                .collect();
            let mut w = Writer::new("FUZZ", 3);
            for rec in &original {
                w.record(rec);
            }
            let text = w.finish();
            let (version, records) = parse(&text, "FUZZ", 3)
                .unwrap_or_else(|e| panic!("case {case}: {e}\n{text:?}"));
            assert_eq!(version, 3);
            let decoded: Vec<Vec<String>> = records.into_iter().map(|r| r.fields).collect();
            assert_eq!(decoded, original, "case {case}");
        }
    }

    #[test]
    fn floats_roundtrip_bit_exactly() {
        let mut rng = XorShift(0xF10A7);
        let mut w = Writer::new("FLOATS", 1);
        let mut originals = Vec::new();
        for _ in 0..500 {
            // Mix raw bit patterns (finite only) and small probabilities.
            let bits = rng.next();
            let f = f64::from_bits(bits);
            let f = if f.is_finite() { f } else { (bits % 1000) as f64 / 997.0 };
            originals.push(f);
            w.record([f.to_string()]);
        }
        let text = w.finish();
        let (_, records) = parse(&text, "FLOATS", 1).expect("parse");
        for (rec, original) in records.iter().zip(&originals) {
            let back: f64 = rec.parse(0).expect("f64");
            assert!(
                back == *original || (back.is_nan() && original.is_nan()),
                "{original:?} -> {back:?}"
            );
        }
    }

    #[test]
    fn truncation_is_detected() {
        let mut w = Writer::new("T", 1);
        for i in 0..50 {
            w.record([format!("record-{i}"), "payload".to_string()]);
        }
        let text = w.finish();
        // Any prefix that loses the trailer (or part of it) must fail.
        for cut in [text.len() - 1, text.len() - 10, text.len() / 2, 10] {
            let err = parse(&text[..cut], "T", 1).expect_err("truncated must fail");
            assert!(
                matches!(err, CodecError::Truncated | CodecError::BadChecksum { .. }),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn corruption_is_detected() {
        let mut w = Writer::new("C", 1);
        w.record(["alpha", "1.5"]);
        w.record(["beta", "2.5"]);
        let text = w.finish();
        // Flip one content byte, keep length: checksum must catch it.
        let mut corrupt = text.clone().into_bytes();
        let mid = corrupt.len() / 2;
        corrupt[mid] = if corrupt[mid] == b'x' { b'y' } else { b'x' };
        let corrupt = String::from_utf8(corrupt).unwrap();
        assert!(matches!(
            parse(&corrupt, "C", 1),
            Err(CodecError::BadChecksum { .. }) | Err(CodecError::Truncated)
        ));
    }

    #[test]
    fn future_version_and_wrong_kind_are_rejected() {
        let text = Writer::new("THING", 7).finish();
        match parse(&text, "THING", 3) {
            Err(CodecError::FutureVersion {
                version, supported, ..
            }) => {
                assert_eq!((version, supported), (7, 3));
            }
            other => panic!("expected FutureVersion, got {other:?}"),
        }
        assert!(matches!(
            parse(&text, "OTHER", 7),
            Err(CodecError::BadHeader { .. })
        ));
        assert!(matches!(
            parse("not a codec file", "THING", 1),
            Err(CodecError::Truncated)
        ));
    }

    #[test]
    fn record_accessors_report_malformed_fields() {
        let mut w = Writer::new("R", 1);
        w.record(["tag", "not-a-number"]);
        let text = w.finish();
        let (_, records) = parse(&text, "R", 1).expect("parse");
        let rec = &records[0];
        assert_eq!(rec.tag(), "tag");
        assert_eq!(rec.str(1).unwrap(), "not-a-number");
        let err = rec.parse::<f64>(1).expect_err("must fail");
        assert!(matches!(err, CodecError::Malformed { line: 2, .. }), "{err}");
        assert!(rec.str(9).is_err());
    }

    #[test]
    fn atomic_write_roundtrips_and_replaces() {
        let dir = std::env::temp_dir().join(format!("etap_persist_atomic_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("doc.etap");
        write_atomic(&path, "first").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "first");
        write_atomic(&path, "second").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second");
        assert!(!path.with_extension("tmp").exists(), "tmp file cleaned up");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn error_display_is_informative() {
        let e = CodecError::FutureVersion {
            kind: "MODEL".into(),
            version: 9,
            supported: 2,
        };
        assert!(e.to_string().contains("MODEL v9"));
        let io_err: io::Error = CodecError::Truncated.into();
        assert_eq!(io_err.kind(), io::ErrorKind::InvalidData);
    }
}
