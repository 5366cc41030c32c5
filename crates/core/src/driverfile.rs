//! `DRIVERS v1`: sales drivers as data.
//!
//! The paper closes §7 with "one may want to introduce new categories
//! of sales drivers quite frequently" — this module makes that a data
//! operation. A drivers file is a checksummed `etap-persist` text
//! document declaring any number of drivers, each fully described:
//! smart queries, an NE-filter expression (the grammar in
//! [`crate::filter`]), orientation-lexicon seeds, and the synthetic-
//! corpus templates that give the driver trigger/distractor coverage.
//!
//! ```text
//! ETAP DRIVERS v1
//! driver <key> <display name>
//! query <smart query>              ×N
//! filter <expression>              (optional; default TRUE)
//! lex <phrase> <weight>            ×N (optional)
//! trigger <template>               ×N
//! distractor <template>            ×N
//! headline <template>              ×N
//! dheadline <template>             ×N
//! driver <key2> …                  (next block)
//! #sum <fnv1a64>
//! ```
//!
//! (fields are tab-separated on disk). [`load_str`] registers each
//! driver in the process-wide registry **in file order** — interned ids
//! are deterministic for a fixed file — attaches its templates, and
//! returns ready [`DriverSpec`]s. Malformed input of any kind surfaces
//! as a typed [`DriverFileError`]; a bad file can never abort the
//! process.

use crate::filter::Filter;
use crate::orientation::OrientationLexicon;
use crate::spec::{DriverSpec, SpecError};
use etap_corpus::{DriverTemplates, SalesDriver};
use etap_persist::{CodecError, Writer};
use std::fmt;
use std::io;
use std::path::Path;

/// Codec kind of driver-definition documents.
pub const DRIVERS_KIND: &str = "DRIVERS";
/// Highest `DRIVERS` version this build reads/writes.
pub const DRIVERS_VERSION: u32 = 1;

/// One driver block of a `DRIVERS` file, exactly as written — the
/// registry-free representation [`to_string`] encodes and
/// [`parse_defs`] decodes.
#[derive(Debug, Clone, PartialEq)]
pub struct DriverDef {
    /// Stable key (`[a-z0-9_-]+`) used in artifacts and request paths.
    pub key: String,
    /// Human-readable display name.
    pub name: String,
    /// Smart queries (§3.3.1 step 1).
    pub smart_queries: Vec<String>,
    /// NE-filter expression; empty means `TRUE`.
    pub filter_expr: String,
    /// Orientation-lexicon seed phrases.
    pub lexicon: Vec<(String, f64)>,
    /// Synthetic-corpus templates (see [`DriverTemplates`]).
    pub templates: DriverTemplates,
}

/// A drivers file failed to load.
#[derive(Debug)]
pub enum DriverFileError {
    /// The container was unreadable (header, checksum, truncation…).
    Codec(CodecError),
    /// A driver block was structurally invalid.
    Bad {
        /// Key of the offending driver block ("" before the first).
        key: String,
        /// What went wrong.
        msg: String,
    },
}

impl fmt::Display for DriverFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriverFileError::Codec(e) => write!(f, "{e}"),
            DriverFileError::Bad { key, msg } if key.is_empty() => {
                write!(f, "drivers file: {msg}")
            }
            DriverFileError::Bad { key, msg } => write!(f, "driver {key:?}: {msg}"),
        }
    }
}

impl std::error::Error for DriverFileError {}

impl From<CodecError> for DriverFileError {
    fn from(e: CodecError) -> Self {
        DriverFileError::Codec(e)
    }
}

impl From<DriverFileError> for io::Error {
    fn from(e: DriverFileError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e.to_string())
    }
}

/// Serialize driver definitions to a `DRIVERS v1` document.
#[must_use]
pub fn to_string(defs: &[DriverDef]) -> String {
    let mut w = Writer::new(DRIVERS_KIND, DRIVERS_VERSION);
    for d in defs {
        w.record(["driver", &d.key, &d.name]);
        for q in &d.smart_queries {
            w.record(["query", q]);
        }
        if !d.filter_expr.is_empty() {
            w.record(["filter", &d.filter_expr]);
        }
        for (phrase, weight) in &d.lexicon {
            w.record(["lex", phrase, &weight.to_string()]);
        }
        for (tag, tpls) in [
            ("trigger", &d.templates.triggers),
            ("distractor", &d.templates.distractors),
            ("headline", &d.templates.headlines),
            ("dheadline", &d.templates.distractor_headlines),
        ] {
            for t in tpls {
                w.record([tag, t]);
            }
        }
    }
    w.finish()
}

fn valid_key(key: &str) -> bool {
    !key.is_empty()
        && key
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_' || b == b'-')
}

/// Decode a `DRIVERS v1` document into definitions — pure parsing, no
/// registry side effects.
///
/// # Errors
/// [`DriverFileError::Codec`] on container damage (bad header, failed
/// checksum, truncation); [`DriverFileError::Bad`] on an invalid block
/// (bad key, record outside a block, unparseable weight…).
pub fn parse_defs(text: &str) -> Result<Vec<DriverDef>, DriverFileError> {
    let (_, records) = etap_persist::parse(text, DRIVERS_KIND, DRIVERS_VERSION)?;
    let mut defs: Vec<DriverDef> = Vec::new();
    let bad = |key: &str, msg: String| DriverFileError::Bad {
        key: key.to_string(),
        msg,
    };
    for rec in records {
        let tag = rec.tag();
        if tag == "driver" {
            let key = rec.str(1).map_err(DriverFileError::Codec)?.to_string();
            if !valid_key(&key) {
                return Err(bad(&key, "keys are [a-z0-9_-]+".to_string()));
            }
            if defs.iter().any(|d| d.key == key) {
                return Err(bad(&key, "duplicate driver key".to_string()));
            }
            let name = rec
                .str(2)
                .map(ToString::to_string)
                .unwrap_or_else(|_| key.clone());
            defs.push(DriverDef {
                key,
                name,
                smart_queries: Vec::new(),
                filter_expr: String::new(),
                lexicon: Vec::new(),
                templates: DriverTemplates::default(),
            });
            continue;
        }
        let Some(cur) = defs.last_mut() else {
            return Err(bad("", format!("record `{tag}` before any driver block")));
        };
        let key = cur.key.clone();
        match tag {
            "query" => cur.smart_queries.push(rec.str(1)?.to_string()),
            "filter" => {
                if !cur.filter_expr.is_empty() {
                    return Err(bad(&key, "duplicate filter record".to_string()));
                }
                cur.filter_expr = rec.str(1)?.to_string();
            }
            "lex" => {
                let phrase = rec.str(1)?.to_string();
                let weight: f64 = rec.parse(2)?;
                cur.lexicon.push((phrase, weight));
            }
            "trigger" => cur.templates.triggers.push(rec.str(1)?.to_string()),
            "distractor" => cur.templates.distractors.push(rec.str(1)?.to_string()),
            "headline" => cur.templates.headlines.push(rec.str(1)?.to_string()),
            "dheadline" => cur
                .templates
                .distractor_headlines
                .push(rec.str(1)?.to_string()),
            other => return Err(bad(&key, format!("unknown record `{other}`"))),
        }
    }
    Ok(defs)
}

/// Build the [`DriverSpec`] a definition describes, validating its
/// filter expression (and treating an absent one as `TRUE`).
///
/// # Errors
/// [`SpecError::BadFilter`] when the expression does not parse.
pub fn spec_of(def: &DriverDef, driver: SalesDriver) -> Result<DriverSpec, SpecError> {
    let snippet_filter = if def.filter_expr.is_empty() {
        Filter::True
    } else {
        def.filter_expr.parse::<Filter>()?
    };
    let orientation = (!def.lexicon.is_empty()).then(|| {
        let mut lex = OrientationLexicon::new();
        for (phrase, weight) in &def.lexicon {
            lex.insert(phrase, *weight);
        }
        lex
    });
    Ok(DriverSpec {
        driver,
        smart_queries: def.smart_queries.clone(),
        snippet_filter,
        orientation,
    })
}

/// Parse a `DRIVERS v1` document, register every driver (in file order,
/// so interned ids are deterministic per file), attach its corpus
/// templates, and return the ready specs.
///
/// Registration is idempotent: re-loading the same file is a no-op
/// beyond rebuilding the returned specs. A file may name a built-in key
/// to override that driver's *spec* (queries/filter/lexicon); built-in
/// corpus templates stay code.
///
/// # Errors
/// Any [`DriverFileError`]; nothing is registered when the file fails
/// to parse (parsing completes before the first registration).
pub fn load_str(text: &str) -> Result<Vec<DriverSpec>, DriverFileError> {
    let defs = parse_defs(text)?;
    let mut specs = Vec::with_capacity(defs.len());
    for def in &defs {
        let driver =
            SalesDriver::register(&def.key, &def.name).map_err(|e| DriverFileError::Bad {
                key: def.key.clone(),
                msg: e.to_string(),
            })?;
        let spec = spec_of(def, driver).map_err(|e| DriverFileError::Bad {
            key: def.key.clone(),
            msg: e.to_string(),
        })?;
        if !def.templates.triggers.is_empty()
            || !def.templates.distractors.is_empty()
            || !def.templates.headlines.is_empty()
            || !def.templates.distractor_headlines.is_empty()
        {
            driver.set_templates(def.templates.clone());
        }
        specs.push(spec);
    }
    Ok(specs)
}

/// [`load_str`] from a file path.
///
/// # Errors
/// Filesystem errors, plus every [`DriverFileError`] as `InvalidData`.
pub fn load(path: &Path) -> io::Result<Vec<DriverSpec>> {
    load_str(&std::fs::read_to_string(path)?).map_err(io::Error::from)
}

/// The two drivers this repository ships as data (`drivers/extra.drivers`):
/// **funding rounds** and **executive hires**, each with full corpus
/// templates so the synthetic web generates matching documents.
#[must_use]
pub fn example_defs() -> Vec<DriverDef> {
    vec![
        DriverDef {
            key: "funding-rounds".to_string(),
            name: "funding rounds".to_string(),
            smart_queries: vec![
                "\"series a\"".to_string(),
                "\"series b\"".to_string(),
                "\"raised funding\"".to_string(),
                "\"funding round\"".to_string(),
                "\"venture round\"".to_string(),
            ],
            filter_expr: "ORG AND CURRENCY AND (KW(raised) OR KW(funding) OR KW(round) OR KW(financing) OR KW(investment))".to_string(),
            lexicon: vec![
                ("oversubscribed round".to_string(), 2.0),
                ("raised".to_string(), 1.0),
                ("funding".to_string(), 0.5),
                ("down round".to_string(), -1.5),
                ("bridge loan".to_string(), -0.5),
            ],
            templates: DriverTemplates {
                triggers: vec![
                    "{company} raised {money} in a funding round led by {company2} in {date}.".to_string(),
                    "{company} announced {money} of new financing, with {company2} joining the round.".to_string(),
                    "{company} closed an investment of {money} to expand its {product} line.".to_string(),
                    "Investors put {money} into {company} in a round announced in {date}.".to_string(),
                ],
                distractors: vec![
                    "{company} denied rumors of a new funding round in {year}.".to_string(),
                    "A retrospective examined how {company} spent its early financing.".to_string(),
                    "{person}, who once led financing talks at {company}, spoke at a {place} event.".to_string(),
                ],
                headlines: vec![
                    "{company} raises {money}".to_string(),
                    "{company} lands {money} round".to_string(),
                ],
                distractor_headlines: vec![
                    "Inside the {company} war chest".to_string(),
                ],
            },
        },
        DriverDef {
            key: "executive-hires".to_string(),
            name: "executive hires".to_string(),
            smart_queries: vec![
                "\"joins as\"".to_string(),
                "\"has hired\"".to_string(),
                "\"appointed\"".to_string(),
                "\"executive team\"".to_string(),
                "\"head of\"".to_string(),
            ],
            filter_expr: "DESIG AND (PRSN OR ORG) AND (KW(hired) OR KW(hires) OR KW(joins) OR KW(appointed) OR KW(recruited))".to_string(),
            lexicon: Vec::new(),
            templates: DriverTemplates {
                triggers: vec![
                    "{company} hired {person} as its {desig}, effective {date}.".to_string(),
                    "{person} joins {company} from {company2} as {desig}.".to_string(),
                    "{company} appointed {person} to lead its {place} operations as {desig}.".to_string(),
                    "{company} recruited {person2} and {person} for its executive team.".to_string(),
                ],
                distractors: vec![
                    "{person} reflected on a long career as {desig} of {company}.".to_string(),
                    "{company} denied reports that its {desig} was leaving.".to_string(),
                    "A profile of {person}, {desig} at {company} since {year}.".to_string(),
                ],
                headlines: vec![
                    "{company} hires {person} as {desig}".to_string(),
                    "{person} joins {company}".to_string(),
                ],
                distractor_headlines: vec![
                    "The long tenure of {person} at {company}".to_string(),
                ],
            },
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal_def(key: &str) -> DriverDef {
        DriverDef {
            key: key.to_string(),
            name: format!("{key} name"),
            smart_queries: vec!["\"probe one\"".to_string()],
            filter_expr: "ORG AND KW(probe)".to_string(),
            lexicon: vec![("good sign".to_string(), 1.5)],
            templates: DriverTemplates {
                triggers: vec!["{company} probed {money}.".to_string()],
                distractors: vec!["{company} recalled old probes.".to_string()],
                headlines: vec!["{company} probes".to_string()],
                distractor_headlines: vec!["Probe history at {company}".to_string()],
            },
        }
    }

    #[test]
    fn roundtrip_is_exact() {
        let defs = vec![minimal_def("test_df_alpha"), minimal_def("test_df_beta")];
        let text = to_string(&defs);
        let back = parse_defs(&text).expect("parse");
        assert_eq!(back, defs);
        // Re-encoding is byte-identical.
        assert_eq!(to_string(&back), text);
    }

    #[test]
    fn example_defs_roundtrip_and_load() {
        let text = to_string(&example_defs());
        assert_eq!(parse_defs(&text).expect("parse"), example_defs());
        let specs = load_str(&text).expect("load");
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].driver.id(), "funding-rounds");
        assert_eq!(specs[0].driver.name(), "funding rounds");
        assert!(specs[0].orientation.is_some());
        assert!(specs[1].orientation.is_none());
        assert!(specs[0].driver.templates().is_some());
        // Idempotent: a second load resolves to the same ids.
        let again = load_str(&text).expect("reload");
        assert_eq!(again[0].driver, specs[0].driver);
        assert_eq!(again[1].driver, specs[1].driver);
    }

    #[test]
    fn truncated_file_fails_cleanly() {
        let text = to_string(&example_defs());
        let cut: String = text
            .lines()
            .take(text.lines().count() / 2)
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(matches!(parse_defs(&cut), Err(DriverFileError::Codec(_))));
    }

    #[test]
    fn bit_flip_fails_checksum() {
        let mut bytes = to_string(&example_defs()).into_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] = if bytes[mid] == b'a' { b'b' } else { b'a' };
        let corrupt = String::from_utf8(bytes).expect("ascii flip");
        let err = parse_defs(&corrupt).expect_err("must fail");
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn bad_filter_is_typed_not_fatal() {
        let mut def = minimal_def("test_df_badfilter");
        def.filter_expr = "ORG AND (".to_string();
        let text = to_string(&[def]);
        let err = load_str(&text).expect_err("bad filter");
        assert!(matches!(err, DriverFileError::Bad { .. }), "{err}");
    }

    #[test]
    fn bad_key_and_orphan_records_rejected() {
        let mut w = Writer::new(DRIVERS_KIND, DRIVERS_VERSION);
        w.record(["driver", "Has Spaces", "nope"]);
        assert!(parse_defs(&w.finish()).is_err());

        let mut w = Writer::new(DRIVERS_KIND, DRIVERS_VERSION);
        w.record(["query", "\"orphan\""]);
        assert!(parse_defs(&w.finish()).is_err());

        let mut w = Writer::new(DRIVERS_KIND, DRIVERS_VERSION);
        w.record(["driver", "test_df_dup", "a"]);
        w.record(["driver", "test_df_dup", "b"]);
        assert!(parse_defs(&w.finish()).is_err());
    }

    /// Seeded fuzz of the decoder over the shipped pack: truncations,
    /// bit flips and record splices, each re-sealed with a valid `#sum`
    /// so the damage reaches the record parser rather than stopping at
    /// the checksum. Invariant: `Ok` or a typed [`DriverFileError`],
    /// never a panic; what decodes re-encodes to a fixed point.
    #[test]
    fn fuzzed_packs_parse_or_fail_typed() {
        fn seal(body: &str) -> String {
            let mut text = body.to_string();
            if !text.ends_with('\n') {
                text.push('\n');
            }
            let sum = etap_persist::fnv1a64(text.as_bytes());
            text.push_str(&format!("#sum {sum:016x}\n"));
            text
        }
        let pack = include_str!("../../../drivers/extra.drivers");
        let (body, _) = pack
            .trim_end_matches('\n')
            .rsplit_once('\n')
            .expect("trailer");
        let lines: Vec<&str> = body.split_inclusive('\n').collect();
        let mut rng = etap_runtime::Rng::seed_from_u64(0xD21F);
        let (mut ok, mut bad) = (0, 0);
        for case in 0..2_000 {
            let mut bytes = body.as_bytes().to_vec();
            for _ in 0..rng.gen_range(1..4usize) {
                match rng.gen_range(0..4u64) {
                    0 => bytes.truncate(rng.gen_range(0..bytes.len() + 1)),
                    1 if !bytes.is_empty() => {
                        let i = rng.gen_range(0..bytes.len());
                        bytes[i] ^= 1 << rng.gen_range(0..8u64);
                    }
                    2 => {
                        // Splice a whole record of the pack in anywhere.
                        let at = rng.gen_range(0..bytes.len() + 1);
                        let line = rng.choose(&lines).expect("records");
                        bytes.splice(at..at, line.bytes());
                    }
                    _ => {
                        // Splice a record's head onto another's tail.
                        let a = rng.choose(&lines).expect("records").as_bytes();
                        let b = rng.choose(&lines).expect("records").as_bytes();
                        let mut joined = a[..rng.gen_range(0..a.len())].to_vec();
                        joined.extend_from_slice(&b[rng.gen_range(0..b.len())..]);
                        let at = rng.gen_range(0..bytes.len() + 1);
                        bytes.splice(at..at, joined);
                    }
                }
            }
            let text = seal(&String::from_utf8_lossy(&bytes));
            match parse_defs(&text) {
                Ok(defs) => {
                    ok += 1;
                    let again = to_string(&defs);
                    let back = parse_defs(&again).unwrap_or_else(|e| panic!("case {case}: {e}"));
                    assert_eq!(to_string(&back), again, "case {case}");
                }
                Err(e) => {
                    bad += 1;
                    assert!(!e.to_string().is_empty(), "case {case}");
                }
            }
        }
        // Both outcomes occur, so the mutations neither all miss nor
        // all stop at the header.
        assert!(ok > 100 && bad > 100, "{ok} ok, {bad} rejected");
    }

    #[test]
    fn missing_filter_defaults_to_true() {
        let mut def = minimal_def("test_df_nofilter");
        def.filter_expr = String::new();
        def.lexicon.clear();
        let text = to_string(&[def]);
        let specs = load_str(&text).expect("load");
        assert_eq!(specs[0].snippet_filter, Filter::True);
        assert!(specs[0].orientation.is_none());
    }
}
