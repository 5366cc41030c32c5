//! Model and event persistence on the shared `etap-persist` codec.
//!
//! A production ETAP trains offline and scores a live crawl; both the
//! trained artifacts (feature vocabulary, abstraction policy,
//! naïve-Bayes parameters) and the scored output (ranked trigger
//! events) must round-trip through disk. Everything here speaks the
//! `etap-persist` text codec: `ETAP <KIND> v<n>` header, tab-separated
//! backslash-escaped fields, `#sum` checksum trailer (see DESIGN.md §9
//! for the grammar).
//!
//! Two document kinds live in this module:
//!
//! * **`MODEL` v2** — one trained per-driver classifier:
//!
//!   ```text
//!   ETAP MODEL v2
//!   driver <id>
//!   policy-entity <TAG> <Abstract|Instance|Drop>   ×13
//!   policy-pos <tag> <Abstract|Instance|Drop>      ×13
//!   bigrams <true|false>
//!   prior <log_p_pos> <log_p_neg>
//!   unseen <log_u_pos> <log_u_neg>
//!   features <n>
//!   f <term> <ll_pos> <ll_neg>                     ×n (id = order)
//!   #sum <fnv1a64>
//!   ```
//!
//!   (fields are tab-separated; spelled with spaces above for
//!   legibility).
//!
//! * **`LEADS` v1** — a ranked event list (the serializable heart of a
//!   [`LeadBook`]): a `count` record, then one `e` record per event
//!   (driver, doc id, score, date, url, snippet, companies…). Scores
//!   print in shortest-round-trip form, so a reloaded book is
//!   *bit-identical* to the one saved.

use crate::events::TriggerEvent;
use crate::leads::LeadBook;
use crate::spec::DriverSpec;
use crate::training::{TrainedDriver, TrainingReport};
use etap_annotate::{EntityCategory, PosTag};
use etap_classify::nb::MultinomialNbModel;
use etap_corpus::SalesDriver;
use etap_features::{AbstractionPolicy, CategoryChoice, Vectorizer};
use etap_persist::{CodecError, Record, Writer};
use etap_text::Vocabulary;
use std::io;
use std::path::Path;

/// Codec kind of trained-model documents.
pub const MODEL_KIND: &str = "MODEL";
/// Highest `MODEL` version this build reads/writes. v2 carries only the
/// driver key (specs are code for the built-ins); v3 additionally
/// embeds the driver's spec — queries, filter expression, lexicon — and
/// is emitted only for registered (data-defined) drivers, so built-in
/// model files stay byte-identical to the v2 era.
pub const MODEL_VERSION: u32 = 3;
/// Codec kind of ranked-event documents.
pub const LEADS_KIND: &str = "LEADS";
/// Highest `LEADS` version this build reads/writes.
pub const LEADS_VERSION: u32 = 1;

/// Serialize a trained driver to the v2 codec format.
#[must_use]
pub fn to_string(trained: &TrainedDriver) -> String {
    let vocab = trained.vectorizer.vocabulary();
    let policy = trained.vectorizer.policy();
    let (ll, prior, unseen) = trained.model.parts();

    let custom = !trained.spec.driver.is_builtin();
    let mut w = Writer::new(MODEL_KIND, if custom { MODEL_VERSION } else { 2 });
    w.record(["driver", trained.spec.driver.id()]);
    if custom {
        // A registered driver's spec is data, not code — embed it so a
        // fresh process reloads the model self-contained.
        w.record(["driver-name", trained.spec.driver.name()]);
        for q in &trained.spec.smart_queries {
            w.record(["query", q]);
        }
        w.record(["filter", &trained.spec.snippet_filter.to_string()]);
        if let Some(lex) = &trained.spec.orientation {
            for (phrase, weight) in lex.entries() {
                w.record(["lex", phrase, &weight.to_string()]);
            }
        }
    }
    for cat in EntityCategory::ALL {
        w.record(["policy-entity", cat.tag(), choice_name(policy.entity_choice(cat))]);
    }
    for tag in PosTag::ALL {
        w.record(["policy-pos", tag.tag(), choice_name(policy.pos_choice(tag))]);
    }
    w.record(["bigrams", if trained.vectorizer.has_bigrams() { "true" } else { "false" }]);
    w.record(["prior", &prior[0].to_string(), &prior[1].to_string()]);
    w.record(["unseen", &unseen[0].to_string(), &unseen[1].to_string()]);
    w.record(["features", &vocab.len().to_string()]);
    for (id, term) in vocab.iter() {
        let i = id as usize;
        let lp = ll[0].get(i).copied().unwrap_or(unseen[0]);
        let ln = ll[1].get(i).copied().unwrap_or(unseen[1]);
        w.record([term, &lp.to_string(), &ln.to_string()]);
    }
    w.finish()
}

/// Save a trained driver to a file (atomically: tmp + fsync + rename).
///
/// # Errors
/// Propagates filesystem errors.
pub fn save(trained: &TrainedDriver, path: &Path) -> io::Result<()> {
    etap_persist::write_atomic(path, &to_string(trained))
}

/// Parse a persisted model (codec v2 or v3) back into a
/// [`TrainedDriver`]. The driver's spec is re-created
/// from the built-in registry (specs are code, not data); the training
/// report is zeroed (it described the original run).
///
/// # Errors
/// Returns `InvalidData` on any malformed content (checksum mismatch,
/// future version, bad record…).
pub fn from_str(text: &str) -> io::Result<TrainedDriver> {
    decode_model(text).map_err(io::Error::from)
}

fn decode_model(text: &str) -> Result<TrainedDriver, CodecError> {
    let (_, records) = etap_persist::parse(text, MODEL_KIND, MODEL_VERSION)?;
    let mut records = records.into_iter();

    let mut driver_key: Option<String> = None;
    let mut driver_name: Option<String> = None;
    let mut queries: Vec<String> = Vec::new();
    let mut filter: Option<crate::filter::Filter> = None;
    let mut lexicon: Option<crate::orientation::OrientationLexicon> = None;
    let mut policy = AbstractionPolicy::paper_default();
    let mut prior = [0.0f64; 2];
    let mut unseen = [0.0f64; 2];
    let mut bigrams = false;
    let mut n_features: Option<usize> = None;

    for rec in records.by_ref() {
        match rec.tag() {
            "driver" => driver_key = Some(rec.str(1)?.to_string()),
            "driver-name" => driver_name = Some(rec.str(1)?.to_string()),
            "query" => queries.push(rec.str(1)?.to_string()),
            "filter" => {
                filter = Some(
                    rec.str(1)?
                        .parse()
                        .map_err(|e| rec.malformed(format!("bad filter: {e}")))?,
                );
            }
            "lex" => {
                lexicon
                    .get_or_insert_with(crate::orientation::OrientationLexicon::new)
                    .insert(rec.str(1)?, rec.parse(2)?);
            }
            "policy-entity" => {
                let cat: EntityCategory = rec
                    .str(1)?
                    .parse()
                    .map_err(|_| rec.malformed("unknown entity tag"))?;
                policy.set_entity(cat, parse_choice(&rec, 2)?);
            }
            "policy-pos" => {
                let tag = rec.str(1)?;
                let pos = PosTag::ALL
                    .iter()
                    .copied()
                    .find(|t| t.tag() == tag)
                    .ok_or_else(|| rec.malformed("unknown pos tag"))?;
                policy.set_pos(pos, parse_choice(&rec, 2)?);
            }
            "bigrams" => bigrams = rec.str(1)? == "true",
            "prior" => prior = [rec.parse(1)?, rec.parse(2)?],
            "unseen" => unseen = [rec.parse(1)?, rec.parse(2)?],
            "features" => {
                n_features = Some(rec.parse(1)?);
                break;
            }
            other => return Err(rec.malformed(format!("unexpected record `{other}`"))),
        }
    }
    let key = driver_key.ok_or(CodecError::Malformed {
        line: 0,
        msg: "missing driver record".to_string(),
    })?;
    // Built-in keys resolve to their fixed ids; unknown keys are
    // interned (registering the display name when the file carries one)
    // so a model trained against a drivers file reloads in a fresh
    // process.
    let driver = match &driver_name {
        Some(name) => SalesDriver::register(&key, name),
        None => SalesDriver::intern(&key),
    }
    .map_err(|e| CodecError::Malformed {
        line: 0,
        msg: format!("driver {key:?}: {e}"),
    })?;
    let n_features = n_features.ok_or(CodecError::Malformed {
        line: 0,
        msg: "missing features record".to_string(),
    })?;

    let mut vocab = Vocabulary::with_capacity(n_features);
    let mut ll = [
        Vec::with_capacity(n_features),
        Vec::with_capacity(n_features),
    ];
    for rec in records {
        vocab.intern(rec.str(0)?);
        ll[0].push(rec.parse(1)?);
        ll[1].push(rec.parse(2)?);
    }
    if vocab.len() != n_features {
        return Err(CodecError::Malformed {
            line: 0,
            msg: format!(
                "feature count mismatch: header says {n_features}, file has {}",
                vocab.len()
            ),
        });
    }

    let spec = if queries.is_empty() && filter.is_none() && lexicon.is_none() {
        DriverSpec::builtin(driver)
    } else {
        DriverSpec {
            driver,
            smart_queries: queries,
            snippet_filter: filter.unwrap_or(crate::filter::Filter::True),
            orientation: lexicon,
        }
    };
    Ok(TrainedDriver {
        spec,
        vectorizer: Vectorizer::from_parts(policy, vocab, bigrams),
        model: MultinomialNbModel::from_parts(ll, prior, unseen),
        report: zeroed_report(),
    })
}

/// Load a trained driver from a file.
///
/// # Errors
/// Propagates filesystem errors and format errors.
pub fn load(path: &Path) -> io::Result<TrainedDriver> {
    from_str(&std::fs::read_to_string(path)?)
}

// ---------------------------------------------------------------------
// Ranked trigger events (`LEADS` documents)
// ---------------------------------------------------------------------

/// Serialize a ranked event list to a `LEADS` document.
#[must_use]
pub fn events_to_string(events: &[TriggerEvent]) -> String {
    let mut w = Writer::new(LEADS_KIND, LEADS_VERSION);
    w.record(["count", &events.len().to_string()]);
    for e in events {
        let mut fields: Vec<&str> = Vec::with_capacity(9 + e.companies.len());
        let doc_id = e.doc_id.to_string();
        let score = e.score.to_string();
        let (y, m, d) = e.doc_date;
        let (y, m, d) = (y.to_string(), m.to_string(), d.to_string());
        fields.push("e");
        fields.push(e.driver.id());
        fields.push(&doc_id);
        fields.push(&score);
        fields.push(&y);
        fields.push(&m);
        fields.push(&d);
        fields.push(&e.url);
        fields.push(&e.snippet);
        for c in &e.companies {
            fields.push(c);
        }
        w.record(fields);
    }
    w.finish()
}

/// Parse a `LEADS` document back into its event list (in stored order).
///
/// # Errors
/// Typed codec errors: checksum/truncation/corruption, a count
/// mismatch, or malformed event records.
pub fn events_from_str(text: &str) -> Result<Vec<TriggerEvent>, CodecError> {
    let (_, records) = etap_persist::parse(text, LEADS_KIND, LEADS_VERSION)?;
    let mut expected: Option<usize> = None;
    let mut events = Vec::new();
    for rec in records {
        match rec.tag() {
            "count" => {
                if expected.replace(rec.parse(1)?).is_some() {
                    return Err(rec.malformed("duplicate count record"));
                }
            }
            "e" => events.push(decode_event(&rec)?),
            other => return Err(rec.malformed(format!("unexpected record `{other}`"))),
        }
    }
    match expected {
        Some(n) if n == events.len() => Ok(events),
        Some(n) => Err(CodecError::Malformed {
            line: 0,
            msg: format!("count record says {n} events, file has {}", events.len()),
        }),
        None => Err(CodecError::Malformed {
            line: 0,
            msg: "missing count record".to_string(),
        }),
    }
}

fn decode_event(rec: &Record) -> Result<TriggerEvent, CodecError> {
    // Intern, not strict parse: a LEADS file naming a data-defined
    // driver must load in a fresh process before any drivers file does.
    let driver = SalesDriver::intern(rec.str(1)?)
        .map_err(|e| rec.malformed(format!("unknown driver: {e}")))?;
    Ok(TriggerEvent {
        driver,
        doc_id: rec.parse(2)?,
        score: rec.parse(3)?,
        doc_date: (rec.parse(4)?, rec.parse(5)?, rec.parse(6)?),
        url: rec.str(7)?.to_string(),
        snippet: rec.str(8)?.to_string(),
        companies: rec.fields.get(9..).unwrap_or(&[]).to_vec(),
    })
}

/// Serialize a [`LeadBook`] — its ranked events are the whole state;
/// the per-driver/per-company indices are recomputed on load.
#[must_use]
pub fn book_to_string(book: &LeadBook) -> String {
    events_to_string(book.events())
}

/// Rebuild a [`LeadBook`] from a `LEADS` document. Because the ranking
/// order is total and the indices are pure functions of the ranked
/// list, the rebuilt book is bit-identical to the one serialized.
///
/// # Errors
/// See [`events_from_str`].
pub fn book_from_str(text: &str) -> Result<LeadBook, CodecError> {
    Ok(LeadBook::build(events_from_str(text)?))
}

fn zeroed_report() -> TrainingReport {
    TrainingReport {
        docs_fetched: 0,
        snippets_considered: 0,
        noisy_positives: 0,
        retained_positives: 0,
        iterations: 0,
    }
}

fn choice_name(c: CategoryChoice) -> &'static str {
    match c {
        CategoryChoice::Abstract => "Abstract",
        CategoryChoice::Instance => "Instance",
        CategoryChoice::Drop => "Drop",
    }
}

fn parse_choice(rec: &Record, i: usize) -> Result<CategoryChoice, CodecError> {
    match rec.str(i)? {
        "Abstract" => Ok(CategoryChoice::Abstract),
        "Instance" => Ok(CategoryChoice::Instance),
        "Drop" => Ok(CategoryChoice::Drop),
        _ => Err(rec.malformed("bad abstraction choice")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::training::{train_driver, TrainingConfig};
    use etap_annotate::Annotator;
    use etap_corpus::{SearchEngine, SyntheticWeb, WebConfig};

    fn quick_trained() -> TrainedDriver {
        let web = SyntheticWeb::generate(WebConfig {
            total_docs: 500,
            ..WebConfig::default()
        });
        let engine = SearchEngine::build(web.docs());
        let annotator = Annotator::new();
        let config = TrainingConfig {
            top_docs_per_query: 40,
            negative_snippets: 500,
            pure_positives: 10,
            ..TrainingConfig::default()
        };
        let spec = DriverSpec::builtin(SalesDriver::ChangeInManagement);
        train_driver(&spec, &engine, &web, &annotator, &config, |_| false)
    }

    #[test]
    fn roundtrip_preserves_scores() {
        let trained = quick_trained();
        let text = to_string(&trained);
        let restored = from_str(&text).expect("parse back");
        assert_eq!(restored.spec.driver, SalesDriver::ChangeInManagement);

        let annotator = Annotator::new();
        for probe in [
            "Acme Corp named Jane Roe as its new CEO on Monday.",
            "Heavy rain is expected across the region this weekend.",
            "IBM acquired Daksh for $160 million.",
        ] {
            let ann = annotator.annotate(probe);
            let a = trained.score(&ann);
            let b = restored.score(&ann);
            assert!((a - b).abs() < 1e-12, "{probe}: {a} vs {b}");
        }
    }

    #[test]
    fn file_roundtrip() {
        let trained = quick_trained();
        let path = std::env::temp_dir().join("etap_persist_test.model");
        save(&trained, &path).expect("save");
        let restored = load(&path).expect("load");
        let annotator = Annotator::new();
        let ann = annotator.annotate("Oracle appointed James Wilson CTO, effective immediately.");
        assert!((trained.score(&ann) - restored.score(&ann)).abs() < 1e-12);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn header_is_validated() {
        assert!(from_str("BOGUS v9\n").is_err());
        assert!(from_str("").is_err());
    }

    #[test]
    fn v1_model_header_is_a_typed_invalid_data_error() {
        // The pre-codec `ETAP-MODEL v1` format (no escaping, no
        // checksum) is no longer read. The codec checks the `#sum`
        // trailer before the header, and v1 files never had one.
        let mut v1 = String::from("ETAP-MODEL v1\ndriver change_in_management\n");
        v1.push_str("bigrams false\nprior -0.5 -1.0\nunseen -9.0 -8.0\nfeatures 1\n");
        v1.push_str("alpha\t-1.5\t-2.5\n");
        let err = from_str(&v1).expect_err("v1 models no longer load");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let codec = err.get_ref().and_then(|e| e.downcast_ref::<CodecError>());
        assert!(matches!(codec, Some(CodecError::Truncated)), "{err:?}");
    }

    #[test]
    fn truncated_file_rejected() {
        let trained = quick_trained();
        let text = to_string(&trained);
        // Chop off the last 30 lines (losing the checksum trailer).
        let truncated: String = text
            .lines()
            .take(text.lines().count().saturating_sub(30))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(from_str(&truncated).is_err());
    }

    #[test]
    fn corrupted_file_rejected() {
        let trained = quick_trained();
        let mut bytes = to_string(&trained).into_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] = if bytes[mid] == b'0' { b'1' } else { b'0' };
        let corrupt = String::from_utf8(bytes).expect("ascii-safe flip");
        let err = from_str(&corrupt).expect_err("checksum must catch the flip");
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn builtin_models_still_write_the_legacy_v2_format() {
        // Byte-format stability contract: built-in drivers keep
        // emitting MODEL v2 with no embedded-spec records, so model
        // files from pre-registry builds and this build are
        // interchangeable in both directions.
        let text = to_string(&quick_trained());
        assert!(text.starts_with("ETAP MODEL v2\n"), "{}", &text[..40]);
        for tag in ["driver-name", "query\t", "filter\t", "lex\t"] {
            assert!(!text.contains(&format!("\n{tag}")), "v2 must not embed {tag:?}");
        }
        let restored = from_str(&text).expect("parse");
        assert_eq!(restored.spec.driver, SalesDriver::ChangeInManagement);
    }

    #[test]
    fn custom_models_embed_their_spec_in_v3() {
        let driver = SalesDriver::register("test_persist_custom", "pilot programs")
            .expect("register");
        let mut lexicon = crate::OrientationLexicon::new();
        lexicon.insert("expanded pilot", 1.5);
        lexicon.insert("cancelled pilot", -2.0);
        let mut trained = quick_trained();
        trained.spec = DriverSpec {
            driver,
            smart_queries: vec!["\"pilot program\"".to_string(), "\"rollout\"".to_string()],
            snippet_filter: "ORG AND (KW(pilot) OR KW(rollout))".parse().expect("filter"),
            orientation: Some(lexicon),
        };

        let text = to_string(&trained);
        assert!(text.starts_with("ETAP MODEL v3\n"), "{}", &text[..40]);
        let restored = from_str(&text).expect("parse v3");
        assert_eq!(restored.spec.driver, driver);
        assert_eq!(restored.spec.smart_queries, trained.spec.smart_queries);
        assert_eq!(
            restored.spec.snippet_filter.to_string(),
            trained.spec.snippet_filter.to_string()
        );
        let lex = restored.spec.orientation.as_ref().expect("lexicon restored");
        assert_eq!(
            lex.entries(),
            trained.spec.orientation.as_ref().unwrap().entries()
        );
        // The classifier itself is untouched by the spec records.
        let annotator = Annotator::new();
        let ann = annotator.annotate("Acme Corp expanded its pilot program rollout.");
        assert!((trained.score(&ann) - restored.score(&ann)).abs() < 1e-12);
    }

    #[test]
    fn terms_with_spaces_and_tabs_survive() {
        let trained = quick_trained();
        let vocab = trained.vectorizer.vocabulary();
        let text = to_string(&trained);
        let restored = from_str(&text).expect("parse");
        let rv = restored.vectorizer.vocabulary();
        assert_eq!(vocab.len(), rv.len());
        for (id, term) in vocab.iter() {
            assert_eq!(rv.term(id), Some(term));
        }
    }

    fn event(driver: SalesDriver, doc_id: usize, score: f64, companies: &[&str]) -> TriggerEvent {
        TriggerEvent {
            driver,
            doc_id,
            url: format!("http://t/{doc_id}"),
            snippet: format!("snippet\twith tab {doc_id}\nand newline"),
            score,
            companies: companies.iter().map(ToString::to_string).collect(),
            doc_date: (2005, 6, 15),
        }
    }

    #[test]
    fn events_roundtrip_bit_exactly() {
        let events = vec![
            event(SalesDriver::RevenueGrowth, 0, 0.9123456789012345, &["Acme"]),
            event(SalesDriver::MergersAcquisitions, 1, 0.5, &[]),
            event(
                SalesDriver::ChangeInManagement,
                2,
                1.0 / 3.0,
                &["Zed Ltd", "A\tB"],
            ),
        ];
        let text = events_to_string(&events);
        let back = events_from_str(&text).expect("parse");
        assert_eq!(back, events);
    }

    #[test]
    fn book_roundtrip_is_bit_identical() {
        let events = vec![
            event(SalesDriver::RevenueGrowth, 0, 0.9, &["Acme"]),
            event(SalesDriver::RevenueGrowth, 1, 0.8, &["Acme Corp."]),
            event(SalesDriver::MergersAcquisitions, 2, 0.95, &["Zed Ltd"]),
        ];
        let book = LeadBook::build(events);
        let text = book_to_string(&book);
        let back = book_from_str(&text).expect("parse");
        assert_eq!(back, book);
        // And a second serialization is byte-identical.
        assert_eq!(book_to_string(&back), text);
    }

    #[test]
    fn leads_count_mismatch_rejected() {
        let events = vec![event(SalesDriver::RevenueGrowth, 0, 0.9, &["Acme"])];
        let text = events_to_string(&events);
        // Drop the event line but keep a valid checksum by re-encoding.
        let mut w = Writer::new(LEADS_KIND, LEADS_VERSION);
        w.record(["count", "3"]);
        let forged = w.finish();
        assert!(events_from_str(&forged).is_err());
        assert!(events_from_str(&text).is_ok());
    }
}
