//! Differential oracle: the production annotate path — a lexeme memo
//! per scratch, and an NER scan gated by each token's start class — must
//! produce exactly what the reference annotator produces (every NER rule
//! at every token, every POS tag computed afresh; `reference::annotate`).
//!
//! The inputs cover what could make the memo or the gate wrong: real
//! snippets from seeded corpora, token soup drawn from every gazetteer
//! and rule word list in random case (plus non-ASCII and junk tokens),
//! gazetteers extended after a scratch was warmed on another annotator,
//! and more distinct tokens than one memo holds.

use etap_annotate::gazetteer::{self, Gazetteer};
use etap_annotate::{reference, AnnotateScratch, Annotator, EntityCategory, Rule};
use etap_corpus::{SyntheticWeb, WebConfig};
use etap_runtime::Rng;
use etap_text::memo::MEMO_ENTRIES;
use etap_text::{SnippetGenerator, SnippetScratch};

/// Annotate `text` through the warm scratch and through a one-shot
/// call, and hold both to the reference.
fn check(annotator: &Annotator, scratch: &mut AnnotateScratch, text: &str) {
    let expect = reference::annotate(annotator, text);
    assert_eq!(
        annotator.annotate_with(text, scratch),
        expect,
        "memo path on {text:?}"
    );
    assert_eq!(
        annotator.annotate(text),
        expect,
        "one-shot path on {text:?}"
    );
}

#[test]
fn memo_path_matches_reference_on_seeded_corpora() {
    let annotator = Annotator::new();
    let snipgen = SnippetGenerator::new(3);
    for seed in [101, 202, 303] {
        let web = SyntheticWeb::generate(WebConfig {
            total_docs: 150,
            seed,
            ..WebConfig::default()
        });
        let mut scratch = AnnotateScratch::new();
        let (mut doc, mut snips) = (String::new(), SnippetScratch::new());
        let mut texts = Vec::new();
        for d in web.docs() {
            d.text_into(&mut doc);
            for k in 0..snipgen.split(&doc, &mut snips) {
                let text = snipgen.snippet_text(&doc, k, &mut snips).to_string();
                check(&annotator, &mut scratch, &text);
                texts.push(text);
            }
        }
        assert!(
            texts.len() > 300,
            "seed {seed}: only {} snippets",
            texts.len()
        );
    }
}

/// Every entry of every gazetteer and rule word list the recognizer
/// reads, plus the single words its rules compare against inline.
fn lexicon() -> Vec<&'static str> {
    let lists: [&[&'static str]; 23] = [
        gazetteer::ORGANIZATIONS,
        gazetteer::ORG_SUFFIXES,
        gazetteer::GIVEN_NAMES,
        gazetteer::SURNAMES,
        gazetteer::PLACES,
        gazetteer::DESIGNATIONS,
        gazetteer::PRODUCTS,
        gazetteer::OBJECTS,
        gazetteer::UNITS,
        gazetteer::CURRENCY_WORDS,
        gazetteer::MONTHS,
        gazetteer::WEEKDAYS,
        gazetteer::PERIOD_WORDS,
        gazetteer::NUMBER_WORDS,
        gazetteer::HONORIFICS,
        gazetteer::SCALE_WORDS,
        gazetteer::CURRENCY_SYMBOLS,
        gazetteer::CURRENCY_CODES,
        gazetteer::PERIOD_HEADS,
        gazetteer::NAMED_TIMES,
        gazetteer::PERCENT_WORDS,
        gazetteer::MERIDIEMS,
        gazetteer::COUNT_NOUNS,
    ];
    let inline = [
        "percentage",
        "point",
        "points",
        "a",
        "p",
        "m",
        ".",
        ":",
        ",",
        "%",
        "-",
        "fiscal",
    ];
    lists
        .iter()
        .flat_map(|l| l.iter().copied())
        .chain(inline)
        .collect()
}

/// Figures, shapes the tokenizer classifies specially, non-ASCII words
/// (including ones whose lowercase changes byte length) and junk.
const ODD_TOKENS: &[&str] = &[
    "1996",
    "2004",
    "12",
    "5.3",
    "1,200",
    "09",
    "30",
    "5-7",
    "4th",
    "22nd",
    "Q3",
    "H1",
    "Q12",
    "B2B",
    "x9z",
    "eShop",
    "O'Brien",
    "third-quarter",
    "Société",
    "Générale",
    "ZÜRICH",
    "café",
    "ÉTÉ",
    "İstanbul",
    "ǅemal",
    "ß",
    "ΣΑΣ",
    "Ωmega",
    "’",
    "&",
    "@",
    "#",
    "…",
    "\u{2019}s",
    "Ü",
    "Zenlith",
    "Qwzx",
    "Inc",
    "Corp",
    "Ltd",
];

/// `word` in one of five random casings.
fn random_case(word: &str, rng: &mut Rng) -> String {
    match rng.gen_range(0..5u32) {
        0 => word.to_string(),
        1 => word.to_lowercase(),
        2 => word.to_uppercase(),
        3 => {
            let mut c = word.chars();
            c.next()
                .map(|f| f.to_uppercase().chain(c).collect())
                .unwrap_or_default()
        }
        _ => word
            .chars()
            .map(|c| {
                if rng.gen_bool(0.5) {
                    c.to_uppercase().next().unwrap_or(c)
                } else {
                    c.to_lowercase().next().unwrap_or(c)
                }
            })
            .collect(),
    }
}

/// A snippet of `len` soup words: lexicon entries (often verbatim, so
/// case-sensitive gazetteers match), odd tokens and filler figures.
fn soup(rng: &mut Rng, words: &[&str], len: usize) -> String {
    let mut out = String::new();
    for _ in 0..len {
        let w = if rng.gen_bool(0.15) {
            rng.choose(ODD_TOKENS).copied().unwrap_or("x").to_string()
        } else if rng.gen_bool(0.1) {
            rng.gen_range(0..3000u32).to_string()
        } else {
            let w = rng.choose(words).copied().unwrap_or("x");
            if rng.gen_bool(0.5) {
                w.to_string()
            } else {
                random_case(w, rng)
            }
        };
        if !out.is_empty() && rng.gen_bool(0.9) {
            out.push(' ');
        }
        out.push_str(&w);
    }
    out
}

#[test]
fn memo_path_matches_reference_on_lexicon_soup() {
    let annotator = Annotator::new();
    let words = lexicon();
    let mut rng = Rng::seed_from_u64(0x0AC1E);
    let mut scratch = AnnotateScratch::new();
    let mut entities = 0usize;
    for _ in 0..1500 {
        let len = rng.gen_range(1..24usize);
        let text = soup(&mut rng, &words, len);
        check(&annotator, &mut scratch, &text);
        let ann = annotator.annotate(&text);
        // Entities are ordered, disjoint, and each of their tokens links
        // back to them.
        for w in ann.entities().windows(2) {
            assert!(
                w[0].first_token + w[0].token_len <= w[1].first_token,
                "{text:?}: {:?}",
                ann.entities()
            );
        }
        for (ei, e) in ann.entities().iter().enumerate() {
            for ti in e.token_range() {
                assert_eq!(ann.entity_of(ti), Some(ei), "{text:?}");
            }
        }
        entities += ann.entities().len();
    }
    assert!(
        entities > 3000,
        "the soup should be entity-dense ({entities})"
    );
}

#[test]
fn every_rule_list_entry_is_classed_as_a_possible_start() {
    // Start classes come from the rules' own first-token tests: each
    // word-list entry's first token must carry the bit of the rule that
    // reads the list, whatever else the set holds.
    let ner = Annotator::new();
    let mut sc = String::new();
    let lists: [(&[&str], Rule); 15] = [
        (gazetteer::ORGANIZATIONS, Rule::Org),
        (gazetteer::PLACES, Rule::Place),
        (gazetteer::PRODUCTS, Rule::Product),
        (gazetteer::OBJECTS, Rule::Object),
        (gazetteer::DESIGNATIONS, Rule::Designation),
        (gazetteer::GIVEN_NAMES, Rule::Person),
        (gazetteer::SURNAMES, Rule::Person),
        (gazetteer::HONORIFICS, Rule::Person),
        (gazetteer::MONTHS, Rule::Period),
        (gazetteer::WEEKDAYS, Rule::Period),
        (gazetteer::PERIOD_HEADS, Rule::Period),
        (gazetteer::CURRENCY_SYMBOLS, Rule::Currency),
        (gazetteer::CURRENCY_CODES, Rule::Currency),
        (gazetteer::NAMED_TIMES, Rule::Time),
        (gazetteer::NUMBER_WORDS, Rule::Count),
    ];
    for (list, rule) in lists {
        for entry in list {
            let toks = etap_text::tokenize(entry);
            let first = toks[0];
            let class = ner.ner().start_class(first.text, first.kind, &mut sc);
            assert!(
                class.contains(rule),
                "{rule:?} not in {class:?} for {entry:?}"
            );
        }
    }
    let g = Gazetteer::from_entries(&["Acme Widgets", "Zed"]);
    assert!(g.starts_entry("Acme") && g.starts_entry("Zed"));
    assert!(!g.starts_entry("Widgets") && !g.starts_entry("Ac") && !g.starts_entry("Zedd"));
}

#[test]
fn scratch_drops_its_memo_for_another_or_extended_annotator() {
    let base = Annotator::new();
    let texts = [
        "zorblat and Frobnicate met Quixley at Vantor Plaza on Monday.",
        "Shares of Frobnicate rose; zorblat fell 3 % in Q3.",
        "Mr. Quixley Ferndale joined Vantor Plaza Systems Inc. as CEO.",
    ];
    let mut scratch = AnnotateScratch::new();
    for _ in 0..2 {
        for t in texts {
            check(&base, &mut scratch, t);
        }
    }
    assert!(
        !base
            .annotate(texts[0])
            .entities()
            .iter()
            .any(|e| e.category == EntityCategory::Plc),
        "premise: the base annotator knows no place in the text"
    );

    // The same scratch, now on an extended clone: each addition turns a
    // word the memo classed as "no rule starts here" (lowercase) or
    // "org-suffix rule only" (unknown capitalised) into a gazetteer hit.
    let mut extended = base.clone();
    let ner = extended.ner_mut();
    ner.add_organization("zorblat");
    ner.add_place("Vantor Plaza");
    ner.add_product("Frobnicate");
    ner.add_given_name("Quixley");
    ner.add_surname("Ferndale");
    for t in texts {
        check(&extended, &mut scratch, t);
    }
    let cats: Vec<EntityCategory> = extended
        .annotate_with(texts[0], &mut scratch)
        .entities()
        .iter()
        .map(|e| e.category)
        .collect();
    for c in [
        EntityCategory::Org,
        EntityCategory::Plc,
        EntityCategory::Prod,
        EntityCategory::Prsn,
    ] {
        assert!(cats.contains(&c), "{c:?} missing from {cats:?}");
    }

    // Extending in place (no clone) re-stamps too, and going back to the
    // base annotator drops the extended memo.
    let mut in_place = Annotator::new();
    for t in texts {
        check(&in_place, &mut scratch, t);
    }
    in_place.ner_mut().add_place("Frobnicate");
    for t in texts {
        check(&in_place, &mut scratch, t);
        check(&base, &mut scratch, t);
    }
}

#[test]
fn memo_path_matches_reference_past_the_memo_bound() {
    let annotator = Annotator::new();
    let words = lexicon();
    let mut rng = Rng::seed_from_u64(0xB0B);
    let mut scratch = AnnotateScratch::new();
    // Twice the memo's entry bound in distinct surfaces, interleaved
    // with lexicon words, so the memo clears mid-snippet more than once
    // and words are re-learned after each clear.
    let distinct = 2 * MEMO_ENTRIES + 100;
    let mut next = 0usize;
    while next < distinct {
        let mut text = String::new();
        for _ in 0..40 {
            if rng.gen_bool(0.7) {
                let w = if next.is_multiple_of(2) {
                    format!("Tok{next}x")
                } else {
                    format!("tok{next}")
                };
                text.push_str(&w);
                next += 1;
            } else {
                text.push_str(rng.choose(&words).copied().unwrap_or("x"));
            }
            text.push(' ');
        }
        check(&annotator, &mut scratch, &text);
    }
}
