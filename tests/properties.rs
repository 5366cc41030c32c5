//! Seeded property tests over the core data structures and invariants,
//! spanning crates (chunker ↔ snippets ↔ vectorizer ↔ classifiers ↔
//! temporal, alias and persistence front-ends).
//!
//! Each property draws its cases from the in-tree `etap_runtime::Rng`
//! with a fixed seed, so a failure names a reproducible case index.
//! Properties with a seeded home elsewhere live there: the tokenizer
//! invariants in `crates/text/tests/tokenizer_parity.rs`, the entity
//! layout in `crates/annotate/tests/annotate_oracle.rs`, and the filter
//! grammar in `etap::filter`'s unit tests.

use etap_repro::annotate::Annotator;
use etap_repro::classify::{Classifier, Dataset, Label, MultinomialNb, Trainer};
use etap_repro::features::{SparseVec, Vectorizer};
use etap_repro::runtime::Rng;
use etap_repro::system::aliases::AliasResolver;
use etap_repro::system::temporal::{Date, TemporalResolver};
use etap_repro::text::{SentenceChunker, SnippetGenerator};

/// Text made of words, digits, punctuation and whitespace: adversarial
/// but printable.
fn arb_text(rng: &mut Rng) -> String {
    const FIXED: &[&str] = &[
        ".", "!", "?", ",", "$", "%", "Mr.", "Inc.", "5.3", "IBM", "New York",
    ];
    let words: Vec<String> = (0..rng.gen_range(0..60usize))
        .map(|_| match rng.gen_range(0..3u32) {
            0 => ascii_word(
                rng,
                b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ",
                1..13,
            ),
            1 => ascii_word(rng, b"0123456789", 1..7),
            _ => (*rng.choose(FIXED).unwrap()).to_string(),
        })
        .collect();
    words.join(" ")
}

/// A word of `len` bytes drawn from `alphabet`.
fn ascii_word(rng: &mut Rng, alphabet: &[u8], len: std::ops::Range<usize>) -> String {
    (0..rng.gen_range(len))
        .map(|_| char::from(*rng.choose(alphabet).unwrap()))
        .collect()
}

/// A capitalized word: one capital then `lower` lowercase letters.
fn capitalized(rng: &mut Rng, lower: std::ops::Range<usize>) -> String {
    let mut w = ascii_word(rng, b"ABCDEFGHIJKLMNOPQRSTUVWXYZ", 1..2);
    w.push_str(&ascii_word(rng, b"abcdefghijklmnopqrstuvwxyz", lower));
    w
}

/// Up to `max_chars` arbitrary scalar values, biased toward ASCII and
/// spread over Latin-1, the rest of the BMP and the astral planes.
fn arb_unicode(rng: &mut Rng, max_chars: usize) -> String {
    (0..rng.gen_range(0..max_chars + 1))
        .filter_map(|_| {
            let code = match rng.gen_range(0..4u32) {
                0 | 1 => rng.gen_range(0x20..0x7fu32),
                2 => rng.gen_range(0x80..0x800u32),
                _ => rng.gen_range(0x800..0x11_0000u32),
            };
            char::from_u32(code)
        })
        .collect()
}

#[test]
fn sentences_are_ordered_disjoint_and_nonempty() {
    let chunker = SentenceChunker::new();
    let mut rng = Rng::seed_from_u64(0x5E47);
    for case in 0..256 {
        let text = arb_text(&mut rng);
        let spans = chunker.sentences(&text);
        for w in spans.windows(2) {
            assert!(w[0].end <= w[1].start, "case {case}: {text:?}");
        }
        for s in &spans {
            assert!(s.start < s.end, "case {case}: {text:?}");
            assert!(!s.text(&text).trim().is_empty(), "case {case}: {text:?}");
        }
    }
}

#[test]
fn disjoint_snippets_partition_sentences() {
    let chunker = SentenceChunker::new();
    let mut rng = Rng::seed_from_u64(0x5A1B);
    for case in 0..256 {
        let text = arb_text(&mut rng);
        let n = rng.gen_range(1..6usize);
        let snippets = SnippetGenerator::new(n).snippets(&text);
        let total: usize = snippets.iter().map(|s| s.len).sum();
        assert_eq!(
            total,
            chunker.sentences(&text).len(),
            "case {case}: {text:?}"
        );
        for s in &snippets {
            assert!(s.len >= 1 && s.len <= n, "case {case}: n = {n}, {text:?}");
        }
    }
}

#[test]
fn vectorizer_is_pure_given_frozen_vocab() {
    let annotator = Annotator::new();
    let mut rng = Rng::seed_from_u64(0xF0C4B);
    for case in 0..128 {
        let annotated = annotator.annotate(&arb_text(&mut rng));
        let mut vz = Vectorizer::paper_default();
        let _ = vz.vectorize(&annotated);
        vz.freeze();
        assert_eq!(
            vz.vectorize(&annotated),
            vz.vectorize(&annotated),
            "case {case}"
        );
    }
}

#[test]
fn sparse_vec_ids_are_sorted_unique_and_total_is_kept() {
    let mut rng = Rng::seed_from_u64(0x5BA25E);
    for case in 0..256 {
        let pairs: Vec<(u32, f32)> = (0..rng.gen_range(0..40usize))
            .map(|_| (rng.gen_range(0..500u32), 0.5 + 3.5 * rng.gen_f64() as f32))
            .collect();
        let v = SparseVec::from_pairs(pairs.clone());
        let ids: Vec<u32> = v.iter().map(|&(id, _)| id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(ids, sorted, "case {case}");
        let total_in: f64 = pairs.iter().map(|&(_, c)| f64::from(c)).sum();
        assert!(
            (v.total() - total_in).abs() < 1e-3,
            "case {case}: {pairs:?}"
        );
    }
}

#[test]
fn nb_posterior_is_a_probability() {
    let mut rng = Rng::seed_from_u64(0x9B);
    let ids = |rng: &mut Rng, lo: u32, hi: u32, len: std::ops::Range<usize>| -> Vec<u32> {
        (0..rng.gen_range(len))
            .map(|_| rng.gen_range(lo..hi))
            .collect()
    };
    for case in 0..128 {
        let pos = ids(&mut rng, 0, 50, 1..10);
        let neg = ids(&mut rng, 50, 100, 1..10);
        let probe = ids(&mut rng, 0, 120, 0..15);
        let mut data = Dataset::new();
        for _ in 0..5 {
            data.push(pos.iter().map(|&i| (i, 1.0)).collect(), Label::Positive);
            data.push(neg.iter().map(|&i| (i, 1.0)).collect(), Label::Negative);
        }
        let model = MultinomialNb::new().fit(&data);
        let v: SparseVec = probe.iter().map(|&i| (i, 1.0)).collect();
        let p = model.posterior(&v);
        assert!(
            p.is_finite() && (0.0..=1.0).contains(&p),
            "case {case}: {p}"
        );
    }
}

#[test]
fn nb_classifies_its_training_features() {
    for (pos, neg) in (0u32..40).zip(40u32..80) {
        let mut data = Dataset::new();
        for _ in 0..10 {
            data.push([(pos, 1.0f32)].into_iter().collect(), Label::Positive);
            data.push([(neg, 1.0f32)].into_iter().collect(), Label::Negative);
        }
        let model = MultinomialNb::new().fit(&data);
        let pv: SparseVec = [(pos, 1.0f32)].into_iter().collect();
        let nv: SparseVec = [(neg, 1.0f32)].into_iter().collect();
        assert!(model.posterior(&pv) > 0.5, "feature {pos}");
        assert!(model.posterior(&nv) < 0.5, "feature {neg}");
    }
}

#[test]
fn alias_canonicalization_is_idempotent() {
    let mut rng = Rng::seed_from_u64(0xA11A5);
    for case in 0..256 {
        let words: Vec<String> = (0..rng.gen_range(1..4usize))
            .map(|_| capitalized(&mut rng, 2..11))
            .collect();
        let name = words.join(" ");
        let mut r = AliasResolver::new();
        let a = r.canonicalize(&name);
        assert_eq!(r.canonicalize(&name), a, "case {case}: {name:?}");
        assert_eq!(r.canonicalize(&a), a, "case {case}: {name:?}");
    }
}

#[test]
fn alias_designators_never_split_a_company() {
    let mut rng = Rng::seed_from_u64(0xDE516);
    for case in 0..256 {
        let base = capitalized(&mut rng, 3..11);
        let suffix = rng
            .choose(&["Inc", "Corp", "Ltd", "Group", "Holdings"])
            .unwrap();
        let mut r = AliasResolver::new();
        let plain = r.canonicalize(&base);
        assert_eq!(
            r.canonicalize(&format!("{base} {suffix}")),
            plain,
            "case {case}"
        );
    }
}

#[test]
fn temporal_resolution_is_total_and_years_resolve_to_themselves() {
    let resolver = TemporalResolver::new();
    let reference = Date::new(2005, 6, 15);
    let mut rng = Rng::seed_from_u64(0x7E3);
    for _ in 0..256 {
        let phrase = ascii_word(
            &mut rng,
            b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ,",
            0..41,
        );
        let _ = resolver.resolve(&phrase, reference);
    }
    for y in 1900u16..2099 {
        let d = resolver.resolve(&y.to_string(), reference);
        assert_eq!(d.map(|d| d.year), Some(y));
    }
}

#[test]
fn recency_score_is_bounded() {
    let annotator = Annotator::new();
    let resolver = TemporalResolver::new();
    let mut rng = Rng::seed_from_u64(0x2EC);
    for case in 0..128 {
        let y = rng.gen_range(1950..2010u16);
        let month = rng.gen_range(1..=12u16) as u8;
        let half_life = 10.0 + 4990.0 * rng.gen_f64();
        let snip = annotator.annotate(&format!("Revenue peaked back in {y}."));
        let score = resolver.recency_score(&snip, Date::new(2005, month, 15), half_life);
        assert!((0.0..=1.0).contains(&score), "case {case}: {score}");
    }
}

#[test]
fn date_ordering_matches_days_since() {
    let mut rng = Rng::seed_from_u64(0xDA7E);
    let date = |rng: &mut Rng| {
        let y = rng.gen_range(1990..2010u16);
        Date::new(
            y,
            rng.gen_range(1..=12u16) as u8,
            rng.gen_range(1..=28u16) as u8,
        )
    };
    for _ in 0..512 {
        let (a, b) = (date(&mut rng), date(&mut rng));
        if a > b {
            assert!(a.days_since(b) > 0.0, "{a:?} {b:?}");
        }
        if a < b {
            assert!(a.days_since(b) < 0.0, "{a:?} {b:?}");
        }
    }
}

/// The whole text front-end, the stemmer, the orientation lexicon and
/// the model parser are total over arbitrary unicode.
#[test]
fn text_front_end_and_parsers_are_total_on_arbitrary_unicode() {
    let annotator = Annotator::new();
    let chunker = SentenceChunker::new();
    let snippets = SnippetGenerator::new(3);
    let lexicon = etap_repro::OrientationLexicon::revenue_growth();
    let mut rng = Rng::seed_from_u64(0x0C0DE);
    for case in 0..256 {
        let text = arb_unicode(&mut rng, 200);
        let _ = chunker.sentences(&text);
        let _ = snippets.snippets(&text);
        let _ = annotator.annotate(&text);
        assert!(lexicon.score(&text).is_finite(), "case {case}: {text:?}");
        let _ = etap_repro::system::persist::from_str(&text);
        let _ = etap_repro::system::persist::from_str(&format!("ETAP-MODEL v1\n{text}"));

        // Porter only shortens or keeps an ASCII-lowercase word (+1 for
        // the -e restore cases); any other input passes through.
        let word: String = text.chars().take(30).collect();
        let stemmed = etap_repro::text::stem(&word);
        if word.bytes().all(|b| b.is_ascii_lowercase()) && word.len() > 2 {
            assert!(stemmed.len() <= word.len() + 1, "case {case}: {word:?}");
        } else {
            assert_eq!(stemmed, word, "case {case}");
        }
    }
    // Lowercase words exercise the stemmer's ASCII branch.
    for _ in 0..512 {
        let word = ascii_word(&mut rng, b"abcdefghijklmnopqrstuvwxyz", 3..16);
        assert!(
            etap_repro::text::stem(&word).len() <= word.len() + 1,
            "{word:?}"
        );
    }
}
