//! Oracle parity for the search engine: the flat positional index
//! (`etap_corpus::SearchEngine`) must return exactly what the original
//! `HashMap`-of-postings engine (`etap_corpus::search::reference`) returns
//! — the same doc ids in the same order, with scores equal bit for bit —
//! on every smart query of the five shipped drivers and on seeded random
//! queries (bare terms, quoted phrases, unbalanced quotes, empty, mixed
//! case, non-ASCII), each at several `top_k`.
//!
//! Lives in its own test binary because loading `drivers/extra.drivers`
//! registers its drivers process-wide.

use etap::{driverfile, DriverSet, DriverSpec};
use etap_corpus::search::reference;
use etap_corpus::{SearchEngine, SyntheticWeb, WebConfig};
use etap_runtime::Rng;
use etap_text::tokenize;

const TOP_KS: [usize; 5] = [0, 1, 10, 200, usize::MAX];

/// Words that no shipped corpus contains, and query punctuation.
const ODD_PIECES: &[&str] = &[
    "ΟΔΟΣ",
    "οδος",
    "Café",
    "ZÜRICH",
    "straße",
    "中文",
    "\u{1F600}",
    "$",
    "%",
    "-",
    "'",
    "12,000",
    "3.5",
    "\u{a0}",
    "\t",
    "",
];

/// The five shipped specs: three builtin plus `drivers/extra.drivers`.
fn shipped_specs() -> Vec<DriverSpec> {
    let mut specs = DriverSpec::all_builtin();
    specs.extend(
        driverfile::load_str(include_str!("../../../drivers/extra.drivers"))
            .expect("parse drivers/extra.drivers"),
    );
    assert_eq!(specs.len(), 5);
    specs
}

/// A word from a random document, cased at random.
fn doc_word(rng: &mut Rng, web: &SyntheticWeb, phrase_len: usize) -> String {
    let text = web.doc(rng.gen_range(0..web.len())).text();
    let toks = tokenize(&text);
    let at = rng.gen_range(0..toks.len().saturating_sub(phrase_len).max(1));
    let words: Vec<&str> = toks[at..(at + phrase_len).min(toks.len())]
        .iter()
        .map(|t| t.text)
        .collect();
    let joined = words.join(" ");
    match rng.gen_range(0..3u64) {
        0 => joined.to_uppercase(),
        1 => joined.to_lowercase(),
        _ => joined,
    }
}

fn random_query(rng: &mut Rng, web: &SyntheticWeb) -> String {
    let mut q = String::new();
    for _ in 0..rng.gen_range(0..5usize) {
        match rng.gen_range(0..6u64) {
            0 | 1 => q.push_str(&doc_word(rng, web, 1)),
            2 => {
                let len = rng.gen_range(1..4usize);
                q.push('"');
                q.push_str(&doc_word(rng, web, len));
                q.push('"');
            }
            3 => q.push('"'),
            4 => q.push_str(rng.choose(ODD_PIECES).unwrap()),
            _ => {
                let len = rng.gen_range(1..7usize);
                q.extend((0..len).map(|_| (b'a' + rng.gen_range(0..26u64) as u8) as char));
            }
        }
        q.push(' ');
    }
    q
}

fn assert_parity(web: &SyntheticWeb, queries: &[String]) {
    let flat = SearchEngine::build(web.docs());
    let oracle = reference::SearchEngine::build(web.docs());
    assert_eq!(flat.num_docs(), oracle.num_docs());
    let mut hit_any = 0;
    for query in queries {
        for k in TOP_KS {
            let got = flat.search(query, k);
            let want = oracle.search(query, k);
            let ids = |h: &[etap_corpus::SearchHit]| h.iter().map(|h| h.doc_id).collect::<Vec<_>>();
            assert_eq!(ids(&got), ids(&want), "{query:?} top {k}");
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(
                    g.score.to_bits(),
                    w.score.to_bits(),
                    "{query:?} top {k} doc {}",
                    g.doc_id
                );
            }
            hit_any += usize::from(!got.is_empty());
        }
    }
    // Most queries draw their words from the web, so many must hit.
    assert!(
        3 * hit_any >= queries.len() * TOP_KS.len(),
        "{hit_any} hits"
    );
}

#[test]
fn flat_index_matches_the_reference_engine() {
    let specs = shipped_specs();
    let smart: Vec<String> = specs.iter().flat_map(|s| s.smart_queries.clone()).collect();
    let webs = [
        SyntheticWeb::generate(WebConfig {
            seed: 0x5EA1,
            ..WebConfig::with_docs(300)
        }),
        SyntheticWeb::generate(WebConfig {
            seed: 0x5EA2,
            drivers: DriverSet::all_registered(),
            ..WebConfig::with_docs(900)
        }),
        SyntheticWeb::generate(WebConfig::with_docs(2_500)),
    ];
    let mut rng = Rng::seed_from_u64(0x9A41);
    for web in &webs {
        let mut queries = smart.clone();
        queries.extend((0..100).map(|_| random_query(&mut rng, web)));
        queries.extend(
            ["", "   ", "\"", "\"\"", "\" \"", "\"new ceo", "NEW \"CEO\""].map(String::from),
        );
        assert_parity(web, &queries);
    }
}
