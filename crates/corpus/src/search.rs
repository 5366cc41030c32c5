//! The search engine — the stand-in for Google in the smart-query
//! harvesting loop.
//!
//! §3.3.1 of the paper: *"we fetch documents from the Web, by querying a
//! search engine using smart queries … we use the query 'new ceo' on a
//! search engine to obtain a large number of highly ranked documents."*
//! The only property ETAP relies on is that the top hits for a smart
//! query are mostly (not entirely) relevant — which any reasonable
//! ranked-retrieval engine provides. This one is a classic
//! inverted-index BM25 engine with positional postings so quoted
//! phrases (`"new ceo"`, `"IBM Daksh"`) match exactly.
//!
//! The index is flat: a handful of arrays whatever the corpus size (see
//! DESIGN.md §11, "The search index"). Every training round queries it,
//! so it stays resident for the whole process.

use crate::generator::SyntheticDoc;
use etap_runtime::hash::Fnv1a64;
use etap_text::{lower_into, tokenize, tokenize_into};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::ops::Range;

/// One ranked search result.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchHit {
    /// Document id.
    pub doc_id: usize,
    /// BM25 score (higher = better).
    pub score: f64,
}

/// BM25 parameters (standard defaults).
const K1: f64 = 1.2;
const B: f64 = 0.75;

/// An inverted-index search engine over synthetic documents.
///
/// Terms are numbered in byte order; term `t`'s postings are a range
/// of posting numbers, and posting `k` is a document id plus a range
/// into one shared positions array.
#[derive(Debug, Clone)]
pub struct SearchEngine {
    /// Every distinct lowercased term, sorted, back to back.
    terms: String,
    /// Term `t` is `terms[term_bounds[t]..term_bounds[t + 1]]`.
    term_bounds: Vec<u32>,
    /// Term `t`'s postings are `post_bounds[t]..post_bounds[t + 1]`.
    post_bounds: Vec<u32>,
    /// Document id of each posting, ascending within a term.
    post_docs: Vec<u32>,
    /// Posting `k`'s positions are `positions[pos_bounds[k]..pos_bounds[k + 1]]`.
    pos_bounds: Vec<u32>,
    /// Token positions, posting by posting, ascending within one.
    positions: Vec<u32>,
    doc_len: Vec<u32>,
    avg_len: f64,
}

fn to_u32(n: usize) -> u32 {
    u32::try_from(n).expect("search index exceeds u32 range")
}

impl SearchEngine {
    /// Index a document collection. `docs[i]` must have `id == i`.
    #[must_use]
    pub fn build(docs: &[SyntheticDoc]) -> Self {
        // One tokenizer pass: intern each lowercased token, keeping the
        // whole collection as a stream of term ids, document by document.
        let mut ids: HashMap<String, u32, BuildHasherDefault<Fnv1a64>> = HashMap::default();
        let mut stream: Vec<u32> = Vec::new();
        let mut doc_len = Vec::with_capacity(docs.len());
        let (mut text, mut spans, mut lower) = (String::new(), Vec::new(), String::new());
        for (i, doc) in docs.iter().enumerate() {
            debug_assert_eq!(doc.id, i, "doc ids must be dense");
            doc.text_into(&mut text);
            tokenize_into(&text, &mut spans);
            doc_len.push(to_u32(spans.len()));
            for span in &spans {
                lower_into(span.text(&text), &mut lower);
                let id = match ids.get(lower.as_str()) {
                    Some(&id) => id,
                    None => {
                        let id = to_u32(ids.len());
                        ids.insert(lower.clone(), id);
                        id
                    }
                };
                stream.push(id);
            }
        }

        // Renumber the terms in byte order and lay them back to back.
        let mut sorted: Vec<(String, u32)> = ids.into_iter().collect();
        sorted.sort_unstable();
        let mut rank = vec![0u32; sorted.len()];
        let mut terms = String::with_capacity(sorted.iter().map(|(t, _)| t.len()).sum());
        let mut term_bounds = Vec::with_capacity(sorted.len() + 1);
        term_bounds.push(0);
        for (r, (term, id)) in sorted.iter().enumerate() {
            rank[*id as usize] = to_u32(r);
            terms.push_str(term);
            term_bounds.push(to_u32(terms.len()));
        }
        drop(sorted);
        for t in &mut stream {
            *t = rank[*t as usize];
        }

        // Count each term's postings and positions, then scatter the
        // stream into place. Walking documents in order leaves every
        // term's doc ids and positions ascending.
        let n_terms = rank.len();
        let mut post_bounds = vec![0u32; n_terms + 1];
        let mut next_pos = vec![0u32; n_terms + 1];
        let mut last_doc = vec![u32::MAX; n_terms];
        for_each_token(&stream, &doc_len, |d, _, t| {
            next_pos[t + 1] += 1;
            if last_doc[t] != d {
                last_doc[t] = d;
                post_bounds[t + 1] += 1;
            }
        });
        for t in 0..n_terms {
            post_bounds[t + 1] += post_bounds[t];
            next_pos[t + 1] += next_pos[t];
        }
        let n_postings = post_bounds[n_terms] as usize;
        let mut next_post = post_bounds.clone();
        let mut post_docs = vec![0u32; n_postings];
        let mut pos_bounds = vec![0u32; n_postings + 1];
        let mut positions = vec![0u32; stream.len()];
        pos_bounds[n_postings] = to_u32(stream.len());
        last_doc.fill(u32::MAX);
        for_each_token(&stream, &doc_len, |d, pos, t| {
            if last_doc[t] != d {
                last_doc[t] = d;
                let k = next_post[t] as usize;
                next_post[t] += 1;
                post_docs[k] = d;
                pos_bounds[k] = next_pos[t];
            }
            positions[next_pos[t] as usize] = pos;
            next_pos[t] += 1;
        });

        let avg_len = if doc_len.is_empty() {
            0.0
        } else {
            doc_len.iter().map(|&l| f64::from(l)).sum::<f64>() / doc_len.len() as f64
        };
        Self {
            terms,
            term_bounds,
            post_bounds,
            post_docs,
            pos_bounds,
            positions,
            doc_len,
            avg_len,
        }
    }

    /// Number of indexed documents.
    #[must_use]
    pub fn num_docs(&self) -> usize {
        self.doc_len.len()
    }

    /// Search with BM25; quoted substrings must match as exact phrases.
    ///
    /// Query syntax: whitespace-separated terms; `"…"` groups a phrase.
    /// Matching is case-insensitive. A document must contain **all**
    /// phrases and **at least one** bare term (if any are given) to be
    /// returned.
    ///
    /// ```
    /// use etap_corpus::{SearchEngine, SyntheticWeb, WebConfig};
    /// let web = SyntheticWeb::generate(WebConfig::with_docs(400));
    /// let engine = SearchEngine::build(web.docs());
    /// let hits = engine.search("\"new ceo\"", 10);
    /// assert!(!hits.is_empty());
    /// assert!(hits.windows(2).all(|w| w[0].score >= w[1].score));
    /// ```
    #[must_use]
    pub fn search(&self, query: &str, top_k: usize) -> Vec<SearchHit> {
        let (terms, phrases) = parse_query(query);
        if terms.is_empty() && phrases.is_empty() {
            return Vec::new();
        }
        // Each query word is looked up once; `None` is a word no
        // document contains.
        let terms: Vec<Option<usize>> = terms.iter().map(|w| self.term_id(w)).collect();
        let phrases: Vec<Vec<Option<usize>>> = phrases
            .iter()
            .map(|p| p.iter().map(|w| self.term_id(w)).collect())
            .collect();

        // Score all bare terms plus each phrase's words, in query order;
        // a document is a candidate once any of them occurs in it.
        let mut scores: Vec<Option<f64>> = vec![None; self.num_docs()];
        for t in terms.iter().chain(phrases.iter().flatten()).flatten() {
            let posts = self.postings(*t);
            let idf = self.idf(posts.len());
            for k in posts {
                let doc = self.post_docs[k] as usize;
                let tf = f64::from(self.pos_bounds[k + 1] - self.pos_bounds[k]);
                let dl = f64::from(self.doc_len[doc]);
                let denom = tf + K1 * (1.0 - B + B * dl / self.avg_len.max(1.0));
                *scores[doc].get_or_insert(0.0) += idf * tf * (K1 + 1.0) / denom;
            }
        }

        // Phrases are a hard filter on the candidates.
        let mut hits: Vec<SearchHit> = scores
            .iter()
            .enumerate()
            .filter_map(|(doc_id, s)| s.map(|score| SearchHit { doc_id, score }))
            .filter(|h| phrases.iter().all(|p| self.doc_has_phrase(h.doc_id, p)))
            .collect();
        hits.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.doc_id.cmp(&b.doc_id)));
        hits.truncate(top_k);
        hits
    }

    fn idf(&self, df: usize) -> f64 {
        let n = self.num_docs() as f64;
        let df = df as f64;
        ((n - df + 0.5) / (df + 0.5) + 1.0).ln()
    }

    /// Binary-search the sorted term table.
    fn term_id(&self, word: &str) -> Option<usize> {
        let (mut lo, mut hi) = (0, self.term_bounds.len() - 1);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let term =
                &self.terms[self.term_bounds[mid] as usize..self.term_bounds[mid + 1] as usize];
            match term.cmp(word) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Some(mid),
            }
        }
        None
    }

    /// Posting numbers of term `t`.
    fn postings(&self, t: usize) -> Range<usize> {
        self.post_bounds[t] as usize..self.post_bounds[t + 1] as usize
    }

    /// Positions of term `t` in `doc`, if it occurs there.
    fn positions_in(&self, t: Option<usize>, doc: usize) -> Option<&[u32]> {
        let posts = self.postings(t?);
        let k = posts.start
            + self.post_docs[posts.clone()]
                .binary_search(&to_u32(doc))
                .ok()?;
        Some(&self.positions[self.pos_bounds[k] as usize..self.pos_bounds[k + 1] as usize])
    }

    /// Does `doc` contain the phrase (consecutive positions)?
    fn doc_has_phrase(&self, doc: usize, phrase: &[Option<usize>]) -> bool {
        let Some((&first, rest)) = phrase.split_first() else {
            return true;
        };
        let Some(starts) = self.positions_in(first, doc) else {
            return false;
        };
        starts.iter().any(|&start| {
            rest.iter().zip(1u32..).all(|(&t, k)| {
                self.positions_in(t, doc)
                    .is_some_and(|ps| ps.binary_search(&(start + k)).is_ok())
            })
        })
    }
}

/// Call `f(doc, position, term)` for every token of a term-id stream
/// laid out document by document.
fn for_each_token(stream: &[u32], doc_len: &[u32], mut f: impl FnMut(u32, u32, usize)) {
    let mut at = 0;
    for (d, &len) in doc_len.iter().enumerate() {
        let end = at + len as usize;
        for (pos, &t) in stream[at..end].iter().enumerate() {
            f(to_u32(d), to_u32(pos), t as usize);
        }
        at = end;
    }
}

/// The engine as it was before the flat index: a `HashMap` of terms to
/// per-document posting `Vec`s. Kept verbatim as the executable
/// specification the flat index must match hit for hit and score bit for
/// score bit (see `crates/core/tests/search_parity.rs`); the pipeline
/// never uses it.
#[doc(hidden)]
pub mod reference {
    use super::{parse_query, SearchHit, B, K1};
    use crate::generator::SyntheticDoc;
    use etap_text::tokenize;
    use std::collections::HashMap;

    /// Positional posting: document id and the token positions of the term.
    #[derive(Debug, Clone)]
    struct Posting {
        doc_id: usize,
        positions: Vec<u32>,
    }

    /// An inverted-index search engine over synthetic documents.
    #[derive(Debug, Clone)]
    pub struct SearchEngine {
        postings: HashMap<String, Vec<Posting>>,
        doc_len: Vec<u32>,
        avg_len: f64,
    }

    impl SearchEngine {
        /// Index a document collection. `docs[i]` must have `id == i`.
        #[must_use]
        pub fn build(docs: &[SyntheticDoc]) -> Self {
            let mut postings: HashMap<String, Vec<Posting>> = HashMap::new();
            let mut doc_len = Vec::with_capacity(docs.len());
            for (i, doc) in docs.iter().enumerate() {
                debug_assert_eq!(doc.id, i, "doc ids must be dense");
                let text = doc.text();
                let tokens = tokenize(&text);
                doc_len.push(tokens.len() as u32);
                for (pos, tok) in tokens.iter().enumerate() {
                    let term = tok.lower().into_owned();
                    let entry = postings.entry(term).or_default();
                    match entry.last_mut() {
                        Some(p) if p.doc_id == i => p.positions.push(pos as u32),
                        _ => entry.push(Posting {
                            doc_id: i,
                            positions: vec![pos as u32],
                        }),
                    }
                }
            }
            let avg_len = if doc_len.is_empty() {
                0.0
            } else {
                doc_len.iter().map(|&l| f64::from(l)).sum::<f64>() / doc_len.len() as f64
            };
            Self {
                postings,
                doc_len,
                avg_len,
            }
        }

        /// Number of indexed documents.
        #[must_use]
        pub fn num_docs(&self) -> usize {
            self.doc_len.len()
        }

        /// Search with BM25; quoted substrings must match as exact phrases.
        ///
        /// Query syntax: whitespace-separated terms; `"…"` groups a phrase.
        /// Matching is case-insensitive. A document must contain **all**
        /// phrases and **at least one** bare term (if any are given) to be
        /// returned.
        #[must_use]
        pub fn search(&self, query: &str, top_k: usize) -> Vec<SearchHit> {
            let (terms, phrases) = parse_query(query);
            if terms.is_empty() && phrases.is_empty() {
                return Vec::new();
            }

            // Candidate set: docs matching every phrase (phrase = hard
            // filter); if no phrases, any doc containing ≥1 term.
            let mut scores: HashMap<usize, f64> = HashMap::new();

            // Score all bare terms plus each phrase's words.
            let mut scoring_terms: Vec<&str> = terms.iter().map(String::as_str).collect();
            for p in &phrases {
                scoring_terms.extend(p.iter().map(String::as_str));
            }
            for term in &scoring_terms {
                if let Some(posts) = self.postings.get(*term) {
                    let idf = self.idf(posts.len());
                    for p in posts {
                        let tf = p.positions.len() as f64;
                        let dl = f64::from(self.doc_len[p.doc_id]);
                        let denom = tf + K1 * (1.0 - B + B * dl / self.avg_len.max(1.0));
                        *scores.entry(p.doc_id).or_default() += idf * tf * (K1 + 1.0) / denom;
                    }
                }
            }

            let mut hits: Vec<SearchHit> = scores
                .into_iter()
                .filter(|&(doc_id, _)| {
                    phrases
                        .iter()
                        .all(|phrase| self.doc_has_phrase(doc_id, phrase))
                })
                .map(|(doc_id, score)| SearchHit { doc_id, score })
                .collect();
            hits.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.doc_id.cmp(&b.doc_id)));
            hits.truncate(top_k);
            hits
        }

        fn idf(&self, df: usize) -> f64 {
            let n = self.num_docs() as f64;
            let df = df as f64;
            ((n - df + 0.5) / (df + 0.5) + 1.0).ln()
        }

        /// Does `doc_id` contain the phrase (consecutive positions)?
        fn doc_has_phrase(&self, doc_id: usize, phrase: &[String]) -> bool {
            if phrase.is_empty() {
                return true;
            }
            let Some(first) = self
                .postings
                .get(&phrase[0])
                .and_then(|ps| ps.iter().find(|p| p.doc_id == doc_id))
            else {
                return false;
            };
            'starts: for &start in &first.positions {
                for (k, word) in phrase.iter().enumerate().skip(1) {
                    let ok = self
                        .postings
                        .get(word)
                        .and_then(|ps| ps.iter().find(|p| p.doc_id == doc_id))
                        .is_some_and(|p| p.positions.binary_search(&(start + k as u32)).is_ok());
                    if !ok {
                        continue 'starts;
                    }
                }
                return true;
            }
            false
        }
    }
}

/// Split a query into bare terms and quoted phrases, lowercased and
/// tokenized the same way as the index.
fn parse_query(query: &str) -> (Vec<String>, Vec<Vec<String>>) {
    let mut terms = Vec::new();
    let mut phrases = Vec::new();
    let mut rest = query;
    while let Some(open) = rest.find('"') {
        let before = &rest[..open];
        terms.extend(bare_terms(before));
        let after = &rest[open + 1..];
        match after.find('"') {
            Some(close) => {
                let phrase: Vec<String> = tokenize(&after[..close])
                    .iter()
                    .map(|t| t.lower().into_owned())
                    .collect();
                if !phrase.is_empty() {
                    phrases.push(phrase);
                }
                rest = &after[close + 1..];
            }
            None => {
                // Unbalanced quote: treat the remainder as bare terms.
                rest = after;
                break;
            }
        }
    }
    terms.extend(bare_terms(rest));
    (terms, phrases)
}

fn bare_terms(s: &str) -> Vec<String> {
    tokenize(s).iter().map(|t| t.lower().into_owned()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{DocGenerator, Genre};
    use crate::web::{SyntheticWeb, WebConfig};
    use crate::SalesDriver;

    fn doc(id: usize, title: &str, body: &str) -> SyntheticDoc {
        SyntheticDoc {
            id,
            url: format!("http://t/{id}"),
            title: title.to_string(),
            body: body.to_string(),
            genre: Genre::BusinessNoise,
            trigger_sentences: vec![],
            companies: vec![],
            date: (2005, 6, 15),
        }
    }

    fn tiny_index() -> SearchEngine {
        SearchEngine::build(&[
            doc(
                0,
                "Acme names new CEO",
                "Acme Corp named Jane Roe as its new CEO on Monday.",
            ),
            doc(
                1,
                "Weather report",
                "Heavy rain is expected across London this week.",
            ),
            doc(
                2,
                "Old boss",
                "Jane Roe was the CEO of Acme Corp from 1980 to 1985.",
            ),
            doc(
                3,
                "Ceo chatter",
                "The ceo spoke. The ceo smiled. The ceo left.",
            ),
        ])
    }

    #[test]
    fn term_search_finds_matching_docs() {
        let idx = tiny_index();
        let hits = idx.search("rain", 10);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].doc_id, 1);
    }

    #[test]
    fn phrase_search_requires_adjacency() {
        let idx = tiny_index();
        let hits = idx.search("\"new ceo\"", 10);
        let ids: Vec<usize> = hits.iter().map(|h| h.doc_id).collect();
        assert!(ids.contains(&0), "{ids:?}");
        // Doc 2 has "new" nowhere and doc 3 has "ceo" but not "new ceo".
        assert!(!ids.contains(&2));
        assert!(!ids.contains(&3));
    }

    #[test]
    fn search_is_case_insensitive() {
        let idx = tiny_index();
        assert_eq!(idx.search("RAIN", 10).len(), 1);
        assert!(!idx.search("\"NEW CEO\"", 10).is_empty());
    }

    #[test]
    fn tf_influences_ranking() {
        let idx = tiny_index();
        let hits = idx.search("ceo", 10);
        // Doc 3 repeats "ceo" three times — highest tf; it should rank
        // at or near the top among the ceo-bearing docs.
        assert_eq!(hits[0].doc_id, 3, "{hits:?}");
    }

    #[test]
    fn top_k_truncates() {
        let idx = tiny_index();
        let hits = idx.search("ceo", 1);
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn empty_query_returns_nothing() {
        let idx = tiny_index();
        assert!(idx.search("", 10).is_empty());
        assert!(idx.search("   ", 10).is_empty());
    }

    #[test]
    fn unbalanced_quote_degrades_gracefully() {
        let idx = tiny_index();
        let hits = idx.search("\"new ceo", 10);
        // Falls back to bare terms — still finds something.
        assert!(!hits.is_empty());
    }

    #[test]
    fn multi_word_company_phrase() {
        let mut g = DocGenerator::new(3);
        let mut docs = vec![g.generate(Genre::BusinessNoise)];
        docs.push(doc(
            1,
            "Deal news",
            "IBM acquired Daksh for $160 million. IBM Daksh teams will merge.",
        ));
        // Fix ids to be dense.
        docs[0].id = 0;
        let idx = SearchEngine::build(&docs);
        let hits = idx.search("\"IBM Daksh\"", 10);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].doc_id, 1);
    }

    #[test]
    fn smart_query_on_synthetic_web_is_precise() {
        // The paper's core assumption: top hits for "new ceo" are mostly
        // change-in-management documents. Verify on a real synthetic web.
        let web = SyntheticWeb::generate(WebConfig::with_docs(1500));
        let idx = SearchEngine::build(web.docs());
        let hits = idx.search("\"new ceo\"", 30);
        assert!(hits.len() >= 5, "query should hit: {}", hits.len());
        let relevant = hits
            .iter()
            .filter(|h| {
                matches!(
                    web.doc(h.doc_id).genre,
                    Genre::Trigger(SalesDriver::ChangeInManagement)
                        | Genre::Distractor(SalesDriver::ChangeInManagement)
                )
            })
            .count();
        let precision = relevant as f64 / hits.len() as f64;
        assert!(
            precision > 0.6,
            "precision {precision} over {} hits",
            hits.len()
        );
    }

    #[test]
    fn parse_query_shapes() {
        let (terms, phrases) = parse_query("alpha \"two words\" beta");
        assert_eq!(terms, vec!["alpha", "beta"]);
        assert_eq!(phrases, vec![vec!["two".to_string(), "words".to_string()]]);
    }

    // Seeded properties on the in-tree PRNG (no external proptest).

    fn tiny_web() -> Vec<SyntheticDoc> {
        SyntheticWeb::generate(WebConfig::with_docs(120))
            .docs()
            .to_vec()
    }

    /// Hits come back sorted by descending score, and top-k is a
    /// prefix of top-(k+m).
    #[test]
    fn hits_sorted_and_topk_prefix() {
        let docs = tiny_web();
        let engine = SearchEngine::build(&docs);
        let mut rng = etap_runtime::Rng::seed_from_u64(0x5EA2C4);
        for case in 0..64 {
            // One to three words: random letters, or a word taken from a
            // document so most queries hit.
            let words: Vec<String> = (0..rng.gen_range(1..4usize))
                .map(|_| {
                    if rng.gen_bool(0.5) {
                        let len = rng.gen_range(2..9usize);
                        (0..len)
                            .map(|_| (b'a' + rng.gen_range(0..26u64) as u8) as char)
                            .collect()
                    } else {
                        let text = docs[rng.gen_range(0..docs.len())].text();
                        let toks = tokenize(&text);
                        toks[rng.gen_range(0..toks.len())].lower().into_owned()
                    }
                })
                .collect();
            let query = words.join(" ");
            let k = rng.gen_range(1..30usize);
            let big = engine.search(&query, k + 25);
            for w in big.windows(2) {
                assert!(w[0].score >= w[1].score, "case {case}: {query:?}");
            }
            let small = engine.search(&query, k);
            assert_eq!(
                &big[..small.len().min(big.len())],
                &small[..],
                "case {case}: {query:?}"
            );
        }
    }

    /// Every phrase hit really contains the phrase verbatim
    /// (case-insensitively, modulo tokenization).
    #[test]
    fn phrase_hits_contain_phrase() {
        let docs = tiny_web();
        let engine = SearchEngine::build(&docs);
        let mut rng = etap_runtime::Rng::seed_from_u64(0xF4A5E);
        let mut checked = 0;
        for case in 0..64 {
            // Take a 2-word phrase straight out of a real document so
            // the query is guaranteed to have at least one hit.
            let text = docs[rng.gen_range(0..docs.len())].text();
            let toks = tokenize(&text);
            if toks.len() < 6 {
                continue;
            }
            let at = rng.gen_range(0..toks.len() - 1);
            let words: Vec<String> = toks[at..at + 2]
                .iter()
                .map(|t| t.lower().into_owned())
                .collect();
            if !words.iter().all(|w| w.chars().all(char::is_alphanumeric)) {
                continue;
            }
            let phrase = words.join(" ");
            let hits = engine.search(&format!("\"{phrase}\""), 50);
            assert!(!hits.is_empty(), "case {case}: {phrase:?}");
            for h in hits {
                let lower: Vec<String> = tokenize(&docs[h.doc_id].text())
                    .iter()
                    .map(|t| t.lower().into_owned())
                    .collect();
                let found = lower
                    .windows(2)
                    .any(|w| w[0] == words[0] && w[1] == words[1]);
                assert!(
                    found,
                    "case {case}: doc {} lacks phrase {phrase:?}",
                    h.doc_id
                );
            }
            checked += 1;
        }
        assert!(checked >= 32, "only {checked} phrases drawn");
    }
}
