//! Automatic semantic-orientation lexicon learning.
//!
//! §4 of the paper: *"Currently this lexicon is constructed manually for
//! each sales driver. Automated methods of generating lexicons using
//! positive and negative seed terms as described in \[14\] could also be
//! used."* Reference \[14\] is Turney's PMI-IR. This module implements
//! the SO-PMI recipe over a snippet corpus:
//!
//! ```text
//! SO(phrase) = log₂( hits(phrase, pos-seeds) · hits(neg-seeds)
//!                  ─────────────────────────────────────────── )
//!                    hits(phrase, neg-seeds) · hits(pos-seeds)
//! ```
//!
//! where `hits(a, b)` counts snippets in which `a` co-occurs with any
//! seed from `b` (Turney used search-engine NEAR queries; snippet-level
//! co-occurrence is the offline equivalent, and the snippet *is* ETAP's
//! unit of meaning).

use crate::orientation::OrientationLexicon;
use etap_annotate::{PosTag, PosTagger};
use etap_text::{is_stopword, tokenize};
use std::collections::{HashMap, HashSet};

/// Configuration for SO-PMI lexicon learning.
#[derive(Debug, Clone)]
pub struct LexiconLearner {
    /// Seed words with positive orientation (lowercase surface forms,
    /// matching [`OrientationLexicon`]'s matching semantics).
    positive_seeds: HashSet<String>,
    /// Seed words with negative orientation (lowercase).
    negative_seeds: HashSet<String>,
    /// Candidate phrases must occur in at least this many snippets.
    pub min_count: usize,
    /// Minimum |SO| for a phrase to enter the lexicon.
    pub min_orientation: f64,
    /// Cap on |weight| written into the lexicon.
    pub max_weight: f64,
}

impl LexiconLearner {
    /// Learner from explicit seed lists.
    #[must_use]
    pub fn new(positive_seeds: &[&str], negative_seeds: &[&str]) -> Self {
        let lower_all = |seeds: &[&str]| {
            seeds
                .iter()
                .map(|s| s.to_lowercase())
                .collect::<HashSet<String>>()
        };
        Self {
            positive_seeds: lower_all(positive_seeds),
            negative_seeds: lower_all(negative_seeds),
            min_count: 3,
            min_orientation: 0.8,
            max_weight: 2.5,
        }
    }

    /// Turney-style seeds for the revenue-growth driver. Note the
    /// absence of "profit": in finance it is polarity-ambiguous
    /// ("record profit" vs "profit warning") and poisons both anchors.
    #[must_use]
    pub fn revenue_seeds() -> Self {
        Self::new(
            &["growth", "gain", "strong", "record", "solid", "significant"],
            &[
                "loss", "decline", "weak", "warning", "fell", "slump", "slumped",
            ],
        )
    }

    /// Learn a lexicon from a snippet corpus. Candidates are restricted
    /// to sentiment-bearing parts of speech — verbs, adjectives and
    /// adverbs — exactly as Turney's patterns do; topical nouns
    /// ("revenue", "quarter") co-occur with positive news for *subject*
    /// reasons and would poison the lexicon. Seeds themselves are
    /// excluded (they would trivially self-correlate).
    #[must_use]
    pub fn learn(&self, snippets: &[String]) -> OrientationLexicon {
        let tagger = PosTagger::new();
        let mut count: HashMap<String, u32> = HashMap::new();
        let mut with_pos: HashMap<String, u32> = HashMap::new();
        let mut with_neg: HashMap<String, u32> = HashMap::new();
        let mut pos_snippets = 0u32;
        let mut neg_snippets = 0u32;

        let mut words: Vec<String> = Vec::new();
        let mut candidates: Vec<String> = Vec::new();
        let mut uniq: HashSet<String> = HashSet::new();
        let mut fold = String::new();
        for snip in snippets {
            words.clear();
            candidates.clear();
            for t in tokenize(snip) {
                if !t.kind.is_word() {
                    continue;
                }
                let lower = t.lower();
                if is_stopword(&lower) {
                    continue;
                }
                if matches!(
                    tagger.tag_text(t.text, t.kind, &mut fold),
                    PosTag::Vb | PosTag::Jj | PosTag::Rb
                ) {
                    candidates.push(lower.clone().into_owned());
                }
                words.push(lower.into_owned());
            }
            let has_pos = words.iter().any(|w| self.positive_seeds.contains(w));
            let has_neg = words.iter().any(|w| self.negative_seeds.contains(w));
            if has_pos {
                pos_snippets += 1;
            }
            if has_neg {
                neg_snippets += 1;
            }
            uniq.clear();
            uniq.extend(candidates.iter().cloned());
            for w in &uniq {
                if self.positive_seeds.contains(w) || self.negative_seeds.contains(w) {
                    continue;
                }
                *count.entry(w.clone()).or_default() += 1;
                if has_pos {
                    *with_pos.entry(w.clone()).or_default() += 1;
                }
                if has_neg {
                    *with_neg.entry(w.clone()).or_default() += 1;
                }
            }
        }

        let mut lexicon = OrientationLexicon::new();
        if pos_snippets == 0 || neg_snippets == 0 {
            return lexicon; // seeds absent: nothing to anchor on
        }
        const EPS: f64 = 0.5; // smoothing, plays Turney's 0.01-hit floor
        for (phrase, &n) in &count {
            if (n as usize) < self.min_count {
                continue;
            }
            let hp = f64::from(with_pos.get(phrase).copied().unwrap_or(0)) + EPS;
            let hn = f64::from(with_neg.get(phrase).copied().unwrap_or(0)) + EPS;
            let so = ((hp * f64::from(neg_snippets)) / (hn * f64::from(pos_snippets))).log2();
            if so.abs() >= self.min_orientation {
                lexicon.insert(phrase, so.clamp(-self.max_weight, self.max_weight));
            }
        }
        lexicon
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build a corpus where "surged"/"soared" ride with positive seeds
    /// and "plunged"/"tumbled" with negative ones.
    fn corpus() -> Vec<String> {
        let mut v = Vec::new();
        for i in 0..12 {
            v.push(format!(
                "Revenue surged and the growth was strong in round {i}."
            ));
            v.push(format!("Shares soared on record profit in round {i}."));
            v.push(format!(
                "Sales plunged amid the decline and a stark warning in round {i}."
            ));
            v.push(format!("The stock tumbled to a painful loss in round {i}."));
            v.push(format!("The committee met quietly in round {i}.")); // neutral
        }
        v
    }

    #[test]
    fn learns_signed_orientations() {
        let lex = LexiconLearner::revenue_seeds().learn(&corpus());
        assert!(!lex.is_empty());
        assert!(
            lex.score("revenue surged") > 0.0,
            "surged should be positive"
        );
        assert!(lex.score("shares soared") > 0.0);
        assert!(
            lex.score("sales plunged") < 0.0,
            "plunged should be negative"
        );
        assert!(lex.score("the stock tumbled") < 0.0);
    }

    #[test]
    fn neutral_words_excluded() {
        let lex = LexiconLearner::revenue_seeds().learn(&corpus());
        // "round" appears everywhere → |SO| ≈ 0 → filtered out.
        assert_eq!(lex.score("round"), 0.0);
        assert_eq!(lex.score("committee"), 0.0);
    }

    #[test]
    fn min_count_filters_rare_phrases() {
        let mut learner = LexiconLearner::revenue_seeds();
        learner.min_count = 100;
        assert!(learner.learn(&corpus()).is_empty());
    }

    #[test]
    fn empty_corpus_or_missing_seeds() {
        let learner = LexiconLearner::revenue_seeds();
        assert!(learner.learn(&[]).is_empty());
        let no_seeds = vec!["the cat sat on the mat".to_string(); 10];
        assert!(learner.learn(&no_seeds).is_empty());
    }

    #[test]
    fn weights_are_clamped() {
        let learner = LexiconLearner::revenue_seeds();
        let lex = learner.learn(&corpus());
        // Every learned single-phrase weight obeys the cap ("surged"
        // alone; multi-word scores are sums of per-phrase weights).
        assert!(lex.score("surged").abs() <= learner.max_weight + 1e-9);
        assert!(lex.score("plunged").abs() <= learner.max_weight + 1e-9);
    }

    #[test]
    fn seeds_themselves_are_not_candidates() {
        let lex = LexiconLearner::revenue_seeds().learn(&corpus());
        // "growth" is a seed; its orientation comes from the manual seed
        // list, not the learned lexicon.
        assert_eq!(lex.score("growth"), 0.0);
    }
}
