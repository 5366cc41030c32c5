//! Semantic-orientation scoring (paper §4).
//!
//! > *"In ETAP, we use a simpler approach of scoring snippets using the
//! > semantic orientation of the words in the snippet. Phrases that
//! > convey a stronger sense, e.g., 'sharp decline', 'worst losses' are
//! > weighted more than other phrases, e.g., 'loss' and 'profit'. … We
//! > constructed a lexicon of positive and negative phrases and assigned
//! > weights to each phrase."*
//!
//! A lexicon maps (multi-word) phrases to signed weights; a snippet's
//! orientation score is the sum of the weights of all matched phrases,
//! with longer phrases shadowing the shorter phrases they contain
//! ("sharp decline" fires instead of "decline", not in addition).

use etap_text::tokenize;
use std::collections::HashMap;

/// A weighted phrase lexicon.
#[derive(Debug, Clone, Default)]
pub struct OrientationLexicon {
    /// Phrase (lowercase, single-space-joined tokens) → weight.
    phrases: HashMap<String, f64>,
    max_len: usize,
}

impl OrientationLexicon {
    /// Empty lexicon.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The paper's example lexicon for the *revenue growth* driver,
    /// extended to a workable size. Positive examples from the paper:
    /// "significant growth", "solid quarter"; negative: "severe losses",
    /// "sharp decline".
    #[must_use]
    pub fn revenue_growth() -> Self {
        let mut lex = Self::new();
        for (phrase, w) in [
            // Strong positive.
            ("significant growth", 2.0),
            ("solid quarter", 2.0),
            ("record revenue", 2.0),
            ("record profit", 2.0),
            ("strong demand", 1.5),
            ("beating analyst estimates", 2.0),
            ("raised its full-year outlook", 2.0),
            ("surged", 1.5),
            ("jumped", 1.2),
            ("climbed", 1.0),
            ("swung to a profit", 1.5),
            // Mild positive.
            ("growth", 1.0),
            ("profit", 0.5),
            ("rose", 0.5),
            ("gain", 0.5),
            ("expanded", 0.5),
            ("advanced", 0.5),
            // Mild negative.
            ("loss", -0.5),
            ("fell", -0.5),
            ("decline", -1.0),
            ("shrank", -1.0),
            // Strong negative.
            ("severe losses", -2.0),
            ("sharp decline", -2.0),
            ("worst losses", -2.5),
            ("profit warning", -2.0),
            ("may fall", -1.5),
        ] {
            lex.insert(phrase, w);
        }
        lex
    }

    /// Insert or update a phrase weight. Phrases are normalized through
    /// the shared tokenizer, so `"Sharp   Decline"` and `"sharp decline"`
    /// coincide.
    pub fn insert(&mut self, phrase: &str, weight: f64) {
        let key = normalize(phrase);
        if key.is_empty() {
            return;
        }
        self.max_len = self.max_len.max(key.split(' ').count());
        self.phrases.insert(key, weight);
    }

    /// Number of phrases.
    #[must_use]
    pub fn len(&self) -> usize {
        self.phrases.len()
    }

    /// True when the lexicon is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.phrases.is_empty()
    }

    /// Phrase/weight pairs sorted by phrase — the deterministic order
    /// serializers need (the backing map is unordered).
    #[must_use]
    pub fn entries(&self) -> Vec<(&str, f64)> {
        let mut v: Vec<(&str, f64)> = self.phrases.iter().map(|(k, &w)| (k.as_str(), w)).collect();
        v.sort_by(|a, b| a.0.cmp(b.0));
        v
    }

    /// Score a snippet: sum of matched phrase weights, longest match
    /// first (a matched span is consumed).
    #[must_use]
    pub fn score(&self, text: &str) -> f64 {
        let words: Vec<String> = tokenize(text)
            .iter()
            .map(|t| t.lower().into_owned())
            .collect();
        let mut total = 0.0;
        let mut i = 0;
        while i < words.len() {
            let mut matched = 0usize;
            let mut key = String::new();
            let mut matched_weight = 0.0;
            for len in 1..=self.max_len.min(words.len() - i) {
                if len > 1 {
                    key.push(' ');
                }
                key.push_str(&words[i + len - 1]);
                if let Some(&w) = self.phrases.get(&key) {
                    matched = len;
                    matched_weight = w;
                }
            }
            if matched > 0 {
                total += matched_weight;
                i += matched;
            } else {
                i += 1;
            }
        }
        total
    }
}

fn normalize(phrase: &str) -> String {
    let toks = tokenize(phrase);
    let mut s = String::with_capacity(phrase.len());
    for (i, t) in toks.iter().enumerate() {
        if i > 0 {
            s.push(' ');
        }
        s.push_str(&t.lower());
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_lexicon_nonempty() {
        let lex = OrientationLexicon::revenue_growth();
        assert!(lex.len() > 20);
        assert!(!lex.is_empty());
    }

    #[test]
    fn positive_beats_negative_snippet() {
        let lex = OrientationLexicon::revenue_growth();
        let pos = lex.score("The company reported significant growth and a solid quarter.");
        let neg = lex.score("The company reported severe losses and a sharp decline.");
        assert!(pos > 0.0, "{pos}");
        assert!(neg < 0.0, "{neg}");
        assert!(pos > neg);
    }

    #[test]
    fn strong_phrases_outweigh_weak_words() {
        let lex = OrientationLexicon::revenue_growth();
        // Paper: "'sharp decline', 'worst losses' are weighted more than
        // … 'loss' and 'profit'".
        let strong = lex.score("a sharp decline").abs();
        let weak = lex.score("a loss").abs();
        assert!(strong > weak, "{strong} vs {weak}");
    }

    #[test]
    fn longest_match_shadows_submatch() {
        let mut lex = OrientationLexicon::new();
        lex.insert("decline", -1.0);
        lex.insert("sharp decline", -2.0);
        // "sharp decline" should contribute -2, not -3.
        assert!((lex.score("a sharp decline happened") + 2.0).abs() < 1e-9);
    }

    #[test]
    fn matching_is_case_insensitive() {
        let lex = OrientationLexicon::revenue_growth();
        assert!(lex.score("SIGNIFICANT GROWTH ahead") > 0.0);
    }

    #[test]
    fn empty_text_scores_zero() {
        let lex = OrientationLexicon::revenue_growth();
        assert_eq!(lex.score(""), 0.0);
        assert_eq!(lex.score("completely unrelated words"), 0.0);
    }

    #[test]
    fn insert_normalizes() {
        let mut lex = OrientationLexicon::new();
        lex.insert("Sharp   Decline", -2.0);
        assert!((lex.score("sharp decline") + 2.0).abs() < 1e-9);
    }

    #[test]
    fn repeated_phrases_accumulate() {
        let mut lex = OrientationLexicon::new();
        lex.insert("growth", 1.0);
        assert!((lex.score("growth growth growth") - 3.0).abs() < 1e-9);
    }
}
