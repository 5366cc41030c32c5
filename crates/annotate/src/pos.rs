//! Part-of-speech tagging.
//!
//! The paper assigns "a part-of-speech category as determined by QTag"
//! to every token that the NER does not cover. QTag is a probabilistic
//! tagger; our stand-in is a lexicon + rule tagger that emits the same
//! coarse categories the paper's Figures 3/4 plot in lowercase: `vb`
//! (verb), `rb` (adverb), `nn` (common noun), `np` (proper noun), `jj`
//! (adjective) plus the closed classes (`dt`, `in`, `prp`, `cc`, `md`,
//! `cd`, `to`).
//!
//! Tagging proceeds in priority order:
//! 1. closed-class lexicon (exact lowercase match),
//! 2. open-class lexicon of frequent business-news words,
//! 3. morphological suffix rules (`-ly` → rb, `-tion` → nn, …),
//! 4. shape rules (capitalised → np, numeric → cd),
//! 5. default: nn.

use etap_text::{is_capitalized, lower_into, TokenKind, TokenSpan};
use std::cmp::Ordering;
use std::fmt;

/// Coarse part-of-speech tags (QTag-style, lowercase as in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PosTag {
    /// Verb (any inflection): `acquired`, `announces`.
    Vb,
    /// Adverb: `sharply`, `recently`.
    Rb,
    /// Common noun: `revenue`, `merger`.
    Nn,
    /// Proper noun: unknown capitalised word.
    Np,
    /// Adjective: `strong`, `quarterly`.
    Jj,
    /// Determiner: `the`, `a`, `this`.
    Dt,
    /// Preposition / subordinating conjunction: `of`, `in`, `after`.
    In,
    /// Pronoun: `he`, `it`, `they`.
    Prp,
    /// Coordinating conjunction: `and`, `but`, `or`.
    Cc,
    /// Modal: `will`, `could`, `may`.
    Md,
    /// Cardinal number: `1996`, `5.3`, `three`.
    Cd,
    /// The word `to`.
    To,
    /// Punctuation.
    Punct,
}

impl PosTag {
    /// All tags.
    pub const ALL: [PosTag; 13] = [
        PosTag::Vb,
        PosTag::Rb,
        PosTag::Nn,
        PosTag::Np,
        PosTag::Jj,
        PosTag::Dt,
        PosTag::In,
        PosTag::Prp,
        PosTag::Cc,
        PosTag::Md,
        PosTag::Cd,
        PosTag::To,
        PosTag::Punct,
    ];

    /// Lowercase tag name, as in the paper's figures ("part of speech
    /// category names are expressed in small letters").
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            PosTag::Vb => "vb",
            PosTag::Rb => "rb",
            PosTag::Nn => "nn",
            PosTag::Np => "np",
            PosTag::Jj => "jj",
            PosTag::Dt => "dt",
            PosTag::In => "in",
            PosTag::Prp => "prp",
            PosTag::Cc => "cc",
            PosTag::Md => "md",
            PosTag::Cd => "cd",
            PosTag::To => "to",
            PosTag::Punct => "punct",
        }
    }

    /// The content tags whose instance values the paper found worth
    /// keeping (Figures 3/4: "verbs (vb), adverbs (rb), nouns (nn and np)
    /// and adjectives (jj) should not be abstracted at all").
    #[must_use]
    pub fn is_content(self) -> bool {
        matches!(
            self,
            PosTag::Vb | PosTag::Rb | PosTag::Nn | PosTag::Np | PosTag::Jj
        )
    }
}

impl fmt::Display for PosTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// (word, tag) pairs for closed classes and frequent open-class words.
/// Lowercase keys. Order within the array does not matter; lookups go
/// through a sorted binary search built at construction.
const LEXICON: &[(&str, PosTag)] = &[
    // Determiners.
    ("a", PosTag::Dt),
    ("an", PosTag::Dt),
    ("the", PosTag::Dt),
    ("this", PosTag::Dt),
    ("that", PosTag::Dt),
    ("these", PosTag::Dt),
    ("those", PosTag::Dt),
    ("each", PosTag::Dt),
    ("every", PosTag::Dt),
    ("some", PosTag::Dt),
    ("any", PosTag::Dt),
    ("no", PosTag::Dt),
    ("all", PosTag::Dt),
    ("both", PosTag::Dt),
    ("another", PosTag::Dt),
    ("its", PosTag::Dt),
    ("his", PosTag::Dt),
    ("her", PosTag::Dt),
    ("their", PosTag::Dt),
    ("our", PosTag::Dt),
    // Prepositions / subordinators.
    ("of", PosTag::In),
    ("in", PosTag::In),
    ("on", PosTag::In),
    ("at", PosTag::In),
    ("by", PosTag::In),
    ("for", PosTag::In),
    ("with", PosTag::In),
    ("from", PosTag::In),
    ("into", PosTag::In),
    ("over", PosTag::In),
    ("under", PosTag::In),
    ("after", PosTag::In),
    ("before", PosTag::In),
    ("during", PosTag::In),
    ("since", PosTag::In),
    ("until", PosTag::In),
    ("about", PosTag::In),
    ("against", PosTag::In),
    ("between", PosTag::In),
    ("through", PosTag::In),
    ("as", PosTag::In),
    ("than", PosTag::In),
    ("per", PosTag::In),
    ("amid", PosTag::In),
    ("despite", PosTag::In),
    ("via", PosTag::In),
    ("within", PosTag::In),
    ("without", PosTag::In),
    ("including", PosTag::In),
    ("following", PosTag::In),
    ("if", PosTag::In),
    ("while", PosTag::In),
    ("because", PosTag::In),
    ("although", PosTag::In),
    // Pronouns.
    ("i", PosTag::Prp),
    ("you", PosTag::Prp),
    ("he", PosTag::Prp),
    ("she", PosTag::Prp),
    ("it", PosTag::Prp),
    ("we", PosTag::Prp),
    ("they", PosTag::Prp),
    ("him", PosTag::Prp),
    ("them", PosTag::Prp),
    ("us", PosTag::Prp),
    ("who", PosTag::Prp),
    ("which", PosTag::Prp),
    ("what", PosTag::Prp),
    ("itself", PosTag::Prp),
    ("himself", PosTag::Prp),
    ("herself", PosTag::Prp),
    // Conjunctions.
    ("and", PosTag::Cc),
    ("or", PosTag::Cc),
    ("but", PosTag::Cc),
    ("nor", PosTag::Cc),
    ("yet", PosTag::Cc),
    ("so", PosTag::Cc),
    // Modals.
    ("will", PosTag::Md),
    ("would", PosTag::Md),
    ("can", PosTag::Md),
    ("could", PosTag::Md),
    ("may", PosTag::Md),
    ("might", PosTag::Md),
    ("shall", PosTag::Md),
    ("should", PosTag::Md),
    ("must", PosTag::Md),
    // To.
    ("to", PosTag::To),
    // Frequent verbs (business news).
    ("is", PosTag::Vb),
    ("are", PosTag::Vb),
    ("was", PosTag::Vb),
    ("were", PosTag::Vb),
    ("be", PosTag::Vb),
    ("been", PosTag::Vb),
    ("being", PosTag::Vb),
    ("has", PosTag::Vb),
    ("have", PosTag::Vb),
    ("had", PosTag::Vb),
    ("do", PosTag::Vb),
    ("does", PosTag::Vb),
    ("did", PosTag::Vb),
    ("said", PosTag::Vb),
    ("says", PosTag::Vb),
    ("say", PosTag::Vb),
    ("acquire", PosTag::Vb),
    ("acquires", PosTag::Vb),
    ("buy", PosTag::Vb),
    ("buys", PosTag::Vb),
    ("bought", PosTag::Vb),
    ("sell", PosTag::Vb),
    ("sells", PosTag::Vb),
    ("sold", PosTag::Vb),
    ("merge", PosTag::Vb),
    ("merges", PosTag::Vb),
    ("announce", PosTag::Vb),
    ("announces", PosTag::Vb),
    ("report", PosTag::Vb),
    ("reports", PosTag::Vb),
    ("appoint", PosTag::Vb),
    ("appoints", PosTag::Vb),
    ("name", PosTag::Vb),
    ("names", PosTag::Vb),
    ("hire", PosTag::Vb),
    ("hires", PosTag::Vb),
    ("resign", PosTag::Vb),
    ("resigns", PosTag::Vb),
    ("retire", PosTag::Vb),
    ("retires", PosTag::Vb),
    ("join", PosTag::Vb),
    ("joins", PosTag::Vb),
    ("grow", PosTag::Vb),
    ("grows", PosTag::Vb),
    ("grew", PosTag::Vb),
    ("rose", PosTag::Vb),
    ("rise", PosTag::Vb),
    ("rises", PosTag::Vb),
    ("fell", PosTag::Vb),
    ("fall", PosTag::Vb),
    ("falls", PosTag::Vb),
    ("gain", PosTag::Vb),
    ("gains", PosTag::Vb),
    ("plans", PosTag::Vb),
    ("plan", PosTag::Vb),
    ("expects", PosTag::Vb),
    ("expect", PosTag::Vb),
    ("agrees", PosTag::Vb),
    ("agree", PosTag::Vb),
    ("completes", PosTag::Vb),
    ("complete", PosTag::Vb),
    ("succeed", PosTag::Vb),
    ("succeeds", PosTag::Vb),
    ("replace", PosTag::Vb),
    ("replaces", PosTag::Vb),
    ("step", PosTag::Vb),
    ("steps", PosTag::Vb),
    ("take", PosTag::Vb),
    ("takes", PosTag::Vb),
    ("took", PosTag::Vb),
    ("became", PosTag::Vb),
    ("become", PosTag::Vb),
    ("becomes", PosTag::Vb),
    ("led", PosTag::Vb),
    ("leads", PosTag::Vb),
    ("lead", PosTag::Vb),
    ("post", PosTag::Vb),
    ("posts", PosTag::Vb),
    ("posted", PosTag::Vb),
    ("beat", PosTag::Vb),
    ("beats", PosTag::Vb),
    ("serve", PosTag::Vb),
    ("serves", PosTag::Vb),
    ("served", PosTag::Vb),
    // Frequent adverbs.
    ("not", PosTag::Rb),
    ("also", PosTag::Rb),
    ("now", PosTag::Rb),
    ("then", PosTag::Rb),
    ("here", PosTag::Rb),
    ("there", PosTag::Rb),
    ("up", PosTag::Rb),
    ("down", PosTag::Rb),
    ("again", PosTag::Rb),
    ("already", PosTag::Rb),
    ("still", PosTag::Rb),
    ("soon", PosTag::Rb),
    ("later", PosTag::Rb),
    ("earlier", PosTag::Rb),
    ("today", PosTag::Rb),
    ("well", PosTag::Rb),
    ("very", PosTag::Rb),
    ("too", PosTag::Rb),
    ("ago", PosTag::Rb),
    ("once", PosTag::Rb),
    // Frequent adjectives.
    ("new", PosTag::Jj),
    ("big", PosTag::Jj),
    ("small", PosTag::Jj),
    ("large", PosTag::Jj),
    ("strong", PosTag::Jj),
    ("weak", PosTag::Jj),
    ("good", PosTag::Jj),
    ("bad", PosTag::Jj),
    ("high", PosTag::Jj),
    ("low", PosTag::Jj),
    ("sharp", PosTag::Jj),
    ("solid", PosTag::Jj),
    ("severe", PosTag::Jj),
    ("worst", PosTag::Jj),
    ("best", PosTag::Jj),
    ("former", PosTag::Jj),
    ("current", PosTag::Jj),
    ("interim", PosTag::Jj),
    ("recent", PosTag::Jj),
    ("fiscal", PosTag::Jj),
    ("financial", PosTag::Jj),
    ("net", PosTag::Jj),
    ("gross", PosTag::Jj),
    ("global", PosTag::Jj),
    ("key", PosTag::Jj),
    ("major", PosTag::Jj),
    ("last", PosTag::Jj),
    ("next", PosTag::Jj),
    ("first", PosTag::Jj),
    ("second", PosTag::Jj),
    ("third", PosTag::Jj),
    ("fourth", PosTag::Jj),
    ("top", PosTag::Jj),
    ("senior", PosTag::Jj),
    ("significant", PosTag::Jj),
    ("outstanding", PosTag::Jj),
    ("effective", PosTag::Jj),
    ("immediate", PosTag::Jj),
    // Frequent nouns the suffix rules would otherwise miss.
    ("revenue", PosTag::Nn),
    ("profit", PosTag::Nn),
    ("loss", PosTag::Nn),
    ("losses", PosTag::Nn),
    ("growth", PosTag::Nn),
    ("merger", PosTag::Nn),
    ("deal", PosTag::Nn),
    ("stake", PosTag::Nn),
    ("share", PosTag::Nn),
    ("shares", PosTag::Nn),
    ("stock", PosTag::Nn),
    ("market", PosTag::Nn),
    ("company", PosTag::Nn),
    ("companies", PosTag::Nn),
    ("firm", PosTag::Nn),
    ("quarter", PosTag::Nn),
    ("year", PosTag::Nn),
    ("month", PosTag::Nn),
    ("week", PosTag::Nn),
    ("sales", PosTag::Nn),
    ("earnings", PosTag::Nn),
    ("results", PosTag::Nn),
    ("board", PosTag::Nn),
    ("unit", PosTag::Nn),
    ("business", PosTag::Nn),
    ("industry", PosTag::Nn),
    ("analyst", PosTag::Nn),
    ("analysts", PosTag::Nn),
    ("investor", PosTag::Nn),
    ("investors", PosTag::Nn),
    ("customer", PosTag::Nn),
    ("customers", PosTag::Nn),
    ("employee", PosTag::Nn),
    ("employees", PosTag::Nn),
    ("decline", PosTag::Nn),
    ("cash", PosTag::Nn),
    ("percent", PosTag::Nn),
    ("products", PosTag::Nn),
    ("product", PosTag::Nn),
    ("services", PosTag::Nn),
    ("service", PosTag::Nn),
];

/// Lexicon + rule part-of-speech tagger.
#[derive(Debug, Clone)]
pub struct PosTagger {
    lexicon: Vec<(&'static str, PosTag)>,
}

impl Default for PosTagger {
    fn default() -> Self {
        let mut lexicon = LEXICON.to_vec();
        lexicon.sort_unstable_by_key(|(w, _)| *w);
        Self { lexicon }
    }
}

impl PosTagger {
    /// Create a tagger with the built-in lexicon.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Tag a word given its text and shape: lowercased lexicon lookup,
    /// then suffix and shape rules. ASCII words (the common case) are
    /// looked up with an in-place case-folding comparator and byte-level
    /// suffix rules; non-ASCII words lower through `scratch`, which is
    /// written only then.
    #[must_use]
    pub fn tag_text(&self, text: &str, kind: TokenKind, scratch: &mut String) -> PosTag {
        if kind == TokenKind::Punct {
            return PosTag::Punct;
        }
        if kind.is_numeric() {
            return PosTag::Cd;
        }
        if text.is_ascii() {
            if let Ok(i) = self.lexicon.binary_search_by(|(w, _)| cmp_folded(w, text)) {
                return self.lexicon[i].1;
            }
            if let Some(tag) = suffix_rule_ascii(text.as_bytes()) {
                return tag;
            }
        } else {
            lower_into(text, scratch);
            if let Ok(i) = self
                .lexicon
                .binary_search_by(|(w, _)| (*w).cmp(scratch.as_str()))
            {
                return self.lexicon[i].1;
            }
            // Morphological suffix rules on the lowercase form.
            if let Some(tag) = suffix_rule(scratch) {
                return tag;
            }
        }
        // Shape rules.
        if is_capitalized(text, kind) {
            return PosTag::Np;
        }
        PosTag::Nn
    }

    /// Tag every token span of `text` into a caller-kept vector
    /// (cleared first).
    pub(crate) fn tag_spans_into(
        &self,
        text: &str,
        spans: &[TokenSpan],
        scratch: &mut String,
        out: &mut Vec<PosTag>,
    ) {
        out.clear();
        out.extend(
            spans
                .iter()
                .map(|s| self.tag_text(s.text(text), s.kind, scratch)),
        );
    }
}

/// Compare a lowercase-ASCII lexicon key against `text` folded to ASCII
/// lowercase, without materialising the folded string. Equivalent to
/// `w.cmp(&text.to_ascii_lowercase())`.
fn cmp_folded(w: &str, text: &str) -> Ordering {
    let a = w.as_bytes();
    let b = text.as_bytes();
    for (x, y) in a.iter().zip(b) {
        match x.cmp(&y.to_ascii_lowercase()) {
            Ordering::Equal => {}
            other => return other,
        }
    }
    a.len().cmp(&b.len())
}

/// Whether ASCII bytes `s` end with lowercase suffix `suf` under ASCII
/// case folding.
fn ends_fold(s: &[u8], suf: &str) -> bool {
    let suf = suf.as_bytes();
    s.len() >= suf.len()
        && s[s.len() - suf.len()..]
            .iter()
            .zip(suf)
            .all(|(b, e)| b.to_ascii_lowercase() == *e)
}

/// [`suffix_rule`] specialised to ASCII bytes with in-place case folding;
/// byte length equals lowered length for ASCII, so the thresholds match.
fn suffix_rule_ascii(s: &[u8]) -> Option<PosTag> {
    if s.len() > 4 && ends_fold(s, "ly") {
        return Some(PosTag::Rb);
    }
    for suf in [
        "tion", "sion", "ment", "ness", "ship", "ance", "ence", "ity", "ism", "ist",
    ] {
        if s.len() > suf.len() + 2 && ends_fold(s, suf) {
            return Some(PosTag::Nn);
        }
    }
    if s.len() > 4 && (ends_fold(s, "er") || ends_fold(s, "or")) {
        return Some(PosTag::Nn);
    }
    for suf in ["ous", "ful", "ive", "able", "ible", "al", "ic", "ish"] {
        if s.len() > suf.len() + 2 && ends_fold(s, suf) {
            return Some(PosTag::Jj);
        }
    }
    if s.len() > 4 && (ends_fold(s, "ing") || ends_fold(s, "ed")) {
        return Some(PosTag::Vb);
    }
    if s.len() > 3 && ends_fold(s, "ize") {
        return Some(PosTag::Vb);
    }
    None
}

/// Morphological fallback rules, ordered by reliability.
fn suffix_rule(lower: &str) -> Option<PosTag> {
    // Adverbs.
    if lower.len() > 4 && lower.ends_with("ly") {
        return Some(PosTag::Rb);
    }
    // Nominal suffixes.
    for suf in [
        "tion", "sion", "ment", "ness", "ship", "ance", "ence", "ity", "ism", "ist",
    ] {
        if lower.len() > suf.len() + 2 && lower.ends_with(suf) {
            return Some(PosTag::Nn);
        }
    }
    // -er / -or agent nouns vs comparatives: treat as noun (chairman,
    // officer, investor dominate business text).
    if lower.len() > 4 && (lower.ends_with("er") || lower.ends_with("or")) {
        return Some(PosTag::Nn);
    }
    // Adjectival suffixes.
    for suf in ["ous", "ful", "ive", "able", "ible", "al", "ic", "ish"] {
        if lower.len() > suf.len() + 2 && lower.ends_with(suf) {
            return Some(PosTag::Jj);
        }
    }
    // Verbal inflections.
    if lower.len() > 4 && (lower.ends_with("ing") || lower.ends_with("ed")) {
        return Some(PosTag::Vb);
    }
    if lower.len() > 3 && lower.ends_with("ize") {
        return Some(PosTag::Vb);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Annotator;
    use etap_text::tokenize;

    /// The POS tag the annotator gives the first token of `word`.
    fn tag_of(word: &str) -> PosTag {
        Annotator::new().annotate(word).pos(0)
    }

    #[test]
    fn tag_spans_into_matches_tag_text() {
        use etap_text::tokenize_into;
        let text = "The Board ANNOUNCED sharply lower fourth-quarter résumé figures in 2004, Société Générale said.";
        let tagger = PosTagger::new();
        let mut scratch = String::new();
        let expect: Vec<PosTag> = tokenize(text)
            .iter()
            .map(|t| tagger.tag_text(t.text, t.kind, &mut scratch))
            .collect();
        let mut spans = Vec::new();
        let mut out = Vec::new();
        tokenize_into(text, &mut spans);
        tagger.tag_spans_into(text, &spans, &mut scratch, &mut out);
        assert_eq!(out, expect);
    }

    #[test]
    fn closed_classes() {
        assert_eq!(tag_of("the"), PosTag::Dt);
        assert_eq!(tag_of("of"), PosTag::In);
        assert_eq!(tag_of("and"), PosTag::Cc);
        assert_eq!(tag_of("they"), PosTag::Prp);
        assert_eq!(tag_of("would"), PosTag::Md);
        assert_eq!(tag_of("to"), PosTag::To);
    }

    #[test]
    fn lexicon_verbs() {
        assert_eq!(tag_of("acquired"), PosTag::Vb);
        assert_eq!(tag_of("announces"), PosTag::Vb);
        assert_eq!(tag_of("resigned"), PosTag::Vb);
        assert_eq!(tag_of("grew"), PosTag::Vb);
    }

    #[test]
    fn suffix_rules() {
        assert_eq!(tag_of("sharply"), PosTag::Rb);
        assert_eq!(tag_of("acquisition"), PosTag::Nn);
        assert_eq!(tag_of("announcement"), PosTag::Nn);
        assert_eq!(tag_of("profitable"), PosTag::Jj);
        assert_eq!(tag_of("restructuring"), PosTag::Vb);
    }

    #[test]
    fn shape_rules() {
        assert_eq!(tag_of("Zyxcorp"), PosTag::Np); // unknown capitalised
        assert_eq!(tag_of("1996"), PosTag::Cd);
        assert_eq!(tag_of("5.3"), PosTag::Cd);
        assert_eq!(tag_of("."), PosTag::Punct);
        assert_eq!(tag_of("widget"), PosTag::Nn); // unknown lowercase
    }

    #[test]
    fn case_insensitive_lexicon() {
        assert_eq!(tag_of("The"), PosTag::Dt);
        assert_eq!(tag_of("AND"), PosTag::Cc);
    }

    #[test]
    fn sentence_tagging() {
        let snip = Annotator::new().annotate("The company acquired a small firm.");
        assert_eq!(
            snip.pos_tags(),
            vec![
                PosTag::Dt,
                PosTag::Nn,
                PosTag::Vb,
                PosTag::Dt,
                PosTag::Jj,
                PosTag::Nn,
                PosTag::Punct
            ]
        );
    }

    #[test]
    fn content_tag_partition() {
        assert!(PosTag::Vb.is_content());
        assert!(PosTag::Nn.is_content());
        assert!(PosTag::Np.is_content());
        assert!(PosTag::Jj.is_content());
        assert!(PosTag::Rb.is_content());
        assert!(!PosTag::Dt.is_content());
        assert!(!PosTag::Punct.is_content());
    }

    #[test]
    fn lexicon_is_consistent_after_sort() {
        // Every word in the raw lexicon must be findable.
        let tagger = PosTagger::new();
        let mut scratch = String::new();
        for (w, t) in LEXICON {
            let toks = tokenize(w);
            if toks.len() == 1 {
                let tag = tagger.tag_text(toks[0].text, toks[0].kind, &mut scratch);
                assert_eq!(tag, *t, "lexicon lookup for {w}");
            }
        }
    }

    #[test]
    fn tag_names_lowercase_and_unique() {
        let mut names: Vec<&str> = PosTag::ALL.iter().map(|t| t.tag()).collect();
        for n in &names {
            assert_eq!(*n, n.to_lowercase());
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PosTag::ALL.len());
    }
}
