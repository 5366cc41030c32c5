//! Rule-based sentence-boundary detection.
//!
//! ETAP operates on *snippets* — groups of consecutive sentences — so it
//! needs a sentence chunker first. The paper (§3.1) describes "a sentence
//! chunker based on rules for sentence boundary detection"; this module
//! implements such a chunker for English business text.
//!
//! The rules handle the classic pitfalls of naive `split('.')`:
//!
//! * honorifics and other abbreviations (`Mr.`, `Inc.`, `Corp.`, `Jan.`),
//! * initials in person names (`J. P. Morgan`),
//! * decimal numbers (`5.3`) and monetary figures (`$1.2 billion`),
//! * ellipses (`...`) and quoted sentence ends (`."`, `.'`),
//! * terminators `!`, `?` and hard breaks (blank lines).

use crate::token::{is_capitalized, tokenize_into, TokenSpan};

/// Byte span of a sentence within the source document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SentenceSpan {
    /// Byte offset of the first character of the sentence.
    pub start: usize,
    /// Byte offset one past the last character of the sentence.
    pub end: usize,
}

impl SentenceSpan {
    /// Slice the sentence text out of the source document.
    #[must_use]
    pub fn text<'a>(&self, source: &'a str) -> &'a str {
        &source[self.start..self.end]
    }
}

/// Abbreviations that end with a period without ending a sentence.
///
/// Lowercased, without the trailing dot. Company suffixes (`inc`, `corp`)
/// *can* legitimately end sentences — "IBM acquired XYZ Inc." — so they
/// are treated specially: a boundary is placed after them only when the
/// next token starts a new sentence (capitalised or digit).
const NON_TERMINAL_ABBREVS: &[&str] = &[
    "mr", "mrs", "ms", "dr", "prof", "rev", "gen", "sen", "rep", "gov", "sgt", "col", "capt", "lt",
    "cmdr", "adm", "maj", "hon", "fr", "pres", "supt", "st", "jr", "sr", "vs", "etc", "eg", "ie",
    "cf", "al", "approx", "dept", "est", "fig", "min", "max", "no", "tel", "jan", "feb", "mar",
    "apr", "jun", "jul", "aug", "sep", "sept", "oct", "nov", "dec", "mon", "tue", "wed", "thu",
    "fri", "sat", "sun", "u.s", "u.k", "a.m", "p.m", "e.g", "i.e",
];

/// Company-designator abbreviations: sentence-final only when followed by
/// a plausible sentence start.
const COMPANY_ABBREVS: &[&str] = &[
    "inc", "corp", "co", "ltd", "plc", "llc", "llp", "bros", "mfg", "intl",
];

fn is_non_terminal_abbrev(word: &str) -> bool {
    NON_TERMINAL_ABBREVS.iter().any(|a| a.eq_ignore_ascii_case(word))
}

fn is_company_abbrev(word: &str) -> bool {
    COMPANY_ABBREVS.iter().any(|a| a.eq_ignore_ascii_case(word))
}

/// A single-character uppercase initial, as in `J. P. Morgan`.
fn is_initial(word: &str) -> bool {
    let mut chars = word.chars();
    matches!((chars.next(), chars.next()), (Some(c), None) if c.is_uppercase())
}

/// Rule-based sentence chunker.
///
/// ```
/// use etap_text::SentenceChunker;
/// let chunker = SentenceChunker::new();
/// let doc = "Mr. Smith joined Acme Corp. in 1999. He became CEO last week.";
/// let sents = chunker.sentences(doc);
/// assert_eq!(sents.len(), 2);
/// assert!(sents[0].text(doc).starts_with("Mr. Smith"));
/// assert!(sents[1].text(doc).starts_with("He became"));
/// ```
#[derive(Debug, Default, Clone)]
pub struct SentenceChunker {
    _private: (),
}

impl SentenceChunker {
    /// Create a chunker with the default English rule set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Split `text` into sentence spans.
    ///
    /// Spans never overlap, appear in document order, and each span's
    /// text contains at least one non-whitespace character. Text between
    /// sentences (whitespace) belongs to no span.
    #[must_use]
    pub fn sentences(&self, text: &str) -> Vec<SentenceSpan> {
        let mut spans = Vec::new();
        self.sentences_into(text, &mut Vec::new(), &mut spans);
        spans
    }

    /// [`SentenceChunker::sentences`] into caller-kept buffers (both
    /// cleared first): `tokens` is working space, `spans` receives the
    /// sentences. Allocation-free once the buffers are warm.
    pub fn sentences_into(&self, text: &str, tokens: &mut Vec<TokenSpan>, spans: &mut Vec<SentenceSpan>) {
        spans.clear();
        tokenize_into(text, tokens);
        let tok = |i: usize| tokens[i].text(text);
        let mut sent_start_tok = 0usize;
        let mut i = 0usize;
        while i < tokens.len() {
            let boundary = match tok(i) {
                "." => self.period_is_boundary(text, tokens, i),
                "!" | "?" => true,
                _ => {
                    // Hard break: a blank line between this token and the
                    // next one always separates sentences (e.g. headline
                    // followed by body text).
                    i + 1 < tokens.len()
                        && has_blank_line(text, tokens[i].end as usize, tokens[i + 1].start as usize)
                }
            };
            if boundary {
                // Absorb trailing closing quotes/brackets into this sentence.
                let mut end_tok = i;
                while end_tok + 1 < tokens.len()
                    && matches!(tok(end_tok + 1), "\"" | "'" | ")" | "\u{201d}" | "\u{2019}")
                    && tokens[end_tok + 1].start == tokens[end_tok].end
                {
                    end_tok += 1;
                }
                spans.push(SentenceSpan {
                    start: tokens[sent_start_tok].start as usize,
                    end: tokens[end_tok].end as usize,
                });
                i = end_tok + 1;
                sent_start_tok = i;
                continue;
            }
            i += 1;
        }
        if sent_start_tok < tokens.len() {
            spans.push(SentenceSpan {
                start: tokens[sent_start_tok].start as usize,
                end: tokens[tokens.len() - 1].end as usize,
            });
        }
    }

    /// Convenience: return owned sentence strings.
    #[must_use]
    pub fn sentence_texts<'a>(&self, text: &'a str) -> Vec<&'a str> {
        self.sentences(text)
            .into_iter()
            .map(|s| s.text(text))
            .collect()
    }

    /// Decide whether the period at token index `i` terminates a sentence.
    fn period_is_boundary(&self, text: &str, tokens: &[TokenSpan], i: usize) -> bool {
        let Some(prev) = i.checked_sub(1).map(|p| tokens[p]) else {
            return true; // A leading period: treat as terminator.
        };
        let prev_text = prev.text(text);
        // The period must be attached to the previous token to be an
        // abbreviation dot; a free-standing " . " is a terminator.
        let attached = prev.end == tokens[i].start;

        let next = tokens.get(i + 1).map(|n| (n, n.text(text)));
        let next_capitalized = next.is_some_and(|(n, t)| is_capitalized(t, n.kind));

        // Ellipsis: consume as boundary only if followed by a capital.
        if let Some((_, ".")) = next {
            return false; // middle of "..." — defer to the last dot
        }

        if attached && is_initial(prev_text) && prev.kind.is_word() && next_capitalized {
            // "J." in "J. P. Morgan" — not a boundary if the next token
            // is another initial or a capitalised surname.
            return false;
        }

        if attached && is_non_terminal_abbrev(prev_text) {
            return false;
        }

        if attached && is_company_abbrev(prev_text) {
            // "Acme Corp. announced" — "announced" is lowercase, so the
            // dot belongs to the abbreviation; "Acme Corp. Its shares…"
            // starts a new sentence.
            return match next {
                Some((n, t)) => (next_capitalized || n.kind.is_numeric()) && !is_company_abbrev(t),
                None => true,
            };
        }

        // Decimal-number guard: tokenizer already keeps "5.3" together,
        // but "5 . 3" with spaces should still not split. Conservative:
        // digit '.' digit is not a boundary.
        if let (true, Some((n, _))) = (prev.kind.is_numeric(), next) {
            if n.kind.is_numeric() && attached && n.start == tokens[i].end {
                return false;
            }
        }

        // Default: a period is a sentence terminator.
        true
    }
}

/// Is there a blank line (two line breaks) between byte `a` and byte `b`?
fn has_blank_line(text: &str, a: usize, b: usize) -> bool {
    text[a..b].matches('\n').count() >= 2
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sents(doc: &str) -> Vec<&str> {
        SentenceChunker::new().sentence_texts(doc)
    }

    #[test]
    fn empty_and_whitespace() {
        assert!(sents("").is_empty());
        assert!(sents("  \n\n ").is_empty());
    }

    #[test]
    fn single_sentence_without_terminator() {
        assert_eq!(sents("profits rose sharply"), vec!["profits rose sharply"]);
    }

    #[test]
    fn splits_on_period() {
        assert_eq!(
            sents("Revenue grew. Profit fell."),
            vec!["Revenue grew.", "Profit fell."]
        );
    }

    #[test]
    fn splits_on_bang_and_question() {
        assert_eq!(
            sents("What a quarter! Will it last? Time will tell."),
            vec!["What a quarter!", "Will it last?", "Time will tell."]
        );
    }

    #[test]
    fn honorifics_do_not_split() {
        let doc = "Mr. Andersen was the CEO of XYZ Inc. from 1980 to 1985.";
        assert_eq!(sents(doc), vec![doc]);
    }

    #[test]
    fn company_suffix_mid_sentence() {
        let doc = "Acme Corp. announced record revenue for the quarter.";
        assert_eq!(sents(doc), vec![doc]);
    }

    #[test]
    fn company_suffix_at_sentence_end() {
        let doc = "IBM acquired Daksh Inc. The deal closed in April.";
        let got = sents(doc);
        assert_eq!(got.len(), 2, "{got:?}");
        assert_eq!(got[0], "IBM acquired Daksh Inc.");
    }

    #[test]
    fn initials_do_not_split() {
        let doc = "J. P. Morgan led the round. Goldman followed.";
        let got = sents(doc);
        assert_eq!(got.len(), 2, "{got:?}");
        assert!(got[0].starts_with("J. P. Morgan"));
    }

    #[test]
    fn decimals_do_not_split() {
        let doc = "Shares rose 5.3 percent. Analysts cheered.";
        let got = sents(doc);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], "Shares rose 5.3 percent.");
    }

    #[test]
    fn months_do_not_split() {
        let doc = "The merger closed on Jan. 12 this year.";
        assert_eq!(sents(doc), vec![doc]);
    }

    #[test]
    fn blank_line_is_hard_break() {
        let doc = "Acme Names New Chief\n\nAcme Corp named Jane Roe as CEO.";
        let got = sents(doc);
        assert_eq!(got.len(), 2, "{got:?}");
        assert_eq!(got[0], "Acme Names New Chief");
    }

    #[test]
    fn closing_quote_attaches_to_sentence() {
        let doc = "\"We are thrilled.\" The CEO smiled.";
        let got = sents(doc);
        assert_eq!(got.len(), 2, "{got:?}");
        assert_eq!(got[0], "\"We are thrilled.\"");
    }

    #[test]
    fn ellipsis_handled() {
        let doc = "Results were mixed... Investors shrugged.";
        let got = sents(doc);
        assert_eq!(got.len(), 2, "{got:?}");
        assert_eq!(got[0], "Results were mixed...");
    }

    #[test]
    fn spans_are_disjoint_and_ordered() {
        let doc = "One. Two! Three? Four.";
        let spans = SentenceChunker::new().sentences(doc);
        for w in spans.windows(2) {
            assert!(w[0].end <= w[1].start);
        }
        assert_eq!(spans.len(), 4);
    }

    #[test]
    fn span_text_roundtrip() {
        let doc = "Mr. Roe resigned. Ms. Doe takes over on Jan. 5.";
        for span in SentenceChunker::new().sentences(doc) {
            let t = span.text(doc);
            assert!(!t.trim().is_empty());
        }
    }
}
