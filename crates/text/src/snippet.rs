//! Snippet generation.
//!
//! ETAP's unit of classification is the *snippet*: "a group of n
//! consecutive sentences. We have used n = 3 in our system" (paper §3.1).
//! The motivation the paper gives is that "a snippet conveys a precise
//! piece of information, in contrast with the entire document that
//! contains the snippet".

use crate::sentence::{SentenceChunker, SentenceSpan};
use crate::token::TokenSpan;

/// A snippet: `n` consecutive sentences from one document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snippet {
    /// The snippet text (sentences joined with a single space).
    pub text: String,
    /// Byte span of the snippet in the source document (first sentence
    /// start to last sentence end).
    pub start: usize,
    /// End byte offset in the source document.
    pub end: usize,
    /// Index of the first sentence of this snippet within the document.
    pub first_sentence: usize,
    /// Number of sentences in this snippet (`<= n`; trailing snippets of
    /// a short document may be shorter).
    pub len: usize,
}

/// How consecutive snippet windows advance through the document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowMode {
    /// Disjoint windows: sentences 0..n, n..2n, … (ETAP's default — each
    /// sentence belongs to exactly one snippet).
    Disjoint,
    /// Sliding windows with stride 1: sentences 0..n, 1..n+1, … up to the
    /// last *full* window (a document shorter than `n` sentences yields a
    /// single partial window). Useful when recall matters more than
    /// snippet count.
    Sliding,
}

/// Splits documents into snippets of `n` consecutive sentences.
///
/// ```
/// use etap_text::SnippetGenerator;
/// let gen = SnippetGenerator::new(2);
/// let doc = "One. Two. Three. Four. Five.";
/// let snips = gen.snippets(doc);
/// assert_eq!(snips.len(), 3);
/// assert_eq!(snips[0].text, "One. Two.");
/// assert_eq!(snips[2].text, "Five.");
/// ```
#[derive(Debug, Clone)]
pub struct SnippetGenerator {
    chunker: SentenceChunker,
    n: usize,
    mode: WindowMode,
}

impl Default for SnippetGenerator {
    /// The paper's configuration: disjoint windows of `n = 3` sentences.
    fn default() -> Self {
        Self::new(3)
    }
}

impl SnippetGenerator {
    /// Create a generator producing disjoint windows of `n` sentences.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "snippet window must contain at least one sentence");
        Self {
            chunker: SentenceChunker::new(),
            n,
            mode: WindowMode::Disjoint,
        }
    }

    /// Switch to sliding (stride-1) windows.
    #[must_use]
    pub fn sliding(mut self) -> Self {
        self.mode = WindowMode::Sliding;
        self
    }

    /// The window size `n`.
    #[must_use]
    pub fn window(&self) -> usize {
        self.n
    }

    /// Split `doc` into snippets.
    #[must_use]
    pub fn snippets(&self, doc: &str) -> Vec<Snippet> {
        let spans = self.chunker.sentences(doc);
        self.snippets_from_spans(doc, &spans)
    }

    /// Build snippets from pre-computed sentence spans (avoids re-running
    /// the chunker when the caller already has them).
    #[must_use]
    pub fn snippets_from_spans(&self, doc: &str, spans: &[SentenceSpan]) -> Vec<Snippet> {
        (0..self.window_count(spans.len()))
            .map(|k| {
                let sentences = self.sentences_of(k, spans.len());
                let window = &spans[sentences.clone()];
                let mut text = String::new();
                join_window(doc, window, &mut text);
                Snippet {
                    text,
                    start: window[0].start,
                    end: window[window.len() - 1].end,
                    first_sentence: sentences.start,
                    len: window.len(),
                }
            })
            .collect()
    }

    /// Split `doc` into sentences held in `scratch` and return how many
    /// snippets it has; [`SnippetGenerator::snippet_text`] then joins
    /// them one at a time. The allocation-free counterpart of
    /// [`SnippetGenerator::snippets`] for scans that read each snippet's
    /// text once and keep almost none of them: snippet `k`'s text is the
    /// same string as `self.snippets(doc)[k].text`.
    pub fn split(&self, doc: &str, scratch: &mut SnippetScratch) -> usize {
        self.chunker
            .sentences_into(doc, &mut scratch.tokens, &mut scratch.spans);
        self.window_count(scratch.spans.len())
    }

    /// The text of snippet `k` of the document last [`split`](Self::split)
    /// into `scratch`, joined in the scratch's reused buffer.
    ///
    /// # Panics
    /// Panics if `k` is not below the count `split` returned.
    pub fn snippet_text<'s>(
        &self,
        doc: &str,
        k: usize,
        scratch: &'s mut SnippetScratch,
    ) -> &'s str {
        let window = self.sentences_of(k, scratch.spans.len());
        join_window(doc, &scratch.spans[window], &mut scratch.text);
        &scratch.text
    }

    /// Number of snippet windows over `n` sentences: disjoint windows
    /// cover every sentence once; sliding ones stop at the last full
    /// window (a document shorter than the window yields one partial).
    fn window_count(&self, n: usize) -> usize {
        if n == 0 {
            return 0;
        }
        match self.mode {
            WindowMode::Disjoint => n.div_ceil(self.n),
            WindowMode::Sliding => n.saturating_sub(self.n) + 1,
        }
    }

    /// Sentence indexes of window `k` over `n` sentences.
    fn sentences_of(&self, k: usize, n: usize) -> std::ops::Range<usize> {
        let first = match self.mode {
            WindowMode::Disjoint => k * self.n,
            WindowMode::Sliding => k,
        };
        first..usize::min(first + self.n, n)
    }
}

/// Join a window's sentences with single spaces into `out` (cleared
/// first).
fn join_window(doc: &str, window: &[SentenceSpan], out: &mut String) {
    out.clear();
    out.reserve(window.iter().map(|s| s.end - s.start + 1).sum());
    for (k, s) in window.iter().enumerate() {
        if k > 0 {
            out.push(' ');
        }
        out.push_str(s.text(doc));
    }
}

/// Reused buffers for [`SnippetGenerator::split`]: the chunker's
/// tokens, the sentence spans of the current document and one snippet's
/// joined text. Purely an
/// allocation cache; contents never influence results.
#[derive(Debug, Default, Clone)]
pub struct SnippetScratch {
    tokens: Vec<TokenSpan>,
    spans: Vec<SentenceSpan>,
    text: String,
}

impl SnippetScratch {
    /// Fresh (empty) scratch.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = "One. Two. Three. Four. Five. Six. Seven.";

    #[test]
    fn default_is_paper_config() {
        let g = SnippetGenerator::default();
        assert_eq!(g.window(), 3);
    }

    #[test]
    fn disjoint_windows_cover_every_sentence_once() {
        let g = SnippetGenerator::new(3);
        let snips = g.snippets(DOC);
        assert_eq!(snips.len(), 3);
        assert_eq!(snips[0].text, "One. Two. Three.");
        assert_eq!(snips[1].text, "Four. Five. Six.");
        assert_eq!(snips[2].text, "Seven.");
        let total: usize = snips.iter().map(|s| s.len).sum();
        assert_eq!(total, 7);
    }

    #[test]
    fn sliding_windows_stride_one() {
        let g = SnippetGenerator::new(3).sliding();
        let snips = g.snippets("Aa. Bb. Cc. Dd.");
        assert_eq!(snips.len(), 2);
        assert_eq!(snips[0].text, "Aa. Bb. Cc.");
        assert_eq!(snips[1].text, "Bb. Cc. Dd.");
    }

    #[test]
    fn sliding_short_document_single_partial() {
        let g = SnippetGenerator::new(3).sliding();
        let snips = g.snippets("Aa. Bb.");
        assert_eq!(snips.len(), 1);
        assert_eq!(snips[0].text, "Aa. Bb.");
    }

    #[test]
    fn window_of_one_yields_sentences() {
        let g = SnippetGenerator::new(1);
        let snips = g.snippets("Aa. Bb.");
        assert_eq!(snips.len(), 2);
        assert_eq!(snips[0].text, "Aa.");
    }

    #[test]
    fn short_document_single_partial_snippet() {
        let g = SnippetGenerator::new(3);
        let snips = g.snippets("Only one sentence here.");
        assert_eq!(snips.len(), 1);
        assert_eq!(snips[0].len, 1);
    }

    #[test]
    fn empty_document() {
        assert!(SnippetGenerator::new(3).snippets("").is_empty());
    }

    #[test]
    fn snippet_spans_map_into_document() {
        let g = SnippetGenerator::new(2);
        for s in g.snippets(DOC) {
            assert!(s.start < s.end && s.end <= DOC.len());
            // Snippet text is the in-document text modulo whitespace.
            let in_doc: String = DOC[s.start..s.end]
                .split_whitespace()
                .collect::<Vec<_>>()
                .join(" ");
            assert_eq!(in_doc, s.text);
        }
    }

    #[test]
    fn first_sentence_indices_advance() {
        let g = SnippetGenerator::new(3);
        let snips = g.snippets(DOC);
        assert_eq!(
            snips.iter().map(|s| s.first_sentence).collect::<Vec<_>>(),
            vec![0, 3, 6]
        );
    }

    #[test]
    fn split_and_join_match_owned_snippets() {
        let docs = [
            DOC,
            "",
            "Aa. Bb.",
            "Only one sentence here.",
            "Aa. Bb. Cc. Dd. Ee.",
        ];
        let mut scratch = SnippetScratch::new();
        for g in [
            SnippetGenerator::new(3),
            SnippetGenerator::new(1),
            SnippetGenerator::new(2).sliding(),
            SnippetGenerator::new(3).sliding(),
        ] {
            for doc in docs {
                let owned = g.snippets(doc);
                let n = g.split(doc, &mut scratch);
                let joined: Vec<String> = (0..n)
                    .map(|k| g.snippet_text(doc, k, &mut scratch).to_string())
                    .collect();
                let texts: Vec<String> = owned.into_iter().map(|s| s.text).collect();
                assert_eq!(joined, texts, "{doc:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one sentence")]
    fn zero_window_panics() {
        let _ = SnippetGenerator::new(0);
    }
}
