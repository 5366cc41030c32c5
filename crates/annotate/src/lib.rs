//! # etap-annotate — linguistic annotation for the ETAP reproduction
//!
//! ETAP (§3.2) annotates every snippet before classification:
//!
//! 1. a **named-entity recognizer** assigns one of 13 entity categories
//!    (ORG, DESIG, OBJ, TIM, PERIOD, CURRENCY, YEAR, PRCNT, PROD, PLC,
//!    PRSN, LNGTH, CNT) to entity mentions, and
//! 2. any token *not* covered by an entity is assigned a
//!    **part-of-speech** category ("was assigned a part-of-speech
//!    category as determined by QTag").
//!
//! The paper used IBM's proprietary NER and the QTag tagger; this crate
//! provides from-scratch stand-ins with the same observable interface:
//! gazetteer + token-pattern NER and a lexicon + suffix-rule POS tagger.
//! Both are deliberately *imperfect in realistic ways* (unknown company
//! names, ambiguous capitalised words) — the paper itself notes that
//! "the overall result of ETAP is heavily dependent on the accuracy of
//! the named entity recognizer".
//!
//! The main entry point is [`Annotator::annotate`], which produces an
//! [`AnnotatedSnippet`]: the token stream with, for every token, its
//! POS tag and (when applicable) the entity span it belongs to.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod annotated;
pub mod entity;
pub mod gazetteer;
pub mod ner;
pub mod pos;

pub use annotated::{AnnotatedSnippet, TokenRef};
pub use entity::{EntityCategory, EntitySpan};
pub use ner::{NamedEntityRecognizer, Rule, StartClass};
pub use pos::{PosTag, PosTagger};

use etap_text::{LexemeMemo, TokenSpan};
use std::sync::atomic::{AtomicU64, Ordering};

/// What the annotator derives from a token's surface alone: its POS tag
/// and which NER rules can start at it.
#[derive(Debug, Clone, Copy)]
struct Lexeme {
    pos: PosTag,
    start: StartClass,
}

/// Per-worker reusable state for the zero-allocation annotate path:
/// tokenizer span vector, NER/POS outputs, the lowercase fold buffer, and
/// the snippet last handed out, whose buffer the next call refills. Keep
/// one scratch per worker thread; after warm-up, annotating a snippet
/// whose previous output has been dropped allocates nothing.
///
/// The scratch also remembers each distinct token surface's POS tag and
/// NER [`StartClass`] (a [`LexemeMemo`]), from its second snippet on.
/// The memo belongs to one annotator: used with another one, or with
/// the same one after [`Annotator::ner_mut`], the scratch forgets it.
#[derive(Debug, Default)]
pub struct AnnotateScratch {
    spans: Vec<TokenSpan>,
    entities: Vec<EntitySpan>,
    pos: Vec<PosTag>,
    starts: Vec<StartClass>,
    lower: String,
    lexemes: LexemeMemo<Lexeme>,
    /// [`Annotator::stamp`] of the annotator `lexemes` was filled by.
    stamp: u64,
    out: AnnotatedSnippet,
}

impl AnnotateScratch {
    /// Create an empty scratch (buffers grow on first use).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// Source of annotator identity stamps (`0` is never handed out, so a
/// fresh scratch matches no annotator).
static NEXT_STAMP: AtomicU64 = AtomicU64::new(1);

fn fresh_stamp() -> u64 {
    NEXT_STAMP.fetch_add(1, Ordering::Relaxed)
}

/// Full annotator: NER + POS in one pass.
#[derive(Debug, Clone)]
pub struct Annotator {
    ner: NamedEntityRecognizer,
    pos: PosTagger,
    /// Identity of this annotator's gazetteers and lexicon: new for
    /// every constructed annotator and on every [`Annotator::ner_mut`];
    /// a clone shares it (its contents are equal). Scratch memos are
    /// valid only for the stamp that filled them.
    stamp: u64,
}

impl Default for Annotator {
    fn default() -> Self {
        Self {
            ner: NamedEntityRecognizer::default(),
            pos: PosTagger::default(),
            stamp: fresh_stamp(),
        }
    }
}

impl Annotator {
    /// Create an annotator with the default gazetteers and lexicon.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Annotate a snippet: tokenize, find entity spans, tag the rest.
    ///
    /// Convenience wrapper over [`Self::annotate_with`] with a throwaway
    /// scratch, whose memo is never filled; loops should hold an
    /// [`AnnotateScratch`] and call `annotate_with` directly.
    #[must_use]
    pub fn annotate(&self, text: &str) -> AnnotatedSnippet {
        self.annotate_with(text, &mut AnnotateScratch::new())
    }

    /// Annotate a snippet reusing per-worker scratch state. In steady
    /// state (scratch warm, previous snippet dropped) this performs zero
    /// heap allocations: the tokenizer writes spans into the scratch, the
    /// NER walks gazetteer tries without key strings, and the output
    /// buffer of the previous call is refilled in place. If the previous
    /// snippet is still alive the output goes to a fresh buffer, so
    /// retaining snippets is safe, just not free.
    #[must_use]
    pub fn annotate_with(&self, text: &str, scratch: &mut AnnotateScratch) -> AnnotatedSnippet {
        self.annotate_spans(text, scratch);
        let AnnotateScratch {
            spans,
            entities,
            pos,
            out,
            ..
        } = scratch;
        out.refill(text, spans, pos, entities);
        out.clone()
    }

    /// Tokenize `text` into the scratch and fill its POS tags and entity
    /// spans. Each token's [`Lexeme`] comes from the scratch's memo,
    /// except on the scratch's first snippet.
    fn annotate_spans(&self, text: &str, scratch: &mut AnnotateScratch) {
        let AnnotateScratch {
            spans,
            entities,
            pos,
            starts,
            lower,
            lexemes,
            stamp,
            ..
        } = scratch;
        etap_text::tokenize_into(text, spans);
        if *stamp != self.stamp {
            lexemes.clear();
            *stamp = self.stamp;
        }
        if !lexemes.warm() {
            // The scratch's first snippet (all a one-shot call sees):
            // compute every token's attributes directly.
            self.pos.tag_spans_into(text, spans, lower, pos);
            self.ner.recognize_into(text, spans, lower, entities);
            return;
        }
        pos.clear();
        starts.clear();
        for s in spans.iter() {
            let word = s.text(text);
            let lex = lexemes.get_or_insert_with(word, |_| Lexeme {
                pos: self.pos.tag_text(word, s.kind, lower),
                start: self.ner.start_class(word, s.kind, lower),
            });
            pos.push(lex.pos);
            starts.push(lex.start);
        }
        self.ner
            .recognize_with_starts(text, spans, starts, lower, entities);
    }

    /// Access the underlying NER (e.g. to extend gazetteers).
    #[must_use]
    pub fn ner(&self) -> &NamedEntityRecognizer {
        &self.ner
    }

    /// Mutable access to the underlying NER. Takes a new identity
    /// stamp, so scratches warmed on this annotator drop their memos.
    pub fn ner_mut(&mut self) -> &mut NamedEntityRecognizer {
        self.stamp = fresh_stamp();
        &mut self.ner
    }
}

/// The reference annotator, kept as the executable spec for the oracle
/// suite (`tests/annotate_oracle.rs`): every NER rule at every token and
/// every POS tag computed afresh, with no start-class gate and no memo.
#[doc(hidden)]
pub mod reference {
    use super::{AnnotatedSnippet, Annotator};

    /// Annotate `text` the reference way.
    #[must_use]
    pub fn annotate(annotator: &Annotator, text: &str) -> AnnotatedSnippet {
        let (mut spans, mut entities, mut pos, mut lower) = Default::default();
        etap_text::tokenize_into(text, &mut spans);
        annotator
            .ner
            .recognize_sweep(text, &spans, &mut lower, &mut entities);
        annotator
            .pos
            .tag_spans_into(text, &spans, &mut lower, &mut pos);
        let mut out = AnnotatedSnippet::default();
        out.refill(text, &spans, &pos, &entities);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_annotation() {
        let ann = Annotator::new();
        let snip = ann.annotate("IBM acquired Daksh for $160 million in April 2004.");
        // ORG, CURRENCY and PERIOD should all be present ("April 2004"
        // is one PERIOD span that absorbs the year).
        let cats: Vec<EntityCategory> = snip.entities().iter().map(|e| e.category).collect();
        assert!(cats.contains(&EntityCategory::Org), "{cats:?}");
        assert!(cats.contains(&EntityCategory::Currency), "{cats:?}");
        assert!(cats.contains(&EntityCategory::Period), "{cats:?}");
    }

    #[test]
    fn tokens_outside_entities_have_pos_tags() {
        let ann = Annotator::new();
        let snip = ann.annotate("IBM acquired Daksh.");
        let acquired = snip
            .tokens()
            .find(|t| t.text == "acquired")
            .expect("token present");
        assert_eq!(acquired.entity, None);
        assert_eq!(acquired.pos, PosTag::Vb);
    }

    #[test]
    fn annotate_with_reuses_scratch_and_matches_annotate() {
        let ann = Annotator::new();
        let texts = [
            "IBM acquired Daksh for $160 million in April 2004.",
            "Oracle gained 5 % on Monday, said Mr. Andersen.",
            "Société Générale opened offices in New York City.",
        ];
        let mut scratch = AnnotateScratch::new();
        for text in texts {
            let fresh = ann.annotate(text);
            let reused = ann.annotate_with(text, &mut scratch);
            assert_eq!(reused, fresh, "mismatch on {text:?}");
        }
    }

    #[test]
    fn annotate_with_recycles_the_buffer_when_unshared() {
        let ann = Annotator::new();
        let mut scratch = AnnotateScratch::new();
        let first = ann.annotate_with("IBM acquired Daksh for $160 million.", &mut scratch);
        let at = first.text().as_ptr();
        let spans_at = first.spans().as_ptr();
        drop(first);
        // Nothing else holds the buffer: the next snippet overwrites it
        // in place, keeping the text and span allocations.
        let second = ann.annotate_with("Oracle hired a CEO.", &mut scratch);
        assert_eq!(second.text().as_ptr(), at);
        assert_eq!(second.spans().as_ptr(), spans_at);
        assert_eq!(second, ann.annotate("Oracle hired a CEO."));
    }

    #[test]
    fn annotate_with_keeps_capacity_across_recycles() {
        let ann = Annotator::new();
        let mut scratch = AnnotateScratch::new();
        let long = "IBM acquired Daksh for $160 million in April 2004, \
                    and Oracle hired a new CEO in New York City on Monday.";
        let first = ann.annotate_with(long, &mut scratch);
        let at = first.text().as_ptr();
        let spans_at = first.spans().as_ptr();
        drop(first);
        // A short snippet in between must not shrink the buffer: the long
        // text fits again without a new allocation.
        drop(ann.annotate_with("Hi.", &mut scratch));
        let again = ann.annotate_with(long, &mut scratch);
        assert_eq!(again.text().as_ptr(), at);
        assert_eq!(again.spans().as_ptr(), spans_at);
        assert_eq!(again, ann.annotate(long));
    }

    #[test]
    fn annotate_with_spills_when_a_snippet_is_alive() {
        let ann = Annotator::new();
        let mut scratch = AnnotateScratch::new();
        let kept = ann.annotate_with("IBM acquired Daksh.", &mut scratch);
        let next = ann.annotate_with("Oracle hired a CEO.", &mut scratch);
        // The retained snippet keeps its content; the new one lives in a
        // buffer of its own.
        assert_eq!(kept, ann.annotate("IBM acquired Daksh."));
        assert_eq!(next, ann.annotate("Oracle hired a CEO."));
        assert_ne!(kept.text().as_ptr(), next.text().as_ptr());
    }
}
