//! The annotated-snippet representation consumed by feature extraction.
//!
//! After NER and POS tagging, every token of a snippet carries:
//! * its surface text,
//! * its POS tag, and
//! * optionally the entity span (index + category) covering it.
//!
//! Feature abstraction (paper §3.2.2) then decides, per category, whether
//! to emit the *instance* (the word/entity surface form) or the
//! *presence* (the bare category tag) into the feature vector.
//!
//! ## Representation: structure-of-arrays in one shared buffer
//!
//! A snippet does not own one `String` per token. Its annotation data
//! lives in one `SnippetBuf`: the text plus parallel span / POS /
//! entity-link / entity vectors. An [`AnnotatedSnippet`] is an `Arc`
//! handle to that buffer, so cloning it is a refcount bump. The
//! per-worker [`crate::AnnotateScratch`] keeps the handle it last gave
//! out and refills that buffer in place once every other handle is
//! dropped, so steady-state annotation allocates nothing.

use crate::entity::{EntityCategory, EntitySpan};
use crate::pos::PosTag;
use etap_text::TokenSpan;
use std::fmt;
use std::sync::Arc;

/// Sentinel for "token not covered by any entity" in the link vector.
const NO_ENTITY: u32 = u32::MAX;

/// Backing storage of one annotated snippet: its text plus parallel
/// structure-of-arrays annotation vectors.
#[derive(Debug, Default)]
struct SnippetBuf {
    /// The snippet text.
    text: String,
    /// Token spans over `text`.
    spans: Vec<TokenSpan>,
    /// POS tag per token (parallel to `spans`).
    pos: Vec<PosTag>,
    /// Index into `entities` per token, `NO_ENTITY` if uncovered
    /// (parallel to `spans`).
    entity: Vec<u32>,
    /// Entity spans, with token indices into `spans`.
    entities: Vec<EntitySpan>,
}

/// One token of an annotated snippet, as viewed through
/// [`AnnotatedSnippet::tokens`]. Borrows from the snippet buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenRef<'a> {
    /// Surface form (borrowed from the shared snippet buffer).
    pub text: &'a str,
    /// POS tag (always present, even inside entities).
    pub pos: PosTag,
    /// Index into [`AnnotatedSnippet::entities`] when this token is part
    /// of an entity.
    pub entity: Option<usize>,
}

/// A fully annotated snippet: a shared handle to its buffer.
///
/// Cloning is a refcount bump. Equality compares annotation *content*
/// (text, token spans, POS tags, entity links, entity spans), never
/// buffer identity.
#[derive(Clone, Default)]
pub struct AnnotatedSnippet(Arc<SnippetBuf>);

impl AnnotatedSnippet {
    /// Make this handle hold one annotated snippet. `spans`/`pos` are
    /// parallel token vectors over `text`; `entities` carries token
    /// indices into `spans`. The buffer is cleared and refilled in place
    /// (capacities kept) when no other handle shares it; otherwise the
    /// handle moves to a fresh buffer and the shared one is left to its
    /// holders.
    pub(crate) fn refill(
        &mut self,
        text: &str,
        spans: &[TokenSpan],
        pos: &[PosTag],
        entities: &[EntitySpan],
    ) {
        debug_assert_eq!(spans.len(), pos.len());
        if Arc::get_mut(&mut self.0).is_none() {
            self.0 = Arc::default();
        }
        let buf = Arc::get_mut(&mut self.0).expect("the buffer is unshared after the check");
        buf.text.clear();
        buf.text.push_str(text);
        buf.spans.clear();
        buf.spans.extend_from_slice(spans);
        buf.pos.clear();
        buf.pos.extend_from_slice(pos);
        buf.entity.clear();
        buf.entity.resize(spans.len(), NO_ENTITY);
        for (ei, span) in entities.iter().enumerate() {
            for ti in span.token_range() {
                buf.entity[ti] = ei as u32;
            }
        }
        buf.entities.clear();
        buf.entities.extend_from_slice(entities);
    }

    /// The snippet's source text.
    #[must_use]
    pub fn text(&self) -> &str {
        &self.0.text
    }

    /// Token spans over [`Self::text`].
    #[must_use]
    pub fn spans(&self) -> &[TokenSpan] {
        &self.0.spans
    }

    /// POS tags, parallel to [`Self::spans`].
    #[must_use]
    pub fn pos_tags(&self) -> &[PosTag] {
        &self.0.pos
    }

    fn entity_ids(&self) -> &[u32] {
        &self.0.entity
    }

    /// Entity spans in document order (token indices refer to
    /// [`Self::spans`]).
    #[must_use]
    pub fn entities(&self) -> &[EntitySpan] {
        &self.0.entities
    }

    /// Number of tokens.
    #[must_use]
    pub fn token_count(&self) -> usize {
        self.0.spans.len()
    }

    /// Whether the snippet has no tokens.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.spans.is_empty()
    }

    /// Surface text of token `i`.
    #[must_use]
    pub fn token_text(&self, i: usize) -> &str {
        self.spans()[i].text(self.text())
    }

    /// POS tag of token `i`.
    #[must_use]
    pub fn pos(&self, i: usize) -> PosTag {
        self.pos_tags()[i]
    }

    /// Index into [`Self::entities`] of the entity covering token `i`.
    #[must_use]
    pub fn entity_of(&self, i: usize) -> Option<usize> {
        match self.entity_ids()[i] {
            NO_ENTITY => None,
            ei => Some(ei as usize),
        }
    }

    /// Iterate the tokens as text/POS/entity-link views.
    pub fn tokens(&self) -> impl Iterator<Item = TokenRef<'_>> + '_ {
        let text = self.text();
        self.spans()
            .iter()
            .zip(self.pos_tags())
            .zip(self.entity_ids())
            .map(move |((span, &pos), &eid)| TokenRef {
                text: span.text(text),
                pos,
                entity: if eid == NO_ENTITY {
                    None
                } else {
                    Some(eid as usize)
                },
            })
    }

    /// The category of the entity covering token `i`, if any.
    #[must_use]
    pub fn entity_category(&self, i: usize) -> Option<EntityCategory> {
        self.entity_of(i).map(|ei| self.entities()[ei].category)
    }

    /// Entity surface text (tokens joined by a space).
    #[must_use]
    pub fn entity_text(&self, ei: usize) -> String {
        let span = &self.entities()[ei];
        let mut out = String::new();
        for ti in span.token_range() {
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(self.token_text(ti));
        }
        out
    }

    /// Does the snippet contain at least one entity of `cat`?
    #[must_use]
    pub fn contains_category(&self, cat: EntityCategory) -> bool {
        self.entities().iter().any(|e| e.category == cat)
    }

    /// Count entities of `cat`.
    #[must_use]
    pub fn count_category(&self, cat: EntityCategory) -> usize {
        self.entities().iter().filter(|e| e.category == cat).count()
    }

    /// Render the snippet with entity tags substituted in, e.g.
    /// `"ORG acquired ORG for CURRENCY"`. This is the fully-abstracted
    /// view; feature extraction uses a finer per-category policy.
    #[must_use]
    pub fn abstracted_text(&self) -> String {
        let mut out = String::new();
        let mut i = 0;
        let n = self.token_count();
        while i < n {
            if !out.is_empty() {
                out.push(' ');
            }
            if let Some(ei) = self.entity_of(i) {
                let span = &self.entities()[ei];
                out.push_str(span.category.tag());
                i = span.first_token + span.token_len;
            } else {
                out.push_str(self.token_text(i));
                i += 1;
            }
        }
        out
    }
}

impl PartialEq for AnnotatedSnippet {
    fn eq(&self, other: &Self) -> bool {
        self.text() == other.text()
            && self.spans() == other.spans()
            && self.pos_tags() == other.pos_tags()
            && self.entity_ids() == other.entity_ids()
            && self.entities() == other.entities()
    }
}

impl Eq for AnnotatedSnippet {}

impl fmt::Debug for AnnotatedSnippet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AnnotatedSnippet")
            .field("text", &self.text())
            .field("pos", &self.pos_tags())
            .field("entities", &self.entities())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AnnotateScratch, Annotator};

    fn annotate(text: &str) -> AnnotatedSnippet {
        Annotator::new().annotate(text)
    }

    #[test]
    fn token_entity_links() {
        let s = annotate("IBM acquired Daksh for $160 million.");
        assert_eq!(s.token_text(0), "IBM");
        assert!(s.entity_of(0).is_some());
        assert_eq!(s.entity_category(0), Some(EntityCategory::Org));
        // "acquired" is uncovered.
        assert_eq!(s.entity_of(1), None);
    }

    #[test]
    fn abstracted_text_substitutes_tags() {
        let s = annotate("IBM acquired Daksh for $160 million in 2004.");
        let a = s.abstracted_text();
        assert!(a.starts_with("ORG acquired ORG for CURRENCY"), "{a}");
        assert!(a.contains("YEAR"), "{a}");
    }

    #[test]
    fn entity_text_joins_tokens() {
        let s = annotate("Bank of America gained.");
        let ei = s.entity_of(0).expect("entity");
        assert_eq!(s.entity_text(ei), "Bank of America");
    }

    #[test]
    fn contains_and_count() {
        let s = annotate("IBM and Oracle both rose 5 % on Monday.");
        assert!(s.contains_category(EntityCategory::Org));
        assert_eq!(s.count_category(EntityCategory::Org), 2);
        assert_eq!(s.count_category(EntityCategory::Prcnt), 1);
        assert!(!s.contains_category(EntityCategory::Currency));
    }

    #[test]
    fn empty_snippet() {
        let s = annotate("");
        assert_eq!(s.token_count(), 0);
        assert!(s.is_empty());
        assert!(s.entities().is_empty());
        assert_eq!(s.abstracted_text(), "");
    }

    #[test]
    fn token_ref_iteration() {
        let s = annotate("IBM acquired Daksh.");
        let toks: Vec<TokenRef<'_>> = s.tokens().collect();
        assert_eq!(toks.len(), s.token_count());
        assert_eq!(toks[1].text, "acquired");
        assert_eq!(toks[1].entity, None);
        assert_eq!(toks[0].entity, Some(0));
    }

    #[test]
    fn equality_ignores_buffer_placement() {
        let text1 = "IBM acquired Daksh for $160 million.";
        let text2 = "Oracle gained 5 % on Monday.";
        let standalone = annotate(text2);

        // A warm scratch annotates `text2` into a buffer that held
        // `text1` before (capacities sized for it); the result must
        // compare equal to its standalone twin in a buffer of its own.
        let ann = Annotator::new();
        let mut scratch = AnnotateScratch::new();
        let first = ann.annotate_with(text1, &mut scratch);
        assert_ne!(
            first, standalone,
            "different snippets must not compare equal"
        );
        drop(first);
        let refilled = ann.annotate_with(text2, &mut scratch);
        assert_eq!(refilled, standalone);
        assert_eq!(refilled.text(), text2);
        assert!(!Arc::ptr_eq(&refilled.0, &standalone.0));
    }
}
