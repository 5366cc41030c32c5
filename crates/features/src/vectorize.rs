//! Sparse feature vectors and the abstraction-aware vectorizer.
//!
//! The vectorizer is where feature abstraction actually happens: it walks
//! an annotated snippet and, per token, consults the
//! [`AbstractionPolicy`]:
//!
//! * entity tokens whose category is **Abstract** emit the category tag
//!   (`NE:ORG`) once per entity occurrence;
//! * entity tokens under **Instance** emit the normalized entity surface
//!   (`ne=bank of america`);
//! * plain tokens under **Instance** emit the stemmed, lowercased word
//!   (stop words and punctuation dropped);
//! * plain tokens under **Abstract** emit the POS tag (`pos:vb`);
//! * **Drop** emits nothing.
//!
//! Feature strings are interned in a shared [`Vocabulary`] so vectors
//! hold dense `u32` ids.

use crate::abstraction::{AbstractionPolicy, CategoryChoice};
use etap_annotate::{AnnotatedSnippet, PosTag};
use etap_text::{is_stopword, lower_into, stem_with, LexemeMemo, TermId, Vocabulary};

/// A sparse feature vector: (feature id, count) pairs sorted by id.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparseVec {
    pairs: Vec<(u32, f32)>,
}

impl SparseVec {
    /// Build from unsorted (id, count) pairs; duplicate ids are summed.
    #[must_use]
    pub fn from_pairs(mut pairs: Vec<(u32, f32)>) -> Self {
        Self::from_pairs_buf(&mut pairs)
    }

    /// Like [`SparseVec::from_pairs`], but reads from a scratch buffer
    /// the caller keeps (and reuses across snippets): the hot batch
    /// paths vectorize millions of snippets and must not allocate a
    /// fresh working buffer per snippet.
    #[must_use]
    pub fn from_pairs_buf(pairs: &mut Vec<(u32, f32)>) -> Self {
        canonicalize(pairs);
        Self {
            pairs: pairs.clone(),
        }
    }

    /// Iterate (id, count) pairs in id order.
    pub fn iter(&self) -> std::slice::Iter<'_, (u32, f32)> {
        self.pairs.iter()
    }

    /// Number of distinct features.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.pairs.len()
    }

    /// True when the vector has no features.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Sum of counts (document length under the multinomial model).
    #[must_use]
    pub fn total(&self) -> f64 {
        self.pairs.iter().map(|&(_, c)| f64::from(c)).sum()
    }

    /// Count for a feature id (0 when absent).
    #[must_use]
    pub fn get(&self, id: u32) -> f32 {
        self.pairs
            .binary_search_by_key(&id, |&(i, _)| i)
            .map_or(0.0, |k| self.pairs[k].1)
    }

    /// Dot product with a dense weight vector (ids beyond its length
    /// contribute nothing).
    #[must_use]
    pub fn dot(&self, dense: &[f64]) -> f64 {
        self.pairs
            .iter()
            .filter_map(|&(id, c)| dense.get(id as usize).map(|w| w * f64::from(c)))
            .sum()
    }

    /// Binarize: every positive count becomes 1 (Bernoulli view).
    #[must_use]
    pub fn binarized(&self) -> SparseVec {
        SparseVec {
            pairs: self.pairs.iter().map(|&(id, _)| (id, 1.0)).collect(),
        }
    }
}

/// Sort by id and sum duplicates **in place** — the allocation-free
/// core shared by [`SparseVec::from_pairs_buf`] (which then copies the
/// canonical slice out) and the borrowed-output scoring path (which
/// swaps the canonical buffer into a scratch-owned [`SparseVec`]).
fn canonicalize(pairs: &mut Vec<(u32, f32)>) {
    pairs.sort_unstable_by_key(|&(id, _)| id);
    let mut w = 0usize;
    for r in 0..pairs.len() {
        let (id, c) = pairs[r];
        if w > 0 && pairs[w - 1].0 == id {
            pairs[w - 1].1 += c;
        } else {
            pairs[w] = (id, c);
            w += 1;
        }
    }
    pairs.truncate(w);
}

impl FromIterator<(u32, f32)> for SparseVec {
    fn from_iter<T: IntoIterator<Item = (u32, f32)>>(iter: T) -> Self {
        Self::from_pairs(iter.into_iter().collect())
    }
}

/// Turns annotated snippets into sparse vectors under a policy.
#[derive(Debug, Clone)]
pub struct Vectorizer {
    policy: AbstractionPolicy,
    vocab: Vocabulary,
    /// When true (default), unseen features found at *inference* time are
    /// skipped instead of interned, keeping the trained feature space
    /// closed.
    frozen: bool,
    /// Also emit `w1_w2` bigram features for adjacent instance-kept
    /// words ("will_acquir", "step_down").
    bigrams: bool,
}

impl Vectorizer {
    /// New vectorizer with the given policy and an empty vocabulary.
    #[must_use]
    pub fn new(policy: AbstractionPolicy) -> Self {
        Self {
            policy,
            vocab: Vocabulary::new(),
            frozen: false,
            bigrams: false,
        }
    }

    /// Enable word-bigram features (`w1_w2` for adjacent instance-kept
    /// words): multiword event phrases ("definitive agreement", "steps
    /// down") become single features.
    #[must_use]
    pub fn with_bigrams(mut self, enabled: bool) -> Self {
        self.bigrams = enabled;
        self
    }

    /// The paper's default policy.
    #[must_use]
    pub fn paper_default() -> Self {
        Self::new(AbstractionPolicy::paper_default())
    }

    /// Reassemble a vectorizer from persisted parts (policy + the
    /// vocabulary in id order). The result is frozen: a deserialized
    /// feature space must stay closed.
    #[must_use]
    pub fn from_parts(policy: AbstractionPolicy, vocab: Vocabulary, bigrams: bool) -> Self {
        Self {
            policy,
            vocab,
            frozen: true,
            bigrams,
        }
    }

    /// Whether bigram features are enabled.
    #[must_use]
    pub fn has_bigrams(&self) -> bool {
        self.bigrams
    }

    /// Freeze the vocabulary: subsequent vectorizations ignore unseen
    /// features. Call after processing the training set.
    pub fn freeze(&mut self) {
        self.frozen = true;
    }

    /// The vocabulary accumulated so far.
    #[must_use]
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocab
    }

    /// The active policy.
    #[must_use]
    pub fn policy(&self) -> &AbstractionPolicy {
        &self.policy
    }

    /// Vectorize one annotated snippet:
    /// [`record_walk`](Self::record_walk), then
    /// [`vectorize_walks`](Self::vectorize_walks) on that one walk.
    #[must_use]
    pub fn vectorize(&mut self, snip: &AnnotatedSnippet) -> SparseVec {
        let mut walk = FeatureWalk::new();
        self.record_walk(snip, &mut walk);
        let mut vectors = self.vectorize_walks(std::slice::from_ref(&walk), 1);
        vectors.pop().expect("one walk vectorizes to one vector")
    }

    /// Whether `other` walks a snippet exactly as this vectorizer does
    /// (same policy, same bigram setting): drivers that walk alike can
    /// share one [`FeatureWalk`] per snippet.
    #[must_use]
    pub fn walks_like(&self, other: &Vectorizer) -> bool {
        self.bigrams == other.bigrams && self.policy == other.policy
    }

    /// Record `snip`'s feature walk under this vectorizer's policy into
    /// `walk` (its previous contents are discarded). The walk does not
    /// depend on the vocabulary, so one recording serves every
    /// vectorizer that [`walks_like`](Self::walks_like) this one.
    pub fn record_walk(&self, snip: &AnnotatedSnippet, walk: &mut FeatureWalk) {
        walk.record(&self.policy, self.bigrams, snip);
    }

    /// Look a recorded walk up in this **frozen** vocabulary without
    /// mutating — or cloning — the vectorizer: pure id lookups into the
    /// shared table. Ids are assigned and canonicalized in this
    /// vectorizer's own id order, so the vector — and every float
    /// summed over it — does not depend on which vectorizer recorded
    /// the walk. The result is **borrowed from the scratch**: the
    /// canonical pair buffer is swapped into a scratch-owned
    /// [`SparseVec`] whose storage is recycled on the next call, so a
    /// warm lookup allocates nothing.
    ///
    /// # Panics
    /// Panics if the vocabulary is not frozen.
    #[must_use]
    pub fn lookup_walk<'s>(
        &self,
        walk: &FeatureWalk,
        scratch: &'s mut VectorScratch,
    ) -> &'s SparseVec {
        assert!(
            self.frozen,
            "a frozen lookup requires a frozen vocabulary (call freeze() after training)"
        );
        let VectorScratch {
            pairs,
            seen_tags,
            out,
        } = scratch;
        pairs.clear();
        seen_tags.clear();
        for (feat, once) in walk.iter() {
            if let Some(id) = self.vocab.get(feat) {
                if once {
                    if seen_tags.contains(&id) {
                        continue;
                    }
                    seen_tags.push(id);
                }
                pairs.push((id, 1.0));
            }
        }
        canonicalize(pairs);
        // Swap rather than copy: `out` hands its previous (cleared-on-
        // next-use) buffer back to `pairs`, so both capacities are
        // retained across snippets and nothing is allocated.
        std::mem::swap(&mut out.pairs, pairs);
        out
    }

    /// Vectorize a batch of snippets on up to `threads` worker threads
    /// (`0` = the `ETAP_THREADS` default), bit-identical to vectorizing
    /// them sequentially in order — for **any** thread count: record
    /// every walk in snippet order, then
    /// [`vectorize_walks`](Self::vectorize_walks).
    #[must_use]
    pub fn vectorize_batch(
        &mut self,
        snips: &[AnnotatedSnippet],
        threads: usize,
    ) -> Vec<SparseVec> {
        let walks = etap_runtime::par_map_with(snips, threads, FeatureWalk::new, |walk, snip| {
            self.record_walk(snip, walk);
            walk.clone()
        });
        self.vectorize_walks(&walks, threads)
    }

    /// Vectorize recorded walks (see [`record_walk`](Self::record_walk));
    /// the one interning implementation. Unless the vocabulary is
    /// frozen, unseen features are interned: the lookup fans out, then
    /// ids are interned **sequentially in walk order**, so the
    /// vocabulary gets dense first-seen ids and the vectors are
    /// identical for any thread count.
    #[must_use]
    pub fn vectorize_walks(&mut self, walks: &[FeatureWalk], threads: usize) -> Vec<SparseVec> {
        if self.frozen {
            return etap_runtime::par_map_with(walks, threads, VectorScratch::default, |sc, w| {
                self.lookup_walk(w, sc).clone()
            });
        }
        let vocab = &mut self.vocab;
        // Phase 1 (parallel, read-only): resolve every feature against
        // the *current* vocabulary. A term already interned travels as
        // its dense `TermId`; a term new to this batch travels as a
        // slice of its walk, interned in phase 2.
        let walks: Vec<&FeatureWalk> = walks.iter().collect();
        let extracted: Vec<Vec<Feat<'_>>> = etap_runtime::par_map(&walks, threads, |&walk| {
            let mut feats: Vec<Feat<'_>> = Vec::with_capacity(walk.len());
            // Once-per-snippet tags deduplicate by id where the term is
            // known and by text otherwise — the same thing as by id,
            // because interning is injective.
            let mut seen_ids: Vec<TermId> = Vec::new();
            let mut seen_new: Vec<&str> = Vec::new();
            for (feat, once) in walk.iter() {
                match vocab.get(feat) {
                    Some(id) => {
                        if once {
                            if seen_ids.contains(&id) {
                                continue;
                            }
                            seen_ids.push(id);
                        }
                        feats.push(Feat::Id(id));
                    }
                    None => {
                        if once {
                            if seen_new.contains(&feat) {
                                continue;
                            }
                            seen_new.push(feat);
                        }
                        feats.push(Feat::New(feat));
                    }
                }
            }
            feats
        });
        // Phase 2 (sequential): intern in walk order, so new terms get
        // dense first-seen ids whatever the thread count.
        let mut pairs: Vec<(u32, f32)> = Vec::new();
        extracted
            .iter()
            .map(|feats| {
                pairs.clear();
                pairs.extend(feats.iter().map(|f| match *f {
                    Feat::Id(id) => (id, 1.0),
                    Feat::New(text) => (vocab.intern(text), 1.0),
                }));
                SparseVec::from_pairs_buf(&mut pairs)
            })
            .collect()
    }
}

/// One resolved feature occurrence from the parallel extraction phase
/// of an unfrozen [`Vectorizer::vectorize_walks`].
#[derive(Debug, Clone, Copy)]
enum Feat<'w> {
    /// Already interned before this batch started.
    Id(TermId),
    /// New to the vocabulary; its text, borrowed from the walk, goes to
    /// the sequential interning phase.
    New(&'w str),
}

/// Reusable per-thread working buffers for vectorization. Purely an
/// allocation cache: contents never influence results.
#[derive(Debug, Default, Clone)]
pub struct VectorScratch {
    pairs: Vec<(u32, f32)>,
    seen_tags: Vec<u32>,
    out: SparseVec,
}

impl VectorScratch {
    /// Fresh (empty) scratch.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// The terms of several frozen vocabularies, probed once for all of
/// them: term → one row holding each vocabulary's id for it (a
/// sentinel where a vocabulary lacks the term).
/// Vectorizers that walk alike read one recorded [`FeatureWalk`]; with
/// an index over their vocabularies each recorded feature is hashed
/// once, not once per vocabulary. Column `c` of a probed walk gathers
/// to exactly the vector `vectorizers[c].lookup_walk` returns.
#[derive(Debug, Clone, Default)]
pub struct TermIndex {
    /// Term → row.
    rows: Vocabulary,
    /// Row-major ids, `width` per row.
    ids: Vec<TermId>,
    width: usize,
}

/// A walk's features as [`TermIndex`] rows, in emit order (see
/// [`TermIndex::probe`]). Purely a reusable buffer between a probe and
/// its gathers.
#[derive(Debug, Default, Clone)]
pub struct ProbedWalk {
    rows: Vec<u32>,
    seen_tags: Vec<u32>,
}

impl TermIndex {
    /// The id of a term a column's vocabulary lacks.
    const ABSENT: TermId = TermId::MAX;

    /// Index the vocabularies of `vectorizers`, one column each.
    ///
    /// # Panics
    /// Panics if a vocabulary is not frozen.
    #[must_use]
    pub fn new(vectorizers: &[&Vectorizer]) -> Self {
        let width = vectorizers.len();
        let mut rows = Vocabulary::new();
        let mut ids = Vec::new();
        for (col, v) in vectorizers.iter().enumerate() {
            assert!(v.frozen, "a term index requires frozen vocabularies");
            for (id, term) in v.vocab.iter() {
                let row = rows.intern(term) as usize;
                if ids.len() <= row * width {
                    ids.resize((row + 1) * width, Self::ABSENT);
                }
                ids[row * width + col] = id;
            }
        }
        Self { rows, ids, width }
    }

    /// Look every feature of `walk` up once, keeping the rows of those
    /// some vocabulary holds in emit order; a once-per-snippet feature
    /// is kept at its first occurrence only (by row, which within one
    /// column is the same as by id).
    pub fn probe(&self, walk: &FeatureWalk, probed: &mut ProbedWalk) {
        let ProbedWalk { rows, seen_tags } = probed;
        rows.clear();
        seen_tags.clear();
        for (feat, once) in walk.iter() {
            if let Some(row) = self.rows.get(feat) {
                if once {
                    if seen_tags.contains(&row) {
                        continue;
                    }
                    seen_tags.push(row);
                }
                rows.push(row);
            }
        }
    }

    /// Column `col`'s vector of a probed walk, written into `out` (its
    /// storage is reused): the ids the column's vocabulary holds,
    /// canonicalized in its own id order.
    pub fn gather<'s>(
        &self,
        probed: &ProbedWalk,
        col: usize,
        out: &'s mut SparseVec,
    ) -> &'s SparseVec {
        out.pairs.clear();
        for &row in &probed.rows {
            let id = self.ids[row as usize * self.width + col];
            if id != Self::ABSENT {
                out.pairs.push((id, 1.0));
            }
        }
        canonicalize(&mut out.pairs);
        out
    }
}

/// One snippet's features in the canonical emit order, as recorded by a
/// single walk. The walk — lowercasing, stop-word checks, stemming,
/// policy lookups — depends only on the abstraction policy and the
/// bigram setting, never on a vocabulary. Recording it once lets every
/// vectorizer that walks alike look the same features up in its own
/// vocabulary; both vectorization modes (interning and frozen lookup)
/// read the walk through this one recorder, so they cannot drift
/// apart.
///
/// Allocation-free once warm: features are appended back to back into
/// one reused text buffer, and every intermediate (lowercased token,
/// stemmed word, entity surface, bigram join) is built in reused
/// buffers. From its second recording on, a walk remembers each
/// lowercased word's stop-word flag and stem (a [`LexemeMemo`]), so a
/// word is stemmed once per worker, not once per occurrence. Emit order — load-bearing for dense id assignment during
/// training: entity features first (in entity order), then token
/// features (in token order), with each bigram emitted immediately
/// **before** its second unigram.
///
/// A clone carries the recording only, not the work buffers.
#[derive(Debug, Default)]
pub struct FeatureWalk {
    /// Every recorded feature, back to back.
    text: String,
    /// Per feature: its end offset in `text` and whether it counts at
    /// most once per snippet (an abstracted entity tag).
    feats: Vec<(u32, bool)>,
    feature: String,
    prev: String,
    lower: String,
    stem: Vec<u8>,
    /// Lowercased word → its stem's range in the memo's arena, or
    /// `None` for a stop word.
    words: LexemeMemo<Option<(u32, u32)>>,
}

impl Clone for FeatureWalk {
    fn clone(&self) -> Self {
        Self {
            text: self.text.clone(),
            feats: self.feats.clone(),
            ..Self::default()
        }
    }
}

impl FeatureWalk {
    /// Fresh (empty) walk.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded feature occurrences.
    #[must_use]
    pub fn len(&self) -> usize {
        self.feats.len()
    }

    /// True when the walk recorded no feature.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.feats.is_empty()
    }

    /// The recorded `(feature, once_per_snippet)` occurrences in emit
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, bool)> + '_ {
        let mut start = 0usize;
        self.feats.iter().map(move |&(end, once)| {
            let feat = &self.text[start..end as usize];
            start = end as usize;
            (feat, once)
        })
    }

    /// Walk `snip` under `policy` and record its features, replacing
    /// the previous recording.
    pub fn record(&mut self, policy: &AbstractionPolicy, bigrams: bool, snip: &AnnotatedSnippet) {
        let Self {
            text,
            feats,
            feature,
            prev,
            lower,
            stem,
            words,
        } = self;
        text.clear();
        feats.clear();
        let warm = words.warm();
        // Append `feat` and close the occurrence that began at the
        // previous occurrence's end (so a prefix already pushed into
        // `text` — a bigram's first word — belongs to it).
        fn emit(text: &mut String, feats: &mut Vec<(u32, bool)>, feat: &str, once: bool) {
            text.push_str(feat);
            let end = u32::try_from(text.len()).expect("snippet features exceed u32 range");
            feats.push((end, once));
        }
        // Entity-level features. Under **Abstract** the representation
        // is presence/absence (the paper's PA), so the tag feature is
        // emitted at most once per snippet no matter how many entities
        // of the category occur — otherwise entity-dense background text
        // (market roundups naming five companies) gets its NE:ORG
        // evidence multiplied and swamps the event vocabulary.
        for ent in snip.entities().iter() {
            feature.clear();
            match policy.entity_choice(ent.category) {
                CategoryChoice::Abstract => {
                    feature.push_str("NE:");
                    feature.push_str(ent.category.tag());
                    emit(text, feats, feature, true);
                }
                CategoryChoice::Instance => {
                    feature.push_str("ne=");
                    for (k, ti) in ent.token_range().enumerate() {
                        if k > 0 {
                            feature.push(' ');
                        }
                        lower_into(snip.token_text(ti), lower);
                        feature.push_str(lower);
                    }
                    emit(text, feats, feature, false);
                }
                CategoryChoice::Drop => continue,
            }
        }

        // Token-level features for tokens outside entities.
        let mut last_instance: Option<usize> = None;
        for (ti, tok) in snip.tokens().enumerate() {
            if tok.entity.is_some() || tok.pos == PosTag::Punct {
                continue;
            }
            feature.clear();
            match policy.pos_choice(tok.pos) {
                CategoryChoice::Abstract => {
                    feature.push_str("pos:");
                    feature.push_str(tok.pos.tag());
                }
                CategoryChoice::Instance => {
                    lower_into(tok.text, lower);
                    let Some(word) = stem_unless_stopword(lower, warm.then_some(&mut *words), stem)
                    else {
                        continue;
                    };
                    feature.push_str(word);
                    if bigrams {
                        if last_instance == Some(ti.wrapping_sub(1)) {
                            // The bigram is recorded straight into the
                            // text buffer: `prev`, '_', then the unigram.
                            text.push_str(prev);
                            text.push('_');
                            emit(text, feats, feature, false);
                        }
                        last_instance = Some(ti);
                        prev.clear();
                        prev.push_str(feature);
                    }
                }
                CategoryChoice::Drop => continue,
            }
            emit(text, feats, feature, false);
        }
    }
}

/// The stem of lowercase `word`, or `None` for a stop word: looked up
/// in `memo` when given (and remembered there on a miss), else computed
/// into `buf`.
fn stem_unless_stopword<'a>(
    word: &str,
    memo: Option<&'a mut LexemeMemo<Option<(u32, u32)>>>,
    buf: &'a mut Vec<u8>,
) -> Option<&'a str> {
    let Some(memo) = memo else {
        return (!is_stopword(word)).then(|| stem_with(word, buf));
    };
    let (start, end) = memo.get_or_insert_with(word, |arena| {
        (!is_stopword(word)).then(|| {
            let start = arena.len() as u32;
            arena.push_str(stem_with(word, buf));
            (start, arena.len() as u32)
        })
    })?;
    Some(&memo.text()[start as usize..end as usize])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstraction::AbstractionPolicy;
    use etap_annotate::Annotator;

    fn vectorizer() -> Vectorizer {
        Vectorizer::paper_default()
    }

    fn annotate(text: &str) -> AnnotatedSnippet {
        Annotator::new().annotate(text)
    }

    #[test]
    fn sparse_vec_from_pairs_sums_duplicates() {
        let v = SparseVec::from_pairs(vec![(3, 1.0), (1, 2.0), (3, 1.5)]);
        assert_eq!(v.nnz(), 2);
        assert_eq!(v.get(3), 2.5);
        assert_eq!(v.get(1), 2.0);
        assert_eq!(v.get(7), 0.0);
        assert!((v.total() - 4.5).abs() < 1e-6);
    }

    #[test]
    fn sparse_vec_dot() {
        let v = SparseVec::from_pairs(vec![(0, 1.0), (2, 3.0)]);
        let dense = [2.0, 100.0, 0.5];
        assert!((v.dot(&dense) - 3.5).abs() < 1e-9);
        // Out-of-range ids are ignored.
        let w = SparseVec::from_pairs(vec![(10, 1.0)]);
        assert_eq!(w.dot(&dense), 0.0);
    }

    #[test]
    fn binarized_clamps_counts() {
        let v = SparseVec::from_pairs(vec![(1, 5.0), (2, 0.5)]);
        let b = v.binarized();
        assert_eq!(b.get(1), 1.0);
        assert_eq!(b.get(2), 1.0);
    }

    #[test]
    fn abstraction_collapses_entity_instances() {
        let mut vz = vectorizer();
        let a = vz.vectorize(&annotate("IBM acquired Daksh."));
        let b = vz.vectorize(&annotate("Oracle acquired PeopleSoft."));
        // Both map to {NE:ORG, "acquir"}: identical vectors.
        assert_eq!(a, b);
        // PA semantics: the tag fires once per snippet, not per entity.
        let org_id = vz.vocabulary().get("NE:ORG").expect("NE:ORG interned");
        assert_eq!(a.get(org_id), 1.0);
    }

    #[test]
    fn bag_of_words_keeps_entity_instances() {
        let mut vz = Vectorizer::new(AbstractionPolicy::bag_of_words());
        let a = vz.vectorize(&annotate("IBM acquired Daksh."));
        let b = vz.vectorize(&annotate("Oracle acquired PeopleSoft."));
        assert_ne!(a, b);
        assert!(vz.vocabulary().get("ne=ibm").is_some());
    }

    #[test]
    fn stopwords_and_punct_dropped() {
        let mut vz = vectorizer();
        let v = vz.vectorize(&annotate("The profits of the firm rose."));
        // "the"/"of" are Dt/In → dropped by policy; words are stemmed.
        assert!(vz.vocabulary().get("the").is_none());
        assert!(vz.vocabulary().get("of").is_none());
        assert!(vz.vocabulary().get("profit").is_some());
        assert!(v.nnz() >= 2);
    }

    #[test]
    fn frozen_vectorizer_skips_unseen() {
        let mut vz = vectorizer();
        let _ = vz.vectorize(&annotate("profits rose sharply."));
        let before = vz.vocabulary().len();
        vz.freeze();
        let v = vz.vectorize(&annotate("unprecedented zebra escapades."));
        assert_eq!(vz.vocabulary().len(), before);
        assert!(v.is_empty() || v.nnz() < 3);
    }

    #[test]
    fn words_are_stemmed() {
        let mut vz = vectorizer();
        let a = vz.vectorize(&annotate("several acquisitions happened."));
        let b = vz.vectorize(&annotate("one acquisition happened."));
        let id = vz.vocabulary().get("acquisit").expect("stemmed feature");
        assert!(a.get(id) > 0.0);
        assert!(b.get(id) > 0.0);
    }

    #[test]
    fn empty_snippet_empty_vector() {
        let mut vz = vectorizer();
        let v = vz.vectorize(&annotate(""));
        assert!(v.is_empty());
    }

    #[test]
    fn bigram_features_for_adjacent_words() {
        let mut vz = Vectorizer::paper_default().with_bigrams(true);
        let v = vz.vectorize(&annotate("profits rose sharply."));
        assert!(
            vz.vocabulary().get("rose_sharpli").is_some(),
            "{:?}",
            vz.vocabulary().iter().collect::<Vec<_>>()
        );
        assert!(v.nnz() >= 4); // 3 unigrams (profit, rose, sharpli) + bigrams
    }

    #[test]
    fn bigrams_do_not_cross_entities_or_stopwords() {
        let mut vz = Vectorizer::paper_default().with_bigrams(true);
        let _ = vz.vectorize(&annotate("profits of IBM rose."));
        // "profit" and "rose" are separated by a stopword + entity — no
        // "profit_rose" bigram.
        assert!(vz.vocabulary().get("profit_rose").is_none());
    }

    const BATCH_TEXTS: [&str; 6] = [
        "IBM acquired Daksh for $160 million in April 2004.",
        "Oracle announced record profits and several acquisitions.",
        "The new CEO of Siebel outlined revenue growth plans.",
        "",
        "Markets rose sharply. Analysts cheered. Profits doubled.",
        "Cisco names new chief executive officer amid reorganization.",
    ];

    fn sample_snippets() -> Vec<AnnotatedSnippet> {
        let ann = Annotator::new();
        BATCH_TEXTS.iter().map(|t| ann.annotate(t)).collect()
    }

    #[test]
    fn frozen_path_matches_mutable_path() {
        // Once every feature is interned, a frozen lookup finds exactly
        // the vector interning built.
        let mut vz = Vectorizer::paper_default().with_bigrams(true);
        let snips = sample_snippets();
        let interned: Vec<SparseVec> = snips.iter().map(|s| vz.vectorize(s)).collect();
        vz.freeze();
        let (mut walk, mut scratch) = (FeatureWalk::new(), VectorScratch::new());
        for (s, want) in snips.iter().zip(&interned) {
            vz.record_walk(s, &mut walk);
            assert_eq!(vz.lookup_walk(&walk, &mut scratch), want);
            assert_eq!(&vz.vectorize(s), want);
        }
    }

    #[test]
    fn unfrozen_batch_matches_sequential_ids_and_vectors() {
        let snips = sample_snippets();
        for threads in [1usize, 4] {
            let mut seq = Vectorizer::paper_default().with_bigrams(true);
            let expect: Vec<SparseVec> = snips.iter().map(|s| seq.vectorize(s)).collect();
            let mut par = Vectorizer::paper_default().with_bigrams(true);
            let got = par.vectorize_batch(&snips, threads);
            assert_eq!(got, expect, "threads={threads}");
            // Dense id assignment must be identical, not merely isomorphic.
            assert_eq!(
                par.vocabulary().iter().collect::<Vec<_>>(),
                seq.vocabulary().iter().collect::<Vec<_>>(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn frozen_batch_matches_sequential() {
        let snips = sample_snippets();
        let mut vz = Vectorizer::paper_default().with_bigrams(true);
        for s in &snips {
            let _ = vz.vectorize(s);
        }
        vz.freeze();
        let expect: Vec<SparseVec> = snips.iter().map(|s| vz.vectorize(s)).collect();
        for threads in [1usize, 2, 8] {
            assert_eq!(
                vz.vectorize_batch(&snips, threads),
                expect,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn one_recorded_pool_serves_every_vectorizer_that_walks_alike() {
        let snips = sample_snippets();
        // Two vectorizers with different vocabularies (one has already
        // interned other text) but the same walk settings.
        let fresh = Vectorizer::paper_default().with_bigrams(true);
        let mut warmed = Vectorizer::paper_default().with_bigrams(true);
        let _ = warmed.vectorize(&annotate("Shares of Acme fell sharply after the merger."));
        assert!(fresh.walks_like(&warmed));
        assert!(!fresh.walks_like(&Vectorizer::paper_default()));
        let walks: Vec<FeatureWalk> = snips
            .iter()
            .map(|s| {
                let mut walk = FeatureWalk::new();
                fresh.record_walk(s, &mut walk);
                walk
            })
            .collect();
        for mut vz in [fresh, warmed] {
            let mut direct = vz.clone();
            let expect: Vec<SparseVec> = snips.iter().map(|s| direct.vectorize(s)).collect();
            assert_eq!(vz.vectorize_walks(&walks, 3), expect);
            assert_eq!(
                vz.vocabulary().iter().collect::<Vec<_>>(),
                direct.vocabulary().iter().collect::<Vec<_>>()
            );
            vz.freeze();
            let mut scratch = VectorScratch::new();
            for (walk, snip) in walks.iter().zip(&snips) {
                assert_eq!(vz.lookup_walk(walk, &mut scratch), &vz.vectorize(snip));
            }
            assert_eq!(vz.vectorize_walks(&walks, 2), vz.vectorize_batch(&snips, 1));
        }
    }

    #[test]
    fn a_warm_walk_records_what_a_fresh_walk_records() {
        // Past the memo's bound too: distinct lowercase words that stem
        // ("zabcing" → "zabc"), so stems are re-learned after a clear.
        let letters = |i: usize| (b'a' + (i % 26) as u8) as char;
        let many: String = (0..etap_text::memo::MEMO_ENTRIES + 500)
            .map(|i| format!("z{}{}{}ing ", letters(i / 676), letters(i / 26), letters(i)))
            .collect();
        let ann = Annotator::new();
        let mut texts: Vec<&str> = BATCH_TEXTS.to_vec();
        texts.push("The profits of the firm rose; several acquisitions happened.");
        texts.push(&many);
        let snips: Vec<AnnotatedSnippet> = texts.iter().map(|t| ann.annotate(t)).collect();
        for (policy, bigrams) in [
            (AbstractionPolicy::paper_default(), true),
            (AbstractionPolicy::paper_default(), false),
            (AbstractionPolicy::bag_of_words(), true),
        ] {
            let mut warm = FeatureWalk::new();
            for _ in 0..2 {
                for snip in snips.iter().chain(&snips[..2]) {
                    warm.record(&policy, bigrams, snip);
                    let mut fresh = FeatureWalk::new();
                    fresh.record(&policy, bigrams, snip);
                    assert!(warm.iter().eq(fresh.iter()), "{:?}", snip.text());
                }
            }
        }
    }

    #[test]
    fn term_index_gathers_each_columns_own_lookup() {
        // Three frozen vocabularies that share some terms and not
        // others, in different id orders.
        let snips = sample_snippets();
        let extra = annotate("Shares of Acme fell sharply after the merger.");
        let mut a = Vectorizer::paper_default();
        let mut b = Vectorizer::paper_default();
        let mut c = Vectorizer::paper_default();
        for s in &snips[..3] {
            let _ = a.vectorize(s);
        }
        let _ = b.vectorize(&extra);
        for s in snips.iter().rev() {
            let _ = b.vectorize(s);
        }
        let _ = c.vectorize(&extra);
        for v in [&mut a, &mut b, &mut c] {
            v.freeze();
        }
        let index = TermIndex::new(&[&a, &b, &c]);
        let (mut walk, mut probed) = (FeatureWalk::new(), ProbedWalk::default());
        let (mut want, mut got) = (VectorScratch::new(), SparseVec::default());
        for snip in snips.iter().chain([&extra]) {
            a.record_walk(snip, &mut walk);
            index.probe(&walk, &mut probed);
            for (col, v) in [&a, &b, &c].into_iter().enumerate() {
                assert_eq!(
                    index.gather(&probed, col, &mut got),
                    v.lookup_walk(&walk, &mut want),
                    "column {col} on {:?}",
                    snip.text()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "requires a frozen vocabulary")]
    fn vectorize_frozen_rejects_unfrozen() {
        let vz = Vectorizer::paper_default();
        let snip = annotate("profits rose.");
        let mut walk = FeatureWalk::new();
        vz.record_walk(&snip, &mut walk);
        let _ = vz.lookup_walk(&walk, &mut VectorScratch::new());
    }
}
