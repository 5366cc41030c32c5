//! String interning for feature vocabularies.
//!
//! Classifier training touches millions of (snippet, feature) pairs; the
//! paper's negative class alone is "over 2 million randomly sampled
//! snippets". Interning every feature string once and passing `u32` ids
//! through the pipeline keeps feature vectors compact and hashing cheap.

use etap_runtime::hash::Fnv1a64;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::Arc;

/// Dense id assigned to an interned string.
pub type TermId = u32;

/// Feature strings come from our own tokenizer, so the cheap hash is safe.
type FnvBuild = BuildHasherDefault<Fnv1a64>;

/// A bidirectional string ↔ id table.
///
/// Ids are assigned densely in first-seen order, so they can index
/// directly into `Vec`-based count tables.
///
/// ```
/// use etap_text::Vocabulary;
/// let mut v = Vocabulary::new();
/// let a = v.intern("acquire");
/// let b = v.intern("merge");
/// assert_eq!(v.intern("acquire"), a);
/// assert_ne!(a, b);
/// assert_eq!(v.term(a), Some("acquire"));
/// assert_eq!(v.len(), 2);
/// ```
/// Both directions share one `Arc<str>` per term (the map key and the
/// id-indexed entry point at the same allocation), so interning costs a
/// single string copy — the old `String`-keyed layout allocated the term
/// twice. `Arc` (not `Rc`) because frozen vocabularies are read
/// concurrently by scoring workers.
#[derive(Debug, Default, Clone)]
pub struct Vocabulary {
    by_term: HashMap<Arc<str>, TermId, FnvBuild>,
    by_id: Vec<Arc<str>>,
}

impl Vocabulary {
    /// Create an empty vocabulary.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty vocabulary with space reserved for `cap` terms.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            by_term: HashMap::with_capacity_and_hasher(cap, FnvBuild::default()),
            by_id: Vec::with_capacity(cap),
        }
    }

    /// Rebuild a vocabulary from terms in id order (id `i` = the `i`-th
    /// term). The inverse of [`Vocabulary::iter`]; used when thawing
    /// persisted feature spaces.
    ///
    /// # Panics
    /// Panics if `terms` contains duplicates (ids would be ambiguous).
    #[must_use]
    pub fn from_terms<I: IntoIterator<Item = String>>(terms: I) -> Self {
        let mut v = Self::new();
        for t in terms {
            let before = v.len();
            v.intern(&t);
            assert_eq!(v.len(), before + 1, "duplicate term {t:?} in id list");
        }
        v
    }

    /// Reserve space for `additional` more terms.
    pub fn reserve(&mut self, additional: usize) {
        self.by_term.reserve(additional);
        self.by_id.reserve(additional);
    }

    /// Intern `term`, returning its id (allocating one if unseen). An
    /// unseen term is copied exactly once: the lookup map and the
    /// id-order list share the same `Arc<str>`.
    pub fn intern(&mut self, term: &str) -> TermId {
        if let Some(&id) = self.by_term.get(term) {
            return id;
        }
        let id = TermId::try_from(self.by_id.len()).expect("vocabulary exceeds u32::MAX terms");
        let shared: Arc<str> = Arc::from(term);
        self.by_term.insert(Arc::clone(&shared), id);
        self.by_id.push(shared);
        id
    }

    /// Intern every term of an iterator, returning ids in order. The
    /// batched counterpart of [`Vocabulary::intern`] for the training
    /// path (one reserve, then dense id assignment in first-seen order).
    pub fn intern_all<'a, I: IntoIterator<Item = &'a str>>(&mut self, terms: I) -> Vec<TermId> {
        let it = terms.into_iter();
        let (lo, _) = it.size_hint();
        self.reserve(lo);
        it.map(|t| self.intern(t)).collect()
    }

    /// Look up an already-interned term without inserting.
    #[must_use]
    pub fn get(&self, term: &str) -> Option<TermId> {
        self.by_term.get(term).copied()
    }

    /// The term behind an id.
    #[must_use]
    pub fn term(&self, id: TermId) -> Option<&str> {
        self.by_id.get(id as usize).map(AsRef::as_ref)
    }

    /// Number of distinct terms.
    #[must_use]
    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    /// True when no terms have been interned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }

    /// Iterate `(id, term)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &str)> {
        self.by_id
            .iter()
            .enumerate()
            .map(|(i, t)| (i as TermId, t.as_ref()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_and_stable() {
        let mut v = Vocabulary::new();
        assert_eq!(v.intern("a"), 0);
        assert_eq!(v.intern("b"), 1);
        assert_eq!(v.intern("a"), 0);
        assert_eq!(v.intern("c"), 2);
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn get_does_not_insert() {
        let mut v = Vocabulary::new();
        assert_eq!(v.get("x"), None);
        assert_eq!(v.len(), 0);
        v.intern("x");
        assert_eq!(v.get("x"), Some(0));
    }

    #[test]
    fn term_roundtrip() {
        let mut v = Vocabulary::new();
        let id = v.intern("acquisition");
        assert_eq!(v.term(id), Some("acquisition"));
        assert_eq!(v.term(999), None);
    }

    #[test]
    fn iter_in_id_order() {
        let mut v = Vocabulary::new();
        for t in ["z", "m", "a"] {
            v.intern(t);
        }
        let terms: Vec<&str> = v.iter().map(|(_, t)| t).collect();
        assert_eq!(terms, vec!["z", "m", "a"]);
    }

    #[test]
    fn from_terms_roundtrips_iter_order() {
        let mut v = Vocabulary::new();
        for t in ["gamma", "alpha", "beta"] {
            v.intern(t);
        }
        let rebuilt = Vocabulary::from_terms(v.iter().map(|(_, t)| t.to_string()));
        assert_eq!(rebuilt.len(), v.len());
        for (id, term) in v.iter() {
            assert_eq!(rebuilt.get(term), Some(id));
        }
    }

    #[test]
    #[should_panic(expected = "duplicate term")]
    fn from_terms_rejects_duplicates() {
        let _ = Vocabulary::from_terms(["a".to_string(), "a".to_string()]);
    }

    #[test]
    fn intern_all_matches_singles() {
        let mut a = Vocabulary::new();
        let ids = a.intern_all(["x", "y", "x", "z"]);
        assert_eq!(ids, vec![0, 1, 0, 2]);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn empty_checks() {
        let v = Vocabulary::new();
        assert!(v.is_empty());
        assert_eq!(v.len(), 0);
    }
}
