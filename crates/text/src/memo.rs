//! A bounded per-worker memo of the attributes that depend only on a
//! token's surface.
//!
//! Annotation and feature extraction do per-token work that is a pure
//! function of the token's text: its part-of-speech tag, which entity
//! rules can start at it, whether it is a stop word, its Porter stem.
//! News text repeats its words — a 6,000-document corpus has a few
//! thousand distinct word types among hundreds of thousands of tokens —
//! so a worker that remembers each type's attributes computes them once
//! per type instead of once per token.
//!
//! [`LexemeMemo`] is an open-addressing table over keys stored back to
//! back in one growing text arena: a miss appends the key (and whatever
//! bytes its value refers to, such as a stem) to the arena, so it
//! allocates nothing per token once the arena has grown. The memo holds
//! at most [`MEMO_ENTRIES`] keys and [`MEMO_BYTES`] arena bytes; the miss
//! that would pass either bound clears it first. The bound is a
//! constant, not a setting: it only trades memory for hit rate, never
//! output.

use etap_runtime::hash::Fnv1a64;
use std::hash::Hasher;

/// Most keys one memo holds before it is cleared.
pub const MEMO_ENTRIES: usize = 1 << 13;

/// Most arena bytes (keys plus value bytes) one memo holds before it is
/// cleared.
pub const MEMO_BYTES: usize = 1 << 18;

/// Table slots: twice the entry bound keeps the load at most one half.
const SLOTS: usize = 2 * MEMO_ENTRIES;

#[derive(Debug, Clone, Copy)]
struct Entry<V> {
    hash: u32,
    start: u32,
    end: u32,
    value: V,
}

/// A bounded map from a token surface to a small `Copy` value. See the
/// module docs.
///
/// An owner consults the memo only from its second snippet on
/// ([`LexemeMemo::warm`]): a scratch used for one call — a one-shot
/// `annotate` or `score` — computes directly and never allocates the
/// table.
#[derive(Debug)]
pub struct LexemeMemo<V> {
    /// `0` = empty, else an index into `entries` plus one. Empty until
    /// the first insert.
    slots: Vec<u32>,
    entries: Vec<Entry<V>>,
    text: String,
    used: bool,
}

impl<V> Default for LexemeMemo<V> {
    /// An empty memo; it allocates nothing until its first insert.
    fn default() -> Self {
        Self {
            slots: Vec::new(),
            entries: Vec::new(),
            text: String::new(),
            used: false,
        }
    }
}

fn hash_of(key: &str) -> u32 {
    let mut h = Fnv1a64::default();
    h.write(key.as_bytes());
    let h = h.finish();
    // Fold the high half in: FNV's low bits alone cluster on short keys.
    (h ^ (h >> 32)) as u32
}

impl<V: Copy> LexemeMemo<V> {
    /// Called by the owner once per snippet: whether to look this
    /// snippet's tokens up through the memo. `false` the first time,
    /// `true` ever after.
    pub fn warm(&mut self) -> bool {
        std::mem::replace(&mut self.used, true)
    }

    /// The value for `key`, computed by `make` on a miss and remembered.
    /// `make` may append bytes to the arena it is handed (after the key)
    /// and refer to them by offset in its value; read them back with
    /// [`LexemeMemo::text`].
    pub fn get_or_insert_with(&mut self, key: &str, make: impl FnOnce(&mut String) -> V) -> V {
        let hash = hash_of(key);
        let mut slot = hash as usize & (SLOTS - 1);
        if !self.slots.is_empty() {
            while let Some(at) = self.slots[slot].checked_sub(1) {
                let e = &self.entries[at as usize];
                if e.hash == hash
                    && &self.text.as_bytes()[e.start as usize..e.end as usize] == key.as_bytes()
                {
                    return e.value;
                }
                slot = (slot + 1) & (SLOTS - 1);
            }
        }
        if self.entries.len() == MEMO_ENTRIES || self.text.len() + key.len() > MEMO_BYTES {
            self.clear();
            slot = hash as usize & (SLOTS - 1);
        }
        if self.slots.is_empty() {
            self.slots = vec![0; SLOTS];
        }
        let start = self.text.len();
        self.text.push_str(key);
        let end = self.text.len();
        let value = make(&mut self.text);
        self.entries.push(Entry {
            hash,
            start: start as u32,
            end: end as u32,
            value,
        });
        self.slots[slot] = self.entries.len() as u32;
        value
    }

    /// The arena: every key and the bytes values refer to.
    #[must_use]
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Forget every key, keeping the buffers' capacity.
    pub fn clear(&mut self) {
        self.slots.fill(0);
        self.entries.clear();
        self.text.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remembers_each_key_once() {
        let mut m = LexemeMemo::default();
        let mut calls = 0;
        for w in ["acquired", "the", "acquired", "The", "the"] {
            let v = m.get_or_insert_with(w, |_| {
                calls += 1;
                w.len()
            });
            assert_eq!(v, w.len());
        }
        assert_eq!(calls, 3);
        assert_eq!(m.entries.len(), 3);
    }

    #[test]
    fn values_can_refer_to_arena_bytes() {
        let mut m: LexemeMemo<(u32, u32)> = LexemeMemo::default();
        for w in ["merging", "growth", "merging"] {
            let (s, e) = m.get_or_insert_with(w, |text| {
                let s = text.len() as u32;
                text.push_str(&w.to_uppercase());
                (s, text.len() as u32)
            });
            assert_eq!(&m.text()[s as usize..e as usize], w.to_uppercase());
        }
    }

    #[test]
    fn clears_when_full_and_stays_correct() {
        let mut m = LexemeMemo::default();
        for round in 0..2 {
            for i in 0..MEMO_ENTRIES + 10 {
                let key = format!("w{i}");
                assert_eq!(m.get_or_insert_with(&key, |_| i), i, "round {round}");
                assert!(m.entries.len() <= MEMO_ENTRIES);
            }
        }
        let long = "x".repeat(MEMO_BYTES / 2 + 1);
        m.get_or_insert_with(&long, |_| 1);
        m.get_or_insert_with(&long[1..], |_| 2);
        assert_eq!(m.entries.len(), 1, "the byte bound clears the memo too");
        assert_eq!(m.get_or_insert_with(&long[1..], |_| 3), 2);
    }

    #[test]
    fn keys_with_equal_hashes_stay_distinct() {
        let (a, b) = ("w35589", "w116975");
        assert_eq!(hash_of(a), hash_of(b), "premise: a 32-bit hash collision");
        let mut m = LexemeMemo::default();
        assert_eq!(m.get_or_insert_with(a, |_| 1), 1);
        assert_eq!(m.get_or_insert_with(b, |_| 2), 2);
        assert_eq!(m.get_or_insert_with(a, |_| 3), 1);
        assert_eq!(m.get_or_insert_with(b, |_| 4), 2);
    }

    #[test]
    fn warm_is_false_exactly_once() {
        let mut m: LexemeMemo<u8> = LexemeMemo::default();
        assert!(!m.warm());
        assert!(m.warm());
        assert!(m.warm());
    }
}
