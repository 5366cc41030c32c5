//! Property tests: the gazetteer byte-trie automaton must report exactly
//! the matches of the reference `HashSet<String>` membership model it
//! replaced (build the space-joined phrase per candidate length, ask the
//! set). Random vocabularies are drawn from a tiny alphabet so entries
//! share prefixes aggressively — the regime where an automaton bug
//! (wrong terminal flag, premature walk death, missed branch) shows up.

use etap_annotate::gazetteer::Gazetteer;
use etap_runtime::Rng;
use std::collections::HashSet;

/// Two-letter alphabet + short words ⇒ dense prefix overlap.
fn arb_word(rng: &mut Rng) -> String {
    let len = rng.gen_range(1..5);
    (0..len)
        .map(|_| if rng.gen_bool(0.5) { 'a' } else { 'b' })
        .collect()
}

fn arb_phrase(rng: &mut Rng, max_words: usize) -> Vec<String> {
    let n = rng.gen_range(1..max_words + 1);
    (0..n).map(|_| arb_word(rng)).collect()
}

/// The reference model: exact phrase membership in a set of strings.
struct SetGazetteer {
    entries: HashSet<String>,
    max_len: usize,
}

impl SetGazetteer {
    fn build(phrases: &[Vec<String>]) -> Self {
        let mut entries = HashSet::new();
        let mut max_len = 0;
        for p in phrases {
            entries.insert(p.join(" "));
            max_len = max_len.max(p.len());
        }
        Self { entries, max_len }
    }

    /// All match lengths starting at `tokens[start]`, old-style: join
    /// the first `k` tokens and ask the set, for every k.
    fn matches_at(&self, tokens: &[String], start: usize) -> Vec<usize> {
        let mut out = Vec::new();
        for k in 1..=self.max_len.min(tokens.len() - start) {
            if self.entries.contains(&tokens[start..start + k].join(" ")) {
                out.push(k);
            }
        }
        out
    }
}

/// The production model: incremental trie walk with early exit on death
/// (sound because every longer entry extends a live prefix).
fn trie_matches_at(gaz: &Gazetteer, tokens: &[String], start: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut walk = gaz.walk();
    for k in 1..=gaz.max_len().min(tokens.len() - start) {
        if k > 1 && !walk.sep() {
            break;
        }
        if !walk.token(&tokens[start + k - 1]) {
            break;
        }
        if walk.matched() {
            out.push(k);
        }
    }
    out
}

#[test]
fn trie_walk_matches_set_membership_on_random_vocabularies() {
    let mut rng = Rng::seed_from_u64(0x676172); // "gaz"
    for _ in 0..300 {
        let n_entries = rng.gen_range(1..30);
        let phrases: Vec<Vec<String>> = (0..n_entries).map(|_| arb_phrase(&mut rng, 4)).collect();

        let set = SetGazetteer::build(&phrases);
        let mut trie = Gazetteer::default();
        for p in &phrases {
            trie.insert(&p.join(" "));
        }
        assert_eq!(trie.max_len(), set.max_len);
        assert_eq!(trie.len(), set.entries.len(), "duplicate entries collapse");

        // Query with a random token stream (mix of vocab words and
        // noise) from every start position.
        let tokens: Vec<String> = (0..rng.gen_range(1..25))
            .map(|_| {
                if rng.gen_bool(0.2) {
                    "zz".to_string() // guaranteed non-vocab
                } else {
                    arb_word(&mut rng)
                }
            })
            .collect();
        for start in 0..tokens.len() {
            assert_eq!(
                trie_matches_at(&trie, &tokens, start),
                set.matches_at(&tokens, start),
                "entries {phrases:?}, tokens {tokens:?}, start {start}"
            );
            // `starts_entry` (the NER's start-class test) holds exactly
            // when some entry's first word is this token.
            let tok = tokens[start].as_str();
            assert_eq!(
                trie.starts_entry(tok),
                phrases.iter().any(|p| p[0] == tok),
                "entries {phrases:?}, token {tok:?}"
            );
        }
    }
}

#[test]
fn contains_agrees_with_set_membership() {
    let mut rng = Rng::seed_from_u64(0xC0117A);
    for _ in 0..200 {
        let phrases: Vec<Vec<String>> = (0..rng.gen_range(1..20))
            .map(|_| arb_phrase(&mut rng, 3))
            .collect();
        let set = SetGazetteer::build(&phrases);
        let trie = {
            let mut g = Gazetteer::default();
            for p in &phrases {
                g.insert(&p.join(" "));
            }
            g
        };
        // Probe with fresh random phrases (some will collide with
        // entries, most won't) plus every actual entry.
        for p in &phrases {
            assert!(trie.contains(&p.join(" ")));
        }
        for _ in 0..50 {
            let probe = arb_phrase(&mut rng, 4).join(" ");
            assert_eq!(
                trie.contains(&probe),
                set.entries.contains(&probe),
                "probe {probe:?}"
            );
        }
    }
}

#[test]
fn folded_walk_matches_ascii_lowercase_fold() {
    // `token_folded` must behave exactly like lowercasing the token
    // first: mixed-case queries against lowercase entries.
    let mut rng = Rng::seed_from_u64(0xF01D);
    let entries = ["ab", "ab ba", "aab", "b", "b a b"];
    let mut gaz = Gazetteer::default();
    for e in &entries {
        gaz.insert(e);
    }
    let set: HashSet<&str> = entries.iter().copied().collect();
    let mut scratch = String::new();
    for _ in 0..2000 {
        let words: Vec<String> = (0..rng.gen_range(1..4))
            .map(|_| {
                arb_word(&mut rng)
                    .chars()
                    .map(|c| {
                        if rng.gen_bool(0.5) {
                            c.to_ascii_uppercase()
                        } else {
                            c
                        }
                    })
                    .collect()
            })
            .collect();
        let mut walk = gaz.walk();
        let mut matched_lens = Vec::new();
        for (i, w) in words.iter().enumerate() {
            if i > 0 && !walk.sep() {
                break;
            }
            if !walk.token_folded(w, &mut scratch) {
                break;
            }
            if walk.matched() {
                matched_lens.push(i + 1);
            }
        }
        for k in 1..=words.len() {
            let lowered = words[..k]
                .iter()
                .map(|w| w.to_lowercase())
                .collect::<Vec<_>>()
                .join(" ");
            assert_eq!(
                matched_lens.contains(&k),
                set.contains(lowered.as_str()),
                "words {words:?}, k {k}"
            );
        }
    }
}
