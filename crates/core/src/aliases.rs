//! Company-name variation resolution — the paper's §6 future work.
//!
//! > *"To determine an overall score of a company based on its trigger
//! > events, we need to know all the variations to the reference of the
//! > company. This information is not always available and automated
//! > methods to determine variations of a company name need to be
//! > developed."*
//!
//! The resolver canonicalizes surface forms so that `IBM Corp.`,
//! `IBM Corporation` and `IBM` aggregate to one prospect in the Eq. 2
//! company ranking:
//!
//! 1. **normalization** — lowercase, strip punctuation, drop leading
//!    articles and trailing corporate designators (`Inc`, `Corp`, `Ltd`,
//!    `Group`, …);
//! 2. **acronym linking** — a short all-caps mention (`UBS`, `AMD`)
//!    unifies with a previously seen multi-word name whose initials
//!    match (`Advanced Micro Devices`);
//! 3. **prefix linking** — a shortened mention (`Veridian`) unifies
//!    with a longer registered name that extends it (`Veridian
//!    Systems`), provided the link is unambiguous. The resolver counts
//!    the registered multi-word keys by first word, so the link is one
//!    lookup, not a scan of every key.

use etap_runtime::hash::Fnv1a64;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

/// A map under the FNV hash. Company names come from our own annotator,
/// not an adversary, so the cheap hash is safe (see `etap_text::vocab`).
pub(crate) type FnvMap<K, V> = HashMap<K, V, BuildHasherDefault<Fnv1a64>>;

/// Trailing tokens that are corporate designators, not name content.
const DESIGNATORS: &[&str] = &[
    "inc",
    "corp",
    "corporation",
    "co",
    "company",
    "ltd",
    "limited",
    "plc",
    "llc",
    "llp",
    "ag",
    "sa",
    "nv",
    "gmbh",
    "group",
    "holdings",
    "industries",
    "international",
    "worldwide",
    "enterprises",
    "bancorp",
];

/// Whether `word` lowercases (as [`etap_text::lower_cow`] does) to
/// `lower`, without allocating for ASCII words.
fn lowercases_to(word: &str, lower: &str) -> bool {
    if word.is_ascii() {
        word.eq_ignore_ascii_case(lower)
    } else {
        word.to_lowercase() == lower
    }
}

/// Canonicalizes company-name variations.
#[derive(Debug, Default, Clone)]
pub struct AliasResolver {
    /// normalized key → its canonical display form (first surface seen),
    /// as an index into `displays`.
    canon: FnvMap<String, usize>,
    /// Canonical display forms, in registration order.
    displays: Vec<String>,
    /// acronym → display of the multi-word name it abbreviates.
    acronyms: FnvMap<String, usize>,
    /// First word of the registered multi-word keys → how many there
    /// are, and the display of the first (the one, while unique).
    first_words: FnvMap<String, (usize, usize)>,
}

impl AliasResolver {
    /// Empty resolver.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Normalize a surface form to its comparison key.
    #[must_use]
    pub fn normalize(surface: &str) -> String {
        let tokens = etap_text::tokenize(surface);
        let words: Vec<&str> = tokens
            .iter()
            .filter(|t| t.kind.is_word() || t.kind.is_numeric())
            .map(|t| t.text)
            .collect();
        let mut words = &words[..];
        if words.first().is_some_and(|w| lowercases_to(w, "the")) {
            words = &words[1..];
        }
        while let [rest @ .., last] = words {
            if rest.is_empty() || !DESIGNATORS.iter().any(|d| lowercases_to(last, d)) {
                break;
            }
            words = rest;
        }
        let mut key = String::with_capacity(surface.len());
        for (i, w) in words.iter().enumerate() {
            if i > 0 {
                key.push(' ');
            }
            key.push_str(&etap_text::lower_cow(w));
        }
        key
    }

    /// Resolve a surface form to its canonical display name, registering
    /// it if unseen. Subsequent variations of the same company resolve
    /// to the first-seen display form.
    ///
    /// ```
    /// use etap::AliasResolver;
    /// let mut r = AliasResolver::new();
    /// let canon = r.canonicalize("IBM");
    /// assert_eq!(r.canonicalize("IBM Corp."), canon);
    /// assert_eq!(r.canonicalize("The IBM Company"), canon);
    /// ```
    pub fn canonicalize(&mut self, surface: &str) -> String {
        self.canonicalize_key(&Self::normalize(surface), surface)
    }

    /// [`canonicalize`](Self::canonicalize) for a surface whose
    /// [`normalize`](Self::normalize)d key the caller already holds.
    pub(crate) fn canonicalize_key(&mut self, key: &str, surface: &str) -> String {
        if key.is_empty() {
            return surface.to_string();
        }

        // Exact normalized match.
        if let Some(&id) = self.canon.get(key) {
            return self.displays[id].clone();
        }

        let first_word = key.split_once(' ').map(|(first, _)| first);
        // Acronym: single short token, previously registered initials.
        if first_word.is_none() && key.len() <= 5 {
            if let Some(&id) = self.acronyms.get(key) {
                return self.displays[id].clone();
            }
        }

        match first_word {
            // Prefix link: "veridian" → unique registered "veridian
            // systems", i.e. the one multi-word key with that first word.
            None => {
                if let Some(&(1, id)) = self.first_words.get(key) {
                    return self.displays[id].clone();
                }
            }
            // Reverse prefix: registering the LONG form after the short
            // one ("Veridian" seen, now "Veridian Systems") — unify onto
            // the existing short entry, and register the long key for
            // exact future hits.
            Some(first) => {
                if let Some(&id) = self.canon.get(first) {
                    self.register(key, id);
                    return self.displays[id].clone();
                }
            }
        }

        // New company: register surface as the canonical display.
        let display = surface.trim().to_string();
        self.displays.push(display.clone());
        self.register(key, self.displays.len() - 1);
        display
    }

    fn register(&mut self, key: &str, id: usize) {
        // Acronym and first-word indexes for multi-word names.
        if let Some((first, _)) = key.split_once(' ') {
            let acro: String = key.split(' ').filter_map(|w| w.chars().next()).collect();
            if acro.len() >= 2 {
                self.acronyms.entry(acro).or_insert(id);
            }
            match self.first_words.get_mut(first) {
                Some(slot) => slot.0 += 1,
                None => {
                    self.first_words.insert(first.to_string(), (1, id));
                }
            }
        }
        self.canon.insert(key.to_string(), id);
    }

    /// Number of distinct canonical companies seen.
    #[must_use]
    pub fn len(&self) -> usize {
        let mut displays: Vec<&String> =
            self.canon.values().map(|&id| &self.displays[id]).collect();
        displays.sort_unstable();
        displays.dedup();
        displays.len()
    }

    /// True when no names have been registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.canon.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_strips_designators_and_articles() {
        assert_eq!(AliasResolver::normalize("IBM Corp."), "ibm");
        assert_eq!(AliasResolver::normalize("The Acme Group"), "acme");
        assert_eq!(
            AliasResolver::normalize("Veridian Systems Inc."),
            "veridian systems"
        );
        assert_eq!(
            AliasResolver::normalize("Tata Consultancy"),
            "tata consultancy"
        );
        // A lone designator is kept (nothing else identifies the name).
        assert_eq!(AliasResolver::normalize("Group"), "group");
    }

    #[test]
    fn variations_unify() {
        let mut r = AliasResolver::new();
        let a = r.canonicalize("IBM");
        assert_eq!(r.canonicalize("IBM Corp."), a);
        assert_eq!(r.canonicalize("IBM Corporation"), a);
        assert_eq!(r.canonicalize("The IBM Company"), a);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn acronyms_link_to_full_names() {
        let mut r = AliasResolver::new();
        let full = r.canonicalize("Advanced Micro Devices");
        assert_eq!(r.canonicalize("AMD"), full);
    }

    #[test]
    fn short_mention_links_to_unique_long_form() {
        let mut r = AliasResolver::new();
        let full = r.canonicalize("Veridian Systems");
        assert_eq!(r.canonicalize("Veridian"), full);
    }

    #[test]
    fn long_form_after_short_unifies() {
        let mut r = AliasResolver::new();
        let short = r.canonicalize("Veridian");
        assert_eq!(r.canonicalize("Veridian Systems Inc."), short);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn ambiguous_prefix_does_not_link() {
        let mut r = AliasResolver::new();
        let a = r.canonicalize("Veridian Systems");
        let b = r.canonicalize("Veridian Networks");
        assert_ne!(a, b);
        // "Veridian" alone is ambiguous → becomes its own entry.
        let c = r.canonicalize("Veridian");
        assert_ne!(c, a);
        assert_ne!(c, b);
    }

    #[test]
    fn distinct_companies_stay_distinct() {
        let mut r = AliasResolver::new();
        let a = r.canonicalize("Oracle");
        let b = r.canonicalize("Microsoft");
        assert_ne!(a, b);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn empty_and_junk_surfaces() {
        let mut r = AliasResolver::new();
        assert_eq!(r.canonicalize("..."), "...");
        assert!(r.is_empty());
    }

    /// `normalize` as it was before it lowercased in place: one owned
    /// string per word, joined. Kept as the oracle for `normalize`.
    fn normalize_by_words(surface: &str) -> String {
        let mut words: Vec<String> = etap_text::tokenize(surface)
            .iter()
            .filter(|t| t.kind.is_word() || t.kind.is_numeric())
            .map(|t| t.lower().into_owned())
            .collect();
        if words.first().map(String::as_str) == Some("the") {
            words.remove(0);
        }
        while words.len() > 1 && DESIGNATORS.contains(&words.last().expect("non-empty").as_str()) {
            words.pop();
        }
        words.join(" ")
    }

    /// The resolver as it was before the prefix link became an indexed
    /// lookup: every unknown one-word key scanned all registered keys.
    /// Kept as the oracle the indexed resolver must reproduce.
    #[derive(Default)]
    struct ScanResolver {
        canon: HashMap<String, String>,
        acronyms: HashMap<String, String>,
    }

    impl ScanResolver {
        fn canonicalize(&mut self, surface: &str) -> String {
            let key = normalize_by_words(surface);
            if key.is_empty() {
                return surface.to_string();
            }
            if let Some(display) = self.canon.get(&key) {
                return display.clone();
            }
            if !key.contains(' ') && key.len() <= 5 {
                if let Some(target) = self.acronyms.get(&key) {
                    if let Some(display) = self.canon.get(target) {
                        return display.clone();
                    }
                }
            }
            if !key.contains(' ') {
                let mut matches = self
                    .canon
                    .keys()
                    .filter(|k| k.starts_with(&key) && k[key.len()..].starts_with(' '));
                if let (Some(only), None) = (matches.next(), matches.next()) {
                    return self.canon[only].clone();
                }
            }
            if key.contains(' ') {
                let first = key.split(' ').next().expect("non-empty");
                if let Some(display) = self.canon.get(first).cloned() {
                    self.register(&key, display.clone());
                    return display;
                }
            }
            let display = surface.trim().to_string();
            self.register(&key, display.clone());
            display
        }

        fn register(&mut self, key: &str, display: String) {
            if key.contains(' ') {
                let acro: String = key.split(' ').filter_map(|w| w.chars().next()).collect();
                if acro.len() >= 2 {
                    self.acronyms.entry(acro).or_insert_with(|| key.to_string());
                }
            }
            self.canon.insert(key.to_string(), display);
        }
    }

    /// A surface drawn to hit every rule: prefix chains over a small
    /// vocabulary (so one-word names often prefix several longer ones),
    /// acronyms of earlier names, designators and articles, case
    /// variants, and junk that normalizes to nothing.
    fn surface(rng: &mut etap_runtime::Rng, seen: &[String]) -> String {
        const WORDS: &[&str] = &[
            "veridian",
            "systems",
            "networks",
            "acme",
            "advanced",
            "micro",
            "devices",
            "zed",
            "ab",
            "a",
            "labs",
            "3m",
            "orbital",
            "data",
            "quill",
            "zed-x",
            "zürich",
            "straße",
            "σοφοσ",
            "\u{212A}orp",
            "the",
        ];
        const DESIGNATORS: &[&str] = &[
            "Inc.",
            "Corp",
            "Group",
            "Ltd",
            "Holdings",
            "Co",
            "İnc",
            "\u{212A}o",
            "GMBH",
        ];
        const JUNK: &[&str] = &["...", "", "  ", "&", "-- --", "The", "Inc."];
        let pick =
            |rng: &mut etap_runtime::Rng, xs: &[&'static str]| xs[rng.gen_range(0..xs.len())];
        match rng.gen_range(0..10u32) {
            0 => pick(rng, JUNK).to_string(),
            1 if !seen.is_empty() => {
                // An acronym of an earlier multi-word name.
                let earlier = &seen[rng.gen_range(0..seen.len())];
                AliasResolver::normalize(earlier)
                    .split(' ')
                    .filter_map(|w| w.chars().next())
                    .collect::<String>()
                    .to_uppercase()
            }
            2 if !seen.is_empty() => {
                // An earlier name, shortened to its first word.
                let earlier = &seen[rng.gen_range(0..seen.len())];
                earlier.split(' ').next().unwrap_or_default().to_string()
            }
            _ => {
                // Up to six words, so acronyms run past the five-letter
                // limit.
                let mut words: Vec<String> = (0..rng.gen_range(1..7usize))
                    .map(|_| {
                        let w = pick(rng, WORDS);
                        match rng.gen_range(0..3u32) {
                            0 => w.to_uppercase(),
                            1 => {
                                let mut c = w.chars();
                                c.next().map_or_else(String::new, |f| {
                                    f.to_uppercase().chain(c).collect()
                                })
                            }
                            _ => w.to_string(),
                        }
                    })
                    .collect();
                if rng.gen_bool(0.2) {
                    words.insert(0, "The".to_string());
                }
                if rng.gen_bool(0.3) {
                    words.push(pick(rng, DESIGNATORS).to_string());
                }
                words.join(" ")
            }
        }
    }

    #[test]
    fn resolver_canonicalizes_like_the_scanning_oracle() {
        for seed in 0..200u64 {
            let mut rng = etap_runtime::Rng::seed_from_u64(seed);
            let (mut indexed, mut oracle) = (AliasResolver::new(), ScanResolver::default());
            let mut seen = Vec::new();
            for step in 0..120 {
                let s = surface(&mut rng, &seen);
                assert_eq!(
                    AliasResolver::normalize(&s),
                    normalize_by_words(&s),
                    "{s:?}"
                );
                assert_eq!(
                    indexed.canonicalize(&s),
                    oracle.canonicalize(&s),
                    "seed {seed} step {step}: {s:?}"
                );
                seen.push(s);
            }
            let mut displays: Vec<&String> = oracle.canon.values().collect();
            displays.sort_unstable();
            displays.dedup();
            assert_eq!(indexed.len(), displays.len(), "seed {seed}");
        }
    }
}
