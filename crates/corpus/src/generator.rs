//! Document assembly.
//!
//! A synthetic document = headline + body sentences drawn from the
//! template families. Each document carries ground truth: which sales
//! driver (if any) it triggers, the exact trigger sentences, and every
//! company it mentions — so the experiment harness can score snippet
//! classification and company ranking without hand labeling.

use crate::drivers::SalesDriver;
use crate::names::NameGenerator;
use crate::templates::{
    background_sentence, business_filler, distractor_sentence, trigger_sentence_signed,
    BACKGROUND_GENRES,
};

/// What kind of document to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Genre {
    /// Business news containing 1–3 genuine trigger events for a driver.
    Trigger(SalesDriver),
    /// Business news *about* a driver's topic but containing only
    /// distractor sentences (biographies, denials, retrospectives).
    Distractor(SalesDriver),
    /// Neutral business news (companies mentioned, no events).
    BusinessNoise,
    /// Non-business content of the given genre index (into
    /// [`BACKGROUND_GENRES`]).
    Background(usize),
}

/// A generated document with ground truth attached.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticDoc {
    /// Stable document id (position in the web).
    pub id: usize,
    /// A synthetic URL, handy in ranked-output displays.
    pub url: String,
    /// Headline.
    pub title: String,
    /// Body text (title and body are separated by a blank line in
    /// [`SyntheticDoc::text`]).
    pub body: String,
    /// Genre this document was generated as.
    pub genre: Genre,
    /// Exact text of each genuine trigger sentence in the body.
    pub trigger_sentences: Vec<String>,
    /// Every company mentioned anywhere in the document.
    pub companies: Vec<String>,
    /// Publication date `(year, month, day)` — news pages carry one, and
    /// the paper's §6 wants trigger events tied to "a relevant time
    /// period".
    pub date: (u16, u8, u8),
}

impl SyntheticDoc {
    /// Full text: headline, blank line, body.
    #[must_use]
    pub fn text(&self) -> String {
        let mut text = String::with_capacity(self.title.len() + 2 + self.body.len());
        self.text_into(&mut text);
        text
    }

    /// [`SyntheticDoc::text`] into a caller-kept buffer (cleared first),
    /// so a scan over many documents reuses one allocation.
    pub fn text_into(&self, out: &mut String) {
        out.clear();
        out.push_str(&self.title);
        out.push_str("\n\n");
        out.push_str(&self.body);
    }

    /// The driver this document genuinely triggers, if any.
    #[must_use]
    pub fn trigger_driver(&self) -> Option<SalesDriver> {
        match self.genre {
            Genre::Trigger(d) if !self.trigger_sentences.is_empty() => Some(d),
            _ => None,
        }
    }
}

/// Generates documents from a seeded [`NameGenerator`].
#[derive(Debug, Clone)]
pub struct DocGenerator {
    names: NameGenerator,
    next_id: usize,
}

impl DocGenerator {
    /// Create a generator with the given seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            names: NameGenerator::new(seed),
            next_id: 0,
        }
    }

    /// Create a generator with a custom known-name fraction (NER miss
    /// rate knob).
    #[must_use]
    pub fn with_known_fraction(seed: u64, fraction: f64) -> Self {
        Self {
            names: NameGenerator::new(seed).with_known_fraction(fraction),
            next_id: 0,
        }
    }

    /// Generate one document of the requested genre.
    pub fn generate(&mut self, genre: Genre) -> SyntheticDoc {
        let id = self.next_id;
        self.next_id += 1;
        let g = &mut self.names;
        let mut body_sents: Vec<String> = Vec::new();
        let mut trigger_sentences = Vec::new();
        let mut companies = Vec::new();

        let title;
        match genre {
            Genre::Trigger(driver) => {
                // Real event articles are mostly *about* the event:
                // several event sentences plus a little boilerplate.
                let n_triggers = g.range(2, 5);
                let n_filler = g.range(2, 5);
                // One sentiment per article: a revenue story is either a
                // good quarter or a bad one, never both.
                let revenue_negative = g.chance(0.25);
                title = headline_signed(driver, g, revenue_negative);
                for _ in 0..n_triggers {
                    let s = trigger_sentence_signed(driver, g, revenue_negative);
                    trigger_sentences.push(s.text.clone());
                    companies.extend(s.companies);
                    body_sents.push(s.text);
                }
                for _ in 0..n_filler {
                    let s = business_filler(g);
                    companies.extend(s.companies);
                    body_sents.push(s.text);
                }
                // Occasionally mix in one distractor, as real articles do.
                if g.chance(0.3) {
                    let s = distractor_sentence(driver, g);
                    companies.extend(s.companies);
                    body_sents.push(s.text);
                }
                shuffle(&mut body_sents, g);
            }
            Genre::Distractor(driver) => {
                title = distractor_headline(driver, g);
                for _ in 0..g.range(2, 5) {
                    let s = distractor_sentence(driver, g);
                    companies.extend(s.companies);
                    body_sents.push(s.text);
                }
                for _ in 0..g.range(2, 5) {
                    let s = business_filler(g);
                    companies.extend(s.companies);
                    body_sents.push(s.text);
                }
                shuffle(&mut body_sents, g);
            }
            Genre::BusinessNoise => {
                title = "Market roundup and company notes".to_string();
                for _ in 0..g.range(5, 10) {
                    let s = business_filler(g);
                    companies.extend(s.companies);
                    body_sents.push(s.text);
                }
            }
            Genre::Background(gi) => {
                let genre_name = BACKGROUND_GENRES[gi % BACKGROUND_GENRES.len()];
                title = format!("Notes on {genre_name}");
                for _ in 0..g.range(5, 10) {
                    body_sents.push(background_sentence(genre_name, g).text);
                }
            }
        }

        companies.sort();
        companies.dedup();
        let date = (
            2004 + g.range(0, 3) as u16,
            1 + g.range(0, 12) as u8,
            1 + g.range(0, 28) as u8,
        );
        SyntheticDoc {
            id,
            url: format!("http://news.example.com/{id}"),
            title,
            body: body_sents.join(" "),
            genre,
            trigger_sentences,
            companies,
            date,
        }
    }
}

/// Retrospective/analysis headlines. Unlike trigger headlines they do
/// not embed the event phrases the smart queries search for — a
/// historical piece is not titled "Acme names new CEO".
fn distractor_headline(driver: SalesDriver, g: &mut NameGenerator) -> String {
    let c = g.company();
    match driver {
        SalesDriver::MergersAcquisitions => format!("Deal history: the {c} story"),
        SalesDriver::ChangeInManagement => format!("A look back at {c} leadership"),
        SalesDriver::RevenueGrowth => format!("Charting two decades of {c} results"),
        other => match other.templates() {
            // The company draw above stays (uniform RNG discipline);
            // custom headlines draw their own placeholders.
            Some(t) if !t.distractor_headlines.is_empty() => {
                crate::templates::render_custom(&t.distractor_headlines, g).text
            }
            _ => format!("A look back at {c} and {}", other.name()),
        },
    }
}

fn headline_signed(driver: SalesDriver, g: &mut NameGenerator, revenue_negative: bool) -> String {
    match driver {
        SalesDriver::MergersAcquisitions => {
            let (a, b) = g.company_pair();
            format!("{a} to buy {b}")
        }
        SalesDriver::ChangeInManagement => {
            let c = g.company();
            let d = g.designation();
            format!("{c} names new {d}")
        }
        SalesDriver::RevenueGrowth => {
            let c = g.company();
            if revenue_negative {
                format!("{c} stumbles in tough quarter")
            } else {
                format!("{c} posts strong quarter")
            }
        }
        other => match other.templates() {
            Some(t) if !t.headlines.is_empty() => {
                crate::templates::render_custom(&t.headlines, g).text
            }
            _ => {
                let c = g.company();
                format!("{c} in the news: {}", other.name())
            }
        },
    }
}

/// Fisher–Yates shuffle driven by the corpus RNG (keeps document layout
/// deterministic per seed without pulling `rand` traits into templates).
fn shuffle(items: &mut [String], g: &mut NameGenerator) {
    for i in (1..items.len()).rev() {
        let j = g.range(0, i + 1);
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trigger_doc_has_ground_truth() {
        let mut gen = DocGenerator::new(7);
        let doc = gen.generate(Genre::Trigger(SalesDriver::MergersAcquisitions));
        assert_eq!(doc.trigger_driver(), Some(SalesDriver::MergersAcquisitions));
        assert!(!doc.trigger_sentences.is_empty());
        for t in &doc.trigger_sentences {
            assert!(doc.body.contains(t.as_str()), "trigger not in body");
        }
        assert!(!doc.companies.is_empty());
    }

    #[test]
    fn distractor_doc_triggers_nothing() {
        let mut gen = DocGenerator::new(8);
        let doc = gen.generate(Genre::Distractor(SalesDriver::ChangeInManagement));
        assert_eq!(doc.trigger_driver(), None);
        assert!(doc.trigger_sentences.is_empty());
        assert!(!doc.companies.is_empty());
    }

    #[test]
    fn background_doc_mentions_no_companies() {
        let mut gen = DocGenerator::new(9);
        let doc = gen.generate(Genre::Background(0));
        assert_eq!(doc.trigger_driver(), None);
        assert!(doc.companies.is_empty());
    }

    #[test]
    fn ids_increment() {
        let mut gen = DocGenerator::new(10);
        let a = gen.generate(Genre::BusinessNoise);
        let b = gen.generate(Genre::BusinessNoise);
        assert_eq!(a.id + 1, b.id);
        assert_ne!(a.url, b.url);
    }

    #[test]
    fn text_has_hard_break_after_title() {
        let mut gen = DocGenerator::new(11);
        let doc = gen.generate(Genre::Trigger(SalesDriver::RevenueGrowth));
        assert!(doc.text().contains("\n\n"));
        assert!(doc.text().starts_with(&doc.title));
    }

    #[test]
    fn generation_deterministic_per_seed() {
        let mut a = DocGenerator::new(12);
        let mut b = DocGenerator::new(12);
        for genre in [
            Genre::Trigger(SalesDriver::MergersAcquisitions),
            Genre::Distractor(SalesDriver::RevenueGrowth),
            Genre::BusinessNoise,
            Genre::Background(3),
        ] {
            let da = a.generate(genre);
            let db = b.generate(genre);
            assert_eq!(da.text(), db.text());
        }
    }

    #[test]
    fn companies_deduped_and_sorted() {
        let mut gen = DocGenerator::new(13);
        for _ in 0..10 {
            let doc = gen.generate(Genre::Trigger(SalesDriver::ChangeInManagement));
            let mut c = doc.companies.clone();
            c.sort();
            c.dedup();
            assert_eq!(c, doc.companies);
        }
    }
}
