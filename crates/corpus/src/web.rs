//! The synthetic World Wide Web.
//!
//! A [`SyntheticWeb`] is a deterministic collection of generated
//! documents with a configurable genre mix. It plays the role of the
//! live web in the paper: the data-gathering component crawls it, the
//! search engine indexes it, smart queries harvest noisy positives from
//! it, and the negative class is randomly sampled from it.

use crate::drivers::{DriverSet, SalesDriver};
use crate::generator::SyntheticDoc;
use crate::stream::DocStream;

/// Genre mix and size of a synthetic web.
#[derive(Debug, Clone, Copy)]
pub struct WebConfig {
    /// Total number of documents.
    pub total_docs: usize,
    /// Fraction of documents that are trigger news, *per driver*.
    pub trigger_fraction: f64,
    /// Fraction that are distractor documents, per driver.
    pub distractor_fraction: f64,
    /// Fraction that are neutral business noise.
    pub business_noise_fraction: f64,
    /// RNG seed (drives both genre draws and document content).
    pub seed: u64,
    /// Fraction of entity names the NER gazetteer knows (see
    /// [`crate::names::NameGenerator::known_fraction`]).
    pub known_name_fraction: f64,
    /// Which sales drivers this web writes trigger/distractor documents
    /// for. Defaults to the three built-ins, so the default document
    /// stream is byte-identical to the closed-enum era; add registered
    /// data-defined drivers here to get corpus coverage for them.
    pub drivers: DriverSet,
}

impl Default for WebConfig {
    /// 4% trigger + 3% distractor per driver, 35% business noise, the
    /// rest background — a web where trigger events are rare, as in
    /// reality, but ordinary business boilerplate is everywhere (so a
    /// classifier cannot win by merely detecting "business-ness").
    fn default() -> Self {
        Self {
            total_docs: 2_000,
            trigger_fraction: 0.04,
            distractor_fraction: 0.03,
            business_noise_fraction: 0.35,
            seed: 0xE7A9,
            known_name_fraction: 0.25,
            drivers: DriverSet::builtin(),
        }
    }
}

impl WebConfig {
    /// Config with a specific size, defaults elsewhere.
    #[must_use]
    pub fn with_docs(total_docs: usize) -> Self {
        Self {
            total_docs,
            ..Self::default()
        }
    }

    pub(crate) fn validate(&self) {
        let events = (self.trigger_fraction + self.distractor_fraction) * self.drivers.len() as f64;
        let total = events + self.business_noise_fraction;
        assert!(
            total <= 1.0 + 1e-9,
            "genre fractions sum to {total}, must leave room for background"
        );
    }
}

/// A deterministic synthetic web.
#[derive(Debug, Clone)]
pub struct SyntheticWeb {
    docs: Vec<SyntheticDoc>,
    config: WebConfig,
}

impl SyntheticWeb {
    /// Generate a web from a config: the [`DocStream`] of `config`,
    /// collected.
    ///
    /// # Panics
    /// When the genre fractions exceed 1.
    #[must_use]
    pub fn generate(config: WebConfig) -> Self {
        Self {
            docs: DocStream::new(config).collect(),
            config,
        }
    }

    /// The configuration this web was generated from.
    #[must_use]
    pub fn config(&self) -> &WebConfig {
        &self.config
    }

    /// All documents.
    #[must_use]
    pub fn docs(&self) -> &[SyntheticDoc] {
        &self.docs
    }

    /// All documents, moved out of the web.
    #[must_use]
    pub fn into_docs(self) -> Vec<SyntheticDoc> {
        self.docs
    }

    /// Document by id.
    #[must_use]
    pub fn doc(&self, id: usize) -> &SyntheticDoc {
        &self.docs[id]
    }

    /// Number of documents.
    #[must_use]
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// True when the web holds no documents.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Documents that genuinely trigger `driver`.
    pub fn trigger_docs(&self, driver: SalesDriver) -> impl Iterator<Item = &SyntheticDoc> {
        self.docs
            .iter()
            .filter(move |d| d.trigger_driver() == Some(driver))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_size() {
        let web = SyntheticWeb::generate(WebConfig::with_docs(300));
        assert_eq!(web.len(), 300);
        assert!(!web.is_empty());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = SyntheticWeb::generate(WebConfig::with_docs(100));
        let b = SyntheticWeb::generate(WebConfig::with_docs(100));
        for (da, db) in a.docs().iter().zip(b.docs()) {
            assert_eq!(da.text(), db.text());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = SyntheticWeb::generate(WebConfig {
            seed: 1,
            ..WebConfig::with_docs(50)
        });
        let b = SyntheticWeb::generate(WebConfig {
            seed: 2,
            ..WebConfig::with_docs(50)
        });
        let same = a
            .docs()
            .iter()
            .zip(b.docs())
            .filter(|(x, y)| x.text() == y.text())
            .count();
        assert!(same < 10, "{same} identical docs across seeds");
    }

    #[test]
    fn genre_mix_roughly_matches_config() {
        let web = SyntheticWeb::generate(WebConfig::with_docs(3000));
        for driver in SalesDriver::ALL {
            let count = web.trigger_docs(driver).count();
            let expect = 3000.0 * web.config().trigger_fraction;
            assert!(
                (count as f64) > expect * 0.5 && (count as f64) < expect * 1.7,
                "{driver}: {count} vs expected ~{expect}"
            );
        }
    }

    #[test]
    fn custom_driver_set_yields_trigger_docs() {
        use crate::drivers::{DriverId, DriverTemplates};
        let d = DriverId::register("test_web_custom", "pilot deployments").unwrap();
        d.set_templates(DriverTemplates {
            triggers: vec!["{company} rolled out a pilot deployment with {company2}.".into()],
            distractors: vec!["{company} shelved a pilot idea in {year}.".into()],
            headlines: vec!["{company} pilots ahead".into()],
            distractor_headlines: vec!["The {company} pilot that wasn't".into()],
        });
        let mut drivers = DriverSet::builtin();
        drivers.insert(d);
        let web = SyntheticWeb::generate(WebConfig {
            drivers,
            ..WebConfig::with_docs(800)
        });
        assert!(web.trigger_docs(d).count() > 0, "no custom trigger docs");
        // Builtins still appear alongside.
        assert!(web.trigger_docs(SalesDriver::RevenueGrowth).count() > 0);
        // Deterministic per seed with the same driver set.
        let again = SyntheticWeb::generate(WebConfig {
            drivers,
            ..WebConfig::with_docs(800)
        });
        for (a, b) in web.docs().iter().zip(again.docs()) {
            assert_eq!(a.text(), b.text());
        }
    }

    #[test]
    #[should_panic(expected = "genre fractions")]
    fn over_unity_fractions_rejected() {
        let cfg = WebConfig {
            trigger_fraction: 0.2,
            distractor_fraction: 0.2,
            business_noise_fraction: 0.5,
            ..WebConfig::default()
        };
        let _ = SyntheticWeb::generate(cfg);
    }
}
