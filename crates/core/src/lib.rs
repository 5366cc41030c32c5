//! # etap — Electronic Trigger Alert Program
//!
//! A faithful reproduction of the system described in *Automatic Sales
//! Lead Generation from Web Data* (Ramakrishnan, Joshi, Negi,
//! Krishnapuram, Balakrishnan — ICDE 2006).
//!
//! ETAP extracts **trigger events** — "events of corporate relevance and
//! indicative of the propensity of companies to purchase new products" —
//! from web text and ranks them into sales leads. The pipeline:
//!
//! ```text
//! data gathering ──▶ event identification ──▶ ranking
//!  (crawl/search)     (snippets → NER/POS →     (score / orientation /
//!                      feature abstraction →     company MRR)
//!                      two-class classifier)
//! ```
//!
//! # Quick start
//!
//! ```
//! use etap::{Etap, EtapConfig, DriverSpec, SalesDriver};
//! use etap_corpus::{SyntheticWeb, WebConfig};
//!
//! // The "web" (a deterministic synthetic substitute — see DESIGN.md).
//! let web = SyntheticWeb::generate(WebConfig::with_docs(600));
//!
//! // Train a classifier for one sales driver (all three by default).
//! let mut config = EtapConfig::paper();
//! config.training.top_docs_per_query = 50;
//! config.training.negative_snippets = 400;
//! config.drivers = vec![DriverSpec::builtin(SalesDriver::ChangeInManagement)];
//! let trained = Etap::new(config).train(&web);
//!
//! // Identify and rank trigger events in fresh documents.
//! let fresh = SyntheticWeb::generate(WebConfig { seed: 7, ..WebConfig::with_docs(60) });
//! let events = trained.identify_events_parallel(fresh.docs(), 0);
//! let ranked = etap::rank::rank_by_score(events);
//! for event in ranked.iter().take(3) {
//!     println!("[{:.3}] {} — {}", event.score, event.driver, event.snippet);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aliases;
pub mod driverfile;
pub mod events;
pub mod filter;
pub mod icp;
pub mod leads;
pub mod leads2;
pub mod lexlearn;
pub mod orientation;
pub mod persist;
pub mod rank;
pub mod spec;
pub mod temporal;
pub mod training;

pub use aliases::AliasResolver;
pub use driverfile::{DriverDef, DriverFileError};
pub use events::{EventIdentifier, TriggerEvent};
pub use filter::{Filter, FilterParseError};
pub use icp::{IcpConfig, IcpScore, IcpWeights};
pub use leads::LeadBook;
pub use leads2::{BookHandle, CompanyRef, EventView, MappedBook};
pub use lexlearn::LexiconLearner;
pub use orientation::OrientationLexicon;
pub use rank::{
    rank_by_orientation, rank_by_score, rank_by_time_weighted_score, rank_companies,
    rank_companies_resolved, CompanyScore,
};
pub use spec::{DriverSpec, SpecError};
pub use temporal::{Date, TemporalResolver};
pub use training::{DriverScorer, ScoreScratch, TrainedDriver, TrainingConfig, TrainingReport};

// Re-export the pieces users compose with.
pub use etap_corpus::{DriverId, DriverSet, DriverTemplates, SalesDriver};

use etap_annotate::Annotator;
use etap_corpus::{SearchEngine, SyntheticDoc, SyntheticWeb};
use std::sync::Arc;
use training::ScoreIndex;

/// Top-level configuration of an ETAP instance.
#[derive(Debug, Clone, Default)]
pub struct EtapConfig {
    /// Training-pipeline knobs (snippet window, query depth, negative
    /// class size, de-noising, feature abstraction).
    pub training: TrainingConfig,
    /// Driver specs; an empty list means the paper's three drivers.
    pub drivers: Vec<DriverSpec>,
}

impl EtapConfig {
    /// Paper defaults with the three built-in drivers.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            training: TrainingConfig::default(),
            drivers: DriverSpec::all_builtin(),
        }
    }
}

/// An untrained ETAP system: configuration + annotator. The annotator
/// is built once and shared with every system it trains.
#[derive(Debug)]
pub struct Etap {
    config: EtapConfig,
    annotator: Arc<Annotator>,
}

impl Default for Etap {
    fn default() -> Self {
        Self::new(EtapConfig::paper())
    }
}

impl Etap {
    /// Build a system. An empty `config.drivers` is replaced by the
    /// paper's three built-in drivers.
    #[must_use]
    pub fn new(mut config: EtapConfig) -> Self {
        if config.drivers.is_empty() {
            config.drivers = DriverSpec::all_builtin();
        }
        Self {
            config,
            annotator: Arc::new(Annotator::new()),
        }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &EtapConfig {
        &self.config
    }

    /// Train classifiers for every configured driver against `web`
    /// (indexing it with the built-in search engine first). Held-out
    /// evaluation calls [`training::train_drivers`] with its own
    /// exclusion predicate instead.
    #[must_use]
    pub fn train(&self, web: &SyntheticWeb) -> TrainedEtap {
        let engine = SearchEngine::build(web.docs());
        let drivers = training::train_drivers(
            &self.config.drivers,
            &engine,
            web,
            &self.annotator,
            &self.config.training,
            |_| false,
        );
        TrainedEtap::assemble(
            drivers,
            EventIdentifier::with_annotator(
                Arc::clone(&self.annotator),
                self.config.training.snippet_window,
            ),
        )
    }
}

/// A trained ETAP system, ready to identify and rank trigger events.
#[derive(Debug)]
pub struct TrainedEtap {
    /// One trained classifier per driver.
    drivers: Vec<TrainedDriver>,
    /// The drivers' walk groups and term indexes, built once here and
    /// read by every scan (see [`DriverScorer`]).
    index: Arc<ScoreIndex>,
    identifier: EventIdentifier,
}

impl TrainedEtap {
    /// Reassemble a trained system from persisted drivers (the
    /// `etap::persist` round-trip) and a snippet window — the serving
    /// path's entry point: load models, then identify a crawl's events
    /// and build them into a [`LeadBook`].
    #[must_use]
    pub fn from_drivers(drivers: Vec<TrainedDriver>, snippet_window: usize) -> Self {
        Self::assemble(drivers, EventIdentifier::new(snippet_window))
    }

    /// The one constructor from fresh drivers: indexes their
    /// vocabularies for scoring.
    fn assemble(drivers: Vec<TrainedDriver>, identifier: EventIdentifier) -> Self {
        Self {
            index: Arc::new(ScoreIndex::new(&drivers)),
            drivers,
            identifier,
        }
    }

    /// The trained classifiers, one per driver.
    #[must_use]
    pub fn drivers(&self) -> &[TrainedDriver] {
        &self.drivers
    }

    /// Identify trigger events across a document collection (all
    /// drivers, unordered) on `threads` workers (`0` = the
    /// `ETAP_THREADS` default). Bit-identical output for any value.
    #[must_use]
    pub fn identify_events_parallel(
        &self,
        docs: &[SyntheticDoc],
        threads: usize,
    ) -> Vec<TriggerEvent> {
        let scorer = DriverScorer::with_index(&self.drivers, &self.index);
        self.identifier.scan(&scorer, docs, threads)
    }

    /// The snippet window size the event identifier was built with
    /// (persisted alongside the models so a reloaded system identifies
    /// events identically).
    #[must_use]
    pub fn snippet_window(&self) -> usize {
        self.identifier.window()
    }

    /// The trained classifier for one driver, if configured.
    #[must_use]
    pub fn driver(&self, driver: SalesDriver) -> Option<&TrainedDriver> {
        self.drivers.iter().find(|d| d.spec.driver == driver)
    }

    /// Incremental retrain for continuous ingest: a new system whose
    /// drivers have their class priors blended toward the trigger rates
    /// observed in the latest poll (`rates[i]` pairs with `drivers[i]`;
    /// missing entries leave that driver unchanged). Likelihoods — and
    /// therefore each snippet's feature evidence — are untouched; see
    /// [`TrainedDriver::with_adapted_prior`].
    ///
    /// The new system shares this one's annotator and term index: a
    /// prior-only change rebuilds nothing on the scan path.
    #[must_use]
    pub fn with_adapted_priors(&self, rates: &[f64], blend: f64) -> Self {
        let drivers = self
            .drivers
            .iter()
            .enumerate()
            .map(|(i, d)| match rates.get(i) {
                Some(&rate) => d.with_adapted_prior(rate, blend),
                None => d.clone(),
            })
            .collect();
        Self {
            drivers,
            index: Arc::clone(&self.index),
            identifier: self.identifier.clone(),
        }
    }

    /// Score one raw snippet text against one driver.
    #[must_use]
    pub fn score_snippet(&self, driver: SalesDriver, text: &str) -> Option<f64> {
        let trained = self.driver(driver)?;
        let ann = self.identifier.annotator().annotate(text);
        Some(trained.score(&ann))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etap_corpus::WebConfig;

    #[test]
    fn full_system_roundtrip() {
        let web = SyntheticWeb::generate(WebConfig {
            total_docs: 600,
            ..WebConfig::default()
        });
        let mut config = EtapConfig::paper();
        config.training.top_docs_per_query = 50;
        config.training.negative_snippets = 500;
        config.training.pure_positives = 10;
        // Keep only one driver for test speed.
        config.drivers = vec![DriverSpec::builtin(SalesDriver::RevenueGrowth)];
        let trained = Etap::new(config).train(&web);

        assert!(trained.driver(SalesDriver::RevenueGrowth).is_some());
        assert!(trained.driver(SalesDriver::MergersAcquisitions).is_none());

        let s = trained
            .score_snippet(
                SalesDriver::RevenueGrowth,
                "Oracle reported a revenue growth of 12 percent in the fourth quarter.",
            )
            .unwrap();
        assert!(s > 0.5, "{s}");
        let b = trained
            .score_snippet(
                SalesDriver::RevenueGrowth,
                "Simmer the sauce for twenty minutes, stirring occasionally.",
            )
            .unwrap();
        assert!(b < 0.5, "{b}");
    }

    #[test]
    fn empty_driver_list_defaults_to_builtin() {
        let sys = Etap::new(EtapConfig::default());
        assert_eq!(sys.config().drivers.len(), 3);
    }
}
