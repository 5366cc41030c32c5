//! Event identification: turning documents into scored trigger events.
//!
//! §2: "The event identification component splits each document in D
//! into snippets and associates with each snippet, a score of its
//! relevance to the given sales drivers."

use crate::training::{DriverScorer, ScoreScratch, TrainedDriver};
use etap_annotate::{AnnotateScratch, Annotator, EntityCategory};
use etap_classify::Classifier;
use etap_corpus::{SalesDriver, SyntheticDoc};
use etap_runtime::Stage;
use etap_text::{SnippetGenerator, SnippetScratch};
use std::sync::Arc;

/// Perf stages for the document-scan path (no-ops unless `ETAP_PERF=1`).
/// Together with `score.vectorize`/`score.posterior` from the scoring
/// path these give the full per-stage breakdown of `identify`.
static STAGE_SNIPPETS: Stage = Stage::new("scan.snippets");
static STAGE_ANNOTATE: Stage = Stage::new("scan.annotate");
static STAGE_EVENTS: Stage = Stage::new("scan.events");

/// A scored trigger event: a snippet flagged relevant to a sales driver.
#[derive(Debug, Clone, PartialEq)]
pub struct TriggerEvent {
    /// The sales driver this event pertains to.
    pub driver: SalesDriver,
    /// Source document id.
    pub doc_id: usize,
    /// Source document URL (for the ranked-output display).
    pub url: String,
    /// The snippet text.
    pub snippet: String,
    /// Classifier confidence (posterior of the positive class).
    pub score: f64,
    /// Companies the NER found in the snippet (ORG surface forms).
    pub companies: Vec<String>,
    /// Publication date of the source document (year, month, day).
    pub doc_date: (u16, u8, u8),
}

/// Identifies trigger events across a document collection.
///
/// `Clone` is cheap: the annotator (with its gazetteer automaton) is
/// shared, not rebuilt.
#[derive(Debug, Clone)]
pub struct EventIdentifier {
    annotator: Arc<Annotator>,
    snipgen: SnippetGenerator,
    /// Minimum posterior for a snippet to be flagged. Default 0.5.
    pub threshold: f64,
    /// Worker threads for document scanning (`0` = the `ETAP_THREADS`
    /// default, `1` = sequential). The flagged events are bit-identical
    /// for any value.
    pub threads: usize,
}

/// Per-thread buffers of a document scan: the document text, its
/// sentences and current snippet, the annotator's and the scorer's
/// working sets. After warm-up a document none of whose snippets is
/// flagged costs no allocation here.
#[derive(Debug, Default)]
struct ScanScratch {
    text: String,
    snippets: SnippetScratch,
    annotate: AnnotateScratch,
    scores: ScoreScratch,
}

impl EventIdentifier {
    /// Identifier with snippet window `n` and the default 0.5 threshold.
    #[must_use]
    pub fn new(window: usize) -> Self {
        Self::with_annotator(Arc::new(Annotator::new()), window)
    }

    /// Identifier that shares an already built annotator.
    #[must_use]
    pub fn with_annotator(annotator: Arc<Annotator>, window: usize) -> Self {
        Self {
            annotator,
            snipgen: SnippetGenerator::new(window),
            threshold: 0.5,
            threads: 0,
        }
    }

    /// Override the flagging threshold.
    #[must_use]
    pub fn with_threshold(mut self, threshold: f64) -> Self {
        self.threshold = threshold;
        self
    }

    /// Override the worker-thread count.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The annotator in use.
    #[must_use]
    pub fn annotator(&self) -> &Annotator {
        &self.annotator
    }

    /// The snippet window size `n` this identifier splits documents by.
    #[must_use]
    pub fn window(&self) -> usize {
        self.snipgen.window()
    }

    /// Scan `docs` with every trained driver; return all flagged events
    /// (unordered — ranking is the next component's job). Runs on up to
    /// `self.threads` worker threads; the result is bit-identical to a
    /// sequential document loop for any thread count (documents are
    /// independent; the merge preserves document order).
    #[must_use]
    pub fn identify<M: Classifier + Sync>(
        &self,
        drivers: &[TrainedDriver<M>],
        docs: &[SyntheticDoc],
    ) -> Vec<TriggerEvent> {
        self.identify_parallel(drivers, docs, self.threads)
    }

    /// [`EventIdentifier::identify`] with an explicit thread count
    /// (`0` = the `ETAP_THREADS` default, overriding `self.threads`).
    #[must_use]
    pub fn identify_parallel<M: Classifier + Sync>(
        &self,
        drivers: &[TrainedDriver<M>],
        docs: &[SyntheticDoc],
        threads: usize,
    ) -> Vec<TriggerEvent> {
        let scorer = DriverScorer::new(drivers);
        let per_doc = etap_runtime::par_map_with(docs, threads, ScanScratch::default, |sc, doc| {
            self.identify_doc(&scorer, doc, sc)
        });
        per_doc.into_iter().flatten().collect()
    }

    fn identify_doc<M: Classifier>(
        &self,
        scorer: &DriverScorer<'_, M>,
        doc: &SyntheticDoc,
        scratch: &mut ScanScratch,
    ) -> Vec<TriggerEvent> {
        let ScanScratch {
            text,
            snippets,
            annotate,
            scores,
        } = scratch;
        let mut events = Vec::new();
        let count = {
            let _t = STAGE_SNIPPETS.scope();
            doc.text_into(text);
            self.snipgen.split(text, snippets)
        };
        for k in 0..count {
            let snippet = {
                let _t = STAGE_SNIPPETS.scope();
                self.snipgen.snippet_text(text, k, snippets)
            };
            let ann = {
                let _t = STAGE_ANNOTATE.scope();
                self.annotator.annotate_with(snippet, annotate)
            };
            // Annotate once per snippet, walk its features once per walk
            // group, look them up once per driver. The snippet text and
            // the ORG surface strings are only copied out once some
            // driver actually flags the snippet — on a well-trained
            // model the overwhelming majority score below threshold.
            let mut companies: Option<Vec<String>> = None;
            for (trained, &score) in scorer.drivers().iter().zip(scorer.score(&ann, scores)) {
                if score >= self.threshold {
                    let _t = STAGE_EVENTS.scope();
                    let companies = companies.get_or_insert_with(|| {
                        ann.entities()
                            .iter()
                            .enumerate()
                            .filter(|(_, e)| e.category == EntityCategory::Org)
                            .map(|(ei, _)| ann.entity_text(ei))
                            .collect()
                    });
                    events.push(TriggerEvent {
                        driver: trained.spec.driver,
                        doc_id: doc.id,
                        url: doc.url.clone(),
                        snippet: snippet.to_owned(),
                        score,
                        companies: companies.clone(),
                        doc_date: doc.date,
                    });
                }
            }
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DriverSpec;
    use crate::training::{train_driver, TrainingConfig};
    use etap_corpus::{SearchEngine, SyntheticWeb, WebConfig};

    #[test]
    fn parallel_identification_matches_sequential() {
        let web = SyntheticWeb::generate(WebConfig {
            total_docs: 400,
            ..WebConfig::default()
        });
        let engine = SearchEngine::build(web.docs());
        let annotator = Annotator::new();
        let config = TrainingConfig {
            top_docs_per_query: 40,
            negative_snippets: 600,
            pure_positives: 10,
            ..TrainingConfig::default()
        };
        let spec = DriverSpec::builtin(SalesDriver::RevenueGrowth);
        let trained = train_driver(&spec, &engine, &web, &annotator, &config, |_| false);
        let drivers = [trained];

        let fresh = SyntheticWeb::generate(WebConfig {
            total_docs: 80,
            seed: 77,
            ..WebConfig::default()
        });
        let identifier = EventIdentifier::new(3);
        let sequential = identifier.identify(&drivers, fresh.docs());
        for t in [2usize, 4, 64] {
            let parallel = identifier.identify_parallel(&drivers, fresh.docs(), t);
            assert_eq!(sequential, parallel, "threads = {t}");
        }
        // Degenerate thread counts fall back gracefully.
        let one = identifier.identify_parallel(&drivers, fresh.docs(), 0);
        assert_eq!(sequential, one);
    }

    #[test]
    fn identifies_trigger_events_in_fresh_documents() {
        let web = SyntheticWeb::generate(WebConfig {
            total_docs: 900,
            ..WebConfig::default()
        });
        let engine = SearchEngine::build(web.docs());
        let annotator = Annotator::new();
        let config = TrainingConfig {
            top_docs_per_query: 80,
            negative_snippets: 2_000,
            pure_positives: 10,
            ..TrainingConfig::default()
        };
        let spec = DriverSpec::builtin(SalesDriver::ChangeInManagement);
        let trained = train_driver(&spec, &engine, &web, &annotator, &config, |_| false);

        // Fresh documents from a different seed.
        let fresh = SyntheticWeb::generate(WebConfig {
            total_docs: 120,
            seed: 999,
            ..WebConfig::default()
        });
        let identifier = EventIdentifier::new(3);
        let events = identifier.identify(&[trained], fresh.docs());
        assert!(!events.is_empty(), "should flag events in fresh docs");

        // Recall: most genuine CiM trigger documents get flagged.
        let trigger_docs: Vec<usize> = fresh
            .trigger_docs(SalesDriver::ChangeInManagement)
            .map(|d| d.id)
            .collect();
        let hit = trigger_docs
            .iter()
            .filter(|id| events.iter().any(|e| e.doc_id == **id))
            .count();
        assert!(
            hit * 10 >= trigger_docs.len() * 6,
            "recall {hit}/{}",
            trigger_docs.len()
        );

        // Leakage: non-business background documents should rarely fire
        // (other *business* docs firing is realistic — the paper's own
        // CiM precision is 0.66).
        let background = events
            .iter()
            .filter(|e| matches!(fresh.doc(e.doc_id).genre, etap_corpus::Genre::Background(_)))
            .count();
        assert!(
            background * 3 <= events.len(),
            "{background}/{} events from background docs",
            events.len()
        );

        // Scores are valid probabilities above the threshold.
        for e in &events {
            assert!(e.score >= 0.5 && e.score <= 1.0);
        }
    }
}
