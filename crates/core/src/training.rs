//! Training-data generation and classifier training (§3.3).
//!
//! The flow per sales driver:
//!
//! 1. **Smart-query harvest** (§3.3.1 step 1): issue the spec's queries
//!    against the search engine, keep the top-`k` documents per query
//!    (the paper gathered "the top 200 documents returned by the search
//!    engine Google for each query").
//! 2. **Snippet distillation** (step 2): split the fetched documents
//!    into `n = 3`-sentence snippets, annotate them, and keep only those
//!    passing the driver's NE-combination filter → the **noisy positive**
//!    set Pⁿ.
//! 3. **Negative class**: a large random sample of snippets from the
//!    whole web (the paper used "over 2 million randomly sampled
//!    snippets"; size is configurable here).
//! 4. **Pure positives** Pᵖ: a small hand-verified set. The paper's
//!    authors collected theirs manually from news sites; we simulate the
//!    manual collection by drawing snippets that provably contain a
//!    generated trigger sentence (ground truth the synthetic web carries
//!    with every document). They are oversampled ×3 during training.
//! 5. **De-noised training** (§3.3.2): the Brodley-style iterative loop
//!    from [`etap_classify::denoise`].

use crate::spec::DriverSpec;
use etap_annotate::{AnnotateScratch, AnnotatedSnippet, Annotator};
use etap_classify::denoise::{DenoiseConfig, IterativeDenoiser};
use etap_classify::{Classifier, MultinomialNb, Trainer};
use etap_corpus::{SearchEngine, SyntheticDoc, SyntheticWeb};
use etap_features::{
    AbstractionPolicy, FeatureWalk, ProbedWalk, SparseVec, TermIndex, VectorScratch, Vectorizer,
};
use etap_runtime::{Rng, Stage};
use etap_text::{SnippetGenerator, SnippetScratch};
use std::borrow::Cow;

/// Perf stages (no-ops unless `ETAP_PERF=1`; see `etap_runtime::perf`).
/// The scoring pair is split so a profile shows whether the hot loop is
/// feature extraction or the classifier dot-product.
static STAGE_VECTORIZE: Stage = Stage::new("score.vectorize");
static STAGE_POSTERIOR: Stage = Stage::new("score.posterior");
static STAGE_HARVEST: Stage = Stage::new("train.harvest");
static STAGE_NEGATIVES: Stage = Stage::new("train.negatives");
static STAGE_TRAIN_VECTORIZE: Stage = Stage::new("train.vectorize");
static STAGE_DENOISE: Stage = Stage::new("train.denoise");

/// Knobs of the training pipeline; defaults mirror the paper.
#[derive(Debug, Clone)]
pub struct TrainingConfig {
    /// Sentences per snippet (`n = 3` in §3.1).
    pub snippet_window: usize,
    /// Documents kept per smart query (200 in §5.1).
    pub top_docs_per_query: usize,
    /// Random negative snippets sampled from the web.
    pub negative_snippets: usize,
    /// Pure positive snippets to "hand-collect" from the web's ground
    /// truth (0 disables pure positives entirely).
    pub pure_positives: usize,
    /// De-noising loop configuration (2 iterations, ×3 oversample).
    pub denoise: DenoiseConfig,
    /// Feature-abstraction policy.
    pub policy: AbstractionPolicy,
    /// Emit word-bigram features ("definit_agreement") alongside
    /// unigrams. Off by default (the paper's model is unigram).
    pub bigrams: bool,
    /// Seed for negative sampling and pure-positive selection.
    pub seed: u64,
    /// Worker threads for harvest, sampling, vectorization and
    /// de-noising (`0` = the `ETAP_THREADS` default, `1` = sequential).
    /// Every trained artifact is bit-identical for any value — parallel
    /// stages use fixed-size chunks with per-chunk RNG streams and
    /// order-preserving merges (see etap-runtime).
    pub threads: usize,
}

impl Default for TrainingConfig {
    fn default() -> Self {
        Self {
            snippet_window: 3,
            top_docs_per_query: 200,
            negative_snippets: 6_000,
            pure_positives: 30,
            denoise: DenoiseConfig::default(),
            policy: AbstractionPolicy::paper_default(),
            bigrams: false,
            seed: 0x7EA9,
            threads: 0,
        }
    }
}

/// Statistics from one driver's harvest + training run.
#[derive(Debug, Clone)]
pub struct TrainingReport {
    /// Distinct documents fetched by the smart queries.
    pub docs_fetched: usize,
    /// Snippets considered by the filter.
    pub snippets_considered: usize,
    /// Snippets surviving the filter (|Pⁿ| before de-noising).
    pub noisy_positives: usize,
    /// |Pⁿ| after de-noising.
    pub retained_positives: usize,
    /// De-noising iterations run.
    pub iterations: usize,
}

/// A trained per-driver classifier with its frozen feature space.
/// `Clone` is cheap relative to training (the vocabulary and log
/// parameters copy; nothing re-fits) and is what lets the continuous
/// ingest loop derive prior-adapted variants without touching the
/// serving snapshot in place.
#[derive(Debug, Clone)]
pub struct TrainedDriver<M = etap_classify::nb::MultinomialNbModel> {
    /// The driver spec this model was trained for.
    pub spec: DriverSpec,
    /// Vectorizer whose vocabulary was frozen after training.
    pub vectorizer: Vectorizer,
    /// The trained classifier.
    pub model: M,
    /// Harvest/training statistics.
    pub report: TrainingReport,
    /// `[log P(positive), log P(negative)]` as the driver's `MODEL` file
    /// holds them, when `model` serves an adapted class prior instead;
    /// `None` when the file holds `model`'s own prior. A prior-only
    /// retrain thereby leaves the file's bytes unchanged.
    pub file_prior: Option<[f64; 2]>,
}

impl<M: Classifier> TrainedDriver<M> {
    /// Posterior probability that an annotated snippet is a trigger
    /// event for this driver: record the snippet's feature walk, look it
    /// up in this driver's frozen vocabulary, take the posterior.
    /// One-shot; a scan scores through [`DriverScorer`], which reuses
    /// its scratch per snippet and probes each feature once for all
    /// drivers, and gets the same bits.
    #[must_use]
    pub fn score(&self, snip: &AnnotatedSnippet) -> f64 {
        let (mut walk, mut scratch) = (FeatureWalk::new(), VectorScratch::new());
        let v = {
            let _t = STAGE_VECTORIZE.scope();
            self.vectorizer.record_walk(snip, &mut walk);
            self.vectorizer.lookup_walk(&walk, &mut scratch)
        };
        self.posterior(v)
    }

    /// The posterior of a looked-up vector: the one tail both scoring
    /// paths end in.
    fn posterior(&self, v: &SparseVec) -> f64 {
        let _t = STAGE_POSTERIOR.scope();
        self.model.posterior(v)
    }
}

/// How a set of drivers is scored together: the drivers grouped by how
/// they walk a snippet (equal abstraction policy and bigram setting —
/// for the shipped drivers, one group), and per group a [`TermIndex`]
/// over its members' vocabularies. It depends only on the drivers'
/// vectorizers, so it is built once where a system is assembled and
/// shared by every prior-adapted copy.
#[derive(Debug, Clone)]
pub(crate) struct ScoreIndex {
    /// One driver per walk group, whose vectorizer records the group's
    /// walk.
    leaders: Vec<usize>,
    /// Per driver: its walk group and its column in the group's index.
    slots: Vec<(usize, usize)>,
    /// Per walk group: term → every member's id.
    terms: Vec<TermIndex>,
}

impl ScoreIndex {
    /// Group `drivers` and index each group's vocabularies. `O(D²)`
    /// policy comparisons plus one pass over every vocabulary.
    pub(crate) fn new<M>(drivers: &[TrainedDriver<M>]) -> Self {
        let mut leaders: Vec<usize> = Vec::new();
        let mut members: Vec<Vec<&Vectorizer>> = Vec::new();
        let slots = drivers
            .iter()
            .enumerate()
            .map(|(i, d)| {
                let g = leaders
                    .iter()
                    .position(|&l| drivers[l].vectorizer.walks_like(&d.vectorizer))
                    .unwrap_or_else(|| {
                        leaders.push(i);
                        members.push(Vec::new());
                        leaders.len() - 1
                    });
                members[g].push(&d.vectorizer);
                (g, members[g].len() - 1)
            })
            .collect();
        let terms = members.iter().map(|m| TermIndex::new(m)).collect();
        Self {
            leaders,
            slots,
            terms,
        }
    }
}

/// Scores a snippet against every driver of a system with **one**
/// feature walk and **one** vocabulary probe per feature per group of
/// drivers that walk alike (for the shipped drivers, one group). The
/// walk — lowercasing, stop-word checks, stemming, policy lookups — is
/// the expensive, driver-independent part of scoring; the group's
/// [`TermIndex`] then finds every member's id for a feature in one
/// hash probe, and each driver gathers its ids and takes its posterior.
///
/// Every score is bit-identical to that driver's own
/// [`TrainedDriver::score`]: both record the walk the driver's own
/// vectorizer records, and a gathered column is exactly the driver's
/// own lookup — its ids, canonicalized in its own id order — so every
/// float sum runs in the same order.
#[derive(Debug)]
pub struct DriverScorer<'d, M> {
    drivers: &'d [TrainedDriver<M>],
    index: Cow<'d, ScoreIndex>,
}

/// Per-thread buffers for [`DriverScorer::score`]: one recorded walk
/// per walk group, the probed rows of the group being scored, the
/// gathered vector and the score row. Purely an allocation cache;
/// contents never influence results.
#[derive(Debug, Default, Clone)]
pub struct ScoreScratch {
    walks: Vec<FeatureWalk>,
    probed: ProbedWalk,
    vector: SparseVec,
    scores: Vec<f64>,
}

impl ScoreScratch {
    /// Fresh (empty) scratch.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl<'d, M: Classifier> DriverScorer<'d, M> {
    /// Group `drivers` by how they walk a snippet and index each
    /// group's vocabularies. A [`TrainedEtap`](crate::TrainedEtap)
    /// builds its index once when assembled and scans without this.
    #[must_use]
    pub fn new(drivers: &'d [TrainedDriver<M>]) -> Self {
        Self {
            drivers,
            index: Cow::Owned(ScoreIndex::new(drivers)),
        }
    }

    /// A scorer over an index built from these same drivers (or from
    /// copies with the same vectorizers).
    pub(crate) fn with_index(drivers: &'d [TrainedDriver<M>], index: &'d ScoreIndex) -> Self {
        assert_eq!(
            index.slots.len(),
            drivers.len(),
            "index built for other drivers"
        );
        Self {
            drivers,
            index: Cow::Borrowed(index),
        }
    }

    /// The drivers this scorer scores, in order.
    #[must_use]
    pub fn drivers(&self) -> &'d [TrainedDriver<M>] {
        self.drivers
    }

    /// Number of distinct feature walks one snippet costs.
    #[must_use]
    pub fn walks(&self) -> usize {
        self.index.leaders.len()
    }

    /// Score `snip` against every driver: entry `i` is exactly
    /// `drivers[i].score(snip)`. Allocation-free once `scratch` is
    /// warm.
    pub fn score<'s>(&self, snip: &AnnotatedSnippet, scratch: &'s mut ScoreScratch) -> &'s [f64] {
        let ScoreScratch {
            walks,
            probed,
            vector,
            scores,
        } = scratch;
        let index = &*self.index;
        if walks.len() < index.leaders.len() {
            walks.resize_with(index.leaders.len(), FeatureWalk::new);
        }
        {
            let _t = STAGE_VECTORIZE.scope();
            for (walk, &l) in walks.iter_mut().zip(&index.leaders) {
                self.drivers[l].vectorizer.record_walk(snip, walk);
            }
        }
        scores.clear();
        scores.resize(self.drivers.len(), 0.0);
        for (g, (terms, walk)) in index.terms.iter().zip(walks.iter()).enumerate() {
            {
                let _t = STAGE_VECTORIZE.scope();
                terms.probe(walk, probed);
            }
            for (i, &(_, col)) in index.slots.iter().enumerate().filter(|(_, s)| s.0 == g) {
                let v = {
                    let _t = STAGE_VECTORIZE.scope();
                    terms.gather(probed, col, vector)
                };
                scores[i] = self.drivers[i].posterior(v);
            }
        }
        scores
    }
}

impl TrainedDriver<etap_classify::nb::MultinomialNbModel> {
    /// Online prior adaptation (the watch loop's incremental-retrain
    /// primitive): blend the freshly observed trigger rate into the
    /// model's class prior, `p' = (1 − blend)·p + blend·rate`, leaving
    /// the likelihoods untouched. Stored models keep only log
    /// parameters, so base-rate drift — the paper's daily-alert setting,
    /// where event frequency shifts day to day — is the part of the
    /// model that *can* be updated without refolding training counts.
    /// The driver's `MODEL` file keeps the prior it held
    /// ([`file_prior`](Self::file_prior)), so its bytes do not change.
    #[must_use]
    pub fn with_adapted_prior(&self, observed_rate: f64, blend: f64) -> Self {
        let blend = blend.clamp(0.0, 1.0);
        let old = self.model.prior_positive();
        let adapted = (1.0 - blend) * old + blend * observed_rate.clamp(0.0, 1.0);
        Self {
            model: self.model.with_prior_positive(adapted),
            file_prior: Some(self.file_prior()),
            ..self.clone()
        }
    }

    /// The driver serving `log_prior` bit for bit, while its `MODEL`
    /// file keeps the prior it holds (how a stored adapted prior is
    /// restored).
    #[must_use]
    pub fn with_served_prior(self, log_prior: [f64; 2]) -> Self {
        Self {
            file_prior: Some(self.file_prior()),
            model: self.model.with_log_prior(log_prior),
            ..self
        }
    }

    /// `[log P(positive), log P(negative)]` as the driver's `MODEL` file
    /// holds them: the prior it was trained or loaded with, whatever
    /// prior it serves.
    #[must_use]
    pub fn file_prior(&self) -> [f64; 2] {
        self.file_prior.unwrap_or(*self.model.parts().1)
    }
}

/// Harvested training material for one driver, before vectorization.
#[derive(Debug)]
pub struct Harvest {
    /// Annotated noisy-positive snippets (passed the filter).
    pub noisy: Vec<AnnotatedSnippet>,
    /// Raw texts of the noisy positives (for display / debugging).
    pub noisy_texts: Vec<String>,
    /// Distinct documents fetched.
    pub docs_fetched: usize,
    /// Snippets considered.
    pub snippets_considered: usize,
}

/// Per-worker buffers for reading documents snippet by snippet: the
/// document text, its sentences, the current snippet's text and a
/// feature walk are reused, so only what a caller keeps is copied out.
#[derive(Debug, Default)]
struct DocScratch {
    text: String,
    snippets: SnippetScratch,
    annotate: AnnotateScratch,
    walk: FeatureWalk,
}

impl DocScratch {
    /// Load `doc` and split it; returns its snippet count.
    fn split(&mut self, snipgen: &SnippetGenerator, doc: &SyntheticDoc) -> usize {
        doc.text_into(&mut self.text);
        snipgen.split(&self.text, &mut self.snippets)
    }

    /// Snippet `k` of the loaded document: its text and annotation.
    fn annotate(
        &mut self,
        snipgen: &SnippetGenerator,
        annotator: &Annotator,
        k: usize,
    ) -> (&str, AnnotatedSnippet) {
        let text = snipgen.snippet_text(&self.text, k, &mut self.snippets);
        (text, annotator.annotate_with(text, &mut self.annotate))
    }
}

/// Run the smart-query harvest (§3.3.1) for one driver.
#[must_use]
pub fn harvest_noisy_positives(
    spec: &DriverSpec,
    engine: &SearchEngine,
    web: &SyntheticWeb,
    annotator: &Annotator,
    config: &TrainingConfig,
) -> Harvest {
    let snipgen = SnippetGenerator::new(config.snippet_window);
    let mut doc_ids: Vec<usize> = Vec::new();
    for query in &spec.smart_queries {
        for hit in engine.search(query, config.top_docs_per_query) {
            doc_ids.push(hit.doc_id);
        }
    }
    doc_ids.sort_unstable();
    doc_ids.dedup();

    // Distill + annotate + filter each document independently in
    // parallel; the ordered merge makes the harvest identical to the
    // sequential document loop for any thread count.
    let per_doc =
        etap_runtime::par_map_with(&doc_ids, config.threads, DocScratch::default, |sc, &id| {
            let considered = sc.split(&snipgen, web.doc(id));
            let mut kept: Vec<(AnnotatedSnippet, String)> = Vec::new();
            for k in 0..considered {
                let (text, ann) = sc.annotate(&snipgen, annotator, k);
                if spec.snippet_filter.matches(&ann) {
                    kept.push((ann, text.to_owned()));
                }
            }
            (considered, kept)
        });

    let mut noisy = Vec::new();
    let mut noisy_texts = Vec::new();
    let mut considered = 0usize;
    for (doc_considered, kept) in per_doc {
        considered += doc_considered;
        for (ann, text) in kept {
            noisy.push(ann);
            noisy_texts.push(text);
        }
    }
    Harvest {
        noisy,
        noisy_texts,
        docs_fetched: doc_ids.len(),
        snippets_considered: considered,
    }
}

/// Simulate the manual collection of pure positives: snippets from the
/// web's trigger documents that contain a full trigger sentence for the
/// driver. `exclude_doc` lets evaluation keep its test documents out of
/// training.
#[must_use]
pub fn collect_pure_positives(
    spec: &DriverSpec,
    web: &SyntheticWeb,
    annotator: &Annotator,
    config: &TrainingConfig,
    exclude_doc: impl Fn(usize) -> bool,
) -> Vec<AnnotatedSnippet> {
    let snipgen = SnippetGenerator::new(config.snippet_window);
    let mut rng = Rng::seed_from_u64(config.seed ^ 0xA11CE);
    let docs: Vec<_> = web
        .trigger_docs(spec.driver)
        .filter(|doc| !exclude_doc(doc.id))
        .collect();
    // Annotate each candidate document's trigger snippets in parallel;
    // the ordered merge keeps the pool in document order, so the
    // RNG subsample below sees the exact sequential pool.
    let per_doc =
        etap_runtime::par_map_with(&docs, config.threads, DocScratch::default, |sc, doc| {
            let mut kept: Vec<AnnotatedSnippet> = Vec::new();
            for k in 0..sc.split(&snipgen, doc) {
                let text = snipgen.snippet_text(&sc.text, k, &mut sc.snippets);
                if doc
                    .trigger_sentences
                    .iter()
                    .any(|t| text.contains(t.as_str()))
                {
                    kept.push(sc.annotate(&snipgen, annotator, k).1);
                }
            }
            kept
        });
    let mut pool: Vec<AnnotatedSnippet> = per_doc.into_iter().flatten().collect();
    // Uniformly subsample to the requested size.
    while pool.len() > config.pure_positives {
        let i = rng.gen_range(0..pool.len());
        pool.swap_remove(i);
    }
    pool
}

/// Negatives drawn per independent RNG stream in [`sample_negatives`].
/// Fixed (never derived from the thread count) so the sampled set is
/// identical for any `threads` value.
const NEGATIVE_CHUNK: usize = 256;

/// Sample the random negative class from the whole web.
///
/// Sampling is chunked: chunk `i` draws up to `NEGATIVE_CHUNK`
/// snippets from its own RNG stream (`Rng::stream(seed ^ mask, i)`),
/// chunks run on up to `config.threads` workers, and the ordered merge
/// concatenates them. The resulting set is bit-identical for any thread
/// count, including the sequential `threads = 1` path.
#[must_use]
pub fn sample_negatives(
    web: &SyntheticWeb,
    annotator: &Annotator,
    config: &TrainingConfig,
    exclude_doc: impl Fn(usize) -> bool + Sync,
) -> Vec<AnnotatedSnippet> {
    sample_negatives_into(web, annotator, config, exclude_doc, |_, ann| ann)
}

/// [`sample_negatives`], handing each negative to `keep` — with the
/// worker's walk buffer — the moment it is annotated, so a caller that
/// keeps only a digest of each snippet never holds the annotated pool.
fn sample_negatives_into<U: Send>(
    web: &SyntheticWeb,
    annotator: &Annotator,
    config: &TrainingConfig,
    exclude_doc: impl Fn(usize) -> bool + Sync,
    keep: impl Fn(&mut FeatureWalk, AnnotatedSnippet) -> U + Sync,
) -> Vec<U> {
    let target = config.negative_snippets;
    if target == 0 || web.is_empty() {
        return Vec::new();
    }
    let snipgen = SnippetGenerator::new(config.snippet_window);
    let seed = config.seed ^ 0x9E6A71;
    let n_chunks = target.div_ceil(NEGATIVE_CHUNK);
    let chunks = etap_runtime::par::par_chunk_map_with(
        n_chunks,
        config.threads,
        DocScratch::default,
        |sc, ci| {
            let mut rng = Rng::stream(seed, ci as u64);
            let want = NEGATIVE_CHUNK.min(target - ci * NEGATIVE_CHUNK);
            let mut out = Vec::with_capacity(want);
            // Rejection sampling with a per-chunk attempt guard so a web of
            // mostly-excluded documents terminates (matching the old global
            // `target * 20` guard proportionally).
            let mut guard = 0usize;
            while out.len() < want && guard < want * 20 {
                guard += 1;
                let id = rng.gen_range(0..web.len());
                if exclude_doc(id) {
                    continue;
                }
                let n = sc.split(&snipgen, web.doc(id));
                if n == 0 {
                    continue;
                }
                let pick = rng.gen_range(0..n);
                let ann = sc.annotate(&snipgen, annotator, pick).1;
                out.push(keep(&mut sc.walk, ann));
            }
            out
        },
    );
    chunks.into_iter().flatten().collect()
}

/// Train one driver end to end with an arbitrary classifier family.
pub fn train_driver_with<T: Trainer>(
    trainer: &T,
    spec: &DriverSpec,
    engine: &SearchEngine,
    web: &SyntheticWeb,
    annotator: &Annotator,
    config: &TrainingConfig,
    exclude_doc: impl Fn(usize) -> bool + Copy + Sync,
) -> TrainedDriver<T::Model>
where
    T::Model: Sync,
{
    let negatives = negative_pool(web, annotator, config, exclude_doc);
    train_on_negatives(
        trainer,
        spec,
        engine,
        web,
        annotator,
        config,
        exclude_doc,
        &negatives,
    )
}

/// A fresh vectorizer under `config`'s policy and bigram setting.
fn new_vectorizer(config: &TrainingConfig) -> Vectorizer {
    Vectorizer::new(config.policy.clone()).with_bigrams(config.bigrams)
}

/// The negative pool as every driver trained under `config` reads it:
/// sampled, annotated and feature-walked once. The pool depends only on
/// the web, the seed, `exclude_doc` and the walk settings — never on
/// the driver — so every driver of a system can share it. Each
/// annotation is dropped as soon as it is walked, so the annotator's
/// arena recycles one buffer instead of holding the whole pool.
fn negative_pool(
    web: &SyntheticWeb,
    annotator: &Annotator,
    config: &TrainingConfig,
    exclude_doc: impl Fn(usize) -> bool + Sync,
) -> Vec<FeatureWalk> {
    let vectorizer = new_vectorizer(config);
    let _t = STAGE_NEGATIVES.scope();
    sample_negatives_into(web, annotator, config, exclude_doc, |walk, ann| {
        vectorizer.record_walk(&ann, walk);
        walk.clone()
    })
}

/// Train one driver against an already walked negative pool (see
/// [`negative_pool`]).
#[allow(clippy::too_many_arguments)]
fn train_on_negatives<T: Trainer>(
    trainer: &T,
    spec: &DriverSpec,
    engine: &SearchEngine,
    web: &SyntheticWeb,
    annotator: &Annotator,
    config: &TrainingConfig,
    exclude_doc: impl Fn(usize) -> bool + Copy + Sync,
    negatives: &[FeatureWalk],
) -> TrainedDriver<T::Model>
where
    T::Model: Sync,
{
    let (harvest, pure) = {
        let _t = STAGE_HARVEST.scope();
        let harvest = harvest_noisy_positives(spec, engine, web, annotator, config);
        let pure = collect_pure_positives(spec, web, annotator, config, exclude_doc);
        (harvest, pure)
    };

    // Batch vectorization: feature extraction fans out, interning stays
    // sequential in snippet order, so the vocabulary's dense id
    // assignment is identical to the one-by-one loop. Each driver
    // interns the shared negative pool into its own vocabulary.
    let mut vectorizer = new_vectorizer(config);
    let (noisy_vecs, pure_vecs, neg_vecs): (Vec<SparseVec>, Vec<SparseVec>, Vec<SparseVec>) = {
        let _t = STAGE_TRAIN_VECTORIZE.scope();
        let noisy = vectorizer.vectorize_batch(&harvest.noisy, config.threads);
        let pure_v = vectorizer.vectorize_batch(&pure, config.threads);
        let neg = vectorizer.vectorize_walks(negatives, config.threads);
        vectorizer.freeze();
        (noisy, pure_v, neg)
    };

    let denoiser = IterativeDenoiser {
        config: config.denoise,
        threads: config.threads,
    };
    let outcome = {
        let _t = STAGE_DENOISE.scope();
        denoiser.run(trainer, &noisy_vecs, &pure_vecs, &neg_vecs)
    };
    let report = TrainingReport {
        docs_fetched: harvest.docs_fetched,
        snippets_considered: harvest.snippets_considered,
        noisy_positives: noisy_vecs.len(),
        retained_positives: outcome.retained.len(),
        iterations: outcome.iterations(),
    };

    TrainedDriver {
        spec: spec.clone(),
        vectorizer,
        model: outcome.model,
        report,
        file_prior: None,
    }
}

/// Train one driver with the paper's classifier (multinomial NB).
pub fn train_driver(
    spec: &DriverSpec,
    engine: &SearchEngine,
    web: &SyntheticWeb,
    annotator: &Annotator,
    config: &TrainingConfig,
    exclude_doc: impl Fn(usize) -> bool + Copy + Sync,
) -> TrainedDriver {
    train_driver_with(
        &MultinomialNb::new(),
        spec,
        engine,
        web,
        annotator,
        config,
        exclude_doc,
    )
}

/// Train every driver of `specs` with the paper's classifier, sampling,
/// annotating and feature-walking the random negative class **once**
/// for all of them (§3.3: the negative class is a random web sample,
/// the same whatever the driver). Driver `i` of the result is
/// byte-identical to `train_driver(&specs[i], …)`: each driver still
/// interns the pool into its own vocabulary, in its own first-seen
/// order.
pub fn train_drivers(
    specs: &[DriverSpec],
    engine: &SearchEngine,
    web: &SyntheticWeb,
    annotator: &Annotator,
    config: &TrainingConfig,
    exclude_doc: impl Fn(usize) -> bool + Copy + Sync,
) -> Vec<TrainedDriver> {
    if specs.is_empty() {
        return Vec::new();
    }
    let negatives = negative_pool(web, annotator, config, exclude_doc);
    let trainer = MultinomialNb::new();
    specs
        .iter()
        .map(|spec| {
            train_on_negatives(
                &trainer,
                spec,
                engine,
                web,
                annotator,
                config,
                exclude_doc,
                &negatives,
            )
        })
        .collect()
}

/// Build the paper's evaluation test set for a list of drivers: for each
/// driver, `per_driver` snippets containing a genuine trigger sentence
/// (drawn from documents satisfying `include_doc`), plus `background`
/// snippets from non-trigger documents shared across drivers.
///
/// Returns `(driver_positive_snippets, background_snippets)` as raw
/// texts; §5.1's test set was "72 instances of true positives for
/// mergers & acquisitions …, 56 … for change in management and 2265
/// snippets that did not belong to either".
#[must_use]
pub fn build_test_set(
    web: &SyntheticWeb,
    drivers: &[etap_corpus::SalesDriver],
    per_driver: &[usize],
    background: usize,
    window: usize,
    seed: u64,
    include_doc: impl Fn(usize) -> bool,
) -> (Vec<Vec<String>>, Vec<String>) {
    assert_eq!(drivers.len(), per_driver.len());
    let snipgen = SnippetGenerator::new(window);
    let mut rng = Rng::seed_from_u64(seed);

    let mut positives: Vec<Vec<String>> = Vec::with_capacity(drivers.len());
    for (&driver, &want) in drivers.iter().zip(per_driver) {
        let mut pool: Vec<String> = Vec::new();
        for doc in web.trigger_docs(driver) {
            if !include_doc(doc.id) {
                continue;
            }
            let text = doc.text();
            for snip in snipgen.snippets(&text) {
                if doc
                    .trigger_sentences
                    .iter()
                    .any(|t| snip.text.contains(t.as_str()))
                {
                    pool.push(snip.text);
                }
            }
        }
        while pool.len() > want {
            let i = rng.gen_range(0..pool.len());
            pool.swap_remove(i);
        }
        positives.push(pool);
    }

    let mut bg: Vec<String> = Vec::new();
    let mut guard = 0usize;
    while bg.len() < background && guard < background * 30 {
        guard += 1;
        let id = rng.gen_range(0..web.len());
        if !include_doc(id) {
            continue;
        }
        let doc = web.doc(id);
        if doc.trigger_driver().is_some() {
            continue;
        }
        let text = doc.text();
        let snippets = snipgen.snippets(&text);
        if snippets.is_empty() {
            continue;
        }
        let pick = rng.gen_range(0..snippets.len());
        bg.push(snippets[pick].text.clone());
    }
    (positives, bg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use etap_corpus::{SalesDriver, WebConfig};

    fn small_web() -> SyntheticWeb {
        SyntheticWeb::generate(WebConfig {
            total_docs: 600,
            ..WebConfig::default()
        })
    }

    #[test]
    fn harvest_produces_mostly_relevant_snippets() {
        let web = small_web();
        let engine = SearchEngine::build(web.docs());
        let annotator = Annotator::new();
        let config = TrainingConfig {
            top_docs_per_query: 50,
            ..TrainingConfig::default()
        };
        let spec = DriverSpec::builtin(SalesDriver::ChangeInManagement);
        let h = harvest_noisy_positives(&spec, &engine, &web, &annotator, &config);
        assert!(h.docs_fetched > 0);
        assert!(h.noisy.len() > 5, "noisy positives: {}", h.noisy.len());
        assert!(h.noisy.len() <= h.snippets_considered);
        assert_eq!(h.noisy.len(), h.noisy_texts.len());
    }

    #[test]
    fn pure_positives_respect_exclusion_and_cap() {
        let web = small_web();
        let annotator = Annotator::new();
        let config = TrainingConfig {
            pure_positives: 5,
            ..TrainingConfig::default()
        };
        let spec = DriverSpec::builtin(SalesDriver::MergersAcquisitions);
        let all = collect_pure_positives(&spec, &web, &annotator, &config, |_| false);
        assert!(all.len() <= 5);
        let none = collect_pure_positives(&spec, &web, &annotator, &config, |_| true);
        assert!(none.is_empty());
    }

    #[test]
    fn negatives_sampled_to_size() {
        let web = small_web();
        let annotator = Annotator::new();
        let config = TrainingConfig {
            negative_snippets: 100,
            ..TrainingConfig::default()
        };
        let negs = sample_negatives(&web, &annotator, &config, |_| false);
        assert_eq!(negs.len(), 100);
    }

    #[test]
    fn end_to_end_training_separates_classes() {
        let web = small_web();
        let engine = SearchEngine::build(web.docs());
        let annotator = Annotator::new();
        let config = TrainingConfig {
            top_docs_per_query: 60,
            negative_snippets: 600,
            pure_positives: 10,
            ..TrainingConfig::default()
        };
        let spec = DriverSpec::builtin(SalesDriver::ChangeInManagement);
        let trained = train_driver(&spec, &engine, &web, &annotator, &config, |_| false);
        assert!(trained.report.noisy_positives > 0);

        let pos = annotator.annotate("Oracle named James Wilson as its new CEO.");
        let neg = annotator.annotate("Heavy rain is expected across the region this weekend.");
        let sp = trained.score(&pos);
        let sn = trained.score(&neg);
        assert!(sp > 0.5, "positive snippet scored {sp}");
        assert!(sn < 0.5, "background snippet scored {sn}");
    }

    #[test]
    fn test_set_respects_sizes() {
        let web = small_web();
        let (pos, bg) = build_test_set(
            &web,
            &[
                SalesDriver::MergersAcquisitions,
                SalesDriver::ChangeInManagement,
            ],
            &[10, 8],
            100,
            3,
            7,
            |_| true,
        );
        assert_eq!(pos.len(), 2);
        assert!(pos[0].len() <= 10);
        assert!(pos[1].len() <= 8);
        assert_eq!(bg.len(), 100);
    }
}
