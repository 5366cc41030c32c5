//! **Ablation A5** — injected label noise vs de-noising head-room.
//!
//! How much mislabeled data can the §3.3.2 loop absorb? We corrupt the
//! noisy-positive harvest with `r × |Pⁿ|` random background snippets
//! (guaranteed false positives) and train (a) without de-noising and
//! (b) with the paper's two iterations.
//!
//! ```sh
//! cargo run --release -p etap-bench --bin ablation_noise
//! ```

use etap::training::{collect_pure_positives, harvest_noisy_positives, sample_negatives};
use etap::{DriverSpec, SalesDriver};
use etap_annotate::Annotator;
use etap_bench::{
    evaluate_driver, is_test_doc, paper_test_set, paper_training_config, standard_web,
};
use etap_classify::denoise::{DenoiseConfig, IterativeDenoiser};
use etap_classify::MultinomialNb;
use etap_corpus::SearchEngine;
use etap_features::{SparseVec, Vectorizer};

fn main() {
    println!("== Ablation A5: injected harvest noise vs de-noising (CiM driver) ==\n");
    let web = standard_web();
    let engine = SearchEngine::build(web.docs());
    let annotator = Annotator::new();
    let config = paper_training_config(&web);
    let spec = DriverSpec::builtin(SalesDriver::ChangeInManagement);
    let (positives, background) = paper_test_set(&web);

    let harvest = harvest_noisy_positives(&spec, &engine, &web, &annotator, &config);
    let pure = collect_pure_positives(&spec, &web, &annotator, &config, is_test_doc);
    let negatives = sample_negatives(&web, &annotator, &config, is_test_doc);
    // An extra pool of random snippets to corrupt the harvest with.
    let corruption_pool = sample_negatives(
        &web,
        &annotator,
        &etap::TrainingConfig {
            seed: config.seed ^ 0xC0FFEE,
            negative_snippets: harvest.noisy.len() * 2,
            ..config.clone()
        },
        is_test_doc,
    );

    println!(
        "| {:>5} | {:^23} | {:^23} | kept |",
        "noise", "no de-noise  P/R/F1", "2 iterations  P/R/F1"
    );
    println!("|-------|{}|{}|------|", "-".repeat(25), "-".repeat(25));
    for ratio in [0.0f64, 0.25, 0.5, 1.0, 2.0] {
        let extra = ((harvest.noisy.len() as f64) * ratio) as usize;
        let mut vectorizer = Vectorizer::new(config.policy.clone());
        let mut noisy: Vec<SparseVec> = harvest
            .noisy
            .iter()
            .map(|s| vectorizer.vectorize(s))
            .collect();
        noisy.extend(
            corruption_pool
                .iter()
                .take(extra)
                .map(|s| vectorizer.vectorize(s)),
        );
        let pure_vecs: Vec<SparseVec> = pure.iter().map(|s| vectorizer.vectorize(s)).collect();
        let neg_vecs: Vec<SparseVec> = negatives.iter().map(|s| vectorizer.vectorize(s)).collect();
        vectorizer.freeze();

        let run = |iters: usize| {
            let denoiser = IterativeDenoiser {
                config: DenoiseConfig {
                    max_iterations: iters,
                    stability_threshold: 0.0,
                    ..DenoiseConfig::default()
                },
                threads: 0,
            };
            let outcome = denoiser.run(&MultinomialNb::new(), &noisy, &pure_vecs, &neg_vecs);
            let report = etap::TrainingReport {
                docs_fetched: 0,
                snippets_considered: 0,
                noisy_positives: noisy.len(),
                retained_positives: outcome.retained.len(),
                iterations: outcome.iterations(),
            };
            let trained = etap::TrainedDriver {
                spec: spec.clone(),
                vectorizer: vectorizer.clone(),
                model: outcome.model,
                report,
                file_prior: None,
            };
            let prf = evaluate_driver(
                &trained,
                &annotator,
                &positives[1],
                &[positives[0].as_slice(), background.as_slice()],
            );
            (prf, outcome.retained.len())
        };
        let (raw, _) = run(0);
        let (cleaned, kept) = run(2);
        println!(
            "| {ratio:>5.2} | {:>5.3} / {:>5.3} / {:>5.3} | {:>5.3} / {:>5.3} / {:>5.3} | {kept:>4} |",
            raw.precision, raw.recall, raw.f1, cleaned.precision, cleaned.recall, cleaned.f1
        );
    }
    println!(
        "\nObserved shape: naive Bayes absorbs *random-background* label noise gracefully \
         (the corrupt snippets' vocabulary barely overlaps the event vocabulary, so the \
         model outvotes them) and the loop's removals track the injected noise (see the \
         kept column). The de-noising loop earns its keep on *correlated* noise — the \
         distractor snippets inside the real harvest — which is what the A2 iteration \
         sweep measures (M&A precision rises with each early iteration)."
    );
}
