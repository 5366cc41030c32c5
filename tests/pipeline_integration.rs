//! Cross-crate integration tests: the full ETAP pipeline assembled from
//! every workspace crate, exercised end to end on a small synthetic web.

use etap_repro::annotate::Annotator;
use etap_repro::classify::Classifier;
use etap_repro::corpus::SearchEngine;
use etap_repro::system::training::{self, TrainingConfig};
use etap_repro::system::{rank, EventIdentifier};
use etap_repro::{DriverSpec, Etap, EtapConfig, SalesDriver, SyntheticWeb, WebConfig};

fn small_web(seed: u64) -> SyntheticWeb {
    SyntheticWeb::generate(WebConfig {
        total_docs: 700,
        seed,
        ..WebConfig::default()
    })
}

fn quick_config() -> TrainingConfig {
    TrainingConfig {
        top_docs_per_query: 60,
        negative_snippets: 800,
        pure_positives: 10,
        ..TrainingConfig::default()
    }
}

#[test]
fn train_identify_rank_roundtrip() {
    let web = small_web(0xE7A9);
    let mut config = EtapConfig::paper();
    config.training = quick_config();
    config.drivers = vec![
        DriverSpec::builtin(SalesDriver::MergersAcquisitions),
        DriverSpec::builtin(SalesDriver::RevenueGrowth),
    ];
    let trained = Etap::new(config).train(&web);

    let fresh = small_web(0x12345);
    let events = trained.identify_events_parallel(fresh.docs(), 0);
    assert!(!events.is_empty());

    // Ranking is a permutation of the events.
    let ranked = rank::rank_by_score(events.clone());
    assert_eq!(ranked.len(), events.len());
    for w in ranked.windows(2) {
        assert!(w[0].score >= w[1].score);
    }

    // Company aggregation produces finite scores in (0, 1].
    let companies = rank::rank_companies(&events);
    for c in &companies {
        assert!(c.mrr > 0.0 && c.mrr <= 1.0, "{c:?}");
        assert!(c.events >= 1);
    }
    // Sorted descending by MRR.
    for w in companies.windows(2) {
        assert!(w[0].mrr >= w[1].mrr);
    }
}

#[test]
fn trained_driver_is_deterministic() {
    let web = small_web(7);
    let engine = SearchEngine::build(web.docs());
    let annotator = Annotator::new();
    let config = quick_config();
    let spec = DriverSpec::builtin(SalesDriver::ChangeInManagement);
    let a = training::train_driver(&spec, &engine, &web, &annotator, &config, |_| false);
    let b = training::train_driver(&spec, &engine, &web, &annotator, &config, |_| false);
    let probe = annotator.annotate("Acme Corp named Jane Roe as its new CEO on Monday.");
    assert_eq!(a.score(&probe), b.score(&probe));
    assert_eq!(a.report.noisy_positives, b.report.noisy_positives);
}

#[test]
fn exclusion_keeps_test_docs_out_of_training() {
    let web = small_web(11);
    let engine = SearchEngine::build(web.docs());
    let annotator = Annotator::new();
    let config = quick_config();
    let spec = DriverSpec::builtin(SalesDriver::RevenueGrowth);
    // Excluding everything leaves no pure positives and no negatives —
    // the pipeline should still not panic (empty sets are legal).
    let trained = training::train_driver(&spec, &engine, &web, &annotator, &config, |_| true);
    assert_eq!(
        trained.report.retained_positives,
        trained.report.noisy_positives
    );
}

#[test]
fn event_scores_are_probabilities_and_companies_extracted() {
    let web = small_web(21);
    let engine = SearchEngine::build(web.docs());
    let annotator = Annotator::new();
    let config = quick_config();
    let spec = DriverSpec::builtin(SalesDriver::MergersAcquisitions);
    let trained = training::train_driver(&spec, &engine, &web, &annotator, &config, |_| false);

    let fresh = small_web(22);
    let identifier = EventIdentifier::new(3);
    let events = identifier.identify(&[trained], fresh.docs(), 0);
    assert!(!events.is_empty());
    let mut with_companies = 0;
    for e in &events {
        assert!((0.5..=1.0).contains(&e.score));
        assert_eq!(e.driver, SalesDriver::MergersAcquisitions);
        assert!(e.url.starts_with("http://"));
        if !e.companies.is_empty() {
            with_companies += 1;
        }
    }
    // The vast majority of M&A events should name at least one company.
    assert!(with_companies * 10 >= events.len() * 8);
}

#[test]
fn score_snippet_agrees_with_model_posterior() {
    let web = small_web(31);
    let mut config = EtapConfig::paper();
    config.training = quick_config();
    config.drivers = vec![DriverSpec::builtin(SalesDriver::RevenueGrowth)];
    let trained = Etap::new(config).train(&web);

    let text = "Oracle posted record revenue of $900 million for fiscal 2005.";
    let via_system = trained
        .score_snippet(SalesDriver::RevenueGrowth, text)
        .unwrap();
    let driver = trained.driver(SalesDriver::RevenueGrowth).unwrap();
    let annotator = Annotator::new();
    let ann = annotator.annotate(text);
    let mut vz = driver.vectorizer.clone();
    let via_model = driver.model.posterior(&vz.vectorize(&ann));
    assert!((via_system - via_model).abs() < 1e-12);
}

#[test]
fn unknown_driver_scores_none() {
    let web = small_web(41);
    let mut config = EtapConfig::paper();
    config.training = quick_config();
    config.drivers = vec![DriverSpec::builtin(SalesDriver::RevenueGrowth)];
    let trained = Etap::new(config).train(&web);
    assert!(trained
        .score_snippet(SalesDriver::MergersAcquisitions, "IBM acquired Daksh.")
        .is_none());
}
