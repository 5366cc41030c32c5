//! Fused multi-driver scoring is bit-identical to per-driver scoring.
//!
//! [`DriverScorer`] walks each snippet's features once per group of
//! drivers that walk alike and lets every driver look the recording up
//! in its own vocabulary. Over seeded snippets — real ones from a fresh
//! crawl and shuffled word salads drawn from them — every fused score
//! must equal that driver's own `score_with` under `to_bits`, for the
//! five shipped drivers, a mixed set spanning three walk groups, one
//! driver alone and no drivers at all. The scan built on it must flag
//! exactly the events a naive snippet-by-snippet, driver-by-driver loop
//! flags.

use etap::training::{train_drivers, DriverScorer, ScoreScratch, TrainedDriver, TrainingConfig};
use etap::{driverfile, DriverSet, DriverSpec, EventIdentifier, SalesDriver, TriggerEvent};
use etap_annotate::{AnnotatedSnippet, Annotator, EntityCategory};
use etap_corpus::{SearchEngine, SyntheticWeb, WebConfig};
use etap_features::{AbstractionPolicy, VectorScratch};
use etap_runtime::Rng;
use etap_text::SnippetGenerator;
use std::sync::OnceLock;

struct Fixture {
    annotator: Annotator,
    /// The five shipped drivers: 3 builtin + `drivers/extra.drivers`.
    shipped: Vec<TrainedDriver>,
    /// Paper policy, bag-of-words policy, paper policy with bigrams.
    mixed: Vec<TrainedDriver>,
    snippets: Vec<AnnotatedSnippet>,
    fresh: SyntheticWeb,
}

fn config() -> TrainingConfig {
    TrainingConfig {
        top_docs_per_query: 40,
        negative_snippets: 500,
        pure_positives: 10,
        ..TrainingConfig::default()
    }
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut specs = DriverSpec::all_builtin();
        specs.extend(
            driverfile::load_str(include_str!("../../../drivers/extra.drivers"))
                .expect("parse drivers/extra.drivers"),
        );
        let web = SyntheticWeb::generate(WebConfig {
            total_docs: 500,
            seed: 0x5C0_4E,
            drivers: DriverSet::all_registered(),
            ..WebConfig::default()
        });
        let engine = SearchEngine::build(web.docs());
        let annotator = Annotator::new();
        let shipped = train_drivers(&specs, &engine, &web, &annotator, &config(), |_| false);

        let train_one = |driver: SalesDriver, config: TrainingConfig| {
            let spec = DriverSpec::builtin(driver);
            train_drivers(&[spec], &engine, &web, &annotator, &config, |_| false).remove(0)
        };
        let mixed = vec![
            shipped[1].clone(),
            train_one(
                SalesDriver::MergersAcquisitions,
                TrainingConfig {
                    policy: AbstractionPolicy::bag_of_words(),
                    ..config()
                },
            ),
            shipped[3].clone(),
            train_one(
                SalesDriver::RevenueGrowth,
                TrainingConfig {
                    bigrams: true,
                    ..config()
                },
            ),
        ];

        let fresh = SyntheticWeb::generate(WebConfig {
            total_docs: 80,
            seed: 0xF4E5,
            drivers: DriverSet::all_registered(),
            ..WebConfig::default()
        });
        let snipgen = SnippetGenerator::new(3);
        let texts: Vec<String> = fresh
            .docs()
            .iter()
            .flat_map(|d| snipgen.snippets(&d.text()))
            .map(|s| s.text)
            .collect();
        // Word salads: seeded shuffles of words across real snippets, so
        // feature combinations no document produces get scored too.
        let words: Vec<&str> = texts.iter().flat_map(|t| t.split_whitespace()).collect();
        let mut rng = Rng::seed_from_u64(0xBA5E);
        let salads: Vec<String> = (0..60)
            .map(|_| {
                let n = rng.gen_range(0..40usize);
                (0..n)
                    .map(|_| words[rng.gen_range(0..words.len())])
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect();
        let snippets = texts
            .iter()
            .chain(&salads)
            .map(|t| annotator.annotate(t))
            .collect();
        Fixture {
            annotator,
            shipped,
            mixed,
            snippets,
            fresh,
        }
    })
}

/// Every fused score equals the driver's own score, bit for bit.
fn assert_parity(drivers: &[TrainedDriver], walks: usize) {
    let fx = fixture();
    let scorer = DriverScorer::new(drivers);
    assert_eq!(scorer.walks(), walks, "walk groups");
    let mut fused = ScoreScratch::new();
    let mut single = VectorScratch::new();
    for snip in &fx.snippets {
        let scores = scorer.score(snip, &mut fused);
        assert_eq!(scores.len(), drivers.len());
        for (d, &got) in drivers.iter().zip(scores) {
            let want = d.score_with(snip, &mut single);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{}: fused {got} vs own {want} on {:?}",
                d.spec.driver,
                snip.text()
            );
        }
    }
}

#[test]
fn shipped_drivers_share_one_walk_and_score_bit_identically() {
    assert_parity(&fixture().shipped, 1);
}

#[test]
fn mixed_walk_groups_score_bit_identically() {
    let mixed = &fixture().mixed;
    assert!(!mixed[0].vectorizer.walks_like(&mixed[1].vectorizer));
    assert!(!mixed[0].vectorizer.walks_like(&mixed[3].vectorizer));
    assert!(mixed[0].vectorizer.walks_like(&mixed[2].vectorizer));
    assert_parity(mixed, 3);
}

#[test]
fn one_driver_scores_bit_identically() {
    assert_parity(&fixture().shipped[..1], 1);
    assert_parity(&fixture().mixed[3..], 1);
}

#[test]
fn no_drivers_score_nothing() {
    assert_parity(&[], 0);
}

/// The scan flags exactly what a snippet-by-snippet, driver-by-driver
/// loop over owned snippets flags, in the same order.
fn naive_scan(
    drivers: &[TrainedDriver],
    annotator: &Annotator,
    fresh: &SyntheticWeb,
) -> Vec<TriggerEvent> {
    let snipgen = SnippetGenerator::new(3);
    let mut events = Vec::new();
    for doc in fresh.docs() {
        for snip in snipgen.snippets(&doc.text()) {
            let ann = annotator.annotate(&snip.text);
            for d in drivers {
                let score = d.score(&ann);
                if score >= 0.5 {
                    events.push(TriggerEvent {
                        driver: d.spec.driver,
                        doc_id: doc.id,
                        url: doc.url.clone(),
                        snippet: snip.text.clone(),
                        score,
                        companies: ann
                            .entities()
                            .iter()
                            .enumerate()
                            .filter(|(_, e)| e.category == EntityCategory::Org)
                            .map(|(ei, _)| ann.entity_text(ei))
                            .collect(),
                        doc_date: doc.date,
                    });
                }
            }
        }
    }
    events
}

#[test]
fn fused_scan_flags_what_the_naive_loop_flags() {
    let fx = fixture();
    for drivers in [&fx.shipped[..], &fx.mixed[..]] {
        let want = naive_scan(drivers, &fx.annotator, &fx.fresh);
        assert!(!want.is_empty(), "the fresh crawl should flag something");
        let identifier = EventIdentifier::new(3);
        for threads in [1, 3] {
            let got = identifier.identify_parallel(drivers, fx.fresh.docs(), threads);
            assert_eq!(got, want, "threads = {threads}");
        }
    }
}
