//! **Ablation A7** — time-weighted scoring (the paper's §5.2/§6
//! proposal, implemented).
//!
//! §5.2: misleading biographical snippets "can be further tackled by the
//! ranking component by making the score corresponding to each snippet a
//! function of the time period associated with the snippet". We resolve
//! every PERIOD/YEAR mention against the document's publication date and
//! decay the classifier score by the age of the oldest mention
//! (half-life sweep). Precision of the change-in-management driver —
//! the one the biographies hurt — is measured at the document level:
//! an event is correct iff its source document genuinely triggers CiM.
//!
//! ```sh
//! cargo run --release -p etap-bench --bin ablation_temporal
//! ```

use etap::training::train_driver;
use etap::{rank, DriverSpec, EventIdentifier, SalesDriver};
use etap_annotate::Annotator;
use etap_bench::{is_test_doc, paper_training_config, standard_web};
use etap_corpus::{SearchEngine, SyntheticWeb, WebConfig};
use std::sync::Arc;

fn main() {
    println!("== Ablation A7: time-weighted scores vs biography noise (CiM) ==\n");
    let web = standard_web();
    let engine = SearchEngine::build(web.docs());
    let annotator = Arc::new(Annotator::new());
    let config = paper_training_config(&web);
    let spec = DriverSpec::builtin(SalesDriver::ChangeInManagement);
    let trained = train_driver(&spec, &engine, &web, &annotator, &config, is_test_doc);

    let crawl = SyntheticWeb::generate(WebConfig {
        seed: 0x7E3919,
        ..WebConfig::with_docs(600)
    });
    let identifier = EventIdentifier::with_annotator(Arc::clone(&annotator), 3);
    let events = identifier.identify(&[trained], crawl.docs(), 0);
    let trigger_docs: Vec<usize> = crawl
        .trigger_docs(SalesDriver::ChangeInManagement)
        .map(|d| d.id)
        .collect();

    let eval = |kept: &[&etap::TriggerEvent]| -> (f64, f64, usize) {
        let tp = kept
            .iter()
            .filter(|e| {
                crawl.doc(e.doc_id).trigger_driver() == Some(SalesDriver::ChangeInManagement)
            })
            .count();
        let covered = trigger_docs
            .iter()
            .filter(|id| kept.iter().any(|e| e.doc_id == **id))
            .count();
        let precision = if kept.is_empty() {
            0.0
        } else {
            tp as f64 / kept.len() as f64
        };
        let recall = if trigger_docs.is_empty() {
            0.0
        } else {
            covered as f64 / trigger_docs.len() as f64
        };
        (precision, recall, kept.len())
    };

    println!(
        "| {:<22} | {:>9} | {:>6} | {:>6} |",
        "scoring", "precision", "recall", "events"
    );
    println!("|{}|-----------|--------|--------|", "-".repeat(24));

    let raw: Vec<&etap::TriggerEvent> = events.iter().collect();
    let (p, r, n) = eval(&raw);
    println!(
        "| {:<22} | {p:>9.3} | {r:>6.3} | {n:>6} |",
        "raw classifier score"
    );

    for half_life in [3650.0f64, 730.0, 365.0, 180.0] {
        let weighted = rank::rank_by_time_weighted_score(events.clone(), half_life, &annotator);
        let kept: Vec<&etap::TriggerEvent> = weighted
            .iter()
            .filter(|(_, w)| *w >= 0.5)
            .map(|(e, _)| e)
            .collect();
        let (p, r, n) = eval(&kept);
        println!("| time-weighted hl={half_life:>4.0}d | {p:>9.3} | {r:>6.3} | {n:>6} |");
    }
    println!(
        "\nExpected shape: time weighting lifts document-level precision by sinking \
         biography/retrospective events (their old dates decay the score) while recall \
         barely moves (genuine appointments cite current dates or none)."
    );
}
