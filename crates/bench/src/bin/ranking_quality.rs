//! **Extension E1** — threshold-free ranking quality.
//!
//! Table 1's P/R/F1 sit at the arbitrary 0.5 posterior threshold, but
//! ETAP is consumed as a *ranked list* reviewed top-down by a domain
//! specialist (§4). This experiment reports the metrics that match that
//! consumption model: ROC-AUC, average precision, precision@k and a
//! PR-curve sketch per driver, plus the quality of the Eq. 2 company
//! ranking against the synthetic web's ground truth.
//!
//! ```sh
//! cargo run --release -p etap-bench --bin ranking_quality
//! ```

use etap::training::{train_driver, DriverScorer, ScoreScratch};
use etap::{rank, AliasResolver, DriverSpec, EventIdentifier, SalesDriver};
use etap_annotate::{AnnotateScratch, Annotator};
use etap_bench::{is_test_doc, paper_test_set, paper_training_config, standard_web};
use etap_classify::ranking::{average_precision, pr_curve, precision_at_k, roc_auc, Scored};
use etap_corpus::SearchEngine;
use std::collections::HashSet;

fn main() {
    println!("== E1: ranking quality (threshold-free view of Table 1) ==\n");
    let web = standard_web();
    let engine = SearchEngine::build(web.docs());
    let annotator = Annotator::new();
    let config = paper_training_config(&web);
    let (positives, background) = paper_test_set(&web);

    let drivers = [
        SalesDriver::MergersAcquisitions,
        SalesDriver::ChangeInManagement,
    ];
    println!(
        "| {:<24} | {:>6} | {:>6} | {:>5} | {:>5} | {:>5} |",
        "driver", "AUC", "AP", "P@10", "P@25", "P@50"
    );
    println!(
        "|{}|--------|--------|-------|-------|-------|",
        "-".repeat(26)
    );
    let mut trained_cim = None;
    for (i, driver) in drivers.into_iter().enumerate() {
        let spec = DriverSpec::builtin(driver);
        let trained = train_driver(&spec, &engine, &web, &annotator, &config, is_test_doc);
        let mut scored: Vec<Scored> = Vec::new();
        let scorer = DriverScorer::new(std::slice::from_ref(&trained));
        let (mut ann, mut scores) = (AnnotateScratch::new(), ScoreScratch::new());
        let mut score =
            |text: &str| scorer.score(&annotator.annotate_with(text, &mut ann), &mut scores)[0];
        for text in &positives[i] {
            scored.push(Scored {
                score: score(text),
                positive: true,
            });
        }
        for text in positives[1 - i].iter().chain(background.iter()) {
            scored.push(Scored {
                score: score(text),
                positive: false,
            });
        }
        println!(
            "| {:<24} | {:>6.3} | {:>6.3} | {:>5.2} | {:>5.2} | {:>5.2} |",
            driver.name(),
            roc_auc(&scored),
            average_precision(&scored),
            precision_at_k(&scored, 10),
            precision_at_k(&scored, 25),
            precision_at_k(&scored, 50),
        );
        if i == 0 {
            // Print a PR sketch for the first driver.
            let curve = pr_curve(&scored);
            let step = (curve.len() / 8).max(1);
            println!("|   PR curve (recall → precision):");
            for point in curve.iter().step_by(step) {
                println!("|     {:.2} → {:.3}", point.0, point.1);
            }
        }
        if driver == SalesDriver::ChangeInManagement {
            trained_cim = Some(trained);
        }
    }

    // Company-ranking quality: identify events on the held-out docs and
    // check how many of the top-ranked companies genuinely had a CiM
    // trigger event.
    let trained = trained_cim.expect("CiM trained above");
    let held_out: Vec<_> = web
        .docs()
        .iter()
        .filter(|d| is_test_doc(d.id))
        .cloned()
        .collect();
    let identifier = EventIdentifier::new(3);
    let events = identifier.identify(&[trained], &held_out, 0);
    let mut resolver = AliasResolver::new();
    let companies = rank::rank_companies_resolved(&events, &mut resolver);

    let mut truth: HashSet<String> = HashSet::new();
    let mut truth_resolver = AliasResolver::new();
    for d in &held_out {
        if d.trigger_driver() == Some(SalesDriver::ChangeInManagement) {
            for c in &d.companies {
                truth.insert(truth_resolver.canonicalize(c));
            }
        }
    }
    println!(
        "\ncompany ranking (Eq. 2 + alias resolution) over {} held-out docs:",
        held_out.len()
    );
    for k in [5usize, 10, 20] {
        let hit = companies
            .iter()
            .take(k)
            .filter(|c| {
                let mut r = AliasResolver::new();
                let canon = r.canonicalize(&c.company);
                truth.contains(&canon) || truth.contains(&c.company)
            })
            .count();
        println!("  top-{k:<2}: {hit}/{k} companies truly had a change-in-management event");
    }
    println!(
        "\nReading: AUC near 1 means the *ranking* is far cleaner than the 0.5-threshold \
         F1 suggests — exactly the paper's argument for ranked output + human validation."
    );
}
