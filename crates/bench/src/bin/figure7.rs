//! **Figure 7** — "Snapshot of ETAP output that contains trigger events
//! along with their ranking based on classification scores for the
//! change in management sales driver."
//!
//! Trains the CiM driver, scans a fresh crawl, and prints the ranked
//! trigger-event list the ETAP UI would show, followed by the
//! company-level aggregation of Eq. 2.
//!
//! ```sh
//! cargo run --release -p etap-bench --bin figure7
//! ```

use etap::training::train_driver;
use etap::{rank, DriverSpec, EventIdentifier, SalesDriver};
use etap_annotate::Annotator;
use etap_bench::{is_test_doc, paper_training_config, standard_web};
use etap_corpus::{SearchEngine, SyntheticWeb, WebConfig};

fn main() {
    println!("== Figure 7: ranked trigger events (change in management) ==\n");
    let web = standard_web();
    let engine = SearchEngine::build(web.docs());
    let annotator = Annotator::new();
    let config = paper_training_config(&web);
    let spec = DriverSpec::builtin(SalesDriver::ChangeInManagement);
    let trained = train_driver(&spec, &engine, &web, &annotator, &config, is_test_doc);

    // A fresh "crawl" the system has never seen.
    let crawl = SyntheticWeb::generate(WebConfig {
        seed: 0xF1607,
        ..WebConfig::with_docs(400)
    });
    let identifier = EventIdentifier::new(3);
    let events = identifier.identify(&[trained], crawl.docs(), 0);
    let ranked = rank::rank_by_score(events.clone());

    println!("ETAP — trigger events for sales driver: change in management");
    println!("{}", "-".repeat(76));
    for (i, e) in ranked.iter().take(12).enumerate() {
        println!("{:>3}. score {:.3}   {}", i + 1, e.score, e.url);
        println!("     {}", clip(&e.snippet, 100));
    }
    println!("{}", "-".repeat(76));
    println!("{} events total; showing top 12.", ranked.len());

    println!("\ncompany ranking (Eq. 2 MRR over all trigger events):");
    for (i, c) in rank::rank_companies(&events).iter().take(10).enumerate() {
        println!(
            "{:>3}. {:<30} MRR={:.3} events={}",
            i + 1,
            c.company,
            c.mrr,
            c.events
        );
    }
}

fn clip(s: &str, n: usize) -> String {
    let mut t: String = s.chars().take(n).collect();
    if t.chars().count() < s.chars().count() {
        t.push('…');
    }
    t
}
