//! **Figure 8** — "Snapshot of ETAP output containing example trigger
//! events along with their ranking based on semantic orientation scores
//! for the revenue growth sales driver."
//!
//! Same pipeline as Figure 7, but the ranking key is the weighted
//! phrase lexicon of §4 ("significant growth" ≫ "profit"; "severe
//! losses" ≪ "loss").
//!
//! ```sh
//! cargo run --release -p etap-bench --bin figure8
//! ```

use etap::training::train_driver;
use etap::{rank, DriverSpec, EventIdentifier, OrientationLexicon, SalesDriver};
use etap_annotate::Annotator;
use etap_bench::{is_test_doc, paper_training_config, standard_web};
use etap_corpus::{SearchEngine, SyntheticWeb, WebConfig};

fn main() {
    println!("== Figure 8: trigger events ranked by semantic orientation (revenue growth) ==\n");
    let web = standard_web();
    let engine = SearchEngine::build(web.docs());
    let annotator = Annotator::new();
    let config = paper_training_config(&web);
    let spec = DriverSpec::builtin(SalesDriver::RevenueGrowth);
    let trained = train_driver(&spec, &engine, &web, &annotator, &config, is_test_doc);

    let crawl = SyntheticWeb::generate(WebConfig {
        seed: 0xF1608,
        ..WebConfig::with_docs(400)
    });
    let identifier = EventIdentifier::new(3);
    let events = identifier.identify(&[trained], crawl.docs(), 0);
    let lexicon = OrientationLexicon::revenue_growth();
    let ranked = rank::rank_by_orientation(events, &lexicon);

    println!("ETAP — trigger events for sales driver: revenue growth (semantic orientation)");
    println!("{}", "-".repeat(76));
    for (i, (e, orient)) in ranked.iter().take(10).enumerate() {
        println!(
            "{:>3}. orientation {:+.1} (classifier {:.3})   {}",
            i + 1,
            orient,
            e.score,
            e.url
        );
        println!("     {}", clip(&e.snippet, 100));
    }
    println!("  …");
    for (e, orient) in ranked.iter().rev().take(3).rev() {
        println!("  ⌄ orientation {:+.1}   {}", orient, clip(&e.snippet, 90));
    }
    println!("{}", "-".repeat(76));
    println!(
        "{} events; positive-orientation growth stories rise, declines and warnings sink.",
        ranked.len()
    );
}

fn clip(s: &str, n: usize) -> String {
    let mut t: String = s.chars().take(n).collect();
    if t.chars().count() < s.chars().count() {
        t.push('…');
    }
    t
}
