//! Quickstart: train ETAP on a synthetic web and print ranked sales
//! leads, end to end.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use etap_repro::system::rank;
use etap_repro::{Etap, EtapConfig, SyntheticWeb, WebConfig};

fn main() {
    // 1. The "web": a deterministic synthetic corpus of business news,
    //    biographies, and a dozen background genres (see DESIGN.md for
    //    why this substitutes for a live crawl).
    println!("Generating synthetic web…");
    let web = SyntheticWeb::generate(WebConfig::with_docs(2_000));

    // 2. Train classifiers for the paper's three sales drivers. The
    //    pipeline issues smart queries against a built-in search engine,
    //    distills noisy positives through NE filters, and runs the
    //    Brodley-style de-noising loop (2 iterations, ×3 oversampling of
    //    pure positives) — all defaults straight from the paper.
    println!("Training classifiers for all three sales drivers…");
    let system = Etap::new(EtapConfig::paper());
    let trained = system.train(&web);
    for d in trained.drivers() {
        println!(
            "  {:<24} noisy positives: {} → retained: {} ({} iterations)",
            d.spec.driver.to_string(),
            d.report.noisy_positives,
            d.report.retained_positives,
            d.report.iterations
        );
    }

    // 3. Point the trained system at fresh documents (a new crawl).
    let fresh = SyntheticWeb::generate(WebConfig {
        seed: 2_024,
        ..WebConfig::with_docs(300)
    });
    let events = trained.identify_events_parallel(fresh.docs(), 0);
    println!(
        "\nFlagged {} trigger events in {} fresh documents.",
        events.len(),
        fresh.len()
    );

    // 4. Rank by classifier confidence (paper Figure 7's view).
    let ranked = rank::rank_by_score(events.clone());
    println!("\nTop trigger events by classifier score:");
    for (i, e) in ranked.iter().take(8).enumerate() {
        println!(
            "  {:>2}. [{:.3}] ({}) {}",
            i + 1,
            e.score,
            e.driver,
            truncate(&e.snippet, 90)
        );
    }

    // 5. Aggregate per company with the paper's MRR(c) (Eq. 2).
    let companies = rank::rank_companies(&events);
    println!("\nTop prospective buyers (company MRR):");
    for (i, c) in companies.iter().take(8).enumerate() {
        println!(
            "  {:>2}. {:<28} MRR={:.3} ({} events)",
            i + 1,
            c.company,
            c.mrr,
            c.events
        );
    }
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        let cut = s
            .char_indices()
            .take_while(|(i, _)| *i < n)
            .last()
            .map_or(0, |(i, c)| i + c.len_utf8());
        format!("{}…", &s[..cut])
    }
}
