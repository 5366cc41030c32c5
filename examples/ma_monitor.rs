//! M&A monitor: the B2B scenario from the paper's introduction.
//!
//! "Mergers & acquisitions could be a sales driver for the IT industry …
//! mergers and acquisitions of companies could lead to the integration
//! of IT systems of the companies thereby generating demand for new IT
//! products." This example trains only the M&A driver, watches a stream
//! of fresh news, and produces the prioritized call list a sales team
//! would work from.
//!
//! ```sh
//! cargo run --release --example ma_monitor
//! ```

use etap_repro::system::rank;
use etap_repro::{DriverSpec, Etap, EtapConfig, SalesDriver, SyntheticWeb, WebConfig};

fn main() {
    let web = SyntheticWeb::generate(WebConfig::with_docs(2_000));

    let mut config = EtapConfig::paper();
    config.drivers = vec![DriverSpec::builtin(SalesDriver::MergersAcquisitions)];
    let trained = Etap::new(config).train(&web);
    let report = &trained.drivers()[0].report;
    println!(
        "Trained M&A classifier: {} docs fetched by smart queries, {} noisy positives → {} retained.",
        report.docs_fetched, report.noisy_positives, report.retained_positives
    );

    // A week of fresh news.
    let news = SyntheticWeb::generate(WebConfig {
        seed: 77,
        ..WebConfig::with_docs(400)
    });
    let events = trained.identify_events_parallel(news.docs(), 0);

    // Deduplicate per document: keep each document's best snippet.
    let mut best_per_doc: Vec<&etap_repro::TriggerEvent> = Vec::new();
    for e in &events {
        match best_per_doc.iter_mut().find(|b| b.doc_id == e.doc_id) {
            Some(b) if b.score < e.score => *b = e,
            Some(_) => {}
            None => best_per_doc.push(e),
        }
    }
    println!(
        "\n{} M&A trigger events across {} documents.",
        events.len(),
        best_per_doc.len()
    );

    let ranked = rank::rank_by_score(events.clone());
    println!("\n=== Alert queue (classifier-ranked) ===");
    for (i, e) in ranked.iter().take(10).enumerate() {
        println!("{:>2}. [{:.3}] {}", i + 1, e.score, e.url);
        println!("      {}", wrap(&e.snippet, 88));
        if !e.companies.is_empty() {
            println!("      companies: {}", e.companies.join(", "));
        }
    }

    // The call list: companies involved in the strongest M&A events are
    // prospects for systems-integration products.
    let companies = rank::rank_companies(&events);
    println!("\n=== Prospect call list (MRR, Eq. 2) ===");
    for (i, c) in companies.iter().take(12).enumerate() {
        println!(
            "{:>2}. {:<30} MRR={:.3} events={}",
            i + 1,
            c.company,
            c.mrr,
            c.events
        );
    }
}

fn wrap(s: &str, width: usize) -> String {
    let mut out = String::new();
    let mut line = 0;
    for word in s.split_whitespace() {
        if line + word.len() + 1 > width {
            out.push_str("\n      ");
            line = 0;
        } else if !out.is_empty() {
            out.push(' ');
            line += 1;
        }
        out.push_str(word);
        line += word.len();
    }
    out
}
