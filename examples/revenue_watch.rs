//! Revenue watch: semantic-orientation ranking (paper §4, Figure 8).
//!
//! For the revenue-growth driver the paper ranks trigger events not by
//! classifier score but by a *business-value* lexicon: "phrases that
//! convey a stronger sense, e.g., 'sharp decline', 'worst losses' are
//! weighted more than other phrases". This example contrasts the two
//! rankings side by side.
//!
//! ```sh
//! cargo run --release --example revenue_watch
//! ```

use etap_repro::system::rank;
use etap_repro::{
    DriverSpec, Etap, EtapConfig, OrientationLexicon, SalesDriver, SyntheticWeb, WebConfig,
};

fn main() {
    let web = SyntheticWeb::generate(WebConfig::with_docs(2_000));

    let mut config = EtapConfig::paper();
    config.drivers = vec![DriverSpec::builtin(SalesDriver::RevenueGrowth)];
    let trained = Etap::new(config).train(&web);

    let news = SyntheticWeb::generate(WebConfig {
        seed: 4242,
        ..WebConfig::with_docs(400)
    });
    let events = trained.identify_events_parallel(news.docs(), 0);
    println!("{} revenue-growth trigger events identified.", events.len());

    // Ranking 1: classifier confidence (how sure are we it IS a revenue
    // event).
    let by_score = rank::rank_by_score(events.clone());
    println!("\n=== By classifier score ===");
    for (i, e) in by_score.iter().take(6).enumerate() {
        println!("{:>2}. [{:.3}] {}", i + 1, e.score, short(&e.snippet));
    }

    // Ranking 2: semantic orientation (how GOOD is the news — the
    // business-value view a sales rep wants).
    let lexicon = OrientationLexicon::revenue_growth();
    let by_orientation = rank::rank_by_orientation(events, &lexicon);
    println!("\n=== By semantic orientation (business value) ===");
    for (i, (e, s)) in by_orientation.iter().take(6).enumerate() {
        println!("{:>2}. [orient {s:+.1}] {}", i + 1, short(&e.snippet));
    }
    println!("\n=== Weakest orientation (declines & warnings sink) ===");
    for (e, s) in by_orientation.iter().rev().take(3) {
        println!("    [orient {s:+.1}] {}", short(&e.snippet));
    }

    // Extending the lexicon at runtime, as §4 suggests for new drivers.
    let mut custom = OrientationLexicon::revenue_growth();
    custom.insert("raised its full-year outlook", 3.0);
    custom.insert("profit warning", -3.0);
    println!(
        "\nCustom lexicon has {} phrases (builtin {}).",
        custom.len(),
        lexicon.len()
    );
}

fn short(s: &str) -> String {
    let mut t: String = s.chars().take(100).collect();
    if t.len() < s.len() {
        t.push('…');
    }
    t
}
