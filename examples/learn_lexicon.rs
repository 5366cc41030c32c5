//! Automatic lexicon learning (SO-PMI / Turney, cited by the paper §4).
//!
//! "Currently this lexicon is constructed manually for each sales
//! driver. Automated methods of generating lexicons using positive and
//! negative seed terms … could also be used." This example learns a
//! revenue-growth orientation lexicon from the synthetic web using six
//! positive and six negative seed words, then compares its rankings to
//! the hand-built lexicon.
//!
//! ```sh
//! cargo run --release --example learn_lexicon
//! ```

use etap_repro::annotate::Annotator;
use etap_repro::corpus::SearchEngine;
use etap_repro::system::training::{harvest_noisy_positives, TrainingConfig};
use etap_repro::system::LexiconLearner;
use etap_repro::{DriverSpec, OrientationLexicon, SalesDriver, SyntheticWeb, WebConfig};

fn main() {
    // Learn from *revenue-relevant* snippets — the smart-query harvest
    // for the revenue driver. Learning from the whole web instead would
    // let unrelated topics leak in (the word "fall" rides with "record"
    // in entertainment pages: "record crowds", "premiering this fall").
    let web = SyntheticWeb::generate(WebConfig::with_docs(10_000));
    let engine = SearchEngine::build(web.docs());
    let annotator = Annotator::new();
    let spec = DriverSpec::builtin(SalesDriver::RevenueGrowth);
    let harvest =
        harvest_noisy_positives(&spec, &engine, &web, &annotator, &TrainingConfig::default());
    let snippets = harvest.noisy_texts;
    println!("learning from {} revenue-harvest snippets…", snippets.len());

    let learner = LexiconLearner::revenue_seeds();
    let learned = learner.learn(&snippets);
    println!("learned lexicon: {} phrases\n", learned.len());

    // Probe words the seeds never mention directly.
    let probes = [
        "revenue surged past expectations",
        "sales climbed on strong demand",
        "shares jumped after earnings",
        "margins widened this quarter",
        "revenue may fall next quarter",
        "the stock tumbled on a warning",
        "a painful slump in demand",
    ];
    let manual = OrientationLexicon::revenue_growth();
    println!("{:<40} {:>9} {:>9}", "probe snippet", "learned", "manual");
    for p in probes {
        println!(
            "{:<40} {:>+9.2} {:>+9.2}",
            p,
            learned.score(p),
            manual.score(p)
        );
    }

    // Sanity: learned signs should agree with the manual lexicon on
    // clear-cut cases.
    assert!(learned.score("revenue surged past expectations") > 0.0);
    assert!(learned.score("demand slumped and earnings dropped") < 0.0);
    println!("\nLearned lexicon agrees with the hand-built one on sign for the clear cases.");
    println!(
        "Known SO-PMI limitation, visible above: words from mixed-sentiment windows \
         (\"revenue may fall…\" sentences share 3-sentence snippets with upbeat ones) \
         inherit the window's majority polarity — Turney's NEAR operator has the same \
         topic-drift failure mode. Production use keeps the human-curated lexicon as \
         the backbone and treats learned entries as candidate suggestions."
    );
}
