//! **Table 1** — "Results after two iterations, using naïve Bayes
//! classifier for the two sales drivers."
//!
//! Paper values: M&A P=0.744 R=0.806 F1=0.773; change in management
//! P=0.656 R=0.786 F1=0.715. Protocol (§5.1): five smart queries per
//! driver, top-200 documents per query, NE+keyword filter distillation,
//! pure positives oversampled ×3, naïve Bayes, two de-noising
//! iterations; test set of 72 + 56 positives and 2265 background
//! snippets.
//!
//! Because the substrate is a seeded synthetic web, the experiment runs
//! over three seeds and reports each run plus the mean — single-seed
//! numbers on a 4k-document corpus carry ±0.05 F1 of generation noise.
//!
//! ```sh
//! cargo run --release -p etap-bench --bin table1
//! ETAP_DOCS=8000 ETAP_SEED=99 cargo run --release -p etap-bench --bin table1
//! ```

use etap::training::train_drivers;
use etap::{DriverSpec, SalesDriver};
use etap_annotate::Annotator;
use etap_bench::{
    env_usize, evaluate_driver, is_test_doc, paper_test_set, paper_training_config, print_header,
    print_row, PAPER_TABLE1_CIM, PAPER_TABLE1_MA,
};
use etap_classify::metrics::PrecisionRecallF1;
use etap_corpus::{SearchEngine, SyntheticWeb, WebConfig};

fn main() {
    println!("== Table 1: P/R/F1 after two de-noising iterations (naive Bayes) ==\n");
    let docs = env_usize("ETAP_DOCS", etap_bench::DEFAULT_DOCS);
    let base_seed = env_usize("ETAP_SEED", 0xE7A9) as u64;
    let seeds = [base_seed, base_seed + 1, base_seed + 2];
    println!("web: {docs} documents per seed; seeds {seeds:?}; 20% held out\n");

    let drivers = [
        SalesDriver::MergersAcquisitions,
        SalesDriver::ChangeInManagement,
    ];
    let mut sums = [[0.0f64; 3]; 2];
    let annotator = Annotator::new();

    for seed in seeds {
        let web = SyntheticWeb::generate(WebConfig {
            total_docs: docs,
            seed,
            ..WebConfig::default()
        });
        let engine = SearchEngine::build(web.docs());
        let config = paper_training_config(&web);
        let (positives, background) = paper_test_set(&web);
        print!("seed {seed:>6}:");
        let specs = drivers.map(DriverSpec::builtin);
        let trained_all = train_drivers(&specs, &engine, &web, &annotator, &config, is_test_doc);
        for (i, (driver, trained)) in drivers.into_iter().zip(&trained_all).enumerate() {
            let other = &positives[1 - i];
            let prf = evaluate_driver(
                trained,
                &annotator,
                &positives[i],
                &[other.as_slice(), background.as_slice()],
            );
            sums[i][0] += prf.precision;
            sums[i][1] += prf.recall;
            sums[i][2] += prf.f1;
            print!(
                "  {} P={:.3} R={:.3} F1={:.3}",
                short(driver),
                prf.precision,
                prf.recall,
                prf.f1
            );
        }
        println!();
    }

    let n = seeds.len() as f64;
    println!();
    print_header();
    for (i, driver) in drivers.into_iter().enumerate() {
        let mean = PrecisionRecallF1 {
            precision: sums[i][0] / n,
            recall: sums[i][1] / n,
            f1: sums[i][2] / n,
        };
        let paper = match driver {
            SalesDriver::MergersAcquisitions => PAPER_TABLE1_MA,
            _ => PAPER_TABLE1_CIM,
        };
        print_row(&format!("{} (mean of 3)", driver.name()), mean, paper);
    }
    println!(
        "\nShape checks (paper): both F1 in the 0.6–0.9 band; remaining false positives \
         are the historical/denial distractors of §5.2 — ablation A7 shows the paper's \
         proposed time-weighted scoring recovering that precision."
    );
}

fn short(d: SalesDriver) -> &'static str {
    match d {
        SalesDriver::MergersAcquisitions => "M&A",
        SalesDriver::ChangeInManagement => "CiM",
        SalesDriver::RevenueGrowth => "Rev",
        // Runtime-registered drivers never appear in the paper table;
        // fall back to the interned key.
        other => other.id(),
    }
}
