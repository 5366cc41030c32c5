//! Shared experimental protocol for the paper-reproduction binaries.
//!
//! Every experiment follows the same skeleton so results are comparable:
//!
//! 1. generate the standard synthetic web (size via `ETAP_DOCS`,
//!    default 4000; seed via `ETAP_SEED`, default paper-era 0xE7A9);
//! 2. hold out every 5th document (`doc_id % 5 == 0`) as evaluation
//!    data — training never touches them;
//! 3. train with the paper's defaults (2 de-noise iterations, ×3
//!    oversampling, n = 3 snippets, NE-abstracted features);
//! 4. evaluate on a test set mirroring §5.1's composition (72 M&A
//!    positives, 56 change-in-management positives, 2265 background
//!    snippets).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use etap::training::{build_test_set, DriverScorer, ScoreScratch, TrainedDriver};
use etap::SalesDriver;
use etap_annotate::{AnnotateScratch, Annotator};
use etap_classify::metrics::{ConfusionMatrix, PrecisionRecallF1};
use etap_classify::Classifier;
use etap_corpus::{SyntheticWeb, WebConfig};

/// Default number of documents in the experiment web.
pub const DEFAULT_DOCS: usize = 4_000;

/// Paper test-set sizes: (M&A positives, CiM positives, background).
pub const PAPER_TEST_SIZES: (usize, usize, usize) = (72, 56, 2_265);

/// Paper Table 1 reference values: (precision, recall, F1) per driver.
pub const PAPER_TABLE1_MA: (f64, f64, f64) = (0.744, 0.806, 0.773);
/// Change-in-management row of the paper's Table 1.
pub const PAPER_TABLE1_CIM: (f64, f64, f64) = (0.656, 0.786, 0.715);

/// Read an experiment knob from the environment.
#[must_use]
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The standard experiment web.
#[must_use]
pub fn standard_web() -> SyntheticWeb {
    let docs = env_usize("ETAP_DOCS", DEFAULT_DOCS);
    let seed = env_usize("ETAP_SEED", 0xE7A9) as u64;
    SyntheticWeb::generate(WebConfig {
        total_docs: docs,
        seed,
        ..WebConfig::default()
    })
}

/// Held-out predicate: every 5th document belongs to evaluation.
#[must_use]
pub fn is_test_doc(id: usize) -> bool {
    id.is_multiple_of(5)
}

/// The paper-default training configuration scaled to the web size: the
/// negative class grows with the corpus (the paper's own ratio was ~2M
/// random snippets against ~3.5k noisy positives — negatives must
/// dominate, or the prior drifts positive as the harvest grows).
#[must_use]
pub fn paper_training_config(web: &SyntheticWeb) -> etap::TrainingConfig {
    etap::TrainingConfig {
        negative_snippets: (web.len() * 3) / 2,
        ..etap::TrainingConfig::default()
    }
}

/// Build the §5.1-style test set from the held-out documents: per-driver
/// positive snippets plus one shared background pool.
#[must_use]
pub fn paper_test_set(web: &SyntheticWeb) -> (Vec<Vec<String>>, Vec<String>) {
    let (ma, cim, bg) = PAPER_TEST_SIZES;
    build_test_set(
        web,
        &[
            SalesDriver::MergersAcquisitions,
            SalesDriver::ChangeInManagement,
        ],
        &[ma, cim],
        bg,
        3,
        0xBEEF,
        is_test_doc,
    )
}

/// Evaluate one trained driver against its positives and everything
/// else (the other drivers' positives + background count as negatives,
/// exactly like the paper's common test pool).
#[must_use]
pub fn evaluate_driver<M: Classifier>(
    trained: &TrainedDriver<M>,
    annotator: &Annotator,
    positives: &[String],
    negatives: &[&[String]],
) -> PrecisionRecallF1 {
    let mut cm = ConfusionMatrix::default();
    let scorer = DriverScorer::new(std::slice::from_ref(trained));
    let (mut ann, mut scores) = (AnnotateScratch::new(), ScoreScratch::new());
    let mut score =
        |text: &str| scorer.score(&annotator.annotate_with(text, &mut ann), &mut scores)[0];
    for text in positives {
        cm.record(true, score(text) >= 0.5);
    }
    for pool in negatives {
        for text in *pool {
            cm.record(false, score(text) >= 0.5);
        }
    }
    cm.prf()
}

/// Print a Markdown-ish results table row.
pub fn print_row(label: &str, ours: PrecisionRecallF1, paper: (f64, f64, f64)) {
    println!(
        "| {label:<26} | {:>5.3} | {:>5.3} | {:>5.3} |  {:>5.3} | {:>5.3} | {:>5.3} |",
        ours.precision, ours.recall, ours.f1, paper.0, paper.1, paper.2
    );
}

/// Header matching [`print_row`].
pub fn print_header() {
    println!(
        "| {:<26} | {:^19} | {:^21} |",
        "sales driver", "measured P / R / F1", "paper P / R / F1"
    );
    println!("|{}|{}|{}|", "-".repeat(28), "-".repeat(25), "-".repeat(25));
}

/// Build the §5.1-style test set with an explicit snippet window (the
/// A1 ablation varies it; everything else uses 3).
#[must_use]
pub fn paper_test_set_with_window(
    web: &SyntheticWeb,
    window: usize,
) -> (Vec<Vec<String>>, Vec<String>) {
    let (ma, cim, bg) = PAPER_TEST_SIZES;
    build_test_set(
        web,
        &[
            SalesDriver::MergersAcquisitions,
            SalesDriver::ChangeInManagement,
        ],
        &[ma, cim],
        bg,
        window,
        0xBEEF,
        is_test_doc,
    )
}

/// Train both Table 1 drivers under `config` with an arbitrary trainer
/// and return `[M&A, CiM]` precision/recall/F1 on the standard test
/// protocol. The workhorse of every ablation binary.
#[must_use]
pub fn eval_both_drivers_with<T: etap_classify::Trainer>(
    trainer: &T,
    web: &SyntheticWeb,
    engine: &etap_corpus::SearchEngine,
    annotator: &Annotator,
    config: &etap::TrainingConfig,
) -> [PrecisionRecallF1; 2]
where
    T::Model: Sync,
{
    use etap::training::train_driver_with;
    use etap::DriverSpec;

    let (positives, background) = paper_test_set_with_window(web, config.snippet_window);
    let drivers = [
        SalesDriver::MergersAcquisitions,
        SalesDriver::ChangeInManagement,
    ];
    let mut out = [PrecisionRecallF1 {
        precision: 0.0,
        recall: 0.0,
        f1: 0.0,
    }; 2];
    for (i, driver) in drivers.into_iter().enumerate() {
        let spec = DriverSpec::builtin(driver);
        let trained =
            train_driver_with(trainer, &spec, engine, web, annotator, config, is_test_doc);
        let other = &positives[1 - i];
        out[i] = evaluate_driver(
            &trained,
            annotator,
            &positives[i],
            &[other.as_slice(), background.as_slice()],
        );
    }
    out
}

/// [`eval_both_drivers_with`] using the paper's multinomial NB.
#[must_use]
pub fn eval_both_drivers(
    web: &SyntheticWeb,
    engine: &etap_corpus::SearchEngine,
    annotator: &Annotator,
    config: &etap::TrainingConfig,
) -> [PrecisionRecallF1; 2] {
    eval_both_drivers_with(
        &etap_classify::MultinomialNb::new(),
        web,
        engine,
        annotator,
        config,
    )
}

/// Shared driver for the Figure 3/4 experiments: compute the RIG of the
/// PA and IV representations of every abstraction category over the
/// driver's pure-positive snippets vs a random negative sample, print
/// the log₁₀ values the paper plots, and check the paper's two
/// conclusions (entities prefer PA; content POS prefers IV).
pub fn rig_figure(driver: SalesDriver, title: &str) {
    use etap::training::{collect_pure_positives, sample_negatives};
    use etap::{DriverSpec, TrainingConfig};
    use etap_features::{AbstractionCategory, RigAnalysis};

    println!("== {title}: RIG of PA vs IV per abstraction category ({driver}) ==\n");
    let web = standard_web();
    let annotator = Annotator::new();
    let spec = DriverSpec::builtin(driver);
    let config = TrainingConfig {
        pure_positives: 600,
        negative_snippets: 4_000,
        ..TrainingConfig::default()
    };
    let positives = collect_pure_positives(&spec, &web, &annotator, &config, |_| false);
    let negatives = sample_negatives(&web, &annotator, &config, |_| false);
    println!(
        "pure positives: {} snippets; negatives: {} snippets\n",
        positives.len(),
        negatives.len()
    );

    // α = 0.5 keeps singleton instance values harmless while letting
    // moderately-frequent instances (common nouns, verbs) register.
    let reports = RigAnalysis { smoothing: 0.5 }.analyze(&positives, &negatives);
    println!(
        "| {:<10} | {:>12} | {:>12} | {:>9} | chosen |",
        "category", "log10 RIG-PA", "log10 RIG-IV", "instances"
    );
    println!(
        "|{}|{}|{}|{}|--------|",
        "-".repeat(12),
        "-".repeat(14),
        "-".repeat(14),
        "-".repeat(11)
    );
    let log10 = |x: f64| {
        if x > 0.0 {
            format!("{:>12.3}", x.log10())
        } else {
            format!("{:>12}", "-inf")
        }
    };
    let mut entity_pa_wins = 0usize;
    let mut entity_seen = 0usize;
    let mut content_iv_wins = 0usize;
    let mut content_seen = 0usize;
    for r in &reports {
        if r.support == 0 {
            continue; // category absent from this driver's data
        }
        // Categories where both representations carry (numerically) no
        // information have no meaningful preference; report them as a
        // dash and keep them out of the conclusion tallies.
        let uninformative = r.rig_pa.max(r.rig_iv) < 1e-9;
        let chosen = if uninformative {
            "—"
        } else if r.prefers_abstraction() {
            "PA"
        } else {
            "IV"
        };
        println!(
            "| {:<10} | {} | {} | {:>9} | {:<6} |",
            r.category.name(),
            log10(r.rig_pa),
            log10(r.rig_iv),
            r.distinct_instances,
            chosen
        );
        if uninformative {
            continue;
        }
        match r.category {
            AbstractionCategory::Entity(_) => {
                entity_seen += 1;
                if r.prefers_abstraction() {
                    entity_pa_wins += 1;
                }
            }
            AbstractionCategory::Pos(t) if t.is_content() => {
                content_seen += 1;
                if !r.prefers_abstraction() {
                    content_iv_wins += 1;
                }
            }
            AbstractionCategory::Pos(_) => {}
        }
    }
    println!(
        "\npaper conclusion 1 (content POS keep instances): {content_iv_wins}/{content_seen} IV"
    );
    println!("paper conclusion 2 (entities abstracted):        {entity_pa_wins}/{entity_seen} PA");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn held_out_fraction_is_a_fifth() {
        let test = (0..1000).filter(|&i| is_test_doc(i)).count();
        assert_eq!(test, 200);
    }

    #[test]
    fn env_usize_parses_and_defaults() {
        assert_eq!(env_usize("ETAP_SURELY_UNSET_VAR", 7), 7);
    }
}
