//! **Pipeline throughput** — sequential vs multi-threaded scan rate,
//! with a per-stage profile of where the time goes.
//!
//! Trains one driver (untimed for throughput, but instrumented so the
//! stage profile covers training too), then measures the end-to-end
//! event-identification path (snippet distillation → NER/POS annotation
//! → frozen-vocabulary scoring) over the standard synthetic web at 1, 2
//! and 4 worker threads. All runs produce bit-identical event lists —
//! the determinism contract of etap-runtime — so the comparison is pure
//! wall-clock. A separate instrumented pass (timers on, wall-clock
//! discarded) collects the per-stage breakdown, so timer overhead never
//! contaminates the recorded docs/sec.
//!
//! Prints its JSON record as the last line of stdout and writes no file:
//!
//! ```json
//! {"docs": 4000, "cores": 8,
//!  "docs_per_sec_1t": ..., "docs_per_sec_2t": ..., "docs_per_sec_4t": ...,
//!  "speedup_2t": ..., "speedup_4t": ...,
//!  "stages": {"scan.annotate": ..., "score.vectorize": ..., ...}}
//! ```
//!
//! `cores` records the host parallelism the run had available: the
//! thread fan-out is capped there (oversubscribing a core is a pure
//! pessimization), so on a 1-core host every speedup is ≈ 1.0 by
//! design. `scripts/verify.sh` gates these figures as ratios to the
//! same binary built from the base revision, in interleaved pairs.
//!
//! ```sh
//! cargo run --release -p etap-bench --bin bench_throughput
//! ```
//!
//! Knobs: `ETAP_DOCS` (web size, default 4000).

use std::time::Instant;

use etap::training::train_driver;
use etap::{DriverSpec, EventIdentifier, SalesDriver};
use etap_annotate::Annotator;
use etap_bench::{is_test_doc, paper_training_config, standard_web};
use etap_corpus::SearchEngine;
use etap_runtime::perf;

/// One `"name": total_ms` JSON object over the training stages plus the
/// whole scan-pass profile. The training report also contains scoring
/// stages (the de-noising loop scores snippets); only its `train.*`
/// aggregates are kept so scan-path numbers come from the scan pass.
fn stages_json(train: &perf::PerfReport, scan: &perf::PerfReport) -> String {
    let mut parts: Vec<String> = Vec::new();
    for s in train
        .stages()
        .iter()
        .filter(|s| s.name.starts_with("train."))
    {
        parts.push(format!("\"{}\": {:.2}", s.name, s.total_ms()));
    }
    for s in scan.stages() {
        parts.push(format!("\"{}\": {:.2}", s.name, s.total_ms()));
    }
    format!("{{{}}}", parts.join(", "))
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let web = standard_web();
    let engine = SearchEngine::build(web.docs());
    let annotator = Annotator::new();
    // Setup: train one driver so scoring runs the real frozen
    // vocabulary. A smaller negative class keeps setup quick without
    // changing the measured scan path. Stage timers are on here —
    // training is setup, not the measured quantity, so the overhead is
    // free and the profile shows where training time goes.
    let mut config = paper_training_config(&web);
    config.negative_snippets = config.negative_snippets.min(2_000);
    let spec = DriverSpec::builtin(SalesDriver::ChangeInManagement);
    perf::set_enabled(true);
    perf::reset();
    let trained = train_driver(&spec, &engine, &web, &annotator, &config, is_test_doc);
    let train_profile = perf::report();
    perf::set_enabled(false);

    let drivers = [trained];
    let identifier = EventIdentifier::new(config.snippet_window);
    let docs = web.docs();

    // Warm-up (page in lexicons, gazetteers, branch predictors).
    let _ = identifier.identify(&drivers, &docs[..docs.len().min(64)], 1);

    // Best of three runs per thread count: wall-clock on a shared host
    // is noisy in one direction only (interference makes runs slower,
    // never faster), so the minimum is the steadier estimator.
    let time = |threads: usize| {
        let mut best = f64::INFINITY;
        let mut events = Vec::new();
        for _ in 0..3 {
            let t0 = Instant::now();
            events = identifier.identify(&drivers, docs, threads);
            best = best.min(t0.elapsed().as_secs_f64());
        }
        (best, events)
    };
    let (t_1, events_1) = time(1);
    let (t_2, events_2) = time(2);
    let (t_4, events_4) = time(4);
    assert_eq!(
        events_1, events_2,
        "2-thread identification must be bit-identical to sequential"
    );
    assert_eq!(
        events_1, events_4,
        "4-thread identification must be bit-identical to sequential"
    );

    // Instrumented scan pass: timers on, wall-clock discarded.
    perf::set_enabled(true);
    perf::reset();
    let _ = identifier.identify(&drivers, docs, 1);
    let scan_profile = perf::report();
    perf::set_enabled(false);

    let docs_per_sec_1t = docs.len() as f64 / t_1;
    let docs_per_sec_2t = docs.len() as f64 / t_2;
    let docs_per_sec_4t = docs.len() as f64 / t_4;
    let speedup_2t = t_1 / t_2;
    let speedup_4t = t_1 / t_4;

    println!(
        "pipeline throughput over {} docs ({} events flagged, {cores} core(s))",
        docs.len(),
        events_1.len()
    );
    println!("  1 thread : {t_1:>8.3} s   {docs_per_sec_1t:>9.1} docs/s");
    println!("  2 threads: {t_2:>8.3} s   {docs_per_sec_2t:>9.1} docs/s   {speedup_2t:.2}x");
    println!("  4 threads: {t_4:>8.3} s   {docs_per_sec_4t:>9.1} docs/s   {speedup_4t:.2}x");
    println!("\ntraining profile:\n{train_profile}");
    println!("scan profile (1 thread):\n{scan_profile}");

    println!(
        "{{\"docs\": {}, \"cores\": {cores}, \
         \"docs_per_sec_1t\": {docs_per_sec_1t:.2}, \
         \"docs_per_sec_2t\": {docs_per_sec_2t:.2}, \
         \"docs_per_sec_4t\": {docs_per_sec_4t:.2}, \
         \"speedup_2t\": {speedup_2t:.3}, \"speedup_4t\": {speedup_4t:.3}, \
         \"stages\": {}}}",
        docs.len(),
        stages_json(&train_profile, &scan_profile)
    );
}
