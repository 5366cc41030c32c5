//! Seeded fuzz of the `MODEL` decoder: truncations, bit flips and
//! record splices of one trained builtin-driver model (`MODEL v2`) and
//! one custom-driver model (`MODEL v3`), each re-sealed with a valid
//! `#sum` so the mutations reach the record parser. Every input must
//! decode to a model or fail with a typed error, never panic.
//!
//! It is its own test binary because a decoded custom driver key is
//! registered process-wide: mutated keys fill the driver registry, which
//! must not leak into other suites.

use etap::training::train_driver;
use etap::{persist, DriverSpec, OrientationLexicon, SalesDriver, TrainingConfig};
use etap_annotate::Annotator;
use etap_corpus::{SearchEngine, SyntheticWeb, WebConfig};
use std::io;

/// A small trained change-in-management model, and the same classifier
/// under a custom driver spec (so it persists as `v3`).
fn models() -> [String; 2] {
    let web = SyntheticWeb::generate(WebConfig {
        total_docs: 120,
        seed: 0xF022,
        ..WebConfig::default()
    });
    let engine = SearchEngine::build(web.docs());
    let config = TrainingConfig {
        top_docs_per_query: 10,
        negative_snippets: 60,
        pure_positives: 5,
        ..TrainingConfig::default()
    };
    let spec = DriverSpec::builtin(SalesDriver::ChangeInManagement);
    let mut trained = train_driver(&spec, &engine, &web, &Annotator::new(), &config, |_| false);
    let builtin = persist::to_string(&trained);
    let mut lexicon = OrientationLexicon::new();
    lexicon.insert("expanded pilot", 1.5);
    trained.spec = DriverSpec {
        driver: SalesDriver::register("fuzz_custom", "pilot programs").expect("register"),
        smart_queries: vec!["\"pilot program\"".to_string()],
        snippet_filter: "ORG AND KW(pilot)".parse().expect("filter"),
        orientation: Some(lexicon),
    };
    [builtin, persist::to_string(&trained)]
}

fn seal(body: &str) -> String {
    let mut text = body.to_string();
    if !text.ends_with('\n') {
        text.push('\n');
    }
    let sum = etap_persist::fnv1a64(text.as_bytes());
    text.push_str(&format!("#sum {sum:016x}\n"));
    text
}

#[test]
fn fuzzed_models_decode_or_fail_typed() {
    let mut rng = etap_runtime::Rng::seed_from_u64(0x30DE1);
    let (mut ok, mut bad) = (0, 0);
    for (m, model) in models().iter().enumerate() {
        assert!(persist::from_str(model).is_ok(), "model {m} must load");
        let (body, _) = model
            .trim_end_matches('\n')
            .rsplit_once('\n')
            .expect("trailer");
        let lines: Vec<&str> = body.split_inclusive('\n').collect();
        // Mostly the header records, where the decoder's branches are,
        // but feature lines too.
        let head = lines
            .iter()
            .position(|l| l.starts_with("features"))
            .expect("features")
            + 1;
        for case in 0..1_000 {
            let mut bytes = body.as_bytes().to_vec();
            for _ in 0..rng.gen_range(1..3usize) {
                let line = if rng.gen_bool(0.7) {
                    lines[rng.gen_range(0..head)]
                } else {
                    rng.choose(&lines).expect("records")
                };
                match rng.gen_range(0..4u64) {
                    0 => bytes.truncate(rng.gen_range(0..bytes.len() + 1)),
                    1 if !bytes.is_empty() => {
                        // Flip a bit in the header half of the time.
                        let end = if rng.gen_bool(0.5) {
                            lines[..head].iter().map(|l| l.len()).sum::<usize>()
                        } else {
                            bytes.len()
                        };
                        let i = rng.gen_range(0..end.min(bytes.len()));
                        bytes[i] ^= 1 << rng.gen_range(0..8u64);
                    }
                    2 => {
                        // Splice a whole record in anywhere.
                        let at = rng.gen_range(0..bytes.len() + 1);
                        bytes.splice(at..at, line.bytes());
                    }
                    _ => {
                        // Splice a record's head onto another's tail.
                        let b = rng.choose(&lines).expect("records").as_bytes();
                        let mut joined = line.as_bytes()[..rng.gen_range(0..line.len())].to_vec();
                        joined.extend_from_slice(&b[rng.gen_range(0..b.len())..]);
                        let at = rng.gen_range(0..bytes.len() + 1);
                        bytes.splice(at..at, joined);
                    }
                }
            }
            let text = seal(&String::from_utf8_lossy(&bytes));
            match persist::from_str(&text) {
                Ok(decoded) => {
                    ok += 1;
                    let again = persist::to_string(&decoded);
                    let back = persist::from_str(&again)
                        .unwrap_or_else(|e| panic!("model {m} case {case}: {e}"));
                    assert_eq!(persist::to_string(&back), again, "model {m} case {case}");
                }
                Err(e) => {
                    bad += 1;
                    assert_eq!(
                        e.kind(),
                        io::ErrorKind::InvalidData,
                        "model {m} case {case}"
                    );
                }
            }
        }
    }
    // Both outcomes occur, so the mutations neither all miss nor all
    // stop at the header. Most are rejected: a spliced or truncated
    // feature record no longer matches the `features` count.
    assert!(ok >= 50 && bad > 1_000, "{ok} ok, {bad} rejected");
}
