//! Golden `MODEL` digests: the bytes `Etap::train` persists for the
//! three builtin drivers plus the two data-file drivers of
//! `drivers/extra.drivers`, on a small seeded web.
//!
//! Training shares work across drivers (one negative pool for all of
//! them), and that sharing must not move a single byte of any model:
//! each driver still interns the pool into its own vocabulary in the
//! order a lone `train_driver` call would. The digests below pin the
//! output of the one-driver-at-a-time trainer; a change to them is an
//! output change and must be declared as one.

use etap::{driverfile, persist, DriverSet, DriverSpec, Etap, EtapConfig};
use etap_corpus::{SyntheticWeb, WebConfig};

/// `(driver key, FNV-1a-64 of the persisted MODEL text)`, in training
/// order.
const GOLDEN: [(&str, u64); 5] = [
    ("mergers_acquisitions", 0x6aac_87c7_1b4b_5396),
    ("change_in_management", 0x29c2_faab_d9a5_161d),
    ("revenue_growth", 0x5a8a_52da_b2fc_9b18),
    ("funding-rounds", 0xfe8b_08bd_e463_57c5),
    ("executive-hires", 0x92fd_c253_0fe4_21b2),
];

#[test]
fn trained_model_files_match_the_pinned_digests() {
    let mut specs = DriverSpec::all_builtin();
    specs.extend(
        driverfile::load_str(include_str!("../../../drivers/extra.drivers"))
            .expect("parse drivers/extra.drivers"),
    );
    let web = SyntheticWeb::generate(WebConfig {
        total_docs: 500,
        seed: 0x60_1DE1,
        drivers: DriverSet::all_registered(),
        ..WebConfig::default()
    });
    let mut config = EtapConfig::paper();
    config.training.top_docs_per_query = 40;
    config.training.negative_snippets = 500;
    config.training.pure_positives = 10;
    config.drivers = specs;
    let trained = Etap::new(config).train(&web);

    let got: Vec<(String, u64)> = trained
        .drivers()
        .iter()
        .map(|d| {
            let text = persist::to_string(d);
            (
                d.spec.driver.id().to_string(),
                etap_persist::fnv1a64(text.as_bytes()),
            )
        })
        .collect();
    let want: Vec<(String, u64)> = GOLDEN.iter().map(|&(k, h)| (k.to_string(), h)).collect();
    assert_eq!(
        got,
        want,
        "MODEL digests moved; got:\n{}",
        got.iter()
            .map(|(k, h)| format!("    (\"{k}\", 0x{h:016x}),"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
