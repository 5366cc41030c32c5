//! The "drivers as data" contract, end to end: the two shipped example
//! drivers (funding rounds, executive hires) run the **full loop** —
//! corpus generation → training → LEADS v2 publish → mmap warm start →
//! HTTP serving — purely from the committed `drivers/extra.drivers`
//! file, with zero driver-specific Rust.

use etap_repro::serve::{GenerationStore, LeadSnapshot, LeadsFormat, ServeConfig};
use etap_repro::system::driverfile;
use etap_repro::{DriverSet, Etap, EtapConfig, SalesDriver, SyntheticWeb, TrainedEtap, WebConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

fn drivers_file() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("drivers")
        .join("extra.drivers")
}

/// Load the committed driver pack exactly once per test binary (the
/// registry is process-global; `load` is idempotent but the specs only
/// need building once) and train both custom drivers on a synthetic
/// web that includes their trigger genres.
fn trained_custom() -> Arc<TrainedEtap> {
    static TRAINED: OnceLock<Arc<TrainedEtap>> = OnceLock::new();
    Arc::clone(TRAINED.get_or_init(|| {
        let specs = driverfile::load(&drivers_file()).expect("load drivers/extra.drivers");
        assert_eq!(specs.len(), 2, "the shipped pack has two drivers");
        let web = SyntheticWeb::generate(WebConfig {
            total_docs: 900,
            drivers: DriverSet::all_registered(),
            ..WebConfig::default()
        });
        let mut config = EtapConfig::paper();
        config.training.top_docs_per_query = 50;
        config.training.negative_snippets = 900;
        config.training.pure_positives = 10;
        config.drivers = specs;
        Arc::new(Etap::new(config).train(&web))
    }))
}

fn custom_crawl(seed: u64) -> SyntheticWeb {
    SyntheticWeb::generate(WebConfig {
        total_docs: 120,
        seed,
        drivers: DriverSet::all_registered(),
        ..WebConfig::default()
    })
}

fn get(addr: SocketAddr, target: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(
            format!("GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .expect("write");
    let mut out = Vec::new();
    stream.read_to_end(&mut out).expect("read");
    let response = String::from_utf8_lossy(&out).into_owned();
    let status = response
        .split(' ')
        .nth(1)
        .and_then(|c| c.parse().ok())
        .expect("status line");
    let body = response
        .split_once("\r\n\r\n")
        .map_or(String::new(), |(_, b)| b.to_string());
    (status, body)
}

#[test]
fn example_drivers_file_round_trips_and_matches_the_emitter() {
    let text = std::fs::read_to_string(drivers_file()).expect("read committed file");
    // The committed file is exactly what the codec emits today — the
    // checksum trailer and all (it is machine-written by
    // `etap-cli example-drivers`).
    assert_eq!(text, driverfile::to_string(&driverfile::example_defs()));
    let defs = driverfile::parse_defs(&text).expect("parse");
    assert_eq!(defs[0].key, "funding-rounds");
    assert_eq!(defs[1].key, "executive-hires");
}

#[test]
fn custom_drivers_identify_events_from_the_data_file_alone() {
    let trained = trained_custom();
    let funding: SalesDriver = "funding-rounds".parse().expect("registered");
    let hires: SalesDriver = "executive-hires".parse().expect("registered");

    let crawl = custom_crawl(41);
    let events = trained.identify_events_parallel(crawl.docs(), 0);
    let funding_events = events.iter().filter(|e| e.driver == funding).count();
    let hire_events = events.iter().filter(|e| e.driver == hires).count();
    assert!(funding_events > 0, "no funding-rounds events identified");
    assert!(hire_events > 0, "no executive-hires events identified");

    // The classifiers discriminate: a canonical trigger scores above
    // the 0.5 decision line, background below it.
    let s = trained
        .score_snippet(
            funding,
            "Acme Corp raised $25 million in a funding round led by Beta Ltd.",
        )
        .expect("trained model");
    assert!(s > 0.5, "{s}");
    let b = trained
        .score_snippet(
            funding,
            "Simmer the sauce for twenty minutes, stirring occasionally.",
        )
        .expect("trained model");
    assert!(b < 0.5, "{b}");
}

#[test]
fn custom_driver_leads_survive_v2_publish_restart_and_threads() {
    let trained = trained_custom();
    let crawl = custom_crawl(43);

    let root =
        std::env::temp_dir().join(format!("etap_drivers_integration_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = GenerationStore::open(&root)
        .expect("open store")
        .with_leads_format(LeadsFormat::Binary { shards: 4 });

    // Publish generation 1 as sharded LEADS v2 (custom driver codes
    // travel in the book's code table).
    let snapshot = Arc::new(LeadSnapshot::build(
        Arc::clone(&trained),
        crawl.docs(),
        1,
        1,
    ));
    store.publish(&snapshot).expect("publish v2");

    // Warm start from disk (mmap path) and serve.
    let (restored, skipped) = store.load_latest().expect("scan").expect("generation");
    assert!(skipped.is_empty(), "{skipped:?}");
    let server = etap_repro::serve::start(&ServeConfig::default(), Arc::new(restored))
        .expect("start server");
    let addr = server.addr();
    let (status, first) = get(addr, "/leads?driver=funding-rounds&top=50");
    assert_eq!(status, 200);
    assert!(
        first.contains("\"driver\":\"funding-rounds\",\"score\":"),
        "no funding-rounds leads served: {first}"
    );
    let (status, hires_body) = get(addr, "/leads?driver=executive-hires&top=50");
    assert_eq!(status, 200);
    assert!(
        hires_body.contains("\"driver\":\"executive-hires\",\"score\":"),
        "no executive-hires leads served: {hires_body}"
    );
    server.shutdown();

    // Restart from the same store: byte-identical /leads.
    let (restored, _) = store.load_latest().expect("scan").expect("generation");
    let server = etap_repro::serve::start(&ServeConfig::default(), Arc::new(restored))
        .expect("restart server");
    let (_, after_restart) = get(server.addr(), "/leads?driver=funding-rounds&top=50");
    assert_eq!(after_restart, first, "restart changed the served bytes");
    server.shutdown();

    // Thread-count determinism: a 4-thread build of the same snapshot
    // serves the same bytes as the 1-thread build.
    let snapshot4 = Arc::new(LeadSnapshot::build(
        Arc::clone(&trained),
        crawl.docs(),
        1,
        4,
    ));
    let server = etap_repro::serve::start(&ServeConfig::default(), snapshot4)
        .expect("start threads=4 server");
    let (_, threaded) = get(server.addr(), "/leads?driver=funding-rounds&top=50");
    assert_eq!(threaded, first, "thread count changed the served bytes");
    server.shutdown();

    let _ = std::fs::remove_dir_all(&root);
}
