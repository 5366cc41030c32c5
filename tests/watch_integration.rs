//! End-to-end tests of the continuous-ingest watch daemon: supervised
//! cycles against a live server + generation store, deterministic
//! fault-injection replay, degraded mode and recovery.
//!
//! The fault registry is process-global, so every test that arms it
//! runs under [`fault_lock`] and resets the registry before returning.

use etap_repro::corpus::{SyntheticWeb, WebConfig};
use etap_repro::runtime::fault::{self, FaultPlan, TraceEntry};
use etap_repro::runtime::supervise::RetryPolicy;
use etap_repro::serve::{watch, GenerationStore, LeadSnapshot, ServeConfig, WatchConfig};
use etap_repro::{DriverSpec, Etap, EtapConfig, SalesDriver, TrainedEtap};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// Serialize tests that install the process-global fault registry.
fn fault_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn trained() -> Arc<TrainedEtap> {
    static TRAINED: OnceLock<Arc<TrainedEtap>> = OnceLock::new();
    Arc::clone(TRAINED.get_or_init(|| {
        let web = SyntheticWeb::generate(WebConfig {
            total_docs: 500,
            ..WebConfig::default()
        });
        let mut config = EtapConfig::paper();
        config.training.top_docs_per_query = 50;
        config.training.negative_snippets = 750;
        config.training.pure_positives = 10;
        config.drivers = vec![
            DriverSpec::builtin(SalesDriver::MergersAcquisitions),
            DriverSpec::builtin(SalesDriver::RevenueGrowth),
        ];
        Arc::new(Etap::new(config).train(&web))
    }))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("etap_watch_it_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// A quiet test server on an ephemeral port, storeless (the watch loop
/// owns persistence).
fn test_server(snapshot: Arc<LeadSnapshot>) -> etap_repro::serve::ServerHandle {
    let config = ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    };
    etap_repro::serve::start(&config, snapshot).expect("server start")
}

/// The full response to `GET target` on a fresh connection.
fn get(addr: SocketAddr, target: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let request = format!("GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes()).expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    response
}

/// Fast retry policy so injected failures don't slow the suite.
fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 3,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(5),
        jitter_seed: 0x5_0BE5,
    }
}

fn fast_config(cycles: u64, threads: usize) -> WatchConfig {
    WatchConfig {
        interval: Duration::ZERO,
        cycles: Some(cycles),
        poll_docs: 30,
        poll_seed: 99,
        threads,
        stage_timeout: Duration::from_secs(60),
        retry: fast_retry(),
        degrade_after: 2,
        prior_blend: 0.1,
        drivers: etap_repro::DriverSet::default(),
    }
}

/// Seal generation 1 into a fresh store (fault-free) and return
/// everything a watch run needs.
fn seeded_store(tag: &str) -> (PathBuf, GenerationStore, Arc<LeadSnapshot>) {
    let root = temp_dir(tag);
    let store = GenerationStore::open(&root)
        .expect("open")
        .with_retention(16);
    let crawl = SyntheticWeb::generate(WebConfig {
        seed: watch::poll_batch_seed(99, 1),
        ..WebConfig::with_docs(30)
    });
    let gen1 = Arc::new(LeadSnapshot::build(trained(), crawl.docs(), 1, 0));
    store.publish(&gen1).expect("seal generation 1");
    (root, store, gen1)
}

const REPLAY_SPEC: &str = "persist.write=io@0.1,corpus.poll=delay:2ms@0.5,retrain=panic@once";

/// One faulted watch run: returns the injection trace, the sealed
/// generations, and the newest sealed generation's `events.leads`
/// bytes.
fn faulted_run(tag: &str, threads: usize) -> (Vec<TraceEntry>, Vec<u64>, Vec<u8>) {
    let (root, store, gen1) = seeded_store(tag);
    let registry = fault::install(&FaultPlan::parse(REPLAY_SPEC, 42).expect("plan"));
    let server = test_server(gen1);
    let report = watch::run(&server, &store, &fast_config(4, threads));
    fault::reset();
    server.shutdown();

    let generations = store.generations().expect("list");
    let newest = *generations.last().expect("at least gen 1");
    assert_eq!(
        report.final_generation, newest,
        "served generation must equal the newest sealed one"
    );
    let bytes =
        std::fs::read(root.join(format!("gen-{newest}")).join("events.leads")).expect("events");
    let trace = registry.trace();
    let _ = std::fs::remove_dir_all(&root);
    (trace, generations, bytes)
}

#[test]
fn faulted_watch_replays_identically_across_thread_counts() {
    let _guard = fault_lock();
    let (trace1, gens1, bytes1) = faulted_run("replay_t1", 1);
    let (trace4, gens4, bytes4) = faulted_run("replay_t4", 4);

    assert!(
        !trace1.is_empty(),
        "the replay spec must actually inject something"
    );
    assert_eq!(
        trace1, trace4,
        "injection traces diverged across thread counts"
    );
    assert_eq!(gens1, gens4, "sealed generations diverged");
    assert_eq!(bytes1, bytes4, "newest sealed events.leads bytes diverged");
    // The @once panic arm fired exactly once.
    assert_eq!(
        trace1.iter().filter(|e| e.point == "retrain").count(),
        1,
        "retrain panic must fire exactly once: {trace1:?}"
    );
}

#[test]
fn watch_advances_generations_and_prunes_with_retention() {
    let _guard = fault_lock();
    fault::reset();
    let (root, _store, gen1) = seeded_store("advance");
    let store = GenerationStore::open(&root)
        .expect("reopen")
        .with_retention(2);
    let server = test_server(gen1);
    let report = watch::run(&server, &store, &fast_config(3, 0));
    // Every finished stage thread was joined: none is left alive.
    let metrics = get(server.addr(), "/metrics");
    server.shutdown();
    assert!(
        metrics.lines().any(|l| l == "etap_watch_stage_threads 0"),
        "{metrics}"
    );

    assert_eq!(report.cycles, 3);
    assert_eq!(report.cycles_failed, 0, "{:?}", report.last_error);
    assert_eq!(report.final_generation, 4);
    assert!(!report.degraded);
    // Retention 2: only the newest two generations survive.
    assert_eq!(store.generations().expect("list"), vec![3, 4]);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn failing_publishes_degrade_without_swapping_then_recover() {
    let _guard = fault_lock();
    let (root, store, gen1) = seeded_store("degrade");
    let server = test_server(Arc::clone(&gen1));

    // Every store publish fails: cycles exhaust retries, and after
    // `degrade_after` consecutive failures the loop reports degraded.
    fault::install(&FaultPlan::parse("store.publish=io", 7).expect("plan"));
    let report = watch::run(&server, &store, &fast_config(3, 0));
    fault::reset();

    assert_eq!(report.cycles_failed, 3);
    assert!(report.degraded, "3 failed cycles past degrade_after=2");
    assert!(report.retries >= 2, "publish must have been retried");
    // The invariant under failure: nothing was sealed, nothing swapped.
    assert_eq!(store.generations().expect("list"), vec![1]);
    assert_eq!(server.snapshot().generation, 1);
    assert_eq!(
        server
            .metrics()
            .watch_degraded
            .load(std::sync::atomic::Ordering::Relaxed),
        1,
        "degraded gauge must be raised"
    );

    // Faults cleared: the next cycle succeeds and clears degraded mode.
    let report = watch::run(&server, &store, &fast_config(1, 0));
    assert_eq!(report.cycles_failed, 0, "{:?}", report.last_error);
    assert!(!report.degraded, "one good cycle clears degraded mode");
    assert_eq!(report.final_generation, 2);
    assert_eq!(store.generations().expect("list"), vec![1, 2]);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn restarted_watch_repolls_the_same_batch_for_a_generation() {
    let _guard = fault_lock();
    fault::reset();
    // Run one cycle from gen 1 in two independent daemons ("restart"):
    // both must seal a byte-identical generation 2, because the poll
    // batch for a generation is a pure function of (poll_seed, gen).
    let mut sealed = Vec::new();
    for tag in ["restart_a", "restart_b"] {
        let (root, store, gen1) = seeded_store(tag);
        let server = test_server(gen1);
        let report = watch::run(&server, &store, &fast_config(1, 0));
        server.shutdown();
        assert_eq!(report.final_generation, 2, "{:?}", report.last_error);
        sealed.push(std::fs::read(root.join("gen-2").join("events.leads")).expect("events"));
        let _ = std::fs::remove_dir_all(&root);
    }
    assert_eq!(sealed[0], sealed[1], "restarted daemon drifted");
}
