//! The continuous-ingest watch loop: the paper's *daily alert* cycle
//! (re-crawl → identify fresh events → re-publish leads) as a
//! supervised, crash-safe daemon.
//!
//! Each cycle runs four stages under the [`Supervisor`]'s per-stage
//! timeout + bounded-retry policy:
//!
//! ```text
//! poll ──▶ extend ──▶ retrain ──▶ publish ──▶ hot-swap
//!  │          │          │           │
//!  └──────────┴──────────┴───────────┴── fault seams: corpus.poll,
//!      retrain, store.publish, persist.write (ETAP_FAULTS)
//! ```
//!
//! * **poll** — fetch the next batch of documents. The batch seed is
//!   derived deterministically from `(poll_seed, generation)`, so a
//!   crashed-and-restarted daemon re-polls the *identical* batch for
//!   the generation it was building — replay, not drift.
//! * **extend** — delta-scan only the fresh documents and merge into
//!   the served book ([`LeadSnapshot::extend`]; bit-identical to a full
//!   rebuild). The new book shares every sealed segment of the served
//!   one — still mapped, on a binary store — and seals only its delta,
//!   laid out as the publish will lay it out on disk, so the stage
//!   costs in proportion to the poll rather than to the book.
//! * **retrain** — incremental prior adaptation: blend each driver's
//!   class prior toward the trigger rate observed in this batch
//!   ([`etap::TrainedEtap::with_adapted_priors`]). Skipped when
//!   `prior_blend == 0`.
//! * **publish** — seal the generation in the [`GenerationStore`]
//!   (tmp dir → manifest last → rename). Only after the store publish
//!   succeeds does the snapshot hot-swap live; the serving generation
//!   therefore never runs ahead of the last sealed one, which is what
//!   makes kill -9 at any instant recoverable.
//!
//! A cycle that exhausts retries marks the cycle failed; after
//! `degrade_after` consecutive failures the loop enters **degraded
//! mode** — the last sealed generation keeps serving, `/healthz`
//! reports `"degraded"`, and `etap_watch_degraded` is 1 — and keeps
//! cycling. The first fully successful cycle clears the flag.

use crate::server::ServerHandle;
use crate::snapshot::LeadSnapshot;
use crate::store::GenerationStore;
use etap_corpus::{SyntheticDoc, SyntheticWeb, WebConfig};
use etap_runtime::supervise::{RetryPolicy, StageError, Supervisor};
use etap_runtime::{fault, splitmix64, Stage};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Perf stages mirroring the supervisor's cycle stages (no-ops unless
/// `ETAP_PERF=1`). The supervisor measures wall-clock per *attempt* for
/// retry/timeout policy; these accumulate total time per stage across a
/// whole run, which the traced `e2ebench` reports per cycle as
/// `watch.{poll,extend,retrain,publish}_ms`.
static STAGE_POLL: Stage = Stage::new("watch.poll");
static STAGE_EXTEND: Stage = Stage::new("watch.extend");
static STAGE_RETRAIN: Stage = Stage::new("watch.retrain");
static STAGE_PUBLISH: Stage = Stage::new("watch.publish");

/// Watch-loop knobs.
#[derive(Debug, Clone)]
pub struct WatchConfig {
    /// Pause between cycles (the "daily" in daily alert; compressed for
    /// tests and chaos runs).
    pub interval: Duration,
    /// Cycles to run before returning; `None` = run forever.
    pub cycles: Option<u64>,
    /// Documents polled per cycle.
    pub poll_docs: usize,
    /// Master seed of the poll stream; batch `g` draws from a stream
    /// derived from `(poll_seed, g)`.
    pub poll_seed: u64,
    /// Worker threads for the delta scan (`0` = `ETAP_THREADS`).
    pub threads: usize,
    /// Per-stage timeout.
    pub stage_timeout: Duration,
    /// Retry/backoff policy shared by all stages.
    pub retry: RetryPolicy,
    /// Consecutive failed cycles before degraded mode.
    pub degrade_after: u64,
    /// Prior-adaptation blend factor in `[0, 1]`; 0 disables the
    /// retrain stage entirely.
    pub prior_blend: f64,
    /// Drivers the polled synthetic web writes about (default: the
    /// three built-ins). A daemon serving registered custom drivers
    /// sets this so fresh batches contain their trigger genres.
    pub drivers: etap_corpus::DriverSet,
}

impl Default for WatchConfig {
    fn default() -> Self {
        Self {
            interval: Duration::from_secs(60),
            cycles: None,
            poll_docs: 80,
            poll_seed: 0x0011_A7C4,
            threads: 0,
            stage_timeout: Duration::from_secs(120),
            retry: RetryPolicy::default(),
            degrade_after: 3,
            prior_blend: 0.1,
            drivers: etap_corpus::DriverSet::default(),
        }
    }
}

/// What one finished watch run did (for logs, tests and benches).
#[derive(Debug, Clone, Default)]
pub struct WatchReport {
    /// Cycles attempted.
    pub cycles: u64,
    /// Cycles that exhausted retries on some stage.
    pub cycles_failed: u64,
    /// Stage retries across the run.
    pub retries: u64,
    /// Generation served when the run ended.
    pub final_generation: u64,
    /// Whether the loop ended in degraded mode.
    pub degraded: bool,
    /// Per-cycle wall-clock durations (successful cycles only).
    pub cycle_durations: Vec<Duration>,
    /// Last stage error message, if any cycle failed.
    pub last_error: Option<String>,
}

/// The poll seed for one generation: deterministic in
/// `(poll_seed, generation)` so a restarted daemon re-polls the same
/// batch for the generation it was building.
#[must_use]
pub fn poll_batch_seed(poll_seed: u64, generation: u64) -> u64 {
    let mut s = poll_seed ^ generation.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    splitmix64(&mut s)
}

/// Run the watch loop against a server and its generation store until
/// `config.cycles` cycles have completed (or forever when `None`).
///
/// The server should be started *without* its own store — the watch
/// loop owns persistence, publishing to `store` first and hot-swapping
/// only on success. (A server-side store would re-persist on swap,
/// doing the same write twice.)
pub fn run(server: &ServerHandle, store: &GenerationStore, config: &WatchConfig) -> WatchReport {
    let mut supervisor = Supervisor::new(config.retry.clone(), config.degrade_after);
    let stats = supervisor.stats();
    let mut report = WatchReport::default();

    loop {
        if let Some(limit) = config.cycles {
            if report.cycles >= limit {
                break;
            }
        }
        let started = Instant::now();
        let base = server.snapshot();
        let generation = base.generation + 1;

        match run_cycle(server, store, config, &mut supervisor, &base, generation) {
            Ok(()) => {
                supervisor.complete_cycle(true);
                report.cycle_durations.push(started.elapsed());
            }
            Err((stage, err)) => {
                supervisor.complete_cycle(false);
                report.cycles_failed += 1;
                let msg = format!("cycle {generation} stage {stage}: {err}");
                eprintln!("watch: {msg}");
                report.last_error = Some(msg);
            }
        }
        report.cycles += 1;

        // Mirror supervision + fault state into the served metrics.
        let m = server.metrics();
        m.watch_cycles_total.store(
            stats.cycles_total.load(Ordering::Relaxed),
            Ordering::Relaxed,
        );
        m.watch_retries_total.store(
            stats.retries_total.load(Ordering::Relaxed),
            Ordering::Relaxed,
        );
        m.watch_stage_threads.store(
            stats.stage_threads.load(Ordering::SeqCst),
            Ordering::Relaxed,
        );
        m.watch_degraded
            .store(u64::from(stats.is_degraded()), Ordering::Relaxed);
        m.faults_injected_total
            .store(fault::injected_total(), Ordering::Relaxed);

        let more = config.cycles.is_none_or(|limit| report.cycles < limit);
        if more && !config.interval.is_zero() {
            std::thread::sleep(config.interval);
        }
    }

    report.retries = stats.retries_total.load(Ordering::Relaxed);
    report.degraded = stats.is_degraded();
    report.final_generation = server.snapshot().generation;
    report
}

/// One ingest cycle; returns the failing stage's name with its error.
fn run_cycle(
    server: &ServerHandle,
    store: &GenerationStore,
    config: &WatchConfig,
    supervisor: &mut Supervisor,
    base: &Arc<LeadSnapshot>,
    generation: u64,
) -> Result<(), (&'static str, StageError)> {
    let timeout = config.stage_timeout;

    // poll — fetch this generation's document batch.
    let poll_docs = config.poll_docs;
    let poll_drivers = config.drivers;
    let batch_seed = poll_batch_seed(config.poll_seed, generation);
    let docs: Arc<Vec<SyntheticDoc>> = {
        let _t = STAGE_POLL.scope();
        Arc::new(
            supervisor
                .stage("poll", timeout, move || {
                    fault::check_stage("corpus.poll")?;
                    let web = SyntheticWeb::generate(WebConfig {
                        seed: batch_seed,
                        drivers: poll_drivers,
                        ..WebConfig::with_docs(poll_docs)
                    });
                    Ok(web.into_docs())
                })
                .map_err(|e| ("poll", e))?,
        )
    };

    // extend — delta-scan the fresh documents only.
    let extended: Arc<LeadSnapshot> = {
        let _t = STAGE_EXTEND.scope();
        let base = Arc::clone(base);
        let docs = Arc::clone(&docs);
        let threads = config.threads;
        Arc::new(
            supervisor
                .stage("extend", timeout, move || {
                    Ok(LeadSnapshot::extend(&base, &docs, generation, threads))
                })
                .map_err(|e| ("extend", e))?,
        )
    };

    // retrain — blend observed trigger rates into the class priors.
    let next: Arc<LeadSnapshot> = if config.prior_blend > 0.0 {
        let _t = STAGE_RETRAIN.scope();
        let prev = Arc::clone(base);
        let snap = Arc::clone(&extended);
        let blend = config.prior_blend;
        let batch = poll_docs.max(1) as f64;
        Arc::new(
            supervisor
                .stage("retrain", timeout, move || {
                    fault::check_stage("retrain")?;
                    // Fresh events per driver = this batch's counts
                    // (extended book minus the base book).
                    let rates: Vec<f64> = snap
                        .trained
                        .drivers()
                        .iter()
                        .map(|d| {
                            let driver = d.spec.driver;
                            let after = snap.book.driver_total(driver);
                            let before = prev.book.driver_total(driver);
                            (after.saturating_sub(before)) as f64 / batch
                        })
                        .collect();
                    Ok(LeadSnapshot {
                        generation: snap.generation,
                        book: snap.book.clone(),
                        trained: Arc::new(snap.trained.with_adapted_priors(&rates, blend)),
                    })
                })
                .map_err(|e| ("retrain", e))?,
        )
    } else {
        extended
    };

    // publish — seal on disk first; swap live only on success.
    let outcome = {
        let _t = STAGE_PUBLISH.scope();
        let snap = Arc::clone(&next);
        let root = store.root().to_path_buf();
        let retention = store.retention();
        let format = store.leads_format();
        let serving = base.generation;
        supervisor
            .stage("publish", timeout, move || {
                // Re-open per attempt: the stage closure must own its
                // captures, and opening is one mkdir -p stat.
                let store = GenerationStore::open(&root).map_err(|e| e.to_string())?;
                let store = match retention {
                    Some(keep) => store.with_retention(keep),
                    None => store,
                };
                let store = store.with_leads_format(format);
                // The generation still being served must survive the
                // retention prune this publish triggers (the pin table
                // is process-global, so it holds across the re-open).
                store.pin(serving);
                store.publish(&snap).map_err(|e| e.to_string())
            })
            .map_err(|e| ("publish", e))?
    };
    server.metrics().record_publish(&outcome);
    server.publish_snapshot(next);
    // The pin follows the served generation forward, releasing the old
    // one to the next prune.
    store.pin(generation);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poll_batch_seed_is_deterministic_and_spread() {
        assert_eq!(poll_batch_seed(7, 3), poll_batch_seed(7, 3));
        assert_ne!(poll_batch_seed(7, 3), poll_batch_seed(7, 4));
        assert_ne!(poll_batch_seed(7, 3), poll_batch_seed(8, 3));
    }
}
