//! # etap-runtime — zero-dependency execution substrate
//!
//! The execution ingredients every other ETAP crate leans on, built entirely
//! from `std` so the workspace compiles with an **empty cargo registry**
//! (air-gapped CI, vendorless checkouts):
//!
//! * [`rng`] — a seeded, reproducible PRNG (SplitMix64 seeding a
//!   xoshiro256\*\* generator) replacing the external `rand` crate. Same
//!   seeds → same streams, forever, on every platform.
//! * [`par`] — deterministic fan-out over OS threads
//!   (`std::thread::scope`, no rayon). Work is cut into *fixed-size*
//!   chunks whose results are merged back in input order, so the output
//!   is bit-identical for **any** thread count, including 1.
//! * [`pool`] — a bounded MPMC work queue with fail-fast pushes plus a
//!   long-lived [`WorkerPool`], the streaming complement to [`par`]'s
//!   batch fan-out (used by `etap-serve` for request handling and load
//!   shedding).
//! * [`fault`] — deterministic fault injection: named seams in the
//!   persist/serve/ingest layers consult a seeded registry (configured
//!   via `ETAP_FAULTS`) so every failure-recovery path replays
//!   identically from a spec + seed.
//! * [`hash`] — FNV-1a 64, the one deterministic hash (checksums, fault
//!   streams, vocabulary maps).
//! * [`perf`] — scoped stage timers (`ETAP_PERF`) aggregating per-stage
//!   wall-clock across threads; one relaxed atomic load when disabled,
//!   so the pipeline keeps its timers compiled in permanently.
//! * [`supervise`] — per-stage timeout + bounded retries with
//!   exponential backoff and deterministic jitter, escalating to a
//!   degraded mode after consecutive failed cycles (the control loop
//!   under `etap-cli watch`).
//!
//! ## Determinism contract
//!
//! Parallel code in this workspace must never share one RNG between
//! workers. Instead, derive one independent stream per chunk from the
//! master seed ([`rng::Rng::stream`]) and merge chunk results in chunk
//! order. Because the chunk size is fixed (not derived from the thread
//! count), `ETAP_THREADS=1` and `ETAP_THREADS=64` produce byte-identical
//! results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod hash;
pub mod par;
pub mod perf;
pub mod pool;
pub mod rng;
pub mod supervise;

pub use fault::{FaultKind, FaultPlan, FaultRegistry};
pub use par::{
    max_threads, par_chunk_map, par_chunk_map_with, par_map, par_map_with, resolve_threads,
};
pub use perf::{PerfReport, Stage, StageGuard, StageStats};
pub use pool::{Bounded, PushError, WorkerPool};
pub use rng::{splitmix64, Rng};
pub use supervise::{RetryPolicy, StageError, Supervisor, SupervisorStats};
