//! # etap-serve — the lead-serving front end
//!
//! ETAP's offline pipeline ends with ranked trigger events; this crate
//! puts them behind a network API. It is a **zero-dependency** HTTP/1.1
//! server over `std::net` (no tokio, no hyper — consistent with the
//! workspace's empty-registry build policy) shaped for the ROADMAP's
//! production-serving north star:
//!
//! * **Immutable snapshots, hot-swapped** — queries are answered from a
//!   [`LeadSnapshot`] (trained models + frozen [`etap::LeadBook`]
//!   rankings) published atomically through a [`SnapshotCell`];
//!   re-training or re-scanning never blocks reads and no response ever
//!   mixes generations.
//! * **Backpressure, not buffering** — a bounded accept queue
//!   (`etap-runtime`'s [`Bounded`](etap_runtime::Bounded)) sheds excess
//!   load with `503 Retry-After`.
//! * **Deadlines** — every request has one (`ETAP_SERVE_DEADLINE_MS`),
//!   covering queue wait, socket reads, handling, and the response
//!   write.
//! * **Observability** — `GET /metrics` exposes request counts,
//!   latency quantiles (p50/p95/p99), queue depth, shed count and the
//!   live snapshot generation as plain text.
//!
//! ## Endpoints
//!
//! | route | description |
//! |-------|-------------|
//! | `GET /leads?driver=&top=` | ranked trigger events (all drivers or one) |
//! | `GET /companies?top=` | Eq. 2 `MRR(c)` company ranking |
//! | `GET /companies/<name>/events` | one company's events (alias-resolved) |
//! | `POST /score?driver=` | score raw snippet text (body = text) |
//! | `GET /healthz` | liveness |
//! | `GET /metrics` | plain-text metrics exposition |
//!
//! ## Quick start
//!
//! ```no_run
//! use etap::{Etap, EtapConfig};
//! use etap_corpus::{SyntheticWeb, WebConfig};
//! use etap_serve::{LeadSnapshot, ServeConfig};
//! use std::sync::Arc;
//!
//! let web = SyntheticWeb::generate(WebConfig::with_docs(600));
//! let trained = Arc::new(Etap::new(EtapConfig::paper()).train(&web));
//! let crawl = SyntheticWeb::generate(WebConfig { seed: 7, ..WebConfig::with_docs(200) });
//! let snapshot = Arc::new(LeadSnapshot::build(trained, crawl.docs(), 1, 0));
//! let server = etap_serve::start(&ServeConfig::from_env(), snapshot).unwrap();
//! println!("serving on http://{}", server.addr());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod http;
pub mod json;
pub mod metrics;
pub mod server;
pub mod snapshot;
pub mod store;
pub mod watch;

pub use metrics::{Histogram, Metrics};
pub use server::{start, ServeConfig, ServerHandle};
pub use snapshot::{parse_driver, LeadSnapshot, SnapshotCell};
pub use store::{GenerationStore, LeadsFormat, PublishOutcome, StoreError};
pub use watch::{WatchConfig, WatchReport};
