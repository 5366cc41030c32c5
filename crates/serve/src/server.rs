//! The serving loop: accept → bounded queue → worker pool → route.
//!
//! Architecture (all `std`, see DESIGN.md "Serving"):
//!
//! ```text
//!             ┌────────────┐   try_push    ┌──────────────┐
//!  accept ───▶│  acceptor  │──────────────▶│ Bounded queue │──▶ workers (etap-runtime pool)
//!             │   thread   │  full? ──▶ 503│  (capacity N) │      │ read → route → write
//!             └────────────┘   Retry-After └──────────────┘      ▼
//!                                                           SnapshotCell (Arc swap)
//! ```
//!
//! * **Backpressure**: the accept queue is bounded; when full the
//!   acceptor *sheds* the connection immediately with `503` +
//!   `Retry-After` instead of queueing unboundedly. Shed responses cost
//!   one small write on the acceptor thread — the workers never see the
//!   connection.
//! * **Deadlines**: every request carries one deadline from the moment
//!   it is accepted (`ETAP_SERVE_DEADLINE_MS`). Queue wait counts
//!   against it: a request that expires while queued is answered `503`
//!   without being read; a socket that stalls mid-request gets `408`.
//! * **Hot swap**: each request loads the published snapshot `Arc`
//!   exactly once and answers entirely from it, so responses are always
//!   internally consistent with a single generation.
//! * **Graceful shutdown**: stop accepting, drain the queue, join the
//!   workers; in-flight requests complete.

use crate::http::{self, status, Request, RequestError, Status};
use crate::json::JsonWriter;
use crate::metrics::Metrics;
use crate::snapshot::{parse_driver, LeadSnapshot, SnapshotCell};
use crate::store::GenerationStore;
use etap::{CompanyRef, EventView, IcpConfig};
use etap_runtime::pool::{Bounded, PushError, WorkerPool};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Server tuning knobs; every field has an `ETAP_SERVE_*` environment
/// override (see [`ServeConfig::from_env`]).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads (`0` = `max(2, ETAP_THREADS)`).
    pub workers: usize,
    /// Accept-queue capacity; beyond it connections are shed with 503.
    pub queue_capacity: usize,
    /// Per-request deadline (accept → response written), milliseconds.
    pub deadline_ms: u64,
    /// Maximum accepted request-body size, bytes (`413` beyond it).
    pub max_body_bytes: usize,
    /// Maximum requests served per connection before it is closed
    /// (`1` = no reuse, the pre-keep-alive behavior).
    pub keepalive_requests: usize,
    /// Generation-store directory; `Some` makes every publish durable
    /// and the initial snapshot persisted if not already stored.
    pub store: Option<PathBuf>,
    /// Generations retained by the store after each publish.
    pub store_keep: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            queue_capacity: 128,
            deadline_ms: 5_000,
            max_body_bytes: 64 * 1024,
            keepalive_requests: 64,
            store: None,
            store_keep: 4,
        }
    }
}

impl ServeConfig {
    /// Defaults overridden by `ETAP_SERVE_ADDR`, `ETAP_SERVE_WORKERS`,
    /// `ETAP_SERVE_QUEUE`, `ETAP_SERVE_DEADLINE_MS`,
    /// `ETAP_SERVE_MAX_BODY`, `ETAP_SERVE_KEEPALIVE`,
    /// `ETAP_SERVE_STORE`, `ETAP_SERVE_STORE_KEEP` (unparsable values
    /// keep the default).
    #[must_use]
    pub fn from_env() -> Self {
        let mut cfg = Self::default();
        if let Ok(v) = std::env::var("ETAP_SERVE_ADDR") {
            if !v.trim().is_empty() {
                cfg.addr = v.trim().to_string();
            }
        }
        let env_usize = |name: &str, default: usize| -> usize {
            std::env::var(name)
                .ok()
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(default)
        };
        cfg.workers = env_usize("ETAP_SERVE_WORKERS", cfg.workers);
        cfg.queue_capacity = env_usize("ETAP_SERVE_QUEUE", cfg.queue_capacity).max(1);
        cfg.deadline_ms = env_usize("ETAP_SERVE_DEADLINE_MS", cfg.deadline_ms as usize) as u64;
        cfg.max_body_bytes = env_usize("ETAP_SERVE_MAX_BODY", cfg.max_body_bytes);
        cfg.keepalive_requests = env_usize("ETAP_SERVE_KEEPALIVE", cfg.keepalive_requests).max(1);
        if let Ok(v) = std::env::var("ETAP_SERVE_STORE") {
            if !v.trim().is_empty() {
                cfg.store = Some(PathBuf::from(v.trim()));
            }
        }
        cfg.store_keep = env_usize("ETAP_SERVE_STORE_KEEP", cfg.store_keep).max(1);
        cfg
    }

    fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            etap_runtime::max_threads().max(2)
        }
    }
}

/// One accepted connection waiting for a worker.
struct Job {
    stream: TcpStream,
    accepted: Instant,
}

/// Shared state every worker and the acceptor see.
struct Ctx {
    cell: SnapshotCell,
    metrics: Metrics,
    queue_depth: Arc<Bounded<Job>>,
    workers: usize,
    deadline: Duration,
    max_body: usize,
    /// Requests-per-connection cap (1 = no keep-alive reuse).
    keepalive_requests: usize,
    /// Shutdown flag shared with the acceptor: once set, every response
    /// carries `Connection: close` so drained connections don't linger.
    stop: Arc<AtomicBool>,
}

/// A running server. Dropping the handle does **not** stop the server;
/// call [`shutdown`](Self::shutdown).
pub struct ServerHandle {
    addr: SocketAddr,
    ctx: Arc<Ctx>,
    queue: Arc<Bounded<Job>>,
    stop: Arc<AtomicBool>,
    generation: AtomicU64,
    store: Option<GenerationStore>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    pool: Option<WorkerPool>,
}

/// Bind, spawn the worker pool and acceptor, and return immediately.
///
/// With a configured generation store, the initial snapshot is
/// persisted at boot (unless its generation is already on disk — the
/// warm-start case) and every subsequent publish is persisted before
/// retention pruning. Store failures never take the server down; they
/// are counted in `etap_store_failures_total`.
///
/// # Errors
/// Propagates bind, thread-spawn, and store-open failures.
pub fn start(config: &ServeConfig, initial: Arc<LeadSnapshot>) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let workers = config.effective_workers();
    let queue: Arc<Bounded<Job>> = Arc::new(Bounded::new(config.queue_capacity));
    let stop = Arc::new(AtomicBool::new(false));

    // Retention lives in the store itself (satellite of the watch
    // work): every successful publish auto-prunes to `store_keep`, so
    // long-running loops cannot fill the disk even if they never call
    // prune explicitly.
    let store = match &config.store {
        Some(root) => Some(GenerationStore::open(root)?.with_retention(config.store_keep)),
        None => None,
    };

    let first_generation = initial.generation;
    let ctx = Arc::new(Ctx {
        cell: SnapshotCell::new(Arc::clone(&initial)),
        metrics: Metrics::default(),
        queue_depth: Arc::clone(&queue),
        workers,
        deadline: Duration::from_millis(config.deadline_ms.max(1)),
        max_body: config.max_body_bytes,
        keepalive_requests: config.keepalive_requests.max(1),
        stop: Arc::clone(&stop),
    });
    ctx.metrics
        .snapshot_generation
        .store(first_generation, Ordering::Relaxed);
    record_snapshot_gauges(&ctx.metrics, &initial);

    if let Some(store) = &store {
        let already_stored = store
            .generations()
            .map(|gens| gens.contains(&first_generation))
            .unwrap_or(false);
        if !already_stored {
            persist_best_effort(store, &initial, &ctx.metrics);
        }
        // Pin what we serve: retention pruning must never delete the
        // generation a live server has mapped.
        store.pin(first_generation);
    }

    let pool = {
        let ctx = Arc::clone(&ctx);
        WorkerPool::spawn("etap-serve", workers, &queue, move |job: Job| {
            let accepted = job.accepted;
            let caught =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handle_job(&ctx, job)));
            if caught.is_err() {
                // The stream died with the panic (the client sees a
                // dropped connection); surface it in /metrics so dead
                // requests are observable rather than silent.
                ctx.metrics
                    .worker_panics_total
                    .fetch_add(1, Ordering::Relaxed);
                ctx.metrics
                    .record_response(500, accepted.elapsed().as_micros() as u64);
            }
        })
    };

    let acceptor = {
        let queue = Arc::clone(&queue);
        let ctx = Arc::clone(&ctx);
        let stop = Arc::clone(&stop);
        std::thread::Builder::new()
            .name("etap-serve-accept".to_string())
            .spawn(move || accept_loop(&listener, &queue, &ctx, &stop))?
    };

    Ok(ServerHandle {
        addr,
        ctx,
        queue,
        stop,
        generation: AtomicU64::new(first_generation),
        store,
        acceptor: Some(acceptor),
        pool: Some(pool),
    })
}

/// Persist (retention pruning happens inside the store), absorbing
/// failures into a metric (a full disk must degrade durability, not
/// availability).
fn persist_best_effort(store: &GenerationStore, snapshot: &LeadSnapshot, metrics: &Metrics) {
    match store.publish(snapshot) {
        Ok(outcome) => metrics.record_publish(&outcome),
        Err(_) => {
            metrics.store_failures_total.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Refresh the per-snapshot gauges after a swap (or at boot).
fn record_snapshot_gauges(metrics: &Metrics, snapshot: &LeadSnapshot) {
    metrics
        .snapshot_bytes
        .store(snapshot.book.arena_bytes() as u64, Ordering::Relaxed);
    metrics
        .snapshot_heap_bytes
        .store(snapshot.book.heap_bytes() as u64, Ordering::Relaxed);
    metrics
        .mmap_generations
        .store(u64::from(snapshot.book.is_fully_mapped()), Ordering::Relaxed);
}

impl ServerHandle {
    /// The bound address (resolves ephemeral ports).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Publish a new book built by the caller — a `LeadBook`, sealed
    /// into heap arenas on the way in, or an already served
    /// `BookHandle` — assigning it the next generation number. Returns
    /// that generation. Never blocks readers beyond a pointer swap.
    pub fn publish(
        &self,
        book: impl Into<etap::BookHandle>,
        trained: Arc<etap::TrainedEtap>,
    ) -> u64 {
        let generation = self.generation.fetch_add(1, Ordering::SeqCst) + 1;
        let snapshot = Arc::new(LeadSnapshot {
            generation,
            book: book.into(),
            trained,
        });
        self.publish_snapshot(snapshot)
    }

    /// Publish a fully formed snapshot (the caller owns the generation
    /// number; it should exceed the current one). Returns its generation.
    ///
    /// With a configured store the snapshot is persisted (and old
    /// generations pruned) *before* it goes live, so a crash right
    /// after the swap can still warm-start from this generation.
    pub fn publish_snapshot(&self, snapshot: Arc<LeadSnapshot>) -> u64 {
        let generation = snapshot.generation;
        if let Some(store) = &self.store {
            persist_best_effort(store, &snapshot, &self.ctx.metrics);
        }
        self.generation.store(generation, Ordering::SeqCst);
        record_snapshot_gauges(&self.ctx.metrics, &snapshot);
        self.ctx.cell.publish(snapshot);
        self.ctx
            .metrics
            .snapshot_generation
            .store(generation, Ordering::Relaxed);
        if let Some(store) = &self.store {
            store.pin(generation);
        }
        generation
    }

    /// Strict-durability publish: persist to the configured store
    /// *first* and swap the snapshot live only if persistence
    /// succeeded. The continuous-ingest loop uses this so the serving
    /// generation never runs ahead of the last sealed on-disk
    /// generation — the invariant that makes kill -9 at any instant
    /// recoverable. With no store configured this is a plain swap.
    ///
    /// # Errors
    /// The store failure; the previously published snapshot stays live
    /// and the failure is also counted in `etap_store_failures_total`.
    pub fn publish_durable(&self, snapshot: Arc<LeadSnapshot>) -> io::Result<u64> {
        if let Some(store) = &self.store {
            match store.publish(&snapshot) {
                Ok(outcome) => self.ctx.metrics.record_publish(&outcome),
                Err(e) => {
                    self.ctx
                        .metrics
                        .store_failures_total
                        .fetch_add(1, Ordering::Relaxed);
                    return Err(e);
                }
            }
        }
        let generation = snapshot.generation;
        self.generation.store(generation, Ordering::SeqCst);
        record_snapshot_gauges(&self.ctx.metrics, &snapshot);
        self.ctx.cell.publish(snapshot);
        self.ctx
            .metrics
            .snapshot_generation
            .store(generation, Ordering::Relaxed);
        if let Some(store) = &self.store {
            store.pin(generation);
        }
        Ok(generation)
    }

    /// The generation store backing this server, when configured.
    #[must_use]
    pub fn store(&self) -> Option<&GenerationStore> {
        self.store.as_ref()
    }

    /// The currently published snapshot.
    #[must_use]
    pub fn snapshot(&self) -> Arc<LeadSnapshot> {
        self.ctx.cell.load()
    }

    /// Server metrics (live).
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.ctx.metrics
    }

    /// Stop accepting, drain queued and in-flight requests, join every
    /// thread. Idempotent-safe to call once (consumes the handle).
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        self.queue.close();
        if let Some(pool) = self.pool.take() {
            pool.join();
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    queue: &Arc<Bounded<Job>>,
    ctx: &Arc<Ctx>,
    stop: &AtomicBool,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => enqueue(stream, queue, ctx),
            Err(_) if !stop.load(Ordering::SeqCst) => {
                // Back off before retrying: a persistent accept error
                // (e.g. EMFILE under fd exhaustion) would otherwise
                // busy-spin this thread at 100% CPU.
                std::thread::sleep(Duration::from_millis(20));
                continue;
            }
            Err(_) => {}
        }
        if stop.load(Ordering::SeqCst) {
            // Every connection made before shutdown sits in the backlog
            // ahead of the wake-up connection. Drain it without
            // blocking, so the listener's drop resets none of them.
            if listener.set_nonblocking(true).is_ok() {
                while let Ok((stream, _)) = listener.accept() {
                    let _ = stream.set_nonblocking(false);
                    enqueue(stream, queue, ctx);
                }
            }
            return;
        }
    }
}

/// Hand an accepted connection to the worker pool, or shed it with a
/// 503 when the queue is full.
fn enqueue(stream: TcpStream, queue: &Bounded<Job>, ctx: &Ctx) {
    // Nagle would stall response n+1 on a kept-alive connection behind
    // the delayed ACK of response n; request/response exchanges want
    // immediate flushes.
    let _ = stream.set_nodelay(true);
    let job = Job {
        stream,
        accepted: Instant::now(),
    };
    match queue.try_push(job) {
        Ok(()) => {
            ctx.metrics.requests_total.fetch_add(1, Ordering::Relaxed);
        }
        Err(PushError::Full(job) | PushError::Closed(job)) => {
            // Shed at the gate: cheap fixed 503 on the acceptor thread;
            // workers never see the connection.
            ctx.metrics.shed_total.fetch_add(1, Ordering::Relaxed);
            let mut stream = job.stream;
            let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
            let _ = http::write_response(
                &mut stream,
                status::SERVICE_UNAVAILABLE,
                "text/plain; charset=utf-8",
                &[("Retry-After", "1")],
                b"queue full, retry\n",
                false,
            );
            // One short best-effort read to consume the request bytes
            // that typically arrived with the connection: closing with
            // unread data pending turns the close into an RST that can
            // destroy the 503 before the client reads it (the hazard
            // drain_request guards against on the worker path — a full
            // drain would stall the acceptor too long under overload).
            use std::io::Read as _;
            let _ = stream.set_read_timeout(Some(Duration::from_millis(5)));
            let mut scratch = [0u8; 4096];
            let _ = stream.read(&mut scratch);
            ctx.metrics
                .record_response(503, job.accepted.elapsed().as_micros() as u64);
        }
    }
}

fn handle_job(ctx: &Ctx, job: Job) {
    let Job {
        mut stream,
        accepted,
    } = job;
    // The keep-alive loop: each iteration serves one request/response
    // exchange with its own full deadline. The first request's clock
    // started at accept (queue wait counts against it); reused requests
    // start their clock here.
    let mut carry = Vec::new();
    for served in 0..ctx.keepalive_requests {
        let started = if served == 0 { accepted } else { Instant::now() };
        let last_allowed = served + 1 == ctx.keepalive_requests;
        match serve_one(ctx, &mut stream, started, &mut carry, last_allowed, served > 0) {
            ConnAction::KeepAlive => {}
            ConnAction::Close => return,
        }
    }
}

/// What to do with the connection after one exchange.
enum ConnAction {
    KeepAlive,
    Close,
}

/// Serve one request/response exchange on an established connection.
/// `reused` marks exchanges after the first (an idle peer that sends
/// nothing before the deadline is then a normal close, not a `408`).
fn serve_one(
    ctx: &Ctx,
    stream: &mut TcpStream,
    started: Instant,
    carry: &mut Vec<u8>,
    last_allowed: bool,
    reused: bool,
) -> ConnAction {
    let deadline = started + ctx.deadline;

    let finish = |code: u16| {
        ctx.metrics
            .record_response(code, started.elapsed().as_micros() as u64);
    };

    // Expired while queued → shed without reading a byte. A budget too
    // small to plausibly serve (< 5 ms) counts as expired: a zero
    // Duration is also not a valid socket timeout.
    let min_budget = Duration::from_millis(5);
    let now = Instant::now();
    if now + min_budget >= deadline {
        ctx.metrics.deadline_total.fetch_add(1, Ordering::Relaxed);
        let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
        let _ = http::write_response(
            stream,
            status::SERVICE_UNAVAILABLE,
            "text/plain; charset=utf-8",
            &[("Retry-After", "1")],
            b"deadline exceeded in queue\n",
            false,
        );
        finish(503);
        return ConnAction::Close;
    }

    // The remaining budget bounds both socket directions.
    let remaining = deadline - now;
    let _ = stream.set_read_timeout(Some(remaining));
    let _ = stream.set_write_timeout(Some(remaining.max(Duration::from_millis(100))));

    // Reused exchanges never passed the acceptor, so they are counted
    // here — but only once the peer actually sent something. An idle
    // kept-alive connection that times out or closes without a next
    // request is not a request and must not skew `etap_requests_total`
    // (the documented reconciliation: requests + shed = Σ responses +
    // in-flight).
    let count_reused = || {
        if reused {
            ctx.metrics.requests_total.fetch_add(1, Ordering::Relaxed);
            ctx.metrics
                .keepalive_reuses_total
                .fetch_add(1, Ordering::Relaxed);
        }
    };

    let request = match http::read_request(stream, ctx.max_body, carry) {
        Ok(req) => {
            count_reused();
            req
        }
        Err(err) => {
            let (st, body): (Status, String) = match err {
                RequestError::TimedOut if reused => {
                    // An idle kept-alive connection that never started
                    // its next request: close quietly — there is no
                    // request to answer or account for.
                    return ConnAction::Close;
                }
                RequestError::Closed if reused => return ConnAction::Close,
                RequestError::Malformed(msg) => {
                    count_reused();
                    (status::BAD_REQUEST, format!("malformed request: {msg}\n"))
                }
                RequestError::BodyTooLarge => {
                    count_reused();
                    (status::PAYLOAD_TOO_LARGE, "body too large\n".to_string())
                }
                RequestError::TimedOut => {
                    ctx.metrics.deadline_total.fetch_add(1, Ordering::Relaxed);
                    (status::REQUEST_TIMEOUT, "deadline exceeded\n".to_string())
                }
                RequestError::Closed | RequestError::Io(_) => {
                    count_reused();
                    finish(499); // nginx-style "client closed"; class 4xx
                    return ConnAction::Close;
                }
            };
            let _ = http::write_response(
                stream,
                st,
                "text/plain; charset=utf-8",
                &[],
                body.as_bytes(),
                false,
            );
            // Drain whatever request bytes are still in flight before
            // closing: closing with unread data pending makes the
            // kernel send RST, which can destroy the response before
            // the client reads it (observable on oversized bodies).
            drain_request(stream);
            finish(st.0);
            return ConnAction::Close;
        }
    };

    // The connection survives only when every party agrees: the client
    // asked for keep-alive, the per-connection cap has room, and the
    // server is not draining for shutdown.
    let keep_alive =
        request.keep_alive && !last_allowed && !ctx.stop.load(Ordering::SeqCst);

    let (st, content_type, headers, body) = route(ctx, &request);
    let header_refs: Vec<(&str, &str)> = headers
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .collect();
    let write_ok =
        http::write_response(stream, st, content_type, &header_refs, &body, keep_alive).is_ok();
    finish(st.0);
    if keep_alive && write_ok {
        ConnAction::KeepAlive
    } else {
        ConnAction::Close
    }
}

/// Discard pending request bytes (bounded in size and time) so the
/// subsequent close is a clean FIN rather than an RST.
fn drain_request(stream: &mut TcpStream) {
    use std::io::Read as _;
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let mut buf = [0u8; 4096];
    let mut seen = 0usize;
    while seen < 256 * 1024 {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => return,
            Ok(n) => seen += n,
        }
    }
}

type Response = (Status, &'static str, Vec<(String, String)>, Vec<u8>);

fn route(ctx: &Ctx, req: &Request) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            let snap = ctx.cell.load();
            // `ok` means "serving a sealed generation" — true even in
            // degraded mode (the last good snapshot stays live). The
            // `status` field is where the watch loop's supervision
            // state surfaces: "degraded" after N consecutive failed
            // ingest cycles, "healthy" otherwise.
            let degraded = ctx.metrics.watch_degraded.load(Ordering::Relaxed) != 0;
            let body = format!(
                "{{\"ok\": true, \"generation\": {}, \"status\": \"{}\"}}\n",
                snap.generation,
                if degraded { "degraded" } else { "healthy" }
            );
            json(status::OK, snap.generation, body)
        }
        ("GET", "/metrics") => {
            let body = ctx
                .metrics
                .exposition(ctx.queue_depth.len(), ctx.workers);
            (
                status::OK,
                "text/plain; charset=utf-8",
                Vec::new(),
                body.into_bytes(),
            )
        }
        ("GET", "/leads") => leads(ctx, req),
        ("GET", "/companies") => companies(ctx, req),
        ("POST", "/score") => score(ctx, req),
        ("GET", "/score") => icp(ctx, req),
        ("POST", "/leads" | "/companies" | "/healthz" | "/metrics") => text(
            status::METHOD_NOT_ALLOWED,
            "method not allowed\n",
        ),
        ("GET", path) => match company_events_name(path) {
            Some(name) => company_events(ctx, name),
            None => text(status::NOT_FOUND, "not found\n"),
        },
        _ => text(status::NOT_FOUND, "not found\n"),
    }
}

/// `/companies/<name>/events` → `<name>`. `None` for anything else,
/// including an empty name and the degenerate `/companies/events`,
/// where the prefix and suffix overlap — slicing by their lengths
/// there would compute an inverted range and panic the worker.
fn company_events_name(path: &str) -> Option<&str> {
    let name = path.strip_prefix("/companies/")?.strip_suffix("/events")?;
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

fn text(st: Status, body: &str) -> Response {
    (
        st,
        "text/plain; charset=utf-8",
        Vec::new(),
        body.as_bytes().to_vec(),
    )
}

/// JSON error body: `{"error": "..."}`. API failures that clients act
/// on programmatically (unknown driver keys, bad parameters) get
/// machine-readable bodies, not prose.
fn json_error(st: Status, msg: &str) -> Response {
    let mut w = JsonWriter::new();
    w.begin_object().key("error").string(msg).end_object();
    (
        st,
        "application/json",
        Vec::new(),
        w.finish().into_bytes(),
    )
}

fn json(st: Status, generation: u64, body: String) -> Response {
    (
        st,
        "application/json",
        vec![("X-Etap-Generation".to_string(), generation.to_string())],
        body.into_bytes(),
    )
}

fn parse_top(req: &Request, default: usize) -> Result<usize, Response> {
    match req.param("top") {
        None => Ok(default),
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| text(status::BAD_REQUEST, "bad top parameter\n")),
    }
}

fn write_event(w: &mut JsonWriter, rank: usize, e: EventView<'_>, icp: Option<&IcpConfig>) {
    let (y, m, d) = e.date();
    w.begin_object()
        .key("rank")
        .uint(rank as u64)
        .key("driver")
        .string(e.driver().id())
        .key("score")
        .float(e.score())
        .key("snippet")
        .string(e.snippet())
        .key("url")
        .string(e.url())
        .key("doc_id")
        .uint(e.doc_id() as u64)
        .key("date")
        .string(&format!("{y:04}-{m:02}-{d:02}"))
        .key("companies")
        .begin_array();
    // The lead company is the event's first extracted company.
    let mut lead = None;
    for c in e.companies() {
        lead.get_or_insert(c);
        w.string(c);
    }
    w.end_array();
    // ICP enrichment is strictly opt-in (`icp=1`): default /leads bytes
    // stay identical to pre-ICP builds.
    if let Some(config) = icp {
        if let Some(company) = lead {
            let scored = etap::icp::score(company, config);
            w.key("icp")
                .begin_object()
                .key("company")
                .string(company)
                .key("score")
                .uint(u64::from(scored.total))
                .end_object();
        }
    }
    w.end_object();
}

/// Parse the shared ICP query parameters (`industry`, `region`,
/// `size_min`, `size_max`, `w_industry`, `w_size`, `w_region`) into an
/// [`IcpConfig`]. Lists are comma-separated; absent parameters keep the
/// wildcard defaults.
fn parse_icp_config(req: &Request) -> Result<IcpConfig, Response> {
    let mut config = IcpConfig::default();
    let list = |v: &str| -> Vec<String> {
        v.split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(str::to_lowercase)
            .collect()
    };
    if let Some(v) = req.param("industry") {
        config.industries = list(v);
    }
    if let Some(v) = req.param("region") {
        config.regions = list(v);
    }
    let size = |name: &str, default: u32| -> Result<u32, Response> {
        match req.param(name) {
            None => Ok(default),
            Some(v) => v
                .parse::<u32>()
                .map_err(|_| json_error(status::BAD_REQUEST, &format!("bad {name} parameter"))),
        }
    };
    config.size_min = size("size_min", config.size_min)?;
    config.size_max = size("size_max", config.size_max)?;
    let weight = |name: &str, default: f64| -> Result<f64, Response> {
        match req.param(name) {
            None => Ok(default),
            Some(v) => match v.parse::<f64>() {
                Ok(w) if w.is_finite() && w >= 0.0 => Ok(w),
                _ => Err(json_error(
                    status::BAD_REQUEST,
                    &format!("bad {name} parameter"),
                )),
            },
        }
    };
    config.weights.industry = weight("w_industry", config.weights.industry)?;
    config.weights.size = weight("w_size", config.weights.size)?;
    config.weights.region = weight("w_region", config.weights.region)?;
    Ok(config)
}

fn leads(ctx: &Ctx, req: &Request) -> Response {
    let snap = ctx.cell.load();
    let top = match parse_top(req, 10) {
        Ok(t) => t,
        Err(resp) => return resp,
    };
    let driver = match req.param("driver") {
        None => None,
        Some(spec) => match parse_driver(spec) {
            Ok(d) => Some(d),
            Err(key) => {
                return json_error(status::NOT_FOUND, &format!("unknown driver key: {key}"))
            }
        },
    };
    let icp_config = if req.param("icp").is_some() {
        match parse_icp_config(req) {
            Ok(c) => Some(c),
            Err(resp) => return resp,
        }
    } else {
        None
    };

    let selected: Vec<EventView<'_>> = match driver {
        Some(d) => snap.book.top_for(d, top),
        None => snap.book.top(top),
    };
    let total = match driver {
        Some(d) => snap.book.driver_total(d),
        None => snap.book.len(),
    };

    let mut w = JsonWriter::new();
    w.begin_object()
        .key("generation")
        .uint(snap.generation)
        .key("driver");
    match driver {
        Some(d) => w.string(d.id()),
        None => w.string("all"),
    };
    w.key("total").uint(total as u64).key("leads").begin_array();
    for (i, e) in selected.iter().enumerate() {
        write_event(&mut w, i + 1, *e, icp_config.as_ref());
    }
    w.end_array().end_object();
    json(status::OK, snap.generation, w.finish())
}

fn write_company(w: &mut JsonWriter, rank: usize, c: &CompanyRef<'_>) {
    w.begin_object()
        .key("rank")
        .uint(rank as u64)
        .key("company")
        .string(c.company)
        .key("mrr")
        .float(c.mrr)
        .key("events")
        .uint(c.events as u64)
        .end_object();
}

fn companies(ctx: &Ctx, req: &Request) -> Response {
    let snap = ctx.cell.load();
    let top = match parse_top(req, 10) {
        Ok(t) => t,
        Err(resp) => return resp,
    };
    let total = snap.book.companies_len();
    let ranked = snap.book.companies_top(top);
    let mut w = JsonWriter::new();
    w.begin_object()
        .key("generation")
        .uint(snap.generation)
        .key("total")
        .uint(total as u64)
        .key("companies")
        .begin_array();
    for (i, c) in ranked.iter().enumerate() {
        write_company(&mut w, i + 1, c);
    }
    w.end_array().end_object();
    json(status::OK, snap.generation, w.finish())
}

fn company_events(ctx: &Ctx, name: &str) -> Response {
    let snap = ctx.cell.load();
    let Some((score, events)) = snap.book.company_events(name) else {
        return json_error(status::NOT_FOUND, &format!("unknown company: {name}"));
    };
    let mut w = JsonWriter::new();
    w.begin_object()
        .key("generation")
        .uint(snap.generation)
        .key("company")
        .string(score.company)
        .key("mrr")
        .float(score.mrr)
        .key("event_count")
        .uint(score.events as u64)
        .key("events")
        .begin_array();
    for (i, e) in events.iter().enumerate() {
        write_event(&mut w, i + 1, *e, None);
    }
    w.end_array().end_object();
    json(status::OK, snap.generation, w.finish())
}

fn score(ctx: &Ctx, req: &Request) -> Response {
    let snap = ctx.cell.load();
    let Ok(body_text) = std::str::from_utf8(&req.body) else {
        return text(status::BAD_REQUEST, "body must be UTF-8 text\n");
    };
    if body_text.trim().is_empty() {
        return text(status::BAD_REQUEST, "empty snippet body\n");
    }
    let drivers = match req.param("driver") {
        None => snap.drivers(),
        Some(spec) => match parse_driver(spec) {
            Ok(d) => vec![d],
            Err(key) => {
                return json_error(status::NOT_FOUND, &format!("unknown driver key: {key}"))
            }
        },
    };

    let mut w = JsonWriter::new();
    w.begin_object()
        .key("generation")
        .uint(snap.generation)
        .key("scores")
        .begin_array();
    let mut any = false;
    for driver in drivers {
        if let Some(s) = snap.score(driver, body_text) {
            any = true;
            w.begin_object()
                .key("driver")
                .string(driver.id())
                .key("score")
                .float(s)
                .key("trigger")
                .boolean(s >= 0.5)
                .end_object();
        }
    }
    w.end_array().end_object();
    if !any {
        return text(status::NOT_FOUND, "no trained model for driver\n");
    }
    json(status::OK, snap.generation, w.finish())
}

/// `GET /score?company=<name>` — ICP (ideal-customer-profile) lead
/// scoring: firmographic fit of one company against target industries,
/// regions, and size band, 0–100 with per-factor explanations. An
/// optional `driver` parameter adds the company's trigger-event count
/// for that driver as sales context (unknown keys are 404, like
/// everywhere else).
fn icp(ctx: &Ctx, req: &Request) -> Response {
    let snap = ctx.cell.load();
    let Some(company) = req.param("company") else {
        return json_error(status::BAD_REQUEST, "missing company parameter");
    };
    let config = match parse_icp_config(req) {
        Ok(c) => c,
        Err(resp) => return resp,
    };
    let driver = match req.param("driver") {
        None => None,
        Some(spec) => match parse_driver(spec) {
            Ok(d) => Some(d),
            Err(key) => {
                return json_error(status::NOT_FOUND, &format!("unknown driver key: {key}"))
            }
        },
    };

    let profile = etap::icp::profile_for(company);
    let scored = etap::icp::score(company, &config);
    let mut w = JsonWriter::new();
    w.begin_object()
        .key("generation")
        .uint(snap.generation)
        .key("company")
        .string(company)
        .key("profile")
        .begin_object()
        .key("industry")
        .string(profile.industry)
        .key("region")
        .string(profile.region)
        .key("employees")
        .uint(u64::from(profile.employees))
        .end_object()
        .key("icp_score")
        .uint(u64::from(scored.total))
        .key("factors")
        .begin_array();
    for f in &scored.factors {
        w.begin_object()
            .key("factor")
            .string(f.factor)
            .key("value")
            .string(&f.value)
            .key("fit")
            .float(f.fit)
            .key("weight")
            .float(f.weight)
            .key("explanation")
            .string(&f.explanation)
            .end_object();
    }
    w.end_array();
    if let Some(d) = driver {
        let events = snap
            .book
            .company_events(company)
            .map(|(_, events)| events.iter().filter(|e| e.driver() == d).count())
            .unwrap_or(0);
        w.key("driver")
            .string(d.id())
            .key("driver_events")
            .uint(events as u64);
    }
    w.end_object();
    json(status::OK, snap.generation, w.finish())
}
