//! `etap-cli` — drive the full ETAP pipeline from the command line.
//!
//! ```text
//! etap-cli train --out models/ [--docs 4000] [--seed 59305] [--driver all|ma|cim|rev]
//! etap-cli scan  --models models/ [--docs 300] [--seed 7] [--top 10] [--time-weighted]
//! etap-cli score --model models/<file>.model --text "IBM acquired Daksh..."
//! etap-cli companies --models models/ [--docs 300] [--seed 7] [--top 10]
//! etap-cli eval  --models models/ [--docs 600] [--seed 7]
//! etap-cli serve --models models/ [--store leads/] [--addr 127.0.0.1:8787]
//! etap-cli watch --store leads/ [--models models/] [--cycles N] [--interval-ms 1000]
//! etap-cli publish --models models/ --store leads/ [--docs 300] [--seed 7] [--extend]
//!                  [--format v1|v2] [--shards 16]
//! etap-cli generations --store leads/
//! etap-cli diff --store leads/ [--from N] [--to M]
//! ```
//!
//! `train` persists one `.model` file per sales driver (text format, see
//! `etap::persist`); `scan`/`companies` generate a fresh synthetic crawl
//! and run the trained models over it; `serve` freezes a crawl into a
//! lead snapshot and serves it over HTTP (see `etap-serve`).
//!
//! The persistence subcommands work a durable generation store (see
//! `etap_serve::GenerationStore`): `publish` writes a new generation
//! (full rebuild, or `--extend` to merge a document delta into the
//! newest stored generation), `generations` lists what is on disk with
//! validity, and `diff` summarizes what changed between two
//! generations. `serve --store` warm-starts from the newest valid
//! generation — no crawl, no retrain — and persists every later
//! publish.
//!
//! `watch` is the continuous-ingest daemon: it serves the store's
//! newest generation and then cycles poll → extend → retrain → publish
//! under supervision (`etap_serve::watch`), sealing each generation in
//! the store before hot-swapping it live. `ETAP_FAULTS` arms
//! deterministic fault injection for chaos testing (see DESIGN.md §10).
//!
//! Exit codes are classified for supervising shells / unit files:
//! 1 unclassified, 2 usage, 3 store corruption, 4 transient I/O.

use etap_repro::system::{
    driverfile, persist, rank, AliasResolver, EventIdentifier, TrainedDriver,
};
use etap_repro::{DriverSet, DriverSpec, Etap, EtapConfig, SalesDriver, SyntheticWeb, WebConfig};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// CLI failure with the exit code a supervising shell or unit file
/// needs to tell *retryable* from *fatal* failures:
///
/// | code | meaning | systemd reaction |
/// |------|---------|------------------|
/// | 1 | unclassified error | operator judgment |
/// | 2 | bad arguments / usage | fatal, fix the invocation |
/// | 3 | store corruption | fatal, restore or re-publish |
/// | 4 | transient I/O | retryable, restart with backoff |
#[derive(Debug)]
enum CliError {
    /// Exit 1 — anything without a sharper classification.
    Other(String),
    /// Exit 2 — unknown command, missing/invalid flags, preconditions.
    Usage(String),
    /// Exit 3 — a generation failed checksum/manifest validation.
    Corrupt(String),
    /// Exit 4 — filesystem/network errors worth retrying.
    TransientIo(String),
}

impl CliError {
    fn exit_code(&self) -> u8 {
        match self {
            Self::Other(_) => 1,
            Self::Usage(_) => 2,
            Self::Corrupt(_) => 3,
            Self::TransientIo(_) => 4,
        }
    }

    fn message(&self) -> &str {
        match self {
            Self::Other(m) | Self::Usage(m) | Self::Corrupt(m) | Self::TransientIo(m) => m,
        }
    }
}

/// Formatted runtime failures default to the unclassified exit 1.
impl From<String> for CliError {
    fn from(m: String) -> Self {
        Self::Other(m)
    }
}

/// Static message strings in this binary are argument/precondition
/// errors (`"--out <dir> is required"`, `"store is empty"`) → exit 2.
impl From<&str> for CliError {
    fn from(m: &str) -> Self {
        Self::Usage(m.to_string())
    }
}

/// Classify a raw filesystem error as retryable.
fn io_err(e: std::io::Error) -> CliError {
    CliError::TransientIo(e.to_string())
}

/// Classify a store error: I/O is retryable, a failed checksum or
/// manifest invariant is corruption.
fn store_err(e: etap_repro::serve::StoreError) -> CliError {
    use etap_repro::serve::StoreError;
    match e {
        StoreError::Io(io) => CliError::TransientIo(io.to_string()),
        StoreError::Codec(_) | StoreError::Invalid(_) => CliError::Corrupt(e.to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let opts = Opts::parse(&args[1..]);
    let result = match command.as_str() {
        "train" => cmd_train(&opts),
        "scan" => cmd_scan(&opts),
        "score" => cmd_score(&opts),
        "companies" => cmd_companies(&opts),
        "eval" => cmd_eval(&opts),
        "serve" => cmd_serve(&opts),
        "watch" => cmd_watch(&opts),
        "publish" => cmd_publish(&opts),
        "generations" => cmd_generations(&opts),
        "diff" => cmd_diff(&opts),
        "example-drivers" => cmd_example_drivers(&opts),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(CliError::Usage(format!(
            "unknown command {other:?}\n{USAGE}"
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", e.message());
            ExitCode::from(e.exit_code())
        }
    }
}

const USAGE: &str = "\
etap-cli — automatic sales lead generation (ETAP, ICDE 2006 reproduction)

USAGE:
  etap-cli train --out <dir> [--docs N] [--seed N] [--driver SPEC] [--drivers FILE]
  etap-cli scan --models <dir> [--docs N] [--seed N] [--top K] [--time-weighted]
                [--drivers FILE]
  etap-cli score --model <file> --text <snippet>
  etap-cli companies --models <dir> [--docs N] [--seed N] [--top K] [--drivers FILE]
  etap-cli eval --models <dir> [--docs N] [--seed N] [--drivers FILE]
  etap-cli serve (--store <dir> | --models <dir>) [--addr HOST:PORT] [--docs N]
                 [--seed N] [--window N] [--drivers FILE]
  etap-cli watch --store <dir> [--models <dir>] [--addr HOST:PORT] [--docs N]
                 [--seed N] [--interval-ms N] [--cycles N] [--keep N] [--window N]
                 [--blend F] [--stage-timeout-ms N] [--degrade-after N]
                 [--drivers FILE]
  etap-cli publish --store <dir> [--models <dir>] [--docs N] [--seed N]
                   [--window N] [--extend] [--keep N] [--format v1|v2]
                   [--shards N] [--drivers FILE]
  etap-cli generations --store <dir>
  etap-cli diff --store <dir> [--from GEN] [--to GEN]
  etap-cli example-drivers [--out FILE]

--driver SPEC is all, a builtin shortcut (ma|cim|rev), a registered key,
or a comma-separated mix. --drivers FILE loads custom driver specs from
a DRIVERS v1 file (see `example-drivers` and README \"Custom drivers\").

exit codes: 0 ok, 1 error, 2 usage, 3 store corruption, 4 transient I/O

serve env overrides: ETAP_SERVE_ADDR, ETAP_SERVE_WORKERS, ETAP_SERVE_QUEUE,
ETAP_SERVE_DEADLINE_MS, ETAP_SERVE_MAX_BODY, ETAP_SERVE_KEEPALIVE,
ETAP_SERVE_STORE, ETAP_SERVE_STORE_KEEP (see README \"Serving\" and
\"Persistence\")
watch env overrides: ETAP_FAULTS, ETAP_FAULT_SEED (deterministic fault
injection; see README \"Continuous ingest\")";

/// Minimal `--flag value` / `--flag` parser.
struct Opts {
    flags: Vec<(String, Option<String>)>,
}

impl Opts {
    fn parse(args: &[String]) -> Self {
        let mut flags = Vec::new();
        let mut i = 0;
        while i < args.len() {
            if let Some(name) = args[i].strip_prefix("--") {
                let value = args.get(i + 1).filter(|v| !v.starts_with("--")).cloned();
                if value.is_some() {
                    i += 1;
                }
                flags.push((name.to_string(), value));
            }
            i += 1;
        }
        Self { flags }
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn usize_or(&self, name: &str, default: usize) -> usize {
        self.get(name)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }
}

/// Load a `DRIVERS v1` file when `--drivers` is given — and do it
/// before anything else touches the registry, so custom driver ids
/// intern in file order on every run (the determinism contract behind
/// artifact byte-identity). Returns the loaded specs (empty without
/// the flag).
fn load_driver_file(opts: &Opts) -> Result<Vec<DriverSpec>, CliError> {
    match opts.get("drivers") {
        None => Ok(Vec::new()),
        Some(path) => {
            let specs = driverfile::load(Path::new(path))
                .map_err(|e| CliError::Usage(format!("{path}: {e}")))?;
            eprintln!("loaded {} custom driver(s) from {path}", specs.len());
            Ok(specs)
        }
    }
}

/// Parse `--driver`: `all` (every registered driver, including ones a
/// `--drivers` file just loaded), the builtin shortcuts, any registered
/// key, or a comma-separated mix.
fn parse_drivers(spec: &str) -> Result<Vec<SalesDriver>, CliError> {
    if spec == "all" {
        return Ok(SalesDriver::registered());
    }
    spec.split(',')
        .map(|s| {
            etap_repro::serve::parse_driver(s.trim()).map_err(|other| {
                CliError::Usage(format!(
                    "unknown driver {other:?} (use all|ma|cim|rev or a key registered via --drivers)"
                ))
            })
        })
        .collect()
}

fn cmd_train(opts: &Opts) -> Result<(), CliError> {
    let out = PathBuf::from(opts.get("out").ok_or("--out <dir> is required")?);
    std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
    let custom = load_driver_file(opts)?;
    let docs = opts.usize_or("docs", 4_000);
    let seed = opts.usize_or("seed", 0xE7A9) as u64;
    let drivers = parse_drivers(opts.get("driver").unwrap_or("all"))?;

    eprintln!("generating {docs}-document web (seed {seed})…");
    let web = SyntheticWeb::generate(WebConfig {
        total_docs: docs,
        seed,
        drivers: DriverSet::all_registered(),
        ..WebConfig::default()
    });
    let mut config = EtapConfig::paper();
    // A driver trains from its file spec when one was loaded, and from
    // the builtin (or fallback) spec otherwise.
    config.drivers = drivers
        .iter()
        .map(|d| {
            custom
                .iter()
                .find(|s| s.driver == *d)
                .cloned()
                .unwrap_or_else(|| DriverSpec::builtin(*d))
        })
        .collect();
    config.training.negative_snippets = docs * 3 / 2;
    eprintln!("training {} driver(s)…", drivers.len());
    let trained = Etap::new(config).train(&web);
    for d in trained.drivers() {
        let path = out.join(format!("{}.model", d.spec.driver.id()));
        persist::save(d, &path).map_err(|e| e.to_string())?;
        println!(
            "wrote {} ({} noisy positives → {} retained, {} features)",
            path.display(),
            d.report.noisy_positives,
            d.report.retained_positives,
            d.vectorizer.vocabulary().len()
        );
    }
    Ok(())
}

fn load_models(dir: &Path) -> Result<Vec<TrainedDriver>, CliError> {
    let mut models = Vec::new();
    let entries = std::fs::read_dir(dir)
        .map_err(|e| CliError::TransientIo(format!("{}: {e}", dir.display())))?;
    let mut paths: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "model"))
        .collect();
    paths.sort();
    for p in paths {
        models.push(persist::load(&p).map_err(|e| format!("{}: {e}", p.display()))?);
    }
    if models.is_empty() {
        return Err(CliError::Usage(format!(
            "no .model files in {}",
            dir.display()
        )));
    }
    Ok(models)
}

fn fresh_crawl(opts: &Opts) -> SyntheticWeb {
    let docs = opts.usize_or("docs", 300);
    let seed = opts.usize_or("seed", 7) as u64;
    eprintln!("crawling {docs} fresh documents (seed {seed})…");
    // All registered drivers (builtins only unless models or a
    // --drivers file registered more by now) get trigger genres in the
    // crawl; with no customs this is bit-identical to the default set.
    SyntheticWeb::generate(WebConfig {
        total_docs: docs,
        seed,
        drivers: DriverSet::all_registered(),
        ..WebConfig::default()
    })
}

fn cmd_scan(opts: &Opts) -> Result<(), CliError> {
    load_driver_file(opts)?;
    let models = load_models(Path::new(
        opts.get("models").ok_or("--models <dir> required")?,
    ))?;
    let crawl = fresh_crawl(opts);
    let top = opts.usize_or("top", 10);
    let identifier = EventIdentifier::new(3);
    let events = identifier.identify(&models, crawl.docs(), 0);
    eprintln!("{} trigger events flagged.", events.len());

    if opts.has("time-weighted") {
        let ranked = rank::rank_by_time_weighted_score(events, 365.0, identifier.annotator());
        for (i, (e, w)) in ranked.iter().take(top).enumerate() {
            println!(
                "{:>3}. [{:.3}×time={w:.3}] ({}) {}",
                i + 1,
                e.score,
                e.driver,
                e.snippet
            );
        }
    } else {
        let ranked = rank::rank_by_score(events);
        for (i, e) in ranked.iter().take(top).enumerate() {
            println!(
                "{:>3}. [{:.3}] ({}) {}",
                i + 1,
                e.score,
                e.driver,
                e.snippet
            );
        }
    }
    Ok(())
}

fn cmd_score(opts: &Opts) -> Result<(), CliError> {
    let model_path = PathBuf::from(opts.get("model").ok_or("--model <file> required")?);
    let text = opts.get("text").ok_or("--text <snippet> required")?;
    let trained = persist::load(&model_path).map_err(|e| e.to_string())?;
    let annotator = etap_repro::annotate::Annotator::new();
    let score = trained.score(&annotator.annotate(text));
    println!(
        "{:.4}\t{}\t{}",
        score,
        if score >= 0.5 { "TRIGGER" } else { "ignore" },
        trained.spec.driver
    );
    Ok(())
}

fn cmd_companies(opts: &Opts) -> Result<(), CliError> {
    load_driver_file(opts)?;
    let models = load_models(Path::new(
        opts.get("models").ok_or("--models <dir> required")?,
    ))?;
    let crawl = fresh_crawl(opts);
    let top = opts.usize_or("top", 10);
    let identifier = EventIdentifier::new(3);
    let events = identifier.identify(&models, crawl.docs(), 0);
    let mut resolver = AliasResolver::new();
    let companies = rank::rank_companies_resolved(&events, &mut resolver);
    println!("{:<32} {:>7} {:>7}", "company", "MRR", "events");
    for c in companies.iter().take(top) {
        println!("{:<32} {:>7.3} {:>7}", c.company, c.mrr, c.events);
    }
    Ok(())
}

fn cmd_serve(opts: &Opts) -> Result<(), CliError> {
    use etap_repro::serve::{GenerationStore, LeadSnapshot, ServeConfig};
    use std::sync::Arc;

    load_driver_file(opts)?;
    let mut config = ServeConfig::from_env();
    if let Some(addr) = opts.get("addr") {
        config.addr = addr.to_string();
    }
    if let Some(store_dir) = opts.get("store") {
        config.store = Some(PathBuf::from(store_dir));
    }

    // Warm start: with a store holding at least one valid generation,
    // serve that — no crawl, no model directory needed.
    let snapshot = match &config.store {
        Some(root) => {
            let store = GenerationStore::open(root).map_err(|e| e.to_string())?;
            match store.load_latest().map_err(|e| e.to_string())? {
                Some((snapshot, skipped)) => {
                    for (generation, reason) in &skipped {
                        eprintln!("skipping invalid generation {generation}: {reason}");
                    }
                    eprintln!(
                        "warm start from generation {} ({} events, {} companies)",
                        snapshot.generation,
                        snapshot.book.len(),
                        snapshot.book.companies_len()
                    );
                    Some(Arc::new(snapshot))
                }
                None => None,
            }
        }
        None => None,
    };

    let snapshot = match snapshot {
        Some(s) => s,
        None => {
            // Cold start: build generation 1 from trained models + a
            // fresh crawl (persisted by the server when a store is set).
            let models = load_models(Path::new(
                opts.get("models")
                    .ok_or("--models <dir> required (store is empty or not configured)")?,
            ))?;
            let window = opts.usize_or("window", 3);
            let trained = Arc::new(etap_repro::TrainedEtap::from_drivers(models, window));
            let crawl = fresh_crawl(opts);
            eprintln!("building lead snapshot (generation 1)…");
            let snapshot = Arc::new(LeadSnapshot::build(trained, crawl.docs(), 1, 0));
            eprintln!(
                "snapshot ready: {} events, {} companies",
                snapshot.book.len(),
                snapshot.book.companies_len()
            );
            snapshot
        }
    };

    let server = etap_repro::serve::start(&config, snapshot).map_err(|e| e.to_string())?;
    // Machine-parsable on stdout: scripts extract the port from here.
    println!("listening on http://{}", server.addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    // Serve until the process is terminated.
    loop {
        std::thread::park();
    }
}

fn cmd_watch(opts: &Opts) -> Result<(), CliError> {
    use etap_repro::serve::{watch, GenerationStore, LeadSnapshot, ServeConfig, WatchConfig};
    use std::sync::Arc;
    use std::time::Duration;

    // Arm deterministic fault injection first so every later store /
    // corpus call runs under the configured chaos plan. A malformed
    // spec is an invocation error, not a runtime one.
    if let Some(registry) =
        etap_repro::runtime::fault::install_from_env().map_err(CliError::Usage)?
    {
        eprintln!(
            "fault injection armed: {} (seed {:#x})",
            std::env::var("ETAP_FAULTS").unwrap_or_default(),
            registry.seed()
        );
    }

    load_driver_file(opts)?;
    let root = PathBuf::from(opts.get("store").ok_or("--store <dir> required")?);
    let keep = opts.usize_or("keep", 4).max(1);
    let store = GenerationStore::open(&root)
        .map_err(io_err)?
        .with_retention(keep);

    // Warm start from the newest sealed generation; cold-build
    // generation 1 otherwise. The cold build is sealed in the store
    // *before* serving so a crash at any later instant recovers it.
    let snapshot = match store.load_latest().map_err(io_err)? {
        Some((snapshot, skipped)) => {
            for (generation, reason) in &skipped {
                eprintln!("skipping invalid generation {generation}: {reason}");
            }
            eprintln!("warm start from generation {}", snapshot.generation);
            Arc::new(snapshot)
        }
        None => {
            let models = load_models(Path::new(
                opts.get("models")
                    .ok_or("--models <dir> required (store is empty)")?,
            ))?;
            let window = opts.usize_or("window", 3);
            let trained = Arc::new(etap_repro::TrainedEtap::from_drivers(models, window));
            let docs = opts.usize_or("docs", 80);
            let seed = opts.usize_or("seed", 0x0011_A7C4) as u64;
            let crawl = SyntheticWeb::generate(WebConfig {
                seed: watch::poll_batch_seed(seed, 1),
                drivers: DriverSet::all_registered(),
                ..WebConfig::with_docs(docs)
            });
            eprintln!("cold start: building generation 1 from {docs} documents…");
            let snapshot = Arc::new(LeadSnapshot::build(trained, crawl.docs(), 1, 0));
            store.publish(&snapshot).map_err(io_err)?;
            snapshot
        }
    };

    // The watch loop owns persistence, so the server runs storeless:
    // publish_snapshot is a pure hot-swap of the already-sealed
    // generation.
    let mut serve_config = ServeConfig::from_env();
    serve_config.store = None;
    if let Some(addr) = opts.get("addr") {
        serve_config.addr = addr.to_string();
    }
    let server = etap_repro::serve::start(&serve_config, snapshot).map_err(|e| e.to_string())?;
    // Machine-parsable on stdout: scripts extract the port from here.
    println!("listening on http://{}", server.addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    let mut config = WatchConfig {
        interval: Duration::from_millis(opts.usize_or("interval-ms", 1_000) as u64),
        poll_docs: opts.usize_or("docs", 80),
        poll_seed: opts.usize_or("seed", 0x0011_A7C4) as u64,
        drivers: DriverSet::all_registered(),
        ..WatchConfig::default()
    };
    if let Some(cycles) = opts.get("cycles") {
        let n: u64 = cycles.parse().map_err(|_| "bad --cycles value")?;
        config.cycles = Some(n);
    }
    if let Some(ms) = opts.get("stage-timeout-ms") {
        let ms: u64 = ms.parse().map_err(|_| "bad --stage-timeout-ms value")?;
        config.stage_timeout = Duration::from_millis(ms);
    }
    if let Some(n) = opts.get("degrade-after") {
        config.degrade_after = n.parse().map_err(|_| "bad --degrade-after value")?;
    }
    if let Some(blend) = opts.get("blend") {
        let b: f64 = blend.parse().map_err(|_| "bad --blend value")?;
        if !(0.0..=1.0).contains(&b) {
            return Err("--blend must be in [0, 1]".into());
        }
        config.prior_blend = b;
    }

    if config.cycles == Some(0) {
        // Serve-only: keep the warm-started generation up without
        // cycling (useful to inspect a store the daemon built).
        loop {
            std::thread::park();
        }
    }

    let report = watch::run(&server, &store, &config);
    eprintln!(
        "watch done: {} cycle(s), {} failed, {} retries, final generation {}{}",
        report.cycles,
        report.cycles_failed,
        report.retries,
        report.final_generation,
        if report.degraded { " [DEGRADED]" } else { "" }
    );
    if let Some(err) = &report.last_error {
        eprintln!("watch last error: {err}");
    }
    server.shutdown();
    if report.degraded {
        return Err(CliError::Other(format!(
            "watch ended degraded after {} failed cycle(s)",
            report.cycles_failed
        )));
    }
    Ok(())
}

fn open_store(opts: &Opts) -> Result<etap_repro::serve::GenerationStore, CliError> {
    let root = opts.get("store").ok_or("--store <dir> required")?;
    etap_repro::serve::GenerationStore::open(root).map_err(io_err)
}

fn cmd_publish(opts: &Opts) -> Result<(), CliError> {
    use etap_repro::serve::LeadSnapshot;
    use std::sync::Arc;

    load_driver_file(opts)?;
    let store = open_store(opts)?;
    // `--format v2` seals the book as sharded binary `LEADS v2`
    // (mmap'd, zero-copy at load); v1 text stays the default.
    let store = match opts.get("format") {
        None | Some("v1") | Some("text") => store,
        Some("v2") | Some("binary") => {
            let shards = opts.usize_or("shards", 16).max(1) as u32;
            store.with_leads_format(etap_repro::serve::LeadsFormat::Binary { shards })
        }
        Some(other) => {
            return Err(CliError::Usage(format!(
                "unknown --format {other:?} (use v1|v2)"
            )))
        }
    };
    let keep = opts.usize_or("keep", 4);
    let newest_valid = store
        .load_latest()
        .map_err(|e| e.to_string())?
        .map(|(snapshot, _)| snapshot);
    let next_generation = store
        .generations()
        .map_err(|e| e.to_string())?
        .last()
        .copied()
        .unwrap_or(0)
        + 1;

    let snapshot = if opts.has("extend") {
        // Incremental: identify events only for the fresh documents and
        // merge them into the newest stored generation (bit-identical
        // to a full rebuild over the union — see DESIGN.md §9).
        let prev =
            newest_valid.ok_or("--extend needs an existing valid generation in the store")?;
        let crawl = fresh_crawl(opts);
        eprintln!(
            "extending generation {} with {} fresh documents…",
            prev.generation,
            crawl.docs().len()
        );
        LeadSnapshot::extend(&prev, crawl.docs(), next_generation, 0)
    } else {
        let models = load_models(Path::new(
            opts.get("models").ok_or("--models <dir> required")?,
        ))?;
        let window = opts.usize_or("window", 3);
        let trained = Arc::new(etap_repro::TrainedEtap::from_drivers(models, window));
        let crawl = fresh_crawl(opts);
        LeadSnapshot::build(trained, crawl.docs(), next_generation, 0)
    };

    let outcome = store.publish(&snapshot).map_err(|e| e.to_string())?;
    let removed = store.prune(keep).map_err(|e| e.to_string())?;
    println!(
        "published generation {} ({} events, {} companies) to {}",
        snapshot.generation,
        snapshot.book.len(),
        snapshot.book.companies_len(),
        outcome.dir.display()
    );
    if outcome.files_linked > 0 {
        eprintln!(
            "incremental publish: {} file(s) written ({} bytes), {} linked unchanged",
            outcome.files_written, outcome.bytes_written, outcome.files_linked
        );
    }
    for generation in removed {
        eprintln!("pruned generation {generation}");
    }
    Ok(())
}

fn cmd_generations(opts: &Opts) -> Result<(), CliError> {
    let store = open_store(opts)?;
    let generations = store.generations().map_err(|e| e.to_string())?;
    if generations.is_empty() {
        println!("store {} is empty", store.root().display());
        return Ok(());
    }
    println!(
        "{:<12} {:>8} {:>10}  status",
        "generation", "events", "companies"
    );
    for generation in generations {
        match store.load(generation) {
            Ok(snapshot) => println!(
                "{generation:<12} {:>8} {:>10}  valid",
                snapshot.book.len(),
                snapshot.book.companies_len()
            ),
            Err(e) => println!("{generation:<12} {:>8} {:>10}  INVALID: {e}", "-", "-"),
        }
    }
    Ok(())
}

fn cmd_diff(opts: &Opts) -> Result<(), CliError> {
    let store = open_store(opts)?;
    let generations = store.generations().map_err(|e| e.to_string())?;
    let to = match opts.get("to") {
        Some(v) => v.parse::<u64>().map_err(|_| "bad --to value")?,
        None => *generations.last().ok_or("store is empty")?,
    };
    let from = match opts.get("from") {
        Some(v) => v.parse::<u64>().map_err(|_| "bad --from value")?,
        None => *generations
            .iter()
            .rev()
            .find(|&&g| g < to)
            .ok_or("no earlier generation to diff against (use --from)")?,
    };
    let older = store.load(from).map_err(store_err)?;
    let newer = store.load(to).map_err(store_err)?;

    // Events carry no identity beyond their content, so the diff is a
    // multiset difference over the full event value. `events_owned`
    // materializes mapped (v2) books, so v1 and v2 generations diff
    // uniformly.
    let older_events = older.book.events_owned();
    let newer_events = newer.book.events_owned();
    let mut remaining: Vec<&etap_repro::TriggerEvent> = older_events.iter().collect();
    let mut added = Vec::new();
    for event in &newer_events {
        match remaining.iter().position(|e| *e == event) {
            Some(i) => {
                remaining.swap_remove(i);
            }
            None => added.push(event),
        }
    }
    println!(
        "gen {from} → gen {to}: {} events → {} events (+{} / -{})",
        older.book.len(),
        newer.book.len(),
        added.len(),
        remaining.len()
    );
    for event in added.iter().take(opts.usize_or("top", 5)) {
        println!(
            "+ [{:.3}] ({}) {}",
            event.score, event.driver, event.snippet
        );
    }
    for event in remaining.iter().take(opts.usize_or("top", 5)) {
        println!(
            "- [{:.3}] ({}) {}",
            event.score, event.driver, event.snippet
        );
    }
    Ok(())
}

/// Emit the shipped example driver pack (funding rounds + executive
/// hires) as a checksummed `DRIVERS v1` file — the committed
/// `drivers/extra.drivers` is machine-written by this command, so its
/// checksum can never drift from the codec.
fn cmd_example_drivers(opts: &Opts) -> Result<(), CliError> {
    let text = driverfile::to_string(&driverfile::example_defs());
    match opts.get("out") {
        Some(path) => {
            std::fs::write(path, &text).map_err(io_err)?;
            eprintln!("wrote {path}");
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn cmd_eval(opts: &Opts) -> Result<(), CliError> {
    load_driver_file(opts)?;
    let models = load_models(Path::new(
        opts.get("models").ok_or("--models <dir> required")?,
    ))?;
    let docs = opts.usize_or("docs", 600);
    let seed = opts.usize_or("seed", 7) as u64;
    eprintln!("evaluating on a fresh {docs}-document web (seed {seed})…");
    let crawl = SyntheticWeb::generate(WebConfig {
        total_docs: docs,
        seed,
        drivers: DriverSet::all_registered(),
        ..WebConfig::default()
    });
    let identifier = EventIdentifier::new(3);
    let events = identifier.identify(&models, crawl.docs(), 0);

    println!(
        "{:<26} {:>9} {:>7} {:>7}",
        "driver", "precision", "recall", "events"
    );
    for trained in &models {
        let driver = trained.spec.driver;
        let mine: Vec<_> = events.iter().filter(|e| e.driver == driver).collect();
        let tp = mine
            .iter()
            .filter(|e| crawl.doc(e.doc_id).trigger_driver() == Some(driver))
            .count();
        let trigger_docs: Vec<usize> = crawl.trigger_docs(driver).map(|d| d.id).collect();
        let covered = trigger_docs
            .iter()
            .filter(|id| mine.iter().any(|e| e.doc_id == **id))
            .count();
        let precision = if mine.is_empty() {
            0.0
        } else {
            tp as f64 / mine.len() as f64
        };
        let recall = if trigger_docs.is_empty() {
            0.0
        } else {
            covered as f64 / trigger_docs.len() as f64
        };
        println!(
            "{:<26} {precision:>9.3} {recall:>7.3} {:>7}",
            driver.to_string(),
            mine.len()
        );
    }
    Ok(())
}
