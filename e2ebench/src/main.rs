//! End-to-end ETAP benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload crawl|serve|watch --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Each run generates its inputs from
//! `--seed`, drives the library through its public calls (training,
//! event identification, lead book, generation store, HTTP server over
//! loopback, watch cycles), checks the outputs, and prints one JSON
//! result as the last line of standard output: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. The line
//! before it is a run record (revision, host, digest, sample counts).
//!
//! Scratch stores live in `.bench_tmp/` and are removed on exit; traced
//! runs write their spans to `.bench_out/`.

mod alloc;
mod client;
mod host;
mod mix;
mod report;
mod stats;
mod trace;
mod workload;

use report::{quote, Metrics};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::Workload;

const USAGE: &str =
    "usage: etap-e2e-bench --workload crawl|serve|watch --seed N --seconds S --trace 0|1";

/// The two drivers the repository ships as data, registered beside the
/// three builtins in every workload.
const EXTRA_DRIVERS: &str = include_str!("../../drivers/extra.drivers");

/// A run that has not finished by then is stopped and fails.
const RUN_LIMIT: Duration = Duration::from_secs(170);

/// Set-ups timed per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Layers whose self time the traced run reports.
const LAYERS: [&str; 10] = [
    "corpus", "annotate", "training", "scan", "leads", "store", "server", "http", "watch", "bench",
];

/// Which end-to-end metric each per-layer metric should move, by name
/// prefix (first match wins).
const MOVES: &[(&str, &str)] = &[
    ("corpus.", "setup_s (all)"),
    ("train.", "train_s, crawl_to_served_s (crawl)"),
    ("scan.", "scan_docs_per_s (crawl), freshness_ms (watch)"),
    ("score.", "scan_docs_per_s (crawl)"),
    ("book.", "crawl_to_served_s (crawl)"),
    (
        "store.publish",
        "crawl_to_served_s (crawl), freshness_ms (watch)",
    ),
    ("store.load_ms", "restart_ms (serve)"),
    ("persist.mmap_ms", "restart_ms (serve)"),
    (
        "store.",
        "write_mib_per_cycle, disk_bytes_per_event (watch)",
    ),
    (
        "serve.",
        "req_p50_ms, req_p99_ms, req_per_s (serve; per layer)",
    ),
    (
        "watch.read_",
        "none: the reader's latency beside the writes (watch)",
    ),
    ("watch.", "freshness_ms (watch; per layer)"),
    (
        "layer.",
        "the end-to-end metrics of the calls in that layer",
    ),
    ("host.", "none: how far to trust the run"),
    ("trace.", "none: how far to trust the run"),
];

/// End-to-end timings the traced run reports because their run-to-run
/// spread on a 2-vCPU VM exceeded a tenth.
const NOISY_TIMINGS: [&str; 8] = [
    "crawl_to_served_s",
    "train_s",
    "scan_docs_per_s",
    "restart_ms",
    "req_per_s",
    "req_p50_ms",
    "req_p99_ms",
    "freshness_ms",
];

fn moves(metric: &str) -> &'static str {
    if NOISY_TIMINGS.contains(&metric) {
        return "itself: an end-to-end timing too noisy for the end-to-end set";
    }
    MOVES
        .iter()
        .find(|(prefix, _)| metric.starts_with(prefix))
        .map_or("", |(_, target)| target)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let pos = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(pos + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let workload =
        Workload::parse(&workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let seed = get("--seed")?.parse().map_err(|_| "bad --seed")?;
    let seconds: u64 = get("--seconds")?.parse().map_err(|_| "bad --seconds")?;
    if !(1..=120).contains(&seconds) {
        return Err("--seconds must be within 1..=120".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok(Args {
        workload,
        seed,
        seconds: seconds as f64,
        trace,
    })
}

/// This process's scratch directory, removed when dropped (also while
/// unwinding from a panic).
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn create(path: PathBuf) -> std::io::Result<Self> {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(Self(path))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        remove_scratch(&self.0);
    }
}

fn remove_scratch(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    // Leave no empty parent behind either (fails harmlessly when another
    // run still uses it).
    if let Some(parent) = dir.parent() {
        let _ = std::fs::remove_dir(parent);
    }
}

/// Stop a run that exceeds [`RUN_LIMIT`]: remove its scratch directory
/// and exit non-zero. The thread is never joined; process exit ends it.
fn arm_watchdog(name: &'static str, dir: PathBuf) {
    std::thread::Builder::new()
        .name("watchdog".into())
        .spawn(move || {
            std::thread::sleep(RUN_LIMIT);
            eprintln!(
                "workload {name}: exceeded {} s, stopping",
                RUN_LIMIT.as_secs()
            );
            remove_scratch(&dir);
            std::process::exit(3);
        })
        .expect("spawn the watchdog thread");
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Library parallelism is pinned to one worker, and the whole process
    // to one CPU: on a host whose vCPUs share a core, threads spread over
    // both swing the request-path figures with the host's placement.
    // Both are set before any thread exists.
    let nproc = host::nproc();
    std::env::set_var("ETAP_THREADS", "1");
    let pinned = host::pin_to_one_cpu();
    let name = args.workload.name();
    let dir = match std::env::current_dir() {
        Ok(cwd) => cwd
            .join(".bench_tmp")
            .join(format!("{name}-{}", std::process::id())),
        Err(e) => {
            eprintln!("workload {name}: no working directory: {e}");
            return ExitCode::from(1);
        }
    };
    let scratch = match ScratchDir::create(dir) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("workload {name}: cannot create the scratch directory: {e}");
            return ExitCode::from(1);
        }
    };
    arm_watchdog(name, scratch.0.clone());
    let outcome = std::panic::catch_unwind(|| run(&args, &scratch.0, nproc, pinned));
    drop(scratch);
    match outcome {
        Ok((record, result)) => {
            println!("{record}");
            println!("{result}");
            ExitCode::SUCCESS
        }
        Err(panic) => {
            let msg = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("panic");
            eprintln!("workload {name} failed: {msg}");
            ExitCode::from(1)
        }
    }
}

/// Register the data drivers and return all five specs.
fn driver_specs() -> Vec<etap::DriverSpec> {
    let extra = etap::driverfile::load_str(EXTRA_DRIVERS).expect("parse drivers/extra.drivers");
    let mut specs = etap::DriverSpec::all_builtin();
    specs.extend(extra);
    assert_eq!(specs.len(), 5, "expected 3 builtin + 2 data drivers");
    specs
}

/// Run the workload; returns the record line and the result line.
fn run(args: &Args, dir: &Path, nproc: usize, pinned: Option<usize>) -> (String, String) {
    let main_thread = trace::thread_index();
    let calib_start = host::calib_ms();
    let steal_start = host::cpu_jiffies();
    let specs = driver_specs();
    let params = args.workload.params();

    let mut metrics = Metrics::default();
    let pass = if args.trace {
        // Untraced pass first, for the tracing overhead.
        let t0 = Instant::now();
        let plain = dir.join("plain");
        let inputs = workload::setup(&params, &specs, args.seed, &plain);
        let untraced = workload::run_pass(
            args.workload,
            &inputs,
            &specs,
            args.seed,
            args.seconds,
            &plain,
        );
        drop(inputs);
        let plain_s = t0.elapsed().as_secs_f64();

        trace::set_enabled(true);
        etap_runtime::perf::set_enabled(true);
        alloc::set_counting(true);
        let t0 = Instant::now();
        let traced = dir.join("traced");
        let inputs = workload::setup(&params, &specs, args.seed, &traced);
        let mut pass = workload::run_pass(
            args.workload,
            &inputs,
            &specs,
            args.seed,
            args.seconds,
            &traced,
        );
        let traced_s = t0.elapsed().as_secs_f64();
        pass.tally.merge(untraced.tally);
        alloc::set_counting(false);
        etap_runtime::perf::set_enabled(false);
        trace::set_enabled(false);
        let spans = trace::take();

        let span_ms = |name: &str| -> f64 {
            spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
                .sum()
        };
        metrics.put("corpus.generate_ms", span_ms("corpus.generate"), "ms");
        metrics.put(
            "corpus.search_build_ms",
            span_ms("corpus.search_build"),
            "ms",
        );
        // End-to-end timings come from the untraced pass even here; the
        // traced pass gives the rest.
        for (name, value, unit) in pass.layer.iter() {
            let value = if NOISY_TIMINGS.contains(&name) {
                untraced
                    .layer
                    .get(name)
                    .expect("the untraced pass measured it")
            } else {
                value
            };
            metrics.put(name, value, unit);
        }
        let self_ms = trace::self_ms_by_layer(&spans);
        for layer in LAYERS {
            metrics.put(
                format!("layer.{layer}.self_ms"),
                self_ms.get(layer).copied().unwrap_or(0.0),
                "ms",
            );
        }
        let attributed_s = trace::top_level_ns(&spans, main_thread) as f64 / 1e9;
        metrics.put(
            "trace.residual_pct",
            (traced_s - attributed_s) / traced_s * 100.0,
            "%",
        );
        metrics.put(
            "trace.overhead_pct",
            (traced_s - plain_s) / plain_s * 100.0,
            "%",
        );
        metrics.put("trace.spans", spans.len() as f64, "count");
        let out = PathBuf::from(".bench_out").join(format!(
            "trace-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        if let Err(e) = trace::write_jsonl(&out, &spans) {
            eprintln!("could not write {}: {e}", out.display());
        }
        pass
    } else {
        let plain = dir.join("plain");
        let mut setup_s = Vec::with_capacity(SETUPS);
        let mut inputs = None;
        for _ in 0..SETUPS {
            drop(inputs.take());
            let t0 = Instant::now();
            inputs = Some(workload::setup(&params, &specs, args.seed, &plain));
            setup_s.push(t0.elapsed().as_secs_f64());
        }
        let inputs = inputs.expect("at least one set-up ran");
        let pass = workload::run_pass(
            args.workload,
            &inputs,
            &specs,
            args.seed,
            args.seconds,
            &plain,
        );
        metrics.put("setup_s", stats::median(&mut setup_s), "s");
        for (name, value, unit) in pass.e2e.iter() {
            metrics.put(name, value, unit);
        }
        pass
    };

    let calib_end = host::calib_ms();
    let steal_pct = host::steal_pct(steal_start, host::cpu_jiffies());
    if args.trace {
        metrics.put("host.calib_ms", (calib_start + calib_end) / 2.0, "ms");
        metrics.put("host.steal_pct", steal_pct, "%");
    }

    let mut record = format!(
        "{{\"record\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"rev\": {}, \"nproc\": {nproc}, \"pinned_cpu\": {}, \"calib_ms_start\": {calib_start:?}, \
         \"calib_ms_end\": {calib_end:?}, \"steal_pct\": {steal_pct:?}, \
         \"digest\": \"{:016x}\", \"pass_wall_s\": {:?}",
        quote(args.workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        quote(&host::git_rev()),
        pinned.map_or("null".to_string(), |c| c.to_string()),
        pass.digest,
        pass.wall_s,
    );
    for (key, value) in &pass.notes {
        record.push_str(&format!(", {}: {}", quote(key), value));
    }
    if args.trace {
        let targets: Vec<String> = metrics
            .iter()
            .map(|(name, _, _)| format!("{}: {}", quote(name), quote(moves(name))))
            .collect();
        record.push_str(&format!(", \"moves\": {{{}}}", targets.join(", ")));
    }
    let problems: Vec<String> = pass.tally.problems.iter().map(|p| quote(p)).collect();
    record.push_str(&format!(", \"problems\": [{}]}}}}", problems.join(", ")));
    let correct = pass.tally.failed == 0;
    (
        record,
        report::result_line(correct, pass.tally.attempted, pass.tally.failed, &metrics),
    )
}
