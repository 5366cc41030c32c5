//! Server metrics: lock-free counters plus a fixed-bucket latency
//! histogram, exposed as a plain-text exposition at `GET /metrics`
//! (Prometheus-style `name value` lines, no external client library).
//!
//! Everything is `AtomicU64` with relaxed ordering — metrics tolerate
//! torn cross-counter reads; each individual counter is exact.

use crate::store::PublishOutcome;
use std::sync::atomic::{AtomicU64, Ordering};

/// Upper bounds (µs) of the latency histogram buckets; the last bucket
/// is open-ended. Roughly logarithmic from 100 µs to 5 s.
pub const BUCKET_BOUNDS_US: [u64; 15] = [
    100, 200, 500, 1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000, 200_000, 500_000,
    1_000_000, 2_000_000, 5_000_000,
];

/// A latency histogram with [`BUCKET_BOUNDS_US`] buckets.
#[derive(Debug, Default)]
pub struct Histogram {
    counts: [AtomicU64; BUCKET_BOUNDS_US.len() + 1],
    sum_us: AtomicU64,
    total: AtomicU64,
}

impl Histogram {
    /// Record one observation in microseconds.
    pub fn observe_us(&self, us: u64) {
        let idx = BUCKET_BOUNDS_US
            .iter()
            .position(|&b| us <= b)
            .unwrap_or(BUCKET_BOUNDS_US.len());
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Approximate quantile (0.0–1.0) in milliseconds: the upper bound
    /// of the bucket containing the q-th observation (the open last
    /// bucket reports its lower bound). 0 when empty.
    #[must_use]
    pub fn quantile_ms(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c.load(Ordering::Relaxed);
            if seen >= target {
                let bound = BUCKET_BOUNDS_US
                    .get(i)
                    .copied()
                    .unwrap_or(BUCKET_BOUNDS_US[BUCKET_BOUNDS_US.len() - 1]);
                return bound as f64 / 1_000.0;
            }
        }
        BUCKET_BOUNDS_US[BUCKET_BOUNDS_US.len() - 1] as f64 / 1_000.0
    }

    /// Mean latency in milliseconds (0 when empty).
    #[must_use]
    pub fn mean_ms(&self) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        self.sum_us.load(Ordering::Relaxed) as f64 / total as f64 / 1_000.0
    }

    /// Per-bucket cumulative counts, `(upper_bound_us, cumulative)`;
    /// the final entry uses `u64::MAX` as its bound.
    #[must_use]
    pub fn cumulative(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::with_capacity(self.counts.len());
        let mut acc = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            acc += c.load(Ordering::Relaxed);
            let bound = BUCKET_BOUNDS_US.get(i).copied().unwrap_or(u64::MAX);
            out.push((bound, acc));
        }
        out
    }
}

/// All counters the server exports.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Requests accepted into the queue.
    pub requests_total: AtomicU64,
    /// Responses by status class: index 2→2xx, 3→3xx, 4→4xx, 5→5xx.
    pub responses_by_class: [AtomicU64; 6],
    /// Connections shed at the accept gate (queue full → 503).
    pub shed_total: AtomicU64,
    /// Requests that hit the read/handle deadline.
    pub deadline_total: AtomicU64,
    /// Handler panics caught at the worker boundary (the worker
    /// survives; the connection is dropped and counted as 5xx).
    pub worker_panics_total: AtomicU64,
    /// Requests served on a reused (kept-alive) connection.
    pub keepalive_reuses_total: AtomicU64,
    /// Generation-store publish/prune failures (the snapshot still
    /// went live; only its durability is degraded).
    pub store_failures_total: AtomicU64,
    /// Generation of the currently published snapshot.
    pub snapshot_generation: AtomicU64,
    /// Gauge: bytes of the `LEADS v2` arenas behind the served book,
    /// file-mapped or heap.
    pub snapshot_bytes: AtomicU64,
    /// Gauge: the part of [`snapshot_bytes`](Self::snapshot_bytes) held
    /// in heap arenas — all of a built or text-loaded book; the index
    /// and deltas of a mapped generation extended by the watch loop.
    pub snapshot_heap_bytes: AtomicU64,
    /// Gauge: 1 while every arena of the served book is a file mapping
    /// (`MappedBook::is_fully_mapped`, a loaded binary generation), 0
    /// otherwise. A mapped generation extended in memory reads 0: its
    /// base stays mapped, but its index and deltas are heap arenas.
    pub mmap_generations: AtomicU64,
    /// Segment files written by store publishes: deltas, merged deltas
    /// and the shards of cold encodes.
    pub shards_dirty_total: AtomicU64,
    /// Segment files store publishes hard-linked from the previous
    /// generation instead of writing; linked / (linked + dirty) is the
    /// publish link ratio.
    pub shards_linked_total: AtomicU64,
    /// Payload files store publishes hard-linked from the previous
    /// generation: segments and unchanged models.
    pub store_files_linked_total: AtomicU64,
    /// Payload bytes store publishes wrote (linked files and manifests
    /// excluded).
    pub store_bytes_written_total: AtomicU64,
    /// Ingest cycles completed by the watch loop (success or failure).
    pub watch_cycles_total: AtomicU64,
    /// Stage retries performed by the watch supervisor.
    pub watch_retries_total: AtomicU64,
    /// Gauge: watch stage threads alive after the last cycle — the
    /// timed-out attempts the supervisor abandoned and that still run.
    pub watch_stage_threads: AtomicU64,
    /// Gauge: 1 while the watch loop is in degraded mode, else 0.
    pub watch_degraded: AtomicU64,
    /// Faults injected by the `ETAP_FAULTS` registry (0 outside chaos
    /// runs).
    pub faults_injected_total: AtomicU64,
    /// End-to-end request latency (dequeue → response written).
    pub latency: Histogram,
}

impl Metrics {
    /// Count the segment files one store publish wrote and linked, every
    /// file it linked, and the bytes it wrote.
    pub fn record_publish(&self, outcome: &PublishOutcome) {
        self.shards_dirty_total
            .fetch_add(outcome.shards_written, Ordering::Relaxed);
        self.shards_linked_total
            .fetch_add(outcome.shards_linked, Ordering::Relaxed);
        self.store_files_linked_total
            .fetch_add(outcome.files_linked, Ordering::Relaxed);
        self.store_bytes_written_total
            .fetch_add(outcome.bytes_written, Ordering::Relaxed);
    }

    /// Record a finished response.
    pub fn record_response(&self, status_code: u16, elapsed_us: u64) {
        let class = (status_code / 100).min(5) as usize;
        self.responses_by_class[class].fetch_add(1, Ordering::Relaxed);
        self.latency.observe_us(elapsed_us);
    }

    /// Render the plain-text exposition (documented in DESIGN.md).
    #[must_use]
    pub fn exposition(&self, queue_depth: usize, workers: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(1024);
        let _ = writeln!(
            out,
            "etap_requests_total {}",
            self.requests_total.load(Ordering::Relaxed)
        );
        for class in 2..=5 {
            let _ = writeln!(
                out,
                "etap_responses_total{{class=\"{class}xx\"}} {}",
                self.responses_by_class[class].load(Ordering::Relaxed)
            );
        }
        let _ = writeln!(
            out,
            "etap_shed_total {}",
            self.shed_total.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "etap_deadline_exceeded_total {}",
            self.deadline_total.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "etap_worker_panics_total {}",
            self.worker_panics_total.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "etap_keepalive_reuses_total {}",
            self.keepalive_reuses_total.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "etap_store_failures_total {}",
            self.store_failures_total.load(Ordering::Relaxed)
        );
        let _ = writeln!(out, "etap_queue_depth {queue_depth}");
        let _ = writeln!(out, "etap_workers {workers}");
        let _ = writeln!(
            out,
            "etap_snapshot_generation {}",
            self.snapshot_generation.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "etap_snapshot_bytes {}",
            self.snapshot_bytes.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "etap_snapshot_heap_bytes {}",
            self.snapshot_heap_bytes.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "etap_mmap_generations {}",
            self.mmap_generations.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "etap_shards_dirty_total {}",
            self.shards_dirty_total.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "etap_shards_linked_total {}",
            self.shards_linked_total.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "etap_store_files_linked_total {}",
            self.store_files_linked_total.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "etap_store_bytes_written_total {}",
            self.store_bytes_written_total.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "etap_watch_cycles_total {}",
            self.watch_cycles_total.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "etap_watch_retries_total {}",
            self.watch_retries_total.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "etap_watch_stage_threads {}",
            self.watch_stage_threads.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "etap_watch_degraded {}",
            self.watch_degraded.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "etap_faults_injected_total {}",
            self.faults_injected_total.load(Ordering::Relaxed)
        );
        let _ = writeln!(out, "etap_request_latency_count {}", self.latency.count());
        let _ = writeln!(
            out,
            "etap_request_latency_mean_ms {:.3}",
            self.latency.mean_ms()
        );
        for (q, label) in [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
            let _ = writeln!(
                out,
                "etap_request_latency_ms{{quantile=\"{label}\"}} {:.3}",
                self.latency.quantile_ms(q)
            );
        }
        for (bound, cumulative) in self.latency.cumulative() {
            if bound == u64::MAX {
                let _ = writeln!(
                    out,
                    "etap_request_latency_bucket{{le=\"+Inf\"}} {cumulative}"
                );
            } else {
                let _ = writeln!(
                    out,
                    "etap_request_latency_bucket{{le=\"{bound}us\"}} {cumulative}"
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_land_in_right_buckets() {
        let h = Histogram::default();
        for _ in 0..90 {
            h.observe_us(150); // ≤ 200 bucket
        }
        for _ in 0..10 {
            h.observe_us(40_000); // ≤ 50_000 bucket
        }
        assert_eq!(h.count(), 100);
        assert!(
            (h.quantile_ms(0.5) - 0.2).abs() < 1e-9,
            "{}",
            h.quantile_ms(0.5)
        );
        assert!((h.quantile_ms(0.99) - 50.0).abs() < 1e-9);
        assert!(h.mean_ms() > 0.0);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = Histogram::default();
        assert_eq!(h.quantile_ms(0.5), 0.0);
        assert_eq!(h.mean_ms(), 0.0);
    }

    #[test]
    fn exposition_contains_all_families() {
        let m = Metrics::default();
        m.requests_total.fetch_add(3, Ordering::Relaxed);
        m.record_response(200, 1_000);
        m.record_response(503, 100);
        let text = m.exposition(2, 4);
        for needle in [
            "etap_requests_total 3",
            "etap_responses_total{class=\"2xx\"} 1",
            "etap_responses_total{class=\"5xx\"} 1",
            "etap_queue_depth 2",
            "etap_workers 4",
            "etap_snapshot_generation 0",
            "etap_snapshot_bytes 0",
            "etap_snapshot_heap_bytes 0",
            "etap_mmap_generations 0",
            "etap_shards_dirty_total 0",
            "etap_shards_linked_total 0",
            "etap_store_files_linked_total 0",
            "etap_store_bytes_written_total 0",
            "etap_watch_cycles_total 0",
            "etap_watch_retries_total 0",
            "etap_watch_stage_threads 0",
            "etap_watch_degraded 0",
            "etap_faults_injected_total 0",
            "etap_request_latency_ms{quantile=\"0.99\"}",
            "etap_request_latency_bucket{le=\"+Inf\"} 2",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn publishes_count_linked_segments_apart_from_linked_models() {
        let m = Metrics::default();
        // A prior-only binary cycle: index and delta written, four base
        // shards and two models linked.
        let cycle = PublishOutcome {
            dir: std::path::PathBuf::from("gen-2"),
            files_written: 2,
            shards_written: 1,
            files_linked: 6,
            shards_linked: 4,
            bytes_written: 3_000,
        };
        m.record_publish(&cycle);
        m.record_publish(&PublishOutcome {
            bytes_written: 500,
            ..cycle
        });
        let text = m.exposition(0, 1);
        for needle in [
            "etap_shards_dirty_total 2\n",
            "etap_shards_linked_total 8\n",
            "etap_store_files_linked_total 12\n",
            "etap_store_bytes_written_total 3500\n",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }
}
