//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around each public call it makes
//! into the library (nothing inside the program is instrumented). A span
//! has a name `<layer>.<call>`, start and end, the span that caused it,
//! and a request id shared by the spans of one HTTP request. Spans
//! buffer per thread and are collected when the run ends.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// Causing span, 0 for a top-level span.
    pub parent: u64,
    pub name: &'static str,
    /// Request id (0 outside HTTP requests).
    pub req: u64,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
static SINK: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static LOCAL: RefCell<Vec<Span>> = const { RefCell::new(Vec::new()) };
    static THREAD: Cell<Option<u32>> = const { Cell::new(None) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Switch recording on or off.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

/// Small dense index of the calling thread.
pub fn thread_index() -> u32 {
    THREAD.with(|t| {
        t.get().unwrap_or_else(|| {
            let id = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
            t.set(Some(id));
            id
        })
    })
}

/// A fresh id for one HTTP request.
pub fn next_request_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Make `parent` (a span opened on another thread) the parent of the
/// spans this thread opens from now on.
pub fn adopt(parent: u64) {
    if parent != 0 {
        STACK.with(|s| s.borrow_mut().push(parent));
    }
}

/// An open span; it is recorded when dropped.
pub struct Guard(Option<Open>);

struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    req: u64,
    start_ns: u64,
}

/// Open a span named `<layer>.<call>`.
pub fn span(name: &'static str) -> Guard {
    span_req(name, 0)
}

/// Open a span that belongs to request `req`.
pub fn span_req(name: &'static str, req: u64) -> Guard {
    if !ENABLED.load(Ordering::Relaxed) {
        return Guard(None);
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    Guard(Some(Open {
        id,
        parent,
        name,
        req,
        start_ns: now_ns(),
    }))
}

impl Guard {
    /// This span's id (0 when recording is off).
    pub fn id(&self) -> u64 {
        self.0.as_ref().map_or(0, |o| o.id)
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(open) = self.0.take() else { return };
        let end_ns = now_ns();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&id| id == open.id) {
                s.truncate(pos);
            }
        });
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            req: open.req,
            thread: thread_index(),
            start_ns: open.start_ns,
            end_ns,
        };
        LOCAL.with(|l| l.borrow_mut().push(span));
    }
}

/// Move this thread's buffered spans to the shared sink. Every thread
/// that records spans calls this before it ends.
pub fn flush() {
    let local = LOCAL.with(|l| std::mem::take(&mut *l.borrow_mut()));
    if !local.is_empty() {
        SINK.lock()
            .expect("span sink lock poisoned by a panicking thread")
            .extend(local);
    }
    STACK.with(|s| s.borrow_mut().clear());
}

/// Every span recorded so far (flushing the calling thread first).
pub fn take() -> Vec<Span> {
    flush();
    let mut spans = std::mem::take(
        &mut *SINK
            .lock()
            .expect("span sink lock poisoned by a panicking thread"),
    );
    spans.sort_by_key(|s| (s.start_ns, s.id));
    spans
}

/// The layer of a span name: everything before the first dot.
fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Self time per layer in ms: each span's duration minus the part of
/// its interval covered by its children, summed by layer.
pub fn self_ms_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
        }
        let own = (s.end_ns - s.start_ns).saturating_sub(covered);
        *out.entry(layer(s.name)).or_default() += own as f64 / 1e6;
    }
    out
}

/// Summed duration (ns) of the top-level spans opened on `thread`.
pub fn top_level_ns(spans: &[Span], thread: u32) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent == 0 && s.thread == thread)
        .map(|s| s.end_ns - s.start_ns)
        .sum()
}

/// Write spans as JSON lines.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"req\":{},\"thread\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.name, s.req, s.thread, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            req: 0,
            thread: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            s(1, 0, "bench.loop", 0, 10_000_000),
            s(2, 1, "http.get", 1_000_000, 4_000_000),
            s(3, 1, "http.get", 2_000_000, 5_000_000),
        ];
        let by_layer = self_ms_by_layer(&spans);
        assert!((by_layer["bench"] - 6.0).abs() < 1e-9);
        assert!((by_layer["http"] - 6.0).abs() < 1e-9);
        assert_eq!(top_level_ns(&spans, 0), 10_000_000);
    }
}
