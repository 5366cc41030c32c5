//! Deterministic thread fan-out (std-only, no rayon).
//!
//! The pipeline is embarrassingly parallel over documents and snippets.
//! This module fans pure per-item work out over `std::thread::scope`
//! workers while keeping one hard guarantee: **the result is
//! bit-identical to the sequential path for every thread count.**
//!
//! Two properties make that hold:
//!
//! 1. work is split into *fixed-size* chunks (independent of the thread
//!    count), claimed from a shared atomic counter for load balance;
//! 2. chunk results are merged back in chunk order, so the output
//!    vector preserves input order exactly.
//!
//! RNG-bearing work additionally derives one [`crate::Rng`] stream per
//! chunk from the master seed (see [`crate::Rng::stream`]) instead of
//! sharing a generator, so scheduling cannot leak into the numbers.
//!
//! The thread count comes from the `ETAP_THREADS` environment variable
//! (default: `std::thread::available_parallelism`); `ETAP_THREADS=1`
//! runs everything on the calling thread — the exact legacy code path.
//!
//! Two guards keep the fan-out from ever being a pessimization (the
//! output is bit-identical either way, so both are pure perf policy):
//! the worker count is capped at the hardware parallelism
//! (oversubscribing one core with N threads only adds context-switch
//! overhead), and batches with fewer than [`MIN_CHUNKS_PER_THREAD`]
//! chunks per worker run sequentially.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Items per work chunk in [`par_map`]/[`par_map_with`]. Fixed (never a
/// function of the thread count) so chunk boundaries — and therefore
/// any per-chunk state — are identical no matter how many workers run.
///
/// Sizing: 128 items ≈ 15–30 ms of annotation+scoring work per chunk on
/// the bench corpus — coarse enough that the claim/merge cost per chunk
/// vanishes, fine enough that a 4k-doc batch still yields ~31 chunks for
/// load balance at 8 workers. The profile-guided bump from 64 (which
/// made per-chunk overhead ~2× more frequent for no balancing benefit)
/// is output-invisible: no pipeline RNG stream is keyed on these chunk
/// indices (negative sampling has its own `NEGATIVE_CHUNK`).
pub const CHUNK: usize = 128;

/// Minimum chunks each worker must have for fan-out to pay for itself.
/// Below this the spawn + merge overhead dominates (measured: a 4000-doc
/// scan at 2 threads on 1 core ran at 0.87x sequential before this
/// cutoff existed), so small batches take the sequential path instead.
pub const MIN_CHUNKS_PER_THREAD: usize = 2;

/// Worker-count ceiling for a batch of `n_chunks`: never more workers
/// than the hardware can run at once (oversubscription only adds
/// scheduling overhead — results are identical by the determinism
/// contract either way), and never fewer than [`MIN_CHUNKS_PER_THREAD`]
/// chunks per worker.
fn effective_threads(requested: usize, n_chunks: usize) -> usize {
    resolve_threads(requested)
        .min(default_threads())
        .min(n_chunks / MIN_CHUNKS_PER_THREAD)
        .max(1)
}

/// The configured maximum worker count: `ETAP_THREADS` if set to a
/// positive integer, otherwise `std::thread::available_parallelism`
/// (falling back to 1 when even that is unknown).
#[must_use]
pub fn max_threads() -> usize {
    match std::env::var("ETAP_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => default_threads(),
        },
        Err(_) => default_threads(),
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Resolve a requested thread count: `0` means "use [`max_threads`]",
/// anything else is taken as-is (callers clamp to the work size).
#[must_use]
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        max_threads()
    } else {
        requested
    }
}

/// Map `f` over `n_chunks` chunk indices on up to `threads` workers and
/// return the results **in chunk order**.
///
/// This is the primitive everything else builds on: `f(i)` must depend
/// only on `i` (plus captured shared state), never on scheduling. Chunks
/// are claimed work-stealing-style from an atomic counter, so long and
/// short chunks balance across workers without affecting the output.
pub fn par_chunk_map<U, F>(n_chunks: usize, threads: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    par_chunk_map_with(n_chunks, threads, || (), move |(), i| f(i))
}

/// [`par_chunk_map`] with a per-**worker** scratch value.
///
/// `init` runs once per worker thread (and once for the sequential
/// fallback); `f` receives the worker's scratch by `&mut` for every
/// chunk that worker claims, so scratch buffers survive across chunks
/// instead of being rebuilt per chunk. Scratch must not influence
/// results — it is an allocation cache, not state.
///
/// Merge strategy: one pre-sized slot per chunk, each worker writing
/// only the slots of chunks it claimed. Workers therefore never contend
/// on a shared collection (the old implementation funneled every result
/// through one `Mutex<Vec>` and then sorted — a serialization point
/// that grew with worker count), and the chunk-ordered read-out at the
/// end is just a linear take.
pub fn par_chunk_map_with<U, S, I, F>(n_chunks: usize, threads: usize, init: I, f: F) -> Vec<U>
where
    U: Send,
    S: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> U + Sync,
{
    let threads = effective_threads(threads, n_chunks);
    if threads <= 1 || n_chunks <= 1 {
        let mut scratch = init();
        return (0..n_chunks).map(|i| f(&mut scratch, i)).collect();
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<U>>> = (0..n_chunks).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut scratch = init();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n_chunks {
                        break;
                    }
                    let u = f(&mut scratch, i);
                    // Each chunk index is claimed exactly once, so this
                    // per-slot lock is never contended — it exists only
                    // to hand the result across the thread boundary.
                    *slots[i].lock().expect("chunk slot mutex poisoned") = Some(u);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("chunk slot mutex poisoned")
                .expect("every chunk index was claimed and filled")
        })
        .collect()
}

/// Order-preserving parallel map over a slice: `out[i] == f(&items[i])`
/// for a pure `f`, computed on up to `threads` workers.
pub fn par_map<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_with(items, threads, || (), |(), item| f(item))
}

/// [`par_map`] with a per-worker scratch value.
///
/// `init` runs once per worker (and once for the sequential fallback);
/// `f` receives the worker's scratch by `&mut`, letting hot loops reuse
/// buffers across items instead of allocating per item — the scratch
/// persists across *all* chunks a worker claims, not merely within one.
/// Scratch must not influence results — it is an allocation cache, not
/// state.
pub fn par_map_with<T, U, S, I, F>(items: &[T], threads: usize, init: I, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    S: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> U + Sync,
{
    let n_chunks = items.len().div_ceil(CHUNK);
    let threads = effective_threads(threads, n_chunks);
    if threads <= 1 || items.len() <= CHUNK {
        let mut scratch = init();
        return items.iter().map(|item| f(&mut scratch, item)).collect();
    }

    let chunks: Vec<Vec<U>> = par_chunk_map_with(n_chunks, threads, &init, |scratch, ci| {
        items[ci * CHUNK..(ci * CHUNK + CHUNK).min(items.len())]
            .iter()
            .map(|item| f(scratch, item))
            .collect()
    });
    chunks.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order_for_any_thread_count() {
        let items: Vec<u64> = (0..1_000).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 7, 64] {
            let got = par_map(&items, threads, |&x| x * x);
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn par_chunk_map_is_ordered_and_complete() {
        for threads in [1, 4, 9] {
            let got = par_chunk_map(37, threads, |i| i * 2);
            assert_eq!(got, (0..37).map(|i| i * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn chunked_rng_streams_do_not_depend_on_threads() {
        // The canonical pattern: chunk i draws from stream i.
        let draw = |threads: usize| -> Vec<u64> {
            par_chunk_map(16, threads, |i| {
                let mut rng = crate::Rng::stream(0xE7A9, i as u64);
                rng.next_u64()
            })
        };
        let one = draw(1);
        for threads in [2, 5, 16] {
            assert_eq!(one, draw(threads), "threads = {threads}");
        }
    }

    #[test]
    fn par_map_with_reuses_scratch_per_worker() {
        // Scratch as allocation cache: results must not change.
        let items: Vec<usize> = (0..500).collect();
        let got = par_map_with(&items, 4, String::new, |buf, &x| {
            buf.clear();
            use std::fmt::Write;
            write!(buf, "{x}").unwrap();
            buf.len()
        });
        let expected: Vec<usize> = items.iter().map(|x| x.to_string().len()).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, 8, |&x| x).is_empty());
        assert_eq!(par_map(&[42u32], 8, |&x| x + 1), vec![43]);
        assert!(par_chunk_map(0, 8, |i| i).is_empty());
    }

    #[test]
    fn resolve_threads_zero_means_auto() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    /// Satellite property: for input lengths that straddle a `CHUNK`
    /// boundary (the off-by-one shapes a chunk-size change can break),
    /// `par_map_with` output must be bit-identical at every thread
    /// count, with the per-worker scratch demonstrably reused.
    #[test]
    fn chunk_boundary_output_is_thread_invariant() {
        for n in [CHUNK - 1, CHUNK, CHUNK + 1, 10 * CHUNK + 3] {
            let items: Vec<u64> = (0..n as u64).map(|x| x.wrapping_mul(0x9E37)).collect();
            let run = |threads: usize| -> Vec<String> {
                par_map_with(
                    &items,
                    threads,
                    || String::with_capacity(32),
                    |buf, &x| {
                        // Scratch as a format cache: reused across items
                        // and (post-rework) across chunks of one worker.
                        buf.clear();
                        use std::fmt::Write;
                        write!(buf, "{:x}", x ^ 0xABCD).unwrap();
                        buf.clone()
                    },
                )
            };
            let baseline = run(1);
            assert_eq!(baseline.len(), n);
            for threads in [2usize, 4, 8] {
                assert_eq!(run(threads), baseline, "n = {n}, threads = {threads}");
            }
        }
    }

    /// Satellite property: per-chunk RNG streams (the canonical pattern
    /// for RNG-bearing parallel stages: chunk `i` draws only from
    /// `Rng::stream(seed, i)`) are bit-identical at every thread count
    /// for every boundary-straddling input length.
    #[test]
    fn chunk_boundary_rng_streams_are_thread_invariant() {
        for n in [CHUNK - 1, CHUNK, CHUNK + 1, 10 * CHUNK + 3] {
            let n_chunks = n.div_ceil(CHUNK);
            let draw = |threads: usize| -> Vec<Vec<u64>> {
                par_chunk_map(n_chunks, threads, |ci| {
                    let mut rng = crate::Rng::stream(0x5EED, ci as u64);
                    // Draw as many values as the chunk has items, so the
                    // stream consumption pattern matches real stages.
                    let len = CHUNK.min(n - ci * CHUNK);
                    (0..len).map(|_| rng.next_u64()).collect()
                })
            };
            let baseline = draw(1);
            assert_eq!(baseline.iter().map(Vec::len).sum::<usize>(), n);
            for threads in [2usize, 4, 8] {
                assert_eq!(draw(threads), baseline, "n = {n}, threads = {threads}");
            }
        }
    }

    #[test]
    fn per_worker_scratch_survives_across_chunks() {
        // par_chunk_map_with must run `init` once per worker, not once
        // per chunk: with enough chunks per worker, at least one scratch
        // sees more than one chunk. (With per-chunk init this count is
        // always exactly n_chunks distinct scratches.)
        use std::sync::atomic::AtomicUsize;
        let inits = AtomicUsize::new(0);
        let n_chunks = 64;
        let got = par_chunk_map_with(
            n_chunks,
            2,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0usize
            },
            |seen, i| {
                *seen += 1;
                i
            },
        );
        assert_eq!(got, (0..n_chunks).collect::<Vec<_>>());
        let workers = effective_threads(2, n_chunks);
        assert_eq!(inits.load(Ordering::Relaxed), workers);
    }

    #[test]
    fn small_batches_run_sequentially() {
        // Below MIN_CHUNKS_PER_THREAD chunks per worker the fan-out is
        // pure overhead; the cutoff must route these to one thread.
        assert_eq!(effective_threads(8, 0), 1);
        assert_eq!(effective_threads(8, 1), 1);
        assert_eq!(effective_threads(8, 3), 1);
        // And the ceiling never exceeds the hardware parallelism.
        assert!(effective_threads(64, 1_000) <= default_threads());
        // Results stay correct at the cutoff boundary.
        let items: Vec<u32> = (0..(CHUNK as u32 * 3)).collect();
        let got = par_map(&items, 8, |&x| x + 1);
        let expected: Vec<u32> = items.iter().map(|x| x + 1).collect();
        assert_eq!(got, expected);
    }
}
