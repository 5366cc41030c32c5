//! Bounded work queue + long-lived worker pool (std-only).
//!
//! [`par`](crate::par) covers *batch* parallelism: fan a finite slice
//! out over scoped threads and join. A server has the opposite shape —
//! an unbounded stream of small jobs arriving over time, handled by a
//! fixed set of long-lived workers. This module supplies the two
//! primitives that shape needs:
//!
//! * [`Bounded`] — a blocking MPMC queue with a hard capacity. Pushes
//!   never block: [`Bounded::try_push`] fails fast when the queue is
//!   full, which is exactly the backpressure contract a load-shedding
//!   server wants (reject with `503 Retry-After` instead of queueing
//!   unboundedly and timing every request out).
//! * [`WorkerPool`] — `n` named OS threads draining a shared
//!   [`Bounded`] until it is [closed](Bounded::close), then exiting.
//!   Closing the queue *is* graceful shutdown: in-flight and already
//!   queued jobs complete, new pushes are refused.
//!
//! Both are `std`-only (Mutex + Condvar + atomics), consistent with the
//! workspace's empty-registry build policy.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Why a [`Bounded::try_push`] was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity; the item is handed back (shed it).
    Full(T),
    /// The queue was closed; the item is handed back.
    Closed(T),
}

impl<T> PushError<T> {
    /// Recover the rejected item.
    pub fn into_inner(self) -> T {
        match self {
            Self::Full(t) | Self::Closed(t) => t,
        }
    }
}

struct State<T> {
    queue: VecDeque<T>,
    closed: bool,
}

/// A blocking, bounded, multi-producer multi-consumer queue.
///
/// Producers use the non-blocking [`try_push`](Self::try_push) (full ⇒
/// shed); consumers block in [`pop`](Self::pop) until an item arrives
/// or the queue is closed and drained.
pub struct Bounded<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    capacity: usize,
    /// Mirror of the queue length, readable without the lock (metrics).
    depth: AtomicUsize,
}

impl<T> Bounded<T> {
    /// A queue holding at most `capacity` items (min 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(State {
                queue: VecDeque::with_capacity(capacity.max(1)),
                closed: false,
            }),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
            depth: AtomicUsize::new(0),
        }
    }

    /// The configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current queue depth (approximate once returned — items drain
    /// concurrently). Lock-free; safe to call from a metrics endpoint.
    #[must_use]
    pub fn len(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// Whether the queue is currently empty (same caveat as [`len`](Self::len)).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lock the state, recovering from poison: every critical section
    /// here keeps the queue structurally valid at each step (the only
    /// mirror, `depth`, is advisory), so a panic elsewhere while the
    /// lock was held must not wedge the whole server.
    fn lock_state(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueue without blocking. Fails with [`PushError::Full`] at
    /// capacity and [`PushError::Closed`] after [`close`](Self::close).
    ///
    /// # Errors
    /// Returns the item back inside the error so the caller can shed it.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut state = self.lock_state();
        if state.closed {
            return Err(PushError::Closed(item));
        }
        if state.queue.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        state.queue.push_back(item);
        self.depth.store(state.queue.len(), Ordering::Relaxed);
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Block until an item is available (returning it) or the queue is
    /// closed *and* drained (returning `None` — the worker-exit signal).
    pub fn pop(&self) -> Option<T> {
        let mut state = self.lock_state();
        loop {
            if let Some(item) = state.queue.pop_front() {
                self.depth.store(state.queue.len(), Ordering::Relaxed);
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self
                .not_empty
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Close the queue: subsequent pushes fail, consumers drain what is
    /// queued and then receive `None`. Idempotent.
    pub fn close(&self) {
        let mut state = self.lock_state();
        state.closed = true;
        drop(state);
        self.not_empty.notify_all();
    }
}

/// A fixed set of long-lived worker threads draining a [`Bounded`].
///
/// Each worker runs `handler(item)` for every item it pops and exits
/// when the queue closes. A panic in the handler is caught: the item
/// is lost, the panic is counted (see
/// [`panic_count`](Self::panic_count)), and the worker keeps draining
/// — otherwise each panic would silently shrink pool capacity until
/// every item queues and sheds.
pub struct WorkerPool {
    handles: Vec<std::thread::JoinHandle<()>>,
    panics: Arc<AtomicUsize>,
}

impl WorkerPool {
    /// Spawn `workers` (min 1) threads named `<name>-0 … <name>-n`
    /// draining `queue` with `handler`.
    pub fn spawn<T, F>(name: &str, workers: usize, queue: &Arc<Bounded<T>>, handler: F) -> Self
    where
        T: Send + 'static,
        F: Fn(T) + Send + Clone + 'static,
    {
        let panics = Arc::new(AtomicUsize::new(0));
        let handles = (0..workers.max(1))
            .map(|i| {
                let queue = Arc::clone(queue);
                let handler = handler.clone();
                let panics = Arc::clone(&panics);
                std::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || {
                        while let Some(item) = queue.pop() {
                            let caught =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    handler(item)
                                }));
                            if caught.is_err() {
                                panics.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        Self { handles, panics }
    }

    /// Handler panics caught so far (every worker survived them).
    #[must_use]
    pub fn panic_count(&self) -> usize {
        self.panics.load(Ordering::Relaxed)
    }

    /// Number of worker threads.
    #[must_use]
    pub fn len(&self) -> usize {
        self.handles.len()
    }

    /// Whether the pool has no workers (never true for a spawned pool).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.handles.is_empty()
    }

    /// Wait for every worker to exit. Close the queue first or this
    /// blocks forever.
    pub fn join(self) {
        for handle in self.handles {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn push_pop_roundtrip() {
        let q = Bounded::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert!(q.is_empty());
    }

    #[test]
    fn full_queue_sheds() {
        let q = Bounded::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        match q.try_push(3) {
            Err(PushError::Full(3)) => {}
            other => panic!("expected Full(3), got {other:?}"),
        }
    }

    #[test]
    fn close_drains_then_stops() {
        let q = Bounded::new(4);
        q.try_push(7).unwrap();
        q.close();
        assert!(matches!(q.try_push(8), Err(PushError::Closed(8))));
        assert_eq!(q.pop(), Some(7), "queued items still drain after close");
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pool_processes_all_items_across_workers() {
        let q = Arc::new(Bounded::new(64));
        let sum = Arc::new(AtomicUsize::new(0));
        let pool = {
            let sum = Arc::clone(&sum);
            WorkerPool::spawn("test-worker", 4, &q, move |x: usize| {
                sum.fetch_add(x, Ordering::Relaxed);
            })
        };
        assert_eq!(pool.len(), 4);
        let mut pushed = 0usize;
        for i in 0..1_000 {
            // A full queue is legal under load; retry until accepted.
            let mut item = i;
            loop {
                match q.try_push(item) {
                    Ok(()) => break,
                    Err(PushError::Full(back)) => {
                        item = back;
                        std::thread::yield_now();
                    }
                    Err(PushError::Closed(_)) => panic!("queue closed early"),
                }
            }
            pushed += i;
        }
        q.close();
        pool.join();
        assert_eq!(sum.load(Ordering::Relaxed), pushed);
    }

    #[test]
    fn workers_survive_handler_panics() {
        let q: Arc<Bounded<usize>> = Arc::new(Bounded::new(16));
        let processed = Arc::new(AtomicUsize::new(0));
        let pool = {
            let processed = Arc::clone(&processed);
            WorkerPool::spawn("panicky-worker", 1, &q, move |x: usize| {
                if x == 0 {
                    panic!("boom");
                }
                processed.fetch_add(1, Ordering::Relaxed);
            })
        };
        // A panicking item, then normal items the same (sole) worker
        // must still be alive to drain.
        q.try_push(0).unwrap();
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.close();
        // Wait for the drain so the counts are settled before join
        // consumes the pool.
        for _ in 0..200 {
            if processed.load(Ordering::Relaxed) == 2 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(pool.panic_count(), 1);
        pool.join();
        assert_eq!(processed.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn blocked_pop_wakes_on_close() {
        let q: Arc<Bounded<u32>> = Arc::new(Bounded::new(1));
        let waiter = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(waiter.join().unwrap(), None);
    }
}
