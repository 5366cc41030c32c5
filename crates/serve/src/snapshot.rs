//! Immutable lead snapshots and the atomic hot-swap cell.
//!
//! A [`LeadSnapshot`] bundles everything one *generation* of the system
//! needs to answer queries: the trained per-driver models (for `POST
//! /score`) and the frozen lead book rankings (for `GET /leads` and
//! the company endpoints). Snapshots are **never mutated** after
//! construction — re-training or re-scanning builds a *new* snapshot
//! that the [`SnapshotCell`] publishes atomically.
//!
//! A generation's book is a `LEADS v2` book over shared arenas
//! ([`etap::MappedBook`]): [`LeadSnapshot::extend`] builds the next
//! generation's book on top of the previous one's sealed segments rather
//! than rebuilding it, so consecutive snapshots share most of their
//! bytes and a snapshot stays immutable all the same.
//!
//! The swap discipline gives readers a simple consistency guarantee:
//! a request loads the `Arc<LeadSnapshot>` exactly once and answers
//! entirely from it, so every response is internally consistent with a
//! single generation even while a publish is in flight. Readers never
//! block publishers and publishers never block readers beyond one brief
//! mutex-protected pointer clone (no reader holds the lock while
//! serving).

use etap::{BookHandle, LeadBook, SalesDriver, TrainedEtap};
use etap_corpus::SyntheticDoc;
use std::str::FromStr;
use std::sync::{Arc, Mutex, PoisonError};

/// One immutable generation of servable state.
#[derive(Debug)]
pub struct LeadSnapshot {
    /// Monotonically increasing publish counter (1 = first snapshot).
    pub generation: u64,
    /// Frozen rankings: global, per-driver, per-company (Eq. 2 MRR),
    /// always served from `LEADS v2` arenas — heap buffers for a book
    /// built in this process or loaded from text, file mappings for a
    /// binary generation warm-started from the generation store.
    pub book: BookHandle,
    /// The trained system (shared across generations when only the
    /// scanned corpus changed, not the models).
    pub trained: Arc<TrainedEtap>,
}

impl LeadSnapshot {
    /// Scan `docs` with `trained` and freeze the result as generation
    /// `generation`.
    #[must_use]
    pub fn build(trained: Arc<TrainedEtap>, docs: &[SyntheticDoc], generation: u64) -> Self {
        let book = trained.lead_book(docs);
        Self {
            generation,
            book: book.into(),
            trained,
        }
    }

    /// Like [`build`](Self::build) with an explicit worker-thread count
    /// for the scan (`0` = the `ETAP_THREADS` default). The resulting
    /// snapshot is bit-identical for any value — the determinism
    /// contract of `etap-runtime` extends to served responses.
    #[must_use]
    pub fn build_parallel(
        trained: Arc<TrainedEtap>,
        docs: &[SyntheticDoc],
        generation: u64,
        threads: usize,
    ) -> Self {
        let book = LeadBook::build(trained.identify_events_parallel(docs, threads));
        Self {
            generation,
            book: book.into(),
            trained,
        }
    }

    /// Incremental generation: extend `prev` with the events identified
    /// in `new_docs` only (no re-scan of the documents behind `prev`),
    /// reusing its trained models. The served book is extended in place
    /// ([`etap::MappedBook::extend`]): only the new events are encoded,
    /// every sealed segment of `prev`'s book is shared (mapped or heap),
    /// and the layout follows the rules a publish applies on disk.
    /// Because the ranking comparator is a total order, the merged
    /// ranking is permutation-invariant — the resulting book is
    /// **bit-identical** to a full rebuild over `old_docs ++ new_docs`,
    /// for any `threads` value (`0` = the `ETAP_THREADS` default).
    #[must_use]
    pub fn extend(
        prev: &LeadSnapshot,
        new_docs: &[SyntheticDoc],
        generation: u64,
        threads: usize,
    ) -> Self {
        let events = prev.trained.identify_events_parallel(new_docs, threads);
        Self {
            generation,
            book: prev.book.extend(events).into(),
            trained: Arc::clone(&prev.trained),
        }
    }

    /// Score raw snippet text against one driver's trained model.
    /// `None` when the snapshot has no model for `driver`.
    #[must_use]
    pub fn score(&self, driver: SalesDriver, text: &str) -> Option<f64> {
        self.trained.score_snippet(driver, text)
    }

    /// Drivers with a trained model in this snapshot.
    #[must_use]
    pub fn drivers(&self) -> Vec<SalesDriver> {
        self.trained.drivers.iter().map(|d| d.spec.driver).collect()
    }
}

/// Parse the driver names the HTTP API accepts: the CLI short forms
/// (`ma`, `cim`, `rev`) plus the canonical ids/names `SalesDriver`
/// itself parses.
///
/// # Errors
/// Returns the unrecognized input.
pub fn parse_driver(s: &str) -> Result<SalesDriver, String> {
    match s {
        "ma" => Ok(SalesDriver::MergersAcquisitions),
        "cim" => Ok(SalesDriver::ChangeInManagement),
        "rev" => Ok(SalesDriver::RevenueGrowth),
        other => SalesDriver::from_str(other).map_err(|_| other.to_string()),
    }
}

/// The hot-swap holder: readers [`load`](Self::load) an `Arc` clone,
/// publishers [`publish`](Self::publish) a replacement. Both operations
/// touch the mutex only long enough to clone/replace the pointer.
#[derive(Debug)]
pub struct SnapshotCell {
    current: Mutex<Arc<LeadSnapshot>>,
}

impl SnapshotCell {
    /// Cell starting at `initial`.
    #[must_use]
    pub fn new(initial: Arc<LeadSnapshot>) -> Self {
        Self {
            current: Mutex::new(initial),
        }
    }

    /// The currently published snapshot. Each request calls this once
    /// and must answer entirely from the returned `Arc` (that is the
    /// mixed-generation guard).
    #[must_use]
    pub fn load(&self) -> Arc<LeadSnapshot> {
        // The critical section is a pointer clone/swap — it cannot leave
        // the Arc torn — so a poisoned lock (a panic elsewhere while the
        // lock was held) is recovered, not propagated: one crashed
        // worker must not take every subsequent request down with it.
        Arc::clone(&self.current.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Atomically replace the published snapshot, returning the
    /// generation it superseded. In-flight requests keep serving from
    /// the old `Arc` until they finish; its memory is freed when the
    /// last one drops it.
    pub fn publish(&self, next: Arc<LeadSnapshot>) -> u64 {
        let mut slot = self
            .current
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let old = slot.generation;
        *slot = next;
        old
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etap::TriggerEvent;

    fn snapshot(generation: u64) -> Arc<LeadSnapshot> {
        let trained = Arc::new(TrainedEtap::from_drivers(Vec::new(), 3));
        let events = vec![TriggerEvent {
            driver: SalesDriver::RevenueGrowth,
            doc_id: generation as usize,
            url: String::new(),
            snippet: format!("gen {generation}"),
            score: 0.9,
            companies: vec!["Acme".into()],
            doc_date: (2005, 1, 1),
        }];
        Arc::new(LeadSnapshot {
            generation,
            book: LeadBook::build(events).into(),
            trained,
        })
    }

    #[test]
    fn publish_swaps_atomically() {
        let cell = SnapshotCell::new(snapshot(1));
        let before = cell.load();
        assert_eq!(before.generation, 1);
        let superseded = cell.publish(snapshot(2));
        assert_eq!(superseded, 1);
        assert_eq!(cell.load().generation, 2);
        // The old Arc stays valid for in-flight readers.
        assert_eq!(before.book.top(1)[0].snippet(), "gen 1");
    }

    #[test]
    fn driver_parsing_accepts_all_spellings() {
        assert_eq!(
            parse_driver("ma").unwrap(),
            SalesDriver::MergersAcquisitions
        );
        assert_eq!(
            parse_driver("change_in_management").unwrap(),
            SalesDriver::ChangeInManagement
        );
        assert_eq!(parse_driver("rev").unwrap(), SalesDriver::RevenueGrowth);
        assert!(parse_driver("astrology").is_err());
    }

    #[test]
    fn empty_snapshot_scores_nothing() {
        let snap = snapshot(1);
        assert!(snap.score(SalesDriver::RevenueGrowth, "text").is_none());
        assert!(snap.drivers().is_empty());
    }
}
