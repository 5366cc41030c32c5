//! The lead book: a serving-ready index over identified trigger events.
//!
//! The offline pipeline ends with an unordered `Vec<TriggerEvent>`; the
//! ranked views the paper's end users consume (§4) — the per-driver
//! score ranking of Figure 7 and the Eq. 2 `MRR(c)` company ranking —
//! were previously recomputed ad hoc by every CLI command. A
//! [`LeadBook`] computes them **once**, alias-resolved, and freezes the
//! result into an immutable index designed to be read concurrently:
//! every accessor takes `&self`, so a book wrapped in an `Arc` can be
//! shared across server worker threads and hot-swapped wholesale
//! (see the `etap-serve` crate).
//!
//! Determinism carries over from the ranking functions: the same events
//! produce a byte-identical book regardless of thread count or
//! insertion order of equal-score events (ties break by document id).

use crate::aliases::AliasResolver;
use crate::events::TriggerEvent;
use crate::rank::{self, CompanyRanking, CompanyScore, Mentions};
use etap_corpus::SalesDriver;

/// An immutable, query-ready index over ranked trigger events.
#[derive(Debug, Clone, PartialEq)]
pub struct LeadBook {
    /// All events, globally ranked by classifier score (best first).
    events: Vec<TriggerEvent>,
    /// Per-driver rankings: indices into `events`, best first.
    by_driver: Vec<(SalesDriver, Vec<usize>)>,
    /// Companies ranked by Eq. 2 MRR, alias-resolved, with each one's
    /// event indices (score order) and the normalized lookup keys.
    companies: CompanyRanking,
}

impl LeadBook {
    /// Build the book from identified events: rank globally, per driver,
    /// and per company (alias-resolved, Eq. 2).
    #[must_use]
    pub fn build(events: Vec<TriggerEvent>) -> Self {
        let events = rank::rank_by_score(events);
        let (by_driver, companies) = directories(
            &events
                .iter()
                .map(|e| (e.driver, e.companies.iter().map(String::as_str)))
                .collect(),
        );
        Self {
            events,
            by_driver,
            companies,
        }
    }

    /// All events, best first.
    #[must_use]
    pub fn events(&self) -> &[TriggerEvent] {
        &self.events
    }

    /// The top `top` events across all drivers (best first).
    #[must_use]
    pub fn top(&self, top: usize) -> &[TriggerEvent] {
        &self.events[..top.min(self.events.len())]
    }

    /// The top `top` events for one driver (best first).
    #[must_use]
    pub fn top_for(&self, driver: SalesDriver, top: usize) -> Vec<&TriggerEvent> {
        self.by_driver
            .iter()
            .find(|(d, _)| *d == driver)
            .map(|(_, idxs)| idxs.iter().take(top).map(|&i| &self.events[i]).collect())
            .unwrap_or_default()
    }

    /// Companies ranked by `MRR(c)` (Eq. 2), best first.
    #[must_use]
    pub fn companies(&self) -> &[CompanyScore] {
        &self.companies.companies
    }

    /// The index into [`companies`](Self::companies) of the company a
    /// name (any surface variation) resolves to.
    fn company_index(&self, name: &str) -> Option<usize> {
        let key = AliasResolver::normalize(name);
        let keys = &self.companies.name_keys;
        let at = keys.binary_search_by(|(k, _)| k.as_str().cmp(&key)).ok()?;
        Some(keys[at].1)
    }

    /// Resolve a company name (any surface variation) to its canonical
    /// form, without mutating the book.
    #[must_use]
    pub fn resolve_company(&self, name: &str) -> Option<&str> {
        Some(&self.companies().get(self.company_index(name)?)?.company)
    }

    /// A company's MRR score and its events (score order), looked up by
    /// any surface variation of its name.
    #[must_use]
    pub fn company_events(&self, name: &str) -> Option<(&CompanyScore, Vec<&TriggerEvent>)> {
        let idx = self.company_index(name)?;
        let events = self
            .companies
            .events_of(idx)
            .iter()
            .map(|&i| &self.events[i])
            .collect();
        Some((self.companies().get(idx)?, events))
    }

    /// Total ranked events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the book holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Drivers present in the book, in canonical order.
    #[must_use]
    pub fn drivers(&self) -> Vec<SalesDriver> {
        self.by_driver.iter().map(|(d, _)| *d).collect()
    }

    /// Per-driver index lists, for the binary encoder (`leads2`).
    pub(crate) fn by_driver_raw(&self) -> &[(SalesDriver, Vec<usize>)] {
        &self.by_driver
    }

    /// The company ranking with its index lists and name keys, for the
    /// binary encoder (`leads2`).
    pub(crate) fn ranking(&self) -> &CompanyRanking {
        &self.companies
    }
}

/// Every directory of a book over rank-ordered mentions: the per-driver
/// rankings and the alias-resolved Eq. 2 company ranking. A built book
/// and an extended sealed one both index through this.
pub(crate) fn directories(
    mentions: &Mentions<'_>,
) -> (Vec<(SalesDriver, Vec<usize>)>, CompanyRanking) {
    (
        mentions.by_driver(),
        rank::rank_companies_canonical(mentions, &mut AliasResolver::new()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(driver: SalesDriver, doc_id: usize, score: f64, companies: &[&str]) -> TriggerEvent {
        TriggerEvent {
            driver,
            doc_id,
            url: format!("http://t/{doc_id}"),
            snippet: format!("snippet {doc_id}"),
            score,
            companies: companies.iter().map(ToString::to_string).collect(),
            doc_date: (2005, 6, 15),
        }
    }

    fn sample() -> Vec<TriggerEvent> {
        vec![
            event(SalesDriver::RevenueGrowth, 0, 0.9, &["Acme"]),
            event(SalesDriver::RevenueGrowth, 1, 0.8, &["Acme Corp."]),
            event(SalesDriver::MergersAcquisitions, 2, 0.95, &["Zed Ltd"]),
            event(SalesDriver::RevenueGrowth, 3, 0.7, &["Zed"]),
        ]
    }

    #[test]
    fn global_ranking_is_score_descending() {
        let book = LeadBook::build(sample());
        let scores: Vec<f64> = book.events().iter().map(|e| e.score).collect();
        assert_eq!(scores, vec![0.95, 0.9, 0.8, 0.7]);
        assert_eq!(book.top(2).len(), 2);
        assert_eq!(book.len(), 4);
    }

    #[test]
    fn per_driver_ranking_filters_and_orders() {
        let book = LeadBook::build(sample());
        let rev = book.top_for(SalesDriver::RevenueGrowth, 10);
        assert_eq!(rev.len(), 3);
        assert!(rev.windows(2).all(|w| w[0].score >= w[1].score));
        assert_eq!(book.top_for(SalesDriver::ChangeInManagement, 10).len(), 0);
        assert_eq!(
            book.drivers(),
            vec![
                SalesDriver::MergersAcquisitions,
                SalesDriver::RevenueGrowth
            ]
        );
    }

    #[test]
    fn company_lookup_resolves_aliases() {
        let book = LeadBook::build(sample());
        // "Acme" and "Acme Corp." merged; lookup works through either.
        let (score, events) = book.company_events("Acme Corp.").expect("found");
        assert_eq!(score.company, "Acme");
        assert_eq!(events.len(), 2);
        assert_eq!(score.events, 2);
        assert!(book.company_events("Nonexistent Industries").is_none());
        // Zed and Zed Ltd merged too.
        let (zed, zed_events) = book.company_events("zed").expect("found");
        assert_eq!(zed.events, 2);
        assert_eq!(zed_events.len(), 2);
    }

    #[test]
    fn mrr_matches_rank_companies_resolved() {
        let events = sample();
        let book = LeadBook::build(events.clone());
        let ranked = rank::rank_by_score(events);
        let mut resolver = AliasResolver::new();
        let expected = rank::rank_companies_resolved(&ranked, &mut resolver);
        assert_eq!(book.companies(), &expected[..]);
    }

    #[test]
    fn empty_book() {
        let book = LeadBook::build(Vec::new());
        assert!(book.is_empty());
        assert!(book.companies().is_empty());
        assert!(book.top(5).is_empty());
    }
}
