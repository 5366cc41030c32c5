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
use crate::rank::{self, CompanyScore};
use etap_corpus::SalesDriver;
use std::collections::HashMap;

/// An immutable, query-ready index over ranked trigger events.
#[derive(Debug, Clone, PartialEq)]
pub struct LeadBook {
    /// All events, globally ranked by classifier score (best first).
    events: Vec<TriggerEvent>,
    /// Per-driver rankings: indices into `events`, best first.
    by_driver: Vec<(SalesDriver, Vec<usize>)>,
    /// Companies ranked by Eq. 2 MRR, alias-resolved.
    companies: Vec<CompanyScore>,
    /// Canonical company name → indices into `events` (score order).
    by_company: HashMap<String, Vec<usize>>,
    /// Normalized lookup key → canonical company name.
    name_keys: HashMap<String, String>,
}

impl LeadBook {
    /// Build the book from identified events: rank globally, per driver,
    /// and per company (alias-resolved, Eq. 2).
    #[must_use]
    pub fn build(events: Vec<TriggerEvent>) -> Self {
        let events = rank::rank_by_score(events);

        let mut by_driver: Vec<(SalesDriver, Vec<usize>)> = Vec::new();
        for (i, e) in events.iter().enumerate() {
            match by_driver.iter_mut().find(|(d, _)| *d == e.driver) {
                Some((_, idxs)) => idxs.push(i),
                None => by_driver.push((e.driver, vec![i])),
            }
        }
        by_driver.sort_by_key(|(d, _)| *d);

        // One canonicalization per name, shared by the MRR ranking and
        // the lookup keys, so every key names a ranked company.
        let (companies, name_keys) =
            rank::rank_companies_canonical(&events, &mut AliasResolver::new());

        let mut by_company: HashMap<String, Vec<usize>> = HashMap::new();
        for (i, e) in events.iter().enumerate() {
            for surface in &e.companies {
                let canonical = &name_keys[&AliasResolver::normalize(surface)];
                let idxs = by_company.entry(canonical.clone()).or_default();
                if idxs.last() != Some(&i) {
                    idxs.push(i);
                }
            }
        }

        Self {
            events,
            by_driver,
            companies,
            by_company,
            name_keys,
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
        &self.companies
    }

    /// Resolve a company name (any surface variation) to its canonical
    /// form, without mutating the book.
    #[must_use]
    pub fn resolve_company(&self, name: &str) -> Option<&str> {
        self.name_keys
            .get(&AliasResolver::normalize(name))
            .map(String::as_str)
    }

    /// A company's MRR score and its events (score order), looked up by
    /// any surface variation of its name.
    #[must_use]
    pub fn company_events(&self, name: &str) -> Option<(&CompanyScore, Vec<&TriggerEvent>)> {
        let canonical = self.resolve_company(name)?;
        let score = self.companies.iter().find(|c| c.company == canonical)?;
        let events = self
            .by_company
            .get(canonical)
            .map(|idxs| idxs.iter().map(|&i| &self.events[i]).collect())
            .unwrap_or_default();
        Some((score, events))
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

    /// Per-company index lists, for the binary encoder (`leads2`).
    pub(crate) fn by_company_raw(&self) -> &HashMap<String, Vec<usize>> {
        &self.by_company
    }

    /// Normalized-name lookup keys, for the binary encoder (`leads2`).
    pub(crate) fn name_keys_raw(&self) -> &HashMap<String, String> {
        &self.name_keys
    }
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
