//! The ranking component (§4).
//!
//! Three scoring functions, exactly as the paper lays them out:
//!
//! 1. **classifier score** — "the simplest scoring function is the
//!    posterior probability of the sales-driver class" (Figure 7's
//!    ranked output);
//! 2. **semantic orientation** — lexicon-weighted phrase scores for
//!    business value (Figure 8);
//! 3. **company aggregation** — the mean-reciprocal-rank variant of
//!    Eq. 2, ranking companies by all their trigger events across all
//!    drivers.

use crate::aliases::AliasResolver;
use crate::events::TriggerEvent;
use crate::orientation::OrientationLexicon;
use crate::temporal::{Date, TemporalResolver};
use etap_annotate::Annotator;
use etap_corpus::SalesDriver;
use std::collections::HashMap;

/// Sort events by classifier score, best first. Ties break by document
/// id, then driver, then snippet text — a *total* order (up to fully
/// identical events), so the ranked output is a pure function of the
/// event *set*, independent of input order. That permutation invariance
/// is what lets an incremental rebuild (persisted ranked events + a
/// freshly identified delta) reproduce a full rebuild bit-for-bit.
#[must_use]
pub fn rank_by_score(mut events: Vec<TriggerEvent>) -> Vec<TriggerEvent> {
    events.sort_by(event_order);
    events
}

/// The total ranking order used by [`rank_by_score`] (exposed so other
/// components can assert or reuse the exact discipline).
#[must_use]
pub fn event_order(a: &TriggerEvent, b: &TriggerEvent) -> std::cmp::Ordering {
    b.score
        .total_cmp(&a.score)
        .then(a.doc_id.cmp(&b.doc_id))
        .then(a.driver.cmp(&b.driver))
        .then_with(|| a.snippet.cmp(&b.snippet))
}

/// Sort events by semantic-orientation score (returned alongside each
/// event), best first. Events the lexicon scores 0 sink to the bottom
/// in classifier-score order.
#[must_use]
pub fn rank_by_orientation(
    events: Vec<TriggerEvent>,
    lexicon: &OrientationLexicon,
) -> Vec<(TriggerEvent, f64)> {
    let mut scored: Vec<(TriggerEvent, f64)> = events
        .into_iter()
        .map(|e| {
            let s = lexicon.score(&e.snippet);
            (e, s)
        })
        .collect();
    scored.sort_by(|a, b| {
        b.1.total_cmp(&a.1)
            .then(b.0.score.total_cmp(&a.0.score))
            .then(a.0.doc_id.cmp(&b.0.doc_id))
    });
    scored
}

/// Sort events by time-weighted classifier score: `score ×
/// recency(snippet, doc date)`. Implements the paper's §5.2/§6
/// suggestion of "making the score corresponding to each snippet a
/// function of the time period associated with the snippet" — historical
/// retrospectives (biographies, old-deal case studies) sink because the
/// old dates they cite decay their weight.
///
/// Returns `(event, weighted score)` pairs, best first. `half_life_days`
/// controls the decay (365 is a sensible default for sales leads).
#[must_use]
pub fn rank_by_time_weighted_score(
    events: Vec<TriggerEvent>,
    half_life_days: f64,
) -> Vec<(TriggerEvent, f64)> {
    let annotator = Annotator::new();
    let resolver = TemporalResolver::new();
    let mut scored: Vec<(TriggerEvent, f64)> = events
        .into_iter()
        .map(|e| {
            let ann = annotator.annotate(&e.snippet);
            let recency = resolver.recency_score(&ann, Date::from(e.doc_date), half_life_days);
            let weighted = e.score * recency;
            (e, weighted)
        })
        .collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.doc_id.cmp(&b.0.doc_id)));
    scored
}

/// A company's aggregate score across all its trigger events.
#[derive(Debug, Clone, PartialEq)]
pub struct CompanyScore {
    /// Company surface form.
    pub company: String,
    /// The paper's `MRR(c)` (Eq. 2).
    pub mrr: f64,
    /// Total trigger events mentioning the company.
    pub events: usize,
}

/// Company ranking per the paper's Eq. 2:
///
/// ```text
///            Σᵢ Σⱼ 1 / rank(teⱼ(c, sdᵢ))
/// MRR(c) = ────────────────────────────────
///                Σᵢ |TE(c, sdᵢ)|
/// ```
///
/// where events of each sales driver are ranked separately (by
/// classifier score) and `rank` is the 1-based position in that
/// driver's ranked list. Returns companies sorted by MRR descending.
#[must_use]
pub fn rank_companies(events: &[TriggerEvent]) -> Vec<CompanyScore> {
    rank_companies_with(events, |s| s.to_string())
}

/// [`rank_companies`] with company-name variation resolution (§6): all
/// surface forms the [`AliasResolver`] unifies (`IBM`, `IBM Corp.`, …)
/// aggregate into one prospect.
#[must_use]
pub fn rank_companies_resolved(
    events: &[TriggerEvent],
    resolver: &mut AliasResolver,
) -> Vec<CompanyScore> {
    rank_companies_canonical(events, resolver).0
}

/// [`rank_companies_resolved`] plus the map it ranked by, from each
/// normalized name ([`AliasResolver::normalize`]) to its canonical
/// company. The resolver is order-dependent, so each normalized name is
/// canonicalized once, at its first mention in ranking order, and every
/// later mention reuses that answer. All variations of one name thus
/// count toward one company, and the map names only ranked companies.
#[must_use]
pub fn rank_companies_canonical(
    events: &[TriggerEvent],
    resolver: &mut AliasResolver,
) -> (Vec<CompanyScore>, HashMap<String, String>) {
    let mut canonical: HashMap<String, String> = HashMap::new();
    let ranked = rank_companies_with(events, |s| {
        canonical
            .entry(AliasResolver::normalize(s))
            .or_insert_with(|| resolver.canonicalize(s))
            .clone()
    });
    (ranked, canonical)
}

fn rank_companies_with(
    events: &[TriggerEvent],
    mut name_of: impl FnMut(&str) -> String,
) -> Vec<CompanyScore> {
    // Partition by driver, rank each partition by score.
    let mut by_driver: HashMap<SalesDriver, Vec<&TriggerEvent>> = HashMap::new();
    for e in events {
        by_driver.entry(e.driver).or_default().push(e);
    }
    let mut sums: HashMap<String, (f64, usize)> = HashMap::new();
    // Deterministic driver order so alias registration (first surface
    // wins) does not depend on hash-map iteration.
    let mut driver_lists: Vec<(SalesDriver, Vec<&TriggerEvent>)> = by_driver.into_iter().collect();
    driver_lists.sort_by_key(|(d, _)| *d);
    for (_, list) in &mut driver_lists {
        list.sort_by(|a, b| event_order(a, b));
        for (idx, e) in list.iter().enumerate() {
            let rank = idx + 1;
            for company in &e.companies {
                let name = name_of(company);
                let entry = sums.entry(name).or_insert((0.0, 0));
                entry.0 += 1.0 / rank as f64;
                entry.1 += 1;
            }
        }
    }
    let mut out: Vec<CompanyScore> = sums
        .into_iter()
        .map(|(company, (sum, count))| CompanyScore {
            company,
            mrr: sum / count as f64,
            events: count,
        })
        .collect();
    out.sort_by(|a, b| {
        b.mrr
            .total_cmp(&a.mrr)
            .then(b.events.cmp(&a.events))
            .then(a.company.cmp(&b.company))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(driver: SalesDriver, doc_id: usize, score: f64, companies: &[&str]) -> TriggerEvent {
        TriggerEvent {
            driver,
            doc_id,
            url: format!("http://t/{doc_id}"),
            snippet: String::new(),
            score,
            companies: companies.iter().map(ToString::to_string).collect(),
            doc_date: (2005, 6, 15),
        }
    }

    #[test]
    fn rank_by_score_descends() {
        let ranked = rank_by_score(vec![
            event(SalesDriver::RevenueGrowth, 0, 0.6, &[]),
            event(SalesDriver::RevenueGrowth, 1, 0.9, &[]),
            event(SalesDriver::RevenueGrowth, 2, 0.7, &[]),
        ]);
        let scores: Vec<f64> = ranked.iter().map(|e| e.score).collect();
        assert_eq!(scores, vec![0.9, 0.7, 0.6]);
    }

    #[test]
    fn rank_by_score_ties_break_by_doc_order() {
        let ranked = rank_by_score(vec![
            event(SalesDriver::RevenueGrowth, 5, 0.8, &[]),
            event(SalesDriver::RevenueGrowth, 2, 0.8, &[]),
        ]);
        assert_eq!(ranked[0].doc_id, 2);
    }

    #[test]
    fn orientation_ranking_prefers_strong_phrases() {
        let lex = OrientationLexicon::revenue_growth();
        let mut up = event(SalesDriver::RevenueGrowth, 0, 0.6, &[]);
        up.snippet = "Acme reported significant growth and a solid quarter.".into();
        let mut down = event(SalesDriver::RevenueGrowth, 1, 0.95, &[]);
        down.snippet = "Acme suffered severe losses and a sharp decline.".into();
        let ranked = rank_by_orientation(vec![down, up], &lex);
        assert!(ranked[0].0.snippet.contains("significant growth"));
        assert!(ranked[0].1 > 0.0);
        assert!(ranked[1].1 < 0.0);
    }

    #[test]
    fn mrr_single_driver_matches_formula() {
        // Driver list ranked: doc0 (0.9, Acme), doc1 (0.8, Acme), doc2
        // (0.7, Zed). Acme: (1/1 + 1/2)/2 = 0.75; Zed: (1/3)/1 ≈ 0.333.
        let events = vec![
            event(SalesDriver::RevenueGrowth, 0, 0.9, &["Acme"]),
            event(SalesDriver::RevenueGrowth, 1, 0.8, &["Acme"]),
            event(SalesDriver::RevenueGrowth, 2, 0.7, &["Zed"]),
        ];
        let ranked = rank_companies(&events);
        assert_eq!(ranked[0].company, "Acme");
        assert!((ranked[0].mrr - 0.75).abs() < 1e-9, "{}", ranked[0].mrr);
        assert_eq!(ranked[0].events, 2);
        assert!((ranked[1].mrr - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn mrr_aggregates_across_drivers() {
        // Acme is rank 1 in two different drivers: MRR = (1 + 1)/2 = 1.
        let events = vec![
            event(SalesDriver::RevenueGrowth, 0, 0.9, &["Acme"]),
            event(SalesDriver::MergersAcquisitions, 1, 0.9, &["Acme"]),
        ];
        let ranked = rank_companies(&events);
        assert_eq!(ranked.len(), 1);
        assert!((ranked[0].mrr - 1.0).abs() < 1e-9);
        assert_eq!(ranked[0].events, 2);
    }

    #[test]
    fn company_in_low_ranked_events_scores_low() {
        let mut events = vec![event(SalesDriver::RevenueGrowth, 0, 0.99, &["Top"])];
        for i in 1..20 {
            events.push(event(
                SalesDriver::RevenueGrowth,
                i,
                0.9 - i as f64 * 0.01,
                &["Tail"],
            ));
        }
        let ranked = rank_companies(&events);
        assert_eq!(ranked[0].company, "Top");
        assert!(ranked[0].mrr > ranked[1].mrr * 2.0);
    }

    #[test]
    fn time_weighting_sinks_historical_events() {
        let mut fresh = event(SalesDriver::ChangeInManagement, 0, 0.90, &[]);
        fresh.snippet = "Acme Corp named Jane Roe as its new CEO on Monday.".into();
        let mut historical = event(SalesDriver::ChangeInManagement, 1, 0.99, &[]);
        historical.snippet = "Mr. Andersen was the CEO of XYZ Inc. from 1989 to 1992.".into();
        let ranked = rank_by_time_weighted_score(vec![historical, fresh], 365.0);
        assert!(ranked[0].0.snippet.contains("Jane Roe"), "{ranked:?}");
        assert!(ranked[0].1 > ranked[1].1);
        // Historical event decayed to ~0 despite the higher raw score.
        assert!(ranked[1].1 < 0.05, "{}", ranked[1].1);
    }

    #[test]
    fn alias_resolution_merges_variations() {
        let events = vec![
            event(SalesDriver::RevenueGrowth, 0, 0.9, &["IBM"]),
            event(SalesDriver::RevenueGrowth, 1, 0.8, &["IBM Corp."]),
            event(SalesDriver::RevenueGrowth, 2, 0.7, &["Zed Ltd"]),
        ];
        // Without resolution: three companies.
        assert_eq!(rank_companies(&events).len(), 3);
        // With resolution: IBM + IBM Corp. merge — (1/1 + 1/2)/2 = 0.75.
        let mut resolver = AliasResolver::new();
        let merged = rank_companies_resolved(&events, &mut resolver);
        assert_eq!(merged.len(), 2, "{merged:?}");
        assert_eq!(merged[0].company, "IBM");
        assert!((merged[0].mrr - 0.75).abs() < 1e-9);
        assert_eq!(merged[0].events, 2);
    }

    #[test]
    fn empty_events_empty_ranking() {
        assert!(rank_companies(&[]).is_empty());
        assert!(rank_by_score(vec![]).is_empty());
    }
}
