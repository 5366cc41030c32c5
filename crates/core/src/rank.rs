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

use crate::aliases::{AliasResolver, FnvMap};
use crate::events::TriggerEvent;
use crate::orientation::OrientationLexicon;
use crate::temporal::{Date, TemporalResolver};
use etap_annotate::{AnnotateScratch, Annotator};
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

/// The fields the ranking order compares: score, document id, driver,
/// snippet.
pub type RankKey<'a> = (f64, usize, SalesDriver, &'a str);

/// The total ranking order used by [`rank_by_score`] (exposed so other
/// components can assert or reuse the exact discipline).
#[must_use]
pub fn event_order(a: &TriggerEvent, b: &TriggerEvent) -> std::cmp::Ordering {
    key_order(rank_key(a), rank_key(b))
}

/// The [`RankKey`] of an event.
#[must_use]
pub fn rank_key(e: &TriggerEvent) -> RankKey<'_> {
    (e.score, e.doc_id, e.driver, &e.snippet)
}

/// [`event_order`] on bare [`RankKey`]s: score descending, then document
/// id, driver and snippet ascending. A sealed book compares its records
/// through this without decoding them into owned events.
#[must_use]
pub fn key_order(a: RankKey<'_>, b: RankKey<'_>) -> std::cmp::Ordering {
    b.0.total_cmp(&a.0)
        .then(a.1.cmp(&b.1))
        .then(a.2.cmp(&b.2))
        .then_with(|| a.3.cmp(b.3))
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
/// Snippets are annotated with the caller's `annotator`, so its gazetteer
/// automaton is built once, not per call.
#[must_use]
pub fn rank_by_time_weighted_score(
    events: Vec<TriggerEvent>,
    half_life_days: f64,
    annotator: &Annotator,
) -> Vec<(TriggerEvent, f64)> {
    let mut scratch = AnnotateScratch::new();
    let resolver = TemporalResolver::new();
    let mut scored: Vec<(TriggerEvent, f64)> = events
        .into_iter()
        .map(|e| {
            let ann = annotator.annotate_with(&e.snippet, &mut scratch);
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

/// The company mentions of events given in global rank order: each
/// event's driver and company surface forms. This is all the per-driver
/// rankings and Eq. 2 read, whether the events are owned or views into
/// a sealed book.
#[derive(Debug, Default)]
pub struct Mentions<'a> {
    drivers: Vec<SalesDriver>,
    /// Event `i`'s surfaces are `surfaces[ends[i - 1]..ends[i]]`.
    ends: Vec<usize>,
    surfaces: Vec<&'a str>,
}

impl<'a> Mentions<'a> {
    /// Append the next event in rank order.
    pub fn push(&mut self, driver: SalesDriver, companies: impl IntoIterator<Item = &'a str>) {
        self.surfaces.extend(companies);
        self.drivers.push(driver);
        self.ends.push(self.surfaces.len());
    }

    /// Number of events.
    fn len(&self) -> usize {
        self.drivers.len()
    }

    /// Mention indices (into `surfaces`) of event `i`.
    fn span(&self, i: usize) -> std::ops::Range<usize> {
        (if i == 0 { 0 } else { self.ends[i - 1] })..self.ends[i]
    }

    /// The per-driver rankings: each driver present, in canonical order,
    /// with the positions of its events, best first.
    #[must_use]
    pub fn by_driver(&self) -> Vec<(SalesDriver, Vec<usize>)> {
        let mut by_driver: Vec<(SalesDriver, Vec<usize>)> = Vec::new();
        for (i, &d) in self.drivers.iter().enumerate() {
            match by_driver.iter_mut().find(|(x, _)| *x == d) {
                Some((_, idxs)) => idxs.push(i),
                None => by_driver.push((d, vec![i])),
            }
        }
        by_driver.sort_by_key(|(d, _)| *d);
        by_driver
    }

    /// Eq. 2's sums over these mentions, each counting toward the
    /// company `company_of` names by a dense id, handed out in
    /// first-seen order.
    fn tally(&self, mut company_of: impl FnMut(&'a str) -> usize) -> Tally {
        let mut sums: Vec<(f64, usize)> = Vec::new();
        let mut ids = vec![0; self.surfaces.len()];
        // Drivers in canonical order, so alias registration (first
        // surface wins) does not depend on hash-map iteration; each
        // driver's events ranked separately.
        for (_, list) in self.by_driver() {
            for (idx, &e) in list.iter().enumerate() {
                let rank = idx + 1;
                for m in self.span(e) {
                    let id = company_of(self.surfaces[m]);
                    if id >= sums.len() {
                        sums.resize(id + 1, (0.0, 0));
                    }
                    sums[id].0 += 1.0 / rank as f64;
                    sums[id].1 += 1;
                    ids[m] = id;
                }
            }
        }
        Tally { sums, ids }
    }

    /// Rank the companies `tally` counted, `names[id]` naming each.
    /// Returns the ranking (without name keys) and each id's position
    /// in it.
    fn rank(&self, tally: Tally, names: Vec<String>) -> (CompanyRanking, Vec<usize>) {
        let Tally { sums, ids } = tally;
        let mut scored: Vec<(CompanyScore, usize)> = names
            .into_iter()
            .zip(sums)
            .enumerate()
            .map(|(id, (company, (sum, count)))| {
                let score = CompanyScore {
                    company,
                    mrr: sum / count as f64,
                    events: count,
                };
                (score, id)
            })
            .collect();
        scored.sort_by(|(a, _), (b, _)| {
            b.mrr
                .total_cmp(&a.mrr)
                .then(b.events.cmp(&a.events))
                .then(a.company.cmp(&b.company))
        });
        let mut position = vec![0; scored.len()];
        for (at, (_, id)) in scored.iter().enumerate() {
            position[*id] = at;
        }

        // Each company's events, each once, in rank order: counted, then
        // filled into one flat list.
        let n = scored.len();
        let mut ends = vec![0usize; n];
        let mut last = vec![usize::MAX; n];
        for e in 0..self.len() {
            for m in self.span(e) {
                let c = position[ids[m]];
                if std::mem::replace(&mut last[c], e) != e {
                    ends[c] += 1;
                }
            }
        }
        let mut next = Vec::with_capacity(n);
        let mut total = 0;
        for end in &mut ends {
            next.push(total);
            total += *end;
            *end = total;
        }
        let mut events = vec![0; total];
        last.fill(usize::MAX);
        for e in 0..self.len() {
            for m in self.span(e) {
                let c = position[ids[m]];
                if std::mem::replace(&mut last[c], e) != e {
                    events[next[c]] = e;
                    next[c] += 1;
                }
            }
        }
        let ranking = CompanyRanking {
            companies: scored.into_iter().map(|(score, _)| score).collect(),
            events,
            ends,
            name_keys: Vec::new(),
        };
        (ranking, position)
    }
}

/// Per company id, `(Σ 1/rank, mentions)`; per mention, its company id.
struct Tally {
    sums: Vec<(f64, usize)>,
    ids: Vec<usize>,
}

impl<'a, I: IntoIterator<Item = &'a str>> FromIterator<(SalesDriver, I)> for Mentions<'a> {
    fn from_iter<T: IntoIterator<Item = (SalesDriver, I)>>(events: T) -> Self {
        let mut mentions = Self::default();
        for (driver, companies) in events {
            mentions.push(driver, companies);
        }
        mentions
    }
}

/// Companies ranked by Eq. 2, with the lists a lead book indexes them
/// by.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CompanyRanking {
    /// Companies by `MRR(c)`, best first.
    pub companies: Vec<CompanyScore>,
    /// The positions of the events mentioning each company, each once,
    /// best first, company after company (see [`events_of`](Self::events_of)).
    events: Vec<usize>,
    /// `ends[i]`: where company `i`'s positions end in `events`.
    ends: Vec<usize>,
    /// Each normalized name ([`AliasResolver::normalize`]) with the
    /// index in `companies` of its canonical company, sorted by name;
    /// empty when ranked without alias resolution.
    pub name_keys: Vec<(String, usize)>,
}

impl CompanyRanking {
    /// The positions of the events mentioning `companies[i]`, each once,
    /// best first.
    #[must_use]
    pub fn events_of(&self, i: usize) -> &[usize] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.events[start..self.ends[i]]
    }
}

/// Events as rank-ordered mentions.
fn ranked_mentions(events: &[TriggerEvent]) -> Mentions<'_> {
    let mut ranked: Vec<&TriggerEvent> = events.iter().collect();
    ranked.sort_by(|a, b| event_order(a, b));
    ranked
        .into_iter()
        .map(|e| (e.driver, e.companies.iter().map(String::as_str)))
        .collect()
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
    let mut ids: HashMap<&str, usize> = HashMap::new();
    let mut names = Vec::new();
    let mentions = ranked_mentions(events);
    let tally = mentions.tally(|surface| {
        *ids.entry(surface).or_insert_with(|| {
            names.push(surface.to_string());
            names.len() - 1
        })
    });
    mentions.rank(tally, names).0.companies
}

/// [`rank_companies`] with company-name variation resolution (§6): all
/// surface forms the [`AliasResolver`] unifies (`IBM`, `IBM Corp.`, …)
/// aggregate into one prospect.
#[must_use]
pub fn rank_companies_resolved(
    events: &[TriggerEvent],
    resolver: &mut AliasResolver,
) -> Vec<CompanyScore> {
    rank_companies_canonical(&ranked_mentions(events), resolver).companies
}

/// [`rank_companies_resolved`] over mentions already in rank order, with
/// the name keys it ranked by. The resolver is order-dependent, so each
/// normalized name is canonicalized once, at its first mention in
/// ranking order, and every later mention reuses that answer. All
/// variations of one name thus count toward one company, and every key
/// names a ranked company. Each distinct surface form is normalized
/// once.
#[must_use]
pub fn rank_companies_canonical(
    mentions: &Mentions<'_>,
    resolver: &mut AliasResolver,
) -> CompanyRanking {
    let mut by_surface: FnvMap<&str, usize> = FnvMap::default();
    let mut by_key: FnvMap<String, usize> = FnvMap::default();
    let mut by_name: FnvMap<String, usize> = FnvMap::default();
    let tally = mentions.tally(|surface| {
        *by_surface.entry(surface).or_insert_with(|| {
            let key = AliasResolver::normalize(surface);
            if let Some(&id) = by_key.get(&key) {
                return id;
            }
            let name = resolver.canonicalize_key(&key, surface);
            let next = by_name.len();
            let id = *by_name.entry(name).or_insert(next);
            by_key.insert(key, id);
            id
        })
    });
    let mut names = vec![String::new(); by_name.len()];
    for (name, id) in by_name {
        names[id] = name;
    }
    let (mut ranking, position) = mentions.rank(tally, names);
    ranking.name_keys = by_key
        .into_iter()
        .map(|(key, id)| (key, position[id]))
        .collect();
    ranking.name_keys.sort_unstable();
    ranking
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
        let ranked = rank_by_time_weighted_score(vec![historical, fresh], 365.0, &Annotator::new());
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
