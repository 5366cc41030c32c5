//! Abstraction categories, PA/IV representations, and the RIG analysis
//! that chooses between them (paper §3.2.2).
//!
//! > *"For each abstraction category, we contrast between the relative
//! > information gains for two random variable representations, viz.,
//! > presence-absence and instance-valued representations."*
//!
//! An **abstraction category** is either one of the 13 named-entity
//! categories or a part-of-speech tag. For every category `X` and the
//! class variable `Y`:
//!
//! * **PA(X)** — `X ∈ {present, absent}` in the snippet;
//! * **IV(X)** — `X` takes the concrete instance value (the entity's
//!   surface form, or the stemmed word for a POS category). A snippet
//!   containing `k` instances contributes weight `1/k` to each, so every
//!   snippet has total weight 1 and the `Y` marginal — hence `H(Y)` — is
//!   identical across the two representations, which makes their RIGs
//!   directly comparable. Snippets without the category contribute their
//!   unit weight to the reserved *absent* value.
//!
//! The decision rule (and the paper's empirical outcome in Figures 3/4):
//! abstract a category (use PA) iff `RIG(Y|PA(X)) ≥ RIG(Y|IV(X))`;
//! entities end up abstracted, content POS tags (vb, rb, nn, np, jj)
//! keep their instances.

use crate::entropy::rig;
use etap_annotate::{AnnotatedSnippet, EntityCategory, PosTag};
use etap_text::stem;
use std::collections::HashMap;
use std::fmt;

/// An abstraction category: a named-entity type or a POS tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AbstractionCategory {
    /// One of the 13 named-entity categories.
    Entity(EntityCategory),
    /// A part-of-speech tag (applies to tokens outside entity spans).
    Pos(PosTag),
}

impl AbstractionCategory {
    /// Every category the analysis considers: 13 NE types + the open-
    /// and closed-class POS tags (punctuation excluded).
    #[must_use]
    pub fn all() -> Vec<AbstractionCategory> {
        let mut v: Vec<AbstractionCategory> = EntityCategory::ALL
            .iter()
            .map(|&c| AbstractionCategory::Entity(c))
            .collect();
        v.extend(
            PosTag::ALL
                .iter()
                .filter(|&&t| t != PosTag::Punct)
                .map(|&t| AbstractionCategory::Pos(t)),
        );
        v
    }

    /// Display name matching the paper's convention: NE categories in
    /// capitals, POS categories in lowercase.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            AbstractionCategory::Entity(c) => c.tag(),
            AbstractionCategory::Pos(t) => t.tag(),
        }
    }
}

impl fmt::Display for AbstractionCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// RIG of the PA and IV representations of one category.
#[derive(Debug, Clone, PartialEq)]
pub struct RigReport {
    /// The category analysed.
    pub category: AbstractionCategory,
    /// `RIG(Y | PA(X))`.
    pub rig_pa: f64,
    /// `RIG(Y | IV(X))`.
    pub rig_iv: f64,
    /// Number of snippets (across both classes) containing the category.
    pub support: usize,
    /// Number of distinct instance values observed.
    pub distinct_instances: usize,
}

impl RigReport {
    /// Should the category be abstracted (PA chosen over IV)?
    #[must_use]
    pub fn prefers_abstraction(&self) -> bool {
        self.rig_pa >= self.rig_iv
    }
}

/// What the vectorizer does with a category's tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CategoryChoice {
    /// Replace instances with the category tag (PA representation).
    Abstract,
    /// Keep the concrete instances (IV representation).
    #[default]
    Instance,
    /// Emit nothing for this category.
    Drop,
}

/// Per-category abstraction decisions used by the vectorizer: one
/// decision per entity category and per POS tag, read by plain
/// indexing — the vectorizer consults it once per token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbstractionPolicy {
    /// Indexed by `EntityCategory as usize`.
    entity: [CategoryChoice; EntityCategory::ALL.len()],
    /// Indexed by `PosTag as usize` (tokens outside entities).
    pos: [CategoryChoice; PosTag::ALL.len()],
}

impl Default for AbstractionPolicy {
    fn default() -> Self {
        Self::paper_default()
    }
}

impl AbstractionPolicy {
    /// Every entity category takes `entity`; content POS tags keep
    /// their instances and closed-class tags (whose words are stop
    /// words anyway) emit nothing.
    fn with_entities(entity: CategoryChoice) -> Self {
        let mut pos = [CategoryChoice::Drop; PosTag::ALL.len()];
        for t in PosTag::ALL {
            if t.is_content() {
                pos[t as usize] = CategoryChoice::Instance;
            }
        }
        Self {
            entity: [entity; EntityCategory::ALL.len()],
            pos,
        }
    }

    /// The policy the paper derives from Figures 3/4: PA for every
    /// entity category, IV for the content POS tags (vb, rb, nn, np,
    /// jj), and nothing for closed-class tags (whose words are stop
    /// words anyway).
    #[must_use]
    pub fn paper_default() -> Self {
        Self::with_entities(CategoryChoice::Abstract)
    }

    /// A no-abstraction baseline: every entity and every content POS tag
    /// keeps its instances (plain bag-of-words). Used by the ablation
    /// benches to quantify what abstraction buys.
    #[must_use]
    pub fn bag_of_words() -> Self {
        Self::with_entities(CategoryChoice::Instance)
    }

    /// Derive a policy from a RIG analysis: each category takes whichever
    /// representation carries more information; categories whose best
    /// RIG falls below `min_rig` are dropped outright.
    #[must_use]
    pub fn from_reports(reports: &[RigReport], min_rig: f64) -> Self {
        let mut policy = Self::paper_default();
        for r in reports {
            let choice = if r.rig_pa.max(r.rig_iv) < min_rig {
                CategoryChoice::Drop
            } else if r.prefers_abstraction() {
                CategoryChoice::Abstract
            } else {
                CategoryChoice::Instance
            };
            match r.category {
                AbstractionCategory::Entity(c) => policy.set_entity(c, choice),
                AbstractionCategory::Pos(t) => policy.set_pos(t, choice),
            }
        }
        policy
    }

    /// Decision for an entity category.
    #[must_use]
    pub fn entity_choice(&self, cat: EntityCategory) -> CategoryChoice {
        self.entity[cat as usize]
    }

    /// Decision for a POS tag (tokens outside entities).
    #[must_use]
    pub fn pos_choice(&self, tag: PosTag) -> CategoryChoice {
        self.pos[tag as usize]
    }

    /// Override the decision for an entity category.
    pub fn set_entity(&mut self, cat: EntityCategory, choice: CategoryChoice) {
        self.entity[cat as usize] = choice;
    }

    /// Override the decision for a POS tag.
    pub fn set_pos(&mut self, tag: PosTag, choice: CategoryChoice) {
        self.pos[tag as usize] = choice;
    }
}

/// Computes [`RigReport`]s over labeled annotated snippets.
#[derive(Debug, Clone)]
pub struct RigAnalysis {
    /// Add-α smoothing inside each conditional row (see
    /// [`crate::entropy::rig`]). Default 1.0.
    pub smoothing: f64,
}

impl Default for RigAnalysis {
    fn default() -> Self {
        Self { smoothing: 1.0 }
    }
}

impl RigAnalysis {
    /// Analysis with Laplace smoothing.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Compute PA and IV RIG for every abstraction category over a
    /// positive and a negative snippet set (the paper uses the pure
    /// positive and negative classes of each sales driver).
    #[must_use]
    pub fn analyze(
        &self,
        positives: &[AnnotatedSnippet],
        negatives: &[AnnotatedSnippet],
    ) -> Vec<RigReport> {
        AbstractionCategory::all()
            .into_iter()
            .map(|cat| self.analyze_category(cat, positives, negatives))
            .collect()
    }

    /// Compute one category's report.
    #[must_use]
    pub fn analyze_category(
        &self,
        category: AbstractionCategory,
        positives: &[AnnotatedSnippet],
        negatives: &[AnnotatedSnippet],
    ) -> RigReport {
        // PA table rows: [present, absent]; columns: [positive, negative].
        let mut pa = [[0.0f64; 2]; 2];
        // IV table: instance value -> [positive weight, negative weight],
        // with a reserved "absent" row.
        let mut iv: HashMap<String, [f64; 2]> = HashMap::new();
        let mut iv_absent = [0.0f64; 2];
        let mut support = 0usize;

        for (y, set) in [(0usize, positives), (1usize, negatives)] {
            for snip in set {
                let instances = category_instances(category, snip);
                if instances.is_empty() {
                    pa[1][y] += 1.0;
                    iv_absent[y] += 1.0;
                } else {
                    pa[0][y] += 1.0;
                    support += 1;
                    let w = 1.0 / instances.len() as f64;
                    for inst in instances {
                        iv.entry(inst).or_default()[y] += w;
                    }
                }
            }
        }

        let pa_table: Vec<Vec<f64>> = pa.iter().map(|r| r.to_vec()).collect();
        let mut iv_table: Vec<Vec<f64>> = iv.values().map(|r| r.to_vec()).collect();
        iv_table.push(iv_absent.to_vec());

        RigReport {
            category,
            rig_pa: rig(&pa_table, self.smoothing),
            rig_iv: rig(&iv_table, self.smoothing),
            support,
            distinct_instances: iv.len(),
        }
    }
}

/// The instance values of `category` occurring in `snip`.
fn category_instances(category: AbstractionCategory, snip: &AnnotatedSnippet) -> Vec<String> {
    match category {
        AbstractionCategory::Entity(cat) => snip
            .entities()
            .iter()
            .enumerate()
            .filter(|(_, e)| e.category == cat)
            .map(|(ei, _)| snip.entity_text(ei).to_lowercase())
            .collect(),
        AbstractionCategory::Pos(tag) => snip
            .tokens()
            .filter(|t| t.entity.is_none() && t.pos == tag)
            .map(|t| stem(&t.text.to_lowercase()))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etap_annotate::Annotator;

    fn ann(texts: &[&str]) -> Vec<AnnotatedSnippet> {
        let a = Annotator::new();
        texts.iter().map(|t| a.annotate(t)).collect()
    }

    #[test]
    fn all_categories_cover_entities_and_pos() {
        let all = AbstractionCategory::all();
        assert_eq!(
            all.iter()
                .filter(|c| matches!(c, AbstractionCategory::Entity(_)))
                .count(),
            13
        );
        assert!(all.contains(&AbstractionCategory::Pos(PosTag::Vb)));
        assert!(!all.contains(&AbstractionCategory::Pos(PosTag::Punct)));
    }

    #[test]
    fn category_lists_follow_discriminant_order() {
        for (i, c) in EntityCategory::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "{c:?}");
        }
        for (i, t) in PosTag::ALL.iter().enumerate() {
            assert_eq!(*t as usize, i, "{t:?}");
        }
    }

    #[test]
    fn paper_default_policy_shape() {
        let p = AbstractionPolicy::paper_default();
        assert_eq!(
            p.entity_choice(EntityCategory::Org),
            CategoryChoice::Abstract
        );
        assert_eq!(p.pos_choice(PosTag::Vb), CategoryChoice::Instance);
        assert_eq!(p.pos_choice(PosTag::Dt), CategoryChoice::Drop);
    }

    #[test]
    fn entity_pa_beats_iv_with_diverse_instances() {
        // Positives always contain an org (varied names); negatives never.
        let positives = ann(&[
            "IBM acquired the firm.",
            "Oracle acquired the firm.",
            "Cisco acquired the firm.",
            "Intel acquired the firm.",
            "Dell acquired the firm.",
            "Sony acquired the firm.",
        ]);
        let negatives = ann(&[
            "the weather was cold.",
            "the game ended in a draw.",
            "traffic was heavy downtown.",
            "the recipe calls for sugar.",
            "rain is expected tomorrow.",
            "the trail climbs steeply.",
        ]);
        let r = RigAnalysis::new().analyze_category(
            AbstractionCategory::Entity(EntityCategory::Org),
            &positives,
            &negatives,
        );
        assert!(r.rig_pa > 0.3, "PA should be highly informative: {r:?}");
        assert!(r.prefers_abstraction(), "{r:?}");
        assert_eq!(r.distinct_instances, 6);
    }

    #[test]
    fn verb_iv_beats_pa_when_verbs_discriminate() {
        // Both classes contain verbs (PA uninformative), but *which* verb
        // separates the classes.
        let positives = ann(&[
            "the company acquired a rival.",
            "the group acquired a startup.",
            "the firm acquired a competitor.",
            "the giant acquired a vendor.",
        ]);
        let negatives = ann(&[
            "the committee debated a motion.",
            "the team debated a strategy.",
            "the panel debated a proposal.",
            "the board debated a question.",
        ]);
        let r = RigAnalysis::new().analyze_category(
            AbstractionCategory::Pos(PosTag::Vb),
            &positives,
            &negatives,
        );
        assert!(r.rig_iv > r.rig_pa, "{r:?}");
        assert!(!r.prefers_abstraction());
    }

    #[test]
    fn absent_category_has_zero_rigs() {
        let positives = ann(&["profits rose.", "profits fell."]);
        let negatives = ann(&["rain fell.", "snow fell."]);
        let r = RigAnalysis::new().analyze_category(
            AbstractionCategory::Entity(EntityCategory::Currency),
            &positives,
            &negatives,
        );
        assert_eq!(r.support, 0);
        assert!(r.rig_pa.abs() < 1e-9);
    }

    #[test]
    fn policy_from_reports_respects_min_rig() {
        let reports = vec![
            RigReport {
                category: AbstractionCategory::Entity(EntityCategory::Org),
                rig_pa: 0.4,
                rig_iv: 0.1,
                support: 10,
                distinct_instances: 8,
            },
            RigReport {
                category: AbstractionCategory::Pos(PosTag::Vb),
                rig_pa: 0.05,
                rig_iv: 0.3,
                support: 10,
                distinct_instances: 5,
            },
            RigReport {
                category: AbstractionCategory::Pos(PosTag::Dt),
                rig_pa: 1e-6,
                rig_iv: 2e-6,
                support: 10,
                distinct_instances: 2,
            },
        ];
        let p = AbstractionPolicy::from_reports(&reports, 1e-3);
        assert_eq!(
            p.entity_choice(EntityCategory::Org),
            CategoryChoice::Abstract
        );
        assert_eq!(p.pos_choice(PosTag::Vb), CategoryChoice::Instance);
        assert_eq!(p.pos_choice(PosTag::Dt), CategoryChoice::Drop);
    }

    #[test]
    fn analyze_returns_report_per_category() {
        let positives = ann(&["IBM rose 5 % on Monday."]);
        let negatives = ann(&["a quiet day in the park."]);
        let reports = RigAnalysis::new().analyze(&positives, &negatives);
        assert_eq!(reports.len(), AbstractionCategory::all().len());
    }
}
