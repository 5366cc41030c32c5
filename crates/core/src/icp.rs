//! ICP (ideal customer profile) lead scoring.
//!
//! Ranking by trigger-event evidence (§4, Eq. 2) says *something is
//! happening* at a company; it says nothing about whether the company
//! is one the sales team should want. This stage layers a classic
//! firmographic fit score on top: configurable industry / size / region
//! targets with per-factor weights, producing a **0–100 score with a
//! per-factor explanation** for every lead.
//!
//! There is no firmographics database in this reproduction, so company
//! profiles are derived deterministically from the company name (an
//! FNV-1a hash picks industry, region, and headcount from fixed
//! vocabularies). The derivation is a documented stand-in with the
//! exact interface a real enrichment provider would slot into —
//! everything downstream (weighting, explanation, serving) is real.

use etap_persist::fnv1a64;

/// Industry vocabulary profiles draw from (stable order — indexes are
/// hashed into it, so reordering would silently reassign companies).
pub const INDUSTRIES: [&str; 12] = [
    "software",
    "manufacturing",
    "retail",
    "finance",
    "healthcare",
    "energy",
    "telecom",
    "logistics",
    "media",
    "education",
    "hospitality",
    "construction",
];

/// Region vocabulary profiles draw from (stable order, as above).
pub const REGIONS: [&str; 6] = [
    "north-america",
    "europe",
    "asia-pacific",
    "south-america",
    "middle-east",
    "africa",
];

/// A company's firmographic profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompanyProfile {
    /// Industry, from [`INDUSTRIES`].
    pub industry: &'static str,
    /// Operating region, from [`REGIONS`].
    pub region: &'static str,
    /// Headcount.
    pub employees: u32,
}

/// The deterministic profile for a company name. Same name → same
/// profile, across processes and thread counts.
#[must_use]
pub fn profile_for(company: &str) -> CompanyProfile {
    let h = fnv1a64(company.as_bytes());
    let industry = INDUSTRIES[(h % INDUSTRIES.len() as u64) as usize];
    let region = REGIONS[((h >> 8) % REGIONS.len() as u64) as usize];
    // Log-uniform-ish headcount between 10 and ~160k: small shops are
    // common, giants are rare.
    let magnitude = ((h >> 16) % 5) as u32; // 0..=4
    let mantissa = ((h >> 24) % 90 + 10) as u32; // 10..=99
    let employees = mantissa * 10u32.pow(magnitude);
    CompanyProfile {
        industry,
        region,
        employees,
    }
}

/// Per-factor weights (relative; they are normalized at scoring time).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IcpWeights {
    /// Weight of the industry-match factor.
    pub industry: f64,
    /// Weight of the company-size factor.
    pub size: f64,
    /// Weight of the region-match factor.
    pub region: f64,
}

impl Default for IcpWeights {
    fn default() -> Self {
        Self {
            industry: 1.0,
            size: 1.0,
            region: 1.0,
        }
    }
}

/// An ideal customer profile: what the sales team is hunting for.
#[derive(Debug, Clone, PartialEq)]
pub struct IcpConfig {
    /// Target industries (empty = any industry fits).
    pub industries: Vec<String>,
    /// Target regions (empty = any region fits).
    pub regions: Vec<String>,
    /// Smallest acceptable headcount.
    pub size_min: u32,
    /// Largest acceptable headcount.
    pub size_max: u32,
    /// Factor weights.
    pub weights: IcpWeights,
}

impl Default for IcpConfig {
    /// Wildcard profile: everything fits, every factor weighted 1.
    fn default() -> Self {
        Self {
            industries: Vec::new(),
            regions: Vec::new(),
            size_min: 0,
            size_max: u32::MAX,
            weights: IcpWeights::default(),
        }
    }
}

/// One factor's contribution to a lead score.
#[derive(Debug, Clone, PartialEq)]
pub struct FactorScore {
    /// Factor name: `industry`, `size`, or `region`.
    pub factor: &'static str,
    /// The company's value for this factor.
    pub value: String,
    /// Fit in `[0, 1]` before weighting.
    pub fit: f64,
    /// Normalized weight in `[0, 1]` (the three sum to 1).
    pub weight: f64,
    /// Human-readable reason for the fit value.
    pub explanation: String,
}

/// A scored lead: 0–100 with the per-factor breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct IcpScore {
    /// Weighted fit scaled to 0–100 (rounded half-up).
    pub total: u8,
    /// Per-factor contributions, in `industry`/`size`/`region` order.
    pub factors: Vec<FactorScore>,
}

/// How well a headcount fits a `[min, max]` target: 1 inside the band,
/// decaying with log-distance outside it (a 10× miss scores 0).
fn size_fit(employees: u32, min: u32, max: u32) -> f64 {
    let (min, max) = (min.min(max), min.max(max));
    if (min..=max).contains(&employees) {
        return 1.0;
    }
    let (a, b) = if employees < min {
        (f64::from(employees.max(1)), f64::from(min.max(1)))
    } else {
        (f64::from(max.max(1)), f64::from(employees.max(1)))
    };
    (1.0 - (b / a).log10()).clamp(0.0, 1.0)
}

/// Score one company against an ICP.
#[must_use]
pub fn score(company: &str, config: &IcpConfig) -> IcpScore {
    let profile = profile_for(company);
    let w = config.weights;
    let total_w = (w.industry + w.size + w.region).max(f64::MIN_POSITIVE);

    let industry_fit = if config.industries.is_empty()
        || config
            .industries
            .iter()
            .any(|t| t.eq_ignore_ascii_case(profile.industry))
    {
        1.0
    } else {
        0.0
    };
    let industry_expl = if config.industries.is_empty() {
        format!("{} accepted: no target industries set", profile.industry)
    } else if industry_fit > 0.0 {
        format!("{} is a target industry", profile.industry)
    } else {
        format!(
            "{} is not among target industries ({})",
            profile.industry,
            config.industries.join(", ")
        )
    };

    let region_fit = if config.regions.is_empty()
        || config
            .regions
            .iter()
            .any(|t| t.eq_ignore_ascii_case(profile.region))
    {
        1.0
    } else {
        0.0
    };
    let region_expl = if config.regions.is_empty() {
        format!("{} accepted: no target regions set", profile.region)
    } else if region_fit > 0.0 {
        format!("{} is a target region", profile.region)
    } else {
        format!(
            "{} is not among target regions ({})",
            profile.region,
            config.regions.join(", ")
        )
    };

    let s_fit = size_fit(profile.employees, config.size_min, config.size_max);
    let size_expl = if s_fit >= 1.0 {
        format!("{} employees within target band", profile.employees)
    } else {
        format!(
            "{} employees outside target band {}\u{2013}{} (fit {:.2})",
            profile.employees, config.size_min, config.size_max, s_fit
        )
    };

    let factors = vec![
        FactorScore {
            factor: "industry",
            value: profile.industry.to_string(),
            fit: industry_fit,
            weight: w.industry / total_w,
            explanation: industry_expl,
        },
        FactorScore {
            factor: "size",
            value: profile.employees.to_string(),
            fit: s_fit,
            weight: w.size / total_w,
            explanation: size_expl,
        },
        FactorScore {
            factor: "region",
            value: profile.region.to_string(),
            fit: region_fit,
            weight: w.region / total_w,
            explanation: region_expl,
        },
    ];
    let weighted: f64 = factors.iter().map(|f| f.fit * f.weight).sum();
    IcpScore {
        total: (weighted * 100.0 + 0.5).floor().clamp(0.0, 100.0) as u8,
        factors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_are_deterministic_and_in_vocabulary() {
        for name in ["Acme Corp", "Zed Ltd", "Moonlight Software"] {
            let a = profile_for(name);
            let b = profile_for(name);
            assert_eq!(a, b);
            assert!(INDUSTRIES.contains(&a.industry));
            assert!(REGIONS.contains(&a.region));
            assert!((10..1_000_000).contains(&a.employees), "{}", a.employees);
        }
        // Different names spread across the vocabulary.
        let distinct: std::collections::HashSet<&str> = (0..50)
            .map(|i| profile_for(&format!("Company {i}")).industry)
            .collect();
        assert!(distinct.len() > 3, "{distinct:?}");
    }

    #[test]
    fn wildcard_config_scores_everything_100() {
        let cfg = IcpConfig::default();
        for name in ["Acme Corp", "Zed Ltd"] {
            let s = score(name, &cfg);
            assert_eq!(s.total, 100, "{name}");
            assert_eq!(s.factors.len(), 3);
            assert!(s.factors.iter().all(|f| f.fit >= 1.0));
        }
    }

    #[test]
    fn mismatched_industry_lowers_score_with_explanation() {
        let name = "Acme Corp";
        let p = profile_for(name);
        let other = INDUSTRIES.iter().find(|&&i| i != p.industry).unwrap();
        let cfg = IcpConfig {
            industries: vec![(*other).to_string()],
            ..IcpConfig::default()
        };
        let s = score(name, &cfg);
        assert!(s.total < 100, "{}", s.total);
        let f = &s.factors[0];
        assert_eq!(f.factor, "industry");
        assert_eq!(f.fit, 0.0);
        assert!(
            f.explanation.contains("not among target industries"),
            "{}",
            f.explanation
        );
    }

    #[test]
    fn weights_shift_the_total() {
        let name = "Acme Corp";
        let p = profile_for(name);
        let other = INDUSTRIES.iter().find(|&&i| i != p.industry).unwrap();
        let base = IcpConfig {
            industries: vec![(*other).to_string()],
            ..IcpConfig::default()
        };
        let balanced = score(name, &base).total;
        let heavy = score(
            name,
            &IcpConfig {
                weights: IcpWeights {
                    industry: 10.0,
                    size: 1.0,
                    region: 1.0,
                },
                ..base
            },
        )
        .total;
        // Upweighting the (failing) industry factor must drop the total.
        assert!(heavy < balanced, "{heavy} vs {balanced}");
    }

    #[test]
    fn size_fit_decays_with_log_distance() {
        assert_eq!(size_fit(500, 100, 1000), 1.0);
        assert!(size_fit(2000, 100, 1000) < 1.0);
        assert!(size_fit(2000, 100, 1000) > size_fit(20_000, 100, 1000));
        assert_eq!(size_fit(100_000, 10, 100), 0.0);
        // Inverted bounds are normalized, zero min is safe.
        assert_eq!(size_fit(50, 1000, 100), size_fit(50, 100, 1000));
        let _ = size_fit(0, 0, 0);
    }

    #[test]
    fn score_is_always_in_range() {
        let cfg = IcpConfig {
            industries: vec!["software".to_string()],
            regions: vec!["europe".to_string()],
            size_min: 50,
            size_max: 5_000,
            weights: IcpWeights {
                industry: 3.0,
                size: 2.0,
                region: 1.0,
            },
        };
        for i in 0..100 {
            let s = score(&format!("Probe Company {i}"), &cfg);
            assert!(s.total <= 100);
            let wsum: f64 = s.factors.iter().map(|f| f.weight).sum();
            assert!((wsum - 1.0).abs() < 1e-9, "{wsum}");
        }
    }
}
