//! Sentence templates for the synthetic web.
//!
//! Three families, mirroring the snippet phenomena the paper describes:
//!
//! * **trigger sentences** — genuine trigger events for a sales driver
//!   ("Company X plans to acquire Company Y later this year", §1);
//! * **distractor sentences** — the hard negatives §5.2 calls out:
//!   biographical retrospectives ("Mr. Andersen was the CEO of XYZ Inc.
//!   from 1980-1985"), denial stories, historical mentions — sentences
//!   that *look* like triggers to a bag-of-features classifier;
//! * **background sentences** — a dozen-plus non-business genres, the
//!   raw material of the random negative class.
//!
//! Every filled sentence records the companies it mentions so the
//! company-ranking experiments (paper Eq. 2) have ground truth.

use crate::drivers::SalesDriver;
use crate::names::NameGenerator;
use std::collections::HashMap;

/// A generated sentence plus the companies it mentions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sentence {
    /// The sentence text, ending in a terminator.
    pub text: String,
    /// Companies mentioned (surface forms).
    pub companies: Vec<String>,
}

impl Sentence {
    fn plain(text: String) -> Self {
        Self {
            text,
            companies: Vec::new(),
        }
    }
}

/// A genuine trigger-event sentence for `driver`. Revenue sentences
/// draw their sentiment independently (¾ growth, ¼ decline).
#[must_use]
pub fn trigger_sentence(driver: SalesDriver, g: &mut NameGenerator) -> Sentence {
    let revenue_negative = g.chance(0.25);
    trigger_sentence_signed(driver, g, revenue_negative)
}

/// Like [`trigger_sentence`], but the caller fixes the revenue-news
/// sentiment — real articles are coherent: one company, one quarter,
/// one direction. The flag is ignored for the other drivers.
#[must_use]
pub fn trigger_sentence_signed(
    driver: SalesDriver,
    g: &mut NameGenerator,
    revenue_negative: bool,
) -> Sentence {
    match driver {
        SalesDriver::MergersAcquisitions => ma_trigger(g),
        SalesDriver::ChangeInManagement => cim_trigger(g),
        SalesDriver::RevenueGrowth => {
            if revenue_negative {
                revenue_trigger_negative(g)
            } else {
                revenue_trigger(g)
            }
        }
        // Data-defined drivers render their registered templates; the
        // built-ins above keep their hand-written generators so the
        // default corpus's RNG draw sequence is untouched.
        other => match other.templates() {
            Some(t) if !t.triggers.is_empty() => render_custom(&t.triggers, g),
            _ => generic_trigger(other, g),
        },
    }
}

/// A misleading near-trigger sentence for `driver` (§5.2's outliers).
#[must_use]
pub fn distractor_sentence(driver: SalesDriver, g: &mut NameGenerator) -> Sentence {
    match driver {
        SalesDriver::MergersAcquisitions => ma_distractor(g),
        SalesDriver::ChangeInManagement => cim_distractor(g),
        SalesDriver::RevenueGrowth => revenue_distractor(g),
        other => match other.templates() {
            Some(t) if !t.distractors.is_empty() => render_custom(&t.distractors, g),
            _ => generic_distractor(other, g),
        },
    }
}

/// Pick one of `tpls` and fill its placeholders. Exposed for the
/// document generator, which renders custom headlines the same way.
#[must_use]
pub(crate) fn render_custom(tpls: &[String], g: &mut NameGenerator) -> Sentence {
    let idx = if tpls.len() > 1 {
        g.range(0, tpls.len())
    } else {
        0
    };
    render_template(&tpls[idx], g)
}

/// Fill one template. Placeholders are drawn lazily in appearance
/// order (so the RNG sequence is a pure function of the template
/// text); a repeated placeholder reuses its first value, `{company2}`
/// and `{person2}` draw values distinct from `{company}`/`{person}`,
/// and unknown placeholders pass through literally (a typo in a driver
/// file degrades output, it never aborts generation).
fn render_template(tpl: &str, g: &mut NameGenerator) -> Sentence {
    let mut text = String::with_capacity(tpl.len() + 16);
    let mut companies: Vec<String> = Vec::new();
    let mut vals: HashMap<String, String> = HashMap::new();
    let mut rest = tpl;
    while let Some(start) = rest.find('{') {
        text.push_str(&rest[..start]);
        rest = &rest[start + 1..];
        let Some(end) = rest.find('}') else {
            text.push('{');
            continue;
        };
        let key = &rest[..end];
        rest = &rest[end + 1..];
        match placeholder_value(key, g, &mut vals, &mut companies) {
            Some(v) => text.push_str(&v),
            None => {
                text.push('{');
                text.push_str(key);
                text.push('}');
            }
        }
    }
    text.push_str(rest);
    Sentence { text, companies }
}

fn placeholder_value(
    key: &str,
    g: &mut NameGenerator,
    vals: &mut HashMap<String, String>,
    companies: &mut Vec<String>,
) -> Option<String> {
    if let Some(v) = vals.get(key) {
        return Some(v.clone());
    }
    let distinct_from =
        |g: &mut NameGenerator,
         prior: Option<&String>,
         mut draw: Box<dyn FnMut(&mut NameGenerator) -> String>| {
            let mut v = draw(g);
            if let Some(p) = prior {
                for _ in 0..8 {
                    if v != *p {
                        break;
                    }
                    v = draw(g);
                }
            }
            v
        };
    let v = match key {
        "company" => {
            let v = g.company();
            companies.push(v.clone());
            v
        }
        "company2" => {
            let prior = vals.get("company").cloned();
            let v = distinct_from(g, prior.as_ref(), Box::new(|g| g.company()));
            companies.push(v.clone());
            v
        }
        "person" => g.person(),
        "person2" => {
            let prior = vals.get("person").cloned();
            distinct_from(g, prior.as_ref(), Box::new(|g| g.person()))
        }
        "desig" => g.designation(),
        "money" => g.money(),
        "pct" => g.percent(),
        "date" => g.date(),
        "place" => g.place(),
        "quarter" => g.quarter(),
        "year" => g.year(),
        "product" => g.product(),
        _ => return None,
    };
    vals.insert(key.to_string(), v.clone());
    Some(v)
}

/// Deterministic fallback trigger for a registered driver with no
/// templates: still mentions a company (so ranking has ground truth)
/// and the driver's display name (so smart queries can find it).
fn generic_trigger(driver: SalesDriver, g: &mut NameGenerator) -> Sentence {
    let company = g.company();
    let date = g.date();
    let text = format!(
        "{company} announced a {} development in {date}.",
        driver.name()
    );
    Sentence {
        text,
        companies: vec![company],
    }
}

/// Deterministic fallback distractor: historical framing of the same
/// vocabulary, mirroring the §5.2 outlier families.
fn generic_distractor(driver: SalesDriver, g: &mut NameGenerator) -> Sentence {
    let company = g.company();
    let (y1, _) = g.past_year_pair();
    let text = format!(
        "A retrospective recalled the {} chapter at {company} back in {y1}.",
        driver.name()
    );
    Sentence {
        text,
        companies: vec![company],
    }
}

fn ma_trigger(g: &mut NameGenerator) -> Sentence {
    let (a, b) = g.company_pair();
    let money = g.money();
    let date = g.date();
    let place = g.place();
    let quarter = g.quarter();
    let year = g.year();
    let text = match g.range(0, 15) {
        0 => format!("{a} announced that it will acquire {b} for {money}."),
        1 => format!("{a} plans to acquire {b} later this year."),
        2 => format!("{a} agreed to buy {b} in a deal valued at {money}."),
        3 => format!("{a} completed its acquisition of {b} in {date}."),
        4 => format!("{a} and {b} said they will merge to create a new leader based in {place}."),
        5 => format!(
            "Shareholders of {b} approved the {money} takeover bid from {a} on Monday."
        ),
        6 => format!("{a} signed a definitive agreement to purchase {b} for {money} in cash."),
        7 => format!(
            "The board of {a} cleared the merger with {b}, expected to close in the {quarter} of {year}."
        ),
        8 => format!("{a} acquired a majority stake in {b} to expand its operations in {place}."),
        9 => format!("{a} is in advanced talks to take over rival {b}, people familiar with the matter said."),
        10 => format!("Regulators approved the proposed merger between {a} and {b} this week."),
        11 => format!("{a} swallowed smaller rival {b} in an all-stock transaction worth {money}."),
        12 => format!(
            "The combined entity will pursue synergies once {a} folds {b} into its portfolio."
        ),
        13 => format!("{a} began due diligence ahead of its planned purchase of {b}."),
        _ => format!(
            "Antitrust lawyers expect the {a} takeover of {b} to clear review by {date}."
        ),
    };
    Sentence {
        text,
        companies: vec![a, b],
    }
}

fn ma_distractor(g: &mut NameGenerator) -> Sentence {
    let (a, b) = g.company_pair();
    let (y1, y2) = g.past_year_pair();
    let money = g.money();
    let text = match g.range(0, 6) {
        0 => format!("{a} denied rumors that it plans to acquire {b}."),
        1 => format!(
            "Back in {y1}, {a} had acquired {b}, a deal historians still debate."
        ),
        2 => format!(
            "An analyst said a merger between {a} and {b} remains highly unlikely."
        ),
        3 => format!(
            "The {y1} acquisition of {b} by {a} was unwound by {y2} after regulators objected."
        ),
        4 => format!(
            "A textbook case study examines how {a} integrated {b} after their {y1} merger."
        ),
        _ => format!(
            "{a} ruled out any acquisitions this year, saying the {money} war chest is for buybacks."
        ),
    };
    Sentence {
        text,
        companies: vec![a, b],
    }
}

fn cim_trigger(g: &mut NameGenerator) -> Sentence {
    let company = g.company();
    let person = g.person();
    let desig = g.designation();
    let person2 = g.person();
    let date = g.date();
    let text = match g.range(0, 12) {
        0 => format!("{company} named {person} as its new {desig}."),
        1 => format!("{company} appointed {person} {desig}, effective immediately."),
        2 => format!("{person} will join {company} as {desig} next month."),
        3 => format!(
            "{company} announced that {desig} {person} is stepping down and {person2} will succeed him."
        ),
        4 => format!("{person} resigned as {desig} of {company} on Monday."),
        5 => format!("The board of {company} promoted {person} to {desig}."),
        6 => format!("{company} said its {desig}, {person}, will retire in {date}."),
        7 => format!("{person} takes over as {desig} of {company}, replacing {person2}."),
        8 => format!("{company} hired {person} away from a rival to become its {desig}."),
        9 => format!("In a management shakeup, {company} ousted {desig} {person}."),
        10 => format!("{company} elevated {person} to the newly created role of {desig}."),
        _ => format!("A new {desig} for {company}: {person} starts this quarter."),
    };
    Sentence {
        text,
        companies: vec![company],
    }
}

fn cim_distractor(g: &mut NameGenerator) -> Sentence {
    let company = g.company();
    let person = g.person();
    let desig = g.designation();
    let (y1, y2) = g.past_year_pair();
    let place = g.place();
    let text = match g.range(0, 10) {
        0 => format!(
            "Mr. {person} was the {desig} of {company} from {y1} to {y2}.",
            person = person.split(' ').next_back().unwrap_or(&person)
        ),
        1 => format!(
            "{person} served as {desig} of {company} for a decade before moving to {place}."
        ),
        2 => format!(
            "A biography of {person}, longtime {desig} of {company}, was published this spring."
        ),
        3 => format!("{person}, who founded {company} in {y1}, remained its {desig} until {y2}."),
        4 => {
            let decade: u32 = y1.parse::<u32>().unwrap_or(1980) / 10 * 10;
            format!(
                "As {desig} of {company} in the {decade}s, {person} championed an expansion into {place}."
            )
        }
        5 => format!(
            "{company} celebrated the legacy of former {desig} {person} at its annual meeting."
        ),
        // The paper's §5.2 complaint verbatim: biographies "will deceive
        // the classifier because of its features" — these share the very
        // words and entity shapes of genuine appointment triggers.
        6 => format!("{person} joined {company} as {desig} in {y1}."),
        7 => format!("{company} had named {person} its {desig} back in {y1}."),
        8 => {
            let since = 1990 + g.range(0, 14);
            format!("{person} has served as {desig} of {company} since {since}.")
        }
        _ => format!(
            "{person} takes pride in having been the new {desig} of {company} in {y1}, he recalled."
        ),
    };
    Sentence {
        text,
        companies: vec![company],
    }
}

fn revenue_trigger(g: &mut NameGenerator) -> Sentence {
    let company = g.company();
    let pct = g.percent();
    let money = g.money();
    let quarter = g.quarter();
    let year = g.year();
    let text = match g.range(0, 12) {
        0 => format!("{company} reported a revenue growth of {pct} in the {quarter}."),
        1 => format!("{company} posted record revenue of {money} for fiscal {year}."),
        2 => format!("Sales at {company} climbed {pct} on strong demand."),
        3 => format!("{company} said quarterly profit rose {pct} to {money}."),
        4 => format!("Revenue at {company} surged {pct}, beating analyst estimates."),
        5 => format!("{company} turned in a solid quarter with earnings up {pct}."),
        6 => format!("{company} raised its full-year outlook after revenue grew {pct}."),
        7 => format!(
            "Strong services demand lifted {company} revenue {pct} in the {quarter} of {year}."
        ),
        8 => format!("{company} swung to a profit of {money} as sales expanded {pct}."),
        9 => format!("Net income at {company} jumped {pct} year over year."),
        10 => format!("{company} reported significant growth, with revenue reaching {money}."),
        _ => format!("Margins widened at {company} as revenue advanced {pct}."),
    };
    Sentence {
        text,
        companies: vec![company],
    }
}

/// Negative revenue events are trigger events too (Figure 8 of the
/// paper ranks them — they sink under semantic orientation).
fn revenue_trigger_negative(g: &mut NameGenerator) -> Sentence {
    let company = g.company();
    let pct = g.percent();
    let money = g.money();
    let quarter = g.quarter();
    let text = match g.range(0, 4) {
        0 => format!("{company} reported a revenue decline of {pct} in the {quarter}."),
        1 => format!("{company} posted a quarterly loss of {money} as demand slumped."),
        2 => format!("Sales at {company} fell {pct}, prompting a profit warning."),
        _ => format!("{company} warned of weak demand after earnings dropped {pct}."),
    };
    Sentence {
        text,
        companies: vec![company],
    }
}

fn revenue_distractor(g: &mut NameGenerator) -> Sentence {
    let company = g.company();
    let pct = g.percent();
    let (y1, _) = g.past_year_pair();
    let money = g.money();
    let text = match g.range(0, 6) {
        0 => format!("Analysts forecast that {company} revenue could grow {pct} someday if conditions improve."),
        1 => format!("In {y1}, {company} famously grew revenue {pct} three years running."),
        2 => format!("{company} declined to comment on speculation about its quarterly numbers."),
        3 => format!("A case study revisits how {company} doubled sales to {money} in the {y1}s."),
        4 => format!("{company} warned that revenue may fall {pct} next quarter."),
        _ => format!("Historical filings show {company} revenue peaked at {money} in {y1}."),
    };
    Sentence {
        text,
        companies: vec![company],
    }
}

/// A neutral business sentence mentioning a company but triggering no
/// driver (filler inside business documents).
///
/// The inventory is deliberately wide (24 variants with disjoint
/// vocabulary): real-world article filler is high-entropy, and a narrow
/// filler vocabulary would spuriously correlate with whatever driver's
/// documents it happens to pad, which no classifier could be expected
/// to survive.
#[must_use]
pub fn business_filler(g: &mut NameGenerator) -> Sentence {
    let company = g.company();
    let place = g.place();
    let product = g.product();
    let cnt = g.range(200, 9000);
    let yr = g.year();
    let text = match g.range(0, 30) {
        0 => format!("{company} is headquartered in {place}."),
        1 => format!("{company} employs about {cnt} people worldwide."),
        2 => format!("Shares of {company} were unchanged in afternoon trading."),
        3 => format!("{company} makes software for the {product} platform."),
        4 => format!("A spokesman for {company} declined to comment."),
        5 => format!("{company} competes in a crowded market."),
        6 => format!("The announcement was made at a {company} event in {place}."),
        7 => format!("{company} has operations across {place} and beyond."),
        8 => format!("Customers of {company} include several large retailers."),
        9 => format!("{company} was founded in {yr}."),
        10 => format!("The {company} campus sits on the outskirts of {place}."),
        11 => format!("{company} sponsors a community program in {place}."),
        12 => format!("Trading volume in {company} stock was light."),
        13 => format!("{company} supplies components to the automotive sector."),
        14 => format!("A {company} facility in {place} runs around the clock."),
        15 => format!("{company} publishes a widely read industry newsletter."),
        16 => format!("Engineers at {company} contributed to an open standard."),
        17 => format!("{company} holds a patent portfolio of roughly {cnt} filings."),
        18 => format!("The {product} line remains a staple of the {company} catalog."),
        19 => format!("{company} hosts its user conference in {place} each spring."),
        20 => format!("Regulators in {place} audited {company} routinely."),
        21 => format!("{company} maintains data centers on three continents."),
        22 => format!("An industry survey ranked {company} among the most admired firms."),
        23 => format!("{company} renewed its sponsorship of a {place} museum."),
        24 => format!("The {company} annual report runs to {cnt} pages."),
        25 => format!("Suppliers praised the reliability of {company} logistics."),
        26 => format!("The {company} helpline handles about {cnt} calls a week."),
        27 => format!("{company} catalogues are printed in eleven languages."),
        28 => format!("A documentary crew toured the {company} archives in {place}."),
        _ => format!("Commuters pass the {company} tower on the way into {place}."),
    };
    Sentence {
        text,
        companies: vec![company],
    }
}

/// Non-business background genres for the random negative class.
pub const BACKGROUND_GENRES: &[&str] = &[
    "sports",
    "weather",
    "cooking",
    "travel",
    "entertainment",
    "science",
    "health",
    "education",
    "politics",
    "gardening",
    "automotive",
    "lifestyle",
];

/// A background sentence from the named genre. Unknown genres fall back
/// to a generic, company-free filler sentence (still deterministic in
/// the generator state) so corpus construction never aborts on a typo
/// in a genre list.
#[must_use]
pub fn background_sentence(genre: &str, g: &mut NameGenerator) -> Sentence {
    let place = g.place();
    let n = g.range(2, 90);
    let person = g.person();
    let text = match genre {
        "sports" => match g.range(0, 5) {
            0 => format!("The home side won by {n} runs in {place}."),
            1 => format!("{person} scored twice as the match ended {n}-1."),
            2 => "The coach praised the defense after a goalless draw.".to_string(),
            3 => format!("Fans in {place} celebrated the championship late into the night."),
            _ => format!("{person} set a personal best in the marathon."),
        },
        "weather" => match g.range(0, 4) {
            0 => format!("Heavy rain is expected across {place} through the weekend."),
            1 => format!("Temperatures in {place} climbed to {n} degrees."),
            2 => "A cold front will bring gusty winds and scattered showers.".to_string(),
            _ => format!("Forecasters warned of fog on roads near {place}."),
        },
        "cooking" => match g.range(0, 4) {
            0 => format!("Simmer the sauce for {n} minutes, stirring occasionally."),
            1 => "Fold the egg whites gently into the batter.".to_string(),
            2 => format!("This stew from {place} calls for plenty of garlic."),
            _ => "Season generously and roast until golden brown.".to_string(),
        },
        "travel" => match g.range(0, 4) {
            0 => format!("The old quarter of {place} is best explored on foot."),
            1 => format!("A ferry links the islands every {n} minutes in summer."),
            2 => format!("Budget travellers flock to {place} for its street food."),
            _ => format!("The museum in {place} reopens after renovation."),
        },
        "entertainment" => match g.range(0, 4) {
            0 => format!("{person} stars in a new drama premiering this fall."),
            1 => "The sequel topped the box office for a second week.".to_string(),
            2 => format!("The festival in {place} drew record crowds."),
            _ => format!("{person} is recording a follow-up album."),
        },
        "science" => match g.range(0, 4) {
            0 => "Researchers sequenced the genome of a deep-sea worm.".to_string(),
            1 => format!("The telescope spotted a comet {n} light-years away."),
            2 => format!("A lab in {place} published results on battery chemistry."),
            _ => "The probe returned its first images of the outer moons.".to_string(),
        },
        "health" => match g.range(0, 4) {
            0 => format!("Doctors recommend at least {n} minutes of exercise daily."),
            1 => "A balanced diet lowers the risk of heart disease.".to_string(),
            2 => format!("A clinic in {place} began a vaccination drive."),
            _ => "Sleep quality matters as much as sleep duration, a study finds.".to_string(),
        },
        "education" => match g.range(0, 4) {
            0 => format!("The university in {place} expanded its scholarship program."),
            1 => format!("Enrollment rose by {n} students this term."),
            2 => format!("{person} was awarded the teaching prize."),
            _ => "The library extended its opening hours during exams.".to_string(),
        },
        "politics" => match g.range(0, 4) {
            0 => format!("Lawmakers debated the new transport bill in {place}."),
            1 => format!("{person} addressed supporters at a rally."),
            2 => "The committee postponed its vote until next session.".to_string(),
            _ => format!("Turnout reached {n} percent in the municipal election."),
        },
        "gardening" => match g.range(0, 4) {
            0 => "Prune the roses before the first frost.".to_string(),
            1 => format!("Tomatoes need about {n} days to ripen."),
            2 => "Mulch keeps the beds moist through dry spells.".to_string(),
            _ => "Divide the perennials in early autumn.".to_string(),
        },
        "automotive" => match g.range(0, 4) {
            0 => format!("The new hatchback manages {n} miles per gallon."),
            1 => "The ride is firm but composed over broken pavement.".to_string(),
            2 => format!("A vintage car rally rolled through {place} on Sunday."),
            _ => "Braking distances improved with the optional tires.".to_string(),
        },
        "lifestyle" => match g.range(0, 4) {
            0 => "Minimalist interiors remain popular this season.".to_string(),
            1 => format!("A weekend market in {place} sells handmade ceramics."),
            2 => format!("{person} shares tips for decluttering small flats."),
            _ => "Readers favour linen over cotton for summer.".to_string(),
        },
        _ => match g.range(0, 4) {
            0 => format!("A local columnist in {place} reflected on the week's events."),
            1 => format!("{person} published a short essay in the weekend supplement."),
            2 => format!("The community newsletter counted {n} contributions this month."),
            _ => "An editor rounded up miscellaneous notes from around town.".to_string(),
        },
    };
    Sentence::plain(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen() -> NameGenerator {
        NameGenerator::new(42)
    }

    #[test]
    fn trigger_sentences_mention_companies() {
        let mut g = gen();
        for driver in SalesDriver::ALL {
            for _ in 0..20 {
                let s = trigger_sentence(driver, &mut g);
                assert!(!s.companies.is_empty(), "{driver}: {s:?}");
                assert!(s.text.ends_with('.'), "{}", s.text);
                for c in &s.companies {
                    assert!(s.text.contains(c.as_str()), "{c} not in {}", s.text);
                }
            }
        }
    }

    #[test]
    fn ma_triggers_mention_two_companies() {
        let mut g = gen();
        for _ in 0..20 {
            let s = trigger_sentence(SalesDriver::MergersAcquisitions, &mut g);
            assert_eq!(s.companies.len(), 2);
            assert_ne!(s.companies[0], s.companies[1]);
        }
    }

    #[test]
    fn distractors_exist_for_every_driver() {
        let mut g = gen();
        for driver in SalesDriver::ALL {
            let s = distractor_sentence(driver, &mut g);
            assert!(!s.text.is_empty());
            assert!(!s.companies.is_empty());
        }
    }

    #[test]
    fn cim_biography_distractor_has_past_years() {
        let mut g = gen();
        let mut seen_past = false;
        for _ in 0..40 {
            let s = distractor_sentence(SalesDriver::ChangeInManagement, &mut g);
            if s.text.contains("from 19") {
                seen_past = true;
            }
        }
        assert!(seen_past, "biography template with year range should occur");
    }

    #[test]
    fn background_genres_all_work() {
        let mut g = gen();
        for genre in BACKGROUND_GENRES {
            for _ in 0..10 {
                let s = background_sentence(genre, &mut g);
                assert!(!s.text.is_empty());
                assert!(s.companies.is_empty());
            }
        }
    }

    #[test]
    fn unknown_genre_falls_back_to_generic_filler() {
        let mut g = gen();
        for _ in 0..10 {
            let s = background_sentence("astrology", &mut g);
            assert!(!s.text.is_empty());
            assert!(s.companies.is_empty());
        }
        // Deterministic in the generator state, like the known genres.
        let a = background_sentence("astrology", &mut gen());
        let b = background_sentence("astrology", &mut gen());
        assert_eq!(a, b);
    }

    #[test]
    fn business_filler_mentions_company() {
        let mut g = gen();
        for _ in 0..20 {
            let s = business_filler(&mut g);
            assert_eq!(s.companies.len(), 1);
        }
    }

    #[test]
    fn custom_templates_render_with_placeholders() {
        use crate::drivers::{DriverId, DriverTemplates};
        let d = DriverId::register("test_tpl_render", "pilot programs").unwrap();
        d.set_templates(DriverTemplates {
            triggers: vec![
                "{company} and {company2} signed a {money} pilot with {person} in {place}.".into(),
            ],
            distractors: vec!["{company} once ran a pilot, a {year} report said.".into()],
            ..DriverTemplates::default()
        });
        let mut g = gen();
        let s = trigger_sentence(d, &mut g);
        assert_eq!(s.companies.len(), 2, "{s:?}");
        assert_ne!(s.companies[0], s.companies[1]);
        assert!(!s.text.contains('{'), "unfilled placeholder: {}", s.text);
        let ds = distractor_sentence(d, &mut g);
        assert_eq!(ds.companies.len(), 1);
        // Repeated placeholders reuse the same value.
        let one = render_template("{company} praised {company}.", &mut gen());
        assert_eq!(one.companies.len(), 1);
        let c = &one.companies[0];
        assert_eq!(one.text, format!("{c} praised {c}."));
        // Unknown placeholders pass through literally.
        let odd = render_template("a {bogus} token", &mut gen());
        assert_eq!(odd.text, "a {bogus} token");
    }

    #[test]
    fn templateless_custom_driver_gets_generic_sentences() {
        use crate::drivers::DriverId;
        let d = DriverId::register("test_tpl_fallback", "supply chain wins").unwrap();
        let mut g = gen();
        let s = trigger_sentence(d, &mut g);
        assert_eq!(s.companies.len(), 1);
        assert!(s.text.contains("supply chain wins"), "{}", s.text);
        let ds = distractor_sentence(d, &mut g);
        assert!(ds.text.contains("supply chain wins"));
        // Deterministic.
        assert_eq!(
            trigger_sentence(d, &mut gen()),
            trigger_sentence(d, &mut gen())
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let mut a = gen();
        let mut b = gen();
        for driver in SalesDriver::ALL {
            assert_eq!(
                trigger_sentence(driver, &mut a),
                trigger_sentence(driver, &mut b)
            );
        }
    }
}
