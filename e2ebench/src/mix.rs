//! The seeded request mix of the closed loop: which routes, in which
//! proportions, with which parameters.
//!
//! No traffic record exists to take the proportions from, so every
//! choice below is an assumption, kept as plain as possible: equal
//! shares across the GET route groups, a small `POST /score` share, a
//! mild skew in company names, and parameters spread evenly over a few
//! fixed values.

use crate::client::Request;
use etap::BookHandle;
use etap_corpus::SalesDriver;
use etap_runtime::Rng;
use std::collections::HashMap;

/// Route groups, in the order of their per-layer metrics.
pub const GROUPS: [&str; 7] = [
    "leads",
    "leads_driver",
    "companies",
    "company_events",
    "icp",
    "leads_icp",
    "score_post",
];

/// Span name of one request of each group (layer `http`).
pub const SPANS: [&str; 7] = [
    "http.leads",
    "http.leads_driver",
    "http.companies",
    "http.company_events",
    "http.icp",
    "http.leads_icp",
    "http.score_post",
];

/// Share of each group in the mix, in percent: equal for the six GET
/// groups, small for `POST /score`, the one route that annotates text.
const WEIGHTS: [u64; 7] = [16, 16, 16, 16, 16, 16, 4];

/// Length of the request sequence the clients cycle through.
const MIX_LEN: usize = 4096;

/// Companies the skewed name draws choose from (the book's top by MRR).
const NAME_POOL: usize = 256;

/// `/companies?top=` values, drawn evenly: common dashboard page sizes.
const COMPANY_TOPS: [usize; 4] = [10, 25, 50, 100];

/// `GET /score` profiles, drawn evenly; between them they exercise every
/// ICP parameter (industry, region, size band and each weight).
const ICP_QUERIES: [&str; 4] = [
    "industry=software,finance&w_industry=2&w_size=1&w_region=1",
    "region=europe,asia-pacific&size_min=200&size_max=5000&w_size=1.5",
    "industry=manufacturing&region=north-america&w_region=2",
    "industry=retail&size_min=50&size_max=800&w_industry=1.2",
];

/// A request sequence over a set of distinct requests.
pub struct Mix {
    /// Distinct requests; `sequence` indexes into it.
    pub requests: Vec<Request>,
    /// `(group, request)` pairs in the order clients issue them.
    pub sequence: Vec<(usize, usize)>,
}

/// Percent-encode everything but RFC 3986 unreserved bytes.
pub fn encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        if b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b'~') {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    out
}

/// Draw an index in `0..n` skewed toward 0: `n·u²` for uniform `u`, so
/// the top quarter of the pool gets half the draws. The skew is assumed,
/// mild on purpose; it only makes popular companies repeat.
fn skewed(rng: &mut Rng, n: usize) -> usize {
    let u = rng.gen_f64();
    ((u * u * n as f64) as usize).min(n - 1)
}

/// Build the mix for `book`, with POST bodies drawn from `snippets`.
pub fn build(seed: u64, book: &BookHandle, snippets: &[String]) -> Mix {
    let mut rng = Rng::seed_from_u64(seed);
    let names: Vec<String> = book
        .companies_top(NAME_POOL)
        .iter()
        .map(|c| c.company.to_string())
        .collect();
    assert!(!names.is_empty(), "the served book has no companies");
    assert!(!snippets.is_empty(), "no held-out snippets to score");
    let drivers: Vec<&'static str> = SalesDriver::registered().iter().map(|d| d.id()).collect();
    let total: u64 = WEIGHTS.iter().sum();

    let mut index: HashMap<String, usize> = HashMap::new();
    let mut requests = Vec::new();
    let mut sequence = Vec::with_capacity(MIX_LEN);
    for _ in 0..MIX_LEN {
        let mut pick = rng.bounded_u64(total);
        let group = WEIGHTS
            .iter()
            .position(|&w| {
                if pick < w {
                    true
                } else {
                    pick -= w;
                    false
                }
            })
            .expect("pick < total weight");
        let name = &names[skewed(&mut rng, names.len())];
        let (key, request) = match group {
            0 => {
                let t = "/leads?top=10".to_string();
                (t.clone(), Request::get(&t))
            }
            1 => {
                let d = drivers[rng.gen_range(0..drivers.len())];
                let t = format!("/leads?top=100&driver={d}");
                (t.clone(), Request::get(&t))
            }
            2 => {
                let top = COMPANY_TOPS[rng.gen_range(0..COMPANY_TOPS.len())];
                let t = format!("/companies?top={top}");
                (t.clone(), Request::get(&t))
            }
            3 => {
                let t = format!("/companies/{}/events", encode(name));
                (t.clone(), Request::get(&t))
            }
            4 => {
                let q = ICP_QUERIES[rng.gen_range(0..ICP_QUERIES.len())];
                let t = format!("/score?company={}&{q}", encode(name));
                (t.clone(), Request::get(&t))
            }
            5 => {
                let t = "/leads?icp=1&top=10&industry=software&w_industry=2".to_string();
                (t.clone(), Request::get(&t))
            }
            _ => {
                let body = &snippets[rng.gen_range(0..snippets.len())];
                (format!("POST {body}"), Request::post("/score", body))
            }
        };
        let next = requests.len();
        let id = *index.entry(key).or_insert(next);
        if id == next {
            requests.push(request);
        }
        sequence.push((group, id));
    }
    Mix { requests, sequence }
}

#[cfg(test)]
mod tests {
    use super::encode;

    #[test]
    fn encodes_reserved_bytes() {
        assert_eq!(encode("Acme Corp. & Co"), "Acme%20Corp.%20%26%20Co");
    }
}
