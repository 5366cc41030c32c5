//! End-to-end tests of `etap-serve`: a real server on an ephemeral
//! port, driven over real sockets — every endpoint, the error paths
//! (404/400/405/413/408/503), a snapshot hot-swap under concurrent
//! load, and thread-count determinism of served responses.

use etap_repro::corpus::{SyntheticWeb, WebConfig};
use etap_repro::serve::{LeadSnapshot, ServeConfig, ServerHandle};
use etap_repro::system::{rank, AliasResolver, LeadBook};
use etap_repro::{DriverSpec, Etap, EtapConfig, SalesDriver, TrainedEtap};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// One trained system shared by every test in this binary (training is
/// the expensive part; the servers themselves are cheap).
fn trained() -> Arc<TrainedEtap> {
    static TRAINED: OnceLock<Arc<TrainedEtap>> = OnceLock::new();
    Arc::clone(TRAINED.get_or_init(|| {
        let web = SyntheticWeb::generate(WebConfig {
            total_docs: 600,
            ..WebConfig::default()
        });
        let mut config = EtapConfig::paper();
        config.training.top_docs_per_query = 50;
        config.training.negative_snippets = 900;
        config.training.pure_positives = 10;
        config.drivers = vec![DriverSpec::builtin(SalesDriver::ChangeInManagement)];
        Arc::new(Etap::new(config).train(&web))
    }))
}

fn crawl(seed: u64) -> SyntheticWeb {
    SyntheticWeb::generate(WebConfig {
        total_docs: 80,
        seed,
        ..WebConfig::default()
    })
}

fn boot(config: &ServeConfig) -> ServerHandle {
    let snapshot = Arc::new(LeadSnapshot::build(trained(), crawl(7).docs(), 1, 0));
    etap_repro::serve::start(config, snapshot).expect("start server")
}

fn boot_default() -> ServerHandle {
    boot(&ServeConfig::default())
}

/// Raw HTTP exchange: send `raw` verbatim, return the full response.
fn exchange_raw(addr: SocketAddr, raw: &[u8]) -> String {
    try_exchange_raw(addr, raw).expect("exchange")
}

/// Like [`exchange_raw`] but fallible, for assertions that race against
/// server-side draining (a shed 503 can still be lost to an RST when
/// the client's bytes arrive after the acceptor's best-effort drain).
fn try_exchange_raw(addr: SocketAddr, raw: &[u8]) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(raw)?;
    let mut out = Vec::new();
    stream.read_to_end(&mut out)?;
    Ok(String::from_utf8_lossy(&out).into_owned())
}

fn get(addr: SocketAddr, target: &str) -> String {
    exchange_raw(
        addr,
        format!("GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes(),
    )
}

fn post(addr: SocketAddr, target: &str, body: &str) -> String {
    exchange_raw(
        addr,
        format!(
            "POST {target} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
}

fn status_of(response: &str) -> u16 {
    response
        .split(' ')
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {response:?}"))
}

fn body_of(response: &str) -> &str {
    response.split_once("\r\n\r\n").map_or("", |(_, body)| body)
}

fn header_of<'a>(response: &'a str, name: &str) -> Option<&'a str> {
    let head = response.split("\r\n\r\n").next()?;
    head.lines().find_map(|line| {
        let (n, v) = line.split_once(':')?;
        (n.eq_ignore_ascii_case(name)).then(|| v.trim())
    })
}

#[test]
fn healthz_and_metrics() {
    let server = boot_default();
    let addr = server.addr();

    let health = get(addr, "/healthz");
    assert_eq!(status_of(&health), 200);
    assert_eq!(
        body_of(&health),
        "{\"ok\": true, \"generation\": 1, \"status\": \"healthy\"}\n"
    );
    assert_eq!(header_of(&health, "X-Etap-Generation"), Some("1"));

    let metrics = get(addr, "/metrics");
    assert_eq!(status_of(&metrics), 200);
    let body = body_of(&metrics);
    for family in [
        "etap_requests_total",
        "etap_responses_total{class=\"2xx\"}",
        "etap_shed_total 0",
        "etap_queue_depth",
        "etap_snapshot_generation 1",
        "etap_request_latency_ms{quantile=\"0.99\"}",
    ] {
        assert!(body.contains(family), "missing {family} in:\n{body}");
    }
    server.shutdown();
}

#[test]
fn leads_match_offline_ranking_and_companies_match_mrr() {
    let server = boot_default();
    let addr = server.addr();
    let fresh = crawl(7);

    // The offline path the server must agree with byte-for-byte.
    let events = rank::rank_by_score(trained().identify_events_parallel(fresh.docs(), 0));
    assert!(!events.is_empty(), "test crawl produced no events");
    let mut resolver = AliasResolver::new();
    let companies = rank::rank_companies_resolved(&events, &mut resolver);

    let response = get(addr, &format!("/leads?top={}", events.len()));
    assert_eq!(status_of(&response), 200);
    let body = body_of(&response);
    assert!(body.starts_with("{\"generation\":1,"), "{body}");
    // Every offline event appears, in offline rank order.
    let mut cursor = 0usize;
    for (i, e) in events.iter().enumerate() {
        let needle = format!("\"rank\":{},\"driver\":\"{}\"", i + 1, e.driver.id());
        let at = body[cursor..]
            .find(&needle)
            .unwrap_or_else(|| panic!("event {i} out of order: {needle}"));
        cursor += at;
        let snippet_at = body[cursor..].find(&etap_repro::serve::json::quote(&e.snippet));
        assert!(snippet_at.is_some(), "snippet of event {i} missing");
    }

    // Driver filter returns the same events restricted to that driver.
    let filtered = get(addr, "/leads?driver=cim&top=1000");
    let fbody = body_of(&filtered);
    let offline_cim = events
        .iter()
        .filter(|e| e.driver == SalesDriver::ChangeInManagement)
        .count();
    assert_eq!(
        fbody.matches("\"driver\":\"change_in_management\"").count(),
        offline_cim + 1, // +1: the response's own top-level driver field
        "{fbody}"
    );

    // Company ranking matches Eq. 2 MRR order.
    let response = get(addr, &format!("/companies?top={}", companies.len()));
    let cbody = body_of(&response);
    let mut cursor = 0usize;
    for (i, c) in companies.iter().enumerate() {
        let needle = format!(
            "\"rank\":{},\"company\":{}",
            i + 1,
            etap_repro::serve::json::quote(&c.company)
        );
        let at = cbody[cursor..]
            .find(&needle)
            .unwrap_or_else(|| panic!("company {i} ({}) out of order:\n{cbody}", c.company));
        cursor += at;
    }

    // Per-company events endpoint: the top company's events, count equal
    // to its Eq. 2 event count, alias lookup included.
    let top_company = &companies[0];
    let response = get(
        addr,
        &format!(
            "/companies/{}/events",
            top_company.company.replace(' ', "%20")
        ),
    );
    assert_eq!(status_of(&response), 200);
    let ebody = body_of(&response);
    assert!(ebody.contains(&format!("\"event_count\":{}", top_company.events)));

    server.shutdown();
}

#[test]
fn score_endpoint_scores_snippets() {
    let server = boot_default();
    let addr = server.addr();

    let on_topic = post(
        addr,
        "/score?driver=cim",
        "Acme Corp named Jane Roe as its new CEO on Monday.",
    );
    assert_eq!(status_of(&on_topic), 200);
    let body = body_of(&on_topic);
    assert!(
        body.contains("\"driver\":\"change_in_management\""),
        "{body}"
    );
    assert!(body.contains("\"trigger\":true"), "{body}");

    let off_topic = post(
        addr,
        "/score",
        "Simmer the sauce for twenty minutes, stirring occasionally.",
    );
    assert_eq!(status_of(&off_topic), 200);
    assert!(body_of(&off_topic).contains("\"trigger\":false"));

    // Unknown driver key → 404 with a JSON error body (clients match on
    // it programmatically); driver without a model → 404; empty → 400.
    let unknown = post(addr, "/score?driver=astrology", "x");
    assert_eq!(status_of(&unknown), 404);
    assert!(
        body_of(&unknown).contains("\"error\":\"unknown driver key: astrology\""),
        "{unknown}"
    );
    assert_eq!(status_of(&post(addr, "/score?driver=ma", "some text")), 404);
    assert_eq!(status_of(&post(addr, "/score", "   ")), 400);

    server.shutdown();
}

#[test]
fn icp_endpoint_scores_companies_with_explanations() {
    let server = boot_default();
    let addr = server.addr();

    // Wildcard ICP: everything fits, score 100, three explained factors.
    let r = get(addr, "/score?company=Acme%20Corp");
    assert_eq!(status_of(&r), 200);
    let body = body_of(&r);
    assert!(body.contains("\"company\":\"Acme Corp\""), "{body}");
    assert!(body.contains("\"icp_score\":100"), "{body}");
    for factor in ["industry", "size", "region"] {
        assert!(body.contains(&format!("\"factor\":\"{factor}\"")), "{body}");
    }
    assert!(body.contains("\"explanation\":"), "{body}");

    // Target an industry the company is *not* in: the score drops and
    // the industry factor explains why.
    let profile = etap_repro::system::icp::profile_for("Acme Corp");
    let other = etap_repro::system::icp::INDUSTRIES
        .iter()
        .find(|&&i| i != profile.industry)
        .unwrap();
    let r = get(
        addr,
        &format!("/score?company=Acme%20Corp&industry={other}"),
    );
    assert_eq!(status_of(&r), 200);
    let body = body_of(&r);
    assert!(!body.contains("\"icp_score\":100"), "{body}");
    assert!(body.contains("not among target industries"), "{body}");

    // Weight parameters are honored (all weight on a passing factor →
    // back to 100) and bad numerics are 400s.
    let r = get(
        addr,
        &format!("/score?company=Acme%20Corp&industry={other}&w_industry=0&w_size=1&w_region=1"),
    );
    assert!(body_of(&r).contains("\"icp_score\":100"), "{r}");
    assert_eq!(
        status_of(&get(addr, "/score?company=A&size_min=banana")),
        400
    );
    assert_eq!(status_of(&get(addr, "/score?company=A&w_size=-1")), 400);

    // A driver parameter adds the company's trigger-event count.
    let r = get(addr, "/score?company=Acme%20Corp&driver=cim");
    assert_eq!(status_of(&r), 200);
    let body = body_of(&r);
    assert!(
        body.contains("\"driver\":\"change_in_management\""),
        "{body}"
    );
    assert!(body.contains("\"driver_events\":"), "{body}");

    server.shutdown();
}

#[test]
fn leads_icp_enrichment_is_opt_in() {
    let server = boot_default();
    let addr = server.addr();

    // Default /leads carries no ICP fields (byte-stability contract).
    let plain = body_of(&get(addr, "/leads?top=10")).to_string();
    assert!(!plain.contains("\"icp\""), "{plain}");

    // icp=1 adds a score per lead for its first extracted company.
    let enriched = body_of(&get(addr, "/leads?top=10&icp=1")).to_string();
    assert!(enriched.contains("\"icp\":{\"company\":"), "{enriched}");
    assert!(enriched.contains("\"score\":100"), "{enriched}");

    // Stripping the enrichment objects recovers the plain body exactly.
    let mut stripped = enriched.clone();
    while let Some(at) = stripped.find(",\"icp\":{") {
        let end = stripped[at..].find('}').unwrap() + at + 1;
        stripped.replace_range(at..end, "");
    }
    assert_eq!(stripped, plain);

    server.shutdown();
}

#[test]
fn error_paths() {
    let config = ServeConfig {
        max_body_bytes: 512,
        deadline_ms: 300,
        ..ServeConfig::default()
    };
    let server = boot(&config);
    let addr = server.addr();

    // 404 unknown route; unknown company.
    assert_eq!(status_of(&get(addr, "/nope")), 404);
    assert_eq!(
        status_of(&get(addr, "/companies/No%20Such%20Co/events")),
        404
    );
    // Degenerate company-events paths where the "/companies/" prefix
    // and "/events" suffix overlap or enclose an empty name must 404
    // instead of panicking the worker that slices the name out.
    for degenerate in ["/companies/events", "/companies//events", "/companies/"] {
        assert_eq!(status_of(&get(addr, degenerate)), 404, "{degenerate}");
    }
    // No worker died on those: the server still answers, and the panic
    // counter in the exposition is zero.
    let metrics = get(addr, "/metrics");
    assert_eq!(status_of(&metrics), 200);
    assert!(
        body_of(&metrics).contains("etap_worker_panics_total 0"),
        "{metrics}"
    );
    // 405 wrong method.
    assert_eq!(status_of(&post(addr, "/leads", "x")), 405);
    // 400 malformed request line.
    let garbage = exchange_raw(addr, b"GARBAGE\r\n\r\n");
    assert_eq!(status_of(&garbage), 400);
    // 400 bad query parameter (GET /score is the ICP endpoint and
    // requires a company).
    assert_eq!(status_of(&get(addr, "/leads?top=banana")), 400);
    assert_eq!(status_of(&get(addr, "/score")), 400);
    // 404 unknown driver key, JSON error body.
    let unknown = get(addr, "/leads?driver=astrology");
    assert_eq!(status_of(&unknown), 404);
    assert!(
        body_of(&unknown).contains("\"error\":\"unknown driver key: astrology\""),
        "{unknown}"
    );
    assert_eq!(
        status_of(&get(addr, "/score?company=Acme&driver=astrology")),
        404
    );
    // 413 oversized body (declared up front).
    let big = "x".repeat(4096);
    let response = post(addr, "/score", &big);
    assert_eq!(status_of(&response), 413);
    // 408 deadline exceeded mid-read: send half a request and stall.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"GET /leads HTTP/1.1\r\nHos")
        .expect("write");
    let mut out = Vec::new();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.read_to_end(&mut out).expect("read");
    let response = String::from_utf8_lossy(&out);
    assert_eq!(status_of(&response), 408, "{response}");

    server.shutdown();
}

#[test]
fn backpressure_sheds_with_retry_after() {
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 1,
        deadline_ms: 1_000,
        ..ServeConfig::default()
    };
    let server = boot(&config);
    let addr = server.addr();

    // Occupy the single worker with a stalled request…
    let mut stalled = TcpStream::connect(addr).expect("connect");
    stalled
        .write_all(b"GET /leads HTTP/1.1\r\n")
        .expect("write");
    std::thread::sleep(Duration::from_millis(100)); // worker now blocked reading
                                                    // …fill the queue…
    let mut queued = TcpStream::connect(addr).expect("connect");
    queued
        .write_all(b"GET /healthz HTTP/1.1\r\n")
        .expect("write");
    std::thread::sleep(Duration::from_millis(100));
    // …then the next connection must be shed instantly with 503.
    let shed = get(addr, "/healthz");
    assert_eq!(status_of(&shed), 503, "{shed}");
    assert_eq!(header_of(&shed, "Retry-After"), Some("1"));

    drop(stalled);
    drop(queued);
    // Metrics recorded the shed. The worker drains the dropped
    // connections asynchronously, so poll: until the queue frees up the
    // metrics request may itself be shed (raising the count past 1) or
    // even lose its 503 to a reset — only the eventual 200 matters.
    let raw = b"GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n";
    let mut served = None;
    for _ in 0..100 {
        std::thread::sleep(Duration::from_millis(20));
        if let Ok(metrics) = try_exchange_raw(addr, raw) {
            if status_of(&metrics) == 200 {
                served = Some(metrics);
                break;
            }
        }
    }
    let metrics = served.expect("metrics never served after sheds");
    let shed_count: u64 = body_of(&metrics)
        .lines()
        .find_map(|line| line.strip_prefix("etap_shed_total "))
        .expect("etap_shed_total family present")
        .trim()
        .parse()
        .expect("etap_shed_total is a counter");
    assert!(shed_count >= 1, "{metrics}");
    server.shutdown();
}

#[test]
fn nominal_load_never_sheds() {
    // Four concurrent clients against the default queue: first one
    // connection per request, then one keep-alive connection each.
    const TARGETS: [&str; 4] = [
        "/leads?top=5",
        "/companies?top=5",
        "/healthz",
        "/score?company=Acme%20Corp&industry=software&w_industry=2",
    ];
    const CLIENTS: usize = 4;
    const REQUESTS: usize = 30;
    let server = boot_default();
    let addr = server.addr();
    for keepalive in [false, true] {
        std::thread::scope(|s| {
            for client in 0..CLIENTS {
                s.spawn(move || {
                    let mut stream = keepalive.then(|| TcpStream::connect(addr).expect("connect"));
                    let mut carry = Vec::new();
                    for i in 0..REQUESTS {
                        let target = TARGETS[(client + i) % TARGETS.len()];
                        let response = match stream.as_mut() {
                            Some(stream) => {
                                let req = format!("GET {target} HTTP/1.1\r\nHost: t\r\n\r\n");
                                stream.write_all(req.as_bytes()).expect("write");
                                read_one_response(stream, &mut carry)
                            }
                            None => get(addr, target),
                        };
                        assert_eq!(status_of(&response), 200, "{target}: {response}");
                    }
                });
            }
        });
    }
    let metrics = get(addr, "/metrics");
    let body = body_of(&metrics);
    assert_eq!(gauge(body, "etap_shed_total"), 0, "{body}");
    // Every keep-alive request after a client's first reused its socket.
    let reuses = gauge(body, "etap_keepalive_reuses_total");
    assert!(reuses >= (CLIENTS * (REQUESTS - 1)) as u64, "{body}");
    server.shutdown();
}

#[test]
fn hot_swap_never_mixes_generations() {
    let server = Arc::new(boot_default());
    let addr = server.addr();

    // The two generations' exact /leads bodies (deterministic servers
    // mean full-body equality is the strongest possible assertion).
    let body_gen1 = body_of(&get(addr, "/leads?top=5")).to_string();
    assert!(body_gen1.contains("\"generation\":1"));

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut clients = Vec::new();
    for _ in 0..4 {
        let stop = Arc::clone(&stop);
        clients.push(std::thread::spawn(move || {
            let mut bodies = Vec::new();
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let response = get(addr, "/leads?top=5");
                assert_eq!(status_of(&response), 200);
                let generation_header = header_of(&response, "X-Etap-Generation")
                    .expect("generation header")
                    .to_string();
                bodies.push((generation_header, body_of(&response).to_string()));
            }
            bodies
        }));
    }

    // Publish generation 2 (different crawl) mid-traffic.
    std::thread::sleep(Duration::from_millis(150));
    let book2 = LeadBook::build(trained().identify_events_parallel(crawl(99).docs(), 0));
    let published = server.publish(book2, trained());
    assert_eq!(published, 2);
    std::thread::sleep(Duration::from_millis(150));
    stop.store(true, std::sync::atomic::Ordering::Relaxed);

    let body_gen2 = body_of(&get(addr, "/leads?top=5")).to_string();
    assert!(body_gen2.contains("\"generation\":2"));
    assert_ne!(body_gen1, body_gen2, "different crawls must differ");

    let mut saw = [false, false];
    for client in clients {
        for (generation_header, body) in client.join().expect("client thread") {
            // Header and body agree, and the body is exactly one of the
            // two generations' canonical outputs — nothing in between.
            if body == body_gen1 {
                assert_eq!(generation_header, "1");
                saw[0] = true;
            } else if body == body_gen2 {
                assert_eq!(generation_header, "2");
                saw[1] = true;
            } else {
                panic!("mixed-generation response: {body}");
            }
        }
    }
    assert!(saw[0], "no responses observed from generation 1");
    assert!(saw[1], "no responses observed from generation 2");

    match Arc::try_unwrap(server) {
        Ok(server) => server.shutdown(),
        Err(_) => panic!("client threads still hold the server"),
    }
}

#[test]
fn served_responses_are_identical_for_any_thread_count() {
    let fresh = crawl(7);
    let mut bodies = Vec::new();
    for threads in [1usize, 4] {
        let snapshot = Arc::new(LeadSnapshot::build(trained(), fresh.docs(), 1, threads));
        let server =
            etap_repro::serve::start(&ServeConfig::default(), snapshot).expect("start server");
        let addr = server.addr();
        let leads = body_of(&get(addr, "/leads?top=50")).to_string();
        let companies = body_of(&get(addr, "/companies?top=50")).to_string();
        server.shutdown();
        bodies.push((leads, companies));
    }
    assert_eq!(bodies[0], bodies[1], "threads must not change responses");
}

#[test]
fn graceful_shutdown_completes_inflight_requests() {
    let server = boot_default();
    let addr = server.addr();
    // A request in flight when shutdown starts still gets its response:
    // open the connection first, then shut down concurrently.
    let mut stream = TcpStream::connect(addr).expect("connect");
    let shutdown = std::thread::spawn(move || server.shutdown());
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .expect("write");
    let mut out = Vec::new();
    stream.read_to_end(&mut out).expect("read");
    let response = String::from_utf8_lossy(&out);
    // A connection made before shutdown is always drained: it gets its
    // response, never a reset or an empty close.
    assert_eq!(status_of(&response), 200, "{response}");
    shutdown.join().expect("shutdown thread");
    // The port is released: a fresh bind on the same address succeeds.
    let rebind = std::net::TcpListener::bind(addr);
    assert!(rebind.is_ok(), "{rebind:?}");
}

/// Read exactly one HTTP response (headers + Content-Length body) from
/// a stream that stays open — the keep-alive client's read primitive
/// (`read_to_end` would block until the server closes). `carry` holds
/// read-ahead bytes of the *next* response when the server's writes
/// coalesce into one packet — the client-side mirror of the server's
/// request carry buffer. Pass a fresh `Vec` per connection.
fn read_one_response(stream: &mut TcpStream, carry: &mut Vec<u8>) -> String {
    let mut buf = std::mem::take(carry);
    let mut chunk = [0u8; 1024];
    let header_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        let n = stream.read(&mut chunk).expect("read head");
        assert!(n > 0, "connection closed mid-response: {buf:?}");
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..header_end]).into_owned();
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            let (n, v) = l.split_once(':')?;
            n.eq_ignore_ascii_case("content-length")
                .then(|| v.trim().parse().ok())?
        })
        .expect("Content-Length header");
    while buf.len() < header_end + content_length {
        let n = stream.read(&mut chunk).expect("read body");
        assert!(n > 0, "connection closed mid-body");
        buf.extend_from_slice(&chunk[..n]);
    }
    *carry = buf.split_off(header_end + content_length);
    String::from_utf8_lossy(&buf).into_owned()
}

#[test]
fn keepalive_serves_many_requests_on_one_connection() {
    let server = boot_default();
    let addr = server.addr();

    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut carry = Vec::new();
    for i in 0..5 {
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            .expect("write");
        let response = read_one_response(&mut stream, &mut carry);
        assert_eq!(status_of(&response), 200, "request {i}: {response}");
        assert_eq!(
            header_of(&response, "Connection"),
            Some("keep-alive"),
            "request {i}"
        );
    }
    // The final request closes explicitly and the server honors it.
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .expect("write");
    let response = read_one_response(&mut stream, &mut carry);
    assert_eq!(header_of(&response, "Connection"), Some("close"));
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("read eof");
    assert!(rest.is_empty(), "server closed after Connection: close");

    let metrics = get(addr, "/metrics");
    let body = body_of(&metrics);
    let reuses: u64 = body
        .lines()
        .find_map(|l| l.strip_prefix("etap_keepalive_reuses_total "))
        .and_then(|v| v.parse().ok())
        .expect("keepalive metric");
    assert!(reuses >= 5, "expected >=5 reuses, metrics:\n{body}");
    server.shutdown();
}

#[test]
fn keepalive_cap_closes_connection() {
    let config = ServeConfig {
        keepalive_requests: 3,
        ..ServeConfig::default()
    };
    let server = boot(&config);
    let addr = server.addr();
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut carry = Vec::new();
    for i in 0..3 {
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            .expect("write");
        let response = read_one_response(&mut stream, &mut carry);
        let expected = if i == 2 { "close" } else { "keep-alive" };
        assert_eq!(
            header_of(&response, "Connection"),
            Some(expected),
            "request {i}: {response}"
        );
    }
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("read eof");
    assert!(rest.is_empty(), "server closed at the cap");
    server.shutdown();
}

#[test]
fn keepalive_pipelined_bytes_are_not_lost() {
    // Two requests written in one packet: the read-ahead bytes of the
    // second must be carried over, not dropped.
    let server = boot_default();
    let addr = server.addr();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(
            b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\nGET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        )
        .expect("write both");
    let mut carry = Vec::new();
    let first = read_one_response(&mut stream, &mut carry);
    assert_eq!(status_of(&first), 200, "{first}");
    let second = read_one_response(&mut stream, &mut carry);
    assert_eq!(status_of(&second), 200, "{second}");
    assert_eq!(header_of(&second, "Connection"), Some("close"));
    server.shutdown();
}

#[test]
fn http10_defaults_to_close() {
    let server = boot_default();
    let addr = server.addr();
    let response = exchange_raw(addr, b"GET /healthz HTTP/1.0\r\nHost: t\r\n\r\n");
    assert_eq!(status_of(&response), 200);
    assert_eq!(header_of(&response, "Connection"), Some("close"));
    server.shutdown();
}

fn temp_store_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("etap_serve_store_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn publishes_persist_and_warm_start_serves_identical_responses() {
    let root = temp_store_dir("warm");
    let config = ServeConfig {
        store: Some(root.clone()),
        ..ServeConfig::default()
    };
    let server = boot(&config);
    let addr = server.addr();

    // Publish generation 2 on top of the boot snapshot.
    let next = crawl(11);
    let snapshot = server.snapshot();
    let gen2 = LeadSnapshot::extend(&snapshot, next.docs(), 2, 0);
    server.publish_snapshot(Arc::new(gen2));

    let leads_before = body_of(&get(addr, "/leads?top=50")).to_string();
    let companies_before = body_of(&get(addr, "/companies?top=50")).to_string();
    server.shutdown();

    // "Restart": a brand-new server warm-started purely from disk.
    let store = etap_repro::serve::GenerationStore::open(&root).expect("open store");
    let (restored, skipped) = store
        .load_latest()
        .expect("scan")
        .expect("valid generation");
    assert!(skipped.is_empty(), "{skipped:?}");
    assert_eq!(restored.generation, 2, "resumes at the newest generation");
    let server2 = etap_repro::serve::start(&config, Arc::new(restored)).expect("restart");
    let addr2 = server2.addr();
    assert_eq!(
        body_of(&get(addr2, "/leads?top=50")),
        leads_before,
        "byte-identical /leads after restart"
    );
    assert_eq!(
        body_of(&get(addr2, "/companies?top=50")),
        companies_before,
        "byte-identical /companies after restart"
    );
    // Generation numbering resumes monotonically.
    let gen3 = server2.publish(server2.snapshot().book.clone(), trained());
    assert_eq!(gen3, 3);
    assert!(store.generations().expect("list").contains(&3));
    server2.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn corrupt_newest_generation_falls_back_without_panics() {
    let root = temp_store_dir("corrupt");
    let config = ServeConfig {
        store: Some(root.clone()),
        ..ServeConfig::default()
    };
    let server = boot(&config);
    let snapshot = server.snapshot();
    let gen2 = LeadSnapshot::extend(&snapshot, crawl(12).docs(), 2, 0);
    server.publish_snapshot(Arc::new(gen2));
    server.shutdown();

    // Corrupt the newest generation's event file on disk.
    let victim = root.join("gen-2").join("events.leads");
    let mut bytes = std::fs::read(&victim).expect("read victim");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&victim, bytes).expect("rewrite");

    let store = etap_repro::serve::GenerationStore::open(&root).expect("open store");
    let (restored, skipped) = store.load_latest().expect("scan").expect("fallback");
    assert_eq!(restored.generation, 1, "fell back to the newest valid");
    assert_eq!(skipped.len(), 1);
    assert_eq!(skipped[0].0, 2);

    // The fallback snapshot serves; no worker dies on the way.
    let server2 = etap_repro::serve::start(&config, Arc::new(restored)).expect("restart");
    let addr2 = server2.addr();
    assert_eq!(status_of(&get(addr2, "/leads?top=10")), 200);
    let metrics = get(addr2, "/metrics");
    assert!(
        body_of(&metrics).contains("etap_worker_panics_total 0"),
        "{metrics}"
    );
    server2.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// One gauge out of a `/metrics` body.
fn gauge(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("no {name} in:\n{metrics}"))
}

#[test]
fn watch_cycle_on_a_mapped_store_keeps_its_base_mapped() {
    use etap_repro::serve::{watch, GenerationStore, LeadsFormat, WatchConfig};

    let root = temp_store_dir("mapped_watch");
    let store = GenerationStore::open(&root)
        .expect("open store")
        .with_leads_format(LeadsFormat::Binary { shards: 16 });
    let base = SyntheticWeb::generate(WebConfig {
        total_docs: 400,
        seed: 21,
        ..WebConfig::default()
    });
    store
        .publish(&LeadSnapshot::build(trained(), base.docs(), 1, 0))
        .expect("publish");
    let (loaded, _) = store.load_latest().expect("scan").expect("generation 1");
    let server =
        etap_repro::serve::start(&ServeConfig::default(), Arc::new(loaded)).expect("start server");
    let before = get(server.addr(), "/metrics");
    let before = body_of(&before);
    assert_eq!(gauge(before, "etap_mmap_generations"), 1, "{before}");
    assert_eq!(gauge(before, "etap_snapshot_heap_bytes"), 0, "{before}");

    let config = WatchConfig {
        interval: Duration::ZERO,
        cycles: Some(1),
        poll_docs: 20,
        threads: 1,
        prior_blend: 0.0,
        ..WatchConfig::default()
    };
    let report = watch::run(&server, &store, &config);
    assert_eq!(
        (report.cycles_failed, report.final_generation),
        (0, 2),
        "{report:?}"
    );

    // The extended book shares the generation's mapped segments and
    // holds only its index and one delta on the heap: no longer fully
    // mapped, and mostly mapped bytes.
    let after = get(server.addr(), "/metrics");
    let after = body_of(&after);
    let (total, heap) = (
        gauge(after, "etap_snapshot_bytes"),
        gauge(after, "etap_snapshot_heap_bytes"),
    );
    assert_eq!(gauge(after, "etap_mmap_generations"), 0, "{after}");
    assert!(
        heap > 0 && heap < total - heap,
        "heap {heap} of {total} bytes"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}
