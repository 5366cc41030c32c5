//! Seeded fuzz of the store's and the server's decoders of untrusted
//! bytes: the generation `MANIFEST` reader (`store::Manifest::parse`)
//! and the HTTP request reader (`http::read_request`). Every input must
//! give a typed error or a valid value, never a panic, and a decode may
//! allocate no more than a constant multiple of its input's size.
//!
//! A counting `#[global_allocator]` (a thin wrapper over [`System`],
//! counted per thread) measures the bytes each decode asks for. It
//! lives in its own test binary so it never touches production builds
//! or the other suites.

use etap_persist::Writer;
use etap_runtime::Rng;
use etap_serve::http::{self, RequestError};
use etap_serve::store::{Manifest, MANIFEST_KIND, MANIFEST_VERSION};
use etap_serve::StoreError;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Read;

/// Counts the bytes every allocation and reallocation of the calling
/// thread asks for.
struct CountingAlloc;

thread_local! {
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: allocations during thread teardown go uncounted
    // instead of panicking inside the allocator.
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes the calling thread allocates while `f` runs, and its result.
fn allocated<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (out, BYTES.with(Cell::get) - before)
}

/// The allocation bound: a constant multiple of the input plus a fixed
/// allowance. A decoder that reserved by a count it read, rather than
/// by what the input holds, fails it.
fn within_bound(input: usize, bytes: usize) -> bool {
    bytes <= 256 * input + 16 * 1024
}

/// Mutate the records `lines` (each with its line ending): one or two
/// truncations, bit flips and splices of records drawn from `lines`
/// and `extra`.
fn mutate(lines: &[&str], extra: &[&str], rng: &mut Rng) -> Vec<u8> {
    let mut bytes = lines.concat().into_bytes();
    let pick = |rng: &mut Rng| match rng.gen_range(0..lines.len() + extra.len()) {
        i if i < lines.len() => lines[i],
        i => extra[i - lines.len()],
    };
    for _ in 0..rng.gen_range(1..3usize) {
        let line = pick(rng);
        match rng.gen_range(0..4u64) {
            0 => bytes.truncate(rng.gen_range(0..bytes.len() + 1)),
            1 if !bytes.is_empty() => {
                let i = rng.gen_range(0..bytes.len());
                bytes[i] ^= 1 << rng.gen_range(0..8u64);
            }
            2 => {
                // Splice a whole record in between two others.
                let ends = bytes.iter().enumerate().filter(|(_, &b)| b == b'\n');
                let cuts: Vec<usize> = std::iter::once(0).chain(ends.map(|(i, _)| i + 1)).collect();
                let at = *rng.choose(&cuts).expect("the start");
                bytes.splice(at..at, line.bytes());
            }
            _ => {
                // Splice a record's head onto another's tail.
                let b = pick(rng).as_bytes();
                let mut joined = line.as_bytes()[..rng.gen_range(0..line.len())].to_vec();
                joined.extend_from_slice(&b[rng.gen_range(0..b.len())..]);
                let at = rng.gen_range(0..bytes.len() + 1);
                bytes.splice(at..at, joined);
            }
        }
    }
    bytes
}

/// Two manifests as publishes write them: a binary generation with four
/// segments and two models, one serving an adapted prior, and a text
/// generation with one model serving an adapted prior.
fn manifests() -> [(u64, String); 2] {
    let file = |w: &mut Writer, name: &str, fnv: u64, size: usize| {
        w.record(["file", name, &format!("{fnv:016x}"), &size.to_string()]);
    };
    let mut binary = Writer::new(MANIFEST_KIND, MANIFEST_VERSION);
    binary.record(["generation", "7"]);
    binary.record(["window", "3"]);
    binary.record(["events", "120"]);
    binary.record(["format", "binary"]);
    binary.record(["shards", "4"]);
    file(&mut binary, "book.index", 0x1234_5678_9abc_def0, 4_096);
    for sid in 0..4 {
        let name = format!("shards/shard-{sid:05}.leads2");
        file(&mut binary, &name, 0xfeed_0000 + sid, 2_000 + sid as usize);
    }
    file(
        &mut binary,
        "model-000-mergers_acquisitions.model",
        0xa1,
        90_000,
    );
    file(&mut binary, "model-001-revenue_growth.model", 0xa2, 80_000);
    binary.record([
        "prior",
        "model-001-revenue_growth.model",
        "-2.6741716416617847",
        "-0.07143888714337628",
    ]);

    let mut text = Writer::new(MANIFEST_KIND, MANIFEST_VERSION);
    text.record(["generation", "3"]);
    text.record(["window", "3"]);
    text.record(["events", "12"]);
    file(&mut text, "events.leads", 0x0bad_cafe, 5_000);
    file(
        &mut text,
        "model-000-change_in_management.model",
        0xb1,
        70_000,
    );
    text.record([
        "prior",
        "model-000-change_in_management.model",
        "-1.1963",
        "-0.3567",
    ]);
    [(7, binary.finish()), (3, text.finish())]
}

/// Records with counts and sizes no manifest that fits in memory holds,
/// spliced in to catch a reader that reserves by what a record claims.
const HOSTILE_RECORDS: &[&str] = &[
    "shards\t4294967295\n",
    "events\t18446744073709551615\n",
    "window\t18446744073709551615\n",
    "file\tshards/shard-4294967295.leads2\t0\t18446744073709551615\n",
    "prior\tmodel-000-mergers_acquisitions.model\tNaN\t-1e308\n",
    "prior\tmodel-000-change_in_management.model\t-inf\t1e400\n",
];

fn seal(body: &[u8]) -> String {
    let mut text = String::from_utf8_lossy(body).into_owned();
    if !text.ends_with('\n') {
        text.push('\n');
    }
    let sum = etap_persist::fnv1a64(text.as_bytes());
    text.push_str(&format!("#sum {sum:016x}\n"));
    text
}

#[test]
fn fuzzed_manifests_parse_or_fail_typed() {
    let mut rng = Rng::seed_from_u64(0x03A4_FE57);
    let (mut ok, mut bad) = (0, 0);
    for (m, (generation, manifest)) in manifests().iter().enumerate() {
        let parsed = Manifest::parse(manifest, *generation);
        assert!(parsed.is_ok(), "manifest {m}: {parsed:?}");
        let (body, _) = manifest
            .trim_end_matches('\n')
            .rsplit_once('\n')
            .expect("trailer");
        let body = format!("{body}\n");
        let lines: Vec<&str> = body.split_inclusive('\n').collect();
        for case in 0..1_000 {
            let text = seal(&mutate(&lines, HOSTILE_RECORDS, &mut rng));
            // Now and then the directory names another generation.
            let generation = match rng.gen_bool(0.05) {
                true => generation + 1,
                false => *generation,
            };
            let (parsed, bytes) = allocated(|| Manifest::parse(&text, generation));
            assert!(
                within_bound(text.len(), bytes),
                "manifest {m} case {case}: {bytes} B allocated for {} B",
                text.len()
            );
            match parsed {
                Ok(_) => ok += 1,
                Err(StoreError::Codec(_) | StoreError::Invalid(_)) => bad += 1,
                Err(e) => panic!("manifest {m} case {case}: {e}"),
            }
        }
    }
    // Both outcomes occur: the mutations reach the record rules, and
    // most break one of them.
    assert!(ok >= 50 && bad > 1_000, "{ok} ok, {bad} rejected");
}

/// A reader handing out its bytes in seeded chunks of 1 to 64, as a
/// socket may.
struct Chunked<'a> {
    bytes: &'a [u8],
    rng: Rng,
}

impl Read for Chunked<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self
            .rng
            .gen_range(1..65usize)
            .min(buf.len())
            .min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

const MAX_BODY: usize = 1_024;

/// Requests a client sends, each a record for [`mutate`]: heads, header
/// lines and bodies.
const REQUEST_PIECES: &[&str] = &[
    "GET /leads?driver=cim&top=5 HTTP/1.1\r\n",
    "GET /companies/Acme%20Corp./events HTTP/1.1\r\n",
    "POST /score?driver=ma HTTP/1.1\r\n",
    "GET /healthz HTTP/1.0\r\n",
    "Host: localhost\r\n",
    "Connection: close\r\n",
    "Connection: keep-alive\r\n",
    "Content-Length: 12\r\n",
    "Content-Length: 99999999999999999999\r\n",
    "Content-Length: 2048\r\n",
    "Content-Length: 1000000000\r\n",
    "Transfer-Encoding: chunked\r\n",
    "\r\n",
    "Acme bought Zed.",
    "%E2%82",
    "GET / HTTP/2\r\n",
    ": no name\r\n",
];

fn fuzz_request(rng: &mut Rng) -> Vec<u8> {
    let mut lines: Vec<&str> = Vec::new();
    for _ in 0..rng.gen_range(1..4usize) {
        lines.push(REQUEST_PIECES[rng.gen_range(0..4usize)]);
        for _ in 0..rng.gen_range(0..4usize) {
            lines.push(REQUEST_PIECES[rng.gen_range(4..12usize)]);
        }
        lines.push("\r\n");
        if rng.gen_bool(0.5) {
            lines.push("Acme bought Zed.");
        }
    }
    if rng.gen_bool(0.8) {
        mutate(&lines, &[], rng)
    } else {
        // An oversized head of header lines.
        let mut bytes = b"GET / HTTP/1.1\r\n".to_vec();
        while bytes.len() <= http::MAX_HEADER_BYTES {
            bytes.extend_from_slice(b"X-Pad: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n");
        }
        bytes
    }
}

#[test]
fn fuzzed_requests_parse_or_fail_typed() {
    let mut rng = Rng::seed_from_u64(0x0041_779E);
    let (mut ok, mut bad) = (0, 0);
    for case in 0..3_000 {
        let input = fuzz_request(&mut rng);
        let mut reader = Chunked {
            bytes: &input,
            rng: Rng::seed_from_u64(case),
        };
        // Read requests off the connection as the server does, carrying
        // read-ahead bytes from one request to the next.
        let mut carry = Vec::new();
        for _ in 0..8 {
            let (read, bytes) = allocated(|| http::read_request(&mut reader, MAX_BODY, &mut carry));
            assert!(
                within_bound(input.len(), bytes),
                "case {case}: {bytes} B allocated for {} B",
                input.len()
            );
            match read {
                Ok(req) => {
                    ok += 1;
                    assert!(req.body.len() <= MAX_BODY.min(input.len()), "case {case}");
                    assert!(req.path.starts_with('/'), "case {case}: {:?}", req.path);
                    let query: usize = req.query.iter().map(|(k, v)| k.len() + v.len()).sum();
                    assert!(req.path.len() + query <= input.len(), "case {case}");
                    assert!(!req.method.is_empty(), "case {case}");
                }
                Err(RequestError::Malformed(_) | RequestError::BodyTooLarge) => {
                    bad += 1;
                    break;
                }
                Err(RequestError::Closed) => break,
                Err(e) => panic!("case {case}: {e:?}"),
            }
        }
    }
    assert!(ok > 500 && bad > 1_000, "{ok} ok, {bad} rejected");
}
