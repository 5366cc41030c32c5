//! Minimal HTTP/1.1 request parsing and response writing over raw
//! `TcpStream`s — just enough protocol for the lead-serving endpoints,
//! built on `std` alone (no hyper, no httparse).
//!
//! Scope deliberately kept small:
//!
//! * **keep-alive, not pipelining**: a connection carries a sequence of
//!   request/response exchanges (HTTP/1.1 default semantics, honoring
//!   `Connection:` headers); bytes of a *next* request that arrive
//!   early are carried over to the next [`read_request`] call, but
//!   responses are always written strictly in sequence;
//! * headers capped at [`MAX_HEADER_BYTES`], bodies at the server's
//!   configured limit (`413` beyond it);
//! * only `Content-Length` bodies (no chunked encoding — `411`/`400`
//!   territory is folded into `Malformed`);
//! * socket read/write timeouts enforce the per-request deadline; a
//!   timeout while reading surfaces as [`RequestError::TimedOut`].

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::TcpStream;

/// Hard cap on the request line + headers (bytes).
pub const MAX_HEADER_BYTES: usize = 8 * 1024;

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, … (uppercased as received).
    pub method: String,
    /// Decoded path, query string stripped (e.g. `/leads`).
    pub path: String,
    /// Decoded query parameters in arrival order.
    pub query: Vec<(String, String)>,
    /// Raw body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the client allows this connection to be reused:
    /// HTTP/1.1 unless `Connection: close`, HTTP/1.0 only with
    /// `Connection: keep-alive`. The server may still close (cap
    /// reached, shutdown) — this is the client half of the handshake.
    pub keep_alive: bool,
}

impl Request {
    /// First value of a query parameter.
    #[must_use]
    pub fn param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum RequestError {
    /// Protocol violation (bad request line, header, or length) → `400`.
    Malformed(&'static str),
    /// Declared or actual body beyond the configured cap → `413`.
    BodyTooLarge,
    /// The socket read timed out before a full request arrived → `408`.
    TimedOut,
    /// Peer closed before sending anything (not an error worth a reply).
    Closed,
    /// Transport failure.
    Io(io::Error),
}

impl From<io::Error> for RequestError {
    fn from(e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => Self::TimedOut,
            io::ErrorKind::UnexpectedEof => Self::Malformed("truncated request"),
            _ => Self::Io(e),
        }
    }
}

/// Read and parse one request from `stream` (a `TcpStream` when
/// serving). The caller is expected to have set the socket read timeout
/// (that is what bounds this call).
///
/// `carry` is the connection's read-ahead buffer: bytes of the *next*
/// request that arrived in the same packets as this one are left there
/// for the next call (and consumed from there first), which is what
/// makes keep-alive reuse lossless. Pass a fresh `Vec` per connection.
///
/// # Errors
/// See [`RequestError`].
pub fn read_request(
    stream: &mut impl Read,
    max_body: usize,
    carry: &mut Vec<u8>,
) -> Result<Request, RequestError> {
    let (head, leftover) = read_head(stream, std::mem::take(carry))?;
    let head_text =
        String::from_utf8(head).map_err(|_| RequestError::Malformed("non-UTF-8 header"))?;
    let mut lines = head_text.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && t.starts_with('/') => (m, t, v),
        _ => return Err(RequestError::Malformed("bad request line")),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(RequestError::Malformed("unsupported HTTP version"));
    }

    let mut headers: HashMap<String, String> = HashMap::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(RequestError::Malformed("bad header line"));
        };
        headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
    }

    let content_length = match headers.get("content-length") {
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| RequestError::Malformed("bad content-length"))?,
        None => 0,
    };
    if content_length > max_body {
        return Err(RequestError::BodyTooLarge);
    }

    // Body bytes that arrived with the header read come first; any
    // surplus beyond Content-Length belongs to the next request on this
    // connection and goes back into the carry buffer.
    let mut body = leftover;
    if body.len() > content_length {
        *carry = body.split_off(content_length);
    }
    while body.len() < content_length {
        let mut buf = [0u8; 4096];
        let want = (content_length - body.len()).min(buf.len());
        let n = stream.read(&mut buf[..want])?;
        if n == 0 {
            return Err(RequestError::Malformed("truncated body"));
        }
        body.extend_from_slice(&buf[..n]);
    }

    let connection = headers
        .get("connection")
        .map(|v| v.to_ascii_lowercase())
        .unwrap_or_default();
    let keep_alive = if version == "HTTP/1.0" {
        connection == "keep-alive"
    } else {
        connection != "close"
    };

    let (path, query) = split_target(target)?;
    Ok(Request {
        method: method.to_ascii_uppercase(),
        path,
        query,
        body,
        keep_alive,
    })
}

/// Read until the `\r\n\r\n` header terminator; returns `(head, extra)`
/// where `extra` is any body prefix that arrived in the same packets.
/// Consumes `carry` (keep-alive read-ahead) before touching the socket.
fn read_head(stream: &mut impl Read, carry: Vec<u8>) -> Result<(Vec<u8>, Vec<u8>), RequestError> {
    let mut buf = carry;
    let mut chunk = [0u8; 1024];
    // Each read scans only what it added, plus three bytes of overlap.
    let mut scanned = 0;
    loop {
        if let Some(pos) = find_terminator(&buf[scanned..]).map(|at| scanned + at) {
            let extra = buf.split_off(pos + 4);
            buf.truncate(pos);
            return Ok((buf, extra));
        }
        scanned = buf.len().saturating_sub(3);
        if buf.len() > MAX_HEADER_BYTES {
            return Err(RequestError::Malformed("header section too large"));
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            if buf.is_empty() {
                return Err(RequestError::Closed);
            }
            return Err(RequestError::Malformed("truncated request"));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

fn find_terminator(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn split_target(target: &str) -> Result<(String, Vec<(String, String)>), RequestError> {
    let (path, query_str) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let path = percent_decode(path, false).ok_or(RequestError::Malformed("bad path encoding"))?;
    let mut query = Vec::new();
    for pair in query_str.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        let k = percent_decode(k, true).ok_or(RequestError::Malformed("bad query encoding"))?;
        let v = percent_decode(v, true).ok_or(RequestError::Malformed("bad query encoding"))?;
        query.push((k, v));
    }
    Ok((path, query))
}

/// Decode `%XX` escapes; with `plus_as_space` also map `+` to a space.
/// `+`-as-space is a form-encoding convention that applies only to
/// query components — in the path `+` stays literal, or a company name
/// containing `+` could never be addressed. `None` on malformed
/// escapes or non-UTF-8 results.
#[must_use]
pub fn percent_decode(s: &str, plus_as_space: bool) -> Option<String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes.get(i + 1..i + 3)?;
                let hi = (hex[0] as char).to_digit(16)?;
                let lo = (hex[1] as char).to_digit(16)?;
                out.push((hi * 16 + lo) as u8);
                i += 3;
            }
            b'+' if plus_as_space => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).ok()
}

/// A status line + reason pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status(pub u16, pub &'static str);

/// Commonly used statuses.
pub mod status {
    use super::Status;
    /// 200
    pub const OK: Status = Status(200, "OK");
    /// 400
    pub const BAD_REQUEST: Status = Status(400, "Bad Request");
    /// 404
    pub const NOT_FOUND: Status = Status(404, "Not Found");
    /// 405
    pub const METHOD_NOT_ALLOWED: Status = Status(405, "Method Not Allowed");
    /// 408
    pub const REQUEST_TIMEOUT: Status = Status(408, "Request Timeout");
    /// 413
    pub const PAYLOAD_TOO_LARGE: Status = Status(413, "Payload Too Large");
    /// 503
    pub const SERVICE_UNAVAILABLE: Status = Status(503, "Service Unavailable");
}

/// Write a full response (status, standard headers, body) and flush.
/// `keep_alive` selects the `Connection:` header — the caller decides
/// per response whether the connection survives (client consent, reuse
/// cap, shutdown all factor in on the server side).
///
/// # Errors
/// Propagates socket write errors (including write-timeout expiry).
pub fn write_response(
    stream: &mut TcpStream,
    status: Status,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    let mut head = String::with_capacity(256);
    head.push_str(&format!("HTTP/1.1 {} {}\r\n", status.0, status.1));
    head.push_str(&format!("Content-Type: {content_type}\r\n"));
    head.push_str(&format!("Content-Length: {}\r\n", body.len()));
    for (name, value) in extra_headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str(if keep_alive {
        "Connection: keep-alive\r\n\r\n"
    } else {
        "Connection: close\r\n\r\n"
    });
    // One write per response: a second small write would sit behind
    // Nagle waiting for the delayed ACK of the first on a kept-alive
    // connection (~40 ms per exchange — belt to `set_nodelay`'s
    // suspenders on the accept path).
    let mut frame = Vec::with_capacity(head.len() + body.len());
    frame.extend_from_slice(head.as_bytes());
    frame.extend_from_slice(body);
    stream.write_all(&frame)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("a%20b+c", true).as_deref(), Some("a b c"));
        assert_eq!(percent_decode("a%20b+c", false).as_deref(), Some("a b+c"));
        assert_eq!(percent_decode("plain", true).as_deref(), Some("plain"));
        assert_eq!(percent_decode("bad%2", true), None);
        assert_eq!(percent_decode("bad%zz", true), None);
    }

    #[test]
    fn target_splitting() {
        let (path, query) = split_target("/leads?driver=ma&top=5").unwrap();
        assert_eq!(path, "/leads");
        assert_eq!(
            query,
            vec![
                ("driver".to_string(), "ma".to_string()),
                ("top".to_string(), "5".to_string())
            ]
        );
        let (path, query) = split_target("/healthz").unwrap();
        assert_eq!(path, "/healthz");
        assert!(query.is_empty());
        let (path, _) = split_target("/companies/Acme%20Corp./events").unwrap();
        assert_eq!(path, "/companies/Acme Corp./events");
        // '+' is literal in the path but a space in query components.
        let (path, query) = split_target("/companies/A+B%2BCo/events?q=a+b").unwrap();
        assert_eq!(path, "/companies/A+B+Co/events");
        assert_eq!(query, vec![("q".to_string(), "a b".to_string())]);
    }

    /// A fuzz input for [`split_target`]: random bytes, or pieces chosen
    /// to stress the decoder (escapes cut off at the end or splitting a
    /// multibyte character, `+`, runs of `&` and `=`).
    fn fuzz_target(rng: &mut etap_runtime::Rng) -> String {
        const PIECES: &[&str] = &[
            "%",
            "%4",
            "%41",
            "%zz",
            "%C3",
            "%A9",
            "%C3%A9",
            "%E2%82",
            "%F0%9F%98%80",
            "é",
            "\u{1F600}",
            "+",
            "&",
            "=",
            "&&",
            "==",
            "?",
            "/",
            "a",
            "top",
            "%2B",
            "%00",
            "%%",
        ];
        let mut bytes = Vec::new();
        match rng.gen_range(0..3u32) {
            0 => {
                for _ in 0..rng.gen_range(0..40usize) {
                    bytes.push(rng.gen_range(0..256u32) as u8);
                }
            }
            1 => {
                for _ in 0..rng.gen_range(0..16usize) {
                    let piece = rng.choose(PIECES).expect("pieces");
                    bytes.extend_from_slice(piece.as_bytes());
                }
            }
            _ => {
                // Mostly `&` and `=`, with a few escapes.
                for _ in 0..rng.gen_range(0..40usize) {
                    let piece = match rng.gen_range(0..10u32) {
                        0..=3 => "&",
                        4..=7 => "=",
                        _ => rng.choose(PIECES).expect("pieces"),
                    };
                    bytes.extend_from_slice(piece.as_bytes());
                }
            }
        }
        if rng.gen_bool(0.3) {
            // An escape cut off at the very end.
            bytes.extend_from_slice(if rng.gen_bool(0.5) { b"%" } else { b"%E" });
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    #[test]
    fn fuzzed_targets_split_or_fail_typed() {
        let mut rng = etap_runtime::Rng::seed_from_u64(0x7A26E7);
        let (mut ok, mut bad) = (0, 0);
        for case in 0..3_000 {
            let target = fuzz_target(&mut rng);
            for plus in [false, true] {
                if let Some(d) = percent_decode(&target, plus) {
                    assert!(d.len() <= target.len(), "case {case}: {target:?}");
                }
            }
            match split_target(&target) {
                Ok((path, query)) => {
                    ok += 1;
                    let (raw_path, raw_query) = target.split_once('?').unwrap_or((&target, ""));
                    assert!(path.len() <= raw_path.len(), "case {case}: {target:?}");
                    let decoded: usize = query.iter().map(|(k, v)| k.len() + v.len()).sum();
                    assert!(decoded <= raw_query.len(), "case {case}: {target:?}");
                }
                Err(RequestError::Malformed(_)) => bad += 1,
                Err(e) => panic!("case {case}: {target:?} gave {e:?}"),
            }
        }
        assert!(ok > 300 && bad > 300, "{ok} ok, {bad} rejected");
    }

    #[test]
    fn terminator_search() {
        assert_eq!(find_terminator(b"GET / HTTP/1.1\r\n\r\n"), Some(14));
        assert_eq!(find_terminator(b"partial\r\n"), None);
    }
}
