//! A minimal HTTP/1.1 client over loopback: keep-alive with reconnect
//! on server close, a read and write timeout on every socket, and one
//! reused receive buffer.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Socket read/write timeout: a server that stays silent this long is
/// hung, and the run fails instead of waiting.
pub const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// One request, pre-encoded.
#[derive(Debug, Clone)]
pub struct Request {
    pub bytes: Vec<u8>,
}

impl Request {
    pub fn get(target: &str) -> Self {
        Self {
            bytes: format!("GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes(),
        }
    }

    pub fn post(target: &str, body: &str) -> Self {
        Self {
            bytes: format!(
                "POST {target} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .into_bytes(),
        }
    }
}

/// What went wrong with one exchange.
#[derive(Debug)]
pub enum Failure {
    /// No byte moved within [`IO_TIMEOUT`]: the server is hung.
    TimedOut,
    /// Refused, reset, or closed before a complete response.
    Broken(io::Error),
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::TimedOut => write!(f, "timed out after {} s", IO_TIMEOUT.as_secs()),
            Failure::Broken(e) => write!(f, "{e}"),
        }
    }
}

impl From<io::Error> for Failure {
    fn from(e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => Failure::TimedOut,
            _ => Failure::Broken(e),
        }
    }
}

/// A parsed response; the body lives in the client's buffer.
#[derive(Debug, Clone, Copy)]
pub struct Response {
    pub status: u16,
    /// `X-Etap-Generation`, when present.
    pub generation: Option<u64>,
    /// Head plus body bytes received.
    pub wire_bytes: usize,
    close: bool,
    body_start: usize,
}

/// One keep-alive connection, re-opened whenever the server closes it.
pub struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    /// TCP connections opened so far.
    pub connects: u64,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            stream: None,
            buf: Vec::with_capacity(64 * 1024),
            connects: 0,
        }
    }

    fn connect(&mut self) -> Result<&mut TcpStream, Failure> {
        if self.stream.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, IO_TIMEOUT)?;
            stream.set_read_timeout(Some(IO_TIMEOUT))?;
            stream.set_write_timeout(Some(IO_TIMEOUT))?;
            stream.set_nodelay(true)?;
            self.connects += 1;
            self.stream = Some(stream);
        }
        Ok(self.stream.as_mut().expect("connected above"))
    }

    /// Send one request and read its response. A connection the server
    /// closed while idle is re-opened once.
    pub fn send(&mut self, req: &Request) -> Result<Response, Failure> {
        let fresh = self.stream.is_none();
        match self.exchange(req) {
            Err(Failure::Broken(_)) if !fresh => {
                self.stream = None;
                self.exchange(req)
            }
            other => other,
        }
    }

    fn exchange(&mut self, req: &Request) -> Result<Response, Failure> {
        let result = self.exchange_inner(req);
        match &result {
            Ok(resp) if !resp.close => {}
            _ => self.stream = None,
        }
        result
    }

    fn exchange_inner(&mut self, req: &Request) -> Result<Response, Failure> {
        self.connect()?.write_all(&req.bytes)?;
        self.buf.clear();
        let stream = self.stream.as_mut().expect("connected above");
        let mut chunk = [0u8; 16 * 1024];
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(Failure::Broken(io::ErrorKind::UnexpectedEof.into()));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| Failure::Broken(io::ErrorKind::InvalidData.into()))?;
        let status = head
            .split(' ')
            .nth(1)
            .and_then(|c| c.parse().ok())
            .ok_or_else(|| Failure::Broken(io::ErrorKind::InvalidData.into()))?;
        let mut content_length = 0usize;
        let mut generation = None;
        let mut close = false;
        for line in head.lines().skip(1) {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.parse().unwrap_or(0);
            } else if name.eq_ignore_ascii_case("x-etap-generation") {
                generation = value.parse().ok();
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }
        while self.buf.len() < head_end + content_length {
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(Failure::Broken(io::ErrorKind::UnexpectedEof.into()));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        self.buf.truncate(head_end + content_length);
        Ok(Response {
            status,
            generation,
            wire_bytes: self.buf.len(),
            close,
            body_start: head_end,
        })
    }

    /// Body of the last response.
    pub fn body(&self, resp: &Response) -> &[u8] {
        &self.buf[resp.body_start..]
    }
}

/// One request on a fresh connection; returns status and body.
pub fn fetch(addr: SocketAddr, req: &Request) -> Result<(u16, Vec<u8>), Failure> {
    let mut client = Client::new(addr);
    let resp = client.send(req)?;
    Ok((resp.status, client.body(&resp).to_vec()))
}
