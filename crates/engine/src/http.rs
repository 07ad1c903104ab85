//! Hand-rolled HTTP/1.1 over `std::net` — just enough protocol for the
//! `kremlin serve` daemon, honoring the workspace's zero-dependency
//! policy (no tokio, no hyper).
//!
//! Supported: request line + headers + `Content-Length` bodies, and
//! plain (`Connection: close`) responses. Deliberately not supported:
//! chunked transfer encoding, keep-alive, TLS. Requests that exceed the
//! header or body caps are rejected before buffering them.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Maximum bytes of request line + headers.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Maximum request body (a `.ktrace` upload is ~2.5 bytes per recorded
/// event, so this admits traces of ~26M events).
pub const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;
/// Per-connection socket read timeout.
pub const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    /// Method verb, uppercased by the client (`GET`, `POST`, ...).
    pub method: String,
    /// Request target, e.g. `/v1/profile`.
    pub path: String,
    /// Header name/value pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// Raw body (`Content-Length` bytes).
    pub body: Vec<u8>,
}

impl Request {
    /// First header with the given lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }
}

/// A malformed or oversized request, with the HTTP status to answer.
#[derive(Debug)]
pub struct HttpError {
    /// Status code to respond with (400, 413, 431, ...).
    pub status: u16,
    /// Human-readable reason, sent in the error body.
    pub message: String,
}

impl HttpError {
    fn new(status: u16, message: impl Into<String>) -> Self {
        HttpError { status, message: message.into() }
    }
}

/// Reads and parses one request from `stream`.
///
/// # Errors
///
/// [`HttpError`] with the status to send back: 400 for malformed
/// requests, 408 for socket timeouts, 411 when a body-bearing method
/// lacks `Content-Length`, 413/431 for oversized bodies/headers.
pub fn read_request(stream: &mut TcpStream) -> Result<Request, HttpError> {
    stream
        .set_read_timeout(Some(READ_TIMEOUT))
        .map_err(|e| HttpError::new(500, format!("set_read_timeout: {e}")))?;

    // Accumulate until the blank line that ends the head.
    let mut buf = Vec::with_capacity(1024);
    let head_len = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() >= MAX_HEAD_BYTES {
            return Err(HttpError::new(431, "request head too large"));
        }
        let mut chunk = [0u8; 1024];
        let n = stream.read(&mut chunk).map_err(map_read_err)?;
        if n == 0 {
            return Err(HttpError::new(400, "connection closed mid-request"));
        }
        buf.extend_from_slice(&chunk[..n]);
    };

    let head = std::str::from_utf8(&buf[..head_len])
        .map_err(|_| HttpError::new(400, "request head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) if !m.is_empty() && p.starts_with('/') => (m, p, v),
        _ => return Err(HttpError::new(400, format!("bad request line {request_line:?}"))),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::new(400, format!("unsupported version {version:?}")));
    }

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::new(400, format!("bad header line {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let request =
        Request { method: method.to_string(), path: path.to_string(), headers, body: Vec::new() };

    if request.header("transfer-encoding").is_some() {
        return Err(HttpError::new(400, "chunked transfer encoding not supported"));
    }
    let content_length = match request.header("content-length") {
        Some(v) => v.parse::<usize>().map_err(|_| HttpError::new(400, "bad Content-Length"))?,
        None if request.method == "POST" || request.method == "PUT" => {
            return Err(HttpError::new(411, "Content-Length required"));
        }
        None => 0,
    };
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::new(413, format!("body exceeds {MAX_BODY_BYTES} bytes")));
    }

    // Body bytes already read past the head, then the remainder.
    let mut body = buf[head_len + 4..].to_vec();
    if body.len() > content_length {
        return Err(HttpError::new(400, "body longer than Content-Length"));
    }
    let mut remaining = content_length - body.len();
    while remaining > 0 {
        let mut chunk = vec![0u8; remaining.min(64 * 1024)];
        let n = stream.read(&mut chunk).map_err(map_read_err)?;
        if n == 0 {
            return Err(HttpError::new(400, "connection closed mid-body"));
        }
        body.extend_from_slice(&chunk[..n]);
        remaining -= n;
    }
    Ok(Request { body, ..request })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn map_read_err(e: io::Error) -> HttpError {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => {
            HttpError::new(408, "request read timed out")
        }
        _ => HttpError::new(400, format!("read error: {e}")),
    }
}

/// Writes one `Connection: close` response.
///
/// # Errors
///
/// Propagates socket write failures (the connection is simply dropped).
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &[u8],
    extra_headers: &[(&str, &str)],
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        reason(status),
        body.len(),
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// Canonical reason phrase for the status codes the daemon emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        411 => "Length Required",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::thread;

    fn roundtrip(raw: &[u8]) -> Result<Request, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let client = thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&raw).unwrap();
        });
        let (mut server, _) = listener.accept().unwrap();
        let req = read_request(&mut server);
        client.join().unwrap();
        req
    }

    #[test]
    fn parses_post_with_body() {
        let req =
            roundtrip(b"POST /v1/profile HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello")
                .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/profile");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn get_without_length_is_fine() {
        let req = roundtrip(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert!(req.body.is_empty());
    }

    #[test]
    fn post_without_length_is_411() {
        let e = roundtrip(b"POST /v1/profile HTTP/1.1\r\n\r\n").unwrap_err();
        assert_eq!(e.status, 411);
    }

    #[test]
    fn oversized_declared_body_is_413() {
        let huge = format!("POST /v1/trace HTTP/1.1\r\nContent-Length: {}\r\n\r\n", usize::MAX / 2);
        let e = roundtrip(huge.as_bytes()).unwrap_err();
        assert_eq!(e.status, 413);
    }

    #[test]
    fn garbage_request_line_is_400() {
        let e = roundtrip(b"nonsense\r\n\r\n").unwrap_err();
        assert_eq!(e.status, 400);
    }
}
