//! A minimal HTTP/1.1 client for the `kremlin serve` daemon: one request
//! per connection, body read to EOF (the daemon always closes).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A response: status code and body.
#[derive(Debug)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: Vec<u8>,
}

/// Sends `POST path` with `body` and extra `headers`, and reads the reply.
///
/// # Errors
///
/// Socket failures and unparseable responses.
pub fn post(
    addr: SocketAddr,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> io::Result<Reply> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(120)))?;
    stream.set_nodelay(true)?;
    let mut head = format!("POST {path} HTTP/1.1\r\nHost: localhost\r\n");
    for (name, value) in headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str(&format!("Content-Length: {}\r\nConnection: close\r\n\r\n", body.len()));
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let split =
        raw.windows(4).position(|w| w == b"\r\n\r\n").ok_or_else(|| bad("no header end"))?;
    let status = std::str::from_utf8(&raw[..split])
        .ok()
        .and_then(|h| h.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("no status code"))?;
    Ok(Reply { status, body: raw[split + 4..].to_vec() })
}
