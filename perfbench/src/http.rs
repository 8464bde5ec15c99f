//! Minimal blocking HTTP/1.1 client. The server answers every request
//! with `Connection: close`, so one TCP stream carries one exchange.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A parsed response.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Status code.
    pub status: u16,
    /// Headers, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Reply {
    /// First header named `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Body as text (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Send one request and read the whole response.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> Result<Reply, String> {
    let io = |what: &str, e: std::io::Error| format!("{method} {path}: {what}: {e}");
    let mut stream = TcpStream::connect(addr).map_err(|e| io("connect", e))?;
    let timeout = Some(Duration::from_secs(60));
    stream
        .set_read_timeout(timeout)
        .map_err(|e| io("timeout", e))?;
    stream
        .set_write_timeout(timeout)
        .map_err(|e| io("timeout", e))?;
    let _ = stream.set_nodelay(true);
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: perfbench\r\n");
    for (name, value) in headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
    stream
        .write_all(head.as_bytes())
        .map_err(|e| io("write", e))?;
    stream.write_all(body).map_err(|e| io("write", e))?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(|e| io("read", e))?;
    parse(&raw).ok_or_else(|| format!("{method} {path}: malformed response"))
}

/// `GET path`.
pub fn get(addr: SocketAddr, path: &str) -> Result<Reply, String> {
    request(addr, "GET", path, &[], b"")
}

fn parse(raw: &[u8]) -> Option<Reply> {
    let end = raw.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&raw[..end]).ok()?;
    let mut lines = head.split("\r\n");
    let status = lines.next()?.split(' ').nth(1)?.parse().ok()?;
    let headers = lines
        .filter_map(|line| line.split_once(':'))
        .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    Some(Reply {
        status,
        headers,
        body: raw[end + 4..].to_vec(),
    })
}
