//! A minimal HTTP/1.1 keep-alive client over loopback TCP.
//!
//! The benchmark carries its own client rather than the daemon crate's, so
//! a change to the program under test cannot change how it is measured.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One answer.
#[derive(Debug, Clone, Default)]
pub struct Reply {
    /// Status code.
    pub status: u16,
    /// Lower-cased header names with their values.
    pub headers: Vec<(String, String)>,
    /// The body.
    pub body: Vec<u8>,
}

impl Reply {
    /// First value of header `name` (lower case).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// Whether the status is 2xx.
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

/// A keep-alive connection that reconnects after the server closes it.
pub struct Conn {
    addr: SocketAddr,
    timeout: Duration,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
}

impl Conn {
    /// A connection to `addr`; every read and write gives up after `timeout`.
    pub fn new(addr: SocketAddr, timeout: Duration) -> Conn {
        Conn { addr, timeout, stream: None, buf: Vec::with_capacity(16 * 1024) }
    }

    fn stream(&mut self) -> io::Result<&mut TcpStream> {
        if self.stream.is_none() {
            let s = TcpStream::connect_timeout(&self.addr, self.timeout)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(self.timeout))?;
            s.set_write_timeout(Some(self.timeout))?;
            self.stream = Some(s);
        }
        self.stream.as_mut().ok_or_else(|| io::Error::other("no stream"))
    }

    /// Sends one request and reads its answer. Any I/O error (timeouts
    /// included) drops the connection so the next call reconnects.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Reply> {
        let out = self.exchange(method, path, body);
        match &out {
            Ok(r) if r.header("connection") == Some("close") => self.stream = None,
            Ok(_) => {}
            Err(_) => self.stream = None,
        }
        out
    }

    fn exchange(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Reply> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: localhost\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        let mut buf = std::mem::take(&mut self.buf);
        let result = (|| {
            let s = self.stream()?;
            s.write_all(head.as_bytes())?;
            s.write_all(body)?;
            read_reply(s, &mut buf)
        })();
        self.buf = buf;
        result
    }
}

/// Reads one `Content-Length` framed response, reusing `buf`.
fn read_reply(s: &mut TcpStream, buf: &mut Vec<u8>) -> io::Result<Reply> {
    buf.clear();
    let mut chunk = [0u8; 16 * 1024];
    let head_end = loop {
        if let Some(i) = find(buf, b"\r\n\r\n") {
            break i + 4;
        }
        let n = s.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "closed before headers"));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 headers"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    let len: usize = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .and_then(|(_, v)| v.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no content-length"))?;
    let mut body = buf[head_end..].to_vec();
    while body.len() < len {
        let n = s.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "closed mid-body"));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(len);
    Ok(Reply { status, headers, body })
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// One request on a fresh connection.
pub fn once(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> io::Result<Reply> {
    Conn::new(addr, Duration::from_secs(10)).request(method, path, body)
}
