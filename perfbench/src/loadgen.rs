//! Closed-loop HTTP/1.1 load generator on raw `std::net`.
//!
//! Each request is written with one `write_all` on a `TCP_NODELAY`
//! socket, so the client adds no Nagle delay of its own. Keep-alive is
//! honoured: the connection is reused until the server answers
//! `Connection: close`, and the reconnect that follows is charged to the
//! request that needs it (its timer starts before `connect`).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Timing of one request, all in seconds from the moment the request
/// started (before a reconnect, if one was needed).
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Time spent in `connect` (0 on a reused connection).
    pub connect: f64,
    /// Until the first response byte arrived.
    pub first_byte: f64,
    /// Until the last response byte arrived: the request's latency.
    pub last_byte: f64,
    /// Whether this request opened a new connection.
    pub reconnected: bool,
}

#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
    pub timing: Timing,
}

/// One client connection that reconnects on demand.
pub struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
}

const IO_TIMEOUT: Duration = Duration::from_secs(30);

impl Client {
    pub fn new(addr: SocketAddr) -> Self {
        Client {
            addr,
            stream: None,
            buf: Vec::with_capacity(64 * 1024),
        }
    }

    /// Sends one request and reads the whole response.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> io::Result<Response> {
        let mut req = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\n",
            self.addr,
            body.len()
        );
        for (k, v) in headers {
            req.push_str(&format!("{k}: {v}\r\n"));
        }
        req.push_str("\r\n");
        let mut bytes = req.into_bytes();
        bytes.extend_from_slice(body);

        let started = Instant::now();
        let reconnected = self.stream.is_none();
        if reconnected {
            let s = TcpStream::connect(self.addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(IO_TIMEOUT))?;
            s.set_write_timeout(Some(IO_TIMEOUT))?;
            self.stream = Some(s);
        }
        let connect = started.elapsed().as_secs_f64();
        let result = self.exchange(&bytes, started);
        match result {
            Ok((status, body, first_byte, close)) => {
                let last_byte = started.elapsed().as_secs_f64();
                if close {
                    self.stream = None;
                }
                Ok(Response {
                    status,
                    body,
                    timing: Timing {
                        connect,
                        first_byte,
                        last_byte,
                        reconnected,
                    },
                })
            }
            Err(e) => {
                self.stream = None;
                Err(e)
            }
        }
    }

    /// Writes the request and reads one response: `(status, body,
    /// first-byte seconds, server closes)`.
    fn exchange(
        &mut self,
        request: &[u8],
        started: Instant,
    ) -> io::Result<(u16, Vec<u8>, f64, bool)> {
        let stream = self.stream.as_mut().expect("connected above");
        stream.write_all(request)?;
        self.buf.clear();
        let mut chunk = [0u8; 16 * 1024];
        let mut first_byte = None;
        let header_end = loop {
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed before the response headers",
                ));
            }
            first_byte.get_or_insert_with(|| started.elapsed().as_secs_f64());
            self.buf.extend_from_slice(&chunk[..n]);
            if let Some(pos) = find(&self.buf, b"\r\n\r\n") {
                break pos + 4;
            }
        };
        let head = std::str::from_utf8(&self.buf[..header_end])
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 headers"))?;
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let mut content_length = None;
        let mut close = false;
        for line in head.lines().skip(1) {
            if let Some((k, v)) = line.split_once(':') {
                let (k, v) = (k.trim().to_ascii_lowercase(), v.trim());
                if k == "content-length" {
                    content_length = v.parse::<usize>().ok();
                } else if k == "connection" {
                    close = v.eq_ignore_ascii_case("close");
                }
            }
        }
        let len = content_length.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                "response without Content-Length",
            )
        })?;
        while self.buf.len() < header_end + len {
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed inside the response body",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let body = self.buf[header_end..header_end + len].to_vec();
        let first_byte = first_byte.expect("at least one read succeeded");
        Ok((status, body, first_byte, close))
    }
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// The load generator's own floor: median microseconds of a keep-alive
/// round trip against an in-process loopback responder that answers every
/// request with one write. Any server latency near this number is the
/// client's, not the server's.
pub fn floor_us(rounds: usize) -> io::Result<f64> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let responder = std::thread::spawn(move || -> io::Result<()> {
        let (mut s, _) = listener.accept()?;
        s.set_nodelay(true)?;
        let reply = b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 3\r\nConnection: keep-alive\r\n\r\nok\n";
        let mut buf = Vec::new();
        let mut chunk = [0u8; 4096];
        loop {
            let n = s.read(&mut chunk)?;
            if n == 0 {
                return Ok(());
            }
            buf.extend_from_slice(&chunk[..n]);
            while let Some(pos) = find(&buf, b"\r\n\r\n") {
                buf.drain(..pos + 4);
                s.write_all(reply)?;
            }
        }
    });
    let mut samples = Vec::with_capacity(rounds);
    {
        let mut client = Client::new(addr);
        for _ in 0..rounds {
            let r = client.request("GET", "/healthz", &[], b"")?;
            samples.push(r.timing.last_byte * 1e6);
        }
    }
    responder
        .join()
        .map_err(|_| io::Error::other("loopback responder panicked"))??;
    Ok(crate::stats::median(&samples))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_is_measured_and_small() {
        let us = floor_us(50).expect("loopback works");
        assert!(us > 0.0 && us < 20_000.0, "floor {us} us");
    }

    #[test]
    fn honours_connection_close() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            // Two connections, one request each, each answered with close.
            for _ in 0..2 {
                let (mut s, _) = listener.accept().unwrap();
                let mut buf = [0u8; 1024];
                let _ = s.read(&mut buf).unwrap();
                s.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nhi")
                    .unwrap();
            }
        });
        let mut c = Client::new(addr);
        let a = c.request("GET", "/", &[], b"").unwrap();
        let b = c.request("GET", "/", &[], b"").unwrap();
        server.join().unwrap();
        assert_eq!(a.body, b"hi");
        assert!(a.timing.reconnected && b.timing.reconnected);
        assert!(b.timing.connect <= b.timing.last_byte);
    }
}
