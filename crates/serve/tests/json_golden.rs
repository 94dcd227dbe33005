//! Byte-exact JSON bodies over real sockets: the `/facts` acknowledgement
//! (with a WAL sequence number and with `seq: null` for a deduplicated
//! retry) and the `{"error":…}` body of typed rejections. These pin the
//! wire format every client parses, independently of how the server
//! builds it.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use itdb_core::{parse_workload, CancelToken};
use itdb_serve::{IngestConfig, ServeConfig, Server};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::thread;

const WORKLOAD: &str = "\
    tuple course (168n+8, 168n+10; database) : T2 = T1 + 2\n\
    rule problems[t1 + 2, t2 + 2](C) <- course[t1, t2](C).\n";

struct TestServer {
    addr: SocketAddr,
    shutdown: CancelToken,
    handle: Option<thread::JoinHandle<std::io::Result<()>>>,
}

impl TestServer {
    fn start(config: ServeConfig) -> TestServer {
        let workload = parse_workload(WORKLOAD).unwrap();
        let server = Server::bind("127.0.0.1:0", workload, config).unwrap();
        let addr = server.local_addr();
        let shutdown = CancelToken::new();
        let token = shutdown.clone();
        let handle = thread::spawn(move || server.run(&token));
        TestServer {
            addr,
            shutdown,
            handle: Some(handle),
        }
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        self.shutdown.cancel();
        if let Some(h) = self.handle.take() {
            h.join().unwrap().unwrap();
        }
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("itdb_json_golden_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One exchange; returns `(status, body)`.
fn exchange(addr: SocketAddr, request: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    let mut reader = BufReader::new(stream);
    let mut head = String::new();
    loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line).unwrap();
        assert!(n > 0, "connection closed mid-headers: {head:?}");
        head.push_str(&line);
        if line == "\r\n" {
            break;
        }
    }
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap();
    let len: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap();
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body).unwrap();
    (status, String::from_utf8(body).unwrap())
}

fn post(addr: SocketAddr, path: &str, request_id: &str, body: &str) -> (u16, String) {
    exchange(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\
             X-Itdb-Request-Id: {request_id}\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

const NEW_COURSE: &str =
    r#"{"facts":[{"pred":"course","tuple":"(168n+30, 168n+32; compilers) : T2 = T1 + 2"}]}"#;

#[test]
fn facts_ack_is_byte_stable_with_seq_and_with_null_seq() {
    let dir = temp_dir("facts");
    let ts = TestServer::start(ServeConfig {
        ingest: Some(IngestConfig::new(&dir)),
        ..ServeConfig::default()
    });
    let (status, body) = post(ts.addr, "/facts", "ack-\"1\"", NEW_COURSE);
    assert_eq!(status, 202, "{body}");
    assert_eq!(
        body,
        "{\"status\":\"accepted\",\"applied\":1,\"duplicates\":0,\"retracted\":0,\
         \"duplicate_request\":false,\"seq\":1,\"request_id\":\"ack-\\\"1\\\"\"}"
    );
    // A retry under the same id logs nothing: `seq` is null, not 0.
    let (status, body) = post(ts.addr, "/facts", "ack-\"1\"", NEW_COURSE);
    assert_eq!(status, 202, "{body}");
    assert_eq!(
        body,
        "{\"status\":\"accepted\",\"applied\":1,\"duplicates\":0,\"retracted\":0,\
         \"duplicate_request\":true,\"seq\":null,\"request_id\":\"ack-\\\"1\\\"\"}"
    );
    drop(ts);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn error_bodies_are_byte_stable() {
    let plain = TestServer::start(ServeConfig::default());
    assert_eq!(
        post(plain.addr, "/facts", "e-1", NEW_COURSE),
        (
            404,
            "{\"error\":\"streaming ingestion is not enabled (start with --wal DIR)\"}".into()
        )
    );
    assert_eq!(
        post(plain.addr, "/query", "e-2", "nope[t]"),
        (
            422,
            "{\"error\":\"evaluation error: unknown predicate `nope` (neither derived nor extensional)\"}".into()
        )
    );
    drop(plain);

    let dir = temp_dir("errors");
    let ingest = TestServer::start(ServeConfig {
        ingest: Some(IngestConfig::new(&dir)),
        ..ServeConfig::default()
    });
    // Quotes and a non-ASCII ellipsis in the message: escaped and passed
    // through as UTF-8 respectively.
    assert_eq!(
        post(ingest.addr, "/facts", "e-3", ""),
        (
            400,
            "{\"error\":\"empty or non-UTF-8 body: POST \
             {\\\"facts\\\":[{\\\"pred\\\":…,\\\"tuple\\\":…}]}\"}"
                .into()
        )
    );
    drop(ingest);
    let _ = std::fs::remove_dir_all(&dir);
}
