//! Byte-exact log lines of `itdb serve`: the JSONL access-log line and
//! the slow-query record (both on stdout when no `--slow-log` file is
//! given). Fields that carry a live clock reading are masked to `0`;
//! everything else — field order, escaping, the evaluation stats and the
//! span profile of the query — is pinned.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};

/// Kills the server when the test ends, whichever way it ends.
struct Serve(Child);

impl Drop for Serve {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Replaces the digits after each `"key":` with `0`, and sorts the
/// entries of a trailing `"profile"` array (its order follows measured
/// self time).
fn mask(line: &str, keys: &[&str]) -> String {
    let mut line = line.to_string();
    for key in keys {
        let needle = format!("\"{key}\":");
        let mut out = String::new();
        let mut rest = line.as_str();
        while let Some(at) = rest.find(&needle) {
            let end = at + needle.len();
            out.push_str(&rest[..end]);
            out.push('0');
            rest = rest[end..].trim_start_matches(|c: char| c.is_ascii_digit());
        }
        out.push_str(rest);
        line = out;
    }
    if let Some(at) = line.find(",\"profile\":[{") {
        let head = at + ",\"profile\":[{".len();
        let tail = line.len() - "}]}".len();
        let mut entries: Vec<&str> = line[head..tail].split("},{").collect();
        entries.sort_unstable();
        line = format!("{}{}{}", &line[..head], entries.join("},{"), &line[tail..]);
    }
    line
}

fn request(addr: &str, raw: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(raw.as_bytes()).unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    out
}

#[test]
fn access_and_slow_query_lines_are_byte_stable() {
    let dir = std::env::temp_dir().join(format!("itdb_log_golden_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let workload = dir.join("w.itdb");
    std::fs::write(
        &workload,
        "tuple e (4n) : T1 >= 0\nrule p[t + 2] <- e[t].\n",
    )
    .unwrap();
    let child = Command::new(env!("CARGO_BIN_EXE_itdb"))
        .args(["serve", "--addr", "127.0.0.1:0", "--slow-query-ms", "0"])
        .arg(&workload)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut serve = Serve(child);
    let mut lines = BufReader::new(serve.0.stdout.take().unwrap()).lines();
    let banner = lines.next().unwrap().unwrap();
    let addr = banner
        .split("http://")
        .nth(1)
        .expect("banner names the address")
        .trim()
        .to_string();

    let body = "p[t]";
    let resp = request(
        &addr,
        &format!(
            "POST /query HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\
             X-Itdb-Request-Id: log-\"q\"\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    );
    assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
    let resp = request(
        &addr,
        "GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\nX-Itdb-Request-Id: h-1\r\n\r\n",
    );
    assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");

    let mut logged = Vec::new();
    for line in lines.by_ref() {
        let line = line.unwrap();
        if line.starts_with("{\"log\":") {
            let done = line.contains("\"request_id\":\"h-1\"");
            logged.push(mask(
                &line,
                &["elapsed_us", "total_us", "self_us", "elapsed_ms"],
            ));
            if done {
                break;
            }
        }
    }
    drop(serve);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        logged,
        [
            "{\"log\":\"slow_query\",\"request_id\":\"log-\\\"q\\\"\",\"pattern\":\"p[t]\",\
             \"status\":\"complete\",\"elapsed_us\":0,\"governor\":{\"iterations\":2,\"derived\":1,\
             \"held\":1,\"checks\":6,\"elapsed_ms\":0},\"stats\":{\"tuples_derived\":1,\
             \"tuples_inserted\":1,\"tuples_subsumed\":0,\"counters\":{\"subsumption_checks\":1,\
             \"index_candidates\":0,\"index_scanned_naive\":0,\"canonical_cache_hits\":0,\
             \"canonical_cache_misses\":1,\"empty_cache_hits\":0,\"empty_cache_misses\":1,\
             \"canonicalize_calls\":3},\"strata\":[{\"preds\":[\"p\"],\"iterations\":2,\
             \"inserted\":1,\"elapsed_us\":0}],\"elapsed_us\":0},\"profile\":[\
             {\"kind\":\"evaluate\",\"label\":\"evaluate\",\"count\":1,\"total_us\":0,\"self_us\":0},\
             {\"kind\":\"iteration\",\"label\":\"iteration 1\",\"count\":1,\"total_us\":0,\"self_us\":0},\
             {\"kind\":\"iteration\",\"label\":\"iteration 2\",\"count\":1,\"total_us\":0,\"self_us\":0},\
             {\"kind\":\"op\",\"label\":\"query.lookup\",\"count\":1,\"total_us\":0,\"self_us\":0},\
             {\"kind\":\"rule\",\"label\":\"r0: p[t + 2] <- e[t].\",\"count\":2,\"total_us\":0,\"self_us\":0},\
             {\"kind\":\"stratum\",\"label\":\"stratum 0\",\"count\":1,\"total_us\":0,\"self_us\":0}]}",
            "{\"log\":\"access\",\"request_id\":\"log-\\\"q\\\"\",\"method\":\"POST\",\
             \"route\":\"/query\",\"status\":200,\"elapsed_us\":0}",
            "{\"log\":\"access\",\"request_id\":\"h-1\",\"method\":\"GET\",\
             \"route\":\"/healthz\",\"status\":200,\"elapsed_us\":0}",
        ]
    );
}
