//! Processes under test: spawn, wait until healthy, kill, reap.
//!
//! A server's peak resident set size is its `VmHWM`, read from
//! `/proc/<pid>/status` just before it is killed.

use crate::loadgen::Client;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// `VmHWM` of a live process, in MiB.
fn peak_rss_mb(pid: u32) -> io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
}

/// A running `itdb serve`.
pub struct Server {
    child: Option<Child>,
    pub addr: SocketAddr,
    drain: Option<JoinHandle<()>>,
}

/// A loopback port that was free a moment ago.
fn free_port() -> io::Result<SocketAddr> {
    TcpListener::bind("127.0.0.1:0")?.local_addr()
}

/// Attempts at a fresh port when the server exits early, as it does when
/// it cannot bind the port it got.
const BIND_ATTEMPTS: usize = 3;

impl Server {
    /// Spawns `itdb serve --addr 127.0.0.1:<free port> <flags> <workload>`
    /// and waits until `/healthz` answers 200. Returns the server and the
    /// seconds from spawn to healthy.
    ///
    /// The client connects as soon as the port listens (the server binds
    /// before it boots), so the request is already queued when the
    /// server's accept loop first polls. A client that connected later
    /// would also wait out the accept loop's poll interval, by a phase
    /// that varies from spawn to spawn.
    pub fn start(itdb: &Path, flags: &[String], workload: &Path) -> io::Result<(Server, f64)> {
        let mut last = None;
        for _ in 0..BIND_ATTEMPTS {
            match Self::start_on(free_port()?, itdb, flags, workload) {
                Ok(started) => return Ok(started),
                Err(e) if e.kind() == io::ErrorKind::TimedOut => return Err(e),
                Err(e) => last = Some(e),
            }
        }
        Err(last.expect("at least one attempt"))
    }

    fn start_on(
        addr: SocketAddr,
        itdb: &Path,
        flags: &[String],
        workload: &Path,
    ) -> io::Result<(Server, f64)> {
        let started = Instant::now();
        let mut child = Command::new(itdb)
            .arg("serve")
            .arg("--addr")
            .arg(addr.to_string())
            .args(flags)
            .arg(workload)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        // Keep the pipe drained so the server never blocks on stdout.
        let mut stdout = child.stdout.take().expect("stdout is piped");
        let drain = std::thread::spawn(move || {
            let _ = io::copy(&mut stdout, &mut io::sink());
        });
        let mut server = Server {
            child: Some(child),
            addr,
            drain: Some(drain),
        };
        let mut client = Client::new(addr);
        loop {
            if matches!(client.request("GET", "/healthz", &[], b""), Ok(r) if r.status == 200) {
                break;
            }
            let child = server.child.as_mut().expect("server is running");
            if child.try_wait()?.is_some() {
                server.kill()?;
                return Err(io::Error::other(format!(
                    "itdb serve exited before answering on {addr}"
                )));
            }
            if started.elapsed() > Duration::from_secs(60) {
                server.kill()?;
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "itdb serve never became healthy",
                ));
            }
            std::thread::yield_now();
        }
        Ok((server, started.elapsed().as_secs_f64()))
    }

    /// SIGKILLs the server and reaps it. Returns its peak RSS in MiB.
    pub fn kill(&mut self) -> io::Result<f64> {
        let mut child = self.child.take().expect("server is running");
        let rss = peak_rss_mb(child.id()).unwrap_or(f64::NAN);
        // A server that already exited cannot be signalled; reap it anyway.
        let _ = child.kill();
        child.wait()?;
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
        Ok(rss)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.child.is_some() {
            let _ = self.kill();
        }
    }
}

/// Runs `itdb-shell [FLAGS] SCRIPT` to completion: `(stdout, wall seconds,
/// exited 0)`.
pub fn run_shell(shell: &Path, flags: &[&str], script: &Path) -> io::Result<(String, f64, bool)> {
    let started = Instant::now();
    let mut child = Command::new(shell)
        .args(flags)
        .arg(script)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()?;
    let mut out = String::new();
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_string(&mut out);
    let status = child.wait()?;
    read?;
    Ok((out, started.elapsed().as_secs_f64(), status.success()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_own_peak_rss() {
        let mb = peak_rss_mb(std::process::id()).expect("VmHWM is readable");
        assert!(mb > 0.0 && mb < 64.0 * 1024.0, "{mb} MiB");
    }
}
