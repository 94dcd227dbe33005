//! The untraced end-to-end runs: the real `itdb` / `itdb-shell` binaries,
//! driven from outside over the generated inputs, every answer checked.

use crate::check;
use crate::gen::{self, IngestOp};
use crate::loadgen::{Client, Timing};
use crate::proc::{self, Server};
use crate::stats::{median, summarize};
use crate::{complain, Env, Metric, Outcome, SetupBatch};
use itdb_core::{parse_workload, EvalOptions, Op, ResidentModel};
use itdb_serve::ingest::parse_facts_body;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-up samples are taken in this many batches spread evenly over the
/// run, so a slow phase of the machine touches few of them.
const SETUP_BATCHES: usize = 8;
/// Set-ups per batch; `setup_s` comes from the batch minima.
const SETUP_PER_BATCH: usize = 6;
/// Rounds of the CPU probe: about 1 ms on the VM the benchmark was sized on.
const PROBE_ROUNDS: u64 = 500_000;
/// `itdb-shell` runs after the `query_eval` load; `eval_s` is their median.
const SHELL_RUNS: usize = 15;
/// Keep-alive connections (and threads) driving `query_eval`: at most the
/// 2 cores the benchmark is sized for.
const QUERY_CONNECTIONS: usize = 2;
/// Writes per `ingest_online` round: one checkpoint (and WAL compaction)
/// at the default `checkpoint_every` of 256, then a 44-record tail the
/// restart must replay from the log.
pub const INGEST_WRITES: usize = 300;
/// Restarts after each SIGKILL; `recovery_s` is their median.
const RESTARTS: usize = 3;

/// Server flags every serve workload passes (recorded in the output).
pub fn query_flags() -> Vec<String> {
    vec!["--no-access-log".into()]
}

pub fn ingest_flags(wal: &Path) -> Vec<String> {
    vec![
        "--no-access-log".into(),
        "--wal".into(),
        wal.display().to_string(),
        "--wal-fsync".into(),
        "always".into(),
    ]
}

/// Writes a run's samples (in the order taken) next to its inputs, for
/// offline analysis: `<what>-<seed>.txt`.
fn dump_samples(env: &Env, what: &str, samples: &[f64]) -> std::io::Result<()> {
    let text: String = samples.iter().map(|v| format!("{v}\n")).collect();
    std::fs::write(env.dir.join(format!("{what}-{}.txt", env.seed)), text)
}

/// Writes a run's set-ups and CPU probes, one `setup probe` pair of
/// seconds per line in the order taken: `setup-<seed>.txt`.
fn dump_setup(env: &Env, batches: &[SetupBatch]) -> std::io::Result<()> {
    let text: String = batches
        .iter()
        .flat_map(|b| b.setup_s.iter().zip(&b.probe_s))
        .map(|(s, p)| format!("{s} {p}\n"))
        .collect();
    std::fs::write(env.dir.join(format!("setup-{}.txt", env.seed)), text)
}

fn query_headers(id: &str) -> [(&str, &str); 1] {
    [("X-Itdb-Request-Id", id)]
}

/// One checked request: its timing, if a response arrived, and whether
/// the answer was right. A wrong answer or a failed request is described
/// on stderr.
pub struct Checked {
    pub timing: Option<Timing>,
    pub ok: bool,
}

/// Sends `POST /query` for `pattern` and checks the answer against `want`.
pub fn checked_query(client: &mut Client, id: &str, pattern: &str, want: &str) -> Checked {
    match client.request("POST", "/query", &query_headers(id), pattern.as_bytes()) {
        Ok(r) => {
            let body = String::from_utf8_lossy(&r.body);
            let ok = r.status == 200 && check::same_answer(check::answer_prefix(&body), want);
            if !ok {
                complain(&format!(
                    "query {id} `{pattern}`: status {}, got {body}, want {want}",
                    r.status
                ));
            }
            Checked {
                timing: Some(r.timing),
                ok,
            }
        }
        Err(e) => {
            complain(&format!("query {id} `{pattern}`: {e}"));
            Checked {
                timing: None,
                ok: false,
            }
        }
    }
}

/// Sends one op of the `ingest_online` stream: a `/facts` write, whose
/// acknowledgement must report the batch applied, or a `/query` read,
/// whose answer must be `want`.
pub fn checked_ingest_op(
    client: &mut Client,
    id: &str,
    op: &IngestOp,
    want: Option<&str>,
) -> Checked {
    let retract = match op {
        IngestOp::Read(pattern) => {
            return checked_query(client, id, pattern, want.expect("a read has an answer"))
        }
        IngestOp::Write { retract, .. } => retract,
    };
    let body = op.facts_body().expect("a write");
    match client.request("POST", "/facts", &query_headers(id), body.as_bytes()) {
        Ok(r) => {
            let ack = String::from_utf8_lossy(&r.body);
            let want_retracted = u8::from(retract.is_some());
            let ok = r.status == 202
                && ack.contains("\"applied\":1,")
                && ack.contains(&format!("\"retracted\":{want_retracted},"));
            if !ok {
                complain(&format!("write {id} {body}: status {}, {ack}", r.status));
            }
            Checked {
                timing: Some(r.timing),
                ok,
            }
        }
        Err(e) => {
            complain(&format!("write {id}: {e}"));
            Checked {
                timing: None,
                ok: false,
            }
        }
    }
}

/// Seconds of a fixed integer loop: the machine's CPU speed right now.
fn cpu_probe() -> f64 {
    let t = Instant::now();
    let mut x = std::hint::black_box(0x9e37_79b9_7f4a_7c15_u64);
    for _ in 0..PROBE_ROUNDS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        x ^= x >> 33;
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64()
}

/// Set-up time samples: spawn to first healthy `/healthz` of a server that
/// is killed right after, beside the one under load. With a WAL, each
/// set-up boots on a fresh directory of its own.
struct Setup<'a> {
    env: &'a Env,
    path: &'a Path,
    wal: Option<PathBuf>,
    batches: Vec<SetupBatch>,
}

impl<'a> Setup<'a> {
    fn new(env: &'a Env, path: &'a Path, wal: Option<PathBuf>) -> Self {
        Setup {
            env,
            path,
            wal,
            batches: Vec::new(),
        }
    }

    /// Takes one batch of samples.
    fn batch(&mut self) -> std::io::Result<()> {
        let flags = match &self.wal {
            Some(w) => ingest_flags(w),
            None => query_flags(),
        };
        let mut batch = SetupBatch::default();
        for _ in 0..SETUP_PER_BATCH {
            if let Some(w) = &self.wal {
                let _ = std::fs::remove_dir_all(w);
            }
            batch.probe_s.push(cpu_probe());
            let (mut s, t) = Server::start(&self.env.itdb, &flags, self.path)?;
            s.kill()?;
            batch.setup_s.push(t);
        }
        self.batches.push(batch);
        Ok(())
    }
}

pub fn query_eval(env: &Env) -> std::io::Result<Outcome> {
    let text = gen::query_program(env.seed);
    let path = env.dir.join("query_eval.itdb");
    std::fs::write(&path, &text)?;
    let patterns = gen::query_patterns(env.seed);
    let workload = parse_workload(&text).expect("generated workload parses");
    let expected = check::expected_service_answers(&workload, &patterns);
    let flags = query_flags();

    let (mut server, _) = Server::start(&env.itdb, &flags, &path)?;
    let addr = server.addr;
    let mut clients: Vec<Client> = (0..QUERY_CONNECTIONS).map(|_| Client::new(addr)).collect();
    // Warm-up: one pass over the rotation, untimed and unchecked.
    for (i, p) in patterns.iter().enumerate() {
        clients[0].request(
            "POST",
            "/query",
            &query_headers(&format!("warm{i}")),
            p.as_bytes(),
        )?;
    }

    // The load runs in one segment per set-up batch; the server under load
    // idles while a batch is taken.
    let mut setup = Setup::new(env, &path, None);
    let (mut lat, mut attempted, mut failed) = (Vec::new(), 0u64, 0u64);
    let mut next = vec![0usize; QUERY_CONNECTIONS];
    let mut elapsed = 0.0;
    for segment in 0..SETUP_BATCHES {
        setup.batch()?;
        let started = Instant::now();
        let seconds = env.seconds / SETUP_BATCHES as f64;
        let per_thread: Vec<(Vec<f64>, u64, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .zip(&mut next)
                .enumerate()
                .map(|(c, (client, i))| {
                    let (patterns, expected) = (&patterns, &expected);
                    scope.spawn(move || {
                        let (mut lat, mut attempted, mut failed) = (Vec::new(), 0u64, 0u64);
                        while started.elapsed().as_secs_f64() < seconds {
                            // Each connection starts at its own offset in
                            // the rotation.
                            let k = (c * patterns.len() / QUERY_CONNECTIONS + *i) % patterns.len();
                            let id = format!("c{c}-s{segment}-{i}");
                            attempted += 1;
                            let r = checked_query(client, &id, &patterns[k], &expected[k]);
                            if let Some(t) = r.timing {
                                lat.push(t.last_byte * 1e3);
                            }
                            if !r.ok {
                                failed += 1;
                            }
                            *i += 1;
                        }
                        (lat, attempted, failed)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("load thread panicked"))
                .collect()
        });
        elapsed += started.elapsed().as_secs_f64();
        for (l, a, f) in per_thread {
            lat.extend(l);
            attempted += a;
            failed += f;
        }
    }
    drop(clients);
    let rss = server.kill()?;
    let ops_per_s = (attempted - failed) as f64 / elapsed;
    dump_samples(env, "latencies", &lat)?;
    dump_setup(env, &setup.batches)?;
    let q = summarize(&lat);
    // The same program through the shell, which coalesces (table only:
    // a CPU-bound wall time, see README "Why the shell is not a workload
    // of its own").
    let (eval, shell_failed) = shell_runs(env, SHELL_RUNS)?;
    let mut out = Outcome::new(attempted + SHELL_RUNS as u64, failed + shell_failed);
    out.push_setup(&setup.batches);
    out.push_latency("op", &q);
    out.push(Metric::new("ops_per_s", "1/s", ops_per_s, lat.len()));
    out.push(Metric::new("peak_rss_mb", "MB", rss, 1));
    out.report_latency("query", &q);
    out.report(Metric::new("eval_s", "s", median(&eval), eval.len()));
    out.flags = flags;
    Ok(out)
}

/// Expected answers for every read of the stream and the final model, from
/// a shadow model fed the writes through `apply_ops_full_reeval`.
pub struct IngestExpect {
    pub reads: Vec<Option<String>>,
    pub final_patterns: Vec<String>,
    pub final_answers: Vec<String>,
}

pub fn ingest_ops_of(op: &IngestOp) -> Vec<Op> {
    parse_facts_body(&op.facts_body().expect("a write")).expect("generated body parses")
}

pub fn ingest_eval_options() -> EvalOptions {
    itdb_serve::IngestConfig::new("unused").eval
}

pub fn ingest_expect(text: &str, ops: &[IngestOp]) -> IngestExpect {
    let workload = parse_workload(text).expect("generated workload parses");
    let mut shadow = ResidentModel::new(workload.program, workload.edb, ingest_eval_options())
        .expect("resident model builds");
    let mut reads = Vec::with_capacity(ops.len());
    for op in ops {
        match op {
            IngestOp::Write { .. } => {
                shadow
                    .apply_ops_full_reeval(&ingest_ops_of(op))
                    .expect("generated batch applies");
                reads.push(None);
            }
            IngestOp::Read(p) => reads.push(Some(check::resident_answer(&shadow, p))),
        }
    }
    let final_patterns: Vec<String> = ["ev[t](C)", "step[t](C)", "due[t1, t2](C)"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let final_answers = final_patterns
        .iter()
        .map(|p| check::resident_answer(&shadow, p))
        .collect();
    IngestExpect {
        reads,
        final_patterns,
        final_answers,
    }
}

/// Checks the restarted server answers exactly the final model: every
/// acknowledged assert present, every acknowledged retract absent.
fn durable(addr: std::net::SocketAddr, expect: &IngestExpect) -> bool {
    let mut client = Client::new(addr);
    expect
        .final_patterns
        .iter()
        .zip(&expect.final_answers)
        .enumerate()
        .all(|(i, (p, want))| checked_query(&mut client, &format!("after-restart-{i}"), p, want).ok)
}

pub fn ingest_online(env: &Env) -> std::io::Result<Outcome> {
    let text = gen::ingest_program(env.seed);
    let path = env.dir.join("ingest_online.itdb");
    std::fs::write(&path, &text)?;
    let ops = gen::ingest_ops(env.seed, INGEST_WRITES);
    let expect = ingest_expect(&text, &ops);
    let wal = env.dir.join("wal");
    let flags = ingest_flags(&wal);
    // Set-up batches are taken between chunks of the stream.
    let mut setup = Setup::new(env, &path, Some(env.dir.join("wal-setup")));
    let chunk = ops.len().div_ceil(SETUP_BATCHES);

    let (mut facts, mut reads, mut recovery, mut rss) = (vec![], vec![], vec![], vec![]);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let started = Instant::now();
    let mut load_s = 0.0;
    loop {
        let round_start = Instant::now();
        let _ = std::fs::remove_dir_all(&wal);
        let (mut server, _) = Server::start(&env.itdb, &flags, &path)?;
        let mut client = Client::new(server.addr);
        for (i, op) in ops.iter().enumerate() {
            if i % chunk == 0 {
                setup.batch()?;
            }
            let load_start = Instant::now();
            attempted += 1;
            let id = format!("s{}-op{i}", env.seed);
            let r = checked_ingest_op(&mut client, &id, op, expect.reads[i].as_deref());
            if let Some(t) = r.timing {
                match op {
                    IngestOp::Write { .. } => facts.push(t.last_byte * 1e3),
                    IngestOp::Read(_) => reads.push(t.last_byte * 1e3),
                }
            }
            if !r.ok {
                failed += 1;
            }
            load_s += load_start.elapsed().as_secs_f64();
        }
        drop(client);
        rss.push(server.kill()?);
        for _ in 0..RESTARTS {
            attempted += 1;
            let t0 = Instant::now();
            let (mut s, _) = Server::start(&env.itdb, &flags, &path)?;
            let ok = durable(s.addr, &expect);
            recovery.push(t0.elapsed().as_secs_f64());
            s.kill()?;
            if !ok {
                failed += 1;
            }
        }
        let round_s = round_start.elapsed().as_secs_f64();
        if started.elapsed().as_secs_f64() + round_s > env.seconds {
            break;
        }
    }
    let mut all = facts.clone();
    all.extend_from_slice(&reads);
    dump_samples(env, "latencies", &all)?;
    dump_setup(env, &setup.batches)?;
    let op = summarize(&all);
    let mut out = Outcome::new(attempted, failed);
    out.push_setup(&setup.batches);
    out.push_latency("op", &op);
    out.push(Metric::new(
        "ops_per_s",
        "1/s",
        all.len() as f64 / load_s,
        all.len(),
    ));
    out.push(Metric::new("peak_rss_mb", "MB", median(&rss), rss.len()));
    out.report_latency("query", &summarize(&reads));
    out.report_latency("facts", &summarize(&facts));
    out.report(Metric::new(
        "recovery_s",
        "s",
        median(&recovery),
        recovery.len(),
    ));
    out.flags = flags;
    Ok(out)
}

/// Runs the `itdb-shell` script over the `query_eval` program `runs` times,
/// checking each printed model against `evaluate_with`. Returns the wall
/// times in seconds and the number of failed runs.
fn shell_runs(env: &Env, runs: usize) -> std::io::Result<(Vec<f64>, u64)> {
    let script = env.dir.join("shell.itdb");
    std::fs::write(&script, gen::shell_script(env.seed))?;
    let expected = check::expected_shell_model(&gen::query_program(env.seed));
    let (mut wall, mut failed) = (Vec::new(), 0);
    for i in 0..runs {
        let (stdout, t, success) = proc::run_shell(&env.shell, &[], &script)?;
        wall.push(t);
        if !success || check::shell_model(&stdout) != Some(expected.as_str()) {
            complain(&format!("shell run {i}: model differs from evaluate_with"));
            failed += 1;
        }
    }
    Ok((wall, failed))
}
