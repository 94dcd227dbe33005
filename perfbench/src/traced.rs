//! The traced run: per-layer metrics.
//!
//! Two parts, both over the same generated inputs as the untraced run:
//!
//! 1. a short external pass against the real server, timing each request
//!    on the client (connect, first byte, last byte) — the `http.*` client
//!    metrics;
//! 2. an in-process replay that calls each layer's public functions inside
//!    spans recorded by the benchmark (see `span.rs`): the HTTP parser and
//!    writer, `Service::run_query`, `evaluate_with`, `query`,
//!    `QueryResponse::to_json`, `GeneralizedRelation::coalesce`, the
//!    resident model, the WAL, the snapshot store and the ingest pipeline.
//!    Further passes run traced, untraced, untraced, traced; the ratio of
//!    the traced and the untraced wall times is the tracing overhead.
//!
//! Every metric in [`PER_LAYER`] is printed for every workload; a layer a
//! workload does not reach reads 0.

use crate::check;
use crate::e2e::{self, IngestExpect};
use crate::gen::{self, IngestOp};
use crate::loadgen::{self, Client, Timing};
use crate::proc::{self, Server};
use crate::span::{Layer, Recorder};
use crate::stats::median;
use crate::{complain, Env, Metric, Outcome};
use itdb_core::{
    evaluate_with, parse_atom, parse_workload, query, EvalOptions, EvalOutcome, EvalStats,
    QueryRequest, QueryResponse, QueryStatus, ResidentModel, Service, ServiceDefaults, Workload,
};
use itdb_serve::ingest::{encode_batch, FactBatch};
use itdb_serve::{http, Ingest, IngestConfig};
use itdb_store::{FsyncPolicy, SnapshotStore, Wal, WalOptions};
use std::collections::BTreeMap;
use std::io::{self, Cursor};
use std::path::Path;
use std::time::Instant;

/// Every per-layer metric, in output order, with its unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("loadgen.floor_us", "us"),
    ("trace.overhead_ratio", "ratio"),
    ("http.first_byte_ms", "ms"),
    ("http.tail_ms", "ms"),
    ("http.connect_ms", "ms"),
    ("http.reconnects", "count"),
    ("http.parse_us", "us"),
    ("http.write_us", "us"),
    ("service.run_query_ms", "ms"),
    ("engine.eval_ms", "ms"),
    ("engine.iterations", "count"),
    ("engine.tuples_derived", "count"),
    ("engine.subsumed_ratio", "ratio"),
    ("lrp.canonicalize_calls", "count"),
    ("lrp.canonical_hit_rate", "ratio"),
    ("lrp.empty_hit_rate", "ratio"),
    ("lrp.index_narrowing", "ratio"),
    ("lrp.subsumption_checks", "count"),
    ("relation.coalesce_ms", "ms"),
    ("relation.coalesce_in_tuples", "count"),
    ("relation.coalesce_out_tuples", "count"),
    ("query.lookup_us", "us"),
    ("render.json_us", "us"),
    ("render.bytes", "bytes"),
    ("resident.apply_ms", "ms"),
    ("resident.overdeleted", "count"),
    ("resident.rederived", "count"),
    ("resident.rederive_ratio", "ratio"),
    ("resident.cone_share", "ratio"),
    ("resident.full_reeval_share", "ratio"),
    ("resident.vs_full_reeval", "ratio"),
    ("resident.new_ms", "ms"),
    ("resident.restore_ms", "ms"),
    ("wal.replay_ms", "ms"),
    ("ingest.open_ms", "ms"),
    ("ingest.reopen_ms", "ms"),
    ("wal.append_us", "us"),
    ("wal.flush_us", "us"),
    ("wal.fsyncs_per_record", "ratio"),
    ("wal.bytes_per_user_byte", "ratio"),
    ("ingest.submit_ms", "ms"),
    ("ingest.checkpoint_ms", "ms"),
    ("ingest.checkpoint_bytes", "bytes"),
    ("ingest.unattributed_ms", "ms"),
    ("self.bench_ms", "ms"),
    ("self.lrp_ms", "ms"),
    ("self.core_ms", "ms"),
    ("self.store_ms", "ms"),
    ("self.serve_ms", "ms"),
    ("self.cli_ms", "ms"),
];

/// Per-layer values collected by one traced run: name → (value, samples).
#[derive(Default)]
struct Layers {
    values: BTreeMap<&'static str, (f64, usize)>,
    attempted: u64,
    failed: u64,
}

impl Layers {
    fn set(&mut self, name: &'static str, value: f64, n: usize) {
        debug_assert!(PER_LAYER.iter().any(|(m, _)| *m == name), "{name}");
        self.values.insert(name, (value, n));
    }

    /// Median of the samples, scaled (e.g. 1e3 for ms → µs).
    fn med(&mut self, name: &'static str, samples: &[f64], scale: f64) {
        if !samples.is_empty() {
            self.set(name, median(samples) * scale, samples.len());
        }
    }

    /// Counts one operation whose failure was already reported.
    fn tally(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            complain(&what());
        }
    }

    /// Engine and `lrp` counters of one evaluation.
    fn engine(&mut self, eval_ms: &[f64], outcome: &EvalOutcome, stats: &EvalStats) {
        self.med("engine.eval_ms", eval_ms, 1.0);
        if let EvalOutcome::Converged { iterations } = outcome {
            self.set("engine.iterations", *iterations as f64, 1);
        }
        self.set("engine.tuples_derived", stats.tuples_derived as f64, 1);
        let derived = stats.tuples_derived.max(1) as f64;
        self.set(
            "engine.subsumed_ratio",
            stats.tuples_subsumed as f64 / derived,
            1,
        );
        let c = &stats.counters;
        self.set("lrp.canonicalize_calls", c.canonicalize_calls as f64, 1);
        self.set("lrp.subsumption_checks", c.subsumption_checks as f64, 1);
        if let Some(r) = c.canonical_hit_rate() {
            self.set("lrp.canonical_hit_rate", r, 1);
        }
        if let Some(r) = c.empty_hit_rate() {
            self.set("lrp.empty_hit_rate", r, 1);
        }
        if let Some(r) = c.narrowing_ratio() {
            self.set("lrp.index_narrowing", r, 1);
        }
    }

    /// Self time per layer, per replayed operation (each an `op` root).
    fn self_times(&mut self, rec: &Recorder) {
        let (by_layer, ops) = rec.self_ms_by_layer("op");
        for (layer, ms) in by_layer {
            let name = match layer {
                Layer::Bench => "self.bench_ms",
                Layer::Lrp => "self.lrp_ms",
                Layer::Core => "self.core_ms",
                Layer::Store => "self.store_ms",
                Layer::Serve => "self.serve_ms",
            };
            self.set(name, ms / ops.max(1) as f64, ops);
        }
    }

    /// Client-side HTTP timings of an external pass.
    fn http_client(&mut self, timings: &[Timing]) {
        let ms = |f: &dyn Fn(&Timing) -> f64| -> Vec<f64> { timings.iter().map(f).collect() };
        self.med("http.first_byte_ms", &ms(&|t| t.first_byte * 1e3), 1.0);
        self.med(
            "http.tail_ms",
            &ms(&|t| (t.last_byte - t.first_byte) * 1e3),
            1.0,
        );
        let connects: Vec<f64> = timings
            .iter()
            .filter(|t| t.reconnected)
            .map(|t| t.connect * 1e3)
            .collect();
        self.med("http.connect_ms", &connects, 1.0);
        self.set("http.reconnects", connects.len() as f64, timings.len());
    }

    fn into_outcome(self, flags: Vec<String>) -> Outcome {
        let mut out = Outcome::new(self.attempted, self.failed);
        for (name, unit) in PER_LAYER {
            let (value, n) = self.values.get(name).copied().unwrap_or((0.0, 0));
            out.push(Metric::new(*name, unit, value, n));
        }
        out.flags = flags;
        out
    }
}

pub fn run(env: &Env) -> io::Result<Outcome> {
    let mut layers = Layers::default();
    layers.set("loadgen.floor_us", loadgen::floor_us(500)?, 500);
    let flags = match env.workload.as_str() {
        "query_eval" => query_eval(env, &mut layers)?,
        _ => ingest_online(env, &mut layers)?,
    };
    Ok(layers.into_outcome(flags))
}

/// Writes the traced replay's spans as JSON lines next to the run's files.
fn dump_spans(env: &Env, rec: &Recorder) -> io::Result<()> {
    let path = env
        .dir
        .join(format!("spans-{}-{}.jsonl", env.workload, env.seed));
    std::fs::write(path, rec.to_jsonl())
}

/// The exact bytes the load generator sends for one request.
fn raw_request(path: &str, id: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: {}\r\nX-Itdb-Request-Id: {id}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn parse_request(rec: &mut Recorder, raw: &[u8]) -> http::Request {
    rec.span("http.read_request", Layer::Serve, |_| {
        http::read_request(&mut Cursor::new(raw)).expect("generated request parses")
    })
}

fn write_response(rec: &mut Recorder, status: u16, body: &[u8], id: &str) -> usize {
    rec.span("http.write_response_with", Layer::Serve, |_| {
        let mut out = Vec::with_capacity(body.len() + 160);
        http::write_response_with(
            &mut out,
            status,
            "application/json",
            body,
            true,
            &[("X-Itdb-Request-Id", id)],
        )
        .expect("writing to memory cannot fail");
        out.len()
    })
}

fn spans_us(rec: &Recorder, name: &str) -> Vec<f64> {
    rec.durations_ms(name).iter().map(|ms| ms * 1e3).collect()
}

/// Traced and untraced wall seconds of `pass`, run traced, untraced,
/// untraced, traced: the order cancels a steady drift in the machine's
/// speed. The passes record into recorders of their own, which are dropped.
fn overhead(mut pass: impl FnMut(&mut Recorder) -> io::Result<()>) -> io::Result<(f64, f64)> {
    let (mut traced_s, mut untraced_s) = (0.0, 0.0);
    for traced in [true, false, false, true] {
        let t = Instant::now();
        pass(&mut Recorder::new(traced))?;
        let secs = t.elapsed().as_secs_f64();
        if traced {
            traced_s += secs;
        } else {
            untraced_s += secs;
        }
    }
    Ok((traced_s, untraced_s))
}

// ---------------------------------------------------------------- query_eval

/// Requests in the `query_eval` replay: two passes over the rotation.
const QUERY_REPLAY: usize = 32;

fn query_eval(env: &Env, layers: &mut Layers) -> io::Result<Vec<String>> {
    let text = gen::query_program(env.seed);
    let path = env.dir.join("query_eval.itdb");
    std::fs::write(&path, &text)?;
    let patterns = gen::query_patterns(env.seed);
    let workload = parse_workload(&text).expect("generated workload parses");
    let expected = check::expected_service_answers(&workload, &patterns);
    let flags = e2e::query_flags();

    // External pass: one keep-alive connection, client-side timings.
    let (mut server, _) = Server::start(&env.itdb, &flags, &path)?;
    let mut client = Client::new(server.addr);
    let mut timings = Vec::new();
    let started = Instant::now();
    let mut i = 0;
    while started.elapsed().as_secs_f64() < env.seconds * 0.3 || i < patterns.len() {
        let k = i % patterns.len();
        let r = e2e::checked_query(&mut client, &format!("x{i}"), &patterns[k], &expected[k]);
        layers.tally(r.ok);
        timings.extend(r.timing);
        i += 1;
    }
    drop(client);
    server.kill()?;
    layers.http_client(&timings);

    let replay = |rec: &mut Recorder, layers: &mut Layers| {
        let service = Service::new(workload.clone(), ServiceDefaults::default());
        let (mut last_eval, mut bytes) = (None, Vec::new());
        for i in 0..QUERY_REPLAY {
            let k = i % patterns.len();
            let id = format!("r{i}");
            let raw = raw_request("/query", &id, &patterns[k]);
            let body = rec.span("op", Layer::Bench, |rec| {
                let req = parse_request(rec, &raw);
                let pattern = String::from_utf8_lossy(&req.body).trim().to_string();
                let resp = rec.span("service.run_query", Layer::Core, |_| {
                    service.run_query(&QueryRequest {
                        pattern,
                        fuel: None,
                        timeout: None,
                        request_id: Some(id.clone()),
                    })
                });
                let resp = resp.expect("generated query answers");
                let body = rec.span("render.to_json", Layer::Core, |_| resp.to_json());
                write_response(rec, 200, body.as_bytes(), &id);
                body
            });
            bytes.push(body.len() as f64);
            layers.check(
                check::same_answer(check::answer_prefix(&body), &expected[k]),
                || format!("replayed query `{}`: {body}", patterns[k]),
            );
            // The engine and the query step on their own, same inputs,
            // outside the `op` root so the layer self times leave them out.
            let eval = rec.span("parts", Layer::Bench, |rec| {
                let eval = rec.span("engine.evaluate_with", Layer::Core, |_| {
                    evaluate_with(&workload.program, &workload.edb, &EvalOptions::default())
                });
                let eval = eval.expect("generated program evaluates");
                let atom = parse_atom(&patterns[k]).expect("generated pattern parses");
                let rel = eval
                    .relation(&atom.pred)
                    .or_else(|| workload.edb.get(&atom.pred))
                    .expect("generated predicate exists");
                let budget = EvalOptions::default().residue_budget;
                rec.span("query.query", Layer::Core, |_| query(rel, &atom, budget))
                    .expect("query succeeds");
                eval
            });
            last_eval = Some(eval);
        }
        (last_eval.expect("at least one request"), bytes)
    };
    let mut rec = Recorder::new(true);
    let (eval, bytes) = replay(&mut rec, layers);
    let (traced_s, untraced_s) = overhead(|rec| {
        replay(rec, layers);
        Ok(())
    })?;
    let (shell_traced_s, shell_untraced_s) = shell(env, &mut rec, layers)?;
    layers.set(
        "trace.overhead_ratio",
        (traced_s + shell_traced_s) / (untraced_s + shell_untraced_s),
        4,
    );
    layers.med("http.parse_us", &spans_us(&rec, "http.read_request"), 1.0);
    layers.med(
        "http.write_us",
        &spans_us(&rec, "http.write_response_with"),
        1.0,
    );
    layers.med(
        "service.run_query_ms",
        &rec.durations_ms("service.run_query"),
        1.0,
    );
    layers.engine(
        &rec.durations_ms("engine.evaluate_with"),
        &eval.outcome,
        &eval.stats,
    );
    layers.med("query.lookup_us", &spans_us(&rec, "query.query"), 1.0);
    layers.med("render.json_us", &spans_us(&rec, "render.to_json"), 1.0);
    layers.med("render.bytes", &bytes, 1.0);
    layers.self_times(&rec);
    dump_spans(env, &rec)?;
    Ok(flags)
}

// ------------------------------------------------------------- ingest_online

/// Ops of the stream the external pass sends (the replay sends them all).
const INGEST_EXTERNAL_OPS: usize = 90;
/// Ops of the stream each tracing-overhead pass replays.
const OVERHEAD_OPS: usize = 90;

/// The replayed `Ingest`'s WAL directory.
fn replay_dir(env: &Env) -> std::path::PathBuf {
    env.dir.join("replay")
}

fn wal_options() -> WalOptions {
    WalOptions {
        fsync: FsyncPolicy::Always,
        ..WalOptions::default()
    }
}

fn ingest_config(dir: &Path) -> IngestConfig {
    let mut cfg = IngestConfig::new(dir);
    cfg.wal.fsync = FsyncPolicy::Always;
    cfg
}

struct IngestReplay {
    /// Per write: (submit, apply, full re-evaluation, append, flush) in ms.
    writes: Vec<[f64; 5]>,
    outcomes: Vec<(bool, itdb_core::ApplyOutcome)>,
    user_bytes: usize,
    wal_stats: itdb_store::WalStats,
    checkpoint_bytes: Vec<f64>,
}

/// Times one call on its own: `(result, milliseconds)`.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

/// Replays the op stream; returns what it measured and the live `Ingest`.
///
/// Each operation's `op` root is the request path the server runs, built
/// from the layers' public functions in the ingest pipeline's order: parse
/// the request, append the batch to the WAL (synced), apply it to the
/// resident model, checkpoint every `checkpoint_every` writes, render and
/// write the response. Reads query the same model. Beside it, under a
/// `parts` root that the layer self times leave out, each write also goes
/// through a real `Ingest::submit` (whose inside spans cannot reach), and
/// through `apply_ops_full_reeval` on a second model for comparison.
fn ingest_replay(
    env: &Env,
    rec: &mut Recorder,
    layers: &mut Layers,
    workload: &Workload,
    ops: &[IngestOp],
    expect: &IngestExpect,
) -> io::Result<(IngestReplay, Ingest)> {
    let dir = replay_dir(env);
    let path_dir = env.dir.join("replay-path");
    for d in [&dir, &path_dir] {
        let _ = std::fs::remove_dir_all(d);
    }
    let opts = e2e::ingest_eval_options();
    let ingest = rec.span("ingest.open", Layer::Serve, |_| {
        Ingest::open(ingest_config(&dir), workload)
    })?;
    let new_model = |rec: &mut Recorder| {
        rec.span("resident.new", Layer::Core, |_| {
            ResidentModel::new(workload.program.clone(), workload.edb.clone(), opts.clone())
        })
        .expect("resident model builds")
    };
    let mut model = new_model(rec);
    let mut full = new_model(rec);
    let (mut wal, _) = rec
        .span("wal.open", Layer::Store, |_| {
            Wal::open(&path_dir, wal_options())
        })
        .map_err(io::Error::other)?;
    let store = SnapshotStore::open(path_dir.join("checkpoint")).map_err(io::Error::other)?;
    let checkpoint_every = ingest_config(&dir).checkpoint_every as usize;

    let mut out = IngestReplay {
        writes: Vec::new(),
        outcomes: Vec::new(),
        user_bytes: 0,
        wal_stats: Default::default(),
        checkpoint_bytes: Vec::new(),
    };
    let budget = EvalOptions::default().residue_budget;
    for (i, op) in ops.iter().enumerate() {
        let id = format!("s{}-op{i}", env.seed);
        let (raw, path) = match op {
            IngestOp::Write { .. } => {
                let body = op.facts_body().expect("a write");
                out.user_bytes += body.len();
                (raw_request("/facts", &id, &body), "/facts")
            }
            IngestOp::Read(pattern) => (raw_request("/query", &id, pattern), "/query"),
        };
        let served = rec.span("op", Layer::Bench, |rec| -> io::Result<_> {
            let req = parse_request(rec, &raw);
            let body = std::str::from_utf8(&req.body).expect("generated body is UTF-8");
            if path == "/query" {
                let atom = parse_atom(body.trim()).expect("generated pattern parses");
                let rel = model
                    .relation(&atom.pred)
                    .expect("generated predicate exists");
                let answers = rec
                    .span("query.query", Layer::Core, |_| query(rel, &atom, budget))
                    .expect("query succeeds");
                let resp = QueryResponse {
                    pred: atom.pred.clone(),
                    status: QueryStatus::Complete,
                    answers: answers.tuples().iter().map(|t| t.to_string()).collect(),
                    stats: EvalStats::default(),
                    request_id: Some(id.clone()),
                };
                let json = rec.span("render.to_json", Layer::Core, |_| resp.to_json());
                write_response(rec, 200, json.as_bytes(), &id);
                return Ok((json, None));
            }
            let batch = rec
                .span("ingest.parse_facts_body", Layer::Serve, |_| {
                    itdb_serve::ingest::parse_facts_body(body)
                })
                .expect("generated body parses");
            let batch = FactBatch {
                request_id: id.clone(),
                ops: batch,
            };
            let payload = rec.span("ingest.encode_batch", Layer::Serve, |_| {
                encode_batch(&batch)
            });
            let (seq, append_ms) = timed(|| {
                rec.span("wal.append", Layer::Store, |_| wal.append(&payload))
            });
            let seq = seq.map_err(io::Error::other)?;
            let (applied, apply_ms) = timed(|| {
                rec.span("resident.apply_ops", Layer::Core, |_| {
                    model.apply_ops(&batch.ops)
                })
            });
            let applied = applied.expect("generated batch applies");
            if (out.outcomes.len() + 1).is_multiple_of(checkpoint_every) {
                let written = rec.span("ingest.checkpoint", Layer::Bench, |rec| {
                    let sections = rec.span("resident.snapshot_sections", Layer::Core, |_| {
                        model.snapshot_sections(seq)
                    });
                    let written = rec
                        .span("snapshot.write", Layer::Store, |_| store.write(&sections))
                        .map_err(io::Error::other)?;
                    rec.span("wal.compact_through", Layer::Store, |_| {
                        wal.compact_through(seq)
                    })
                    .map_err(io::Error::other)?;
                    io::Result::Ok(written)
                })?;
                out.checkpoint_bytes.push(written.bytes as f64);
            }
            let ack = format!(
                "{{\"status\":\"accepted\",\"applied\":{},\"duplicates\":{},\"retracted\":{},\"seq\":{seq}}}",
                applied.applied, applied.duplicates, applied.retracted
            );
            write_response(rec, 202, ack.as_bytes(), &id);
            Ok((ack, Some((batch.ops, applied, append_ms, apply_ms))))
        })?;
        match (op, served) {
            (IngestOp::Read(pattern), (body, _)) => {
                let want = expect.reads[i].as_deref().expect("a read");
                layers.check(
                    check::same_answer(check::answer_prefix(&body), want),
                    || format!("replayed read {id} `{pattern}`: {body}"),
                );
            }
            (IngestOp::Write { retract, .. }, (_, Some((batch, applied, append_ms, apply_ms)))) => {
                let want_retracted = u64::from(retract.is_some());
                layers.check(
                    applied.applied == 1 && applied.retracted == want_retracted,
                    || format!("replayed write {id}: {applied:?}"),
                );
                let (submit_ms, full_ms, flush_ms) =
                    rec.span("parts", Layer::Bench, |rec| -> io::Result<_> {
                        let (acked, submit_ms) = timed(|| {
                            rec.span("ingest.submit", Layer::Serve, |_| {
                                ingest.submit(&id, batch.clone())
                            })
                        });
                        layers.check(
                            matches!(&acked, Ok(o) if o.applied == 1 && o.retracted == want_retracted),
                            || format!("replayed submit {id}: {acked:?}"),
                        );
                        let (full_res, full_ms) = timed(|| {
                            rec.span("resident.apply_ops_full_reeval", Layer::Core, |_| {
                                full.apply_ops_full_reeval(&batch)
                            })
                        });
                        full_res.expect("generated batch applies");
                        let (flushed, flush_ms) =
                            timed(|| rec.span("wal.flush", Layer::Store, |_| wal.flush()));
                        flushed.map_err(io::Error::other)?;
                        Ok((submit_ms, full_ms, flush_ms))
                    })?;
                out.writes
                    .push([submit_ms, apply_ms, full_ms, append_ms, flush_ms]);
                out.outcomes.push((retract.is_some(), applied));
            }
            (IngestOp::Write { .. }, (_, None)) => unreachable!("a write returns its outcome"),
        }
    }
    out.wal_stats = wal.stats();
    Ok((out, ingest))
}

/// Crashes the replay's `Ingest` (drops it without `flush`, so no shutdown
/// checkpoint is written), reopens it and checks it answers the final
/// model; then times recovery in its parts.
fn ingest_recover(
    env: &Env,
    rec: &mut Recorder,
    layers: &mut Layers,
    ingest: Ingest,
    workload: &Workload,
    expect: &IngestExpect,
) -> io::Result<()> {
    let dir = replay_dir(env);
    let opts = e2e::ingest_eval_options();
    drop(ingest);
    let reopened = rec.span("ingest.reopen", Layer::Serve, |_| {
        Ingest::open(ingest_config(&dir), workload)
    })?;
    for (p, want) in expect.final_patterns.iter().zip(&expect.final_answers) {
        let got = reopened.with_model(|m| check::resident_answer(m, p));
        layers.check(check::same_answer(&got, want), || {
            format!("replayed recovery `{p}`: {got}")
        });
    }
    drop(reopened);
    // Recovery in its parts: restore the checkpoint, then replay the log.
    let loaded = SnapshotStore::open(dir.join("checkpoint"))
        .and_then(|s| s.load_latest())
        .map_err(io::Error::other)?;
    let (_, sections) = loaded
        .snapshot
        .ok_or_else(|| io::Error::other("replay wrote no checkpoint"))?;
    let (mut restored, seq) = rec
        .span("resident.restore_from_sections", Layer::Core, |_| {
            ResidentModel::restore_from_sections(workload.program.clone(), opts.clone(), &sections)
        })
        .map_err(io::Error::other)?;
    rec.span("wal.replay", Layer::Bench, |rec| -> io::Result<()> {
        let (_, recovery) = rec
            .span("wal.open", Layer::Store, |_| Wal::open(&dir, wal_options()))
            .map_err(io::Error::other)?;
        for record in recovery.records.iter().filter(|r| r.seq > seq) {
            let batch =
                itdb_serve::ingest::decode_batch(&record.payload).map_err(io::Error::other)?;
            rec.span("resident.apply_ops", Layer::Core, |_| {
                restored.apply_ops(&batch.ops)
            })
            .map_err(|e| io::Error::other(format!("{e:?}")))?;
        }
        Ok(())
    })
}

fn ingest_online(env: &Env, layers: &mut Layers) -> io::Result<Vec<String>> {
    let text = gen::ingest_program(env.seed);
    let path = env.dir.join("ingest_online.itdb");
    std::fs::write(&path, &text)?;
    let ops = gen::ingest_ops(env.seed, e2e::INGEST_WRITES);
    let expect = e2e::ingest_expect(&text, &ops);
    let workload = parse_workload(&text).expect("generated workload parses");
    let wal = env.dir.join("wal");
    let flags = e2e::ingest_flags(&wal);

    // External pass over a prefix of the stream.
    let _ = std::fs::remove_dir_all(&wal);
    let (mut server, _) = Server::start(&env.itdb, &flags, &path)?;
    let mut client = Client::new(server.addr);
    let mut timings = Vec::new();
    for (i, op) in ops.iter().take(INGEST_EXTERNAL_OPS).enumerate() {
        let id = format!("s{}-op{i}", env.seed);
        let r = e2e::checked_ingest_op(&mut client, &id, op, expect.reads[i].as_deref());
        layers.tally(r.ok);
        timings.extend(r.timing);
    }
    drop(client);
    server.kill()?;
    layers.http_client(&timings);

    let mut rec = Recorder::new(true);
    let (traced, ingest) = ingest_replay(env, &mut rec, layers, &workload, &ops, &expect)?;
    ingest_recover(env, &mut rec, layers, ingest, &workload, &expect)?;
    let (traced_s, untraced_s) = overhead(|rec| {
        ingest_replay(env, rec, layers, &workload, &ops[..OVERHEAD_OPS], &expect).map(drop)
    })?;
    layers.set("trace.overhead_ratio", traced_s / untraced_s, 4);

    let col = |k: usize| -> Vec<f64> { traced.writes.iter().map(|w| w[k]).collect() };
    let (submit, apply, full) = (col(0), col(1), col(2));
    layers.med("ingest.submit_ms", &submit, 1.0);
    layers.med("resident.apply_ms", &apply, 1.0);
    layers.med("wal.append_us", &col(3), 1e3);
    layers.med("wal.flush_us", &col(4), 1e3);
    let unattributed: Vec<f64> = traced.writes.iter().map(|w| w[0] - w[1] - w[3]).collect();
    layers.med("ingest.unattributed_ms", &unattributed, 1.0);
    layers.set(
        "resident.vs_full_reeval",
        median(&apply) / median(&full),
        apply.len(),
    );
    let retracting: Vec<&itdb_core::ApplyOutcome> = traced
        .outcomes
        .iter()
        .filter(|(r, _)| *r)
        .map(|(_, o)| o)
        .collect();
    let nr = retracting.len().max(1) as f64;
    let over: u64 = retracting.iter().map(|o| o.overdeleted).sum();
    let re: u64 = retracting.iter().map(|o| o.rederived).sum();
    layers.set("resident.overdeleted", over as f64 / nr, retracting.len());
    layers.set("resident.rederived", re as f64 / nr, retracting.len());
    layers.set(
        "resident.rederive_ratio",
        re as f64 / over.max(1) as f64,
        retracting.len(),
    );
    layers.set(
        "resident.cone_share",
        retracting.iter().filter(|o| o.dred_cone).count() as f64 / nr,
        retracting.len(),
    );
    let nw = traced.outcomes.len();
    layers.set(
        "resident.full_reeval_share",
        traced
            .outcomes
            .iter()
            .filter(|(_, o)| o.full_reeval)
            .count() as f64
            / nw.max(1) as f64,
        nw,
    );
    let ws = traced.wal_stats;
    layers.set(
        "wal.fsyncs_per_record",
        ws.fsyncs as f64 / ws.appends.max(1) as f64,
        ws.appends as usize,
    );
    layers.set(
        "wal.bytes_per_user_byte",
        ws.segment_bytes as f64 / traced.user_bytes.max(1) as f64,
        ws.appends as usize,
    );
    layers.med(
        "ingest.checkpoint_ms",
        &rec.durations_ms("ingest.checkpoint"),
        1.0,
    );
    layers.med("ingest.checkpoint_bytes", &traced.checkpoint_bytes, 1.0);
    layers.med("resident.new_ms", &rec.durations_ms("resident.new"), 1.0);
    layers.med(
        "resident.restore_ms",
        &rec.durations_ms("resident.restore_from_sections"),
        1.0,
    );
    layers.med("wal.replay_ms", &rec.durations_ms("wal.replay"), 1.0);
    layers.med("ingest.open_ms", &rec.durations_ms("ingest.open"), 1.0);
    layers.med("ingest.reopen_ms", &rec.durations_ms("ingest.reopen"), 1.0);
    layers.med("http.parse_us", &spans_us(&rec, "http.read_request"), 1.0);
    layers.med(
        "http.write_us",
        &spans_us(&rec, "http.write_response_with"),
        1.0,
    );
    layers.med("query.lookup_us", &spans_us(&rec, "query.query"), 1.0);
    layers.med("render.json_us", &spans_us(&rec, "render.to_json"), 1.0);
    let bytes: Vec<f64> = expect
        .reads
        .iter()
        .flatten()
        .map(|b| b.len() as f64)
        .collect();
    layers.med("render.bytes", &bytes, 1.0);
    layers.self_times(&rec);
    dump_spans(env, &rec)?;
    Ok(flags)
}

// ------------------------------------------------------------- itdb-shell

/// In-process replays of the shell's evaluation, and external shell runs
/// for the `cli` layer's share.
const SHELL_REPLAY: usize = 12;

/// The `query_eval` program through `itdb-shell`, which coalesces: the
/// `relation.coalesce` and `cli` layers, recorded into `rec` next to the
/// served requests. Returns the traced and untraced replay seconds (see
/// [`overhead`]).
fn shell(env: &Env, rec: &mut Recorder, layers: &mut Layers) -> io::Result<(f64, f64)> {
    let text = gen::query_program(env.seed);
    let script = env.dir.join("shell.itdb");
    std::fs::write(&script, gen::shell_script(env.seed))?;
    let expected = check::expected_shell_model(&text);

    struct Run {
        model: String,
        tuples: (usize, usize),
    }
    let replay = |rec: &mut Recorder| -> Run {
        rec.span("op", Layer::Bench, |rec| {
            let workload = rec
                .span("parse_workload", Layer::Core, |_| parse_workload(&text))
                .expect("generated workload parses");
            let mut eval = rec
                .span("engine.evaluate_with", Layer::Core, |_| {
                    evaluate_with(&workload.program, &workload.edb, &EvalOptions::default())
                })
                .expect("generated program evaluates");
            let budget = EvalOptions::default().residue_budget;
            let (mut tin, mut tout) = (0, 0);
            for rel in eval.idb.values_mut() {
                tin += rel.len();
                rec.span("relation.coalesce", Layer::Lrp, |_| rel.coalesce(budget))
                    .expect("coalesce succeeds");
                tout += rel.len();
            }
            let model = eval
                .idb
                .iter()
                .map(|(name, rel)| format!("{name} = {rel}"))
                .collect::<Vec<_>>()
                .join("\n");
            Run {
                model,
                tuples: (tin, tout),
            }
        })
    };
    let mut cli_ms = Vec::new();
    for i in 0..SHELL_REPLAY {
        // The shell process around the same work: its wall time minus the
        // evaluation it reports.
        let (stdout, wall_s, success) = proc::run_shell(&env.shell, &["--stats-json"], &script)?;
        // `--stats-json` appends the evaluation's statistics as a last line;
        // its `elapsed_us` (evaluate plus coalesce, timed by the shell
        // itself) is the share of the run that is not the `cli` layer's.
        let (model, stats) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", ""));
        let eval_ms = itdb_trace::json::parse(stats)
            .ok()
            .and_then(|v| v.get("elapsed_us").and_then(|e| e.as_f64()))
            .map(|us| us / 1e3);
        layers.check(
            success && check::shell_model(model) == Some(expected.as_str()),
            || format!("traced shell run {i}: model differs from evaluate_with"),
        );
        layers.check(eval_ms.is_some(), || {
            format!("traced shell run {i}: no elapsed_us in `{stats}`")
        });
        cli_ms.push(wall_s * 1e3 - eval_ms.unwrap_or(f64::NAN));
    }
    let mut last = None;
    for i in 0..SHELL_REPLAY {
        let run = replay(rec);
        layers.check(run.model == expected, || {
            format!("replayed evaluation {i}: coalesced model differs from the shell's")
        });
        last = Some(run);
    }
    let (traced_s, untraced_s) = overhead(|rec| {
        for _ in 0..SHELL_REPLAY {
            replay(rec);
        }
        Ok(())
    })?;
    let last = last.expect("at least one replay");
    let coalesce_per_run: Vec<f64> = {
        let c = rec.durations_ms("relation.coalesce");
        let per = c.len() / SHELL_REPLAY;
        c.chunks(per.max(1)).map(|ch| ch.iter().sum()).collect()
    };
    layers.med("relation.coalesce_ms", &coalesce_per_run, 1.0);
    layers.set("relation.coalesce_in_tuples", last.tuples.0 as f64, 1);
    layers.set("relation.coalesce_out_tuples", last.tuples.1 as f64, 1);
    layers.med("self.cli_ms", &cli_ms, 1.0);
    Ok((traced_s, untraced_s))
}

#[cfg(test)]
mod tests {
    use super::PER_LAYER;
    use crate::WORKLOADS;

    /// `BENCHMARK.json` at the repository root must list exactly the
    /// workloads `perfbench` accepts and the per-layer metrics it prints,
    /// with the same units.
    #[test]
    fn benchmark_json_matches_perfbench() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let json = itdb_trace::json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(|v| v.as_array())
                .expect("array")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap_or("");
                    (field("name").to_string(), field("unit").to_string())
                })
                .collect()
        };
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
        let per_layer: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names("per_layer"), per_layer);
    }
}
