//! Per-request introspection state behind the `/debug` endpoint family.
//!
//! One [`DebugState`] is shared by every worker and streamer thread. It
//! holds the four forensic views an operator reaches for when a request
//! goes wrong:
//!
//! * **Flight dumps** — on a governor trip, a caught worker panic, or an
//!   admission-control shed, every live flight-recorder ring
//!   ([`itdb_trace::flight`]) is snapshotted into a bounded deque of
//!   [`FlightDump`]s, served by `GET /debug/flight` (which also includes
//!   a live snapshot taken at request time).
//! * **Slow-query log** — `/query` requests slower than
//!   `--slow-query-ms` are written as one JSONL record (request id,
//!   pattern, status, governor counters, evaluation stats, span profile)
//!   to `--slow-log PATH`, or to stdout when no path is configured.
//! * **In-flight table** — every request registers itself (id, route,
//!   start time) for its duration; `/query` additionally attaches its
//!   per-request [`Governor`], whose atomic counters let
//!   `GET /debug/requests` report fuel spent *while the evaluation is
//!   still running*. Registration is RAII, so a panicking handler
//!   unregisters on unwind.
//! * **Per-route profiles** — each profiled request's span profile is
//!   folded into a per-route aggregate for `GET /debug/profile`.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use itdb_core::EvalStats;
use itdb_lrp::Governor;
use itdb_trace::flight::ThreadFlight;
use itdb_trace::json::{self, ToJson, Writer};
use itdb_trace::Profile;
use std::collections::{BTreeMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Retained flight dumps; older dumps fall off the front.
const MAX_DUMPS: usize = 8;

/// Longest honored inbound `X-Itdb-Request-Id` (longer ids are truncated
/// so a hostile client cannot bloat every event of its own request).
const MAX_REQUEST_ID_LEN: usize = 128;

/// Returns the request's id: the inbound header value if the client sent
/// one (truncated to a sane length), otherwise a fresh process-unique id
/// of the form `{boot:08x}-{seq:06x}`.
pub fn request_id_for(inbound: Option<&str>) -> String {
    match inbound.map(str::trim) {
        Some(id) if !id.is_empty() => id.chars().take(MAX_REQUEST_ID_LEN).collect(),
        _ => {
            static BOOT: OnceLock<u64> = OnceLock::new();
            static SEQ: AtomicU64 = AtomicU64::new(1);
            let boot = *BOOT.get_or_init(|| {
                SystemTime::now()
                    .duration_since(UNIX_EPOCH)
                    .map(|d| u64::try_from(d.as_nanos() & u128::from(u64::MAX)).unwrap_or(0))
                    .unwrap_or(0)
            });
            format!(
                "{:08x}-{:06x}",
                boot & 0xffff_ffff,
                SEQ.fetch_add(1, Ordering::Relaxed)
            )
        }
    }
}

/// One snapshot of every live flight-recorder ring, taken on a trip,
/// panic, or shed.
#[derive(Debug, Clone)]
pub struct FlightDump {
    /// Monotone dump sequence number (process-wide).
    pub seq: u64,
    /// What triggered the snapshot: `governor_trip`, `worker_panic`, or
    /// `shed`.
    pub reason: String,
    /// The request whose handling triggered the dump, when known.
    pub request_id: Option<String>,
    /// Unix milliseconds at capture.
    pub at_ms: u64,
    /// Every live ring's window at capture.
    pub threads: Vec<ThreadFlight>,
}

impl ToJson for FlightDump {
    fn write_json(&self, w: &mut Writer) {
        w.object(|w| {
            w.field("seq", self.seq).field("reason", &self.reason);
            if let Some(id) = &self.request_id {
                w.field("request_id", id);
            }
            w.field("at_ms", self.at_ms).field("threads", &self.threads);
        });
    }
}

/// One request in flight: registered on dispatch, unregistered (RAII) on
/// completion or unwind.
struct InFlight {
    ticket: u64,
    id: String,
    route: String,
    started: Instant,
    /// Attached by `/query` once its per-request governor exists; its
    /// stats are atomics, readable from the `/debug/requests` renderer
    /// while the evaluation runs on another thread.
    governor: Mutex<Option<Arc<Governor>>>,
}

/// Unregisters the request from the in-flight table on drop.
pub struct InFlightGuard {
    state: Arc<DebugState>,
    entry: Arc<InFlight>,
}

impl InFlightGuard {
    /// Attaches the request's governor so `/debug/requests` can report
    /// its fuel spent live.
    pub fn attach_governor(&self, governor: &Arc<Governor>) {
        let mut slot = lock(&self.entry.governor);
        *slot = Some(Arc::clone(governor));
    }
}

impl Drop for InFlightGuard {
    fn drop(&mut self) {
        let mut table = lock(&self.state.in_flight);
        table.retain(|e| e.ticket != self.entry.ticket);
    }
}

/// Per-route span-profile aggregate, keyed by `(span kind, label)`.
#[derive(Debug, Default, Clone)]
struct RouteProfile {
    requests: u64,
    spans: BTreeMap<(String, String), SpanAgg>,
}

#[derive(Debug, Default, Clone)]
struct SpanAgg {
    count: u64,
    total_us: u64,
    self_us: u64,
}

fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// One span row, as both `/debug/profile` and the slow-query log's
/// `profile` array render it.
fn write_span(w: &mut Writer, kind: &str, label: &str, count: u64, total_us: u64, self_us: u64) {
    w.object(|w| {
        w.field("kind", kind)
            .field("label", label)
            .field("count", count)
            .field("total_us", total_us)
            .field("self_us", self_us);
    });
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Every structure behind these locks is plain counters and clonable
    // rows; wedging /debug over a panicked writer would be worse than a
    // torn row.
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// The shared `/debug` state (see the module docs).
pub struct DebugState {
    dumps: Mutex<VecDeque<FlightDump>>,
    dump_seq: AtomicU64,
    dumps_total: AtomicU64,
    slow_total: AtomicU64,
    in_flight: Mutex<Vec<Arc<InFlight>>>,
    ticket_seq: AtomicU64,
    profiles: Mutex<BTreeMap<String, RouteProfile>>,
    /// Live dedicated `/events` streamer threads.
    streamers: AtomicU64,
    slow_log: Mutex<Option<BufWriter<File>>>,
}

impl DebugState {
    /// Fresh state; with `slow_log_path` set, slow-query records append
    /// to that file (created if missing) instead of stdout.
    pub fn new(slow_log_path: Option<&Path>) -> io::Result<Self> {
        let slow_log = match slow_log_path {
            Some(p) => {
                if let Some(parent) = p.parent().filter(|d| !d.as_os_str().is_empty()) {
                    std::fs::create_dir_all(parent)?;
                }
                Some(BufWriter::new(
                    OpenOptions::new().create(true).append(true).open(p)?,
                ))
            }
            None => None,
        };
        Ok(DebugState {
            dumps: Mutex::new(VecDeque::new()),
            dump_seq: AtomicU64::new(0),
            dumps_total: AtomicU64::new(0),
            slow_total: AtomicU64::new(0),
            in_flight: Mutex::new(Vec::new()),
            ticket_seq: AtomicU64::new(0),
            profiles: Mutex::new(BTreeMap::new()),
            streamers: AtomicU64::new(0),
            slow_log: Mutex::new(slow_log),
        })
    }

    /// Registers a request in the in-flight table for the guard's
    /// lifetime.
    pub fn register(self: &Arc<Self>, route: &str, id: &str) -> InFlightGuard {
        let entry = Arc::new(InFlight {
            ticket: self.ticket_seq.fetch_add(1, Ordering::Relaxed),
            id: id.to_string(),
            route: route.to_string(),
            started: Instant::now(),
            governor: Mutex::new(None),
        });
        lock(&self.in_flight).push(Arc::clone(&entry));
        InFlightGuard {
            state: Arc::clone(self),
            entry,
        }
    }

    /// Snapshots every live flight ring into a retained [`FlightDump`].
    pub fn capture_dump(&self, reason: &str, request_id: Option<&str>) {
        let dump = FlightDump {
            seq: self.dump_seq.fetch_add(1, Ordering::Relaxed),
            reason: reason.to_string(),
            request_id: request_id.map(str::to_string),
            at_ms: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| u64::try_from(d.as_millis() & u128::from(u64::MAX)).unwrap_or(0))
                .unwrap_or(0),
            threads: itdb_trace::flight::snapshot_all(),
        };
        self.dumps_total.fetch_add(1, Ordering::Relaxed);
        let mut dumps = lock(&self.dumps);
        if dumps.len() >= MAX_DUMPS {
            dumps.pop_front();
        }
        dumps.push_back(dump);
    }

    /// Flight dumps captured so far (monotone; `itdb_flight_dumps_total`).
    pub fn dumps_total(&self) -> u64 {
        self.dumps_total.load(Ordering::Relaxed)
    }

    /// Slow queries logged so far (monotone; `itdb_slow_queries_total`).
    pub fn slow_total(&self) -> u64 {
        self.slow_total.load(Ordering::Relaxed)
    }

    /// Counts a dedicated `/events` streamer thread in/out.
    pub fn streamer_started(&self) {
        self.streamers.fetch_add(1, Ordering::Relaxed);
    }

    /// See [`Self::streamer_started`].
    pub fn streamer_finished(&self) {
        self.streamers.fetch_sub(1, Ordering::Relaxed);
    }

    /// Live dedicated `/events` streamer threads.
    pub fn streamers(&self) -> u64 {
        self.streamers.load(Ordering::Relaxed)
    }

    /// Folds one request's span profile into the route's aggregate.
    pub fn absorb_profile(&self, route: &str, profile: &Profile) {
        let mut profiles = lock(&self.profiles);
        let rp = profiles.entry(route.to_string()).or_default();
        rp.requests += 1;
        for e in &profile.entries {
            let agg = rp
                .spans
                .entry((e.kind.as_str().to_string(), e.label.clone()))
                .or_default();
            agg.count += e.count;
            agg.total_us += micros(e.total);
            agg.self_us += micros(e.self_time);
        }
    }

    /// Writes one slow-query JSONL record and bumps the counter. The
    /// record is a single line; with no `--slow-log` file it goes to
    /// stdout, tagged so it interleaves recognizably with the access log.
    #[allow(clippy::too_many_arguments)]
    pub fn record_slow(
        &self,
        request_id: &str,
        pattern: &str,
        status: &str,
        elapsed: Duration,
        governor: Option<&Arc<Governor>>,
        stats: &EvalStats,
        profile: &Profile,
    ) {
        self.slow_total.fetch_add(1, Ordering::Relaxed);
        let out = json::object(|w| {
            w.field("log", "slow_query")
                .field("request_id", request_id)
                .field("pattern", pattern)
                .field("status", status)
                .field("elapsed_us", elapsed);
            if let Some(g) = governor {
                let s = g.stats();
                w.key("governor").object(|w| {
                    w.field("iterations", s.iterations)
                        .field("derived", s.derived)
                        .field("held", s.held)
                        .field("checks", s.checks)
                        .field("elapsed_ms", s.elapsed_ms);
                });
            }
            w.field("stats", stats).key("profile").array(|w| {
                for e in &profile.entries {
                    let (total_us, self_us) = (micros(e.total), micros(e.self_time));
                    write_span(w, e.kind.as_str(), &e.label, e.count, total_us, self_us);
                }
            });
        });
        let mut file = lock(&self.slow_log);
        match file.as_mut() {
            Some(w) => {
                let _ = writeln!(w, "{out}");
                let _ = w.flush();
            }
            None => println!("{out}"),
        }
    }

    /// `GET /debug/flight` body: live ring snapshots plus retained dumps.
    pub fn flight_json(&self) -> String {
        let live = itdb_trace::flight::snapshot_all();
        let dumps = lock(&self.dumps);
        json::object(|w| {
            w.field("dumps_total", self.dumps_total())
                .field("live", &live);
            w.key("dumps")
                .array(|w| dumps.iter().for_each(|d| d.write_json(w)));
        })
    }

    /// `GET /debug/profile` body: per-route span aggregates.
    pub fn profile_json(&self) -> String {
        let profiles = lock(&self.profiles).clone();
        json::object(|w| {
            w.key("routes").array(|w| {
                for (route, rp) in &profiles {
                    w.object(|w| {
                        w.field("route", route).field("requests", rp.requests);
                        w.key("spans").array(|w| {
                            for ((kind, label), agg) in &rp.spans {
                                write_span(w, kind, label, agg.count, agg.total_us, agg.self_us);
                            }
                        });
                    });
                }
            });
        })
    }

    /// `GET /debug/requests` body: the in-flight table with live ages and
    /// fuel spent (reads the attached governors' atomic counters).
    pub fn requests_json(&self) -> String {
        let table: Vec<Arc<InFlight>> = lock(&self.in_flight).clone();
        json::object(|w| {
            w.key("in_flight").array(|w| {
                for e in &table {
                    let fuel_spent = lock(&e.governor).as_ref().map_or(0, |g| g.stats().derived);
                    w.object(|w| {
                        w.field("id", &e.id)
                            .field("route", &e.route)
                            .field("age_us", e.started.elapsed())
                            .field("fuel_spent", fuel_spent);
                    });
                }
            });
        })
    }

    /// Live in-flight counts by route (the `itdb_http_in_flight` gauge).
    pub fn in_flight_by_route(&self) -> Vec<(String, u64)> {
        let table = lock(&self.in_flight);
        let mut counts: BTreeMap<String, u64> = BTreeMap::new();
        for e in table.iter() {
            *counts.entry(e.route.clone()).or_default() += 1;
        }
        counts.into_iter().collect()
    }

    /// Flushes the slow-query log file, if any.
    pub fn flush(&self) {
        if let Some(w) = lock(&self.slow_log).as_mut() {
            let _ = w.flush();
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn generated_ids_are_unique_and_inbound_ids_are_honored() {
        let a = request_id_for(None);
        let b = request_id_for(None);
        assert_ne!(a, b);
        assert_eq!(request_id_for(Some("client-7")), "client-7");
        // Blank inbound ids fall back to generation (thus unique).
        assert_ne!(request_id_for(Some("")), request_id_for(Some("")));
        assert_ne!(request_id_for(Some("  ")), request_id_for(Some("  ")));
        let long = "x".repeat(500);
        assert_eq!(request_id_for(Some(&long)).len(), MAX_REQUEST_ID_LEN);
    }

    #[test]
    fn in_flight_table_registers_and_unregisters() {
        let d = Arc::new(DebugState::new(None).unwrap());
        let g1 = d.register("/query", "req-1");
        let _g2 = d.register("/healthz", "req-2");
        let json = d.requests_json();
        assert!(json.contains("\"id\":\"req-1\""), "{json}");
        assert!(json.contains("\"id\":\"req-2\""), "{json}");
        assert_eq!(
            d.in_flight_by_route(),
            vec![("/healthz".to_string(), 1), ("/query".to_string(), 1)]
        );
        drop(g1);
        let json = d.requests_json();
        assert!(!json.contains("req-1"), "{json}");
        assert!(json.contains("req-2"), "{json}");
    }

    #[test]
    fn dumps_are_bounded_and_counted() {
        let d = Arc::new(DebugState::new(None).unwrap());
        for i in 0..(MAX_DUMPS + 3) {
            d.capture_dump("governor_trip", Some(&format!("req-{i}")));
        }
        assert_eq!(d.dumps_total() as usize, MAX_DUMPS + 3);
        let json = d.flight_json();
        // The oldest dumps fell off; the newest survived.
        assert!(!json.contains("\"request_id\":\"req-0\""), "{json}");
        assert!(
            json.contains(&format!("\"request_id\":\"req-{}\"", MAX_DUMPS + 2)),
            "{json}"
        );
    }

    #[test]
    fn slow_records_append_to_the_log_file() {
        let dir = std::env::temp_dir().join(format!("itdb_debug_slow_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("slow.jsonl");
        let d = Arc::new(DebugState::new(Some(&path)).unwrap());
        d.record_slow(
            "req-slow",
            "p[t]",
            "interrupted",
            Duration::from_micros(1234),
            None,
            &EvalStats::default(),
            &Profile::default(),
        );
        d.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1);
        let line = text.lines().next().unwrap();
        assert!(line.contains("\"log\":\"slow_query\""), "{line}");
        assert!(line.contains("\"request_id\":\"req-slow\""), "{line}");
        assert!(line.contains("\"elapsed_us\":1234"), "{line}");
        assert_eq!(d.slow_total(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn profiles_aggregate_by_route_and_span() {
        let d = Arc::new(DebugState::new(None).unwrap());
        let mut p = Profile::default();
        p.entries.push(itdb_trace::ProfileEntry {
            kind: itdb_trace::SpanKind::Evaluate,
            label: "eval".into(),
            count: 1,
            total: std::time::Duration::from_micros(100),
            self_time: std::time::Duration::from_micros(40),
        });
        d.absorb_profile("/query", &p);
        d.absorb_profile("/query", &p);
        let json = d.profile_json();
        assert!(json.contains("\"route\":\"/query\""), "{json}");
        assert!(json.contains("\"requests\":2"), "{json}");
        assert!(
            json.contains("\"count\":2,\"total_us\":200,\"self_us\":80"),
            "{json}"
        );
    }

    /// Replaces the digits after each `"key":` with `0`, for fields that
    /// carry a live clock reading.
    fn mask(json: &str, key: &str) -> String {
        let needle = format!("\"{key}\":");
        let mut out = String::new();
        let mut rest = json;
        while let Some(at) = rest.find(&needle) {
            let end = at + needle.len();
            out.push_str(&rest[..end]);
            out.push('0');
            rest = rest[end..].trim_start_matches(|c: char| c.is_ascii_digit());
        }
        out.push_str(rest);
        out
    }

    /// Byte-exact retained dumps in `/debug/flight`: the `dumps` member
    /// (with and without a request id, threads and their events). The
    /// `live` member is process-wide, so only its framing is pinned.
    #[test]
    fn flight_dumps_render_byte_stably() {
        let d = Arc::new(DebugState::new(None).unwrap());
        {
            let mut dumps = lock(&d.dumps);
            dumps.push_back(FlightDump {
                seq: 0,
                reason: "governor_trip".into(),
                request_id: Some("req-\"a\"".into()),
                at_ms: 1_700_000_000_123,
                threads: vec![ThreadFlight {
                    thread: "itdb-worker-0".into(),
                    dropped: 2,
                    events: vec![itdb_trace::Event {
                        t_us: 5,
                        request_id: Some(Arc::from("req-\"a\"")),
                        kind: itdb_trace::EventKind::GovernorTrip {
                            reason: "fuel exhausted".into(),
                        },
                    }],
                }],
            });
            dumps.push_back(FlightDump {
                seq: 1,
                reason: "shed".into(),
                request_id: None,
                at_ms: 9,
                threads: vec![],
            });
        }
        let json = d.flight_json();
        assert!(json.starts_with("{\"dumps_total\":0,\"live\":["), "{json}");
        assert!(
            json.ends_with(
                "],\"dumps\":[{\"seq\":0,\"reason\":\"governor_trip\",\
                 \"request_id\":\"req-\\\"a\\\"\",\"at_ms\":1700000000123,\
                 \"threads\":[{\"thread\":\"itdb-worker-0\",\"dropped\":2,\
                 \"events\":[{\"event\":\"governor_trip\",\"t_us\":5,\
                 \"reason\":\"fuel exhausted\",\"request_id\":\"req-\\\"a\\\"\"}]}]},\
                 {\"seq\":1,\"reason\":\"shed\",\"at_ms\":9,\"threads\":[]}]}"
            ),
            "{json}"
        );
    }

    /// Byte-exact `/debug/profile`: routes and spans in key order, labels
    /// escaped, durations in microseconds.
    #[test]
    fn profile_json_is_byte_stable() {
        let d = Arc::new(DebugState::new(None).unwrap());
        assert_eq!(d.profile_json(), "{\"routes\":[]}");
        let entry = |kind, label: &str, us| itdb_trace::ProfileEntry {
            kind,
            label: label.into(),
            count: 1,
            total: std::time::Duration::from_micros(us),
            self_time: std::time::Duration::from_micros(us / 2),
        };
        let mut p = Profile::default();
        p.entries
            .push(entry(itdb_trace::SpanKind::Evaluate, "eval", 100));
        p.entries.push(entry(
            itdb_trace::SpanKind::Rule,
            "r0: p[t] <- \"e\"[t].",
            31,
        ));
        d.absorb_profile("/query", &p);
        d.absorb_profile("/facts", &p);
        d.absorb_profile("/query", &p);
        assert_eq!(
            d.profile_json(),
            "{\"routes\":[{\"route\":\"/facts\",\"requests\":1,\"spans\":[\
             {\"kind\":\"evaluate\",\"label\":\"eval\",\"count\":1,\"total_us\":100,\"self_us\":50},\
             {\"kind\":\"rule\",\"label\":\"r0: p[t] <- \\\"e\\\"[t].\",\"count\":1,\
             \"total_us\":31,\"self_us\":15}]},\
             {\"route\":\"/query\",\"requests\":2,\"spans\":[\
             {\"kind\":\"evaluate\",\"label\":\"eval\",\"count\":2,\"total_us\":200,\"self_us\":100},\
             {\"kind\":\"rule\",\"label\":\"r0: p[t] <- \\\"e\\\"[t].\",\"count\":2,\
             \"total_us\":62,\"self_us\":30}]}]}"
        );
    }

    /// Byte-exact `/debug/requests` (ages masked): registration order,
    /// escaped ids, fuel spent read from an attached governor.
    #[test]
    fn requests_json_is_byte_stable() {
        let d = Arc::new(DebugState::new(None).unwrap());
        assert_eq!(d.requests_json(), "{\"in_flight\":[]}");
        let q = d.register("/query", "req-\"q\"");
        let governor = Governor::new(itdb_lrp::GovernorConfig::default());
        governor.note_derived(4).unwrap();
        q.attach_governor(&governor);
        let _h = d.register("/healthz", "h-1");
        assert_eq!(
            mask(&d.requests_json(), "age_us"),
            "{\"in_flight\":[{\"id\":\"req-\\\"q\\\"\",\"route\":\"/query\",\"age_us\":0,\
             \"fuel_spent\":4},{\"id\":\"h-1\",\"route\":\"/healthz\",\"age_us\":0,\
             \"fuel_spent\":0}]}"
        );
    }
}
