//! # itdb-serve — long-running HTTP serve mode
//!
//! A zero-dependency HTTP/1.1 server (hand-rolled over
//! `std::net::TcpListener`, since the workspace builds offline) that keeps
//! one parsed workload resident and answers queries against it
//! repeatedly: by lookup over its model, evaluated once on the first
//! query, or — for a workload that does not converge — by a per-request
//! evaluation under the request's **own** resource governor:
//!
//! | Endpoint        | What it does                                          |
//! |-----------------|-------------------------------------------------------|
//! | `GET /healthz`  | liveness probe, `200 ok`                              |
//! | `GET /metrics`  | Prometheus text: engine counters + HTTP families      |
//! | `POST /query`   | body = query pattern; `X-Itdb-Fuel` / `X-Itdb-Timeout-Ms` headers override the server's default ceilings where a request evaluates; `X-Itdb-Request-Id` honored or generated, echoed in JSON and headers; JSON answer with status `complete` / `diverged` / `interrupted` |
//! | `GET /events`   | live JSONL stream of trace events (chunked), bounded per-client queues, served by dedicated streamer threads |
//! | `GET /debug/flight` | flight-recorder snapshot: live per-thread event rings + dumps retained from trips/panics/sheds |
//! | `GET /debug/profile` | per-route span-profile aggregates |
//! | `GET /debug/requests` | in-flight request table (id, route, age, fuel spent) |
//!
//! The interesting invariants live in [`server`]'s module docs: fan-out
//! sinks are installed per worker thread (the trace registry is
//! thread-local), `/query` has one read path, per-request governors
//! isolate trips where a workload does not converge, and evaluation
//! statistics are folded into the aggregate explicitly rather than read
//! from thread-local counters at `/metrics` render time.
//!
//! ```no_run
//! use itdb_serve::{ServeConfig, Server};
//! use itdb_core::{parse_workload, CancelToken};
//!
//! let workload = parse_workload("tuple sched (24n)\nrule p[t] <- sched[t].").unwrap();
//! let server = Server::bind("127.0.0.1:7464", workload, ServeConfig::default()).unwrap();
//! let shutdown = CancelToken::new();
//! server.run(&shutdown).unwrap(); // Ctrl-C handler cancels `shutdown`
//! ```

#![warn(missing_docs)]

#[cfg(feature = "chaos")]
pub mod chaos;
pub mod debug;
pub mod durability;
pub mod http;
pub mod ingest;
pub mod metrics;
pub mod server;
pub mod shed;

pub use debug::DebugState;
pub use durability::Durability;
pub use ingest::{Ingest, IngestConfig, IngestError, IngestOutcome};
// Re-exported so embedders (and the `itdb` binary) can configure the WAL
// without depending on `itdb-store` directly.
pub use itdb_store::{FsyncPolicy, WalOptions};
pub use metrics::HttpMetrics;
pub use server::{ServeConfig, Server};
pub use shed::{Admission, AdmissionControl};
