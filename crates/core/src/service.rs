//! Shared serving layer: a loaded program + EDB, evaluated once and
//! answered from, or evaluated per request where no finite model exists.
//!
//! This is the model `itdb-serve` (and anything else that wants to answer
//! many queries against one workload) builds on. A [`Workload`] is parsed
//! once from a simple line format — a subset of the shell's script
//! commands, so CI fixtures read the same either way:
//!
//! ```text
//! # comment
//! tuple course (168n+8, 168n+10; database) : T2 = T1 + 2
//! rule problems[t1 + 2, t2 + 2](C) <- course[t1, t2](C).
//! ```
//!
//! ## One read path
//!
//! The paper's least model has a finite closed form, so it is computed
//! once, not re-derived per question. The first [`Service::run_query`]
//! evaluates the program under the server defaults
//! ([`ServiceDefaults`]) behind a `OnceLock`: concurrent first requests
//! wait for that one evaluation instead of repeating it, and its events
//! carry the first request's id. If it converges, the model is kept as a
//! [`ResidentModel`] and every query — the first included — is a
//! [`Service::lookup`] against it, whatever fuel or deadline the request
//! brings. `Service::lookup` is also how ingest mode answers from its
//! incrementally maintained model, so both serving modes share one
//! lookup and one response shape.
//!
//! A workload whose one evaluation diverges or trips its governor has no
//! model to keep. Its queries evaluate the program per request under
//! their **own** [`Governor`] (fuel/deadline from the request, falling
//! back to server defaults) and answer from the sound partial model. A
//! trip in one request is invisible to every other, and with equal
//! budgets the same query always produces byte-identical answers,
//! concurrent or not.
//!
//! ## Statistics across a worker pool
//!
//! `itdb_lrp::stats` counters are **thread-local**. A server that lets
//! each pooled worker evaluate requests cannot recover aggregate numbers
//! by calling `itdb_lrp::stats::snapshot()` from the thread that renders
//! `/metrics` — that thread's counters never moved. Worse, two requests
//! interleaved on one worker would mis-attribute each other's work if the
//! scope weren't per-evaluation. The engine already scopes each
//! evaluation's counters by snapshot subtraction *on the evaluating
//! thread*; [`Service`] completes the story by folding every
//! evaluation's [`EvalStats`] — the one-time evaluation exactly once,
//! then each per-request one — into a mutex-guarded aggregate with
//! [`EvalStats::absorb`]. Lookups derive nothing and fold no engine
//! work, but each counts as a query. The regression test
//! `pooled_workers_fold_stats_exactly` pins both halves down.

// User-reachable serving path: failures must flow through the error
// taxonomy, never panic.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::ast::{Atom, Program};
use crate::db::Database;
use crate::engine::{evaluate_governed, EvalOptions, EvalOutcome, EvalStats, Evaluation};
use crate::parser::{parse_atom, parse_clause};
use crate::query::query;
use crate::resident::ResidentModel;
use itdb_lrp::{
    parser as lrp_parser, Error, GeneralizedRelation, Governor, Result, Schema, TripReason,
};
use itdb_trace::json;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// A parsed serving workload: the deductive program and its extensional
/// database.
#[derive(Debug, Clone, Default)]
pub struct Workload {
    /// The program evaluated per request.
    pub program: Program,
    /// The extensional relations.
    pub edb: Database,
}

impl Workload {
    /// Renders the workload back into the line format [`parse_workload`]
    /// accepts: one `tuple NAME (…)` line per generalized tuple (in
    /// relation order) followed by one `rule CLAUSE.` line per clause.
    /// `parse(w.to_text())` reproduces the workload exactly — the
    /// round-trip the `prop_workload` suite pins down.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (name, rel) in self.edb.iter() {
            for t in rel.tuples() {
                out.push_str(&format!("tuple {name} {t}\n"));
            }
        }
        for c in &self.program.clauses {
            out.push_str(&format!("rule {c}\n"));
        }
        out
    }
}

/// Why one workload line was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadErrorKind {
    /// A `tuple` directive without both a relation name and a tuple.
    MissingTupleParts,
    /// The tuple text did not parse (reason from the lrp parser).
    BadTuple(String),
    /// The tuple parsed but could not join its relation (schema clash).
    BadRelation(String),
    /// The rule text did not parse (reason from the clause parser).
    BadRule(String),
    /// A directive that is not `tuple` or `rule`.
    UnknownDirective(String),
}

impl fmt::Display for WorkloadErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadErrorKind::MissingTupleParts => write!(f, "usage: tuple NAME (…)"),
            WorkloadErrorKind::BadTuple(e) => write!(f, "bad tuple: {e}"),
            WorkloadErrorKind::BadRelation(e) => write!(f, "{e}"),
            WorkloadErrorKind::BadRule(e) => write!(f, "bad rule: {e}"),
            WorkloadErrorKind::UnknownDirective(d) => write!(
                f,
                "unsupported directive `{d}` \
                 (serving workloads are declarative: only `tuple` and `rule`)"
            ),
        }
    }
}

/// A workload parse failure: the offending 1-based line plus a typed
/// reason. Nothing is ever silently skipped — the first bad line aborts
/// the parse and is reported exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What was wrong with it.
    pub kind: WorkloadErrorKind,
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "workload line {}: {}", self.line, self.kind)
    }
}

impl std::error::Error for WorkloadError {}

impl From<WorkloadError> for Error {
    fn from(e: WorkloadError) -> Self {
        Error::Eval(e.to_string())
    }
}

/// Parses the workload line format: blank lines and `#`/`%` comments are
/// skipped; `tuple NAME (…)` adds one generalized tuple to the named
/// relation; `rule CLAUSE.` adds one clause. Anything else — including
/// shell commands like `eval` that make no sense in a declarative
/// workload — is rejected with the offending line number.
pub fn parse_workload(text: &str) -> Result<Workload> {
    parse_workload_typed(text).map_err(Into::into)
}

/// [`parse_workload`] with a structured error: the exact line number and
/// a typed reason ([`WorkloadErrorKind`]) instead of a flattened string.
pub fn parse_workload_typed(text: &str) -> std::result::Result<Workload, WorkloadError> {
    let mut program = Program::default();
    let mut relations: Vec<(String, GeneralizedRelation)> = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        let (cmd, rest) = match line.split_once(char::is_whitespace) {
            Some((c, r)) => (c, r.trim()),
            None => (line, ""),
        };
        let lineno = lineno + 1;
        let fail = |kind: WorkloadErrorKind| WorkloadError { line: lineno, kind };
        match cmd {
            "tuple" => {
                let (name, tuple_text) = rest
                    .split_once(char::is_whitespace)
                    .ok_or_else(|| fail(WorkloadErrorKind::MissingTupleParts))?;
                let tuple = lrp_parser::parse_tuple(tuple_text.trim())
                    .map_err(|e| fail(WorkloadErrorKind::BadTuple(e.to_string())))?;
                let schema = Schema::new(tuple.temporal_arity(), tuple.data_arity());
                match relations.iter_mut().find(|(n, _)| n == name) {
                    Some((_, rel)) => rel
                        .insert(tuple)
                        .map_err(|e| fail(WorkloadErrorKind::BadRelation(e.to_string())))?,
                    None => relations.push((
                        name.to_string(),
                        GeneralizedRelation::from_tuples(schema, vec![tuple])
                            .map_err(|e| fail(WorkloadErrorKind::BadRelation(e.to_string())))?,
                    )),
                }
            }
            "rule" => {
                let clause = parse_clause(rest)
                    .map_err(|e| fail(WorkloadErrorKind::BadRule(e.to_string())))?;
                program.clauses.push(clause);
            }
            other => {
                return Err(fail(WorkloadErrorKind::UnknownDirective(other.to_string())));
            }
        }
    }
    let mut edb = Database::new();
    for (name, rel) in relations {
        edb.insert(name, rel);
    }
    Ok(Workload { program, edb })
}

/// Server-side default resource ceilings: they govern the one-time
/// evaluation, and per-request evaluations that bring none of their own.
#[derive(Debug, Clone, Default)]
pub struct ServiceDefaults {
    /// Default derivation fuel (`None` = unlimited).
    pub fuel: Option<u64>,
    /// Default wall-clock deadline (`None` = unlimited).
    pub timeout: Option<Duration>,
}

/// One query request: a pattern plus optional per-request ceilings.
#[derive(Debug, Clone)]
pub struct QueryRequest {
    /// The atom pattern, e.g. `problems[t, t + 2](database)`.
    pub pattern: String,
    /// Derivation-fuel override for this request (ignored once the
    /// workload has a converged model to look answers up in).
    pub fuel: Option<u64>,
    /// Deadline override for this request (ignored likewise).
    pub timeout: Option<Duration>,
    /// Request id installed as the thread's trace context for the
    /// evaluation (see `itdb_trace::context`) and echoed in the response.
    pub request_id: Option<String>,
}

/// How a served query's evaluation ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryStatus {
    /// The least model was computed exactly.
    Complete,
    /// The model is not finitely representable by this process (or needed
    /// more grace iterations); the answers below are over a sound partial
    /// model.
    Diverged,
    /// The per-request governor tripped; the answers below are over a
    /// sound partial model.
    Interrupted(TripReason),
}

/// The answer to one served query.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// The queried predicate.
    pub pred: String,
    /// How the evaluation backing this answer ended.
    pub status: QueryStatus,
    /// Generalized answer tuples in the textual closed form, one per
    /// tuple, in the deterministic order of the computed relation.
    pub answers: Vec<String>,
    /// Statistics of the evaluation this request ran (already folded
    /// into the service aggregate); all zero for a lookup that ran none.
    pub stats: EvalStats,
    /// The request id this answer belongs to (echoed from the request).
    pub request_id: Option<String>,
}

impl QueryStatus {
    /// The `status` string of `/query` bodies and slow-query records.
    pub fn as_str(&self) -> &'static str {
        match self {
            QueryStatus::Complete => "complete",
            QueryStatus::Diverged => "diverged",
            QueryStatus::Interrupted(_) => "interrupted",
        }
    }
}

impl QueryResponse {
    /// Renders the response as one JSON object (stable field order,
    /// strings escaped).
    pub fn to_json(&self) -> String {
        json::object(|w| {
            w.field("predicate", &self.pred)
                .field("status", self.status.as_str());
            if let QueryStatus::Interrupted(reason) = &self.status {
                w.field("trip", reason.to_string());
            }
            w.field("answers", &self.answers)
                .field("stats", &self.stats);
            // Rendered after `stats` so byte-comparison harnesses that
            // strip everything from `,"stats":` onward keep working.
            if let Some(id) = &self.request_id {
                w.field("request_id", id);
            }
        })
    }
}

/// Aggregate serving counters, folded under one lock.
#[derive(Debug, Clone, Default)]
pub struct ServiceTotals {
    /// Queries answered (any status).
    pub queries: u64,
    /// Queries whose evaluation was interrupted by the governor.
    pub interrupted: u64,
    /// Folded evaluation statistics. `strata` stays empty —
    /// per-stratum timing is a per-evaluation notion, not a fleet one.
    pub stats: EvalStats,
}

/// A workload plus the machinery to answer queries against it repeatedly,
/// safely from many threads at once.
pub struct Service {
    workload: Workload,
    defaults: ServiceDefaults,
    totals: Mutex<ServiceTotals>,
    /// The one-time evaluation: `Some` once it converged, `None` if it
    /// diverged, tripped or failed (per-request evaluation from then on).
    model: OnceLock<Option<ResidentModel>>,
}

impl Service {
    /// Wraps a workload with serving defaults. Nothing is evaluated until
    /// the first query.
    pub fn new(workload: Workload, defaults: ServiceDefaults) -> Self {
        Service {
            workload,
            defaults,
            totals: Mutex::new(ServiceTotals::default()),
            model: OnceLock::new(),
        }
    }

    /// The loaded workload.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// The configured serving defaults.
    pub fn defaults(&self) -> &ServiceDefaults {
        &self.defaults
    }

    /// Locks the totals, recovering from poison. A panicking worker can
    /// only have left the aggregate mid-`absorb` — every field is a plain
    /// counter, so the worst case is one request's stats partially folded;
    /// wedging `/metrics` forever over that would be strictly worse.
    fn lock_totals(&self) -> std::sync::MutexGuard<'_, ServiceTotals> {
        self.totals.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Answers one query: a lookup against the model evaluated once (see
    /// the module docs), or, for a workload that does not converge, a
    /// fresh evaluation under a per-request governor. Extensional
    /// predicates are served straight from the EDB.
    pub fn run_query(&self, req: &QueryRequest) -> Result<QueryResponse> {
        self.run_query_observed(req, |_| {})
    }

    /// [`Self::run_query`], additionally handing `observe` every
    /// [`Governor`] an evaluation for this request runs under, before it
    /// starts: the one-time evaluation if this request triggers it, and
    /// the per-request one if the workload does not converge. The serve
    /// layer uses this to publish the governor in its in-flight request
    /// table — `GovernorStats` is all atomics, so `/debug/requests` can
    /// read fuel spent from another thread while the evaluation runs. A
    /// lookup runs no evaluation and calls `observe` never.
    ///
    /// If the request carries an id, it is installed as the thread's
    /// trace context for the duration, so every event the evaluation
    /// emits carries the id.
    pub fn run_query_observed(
        &self,
        req: &QueryRequest,
        mut observe: impl FnMut(&Arc<Governor>),
    ) -> Result<QueryResponse> {
        let _ctx = req
            .request_id
            .as_deref()
            .map(itdb_trace::context::set_request_id);
        let atom = parse_atom(&req.pattern)?;
        let defaults = self.options(None, None);
        // What this call's own run of the one-time evaluation produced:
        // its stats if it converged, the whole evaluation if it did not.
        let mut ran_stats = None;
        let mut unconverged = None;
        let model = self.model.get_or_init(|| {
            let eval = self.evaluate(&defaults, &mut observe);
            match eval {
                Ok(eval) if matches!(eval.outcome, EvalOutcome::Converged { .. }) => {
                    ran_stats = Some(eval.stats.clone());
                    let w = &self.workload;
                    let kept = ResidentModel::from_evaluation(
                        w.program.clone(),
                        w.edb.clone(),
                        eval,
                        defaults.clone(),
                    );
                    kept.map_err(|e| unconverged = Some(Err(e))).ok()
                }
                other => {
                    unconverged = Some(other);
                    None
                }
            }
        });
        if let Some(model) = model {
            return self.look_up(model, &atom, ran_stats.unwrap_or_default(), req);
        }
        let opts = self.options(req.fuel, req.timeout);
        let eval = match unconverged {
            // The one-time evaluation ran under exactly this request's
            // budget: it is this request's evaluation.
            Some(eval)
                if opts.max_derived_tuples == defaults.max_derived_tuples
                    && opts.timeout == defaults.timeout =>
            {
                eval?
            }
            _ => self.evaluate(&opts, &mut observe)?,
        };
        let status = match &eval.outcome {
            EvalOutcome::Converged { .. } => QueryStatus::Complete,
            EvalOutcome::DivergedAfterFeSafety { .. } => QueryStatus::Diverged,
            EvalOutcome::Interrupted(i) => QueryStatus::Interrupted(i.reason.clone()),
        };
        let rel = eval
            .relation(&atom.pred)
            .or_else(|| self.workload.edb.get(&atom.pred));
        self.answer(
            rel,
            &atom,
            opts.residue_budget,
            status,
            eval.stats.clone(),
            req,
        )
    }

    /// Answers `req` by lookup against `model` — `query()` over its
    /// relations, no evaluation and no governor. This is the read path
    /// for both the model [`Self::run_query`] evaluates once and ingest
    /// mode's incrementally maintained one; the lookup counts as a query
    /// in the totals and its events carry the request's id.
    pub fn lookup(&self, model: &ResidentModel, req: &QueryRequest) -> Result<QueryResponse> {
        let _ctx = req
            .request_id
            .as_deref()
            .map(itdb_trace::context::set_request_id);
        let atom = parse_atom(&req.pattern)?;
        self.look_up(model, &atom, EvalStats::default(), req)
    }

    /// [`Self::lookup`] of a parsed pattern, reporting `stats` as the
    /// evaluation this request ran (if any).
    fn look_up(
        &self,
        model: &ResidentModel,
        atom: &Atom,
        stats: EvalStats,
        req: &QueryRequest,
    ) -> Result<QueryResponse> {
        let rel = model.relation(&atom.pred);
        let budget = model.options().residue_budget;
        self.answer(rel, atom, budget, QueryStatus::Complete, stats, req)
    }

    /// Evaluation options for the given ceilings, falling back to the
    /// server defaults; everything else at the engine defaults
    /// (provenance and coalescing off).
    fn options(&self, fuel: Option<u64>, timeout: Option<Duration>) -> EvalOptions {
        EvalOptions {
            max_derived_tuples: fuel.or(self.defaults.fuel),
            timeout: timeout.or(self.defaults.timeout),
            ..EvalOptions::default()
        }
    }

    /// Evaluates the workload under a fresh governor built from `opts`
    /// and folds the run's stats into the totals (the explicit
    /// cross-thread fold — see the module docs).
    fn evaluate(
        &self,
        opts: &EvalOptions,
        observe: &mut impl FnMut(&Arc<Governor>),
    ) -> Result<Evaluation> {
        let governor = Governor::new(opts.governor_config());
        observe(&governor);
        let eval = evaluate_governed(&self.workload.program, &self.workload.edb, opts, &governor)?;
        self.lock_totals().stats.absorb(&eval.stats);
        Ok(eval)
    }

    /// Runs the pattern against the relation answering its predicate and
    /// counts the query.
    fn answer(
        &self,
        rel: Option<&GeneralizedRelation>,
        atom: &Atom,
        residue_budget: u64,
        status: QueryStatus,
        stats: EvalStats,
        req: &QueryRequest,
    ) -> Result<QueryResponse> {
        let rel = rel.ok_or_else(|| {
            Error::Eval(format!(
                "unknown predicate `{}` (neither derived nor extensional)",
                atom.pred
            ))
        })?;
        let answers_rel = {
            let _span = itdb_trace::span(itdb_trace::SpanKind::Op, "query.lookup");
            query(rel, atom, residue_budget)?
        };
        let answers: Vec<String> = answers_rel.tuples().iter().map(|t| t.to_string()).collect();
        {
            let mut totals = self.lock_totals();
            totals.queries += 1;
            if matches!(status, QueryStatus::Interrupted(_)) {
                totals.interrupted += 1;
            }
        }
        Ok(QueryResponse {
            pred: atom.pred.clone(),
            status,
            answers,
            stats,
            request_id: req.request_id.clone(),
        })
    }

    /// A snapshot of the folded aggregate counters.
    pub fn totals(&self) -> ServiceTotals {
        self.lock_totals().clone()
    }

    /// Replaces the aggregate counters wholesale — the restore half of a
    /// serve-layer checkpoint (counters persisted before a crash carry on
    /// instead of restarting from zero).
    pub fn restore_totals(&self, totals: ServiceTotals) {
        *self.lock_totals() = totals;
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::engine::evaluate_with;

    const WORKLOAD: &str = "\
        # Example 4.1, serving edition.\n\
        tuple course (168n+8, 168n+10; database) : T2 = T1 + 2\n\
        rule problems[t1 + 2, t2 + 2](C) <- course[t1, t2](C).\n\
        rule problems[t1 + 48, t2 + 48](C) <- problems[t1, t2](C).\n";

    const DIVERGING: &str = "\
        tuple seed (n) : T1 = 0\n\
        rule p[t] <- seed[t].\n\
        rule p[t + 1] <- p[t].\n";

    fn service(src: &str) -> Service {
        Service::new(parse_workload(src).unwrap(), ServiceDefaults::default())
    }

    fn req(pattern: &str, fuel: Option<u64>) -> QueryRequest {
        QueryRequest {
            pattern: pattern.to_string(),
            fuel,
            timeout: None,
            request_id: None,
        }
    }

    #[test]
    fn workload_parses_tuples_and_rules() {
        let w = parse_workload(WORKLOAD).unwrap();
        assert_eq!(w.program.clauses.len(), 2);
        assert_eq!(w.edb.len(), 1);
    }

    #[test]
    fn workload_rejects_non_declarative_directives() {
        let err = parse_workload("tuple p (n)\neval\n").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 2"), "{msg}");
        assert!(msg.contains("eval"), "{msg}");
        assert!(parse_workload("tuple p\n").is_err(), "missing tuple text");
        assert!(parse_workload("rule p[t] <-\n").is_err(), "bad clause");
    }

    #[test]
    fn query_answers_in_closed_form() {
        let s = service(WORKLOAD);
        let resp = s
            .run_query(&req("problems[t, t + 2](database)", None))
            .unwrap();
        assert_eq!(resp.status, QueryStatus::Complete);
        assert!(!resp.answers.is_empty());
        let json = resp.to_json();
        assert!(json.contains("\"status\":\"complete\""), "{json}");
        assert!(json.contains("\"answers\":["), "{json}");
    }

    #[test]
    fn extensional_predicates_are_queryable() {
        let s = service(WORKLOAD);
        let resp = s.run_query(&req("course[t1, t2](C)", None)).unwrap();
        assert_eq!(resp.status, QueryStatus::Complete);
        assert_eq!(resp.answers.len(), 1);
    }

    #[test]
    fn unknown_predicate_is_a_proper_error() {
        let s = service(WORKLOAD);
        assert!(s.run_query(&req("nope[t]", None)).is_err());
    }

    #[test]
    fn per_request_fuel_isolates_trips() {
        let s = service(DIVERGING);
        // A starved request trips …
        let starved = s.run_query(&req("p[t]", Some(3))).unwrap();
        assert!(matches!(starved.status, QueryStatus::Interrupted(_)));
        // … and still answers from the sound partial model.
        assert!(!starved.answers.is_empty());
        // A well-fed diverging request reports divergence (grace ran out)
        // without inheriting the starved request's trip.
        let t = s.totals();
        assert_eq!(t.queries, 1);
        assert_eq!(t.interrupted, 1);
    }

    /// The request-id chain at the service layer: the id is installed as
    /// the trace context for exactly the duration of the evaluation, every
    /// emitted event carries it, and the response echoes it after `stats`
    /// so byte-comparison harnesses that strip from `,"stats":` onward are
    /// unaffected.
    #[test]
    fn request_id_is_echoed_and_stamped_on_every_event() {
        let s = service(WORKLOAD);
        let mut r = req("problems[t, t + 2](database)", None);
        r.request_id = Some("req-echo-42".into());
        let mem = std::sync::Arc::new(itdb_trace::MemorySink::new());
        let sink = itdb_trace::add_sink(mem.clone());
        let resp = s.run_query(&r);
        itdb_trace::remove_sink(sink);
        let resp = resp.unwrap();
        assert_eq!(resp.request_id.as_deref(), Some("req-echo-42"));
        let json = resp.to_json();
        assert!(json.ends_with(",\"request_id\":\"req-echo-42\"}"), "{json}");
        let events = mem.take();
        assert!(!events.is_empty(), "evaluation must emit events");
        for e in &events {
            assert_eq!(
                e.request_id.as_deref(),
                Some("req-echo-42"),
                "unstamped event: {}",
                e.to_json()
            );
        }
        assert_eq!(
            itdb_trace::current_request_id(),
            None,
            "context must not leak past the request"
        );
    }

    /// `run_query_observed` publishes the per-request governor before
    /// evaluation; its stats stay readable (all atomics) from the
    /// observer's copy while and after the query runs.
    #[test]
    fn observed_governor_reports_fuel_spent() {
        let s = service(DIVERGING);
        let mut observed = None;
        let resp = s
            .run_query_observed(&req("p[t]", Some(5)), |g| observed = Some(Arc::clone(g)))
            .unwrap();
        let governor = observed.expect("observer ran");
        assert!(matches!(resp.status, QueryStatus::Interrupted(_)));
        assert!(
            governor.stats().derived >= 5,
            "fuel spent visible cross-thread (saw {})",
            governor.stats().derived
        );
    }

    #[test]
    fn equal_budgets_give_byte_identical_answers() {
        let s = service(DIVERGING);
        let a = s.run_query(&req("p[t]", Some(5))).unwrap();
        let b = s.run_query(&req("p[t]", Some(5))).unwrap();
        // Everything but wall-clock timing is deterministic.
        assert_eq!(a.answers, b.answers);
        assert_eq!(a.status, b.status);
        assert_eq!(a.stats.tuples_derived, b.stats.tuples_derived);
        assert_eq!(a.stats.counters, b.stats.counters);
    }

    /// A worker panicking while holding the totals lock poisons it; the
    /// service must keep serving real numbers (and keep folding new ones)
    /// instead of wedging `/metrics` with defaults forever.
    #[test]
    fn poisoned_totals_recover_instead_of_wedging() {
        // DIVERGING: every query evaluates, so each one folds new stats.
        let s = std::sync::Arc::new(service(DIVERGING));
        s.run_query(&req("p[t]", None)).unwrap();
        let before = s.totals();
        assert_eq!(before.queries, 1);
        // Poison the mutex: panic while holding the guard.
        let poisoner = std::sync::Arc::clone(&s);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.lock_totals();
            panic!("injected worker panic");
        })
        .join();
        assert!(s.totals.is_poisoned());
        // Reads still see the true aggregate …
        assert_eq!(s.totals().queries, 1);
        // … and new requests still fold into it.
        s.run_query(&req("p[t]", None)).unwrap();
        let after = s.totals();
        assert_eq!(after.queries, 2);
        assert!(after.stats.tuples_derived > before.stats.tuples_derived);
        // restore_totals also works through the poison.
        s.restore_totals(ServiceTotals::default());
        assert_eq!(s.totals().queries, 0);
    }

    /// The tentpole regression: N pooled workers answer queries; the
    /// coordinator's thread-local counters see nothing, while the folded
    /// aggregate equals the sum of the per-request stats exactly. On
    /// DIVERGING, the workload that still evaluates per request.
    #[test]
    fn pooled_workers_fold_stats_exactly() {
        let s = std::sync::Arc::new(service(DIVERGING));
        let coordinator_before = itdb_lrp::stats::snapshot();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = std::sync::Arc::clone(&s);
                std::thread::spawn(move || s.run_query(&req("p[t]", None)).map(|r| r.stats))
            })
            .collect();
        let mut expected = EvalStats::default();
        for h in handles {
            let stats = h.join().map_err(|_| "worker panicked").unwrap().unwrap();
            assert!(
                stats.counters.subsumption_checks > 0,
                "per-request stats must reflect the evaluating worker's work"
            );
            expected.absorb(&stats);
        }
        let coordinator_delta = itdb_lrp::stats::snapshot() - coordinator_before;
        assert_eq!(
            coordinator_delta,
            itdb_lrp::stats::Counters::default(),
            "snapshotting from the coordinator would mis-attribute (see module docs)"
        );
        let totals = s.totals();
        assert_eq!(totals.queries, 4);
        assert_eq!(totals.stats.counters, expected.counters);
        assert_eq!(totals.stats.tuples_derived, expected.tuples_derived);
        assert_eq!(totals.stats.tuples_inserted, expected.tuples_inserted);
    }

    /// The one read path: N concurrent first queries on a converging
    /// workload share one evaluation. Its stats are folded once, equal to
    /// a standalone `evaluate_with` run's, and every query is counted.
    #[test]
    fn concurrent_first_queries_evaluate_once() {
        const N: usize = 6;
        let s = std::sync::Arc::new(service(WORKLOAD));
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(N));
        let handles: Vec<_> = (0..N)
            .map(|_| {
                let (s, barrier) = (Arc::clone(&s), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    barrier.wait();
                    s.run_query(&req("problems[t, t + 2](database)", None))
                })
            })
            .collect();
        let mut evaluated = 0;
        for h in handles {
            let resp = h.join().unwrap().unwrap();
            assert_eq!(resp.status, QueryStatus::Complete);
            evaluated += usize::from(resp.stats.tuples_derived > 0);
        }
        assert_eq!(evaluated, 1, "exactly one request ran the evaluation");
        // The reference run on a fresh thread: the lrp counters are
        // thread-local, and the pool's threads all started cold too.
        let w = parse_workload(WORKLOAD).unwrap();
        let once = std::thread::spawn(move || {
            evaluate_with(&w.program, &w.edb, &EvalOptions::default()).map(|e| e.stats)
        })
        .join()
        .unwrap()
        .unwrap();
        let totals = s.totals();
        assert_eq!(totals.queries, N as u64);
        assert_eq!(totals.interrupted, 0);
        assert_eq!(totals.stats.tuples_derived, once.tuples_derived);
        assert_eq!(totals.stats.tuples_inserted, once.tuples_inserted);
        assert_eq!(totals.stats.tuples_subsumed, once.tuples_subsumed);
        assert_eq!(totals.stats.counters, once.counters);
        // Later queries are lookups: counted, but fold no engine work.
        let later = s.run_query(&req("course[t1, t2](C)", None)).unwrap();
        assert_eq!(later.stats.tuples_derived, 0);
        let after = s.totals();
        assert_eq!(after.queries, N as u64 + 1);
        assert_eq!(after.stats.tuples_derived, once.tuples_derived);
    }

    /// Lookups answer byte for byte what `evaluate_with` + `query` answer,
    /// up to `stats`: IDB patterns, EDB patterns and bound-data patterns.
    #[test]
    fn lookups_match_evaluate_then_query_byte_for_byte() {
        let s = service(WORKLOAD);
        let w = parse_workload(WORKLOAD).unwrap();
        let opts = EvalOptions::default();
        let eval = evaluate_with(&w.program, &w.edb, &opts).unwrap();
        let patterns = [
            "problems[t1, t2](C)",
            "problems[t, t + 2](database)",
            "problems[t1, t2](logic)",
            "course[t1, t2](C)",
            "course[t1, t2](database)",
        ];
        for pattern in patterns {
            let got = s.run_query(&req(pattern, None)).unwrap();
            let atom = parse_atom(pattern).unwrap();
            let rel = eval
                .relation(&atom.pred)
                .or_else(|| w.edb.get(&atom.pred))
                .unwrap();
            let want = QueryResponse {
                pred: atom.pred.clone(),
                status: QueryStatus::Complete,
                answers: query(rel, &atom, opts.residue_budget)
                    .unwrap()
                    .tuples()
                    .iter()
                    .map(|t| t.to_string())
                    .collect(),
                stats: EvalStats::default(),
                request_id: None,
            };
            let prefix = |r: &QueryResponse| {
                let json = r.to_json();
                json.split(",\"stats\":").next().unwrap().to_string()
            };
            assert_eq!(prefix(&got), prefix(&want), "{pattern}");
        }
    }

    /// Once the workload has a converged model, a request's fuel ceiling
    /// has nothing left to govern: even fuel 1 answers `complete`.
    #[test]
    fn starved_fuel_on_a_converging_workload_answers_complete() {
        let s = service(WORKLOAD);
        let first = s.run_query(&req("problems[t, t + 2](database)", Some(1)));
        let again = s.run_query(&req("problems[t, t + 2](database)", Some(1)));
        for resp in [first.unwrap(), again.unwrap()] {
            assert_eq!(resp.status, QueryStatus::Complete);
            assert!(!resp.answers.is_empty());
        }
        assert_eq!(s.totals().interrupted, 0);
    }

    /// Ingest mode's resident model and the one-time model answer through
    /// the same lookup with the same bytes.
    #[test]
    fn lookup_on_a_resident_model_matches_run_query() {
        let s = service(WORKLOAD);
        let w = parse_workload(WORKLOAD).unwrap();
        let model = ResidentModel::new(w.program, w.edb, EvalOptions::default()).unwrap();
        let r = req("problems[t, t + 2](database)", None);
        let looked_up = s.lookup(&model, &r).unwrap();
        let served = s.run_query(&r).unwrap();
        let prefix =
            |r: &QueryResponse| r.to_json().split(",\"stats\":").next().unwrap().to_string();
        assert_eq!(prefix(&looked_up), prefix(&served));
        assert!(s.lookup(&model, &req("nope[t]", None)).is_err());
        assert_eq!(s.totals().queries, 2, "lookups count as queries");
    }

    /// Byte-exact `/query` bodies: complete and interrupted (with the
    /// `trip` member), each with and without a request id, answers and
    /// strings escaped, `stats` rendered in place and `request_id` last.
    #[test]
    fn response_json_is_byte_stable() {
        let stats = EvalStats {
            tuples_derived: 3,
            tuples_inserted: 2,
            tuples_subsumed: 1,
            strata: vec![crate::engine::StratumStats {
                preds: vec!["p".into()],
                iterations: 4,
                inserted: 2,
                elapsed: Duration::from_micros(42),
            }],
            elapsed: Duration::from_micros(77),
            ..Default::default()
        };
        let stats_json = "{\"tuples_derived\":3,\"tuples_inserted\":2,\"tuples_subsumed\":1,\
             \"counters\":{\"subsumption_checks\":0,\"index_candidates\":0,\
             \"index_scanned_naive\":0,\"canonical_cache_hits\":0,\
             \"canonical_cache_misses\":0,\"empty_cache_hits\":0,\
             \"empty_cache_misses\":0,\"canonicalize_calls\":0},\
             \"strata\":[{\"preds\":[\"p\"],\"iterations\":4,\"inserted\":2,\
             \"elapsed_us\":42}],\"elapsed_us\":77}";
        let mut resp = QueryResponse {
            pred: "problems".into(),
            status: QueryStatus::Complete,
            answers: vec![
                "(168n+10, 168n+12; database)".into(),
                "(2n; \"quoted\\path\")".into(),
            ],
            stats,
            request_id: None,
        };
        let complete = format!(
            "{{\"predicate\":\"problems\",\"status\":\"complete\",\
             \"answers\":[\"(168n+10, 168n+12; database)\",\
             \"(2n; \\\"quoted\\\\path\\\")\"],\"stats\":{stats_json}}}"
        );
        assert_eq!(resp.to_json(), complete);
        resp.request_id = Some("req-\"1\"".into());
        assert_eq!(
            resp.to_json(),
            format!(
                "{}{}",
                &complete[..complete.len() - 1],
                ",\"request_id\":\"req-\\\"1\\\"\"}"
            )
        );

        let mut tripped = QueryResponse {
            pred: "p".into(),
            status: QueryStatus::Interrupted(TripReason::TupleFuelExhausted {
                derived: 3,
                limit: 3,
            }),
            answers: vec![],
            stats: EvalStats::default(),
            request_id: None,
        };
        let zero_stats = "{\"tuples_derived\":0,\"tuples_inserted\":0,\"tuples_subsumed\":0,\
             \"counters\":{\"subsumption_checks\":0,\"index_candidates\":0,\
             \"index_scanned_naive\":0,\"canonical_cache_hits\":0,\
             \"canonical_cache_misses\":0,\"empty_cache_hits\":0,\
             \"empty_cache_misses\":0,\"canonicalize_calls\":0},\
             \"strata\":[],\"elapsed_us\":0}";
        let trip = TripReason::TupleFuelExhausted {
            derived: 3,
            limit: 3,
        }
        .to_string();
        assert_eq!(
            tripped.to_json(),
            format!(
                "{{\"predicate\":\"p\",\"status\":\"interrupted\",\"trip\":\"{trip}\",\
                 \"answers\":[],\"stats\":{zero_stats}}}"
            )
        );
        tripped.request_id = Some("abc-000001".into());
        assert_eq!(
            tripped.to_json(),
            format!(
                "{{\"predicate\":\"p\",\"status\":\"interrupted\",\"trip\":\"{trip}\",\
                 \"answers\":[],\"stats\":{zero_stats},\"request_id\":\"abc-000001\"}}"
            )
        );
        tripped.status = QueryStatus::Diverged;
        tripped.request_id = None;
        assert_eq!(
            tripped.to_json(),
            format!(
                "{{\"predicate\":\"p\",\"status\":\"diverged\",\
                 \"answers\":[],\"stats\":{zero_stats}}}"
            )
        );
    }
}
