//! Answer checking: what the program under test must answer, computed in
//! process from the same generated inputs through the library's own
//! public functions.

use itdb_core::{
    evaluate_with, parse_atom, parse_workload, query, EvalOptions, QueryRequest, QueryResponse,
    QueryStatus, ResidentModel, Service, ServiceDefaults, Workload,
};

/// The part of a `/query` response body that must match: everything before
/// the per-request `stats` (timings) and `request_id`.
pub fn answer_prefix(body: &str) -> &str {
    body.split(",\"stats\":").next().unwrap_or(body)
}

/// Expected `/query` answer prefixes for a per-request-evaluation server,
/// from `Service::run_query` on the same workload.
pub fn expected_service_answers(workload: &Workload, patterns: &[String]) -> Vec<String> {
    let service = Service::new(workload.clone(), ServiceDefaults::default());
    patterns
        .iter()
        .map(|p| {
            let resp = service
                .run_query(&QueryRequest {
                    pattern: p.clone(),
                    fuel: None,
                    timeout: None,
                    request_id: None,
                })
                .expect("generated patterns are answerable");
            assert_eq!(resp.status, QueryStatus::Complete, "{p} converges");
            answer_prefix(&resp.to_json()).to_string()
        })
        .collect()
}

/// What a resident (ingest-mode) `/query` answers for `pattern` on `model`.
pub fn resident_answer(model: &ResidentModel, pattern: &str) -> String {
    let atom = parse_atom(pattern).expect("generated pattern parses");
    let rel = model
        .relation(&atom.pred)
        .expect("generated predicate exists");
    let budget = EvalOptions::default().residue_budget;
    let answers = query(rel, &atom, budget).expect("query succeeds");
    let resp = QueryResponse {
        pred: atom.pred.clone(),
        status: QueryStatus::Complete,
        answers: answers.tuples().iter().map(|t| t.to_string()).collect(),
        stats: Default::default(),
        request_id: None,
    };
    answer_prefix(&resp.to_json()).to_string()
}

/// Do two `/query` answer prefixes denote the same answer? The predicate
/// and status must match, and the answer tuples must match as a multiset:
/// the incremental and the re-evaluated resident model may list the same
/// tuples in a different order.
pub fn same_answer(got: &str, want: &str) -> bool {
    if got == want {
        return true;
    }
    let head = |s: &str| s.split(",\"answers\":").next().map(str::to_string);
    let sorted = |s: &str| {
        let value = itdb_trace::json::parse(&format!("{s}}}")).ok()?;
        let mut answers: Vec<String> = value
            .get("answers")?
            .as_array()?
            .iter()
            .map(|a| a.as_str().map(str::to_string))
            .collect::<Option<_>>()?;
        answers.sort();
        Some(answers)
    };
    head(got) == head(want) && sorted(got).is_some() && sorted(got) == sorted(want)
}

/// The lines `itdb-shell` prints for the model after `eval`, from
/// `evaluate_with` with the shell's coalescing on.
pub fn expected_shell_model(program_text: &str) -> String {
    let workload = parse_workload(program_text).expect("generated workload parses");
    let opts = EvalOptions {
        coalesce: true,
        ..EvalOptions::default()
    };
    let eval = evaluate_with(&workload.program, &workload.edb, &opts).expect("evaluation runs");
    assert!(eval.outcome.converged(), "generated program converges");
    eval.idb
        .iter()
        .map(|(name, rel)| format!("{name} = {rel}"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// The model an `itdb-shell` transcript printed after `eval`: everything
/// after its `outcome:` line.
pub fn shell_model(stdout: &str) -> Option<&str> {
    let start = stdout.find("\noutcome: ")?;
    let rest = &stdout[start + 1..];
    let body = &rest[rest.find('\n')? + 1..];
    Some(body.trim_end())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_strips_stats_and_request_id() {
        let body = r#"{"predicate":"p","status":"complete","answers":["(2n)"],"stats":{"x":1},"request_id":"r"}"#;
        assert_eq!(
            answer_prefix(body),
            r#"{"predicate":"p","status":"complete","answers":["(2n)"]"#
        );
    }

    #[test]
    fn answers_match_in_any_order_and_nothing_else() {
        let a = r#"{"predicate":"p","status":"complete","answers":["(4n)","(4n+2)"]"#;
        let b = r#"{"predicate":"p","status":"complete","answers":["(4n+2)","(4n)"]"#;
        let c = r#"{"predicate":"p","status":"complete","answers":["(4n)"]"#;
        let d = r#"{"predicate":"q","status":"complete","answers":["(4n+2)","(4n)"]"#;
        assert!(same_answer(a, b));
        assert!(!same_answer(a, c));
        assert!(!same_answer(a, d));
    }
}
