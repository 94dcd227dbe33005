//! Seeded input generators. Every input the program under test receives —
//! workload files, shell scripts, query patterns, fact batches — comes from
//! here, and the same seed always yields byte-identical inputs.
//!
//! The generators vary only constants (a time shift, which data value a
//! pattern binds, the op order) with the seed; sizes and program shape are
//! fixed, so the work per operation stays comparable across seeds.

/// SplitMix64: tiny, seedable and stable across platforms and releases.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6a09_e667_f3bc_c908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// A fixed pool of `(course offset, ev offset)` schedules, one per data
/// value, spread over the periods.
fn schedules(n: usize) -> Vec<(u64, u64)> {
    (0..n as u64)
        .map(|k| {
            (
                (k * 37 + 11) % (COURSE_PERIOD - 8),
                (k * 29 + 5) % EV_PERIOD,
            )
        })
        .collect()
}

/// Data values in the `query_eval` program.
pub const QUERY_DATA: usize = 128;
/// EDB period of the `course` relation (the paper's week in hours).
const COURSE_PERIOD: u64 = 168;
/// Period of the `ev` relation.
const EV_PERIOD: u64 = 84;

/// The `query_eval` program family: Example 4.1's `problems` recursion
/// over two temporal arguments, the `indexing_workload` per-value `step`
/// recursion, and a two-argument join of the two on their data column.
/// One evaluation takes tens of milliseconds on a 2-core container.
///
/// The seed shifts the whole time axis: every schedule moves by the same
/// seeded offset, so the model is the seed-0 model translated in time. The
/// work is the same for every seed, including the shell's coalescing,
/// whose cost depends on tuple order and would swing with a reshuffle.
pub fn query_program(seed: u64) -> String {
    let shift = Rng::new(seed).below(EV_PERIOD);
    let mut out = String::new();
    for (k, (o, e)) in schedules(QUERY_DATA).into_iter().enumerate() {
        let o = (o + shift) % COURSE_PERIOD;
        out.push_str(&format!(
            "tuple course ({COURSE_PERIOD}n+{o}, {COURSE_PERIOD}n+{}; v{k}) : T2 = T1 + 2\n",
            (o + 2) % COURSE_PERIOD
        ));
        out.push_str(&format!(
            "tuple ev ({EV_PERIOD}n+{}; v{k})\n",
            (e + shift) % EV_PERIOD
        ));
    }
    out.push_str(QUERY_RULES);
    out
}

const QUERY_RULES: &str = "\
rule problems[t1 + 2, t2 + 2](C) <- course[t1, t2](C).
rule problems[t1 + 48, t2 + 48](C) <- problems[t1, t2](C).
rule step[t + 2](C) <- ev[t](C).
rule step[t + 12](C) <- step[t](C).
rule due[t1, t2](C) <- problems[t1, t2](C), step[t1](C).
";

/// The `query_eval` pattern rotation: four of each kind — bound data,
/// unbound data, temporal selection, extensional predicate.
pub fn query_patterns(seed: u64) -> Vec<String> {
    let mut rng = Rng::new(seed.wrapping_add(1));
    let mut out = Vec::new();
    for _ in 0..4 {
        let k = rng.below(QUERY_DATA as u64);
        out.push(format!("problems[t1, t2](v{k})"));
        out.push("due[t1, t2](C)".to_string());
        out.push(format!("step[{}](C)", 200 + rng.below(COURSE_PERIOD)));
        out.push(format!("ev[t](v{})", rng.below(QUERY_DATA as u64)));
    }
    out
}

/// The `itdb-shell` script: the `query_eval` program plus `eval`.
pub fn shell_script(seed: u64) -> String {
    query_program(seed) + "eval\n"
}

/// Base data values of the `ingest_online` program.
pub const INGEST_BASE: usize = 48;
/// Live asserted facts kept by `ingest_online`: once `WINDOW` facts are
/// live, every write also retracts the oldest one.
pub const WINDOW: usize = 24;

/// The `ingest_online` program: a per-value recursion and a join with a
/// second extensional relation, so every assert and retract moves IDB
/// tuples and every retract runs DRed over a provenance cone.
pub fn ingest_program(seed: u64) -> String {
    // Dealt to the base values in a seeded order; the op stream's many
    // writes average out what the order costs.
    let mut pool = schedules(INGEST_BASE);
    Rng::new(seed.wrapping_add(2)).shuffle(&mut pool);
    let mut out = String::new();
    for (k, (o, e)) in pool.into_iter().enumerate() {
        out.push_str(&format!("tuple ev ({EV_PERIOD}n+{e}; b{k})\n"));
        out.push_str(&format!(
            "tuple course ({COURSE_PERIOD}n+{o}, {COURSE_PERIOD}n+{}; b{k}) : T2 = T1 + 2\n",
            o + 2
        ));
    }
    out.push_str(INGEST_RULES);
    out
}

const INGEST_RULES: &str = "\
rule step[t + 2](C) <- ev[t](C).
rule step[t + 12](C) <- step[t](C).
rule due[t1, t2](C) <- course[t1, t2](C), step[t1](C).
";

/// One operation of the `ingest_online` stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestOp {
    /// `POST /facts`: assert `ev(tuple)` and, once the window is full,
    /// retract the oldest live fact in the same batch.
    Write {
        assert: String,
        retract: Option<String>,
    },
    /// `POST /query` against the resident model.
    Read(String),
}

impl IngestOp {
    /// The `/facts` body of a write, in the server's JSON batch format.
    pub fn facts_body(&self) -> Option<String> {
        let IngestOp::Write { assert, retract } = self else {
            return None;
        };
        let mut body = format!("{{\"facts\":[{{\"pred\":\"ev\",\"tuple\":\"{assert}\"}}");
        if let Some(r) = retract {
            body.push_str(&format!(
                ",{{\"op\":\"retract\",\"pred\":\"ev\",\"tuple\":\"{r}\"}}"
            ));
        }
        body.push_str("]}");
        Some(body)
    }
}

/// The `ingest_online` op stream: `writes` writes in a fixed seeded order
/// with a read after each write with probability one half. Fact `k` is
/// `ev(84n+o; fk)` with a fresh data value, so a retract removes exactly
/// one stored tuple and the live set stays at [`WINDOW`].
pub fn ingest_ops(seed: u64, writes: usize) -> Vec<IngestOp> {
    let mut rng = Rng::new(seed.wrapping_add(3));
    let mut live: std::collections::VecDeque<(usize, String)> = Default::default();
    let mut out = Vec::new();
    for k in 0..writes {
        let assert = format!("({EV_PERIOD}n+{}; f{k})", rng.below(EV_PERIOD));
        let retract = if live.len() == WINDOW {
            live.pop_front().map(|(_, t)| t)
        } else {
            None
        };
        live.push_back((k, assert.clone()));
        out.push(IngestOp::Write { assert, retract });
        if rng.below(2) == 0 {
            let pattern = match rng.below(4) {
                0 => {
                    let (id, _) = &live[rng.below(live.len() as u64) as usize];
                    format!("step[t](f{id})")
                }
                1 => format!("due[t1, t2](b{})", rng.below(INGEST_BASE as u64)),
                2 => format!("step[{}](C)", 200 + rng.below(COURSE_PERIOD)),
                _ => "ev[t](C)".to_string(),
            };
            out.push(IngestOp::Read(pattern));
        }
    }
    out
}

/// Live asserted facts after a prefix of the stream.
#[cfg(test)]
pub fn live_after(ops: &[IngestOp]) -> Vec<String> {
    let mut live: std::collections::VecDeque<String> = Default::default();
    for op in ops {
        if let IngestOp::Write { assert, retract } = op {
            if let Some(r) = retract {
                if let Some(pos) = live.iter().position(|t| t == r) {
                    live.remove(pos);
                }
            }
            live.push_back(assert.clone());
        }
    }
    live.into()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        for seed in [0, 1, 7, 12345] {
            assert_eq!(query_program(seed), query_program(seed));
            assert_eq!(query_patterns(seed), query_patterns(seed));
            assert_eq!(shell_script(seed), shell_script(seed));
            assert_eq!(ingest_program(seed), ingest_program(seed));
            assert_eq!(ingest_ops(seed, 300), ingest_ops(seed, 300));
        }
    }

    #[test]
    fn different_seeds_different_inputs() {
        assert_ne!(query_program(1), query_program(2));
        assert_ne!(ingest_ops(1, 100), ingest_ops(2, 100));
    }

    #[test]
    fn seed_changes_constants_not_sizes() {
        let a = query_program(3);
        let b = query_program(4);
        assert_eq!(a.lines().count(), b.lines().count());
        assert_eq!(
            ingest_ops(3, 200)
                .iter()
                .filter(|o| matches!(o, IngestOp::Write { .. }))
                .count(),
            200
        );
    }

    #[test]
    fn ingest_window_stays_steady() {
        let ops = ingest_ops(9, 500);
        let mut writes = 0;
        for (i, op) in ops.iter().enumerate() {
            if let IngestOp::Write { retract, .. } = op {
                writes += 1;
                let live = live_after(&ops[..=i]).len();
                assert_eq!(live, writes.min(WINDOW), "after write {writes}");
                assert_eq!(retract.is_some(), writes > WINDOW);
            }
        }
    }

    #[test]
    fn facts_body_is_valid_json() {
        let ops = ingest_ops(5, 40);
        for op in &ops {
            if let Some(body) = op.facts_body() {
                let parsed = itdb_serve::ingest::parse_facts_body(&body).expect("body parses");
                let IngestOp::Write { retract, .. } = op else {
                    unreachable!()
                };
                assert_eq!(parsed.len(), 1 + usize::from(retract.is_some()));
            }
        }
    }
}
