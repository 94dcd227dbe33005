//! In-memory span recorder for the traced replay.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions; nothing inside the program is instrumented.
//! Spans stay in memory and are written as JSON lines when the run ends.
//! A disabled recorder runs the closures and records nothing, which is the
//! untraced half of the tracing-overhead comparison.

use std::collections::BTreeMap;
use std::time::Instant;

/// The workspace layer a span's callee belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// The benchmark's own request framing (client side of a request).
    Bench,
    /// `itdb-lrp`: zone/DBM kernel and `GeneralizedRelation`.
    Lrp,
    /// `itdb-core`: engine, service, query, resident model.
    Core,
    /// `itdb-store`: WAL and snapshot store.
    Store,
    /// `itdb-serve`: HTTP framing and ingest pipeline.
    Serve,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Lrp => "lrp",
            Layer::Core => "core",
            Layer::Store => "store",
            Layer::Serve => "serve",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub layer: Layer,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`; spans opened inside `f` become
    /// its children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        layer: Layer,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            name,
            layer,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Self time of each span: its duration minus the part of it covered
    /// by its children (overlapping children are counted once).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut cursor = s.start_ns;
                for (a, b) in kids {
                    let (a, b) = (a.max(cursor), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
                s.dur_ns() - covered
            })
            .collect()
    }

    /// Total self time per layer, in milliseconds, over the spans below
    /// root spans called `root`, and the number of such roots.
    pub fn self_ms_by_layer(&self, root: &str) -> (BTreeMap<Layer, f64>, usize) {
        // Parents are recorded before their children, so one pass finds
        // every span's root.
        let mut roots = Vec::with_capacity(self.spans.len());
        for s in &self.spans {
            let r = s.parent.map_or(s.id, |p| roots[p]);
            roots.push(r);
        }
        let mut out = BTreeMap::new();
        for ((s, t), r) in self.spans.iter().zip(self.self_times_ns()).zip(&roots) {
            if self.spans[*r].name == root {
                *out.entry(s.layer).or_insert(0.0) += t as f64 / 1e6;
            }
        }
        let n = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == root)
            .count();
        (out, n)
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}\n",
                s.id,
                s.name,
                s.layer.name(),
                s.start_ns,
                s.end_ns
            ));
        }
        out
    }

    #[cfg(test)]
    fn push_raw(&mut self, parent: Option<usize>, start_ns: u64, end_ns: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            name: "t",
            layer: Layer::Core,
            start_ns,
            end_ns,
        });
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut r = Recorder::new(true);
        let root = r.push_raw(None, 0, 100);
        let a = r.push_raw(Some(root), 10, 30);
        r.push_raw(Some(root), 50, 90);
        r.push_raw(Some(a), 12, 20);
        assert_eq!(r.self_times_ns(), vec![40, 12, 40, 8]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let mut r = Recorder::new(true);
        let root = r.push_raw(None, 100, 200);
        r.push_raw(Some(root), 110, 150);
        r.push_raw(Some(root), 140, 160);
        r.push_raw(Some(root), 190, 250);
        assert_eq!(r.self_times_ns()[0], 100 - 50 - 10);
    }

    #[test]
    fn nested_spans_record_parents_and_cover_children() {
        let mut r = Recorder::new(true);
        r.span("outer", Layer::Serve, |r| {
            r.span("inner", Layer::Core, |_| std::hint::black_box(1 + 1));
        });
        let spans = r.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let self_ns = r.self_times_ns();
        assert_eq!(self_ns[0] + spans[1].dur_ns(), spans[0].dur_ns());
    }

    #[test]
    fn layer_self_time_counts_only_spans_under_the_named_roots() {
        let mut r = Recorder::new(true);
        let setup = r.push_raw(None, 0, 50);
        r.push_raw(Some(setup), 0, 10);
        let op = r.push_raw(None, 100, 200);
        r.spans[op].name = "op";
        r.spans[op].layer = Layer::Bench;
        r.push_raw(Some(op), 120, 170);
        let (by_layer, n) = r.self_ms_by_layer("op");
        assert_eq!(n, 1);
        assert_eq!(by_layer[&Layer::Bench], 50.0 / 1e6);
        assert_eq!(by_layer[&Layer::Core], 50.0 / 1e6);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false);
        let v = r.span("x", Layer::Core, |_| 7);
        assert_eq!(v, 7);
        assert!(r.spans().is_empty());
    }
}
