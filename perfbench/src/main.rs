//! `perfbench` — the itdb benchmark, end to end and per layer.
//!
//! ```text
//! perfbench --workload query_eval|ingest_online --seed N \
//!           --seconds S --trace 0|1 --itdb PATH --shell PATH [--dir DIR]
//! ```
//!
//! `--trace 0` drives the real binaries from outside and prints the
//! end-to-end metrics; `--trace 1` prints the per-layer metrics of a traced
//! replay. Every run checks every answer; the last stdout line is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`, and any wrong,
//! failed or refused operation makes the exit code nonzero. See README.md.

mod check;
mod e2e;
mod gen;
mod loadgen;
mod proc;
mod span;
mod stats;
mod traced;

use std::path::PathBuf;
use std::process::ExitCode;

/// One run's settings.
pub struct Env {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub itdb: PathBuf,
    pub shell: PathBuf,
    /// Scratch directory for generated files, WALs and span dumps
    /// (`--dir` joined with the workload name).
    pub dir: PathBuf,
}

/// One named metric with its unit and sample count.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub n: usize,
    pub note: String,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64, n: usize) -> Self {
        Metric {
            name: name.into(),
            unit,
            value,
            n,
            note: String::new(),
        }
    }

    fn with_note(mut self, note: String) -> Self {
        self.note = note;
        self
    }
}

/// Seconds the CPU probe (`e2e::cpu_probe`) takes on the 2-core VM the
/// benchmark was sized on: the reference speed `setup_s` is scaled to.
pub const PROBE_REF_S: f64 = 1.1e-3;

/// One batch of set-ups, each with a CPU probe taken just before it.
#[derive(Debug, Default)]
pub struct SetupBatch {
    pub setup_s: Vec<f64>,
    pub probe_s: Vec<f64>,
}

/// What a run measured: the metrics of the final JSON line, further
/// workload-specific figures printed in the table only, and the operation
/// accounting.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub reported: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub flags: Vec<String>,
}

impl Outcome {
    pub fn new(attempted: u64, failed: u64) -> Self {
        Outcome {
            metrics: Vec::new(),
            reported: Vec::new(),
            attempted,
            failed,
            flags: Vec::new(),
        }
    }

    pub fn push(&mut self, m: Metric) {
        self.metrics.push(m);
    }

    pub fn report(&mut self, m: Metric) {
        self.reported.push(m);
    }

    /// `setup_s`. Per batch, the fastest set-up is divided by the fastest
    /// CPU probe taken beside it; `setup_s` is the median over batches,
    /// scaled to seconds at the speed where the probe takes
    /// [`PROBE_REF_S`]. Contention from outside only ever adds time, so a
    /// batch's fastest set-up is its least disturbed one, and the median
    /// drops batches a slow phase covered whole. The probe cancels the
    /// slower drift of the machine's CPU speed. The unscaled median and the
    /// probe go to the table.
    pub fn push_setup(&mut self, batches: &[SetupBatch]) {
        let fastest = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
        let wall: Vec<f64> = batches.iter().map(|b| fastest(&b.setup_s)).collect();
        let probe: Vec<f64> = batches.iter().map(|b| fastest(&b.probe_s)).collect();
        let scaled: Vec<f64> = wall
            .iter()
            .zip(&probe)
            .map(|(w, p)| w / p * PROBE_REF_S)
            .collect();
        let n = batches.iter().map(|b| b.setup_s.len()).sum();
        let note = format!("median of {} batch minima", batches.len());
        self.push(
            Metric::new("setup_s", "s", stats::median(&scaled), n)
                .with_note(format!("{note}, at the reference CPU speed")),
        );
        self.report(Metric::new("setup_wall_s", "s", stats::median(&wall), n).with_note(note));
        self.report(
            Metric::new("cpu_probe_ms", "ms", stats::median(&probe) * 1e3, n)
                .with_note(format!("reference {} ms", PROBE_REF_S * 1e3)),
        );
    }

    fn latency_pair(prefix: &str, tail_name: &str, s: &stats::Summary) -> [Metric; 2] {
        [
            Metric::new(format!("{prefix}_p50_ms"), "ms", s.median, s.n),
            Metric::new(format!("{prefix}_{tail_name}_ms"), "ms", s.tail, s.n)
                .with_note(format!("p{:.1} of {} samples", s.tail_pct, s.n)),
        ]
    }

    /// `<prefix>_p50_ms` in the JSON line, `<prefix>_tail_ms` in the table
    /// only: on a shared host the tail follows the neighbours' load more
    /// than the program (README, "Why the tail is not gated").
    pub fn push_latency(&mut self, prefix: &str, s: &stats::Summary) {
        let [p50, tail] = Self::latency_pair(prefix, "tail", s);
        self.push(p50);
        self.report(tail);
    }

    /// `<prefix>_p50_ms` and `<prefix>_p99_ms` (the tail percentile; its
    /// actual rank is in the note), table only.
    pub fn report_latency(&mut self, prefix: &str, s: &stats::Summary) {
        for m in Self::latency_pair(prefix, "p99", s) {
            self.report(m);
        }
    }
}

static COMPLAINTS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// Reports a failed or wrong operation on stderr (the first few in full;
/// all of them count in `failed`).
pub fn complain(msg: &str) {
    if COMPLAINTS.fetch_add(1, std::sync::atomic::Ordering::Relaxed) < 5 {
        let cut: String = msg.chars().take(600).collect();
        eprintln!("perfbench: {cut}");
    }
}

pub const WORKLOADS: [&str; 2] = ["query_eval", "ingest_online"];

/// The run's settings, whether it is traced, and provenance to record.
type Args = (Env, bool, Vec<(String, String)>);

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut itdb, mut shell, mut dir) = (None, None, PathBuf::from(".bench_run"));
    let mut info = Vec::new();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => trace = Some(value == "1"),
            "--itdb" => itdb = Some(PathBuf::from(value)),
            "--shell" => shell = Some(PathBuf::from(value)),
            "--dir" => dir = PathBuf::from(value),
            // Provenance recorded verbatim in the output header.
            "--commit" | "--rustc" => info.push((flag[2..].to_string(), value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let dir = dir.join(&workload);
    let env = Env {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        itdb: itdb.ok_or("--itdb is required")?,
        shell: shell.ok_or("--shell is required")?,
        dir,
    };
    Ok((env, trace.ok_or("--trace is required")?, info))
}

/// Median seconds of a small synced write in the run directory: the
/// `fsync` cost behind `--wal-fsync always` on this disk.
fn fsync_ms(dir: &std::path::Path) -> std::io::Result<f64> {
    use std::io::Write;
    let path = dir.join("fsync.probe");
    let mut f = std::fs::File::create(&path)?;
    let mut samples = Vec::new();
    for _ in 0..20 {
        f.write_all(&[0u8; 128])?;
        let t = std::time::Instant::now();
        f.sync_all()?;
        samples.push(t.elapsed().as_secs_f64() * 1e3);
    }
    drop(f);
    std::fs::remove_file(&path)?;
    Ok(stats::median(&samples))
}

fn fmt_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let (env, trace, info) = match parse_args() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&env.dir) {
        eprintln!("perfbench: cannot create {}: {e}", env.dir.display());
        return ExitCode::from(2);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let fsync = fsync_ms(&env.dir).unwrap_or(f64::NAN);
    let result = if trace {
        traced::run(&env)
    } else {
        match env.workload.as_str() {
            "query_eval" => e2e::query_eval(&env),
            _ => e2e::ingest_online(&env),
        }
    };
    let out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", env.workload);
            return ExitCode::from(1);
        }
    };

    let mut header = format!(
        "# workload={} seed={} seconds={} trace={} nproc={nproc}",
        env.workload,
        env.seed,
        env.seconds,
        u8::from(trace)
    );
    for (k, v) in &info {
        header.push_str(&format!(" {k}={v}"));
    }
    println!("{header}");
    println!(
        "# server flags: {}  (fsync policy: {})",
        if out.flags.is_empty() {
            "-".to_string()
        } else {
            out.flags.join(" ")
        },
        if out.flags.iter().any(|f| f == "--wal") {
            "always"
        } else {
            "n/a"
        }
    );
    println!(
        "# latencies are this machine's: SIGKILL keeps the page cache, and fsync measured {fsync:.3} ms here"
    );
    println!(
        "# {:<28} {:>14} {:<6} {:>7}  note",
        "metric", "value", "unit", "n"
    );
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    let table_only = Metric::new("ops_failed_frac", "1", failed_frac, out.attempted as usize)
        .with_note(format!("{} of {} operations", out.failed, out.attempted));
    for m in out.metrics.iter().chain(&out.reported).chain([&table_only]) {
        println!(
            "  {:<28} {:>14.4} {:<6} {:>7}  {}",
            m.name, m.value, m.unit, m.n, m.note
        );
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                fmt_value(m.value),
                m.unit
            )
        })
        .collect();
    let correct = out.failed == 0 && out.attempted > 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} of {} operations failed or answered wrongly",
            out.failed, out.attempted
        );
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::{Outcome, SetupBatch, PROBE_REF_S};

    #[test]
    fn setup_is_the_median_of_scaled_batch_minima() {
        let batch = |setup_s: [f64; 2], probe_s: [f64; 2]| SetupBatch {
            setup_s: setup_s.to_vec(),
            probe_s: probe_s.to_vec(),
        };
        let mut out = Outcome::new(1, 0);
        // Fastest set-up over fastest probe: 1/2, 8/2 and 2/1.
        out.push_setup(&[
            batch([3.0, 1.0], [2.0, 4.0]),
            batch([9.0, 8.0], [2.0, 3.0]),
            batch([2.0, 5.0], [1.0, 1.5]),
        ]);
        let m = &out.metrics[0];
        assert_eq!((m.name.as_str(), m.n), ("setup_s", 6));
        assert!((m.value - 2.0 * PROBE_REF_S).abs() < 1e-12, "{}", m.value);
        // The unscaled median of the batch minima goes to the table.
        assert_eq!(out.reported[0].value, 2.0);
    }
}
