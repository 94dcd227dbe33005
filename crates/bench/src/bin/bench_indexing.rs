//! Indexing benchmark driver: writes `BENCH_indexing.json` and fails on
//! regression.
//!
//! ```text
//! cargo run -p itdb-bench --release --bin bench_indexing [--quick] [--out PATH]
//! ```
//!
//! Runs the join-heavy fixpoint workload with the data-vector index on and
//! off, prints the JSON report, and writes it to `--out` (default
//! `BENCH_indexing.json`). Exit codes: `2` if the indexed evaluation is
//! slower than the full-scan one (perf regression), `3` if the two models
//! are not semantically equivalent (correctness regression), `4` if the
//! *disabled* observability path (request-id context armed, no sinks)
//! costs more than 25% over the plain evaluation.

use itdb_bench::indexing::run_indexing;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut out = String::from("BENCH_indexing.json");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => match it.next() {
                Some(path) => out = path.clone(),
                None => {
                    eprintln!("--out needs a path");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!(
                    "unknown argument `{other}` (usage: bench_indexing [--quick] [--out PATH])"
                );
                std::process::exit(2);
            }
        }
    }

    let report = run_indexing(quick);
    let json = report.to_json() + "\n";
    print!("{json}");
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(2);
    }

    if !report.equivalent {
        eprintln!("FAIL: indexed and full-scan evaluation disagree semantically");
        std::process::exit(3);
    }
    if report.speedup < 1.0 {
        eprintln!(
            "FAIL: indexed evaluation is slower than the full scan ({:.3} ms vs {:.3} ms)",
            report.indexed_ms, report.naive_ms
        );
        std::process::exit(2);
    }
    if report.disabled_path_overhead > 1.25 {
        eprintln!(
            "FAIL: disabled observability path costs {:.1}% over plain evaluation (budget 25%)",
            (report.disabled_path_overhead - 1.0) * 100.0
        );
        std::process::exit(4);
    }
    eprintln!(
        "ok: {:.2}x speedup ({:.3} ms indexed vs {:.3} ms full scan), \
         disabled-path overhead {:.1}%, report in {out}",
        report.speedup,
        report.indexed_ms,
        report.naive_ms,
        (report.disabled_path_overhead - 1.0) * 100.0
    );
}
