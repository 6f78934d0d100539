//! `e2e` — the repository's benchmark.
//!
//! One process runs one workload once, either timed (`--trace 0`: the
//! end-to-end metrics, tracing off) or traced (`--trace 1`: the
//! per-layer metrics, a fixed number of queries, spans written to
//! `out/<workload>.trace.jsonl`). Before anything is timed, every query's
//! answer is checked against an in-memory joint build of the same
//! records. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! e2e --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! e2e --merge <result.json>...          one document from several runs
//! e2e --compare <a.json> <b.json>       A/A check against the bounds
//! ```
//!
//! See `README.md` beside this package for the workloads and metrics.

mod gate;
mod http;
mod inputs;
mod live;
mod load;
mod metrics;
mod report;
mod serve;
mod setup;
mod spans;
mod staged;
mod static_db;
mod stats;

use std::path::PathBuf;

use nucdb_obs::json::Value;

use gate::Tally;
use metrics::Metrics;
use setup::Scale;
use static_db::Kind;

/// Passes over the mix in a traced run: 4 × 64 queries, the same every
/// time, so that every count repeats exactly.
pub const TRACE_PASSES: usize = 4;

pub const WORKLOADS: &[&str] = &[
    "family_fine",
    "screen_coarse",
    "serve_sharded",
    "live_mixed",
];

/// What one invocation was asked to do.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
}

/// What one run found.
pub struct Report {
    pub workload: &'static str,
    pub tally: Tally,
    pub recall: f64,
    /// Searches in the rounds the figures come from (timed), or traced.
    pub samples: usize,
    pub metrics: Metrics,
    /// Figures of one workload only, printed and merged but outside the
    /// metric tables every workload must fill.
    pub extras: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// An empty report whose metrics fill the end-to-end table, or the
    /// per-layer table for a traced run.
    pub fn new(workload: &'static str, traced: bool) -> Report {
        let table = if traced {
            metrics::PER_LAYER
        } else {
            metrics::END_TO_END
        };
        Report {
            workload,
            tally: Tally::default(),
            recall: 0.0,
            samples: 0,
            metrics: Metrics::new(table),
            extras: Vec::new(),
        }
    }
}

impl Report {
    /// Fill in what every timed run reports the same way.
    pub fn set_end_to_end(
        &mut self,
        setup_s: f64,
        window: &load::Summary,
        stored_bytes_per_base: f64,
    ) {
        let m = &mut self.metrics;
        m.set("setup_s", setup_s);
        m.set("latency_p50_ms", window.p50_ms);
        m.set("latency_p90_ms", window.p90_ms);
        m.set("throughput_qps", window.throughput_qps);
        m.set("recall_planted", self.recall);
        m.set("stored_bytes_per_base", stored_bytes_per_base);
        self.extras = vec![
            ("tail_ratio_p95", window.tail_ratio_p95, "ratio"),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
        ];
        self.samples = window.samples;
    }

    /// Write a traced run's spans to `out/<workload>.trace.jsonl`.
    pub fn write_trace(&self, trace: &spans::Trace) -> Result<(), String> {
        trace
            .write_jsonl(&out_dir().join(format!("{}.trace.jsonl", self.workload)))
            .map_err(|e| format!("write trace: {e}"))
    }
}

/// The benchmark's own output directory (`e2e/out`, git-ignored): work
/// directories, traces and merged results. Nothing is written elsewhere.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create e2e/out");
    dir
}

/// `VmHWM` of this process, in megabytes.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

fn usage() -> ! {
    eprintln!(
        "usage: e2e --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n       \
         e2e --merge <result.json>...\n       e2e --compare <a.json> <b.json>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn run(workload: &str, trace: bool, ctx: &Ctx) -> Result<Report, String> {
    match (workload, trace) {
        ("family_fine", false) => static_db::run_timed(Kind::FamilyFine, ctx),
        ("family_fine", true) => static_db::run_traced(Kind::FamilyFine, ctx),
        ("screen_coarse", false) => static_db::run_timed(Kind::ScreenCoarse, ctx),
        ("screen_coarse", true) => static_db::run_traced(Kind::ScreenCoarse, ctx),
        ("serve_sharded", false) => serve::run_timed(ctx),
        ("serve_sharded", true) => serve::run_traced(ctx),
        ("live_mixed", false) => live::run_timed(ctx),
        ("live_mixed", true) => live::run_traced(ctx),
        _ => Err(format!("unknown workload {workload}")),
    }
}

/// Print the run for a reader, then the one line the pipeline parses.
fn print_report(report: &Report, trace: bool) -> bool {
    let metrics = &report.metrics;
    let w = report.workload;
    for (name, value, unit) in metrics.rows() {
        println!("{w} {name} {value} {unit}");
    }
    for (name, value, unit) in &report.extras {
        println!("{w} {name} {value} {unit}");
    }
    let Tally { attempted, failed } = report.tally;
    println!("{w} samples {} count", report.samples);
    println!("{w} ops_attempted {attempted} count");
    println!("{w} ops_failed {failed} count");
    println!(
        "{w} failed_fraction {} ratio",
        failed as f64 / attempted.max(1) as f64
    );
    let missing = if trace { Vec::new() } else { metrics.missing() };
    for name in &missing {
        eprintln!("{w}: end-to-end metric {name} was not measured");
    }
    let correct = failed == 0 && missing.is_empty();
    let members = vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::Num(attempted as f64)),
        ("failed".to_string(), Value::Num(failed as f64)),
        ("metrics".to_string(), metrics.to_json()),
    ];
    // Kept out of the contract line's four keys: extras ride on a line
    // of their own that `--merge` picks up.
    if !report.extras.is_empty() {
        let extras = Value::Obj(
            report
                .extras
                .iter()
                .map(|(n, v, u)| (n.to_string(), metrics::value_with_unit(*v, u)))
                .collect(),
        );
        println!("extras {}", extras.render());
    }
    println!("{}", Value::Obj(members).render());
    correct
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--merge") => std::process::exit(report::merge(&args[1..])),
        Some("--compare") if args.len() == 3 => {
            std::process::exit(report::compare(&args[1], &args[2]))
        }
        _ => {}
    }

    let mut workload = None;
    let mut ctx = Ctx {
        seed: inputs::DEFAULT_SEED,
        seconds: 15.0,
        scale: setup::FULL,
    };
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => ctx.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => ctx.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--smoke" => ctx.scale = setup::SMOKE,
            _ => usage(),
        }
    }
    let Some(workload) = workload else { usage() };
    if !(ctx.seconds > 0.0 && ctx.seconds <= 60.0) {
        eprintln!("--seconds must be in (0, 60]");
        std::process::exit(2);
    }

    match run(&workload, trace, &ctx) {
        Ok(report) => {
            if !print_report(&report, trace) {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("{workload}: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload, timed and traced, at smoke scale: every named
    /// metric comes out, the result parses, nothing fails, and two
    /// traced runs agree on every count.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "timings need a release build: e2e/run.sh --test"
    )]
    fn smoke_produces_every_metric_and_traced_counts_repeat() {
        let ctx = Ctx {
            seed: inputs::DEFAULT_SEED,
            seconds: 2.0,
            scale: setup::SMOKE,
        };
        for &workload in WORKLOADS {
            let timed = run(workload, false, &ctx).unwrap();
            assert_eq!(timed.tally.failed, 0, "{workload}");
            let metrics = &timed.metrics;
            assert_eq!(metrics.missing(), Vec::<&str>::new(), "{workload}");
            let parsed = nucdb_obs::json::parse(&metrics.to_json().render()).unwrap();
            for (name, _) in metrics::END_TO_END {
                let value = parsed.get(name).and_then(|m| m.get("value"));
                assert!(value.and_then(Value::as_f64).is_some(), "{workload} {name}");
            }

            let first = run(workload, true, &ctx).unwrap();
            let second = run(workload, true, &ctx).unwrap();
            assert_eq!(first.tally.failed, 0, "{workload}");
            assert_eq!(first.tally, second.tally, "{workload}");
            let (first, second) = (first.metrics, second.metrics);
            assert_eq!(first.rows().len(), metrics::PER_LAYER.len());
            for ((name, a, _), (_, b, _)) in first.rows().into_iter().zip(second.rows()) {
                if metrics::is_count(name) {
                    assert_eq!(a, b, "{workload} {name} differs between two traced runs");
                }
            }
            // The layers every workload exercises must have produced numbers.
            for name in [
                "index.ids_decoded_per_query",
                "core.fine.alignments_per_query",
            ] {
                assert!(
                    first.rows().iter().any(|r| r.0 == name && r.1 > 0.0),
                    "{workload} {name}"
                );
            }
        }
    }

    #[test]
    fn peak_rss_is_read_from_proc() {
        assert!(peak_rss_mb() > 1.0);
    }
}
