//! Merging the runs of a set into one document, and the A/A check of
//! two such documents against the bounds in `BENCHMARK.json`.

use nucdb_obs::json::{parse, Value};

use crate::metrics::is_count;

/// `e2e --merge [key=value]... <captured-stdout>...`: one document with
/// the given facts about the host and, per workload, the result line
/// (and the extras line, if any) of its captured output. Prints the
/// document; returns the exit code.
pub fn merge(args: &[String]) -> i32 {
    let mut host = Vec::new();
    let mut workloads = Vec::new();
    for arg in args {
        if let Some((key, value)) = arg.split_once('=') {
            let value = value
                .parse::<f64>()
                .map_or_else(|_| Value::Str(value.to_string()), Value::Num);
            host.push((key.to_string(), value));
            continue;
        }
        match read_run(arg) {
            Ok(run) => workloads.push(run),
            Err(e) => {
                eprintln!("{arg}: {e}");
                return 1;
            }
        }
    }
    // One workload a line, so that a committed document diffs by workload.
    let runs: Vec<String> = workloads
        .iter()
        .map(|(name, run)| format!("  {}: {}", Value::Str(name.clone()).render(), run.render()))
        .collect();
    println!(
        "{{\n \"host\": {},\n \"workloads\": {{\n{}\n }}\n}}",
        Value::Obj(host).render(),
        runs.join(",\n")
    );
    0
}

/// `(workload, result)` from the captured standard output of one run.
fn read_run(path: &str) -> Result<(String, Value), String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let workload = text
        .split_whitespace()
        .next()
        .ok_or("empty output")?
        .to_string();
    let last = text.lines().last().ok_or("empty output")?;
    let Value::Obj(mut result) = parse(last).map_err(|e| format!("last line: {e}"))? else {
        return Err("last line is not an object".to_string());
    };
    if let Some(extras) = text.lines().find_map(|l| l.strip_prefix("extras ")) {
        result.push((
            "extras".to_string(),
            parse(extras).map_err(|e| format!("extras line: {e}"))?,
        ));
    }
    Ok((workload, Value::Obj(result)))
}

/// Bound and direction of every end-to-end metric, from `BENCHMARK.json`.
fn bounds() -> Vec<(String, f64, bool)> {
    let doc = parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    let Some(Value::Arr(entries)) = doc.get("end_to_end") else {
        panic!("BENCHMARK.json has no end_to_end array");
    };
    entries
        .iter()
        .map(|e| {
            (
                e.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string(),
                e.get("bound").and_then(Value::as_f64).expect("bound"),
                e.get("better").and_then(Value::as_str) == Some("lower"),
            )
        })
        .collect()
}

/// What the A/A check says about one metric of one workload.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    /// End-to-end metric, `b` worse than `a` by this share of `a`
    /// (negative: better), within its bound or not.
    Bounded { worse_by: f64, bound: f64, ok: bool },
    /// A count: must repeat exactly.
    Exact { ok: bool },
    /// A per-layer timing: reported, not judged.
    ReportOnly { change: f64 },
}

pub fn judge(name: &str, a: f64, b: f64, bounds: &[(String, f64, bool)]) -> Verdict {
    let change = if a == 0.0 { 0.0 } else { (b - a) / a };
    if let Some((_, bound, lower_is_better)) = bounds.iter().find(|(n, _, _)| n == name) {
        // In an A/A comparison neither side is the reference, so a
        // difference in either direction is the noise being measured.
        let worse_by = if *lower_is_better { change } else { -change };
        return Verdict::Bounded {
            worse_by,
            bound: *bound,
            ok: change.abs() <= *bound,
        };
    }
    if is_count(name) {
        return Verdict::Exact { ok: a == b };
    }
    Verdict::ReportOnly { change }
}

fn metric_values(result: &Value) -> Vec<(String, f64)> {
    let Some(Value::Obj(metrics)) = result.get("metrics") else {
        return Vec::new();
    };
    metrics
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect()
}

/// `e2e --compare a.json b.json`: two merged documents of the same
/// commit, metric by metric. Exit code 1 on any breach.
pub fn compare(a_path: &str, b_path: &str) -> i32 {
    let load = |path: &str| -> Result<Value, String> {
        parse(&std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?)
            .map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return 1;
        }
    };
    let (Some(Value::Obj(a_runs)), Some(b_runs)) = (a.get("workloads"), b.get("workloads")) else {
        eprintln!("not merged result documents");
        return 1;
    };
    let bounds = bounds();
    let mut breaches = 0;
    for (workload, a_run) in a_runs {
        let Some(b_run) = b_runs.get(workload) else {
            eprintln!("{workload} is missing from {b_path}");
            breaches += 1;
            continue;
        };
        let b_values = metric_values(b_run);
        for (name, a_value) in metric_values(a_run) {
            let Some((_, b_value)) = b_values.iter().find(|(n, _)| *n == name) else {
                eprintln!("{workload} {name} is missing from {b_path}");
                breaches += 1;
                continue;
            };
            let line = match judge(&name, a_value, *b_value, &bounds) {
                Verdict::Bounded {
                    worse_by,
                    bound,
                    ok,
                } => {
                    breaches += u32::from(!ok);
                    format!(
                        "{:+.2}% worse, bound {:.0}% {}",
                        worse_by * 100.0,
                        bound * 100.0,
                        if ok { "ok" } else { "BREACH" }
                    )
                }
                Verdict::Exact { ok } => {
                    breaches += u32::from(!ok);
                    (if ok { "exact ok" } else { "exact BREACH" }).to_string()
                }
                Verdict::ReportOnly { change } => format!("{:+.2}% report-only", change * 100.0),
            };
            println!("{workload} {name} {a_value} {b_value} {line}");
        }
    }
    i32::from(breaches > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_bounds() -> Vec<(String, f64, bool)> {
        vec![
            ("latency_p50_ms".to_string(), 0.10, true),
            ("throughput_qps".to_string(), 0.10, false),
        ]
    }

    #[test]
    fn bounded_metrics_are_judged_by_direction_and_bound() {
        let b = test_bounds();
        assert_eq!(
            judge("latency_p50_ms", 10.0, 10.5, &b),
            Verdict::Bounded {
                worse_by: 0.05,
                bound: 0.10,
                ok: true
            }
        );
        let Verdict::Bounded { worse_by, ok, .. } = judge("throughput_qps", 100.0, 85.0, &b) else {
            panic!("throughput is bounded");
        };
        assert!((worse_by - 0.15).abs() < 1e-12 && !ok);
        let Verdict::Bounded { worse_by, ok, .. } = judge("latency_p50_ms", 10.0, 8.0, &b) else {
            panic!("latency is bounded");
        };
        assert!(worse_by < 0.0 && !ok, "a 20 % A/A gap breaches either way");
    }

    #[test]
    fn counts_must_repeat_exactly_and_layer_timings_are_report_only() {
        let b = test_bounds();
        assert_eq!(
            judge("index.ids_decoded_per_query", 5.0, 5.0, &b),
            Verdict::Exact { ok: true }
        );
        assert_eq!(
            judge("index.ids_decoded_per_query", 5.0, 6.0, &b),
            Verdict::Exact { ok: false }
        );
        assert_eq!(
            judge("core.fine.ns_per_query", 100.0, 150.0, &b),
            Verdict::ReportOnly { change: 0.5 }
        );
    }

    #[test]
    fn every_bound_in_benchmark_json_is_usable() {
        let bounds = bounds();
        assert_eq!(bounds.len(), crate::metrics::END_TO_END.len());
        assert!(bounds.iter().all(|(_, b, _)| *b > 0.0 && *b <= 0.25));
    }

    #[test]
    fn a_captured_run_merges_with_its_extras() {
        let path = crate::out_dir().join(format!("merge-test-{}.txt", std::process::id()));
        std::fs::write(
            &path,
            "live_mixed setup_s 0.1 s\nextras {\"write_latency_p50_ms\":{\"value\":2.5,\"unit\":\"ms\"}}\n\
             {\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":0.1,\"unit\":\"s\"}}}\n",
        )
        .unwrap();
        let (workload, result) = read_run(path.to_str().unwrap()).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(workload, "live_mixed");
        assert_eq!(metric_values(&result), [("setup_s".to_string(), 0.1)]);
        let extra = result
            .get("extras")
            .and_then(|e| e.get("write_latency_p50_ms"));
        assert_eq!(
            extra.and_then(|e| e.get("value")).and_then(Value::as_f64),
            Some(2.5)
        );
    }
}
